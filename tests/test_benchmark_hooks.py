"""Smoke test of the benchmark's tracing hooks.

``perfbench/layers.py`` names the program functions the benchmark traces,
and ``perfbench/spans.py`` patches them.  Installing the tracer over every
target and running one small op of each subcommand catches a traced name
that was removed or renamed, without a benchmark run.  The files are loaded
by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from cocolour import cli
from cocolour.graphs import cycle, graph6_encode

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(argv):
    """Run one CLI command with the tracer installed over every target."""
    layers, spans = load("layers"), load("spans")
    tracer = spans.Tracer()
    tracer.install(layers.targets())
    try:
        code, report = cli.run(argv)
    finally:
        tracer.uninstall()
    assert set(tracer.calls) <= set(layers.TIMED) | {"cli.main"}
    return code, report, tracer


def test_structure_op_is_traced(tmp_path):
    graph = tmp_path / "c5.g6"
    graph.write_text(graph6_encode(cycle(5)) + "\n")
    code, report, tracer = traced_run(["structure", "--graph", str(graph), "--explain"])
    assert code == cli.EXIT_OK and report["result"]["chi"] == 3
    assert tracer.calls["structure.preprocess"] >= 1
    assert tracer.calls["structure.decompose_atoms"] >= 1
    # the case analysis, preprocessing included, runs only under --explain
    code, report, tracer = traced_run(["structure", "--graph", str(graph)])
    assert code == cli.EXIT_OK and report["result"]["chi"] == 3
    assert tracer.calls["structure.preprocess"] == 0
    assert tracer.calls["structure.decompose_atoms"] >= 1


# Spans of ``cli``'s own module-level bindings, which the tracer patches in
# ``cli``: a handler that calls around them, say through a local
# ``from .graphs import load_graph``, leaves its span at 0 calls.
CLI_BINDINGS = {
    "free-check": ("cli.parse_pattern", "graphs.load_graph"),
    "gadget": ("graphs.graph6_encode",),
}


@pytest.mark.parametrize(
    "argv, span",
    [
        (["classify", "--mode", "h-coh", "--pattern", "P5"], "classify"),
        (["free-check", "--graph", "{c5}", "--patterns", "P3"], "patterns.is_free"),
        (["gadget", "x3c", "--instance", "{x3c}", "--verify"], "gadgets.verify"),
        (["solve", "chi", "--graph", "{c5}"], "solvers.chromatic_number"),
        (["selfcomp", "--n", "4"], "patterns.enumerate_self_complementary"),
    ],
)
def test_each_subcommand_is_traced(tmp_path, argv, span):
    files = {"c5": tmp_path / "c5.g6", "x3c": tmp_path / "x3c.json"}
    files["c5"].write_text(graph6_encode(cycle(5)) + "\n")
    files["x3c"].write_text('{"q": 1, "k": 1, "triples": [[0, 1, 2]]}')
    argv = [arg.format(**files) for arg in argv]
    code, report, tracer = traced_run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_NEGATIVE), report
    for name in (span, *CLI_BINDINGS.get(argv[0], ())):
        assert tracer.calls[name] >= 1, name
    assert tracer.calls["cli.run"] == 1

