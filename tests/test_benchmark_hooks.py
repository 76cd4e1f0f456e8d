"""Smoke test of the benchmark's tracing hooks.

``perfbench/layers.py`` names the program functions the benchmark traces,
and ``perfbench/spans.py`` patches them.  Installing the tracer over every
target and running one ``structure`` op catches a traced name that was
removed or renamed, without a benchmark run.  The files are loaded by path
and only read.
"""

import importlib.util
from pathlib import Path

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


def test_structure_op_is_traced(tmp_path):
    layers, spans = load("layers"), load("spans")
    graph = tmp_path / "c5.g6"
    graph.write_text(graph6_encode(cycle(5)) + "\n")
    tracer = spans.Tracer()
    tracer.install(layers.targets())
    try:
        code, report = cli.run(["structure", "--graph", str(graph)])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK and report["result"]["chi"] == 3
    assert tracer.calls["structure.preprocess"] >= 1
    assert tracer.calls["structure.decompose_atoms"] >= 1
    assert set(tracer.calls) <= set(layers.TIMED) | {"cli.main"}
