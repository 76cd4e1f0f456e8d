import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cocolour import classify, cli, gadgets, graphs, patterns, solvers
from cocolour.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    load_graph,
    main,
    parse_pattern,
    run,
    save_graph,
)
from cocolour.graphs import (
    cycle,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    path,
    star,
    subdivided_claw,
)


class TestParsePattern:
    def test_simple_terms(self):
        assert patterns.is_isomorphic(parse_pattern("P5"), path(5))
        assert patterns.is_isomorphic(parse_pattern("C7"), cycle(7))
        assert parse_pattern("K4").edge_count == 6
        assert patterns.is_isomorphic(parse_pattern("K1,3"), star(3))
        assert patterns.is_isomorphic(
            parse_pattern("S1,2,3"), subdivided_claw(1, 2, 3)
        )

    def test_sums_and_counts(self):
        g = parse_pattern("2P1+P3")
        assert g.n == 5 and g.edge_count == 2
        assert patterns.is_isomorphic(
            parse_pattern("P2+P3"), disjoint_union(path(2), path(3))
        )

    def test_complement_wrapper(self):
        assert parse_pattern("co(P6)") == path(6).complement()
        assert parse_pattern("co(co(P6))") == path(6)
        # the co( layers are peeled in a loop, not one call each
        assert parse_pattern("co(" * 1200 + "P3" + ")" * 1200) == path(3)
        assert parse_pattern("co(" * 1201 + "P3" + ")" * 1201) == path(3).complement()

    def test_whitespace_tolerated(self):
        assert parse_pattern(" P2 + P3 ") == parse_pattern("P2+P3")

    def test_rejects_garbage(self):
        for bad in ("", "P", "Q5", "P5+", "1,3", "K1,", "S1,2"):
            with pytest.raises(ValueError):
                parse_pattern(bad)

    # a spec over the 10,000-vertex limit, its vertex count, and a spec at
    # the limit
    OVERSIZED = {
        "complete": ("K10001", 10_001, "K10000"),
        "count": ("99999999P1", 99_999_999, "10000P1"),
        "sum": ("K5000+5001P1", 10_001, "K5000+5000P1"),
    }

    @pytest.mark.parametrize("case", sorted(OVERSIZED))
    def test_oversized_pattern_is_refused_before_it_is_built(
        self, tmp_path, monkeypatch, capsys, case
    ):
        over, n, limit = self.OVERSIZED[case]
        host = tmp_path / "c5.g6"
        save_graph(cycle(5), str(host))

        def build(*args):
            raise RuntimeError("the pattern was built")

        monkeypatch.setattr(graphs, "complete", build)
        monkeypatch.setattr(graphs, "path", build)
        for argv in (
            ["free-check", "--graph", str(host), "--patterns"],
            ["classify", "--mode", "h-free", "--pattern"],
        ):
            code, report = run(argv + [over])
            assert code == EXIT_INPUT
            assert report["error"] == f"pattern {over!r} has {n} vertices, more than 10000"
            assert capsys.readouterr().err == ""  # no traceback
            code, report = run(argv + [limit])
            assert code == EXIT_INTERNAL
            assert report["error"] == "internal error: RuntimeError: the pattern was built"
            capsys.readouterr()  # the internal error's traceback


class TestGraphFiles:
    def test_dispatch_by_extension(self, tmp_path):
        g = cycle(5)
        for name in ("g.g6", "g.col", "g.edges"):
            p = tmp_path / name
            save_graph(g, str(p))
            assert load_graph(str(p)) == g


class TestRun:
    def test_classify_h_coh_matches_module(self, tmp_path):
        p = tmp_path / "p5.g6"
        save_graph(path(5), str(p))
        code, report = run(["classify", "--mode", "h-coh", "--graph", str(p)])
        assert code == EXIT_OK
        direct = classify.classify_h_coh(path(5))
        assert report["result"]["verdict"] == direct.verdict
        assert report["result"]["rule"] == direct.rule
        json.dumps(report)  # must be serializable

    def test_classify_kcol(self):
        code, report = run(["classify", "--mode", "kcol", "--k", "3", "--t", "7"])
        assert code == EXIT_OK
        assert report["result"]["verdict"] == "Poly"
        code, _ = run(["classify", "--mode", "kcol", "--k", "3"])
        assert code == EXIT_INPUT

    def test_classify_selfcomp_family(self):
        code, report = run(
            ["classify", "--mode", "selfcomp-family", "--pattern", "C5",
             "--pattern", "P4"]
        )
        assert code == EXIT_OK
        assert report["result"]["verdict"] == "Poly"
        code, report = run(
            ["classify", "--mode", "selfcomp-family", "--pattern", "P3"]
        )
        assert code == EXIT_INPUT

    def test_free_check_exit_codes(self, tmp_path):
        p = tmp_path / "host.g6"
        save_graph(path(6), str(p))
        code, report = run(["free-check", "--graph", str(p), "--patterns", "C5"])
        assert code == EXIT_OK and report["result"]["free"]
        code, report = run(
            ["free-check", "--graph", str(p), "--patterns", "C5", "P2+P3"]
        )
        assert code == EXIT_NEGATIVE
        assert report["result"]["pattern"] == "P2+P3"
        emb = report["result"]["embedding"]
        assert len(emb) == 5

    def test_gadget_x3c(self, tmp_path):
        inst = gadgets.X3CInstance(q=1, k=1, triples=((0, 1, 2),))
        src = tmp_path / "inst.json"
        src.write_text(inst.to_json())
        out = tmp_path / "gadget.g6"
        code, report = run(
            ["gadget", "x3c", "--instance", str(src), "--verify",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        assert report["result"]["n"] == 4
        assert report["result"]["verification"]["ok"]
        assert load_graph(str(out)).n == 4

    def test_gadget_huang(self, tmp_path):
        src = tmp_path / "sat.cnf"
        src.write_text("p cnf 2 1\n1 -1 2 0\n")
        code, report = run(
            ["gadget", "huang", "--instance", str(src), "--nice", "c7",
             "--verify"]
        )
        assert code == EXIT_OK
        assert report["result"]["n"] == 13
        assert report["result"]["m"] == 39
        assert report["result"]["verification"]["ok"]

    # x3c has 2q + 2k vertices and huang 3n + 7m with the c7 graph: the
    # first instance of each case is one to three vertices over the graph6
    # limit, the second at most two under it
    OVERSIZED = {
        "x3c": ("x3c", "x.json", (1, 129_023), (1, 129_022), 258_048, 258_046),
        "huang-vars": ("huang", "s.cnf", (86_016, 0), (86_015, 0), 258_048, 258_045),
        "huang-clauses": ("huang", "s.cnf", (3, 36_863), (3, 36_862), 258_050, 258_043),
    }

    @staticmethod
    def instance_text(kind, a, b):
        if kind == "x3c":
            return json.dumps({"q": a, "k": b, "triples": [[0, 1, 2]] * b})
        return f"p cnf {a} {b}\n" + "1 2 3 0\n" * b

    @pytest.mark.parametrize("case", sorted(OVERSIZED))
    def test_oversized_gadget_is_refused_before_it_is_built(
        self, tmp_path, monkeypatch, case
    ):
        kind, name, over, under, n, n_under = self.OVERSIZED[case]
        src = tmp_path / name
        # unpatched: each instance is read in a fraction of a second, and a
        # build that listed its edges would take gigabytes, so a quick
        # refusal shows that none was listed
        src.write_text(self.instance_text(kind, *over))
        start = time.perf_counter()
        code, report = run(["gadget", kind, "--instance", str(src)])
        assert time.perf_counter() - start < 2
        assert code == EXIT_INPUT
        assert report["error"] == f"graph6 supports at most 258047 vertices, got {n}"
        # one under the limit the check passes, and the build stops just
        # after it: an x3c build would list about 1.7e10 padding edges
        checked = []

        def check_then_stop(vertices):
            checked.append(vertices)
            graphs.graph6_size_check(vertices)
            raise RuntimeError("the size check passed")

        monkeypatch.setattr(gadgets, "graph6_size_check", check_then_stop)
        src.write_text(self.instance_text(kind, *under))
        code, report = run(["gadget", kind, "--instance", str(src)])
        assert checked == [n_under]
        assert code == EXIT_INTERNAL
        assert report["error"] == "internal error: RuntimeError: the size check passed"

    def test_solve_chi_and_kcol(self, tmp_path):
        p = tmp_path / "c5.col"
        save_graph(cycle(5), str(p))
        code, report = run(["solve", "chi", "--graph", str(p)])
        assert code == EXIT_OK and report["result"]["chi"] == 3
        code, report = run(["solve", "kcol", "--graph", str(p), "--k", "2"])
        assert code == EXIT_NEGATIVE
        assert not report["result"]["colourable"]
        code, report = run(["solve", "kcol", "--graph", str(p), "--k", "3"])
        assert code == EXIT_OK
        colours = report["result"]["colouring"]
        assert solvers.validate_colouring(
            cycle(5), solvers.Colouring(tuple(colours), 3)
        )
        # k far above n runs the search at k = n
        code, report = run(["solve", "kcol", "--graph", str(p), "--k", "1000000000"])
        assert code == EXIT_OK
        colours = report["result"]["colouring"]
        assert solvers.validate_colouring(
            cycle(5), solvers.Colouring(tuple(colours), max(colours) + 1)
        )

    def test_solve_clique_and_cover(self, tmp_path):
        p = tmp_path / "c5.g6"
        save_graph(cycle(5), str(p))
        code, report = run(["solve", "clique", "--graph", str(p)])
        assert code == EXIT_OK and report["result"]["omega"] == 2
        code, report = run(["solve", "cliquecover", "--graph", str(p)])
        assert code == EXIT_OK
        assert report["result"]["clique_cover_number"] == 3

    def test_budget_exit_code(self, tmp_path):
        p = tmp_path / "c9.g6"
        save_graph(cycle(9), str(p))
        code, report = run(
            ["solve", "chi", "--graph", str(p), "--budget", "0.0"]
        )
        assert code == EXIT_BUDGET
        assert "budget" in report["error"]

    def test_nan_budget_is_an_input_error(self, tmp_path):
        # no time compares greater than NaN, so a NaN budget would never
        # run out; a negative one runs out at once, as 0.0 does
        c9, c5 = tmp_path / "c9.g6", tmp_path / "c5.g6"
        save_graph(cycle(9), str(c9))
        save_graph(cycle(5), str(c5))
        for argv in (
            ["solve", "chi", "--graph", str(c9)],
            ["solve", "kcol", "--k", "2", "--graph", str(c9)],
            ["solve", "clique", "--graph", str(c9)],
            ["structure", "--graph", str(c5)],
        ):
            code, report = run(argv + ["--budget", "nan"])
            assert code == EXIT_INPUT
            assert "--budget" in report["error"]
            code, report = run(argv + ["--budget", "-1"])
            assert code == EXIT_BUDGET

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        def broken(g, budget=None):
            raise ZeroDivisionError("solver bug")

        monkeypatch.setattr(solvers, "chromatic_number", broken)
        p = tmp_path / "c5.g6"
        save_graph(cycle(5), str(p))
        code, report = run(["solve", "chi", "--graph", str(p)])
        assert code == EXIT_INTERNAL
        assert "ZeroDivisionError" in report["error"]
        assert json.loads(json.dumps(report)) == report

    def test_long_odd_cycle_is_solved(self, tmp_path):
        # the DSATUR search is iterative: 1001 levels deep is no problem
        g = cycle(1001)
        p = tmp_path / "c1001.g6"
        save_graph(g, str(p))
        code, report = run(["solve", "kcol", "--k", "2", "--graph", str(p)])
        assert code == EXIT_NEGATIVE
        assert report["result"]["colourable"] is False
        code, report = run(["solve", "chi", "--graph", str(p)])
        assert code == EXIT_OK and report["result"]["chi"] == 3
        col = solvers.Colouring(tuple(report["result"]["colouring"]), 3)
        assert solvers.validate_colouring(g, col)

    def test_selfcomp(self):
        code, report = run(["selfcomp", "--n", "4"])
        assert code == EXIT_OK
        lines = report["result"]["graph6"]
        assert len(lines) == 1
        assert patterns.is_isomorphic(graph6_decode(lines[0]), path(4))
        code, report = run(["selfcomp", "--n", "5"])
        assert report["result"]["count"] == 2

    def test_selfcomp_vertex_count_bounds(self):
        # no graph of 2 or 3 mod 4 vertices is self-complementary, which is
        # known before anything of that size is built
        code, report = run(["selfcomp", "--n", str(10**6 + 2)])
        assert code == EXIT_OK
        assert report["result"] == {"n": 10**6 + 2, "count": 0, "graph6": []}
        code, report = run(["selfcomp", "--n", "-1"])
        assert code == EXIT_INPUT
        assert report["result"] is None
        assert "vertex count must be non-negative" in report["error"]
        # 0 or 1 mod 4 above 13 is refused at once: n = 16 alone has over
        # 2^31 candidates
        for n in (16, 1201):
            started = time.monotonic()
            code, report = run(["selfcomp", "--n", str(n)])
            assert time.monotonic() - started < 1.0
            assert code == EXIT_INPUT
            assert report["result"] is None
            assert f"at most 13 when it is 0 or 1 mod 4, got {n}" in report["error"]

    def test_structure_in_and_out_of_class(self, tmp_path):
        inside = tmp_path / "c5.g6"
        save_graph(cycle(5), str(inside))
        code, report = run(["structure", "--graph", str(inside)])
        assert code == EXIT_OK
        assert report["result"]["chi"] == 3
        assert report["result"]["in_class"]
        outside = tmp_path / "bad.g6"
        save_graph(disjoint_union(path(2), path(3)), str(outside))
        code, report = run(["structure", "--graph", str(outside)])
        assert code == EXIT_NEGATIVE
        assert not report["result"]["in_class"]

    def test_input_errors(self, tmp_path):
        code, report = run(["solve", "chi", "--graph", "/no/such/file"])
        assert code == EXIT_INPUT
        bad = tmp_path / "bad.g6"
        bad.write_text("\x1c\x1c")
        code, report = run(["solve", "chi", "--graph", str(bad)])
        assert code == EXIT_INPUT
        code, report = run(["nonsense"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "text",
        ["p cnf \u0663 1\n1 2 3 0\n", "p cnf 1_0 1\n1 2 3 0\n", "p cnf 3 2\n1 2 3 0\n"],
        ids=["non-ascii-digit", "underscore", "clause-count"],
    )
    def test_gadget_huang_malformed_cnf_is_input_error(self, tmp_path, text):
        src = tmp_path / "sat.cnf"
        src.write_text(text, encoding="utf-8")
        code, report = run(["gadget", "huang", "--instance", str(src)])
        assert code == EXIT_INPUT
        assert report["result"] is None

    @pytest.mark.parametrize(
        "text", ['{"q": 1}', '{"q": 2, "k": 3}', "[1, 2, 3]"]
    )
    def test_gadget_x3c_malformed_json_is_input_error(self, tmp_path, text):
        src = tmp_path / "inst.json"
        src.write_text(text)
        code, report = run(["gadget", "x3c", "--instance", str(src)])
        assert code == EXIT_INPUT
        assert "X3C" in report["error"]

    def test_parse_error_then_valid_command(self):
        # the parser is built once per process and reused by every run
        code, report = run(["solve", "chi"])  # --graph is missing
        assert code == EXIT_INPUT and report["result"] is None
        code, report = run(["selfcomp", "--n", "4"])
        assert code == EXIT_OK and report["result"]["count"] == 1
        code, report = run(["selfcomp", "--n", "x"])
        assert code == EXIT_INPUT
        code, report = run(["classify", "--mode", "kcol", "--k", "4", "--t", "8"])
        assert code == EXIT_OK and report["result"]["verdict"] == "NPComplete"

    def test_report_echoes_command(self):
        code, report = run(["selfcomp", "--n", "1"])
        assert code == EXIT_OK
        assert report["command"] == ["selfcomp", "--n", "1"]
        assert report["elapsed"] >= 0
        assert "seed" not in report
        code, _ = run(["--seed", "7", "selfcomp", "--n", "1"])
        assert code == EXIT_INPUT


class TestInputText:
    """Graph and instance files are read as UTF-8, so comments may hold any
    character, and error offsets count bytes of the file."""

    @pytest.mark.parametrize(
        "name, head, good, bad",
        [
            ("g.col", "c \u00e9\n", "p edge 2 1\ne 1 2\n", "p edge 2 1\ne 1 x\n"),
            ("g.txt", "# \u00e9\n", "2 1\n0 1\n", "2 1\n0 x\n"),
            # only \n, \r\n and \r end a line, not what str.splitlines adds
            ("g.col", "c a\u2028b\n", "p edge 2 1\ne 1 2\n", "p edge 2 1\ne 1 x\n"),
            ("g.col", "c a\fb\n", "p edge 2 1\ne 1 2\n", "p edge 2 1\ne 1 x\n"),
            ("g.txt", "# a\u2028b\n", "2 1\n0 1\n", "2 1\n0 x\n"),
            ("g.txt", "# a\fb\n", "2 1\n0 1\n", "2 1\n0 x\n"),
        ],
    )
    def test_utf8_comments_reach_the_decoders(self, tmp_path, name, head, good, bad):
        path = tmp_path / name
        path.write_bytes((head + good).encode("utf-8"))
        code, report = run(["solve", "chi", "--graph", str(path)])
        assert code == EXIT_OK and report["result"]["chi"] == 2
        path.write_bytes((head + bad).encode("utf-8"))
        code, report = run(["solve", "chi", "--graph", str(path)])
        # the bad line is the second after the comment
        offset = len((head + bad.splitlines(keepends=True)[0]).encode("utf-8"))
        assert code == EXIT_INPUT
        assert report["error"].endswith(f"(at byte {offset})")

    def test_utf8_comment_in_a_cnf_instance(self, tmp_path):
        src = tmp_path / "sat.cnf"
        for head in ("c \u00e9\n", "c a\u2028b\n", "c a\fb\n"):
            src.write_bytes((head + "p cnf 2 1\n1 -1 2 0\n").encode("utf-8"))
            code, report = run(["gadget", "huang", "--instance", str(src)])
            assert code == EXIT_OK and report["result"]["n"] == 13, head

    @pytest.mark.parametrize(
        "argv, name, data",
        [
            (["solve", "chi", "--graph"], "g.col", b"p edge 2 1\nc \xff\ne 1 2\n"),
            (["solve", "chi", "--graph"], "g.g6", b"A\xff\n"),
            (["gadget", "huang", "--instance"], "s.cnf", b"p cnf 2 1\nc \xff\n1 2 0\n"),
            (["gadget", "x3c", "--instance"], "x.json", b'{"q": 1, "k": 1, \xff}'),
        ],
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, argv, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, report = run(argv + [str(path)])
        assert code == EXIT_INPUT
        assert report["error"] == f"invalid UTF-8 byte (at byte {data.index(0xFF)})"


class TestModuleSets:
    """Each subcommand, run in a fresh interpreter, loads only the cocolour
    modules it uses, and never ``dataclasses`` or the ``inspect`` it
    imports."""

    SCRIPT = (
        "import json, sys\n"
        "from cocolour import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps(list(sys.modules)))\n"
        "sys.exit(code)\n"
    )

    # argv, exit code and the cocolour modules loaded, less the package
    CASES = {
        "classify-kcol": (["classify", "--mode", "kcol", "--k", "4", "--t", "8"],
                          EXIT_OK, {"cli", "graphs", "classify"}),
        "classify-h-coh": (["classify", "--mode", "h-coh", "--pattern", "P5"],
                           EXIT_OK, {"cli", "graphs", "classify", "patterns"}),
        "free-check": (["free-check", "--graph", "{c5}", "--patterns", "P3"],
                       EXIT_NEGATIVE, {"cli", "graphs", "patterns"}),
        "solve-chi": (["solve", "chi", "--graph", "{c5}"],
                      EXIT_OK, {"cli", "graphs", "solvers"}),
        "selfcomp": (["selfcomp", "--n", "4"], EXIT_OK, {"cli", "graphs", "patterns"}),
        "gadget-x3c": (["gadget", "x3c", "--instance", "{x3c}", "--verify"],
                       EXIT_OK, {"cli", "graphs", "gadgets", "patterns", "solvers"}),
        "structure": (["structure", "--graph", "{c5}"],
                      EXIT_OK, {"cli", "graphs", "patterns", "solvers", "structure"}),
        "malformed": (["solve", "chi"], EXIT_INPUT, {"cli", "graphs"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_only_the_modules_of_the_subcommand_load(self, tmp_path, case):
        argv, code, modules = self.CASES[case]
        files = {"c5": tmp_path / "c5.g6", "x3c": tmp_path / "x3c.json"}
        save_graph(cycle(5), str(files["c5"]))
        files["x3c"].write_text('{"q": 1, "k": 1, "triples": [[0, 1, 2]]}')
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *(a.format(**files) for a in argv)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert {
            m.removeprefix("cocolour.") for m in loaded if m.startswith("cocolour.")
        } == modules
        assert not {"dataclasses", "inspect"} & set(loaded)


class TestMain:
    def test_each_report_is_one_line_of_json(self, tmp_path, capsys):
        c5 = tmp_path / "c5.g6"
        save_graph(cycle(5), str(c5))
        for argv in (
            ["structure", "--graph", str(c5)],
            ["structure", "--graph", str(c5), "--explain"],
            ["solve", "chi", "--graph", str(c5)],
            ["solve", "chi", "--graph", str(tmp_path / "missing.g6")],
            ["nonsense"],
        ):
            code = main(argv)
            out = capsys.readouterr().out
            assert out.endswith("\n") and out.count("\n") == 1
            report = json.loads(out)
            assert report["command"] == argv
            assert code == (EXIT_OK if report["result"] else EXIT_INPUT)

    def test_structure_explain(self, tmp_path):
        g = tmp_path / "c5.g6"
        save_graph(cycle(5), str(g))
        code, lean = run(["structure", "--graph", str(g)])
        code_x, full = run(["structure", "--graph", str(g), "--explain"])
        assert code == code_x == EXIT_OK
        (atom,), (atom_x,) = lean["result"]["atoms"], full["result"]["atoms"]
        assert "claims" not in atom and "preprocessing" not in atom
        assert atom_x["claims"]["01"]["holds"]
        assert atom == {k: v for k, v in atom_x.items() if k in atom}
        lean["result"].pop("atoms"), full["result"].pop("atoms")
        assert lean["result"] == full["result"]

    def test_closed_stdout_is_exit_2_without_traceback(self, monkeypatch, capsys):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["selfcomp", "--n", "4"]) == EXIT_INPUT
        assert main(["classify", "--mode", "kcol", "--k", "4", "--t", "8"]) == EXIT_INPUT
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_fresh_process(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ))
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cocolour.cli", "selfcomp", "--n", "5"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == b""


# The input files of the transcript: C5; a class member whose atoms are the
# clique {0, 6} and a C5 with the false twin 5 of vertex 0; P2+P3 as an edge
# list; an X3C instance and a CNF.
TRANSCRIPT_INPUTS = {
    "c5.g6": "Dhc\n",
    "member.g6": "FhdK?\n",
    "p2p3.txt": "5 3\n0 1\n2 3\n3 4\n",
    "x3c.json": '{"q": 1, "k": 1, "triples": [[0, 1, 2]]}\n',
    "sat.cnf": "p cnf 2 1\n1 -1 2 0\n",
}
ELAPSED = re.compile(r'"elapsed": [^,}]+')


def transcript():
    """(command line, exit code, printed text) of each case of
    cli_transcript.txt: a "$ cocolour" line, an "exit" line, then the text
    the command printed, its ``elapsed`` null."""
    text = (Path(__file__).parent / "cli_transcript.txt").read_text()
    cases = []
    for block in re.split(r"^\$ cocolour ", text, flags=re.M)[1:]:
        line, code, printed = block.split("\n", 2)
        cases.append(pytest.param(
            line, int(code.removeprefix("exit ")), printed,
            id=re.sub(r"[^\w.,()+-]+", "_", line).strip("_"),
        ))
    return cases


class TestTranscript:
    """The exact text of every subcommand's report, key order included."""

    @pytest.mark.parametrize("line, code, printed", transcript())
    def test_printed_report(self, tmp_path, monkeypatch, capsys, line, code, printed):
        monkeypatch.chdir(tmp_path)
        for name, text in TRANSCRIPT_INPUTS.items():
            (tmp_path / name).write_text(text)
        assert main(shlex.split(line)) == code
        assert ELAPSED.sub('"elapsed": null', capsys.readouterr().out) == printed
