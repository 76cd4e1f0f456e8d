"""Command-line surface: thin adapters over the library modules.

Every subcommand builds a JSON-serializable report whose payload comes
verbatim from the underlying module: its records reach JSON by their fields
through ``graphs.as_json``, the one serializer.  Exit codes distinguish outcomes so
shell pipelines can branch: 0 success, 1 negative verdict (pattern found,
not colourable, verification failed, not in class), 2 input error (also a
standard output that its reader closed), 3 solver budget exceeded, 4
internal error (any other exception; the report's ``error`` names its type).
Each report is printed as one line of JSON.

A handler imports its library module on entry, so that one CLI call loads
only what its subcommand uses: ``classify --mode kcol`` loads no search
module at all.  Handlers call the library through the module attribute
(``patterns.is_free``), and the graph codecs through this module's own
bindings (``load_graph``, ``graph6_encode``), never through a local import.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import BudgetExceededError
from .graphs import (
    CodecError,
    as_json,
    dimacs_decode,
    dimacs_encode,
    edgelist_decode,
    edgelist_encode,
    graph6_decode,
    graph6_encode,
    graph6_size_check,
    parse_pattern,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# Graph file IO, dispatched on extension

_DECODERS = {".g6": graph6_decode, ".col": dimacs_decode}
_ENCODERS = {".g6": graph6_encode, ".col": dimacs_encode}


def read_text(path):
    """The text of a file decoded as UTF-8, so that comments may hold any
    character; a byte that is not UTF-8 is a CodecError at its offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("invalid UTF-8 byte", exc.start) from None


def load_graph(path):
    text = read_text(path)
    for ext, decode in _DECODERS.items():
        if path.endswith(ext):
            return decode(text)
    return edgelist_decode(text)


def save_graph(g, path):
    encode = next(
        (enc for ext, enc in _ENCODERS.items() if path.endswith(ext)),
        edgelist_encode,
    )
    text = encode(g)
    if not text.endswith("\n"):
        text += "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (exit_code, result payload)


def _graphs_from_args(args):
    out = []
    for p in args.graph or []:
        out.append(load_graph(p))
    for spec in args.pattern or []:
        out.append(parse_pattern(spec))
    return out


def _cmd_classify(args):
    from . import classify

    if args.mode == "kcol":
        if args.k is None or args.t is None:
            raise ValueError("--mode kcol needs --k and --t")
        return EXIT_OK, as_json(classify.classify_k_col_pt(args.k, args.t))
    gs = _graphs_from_args(args)
    if args.mode == "selfcomp-family":
        if not gs:
            raise ValueError("selfcomp-family needs at least one graph")
        return EXIT_OK, as_json(classify.classify_self_comp_family(gs))
    if len(gs) != 1:
        raise ValueError(f"--mode {args.mode} needs exactly one graph")
    fn = classify.classify_h_free if args.mode == "h-free" else classify.classify_h_coh
    return EXIT_OK, as_json(fn(gs[0]))


def _cmd_free_check(args):
    from . import patterns

    g = load_graph(args.graph)
    pats = [parse_pattern(spec) for spec in args.patterns]
    w = patterns.is_free(g, pats)
    payload = {
        "free": w.free,
        "pattern_index": w.pattern_index,
        "pattern": None if w.free else args.patterns[w.pattern_index],
        "embedding": as_json(w.embedding),
    }
    return (EXIT_OK if w.free else EXIT_NEGATIVE), payload


def _cmd_gadget(args):
    from . import gadgets

    # The vertex count is checked before the gadget is built: the report's
    # graph6 would refuse it only after its rows had taken their memory.
    if args.kind == "x3c":
        inst = gadgets.X3CInstance.from_json(read_text(args.instance))
        graph6_size_check(2 * inst.q + 2 * inst.k)
        gadget = gadgets.build_x3c_gadget(inst)
        report = gadgets.verify_x3c_gadget(gadget) if args.verify else None
    else:
        sat = gadgets.SatInstance.from_dimacs(read_text(args.instance))
        nc = gadgets.catalog_nice()[args.nice]
        graph6_size_check(3 * sat.n + nc.graph.n * sat.m)
        gadget = gadgets.build_huang_gadget(nc, sat)
        report = None
        if args.verify:
            report = gadgets.verify_huang_gadget(
                gadget, nc, gadgets.HUANG_FREENESS_PATTERNS[args.nice]
            )
    if args.out:
        save_graph(gadget.graph, args.out)
    payload = {
        "n": gadget.graph.n,
        "m": gadget.graph.edge_count,
        "graph6": graph6_encode(gadget.graph),
        "labels": as_json(gadget.labels),
        "out": args.out,
        "verification": None if report is None else {"ok": report.ok, **as_json(report)},
    }
    code = EXIT_OK if report is None or report.ok else EXIT_NEGATIVE
    return code, payload


def _cmd_solve(args):
    from . import solvers

    g = load_graph(args.graph)
    if args.task == "chi":
        chi, col = solvers.chromatic_number(g, args.budget)
        return EXIT_OK, {"chi": chi, "colouring": list(col.colours)}
    if args.task == "kcol":
        if args.k is None:
            raise ValueError("solve kcol needs --k")
        col = solvers.is_k_colourable(g, args.k, args.budget)
        if col is None:
            return EXIT_NEGATIVE, {"k": args.k, "colourable": False}
        return EXIT_OK, {
            "k": args.k,
            "colourable": True,
            "colouring": list(col.colours),
        }
    if args.task == "cliquecover":
        k, cover = solvers.clique_cover_number(g, args.budget)
        return EXIT_OK, {
            "clique_cover_number": k,
            "parts": [list(p) for p in cover.parts],
        }
    omega, clique = solvers.max_clique(g, args.budget)
    return EXIT_OK, {"omega": omega, "clique": list(clique)}


def _cmd_selfcomp(args):
    from . import patterns

    reps = patterns.enumerate_self_complementary(args.n)
    lines = [graph6_encode(g) for g in reps]
    return EXIT_OK, {"n": args.n, "count": len(lines), "graph6": lines}


def _cmd_structure(args):
    from . import structure

    g = load_graph(args.graph)
    try:
        col, report = structure.colour_structured(g, args.budget, args.explain)
    except structure.NotInClassError as exc:
        payload = {
            "in_class": False,
            "pattern_index": exc.witness.pattern_index,
            "embedding": as_json(exc.witness.embedding),
        }
        return EXIT_NEGATIVE, payload
    payload = report.to_json()
    payload["in_class"] = True
    payload["colouring"] = list(col.colours)
    return EXIT_OK, payload


# ---------------------------------------------------------------------------
# Parser and entry points


@functools.cache  # a parser keeps no state between parse_args calls
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cocolour",
        description="Colouring complexity toolkit for complement-closed classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="complexity verdict for a class")
    p.add_argument(
        "--mode",
        required=True,
        choices=["h-free", "h-coh", "selfcomp-family", "kcol"],
    )
    p.add_argument("--graph", action="append", help="graph file (repeatable)")
    p.add_argument("--pattern", action="append", help="pattern spec (repeatable)")
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("free-check", help="induced-subgraph freeness test")
    p.add_argument("--graph", required=True)
    p.add_argument("--patterns", nargs="+", required=True)
    p.set_defaults(fn=_cmd_free_check)

    p = sub.add_parser("gadget", help="build a hardness gadget")
    p.add_argument("kind", choices=["x3c", "huang"])
    p.add_argument("--instance", required=True)
    p.add_argument("--nice", choices=["c7", "fig5"], default="c7")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", help="also write the gadget graph to this file")
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("solve", help="exact solvers")
    p.add_argument("task", choices=["chi", "kcol", "cliquecover", "clique"])
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("selfcomp", help="enumerate self-complementary graphs")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_selfcomp)

    p = sub.add_parser("structure", help="structural colouring pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument(
        "--explain",
        action="store_true",
        help="also report the case analysis: case, cycle, claims, preprocessing",
    )
    p.set_defaults(fn=_cmd_structure)
    return parser


def run(argv):
    """Execute one command; returns (exit_code, report dict)."""
    report = {"command": list(argv), "elapsed": None, "result": None}
    parser = _build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        report["error"] = "argument parsing failed"
        return (EXIT_OK if exc.code == 0 else EXIT_INPUT), report
    budget = getattr(args, "budget", None)
    if budget is not None and math.isnan(budget):
        report["error"] = "--budget must be a number of seconds, got nan"
        return EXIT_INPUT, report
    try:
        code, payload = args.fn(args)
        report["result"] = payload
    except BudgetExceededError as exc:
        report["error"] = str(exc)
        code = EXIT_BUDGET
    except (ValueError, OSError) as exc:  # CodecError, JSONDecodeError too
        report["error"] = str(exc)
        code = EXIT_INPUT
    except Exception as exc:
        import traceback

        traceback.print_exc()
        report["error"] = f"internal error: {type(exc).__name__}: {exc}"
        code = EXIT_INTERNAL
    report["elapsed"] = round(time.monotonic() - started, 6)
    return code, report


def main(argv=None):
    code, report = run(sys.argv[1:] if argv is None else list(argv))
    try:
        if (
            code == EXIT_OK
            and report["command"]
            and "selfcomp" in report["command"][:2]
            and report["result"]
        ):
            for line in report["result"]["graph6"]:
                print(line)
        else:
            print(json.dumps(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output.  What is still buffered, and
        # the flush at interpreter exit, go to devnull instead of raising
        # again; a closed output is an OSError like any other, exit 2.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # a stream without a file descriptor
            pass
        finally:
            os.close(devnull)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
