"""Which program functions are traced, and the per-layer metrics made from them.

Each layer is one cocolour module.  A span name is the layer plus the public
function it wraps; functions that play one role (the four classifiers, the
two gadget builders, the two gadget verifiers) share a span name.
``cli.main`` is traced too, so that the JSON text an op prints is part of the
``cli`` layer's self time.  Every library function that ``cli`` calls is
traced, except the ``Graph.edge_count`` property, so that ``cli.run.self_s``
holds argument parsing, report shaping and JSON text.
"""

from __future__ import annotations

from cocolour import classify, cli, gadgets, graphs, patterns, solvers, structure

SUBCOMMANDS = ("classify", "free-check", "gadget", "solve", "selfcomp", "structure")

# Spans that report calls and self_s, in output order.
TIMED = (
    "cli.run", "cli.parse_pattern",
    "graphs.load_graph", "graphs.save_graph", "graphs.graph6_encode",
    "graphs.Graph", "graphs.induced", "graphs.complement",
    "patterns.is_free", "patterns.find_induced", "patterns.find_induced_c5",
    "patterns.is_perfect_small", "patterns.is_isomorphic", "patterns.enumerate_self_complementary",
    "solvers.is_k_colourable", "solvers.chromatic_number", "solvers.max_clique",
    "solvers.clique_cover_number",
    "classify",
    "gadgets.parse_instance", "gadgets.catalog_nice", "gadgets.build", "gadgets.verify",
    "structure.colour_structured", "structure.decompose_atoms",
    "structure.find_clique_separator", "structure.has_clique_separator_brute",
    "structure.compute_c5_partition", "structure.preprocess",
    "structure.verify_structure_claims", "structure.select_case",
    "structure.extend_colouring", "structure.merge_atom_colourings", "structure.report_json",
)
WITH_ERRORS = ("structure.colour_structured", "structure.merge_atom_colourings")


def _found(counters, args, outcome, parent):
    if not isinstance(outcome, BaseException) and outcome is not None:
        counters["patterns.find_induced.found"] += 1


def _budget(counters, args, outcome, parent):
    """Count budget errors leaving the solvers layer, once per error."""
    if isinstance(outcome, solvers.BudgetExceededError) and not (parent or "").startswith("solvers."):
        counters["solvers.budget_exceeded"] += 1


def _colourable(counters, args, outcome, parent):
    _budget(counters, args, outcome, parent)
    if not isinstance(outcome, BaseException) and outcome is not None:
        counters["solvers.is_k_colourable.colourable"] += 1


def _checks(counters, args, outcome, parent):
    if isinstance(outcome, gadgets.GadgetReport):
        counters["gadgets.checks_failed"] += len(outcome.failures())


def _atoms(counters, args, outcome, parent):
    if isinstance(outcome, structure.AtomDecomposition):
        counters["structure.decompose_atoms.atoms"] += len(outcome.atoms)
        counters["structure.decompose_atoms.dup_atoms"] += len(outcome.atoms) - len(set(outcome.atoms))


def _removed(counters, args, outcome, parent):
    if not isinstance(outcome, BaseException):
        counters["structure.preprocess.vertices"] += args[0].n
        counters["structure.preprocess.removed"] += args[0].n - outcome[0].n


def targets():
    """(owner, attribute, span name, observer) for every traced function."""
    out = [
        (cli, "main", "cli.main", None),
        (cli, "run", "cli.run", None),
        (cli, "parse_pattern", "cli.parse_pattern", None),
        (cli, "load_graph", "graphs.load_graph", None),
        (cli, "save_graph", "graphs.save_graph", None),
        (cli, "graph6_encode", "graphs.graph6_encode", None),  # cli's own binding
        (graphs.Graph, "__post_init__", "graphs.Graph", None),
        (graphs.Graph, "induced", "graphs.induced", None),
        (graphs.Graph, "complement", "graphs.complement", None),
        (patterns, "is_free", "patterns.is_free", None),
        (patterns, "find_induced", "patterns.find_induced", _found),
        (patterns, "find_induced_c5", "patterns.find_induced_c5", None),
        (patterns, "is_perfect_small", "patterns.is_perfect_small", None),
        (patterns, "is_isomorphic", "patterns.is_isomorphic", None),
        (patterns, "enumerate_self_complementary", "patterns.enumerate_self_complementary", None),
        (solvers, "is_k_colourable", "solvers.is_k_colourable", _colourable),
        (solvers, "chromatic_number", "solvers.chromatic_number", _budget),
        (solvers, "max_clique", "solvers.max_clique", _budget),
        (solvers, "clique_cover_number", "solvers.clique_cover_number", _budget),
        (gadgets.X3CInstance, "from_json", "gadgets.parse_instance", None),
        (gadgets.SatInstance, "from_dimacs", "gadgets.parse_instance", None),
        (gadgets, "catalog_nice", "gadgets.catalog_nice", None),
        (gadgets, "build_x3c_gadget", "gadgets.build", None),
        (gadgets, "build_huang_gadget", "gadgets.build", None),
        (gadgets, "verify_x3c_gadget", "gadgets.verify", _checks),
        (gadgets, "verify_huang_gadget", "gadgets.verify", _checks),
        (structure, "decompose_atoms", "structure.decompose_atoms", _atoms),
        (structure, "preprocess", "structure.preprocess", _removed),
        (structure.StructureReport, "to_json", "structure.report_json", None),
    ]
    for fn in ("classify_h_free", "classify_self_comp_family", "classify_h_coh", "classify_k_col_pt"):
        out.append((classify, fn, "classify", None))
    for fn in (
        "colour_structured", "find_clique_separator", "has_clique_separator_brute",
        "compute_c5_partition", "verify_structure_claims", "select_case",
        "extend_colouring", "merge_atom_colourings",
    ):
        out.append((structure, fn, f"structure.{fn}", None))
    return out


def _frac(num, den):
    return num / den if den else 0.0


def pass_metrics(tracer):
    """Per-layer values of one traced pass, as {name: value}."""
    calls, self_s, errors, counters = tracer.calls, tracer.self_s, tracer.errors, tracer.counters
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["cli.run.self_s"] += self_s["cli.main"]  # JSON text of the report
    for name in WITH_ERRORS:
        out[f"{name}.errors"] = errors[name]
    out["patterns.find_induced.found_frac"] = _frac(
        counters["patterns.find_induced.found"], calls["patterns.find_induced"]
    )
    out["solvers.is_k_colourable.colourable_frac"] = _frac(
        counters["solvers.is_k_colourable.colourable"], calls["solvers.is_k_colourable"]
    )
    out["solvers.budget_exceeded"] = counters["solvers.budget_exceeded"]
    out["gadgets.checks_failed"] = counters["gadgets.checks_failed"]
    out["structure.decompose_atoms.atoms"] = counters["structure.decompose_atoms.atoms"]
    out["structure.decompose_atoms.dup_atoms"] = counters["structure.decompose_atoms.dup_atoms"]
    out["structure.preprocess.removed_frac"] = _frac(
        counters["structure.preprocess.removed"], counters["structure.preprocess.vertices"]
    )
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"
