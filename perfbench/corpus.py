"""Seeded corpora for the four workloads, with an oracle check per op.

``build(workload, seed, directory)`` generates the inputs from the seed,
writes the input files into ``directory`` and returns the ops.  An op is one
``cocolour`` command line plus a check that takes the exit code and the text
the command printed and returns None or a description of what is wrong.  The
program sees only the files.

Reference values that need a search (a chromatic number, a brute-force
solve, the first pattern present) are wrapped in ``later``: each is computed
when a check first needs it, outside the timed passes, so that set-up time
measures input generation and not searches whose cost depends on the seed.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass

import members
import oracle
from cocolour import classify, gadgets, graphs, patterns, solvers, structure
from cocolour.cli import parse_pattern

CODECS = (".g6", ".col", ".txt")
BUDGET = "300"  # seconds; far above any op here, so hitting it is a failure

# Small patterns for free-check and classification ops.
PATTERN_POOL = (
    "P1", "P2", "P3", "P4", "P5", "P6", "C3", "C4", "C5", "C6", "K2", "K3",
    "K4", "K1,3", "K1,4", "2P1", "3P1", "2P2", "P1+P3", "2P1+P3", "P1+P4",
    "P2+P3", "S1,1,2", "co(P3)", "co(P4)", "co(2P2)", "co(P2+P3)",
    "co(K1,3)", "co(P5)", "co(C4)",
)
# free-check pattern lists run on every gadget file.  The gadgets contain
# them, so the search stops at a witness; `gadget --verify` is where it
# exhausts.  Ops of two kinds with even costs keep the percentiles steady.
GADGET_FREE_CHECKS = (("K4",), ("P4", "C4"), ("2P2",), ("K1,3", "co(P3)"), ("P3",))


@dataclass
class Op:
    sub: str  # subcommand, for per-subcommand latency
    argv: list
    check: object  # (exit code, printed text) -> None or an error string


@dataclass
class Corpus:
    ops: list
    files: dict  # file name -> text


def adjacency(g):
    return list(g.adj)


def _report(code, text, want):
    """Parse the JSON report; return (result, None) or (None, error)."""
    if code != want:
        return None, f"exit {code}, expected {want}"
    try:
        rep = json.loads(text)
    except ValueError:
        return None, "output is not JSON"
    if want == 2:
        return rep, None if rep.get("error") else "no error message"
    if rep.get("result") is None:
        return None, "missing result"
    return rep["result"], None


def expect(want, judge=None):
    """Check: exit code ``want`` and ``judge(result)`` returns no error."""

    def check(code, text):
        result, err = _report(code, text, want)
        if err is None and judge is not None:
            err = judge(result)
        return err

    return check


def _assert(ok, message):
    return None if ok else message


def later(fn, *args):
    """``fn(*args)``, computed once on the first call of the returned thunk."""
    return functools.cache(functools.partial(fn, *args))


class Files:
    """Collects input files under a directory; ``path`` gives the argv form."""

    def __init__(self, directory):
        self.directory = directory
        self.files = {}

    def add(self, name, text):
        self.files[name] = text
        return self.path(name)

    def path(self, name):
        return os.path.join(self.directory, name)

    def graph(self, name, adj, ext):
        return self.add(name + ext, oracle.graph_text(adj, ext))


def shuffled(rng, ops):
    """The ops in a seeded random order.  The host's speed changes every few
    seconds; ops of one kind spread over the whole pass see all of it, while
    a block of them sees only the stretch it runs in."""
    rng.shuffle(ops)
    return ops


def random_adj(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


# ---------------------------------------------------------------------------
# Check builders shared by several workloads


def check_colouring(adj, chi=None, k_max=None):
    """Judge a colouring: proper with k_max colours, or optimal when the
    thunk ``chi`` gives the chromatic number."""

    def judge(res):
        cols = res.get("colouring")
        want = chi() if chi is not None else None
        if want is not None and res.get("chi") != want:
            return f"chi {res.get('chi')}, expected {want}"
        if not oracle.proper_colouring(adj, cols, want if want is not None else k_max):
            return "colouring is not proper with the expected colours"
        if want is not None and len(set(cols)) != want:
            return "colouring does not use chi colours"
        return None

    return judge


def check_kcol(adj, k, colourable):
    """``solve kcol``: exit 0 with a proper k-colouring when the thunk
    ``colourable`` says one exists, exit 1 otherwise."""

    def check(code, text):
        if colourable():
            return expect(0, check_colouring(adj, k_max=k))(code, text)
        return expect(1, lambda r: _assert(r["colourable"] is False, "colourable"))(code, text)

    return check


def check_clique(adj, omega):
    """``solve clique``: a clique of the size the thunk ``omega`` gives."""

    def judge(res):
        want = omega()
        if res["omega"] != want or len(res["clique"]) != want:
            return f"omega {res['omega']}, expected {want}"
        return _assert(oracle.is_clique(adj, res["clique"]), "not a clique")

    return judge


def _first_present(adj, pattern_adjs):
    return next((j for j, pat in enumerate(pattern_adjs) if oracle.induced_embedding(adj, pat)), None)


def check_free(adj, specs, pattern_adjs):
    """free-check result against the first pattern present, found by brute force."""
    expected = later(_first_present, adj, pattern_adjs)

    def check(code, text):
        index = expected()
        if index is None:
            return expect(0, lambda r: _assert(r["free"] is True, "expected free"))(code, text)

        def judge(res):
            if res["free"] or res["pattern_index"] != index:
                return f"pattern index {res['pattern_index']}, expected {index}"
            if res["pattern"] != specs[index]:
                return "wrong pattern echoed"
            ok = oracle.is_embedding(adj, pattern_adjs[index], res["embedding"])
            return _assert(ok, "embedding is not an induced copy")

        return expect(1, judge)(code, text)

    return check


def x3c_json(inst):
    return json.dumps({"q": inst.q, "k": inst.k, "triples": [list(t) for t in inst.triples]})


def random_sat(rng, n_vars, m):
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return gadgets.SatInstance(n=n_vars, clauses=tuple(clauses))


def mycielski(times):
    """Mycielski's construction applied ``times`` times to K2."""
    adj = [0b10, 0b01]
    for _ in range(times):
        n = len(adj)
        new = list(adj) + [0] * (n + 1)
        for u, v in oracle.edges(adj):
            new[u] |= 1 << (n + v)
            new[n + v] |= 1 << u
            new[v] |= 1 << (n + u)
            new[n + u] |= 1 << v
        for i in range(n):
            new[n + i] |= 1 << (2 * n)
            new[2 * n] |= 1 << (n + i)
        adj = new
    return adj


# ---------------------------------------------------------------------------
# solve-batch


def solve_batch(rng, files):
    """About 460 seeded ops and two heavyweights.  The seeded ops are about
    a tenth of a pass; there are this many so that the op percentiles,
    which fall among them, hold still from seed to seed."""
    ops = []

    def solve(task, path, check, k=None):
        argv = ["solve", task, "--graph", path, "--budget", BUDGET]
        if k is not None:
            argv += ["--k", str(k)]
        ops.append(Op("solve", argv, check))

    # Clique cover on X3C gadgets: cover number <= k iff an exact cover exists.
    for q in range(1, 6):
        for i in range(18):
            inst = gadgets.random_x3c_instance(rng, q, q + i % 4)
            adj = adjacency(gadgets.build_x3c_gadget(inst).graph)
            has_cover = later(lambda inst=inst: solvers.solve_x3c_brute(inst) is not None)

            def judge(res, adj=adj, k=inst.k, has_cover=has_cover):
                parts = res["parts"]
                if not oracle.is_clique_cover(adj, parts):
                    return "parts are not a clique cover"
                if res["clique_cover_number"] != len(parts):
                    return "cover number differs from the witness"
                return _assert((len(parts) <= k) == has_cover(), "disagrees with X3C brute force")

            solve("cliquecover", files.graph(f"x3c-q{q}-{i}", adj, CODECS[i % 3]), expect(0, judge))

    # k-colouring Huang gadgets at k+1 colours: colourable iff satisfiable.
    # One or two clauses over three variables, as in acceptance criterion 03;
    # more clauses give refutations whose cost varies by orders of magnitude.
    nice = gadgets.catalog_nice()
    for name in ("c7", "fig5"):
        nc = nice[name]
        for m in (1, 2):
            for i in range(24):
                sat = random_sat(rng, 3, m)
                adj = adjacency(gadgets.build_huang_gadget(nc, sat).graph)
                path = files.graph(f"huang-{name}-{m}-{i}", adj, ".g6")
                solve("kcol", path, check_kcol(adj, nc.k + 1, later(lambda sat=sat: solvers.solve_sat_brute(sat) is not None)), nc.k + 1)

    # chi on G(n, 0.2) with n 30..50.
    for i in range(135):
        n = 30 + (i * 21) // 135
        adj = random_adj(rng, n, 0.2)
        solve("chi", files.graph(f"gnp-{i}", adj, CODECS[i % 3]), expect(0, check_colouring(adj, chi=later(oracle.chromatic_number, adj))))

    # Maximum clique on G(64, 0.5).
    for i in range(135):
        adj = random_adj(rng, 64, 0.5)
        solve("clique", files.graph(f"clique-{i}", adj, ".g6"), expect(0, check_clique(adj, later(oracle.clique_number, adj))))

    # Two fixed heavyweights: the criterion-05 gadget (unsatisfiable, so not
    # 4-colourable) and Mycielski's M6 (chi = 6).
    sat = gadgets.SatInstance(n=3, clauses=tuple(gadgets.all_three_var_clauses(3)))
    if solvers.solve_sat_brute(sat) is not None:
        raise RuntimeError("the all-clauses instance must be unsatisfiable")
    adj = adjacency(gadgets.build_huang_gadget(nice["c7"], sat).graph)
    solve("kcol", files.graph("criterion05", adj, ".g6"), check_kcol(adj, 4, lambda: False), 4)
    m6 = mycielski(4)
    solve("chi", files.graph("mycielski6", m6, ".col"), expect(0, check_colouring(m6, chi=lambda: 6)))

    # The seeded ops go in three blocks around the heavyweights, so that op
    # latencies are sampled over the whole pass, not one stretch of it.
    cheap, heavy = ops[:-2], ops[-2:]
    rng.shuffle(cheap)
    third = len(cheap) // 3
    return cheap[:third] + heavy[:1] + cheap[third : 2 * third] + heavy[1:] + cheap[2 * third :]


# ---------------------------------------------------------------------------
# verify-gadgets


def x3c_size(inst):
    return 2 * inst.k + 2 * inst.q


def huang_size(nice_colouring, sat):
    return 3 * sat.n + nice_colouring.graph.n * sat.m


def _gadget_checks(gadget, n):
    """Judge for a gadget op: n vertices, the graph of the library build that
    the thunk ``gadget`` returns, and a passed verification."""
    expected = later(lambda: (len(oracle.edges(adjacency(gadget().graph))), oracle.graph6(adjacency(gadget().graph))))

    def judge(res):
        m, code6 = expected()
        if res["n"] != n or res["m"] != m:
            return "gadget size differs"
        if res["graph6"] != code6:
            return "gadget graph differs"
        ver = res["verification"]
        if ver is not None and not (ver["ok"] and all(c["ok"] for c in ver["checks"])):
            return "verification failed"
        return None

    return judge


def _free_checks(files, name, adj):
    ops = []
    for specs in GADGET_FREE_CHECKS:
        check = check_free(adj, specs, [list(parse_pattern(s).adj) for s in specs])
        ops.append(Op("free-check", ["free-check", "--graph", files.path(name), "--patterns", *specs], check))
    return ops


def verify_gadgets(rng, files):
    """Gadgets of 40 sizes.  A gadget's verification cost depends on its
    size, hardly on the seeded instance, and op_p90_ms falls among the
    gadget ops.  With fewer sizes the costs came in clusters with gaps of
    up to 18% between them, and op_p90_ms jumped across a gap whenever
    noise reordered two ops."""
    ops = []
    checks = []
    for q in range(3, 11):
        for k in (q + q // 2, q + q // 2 + 1):
            inst = gadgets.random_x3c_instance(rng, q, k)
            gadget = gadgets.build_x3c_gadget(inst)
            path = files.add(f"x3c-q{q}-k{k}.json", x3c_json(inst))
            argv = ["gadget", "x3c", "--instance", path, "--verify"]
            ops.append(Op("gadget", argv, expect(0, _gadget_checks(lambda gadget=gadget: gadget, x3c_size(inst)))))
            files.graph(f"x3c-q{q}-k{k}", adjacency(gadget.graph), ".g6")
            checks += _free_checks(files, f"x3c-q{q}-k{k}.g6", adjacency(gadget.graph))
    nice = gadgets.catalog_nice()
    for name in ("c7", "fig5"):
        for m in range(2, 14):
            sat = random_sat(rng, 3 + m // 4, m)
            gadget = gadgets.build_huang_gadget(nice[name], sat)
            path = files.add(f"huang-{name}-{m}.cnf", sat.to_dimacs())
            argv = ["gadget", "huang", "--instance", path, "--nice", name, "--verify"]
            check = _gadget_checks(lambda gadget=gadget: gadget, huang_size(nice[name], sat))
            ops.append(Op("gadget", argv, expect(0, check)))
            files.graph(f"huang-{name}-{m}", adjacency(gadget.graph), ".g6")
            checks += _free_checks(files, f"huang-{name}-{m}.g6", adjacency(gadget.graph))
    return shuffled(rng, ops + checks)


# ---------------------------------------------------------------------------
# structure-members

# Graph from ROADMAP item 2: its decomposition repeats the atom (8, 10).
REPRODUCER = "N???????HL_????????"


def structure_members(rng, files):
    ops = []

    def member_reference(adj):
        g = graphs.Graph(len(adj), tuple(adj))
        return patterns.is_free(g, structure.CLASS_PATTERNS).free, solvers.chromatic_number(g)[0]

    def member_check(adj):
        reference = later(member_reference, adj)
        colouring = check_colouring(adj, chi=lambda: reference()[1])

        def judge(res):
            if not reference()[0]:
                return "is_free finds P2+P3 or its complement in a grown member"
            if res.get("in_class") is not True:
                return "member reported outside the class"
            return colouring(res)

        return expect(0, judge)

    def non_member_check(adj):
        def judge(res):
            if res.get("in_class") is not False:
                return "non-member reported inside the class"
            idx = res["pattern_index"]
            if idx not in (0, 1):
                return f"bad pattern index {idx}"
            pat = (members.P2_P3, members.CO_P2_P3)[idx]
            return _assert(oracle.is_embedding(adj, pat, res["embedding"]), "bad witness")

        return expect(1, judge)

    # The members are grown from one fixed generator, and the seed relabels
    # their vertices.  With 200 members grown from the seed, op_p90_ms, which
    # falls among a few dozen of the slowest members, spread by 0.20 of its
    # median over ten seeds in the program's call counts alone; relabelled
    # copies of one pool spread by 0.09, and of a pool of 300 by 0.075.
    # Relabelling still moves every tie-break by vertex id and every search
    # order.
    pool = random.Random("structure-members/pool")
    graphs_in = []
    for i in range(300):
        style = "sparse" if i % 4 == 3 else "structured"
        adj = members.grow_member(pool, 16 + (i * 25) // 300, style, i % 8 in (1, 7))
        adj = members.relabel(rng, adj)
        graphs_in.append((adj, True))
        if i % 6 == 5:
            graphs_in.append((members.spoil(rng, adj), False))
    graphs_in.append((adjacency(graphs.graph6_decode(REPRODUCER)), True))
    for i, (adj, member) in enumerate(graphs_in):
        path = files.graph(f"g{i}", adj, CODECS[i % 3] if i % 4 == 3 else ".g6")
        check = member_check(adj) if member else non_member_check(adj)
        ops.append(Op("structure", ["structure", "--graph", path], check))
    return shuffled(rng, ops)


# ---------------------------------------------------------------------------
# cli-small

SELF_COMP = {"P1": [0], "P4": [0b10, 0b101, 0b1010, 0b100], "C5": [0b10010, 0b101, 0b1010, 0b10100, 0b1001]}
BULL = [0b1110, 0b10101, 0b11, 0b1, 0b10]  # triangle 0-1-2, pendants 0-3, 1-4


def cli_small(rng, files):
    ops = []
    pool = {s: list(parse_pattern(s).adj) for s in PATTERN_POOL}
    hosts_h_free = {"P1+P3": list(parse_pattern("P1+P3").adj), "P4": list(parse_pattern("P4").adj)}

    def classify_op(argv, judge):
        ops.append(Op("classify", ["classify", *argv], expect(0, judge)))

    for _ in range(150):
        k, t = rng.randint(1, 6), rng.randint(1, 10)
        want = oracle.kcol_verdict(k, t)
        classify_op(["--mode", "kcol", "--k", str(k), "--t", str(t)],
                    lambda r, want=want: _assert(r["verdict"] == want, f"expected {want}"))

    def h_free_judge(h_adj):
        hosts = [name for name, host in hosts_h_free.items() if oracle.induced_embedding(host, h_adj)]
        want = "Poly" if hosts else "NPComplete"

        def judge(res):
            if res["verdict"] != want:
                return f"expected {want}"
            if hosts:
                name = res["rule"].removeprefix("poly:subgraph-of-")
                host = hosts_h_free.get(name)
                if host is None or not oracle.is_embedding(host, h_adj, res["witness"]):
                    return "bad witness"
            return None

        return judge

    for i in range(150):
        if i < 100:
            spec = rng.choice(PATTERN_POOL)
            classify_op(["--mode", "h-free", "--pattern", spec], h_free_judge(pool[spec]))
        else:
            adj = random_adj(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
            path = files.graph(f"h{i}", adj, CODECS[i % 3])
            classify_op(["--mode", "h-free", "--graph", path], h_free_judge(adj))

    coh_hosts = {name: list(parse_pattern(name).adj) for name in ("K1,3", "P1+P4", "2P1+P3", "P2+P3", "P5")}
    for _ in range(150):
        spec = rng.choice(PATTERN_POOL)
        h = parse_pattern(spec)

        def judge(res, ref=later(classify.classify_h_coh, h), h=h):
            ref = ref()
            if (res["verdict"], res["rule"]) != (ref.verdict, ref.rule):
                return f"expected {ref.verdict} by {ref.rule}"
            if res["witness"] is not None:
                side, _, name = ref.rule.removeprefix("poly:").partition("-in-")
                g = h if side == "H" else h.complement()
                if not oracle.is_embedding(coh_hosts[name], list(g.adj), res["witness"]):
                    return "bad witness"
            return None

        classify_op(["--mode", "h-coh", "--pattern", spec], judge)

    bull_path = files.graph("bull", BULL, ".g6")
    for i in range(60):
        names = rng.sample(sorted(SELF_COMP), rng.randint(1, 2))
        argv = ["--mode", "selfcomp-family"]
        for s in names:
            argv += ["--pattern", s]
        members_adj = [SELF_COMP[s] for s in names]
        if i % 3 == 0:  # the CLI lists --graph inputs before --pattern ones
            argv += ["--graph", bull_path]
            members_adj.insert(0, BULL)
        if i % 10 == 9:  # P3 is not self-complementary: an input error
            ops.append(Op("classify", ["classify", *argv, "--pattern", "P3"], expect(2)))
            continue
        fits = [j for j, a in enumerate(members_adj) if oracle.induced_embedding(SELF_COMP["P4"], a)]
        want = "Poly" if fits else "NPComplete"

        def judge(res, want=want, fits=fits, members_adj=members_adj):
            if res["verdict"] != want:
                return f"expected {want}"
            if fits:
                j, emb = res["witness"]
                if j != fits[0] or not oracle.is_embedding(SELF_COMP["P4"], members_adj[j], emb):
                    return "bad witness"
            return None

        classify_op(argv, judge)

    # free-check and solve on graphs with n <= 16 in all three codecs
    for i in range(125):
        n = 4 + i % 13
        adj = random_adj(rng, n, (0.2, 0.35, 0.5, 0.65)[i % 4])
        path = files.graph(f"s{i}", adj, CODECS[i % 3])
        for _ in range(2):
            specs = rng.sample(PATTERN_POOL, rng.randint(1, 3))
            check = check_free(adj, specs, [pool[s] for s in specs])
            ops.append(Op("free-check", ["free-check", "--graph", path, "--patterns", *specs], check))
        cover = later(lambda adj=adj: oracle.chromatic_number(oracle.complement(adj)))

        def cover_judge(res, adj=adj, cover=cover):
            ok = res["clique_cover_number"] == cover() == len(res["parts"])
            return _assert(ok and oracle.is_clique_cover(adj, res["parts"]), f"expected a {cover()}-part cover")

        k = rng.randint(1, 5)
        ops.append(Op("solve", ["solve", "chi", "--graph", path],
                      expect(0, check_colouring(adj, chi=later(oracle.chromatic_number, adj)))))
        ops.append(Op("solve", ["solve", "clique", "--graph", path],
                      expect(0, check_clique(adj, later(oracle.clique_number, adj)))))
        ops.append(Op("solve", ["solve", "cliquecover", "--graph", path], expect(0, cover_judge)))
        ops.append(Op("solve", ["solve", "kcol", "--graph", path, "--k", str(k)],
                      check_kcol(adj, k, later(oracle.colourable, adj, k))))

    for i in range(20):
        n = 4 + i % 2
        count = {4: 1, 5: 2}[n]

        def selfcomp_check(code, text, count=count, n=n):
            if code != 0:
                return f"exit {code}"
            lines = text.split()
            if len(lines) != count:
                return f"{len(lines)} graphs, expected {count}"
            for line in lines:
                g = graphs.graph6_decode(line)
                if g.n != n or not oracle.is_self_complementary(list(g.adj)):
                    return f"{line} is not self-complementary on {n} vertices"
            return None

        ops.append(Op("selfcomp", ["selfcomp", "--n", str(n)], selfcomp_check))

    nice = gadgets.catalog_nice()
    decoders = {".g6": graphs.graph6_decode, ".col": graphs.dimacs_decode, ".txt": graphs.edgelist_decode}
    for i in range(60):
        ext = CODECS[i % 3]
        out = files.path(f"out-{i}{ext}")
        if i % 2:
            q = rng.randint(1, 2)
            inst = gadgets.random_x3c_instance(rng, q, rng.randint(q, q + 2))
            gadget, n = later(gadgets.build_x3c_gadget, inst), x3c_size(inst)
            argv = ["gadget", "x3c", "--instance", files.add(f"x{i}.json", x3c_json(inst)), "--out", out]
        else:
            name = rng.choice(("c7", "fig5"))
            sat = random_sat(rng, 3, rng.randint(1, 2))
            gadget, n = later(gadgets.build_huang_gadget, nice[name], sat), huang_size(nice[name], sat)
            argv = ["gadget", "huang", "--instance", files.add(f"s{i}.cnf", sat.to_dimacs()), "--nice", name, "--out", out]

        def out_judge(res, judge=_gadget_checks(gadget, n), out=out, ext=ext, gadget=gadget):
            with open(out, encoding="ascii") as fh:
                written = decoders[ext](fh.read())
            return judge(res) or _assert(written.adj == gadget().graph.adj, "written file differs")

        ops.append(Op("gadget", argv, expect(0, out_judge)))

    ops += malformed_ops(rng, files)
    return shuffled(rng, ops)


def malformed_ops(rng, files):
    """Inputs whose correct result is exit 2 with an error message."""
    g6 = files.add("bad.g6", "D?\n")
    col = files.add("bad.col", "p edge 3 1\ne 1 x\n")
    txt = files.add("bad.txt", "3 2\n0 1\n")
    good = files.graph("good", [0b10, 0b1], ".g6")
    cases = [
        ["free-check", "--graph", g6, "--patterns", "P3"],
        ["solve", "chi", "--graph", col],
        ["solve", "clique", "--graph", txt],
        ["structure", "--graph", g6],
        ["solve", "chi", "--graph", files.path("missing.g6")],
        ["free-check", "--graph", good, "--patterns", "Q5"],
        ["free-check", "--graph", good, "--patterns", "co(P0)"],
        ["classify", "--mode", "h-free", "--pattern", "C2"],
        ["classify", "--mode", "kcol", "--k", "4"],
        ["classify", "--mode", "h-coh"],
        ["solve", "kcol", "--graph", good],
        ["solve", "chi"],
        ["frobnicate"],
        ["gadget", "x3c", "--instance", files.add("bad-syntax.json", "{\n")],
        ["gadget", "huang", "--instance", files.add("bad.cnf", "p cnf 3 1\n1 2 0\n")],
        ["gadget", "x3c", "--instance", files.add("bad-triple.json", '{"q": 1, "k": 1, "triples": [[0, 1]]}')],
        # Structurally malformed X3C JSON; today a KeyError or TypeError escapes.
        ["gadget", "x3c", "--instance", files.add("no-k.json", '{"q": 1}')],
        ["gadget", "x3c", "--instance", files.add("no-triples.json", '{"q": 2, "k": 3}')],
        ["gadget", "x3c", "--instance", files.add("list.json", "[1, 2, 3]")],
    ]
    ops = []
    for i in range(110):
        argv = cases[i % len(cases)]
        ops.append(Op(argv[0], argv, expect(2)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    "solve-batch": solve_batch,
    "verify-gadgets": verify_gadgets,
    "structure-members": structure_members,
    "cli-small": cli_small,
}


def build(workload, seed, directory):
    """Generate the corpus of ``workload`` for ``seed`` into ``directory``."""
    rng = random.Random(f"{workload}/{seed}")
    files = Files(directory)
    ops = WORKLOADS[workload](rng, files)
    os.makedirs(directory, exist_ok=True)
    for name, text in files.files.items():
        with open(os.path.join(directory, name), "w", encoding="ascii") as fh:
            fh.write(text)
    return Corpus(ops, files.files)
