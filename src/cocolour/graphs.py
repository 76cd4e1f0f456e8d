"""Immutable bitset graphs, named-graph constructors, the pattern
mini-language and text codecs.

Vertices are always 0..n-1 and adjacency is stored as one int bitmask per
vertex.  Graph values are frozen after construction, so everything in this
module is safe to share between threads.  Vertex identity is positional:
operations that say "vertex-identical" mean equality of these bitmasks, not
isomorphism.

Every record of the package, ``Graph`` first, is a ``namedtuple`` subclass
with ``__slots__ = ()``: compared and hashed as tuples, with a field-by-field
repr, and cheap to import, as one process serves one CLI call.  The
validated ones list ``Checked`` first.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import combinations, product


class CodecError(ValueError):
    """Malformed graph text; carries the byte offset of the failure."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


def iter_bits(mask):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Checked:
    """Base of the validated records, listed before their namedtuple: every
    construction, ``_replace`` too, runs the record's ``__post_init__``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Graph(Checked, namedtuple("Graph", "n adj")):
    """Simple undirected graph with bitmask adjacency rows, validated in
    ``__post_init__``."""

    __slots__ = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError(f"vertex {v} has a neighbour out of range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in iter_bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v},{u})")

    @classmethod
    def _derived(cls, n, adj):
        """A graph on rows that this module built symmetric, in range and
        loop-free itself; skips the checks of ``__post_init__``."""
        return tuple.__new__(cls, (n, adj))

    @staticmethod
    def from_edges(n, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph._derived(n, tuple(adj))

    @staticmethod
    def empty(n):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        return Graph._derived(n, (0,) * n)

    def has_edge(self, u, v):
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v):
        return self.adj[v].bit_count()

    def neighbours(self, v):
        return tuple(iter_bits(self.adj[v]))

    def edges(self):
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    @property
    def edge_count(self):
        return sum(row.bit_count() for row in self.adj) // 2

    def complement(self):
        full = (1 << self.n) - 1
        return Graph._derived(
            self.n,
            tuple((full & ~row & ~(1 << v)) for v, row in enumerate(self.adj)),
        )

    def induced(self, vertices):
        """Subgraph on ``vertices``, relabelled 0..|S|-1 in ascending order."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError("induced subgraph vertex out of range")
        index = {v: i for i, v in enumerate(vs)}
        keep = sum(1 << v for v in vs)
        adj = []
        for v in vs:
            row = 0
            for u in iter_bits(self.adj[v] & keep):
                row |= 1 << index[u]
            adj.append(row)
        return Graph._derived(len(vs), tuple(adj))

    def union(self, other):
        """Disjoint union; ``other`` is shifted past this graph's vertices."""
        return disjoint_union(self, other)


class Embedding(namedtuple("Embedding", "mapping")):
    """Injective map pattern vertex i -> host vertex mapping[i]; the
    witness of ``patterns.find_induced``."""

    __slots__ = ()

    def is_valid(self, host, pattern):
        m = self.mapping
        if len(m) != pattern.n or len(set(m)) != len(m):
            return False
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                if pattern.has_edge(u, v) != host.has_edge(m[u], m[v]):
                    return False
        return True


def first_pair(g, xs, ys=None, adjacent=True):
    """The first pair (x, y) whose adjacency in g equals ``adjacent``, or None.

    With ``ys`` None the pairs are those of ``xs`` in ``itertools.combinations``
    order; otherwise x walks ``xs`` and, for each x, y walks ``ys``.  A pair
    (v, v) counts as non-adjacent.  Independence is ``first_pair(g, xs) is
    None``, a clique ``first_pair(g, xs, adjacent=False) is None``, and
    completeness or anticompleteness of xs to ys the same with ``ys`` given.
    """
    pairs = combinations(xs, 2) if ys is None else product(xs, ys)
    adj = g.adj
    for x, y in pairs:
        if (adj[x] >> y & 1) == adjacent:
            return x, y
    return None


# ---------------------------------------------------------------------------
# Named graphs


def path(t):
    if t < 1:
        raise ValueError(f"path needs at least 1 vertex, got {t}")
    return Graph.from_edges(t, [(i, i + 1) for i in range(t - 1)])


def cycle(t):
    if t < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {t}")
    return Graph.from_edges(t, [(i, (i + 1) % t) for i in range(t)])


def complete(t):
    if t < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {t}")
    full = (1 << t) - 1
    return Graph._derived(t, tuple(full ^ (1 << v) for v in range(t)))


def star(leaves):
    """K_{1,leaves}: centre is vertex 0."""
    if leaves < 1:
        raise ValueError(f"star needs at least 1 leaf, got {leaves}")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def subdivided_claw(h, i, j):
    """S_{h,i,j}: centre is vertex 0, arms laid out consecutively."""
    if not (1 <= h <= i <= j):
        raise ValueError(f"subdivided claw needs 1 <= h <= i <= j, got {(h, i, j)}")
    edges = []
    v = 1
    for arm in (h, i, j):
        prev = 0
        for _ in range(arm):
            edges.append((prev, v))
            prev = v
            v += 1
    return Graph.from_edges(h + i + j + 1, edges)


def random_graph(rng, n, p=0.5):
    """G(n, p) from ``rng``: one ``rng.random()`` per vertex pair, drawn in
    ``itertools.combinations`` order, so a seed fixes the graph."""
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    )


def disjoint_union(*graphs):
    """The graphs side by side, each shifted past the vertices before it."""
    adj = []
    for g in graphs:
        shift = len(adj)
        adj += [row << shift for row in g.adj]
    return Graph._derived(len(adj), tuple(adj))


# ---------------------------------------------------------------------------
# Pattern mini-language: "P5", "C7", "K4", "K1,3", "2P1+P3", "S1,2,3", "co(P6)"

_TERM_RE = re.compile(
    r"^(?P<count>\d+)?(?:"
    r"P(?P<path>\d+)|C(?P<cycle>\d+)|"
    r"K1,(?P<star>\d+)|K(?P<complete>\d+)|"
    r"S(?P<claw>\d+,\d+,\d+)"
    r")$"
)


# The most vertices a pattern may have; its rows then take at most 12.5 MB.
MAX_PATTERN_VERTICES = 10_000


def parse_pattern(text):
    """Build a graph from the pattern mini-language; the terms are laid out
    left to right, each repeated ``count`` times.  A pattern of more than
    ``MAX_PATTERN_VERTICES`` vertices is refused before any row is built."""
    s = text.strip().replace(" ", "")
    layers = 0
    while s.startswith("co(") and s.endswith(")"):
        text = s[3:-1]  # errors name the text inside the innermost co(
        s = text.strip()
        layers += 1
    terms = []  # (count, kind, numbers)
    size = 0
    for chunk in s.split("+"):
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"cannot parse pattern term {chunk!r} in {text!r}")
        # the count group closes first, so lastgroup names the term's kind
        count, kind = int(m["count"] or 1), m.lastgroup
        numbers = [int(x) for x in m[kind].split(",")]
        terms.append((count, kind, numbers))
        # a star K1,t and a claw Sh,i,j have a centre besides their arms
        size += count * (sum(numbers) + (kind in ("star", "claw")))
    if size > MAX_PATTERN_VERTICES:
        raise ValueError(
            f"pattern {text!r} has {size} vertices, more than {MAX_PATTERN_VERTICES}"
        )
    graphs = []
    for count, kind, numbers in terms:
        if kind == "path":
            g = path(*numbers)
        elif kind == "cycle":
            g = cycle(*numbers)
        elif kind == "star":
            g = star(*numbers)
        elif kind == "complete":
            g = complete(*numbers)
        else:
            g = subdivided_claw(*numbers)
        graphs.append((count, g))
    if any(count == 0 for count, _ in graphs):
        raise ValueError("term count must be positive, got 0")
    g = disjoint_union(*(g for count, g in graphs for _ in range(count)))
    return g.complement() if layers % 2 else g


# ---------------------------------------------------------------------------
# Components


def component(g, start, removed=0):
    """Bitmask of the component containing ``start`` once the vertices in the
    bitmask ``removed`` are deleted; ``start`` must not be removed."""
    adj = g.adj
    comp = 0
    frontier = 1 << start
    while frontier:
        comp |= frontier
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~comp & ~removed
    return comp


def components(g, removed=0):
    """Bitmasks of the connected components of g minus the vertex bitmask
    ``removed``, ordered by their lowest vertex."""
    comps = []
    left = ((1 << g.n) - 1) & ~removed
    while left:
        comp = component(g, (left & -left).bit_length() - 1, removed)
        comps.append(comp)
        left &= ~comp
    return comps


# ---------------------------------------------------------------------------
# Codecs: graph6, edge list, DIMACS .col


# The graph6 limit.  The edge-list and DIMACS decoders reject a larger n
# before they build anything of that size.
MAX_VERTICES = 258047


def text_lines(text, comment):
    """(byte offset, stripped line) of each line of ``text`` that is neither
    blank nor a comment, one starting with ``comment``: the line loop of the
    text decoders.  Only "\\n", "\\r\\n" and "\\r" end a line."""
    if text.isascii():
        size = len
    else:
        # a lone surrogate has no strict UTF-8 form; count it as 3 bytes
        def size(raw):
            return len(raw.encode("utf-8", "surrogatepass"))

    lines = []
    offset = 0
    # "\r" to "\n" keeps one byte per character, so offsets stay exact;
    # each "\r\n" then adds a blank line, which is skipped
    for raw in text.replace("\r", "\n").split("\n"):
        line = raw.strip()
        if line and not line.startswith(comment):
            lines.append((offset, line))
        offset += size(raw) + 1
    return lines


def parse_number(digits, offset):
    """A run of ASCII digits, after an optional minus sign, as an int.
    Callers match the run first: ``str.isdigit``, ``\\d`` and ``int()`` also
    take "²", "٣" or "1_0".  ``int()`` refuses a run longer than
    ``sys.get_int_max_str_digits()`` (4,300 by default) with a bare
    ValueError; that is a CodecError at the line's offset here."""
    try:
        return int(digits)
    except ValueError as exc:
        raise CodecError(f"number of {len(digits)} digits is too long", offset) from exc


def _vertex_count(text, offset):
    n = parse_number(text, offset)
    if n > MAX_VERTICES:
        raise CodecError(f"at most {MAX_VERTICES} vertices, got {n}", offset)
    return n


# A graph6 byte is 63 plus six bits of the pair stream, two octal digits.
# The stream holds the pairs (i, j), i < j, ordered by j, then i: column j is
# row j's part below the diagonal, lowest bit first.
_G6_BAD = re.compile(r"[^?-~]")
_G6_HIGH = bytes.maketrans(bytes(range(63, 127)), bytes(48 + (c >> 3) for c in range(64)))
_G6_LOW = bytes.maketrans(bytes(range(63, 127)), bytes(48 + (c & 7) for c in range(64)))
_OCT_HIGH = bytes.maketrans(b"01234567", bytes(range(0, 64, 8)))
_OCT_LOW = bytes.maketrans(b"01234567", bytes(range(63, 71)))


def graph6_size_check(n):
    """Refuse, as ``graph6_encode`` does, a graph of n > MAX_VERTICES vertices."""
    if n > MAX_VERTICES:
        raise CodecError(f"graph6 supports at most {MAX_VERTICES} vertices, got {n}")


def graph6_encode(g):
    n = g.n
    graph6_size_check(n)
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    # the stream read backwards: the last column first, each highest bit first
    stream = "".join(
        f"{g.adj[j] & ((1 << j) - 1):0{j}b}" for j in range(n - 1, 0, -1)
    )[::-1]
    nbytes = (len(stream) + 5) // 6
    if not nbytes:
        return head
    stream += "0" * (6 * nbytes - len(stream))
    digits = f"{int(stream, 2):0{2 * nbytes}o}".encode("ascii")
    # byte k is 63 + 8 * digits[2k] + digits[2k+1] <= 126: no carry between bytes
    body = int.from_bytes(digits[0::2].translate(_OCT_HIGH), "big") + int.from_bytes(
        digits[1::2].translate(_OCT_LOW), "big"
    )
    return head + body.to_bytes(nbytes, "big").decode("ascii")


def graph6_decode(text):
    """Read one graph6 string.  Error offsets count the UTF-8 bytes of
    ``text``, leading whitespace included.  The 8-byte ``~~`` header of
    McKay's format is for n > MAX_VERTICES and is refused."""
    stripped = text.lstrip()
    lead = len(text[: len(text) - len(stripped)].encode("utf-8"))
    text = stripped.rstrip()
    if not text:
        raise CodecError("empty graph6 string", 0)
    if text[0] == "~":
        pos = 8 if text.startswith("~~") else 4
        if len(text) < pos:
            raise CodecError("truncated graph6 vertex count", lead + len(text))
        bad = _G6_BAD.search(text, 1, pos)
        if bad:
            raise CodecError("invalid graph6 byte", lead + bad.start())
        n = 0
        for c in text[pos // 4 : pos]:  # the bytes after "~" or "~~"
            n = n << 6 | (ord(c) - 63)
        if pos == 8:
            raise CodecError(
                f"graph6 supports at most {MAX_VERTICES} vertices, "
                f"got an 8-byte header (n = {n})",
                lead,
            )
    else:
        n = ord(text[0]) - 63
        if not 0 <= n <= 62:
            raise CodecError("invalid graph6 vertex count byte", lead)
        pos = 1
    # Every byte before a bad one is ASCII, so string positions are byte
    # offsets, and after this search the length counts bytes.
    bad = _G6_BAD.search(text, pos)
    if bad:
        raise CodecError("invalid graph6 byte", lead + bad.start())
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(text) - pos != nbytes:
        raise CodecError(
            f"expected {nbytes} adjacency bytes, got {len(text) - pos}", lead + pos
        )
    body = text[pos:].encode("ascii")
    digits = bytearray(2 * nbytes)
    digits[0::2] = body.translate(_G6_HIGH)
    digits[1::2] = body.translate(_G6_LOW)
    # bit k of the stream at stream[-1 - k]; the padding bits come first
    end = 6 * nbytes
    stream = f"{int(digits or b'0', 8):0{end}b}"[::-1]
    # An n-by-n square whose row j is column j highest bit first: row j's
    # part below the diagonal as a binary numeral.  Read bottom-up, the
    # square's column n-1-i is row i's part above the diagonal.
    square = []
    for j in range(n):
        square.append("0" * (n - j) + stream[end - j : end])
        end -= j
    square = "".join(square)
    last = n * n - 1
    return Graph._derived(
        n,
        tuple(
            int(square[last - i :: -n][: n - i] + square[i * n + n - i : i * n + n], 2)
            for i in range(n)
        ),
    )


def edgelist_encode(g):
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# Fields are separated by ASCII spaces and tabs only, as digits are ASCII.
_PAIR_RE = re.compile(r"([0-9]+)[ \t]+([0-9]+)")
_DIMACS_P_RE = re.compile(r"p[ \t]+edge[ \t]+([0-9]+)[ \t]+([0-9]+)")
_DIMACS_E_RE = re.compile(r"e[ \t]+([0-9]+)[ \t]+([0-9]+)")


def edgelist_decode(text):
    lines = text_lines(text, "#")
    if not lines:
        raise CodecError("empty edge list", 0)
    off, header = lines[0]
    match = _PAIR_RE.fullmatch(header)
    if not match:
        raise CodecError("edge list header must be 'n m'", off)
    n, m = _vertex_count(match[1], off), parse_number(match[2], off)
    if len(lines) - 1 != m:
        raise CodecError(f"expected {m} edge lines, got {len(lines) - 1}", off)
    adj = [0] * n
    bad = None  # the first bad edge, reported only if every edge line parses
    for off, line in lines[1:]:
        match = _PAIR_RE.fullmatch(line)
        if not match:
            raise CodecError("edge line must be 'u v'", off)
        u, v = parse_number(match[1], off), parse_number(match[2], off)
        if u >= n or v >= n:
            bad = bad or f"edge ({u},{v}) out of range for n={n}"
        elif u == v:
            bad = bad or f"self-loop at vertex {u}"
        else:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    if bad:
        raise CodecError(bad, lines[0][0])
    return Graph._derived(n, tuple(adj))


def dimacs_encode(g):
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def dimacs_decode(text):
    """Read DIMACS .col text: the problem line comes once, before every
    other line but comments, and the edge lines name 1-based vertices.  A
    repeated edge line counts towards m and adds nothing."""
    n = None
    count = 0
    bad = None  # the first bad edge, reported only if the line count is m
    for offset, line in text_lines(text, "c"):
        if line.startswith("p"):
            if n is not None:
                raise CodecError("second DIMACS problem line", offset)
            match = _DIMACS_P_RE.fullmatch(line)
            if not match:
                raise CodecError("bad DIMACS problem line", offset)
            n, m = _vertex_count(match[1], offset), parse_number(match[2], offset)
            p_offset = offset
            adj = [0] * n
        elif n is None:
            raise CodecError("line before the DIMACS problem line", offset)
        elif line.startswith("e"):
            match = _DIMACS_E_RE.fullmatch(line)
            if not match:
                raise CodecError("bad DIMACS edge line", offset)
            u, v = parse_number(match[1], offset), parse_number(match[2], offset)
            count += 1
            if 0 < u <= n and 0 < v <= n and u != v:
                adj[u - 1] |= 1 << (v - 1)
                adj[v - 1] |= 1 << (u - 1)
            else:
                bad = bad or CodecError(f"bad DIMACS edge ({u},{v}) for n={n}", offset)
        else:
            raise CodecError(f"unknown DIMACS line {line[:20]!r}", offset)
    if n is None:
        raise CodecError("missing DIMACS problem line", 0)
    if count != m:
        raise CodecError(f"expected {m} edge lines, got {count}", p_offset)
    if bad:
        raise bad
    return Graph._derived(n, tuple(adj))
