"""Simple undirected graphs: representation, family generators, operators, formats.

Vertices are the indices 0..n-1. All operators return new Graph values,
built by `Graph.from_edges`, which checks every edge for index range and
loops and makes the adjacency symmetric as it builds it, so every graph
produced anywhere in the package has been checked once. A direct
`Graph(n, adj)` checks range, loops and symmetry itself.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    GraphParseError,
    InvalidArgumentsError,
    InvalidSpecError,
    ResourceLimitError,
)

MAX_ENUMERATION_N = 7

# Size bounds on every graph, checked before its adjacency is built. They are
# far above the largest graphs the solvers take (trivial:1500, path:200,
# grid2:60) and far below what exhausts memory: K_1414, the densest graph
# allowed, is built and refused by the solver cap within about 0.5 GB.
MAX_GRAPH_N = 100_000
MAX_GRAPH_EDGES = 1_000_000


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the open neighborhood N(v). The optional ``name`` is a
    human-readable tag and does not participate in equality.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    name: str | None

    def __init__(self, n: int, adj: tuple[frozenset[int], ...], name: str | None = None):
        if n < 1:
            raise InvalidArgumentsError("graphs must have at least one vertex")
        if len(adj) != n:
            raise InvalidArgumentsError(f"adjacency has {len(adj)} entries for {n} vertices")
        for v, nbrs in enumerate(adj):
            for u in nbrs:
                if not 0 <= u < n:
                    raise InvalidArgumentsError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise InvalidArgumentsError(f"self-loop at vertex {v}")
                if v not in adj[u]:
                    raise InvalidArgumentsError(f"asymmetric edge {v}->{u}")
        self._fill(n, adj, name)

    def _fill(self, n: int, adj: tuple[frozenset[int], ...], name: str | None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "name", name)

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    # equality and hash on adj alone, which fixes n = len(adj)
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> Graph:
        """The graph on n vertices with these edges. Refuses n > MAX_GRAPH_N
        up front and more than MAX_GRAPH_EDGES edges as they are consumed, so
        pass an iterator to refuse a huge edge set before it is built. The
        edges are checked here, so the constructor's checks are skipped."""
        if n < 1:
            raise InvalidArgumentsError("graphs must have at least one vertex")
        if n > MAX_GRAPH_N:
            raise ResourceLimitError(f"graphs support n <= {MAX_GRAPH_N}, got n = {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for m, (u, v) in enumerate(edges, 1):
            if m > MAX_GRAPH_EDGES:
                raise ResourceLimitError(f"graphs support at most {MAX_GRAPH_EDGES} edges")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidArgumentsError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidArgumentsError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        g = object.__new__(cls)
        g._fill(n, tuple(frozenset(s) for s in adj), name)
        return g

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def __repr__(self):  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self.n} m={self.edge_count}>"


def components(g: Graph) -> Iterator[list[int]]:
    """Yield the connected components as ascending vertex lists, least
    vertex first.

    One breadth-first search per component, over a list that grows as it is
    read, run only when the next part is asked for; a part that holds every
    vertex ends the walk."""
    adj, n = g.adj, g.n
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        part = [s]
        for v in part:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    part.append(u)
        part.sort()
        yield part
        if len(part) == n:
            return  # connected


def is_connected(g: Graph) -> bool:
    return len(next(components(g))) == g.n


# ---------------------------------------------------------------------------
# Parametric families

class FamilySpec(NamedTuple):
    """Descriptor of a parametric graph family.

    ``disjoint_union`` is the one compound kind: it carries sub-specs in
    ``parts`` instead of integer params (needed for unions such as a star
    plus isolated vertices).
    """

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = ()


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidSpecError(message)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec`` with canonical vertex indexing.

    Paths and cycles run v0, v1, ..., v_{n-1} in order; complete bipartite
    puts the p-side first; star(m) = K_{1,m} has the center at index 0
    (star(0) is K1); grid2(n) places row i, column j at (i-1)*n + (j-1).
    """
    kind, params = spec.kind, spec.params
    if kind == "path":
        _require(len(params) == 1 and params[0] >= 1, "path takes one parameter n >= 1")
        n = params[0]
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)), f"P{n}")
    if kind == "cycle":
        _require(len(params) == 1 and params[0] >= 3, "cycle takes one parameter n >= 3")
        n = params[0]
        return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)), f"C{n}")
    if kind == "complete":
        _require(len(params) == 1 and params[0] >= 1, "complete takes one parameter n >= 1")
        n = params[0]
        return Graph.from_edges(n, itertools.combinations(range(n), 2), f"K{n}")
    if kind == "complete_bipartite":
        _require(len(params) == 2 and min(params) >= 1,
                 "complete_bipartite takes two parameters p, q >= 1")
        p, q = params
        edges = ((i, p + j) for i in range(p) for j in range(q))
        return Graph.from_edges(p + q, edges, f"K{p},{q}")
    if kind == "star":
        _require(len(params) == 1 and params[0] >= 0, "star takes one parameter m >= 0")
        m = params[0]
        if m == 0:
            return Graph.from_edges(1, [], "K1")
        return Graph.from_edges(m + 1, ((0, j) for j in range(1, m + 1)), f"K1,{m}")
    if kind == "grid2":
        _require(len(params) == 1 and params[0] >= 1, "grid2 takes one parameter n >= 1")
        n = params[0]
        edges = itertools.chain(
            ((i * n + j, i * n + j + 1) for i in (0, 1) for j in range(n - 1)),
            ((j, n + j) for j in range(n)),
        )
        return Graph.from_edges(2 * n, edges, f"G2,{n}")
    if kind == "trivial":
        _require(len(params) == 1 and params[0] >= 1, "trivial takes one parameter n >= 1")
        n = params[0]
        return Graph.from_edges(n, [], "K1" if n == 1 else f"{n}K1")
    if kind == "disjoint_union":
        _require(len(spec.parts) >= 1, "disjoint_union requires at least one part")
        out = generate(spec.parts[0])
        for part in spec.parts[1:]:  # one part at a time, so the size bounds act early
            out = disjoint_union(out, generate(part))
        return out
    raise InvalidSpecError(f"unknown family kind {kind!r}")


def path(n: int) -> Graph:
    return generate(FamilySpec("path", (n,)))


def cycle(n: int) -> Graph:
    return generate(FamilySpec("cycle", (n,)))


def complete(n: int) -> Graph:
    return generate(FamilySpec("complete", (n,)))


def complete_bipartite(p: int, q: int) -> Graph:
    return generate(FamilySpec("complete_bipartite", (p, q)))


def star(m: int) -> Graph:
    return generate(FamilySpec("star", (m,)))


def grid2(n: int) -> Graph:
    return generate(FamilySpec("grid2", (n,)))


def trivial(n: int) -> Graph:
    return generate(FamilySpec("trivial", (n,)))


# ---------------------------------------------------------------------------
# Operators

def _tag(g: Graph) -> str:
    return g.name if g.name else f"graph{g.n}"


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: vertex (u, v) at index u*|V(h)| + v.

    (u1,v1) ~ (u2,v2) iff u1 = u2 and v1 ~_h v2, or u1 ~_g u2 and v1 = v2.
    """
    nh = h.n

    def edges():
        for u in range(g.n):
            for v1, v2 in h.edges():
                yield u * nh + v1, u * nh + v2
        for u1, u2 in g.edges():
            for v in range(nh):
                yield u1 * nh + v, u2 * nh + v

    return Graph.from_edges(g.n * nh, edges(), f"{_tag(g)} x {_tag(h)}")


def corona(g: Graph, h: Graph) -> Graph:
    """Corona: one copy of ``h`` per vertex of ``g``, fully joined to it.

    Vertices of ``g`` keep indices 0..n1-1; copy i of ``h`` occupies the
    block n1 + i*n2 .. n1 + (i+1)*n2 - 1.
    """
    n1, n2 = g.n, h.n

    def edges():
        yield from g.edges()
        for i in range(n1):
            base = n1 + i * n2
            for a, b in h.edges():
                yield base + a, base + b
            for a in range(n2):
                yield i, base + a

    return Graph.from_edges(n1 * (1 + n2), edges(), f"corona({_tag(g)},{_tag(h)})")


def add_true_twin(g: Graph, u: int) -> Graph:
    """Append a new vertex adjacent to N[u] (so: to u and all its neighbors)."""
    if not 0 <= u < g.n:
        raise InvalidArgumentsError(f"vertex {u} out of range")
    w = g.n
    edges = g.edges() + [(x, w) for x in sorted(g.adj[u])] + [(u, w)]
    return Graph.from_edges(g.n + 1, edges, f"{_tag(g)}+tt{u}")


def add_false_twin(g: Graph, u: int) -> Graph:
    """Append a new vertex adjacent to N(u) only (not to u itself)."""
    if not 0 <= u < g.n:
        raise InvalidArgumentsError(f"vertex {u} out of range")
    w = g.n
    edges = g.edges() + [(x, w) for x in sorted(g.adj[u])]
    return Graph.from_edges(g.n + 1, edges, f"{_tag(g)}+ft{u}")


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Index-shifted union: h's vertices move up by |V(g)|."""
    edges = g.edges() + [(g.n + a, g.n + b) for a, b in h.edges()]
    return Graph.from_edges(g.n + h.n, edges, f"{_tag(g)}+{_tag(h)}")


# ---------------------------------------------------------------------------
# Serialization

def serialize_edge_list(g: Graph) -> str:
    """Edge-list text: first line "n m", then one "u v" line per edge, u < v."""
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not stripped:
        raise GraphParseError("empty edge-list input")
    lineno, header = stripped[0]
    fields = header.split()
    if len(fields) != 2:
        raise GraphParseError("header must be 'n m'", line=lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphParseError("header must contain two integers", line=lineno) from None
    if n < 1:
        raise GraphParseError("vertex count must be >= 1", line=lineno)
    if m < 0:
        raise GraphParseError("edge count must be >= 0", line=lineno)
    if len(stripped) - 1 != m:
        raise GraphParseError(
            f"header announces {m} edges but {len(stripped) - 1} edge lines follow", line=lineno
        )
    seen = set()
    edges = []
    for lineno, ln in stripped[1:]:
        fields = ln.split()
        if len(fields) != 2:
            raise GraphParseError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError("edge endpoints must be integers", line=lineno) from None
        if u == v:
            raise GraphParseError(f"self-loop {u} {v}", line=lineno)
        if not 0 <= u < v < n:
            raise GraphParseError(f"edge {u} {v} must satisfy 0 <= u < v < n", line=lineno)
        if (u, v) in seen:
            raise GraphParseError(f"duplicate edge {u} {v}", line=lineno)
        seen.add((u, v))
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def serialize_graph6(g: Graph) -> str:
    """Standard graph6 encoding for n <= 62.

    One header byte n+63, then the upper-triangle adjacency bits x(i,j) for
    columns j = 1..n-1, rows i = 0..j-1, packed big-endian into 6-bit groups,
    each emitted as byte value group+63, zero-padded at the end.
    """
    if g.n > 62:
        raise InvalidArgumentsError("graph6 short form supports at most 62 vertices")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if j in g.adj[i] else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = (group << 1) | b
        chars.append(chr(group + 63))
    return "".join(chars)


@functools.lru_cache(maxsize=None)  # one entry per n <= 62
def _graph6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The (i, j) of each bit of a graph6 body read as one int without its
    padding, least significant bit first: the last pair in graph6 order first."""
    return tuple((i, j) for j in range(n - 1, 0, -1) for i in range(j - 1, -1, -1))


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise GraphParseError("empty graph6 input")
    n = ord(s[0]) - 63
    if n < 1:
        raise GraphParseError(f"bad vertex count byte {s[0]!r}", byte=0)
    if n > 62:
        raise GraphParseError("only the short graph6 form (n <= 62) is supported", byte=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 != nbytes:
        raise GraphParseError(
            f"expected {nbytes} data bytes for n={n}, got {len(s) - 1}", byte=len(s)
        )
    body = s[1:]
    if body and not ("?" <= min(body) and max(body) <= "~"):
        pos = next(pos for pos, ch in enumerate(body, start=1) if not "?" <= ch <= "~")
        raise GraphParseError(f"byte {s[pos]!r} outside graph6 range", byte=pos)
    data = 0  # the body's 6-bit groups, big-endian
    for ch in body:
        data = data << 6 | ord(ch) - 63
    pad = 6 * nbytes - nbits
    if data & ((1 << pad) - 1):
        raise GraphParseError("nonzero padding bits", byte=len(s) - 1)
    data >>= pad
    pairs = _graph6_pairs(n)
    edges = []
    while data:
        low = data & -data
        edges.append(pairs[low.bit_length() - 1])
        data ^= low
    return Graph.from_edges(n, edges)


def serialize_graph(g: Graph, format: str = "edge_list") -> str:
    if format == "edge_list":
        return serialize_edge_list(g)
    if format == "graph6":
        return serialize_graph6(g)
    raise InvalidArgumentsError(f"unknown graph format {format!r}")


def parse_graph(text: str, format: str = "edge_list") -> Graph:
    if format == "edge_list":
        return parse_edge_list(text)
    if format == "graph6":
        return parse_graph6(text)
    raise InvalidArgumentsError(f"unknown graph format {format!r}")


# ---------------------------------------------------------------------------
# Labeled-graph enumeration

def edge_positions(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in lexicographic order; pair k owns bit k of an edge mask."""
    return list(itertools.combinations(range(n), 2))


def graph_from_edge_mask(n: int, mask: int, pairs: Sequence[tuple[int, int]] | None = None) -> Graph:
    if pairs is None:
        pairs = edge_positions(n)
    edges = [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]
    return Graph.from_edges(n, edges)


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled simple graphs on n vertices, ascending edge mask."""
    if n < 1:
        raise InvalidArgumentsError(f"need n >= 1, got {n}")
    if n > MAX_ENUMERATION_N:
        raise ResourceLimitError(
            f"labeled enumeration is capped at n = {MAX_ENUMERATION_N}, got {n}"
        )
    pairs = edge_positions(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_edge_mask(n, mask, pairs)
