"""Vertex labelings and their validity predicates.

A double Roman dominating function assigns each vertex a value in {0,1,2,3}
such that every 0-vertex has two neighbors valued 2 or one valued 3
(condition i) and every 1-vertex has a neighbor valued at least 2
(condition ii). The Roman variant uses {0,1,2} and only requires a
2-neighbor for every 0-vertex.
"""

from __future__ import annotations

from typing import ClassVar, Iterable, NamedTuple

from .errors import InvalidArgumentsError
from .graph import Graph

VertexSet = frozenset[int]


class Labeling:
    """A function V -> ALPHABET, stored as a value per vertex index.

    Subclasses set only ALPHABET; equality also compares the class, so a
    double Roman and a Roman labeling with the same values differ.
    """

    values: tuple[int, ...]
    ALPHABET: ClassVar[tuple[int, ...]] = ()

    def __init__(self, values: tuple[int, ...]):
        if not values:
            raise InvalidArgumentsError("labeling needs at least one vertex")
        for v, x in enumerate(values):
            if x not in self.ALPHABET:
                alphabet = ",".join(str(a) for a in self.ALPHABET)
                raise InvalidArgumentsError(f"value {x} at vertex {v} not in {{{alphabet}}}")
        object.__setattr__(self, "values", values)

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(values={self.values!r})"

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def weight(self) -> int:
        return sum(self.values)


class DRLabeling(Labeling):
    """A function V -> {0,1,2,3}."""

    ALPHABET = (0, 1, 2, 3)


class RomanLabeling(Labeling):
    """A function V -> {0,1,2}."""

    ALPHABET = (0, 1, 2)


class Violation(NamedTuple):
    """One failing vertex and which condition it fails ("i" or "ii")."""

    vertex: int
    condition: str


class Verdict(NamedTuple):
    valid: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def _check_length(g: Graph, f: Labeling):
    if f.n != g.n:
        raise InvalidArgumentsError(f"labeling has {f.n} values for a graph on {g.n} vertices")


def is_valid_drdf(g: Graph, f: DRLabeling) -> Verdict:
    """Check conditions (i) and (ii); report every failing vertex.

    A 0-vertex fails (i) unless it has two 2-neighbors or a 3-neighbor;
    a 1-vertex fails (ii) unless it has a neighbor valued >= 2. Isolated
    vertices therefore need value >= 2.
    """
    _check_length(g, f)
    vals = f.values
    bad = []
    for v, x in enumerate(vals):
        if x == 0:
            twos = threes = 0
            for u in g.adj[v]:
                if vals[u] == 2:
                    twos += 1
                elif vals[u] == 3:
                    threes += 1
            if threes == 0 and twos < 2:
                bad.append(Violation(v, "i"))
        elif x == 1:
            if all(vals[u] < 2 for u in g.adj[v]):
                bad.append(Violation(v, "ii"))
    return Verdict(not bad, tuple(bad))


def is_valid_rdf(g: Graph, f: RomanLabeling) -> Verdict:
    """A Roman dominating function: every 0-vertex has a 2-neighbor."""
    _check_length(g, f)
    vals = f.values
    bad = tuple(
        Violation(v, "i")
        for v, x in enumerate(vals)
        if x == 0 and all(vals[u] != 2 for u in g.adj[v])
    )
    return Verdict(not bad, bad)


def is_dominating(g: Graph, d: Iterable[int]) -> bool:
    """True iff the closed neighborhood of d covers every vertex."""
    members = frozenset(d)
    for v in members:
        if not 0 <= v < g.n:
            raise InvalidArgumentsError(f"vertex {v} out of range")
    covered = set(members)
    for v in members:
        covered.update(g.adj[v])
    return len(covered) == g.n


def partition(f: DRLabeling) -> tuple[VertexSet, VertexSet, VertexSet, VertexSet]:
    """The ordered partition (V0, V1, V2, V3) induced by the labeling."""
    parts: tuple[list[int], ...] = ([], [], [], [])
    for v, x in enumerate(f.values):
        parts[x].append(v)
    return tuple(frozenset(p) for p in parts)  # type: ignore[return-value]


def eliminate_ones(g: Graph, f: DRLabeling) -> DRLabeling:
    """Rewrite a valid DRDF into one with no 1s and no larger weight.

    Scan vertices in increasing index; for each v still valued 1, take its
    lowest-indexed neighbor w currently valued >= 2: if w is a 3 drop v to
    0, if w is a 2 raise w to 3 and drop v to 0.
    """
    verdict = is_valid_drdf(g, f)
    if not verdict:
        raise InvalidArgumentsError(f"input is not a valid DRDF: {verdict.violations}")
    vals = list(f.values)
    for v in range(g.n):
        if vals[v] != 1:
            continue
        # exists because f was valid and values >= 2 never decrease here
        w = min(u for u in g.adj[v] if vals[u] >= 2)
        if vals[w] == 2:
            vals[w] = 3
        vals[v] = 0
    return DRLabeling(tuple(vals))


# ---------------------------------------------------------------------------
# Text form: comma-separated values in vertex order, e.g. "0,3,0".

def serialize_labeling(f: Labeling) -> str:
    return ",".join(str(x) for x in f.values)


def parse_labeling(text: str, kind: str = "drdf") -> Labeling:
    fields = [t.strip() for t in text.strip().split(",")]
    if fields == [""]:
        raise InvalidArgumentsError("empty labeling text")
    try:
        values = tuple(int(t) for t in fields)
    except ValueError:
        raise InvalidArgumentsError(f"labeling entries must be integers: {text!r}") from None
    if kind == "drdf":
        return DRLabeling(values)
    if kind == "rdf":
        return RomanLabeling(values)
    raise InvalidArgumentsError(f"unknown labeling kind {kind!r}")
