"""Inequality checkers, realization constructions and exhaustive pair scans.

Every checker computes both sides of its inequality with the exact solvers
and reports whether the stated relation holds; nothing is taken on faith
from the closed forms. Realization builders return the graph together with
the value the construction promises, leaving confirmation to the caller.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidArgumentsError, ResourceLimitError
from .graph import (
    FamilySpec,
    Graph,
    MAX_ENUMERATION_N,
    add_false_twin,
    add_true_twin,
    cartesian_product,
    corona,
    edge_positions,
    generate,
    graph_from_edge_mask,
    is_connected,
    trivial,
)
from .labeling import DRLabeling, partition
from .solvers import (
    SolveResult,
    check_solver_cap,
    enumerate_min_drdfs,
    solve_domination,
    solve_double_roman,
    solve_roman,
)


class BoundReport(NamedTuple):
    bound_id: str
    lhs: int
    rhs: int | tuple[int, int]
    relation: str
    holds: bool | None  # None when the check was skipped
    context: str
    note: str = ""
    skipped: str | None = None


def evaluate_relation(relation: str, lhs: int, rhs: int | tuple[int, int]) -> bool:
    if relation == "le":
        return lhs <= rhs
    if relation == "ge":
        return lhs >= rhs
    if relation == "gt":
        return lhs > rhs
    if relation == "eq":
        return lhs == rhs
    if relation == "between":
        lo, hi = rhs
        return lo <= lhs <= hi
    if relation == "strictly_between":
        lo, hi = rhs
        return lo < lhs < hi
    raise InvalidArgumentsError(f"unknown relation {relation!r}")


def _report(
    bound_id: str,
    lhs: int,
    rhs: int | tuple[int, int],
    relation: str,
    context: str,
    note: str = "",
) -> BoundReport:
    return BoundReport(
        bound_id, lhs, rhs, relation, evaluate_relation(relation, lhs, rhs), context, note
    )


def _ctx(g: Graph) -> str:
    return g.name if g.name else f"graph on {g.n} vertices"


def check_fundamental(
    g: Graph, gdr: int | None = None, gam: int | None = None
) -> list[BoundReport]:
    """The two sandwiches tying gamma_dR to gamma and gamma_R.

    2*gamma <= gamma_dR <= 3*gamma holds for every graph; the strict
    Roman sandwich gamma_R < gamma_dR < 2*gamma_R only for nontrivial
    connected graphs, so it is reported as skipped elsewhere. gdr and gam,
    when given, are gamma_dR(g) and gamma(g) from an earlier solve.
    """
    gdr = solve_double_roman(g).value if gdr is None else gdr
    gam = solve_domination(g).value if gam is None else gam
    out = [_report("double_vs_domination", gdr, (2 * gam, 3 * gam), "between", _ctx(g))]
    if g.n >= 2 and is_connected(g):
        gr = solve_roman(g).value
        out.append(
            _report("double_vs_roman_strict", gdr, (gr, 2 * gr), "strictly_between", _ctx(g))
        )
    else:
        out.append(
            BoundReport(
                "double_vs_roman_strict",
                gdr,
                (0, 0),
                "strictly_between",
                None,
                _ctx(g),
                skipped="requires a nontrivial connected graph",
            )
        )
    return out


def check_min_drdf_partition(
    g: Graph, mode: str = "witness_only", res: SolveResult | None = None, gam: int | None = None
) -> list[BoundReport]:
    """Size bounds on the 3- and 2-classes of minimum labelings:
    |V3| <= gamma_dR - 2*gamma and |V2| >= 3*gamma - gamma_dR.

    witness_only checks the solver's witness; all_minima checks every
    minimum labeling (small graphs only) and reports the worst case.
    res and gam, when given, are solve_double_roman(g) and gamma(g) from an
    earlier solve, so the checks of one graph solve it once.
    """
    if mode not in ("witness_only", "all_minima"):
        raise InvalidArgumentsError(f"unknown mode {mode!r}")
    res = solve_double_roman(g) if res is None else res
    gam = solve_domination(g).value if gam is None else gam
    gdr = res.value
    if mode == "witness_only":
        assert isinstance(res.witness, DRLabeling)
        labelings = [res.witness]
    else:
        labelings = list(enumerate_min_drdfs(g, opt=gdr))
    v3_max = max(len(partition(f)[3]) for f in labelings)
    v2_min = min(len(partition(f)[2]) for f in labelings)
    context = f"{_ctx(g)}, {len(labelings)} minimum labeling(s)"
    return [
        _report("v3_at_most_slack", v3_max, gdr - 2 * gam, "le", context),
        _report("v2_at_least_coslack", v2_min, 3 * gam - gdr, "ge", context),
    ]


def check_cartesian(g: Graph, h: Graph) -> list[BoundReport]:
    """All product bounds at once, solved exactly on g x h.

    Lower bounds: half of gamma(one factor) times gamma_dR(the other), in
    both orders, and a sixth of gamma_dR(g)*gamma_dR(h); upper bound:
    min(n2*gamma_dR(g), n1*gamma_dR(h)); plus strictness over
    gamma(g)*gamma(h). Ratios are compared in exact integer form.
    """
    prod = cartesian_product(g, h)
    gdr_prod = solve_double_roman(prod).value
    gam_g = solve_domination(g).value
    gdr_g = solve_double_roman(g).value
    if h == g:  # one factor twice: solve it once
        gam_h, gdr_h = gam_g, gdr_g
    else:
        gam_h = solve_domination(h).value
        gdr_h = solve_double_roman(h).value
    context = f"{_ctx(g)} x {_ctx(h)}"
    return [
        _report(
            "product_lower_half_gh", gdr_prod, (gam_g * gdr_h + 1) // 2, "ge", context
        ),
        _report(
            "product_lower_half_hg", gdr_prod, (gam_h * gdr_g + 1) // 2, "ge", context
        ),
        _report(
            "product_lower_sixth", gdr_prod, (gdr_g * gdr_h + 5) // 6, "ge", context
        ),
        _report(
            "product_upper_min",
            gdr_prod,
            min(h.n * gdr_g, g.n * gdr_h),
            "le",
            context,
        ),
        _report(
            "product_above_domination_product",
            gdr_prod,
            gam_g * gam_h,
            "gt",
            context,
            note="follows from two earlier published bounds",
        ),
    ]


def check_twin(g: Graph, u: int, kind: str, base: int | None = None) -> BoundReport:
    """Adding a twin never lowers the value and raises it by at most 1
    (true twin, adjacent to the vertex too) or 2 (false twin).

    base, when given, is gamma_dR(g) from an earlier row, so checks over
    many vertices solve g once. Both graphs are tested against the solver
    cap before anything is solved.
    """
    if kind == "true_twin":
        h = add_true_twin(g, u)
        width = 1
    elif kind == "false_twin":
        h = add_false_twin(g, u)
        width = 2
    else:
        raise InvalidArgumentsError(f"unknown twin kind {kind!r}")
    for graph in (g, h):
        check_solver_cap(graph, 2, "solve_double_roman")
    if base is None:
        base = solve_double_roman(g).value
    grown = solve_double_roman(h).value
    return _report(
        f"{kind}_sandwich", grown, (base, base + width), "between", f"{_ctx(g)}, vertex {u}"
    )


def build_corona_realization(n: int, m: int) -> tuple[Graph, int]:
    """A base graph whose pendant corona hits exactly 3n - m: a star with
    m leaves plus n-m-1 isolated vertices, all given pendants.

    Sweeping m from 0 to n-1 realizes every value from 3n down to 2n+1.
    """
    if n < 1:
        raise InvalidArgumentsError(f"need n >= 1, got {n}")
    if not 0 <= m <= n - 1:
        raise InvalidArgumentsError(f"need 0 <= m <= n-1, got m={m} for n={n}")
    parts = [FamilySpec("star", (m,))]
    if n - m - 1 > 0:
        parts.append(FamilySpec("trivial", (n - m - 1,)))
    if len(parts) == 1:
        base = generate(parts[0])
    else:
        base = generate(FamilySpec("disjoint_union", parts=tuple(parts)))
    return corona(base, trivial(1)), 3 * n - m


def build_roman_pair_graph(b: int, i: int) -> tuple[Graph, tuple[int, int]]:
    """Bipartite graph realizing the pair (floor(b/2) + i, b).

    Side X has floor(b/2) vertices (indices 0..h-1). For every pair
    (x_j, x_k) with j <= i and j < k, two Y-vertices are joined to both;
    odd b adds two pendant Y-vertices on x_1.
    """
    h = b // 2
    if h < 2:
        raise InvalidArgumentsError(f"need floor(b/2) >= 2, got b={b}")
    if not 1 <= i <= h - 1:
        raise InvalidArgumentsError(f"need 1 <= i <= {h - 1}, got i={i}")

    def edges():
        nxt = h
        for j in range(1, i + 1):
            for k in range(j + 1, h + 1):
                for _ in range(2):
                    yield j - 1, nxt
                    yield k - 1, nxt
                    nxt += 1
        for _ in range(2 * (b % 2)):
            yield 0, nxt
            nxt += 1

    # h + 2 per pair (x_j, x_k) + 2 pendants when b is odd, so a huge graph is
    # refused before any edge is built
    n = h + 2 * (i * h - i * (i + 1) // 2) + 2 * (b % 2)
    return Graph.from_edges(n, edges(), f"pair({h + i},{b})"), (h + i, b)


# ---------------------------------------------------------------------------
# Exhaustive pair scans

class PairScanResult(NamedTuple):
    a: int
    b: int
    n_max: int
    found: Graph | None
    graphs_scanned: int
    connected_only: bool


def _pair_hit(g: Graph, a: int, b: int) -> bool:
    # Roman first: it is cheaper and usually rules the graph out
    return solve_roman(g).value == a and solve_double_roman(g).value == b


def _generator_tables(n: int, pairs: list[tuple[int, int]], split: int) -> list[tuple]:
    """Lookup tables for the transposition (0 1) and the cycle (0 1 ... n-1),
    which generate the symmetric group: per generator, the images of the low
    ``split`` bits and of the remaining high bits of an edge mask, whose OR
    relabels the mask. For n = 2 both are the swap; n = 1 has no pairs."""
    index = {pair: k for k, pair in enumerate(pairs)}
    tables = []
    for perm in ({0: 1, 1: 0}, {i: (i + 1) % n for i in range(n)}):
        image = [1 << index[tuple(sorted((perm.get(u, u), perm.get(v, v))))] for u, v in pairs]
        halves = []
        for shift, width in ((0, split), (split, len(pairs) - split)):
            table = [0] * (1 << width)
            for value in range(1, 1 << width):
                low = value & -value
                table[value] = table[value ^ low] | image[shift + low.bit_length() - 1]
            halves.append(table)
        tables.append(tuple(halves))
    return tables


def _mark_class(seen: bytearray, mask: int, tables: list, split: int) -> int:
    """Set seen[m] to 1 for every mask m isomorphic to mask, each mask once,
    and return how many were set: the size of the class when none was set
    before.

    Every vertex permutation is a product of the two generators (in a finite
    group an inverse is a power), so a walk that takes both images of each
    mask, two lookups, reaches the whole class. The scan walks only to count
    the masks below a hit; the committed class table (module graph_classes)
    is this walk's output, which a test regenerates."""
    (swap_low, swap_high), (cycle_low, cycle_high) = tables
    low_bits = (1 << split) - 1
    seen[mask] = 1
    stack = [mask]
    stored = 1
    while stack:
        m = stack.pop()
        low, high = m & low_bits, m >> split
        image = swap_low[low] | swap_high[high]
        if not seen[image]:
            seen[image] = 1
            stack.append(image)
            stored += 1
        image = cycle_low[low] | cycle_high[high]
        if not seen[image]:
            seen[image] = 1
            stack.append(image)
            stored += 1
    return stored


def _scan_order(n: int, a: int, b: int, connected_only: bool) -> tuple[int, Graph | None]:
    """Scan the labeled graphs on n vertices in ascending edge-mask order:
    graphs scanned up to and including the first hit, and the hit.

    Only the least mask of each isomorphism class is built and solved, read
    from the committed class table (module graph_classes) in ascending
    order; a class that misses adds its size to the count. The first hit in
    mask order is the least mask of the first class that hits. Masks of the
    missed classes can lie above it, so on a hit a walk along two generators
    of S_n marks those classes and the marked masks below the hit are counted.
    """
    from .graph_classes import CLASSES  # loaded late: only a scan reads it
    pairs = edge_positions(n)
    scanned = 0
    missed = []
    for entry in CLASSES[n - 1].split():
        least, size = entry.split(":")
        mask = int(least)
        g = graph_from_edge_mask(n, mask, pairs)
        if connected_only and not is_connected(g):
            continue
        if _pair_hit(g, a, b):
            split = (len(pairs) + 1) // 2
            tables = _generator_tables(n, pairs, split)
            seen = bytearray(1 << len(pairs))
            for m in missed:
                _mark_class(seen, m, tables, split)
            return seen.count(1, 0, mask) + 1, g
        scanned += int(size)
        missed.append(mask)
    return scanned, None


def scan_pair_realizability(
    a: int,
    b: int,
    n_max: int = 6,
    connected_only: bool = True,
) -> PairScanResult:
    """Search all labeled graphs up to n_max vertices for one with Roman
    number a and double Roman number b.

    Enumeration order is ascending vertex count, then ascending edge
    bitmask; the reported graph is the first hit in that order and
    graphs_scanned counts every labeled graph scanned up to it (with
    connected_only, the connected ones). Both invariants are the same on
    isomorphic graphs, so each isomorphism class is built and solved once,
    at its least mask, taken from the committed table of the classes on at
    most MAX_ENUMERATION_N vertices; its other masks only add to the count.
    """
    if n_max > MAX_ENUMERATION_N:
        raise ResourceLimitError(
            f"pair scans support n_max <= {MAX_ENUMERATION_N}, got {n_max}"
        )
    if n_max < 1:
        raise InvalidArgumentsError(f"need n_max >= 1, got {n_max}")

    scanned = 0
    for n in range(1, n_max + 1):
        part, found = _scan_order(n, a, b, connected_only)
        scanned += part
        if found is not None:
            return PairScanResult(a, b, n_max, found, scanned, connected_only)
    return PairScanResult(a, b, n_max, None, scanned, connected_only)
