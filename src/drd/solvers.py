"""Exact solvers for domination, Roman domination and double Roman domination.

All three invariants are solved by one branch-and-bound labeling engine
(`_labelings`), checked against an independent exhaustive oracle
(`brute_force`). The two routes share nothing beyond the graph type, so
agreement between them is meaningful evidence of correctness. The engine
differs between the invariants only in the alphabet, the value order and how
much neighbor credit a 0-vertex needs: a dominating set is a {0,2} labeling
of twice its size. The engine also lists every minimum DRDF. An exact
frontier DP (module `frontier`) is a third route, tested against the oracle
on its own. Each connected component's route is chosen once, at its root:
one that leaves a root gap and whose frontier width the DP takes, as a
probe that stops at the first wider frontier finds, goes to the DP before
any search, and every other one is searched to the end.

The three conditions are all on closed neighbourhoods, so a solve within
the size cap takes each connected component on its own, as
`graph.components` finds them: the weights add up, and the merge of the
components' lexicographically least optima is the graph's. An isolated
vertex takes the least nonzero value with no search.

Search-space note: the double Roman solver branches over {0,2,3} only. A
minimum-weight labeling never needs the value 1 (any 1 can be folded into a
neighboring 2 or 3 without increasing weight), so the reduced space always
contains an optimum; `brute_force(..., space="full")` re-checks that claim
exhaustively on small graphs.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Collection, Iterator, NamedTuple, Sequence, Union

from .errors import DrdError, InvalidArgumentsError, ResourceLimitError
from .graph import Graph, components
from .labeling import (
    DRLabeling,
    RomanLabeling,
    VertexSet,
    is_dominating,
    is_valid_drdf,
    is_valid_rdf,
)

DEFAULT_MAX_N = 30
MAX_N_ENV = "DRD_MAX_N"

BRUTE_MAX_N_REDUCED = 12
BRUTE_MAX_N_FULL = 8
MINIMA_MAX_N = 10

INVARIANTS = ("domination", "roman", "double_roman")

Witness = Union[DRLabeling, RomanLabeling, VertexSet]
# N(v) for each vertex v: `Graph.adj` itself, or a component's relabelled tuples
Adjacency = Sequence[Collection[int]]


class SolveResult(NamedTuple):
    value: int
    witness: Witness
    nodes_explored: int
    method: str  # branch_and_bound | frontier_dp | brute_force


def _solver_cap(max_n: int | None) -> int:
    """The size cap: `max_n` (the --max-n flag), else $DRD_MAX_N, else
    DEFAULT_MAX_N. A cap of 0 leaves only the DP; a negative one is refused."""
    source = "max_n (--max-n)"
    if max_n is None:
        raw = os.environ.get(MAX_N_ENV)
        if raw is None:
            return DEFAULT_MAX_N
        source = MAX_N_ENV
        try:
            max_n = int(raw)
        except ValueError:
            raise InvalidArgumentsError(f"{MAX_N_ENV} must be an integer, got {raw!r}") from None
    if max_n < 0:
        raise InvalidArgumentsError(f"{source} must be 0 or more, got {max_n}")
    return max_n


def _check_cap(n: int, cap: int, what: str):
    if n > cap:
        raise ResourceLimitError(f"{what} supports n <= {cap}, got n = {n}")


def check_solver_cap(g: Graph, need: int, what: str) -> None:
    """Raise the ResourceLimitError that solver ``what`` (the one for `need`)
    would raise on g under the default cap, without solving anything: over
    the cap a graph is solved only when `_dp_order` finds it an order."""
    cap = _solver_cap(None)
    if g.n > cap and _dp_order(g.adj, need) is None:
        _check_cap(g.n, cap, what)


def greedy_dominating_set(g: Graph) -> frozenset[int]:
    """Pick the vertex covering the most uncovered vertices until done.

    Ties break toward the lowest index, so the result is deterministic.
    Vertices wait in buckets by gain, which are drained from the top, each
    sorted once by index. Gains only fall, so no vertex has more gain than
    the bucket being drained, and one found there with less is moved down
    to its current gain; O((n + m) log n) in all.
    """
    adj = g.adj
    gain = [len(a) + 1 for a in adj]  # v itself and its neighbors, all uncovered
    buckets: list[list[int]] = [[] for _ in range(max(gain) + 1)]
    for v, c in enumerate(gain):
        buckets[c].append(v)
    covered = [False] * g.n
    chosen = []
    left = g.n
    c = len(buckets) - 1
    while left:
        bucket = buckets[c]
        bucket.sort()
        for v in bucket:
            if gain[v] != c:
                buckets[gain[v]].append(v)
                continue
            chosen.append(v)
            for u in (v, *adj[v]):
                if not covered[u]:
                    covered[u] = True
                    left -= 1
                    gain[u] -= 1
                    for w in adj[u]:
                        gain[w] -= 1
        c -= 1
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# Branch-and-bound engine
#
# The three conditions are one rule: a 0-vertex must collect `need` credit
# from its neighbors, where a 2 gives 1 and a 3 gives 2 (GAIN). Domination is
# need = 1 over {0,2} (weight 2 per member), Roman is need = 1 over {0,1,2},
# and double Roman is need = 2 over {0,2,3}, i.e. a 3-neighbor or two
# 2-neighbors. One labeling engine serves all three.

GAIN = (0, 0, 1, 2)

# The frontier DP keeps at most DP_MAX_STATES states per step. A frontier
# vertex has 2 * need + 1 states, so it takes widths <= 5 for domination and
# Roman (3^5 = 243) and <= 4 for double Roman (5^4 = 625).
DP_MAX_STATES = 5**4
# A connected graph goes to the DP from the root, with no search at all, when
# it has ROOT_DP_MIN_N vertices or more, its greedy incumbent lies
# ROOT_DP_MIN_GAP or more above the root bound and the DP takes its frontier
# width (see `_dp_order`); every other graph is searched to the end. A width
# 4 or 5 DP can cost more than a search of about 100 nodes, so a lower least
# n trades the median solve for the long ones. Timed per command (best of 7,
# through `cli.main`) over the benchmark's seed-1 lists on a 2-core Xeon under
# Python 3.11, at a least n of 12, 13, 14 and 16, with the earlier route in
# brackets (width <= 2 from the root, else a hand-over after 250 search
# nodes): the random-graphs passes 0-3 took 0.574, 0.576, 0.574 and 0.575 s
# (0.575), with a median command of 0.330, 0.324, 0.315 and 0.310 ms (0.308)
# and a 97th percentile of 1.14, 1.12, 1.19 and 1.31 ms (1.31); a families
# pass took 7.9, 8.2, 8.4 and 8.9 ms (8.3), `check grids` most of the spread.
ROOT_DP_MIN_N = 14
ROOT_DP_MIN_GAP = 2


def dp_width(need: int) -> int:
    """The widest vertex order the frontier DP for `need` takes."""
    w = 0
    while (2 * need + 1) ** (w + 1) <= DP_MAX_STATES:
        w += 1
    return w


def _dp_order(adj: Adjacency, need: int) -> list[int] | None:
    """The frontier order to solve along when the DP takes its width, else
    None. The probe is the only test: it stops at the first frontier wider
    than the DP takes, so a dense graph is refused within a few steps."""
    w = dp_width(need)
    from .frontier import frontier_order  # loaded late: most solves never get here

    width, order = frontier_order(adj, w)
    return order if width <= w else None


@functools.lru_cache(maxsize=256)
def _clearing_rate(value_order: tuple[int, ...], need: int, top: int) -> tuple[int, int]:
    """(x, c) for the value x that clears the most deficit per unit weight
    when no vertex has more than `top` short neighbors: up to c for weight x.

    Cached: the key holds no graph size, so searches of every size share it."""
    per, clears = 1, 0
    for x in value_order:
        c = need + GAIN[x] * top
        if x and c * per > clears * x:
            per, clears = x, c
    return per, clears


@functools.lru_cache(maxsize=256)
def _rest_table(per: int, clears: int, deficit: int) -> list[int]:
    """The least weight that clears d <= deficit at `clears` per `per` weight.

    Cached, so searches share the list: it is only read."""
    return [-(-d * per // clears) for d in range(deficit + 1)]


def _root_gap(degree: list[int], value_order: tuple[int, ...], need: int, best: int) -> int:
    """`best` less the root's lower bound: its isolated vertices at the least
    nonzero value each, or the counting bound (see `_labelings`) on the whole
    deficit. The search below `best` ends at its root when the gap is 0 or
    less. O(n), with no mask built."""
    per, clears = _clearing_rate(value_order, need, max(degree))
    return best - max(min(filter(None, value_order)) * degree.count(0),
                      -(-need * len(degree) * per // clears))


def _labelings(
    adj: Adjacency,
    order: list[int],
    value_order: tuple[int, ...],
    need: int,
    bound: list[int],
) -> Iterator[list[int]]:
    """DFS over `value_order` assignments in `order`, on an explicit stack.

    Yields a copy of every complete labeling lighter than bound[0] as it
    meets them (the caller may lower bound[0] in between); a caller that
    stops iterating abandons the search.
    bound[1] is the node count, up to date at every yield and at the end.
    With values ascending and bound[0] = opt + 1, the first labeling yielded
    is the lexicographically least optimum. The root is not priced here:
    `_root_gap` does that before any search starts, so a search that ends
    there costs O(n).

    A node's state is four bit masks, stored per depth when it is expanded,
    so backing up only takes the weight back. `short` holds the unassigned
    and 0-valued vertices with less credit from assigned neighbors than
    need, `bare` those of them with none (need 2 only), `done` the assigned
    vertices and `shut` the closed ones, with no unassigned neighbor left
    (isolated vertices from the start). Vertices are assigned in `order`, so
    the vertices order[i] closes are always the same; they are found on the
    first descent to depth i and kept. A closed vertex's credit is final: an
    assignment that leaves a closed 0 short is not a node, and a closed
    unassigned vertex still short is dead, it must take a nonzero value, at
    least the least one of the alphabet (`floor`).

    The short and bare vertices lack deficit = |short| + |bare| in total; a
    complete labeling lacks none. Giving x to a vertex u clears at most
    need + GAIN[x] * |N(u) & short| of the deficit, and `short` only shrinks
    as the search goes deeper, so with k the largest |N(u) & short| over the
    unassigned u the rest weighs at least the deficit over the best clearing
    rate: a counting bound, nonzero at the root (gamma_dR >= 3n/(Delta+1) for
    Delta >= 2, gamma_R >= 2n/(Delta+1)). rest[i] tabulates it with k
    replaced by the largest degree in order[i:], at the cost of one lookup.
    A node that survives that and `floor` per dead vertex is priced again
    with k itself when even k = 0 would prune it, scanning the unassigned
    vertices until one has more short neighbors than the largest k that
    still prunes.

    A value above `floor` is not tried on a vertex none of whose neighbors
    lacks more credit than `floor` gives (no short neighbor for Roman, no
    bare one for double Roman): `floor` there leaves every neighbor as well
    off as it needs to be, at less weight, so no minimum labeling is lost.
    """
    n = len(adj)
    degree = [len(a) for a in adj]
    nbmask = []  # nbmask[v]: the bit mask of N(v)
    for a in adj:
        m = 0
        for u in a:
            m |= 1 << u
        nbmask.append(m)
    floor = min(filter(None, value_order))  # the price of a dead vertex
    deficit = need * n
    best = bound[0]
    bound[1] = nodes = 1  # the root
    lift = GAIN[floor]  # the credit `floor` gives
    rest = []  # rest[i][d]: the least weight with which order[i:] clears a deficit d
    top = -1
    for w in reversed(order):
        if degree[w] > top:
            top = degree[w]
            per, clears = _clearing_rate(value_order, need, top)
            table = _rest_table(per, clears, deficit)
        rest.append(table)
    rest.reverse()
    # masks[i]: short, bare, done and shut while order[:i] is assigned; at
    # the root every vertex is short, and bare too when need is 2
    every = (1 << n) - 1
    iso = sum(1 << v for v, d in enumerate(degree) if not d) if 0 in degree else 0
    masks = [(every, every if need == 2 else 0, 0, iso)] * n
    closing = [-1] * n  # closing[i]: the vertices order[i] closes, once known
    k = len(value_order)
    nxt = [0] * n  # nxt[i]: where order[i] resumes in value_order
    vals = [0] * n
    depth = i = wgt = 0  # order[:depth] is assigned and weighs wgt
    while True:
        # order[depth] tries value_order[i:]
        w = order[depth]
        short, bare, done, shut = masks[depth]
        nb = nbmask[w]
        wb = 1 << w
        done |= wb
        cm = closing[depth]
        if cm < 0:  # first descent here: the neighbors w is the last to reach
            cm = 0
            for u in adj[w]:
                if not nbmask[u] & ~done:
                    cm |= 1 << u
            closing[depth] = cm
        shut |= cm
        while i < k:
            x = value_order[i]
            i += 1
            c = wgt + x
            if c >= best or x > floor and not nb & (bare if lift else short):
                continue  # too heavy, or `floor` weighs less and does as much
            # a nonzero w is no longer short, and nor are the neighbors it
            # gives the credit they lacked (a bare one lacked 2)
            sh, ba = short, bare
            g = GAIN[x]
            if g:
                sh &= ~(nb & ~ba | wb) if g < need else ~(nb | wb)
                ba &= ~(nb | wb)
            elif x:
                sh &= ~wb
                ba &= ~wb
            lost = shut & sh  # closed and short: dead, or a 0 that stays short
            if lost & done:
                continue  # not a node
            nodes += 1  # a node: order[:depth + 1] is assigned
            if depth + 1 == n:
                if c < best:
                    vals[w] = x
                    bound[1] = nodes
                    yield vals.copy()
                    best = bound[0]
                continue
            if lost and c + floor * lost.bit_count() >= best:  # all dead now, `floor` each
                continue
            deficit = sh.bit_count() + ba.bit_count()
            if c + rest[depth + 1][deficit] >= best:
                continue
            # with k for the largest degree the deficit bound did not prune;
            # with k itself it prunes when k <= t, where t is the largest k
            # with deficit * y > (slack - 1) * (need + GAIN[y] * k) for every
            # crediting value y. At k = 0 the cheapest value clears the most
            # per unit, and a value that credits nothing (a Roman 1) can only
            # be that one.
            s1 = best - c - 1
            if deficit * floor > s1 * need:  # k = 0 prunes
                t = n
                for y in value_order:
                    gy = GAIN[y]
                    if gy:
                        q = (deficit * y - s1 * need - 1) // (s1 * gy)
                        if q < t:
                            t = q
                for u in order[depth + 1:]:
                    if (nbmask[u] & sh).bit_count() > t:
                        break  # expand it
                else:
                    continue  # pruned
            break  # expand it
        else:  # no value left: back up
            if depth == 0:
                bound[1] = nodes
                return
            depth -= 1
            i = nxt[depth]
            wgt -= vals[order[depth]]
            continue
        nxt[depth] = i
        vals[w] = x
        wgt = c
        depth += 1
        i = 0
        masks[depth] = sh, ba, done, shut


def _degree_order(degree: list[int]) -> list[int]:
    # descending degree, ties by index: the sort is stable under reverse
    return sorted(range(len(degree)), key=degree.__getitem__, reverse=True)


def _incumbent(greedy: frozenset[int], vertices, values: tuple[int, ...]) -> tuple[int, list[int]]:
    """The top value on the greedy set's members among `vertices` (for Roman,
    all 1s when those weigh no more), as weight and values in that order."""
    top = values[-1]
    vals = [top if v in greedy else 0 for v in vertices]
    w = top * (len(vals) - vals.count(0))
    if 1 in values and w >= len(vals):
        return len(vals), [1] * len(vals)
    return w, vals


def _solve_labeling(
    g: Graph, need: int, value_order: tuple[int, ...], canonical: bool, cap: int, what: str
) -> tuple[int, list[int], int, str]:
    """Weight, values, work and method of a minimum labeling for `need`.

    Above `cap` vertices there is no search: the graph goes to the DP if
    `_dp_order` finds it an order and is refused if not, whether it is
    connected or not. Within the cap, the root is priced first
    (`_root_gap`) against an incumbent that puts the top value on a greedy
    dominating set, before any mask is built; a root that closes ends a
    solve that is not canonical. Then the graph splits into its connected
    components (`graph.components`). The three invariants are sums of
    conditions on closed neighbourhoods, so the weights add up, and the
    lexicographically least optimum is the merge of each component's own
    least optimum. An isolated vertex takes the least nonzero value, with no
    search. Every other component, relabelled in ascending index order, goes
    through `_solve_part` on its own (a connected graph whole, as `g.adj`),
    which chooses its route once, at its root. `nodes` sums the components'
    work, and the isolated vertices count as one root node between them, so
    it is at least 1. `method` is frontier_dp when the DP finished any
    component, else branch_and_bound.
    """
    adj = g.adj
    values = tuple(sorted(value_order))
    if g.n > cap:
        dp_order = _dp_order(adj, need)
        if dp_order is None:
            _check_cap(g.n, cap, what)  # too wide for the DP: refused
        return _by_frontier_dp(adj, dp_order, values, need, 0)
    greedy = greedy_dominating_set(g)
    best_w, best_vals = _incumbent(greedy, range(g.n), values)
    degree = [len(a) for a in adj]
    gap = _root_gap(degree, value_order, need, best_w)
    if gap <= 0 and not canonical:
        return best_w, best_vals, 1, "branch_and_bound"
    parts = list(components(g))
    if len(parts) == 1:
        return _solve_part(adj, degree, need, value_order, values, best_w, best_vals, gap,
                           canonical)
    floor = min(filter(None, values))
    labels = [floor] * g.n  # the isolated vertices keep theirs
    isolated = degree.count(0)
    weight, nodes = floor * isolated, min(isolated, 1)
    method = "branch_and_bound"
    pos = [0] * g.n  # a vertex's index in its component
    for part in parts:
        if len(part) == 1:
            continue  # an isolated vertex
        for i, v in enumerate(part):
            pos[v] = i
        sub = tuple(tuple(pos[u] for u in adj[v]) for v in part)
        deg = [degree[v] for v in part]
        w, vals = _incumbent(greedy, part, values)
        part_gap = 0 if gap <= 0 else _root_gap(deg, value_order, need, w)
        w, vals, work, route = _solve_part(sub, deg, need, value_order, values, w, vals, part_gap,
                                           canonical)
        weight += w
        nodes += work
        for v, x in zip(part, vals):
            labels[v] = x
        if route == "frontier_dp":
            method = route
    return weight, labels, nodes, method


def _solve_part(
    adj: Adjacency,
    degree: list[int],
    need: int,
    value_order: tuple[int, ...],
    values: tuple[int, ...],
    best_w: int,
    best_vals: list[int],
    gap: int,
    canonical: bool,
) -> tuple[int, list[int], int, str]:
    """`_solve_labeling` on a connected graph, from the incumbent best_w,
    best_vals, which is optimal when the root's `gap` (see `_root_gap`) is 0
    or less.

    The route is chosen once, at the root. A graph with ROOT_DP_MIN_N
    vertices or more whose root leaves a gap of ROOT_DP_MIN_GAP or more goes
    to `frontier.frontier_dp` when the DP takes its width (`_dp_order`), and
    no search runs: the DP returns the lexicographically least optimum, so a
    canonical solve needs no second pass. Any other graph is searched to the
    end. The main pass searches in `_degree_order`, values tried in
    `value_order`, and lowers its bound on each labeling it gets; then
    canonical=True runs a lex-first pass (index order, ascending values) at
    the optimum plus one and takes its first labeling.
    """
    if gap >= ROOT_DP_MIN_GAP and len(adj) >= ROOT_DP_MIN_N:
        dp_order = _dp_order(adj, need)
        if dp_order is not None:
            return _by_frontier_dp(adj, dp_order, values, need, 1)  # the root, priced
    nodes = 1  # a closed root
    if gap > 0:
        bound = [best_w, 0]
        # best_vals stays the incumbent unless the search finds a lighter one
        for best_vals in _labelings(adj, _degree_order(degree), value_order, need, bound):
            best_w = bound[0] = sum(best_vals)
        nodes = bound[1]
    if canonical:
        bound = [best_w + 1, 0]
        best_vals = next(_labelings(adj, list(range(len(adj))), values, need, bound), None)
        nodes += bound[1]
        if best_vals is None:
            raise DrdError("canonical pass failed to rediscover the optimum")
    return best_w, best_vals, nodes, "branch_and_bound"


def _by_frontier_dp(
    adj: Adjacency, order: list[int], values: tuple[int, ...], need: int, nodes: int
) -> tuple[int, list[int], int, str]:
    from .frontier import frontier_dp

    best_w, best_vals, entries = frontier_dp(adj, order, values, need)
    return best_w, best_vals, nodes + entries, "frontier_dp"


def solve_domination(g: Graph, canonical: bool = False, max_n: int | None = None) -> SolveResult:
    """Minimum dominating set size with a witness set.

    Solved as a minimum {0,2} labeling with need 1, whose members are the
    2-vertices. With canonical=True the witness is the one whose
    characteristic vector is lexicographically least among all minimum
    dominating sets.
    """
    best_w, best_vals, nodes, method = _solve_labeling(
        g, 1, (2, 0), canonical, _solver_cap(max_n), "solve_domination"
    )
    best = frozenset(v for v in range(g.n) if best_vals[v])
    if 2 * len(best) != best_w or not is_dominating(g, best):
        raise DrdError("solver produced a non-dominating witness")
    return SolveResult(best_w // 2, best, nodes, method)


def solve_roman(g: Graph, canonical: bool = False, max_n: int | None = None) -> SolveResult:
    """Minimum Roman dominating function weight with a witness labeling."""
    best_w, best_vals, nodes, method = _solve_labeling(
        g, 1, (2, 0, 1), canonical, _solver_cap(max_n), "solve_roman"
    )
    witness = RomanLabeling(tuple(best_vals))
    if witness.weight != best_w or not is_valid_rdf(g, witness):
        raise DrdError("solver produced an invalid Roman witness")
    return SolveResult(best_w, witness, nodes, method)


def solve_double_roman(g: Graph, canonical: bool = False, max_n: int | None = None) -> SolveResult:
    """Minimum double Roman dominating function weight with a witness.

    Branches in descending-degree order trying values 3, 2, 0; the witness
    therefore never uses the value 1. Components on ROOT_DP_MIN_N or more
    vertices of frontier width 4 or less whose root leaves a gap, and graphs
    of that width over the size cap, are solved by the frontier DP over
    {0,2,3}. With canonical=True the
    witness is the lexicographically least optimal labeling over {0,2,3}.
    """
    best_w, best_vals, nodes, method = _solve_labeling(
        g, 2, (3, 2, 0), canonical, _solver_cap(max_n), "solve_double_roman"
    )
    witness = DRLabeling(tuple(best_vals))
    if witness.weight != best_w or not is_valid_drdf(g, witness):
        raise DrdError("solver produced an invalid double Roman witness")
    return SolveResult(best_w, witness, nodes, method)


# ---------------------------------------------------------------------------
# Exhaustive oracles

def brute_force(g: Graph, invariant: str, space: str = "reduced") -> SolveResult:
    """Plain enumeration of the whole candidate space, written independently
    of the branch-and-bound code path.

    For double_roman, space="reduced" enumerates {0,2,3}^n and space="full"
    all of {0,1,2,3}^n; the other invariants have a single natural space.
    The witness is the lexicographically least optimum in the enumerated
    space (characteristic vectors for domination).
    """
    if invariant not in INVARIANTS:
        raise InvalidArgumentsError(f"unknown invariant {invariant!r}")
    if space not in ("reduced", "full"):
        raise InvalidArgumentsError(f"unknown space {space!r}")
    cap = BRUTE_MAX_N_FULL if space == "full" else BRUTE_MAX_N_REDUCED
    _check_cap(g.n, cap, f"brute_force({invariant}, {space})")
    n = g.n
    adj = g.adj
    best_w: int | None = None
    best_t: tuple[int, ...] | None = None
    count = 0

    if invariant == "domination":
        for t in itertools.product((0, 1), repeat=n):
            count += 1
            w = sum(t)
            if best_w is not None and w >= best_w:
                continue
            if all(t[v] or any(t[u] for u in adj[v]) for v in range(n)):
                best_w, best_t = w, t
        assert best_w is not None and best_t is not None  # all-ones dominates
        members = frozenset(v for v in range(n) if best_t[v])
        return SolveResult(best_w, members, count, "brute_force")

    if invariant == "roman":
        values: tuple[int, ...] = (0, 1, 2)
    elif space == "full":
        values = (0, 1, 2, 3)
    else:
        values = (0, 2, 3)

    for t in itertools.product(values, repeat=n):
        count += 1
        w = sum(t)
        if best_w is not None and w >= best_w:
            continue
        if invariant == "roman":
            good = all(t[v] != 0 or any(t[u] == 2 for u in adj[v]) for v in range(n))
        else:
            good = True
            for v in range(n):
                x = t[v]
                if x == 0:
                    if not (
                        any(t[u] == 3 for u in adj[v])
                        or sum(1 for u in adj[v] if t[u] == 2) >= 2
                    ):
                        good = False
                        break
                elif x == 1:
                    if not any(t[u] >= 2 for u in adj[v]):
                        good = False
                        break
        if good:
            best_w, best_t = w, t
    assert best_w is not None and best_t is not None  # the all-max labeling is valid
    if invariant == "roman":
        return SolveResult(best_w, RomanLabeling(best_t), count, "brute_force")
    return SolveResult(best_w, DRLabeling(best_t), count, "brute_force")


def enumerate_min_drdfs(g: Graph, opt: int | None = None) -> Iterator[DRLabeling]:
    """Yield every minimum-weight DRDF over {0,2,3}^V in lexicographic order.

    By the one-elimination argument that space reaches the minimum weight of
    the full space. The minima come from the labeling engine run in index
    order with ascending values and pruned against the optimum, so they
    arrive in lexicographic order; each is checked again before it is
    returned. opt, when given, is gamma_dR(g) from an earlier solve, so the
    graph is not solved again.
    """
    _check_cap(g.n, MINIMA_MAX_N, "enumerate_min_drdfs")
    if opt is None:
        opt = solve_double_roman(g, max_n=g.n).value
    found = _labelings(g.adj, list(range(g.n)), (0, 2, 3), 2, [opt + 1, 0])
    minima = [DRLabeling(tuple(vals)) for vals in found]
    if not minima or any(f.weight != opt or not is_valid_drdf(g, f) for f in minima):
        raise DrdError(f"minimum enumeration found no valid minima of weight {opt}")
    return iter(minima)
