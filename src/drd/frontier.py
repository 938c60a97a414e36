"""Exact domination, Roman and double Roman domination by dynamic
programming along a vertex order of small frontier width.

A branch-and-bound pass in `solvers` hands a graph over to this module
when its search runs long, and a graph over the size cap comes here
directly, when `frontier_order` finds a width that `solvers.dp_fits`
allows. The DP returns the lexicographically least optimum, so a canonical
solve needs no second pass. The module is imported only then, so a process
that solves nothing large does not pay to load it.
"""

from __future__ import annotations

import heapq

from .solvers import GAIN


def frontier_order(adj: tuple[tuple[int, ...], ...]) -> tuple[int, list[int]]:
    """A vertex order for `frontier_dp` and its frontier width.

    After each step the frontier is the set of placed vertices that still
    have an unplaced neighbor. Each step greedily places the vertex that
    leaves the smallest frontier, ties going to the vertex with more placed
    neighbors, then lower degree, then lower index. The width is the largest
    frontier of any step.

    A vertex's cost changes only when a neighbor is placed or a placed
    neighbor is left with it as its last unplaced neighbor, and then only
    falls; so costs are pushed to a heap as they change and stale entries
    are skipped, in O((n + m) log n) time.
    """
    n = len(adj)
    unplaced_nbrs = [len(a) for a in adj]
    linked = [0] * n  # placed neighbors
    closed = [0] * n  # placed neighbors whose last unplaced neighbor this is
    placed = [False] * n
    order: list[int] = []
    size = width = 0

    def cost(v: int) -> tuple[int, int, int]:
        return 1 - closed[v] - (unplaced_nbrs[v] == 0), -linked[v], len(adj[v])

    heap = [(cost(v), v) for v in range(n)]
    heapq.heapify(heap)
    while heap:
        c, v = heapq.heappop(heap)
        if placed[v] or c != cost(v):
            continue
        size += c[0]
        width = max(width, size)
        placed[v] = True
        order.append(v)
        for u in adj[v]:
            unplaced_nbrs[u] -= 1
            if not placed[u]:
                linked[u] += 1
                closed[u] += unplaced_nbrs[v] == 1
                heapq.heappush(heap, (cost(u), u))
            elif unplaced_nbrs[u] == 1:
                last = next(w for w in adj[u] if not placed[w])
                closed[last] += 1
                heapq.heappush(heap, (cost(last), last))
    return width, order


def frontier_dp(
    adj: tuple[tuple[int, ...], ...], order: list[int], values: tuple[int, ...], need: int
) -> tuple[int, list[int], int]:
    """Exact minimum labeling weight by dynamic programming along `order`
    (vertex partitioning over a path of separators, after Telle and
    Proskurowski), with the lexicographically least optimum and the number
    of table entries made.

    Vertices are placed in `order` and forgotten once their last neighbor
    is placed. The table maps the states of the frontier vertices to the
    least key (weight, code) of a labeling of the placed vertices, each
    taking one of `values`, that reaches them; code = sum of x * 4^(n-1-v)
    over the placed vertices v. Labelings that reach the same state have the
    same completions at the same cost, so the least final key is the least
    weight and, among its labelings, the least in index order, whatever
    `order` is. A state s < need is a 0 holding credit s; `need` is a
    satisfied vertex that gives nothing (a covered 0, or a 1); need + g is a
    vertex giving credit g (a 2 or, with need = 2, a 3). So double Roman
    (need 2, values {0,2,3}) has 5 states per vertex, and Roman (need 1,
    values {0,1,2}) and domination (need 1, values {0,2}) have 3. A vertex
    is forgotten only when satisfied.
    """
    n = len(adj)
    pos = {v: i for i, v in enumerate(order)}
    last = [max([pos[v]] + [pos[u] for u in adj[v]]) for v in range(n)]
    gives = [max(s - need, 0) for s in range(need + 3)]
    # bump[g][s]: state s after gaining credit g from a newly placed neighbor
    bump = [[min(s + g, need) if s < need else s for s in range(need + 3)] for g in range(3)]

    table: dict[tuple[int, ...], tuple[int, int]] = {(): (0, 0)}
    frontier: list[int] = []
    entries = 1
    for i, v in enumerate(order):
        nbrs = set(adj[v])
        nb = [j for j, u in enumerate(frontier) if u in nbrs]
        frontier.append(v)
        keep = [j for j, u in enumerate(frontier) if last[u] > i]
        drop = [j for j, u in enumerate(frontier) if last[u] == i]
        frontier = [frontier[j] for j in keep]
        shift = 2 * (n - 1 - v)
        # per value: its weight, its code, v's state under it (None: the
        # credit v holds) and how it moves its placed neighbors' states
        options = [
            (x, x << shift, need + GAIN[x] if x else None, bump[GAIN[x]] if GAIN[x] else None)
            for x in values
        ]
        new: dict[tuple[int, ...], tuple[int, int]] = {}
        get = new.get
        for state, (wgt, code) in table.items():
            credit = 0
            for j in nb:
                credit += gives[state[j]]
            if credit > need:
                credit = need
            for x, xcode, own, up in options:
                full = list(state)
                if own is None:
                    full.append(credit)
                else:
                    full.append(own)
                    if up is not None:
                        for j in nb:
                            full[j] = up[full[j]]
                for j in drop:
                    if full[j] < need:
                        break
                else:
                    k = tuple([full[j] for j in keep])
                    key = (wgt + x, code + xcode)
                    old = get(k)
                    if old is None or key < old:
                        new[k] = key
        table = new
        entries += len(new)
    best_w, code = table[()]
    return best_w, [code >> 2 * (n - 1 - v) & 3 for v in range(n)], entries
