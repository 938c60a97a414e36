"""Exact domination, Roman and double Roman domination by dynamic
programming along a vertex order of small frontier width.

The branch-and-bound main pass in `solvers` hands a graph over to this
module when its search runs long and `frontier_order` finds a width that
`solvers.dp_fits` allows. The module is imported only then, so a process
that solves nothing large does not pay to load it.
"""

from __future__ import annotations

from .solvers import GAIN


def frontier_order(adj: tuple[tuple[int, ...], ...]) -> tuple[int, list[int]]:
    """A vertex order for `frontier_dp` and its frontier width.

    After each step the frontier is the set of placed vertices that still
    have an unplaced neighbor. Each step greedily places the vertex that
    leaves the smallest frontier, ties going to the vertex with more placed
    neighbors, then lower degree, then lower index. The width is the largest
    frontier of any step.
    """
    n = len(adj)
    unplaced_nbrs = [len(a) for a in adj]
    placed = [False] * n
    order: list[int] = []
    size = width = 0

    def cost(v: int) -> tuple[int, int, int]:
        linked = closed = 0
        for u in adj[v]:
            if placed[u]:
                linked += 1
                closed += unplaced_nbrs[u] == 1
        return 1 - closed - (unplaced_nbrs[v] == 0), -linked, len(adj[v])

    for _ in range(n):
        v = min((u for u in range(n) if not placed[u]), key=cost)
        size += cost(v)[0]
        width = max(width, size)
        placed[v] = True
        order.append(v)
        for u in adj[v]:
            unplaced_nbrs[u] -= 1
    return width, order


def frontier_dp(
    adj: tuple[tuple[int, ...], ...], order: list[int], values: tuple[int, ...], need: int
) -> tuple[int, list[int], int]:
    """Exact minimum labeling weight by dynamic programming along `order`
    (vertex partitioning over a path of separators, after Telle and
    Proskurowski), with the witness and the number of table entries made.

    Vertices are placed in `order` and forgotten once their last neighbor
    is placed. The table maps the states of the frontier vertices to the
    least weight of a labeling of the placed vertices, each taking one of
    `values`, that reaches them. A state s < need is a 0 holding credit s;
    `need` is a satisfied vertex that gives nothing (a covered 0, or a 1);
    need + g is a vertex giving credit g (a 2 or, with need = 2, a 3). So
    double Roman (need 2, values {0,2,3}) has 5 states per vertex, and Roman
    (need 1, values {0,1,2}) and domination (need 1, values {0,2}) have 3.
    A vertex is forgotten only when satisfied.
    """
    pos = {v: i for i, v in enumerate(order)}
    last = [max([pos[v]] + [pos[u] for u in adj[v]]) for v in range(len(adj))]
    gives = [max(s - need, 0) for s in range(need + 3)]
    # bump[g][s]: state s after gaining credit g from a newly placed neighbor
    bump = [[min(s + g, need) if s < need else s for s in range(need + 3)] for g in range(3)]

    # each table maps frontier states to (weight, previous state, value of v)
    table: dict[tuple[int, ...], tuple[int, tuple[int, ...], int]] = {(): (0, (), 0)}
    steps = []
    frontier: list[int] = []
    entries = 1
    for i, v in enumerate(order):
        nbrs = set(adj[v])
        nb = [j for j, u in enumerate(frontier) if u in nbrs]
        frontier.append(v)
        keep = [j for j, u in enumerate(frontier) if last[u] > i]
        drop = [j for j, u in enumerate(frontier) if last[u] == i]
        frontier = [frontier[j] for j in keep]
        new: dict[tuple[int, ...], tuple[int, tuple[int, ...], int]] = {}
        for state, (wgt, _, _) in table.items():
            credit = sum(gives[state[j]] for j in nb)
            for x in values:
                g = GAIN[x]
                full = list(state)
                if x == 0:
                    full.append(min(credit, need))
                else:
                    full.append(need + g)
                    if g:
                        up = bump[g]
                        for j in nb:
                            full[j] = up[full[j]]
                if any(full[j] < need for j in drop):
                    continue
                k = tuple([full[j] for j in keep])
                w = wgt + x
                if k not in new or w < new[k][0]:
                    new[k] = (w, state, x)
        table = new
        steps.append(new)
        entries += len(new)
    vals = [0] * len(adj)
    state = ()
    for v, step in zip(reversed(order), reversed(steps)):
        _, state, vals[v] = step[state]
    return table[()][0], vals, entries
