"""Exact domination, Roman and double Roman domination by dynamic
programming along a vertex order of small frontier width.

Which graphs come here, and at what width, is decided in
`solvers._solve_part` and `solvers.dp_width`. The DP returns the
lexicographically least optimum, so a canonical solve needs no second pass.
The module is imported only when a graph comes here, so a process that
solves nothing large does not pay to load it.
"""

from __future__ import annotations

import heapq

from .solvers import GAIN, Adjacency


def frontier_order(adj: Adjacency, limit: int | None = None) -> tuple[int, list[int]]:
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

    With a `limit`, the walk stops at the first frontier larger than it and
    returns that frontier's size with the order so far, so a probe of a
    wider graph costs a heapify and a few pops.
    """
    n = len(adj)
    if limit is None:
        limit = n  # no frontier is larger
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
        if size > width:
            width = size
            if size > limit:
                break
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
    adj: Adjacency, order: list[int], values: tuple[int, ...], need: int
) -> tuple[int, list[int], int]:
    """Exact minimum labeling weight by dynamic programming along `order`
    (vertex partitioning over a path of separators, after Telle and
    Proskurowski), with the lexicographically least optimum and the number
    of table entries made.

    Vertices are placed in `order` and forgotten once their last neighbor
    is placed. The table maps the states of the frontier vertices to the
    least key of a labeling of the placed vertices, each taking one of
    `values` (0 among them), that reaches them. The key is one int,
    weight << 2n | code, with code = sum of x * 4^(n-1-v) over the placed
    vertices v; code < 4^n, so keys order as the pairs (weight, code).
    Labelings that reach the same state have the same completions at the
    same cost, so the least final key is the least weight and, among its
    labelings, the least in index order, whatever `order` is. A vertex is
    forgotten only when satisfied.

    A state is one int too, with a 4-bit field per frontier vertex at a
    slot it takes when placed and frees when forgotten (a free field reads 0
    in every state). The low `need` bits hold the credit a 0 has, in unary
    (1 and 3 for credit 1 and 2), and are all set on a satisfied vertex;
    bits 2 and 3 hold the credit a vertex gives, in unary (4 for a 2, 12 for
    a 3). So each transition is a few int operations, with masks set up
    once per step: v's credit as a 0 is the number of giving bits among its
    placed neighbors' fields, a value giving g ORs their credit bits up by g
    (and shifts their unary count up one when g < need), and the fields of
    the vertices forgotten at this step must have their top credit bit set
    before they are cleared. Double Roman (need 2, values {0,2,3}) has 5
    states per vertex, and Roman (need 1, values {0,1,2}) and domination
    (need 1, values {0,2}) have 3.
    """
    n = len(adj)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    last = [max([pos[v]] + [pos[u] for u in adj[v]]) for v in range(n)]
    full = (1 << need) - 1  # the credit bits of a satisfied vertex
    top = 1 << need - 1  # the credit bit a vertex must have to be forgotten
    wshift = 2 * n
    cap = (max(values) * n + 1) << wshift  # above every key
    slot = [0] * n  # slot[v]: the bit offset of v's field while v is in the frontier
    free: list[int] = []  # offsets of freed fields
    # credits[f][c]: the field at offset 4f of a 0 with c credit from its neighbors
    counts = range(2 * max(map(len, adj), default=0) + 1)
    credits: list[list[int]] = []
    table = {0: 0}
    entries = 1
    for i, v in enumerate(order):
        if free:
            at = free.pop()
        else:
            at = 4 * len(credits)
            credits.append([(1 << min(c, need)) - 1 << at for c in counts])
        slot[v] = at
        credit = credits[at >> 2]
        ones = 0  # bit 0 of each placed neighbor's field
        out = 0  # bit 0 of each field forgotten at this step
        if last[v] == i:
            out = 1 << at
        for u in adj[v]:
            if pos[u] < i:
                b = 1 << slot[u]
                ones |= b
                if last[u] == i:
                    out |= b
        drop, keep = out * top, ~(out * 15)
        gives = ones * 12  # bits 2 and 3 of the neighbors' fields
        # per nonzero value: its key increment, the bits it sets (v's field and
        # the credit it gives its neighbors) and the neighbors' bits it shifts
        # up one (a 2 under need 2, which moves a unary credit count up by one)
        options = []
        for x in values:
            if x:
                g = GAIN[x]
                sets = (full | ((1 << g) - 1) << 2) << at
                if g:
                    sets |= ones * full if g >= need else ones
                lift = ones if 0 < g < need else 0
                options.append(((x << wshift) + (x << 2 * (n - 1 - v)), sets, lift))
        new: dict[int, int] = {}
        get = new.get
        for state, key in table.items():
            t = state | credit[(state & gives).bit_count()]
            if t & drop == drop:
                t &= keep
                if key < get(t, cap):
                    new[t] = key
            for inc, sets, lift in options:
                t = state | sets
                if lift:
                    t |= (state & lift) << 1
                if t & drop == drop:
                    t &= keep
                    k = key + inc
                    if k < get(t, cap):
                        new[t] = k
        table = new
        entries += len(new)
        while out:
            b = out & -out
            free.append(b.bit_length() - 1)
            out ^= b
    key = table[0]
    code = key & (1 << wshift) - 1
    return key >> wshift, [code >> 2 * (n - 1 - v) & 3 for v in range(n)], entries
