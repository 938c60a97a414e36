"""Branch-and-bound and frontier-DP solvers against the independent brute-force oracle."""

from __future__ import annotations

import functools
import itertools
import random
import tracemalloc

import pytest

import drd.bounds
from drd.errors import InvalidArgumentsError, ResourceLimitError
from drd.formulas import gamma_dr_corona_k1, gamma_dr_cycle, gamma_dr_grid2
from drd.frontier import frontier_dp, frontier_order
from drd.graph import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    corona,
    cycle,
    disjoint_union,
    grid2,
    is_connected,
    parse_graph,
    path,
    star,
    trivial,
)
from drd.labeling import DRLabeling, RomanLabeling, is_dominating, is_valid_drdf, is_valid_rdf
from drd.report import witness_text
from drd.solvers import (
    BRUTE_MAX_N_REDUCED,
    _degree_order,
    _labelings,
    brute_force,
    dp_width,
    enumerate_min_drdfs,
    greedy_dominating_set,
    solve_domination,
    solve_double_roman,
    solve_roman,
)
from conftest import random_graph

SOLVERS = {
    "domination": solve_domination,
    "roman": solve_roman,
    "double_roman": solve_double_roman,
}

# need and value order of each solver's labeling: a dominating set is a
# {0,2} labeling of twice its size
ENGINE = {"domination": (1, (2, 0)), "roman": (1, (2, 0, 1)), "double_roman": (2, (3, 2, 0))}


def _engine_labelings(g, need, value_order, order, best):
    """`_labelings` run directly on g's whole adjacency, in `order` below
    `best`, lowering its bound to each labeling it yields: the labelings,
    lightest last, and its node count."""
    bound = [best, 0]
    found = []
    for vals in _labelings(g.adj, order, value_order, need, bound):
        found.append(vals)
        bound[0] = sum(vals)
    return found, bound[1]


def _by_degree(g):
    return _degree_order([len(a) for a in g.adj])


KNOWN = [
    # graph, gamma, gamma_R, gamma_dR
    (trivial(1), 1, 1, 2),
    (path(2), 1, 2, 3),
    (path(3), 1, 2, 3),
    (path(4), 2, 3, 5),
    (cycle(4), 2, 3, 4),
    (cycle(5), 2, 4, 6),
    (cycle(7), 3, 5, 8),
    (complete(6), 1, 2, 3),
    (star(5), 1, 2, 3),
    (complete_bipartite(3, 3), 2, 4, 6),
    (grid2(3), 2, 4, 6),
    (disjoint_union(path(2), trivial(1)), 2, 3, 5),
]


def test_known_values():
    for g, gam, gr, gdr in KNOWN:
        assert solve_domination(g).value == gam
        assert solve_roman(g).value == gr
        assert solve_double_roman(g).value == gdr


def test_witnesses_are_valid_and_tight():
    for g, gam, gr, gdr in KNOWN:
        r = solve_domination(g)
        assert is_dominating(g, r.witness) and len(r.witness) == gam
        r = solve_roman(g)
        assert is_valid_rdf(g, r.witness).valid and r.witness.weight == gr
        r = solve_double_roman(g)
        assert is_valid_drdf(g, r.witness).valid and r.witness.weight == gdr
        assert r.nodes_explored > 0 and r.method == "branch_and_bound"
    with pytest.raises(AttributeError):  # a result is read-only
        r.value = 0


def test_oracle_agreement_exhaustive_n4(graphs_upto_4):
    for g in graphs_upto_4:
        assert solve_domination(g).value == brute_force(g, "domination").value
        assert solve_roman(g).value == brute_force(g, "roman").value
        assert solve_double_roman(g).value == brute_force(g, "double_roman").value


def test_oracle_agreement_random(rng):
    for _ in range(30):
        g = random_graph(rng.randrange(5, 9), rng)
        for name, solver in SOLVERS.items():
            assert solver(g).value == brute_force(g, name).value, (name, g.edges())


def test_full_space_brute_matches_reduced(rng):
    for _ in range(10):
        g = random_graph(6, rng)
        assert (brute_force(g, "double_roman", space="full").value
                == brute_force(g, "double_roman").value)


def test_canonical_witness_is_deterministic_and_least(graphs_upto_5):
    g = path(4)
    a = solve_double_roman(g, canonical=True)
    b = solve_double_roman(g, canonical=True)
    assert a.witness == b.witness == DRLabeling((0, 3, 0, 2))
    assert a.witness == brute_force(g, "double_roman").witness
    for g2 in [cycle(6), grid2(3), star(4), *graphs_upto_5]:
        assert (solve_double_roman(g2, canonical=True).witness
                == brute_force(g2, "double_roman").witness)
        assert (solve_roman(g2, canonical=True).witness
                == brute_force(g2, "roman").witness)
        assert (solve_domination(g2, canonical=True).witness
                == brute_force(g2, "domination").witness)


def test_size_caps():
    # the cap binds the branch and bound; over it only a graph the frontier DP
    # takes is solved, and a wider one is refused
    with pytest.raises(ResourceLimitError):
        solve_double_roman(complete(31))
    with pytest.raises(ResourceLimitError):
        solve_double_roman(complete(8), max_n=7)
    r = solve_double_roman(path(31))
    assert (r.value, r.method) == (32, "frontier_dp")
    assert solve_double_roman(path(8), max_n=8).value == brute_force(path(8), "double_roman").value
    with pytest.raises(ResourceLimitError):
        brute_force(path(13), "double_roman")
    with pytest.raises(ResourceLimitError):
        brute_force(path(9), "double_roman", space="full")


def test_env_override(monkeypatch):
    monkeypatch.setenv("DRD_MAX_N", "6")
    with pytest.raises(ResourceLimitError):
        solve_double_roman(complete(7))
    assert solve_double_roman(path(7)).method == "frontier_dp"
    assert solve_double_roman(path(7), max_n=7).value == 8
    monkeypatch.setenv("DRD_MAX_N", "12")
    assert solve_double_roman(path(12)).value == 12


def test_brute_force_rejects_unknown_invariant():
    with pytest.raises(InvalidArgumentsError):
        brute_force(path(2), "nosuch")
    with pytest.raises(InvalidArgumentsError):
        brute_force(path(2), "double_roman", space="nosuch")


def test_enumerate_min_drdfs_p4():
    minima = list(enumerate_min_drdfs(path(4)))
    assert all(f.weight == 5 for f in minima)
    assert all(is_valid_drdf(path(4), f).valid for f in minima)
    assert all(1 not in f.values for f in minima)
    assert minima == sorted(minima, key=lambda f: f.values)
    assert DRLabeling((0, 3, 0, 2)) in minima


def test_enumerate_min_drdfs_counts(rng):
    for _ in range(5):
        g = random_graph(5, rng)
        minima = list(enumerate_min_drdfs(g))
        opt = brute_force(g, "double_roman").value
        assert minima and all(f.weight == opt for f in minima)
    with pytest.raises(ResourceLimitError):
        next(enumerate_min_drdfs(path(11)))


def _min_drdfs_by_sweep(g):
    """Reference for enumerate_min_drdfs: every labeling in {0,2,3}^n of the
    brute-force optimum's weight that is valid, in itertools order."""
    opt = brute_force(g, "double_roman").value
    lightest = (t for t in itertools.product((0, 2, 3), repeat=g.n) if sum(t) == opt)
    return [f for f in map(DRLabeling, lightest) if is_valid_drdf(g, f).valid]


def test_enumerate_min_drdfs_matches_sweep(graphs_upto_5):
    nx = pytest.importorskip("networkx")
    corpus = list(graphs_upto_5)  # isolated vertices included
    corpus += [
        Graph.from_edges(a.number_of_nodes(), a.edges())
        for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 7
    ]
    rng = random.Random(8)
    for _ in range(30):
        n, p = rng.randint(8, 10), rng.uniform(0.15, 0.6)
        corpus.append(Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        ))
    for g in corpus:
        assert list(enumerate_min_drdfs(g)) == _min_drdfs_by_sweep(g), g.edges()


def test_path_cycle_sweep_against_brute():
    for n in range(1, 9):
        assert solve_double_roman(path(n)).value == brute_force(path(n), "double_roman").value
    for n in range(3, 9):
        assert solve_double_roman(cycle(n)).value == brute_force(cycle(n), "double_roman").value


# ---------------------------------------------------------------------------
# Frontier DP: a third exact route, checked on its own against the oracle.

def _dp_check(g):
    # the DP is exact along any order, and its witness is the lexicographically
    # least optimum whatever the order: the oracle's witness
    adj = g.adj
    forward = list(range(g.n))
    orders = [frontier_order(adj)[1], forward, forward[::-1]]
    cases = [
        # domination is a {0,2} labeling with need 1 and twice the weight
        (1, (0, 2), brute_force(g, "domination"), lambda vals: frozenset(
            v for v in range(g.n) if vals[v])),
        (1, (0, 1, 2), brute_force(g, "roman"), lambda vals: RomanLabeling(tuple(vals))),
        (2, (0, 2, 3), brute_force(g, "double_roman"), lambda vals: DRLabeling(tuple(vals))),
    ]
    for order in orders:
        for need, values, expect, witness in cases:
            value, vals, entries = frontier_dp(adj, order, values, need)
            assert set(vals) <= set(values) and value == sum(vals) and entries > 0
            # the oracle's witness is optimal, so this pins the value as well
            assert witness(vals) == expect.witness, (need, values, g.edges(), order)


def test_frontier_dp_matches_oracle_on_all_small_labeled_graphs(graphs_upto_5):
    for g in graphs_upto_5:
        _dp_check(g)


def test_frontier_dp_matches_oracle_on_atlas():
    nx = pytest.importorskip("networkx")
    for atlas in nx.graph_atlas_g():
        if 1 <= atlas.number_of_nodes() <= 7:
            _dp_check(Graph.from_edges(atlas.number_of_nodes(), atlas.edges()))


def test_frontier_dp_table_sizes(branch_and_bound_only):
    # the total entries along frontier_order pin the DP's tables: every state
    # it keeps, on the atlas and on sparse graphs past the oracle's reach
    nx = pytest.importorskip("networkx")
    atlas = [
        Graph.from_edges(a.number_of_nodes(), a.edges())
        for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 7
    ]
    rng = random.Random(15)
    sparse = []
    while len(sparse) < 24:
        n, p = rng.randint(13, 22), rng.uniform(0.08, 0.25)
        g = Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )
        if frontier_order(g.adj)[0] <= 4:
            sparse.append(g)
    alphabets = {
        # need, values, and the solver's witness for the DP's values
        "domination": (1, (0, 2), lambda vals: frozenset(v for v, x in enumerate(vals) if x)),
        "roman": (1, (0, 1, 2), lambda vals: RomanLabeling(tuple(vals))),
        "double_roman": (2, (0, 2, 3), lambda vals: DRLabeling(tuple(vals))),
    }
    pins = {
        "domination": (41358, 2261), "roman": (66993, 3335), "double_roman": (132556, 8653),
    }
    # brute force stops at n = 12, so the sparse witnesses are checked
    # against the branch and bound's canonical pass, with the root route off
    for name, (need, values, witness) in alphabets.items():
        totals = []
        for corpus in (atlas, sparse):
            total = 0
            for g in corpus:
                adj = g.adj
                _, vals, entries = frontier_dp(adj, frontier_order(adj)[1], values, need)
                total += entries
                if corpus is sparse:
                    r = SOLVERS[name](g, canonical=True)
                    assert r.method == "branch_and_bound"
                    assert witness(vals) == r.witness, (name, g.edges())
            totals.append(total)
        assert tuple(totals) == pins[name], name


def test_canonical_domination_matches_oracle_on_atlas():
    nx = pytest.importorskip("networkx")
    for atlas in nx.graph_atlas_g():
        if 1 <= atlas.number_of_nodes() <= 7:
            g = Graph.from_edges(atlas.number_of_nodes(), atlas.edges())
            expect = brute_force(g, "domination").witness
            assert solve_domination(g, canonical=True).witness == expect, g.edges()


def test_canonical_roman_and_double_roman_match_oracle_on_atlas():
    nx = pytest.importorskip("networkx")
    for atlas in nx.graph_atlas_g():
        if 1 <= atlas.number_of_nodes() <= 7:
            g = Graph.from_edges(atlas.number_of_nodes(), atlas.edges())
            for name in ("roman", "double_roman"):
                expect = brute_force(g, name).witness
                assert SOLVERS[name](g, canonical=True).witness == expect, (name, g.edges())


def test_dead_vertices_are_priced_at_the_least_nonzero_value(branch_and_bound_only):
    # gamma searches {0,2}: a vertex that must be nonzero costs 2, not need = 1;
    # the cheaper price finds the same value after 465 nodes
    r = solve_domination(corona(cycle(6), trivial(1)))
    assert (r.value, r.nodes_explored) == (6, 126)


def test_frontier_order_width():
    assert frontier_order(path(30).adj)[0] == 1
    assert frontier_order(cycle(30).adj)[0] == 2
    assert frontier_order(grid2(15).adj)[0] == 2
    assert frontier_order(trivial(5).adj) == (0, [0, 1, 2, 3, 4])
    assert frontier_order(complete(6).adj)[0] == 5


def _frontier_order_by_rescan(adj):
    """Reference for frontier_order: the same greedy choice, made by
    recomputing the cost of every unplaced vertex at every step."""
    n = len(adj)
    unplaced_nbrs = [len(a) for a in adj]
    placed = [False] * n
    order = []
    size = width = 0

    def cost(v):
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


def test_frontier_order_matches_rescan():
    nx = pytest.importorskip("networkx")
    corpus = [
        Graph.from_edges(a.number_of_nodes(), a.edges())
        for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 7
    ]
    corpus += [path(40), cycle(40), grid2(20), corona(cycle(10), trivial(1)),
               cartesian_product(path(5), path(5)), cartesian_product(cycle(4), cycle(4)),
               complete(9), star(7), trivial(6)]
    rng = random.Random(11)
    for _ in range(200):
        n, p = rng.randint(8, 40), rng.uniform(0.03, 0.5)
        corpus.append(Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        ))
    for g in corpus:
        adj = g.adj
        assert frontier_order(adj) == _frontier_order_by_rescan(adj), g.edges()


def test_frontier_order_stops_past_its_limit():
    # with a limit, the unlimited result when the width fits, else the first
    # frontier over the limit and the order placed before it
    nx = pytest.importorskip("networkx")
    for a in nx.graph_atlas_g():
        if 1 <= a.number_of_nodes() <= 7:
            adj = Graph.from_edges(a.number_of_nodes(), a.edges()).adj
            width, order = frontier_order(adj)
            for limit in range(len(adj) + 1):
                got, prefix = frontier_order(adj, limit)
                if width <= limit:
                    assert (got, prefix) == (width, order)
                else:
                    assert limit < got <= width and prefix == order[:len(prefix)], a.edges()


def test_solves_do_not_depend_on_neighbour_order():
    # the frontier order, the DP and the engine read each N(v) as a set, so
    # g.adj (frozensets, in hash order), ascending tuples and descending
    # tuples give the same orders, tables, labelings and node counts
    nx = pytest.importorskip("networkx")
    corpus = [
        Graph.from_edges(a.number_of_nodes(), a.edges())
        for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 7
    ]
    rng = random.Random(25)
    for _ in range(60):
        n, p = rng.randint(9, 24), rng.uniform(0.3, 0.6)
        corpus.append(Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        ))

    def solve(adj, incumbent, by_degree):
        width, order = frontier_order(adj)
        out = [width, order]
        for need, values in ((1, (0, 2)), (1, (0, 1, 2)), (2, (0, 2, 3))):
            if width <= dp_width(need):
                out.append(frontier_dp(adj, order, values, need))
        # the solver's two passes: degree order below the greedy incumbent,
        # lowering the bound to each labeling, then index order at the
        # optimum plus one up to its first labeling
        for need, value_order in ENGINE.values():
            bound = [value_order[0] * incumbent, 0]
            for vals in _labelings(adj, by_degree, value_order, need, bound):
                out.append(vals)
                bound[0] = sum(vals)
            out.append(bound[1])
            bound[0] += 1
            out.append(next(_labelings(adj, list(range(len(adj))), tuple(sorted(value_order)),
                                       need, bound)))
            out.append(bound[1])
        return out

    unsorted = 0
    for g in corpus:
        incumbent, by_degree = len(greedy_dominating_set(g)), _by_degree(g)
        expect = solve(g.adj, incumbent, by_degree)
        ascending = tuple(tuple(sorted(a)) for a in g.adj)
        if list(ascending) != list(map(list, g.adj)):
            unsorted += 1
            assert solve(ascending, incumbent, by_degree) == expect, g.edges()
        descending = tuple(a[::-1] for a in ascending)
        assert solve(descending, incumbent, by_degree) == expect, g.edges()
    # on most of the G(n, p), g.adj is not the ascending form
    assert unsorted > 40, unsorted


def test_closed_forms_up_to_the_size_cap():
    for n in range(1, 31):
        assert solve_double_roman(path(n)).value == n + (n % 3 != 0), n
        assert solve_roman(path(n)).value == -(-2 * n // 3), n
    for n in range(3, 31):
        assert solve_double_roman(cycle(n)).value == gamma_dr_cycle(n).value, n
    for n in [1] + list(range(3, 16)):
        assert solve_double_roman(grid2(n)).value == gamma_dr_grid2(n).value, n


def test_closed_forms_past_the_size_cap():
    # over the cap the branch and bound is never entered: these graphs have
    # frontier width <= 2 and go straight to the DP, canonical witness included
    for n in (31, 47, 90):
        r = solve_double_roman(path(n), canonical=True)
        assert (r.value, r.method) == (n + (n % 3 != 0), "frontier_dp"), n
        assert solve_roman(path(n)).value == -(-2 * n // 3), n
        assert solve_double_roman(cycle(n)).value == gamma_dr_cycle(n).value, n
        assert solve_double_roman(grid2(n)).value == gamma_dr_grid2(n).value, n
        for family in ("path", "cycle"):
            fr = gamma_dr_corona_k1(family, (n,))
            assert solve_double_roman(fr.graph).value == fr.value, (family, n)


def test_route_choice(request, monkeypatch):
    canonical = {
        ("P19", "domination"): "1,4,7,10,13,16,18",
        ("C20", "domination"): "2,5,8,11,14,17,19",
        ("G2,9", "domination"): "2,6,9,13,17",
        ("P19", "roman"): "0,2,0,0,2,0,0,2,0,0,2,0,0,2,0,0,2,0,1",
        ("P19", "double_roman"): "0,3,0,0,3,0,0,3,0,0,3,0,0,3,0,0,3,0,2",
        ("C20", "roman"): "0,0,2,0,0,2,0,0,2,0,0,2,0,0,2,0,0,2,0,2",
        ("C20", "double_roman"): "0,2,0,2,0,2,0,2,0,2,0,2,0,2,0,2,0,2,0,2",
        ("G2,9", "roman"): "0,0,2,0,0,0,2,0,0,2,0,0,0,2,0,0,0,2",
        ("G2,9", "double_roman"): "0,0,3,0,0,0,3,0,0,3,0,0,0,3,0,0,0,3",
    }
    p19, c20, g29, cp9, cc9 = (path(19), cycle(20), grid2(9), corona(path(9), trivial(1)),
                               corona(cycle(9), trivial(1)))
    # gamma_R tables hold 3^w states and gamma_dR tables 5^w, so the DP takes
    # width 5 (P5 x P5) for gamma and gamma_R but not for gamma_dR
    square = cartesian_product(path(5), path(5))
    assert frontier_order(square.adj)[0] == 5
    assert (dp_width(1), dp_width(2)) == (5, 4)
    # graphs on 14 or more vertices whose greedy incumbent is 2 or more above
    # the root bound go to the DP from the root when it takes their width:
    # its entries plus the root are their nodes, and its optimum is already
    # the canonical one, so a canonical solve costs no more
    dp_nodes = {
        (p19, "double_roman"): 90,
        (g29, "domination"): 119, (g29, "roman"): 134, (g29, "double_roman"): 315,
        (cp9, "domination"): 45, (cp9, "roman"): 54, (cp9, "double_roman"): 78,
        (cc9, "domination"): 81, (cc9, "roman"): 132, (cc9, "double_roman"): 254,
        (square, "domination"): 1_564, (square, "roman"): 1_925,
    }
    for (g, name), count in dp_nodes.items():
        plain, r = SOLVERS[name](g), SOLVERS[name](g, canonical=True)
        assert plain.method == r.method == "frontier_dp"
        assert (plain.nodes_explored, r.nodes_explored) == (count, count), (g.name, name)
        assert plain.witness == r.witness
        if (g.name, name) in canonical:
            assert witness_text(r.witness) == canonical[g.name, name]
    assert solve_roman(square).value == 14
    r = solve_double_roman(square)
    assert (r.value, r.method, r.nodes_explored) == (19, "branch_and_bound", 111_067)
    # the rest of P19 and C20, and paths and cycles on 200 vertices, leave a
    # gap of 1 at most and are searched to the end; the node counts without
    # and with the canonical pass pin the pruning, so a regression fails here
    # instead of running on
    graphs = {"P19": p19, "C20": c20, "P200": path(200), "C200": cycle(200)}
    nodes = {
        ("P19", "domination"): (77, 97),
        ("P19", "roman"): (42, 62),
        ("C20", "domination"): (1, 22),
        ("C20", "roman"): (1, 22),
        ("C20", "double_roman"): (83, 141),
        ("P200", "domination"): (1, 202),
        ("P200", "roman"): (1, 202),
        ("P200", "double_roman"): (2_353, 2_554),
        ("C200", "domination"): (1, 202),
        ("C200", "roman"): (1, 202),
        ("C200", "double_roman"): (953, 1_611),
    }
    for (name_g, name), counts in nodes.items():
        g = graphs[name_g]
        plain, r = SOLVERS[name](g, max_n=1000), SOLVERS[name](g, canonical=True, max_n=1000)
        assert plain.method == r.method == "branch_and_bound"
        assert (plain.nodes_explored, r.nodes_explored) == counts, (name_g, name)
        assert plain.value == r.value
        if (name_g, name) in canonical:
            assert witness_text(r.witness) == canonical[name_g, name]
    # a wider graph (the 4x4 torus) is searched to the end
    torus = cartesian_product(cycle(4), cycle(4))
    assert frontier_order(torus.adj)[0] == 7
    # its node counts, canonical pass included, pin the search's pruning
    nodes = {solve_roman: (693, 801), solve_double_roman: (751, 1446)}
    for solver, counts in nodes.items():
        r = solver(torus)
        assert r.method == "branch_and_bound"
        assert (r.nodes_explored, solver(torus, canonical=True).nodes_explored) == counts
    # the pair scan's class representatives are too small for the DP
    reps = []
    monkeypatch.setattr(drd.bounds, "solve_roman", lambda g: reps.append(g) or solve_roman(g))
    assert drd.bounds.scan_pair_realizability(2, 4, n_max=6).found is None
    assert len(reps) == 143
    for g in reps:
        for solver in (solve_roman, solve_double_roman):
            assert solver(g).method == "branch_and_bound"
    # P19's gamma_dR finishes on branch and bound without the root route
    request.getfixturevalue("branch_and_bound_only")
    plain, r = solve_double_roman(p19), solve_double_roman(p19, canonical=True)
    assert plain.method == r.method == "branch_and_bound"
    assert (plain.nodes_explored, r.nodes_explored) == (244, 264)
    assert witness_text(r.witness) == canonical["P19", "double_roman"]


def _three_path(n, rng):
    """A 3-tree grown along a path: each new vertex joins the last triangle,
    which then drops a random member for it."""
    clique = [0, 1, 2]
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        edges += [(u, v) for u in clique]
        clique.remove(rng.choice(clique))
        clique.append(v)
    return Graph.from_edges(n, edges)


def test_dp_from_the_root_matches_branch_and_bound(request):
    # sparse connected graphs on 12-22 vertices, random trees with up to three
    # more edges, then graphs of frontier width 3-5: P3 x Pn, P4 x Pn,
    # P5 x P5, the double corona of C6 and seeded 3-paths. Many of their
    # solves go to the DP from the root, and each value and canonical witness
    # must be the one the search finds without the route
    rng = random.Random(21)
    trees = []
    for _ in range(40):
        n = rng.randint(12, 22)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, 3)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        trees.append(Graph.from_edges(n, sorted(edges)))
    wide = [cartesian_product(path(k), path(n)) for k in (3, 4) for n in range(2, 8)]
    wide.append(cartesian_product(path(5), path(5)))
    double_corona = corona(corona(cycle(6), trivial(1)), trivial(1))
    wide.append(double_corona)
    rng = random.Random(23)
    wide += [_three_path(n, rng) for n in range(18, 25)]
    routed = {}
    for corpus, count in ((trees, 84), (wide, 39)):
        before = len(routed)
        for g in corpus:
            for name, solver in SOLVERS.items():
                r = solver(g, canonical=True)
                if r.method == "frontier_dp":
                    routed[g, name] = r
        assert len(routed) - before == count
    assert routed[double_corona, "double_roman"].nodes_explored == 431
    request.getfixturevalue("branch_and_bound_only")
    for (g, name), r in routed.items():
        slow = SOLVERS[name](g, canonical=True)
        assert slow.method == "branch_and_bound"
        assert (slow.value, slow.witness) == (r.value, r.witness), (name, g.edges())


def test_canonical_pass_on_a_routed_graph(request):
    # a connected graph (21 vertices, 22 edges) of frontier width 3: gamma_R
    # goes to the DP from the root, 182 entries plus the root, canonical solve
    # included
    g = parse_graph("Th_GK?G@?G?@?_C??_??O?O??G?@G???E??C", "graph6")
    assert (g.n, len(g.edges()), is_connected(g)) == (21, 22, True)
    plain, r = solve_roman(g), solve_roman(g, canonical=True)
    assert (plain.nodes_explored, plain.method) == (183, "frontier_dp")
    assert (r.nodes_explored, r.method) == (183, "frontier_dp")
    adj = g.adj
    width, order = frontier_order(adj)
    assert width == 3
    assert frontier_dp(adj, order, (0, 1, 2), 1) == (12, list(r.witness.values), 182)
    # without the route the index-order search takes 5,858 nodes to the same witness
    request.getfixturevalue("branch_and_bound_only")
    slow = solve_roman(g, canonical=True)
    assert (slow.nodes_explored, slow.method) == (6_078, "branch_and_bound")
    assert slow.witness == r.witness


def test_pruning_pins_on_sparse_graphs(branch_and_bound_only):
    # B&B nodes of the main pass and of the canonical pass over a seeded
    # sparse corpus, with the root route off: each pruning test, and the
    # order the search makes them in, shows in these totals. 21 of the 30
    # graphs are disconnected, so the totals count their components' searches
    rng = random.Random(13)
    corpus = []
    for _ in range(30):
        n, p = rng.randint(8, 16), rng.uniform(0.1, 0.3)
        corpus.append(Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        ))
    pins = {"domination": (2220, 622), "roman": (1895, 2182), "double_roman": (8098, 3129)}
    for name, solver in SOLVERS.items():
        main = extra = 0
        for g in corpus:
            plain, r = solver(g), solver(g, canonical=True)
            assert plain.method == r.method == "branch_and_bound"
            main += plain.nodes_explored
            extra += r.nodes_explored - plain.nodes_explored
            if g.n <= 12:
                assert r.witness == brute_force(g, name).witness, (name, g.edges())
        assert (main, extra) == pins[name], name


def test_root_test_comes_before_the_masks():
    # gamma_R of a perfect matching on 20,000 vertices closes at the root, so
    # its solve builds no n-bit mask: its traced peak was 35.6 MB when the
    # masks came first, about 25 MB of it theirs. gamma_dR's whole-graph root
    # bound (ceil(4n/3)) stays below the greedy's 3n/2, so it builds the masks
    # and splits the graph: the root bound closes each edge, one node apiece,
    # within the 42.8 MB that its search to the DP took before the split
    n = 20_000
    g = Graph.from_edges(n, [(v, v + 1) for v in range(0, n, 2)])
    for solver, expect, limit in (
        (solve_roman, (n, "branch_and_bound", 1), 8e6),
        (solve_double_roman, (3 * n // 2, "branch_and_bound", n // 2), 42.8e6),
    ):
        tracemalloc.start()
        try:
            r = solver(g, max_n=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.value, r.method, r.nodes_explored) == expect
        assert peak <= limit, (solver.__name__, peak)


def test_sparse_graphs_match_oracle():
    # sparse graphs leave the most deficit to price: the counting bound prunes
    # most here, so values, canonical witnesses and the minima list are all
    # checked against exhaustive enumeration
    rng = random.Random(14)
    for _ in range(24):
        n, p = rng.randint(8, 9), rng.uniform(0.1, 0.3)
        g = Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )
        for name, solver in SOLVERS.items():
            expect = brute_force(g, name)
            assert solver(g).value == expect.value, (name, g.edges())
            assert solver(g, canonical=True).witness == expect.witness, (name, g.edges())
        assert list(enumerate_min_drdfs(g)) == _min_drdfs_by_sweep(g), g.edges()


def test_hub_graphs_match_oracle():
    # one or two hubs next to most vertices and sparse elsewhere: the largest
    # degree overstates what a vertex can clear once the hubs are placed, so
    # the bound on short neighbors prunes most here
    rng = random.Random(10)
    for _ in range(24):
        n, hubs = rng.randint(5, 10), rng.randint(1, 2)
        edges = [(h, v) for h in range(hubs) for v in range(h + 1, n) if rng.random() < 0.8]
        edges += [e for e in itertools.combinations(range(hubs, n), 2) if rng.random() < 0.15]
        g = Graph.from_edges(n, edges)
        for name, solver in SOLVERS.items():
            expect = brute_force(g, name)
            assert solver(g).value == expect.value, (name, g.edges())
            assert solver(g, canonical=True).witness == expect.witness, (name, g.edges())
        assert list(enumerate_min_drdfs(g)) == _min_drdfs_by_sweep(g), g.edges()


def test_dominated_values_are_not_tried():
    # an isolated vertex has no neighbor to credit, so a 3 on it is never
    # tried: a 2 there is just as valid and weighs less. The solvers label
    # isolated vertices with no search, so the engine runs on the whole
    # adjacency here, below the greedy incumbent (3 on a K7 vertex and on
    # every isolated one)
    g = disjoint_union(complete(7), trivial(1000))
    found, nodes = _engine_labelings(g, *ENGINE["double_roman"], _by_degree(g), 3 * 1001)
    assert sum(found[-1]) == 2003 and nodes < 10_000
    r = solve_double_roman(g, max_n=5000)
    assert (r.value, r.method) == (2003, "branch_and_bound")
    assert r.nodes_explored < 10_000


def _greedy_by_rescan(g):
    """Reference for greedy_dominating_set: the gain of every vertex
    recomputed at every step, ties to the lowest index."""
    uncovered = set(range(g.n))
    chosen = []
    while uncovered:
        best_v, best_gain = -1, 0
        for v in range(g.n):
            gain = (v in uncovered) + sum(1 for u in g.adj[v] if u in uncovered)
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen.append(best_v)
        uncovered.discard(best_v)
        uncovered -= g.adj[best_v]
    return frozenset(chosen)


def test_greedy_matches_rescan():
    nx = pytest.importorskip("networkx")
    corpus = [
        Graph.from_edges(a.number_of_nodes(), a.edges())
        for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 7
    ]
    rng = random.Random(12)
    for _ in range(200):
        n, p = rng.randint(8, 40), rng.uniform(0.03, 0.5)
        corpus.append(Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        ))
    for g in corpus:
        assert greedy_dominating_set(g) == _greedy_by_rescan(g), g.edges()


def test_root_bound_closes_cycles():
    # gamma_dR(C_3k) = n = 3n / (Delta + 1): the root bound meets the greedy
    # incumbent, so the search stops at its first node
    for k in range(5, 11):
        r = solve_double_roman(cycle(3 * k))
        assert (r.value, r.method, r.nodes_explored) == (3 * k, "branch_and_bound", 1), k


def test_search_deeper_than_the_recursion_limit():
    # the engine on the whole adjacency (the solvers split it) runs through
    # all 1,007 vertices, past Python's default recursion limit of 1,000,
    # before it yields a labeling: it yields complete ones only
    g = disjoint_union(complete(7), trivial(1000))
    for name, weight in (("roman", 1002), ("domination", 2002)):
        need, value_order = ENGINE[name]
        found, _ = _engine_labelings(g, need, value_order, _by_degree(g), weight + 1)
        assert len(found[0]) == g.n and sum(found[-1]) == weight, name
    for solver, value in ((solve_roman, 1002), (solve_domination, 1001)):
        r = solver(g, max_n=5000)
        assert (r.value, r.method) == (value, "branch_and_bound")


def test_split_matches_the_whole_graph_search():
    # seeded disjoint unions of sparse G(n, p) past the oracle's reach: the
    # split's value is the one the degree-order search on the whole adjacency
    # reaches from opt + 1, and its canonical witness is the first labeling
    # of the index-order pass at opt + 1, the canonical pass before the split
    rng = random.Random(18)
    witness = {
        "domination": lambda vals: frozenset(v for v, x in enumerate(vals) if x),
        "roman": lambda vals: RomanLabeling(tuple(vals)),
        "double_roman": lambda vals: DRLabeling(tuple(vals)),
    }
    sizes = []
    while len(sizes) < 8:
        g = trivial(1)
        while g.n <= BRUTE_MAX_N_REDUCED or g.n > 30:
            parts = []
            for _ in range(rng.randint(2, 3)):
                k, p = rng.randint(4, 10), rng.uniform(0.1, 0.35)
                parts.append(Graph.from_edges(
                    k, [e for e in itertools.combinations(range(k), 2) if rng.random() < p]
                ))
            g = functools.reduce(disjoint_union, parts)
        sizes.append(g.n)
        for name, solver in SOLVERS.items():
            need, value_order = ENGINE[name]
            weight = solver(g).value * (2 if name == "domination" else 1)
            found, _ = _engine_labelings(g, need, value_order, _by_degree(g), weight + 1)
            assert sum(found[-1]) == weight, (name, g.edges())
            first, _ = _engine_labelings(g, need, tuple(sorted(value_order)), list(range(g.n)),
                                         weight + 1)
            r = solver(g, canonical=True)
            assert r.witness == witness[name](first[0]), (name, g.edges())
    assert min(sizes) > BRUTE_MAX_N_REDUCED and max(sizes) >= 25


def test_isolated_vertices_take_the_least_nonzero_value():
    # edgeless graphs, and one edge among isolated vertices: the isolated
    # vertices are labelled with no search, and the work count stays >= 1
    cases = [
        (trivial(k), {
            "domination": (k, frozenset(range(k))),
            "roman": (k, RomanLabeling((1,) * k)),
            "double_roman": (2 * k, DRLabeling((2,) * k)),
        }) for k in (1, 2, 5)
    ]
    cases.append((Graph.from_edges(5, [(2, 3)]), {
        # the edge's least optima: {3}, (0, 2) and (0, 3)
        "domination": (4, frozenset({0, 1, 3, 4})),
        "roman": (5, RomanLabeling((1, 1, 0, 2, 1))),
        "double_roman": (9, DRLabeling((2, 2, 0, 3, 2))),
    }))
    for g, expect in cases:
        for name, solver in SOLVERS.items():
            value, witness = expect[name]
            assert witness == brute_force(g, name).witness, (name, g.n)
            for canonical in (False, True):
                r = solver(g, canonical=canonical)
                assert (r.value, r.method) == (value, "branch_and_bound"), (name, g.n)
                assert r.nodes_explored >= 1, (name, g.n)
            assert r.witness == witness, (name, g.n)
