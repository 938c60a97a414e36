"""Inequality checkers, realization builders, and the pair scanner."""

from __future__ import annotations

import ast
import inspect
import itertools

import pytest

import drd.bounds
from drd.bounds import (
    build_corona_realization,
    build_roman_pair_graph,
    check_cartesian,
    check_fundamental,
    check_min_drdf_partition,
    check_twin,
    evaluate_relation,
    scan_pair_realizability,
)
from drd.errors import InvalidArgumentsError, ResourceLimitError
from drd.graph import (
    MAX_ENUMERATION_N,
    complete,
    cycle,
    disjoint_union,
    edge_positions,
    graph_from_edge_mask,
    grid2,
    is_connected,
    path,
    serialize_graph6,
    star,
    trivial,
)
from drd.graph_classes import CLASSES
from drd.report import load_schema
from drd.solvers import solve_double_roman, solve_roman
from conftest import random_connected_graph


def test_evaluate_relation():
    assert evaluate_relation("le", 3, 5) and not evaluate_relation("le", 6, 5)
    assert evaluate_relation("ge", 5, 5) and evaluate_relation("eq", 5, 5)
    assert evaluate_relation("gt", 6, 5)
    assert evaluate_relation("between", 5, (5, 7))
    assert evaluate_relation("between", 7, (5, 7))
    assert not evaluate_relation("between", 8, (5, 7))
    assert evaluate_relation("strictly_between", 6, (5, 7))
    assert not evaluate_relation("strictly_between", 5, (5, 7))
    with pytest.raises(InvalidArgumentsError):
        evaluate_relation("nosuch", 1, 2)


def test_schema_relations_are_the_evaluated_ones():
    # the relations evaluate_relation branches on, read from its source
    tree = ast.parse(inspect.getsource(evaluate_relation))
    branches = [n.comparators[0].value for n in ast.walk(tree)
                if isinstance(n, ast.Compare) and getattr(n.left, "id", None) == "relation"]
    enum = load_schema()["properties"]["results"]["items"]["properties"]["relation"]["enum"]
    assert sorted(enum) == sorted(branches)
    for relation in enum:
        evaluate_relation(relation, 6, (5, 7) if "between" in relation else 5)


def test_fundamental_rows_hold():
    for g in [path(5), cycle(6), star(4), grid2(3), complete(4)]:
        rows = check_fundamental(g)
        assert {r.bound_id for r in rows} == {"double_vs_domination", "double_vs_roman_strict"}
        assert all(r.holds for r in rows)


def test_fundamental_skips_strict_row_when_out_of_scope():
    for g in [trivial(1), disjoint_union(path(2), trivial(1))]:
        rows = check_fundamental(g)
        by_id = {r.bound_id: r for r in rows}
        assert by_id["double_vs_domination"].holds
        strict = by_id["double_vs_roman_strict"]
        assert strict.holds is None and strict.skipped is not None


def test_partition_bounds_modes():
    for g in [path(5), cycle(6), star(4)]:
        for mode in ("witness_only", "all_minima"):
            rows = check_min_drdf_partition(g, mode)
            assert {r.bound_id for r in rows} == {"v3_at_most_slack", "v2_at_least_coslack"}
            assert all(r.holds for r in rows)
    with pytest.raises(ResourceLimitError):
        check_min_drdf_partition(path(11), "all_minima")
    with pytest.raises(InvalidArgumentsError):
        check_min_drdf_partition(path(3), "nosuch")


def test_cartesian_rows():
    rows = check_cartesian(path(2), path(4))
    ids = [r.bound_id for r in rows]
    assert ids == ["product_lower_half_gh", "product_lower_half_hg", "product_lower_sixth",
                   "product_upper_min", "product_above_domination_product"]
    assert all(r.holds for r in rows)
    derived = rows[-1]
    assert "published" in derived.note


def test_twin_sandwiches():
    r = check_twin(cycle(5), 0, "true_twin")
    base = solve_double_roman(cycle(5)).value
    assert r.lhs >= base and r.rhs == (base, base + 1) and r.holds
    r = check_twin(cycle(5), 0, "false_twin")
    assert r.rhs == (base, base + 2) and r.holds
    with pytest.raises(InvalidArgumentsError):
        check_twin(cycle(5), 9, "true_twin")
    with pytest.raises(InvalidArgumentsError):
        check_twin(cycle(5), 0, "nosuch")


def test_twin_sandwiches_random(rng):
    for _ in range(5):
        g = random_connected_graph(5, rng)
        for u in range(g.n):
            assert check_twin(g, u, "true_twin").holds
            assert check_twin(g, u, "false_twin").holds


def test_corona_realization_builder():
    for n in range(1, 5):
        for m in range(n):
            g, expected = build_corona_realization(n, m)
            assert expected == 3 * n - m
            assert solve_double_roman(g).value == expected
    with pytest.raises(InvalidArgumentsError):
        build_corona_realization(3, 3)
    with pytest.raises(InvalidArgumentsError):
        build_corona_realization(0, 0)


def test_roman_pair_builder():
    g, (a, b) = build_roman_pair_graph(8, 1)
    assert (a, b) == (5, 8) and g.n == 10
    assert solve_roman(g).value == a and solve_double_roman(g).value == b
    g, (a, b) = build_roman_pair_graph(9, 1)
    assert (a, b) == (5, 9)
    assert solve_roman(g).value == a and solve_double_roman(g).value == b
    g, (a, b) = build_roman_pair_graph(8, 3)
    assert (a, b) == (7, 8)
    assert solve_roman(g).value == a and solve_double_roman(g).value == b
    with pytest.raises(InvalidArgumentsError):
        build_roman_pair_graph(3, 1)
    with pytest.raises(InvalidArgumentsError):
        build_roman_pair_graph(8, 0)
    with pytest.raises(InvalidArgumentsError):
        build_roman_pair_graph(8, 4)


def test_pair_scan_finds_p2():
    r = scan_pair_realizability(2, 3, n_max=3)
    assert r.found is not None and r.found.n == 2
    assert serialize_graph6(r.found) == "A_"
    assert r.graphs_scanned == 2


def test_pair_scan_connectivity_filter():
    r = scan_pair_realizability(2, 3, n_max=3, connected_only=False)
    assert r.found is not None and r.found.n == 2
    # the disconnected 2-vertex graph is scanned too before the hit
    assert r.graphs_scanned == 3


def test_pair_scan_absences():
    r = scan_pair_realizability(2, 4, n_max=4)
    assert r.found is None and r.graphs_scanned == 44
    r = scan_pair_realizability(4, 5, n_max=4)
    assert r.found is None


def test_pair_scan_caps():
    with pytest.raises(ResourceLimitError):
        scan_pair_realizability(2, 3, n_max=8)


def _reference_scan_table(n_max: int) -> list[tuple[int, int, bool, int, int]]:
    """(n, mask, connected, gamma_R, gamma_dR) for every labeled graph up
    to n_max vertices, in scan order, both invariants solved on every one."""
    table = []
    for n in range(1, n_max + 1):
        pairs = edge_positions(n)
        for mask in range(1 << len(pairs)):
            g = graph_from_edge_mask(n, mask, pairs)
            table.append(
                (n, mask, is_connected(g), solve_roman(g).value, solve_double_roman(g).value)
            )
    return table


def test_pair_scan_matches_plain_loop():
    table = _reference_scan_table(5)
    for a in range(1, 11):
        for b in range(a, 2 * a + 2):
            for connected_only in (True, False):
                scanned, found = 0, None
                for n, mask, connected, gr, gdr in table:
                    if connected_only and not connected:
                        continue
                    scanned += 1
                    if (gr, gdr) == (a, b):
                        found = graph_from_edge_mask(n, mask)
                        break
                r = scan_pair_realizability(a, b, n_max=5, connected_only=connected_only)
                case = (a, b, connected_only)
                assert r.graphs_scanned == scanned, case
                assert (r.found is None) == (found is None), case
                if found is not None:
                    assert r.found.adj == found.adj, case


def test_pair_scan_solves_each_class_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        drd.bounds, "solve_roman", lambda g: calls.append(g) or solve_roman(g)
    )
    r = scan_pair_realizability(2, 4, n_max=6)
    assert r.found is None and r.graphs_scanned == 27476
    assert len(calls) == 143  # connected graphs on 1..6 vertices up to isomorphism


def test_pair_scan_solves_each_class_once_at_n7(monkeypatch):
    # the README's example scan; it misses, so no class is walked
    calls = []
    monkeypatch.setattr(
        drd.bounds, "solve_roman", lambda g: calls.append(g) or solve_roman(g)
    )
    r = scan_pair_realizability(4, 5, n_max=7)
    assert r.found is None and r.graphs_scanned == 1_893_732
    # 143 connected classes on 1..6 vertices, 853 on 7 (OEIS A001349)
    assert len(calls) == 143 + 853


@pytest.mark.parametrize("a, b, connected_only, scanned, found", [
    (4, 7, True, 943, "EpQ?"),
    (5, 7, True, 29_758, "FBZC?"),
    (5, 8, True, 27_964, "FhQC?"),
    (4, 7, False, 13, "C_"),
    (5, 7, False, 2_020, "E@r?"),
    (5, 8, False, 96, "DK?"),
    (1, 1, False, sum(1 << n * (n - 1) // 2 for n in range(1, 8)), None),
])
def test_pair_scan_pins_at_n7(a, b, connected_only, scanned, found):
    # hits on 6 and 7 vertices count the masks of missed classes below them;
    # the pins were read from the scan that walked every mask
    r = scan_pair_realizability(a, b, n_max=7, connected_only=connected_only)
    assert r.graphs_scanned == scanned
    assert (serialize_graph6(r.found) if r.found else None) == found


def _orbit(n: int, mask: int, pairs: list[tuple[int, int]]) -> set[int]:
    """Images of mask under all n! vertex permutations, built directly."""
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    index = {pair: k for k, pair in enumerate(pairs)}
    return {
        sum(1 << index[tuple(sorted((p[u], p[v])))] for u, v in edges)
        for p in itertools.permutations(range(n))
    }


class _StoreOnce(bytearray):
    """Verdict bytes that fail on a second store to the same mask."""

    def __setitem__(self, key, value):
        assert self[key] == 0, f"mask {key} stored twice"
        super().__setitem__(key, value)


def test_mark_class_walks_each_orbit_once():
    classes = []
    for n in range(1, 6):
        pairs = edge_positions(n)
        split = (len(pairs) + 1) // 2
        tables = drd.bounds._generator_tables(n, pairs, split)
        if n <= 2:  # the cycle is then the swap itself, and n = 1 has no pairs
            assert tables[0] == tables[1]
        verdicts = _StoreOnce(1 << len(pairs))
        mask = 0
        while mask != -1:
            before = bytes(verdicts)
            stored = drd.bounds._mark_class(verdicts, mask, tables, split)
            marked = {m for m in range(len(verdicts)) if verdicts[m] != before[m]}
            assert marked == _orbit(n, mask, pairs), (n, mask)
            assert stored == len(marked), (n, mask)
            classes.append(n)
            mask = verdicts.find(0, mask + 1)
        assert all(verdicts)
    assert [classes.count(n) for n in range(1, 6)] == [1, 2, 4, 11, 34]


def test_pair_scan_class_representatives(monkeypatch):
    nx = pytest.importorskip("networkx")
    built = []

    def build(n, mask, pairs=None):
        g = graph_from_edge_mask(n, mask, pairs)
        built.append(g)
        return g

    monkeypatch.setattr(drd.bounds, "graph_from_edge_mask", build)
    # (1, 1) occurs nowhere, so every class of every graph gets built once
    assert scan_pair_realizability(1, 1, n_max=6, connected_only=False).found is None
    assert [sum(g.n == n for g in built) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]

    def key(h):
        return h.number_of_nodes(), tuple(sorted(d for _, d in h.degree()))

    reps: dict = {}
    for g in built:
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        reps.setdefault(key(h), []).append(h)
    for atlas in nx.graph_atlas_g():
        if not 1 <= atlas.number_of_nodes() <= 6:
            continue
        matches = [h for h in reps.get(key(atlas), []) if nx.is_isomorphic(h, atlas)]
        assert len(matches) == 1


def test_class_table_is_the_walk_output():
    # regenerate every class list with the orbit walk: least masks ascending
    # (the walk starts each class at the first mask it has not reached yet)
    assert len(CLASSES) == MAX_ENUMERATION_N
    connected = []
    for n in range(1, MAX_ENUMERATION_N + 1):
        pairs = edge_positions(n)
        split = (len(pairs) + 1) // 2
        tables = drd.bounds._generator_tables(n, pairs, split)
        seen = bytearray(1 << len(pairs))
        walked = []
        mask = 0
        while mask != -1:
            walked.append(f"{mask}:{drd.bounds._mark_class(seen, mask, tables, split)}")
            mask = seen.find(0, mask + 1)
        assert " ".join(walked) == CLASSES[n - 1], n
        sizes = [int(e.split(":")[1]) for e in walked]
        assert sum(sizes) == 1 << len(pairs), n
        connected.append(sum(is_connected(graph_from_edge_mask(n, int(e.split(":")[0]), pairs))
                             for e in walked))
    assert connected == [1, 1, 2, 6, 21, 112, 853]  # OEIS A001349
