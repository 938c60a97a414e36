"""Branch-and-bound solvers against the independent brute-force oracle."""

from __future__ import annotations

import pytest

from drd.errors import InvalidArgumentsError, ResourceLimitError
from drd.graph import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    enumerate_labeled_graphs,
    grid2,
    path,
    star,
    trivial,
)
from drd.labeling import DRLabeling, is_dominating, is_valid_drdf, is_valid_rdf
from drd.solvers import (
    brute_force,
    enumerate_min_drdfs,
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
    with pytest.raises(ResourceLimitError):
        solve_double_roman(path(31))
    with pytest.raises(ResourceLimitError):
        solve_double_roman(path(8), max_n=7)
    assert solve_double_roman(path(8), max_n=8).value == brute_force(path(8), "double_roman").value
    with pytest.raises(ResourceLimitError):
        brute_force(path(13), "double_roman")
    with pytest.raises(ResourceLimitError):
        brute_force(path(9), "double_roman", space="full")


def test_env_override(monkeypatch):
    monkeypatch.setenv("DRD_MAX_N", "6")
    with pytest.raises(ResourceLimitError):
        solve_double_roman(path(7))
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
    with_ones = list(enumerate_min_drdfs(path(4), full_space=True))
    assert set(minima) <= set(with_ones)
    assert any(1 in f.values for f in with_ones)


def test_enumerate_min_drdfs_counts(rng):
    for _ in range(5):
        g = random_graph(5, rng)
        minima = list(enumerate_min_drdfs(g))
        opt = brute_force(g, "double_roman").value
        assert minima and all(f.weight == opt for f in minima)
    with pytest.raises(ResourceLimitError):
        next(enumerate_min_drdfs(path(11)))


def test_path_cycle_sweep_against_brute():
    for n in range(1, 9):
        assert solve_double_roman(path(n)).value == brute_force(path(n), "double_roman").value
    for n in range(3, 9):
        assert solve_double_roman(cycle(n)).value == brute_force(cycle(n), "double_roman").value
