"""Closed-form values and their certified witnesses against the solver."""

from __future__ import annotations

import pytest

from drd.errors import ExcludedCaseError, InvalidSpecError, WrongFormulaError
from drd.formulas import (
    gamma_dr_corona_k1,
    gamma_dr_corona_nontrivial,
    gamma_dr_cycle,
    gamma_dr_double_corona,
    gamma_dr_grid2,
)
from drd.graph import complete, corona, cycle, grid2, path, star, trivial
from drd.labeling import is_valid_drdf
from drd.report import witness_text
from drd.solvers import solve_double_roman
from conftest import random_connected_graph, random_graph


def _check(fr, g=None):
    graph = g if g is not None else fr.graph
    assert graph is not None
    assert solve_double_roman(graph).value == fr.value
    if fr.witness is not None:
        assert fr.witness.weight == fr.value
        assert is_valid_drdf(graph, fr.witness).valid


def test_cycle_formula():
    expected = {3: 3, 4: 4, 5: 6, 6: 6, 7: 8, 8: 8, 9: 9, 10: 10, 11: 12, 12: 12}
    for n, want in expected.items():
        fr = gamma_dr_cycle(n)
        assert fr.value == want
        _check(fr, cycle(n))
    with pytest.raises(InvalidSpecError):
        gamma_dr_cycle(2)


def test_grid_formula():
    for n in (1, 3, 4, 5, 6):
        fr = gamma_dr_grid2(n)
        assert fr.value == (3 * n + 4) // 2
        assert fr.graph is not None and fr.graph.adj == grid2(n).adj
        _check(fr)
    with pytest.raises(ExcludedCaseError, match="4"):
        gamma_dr_grid2(2)
    with pytest.raises(InvalidSpecError):
        gamma_dr_grid2(0)


def test_grid_excluded_case_agrees_with_cycle():
    # the 2x2 grid is a 4-cycle, so the cycle formula covers it
    assert solve_double_roman(grid2(2)).value == gamma_dr_cycle(4).value == 4


def test_pendant_corona_families():
    for family, params in [("path", (1,)), ("path", (4,)), ("path", (5,)),
                           ("cycle", (3,)), ("cycle", (6,)), ("cycle", (7,)),
                           ("complete", (1,)), ("complete", (4,)), ("complete", (6,)),
                           ("complete_bipartite", (1, 1)), ("complete_bipartite", (1, 3)),
                           ("complete_bipartite", (2, 2)), ("complete_bipartite", (3, 3))]:
        fr = gamma_dr_corona_k1(family, params)
        _check(fr)


def test_pendant_corona_values():
    assert gamma_dr_corona_k1("path", (3,)).value == 7
    assert gamma_dr_corona_k1("path", (4,)).value == 10
    assert gamma_dr_corona_k1("path", (5,)).value == 12
    assert gamma_dr_corona_k1("complete", (5,)).value == 11
    assert gamma_dr_corona_k1("complete_bipartite", (1, 4)).value == 11
    assert gamma_dr_corona_k1("complete_bipartite", (2, 3)).value == 12
    # the witnesses themselves, one per family and per K_{p,q} branch
    for family, params, want in [
        ("path", (5,), "0,3,0,3,0,2,0,2,0,2"),
        ("cycle", (7,), "0,3,0,0,3,0,3,2,0,2,2,0,2,0"),
        ("complete", (4,), "3,0,0,0,0,2,2,2"),
        ("complete_bipartite", (1, 3), "3,0,0,0,0,2,2,2"),
        ("complete_bipartite", (3, 1), "0,0,0,3,2,2,2,0"),
        ("complete_bipartite", (2, 3), "3,0,3,0,0,0,2,0,2,2"),
    ]:
        assert witness_text(gamma_dr_corona_k1(family, params).witness) == want, (family, params)
    assert witness_text(gamma_dr_double_corona(path(3)).witness) == "3,3,3,0,0,0,0,0,0,2,2,2"
    with pytest.raises(InvalidSpecError):
        gamma_dr_corona_k1("nosuch", (3,))
    with pytest.raises(InvalidSpecError):
        gamma_dr_corona_k1("cycle", (2,))


def test_nontrivial_corona():
    for g, h in [(path(3), path(2)), (cycle(4), trivial(2)), (complete(3), complete(3)),
                 (star(3), path(3)), (trivial(1), path(2))]:
        fr = gamma_dr_corona_nontrivial(g, h)
        assert fr.value == 3 * g.n
        _check(fr)
    with pytest.raises(WrongFormulaError):
        gamma_dr_corona_nontrivial(path(3), trivial(1))


def test_nontrivial_corona_random(rng):
    for _ in range(4):
        g = random_connected_graph(rng.randrange(2, 5), rng)
        h = random_graph(rng.randrange(2, 4), rng)
        if g.n * (1 + h.n) > 15:
            continue
        _check(gamma_dr_corona_nontrivial(g, h))


def test_double_corona():
    for g in [trivial(1), path(2), path(3), cycle(3), trivial(3)]:
        fr = gamma_dr_double_corona(g)
        assert fr.value == 5 * g.n
        _check(fr)


def test_witness_graphs_match_construction():
    fr = gamma_dr_corona_k1("cycle", (5,))
    assert fr.graph is not None
    assert fr.graph.adj == corona(cycle(5), trivial(1)).adj


def test_pendant_corona_value_range():
    # any pendant corona sits between 2n+1 and 3n for an n-vertex base
    cases = ([("path", (n,)) for n in range(1, 8)]
             + [("cycle", (n,)) for n in range(3, 8)]
             + [("complete", (n,)) for n in range(1, 8)]
             + [("complete_bipartite", (p, q)) for p in (1, 2, 3) for q in (1, 2, 3)])
    for family, params in cases:
        n = sum(params) if family == "complete_bipartite" else params[0]
        value = gamma_dr_corona_k1(family, params).value
        assert 2 * n + 1 <= value <= 3 * n, (family, params, value)


def test_grid_parity_forms():
    for n in (1, 3, 5, 7, 9):
        assert gamma_dr_grid2(n).value == 3 * (n + 1) // 2
    for n in (4, 6, 8, 10):
        assert gamma_dr_grid2(n).value == 3 * n // 2 + 2
