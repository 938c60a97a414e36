"""Acceptance suite: ten end-to-end criteria, exact integer equality.

Each criterion records one pass/fail line, printed in the terminal
summary (see conftest). A criterion fails if any single instance
disagrees; the assertion message carries the first few mismatches.
"""

from __future__ import annotations

import random

from drd.bounds import (
    build_corona_realization,
    build_roman_pair_graph,
    check_cartesian,
    check_min_drdf_partition,
    check_twin,
    scan_pair_realizability,
)
from drd.formulas import (
    gamma_dr_corona_k1,
    gamma_dr_corona_nontrivial,
    gamma_dr_cycle,
    gamma_dr_double_corona,
    gamma_dr_grid2,
)
from drd.graph import (
    complete,
    corona,
    cycle,
    enumerate_labeled_graphs,
    grid2,
    path,
)
from drd.labeling import eliminate_ones, is_valid_drdf
from drd.solvers import (
    brute_force,
    solve_domination,
    solve_double_roman,
    solve_roman,
)
from conftest import SEED, random_connected_graph, random_graph, random_valid_drdf

RESULTS: list[tuple[int, str, list[str]]] = []


def _finish(num: int, desc: str, failures: list[str]):
    RESULTS.append((num, desc, failures))
    assert not failures, f"criterion {num}: {len(failures)} failures, first: {failures[:3]}"


def test_criterion_01_cycle_formula():
    failures = []
    for n in range(3, 15):
        want = n if n % 6 in (0, 2, 3, 4) else n + 1
        got = solve_double_roman(cycle(n)).value
        if got != want or gamma_dr_cycle(n).value != want:
            failures.append(f"C{n}: solver {got}, formula {gamma_dr_cycle(n).value}, want {want}")
    _finish(1, "cycle closed form equals solver for n = 3..14", failures)


def test_criterion_02_grid_formula():
    failures = []
    for n in (1, 3, 4, 5, 6, 7, 8):
        fr = gamma_dr_grid2(n)
        got = solve_double_roman(grid2(n)).value
        want = (3 * n + 4) // 2
        if not (fr.value == got == want):
            failures.append(f"G(2,{n}): solver {got}, formula {fr.value}, want {want}")
        if fr.witness is None or fr.witness.weight != want \
                or not is_valid_drdf(grid2(n), fr.witness).valid:
            failures.append(f"G(2,{n}): witness invalid or wrong weight")
    if solve_double_roman(grid2(2)).value != gamma_dr_cycle(4).value:
        failures.append("G(2,2) should match the 4-cycle value")
    _finish(2, "2xn grid closed form and witnesses, n in {1..8}", failures)


def _corona_formula_cases():
    for n in range(1, 8):
        yield "path", (n,)
    for n in range(3, 8):
        yield "cycle", (n,)
    for n in range(1, 8):
        yield "complete", (n,)
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            yield "complete_bipartite", (p, q)


def test_criterion_03_corona_formulas():
    failures = []
    for family, params in _corona_formula_cases():
        fr = gamma_dr_corona_k1(family, params)
        got = solve_double_roman(fr.graph).value
        if got != fr.value:
            failures.append(f"{family}{params}: solver {got}, formula {fr.value}")
        if fr.witness is None or fr.witness.weight != fr.value \
                or not is_valid_drdf(fr.graph, fr.witness).valid:
            failures.append(f"{family}{params}: bad witness")

    rng = random.Random(SEED)
    pairs = 0
    while pairs < 10:
        g = random_connected_graph(rng.randrange(2, 5), rng)
        h = random_graph(rng.randrange(2, 4), rng)
        if g.n * (1 + h.n) > 15:
            continue
        pairs += 1
        fr = gamma_dr_corona_nontrivial(g, h)
        got = solve_double_roman(corona(g, h)).value
        if not (fr.value == got == 3 * g.n):
            failures.append(f"corona pair {g.edges()}x{h.edges()}: solver {got}, want {3 * g.n}")

    doubles = [graph for n in range(1, 4) for graph in enumerate_labeled_graphs(n)]
    doubles += [random_graph(4, rng) for _ in range(5)]
    for g in doubles:
        fr = gamma_dr_double_corona(g)
        got = solve_double_roman(fr.graph).value
        if not (fr.value == got == 5 * g.n):
            failures.append(f"double corona n={g.n} {g.edges()}: solver {got}, want {5 * g.n}")
        if fr.witness is None or not is_valid_drdf(fr.graph, fr.witness).valid:
            failures.append(f"double corona n={g.n}: bad witness")
    _finish(3, "corona closed forms (pendant, general, double) with witnesses", failures)


def test_criterion_04_oracle_equivalence(graphs_upto_5):
    failures = []
    for g in graphs_upto_5:
        for invariant, solver in [("domination", solve_domination),
                                  ("roman", solve_roman),
                                  ("double_roman", solve_double_roman)]:
            a = solver(g).value
            b = brute_force(g, invariant, space="full").value
            if a != b:
                failures.append(f"{invariant} n={g.n} {g.edges()}: bb {a}, brute {b}")
    rng = random.Random(SEED + 4)
    for _ in range(100):
        g = random_graph(rng.randrange(6, 9), rng)
        for invariant, solver in [("domination", solve_domination),
                                  ("roman", solve_roman),
                                  ("double_roman", solve_double_roman)]:
            a = solver(g).value
            b = brute_force(g, invariant, space="full").value
            if a != b:
                failures.append(f"{invariant} n={g.n} mask: bb {a}, brute {b}")
    _finish(4, "branch and bound equals full brute force, three invariants", failures)


def test_criterion_05_value_one_is_redundant(graphs_upto_5):
    failures = []
    for g in graphs_upto_5:
        full = brute_force(g, "double_roman", space="full").value
        reduced = brute_force(g, "double_roman").value
        if full != reduced:
            failures.append(f"n={g.n} {g.edges()}: full {full}, reduced {reduced}")
    rng = random.Random(SEED + 5)
    for _ in range(1000):
        g = random_graph(rng.randrange(1, 9), rng)
        f = random_valid_drdf(g, rng)
        out = eliminate_ones(g, f)
        if out.weight > f.weight or 1 in out.values or not is_valid_drdf(g, out).valid:
            failures.append(f"eliminate_ones broke on n={g.n} {f.values}")
    _finish(5, "restricting values to {0,2,3} never changes the optimum", failures)


def test_criterion_06_sandwich_bounds(graphs_upto_5, connected_upto_5):
    failures = []
    for g in graphs_upto_5:
        gdr = solve_double_roman(g).value
        gam = solve_domination(g).value
        if not (2 * gam <= gdr <= 3 * gam):
            failures.append(f"domination sandwich n={g.n} {g.edges()}: {gam} vs {gdr}")
    for g in connected_upto_5:
        if g.n == 1:
            continue
        gdr = solve_double_roman(g).value
        gr = solve_roman(g).value
        if not (gr < gdr < 2 * gr):
            failures.append(f"strict sandwich n={g.n} {g.edges()}: {gr} vs {gdr}")
    for g in connected_upto_5:
        for report in check_min_drdf_partition(g, "all_minima"):
            if not report.holds:
                failures.append(f"partition bound {report.bound_id} n={g.n} {g.edges()}")
    _finish(6, "sandwich and minimum-labeling partition bounds, n <= 5", failures)


def test_criterion_07_cartesian_bounds():
    failures = []
    factors = [path(2), path(3), path(4), cycle(3), cycle(4), complete(3)]
    for g in factors:
        for h in factors:
            if g.n * h.n > 16:
                continue
            for report in check_cartesian(g, h):
                if report.holds is False:
                    failures.append(f"{report.bound_id} on {g.name} x {h.name}")
    _finish(7, "cartesian product bounds over the small factor catalog", failures)


def test_criterion_08_twin_sandwiches(connected_upto_5):
    failures = []
    rng = random.Random(SEED + 8)
    corpus = list(connected_upto_5) + [random_connected_graph(6, rng) for _ in range(50)]
    for g in corpus:
        for u in range(g.n):
            for kind, width in (("true_twin", 1), ("false_twin", 2)):
                report = check_twin(g, u, kind)
                lo, hi = report.rhs
                if not report.holds or hi - lo != width:
                    failures.append(f"{kind} n={g.n} u={u} {g.edges()}")
    _finish(8, "true and false twin sandwiches on all small connected graphs", failures)


def test_criterion_09_realization_builders():
    failures = []
    for n in range(1, 6):
        for m in range(n):
            g, expected = build_corona_realization(n, m)
            got = solve_double_roman(g).value
            if not (expected == got == 3 * n - m):
                failures.append(f"corona realization n={n} m={m}: solver {got}, want {3*n-m}")
    for b in (4, 5, 6, 7, 8):
        for i in range(1, b // 2):
            g, (want_gr, want_gdr) = build_roman_pair_graph(b, i)
            if g.n > 16:
                continue
            got = (solve_roman(g).value, solve_double_roman(g).value)
            if got != (want_gr, want_gdr):
                failures.append(f"pair graph b={b} i={i}: solver {got}, want {(want_gr, want_gdr)}")
    _finish(9, "realization constructions agree with the exact solver", failures)


def test_criterion_10_pair_scans():
    failures = []
    none_45 = scan_pair_realizability(4, 5, n_max=6)
    if none_45.found is not None:
        failures.append("(4,5) unexpectedly realized at n <= 6")
    none_24 = scan_pair_realizability(2, 4, n_max=6)
    if none_24.found is not None:
        failures.append("(2,4) unexpectedly realized at n <= 6")
    hit_23 = scan_pair_realizability(2, 3, n_max=6)
    if hit_23.found is None:
        failures.append("(2,3) should be realizable")
    else:
        g = hit_23.found
        if (solve_roman(g).value, solve_double_roman(g).value) != (2, 3):
            failures.append("(2,3) witness does not verify")
    _finish(10, "pair realizability scans over connected graphs, n <= 6", failures)
