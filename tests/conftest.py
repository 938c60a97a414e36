"""Shared corpus builders for the test suite.

The heavy corpora (all labeled graphs up to a size, connected subsets)
are built once per session and reused across files.
"""

from __future__ import annotations

import random

import pytest

import drd.solvers
from drd.graph import Graph, enumerate_labeled_graphs, graph_from_edge_mask, is_connected
from drd.labeling import DRLabeling, is_valid_drdf

SEED = 20260814


def random_graph(n: int, rng: random.Random) -> Graph:
    return graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    while True:
        g = random_graph(n, rng)
        if is_connected(g):
            return g


def random_valid_drdf(g: Graph, rng: random.Random) -> DRLabeling:
    """Random labeling repaired upward until valid; keeps satisfied 1s."""
    vals = [rng.randrange(4) for _ in range(g.n)]
    while True:
        verdict = is_valid_drdf(g, DRLabeling(tuple(vals)))
        if verdict.valid:
            return DRLabeling(tuple(vals))
        vals[verdict.violations[0].vertex] = 3


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(SEED)


@pytest.fixture(scope="session")
def graphs_upto_4() -> list[Graph]:
    out: list[Graph] = []
    for n in range(1, 5):
        out.extend(enumerate_labeled_graphs(n))
    return out


@pytest.fixture(scope="session")
def graphs_upto_5(graphs_upto_4) -> list[Graph]:
    return graphs_upto_4 + list(enumerate_labeled_graphs(5))


@pytest.fixture(scope="session")
def connected_upto_5(graphs_upto_5) -> list[Graph]:
    return [g for g in graphs_upto_5 if is_connected(g)]


@pytest.fixture
def branch_and_bound_only(monkeypatch):
    """Turn off the route to the frontier DP from the root, so that every
    solve within the size cap is searched."""
    monkeypatch.setattr(drd.solvers, "ROOT_DP_MIN_N", 10**9)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, when that suite ran."""
    try:
        import test_acceptance
    except ImportError:
        return
    results = sorted(test_acceptance.RESULTS)
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, desc, failures in results:
        status = "PASS" if not failures else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {desc}")
