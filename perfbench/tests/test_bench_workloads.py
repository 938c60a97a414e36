import pytest

import workloads
from drd.graph import parse_graph6
from workloads import CROSS_CHECK_MAX_N, WORKLOADS, build, graph6, list_bytes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_list(name):
    for index in (0, 3):
        assert list_bytes(build(name, 7, index)) == list_bytes(build(name, 7, index))


def test_random_graphs_depend_on_the_seed():
    assert list_bytes(build("random-graphs", 1)) != list_bytes(build("random-graphs", 2))


def test_random_graphs_redraw_only_graphs_past_the_cross_check_size():
    def graphs(index):
        return {(c.expect["graph"]["n"], c.argv[2]) for c in build("random-graphs", 5, index)
                if c.argv[0] == "compute"}

    small = lambda gs: {g for g in gs if g[0] <= CROSS_CHECK_MAX_N}
    first, second = graphs(0), graphs(1)
    assert small(first) == small(second)
    assert first - small(first) != second - small(second)


def test_pass_lists_keep_their_size():
    for name in WORKLOADS:
        assert len({len(build(name, 3, i)) for i in range(3)}) == 1


def test_graph6_round_trips_through_the_program_parser():
    import random

    rng = random.Random(0)
    for n in (1, 2, 7, 13, 18):
        edges = workloads.gnp_edges(rng, n, 0.4)
        g = parse_graph6(graph6(n, edges))
        assert g.n == n
        assert sorted(g.edges()) == sorted(edges)
