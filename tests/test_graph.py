"""Graph core: families, operators, parsing, enumeration."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drd.graph
from drd.errors import GraphParseError, InvalidArgumentsError, InvalidSpecError, ResourceLimitError
from drd.graph import (
    MAX_GRAPH_N,
    FamilySpec,
    Graph,
    add_false_twin,
    add_true_twin,
    cartesian_product,
    complete,
    complete_bipartite,
    components,
    corona,
    cycle,
    disjoint_union,
    edge_positions,
    enumerate_labeled_graphs,
    generate,
    graph_from_edge_mask,
    grid2,
    is_connected,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path,
    serialize_edge_list,
    serialize_graph,
    serialize_graph6,
    star,
    trivial,
)
from conftest import random_graph


# --- construction and validation ---

def test_graph_rejects_bad_adjacency():
    with pytest.raises(ValueError, match=r"^asymmetric edge 0->1$"):
        Graph(2, (frozenset({1}), frozenset()))
    with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
        Graph(1, (frozenset({0}),))
    with pytest.raises(ValueError, match=r"^neighbor 3 of 0 out of range$"):
        Graph(1, (frozenset({3}),))
    with pytest.raises(ValueError, match=r"^graphs must have at least one vertex$"):
        Graph(0, ())
    with pytest.raises(ValueError, match=r"^adjacency has 1 entries for 2 vertices$"):
        Graph(2, (frozenset(),))


def test_graph_equality_ignores_name_and_fields_are_frozen():
    g, h = Graph.from_edges(3, [(0, 1)], "a"), Graph.from_edges(3, [(0, 1)], "b")
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != Graph.from_edges(3, [(1, 2)], "a") and g != Graph.from_edges(2, [(0, 1)], "a")
    for field, value in (("n", 4), ("adj", ()), ("name", "c")):
        with pytest.raises(AttributeError):
            setattr(g, field, value)
        with pytest.raises(AttributeError):
            delattr(g, field)
    assert (g.n, g.name) == (3, "a")


def test_from_edges_and_edges_roundtrip():
    g = Graph.from_edges(4, [(2, 0), (1, 2)])
    assert g.edges() == [(0, 2), (1, 2)]
    assert g.adj[2] == frozenset({0, 1})


def test_from_edges_size_bounds(monkeypatch):
    with pytest.raises(ResourceLimitError, match="n <= 100000"):
        Graph.from_edges(MAX_GRAPH_N + 1, [])
    monkeypatch.setattr(drd.graph, "MAX_GRAPH_EDGES", 10)
    assert complete(5).edge_count == 10
    with pytest.raises(ResourceLimitError, match="at most 10 edges"):
        complete(6)
    with pytest.raises(ResourceLimitError):  # edges are counted as they are consumed
        Graph.from_edges(2, itertools.repeat((0, 1)))
    with pytest.raises(ResourceLimitError):  # and the operators' graphs
        corona(path(3), path(3))


def test_family_shapes():
    assert path(1).n == 1 and path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert len(cycle(5).edges()) == 5
    assert len(complete(5).edges()) == 10
    kpq = complete_bipartite(2, 3)
    assert kpq.n == 5 and len(kpq.edges()) == 6
    assert star(0).n == 1 and star(3).adj[0] == frozenset({1, 2, 3})
    g = grid2(3)
    assert g.n == 6 and len(g.edges()) == 7
    assert trivial(3).edges() == []


def test_generate_matches_helpers():
    assert generate(FamilySpec("cycle", (6,))).adj == cycle(6).adj
    assert generate(FamilySpec("complete_bipartite", (2, 2))).adj == complete_bipartite(2, 2).adj
    u = generate(FamilySpec("disjoint_union",
                            parts=(FamilySpec("path", (2,)), FamilySpec("trivial", (1,)))))
    assert u.n == 3 and u.edges() == [(0, 1)]


def test_generate_rejects_bad_specs():
    for kind, params in [("cycle", (2,)), ("path", (0,)), ("complete", (0,)),
                         ("complete_bipartite", (0, 2)), ("grid2", (0,)),
                         ("star", (-1,)), ("nosuch", (3,)), ("cycle", ())]:
        with pytest.raises(InvalidSpecError):
            generate(FamilySpec(kind, params))


# --- operators ---

def test_cartesian_product_is_grid():
    assert cartesian_product(path(2), path(4)).adj == grid2(4).adj
    g = cartesian_product(cycle(3), path(2))
    assert g.n == 6 and len(g.edges()) == 3 * 2 + 3


def test_corona_counts():
    g, h = cycle(4), path(3)
    c = corona(g, h)
    assert c.n == g.n * (1 + h.n)
    assert len(c.edges()) == len(g.edges()) + g.n * (len(h.edges()) + h.n)
    # each base vertex joined to its whole copy
    assert all(4 + 0 * 3 + j in c.adj[0] for j in range(3))


def test_twins():
    g = cycle(5)
    t = add_true_twin(g, 0)
    assert t.n == 6 and t.adj[5] == frozenset({0, 1, 4})
    f = add_false_twin(g, 0)
    assert f.n == 6 and f.adj[5] == frozenset({1, 4})
    with pytest.raises(ValueError):
        add_true_twin(g, 9)


def test_disjoint_union():
    u = disjoint_union(path(2), cycle(3))
    assert u.n == 5 and u.edges() == [(0, 1), (2, 3), (2, 4), (3, 4)]


# --- serialization against an independent implementation ---

def _nx_edges(data: str) -> tuple[int, list]:
    h = nx.from_graph6_bytes(data.encode("ascii"))
    return h.number_of_nodes(), sorted(tuple(sorted(e)) for e in h.edges())


def test_graph6_known_value():
    g = parse_graph6("B_")
    assert g.n == 3 and g.edges() == [(0, 1)]
    assert serialize_graph6(g) == "B_"


def test_graph6_matches_networkx_exhaustive():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            n2, edges = _nx_edges(serialize_graph6(g))
            assert (n2, edges) == (g.n, g.edges())


def test_graph6_matches_networkx_random():
    r = random.Random(7)
    for _ in range(60):
        g = random_graph(r.randrange(5, 13), r)
        assert _nx_edges(serialize_graph6(g)) == (g.n, g.edges())
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        encoded = nx.to_graph6_bytes(h, header=False).decode().strip()
        parsed = parse_graph6(encoded)
        assert (parsed.n, parsed.edges()) == (g.n, g.edges())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_serialization_roundtrips(n, r):
    g = random_graph(n, r)
    assert parse_edge_list(serialize_edge_list(g)).adj == g.adj
    assert parse_graph6(serialize_graph6(g)).adj == g.adj
    assert parse_graph(serialize_graph(g, "graph6"), "graph6").adj == g.adj


def test_graph6_roundtrips_up_to_62(graphs_upto_5):
    # every labeled graph on at most 5 vertices, then seeded graphs of every
    # density up to the short form's 62 vertices, edgeless and complete ones
    # included
    for g in graphs_upto_5:
        assert parse_graph6(serialize_graph6(g)) == g, g.edges()
    r = random.Random(17)
    for n in range(1, 63):
        for p in (0.0, r.random(), r.random(), 1.0):
            g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if r.random() < p])
            assert parse_graph6(serialize_graph6(g)) == g, (n, g.edges())


def test_edge_list_parse_errors():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_edge_list("3 2\n0 1\n0 1\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("2 1\n1 0\n")  # requires u < v
    with pytest.raises(GraphParseError):
        parse_edge_list("2 2\n0 1\n")  # edge count mismatch
    with pytest.raises(GraphParseError):
        parse_edge_list("2 1\n0 5\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("")


def test_graph6_parse_errors():
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError):
        parse_graph6("B_!")
    with pytest.raises(GraphParseError):
        parse_graph6("\x01_")
    # each refusal names the first offending byte
    for text, message, byte in [
        ("B", "expected 1 data bytes for n=3, got 0", 1),
        ("~~", "only the short graph6 form (n <= 62) is supported", 0),
        ("E_~!", "byte '!' outside graph6 range", 3),
        ("E!~\u00e9", "byte '!' outside graph6 range", 1),
        ("B\u00e9", "byte '\u00e9' outside graph6 range", 1),
        ("B@", "nonzero padding bits", 1),
    ]:
        with pytest.raises(GraphParseError) as err:
            parse_graph6(text)
        assert (str(err.value), err.value.byte) == (f"{message} (byte {byte})", byte), text
    with pytest.raises(InvalidArgumentsError):
        serialize_graph6(trivial(63))
    with pytest.raises(InvalidArgumentsError):
        parse_graph("1 0\n", "nosuch")


# --- enumeration ---

def test_enumerate_counts_and_order():
    assert len(list(enumerate_labeled_graphs(3))) == 8
    assert len(list(enumerate_labeled_graphs(4))) == 64
    first = next(enumerate_labeled_graphs(3))
    assert first.edges() == []
    with pytest.raises(ResourceLimitError):
        list(enumerate_labeled_graphs(8))


def test_edge_mask_positions():
    pairs = edge_positions(4)
    assert len(pairs) == 6 and pairs[0] == (0, 1)
    g = graph_from_edge_mask(3, 0b111)
    assert g.adj == complete(3).adj


def test_is_connected():
    assert is_connected(cycle(4))
    assert not is_connected(disjoint_union(path(2), trivial(1)))
    assert is_connected(trivial(1))
    # every graph on 1..7 vertices: the parts as ascending lists, least vertex first
    for atlas in nx.graph_atlas_g():
        if 1 <= atlas.number_of_nodes() <= 7:
            g = Graph.from_edges(atlas.number_of_nodes(), atlas.edges())
            parts = {frozenset(nx.node_connected_component(atlas, v)) for v in atlas}
            assert list(components(g)) == sorted(sorted(c) for c in parts), atlas.edges()
            assert is_connected(g) == nx.is_connected(atlas), atlas.edges()
