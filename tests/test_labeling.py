"""Labeling types, validity predicates, and the one-elimination transform."""

from __future__ import annotations

import itertools

import pytest

from drd.errors import InvalidArgumentsError
from drd.graph import complete, cycle, enumerate_labeled_graphs, path, star, trivial
from drd.labeling import (
    DRLabeling,
    RomanLabeling,
    eliminate_ones,
    is_dominating,
    is_valid_drdf,
    is_valid_rdf,
    parse_labeling,
    partition,
    serialize_labeling,
)
from conftest import random_valid_drdf


def test_labeling_types():
    f = DRLabeling((0, 3, 0))
    assert f.n == 3 and f.weight == 3
    assert RomanLabeling((1, 0, 2)).weight == 3
    assert DRLabeling((1,)) != RomanLabeling((1,))
    assert f == DRLabeling((0, 3, 0)) and hash(f) == hash(DRLabeling((0, 3, 0)))
    assert f != DRLabeling((0, 2, 0)) and repr(f) == "DRLabeling(values=(0, 3, 0))"
    with pytest.raises(AttributeError):
        f.values = (3, 0, 0)
    with pytest.raises(AttributeError):
        del f.values
    with pytest.raises(InvalidArgumentsError, match=r"value 4 at vertex 1 not in \{0,1,2,3\}"):
        DRLabeling((0, 4))
    with pytest.raises(InvalidArgumentsError, match=r"value 3 at vertex 0 not in \{0,1,2\}"):
        RomanLabeling((3,))
    with pytest.raises(InvalidArgumentsError):
        DRLabeling(())


def test_drdf_validity_known_cases():
    p3 = path(3)
    assert is_valid_drdf(p3, DRLabeling((0, 3, 0))).valid
    v = is_valid_drdf(p3, DRLabeling((0, 2, 0)))
    assert not v.valid and not v and v.violations  # falsy, with a nonempty tuple
    assert [(x.vertex, x.condition) for x in v.violations] == [(0, "i"), (2, "i")]
    # two 2s protect a shared 0-neighbor
    assert is_valid_drdf(p3, DRLabeling((2, 0, 2))).valid
    v = is_valid_drdf(p3, DRLabeling((1, 0, 1)))
    assert not v.valid and {x.vertex for x in v.violations} == {0, 1, 2}
    # a 1 needs a neighbor with value at least 2
    assert is_valid_drdf(p3, DRLabeling((1, 2, 1))).valid
    assert not is_valid_drdf(trivial(1), DRLabeling((1,))).valid
    assert is_valid_drdf(trivial(1), DRLabeling((2,))).valid


def test_all_three_valid_all_zero_invalid(graphs_upto_4):
    for g in graphs_upto_4:
        assert is_valid_drdf(g, DRLabeling((3,) * g.n)).valid
        assert not is_valid_drdf(g, DRLabeling((0,) * g.n)).valid


def test_rdf_validity():
    p3 = path(3)
    assert is_valid_rdf(p3, RomanLabeling((0, 2, 0))).valid
    assert not is_valid_rdf(p3, RomanLabeling((1, 0, 1))).valid
    assert is_valid_rdf(trivial(1), RomanLabeling((1,))).valid
    assert is_valid_rdf(p3, RomanLabeling((1, 1, 1))).valid


def test_is_dominating():
    p3 = path(3)
    assert is_dominating(p3, {1})
    assert not is_dominating(p3, {0})
    assert is_dominating(p3, [0, 2])
    assert is_dominating(star(4), {0})
    with pytest.raises(InvalidArgumentsError):
        is_dominating(p3, {5})


def test_partition_and_restrict():
    f = DRLabeling((0, 1, 2, 3, 2))
    v0, v1, v2, v3 = partition(f)
    assert (v0, v1, v2, v3) == (frozenset({0}), frozenset({1}), frozenset({2, 4}),
                                frozenset({3}))
    assert v0 | v1 | v2 | v3 == frozenset(range(5))


def test_v2_v3_dominates(rng):
    for g in [cycle(7), complete(5), star(6), path(8)]:
        for _ in range(20):
            f = random_valid_drdf(g, rng)
            _, _, v2, v3 = partition(f)
            assert is_dominating(g, v2 | v3)


def test_eliminate_ones_exhaustive_small():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            for vals in itertools.product((0, 1, 2, 3), repeat=n):
                f = DRLabeling(vals)
                if not is_valid_drdf(g, f).valid:
                    continue
                out = eliminate_ones(g, f)
                assert 1 not in out.values
                assert out.weight <= f.weight
                assert is_valid_drdf(g, out).valid


def test_eliminate_ones_rejects_invalid_input():
    with pytest.raises(InvalidArgumentsError):
        eliminate_ones(path(3), DRLabeling((1, 0, 1)))


def test_labeling_serialization():
    assert serialize_labeling(DRLabeling((0, 3, 0))) == "0,3,0"
    assert parse_labeling("0,3,0", "drdf") == DRLabeling((0, 3, 0))
    assert parse_labeling("1", "rdf") == RomanLabeling((1,))
    with pytest.raises(InvalidArgumentsError):
        parse_labeling("0,4", "drdf")
    with pytest.raises(InvalidArgumentsError):
        parse_labeling("0,3", "rdf")
    with pytest.raises(InvalidArgumentsError):
        parse_labeling("a,b", "drdf")
    with pytest.raises(InvalidArgumentsError):
        parse_labeling("", "drdf")


def test_size_mismatch_detected():
    with pytest.raises(InvalidArgumentsError):
        is_valid_drdf(path(3), DRLabeling((0, 3)))
