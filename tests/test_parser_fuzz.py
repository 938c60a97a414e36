"""Every text input to a parser either parses or raises a DrdError.

Random text rarely gets past the first check of a parser, so each strategy
also joins tokens drawn from the parser's own vocabulary.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from drd.cli import parse_family
from drd.errors import DrdError
from drd.graph import parse_edge_list, parse_graph6
from drd.labeling import parse_labeling


def texts(*tokens: str):
    return st.one_of(st.text(max_size=30), st.lists(st.sampled_from(tokens), max_size=30).map("".join))


def parses_or_refuses(parse, text: str) -> None:
    try:
        parse(text)
    except DrdError:
        pass


FUZZ = settings(max_examples=200, deadline=None)
GRAPH6_CHARS = [chr(c) for c in range(32, 130)] + ["\n", "?", "~", "@"]
NUMBERS = ("0", "1", "2", "3", "5", "-1", "+1", "1_0", "99999", "1.5", "x", "")


@FUZZ
@given(texts(*GRAPH6_CHARS))
def test_fuzz_graph6(text):
    parses_or_refuses(parse_graph6, text)


@FUZZ
@given(texts(*NUMBERS, " ", "\t", "\n", "\r\n", "\x00"))
def test_fuzz_edge_list(text):
    parses_or_refuses(parse_edge_list, text)


@FUZZ
@given(texts(*NUMBERS, ",", " ", "\n"), st.sampled_from(("drdf", "rdf")))
def test_fuzz_labeling(text, kind):
    parses_or_refuses(lambda t: parse_labeling(t, kind), text)


@FUZZ
@given(texts(*NUMBERS, "path", "cycle", "kn", "kpq", "grid2", "star", "trivial",
             "complete_bipartite", "disjoint_union", "nope", ":", ",", "+", " "))
def test_fuzz_family(text):
    parses_or_refuses(parse_family, text)
