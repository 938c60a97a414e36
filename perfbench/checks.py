"""Correctness checks on the captured output of each benchmark command.

They run after the timed passes. A command passes when it exits 0, prints a
report that validates against ``report_schema.json`` with status ``ok``, and
every value and witness in it survives an independent re-check:

- witnesses are re-validated with ``is_valid_drdf``, ``is_valid_rdf`` or
  ``is_dominating`` and their weight must equal the reported value;
- family values are compared with the closed forms of ``drd.formulas`` where
  one applies and with the pinned values below otherwise;
- random graphs on at most CROSS_CHECK_MAX_N vertices are cross-checked
  against ``brute_force``;
- pair scans must miss and scan every connected labeled graph.
"""

from __future__ import annotations

import json

import jsonschema

from drd.cli import parse_family
from drd.errors import DrdError
from drd.formulas import gamma_dr_corona_k1, gamma_dr_cycle, gamma_dr_double_corona, gamma_dr_grid2
from drd.graph import Graph, corona, generate, grid2, is_connected, trivial
from drd.labeling import DRLabeling, RomanLabeling, is_dominating, is_valid_drdf, is_valid_rdf
from drd.report import load_schema
from drd.solvers import brute_force

from workloads import CROSS_CHECK_MAX_N, Command

# Values of the family solves that no closed form in drd.formulas covers,
# pinned from the solvers and matching the known path, cycle and ladder
# results: gamma(P_n) = ceil(n/3), gamma_R(P_n) = ceil(2n/3),
# gamma_dR(P_n) = n or n + 1, gamma(P_2 x P_n) = floor((n+2)/2) and
# gamma_R(P_2 x P_n) = n + 1.
PINNED = {
    ("path:19", "gamma"): 7,
    ("path:19", "gr"): 13,
    ("path:19", "gdr"): 20,
    ("cycle:20", "gamma"): 7,
    ("cycle:20", "gr"): 14,
    ("grid2:9", "gamma"): 5,
    ("grid2:9", "gr"): 10,
}

BRUTE_INVARIANT = {"gamma": "domination", "gr": "roman", "gdr": "double_roman"}

FUNDAMENTAL_IDS = ("double_vs_domination", "double_vs_roman_strict",
                   "v3_at_most_slack", "v2_at_least_coslack")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise CheckFailed(f"witness {text!r} is not a list of integers") from None


def check_witness(g: Graph, invariant: str, value: int, text: str):
    """Re-validate a witness printed for `invariant` against the graph."""
    vals = _ints(text)
    if invariant == "gamma":
        _require(len(set(vals)) == len(vals) == value, "dominating set size != value")
        _require(all(0 <= v < g.n for v in vals), "dominating set vertex out of range")
        _require(is_dominating(g, vals), "witness set is not dominating")
        return
    _require(len(vals) == g.n, "witness length != n")
    _require(sum(vals) == value, "witness weight != value")
    if invariant == "gr":
        _require(set(vals) <= {0, 1, 2}, "Roman witness value outside {0,1,2}")
        _require(is_valid_rdf(g, RomanLabeling(vals)).valid, "witness is not an RDF")
    else:
        _require(set(vals) <= {0, 1, 2, 3}, "double Roman witness value outside {0..3}")
        _require(is_valid_drdf(g, DRLabeling(vals)).valid, "witness is not a DRDF")


class Checker:
    """Judges command outputs; caches the verdict of each distinct output
    and the brute-force value of each distinct graph."""

    def __init__(self):
        self._validator = jsonschema.Draft202012Validator(load_schema())
        self._verdicts: dict[tuple, str | None] = {}
        self._brute: dict[tuple[Graph, str], int] = {}

    def check(self, cmd: Command, rc, out: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        key = (cmd.argv, rc, out)
        if key not in self._verdicts:
            try:
                self._check(cmd.expect, rc, out)
                self._verdicts[key] = None
            except CheckFailed as e:
                self._verdicts[key] = str(e)
            except (KeyError, TypeError, IndexError, ValueError, DrdError) as e:
                self._verdicts[key] = f"malformed report: {type(e).__name__}: {e}"
        return self._verdicts[key]

    def _check(self, expect: dict, rc, out: str):
        _require(rc == 0, f"exit code {rc!r}")
        try:
            report = json.loads(out)
        except ValueError:
            raise CheckFailed("output is not JSON") from None
        errors = sorted(self._validator.iter_errors(report), key=str)
        _require(not errors, f"schema: {errors[0].message}" if errors else "")
        _require(report["status"] == "ok", f"status {report['status']!r}")
        rows = report["results"]
        getattr(self, "_check_" + expect["kind"])(expect, rows)

    def _graph(self, expect: dict) -> Graph:
        if "family" in expect:
            return generate(parse_family(expect["family"]))
        return Graph.from_edges(expect["graph"]["n"], expect["graph"]["edges"])

    def brute_value(self, g: Graph, invariant: str) -> int:
        key = (g, invariant)
        if key not in self._brute:
            self._brute[key] = brute_force(g, BRUTE_INVARIANT[invariant]).value
        return self._brute[key]

    def expected_value(self, expect: dict, g: Graph) -> int | None:
        inv = expect["invariant"]
        family = expect.get("family")
        if family is None:
            return self.brute_value(g, inv) if g.n <= CROSS_CHECK_MAX_N else None
        kind, _, n = family.partition(":")
        if inv == "gdr" and kind == "cycle":
            return gamma_dr_cycle(int(n)).value
        if inv == "gdr" and kind == "grid2":
            return gamma_dr_grid2(int(n)).value
        return PINNED[(family, inv)]

    def _check_compute(self, expect: dict, rows: list[dict]):
        _require(len(rows) == 1, "compute must report one row")
        row = rows[0]
        inv = expect["invariant"]
        _require(row["id"] == inv, f"row id {row['id']!r}")
        _require(isinstance(row.get("nodes"), int) and row["nodes"] >= 1, "missing nodes")
        _require("witness" in row and "value" in row, "missing value or witness")
        g = self._graph(expect)
        _require(row["params"].get("n") == g.n, "reported n differs from the graph")
        want = self.expected_value(expect, g)
        _require(want is None or row["value"] == want,
                 f"value {row['value']} != expected {want}")
        check_witness(g, inv, row["value"], row["witness"])

    def _check_fundamental(self, expect: dict, rows: list[dict]):
        g = self._graph(expect)
        by_id = {row["id"]: row for row in rows}
        _require(sorted(by_id) == sorted(FUNDAMENTAL_IDS) and len(rows) == 4,
                 f"fundamental rows {sorted(by_id)}")
        gam = self.brute_value(g, "gamma")
        gdr = self.brute_value(g, "gdr")
        first = by_id["double_vs_domination"]
        _require(first["lhs"] == gdr and first["rhs"] == [2 * gam, 3 * gam],
                 "double_vs_domination sides differ from brute force")
        strict = by_id["double_vs_roman_strict"]
        if g.n >= 2 and is_connected(g):
            gr = self.brute_value(g, "gr")
            _require(strict.get("rhs") == [gr, 2 * gr], "Roman sandwich sides differ")
        else:
            _require("skipped" in strict, "Roman sandwich must be skipped")
        for row in rows:
            _require("skipped" in row or row.get("holds") is True, f"{row['id']} fails")

    def _check_grids(self, expect: dict, rows: list[dict]):
        _require([row["params"]["n"] for row in rows] == expect["ns"], "grid rows differ")
        for row in rows:
            n = row["params"]["n"]
            if n == 2:
                _require("skipped" in row, "the 2x2 grid must be skipped")
                continue
            want = gamma_dr_grid2(n).value
            _require(row.get("holds") is True and row["lhs"] == row["rhs"] == want,
                     f"grid2:{n} solver {row.get('lhs')} != formula {want}")
            check_witness(grid2(n), "gdr", want, row["witness"])

    def _check_corona(self, expect: dict, rows: list[dict]):
        _require(len(rows) == 1, "corona must report one row")
        row = rows[0]
        spec = parse_family(expect["family"])
        base = generate(spec)
        if expect["double"]:
            want = gamma_dr_double_corona(base).value
            g = corona(corona(base, trivial(1)), trivial(1))
        else:
            want = gamma_dr_corona_k1(spec.kind, spec.params).value
            g = corona(base, trivial(1))
        _require(row.get("holds") is True and row["lhs"] == row["rhs"] == want,
                 f"corona solver {row.get('lhs')} != formula {want}")
        check_witness(g, "gdr", want, row["witness"])

    def _check_pairs(self, expect: dict, rows: list[dict]):
        _require(len(rows) == 1, "pair scan must report one row")
        row = rows[0]
        _require(row["params"]["a"] == expect["a"] and row["params"]["b"] == expect["b"],
                 "pair scan parameters differ")
        _require(row["found"] is None, f"pair scan found {row['found']!r}")
        _require(row["graphs_scanned"] == expect["scanned"],
                 f"scanned {row['graphs_scanned']} != {expect['scanned']}")
