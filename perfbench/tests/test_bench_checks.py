import contextlib
import io
import json

import pytest

from checks import Checker
from drd.cli import main
from workloads import COMPUTE_FLAGS, REPORT_FLAGS, Command, graph6

N = 6
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
G6 = graph6(N, EDGES)


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def compute_cmd(inv):
    return Command(("compute", "--graph6", G6, "--invariant", inv) + COMPUTE_FLAGS,
                   {"kind": "compute", "graph": {"n": N, "edges": EDGES}, "invariant": inv})


def edit(out, **changes):
    report = json.loads(out)
    report["results"][0].update(changes)
    return json.dumps(report)


@pytest.fixture(scope="module")
def checker():
    return Checker()


@pytest.mark.parametrize("inv", ["gamma", "gr", "gdr"])
def test_program_output_passes(checker, inv):
    cmd = compute_cmd(inv)
    rc, out = run(cmd.argv)
    assert checker.check(cmd, rc, out) is None


def test_wrong_value_is_rejected(checker):
    cmd = compute_cmd("gdr")
    rc, out = run(cmd.argv)
    value = json.loads(out)["results"][0]["value"]
    assert "value" in checker.check(cmd, rc, edit(out, value=value + 1))


def test_invalid_witness_is_rejected(checker):
    cmd = compute_cmd("gdr")
    rc, out = run(cmd.argv)
    row = json.loads(out)["results"][0]
    vals = [int(x) for x in row["witness"].split(",")]
    three = vals.index(3)
    vals[three], vals[(three + 1) % N] = 0, vals[(three + 1) % N] + 3  # same weight
    bad = edit(out, witness=",".join(map(str, vals)))
    assert checker.check(cmd, rc, bad) is not None


def test_non_dominating_set_is_rejected(checker):
    cmd = compute_cmd("gamma")
    rc, out = run(cmd.argv)
    value = json.loads(out)["results"][0]["value"]
    bad = edit(out, witness=",".join(str(v) for v in range(value)))
    assert checker.check(cmd, rc, bad) is not None


def test_wrong_exit_code_and_schema_violation_are_rejected(checker):
    cmd = compute_cmd("gr")
    rc, out = run(cmd.argv)
    assert "exit code" in checker.check(cmd, 1, out)
    assert "schema" in checker.check(cmd, rc, edit(out, extra="x"))
    assert checker.check(cmd, rc, "not json") == "output is not JSON"


def test_pair_scan_hit_or_short_scan_is_rejected(checker):
    argv = ("check", "pairs", "--a", "2", "--b", "4", "--nmax", "4", "--threads", "1")
    cmd = Command(argv + REPORT_FLAGS, {"kind": "pairs", "a": 2, "b": 4, "scanned": 44})
    rc, out = run(cmd.argv)
    assert checker.check(cmd, rc, out) is None
    assert checker.check(cmd, rc, edit(out, found="Bw")) is not None
    assert checker.check(cmd, rc, edit(out, graphs_scanned=43)) is not None


def test_fundamental_with_wrong_sides_is_rejected(checker):
    argv = ("check", "fundamental", "--graph6", G6, "--all-minima") + REPORT_FLAGS
    cmd = Command(argv, {"kind": "fundamental", "graph": {"n": N, "edges": EDGES}})
    rc, out = run(cmd.argv)
    assert checker.check(cmd, rc, out) is None
    report = json.loads(out)
    report["results"][0]["lhs"] += 1
    assert checker.check(cmd, rc, json.dumps(report)) is not None
