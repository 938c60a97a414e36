"""CLI integration: exit codes, report formats, schema conformance."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import drd.bounds
import drd.cli
import drd.solvers
from drd.cli import build_parser, main, parse_family
from drd.errors import InvalidSpecError
from drd.graph import FamilySpec, parse_graph, path
from drd.labeling import is_valid_drdf, parse_labeling, partition
from drd.report import load_schema


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    return code, doc


# --- family spec parsing ---

def test_parse_family():
    assert parse_family("cycle:7") == FamilySpec("cycle", (7,))
    assert parse_family("kpq:2,3") == FamilySpec("complete_bipartite", (2, 3))
    assert parse_family("kn:4") == FamilySpec("complete", (4,))
    assert parse_family("pn:5") == FamilySpec("path", (5,))
    assert parse_family("cn:5") == FamilySpec("cycle", (5,))
    u = parse_family("star:2+trivial:3")
    assert u.kind == "disjoint_union" and len(u.parts) == 2
    with pytest.raises(InvalidSpecError):
        parse_family("cycle:x")
    with pytest.raises(InvalidSpecError):
        parse_family("cycle:3+")


# --- compute ---

def test_compute_cycle(capsys):
    code, doc = run_json(capsys, "compute", "--family", "cycle:7", "--invariant", "gdr")
    assert code == 0 and doc["status"] == "ok"
    assert doc["results"][0]["value"] == 8


def test_compute_all_invariants(capsys):
    for invariant, want in [("gamma", 2), ("gr", 3), ("gdr", 5)]:
        code, doc = run_json(capsys, "compute", "--family", "path:4",
                             "--invariant", invariant)
        assert code == 0 and doc["results"][0]["value"] == want


def test_compute_witness_and_stats(capsys):
    code, doc = run_json(capsys, "compute", "--family", "grid2:4", "--witness", "--stats")
    row = doc["results"][0]
    assert code == 0 and row["value"] == 8
    assert row["witness"].count(",") == 7 and row["nodes"] > 0


def test_compute_from_edge_list(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("3 2\n0 1\n1 2\n")
    code, doc = run_json(capsys, "compute", "--edge-list", str(p), "--invariant", "gamma")
    assert code == 0 and doc["results"][0]["value"] == 1


def test_compute_from_graph6(capsys):
    code, doc = run_json(capsys, "compute", "--graph6", "B_", "--invariant", "gdr")
    assert code == 0 and doc["results"][0]["value"] == 5  # an edge plus an isolate


def test_compute_cap_exit_code(capsys):
    # over the cap only graphs of small frontier width are solved; K40 is wide
    assert main(["compute", "--family", "kn:40"]) == 2
    assert "n <= 30" in capsys.readouterr().err


@pytest.mark.parametrize("family, flags, env, source", [
    ("kn:7", ["--max-n", "-1"], None, "max_n (--max-n)"),
    ("path:5", ["--max-n", "-3"], None, "max_n (--max-n)"),
    ("kn:7", [], "-2", "DRD_MAX_N"),
    ("path:5", [], "-1", "DRD_MAX_N"),
])
def test_negative_cap_is_refused(capsys, monkeypatch, family, flags, env, source):
    # a negative cap is a usage error naming its source, not a cap that
    # refuses every graph or one that is read as 0
    if env is None:
        monkeypatch.delenv("DRD_MAX_N", raising=False)
    else:
        monkeypatch.setenv("DRD_MAX_N", env)
    cap = flags[-1] if flags else env
    assert main(["compute", "--family", family, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {source} must be 0 or more, got {cap}\n"


def test_compute_over_cap_goes_to_the_frontier_dp(capsys, monkeypatch):
    code, doc = run_json(
        capsys, "compute", "--family", "path:200", "--invariant", "gdr", "--canonical"
    )
    row = doc["results"][0]
    assert code == 0 and row["value"] == 201
    witness = parse_labeling(row["witness"], "drdf")
    assert witness.weight == 201 and is_valid_drdf(path(200), witness).valid
    # width 0: the graph goes to the frontier DP without a search
    assert main(["compute", "--family", "trivial:1500"]) == 0
    capsys.readouterr()
    # a cap of 0, from the flag or the variable, leaves the DP alone
    monkeypatch.delenv("DRD_MAX_N", raising=False)
    code, doc = run_json(capsys, "compute", "--family", "path:5", "--max-n", "0")
    assert code == 0 and doc["results"][0]["value"] == 6
    monkeypatch.setenv("DRD_MAX_N", "0")
    code, doc = run_json(capsys, "compute", "--family", "path:5")
    assert code == 0 and doc["results"][0]["value"] == 6


def test_compute_deep_search(capsys):
    # solved component by component: the root bound closes K7 and the 1,000
    # isolated vertices take 1 each with no search, one node between them.
    # The engine's own 1,007-level search on this graph is pinned in
    # test_solvers.test_search_deeper_than_the_recursion_limit
    code, doc = run_json(capsys, "compute", "--family", "kn:7+trivial:1000", "--max-n", "5000",
                         "--invariant", "gr", "--stats")
    row = doc["results"][0]
    assert code == 0 and (row["value"], row["nodes"]) == (1002, 2)


@pytest.mark.parametrize("argv", [
    ["compute", "--family", "kn:60000"],
    ["construct", "family", "--spec", "trivial:40000000"],
    ["compute", "--edge-list", "{huge}"],
    ["check", "corona", "--family", "trivial:50000", "--with", "trivial:50000"],
    ["construct", "roman_pair", "--b", "20000", "--i", "9999"],
])
def test_huge_graphs_are_refused_before_they_are_built(argv, tmp_path):
    resource = pytest.importorskip("resource")
    limit = 1500 * 2**20  # a regression then fails here, not the machine's memory
    huge = tmp_path / "huge.txt"
    huge.write_text("50000000 0\n")
    argv = [a.format(huge=huge) for a in argv]

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    r = subprocess.run([sys.executable, "-m", "drd.cli", *argv], capture_output=True,
                       text=True, preexec_fn=cap_memory)
    assert r.returncode == 2 and "graphs support" in r.stderr


def test_bad_graph6_exit_code(capsys):
    assert main(["compute", "--graph6", "B_!"]) == 2


def test_missing_edge_list_exit_code(capsys):
    assert main(["compute", "--edge-list", "/nonexistent/file"]) == 2


def test_unexpected_fault_exits_3_not_1(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setitem(drd.cli.SOLVERS, "gdr", boom)
    assert main(["compute", "--family", "path:3"]) == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_no_graph_source_is_usage_error(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["compute"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: drd compute ")
    assert "drd compute: error: no graph given: use --family, --edge-list or --graph6" in err
    # a repeated source flag is two sources, not the last one alone, and is
    # refused before any graph is built
    def no_build(*source):
        raise AssertionError(f"{source} built")

    monkeypatch.setattr(drd.cli, "generate", no_build)
    monkeypatch.setattr(drd.cli, "parse_graph", no_build)
    for prog, flags in (("compute", ["--family", "path:3", "--family", "cycle:5"]),
                        ("compute", ["--family", "path:3", "--graph6", "Bw"]),
                        ("verify", ["--graph6", "Bw", "--graph6", "Bw", "--labeling", "0,3,0"]),
                        ("check twins", ["--family", "path:3", "--family", "path:4"])):
        with pytest.raises(SystemExit) as exc:
            main(prog.split() + flags)
        assert exc.value.code == 2
        assert f"drd {prog}: error: exactly one graph source expected" in capsys.readouterr().err


def test_subcommand_usage_errors_name_the_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "cartesian", "--family", "path:2", "--family", "path:3",
              "--graph6", "A_"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: drd check cartesian ")
    assert "drd check cartesian: error: cartesian check expects one or two graph sources" in err


# --- verify ---

def test_verify_valid(capsys):
    code, doc = run_json(capsys, "verify", "--family", "path:3", "--labeling", "0,3,0")
    assert code == 0 and doc["results"][0]["holds"] is True


def test_verify_invalid_lists_violations(capsys):
    code, doc = run_json(capsys, "verify", "--family", "path:3", "--labeling", "0,2,0")
    assert code == 1 and doc["status"] == "violation"
    row = doc["results"][0]
    assert row["holds"] is False
    assert row["violations"] == [{"vertex": 0, "condition": "i"},
                                 {"vertex": 2, "condition": "i"}]


def test_verify_rdf_and_dominating(capsys):
    code, doc = run_json(capsys, "verify", "--family", "trivial:1",
                         "--labeling", "1", "--kind", "rdf")
    assert code == 0 and doc["results"][0]["holds"] is True
    code, doc = run_json(capsys, "verify", "--family", "path:3",
                         "--labeling", "1", "--kind", "dominating")
    assert code == 0 and doc["results"][0]["holds"] is True


def test_verify_size_mismatch_exit_code(capsys):
    assert main(["verify", "--family", "path:3", "--labeling", "0,3"]) == 2


# --- check suites ---

def test_check_grids_past_the_size_cap(capsys):
    # 2 x n grids over 30 vertices have frontier width 2 and go to the DP
    code, doc = run_json(capsys, "check", "grids", "--n", "1..60")
    rows = [r for r in doc["results"] if not r.get("skipped")]
    assert code == 0 and len(rows) == 59 and all(r["holds"] for r in rows)


def test_check_grids_rejects_an_empty_range(capsys):
    assert main(["check", "grids", "--n", "5..1"]) == 2
    assert main(["check", "grids", "--n", "5..x"]) == 2


def test_check_grids_refuses_a_range_past_the_graph_limit(capsys, monkeypatch):
    # grid2(n) has 2n vertices; the range is refused before any grid is solved
    solved = []
    monkeypatch.setattr(drd.cli.F, "gamma_dr_grid2", solved.append)
    assert main(["check", "grids", "--n", "1..1000000000"]) == 2
    assert "graphs support" in capsys.readouterr().err and solved == []


def test_check_grids_skips_n2(capsys):
    code, doc = run_json(capsys, "check", "grids", "--n", "1..4")
    assert code == 0
    rows = doc["results"]
    assert len(rows) == 4
    skipped = [r for r in rows if r.get("skipped")]
    assert len(skipped) == 1 and skipped[0]["params"]["n"] == 2
    assert all(r["holds"] for r in rows if "holds" in r)


def test_check_pairs_rejects_zero_threads(capsys):
    assert main(["check", "pairs", "--a", "2", "--b", "3", "--nmax", "3", "--threads", "0"]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_check_pairs(capsys):
    code, doc = run_json(capsys, "check", "pairs", "--a", "2", "--b", "3", "--nmax", "3")
    assert code == 0
    row = doc["results"][0]
    assert row["found"] == "A_" and row["graphs_scanned"] == 2


def test_check_twins_row_count(capsys):
    code, doc = run_json(capsys, "check", "twins", "--family", "cycle:5", "--all-vertices")
    assert code == 0 and len(doc["results"]) == 10
    assert all(r["holds"] for r in doc["results"])


def _count_dr_solves(monkeypatch) -> list:
    calls = []
    solve = drd.bounds.solve_double_roman
    monkeypatch.setattr(drd.bounds, "solve_double_roman", lambda g: calls.append(g) or solve(g))
    monkeypatch.delenv("DRD_MAX_N", raising=False)
    return calls


def test_check_twins_solves_base_once(capsys, monkeypatch):
    calls = _count_dr_solves(monkeypatch)
    code, doc = run_json(capsys, "check", "twins", "--family", "cycle:5", "--all-vertices")
    assert code == 0 and len(doc["results"]) == 10
    assert len(calls) == 11  # ten twins plus C5 itself


def test_check_twins_over_cap_solves_nothing(capsys, monkeypatch):
    calls = _count_dr_solves(monkeypatch)
    code, doc = run_json(capsys, "check", "twins", "--family", "kn:30", "--vertex", "3")
    assert code == 0 and len(doc["results"]) == 2
    assert all(r.get("skipped") for r in doc["results"])
    assert calls == []
    # low-width graphs over the cap go to the frontier DP, so their rows are solved
    code, doc = run_json(capsys, "check", "twins", "--family", "path:30", "--vertex", "3")
    assert code == 0 and [r["holds"] for r in doc["results"]] == [True, True]
    assert len(calls) == 3  # P30 once and its two twins


def test_check_fundamental_multiple_sources(capsys):
    code, doc = run_json(capsys, "check", "fundamental",
                         "--family", "path:5", "--family", "cycle:6")
    assert code == 0 and len(doc["results"]) == 8


def test_check_fundamental_solves_each_invariant_once(capsys, monkeypatch):
    counts = {}
    for name in ("solve_double_roman", "solve_domination", "solve_roman"):
        solve = getattr(drd.solvers, name)

        def counted(*args, _name=name, _solve=solve, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _solve(*args, **kwargs)

        for module in (drd.solvers, drd.bounds, drd.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code = main(["check", "fundamental", "--family", "cycle:7", "--all-minima"])
    capsys.readouterr()
    assert code == 0
    assert counts == {"solve_double_roman": 1, "solve_domination": 1, "solve_roman": 1}


def test_check_fundamental_canonical_rows_read_the_canonical_witness(capsys, monkeypatch):
    # a 16-vertex graph whose gamma_dR goes to the DP from the root; the
    # search's witness had |V3| = 5 and |V2| = 2, the DP's has 3 and 5
    text = "O?Y??COGG????@c@?C???"
    argv = ["check", "fundamental", "--graph6", text, "--canonical", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(drd.solvers, "ROOT_DP_MIN_N", 10**9)
    assert run_cli(capsys, *argv) == (0, out)
    rows = {r["id"]: r for r in json.loads(out)["results"]}
    parts = partition(drd.solvers.solve_double_roman(parse_graph(text, "graph6"),
                                                     canonical=True).witness)
    assert rows["v3_at_most_slack"]["lhs"] == len(parts[3]) == 3
    assert rows["v2_at_least_coslack"]["lhs"] == len(parts[2]) == 5


def test_main_reuses_its_parser_without_carry_over(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "fundamental", "--family", "path:5", "--nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["check", "fundamental", "--family", "path:5", "--family", "cycle:6",
            "--all-minima", "--canonical", "--format", "json"]
    code, first = run_cli(capsys, *argv)
    assert code == 0 and json.loads(first)["inputs"]["mode"] == "all_minima"
    code, doc = run_json(capsys, "check", "fundamental", "--family", "path:4")
    assert code == 0
    assert doc["inputs"] == {"graphs": ["path:4"], "mode": "witness_only"}
    assert run_cli(capsys, *argv) == (0, first)
    assert build_parser() is not build_parser()


def test_check_cartesian_single_source_squares(capsys):
    code, doc = run_json(capsys, "check", "cartesian", "--family", "path:3")
    assert code == 0 and len(doc["results"]) == 5


def test_check_cartesian_solves_a_repeated_factor_once(capsys, monkeypatch):
    calls = {}
    for name in ("solve_double_roman", "solve_domination"):
        solve = getattr(drd.bounds, name)

        def counted(g, _name=name, _solve=solve):
            calls[_name] = calls.get(_name, 0) + 1
            return _solve(g)

        monkeypatch.setattr(drd.bounds, name, counted)
    # the product and P3 once each; two different factors take one more apiece
    assert run_cli(capsys, "check", "cartesian", "--family", "path:3")[0] == 0
    assert calls == {"solve_double_roman": 2, "solve_domination": 1}
    calls.clear()
    assert run_cli(capsys, "check", "cartesian", "--family", "path:3", "--family", "path:2")[0] == 0
    assert calls == {"solve_double_roman": 3, "solve_domination": 2}


def test_check_corona_variants(capsys):
    code, doc = run_json(capsys, "check", "corona", "--family", "pn:4")
    assert code == 0 and doc["results"][0]["holds"] is True
    code, doc = run_json(capsys, "check", "corona", "--family", "cycle:3",
                         "--with", "path:2")
    assert code == 0 and doc["results"][0]["rhs"] == 9
    code, doc = run_json(capsys, "check", "corona", "--family", "path:2", "--double")
    assert code == 0 and doc["results"][0]["rhs"] == 10
    assert main(["check", "corona", "--family", "kpq:3"]) == 2
    assert "no pendant-corona formula for family 'complete_bipartite'" in capsys.readouterr().err
    assert main(["compute", "--family", "kpq:3"]) == 2
    assert "complete_bipartite takes two parameters p, q >= 1" in capsys.readouterr().err


# --- construct ---

def test_construct_family_graph6_raw(capsys):
    code, out = run_cli(capsys, "construct", "family", "--spec", "cycle:5",
                        "--format", "graph6")
    assert code == 0 and out == "Dhc\n"


def test_construct_family_edge_list_raw(capsys):
    code, out = run_cli(capsys, "construct", "family", "--spec", "path:3",
                        "--format", "edge_list")
    assert parse_graph(out, "edge_list").edges() == [(0, 1), (1, 2)]


def test_construct_family_past_graph6(capsys):
    # graph6's short form stops at 62 vertices: the report leaves it out, and
    # only a graph6 output is refused
    code, out = run_cli(capsys, "construct", "family", "--spec", "path:100",
                        "--format", "edge_list")
    assert code == 0 and parse_graph(out, "edge_list").edges() == path(100).edges()
    code, doc = run_json(capsys, "construct", "family", "--spec", "path:100")
    assert code == 0 and "graph" not in doc["results"][0]
    assert main(["construct", "family", "--spec", "path:100", "--format", "graph6"]) == 2
    assert "62 vertices" in capsys.readouterr().err


def test_construct_roman_pair_report(capsys):
    code, doc = run_json(capsys, "construct", "roman_pair", "--b", "8", "--i", "1")
    row = doc["results"][0]
    assert code == 0 and row["params"]["gr"] == 5 and row["params"]["gdr"] == 8
    g = parse_graph(row["graph"], "graph6")
    assert g.n == 10


def test_construct_corona_realization_sidecar(tmp_path, capsys):
    out_file = tmp_path / "g.txt"
    code, _ = run_cli(capsys, "construct", "corona_realization", "--n", "3", "--m", "2",
                      "--output", str(out_file))
    assert code == 0
    g = parse_graph(out_file.read_text(), "edge_list")
    sidecar = json.loads((tmp_path / "g.txt.json").read_text())
    assert sidecar["value"] == 7 and g.n == 6


def test_construct_bad_params_exit_code(capsys):
    assert main(["construct", "corona_realization", "--n", "3", "--m", "5"]) == 2


# --- formats ---

def test_csv_and_json_carry_same_content(capsys):
    _, doc = run_json(capsys, "check", "grids", "--n", "3..5")
    code, out = run_cli(capsys, "check", "grids", "--n", "3..5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(doc["results"])
    for csv_row, json_row in zip(rows, doc["results"]):
        assert csv_row["id"] == json_row["id"]
        assert int(csv_row["lhs"]) == json_row["lhs"]
        assert int(csv_row["rhs"]) == json_row["rhs"]
        assert (csv_row["holds"] == "true") == json_row["holds"]


def test_canonical_reports_are_byte_identical(capsys):
    a = run_cli(capsys, "compute", "--family", "grid2:4", "--canonical", "--format", "json")
    b = run_cli(capsys, "compute", "--family", "grid2:4", "--canonical", "--format", "json")
    assert a == b
    assert json.loads(a[1])["elapsed_ms"] == 0


def test_table_format_mentions_status(capsys):
    code, out = run_cli(capsys, "compute", "--family", "cycle:5")
    assert code == 0 and "status: ok" in out and "value=6" in out


# --- console script end to end ---

def test_console_script_end_to_end():
    r = subprocess.run([sys.executable, "-m", "drd.cli", "compute",
                        "--family", "cycle:7", "--format", "json"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["results"][0]["value"] == 8
    r = subprocess.run([sys.executable, "-m", "drd.cli", "verify", "--family", "path:3",
                        "--labeling", "0,2,0"], capture_output=True, text=True)
    assert r.returncode == 1


def test_cli_import_leaves_the_frontier_dp_unloaded():
    # drd.frontier is loaded only when a solve hands over to the DP, so a
    # process that never does (a pair scan, say) does not pay to import it;
    # likewise the class table, which only a pair scan reads.
    # Nor does it pay for dataclasses and the inspect module it loads, or
    # for what only CSV output and load_schema use. -S keeps site hooks
    # from loading any of them first.
    unloaded = ("drd.frontier", "drd.graph_classes", "dataclasses", "inspect", "csv", "importlib.resources")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import drd.cli; "
            "print([m for m in sys.argv[2:] if m in sys.modules])")
    src = str(Path(drd.cli.__file__).parent.parent)
    r = subprocess.run([sys.executable, "-S", "-c", code, src, *unloaded],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr


def test_stdin_edge_list():
    r = subprocess.run([sys.executable, "-m", "drd.cli", "compute", "--edge-list", "-",
                        "--invariant", "gdr", "--format", "json"],
                       input="2 1\n0 1\n", capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["results"][0]["value"] == 3


# the last endpoint is U+0662, the Arabic-Indic digit two, which int() reads as 2
NON_ASCII_EDGE_LIST = "3 2\n0 1\n1 \u0662\n".encode()


def test_non_ascii_edge_list_file_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_bytes(NON_ASCII_EDGE_LIST)
    assert main(["compute", "--edge-list", str(p)]) == 2
    assert capsys.readouterr().err == "error: edge-list input is not ASCII (byte 10)\n"


def test_non_ascii_edge_list_on_stdin_is_a_parse_error():
    r = subprocess.run([sys.executable, "-m", "drd.cli", "compute", "--edge-list", "-"],
                       input=NON_ASCII_EDGE_LIST, capture_output=True)
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr == b"error: edge-list input is not ASCII (byte 10)\n"


def test_help_documents_family_syntax():
    parser = build_parser()
    text = parser.format_help()
    assert "compute" in text and "construct" in text
