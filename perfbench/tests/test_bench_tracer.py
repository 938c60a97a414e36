import pytest

import tracer as T
from drd import cli
from drd.solvers import solve_double_roman
from run import Pass
from workloads import COMPUTE_FLAGS, REPORT_FLAGS, Command, graph6

SMALL = [
    Command(("compute", "--family", "cycle:7", "--invariant", inv) + COMPUTE_FLAGS, {})
    for inv in ("gamma", "gr", "gdr")
] + [
    Command(("compute", "--graph6", graph6(5, [(0, 1), (1, 2), (3, 4)]), "--invariant", "gr")
            + COMPUTE_FLAGS, {}),
    Command(("check", "fundamental", "--family", "path:5", "--all-minima") + REPORT_FLAGS, {}),
    Command(("check", "grids", "--n", "1..4") + REPORT_FLAGS, {}),
    Command(("check", "corona", "--family", "path:4", "--double") + REPORT_FLAGS, {}),
    Command(("check", "pairs", "--a", "2", "--b", "4", "--nmax", "4") + REPORT_FLAGS, {}),
]

RUNNER_METRICS = {"solvers.canonical_extra_nodes", "solvers.canonical_extra_s",
                  "trace.overhead_s"}
COUNTS = [name for name, unit in T.LAYER_METRICS
          if unit in ("count", "ratio", "B") and name not in RUNNER_METRICS]


def snapshot():
    return [(space, key, fn) for space, key, fn, _ in T.reference_sites()]


def traced_pass(tr):
    main = tr.wrap(T.MAIN_SPAN, cli.main)
    with tr.installed():
        p = Pass(SMALL).run(main)
    return p, tr.layer_metrics(0, len(tr))


def test_every_target_has_a_site():
    homes = {(home, fname) for home, fname, _, _ in T.TARGETS}
    found = {(fn.__module__, fn.__name__) for _, _, fn, _ in T.reference_sites()}
    assert homes == found


def test_installed_rebinds_and_restores_every_site():
    before = snapshot()
    assert before
    with T.Tracer().installed():
        assert all(space[key] is not fn for space, key, fn in before)
        assert cli.SOLVERS["gdr"].__wrapped__ is solve_double_roman
    assert all(space[key] is fn for space, key, fn in before)
    assert snapshot() == before


def test_installed_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with T.Tracer().installed():
            raise RuntimeError("boom")
    assert all(space[key] is fn for space, key, fn in before)


def test_tracing_leaves_outputs_unchanged():
    plain = Pass(SMALL).run(cli.main)
    traced, _ = traced_pass(T.Tracer())
    assert traced.results == plain.results
    assert all(rc == 0 for rc, _ in plain.results)


def test_counts_repeat_exactly():
    _, first = traced_pass(T.Tracer())
    _, second = traced_pass(T.Tracer())
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["solvers.gdr.calls"] > 0 and first["bounds.scan.graphs_scanned"] == 44


def test_self_times_partition_the_root_spans():
    tr = T.Tracer()
    traced_pass(tr)
    selfs = tr.self_times(0, len(tr))
    roots = [i for i in range(len(tr)) if tr.parent[i] < 0]
    total = sum(tr.end[i] - tr.start[i] for i in roots)
    assert len(roots) == len(SMALL)
    assert all(s >= -1e-9 for s in selfs)
    assert sum(selfs) == pytest.approx(total, rel=1e-6)


def test_layer_metrics_cover_the_declared_metrics():
    _, metrics = traced_pass(T.Tracer())
    assert set(metrics) | RUNNER_METRICS == {name for name, _ in T.LAYER_METRICS}
