"""Per-layer tracing of drd for the benchmark's traced run.

The tracer rebinds, inside the benchmark process only, every reference that
one drd module holds to a public function of the module below it (for
example ``drd.bounds.solve_roman``, ``drd.bounds.graph_from_edge_mask``,
``drd.cli.SOLVERS["gdr"]``, ``drd.solvers.is_valid_drdf`` and
``drd.report.render``). Each wrapped call records a span: name, start, end,
parent span, command id and a count taken from the public result
(``SolveResult.nodes_explored``, ``PairScanResult.graphs_scanned``, the size
of the greedy set, the bytes rendered). Spans live in flat arrays in memory
and are written out when the run ends. ``installed()`` always restores every
rebound reference, also when the traced code raises.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (defining module, function, span name, also rebind the defining module's own
# attribute). The own attribute is rebound where callers reach the function
# through the module object (cli calls B.check_fundamental, F.gamma_dr_grid2,
# R.render) or where the caller is the same module (solvers calls
# greedy_dominating_set).
TARGETS = (
    ("drd.solvers", "solve_double_roman", "solvers.gdr", False),
    ("drd.solvers", "solve_roman", "solvers.gr", False),
    ("drd.solvers", "solve_domination", "solvers.gamma", False),
    ("drd.solvers", "greedy_dominating_set", "solvers.greedy", True),
    ("drd.solvers", "enumerate_min_drdfs", "solvers.min_drdfs", False),
    ("drd.graph", "generate", "graph.build", False),
    ("drd.graph", "graph_from_edge_mask", "graph.build", False),
    ("drd.graph", "cartesian_product", "graph.build", False),
    ("drd.graph", "corona", "graph.build", False),
    ("drd.graph", "add_true_twin", "graph.build", False),
    ("drd.graph", "add_false_twin", "graph.build", False),
    ("drd.graph", "path", "graph.build", False),
    ("drd.graph", "cycle", "graph.build", False),
    ("drd.graph", "grid2", "graph.build", False),
    ("drd.graph", "complete", "graph.build", False),
    ("drd.graph", "complete_bipartite", "graph.build", False),
    ("drd.graph", "trivial", "graph.build", False),
    ("drd.graph", "parse_graph", "graph.parse", False),
    ("drd.graph", "is_connected", "graph.connected", False),
    ("drd.labeling", "is_valid_drdf", "labeling.validate", False),
    ("drd.labeling", "is_valid_rdf", "labeling.validate", False),
    ("drd.labeling", "is_dominating", "labeling.validate", False),
    ("drd.bounds", "check_fundamental", "bounds.check", True),
    ("drd.bounds", "check_min_drdf_partition", "bounds.check", True),
    ("drd.bounds", "check_cartesian", "bounds.check", True),
    ("drd.bounds", "check_twin", "bounds.check", True),
    ("drd.bounds", "scan_pair_realizability", "bounds.scan", True),
    ("drd.formulas", "gamma_dr_cycle", "formulas", True),
    ("drd.formulas", "gamma_dr_grid2", "formulas", True),
    ("drd.formulas", "gamma_dr_corona_k1", "formulas", True),
    ("drd.formulas", "gamma_dr_corona_nontrivial", "formulas", True),
    ("drd.formulas", "gamma_dr_double_corona", "formulas", True),
    ("drd.report", "render", "report.render", True),
)

CALLER_MODULES = (
    "drd.cli", "drd.bounds", "drd.formulas", "drd.solvers",
    "drd.report", "drd.labeling", "drd.graph",
)
DICT_SITES = (("drd.cli", "SOLVERS"),)

SOLVER_SPANS = ("solvers.gdr", "solvers.gr", "solvers.gamma")
MAIN_SPAN = "cli.main"


def _solve_counts(r) -> tuple[int, int]:
    return r.nodes_explored, r.value


MEASURES = {
    "solvers.gdr": _solve_counts,
    "solvers.gr": _solve_counts,
    "solvers.gamma": _solve_counts,
    "solvers.greedy": lambda r: (len(r), 0),
    "bounds.scan": lambda r: (r.graphs_scanned, 0),
    "report.render": lambda r: (len(r.encode()), 0),
}

# (metric, unit) in the order the traced run reports them.
LAYER_METRICS = (
    ("solvers.gdr.s", "s"), ("solvers.gdr.calls", "count"), ("solvers.gdr.nodes", "count"),
    ("solvers.gdr.nodes_per_s", "1/s"), ("solvers.gdr.incumbent_ratio", "ratio"),
    ("solvers.gr.s", "s"), ("solvers.gr.calls", "count"), ("solvers.gr.nodes", "count"),
    ("solvers.gr.nodes_per_s", "1/s"),
    ("solvers.gamma.s", "s"), ("solvers.gamma.calls", "count"), ("solvers.gamma.nodes", "count"),
    ("solvers.canonical_extra_nodes", "count"), ("solvers.canonical_extra_s", "s"),
    ("solvers.greedy_s", "s"), ("solvers.min_drdfs_s", "s"),
    ("graph.build_s", "s"), ("graph.build_calls", "count"), ("graph.connected_s", "s"),
    ("graph.parse_s", "s"),
    ("labeling.validate_s", "s"), ("labeling.validate_calls", "count"),
    ("bounds.scan_s", "s"), ("bounds.scan.graphs_scanned", "count"),
    ("bounds.scan.connected_share", "ratio"), ("bounds.scan.dr_share", "ratio"),
    ("bounds.check_s", "s"),
    ("formulas.s", "s"),
    ("report.render_s", "s"), ("report.bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def reference_sites() -> list[tuple[dict, str, object, str]]:
    """Every (namespace, key, function, span name) the tracer rebinds."""
    mods = {name: importlib.import_module(name) for name in CALLER_MODULES}
    spaces = [vars(mod) for mod in mods.values()]
    spaces += [getattr(mods[mod], attr) for mod, attr in DICT_SITES]
    sites = []
    for home, fname, span, own in TARGETS:
        home_space = vars(mods[home])
        fn = home_space[fname]
        for space in spaces:
            if space is not home_space or own:
                sites += [(space, key, fn, span) for key, val in space.items() if val is fn]
    return sites


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.count = array("q")
        self.value = array("q")
        self.cmd_id = -1
        self.record_canonical = False
        self.canonical_calls: list[tuple[object, tuple, dict]] = []
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn):
        """fn, recording one span per call."""
        nid = self._name_id(span)
        measure = MEASURES.get(span)
        solver = span in SOLVER_SPANS
        materialize = span == "solvers.min_drdfs"  # time the lazy sweep too
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1])
            self.cmd.append(self.cmd_id)
            self.count.append(0)
            self.value.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if measure is not None:
                self.count[idx], self.value[idx] = measure(result)
            if solver and self.record_canonical and kwargs.get("canonical"):
                self.canonical_calls.append((fn, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every reference site for the duration of the block."""
        undo = []
        try:
            for space, key, fn, span in reference_sites():
                space[key] = self.wrap(span, fn)
                undo.append((space, key, fn))
            yield self
        finally:
            for space, key, fn in reversed(undo):
                space[key] = fn

    def self_times(self, lo: int, hi: int) -> list[float]:
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i - lo] for i in range(lo, hi)]

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer numbers of the spans lo..hi-1 (one pass); every ``*_s``
        and ``*.s`` metric is a self time."""
        selfs = self.self_times(lo, hi)
        s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        count: dict[str, int] = defaultdict(int)
        value: dict[str, int] = defaultdict(int)
        under_scan: dict[str, int] = defaultdict(int)
        greedy_under_gdr = 0
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            s[name] += selfs[i - lo]
            calls[name] += 1
            count[name] += self.count[i]
            value[name] += self.value[i]
            p = self.parent[i]
            parent = self.names[self.name[p]] if p >= 0 else None
            if parent == "bounds.scan":
                under_scan[name] += 1
            elif parent == "solvers.gdr" and name == "solvers.greedy":
                greedy_under_gdr += self.count[i]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {}
        for inv in ("gdr", "gr", "gamma"):
            span = f"solvers.{inv}"
            out[f"{span}.s"] = s[span]
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.nodes"] = count[span]
            if inv != "gamma":
                out[f"{span}.nodes_per_s"] = ratio(count[span], s[span])
        out["solvers.gdr.incumbent_ratio"] = ratio(value["solvers.gdr"], 3 * greedy_under_gdr)
        out["solvers.greedy_s"] = s["solvers.greedy"]
        out["solvers.min_drdfs_s"] = s["solvers.min_drdfs"]
        out["graph.build_s"] = s["graph.build"]
        out["graph.build_calls"] = calls["graph.build"]
        out["graph.connected_s"] = s["graph.connected"]
        out["graph.parse_s"] = s["graph.parse"]
        out["labeling.validate_s"] = s["labeling.validate"]
        out["labeling.validate_calls"] = calls["labeling.validate"]
        out["bounds.scan_s"] = s["bounds.scan"]
        out["bounds.scan.graphs_scanned"] = count["bounds.scan"]
        out["bounds.scan.connected_share"] = ratio(count["bounds.scan"], under_scan["graph.build"])
        out["bounds.scan.dr_share"] = ratio(under_scan["solvers.gdr"], under_scan["solvers.gr"])
        out["bounds.check_s"] = s["bounds.check"]
        out["formulas.s"] = s["formulas"]
        out["report.render_s"] = s["report.render"]
        out["report.bytes"] = count["report.render"]
        out["cli.self_s"] = s[MAIN_SPAN]
        return out

    def write(self, path: Path):
        """All spans as gzipped TSV, times in seconds from the first span."""
        origin = self.start[0] if len(self) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tcmd\tcount\tvalue\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i] - origin:.7f}\t"
                    f"{self.end[i] - origin:.7f}\t{self.parent[i]}\t{self.cmd[i]}\t"
                    f"{self.count[i]}\t{self.value[i]}\n"
                )
