"""Benchmark of drd through its command-line entry point.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload families --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): families, random-graphs,
pair-scan. Every command goes through ``drd.cli.main(argv)`` in this process,
one at a time, with stdout captured; a subprocess per command would add
interpreter start-up that dwarfs a small ``compute``. A run repeats passes
over the workload's commands until the next pass would end after
``--seconds``, then checks every captured output (checks.py) outside the
timed region.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over SETUP_REPEATS fresh interpreters of importing drd
               and building the workload's command list
  wall_s       median time of one pass
  cmd_s.p50    median time of one command, over all passes
  cmd_s.tail   highest percentile of the command times that has at least ten
               samples beyond it in a run of MIN_PASSES passes (percentile and
               sample count are printed)
  peak_rss_mb  peak resident memory of this process by the end of the first
               pass, so that it does not grow with the number of passes
The four times are speed-normalised seconds (measure.py): wall time less
the time of the reference loops sampled during it, scaled by the reference
loop's nominal over its measured time. A command with fewer than
MIN_CMD_SAMPLES samples is scaled by the mean of its whole pass. The raw
wall-clock medians are printed beside them and kept in the record.
The failed share of commands (fail_frac) is printed and is ``failed /
attempted`` in the result line.

``--trace 1`` alternates untraced and traced passes of the same commands
(tracer.py) and reports the per-layer metrics of the traced passes (medians
over passes), the canonical-pass extra work and the tracing overhead (median
traced minus untraced pass time). It does not measure set-up.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A full record, with the environment and, for traced runs,
the spans, goes to .perfbench_out/ under the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
from statistics import median
from pathlib import Path

import workloads
from measure import (SpeedSampler, cpu_steal_s, environment, loadavg, normalized,
                     peak_rss_mb, tail)
from tracer import LAYER_METRICS, MAIN_SPAN, Tracer

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_REPEATS = 9
# every run has at least MIN_PASSES passes, which fixes the tail percentile
MIN_PASSES = 3
# a command with fewer reference samples than this (under 0.1 s) is
# normalised by the mean of its whole pass: a few samples are too noisy
MIN_CMD_SAMPLES = 10
# untimed reference samples at the end of each pass and set-up probe, so
# that even a very short one has a speed to be normalised by
END_SAMPLES = 10

SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from measure import SpeedSampler
with SpeedSampler() as speed:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import drd.cli, workloads
    workloads.build(sys.argv[3], int(sys.argv[4]))
    wall = time.perf_counter() - t0
    ref_s = speed.ref_s
for _ in range(int(sys.argv[5])):
    speed.sample()
print(wall, ref_s, speed.ref_s / speed.samples)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program(root: Path):
    """Import drd from ./src of the current directory, never from elsewhere."""
    src = root / "src"
    if not (src / "drd" / "cli.py").is_file():
        raise SystemExit(f"error: no drd sources under {src}")
    sys.path.insert(0, str(src))
    import drd.cli

    if Path(drd.cli.__file__).resolve().parent != (src / "drd").resolve():
        raise SystemExit(f"error: imported drd from {drd.cli.__file__}, not {src}")
    return drd.cli


def measure_setup(root: Path, workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, normalised) import-and-build times in fresh interpreters,
    interpreter start excluded."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(root / "src"), str(BENCH_DIR),
             workload, str(seed), str(END_SAMPLES)],
            cwd=root, capture_output=True, text=True, timeout=60, check=True,
        )
        wall, ref_s, mean_ref_s = map(float, proc.stdout.split())
        times.append((wall, normalized(wall, ref_s, mean_ref_s)))
    return times


def run_command(main, argv: tuple[str, ...]) -> tuple[float, object, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a crash is a failed command, not a failed run
            rc = f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, rc, out.getvalue()


class Pass:
    def __init__(self, cmds: list[workloads.Command]):
        self.cmds = cmds
        self.times: list[float] = []
        self.refs: list[tuple[float, int]] = []  # reference time and samples per command
        self.results: list[tuple[object, str]] = []
        self.wall = 0.0
        self.mean_ref_s = 0.0

    def run(self, main, before_each=None, speed: SpeedSampler | None = None):
        """Runs the commands; with `speed`, also records the reference
        samples taken during each command and the mean over the pass."""
        pass_start = (speed.ref_s, speed.samples) if speed else None
        t0 = time.perf_counter()
        for cmd in self.cmds:
            if before_each is not None:
                before_each()
            start = (speed.ref_s, speed.samples) if speed else None
            dt, rc, out = run_command(main, cmd.argv)
            if speed:
                self.refs.append((speed.ref_s - start[0], speed.samples - start[1]))
            self.times.append(dt)
            self.results.append((rc, out))
        self.wall = time.perf_counter() - t0
        if speed:
            for _ in range(END_SAMPLES):
                speed.sample()
            self.mean_ref_s = ((speed.ref_s - pass_start[0])
                               / (speed.samples - pass_start[1]))
        return self

    def normalized_times(self) -> list[float]:
        return [normalized(dt, ref_s, ref_s / n if n >= MIN_CMD_SAMPLES else self.mean_ref_s)
                for dt, (ref_s, n) in zip(self.times, self.refs)]


def run_passes(make_pass, main, seconds: float) -> tuple[list[Pass], float]:
    """Passes until the next one, as long as the last, would end after
    `seconds`; at least MIN_PASSES. Also returns the peak RSS reached by the
    end of the first pass, before later passes add to the kept outputs."""
    passes = []
    t0 = time.perf_counter()
    with SpeedSampler() as speed:
        while True:
            passes.append(make_pass(len(passes)).run(main, speed=speed))
            if len(passes) == 1:
                rss_mb = peak_rss_mb()
            elapsed = time.perf_counter() - t0
            if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > seconds:
                return passes, rss_mb


def check_passes(passes: list[Pass]) -> tuple[int, int, dict[str, int]]:
    from checks import Checker  # imports drd, so only after import_program

    checker = Checker()
    attempted = failed = 0
    reasons: dict[str, int] = {}
    for p in passes:
        for cmd, (rc, out) in zip(p.cmds, p.results):
            attempted += 1
            reason = checker.check(cmd, rc, out)
            if reason is not None:
                failed += 1
                key = f"{' '.join(cmd.argv[:2])}: {reason}"
                reasons[key] = reasons.get(key, 0) + 1
    return attempted, failed, reasons


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]], rss_mb: float):
    """Normalised metrics, and the raw wall-clock values beside them."""
    per_pass = [p.normalized_times() for p in passes]
    samples = [t for times in per_pass for t in times]
    raw_samples = [t for p in passes for t in p.times]
    min_samples = MIN_PASSES * len(passes[0].cmds)
    tail_value, pct, beyond = tail(samples, min_samples)
    metrics = {
        "setup_s": metric(median(n for _, n in setup), "s"),
        "wall_s": metric(median(sum(times) for times in per_pass), "s"),
        "cmd_s.p50": metric(median(samples), "s"),
        "cmd_s.tail": metric(tail_value, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    raw = {
        "setup_s": median(w for w, _ in setup),
        "wall_s": median(sum(p.times) for p in passes),
        "cmd_s.p50": median(raw_samples),
        "cmd_s.tail": tail(raw_samples, min_samples)[0],
    }
    detail = {"tail_percentile": pct, "tail_beyond": beyond, "samples": len(samples),
              "raw": raw, "pass_mean_ref_s": [p.mean_ref_s for p in passes]}
    return metrics, detail


def traced(cli, make_pass, seconds: float):
    """Pairs of an untraced and a traced pass; per-layer metrics as medians
    over the traced passes, tracing overhead as the median difference."""
    tracer = Tracer()
    main = tracer.wrap(MAIN_SPAN, cli.main)

    def before_each():
        tracer.cmd_id += 1  # unique over all traced passes

    # every pass repeats pass 0, so that counts are the same in each
    plain, passes, bounds = [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(make_pass(0).run(cli.main))
        lo = len(tracer)
        tracer.record_canonical = not passes
        with tracer.installed():
            passes.append(make_pass(0).run(main, before_each))
        bounds.append((lo, len(tracer)))
        if time.perf_counter() - t0 + plain[-1].wall + passes[-1].wall > seconds:
            break
    tracer.record_canonical = False

    per_pass = [tracer.layer_metrics(lo, hi) for lo, hi in bounds]
    values = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}

    # canonical-pass extra work: re-solve each canonical solve of the first
    # traced pass, untraced, with canonical=True and then canonical=False
    extra_nodes, extra_s = 0, 0.0
    for fn, args, kwargs in tracer.canonical_calls:
        for sign, canonical in ((1, True), (-1, False)):
            t = time.perf_counter()
            result = fn(*args, **{**kwargs, "canonical": canonical})
            extra_s += sign * (time.perf_counter() - t)
            extra_nodes += sign * result.nodes_explored
    values["solvers.canonical_extra_nodes"] = extra_nodes
    values["solvers.canonical_extra_s"] = extra_s
    values["trace.overhead_s"] = median([t.wall - u.wall for u, t in zip(plain, passes)])

    units = dict(LAYER_METRICS)
    metrics = {name: metric(values[name], units[name]) for name, _ in LAYER_METRICS}
    return plain + passes, metrics, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    cli = import_program(root)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(root)
    steal_start = cpu_steal_s()

    def make_pass(index: int) -> Pass:
        return Pass(workloads.build(args.workload, args.seed, index))

    tracer, setup, detail = None, [], {}
    if args.trace:
        passes, metrics, tracer = traced(cli, make_pass, args.seconds)
    else:
        setup = measure_setup(root, args.workload, args.seed)
        passes, rss_mb = run_passes(make_pass, cli.main, args.seconds)
        metrics, detail = end_to_end(passes, setup, rss_mb)
    attempted, failed, reasons = check_passes(passes)
    env["loadavg_end"] = loadavg()
    if steal_start is not None:
        env["cpu_steal_s"] = cpu_steal_s() - steal_start

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  commands/pass {len(passes[0].cmds)}")
    for name, m in metrics.items():
        note = ""
        if name in detail.get("raw", {}):
            note = f"  (raw {detail['raw'][name]:.6g} s)"
        if name == "cmd_s.tail":
            note += (f"  (p{detail['tail_percentile']:.1f} of {detail['samples']} samples, "
                     f"{detail['tail_beyond']} beyond)")
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_frac':34s} {failed / attempted:.6g} ({failed}/{attempted})")
    for reason, n in sorted(reasons.items()):
        print(f"  FAIL x{n}: {reason}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics, "detail": detail,
        "setup_samples": setup, "pass_walls": [p.wall for p in passes],
        "command_times": [p.times for p in passes], "command_refs": [p.refs for p in passes],
        "commands_per_pass": [len(p.cmds) for p in passes],
        "attempted": attempted, "failed": failed, "fail_reasons": reasons,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.tsv.gz")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
