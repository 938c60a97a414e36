"""The tail percentile rule, the speed normalisation of times, peak memory
and the environment record of a run."""

from __future__ import annotations

import os
import platform
import resource
import signal
import time
from pathlib import Path

TAIL_BEYOND = 10

# Speed normalisation. The CPU this benchmark gets is shared with other
# tenants: the same pass of deterministic work took 4.8 s to 8.4 s within
# twelve minutes, with CPU time equal to wall time and steal near zero, and a
# fixed loop on one core switched between about 14 ms and 22 ms from one
# second to the next. So while a timed command runs, a SIGALRM handler runs a
# fixed reference loop every SAMPLE_EVERY_S and times it. A command's
# normalised time is its wall time, less the time spent in the handler,
# times REF_NOMINAL_S over the mean reference-loop time of the samples taken
# while it ran: the seconds it would take when the reference loop takes
# REF_NOMINAL_S (about its time on an uncontended core of a Xeon host).
SAMPLE_EVERY_S = 0.01
REF_NOMINAL_S = 2.0e-4
REF_QUEENS = 7  # the reference loop counts the 40 solutions of 7 queens


def tail(samples: list[float], min_samples: int) -> tuple[float, float, int]:
    """The highest percentile that has at least TAIL_BEYOND samples above it
    in every run, where a run has at least `min_samples` samples.

    Returns (value, percentile, samples beyond). The k-th smallest of N
    samples (1-based) is the 100*k/N percentile; the percentile is fixed at
    k = min_samples - TAIL_BEYOND of min_samples, so that it does not move
    with the number of passes a run fits in, and the value is the sample of
    nearest rank to it in `samples`. With min_samples <= TAIL_BEYOND no
    percentile qualifies, and the maximum is returned as percentile 100 with
    0 samples beyond, so that the caller can see the tail is unresolved.
    """
    if not samples:
        raise ValueError("tail of no samples")
    if len(samples) < min_samples:
        raise ValueError(f"{len(samples)} samples, fewer than the {min_samples} promised")
    ordered = sorted(samples)
    n = len(ordered)
    k = min_samples - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0, 0
    rank = -(-k * n // min_samples)  # ceil(n * k / min_samples)
    return ordered[rank - 1], 100.0 * k / min_samples, n - rank


def reference_loop() -> int:
    """Depth-first count of the n-queens solutions for n = REF_QUEENS, on
    bit masks: integer, tuple and list work like a branch-and-bound solver's,
    in the benchmark's own code so that changes to drd do not move it."""
    full = (1 << REF_QUEENS) - 1
    count = 0
    stack = [(0, 0, 0)]
    while stack:
        cols, left, right = stack.pop()
        if cols == full:
            count += 1
            continue
        free = full & ~(cols | left | right)
        while free:
            bit = free & -free
            free ^= bit
            stack.append((cols | bit, ((left | bit) << 1) & full, (right | bit) >> 1))
    return count


class SpeedSampler:
    """Times the reference loop every SAMPLE_EVERY_S while installed.

    ``ref_s`` and ``samples`` only grow; take differences around an
    interval. Only for the main thread of a process that uses no other
    SIGALRM or ITIMER_REAL.
    """

    def __init__(self):
        self.ref_s = 0.0
        self.samples = 0
        self._sampling = False

    def sample(self, *_):
        if self._sampling:  # the timer fired inside a direct call
            return
        self._sampling = True
        t0 = time.perf_counter()
        reference_loop()
        self.ref_s += time.perf_counter() - t0
        self.samples += 1
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def normalized(wall_s: float, ref_s: float, mean_ref_s: float) -> float:
    """Normalised seconds of an interval of `wall_s`, `ref_s` of which went
    to reference loops, when the loop took `mean_ref_s` on average."""
    return (wall_s - ref_s) * REF_NOMINAL_S / mean_ref_s


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def cpu_steal_s() -> float | None:
    """Machine-wide CPU time stolen by the hypervisor so far (from /proc/stat)."""
    fields = (_read("/proc/stat") or "").split("\n", 1)[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git; None
    when the tree is not a git checkout."""
    head = _read(str(root / ".git" / "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(root / ".git" / ref))
    if direct:
        return direct.strip()
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "loadavg_start": loadavg(),
    }
