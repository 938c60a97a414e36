"""Seeded command lists for the benchmark workloads.

Every command is an argv list for ``drd.cli.main`` plus an ``expect`` record
that ``checks.py`` uses to judge the command's output. The program only ever
sees the argv strings: family specs, graph6 text and scan parameters. This
module uses the standard library alone, so building a list costs the same
whatever the state of the program under test.

The same workload name, seed and pass index always give a byte-identical
list (``list_bytes``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

INVARIANTS = ("gamma", "gr", "gdr")
COMPUTE_FLAGS = ("--canonical", "--witness", "--stats", "--format", "json")
REPORT_FLAGS = ("--canonical", "--format", "json")

# families: deep branch-and-bound on the paper's families.
FAMILY_SOLVES = ("path:19", "cycle:20", "grid2:9")
GRID_RANGE = (1, 10)
CORONA_BASES = (("path:9", False), ("cycle:9", False), ("path:6", True), ("cycle:6", True))

# random-graphs: graphs per edge probability for each vertex count. Graphs
# on at most CROSS_CHECK_MAX_N vertices are drawn once per seed and reused in
# every pass, because each costs a brute-force cross-check. Larger graphs are
# drawn afresh for every pass: their solve times are heavy-tailed, and a run
# that sees more of them has a median pass time that depends less on the seed.
# n stops at 16: on 17 and 18 vertices a sparse graph can take 0.3 to 1 s, and
# the few of them a 30 s run can hold made its tail latency depend on the seed.
EDGE_PROBS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
GRAPHS_PER_PROB = {8: 1, 9: 1, 10: 1, 11: 1, 12: 1, 13: 3, 14: 3, 15: 3, 16: 4}
CROSS_CHECK_MAX_N = 12
FUNDAMENTAL_MAX_N = 10  # check fundamental --all-minima enumerates 3^n labelings

# pair-scan: two misses, so each scans every connected labeled graph on
# at most six vertices (1 + 1 + 4 + 38 + 728 + 26704).
PAIR_SCANS = ((4, 5), (2, 4))
PAIR_NMAX = 6
CONNECTED_GRAPHS_UP_TO_6 = 27476


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: dict


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """Short-form graph6 (n <= 62): bits x(i, j) for j = 1..n-1, i < j,
    packed big-endian into 6-bit groups offset by 63."""
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 short form needs 1 <= n <= 62, got {n}")
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = (group << 1) | b
        chars.append(chr(group + 63))
    return "".join(chars)


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) edges as (i, j) with i < j, drawn in graph6 bit order."""
    return [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]


def families(rng: random.Random, _fresh: random.Random) -> list[Command]:
    cmds = [
        Command(
            ("compute", "--family", spec, "--invariant", inv) + COMPUTE_FLAGS,
            {"kind": "compute", "family": spec, "invariant": inv},
        )
        for spec in FAMILY_SOLVES
        for inv in INVARIANTS
    ]
    lo, hi = GRID_RANGE
    cmds.append(
        Command(("check", "grids", "--n", f"{lo}..{hi}") + REPORT_FLAGS,
                {"kind": "grids", "ns": list(range(lo, hi + 1))})
    )
    for spec, double in CORONA_BASES:
        argv = ("check", "corona", "--family", spec) + (("--double",) if double else ())
        cmds.append(Command(argv + REPORT_FLAGS,
                            {"kind": "corona", "family": spec, "double": double}))
    rng.shuffle(cmds)
    return cmds


def random_graphs(fixed: random.Random, fresh: random.Random) -> list[Command]:
    cmds = []
    for n, count in GRAPHS_PER_PROB.items():
        rng = fixed if n <= CROSS_CHECK_MAX_N else fresh
        for p in EDGE_PROBS:
            for _ in range(count):
                edges = gnp_edges(rng, n, p)
                text = graph6(n, edges)
                graph = {"n": n, "edges": edges}
                for inv in INVARIANTS:
                    cmds.append(Command(
                        ("compute", "--graph6", text, "--invariant", inv) + COMPUTE_FLAGS,
                        {"kind": "compute", "graph": graph, "invariant": inv},
                    ))
                if n <= FUNDAMENTAL_MAX_N:
                    cmds.append(Command(
                        ("check", "fundamental", "--graph6", text, "--all-minima")
                        + REPORT_FLAGS,
                        {"kind": "fundamental", "graph": graph},
                    ))
    fresh.shuffle(cmds)
    return cmds


def pair_scan(rng: random.Random, _fresh: random.Random) -> list[Command]:
    cmds = [
        Command(
            ("check", "pairs", "--a", str(a), "--b", str(b), "--nmax", str(PAIR_NMAX),
             "--threads", "1") + REPORT_FLAGS,
            {"kind": "pairs", "a": a, "b": b, "scanned": CONNECTED_GRAPHS_UP_TO_6},
        )
        for a, b in PAIR_SCANS
    ]
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {"families": families, "random-graphs": random_graphs, "pair-scan": pair_scan}


def build(workload: str, seed: int, pass_index: int = 0) -> list[Command]:
    """The command list of one pass of a workload.

    Only random-graphs varies between passes. String seeds keep the lists
    independent of PYTHONHASHSEED and distinct between workloads.
    """
    fixed = random.Random(f"{workload}:{seed}")
    fresh = random.Random(f"{workload}:{seed}:{pass_index}")
    return WORKLOADS[workload](fixed, fresh)


def list_bytes(cmds: list[Command]) -> bytes:
    return json.dumps([list(c.argv) for c in cmds], separators=(",", ":")).encode()
