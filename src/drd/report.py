"""Uniform result reporting: row dicts, status folding, JSON/CSV/table text.

A report is a command echo, a list of result rows and a status. Rows are
plain dicts restricted to the keys fixed in report_schema.json so that the
JSON form validates and the CSV form carries identical content.
"""

from __future__ import annotations

import io
import json
from typing import NamedTuple

from .bounds import BoundReport, PairScanResult
from .graph import serialize_graph6
from .labeling import Labeling, Verdict, serialize_labeling

CSV_COLUMNS = (
    "id",
    "params",
    "value",
    "lhs",
    "rhs",
    "relation",
    "holds",
    "witness",
    "violations",
    "nodes",
    "found",
    "graphs_scanned",
    "graph",
    "skipped",
    "note",
)


class Report(NamedTuple):
    command: str
    inputs: dict
    results: list[dict]
    status: str
    elapsed_ms: int


def make_report(command: str, inputs: dict, results: list[dict], elapsed_ms: int) -> Report:
    bad = any(row.get("holds") is False for row in results)
    return Report(command, inputs, results, "violation" if bad else "ok", elapsed_ms)


def witness_text(witness) -> str:
    if isinstance(witness, Labeling):
        return serialize_labeling(witness)
    return ",".join(str(v) for v in sorted(witness))


def skipped_row(row_id: str, context: str, reason: str) -> dict:
    """The row of a check that did not run, saying why."""
    return {"id": row_id, "params": {"context": context}, "skipped": reason}


def row_from_bound(br: BoundReport) -> dict:
    if br.skipped is not None:
        return skipped_row(br.bound_id, br.context, br.skipped)
    row: dict = {"id": br.bound_id, "params": {"context": br.context}}
    row["lhs"] = br.lhs
    row["rhs"] = list(br.rhs) if isinstance(br.rhs, tuple) else br.rhs
    row["relation"] = br.relation
    row["holds"] = br.holds
    if br.note:
        row["note"] = br.note
    return row


def row_from_scan(sr: PairScanResult) -> dict:
    return {
        "id": "pair_scan",
        "params": {
            "a": sr.a,
            "b": sr.b,
            "n_max": sr.n_max,
            "connected_only": sr.connected_only,
        },
        "found": serialize_graph6(sr.found) if sr.found is not None else None,
        "graphs_scanned": sr.graphs_scanned,
    }


def row_from_verdict(kind: str, verdict: Verdict, params: dict) -> dict:
    row = {"id": f"valid_{kind}", "params": params, "holds": verdict.valid}
    if not verdict.valid:
        row["violations"] = [
            {"vertex": v.vertex, "condition": v.condition} for v in verdict.violations
        ]
    return row


def load_schema() -> dict:
    from importlib import resources

    text = resources.files("drd").joinpath("report_schema.json").read_text()
    return json.loads(text)


def to_json(report: Report) -> str:
    return json.dumps(report._asdict(), indent=2) + "\n"


def _cell(row: dict, col: str) -> str:
    if col not in row:
        return ""
    v = row[col]
    if col in ("params", "rhs", "violations") and not isinstance(v, (str, int)):
        return json.dumps(v, separators=(",", ":"))
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    return str(v)


def to_csv(report: Report) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.results:
        writer.writerow([_cell(row, c) for c in CSV_COLUMNS])
    return buf.getvalue()


def to_table(report: Report) -> str:
    lines = [f"command: {report.command}"]
    if report.inputs:
        pairs = " ".join(f"{k}={v}" for k, v in report.inputs.items())
        lines.append(f"inputs: {pairs}")
    for row in report.results:
        parts = [f"{row['id']}"]
        for col in CSV_COLUMNS[1:]:
            cell = _cell(row, col)
            if cell != "":
                parts.append(f"{col}={cell}")
        lines.append("  " + "  ".join(parts))
    lines.append(f"status: {report.status} ({report.elapsed_ms} ms)")
    return "\n".join(lines) + "\n"


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    return to_table(report)
