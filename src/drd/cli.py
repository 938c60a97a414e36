"""Command-line interface.

Subcommands: compute (invariants on one graph), verify (labeling validity),
check (theorem suites over parameter sweeps), construct (family and
realization graphs). Exit codes: 0 clean, 1 a mathematical claim failed,
2 bad usage or input, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import bounds as B
from . import formulas as F
from . import report as R
from .errors import (
    DrdError,
    ExcludedCaseError,
    GraphParseError,
    InvalidArgumentsError,
    InvalidSpecError,
    ResourceLimitError,
    WrongFormulaError,
)
from .graph import MAX_GRAPH_N, FamilySpec, Graph, generate, parse_graph, serialize_graph
from .labeling import (
    DRLabeling,
    RomanLabeling,
    is_dominating,
    is_valid_drdf,
    is_valid_rdf,
    parse_labeling,
)
from .solvers import solve_domination, solve_double_roman, solve_roman

USAGE_ERRORS = (
    InvalidSpecError,
    InvalidArgumentsError,
    GraphParseError,
    ResourceLimitError,
    ExcludedCaseError,
    WrongFormulaError,
    OSError,
)

SOLVERS = {"gamma": solve_domination, "gr": solve_roman, "gdr": solve_double_roman}

FAMILY_ALIASES = {"kpq": "complete_bipartite", "kn": "complete", "pn": "path", "cn": "cycle"}

GRAPH_ENCODINGS = ("edge_list", "graph6")


def parse_family(text: str) -> FamilySpec:
    """Compact family syntax: kind:params, '+' joining disjoint parts.

    Examples: cycle:7, kpq:2,3, grid2:5, star:2+trivial:3.
    """
    parts = [p.strip() for p in text.split("+")]
    specs = []
    for part in parts:
        if not part:
            raise InvalidSpecError(f"empty part in family spec {text!r}")
        kind, _, raw = part.partition(":")
        kind = FAMILY_ALIASES.get(kind.strip(), kind.strip())
        params: tuple[int, ...] = ()
        if raw.strip():
            try:
                params = tuple(int(x) for x in raw.split(","))
            except ValueError:
                raise InvalidSpecError(f"non-integer parameter in {part!r}") from None
        specs.append(FamilySpec(kind, params))
    if len(specs) == 1:
        return specs[0]
    return FamilySpec("disjoint_union", parts=tuple(specs))


def _add_graph_source(p: argparse.ArgumentParser):
    # each flag keeps every occurrence, so a repeated one is never dropped
    p.add_argument("--family", action="append", help="family spec, e.g. cycle:7 or kpq:2,3")
    p.add_argument("--edge-list", action="append", help="path to an edge-list file, '-' for stdin")
    p.add_argument("--graph6", action="append", help="graph6 text")


def _read_edge_list(path: str) -> str:
    """The ASCII text of the file at ``path``, or of stdin for '-'."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as e:
        raise GraphParseError("edge-list input is not ASCII", byte=e.start) from None


def resolve_graphs(args, parser: argparse.ArgumentParser) -> list[tuple[Graph, str]]:
    """Collect (graph, description) pairs from whichever source flags appear."""
    out: list[tuple[Graph, str]] = []
    for spec in args.family or ():
        out.append((generate(parse_family(spec)), spec))
    for path in args.edge_list or ():
        out.append((parse_graph(_read_edge_list(path), "edge_list"), path))
    for text in args.graph6 or ():
        out.append((parse_graph(text, "graph6"), text))
    if not out:
        parser.error("no graph given: use --family, --edge-list or --graph6")
    return out


def resolve_one_graph(args, parser) -> tuple[Graph, str]:
    # the sources are counted before any is built, so a second one is refused at once
    if sum(len(flag or ()) for flag in (args.family, args.edge_list, args.graph6)) > 1:
        parser.error("exactly one graph source expected")
    return resolve_graphs(args, parser)[0]


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        ns = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise InvalidArgumentsError(f"bad range {text!r}") from None
    if not ns:  # lo > hi: an empty check would report a vacuous pass
        raise InvalidArgumentsError(f"empty range {text!r}")
    return ns


# ---------------------------------------------------------------------------
# Subcommand bodies. Each returns (inputs, rows, raw_stdout_or_None).

def cmd_compute(args, parser):
    g, desc = resolve_one_graph(args, parser)
    solver = SOLVERS[args.invariant]
    res = solver(g, canonical=args.canonical, max_n=args.max_n)
    row: dict = {"id": args.invariant, "params": {"graph": desc, "n": g.n}, "value": res.value}
    if args.witness or args.canonical:
        row["witness"] = R.witness_text(res.witness)
    if args.stats:
        row["nodes"] = res.nodes_explored
    return {"graph": desc, "invariant": args.invariant}, [row], None


def cmd_verify(args, parser):
    g, desc = resolve_one_graph(args, parser)
    params = {"graph": desc, "labeling": args.labeling, "kind": args.kind}
    inputs = {"graph": desc, "kind": args.kind}
    if args.kind == "dominating":
        try:
            members = [int(x) for x in args.labeling.split(",") if x.strip() != ""]
        except ValueError:
            raise InvalidArgumentsError(
                f"dominating-set text must be comma-separated vertices: {args.labeling!r}"
            ) from None
        row = {"id": "valid_dominating", "params": params, "holds": is_dominating(g, members)}
        return inputs, [row], None
    f = parse_labeling(args.labeling, args.kind)
    if args.kind == "drdf":
        assert isinstance(f, DRLabeling)
        verdict = is_valid_drdf(g, f)
    else:
        assert isinstance(f, RomanLabeling)
        verdict = is_valid_rdf(g, f)
    return inputs, [R.row_from_verdict(args.kind, verdict, params)], None


def cmd_check_fundamental(args, parser):
    mode = "all_minima" if args.all_minima else "witness_only"
    # witness_only reads the partition of one witness: under --canonical that
    # is the canonical one, which does not depend on the solver's route
    canonical = args.canonical and not args.all_minima
    rows = []
    descs = []
    for g, desc in resolve_graphs(args, parser):
        descs.append(desc)
        gdr = solve_double_roman(g, canonical=canonical)
        gam = solve_domination(g).value
        rows.extend(R.row_from_bound(br) for br in B.check_fundamental(g, gdr.value, gam))
        try:
            rows.extend(
                R.row_from_bound(br) for br in B.check_min_drdf_partition(g, mode, gdr, gam)
            )
        except ResourceLimitError as e:
            rows.append(R.skipped_row("min_drdf_partition", desc, str(e)))
    return {"graphs": descs, "mode": mode}, rows, None


def cmd_check_cartesian(args, parser):
    graphs = resolve_graphs(args, parser)
    if len(graphs) == 1:
        graphs = graphs * 2
    if len(graphs) != 2:
        parser.error("cartesian check expects one or two graph sources")
    (g, dg), (h, dh) = graphs
    try:
        rows = [R.row_from_bound(br) for br in B.check_cartesian(g, h)]
    except ResourceLimitError as e:
        rows = [R.skipped_row("cartesian_bounds", f"{dg} x {dh}", str(e))]
    return {"g": dg, "h": dh}, rows, None


def cmd_check_twins(args, parser):
    g, desc = resolve_one_graph(args, parser)
    if args.all_vertices:
        vertices = list(range(g.n))
    elif args.vertex is not None:
        vertices = [args.vertex]
    else:
        parser.error("give --vertex U or --all-vertices")
    kinds = {"true": ("true_twin",), "false": ("false_twin",),
             "both": ("true_twin", "false_twin")}[args.kind]
    rows = []
    base = None  # gamma_dR(g), solved by the first row that gets past the size cap
    for u in vertices:
        for kind in kinds:
            try:
                br = B.check_twin(g, u, kind, base)
                base = br.rhs[0]
                rows.append(R.row_from_bound(br))
            except ResourceLimitError as e:
                rows.append(R.skipped_row(f"{kind}_sandwich", f"{desc}, vertex {u}", str(e)))
    return {"graph": desc, "kind": args.kind}, rows, None


def _formula_vs_solver_row(fr: F.FormulaResult) -> dict:
    assert fr.graph is not None
    solver_value = solve_double_roman(fr.graph).value
    row = {
        "id": fr.theorem,
        "params": {"family": fr.family, "params": list(fr.params)},
        "lhs": solver_value,
        "rhs": fr.value,
        "relation": "eq",
        "holds": solver_value == fr.value,
    }
    if fr.witness is not None:
        row["witness"] = R.witness_text(fr.witness)
    return row


def cmd_check_corona(args, parser):
    spec = parse_family(args.family)
    if args.double:
        fr = F.gamma_dr_double_corona(generate(spec))
        inputs = {"family": args.family, "double": True}
    elif args.with_family:
        fr = F.gamma_dr_corona_nontrivial(generate(spec), generate(parse_family(args.with_family)))
        inputs = {"family": args.family, "with": args.with_family}
    else:
        fr = F.gamma_dr_corona_k1(spec.kind, spec.params)
        inputs = {"family": args.family}
    return inputs, [_formula_vs_solver_row(fr)], None


def cmd_check_grids(args, parser):
    ns = _parse_range(args.n)
    if 2 * ns[-1] > MAX_GRAPH_N:  # grid2(n) has 2n vertices: refuse before solving any
        raise ResourceLimitError(f"graphs support n <= {MAX_GRAPH_N}, got grid2({ns[-1]})"
                                 f" with n = {2 * ns[-1]}")
    rows = []
    for n in ns:
        try:
            fr = F.gamma_dr_grid2(n)
        except ExcludedCaseError as e:
            rows.append({"id": "grid2_closed_form", "params": {"n": n}, "skipped": str(e)})
            continue
        row = _formula_vs_solver_row(fr)
        row["params"] = {"n": n}
        rows.append(row)
    return {"n": args.n}, rows, None


def cmd_check_pairs(args, parser):
    if args.threads < 1:
        raise InvalidArgumentsError(f"--threads must be >= 1, got {args.threads}")
    sr = B.scan_pair_realizability(
        args.a, args.b, n_max=args.nmax, connected_only=args.connected_only
    )
    return {"a": args.a, "b": args.b, "nmax": args.nmax}, [R.row_from_scan(sr)], None


def cmd_construct(args, parser):
    if args.target == "family":
        if not args.spec:
            parser.error("construct family needs --spec")
        g = generate(parse_family(args.spec))
        row: dict = {"id": "family", "params": {"spec": args.spec}}
        inputs = {"target": "family", "spec": args.spec}
    elif args.target == "corona_realization":
        if args.n is None or args.m is None:
            parser.error("corona_realization needs --n and --m")
        g, expected = B.build_corona_realization(args.n, args.m)
        row = {"id": "corona_realization", "params": {"n": args.n, "m": args.m},
               "value": expected}
        inputs = {"target": "corona_realization", "n": args.n, "m": args.m}
    else:
        if args.b is None or args.i is None:
            parser.error("roman_pair needs --b and --i")
        g, (ea, eb) = B.build_roman_pair_graph(args.b, args.i)
        row = {"id": "roman_pair",
               "params": {"b": args.b, "i": args.i, "gr": ea, "gdr": eb}}
        inputs = {"target": "roman_pair", "b": args.b, "i": args.i}

    encoding = args.format if args.format in GRAPH_ENCODINGS else "edge_list"
    text = serialize_graph(g, encoding)
    if not text.endswith("\n"):
        text += "\n"
    if g.n <= 62:  # graph6's short form; the report schema does not require the field
        row["graph"] = serialize_graph(g, "graph6")
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        with open(args.output + ".json", "w", encoding="ascii") as fh:
            json.dump(row, fh, indent=2)
            fh.write("\n")
    raw = text if args.format in GRAPH_ENCODINGS else None
    return inputs, [row], raw


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drd",
        description="Exact double Roman domination: solvers, formulas, bound checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument(
        "--canonical", action="store_true",
        help="canonical witnesses and byte-stable reports (elapsed time zeroed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[common], help="compute an invariant")
    _add_graph_source(p)
    p.add_argument("--invariant", choices=("gamma", "gr", "gdr"), default="gdr")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--max-n", type=int, default=None, help="override the solver size cap")
    p.set_defaults(func=cmd_compute, parser=p)

    p = sub.add_parser("verify", parents=[common], help="verify a labeling or set")
    _add_graph_source(p)
    p.add_argument("--labeling", required=True, help="comma-separated values, e.g. 0,3,0")
    p.add_argument("--kind", choices=("drdf", "rdf", "dominating"), default="drdf")
    p.set_defaults(func=cmd_verify, parser=p)

    check = sub.add_parser("check", help="run a verification suite")
    csub = check.add_subparsers(dest="suite", required=True)

    p = csub.add_parser("fundamental", parents=[common])
    _add_graph_source(p)
    p.add_argument("--all-minima", action="store_true",
                   help="check the partition bounds on every minimum labeling")
    p.set_defaults(func=cmd_check_fundamental, parser=p)

    p = csub.add_parser("cartesian", parents=[common])
    _add_graph_source(p)
    p.set_defaults(func=cmd_check_cartesian, parser=p)

    p = csub.add_parser("twins", parents=[common])
    _add_graph_source(p)
    p.add_argument("--vertex", type=int, default=None)
    p.add_argument("--all-vertices", action="store_true")
    p.add_argument("--kind", choices=("true", "false", "both"), default="both")
    p.set_defaults(func=cmd_check_twins, parser=p)

    p = csub.add_parser("corona", parents=[common])
    p.add_argument("--family", required=True, help="base family spec")
    p.add_argument("--with", dest="with_family", default=None,
                   help="corona with this family instead of a pendant vertex")
    p.add_argument("--double", action="store_true", help="pendant corona applied twice")
    p.set_defaults(func=cmd_check_corona, parser=p)

    p = csub.add_parser("grids", parents=[common])
    p.add_argument("--n", required=True, help="single n or range lo..hi")
    p.set_defaults(func=cmd_check_grids, parser=p)

    p = csub.add_parser("pairs", parents=[common])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--connected-only", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and must be >= 1; the scan "
                        "solves each isomorphism class once on one process")
    p.set_defaults(func=cmd_check_pairs, parser=p)

    p = sub.add_parser("construct", help="emit a constructed graph")
    p.add_argument("target", choices=("family", "corona_realization", "roman_pair"))
    p.add_argument("--spec", help="family spec (for target=family)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--format",
                   choices=("table", "json", "csv", "edge_list", "graph6"), default="table")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--output", default=None, help="write the graph here plus a .json sidecar")
    p.set_defaults(func=cmd_construct, parser=p)
    return parser


# main parses with one parser per process: parse_args leaves the parser
# unchanged, and "append" options start from a fresh list on every call.
_shared_parser = functools.cache(build_parser)


def _command_name(args) -> str:
    if getattr(args, "suite", None):
        return f"check {args.suite}"
    if getattr(args, "target", None):
        return f"construct {args.target}"
    return args.command


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    start = time.monotonic()
    try:
        # each body gets its own subparser, so its usage errors name the subcommand
        inputs, rows, raw = args.func(args, args.parser)
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DrdError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # any other fault is internal too; exit 1 means a claim failed
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if raw is not None:
        sys.stdout.write(raw)
        return 0
    elapsed = 0 if args.canonical else int((time.monotonic() - start) * 1000)
    report = R.make_report(_command_name(args), inputs, rows, elapsed)
    sys.stdout.write(R.render(report, args.format))
    return 0 if report.status == "ok" else 1


def entrypoint():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
