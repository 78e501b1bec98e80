"""Command line interface.

Every command reads JSON inputs, emits a machine-readable report on stdout
(json by default, csv or human on request) and reserves stderr for
diagnostics.  Exit status: 0 on success, 1 for bad input, 2 when a
verification sweep found an invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .curve import CurveError, CurveSpec, load_curve
from .denominators import (
    EvalMode,
    degree,
    evaluate,
    full_denominator,
    matrix_to_dict,
    pmt_denominator,
    pmt_gamma_denominator,
    reduce_matrix,
)
from .divisors import (
    DivisorError,
    DivisorKind,
    LeveledDivisor,
    count_divisors,
    enumerate_divisors,
)
from .ffunctions import FFunctionError, f_chain
from .operators import (
    apply_M,
    apply_N,
    apply_N_beta,
    apply_T,
    apply_T_hat,
)
from .orbits import FamilySpec, build_graph, count_family
from .verify import run_suite

VALIDATION_ERROR = 1
INVARIANT_VIOLATION = 2


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _report_meta(paths: dict[str, str]) -> dict:
    return {
        "version": __version__,
        "inputs": {name: _digest(path) for name, path in paths.items()},
    }


def _emit(report: dict, fmt: str, csv_rows=None) -> None:
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else _flatten_csv(report)
        for row in rows:
            sys.stdout.write(",".join(str(x) for x in row) + "\n")
    else:
        _emit_human(report)


def _flatten_csv(report: dict, prefix: str = ""):
    rows = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_csv(value, prefix=name + "."))
        elif isinstance(value, list):
            rows.append([name] + [str(v) for v in value])
        else:
            rows.append([name, value])
    return rows


def _emit_human(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            sys.stdout.write(f"{pad}{key}:\n")
            _emit_human(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            sys.stdout.write(f"{pad}{key}:\n")
            for item in value:
                _emit_human(item, indent + 1)
                sys.stdout.write("\n" if indent == 0 else "")
        else:
            sys.stdout.write(f"{pad}{key}: {value}\n")


def _load_divisor(path: str, curve: CurveSpec) -> LeveledDivisor:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        kind = DivisorKind(data["kind"])
        levels = data["levels"]
    except (KeyError, ValueError, TypeError) as exc:
        raise DivisorError(f"{path}: divisor document needs 'kind' and 'levels'") from exc
    try:
        return LeveledDivisor(curve, levels, kind)
    except DivisorError as exc:
        raise DivisorError(f"{path}: {exc}") from None


def _divisor_dict(div: LeveledDivisor) -> dict:
    return {"kind": div.kind.value, "levels": list(div.levels)}


# command implementations ----------------------------------------------------


def _cmd_enumerate(args) -> int:
    curve = load_curve(args.curve)
    kind = DivisorKind(args.kind)
    report = _report_meta({"curve": args.curve})
    if args.count_only:
        report["count"] = count_divisors(curve, kind, avoid=args.avoid)
        _emit(report, args.format)
        return 0
    divisors = [_divisor_dict(div) for div in enumerate_divisors(curve, kind, avoid=args.avoid)]
    report["count"] = len(divisors)
    report["divisors"] = divisors
    _emit(report, args.format, csv_rows=[d["levels"] for d in divisors])
    return 0


def _parse_ints(text: str, sep: str, count: int, what: str) -> list[int]:
    """Exactly ``count`` integers separated by ``sep``, or a DivisorError naming ``what``."""
    parts = text.split(sep) if text else []
    try:
        if len(parts) == count:
            return [int(p) for p in parts]
    except ValueError:
        pass
    raise DivisorError(f"cannot parse {what}")


def _parse_call(spec: str, table: dict, what: str):
    """``NAME`` or ``NAME:I,J,..`` as a function from ``table`` and its integer arguments."""
    name, _, arg = spec.partition(":")
    if name not in table:
        raise DivisorError(f"cannot parse {what}")
    function, arity = table[name]
    return function, _parse_ints(arg, ",", arity, what)


# the --op and --which names: name -> (function, number of integer arguments)
_OPERATORS = {
    "N": (apply_N, 0),
    "Nbeta": (apply_N_beta, 1),
    "M": (apply_M, 1),
    "T": (apply_T, 2),
    "That": (apply_T_hat, 2),
}
_DENOMINATORS = {
    "h": (full_denominator, 0),
    "g": (pmt_denominator, 1),
    "q": (pmt_gamma_denominator, 2),
}


def _cmd_apply(args) -> int:
    curve = load_curve(args.curve)
    div = _load_divisor(args.divisor, curve)
    operator, ints = _parse_call(args.op, _OPERATORS, f"operator {args.op!r}")
    image = operator(div, *ints)
    report = _report_meta({"curve": args.curve, "divisor": args.divisor})
    report["op"] = args.op
    report["result"] = _divisor_dict(image)
    _emit(report, args.format, csv_rows=[list(image.levels)])
    return 0


def _cmd_ftable(args) -> int:
    table = f_chain(args.n, args.d)
    if args.format == "csv":
        sys.stdout.write(";".join(f"{l},{v}" for l, v in enumerate(table.values)) + "\n")
        sys.stdout.write(f"c={table.cmax}\n")
        return 0
    report = _report_meta({})
    report.update(
        {"n": table.n, "d": table.d, "values": list(table.values), "c": table.cmax}
    )
    _emit(report, args.format)
    return 0


def _cmd_denominator(args) -> int:
    curve = load_curve(args.curve)
    div = _load_divisor(args.divisor, curve)
    which = args.which
    build, ints = _parse_call(which, _DENOMINATORS, f"--which {which!r}")
    matrix = build(div, *ints)
    if args.reduce:
        matrix = reduce_matrix(matrix)
    report = _report_meta({"curve": args.curve, "divisor": args.divisor})
    report["which"] = which
    report["denominator"] = matrix_to_dict(matrix)
    report["degree"] = degree(matrix)
    if args.evaluate == "exact":
        report["value"] = str(evaluate(matrix, EvalMode.EXACT_RATIONAL))
    elif args.evaluate == "log":
        logmag, sign = evaluate(matrix, EvalMode.LOG_ABS)
        report["value"] = {"log_abs": logmag, "sign": sign}
    csv_rows = [[p["i"], p["j"], p["exp_unit"]] for p in report["denominator"]["pairs"]]
    _emit(report, args.format, csv_rows=csv_rows)
    return 0


def _cmd_orbits(args) -> int:
    curve = load_curve(args.curve)
    graph = build_graph(curve, max_vertices=args.max_vertices)
    sizes = graph.component_sizes()
    report = _report_meta({"curve": args.curve})
    report.update(
        vertices=graph.vertex_count,
        edges=graph.edge_count,
        components=len(sizes),
        component_sizes=sizes,
        m_orbits=len(graph.reps),
    )
    if args.witness:
        src = _load_divisor(args.witness[0], curve)
        dst = _load_divisor(args.witness[1], curve)
        word = graph.witness(src, dst)
        report["witness"] = {"found": word is not None, "word": word}
    _emit(report, args.format)
    return 0


def _cmd_counts(args) -> int:
    with open(args.family, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        family = FamilySpec(tuple(data["c"]), tuple(data["d"]))
    except (KeyError, TypeError) as exc:
        raise DivisorError(f"{args.family}: family document needs 'c' and 'd'") from exc
    lo, hi = _parse_ints(args.n_range, "..", 2, f"--n-range {args.n_range!r}")
    if hi < lo:
        raise DivisorError(f"--n-range {args.n_range!r} runs backwards")
    n_values = list(range(lo, hi + 1))
    report_obj = count_family(family, n_values, fit=args.fit)
    report = _report_meta({"family": args.family})
    report["family"] = {"c": list(family.c), "d": list(family.d)}
    report["counts"] = [
        {
            "n": c.n,
            "skipped": c.skipped,
            "total_divisors": c.total_divisors,
            "xi_divisors": c.xi_divisors,
            "m_orbits": c.m_orbits,
            "base_point_free_xi": c.base_point_free_xi,
            "per_point_avoid": list(c.per_point_avoid),
        }
        for c in report_obj.counts
    ]
    if report_obj.fit:
        report["fit"] = {
            name: {
                "coefficients": [str(c) for c in coeffs],
                "residuals": [str(r) for r in residuals],
            }
            for name, (coeffs, residuals) in report_obj.fit.items()
        }
    csv_rows = [
        [c.n, c.total_divisors, c.m_orbits] for c in report_obj.counts if not c.skipped
    ]
    _emit(report, args.format, csv_rows=csv_rows)
    return 0


def _cmd_verify(args) -> int:
    curve = load_curve(args.curve)
    if curve.n > args.max_n:
        raise DivisorError(f"curve has n = {curve.n} above --max-n = {args.max_n}")
    checks = None if args.suite == "all" else args.suite.split(",")
    ran, findings = run_suite(
        curve, checks, max_vertices=args.max_vertices, seed=args.seed
    )
    report = _report_meta({"curve": args.curve})
    report["checks"] = ran
    report["findings"] = [{"check": f.check, "reproducer": f.reproducer} for f in findings]
    report["ok"] = not findings
    _emit(report, args.format)
    return INVARIANT_VIOLATION if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thomae",
        description="exact divisor combinatorics on fully ramified cyclic covers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "human"), default="json")

    p = sub.add_parser("enumerate", help="list or count the valid divisors of a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--kind", choices=("delta", "xi"), default="xi")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--avoid", type=int, default=None, metavar="ID")
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("apply", help="apply an operator to a divisor")
    p.add_argument("--curve", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--op", required=True, help="Nbeta:B | M:K | T:Q,R | That:Q,R | N")
    common(p)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("ftable", help="print one exponent-function table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_ftable)

    p = sub.add_parser("denominator", help="build a symbolic denominator")
    p.add_argument("--curve", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--which", default="h", help="h | g:BETA | q:Q,GAMMA")
    p.add_argument("--evaluate", choices=("exact", "log"), default=None)
    p.add_argument("--reduce", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_denominator)

    p = sub.add_parser("orbits", help="build the operator graph and its components")
    p.add_argument("--curve", required=True)
    p.add_argument("--witness", nargs=2, metavar=("FROM", "TO"))
    p.add_argument("--max-vertices", type=int, default=100000)
    common(p)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("counts", help="sweep a family of curves over n")
    p.add_argument("--family", required=True)
    p.add_argument("--n-range", required=True, metavar="A..B")
    p.add_argument("--fit", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("verify", help="run the identity sweep on one curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--suite", default="all")
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--max-vertices", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CurveError, DivisorError, FFunctionError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
