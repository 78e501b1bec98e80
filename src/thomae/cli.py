"""Command line interface.

Every command reads JSON inputs, emits a machine-readable report on stdout
(json by default, csv or human on request) and reserves stderr for
diagnostics.  Exit status: 0 on success, 1 for bad input, 2 when a
verification sweep found an invariant violation.

A command returns its report fields and its csv rows (``None`` flattens the
report) and writes nothing itself.  ``main`` owns the envelope and the exit
status: it reads each ``--curve``, ``--divisor`` and ``--family`` file once,
passes the parsed documents to the command (the curve already built), puts
``version`` and ``inputs`` (the digests of the bytes read) before the fields,
emits the report, and turns a refusal into one ``error:`` line on stderr.

Loading this module imports nothing of the package but its version: each
command imports the modules it calls, so ``--version`` and ``--help`` start
no engine module and a count job only ``curve`` and ``divisors``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

VALIDATION_ERROR = 1
INVARIANT_VIOLATION = 2
FTABLE_MAX_N = 100_000  # ftable refuses a larger n: its time and memory grow with n


def _emit(report: dict, fmt: str, csv_rows) -> None:
    if fmt == "json":
        import json

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


def _load_divisor(data, path: str, curve):
    """The divisor on ``curve`` of the document ``data`` read from ``path``."""
    from .divisors import DivisorError, DivisorKind, LeveledDivisor

    try:
        return LeveledDivisor(curve, data["levels"], DivisorKind(data["kind"]))
    except DivisorError as exc:
        raise DivisorError(f"{path}: {exc}") from None
    except (KeyError, ValueError, TypeError) as exc:
        raise DivisorError(f"{path}: divisor document needs 'kind' and 'levels'") from exc


def _divisor_dict(div) -> dict:
    return {"kind": div.kind.value, "levels": list(div.levels)}


# command implementations ----------------------------------------------------


def _cmd_enumerate(args, curve):
    from .divisors import DivisorKind, count_divisors, enumerate_divisors

    kind = DivisorKind(args.kind)
    if args.count_only:
        return {"count": count_divisors(curve, kind, avoid=args.avoid)}, None
    divisors = [_divisor_dict(div) for div in enumerate_divisors(curve, kind, avoid=args.avoid)]
    return {"count": len(divisors), "divisors": divisors}, [d["levels"] for d in divisors]


def _parse_ints(text: str, sep: str, count: int, what: str) -> list[int]:
    """Exactly ``count`` integers separated by ``sep``, or a DivisorError naming ``what``."""
    parts = text.split(sep) if text else []
    try:
        if len(parts) == count:
            return [int(p) for p in parts]
    except ValueError:
        pass
    from .divisors import DivisorError

    raise DivisorError(f"cannot parse {what}")


def _parse_call(spec: str, module, table: dict, what: str):
    """``NAME`` or ``NAME:I,J,..`` as the function of ``module`` that ``table``
    names and its integer arguments."""
    name, _, arg = spec.partition(":")
    if name not in table:
        from .divisors import DivisorError

        raise DivisorError(f"cannot parse {what}")
    function, arity = table[name]
    return getattr(module, function), _parse_ints(arg, ",", arity, what)


# the --op and --which names: name -> (function name, number of integer arguments)
_OPERATORS = {
    "N": ("apply_N", 0),
    "Nbeta": ("apply_N_beta", 1),
    "M": ("apply_M", 1),
    "T": ("apply_T", 2),
    "That": ("apply_T_hat", 2),
}
_DENOMINATORS = {
    "h": ("full_denominator", 0),
    "g": ("pmt_denominator", 1),
    "q": ("pmt_gamma_denominator", 2),
}


def _cmd_apply(args, curve, divisor):
    from . import operators

    div = _load_divisor(divisor, args.divisor, curve)
    operator, ints = _parse_call(args.op, operators, _OPERATORS, f"operator {args.op!r}")
    image = operator(div, *ints)
    return {"op": args.op, "result": _divisor_dict(image)}, [list(image.levels)]


def _cmd_ftable(args):
    from .ffunctions import FFunctionError, f_chain

    if args.n > FTABLE_MAX_N:
        raise FFunctionError(f"n = {args.n} is above the ftable cap {FTABLE_MAX_N}")
    table = f_chain(args.n, args.d)
    fields = {"n": table.n, "d": table.d, "values": list(table.values), "c": table.cmax}
    chain = ";".join(f"{l},{v}" for l, v in enumerate(table.values))
    return fields, [[chain], [f"c={table.cmax}"]]


def _cmd_denominator(args, curve, divisor):
    from . import denominators
    from .denominators import EvalMode, degree, evaluate, matrix_to_dict, reduce_matrix
    from .divisors import DivisorError

    div = _load_divisor(divisor, args.divisor, curve)
    build, ints = _parse_call(args.which, denominators, _DENOMINATORS, f"--which {args.which!r}")
    matrix = build(div, *ints)
    if args.reduce:
        matrix = reduce_matrix(matrix)
    pairs = matrix_to_dict(matrix)
    fields = {"which": args.which, "denominator": pairs, "degree": degree(matrix)}
    if args.evaluate == "exact":
        if _past_digit_limit(matrix):
            raise DivisorError(_TOO_LONG)
        value = evaluate(matrix, EvalMode.EXACT_RATIONAL)
        try:
            fields["value"] = str(value)
        except ValueError:  # an integer past the interpreter's limit on written digits
            raise DivisorError(_TOO_LONG) from None
    elif args.evaluate == "log":
        logmag, sign = evaluate(matrix, EvalMode.LOG_ABS)
        fields["value"] = {"log_abs": logmag, "sign": sign}
    return fields, [[p["i"], p["j"], p["exp_unit"]] for p in pairs["pairs"]]


_TOO_LONG = "the exact value has too many digits; try --evaluate log"


def _past_digit_limit(matrix) -> bool:
    """Whether the exact value's numerator or denominator is sure to have more
    digits than ``str`` writes, decided before any power is taken.  Every
    exponent e that the commands build is at least 0, and a factor
    (z_i - z_j) ** e with |z_i - z_j| = a/b adds between e * (floor(log2 a) -
    ceil(log2 b)) and e * (ceil(log2 a) - floor(log2 b)) to log2 |value|."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    lams = matrix.curve.lambdas
    if not limit or lams is None:  # no limit, or evaluate refuses the curve
        return False
    low = high = 0
    for (i, j), unit in matrix.items():
        diff, e = abs(lams[i] - lams[j]), matrix.unit_factor * unit
        a, b = diff.numerator, diff.denominator
        low += e * (a.bit_length() - 1 - (b - 1).bit_length())
        high += e * ((a - 1).bit_length() - b.bit_length() + 1)
    bits = (10 ** limit).bit_length()  # 2 ** bits > 10 ** limit: over limit digits
    return low >= bits or -high >= bits


def _cmd_orbits(args, curve):
    from .curve import read_document
    from .orbits import build_graph

    graph = build_graph(curve, max_vertices=args.max_vertices)
    sizes = graph.component_sizes()
    fields = {
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "components": len(sizes),
        "component_sizes": sizes,
        "m_orbits": len(graph.reps),
    }
    if args.witness:
        source, target = (_load_divisor(read_document(p)[0], p, curve) for p in args.witness)
        word = graph.witness(source, target)
        fields["witness"] = {"found": word is not None, "word": word}
    return fields, None


def _cmd_counts(args, family):
    from .divisors import DivisorError
    from .orbits import FamilySpec, count_family

    try:
        family = FamilySpec(tuple(family["c"]), tuple(family["d"]))
    except (KeyError, TypeError) as exc:
        raise DivisorError(f"{args.family}: family document needs 'c' and 'd'") from exc
    lo, hi = _parse_ints(args.n_range, "..", 2, f"--n-range {args.n_range!r}")
    if hi < lo:
        raise DivisorError(f"--n-range {args.n_range!r} runs backwards")
    report = count_family(family, range(lo, hi + 1), fit=args.fit)
    counts = [{**c._asdict(), "per_point_avoid": list(c.per_point_avoid)} for c in report.counts]
    fields = {"family": {"c": list(family.c), "d": list(family.d)}, "counts": counts}
    if report.fit:
        fields["fit"] = {
            name: {"coefficients": list(map(str, coeffs)), "residuals": list(map(str, residuals))}
            for name, (coeffs, residuals) in report.fit.items()
        }
    return fields, [[c.n, c.total_divisors, c.m_orbits] for c in report.valid_counts()]


def _cmd_verify(args, curve):
    from .divisors import DivisorError
    from .verify import run_suite

    if curve.n > args.max_n:
        raise DivisorError(f"curve has n = {curve.n} above --max-n = {args.max_n}")
    checks = None if args.suite == "all" else args.suite.split(",")
    ran, findings = run_suite(curve, checks, max_vertices=args.max_vertices, seed=args.seed)
    return {"checks": ran, "findings": [f._asdict() for f in findings], "ok": not findings}, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thomae",
        description="exact divisor combinatorics on fully ramified cyclic covers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *inputs):
        """A subcommand whose required input-file flags ``inputs`` are read by ``main``."""
        p = sub.add_parser(name, help=help)
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True)
        p.set_defaults(func=func, inputs=inputs)
        return p

    p = command("enumerate", _cmd_enumerate, "list or count the valid divisors of a curve",
                "curve")
    p.add_argument("--kind", choices=("delta", "xi"), default="xi")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--avoid", type=int, default=None, metavar="ID")

    p = command("apply", _cmd_apply, "apply an operator to a divisor", "curve", "divisor")
    p.add_argument("--op", required=True, help="Nbeta:B | M:K | T:Q,R | That:Q,R | N")

    p = command("ftable", _cmd_ftable, "print one exponent-function table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = command("denominator", _cmd_denominator, "build a symbolic denominator",
                "curve", "divisor")
    p.add_argument("--which", default="h", help="h | g:BETA | q:Q,GAMMA")
    p.add_argument("--evaluate", choices=("exact", "log"), default=None)
    p.add_argument("--reduce", action="store_true")

    p = command("orbits", _cmd_orbits, "build the operator graph and its components", "curve")
    p.add_argument("--witness", nargs=2, metavar=("FROM", "TO"))
    p.add_argument("--max-vertices", type=int, default=100000)

    p = command("counts", _cmd_counts, "sweep a family of curves over n", "family")
    p.add_argument("--n-range", required=True, metavar="A..B")
    p.add_argument("--fit", action="store_true")

    p = command("verify", _cmd_verify, "run the identity sweep on one curve", "curve")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--max-vertices", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():  # last, so --format closes every usage line
        p.add_argument("--format", choices=("json", "csv", "human"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .curve import ThomaeError, curve_from_dict, read_document

    try:
        documents, inputs = {}, {}
        for name in args.inputs:
            documents[name], inputs[name] = read_document(getattr(args, name))
        if "curve" in documents:
            documents["curve"] = curve_from_dict(documents["curve"])
        fields, csv_rows = args.func(args, **documents)
        _emit({"version": __version__, "inputs": inputs, **fields}, args.format, csv_rows)
    except (ThomaeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_ERROR
    return INVARIANT_VIOLATION if fields.get("findings") else 0


if __name__ == "__main__":
    sys.exit(main())
