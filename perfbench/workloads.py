"""The benchmark's workloads: inputs made from the seed, the CLI job list, and
the output each job has to reproduce.

Every expected value below was obtained by enumeration; a job whose output
differs from it fails.  Why each workload exists, and which curves were left
out, is written down in README.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# verify runs its brute-force checks only when n ** points is at most this
BRUTE_FORCE_LIMIT = 200_000
VERIFY_CHECKS = ("enumeration", "nonspecial-equivalence", "operators", "denominators",
                 "evaluation")

# name -> (n, exponents); valid divisor counts for the kinds the jobs use
CURVES = {
    "deep31": (31, [1] * 3 + [30] * 3),
    "deep37": (37, [1] * 3 + [36] * 3),
    "deep17": (17, [1] * 4 + [16] * 4),
    "wide12": (12, [1, 5, 7, 11] * 2),
    "wide14": (14, [1, 3, 5, 9, 11, 13]),
    "graph11": (11, [1] * 3 + [10] * 3),
    "verify7-all": (7, [1] * 7),
    "verify7-mixed": (7, [1] * 5 + [2]),
    "eval7": (7, [1, 2, 5, 6]),
}
COUNTS = {
    ("deep31", "xi"): 170_221,
    ("deep37", "xi"): 291_745,
    ("deep17", "xi"): 1_673_905,
    ("wide12", "xi"): 137_928,
    ("wide12", "delta"): 44_512,
    ("wide14", "xi"): 4_088,
    ("wide14", "delta"): 885,
    ("graph11", "xi"): 6_941,
    ("verify7-all", "xi"): 5_040,
    ("verify7-mixed", "xi"): 840,
    ("verify7-mixed", "delta"): 420,
}
GRAPH11 = {"vertices": 6_941, "edges": 74_481, "components": 1, "component_sizes": [6_941],
           "m_orbits": 631}

# the m3 sweep family w^n = (z-l1)(z-l2)(z-l3) / ((z-m1)(z-m2)(z-m3))
M3_FAMILY = {"c": [1, 1, 1], "d": [1, 1, 1]}
M3_RANGE = (2, 15)
M3_FIT = {
    "total_divisors": {"coefficients": ["33", "-45", "18"], "residuals": ["0"] * 11},
    "m_orbits": {"coefficients": ["4", "-9", "6"], "residuals": ["0"] * 11},
}

# the denominator job: h of one shifted divisor of eval7, whose unit
# exponents sit on four of the six point pairs
EVAL_LEVELS = [6, 4, 2, 0]
EVAL_PAIRS = {(0, 1): 2, (0, 2): 6, (1, 3): 6, (2, 3): 2}
EVAL_DEGREE = 224


def _m3_orbits(n: int) -> int:
    return 6 * n * n - 9 * n + 4


def m3_row(n: int) -> dict:
    """The enumerated counts of the m3 family at n (checked for n = 2..15)."""
    m = _m3_orbits(n)
    return {
        "n": n,
        "skipped": False,
        "total_divisors": 18 * n * n - 45 * n + 33,
        "xi_divisors": n * m,
        "m_orbits": m,
        "base_point_free_xi": (n - 2) * _m3_orbits(n - 2),
        "per_point_avoid": [m] * 6,
    }


@dataclass
class Job:
    """One CLI invocation, the check of its report, and the layer calls it makes.

    ``plan`` tells the traced run which library calls reproduce the job, and
    ``expect`` pins the work counters those calls must report.
    """

    argv: list[str]
    check: Callable[[dict], list[str]]
    plan: dict
    expect: dict

    @property
    def name(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# inputs


def distinct_rationals(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        v = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        if v not in out:
            out.append(v)
    return out


def write_inputs(directory: Path, seed: int) -> tuple[dict, list[Fraction]]:
    """Write every input file; returns the paths by name and eval7's z-values.

    Only the evaluation curve carries z-values, and they are the only input
    the seed changes; the seed also reaches the program as ``verify --seed``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    lams = distinct_rationals(rng, len(CURVES["eval7"][1]))
    paths = {}
    for name, (n, alphas) in CURVES.items():
        points = [{"alpha": a} for a in alphas]
        if name == "eval7":
            for point, lam in zip(points, lams):
                point["lambda"] = str(lam)
        paths[name] = _dump(directory / f"{name}.json", {"n": n, "points": points})
    paths["m3"] = _dump(directory / "m3.json", M3_FAMILY)
    paths["eval7-divisor"] = _dump(directory / "eval7-divisor.json",
                                   {"kind": "xi", "levels": EVAL_LEVELS})
    return paths, lams


def _dump(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# independent checks


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


def _rotation_free(what: str, count, n: int) -> list[str]:
    """Rotation orbits of shifted divisors are free, so their number is a multiple of n."""
    if isinstance(count, int) and count % n == 0:
        return []
    return [f"{what}: {count!r} shifted divisors is not a multiple of n = {n}"]


def is_shifted_divisor(n: int, alphas: list[int], levels: list[int]) -> bool:
    """The shifted-divisor (xi) conditions, written out independently of the package:
    for every k, the number of points whose level lies below alpha*k mod n is t_k."""
    if len(levels) != len(alphas) or not all(isinstance(l, int) and 0 <= l < n for l in levels):
        return False
    for k in range(1, n):
        thresholds = [(a * k) % n for a in alphas]
        below = sum(1 for l, t in zip(levels, thresholds) if l < t)
        if below != sum(thresholds) // n:
            return False
    return True


def denominator_value(pairs: dict, lams: list[Fraction], n: int) -> Fraction:
    """prod (z_i - z_j) ** (e*n*unit), e = 2 for odd n and 1 for even n."""
    unit = (1 if n % 2 == 0 else 2) * n
    value = Fraction(1)
    for (i, j), exp in pairs.items():
        value *= (lams[i] - lams[j]) ** (unit * exp)
    return value


# ---------------------------------------------------------------------------
# jobs


def count_job(paths: dict, curve: str, kind: str) -> Job:
    n = CURVES[curve][0]
    want = COUNTS[(curve, kind)]

    def check(report: dict) -> list[str]:
        problems = _mismatch("count", report.get("count"), want)
        if kind == "xi":
            problems += _rotation_free("count", report.get("count"), n)
        return problems

    return Job(
        ["enumerate", "--curve", paths[curve], "--kind", kind, "--count-only"],
        check,
        {"curve": paths[curve], "search": [kind], "count": [kind]},
        {"divisors.counted": want},
    )


def family_job(paths: dict) -> Job:
    lo, hi = M3_RANGE

    def check(report: dict) -> list[str]:
        problems = _mismatch("family", report.get("family"), M3_FAMILY)
        rows = report.get("counts") or []
        problems += _mismatch("rows", [r.get("n") for r in rows], list(range(lo, hi + 1)))
        if problems:
            return problems
        for row in rows:
            n = row.get("n")
            problems += _mismatch(f"row n={n}", row, m3_row(n))
            problems += _rotation_free(f"row n={n}", row.get("xi_divisors"), n)
        problems += _mismatch("fit", report.get("fit"), M3_FIT)
        return problems

    return Job(
        ["counts", "--family", paths["m3"], "--n-range", f"{lo}..{hi}", "--fit"],
        check,
        {"family": {**M3_FAMILY, "n": [lo, hi]}},
        {"orbits.family_rows": hi - lo + 1},
    )


def orbits_job(paths: dict) -> Job:
    n = CURVES["graph11"][0]

    def check(report: dict) -> list[str]:
        problems = []
        for key, want in GRAPH11.items():
            problems += _mismatch(key, report.get(key), want)
        return problems + _rotation_free("vertices", report.get("vertices"), n)

    return Job(
        ["orbits", "--curve", paths["graph11"]],
        check,
        {"curve": paths["graph11"], "search": ["xi"], "expand": True, "operators": True,
         "graph": True},
        {"divisors.emitted": GRAPH11["vertices"], "orbits.vertices": GRAPH11["vertices"],
         "orbits.edges": GRAPH11["edges"], "orbits.components": GRAPH11["components"]},
    )


def verify_job(paths: dict, curve: str, seed: int, max_vertices: int | None) -> Job:
    n, alphas = CURVES[curve]
    brute = n ** len(alphas) <= BRUTE_FORCE_LIMIT
    argv = ["verify", "--curve", paths[curve]]
    if max_vertices is not None:
        argv += ["--max-vertices", str(max_vertices)]
    argv += ["--seed", str(seed)]

    def check(report: dict) -> list[str]:
        return (_mismatch("ok", report.get("ok"), True)
                + _mismatch("findings", report.get("findings"), [])
                + _mismatch("checks", report.get("checks"), ["genus-sum", *VERIFY_CHECKS]))

    expect = {"divisors.emitted": COUNTS[(curve, "xi")], "verify.findings": 0}
    if brute:
        expect["divisors.brute_valid"] = COUNTS[(curve, "xi")] + COUNTS[(curve, "delta")]
    return Job(
        argv,
        check,
        {"curve": paths[curve], "search": ["xi"], "expand": True, "brute": brute,
         "denominators": True,
         # 20,000 is the CLI's own --max-vertices default
         "verify": {"max_vertices": max_vertices or 20_000, "seed": seed}},
        expect,
    )


def listing_job(paths: dict) -> Job:
    n, alphas = CURVES["graph11"]
    want = COUNTS[("graph11", "xi")]

    def check(report: dict) -> list[str]:
        divisors = report.get("divisors") or []
        levels = [tuple(d.get("levels", ())) for d in divisors]
        problems = (_mismatch("count", report.get("count"), want)
                    + _mismatch("listed", len(divisors), want)
                    + _rotation_free("count", report.get("count"), n)
                    + _mismatch("distinct", len(set(levels)), len(levels)))
        if any(d.get("kind") != "xi" for d in divisors):
            problems.append("listing holds divisors of another kind")
        bad = [l for l in levels if not is_shifted_divisor(n, alphas, list(l))]
        if bad:
            problems.append(f"{len(bad)} listed divisors fail the conditions, e.g. {bad[0]}")
        return problems

    return Job(
        ["enumerate", "--curve", paths["graph11"], "--kind", "xi"],
        check,
        {"curve": paths["graph11"], "search": ["xi"], "expand": True},
        {"divisors.emitted": want},
    )


def denominator_job(paths: dict, lams: list[Fraction]) -> Job:
    n = CURVES["eval7"][0]
    pairs = [{"i": i, "j": j, "exp_unit": v} for (i, j), v in sorted(EVAL_PAIRS.items())]
    value = str(denominator_value(EVAL_PAIRS, lams, n))

    def check(report: dict) -> list[str]:
        return (_mismatch("which", report.get("which"), "h")
                + _mismatch("denominator", report.get("denominator"),
                            {"unit": "e*n", "e": 2, "n": n, "pairs": pairs})
                + _mismatch("degree", report.get("degree"), EVAL_DEGREE)
                + _mismatch("value", report.get("value"), value))

    return Job(
        ["denominator", "--curve", paths["eval7"], "--divisor", paths["eval7-divisor"],
         "--which", "h", "--evaluate", "exact"],
        check,
        {"curve": paths["eval7"], "divisor": EVAL_LEVELS, "ftables": True,
         "denominators": True, "evaluate": True},
        {"denominators.h_built": 1, "denominators.h_pairs": len(EVAL_PAIRS),
         "denominators.evaluations": 1},
    )


def _count_deep(paths, seed, lams):
    return [count_job(paths, c, "xi") for c in ("deep31", "deep37", "deep17")] + [
        family_job(paths)]


def _count_wide(paths, seed, lams):
    return [count_job(paths, c, kind) for c in ("wide12", "wide14") for kind in ("xi", "delta")]


def _graph_verify(paths, seed, lams):
    return [
        orbits_job(paths),
        verify_job(paths, "verify7-all", seed, 100_000),
        verify_job(paths, "verify7-mixed", seed, None),
        listing_job(paths),
        denominator_job(paths, lams),
    ]


WORKLOADS = {
    "count-deep": _count_deep,
    "count-wide": _count_wide,
    "graph-verify": _graph_verify,
}
