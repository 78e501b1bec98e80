"""Self-checking sweeps: every identity the library promises, run on one curve.

Each check is a generator over one run's ``_Run`` context that yields a
reproducer string per failure and nothing when it passes.  ``_CHECKS`` maps
each check name to its generator, in the order ``run_suite`` runs them by
default, and is the one place a check name is written: ``run_suite`` pairs
every reproducer with the name it looked the check up by.  The sweep never
aborts early, so one run reports everything that is wrong.  The CLI exposes
this as the ``verify`` command and turns findings into exit status 2.

The shifted divisors are listed once per run (``_Run.xis``), once their
exact count is within the cap, and transposed into one level column per point.
The operator and denominator checks make every assertion of a row-by-row
sweep on every row, in whole-column passes.  An operator's image is each
column read through its point's level map, valid when its own levels pass
``_meets``' packed-sum test.  h, the reversed slot walk, g, q and the swap
shift are tables per point pair keyed by the pair's two levels
(``denominators._PairTables``); as every operator moves each point alone, a
denominator at an image is its table read through the operator's level maps.
Each failing row is recorded with its place in a row-by-row sweep, and
sorting the records gives the messages in that sweep's order.

The non-special equivalence check builds one unchecked ``LeveledDivisor``
per degree-g level tuple it walks, for the public specialty index and
condition test.  The evaluation check builds h's exponents once, from the
first shifted divisor, and evaluates them on every curve of z-values it
draws: the exponents do not depend on the z-values.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property, partial
from operator import ne
from typing import Iterable, Iterator, Optional

from .curve import CurveSpec, _Value, _require_sequence
from .denominators import EvalMode, ExponentMatrix, _h, _keys, _PairTables, _read, degree, evaluate
from .divisors import (
    DivisorError,
    DivisorKind,
    LeveledDivisor,
    _allowed,
    _brute_force_levels,
    _list_assignments,
    _require_cap,
    _require_curve,
    _require_int,
    _require_vertices,
    satisfies_conditions,
    specialty_index,
)
from .operators import (
    GroupElement,
    _columns,
    _group_columns,
    _swap_rows,
    _swap_columns,
    _swap_hat_columns,
    _tables,
)

BRUTE_FORCE_LIMIT = 200_000  # the brute-force checks run only when n ** points is at most this


class Finding(_Value):
    _fields = ("check", "reproducer")


class _Run(_Value):
    """What the checks of one run share: the curve, the seed, and the cap on
    the shifted divisors."""

    _fields = ("spec", "seed", "max_vertices")

    @cached_property
    def xis(self) -> list[tuple[int, ...]]:
        """The XI level tuples, listed on first use once their exact count is within the cap."""
        spec, xi = self.spec, DivisorKind.XI
        _require_vertices(spec, self.max_vertices)
        return list(_list_assignments(spec, xi, _allowed(spec, xi, None)))

    @cached_property
    def columns(self) -> list[list[int]]:
        """The XI levels transposed: columns[i][row] is point i's level in xis[row]."""
        return [list(column) for column in zip(*self.xis)] or [[] for _ in self.spec.alphas]

    @cached_property
    def swaps(self) -> list[tuple[int, int, list[int], list[int]]]:
        return _swap_rows(_tables(self.spec.n, self.spec.alphas), self.columns)


def _genus_sum(run: _Run) -> Iterator[str]:
    spec = run.spec
    total = sum(t - 1 for t in spec.t_values[1:])
    if total != spec.genus():
        yield f"sum(t_k - 1) = {total} != g = {spec.genus()}"


def _enumeration(run: _Run) -> Iterator[str]:
    spec = run.spec
    if spec.n ** spec.point_count > BRUTE_FORCE_LIMIT:
        return  # brute-force cross-check only affordable on small curves
    brute = _brute_force_levels(spec)
    for kind in (DivisorKind.DELTA, DivisorKind.XI):
        fast = sorted(run.xis if kind is DivisorKind.XI
                      else _list_assignments(spec, kind, _allowed(spec, kind, None)))
        slow = sorted(brute[kind])
        if fast != slow:
            yield (
                f"kind={kind.value}: enumeration gives {len(fast)} "
                f"divisors, brute force {len(slow)}"
            )
        if len(set(fast)) != len(fast):
            yield f"kind={kind.value}: duplicates emitted"


def _nonspecial_equivalence(run: _Run) -> Iterator[str]:
    spec = run.spec
    n, p = spec.n, spec.point_count
    if n ** p > BRUTE_FORCE_LIMIT:
        return
    # degree g means exponents n-1-l summing to g: the first p-1 levels run in
    # product order, and the last is what they lack of the level sum
    level_sum = p * (n - 1) - spec.genus()
    for head in itertools.product(range(n), repeat=p - 1):
        last = level_sum - sum(head)
        if not 0 <= last < n:
            continue
        levels = head + (last,)
        div = LeveledDivisor._make(spec, levels, DivisorKind.DELTA)
        if (specialty_index(div) == 0) != satisfies_conditions(div):
            yield f"levels={levels}: index {specialty_index(div)} vs conditions"


def _operators(run: _Run) -> Iterator[str]:
    spec, cols = run.spec, run.columns
    n, rows = spec.n, range(len(run.xis))
    t = _tables(n, spec.alphas)
    found: list = []
    record = partial(_record, found, run.xis)
    for b, beta in enumerate(spec.classes):
        image = _columns(t.negations(beta), cols)
        record(_invalid(spec, rows, image), (0, b, 0), f"N_{beta} of %s is invalid")
        record(_differ(rows, _columns(t.negations(beta), image), cols), (0, b, 1),
               f"N_{beta} not an involution at %s")
        record(_differ(rows, _group_columns(t, cols, GroupElement.negation(n, beta)), image),
               (0, b, 2), f"N_{beta} disagrees with its group element at %s")
    record(_differ(rows, _columns(t.rotations(n % n), cols), cols), (1, 0), "M^n != id at %s")
    record(_invalid(spec, rows, _columns(t.rotations(1), cols)), (1, 1), "M of %s is invalid")
    for q, r, hat, base in run.swaps:
        if base:  # T needs its base point Q at level 0
            before = _take(cols, base)
            image = _swap_columns(t, before, q, r)
            record(_invalid(spec, base, image), (2, q, 0, r, 0), f"T:{q},{r} of %s is invalid")
            record(_differ(base, image[r:r + 1], before[r:r + 1]), (2, q, 0, r, 1),
                   f"T:{q},{r} moved the partner at %s")
            record(_differ(base, _swap_columns(t, image, q, r), before), (2, q, 0, r, 2),
                   f"T:{q},{r} not an involution at %s")
        before = _take(cols, hat)
        image = _swap_hat_columns(t, before, q, r)
        record(_invalid(spec, hat, image), (2, q, 1, r, 0), f"That:{q},{r} of %s is invalid")
        record(_differ(hat, _swap_hat_columns(t, image, r, q), before), (2, q, 1, r, 1),
               f"That:{r},{q} does not invert at %s")
    yield from _merged(found)


def _denominators(run: _Run) -> Iterator[str]:
    spec, cols = run.spec, run.columns
    n, rows = spec.n, range(len(run.xis))
    t, tables = _tables(n, spec.alphas), _PairTables(spec)
    found: list = []
    record = partial(_record, found, run.xis)
    keys, zero = _keys(n, cols), itertools.repeat([0] * len(rows))
    h = _read(tables.h, keys)
    record(_differ(rows, _read(tables.back, keys), h), (0,), "assembly order changes h at %s")
    # h at an image is h's table read through the operator's level maps
    record(_differ(rows, _read(tables.drift(tables.h, t.rotations(1)), keys), zero), (1,),
           "h not rotation invariant at %s")
    for b, beta in enumerate(spec.classes):
        record(_differ(rows, _read(tables.drift(tables.h, t.negations(beta)), keys), zero),
               (2, b), f"h not negation invariant at %s, beta={beta}")
    for q, r, _, base in run.swaps:
        if not base:
            continue
        beta, gamma = spec.alphas[q], spec.alphas[r]
        # T:q,r's level maps: its image of every point at every level
        moves = list(map(tuple, _swap_columns(t, [range(n)] * spec.point_count, q, r)))
        before, shift = _take(keys, base), tables.shift(q, r)
        for c, pair_tables, message in (
            (0, tables.h, f"h shift wrong under T:{q},{r} at %s"),
            (1, tables.blocks(beta, spec.classes), f"g^{beta} shift wrong under T:{q},{r} at %s"),
            (2, tables.blocks(beta, (gamma,), q),
             f"q^{{{q},{gamma}}} shift wrong under T:{q},{r} at %s"),
        ):
            drift = _read(tables.drift(pair_tables, moves, shift), before)
            record(_differ(base, drift, itertools.repeat([0] * len(base))), (3, q, r, c), message)
    yield from _merged(found)
    totals = set(map(sum, zip(*h)))
    degrees = {degree(ExponentMatrix._make(spec, (total,))) for total in totals}
    if len(degrees) > 1:
        yield f"h degrees differ across divisors: {sorted(degrees)}"


def _take(columns: list, rows: list) -> list[list[int]]:
    return [list(map(c.__getitem__, rows)) for c in columns]


def _invalid(spec: CurveSpec, rows, columns: list) -> Iterator[int]:
    """The rows whose levels fail ``_meets``' packed-sum test for kind XI."""
    contrib, targets = spec.packed
    sums = map(sum, zip(*[map(c.__getitem__, column) for c, column in zip(contrib, columns)]))
    return itertools.compress(rows, map(targets[DivisorKind.XI.shift].__ne__, sums))


def _differ(rows, found: Iterable[list], want: list) -> set:
    """The rows at which some column of ``found`` differs from that of ``want``."""
    bad: set = set()
    for got, expected in zip(found, want):
        if got != expected:
            bad.update(itertools.compress(rows, map(ne, got, expected)))
    return bad


def _record(found: list, xis: list, bad: Iterable[int], position: tuple, message: str) -> None:
    """One (row, place in a row-by-row sweep, message at the row's levels) per failing row."""
    found.extend((row, position, message % (xis[row],)) for row in bad)


def _merged(found: list) -> list[str]:
    return [message for *_, message in sorted(found)]  # in the order a row-by-row sweep finds them


def _evaluation(run: _Run) -> Iterator[str]:
    spec = run.spec
    rng = random.Random(run.seed)
    if not run.xis:
        return
    h = _h(spec, run.xis[0])  # h's exponents do not depend on the z-values
    h_degree = degree(ExponentMatrix._make(spec, h))

    def value(lams: list[Fraction]) -> Fraction:
        return evaluate(ExponentMatrix._make(spec.with_lambdas(lams), h), EvalMode.EXACT_RATIONAL)

    for trial in range(20):
        lams = _distinct_rationals(rng, spec.point_count)
        base = value(lams)
        shiftc = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value([v + shiftc for v in lams]) != base:
            yield f"translation changed the value (trial {trial})"
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if value([v * scale for v in lams]) != base * scale ** h_degree:
            yield f"scaling law fails (trial {trial})"


def _distinct_rationals(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        v = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        if v not in out:
            out.append(v)
    return out


_CHECKS = {
    "genus-sum": _genus_sum,
    "enumeration": _enumeration,
    "nonspecial-equivalence": _nonspecial_equivalence,
    "operators": _operators,
    "denominators": _denominators,
    "evaluation": _evaluation,
}


def run_suite(
    spec: CurveSpec,
    checks: Optional[Iterable[str]] = None,
    max_vertices: int = 20000,
    seed: int = 0,
) -> tuple[list[str], list[Finding]]:
    """Run the named checks (all by default); returns (checks run, findings)."""
    _require_curve(spec)
    _require_cap("max_vertices", max_vertices)
    _require_int("seed", seed)
    names = list(_CHECKS if checks is None else _require_sequence("checks", checks, DivisorError))
    unknown = [name for name in names if not isinstance(name, str) or name not in _CHECKS]
    if unknown:
        raise DivisorError(f"unknown check {unknown[0]!r}")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise DivisorError(f"check {repeated[0]!r} is named twice")
    run = _Run(spec, seed, max_vertices)
    return names, [Finding(name, found) for name in names for found in _CHECKS[name](run)]
