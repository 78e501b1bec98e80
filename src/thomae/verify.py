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
sweep on every row, each decided once per distinct value of the levels it
reads; rows are read only to name those that fail.  Every operator moves each
point alone, by a level map per point, so an operator identity fails at a row
exactly when one of its points sits at a level where two composed maps
differ.  h, the reversed slot walk, g, q and the swap shift are tables per
point pair keyed by its two levels, x * n + y (``denominators._PairTables``);
a denominator at an image is its table read through the operator's level
maps, so each denominator identity is a table that reads 0 where it holds,
decided at each key a pair holds: over all rows, or for T over its base rows.
An image of N_beta, M or T is valid when its own levels pass ``_meets``'
packed-sum test, summed row by row.  T-hat moves only Q and R, so when every
listed row meets its conditions an image's sum is the target plus Q's and R's
changes, each fixed by its level: T-hat's validity is decided over its n
admissible (Q level, R level) pairs.  Where a listed row fails its conditions,
or T-hat moves a third point, the admissible rows are read and each image's
sum is taken per row.  Each failing row is recorded with its place in a
row-by-row sweep, and sorting the records gives that sweep's order.

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
from functools import cached_property, partial, reduce
from operator import ne, not_
from typing import Iterable, Iterator, Optional

from .curve import CurveSpec, _Value, _require_sequence
from .denominators import EvalMode, ExponentMatrix, _h, _keys, _PairTables, degree, evaluate
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
    def swaps(self) -> list[tuple[int, int, tuple, list[int]]]:
        """(q, r, T-hat's n admissible (Q level, R level) pairs, T's base rows,
        those at the first pair) for every ordered pair of points (q, r)."""
        t, cols = _tables(self.spec.n, self.spec.alphas), self.columns
        zeros = [list(itertools.compress(range(len(c)), map(not_, c))) for c in cols]
        swaps = [(q, r, tuple(enumerate(expected[r] for expected in t.expected[q])))
                 for q, r in itertools.permutations(t.points, 2)]
        return [(q, r, pairs, _at(cols, zeros[q], q, r, pairs[:1])) for q, r, pairs in swaps]


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
    t, ident = _tables(n, spec.alphas), [list(range(n))] * spec.point_count
    found: list = []
    record = partial(_record, found, run.xis)
    levels = itertools.repeat(range(n))

    def moved(rows, got, want=ident) -> set:  # those with a point where the maps differ
        return _where(cols, got, want, levels, rows)

    for b, beta in enumerate(spec.classes):
        neg = t.negations(beta)
        record(_invalid(spec, rows, neg, cols), (0, b, 0), f"N_{beta} of %s is invalid")
        record(moved(rows, _columns(neg, neg)), (0, b, 1), f"N_{beta} not an involution at %s")
        record(moved(rows, _group_columns(t, ident, GroupElement.negation(n, beta)), neg),
               (0, b, 2), f"N_{beta} disagrees with its group element at %s")
    record(moved(rows, reduce(_columns, [t.rotations(1)] * n)), (1, 0), "M^n != id at %s")
    record(_invalid(spec, rows, t.rotations(1), cols), (1, 1), "M of %s is invalid")
    contrib, meet = spec.packed[0], not any(_invalid(spec, rows, ident, cols))
    for q, r, pairs, base in run.swaps:
        if base:  # T needs its base point Q at level 0
            moves = _swap_columns(t, ident, q, r)
            record(_invalid(spec, base, moves, cols), (2, q, 0, r, 0),
                   f"T:{q},{r} of %s is invalid")
            record(_where(cols[r:r + 1], moves[r:r + 1], ident, levels, base), (2, q, 0, r, 1),
                   f"T:{q},{r} moved the partner at %s")
            record(moved(base, _swap_columns(t, moves, q, r)), (2, q, 0, r, 2),
                   f"T:{q},{r} not an involution at %s")
        hat = _swap_hat_columns(t, ident, q, r)
        if meet and all(list(m) == ident[0] for i, m in enumerate(hat) if i not in (q, r)):
            # every row meets, so an image meets where Q's and R's moves keep their sum
            image = _columns(contrib, hat)
            bad = [(x, y) for x, y in pairs
                   if image[q][x] + image[r][y] != contrib[q][x] + contrib[r][y]]
            invalid = _at(cols, rows, q, r, bad)
        else:
            invalid = _invalid(spec, _at(cols, rows, q, r, pairs), hat, cols)
        record(invalid, (2, q, 1, r, 0), f"That:{q},{r} of %s is invalid")
        record(_at(cols, moved(rows, _swap_hat_columns(t, hat, r, q)), q, r, pairs),
               (2, q, 1, r, 1), f"That:{r},{q} does not invert at %s")
    yield from _merged(found)


def _denominators(run: _Run) -> Iterator[str]:
    spec, cols = run.spec, run.columns
    n, rows = spec.n, range(len(run.xis))
    t, tables = _tables(n, spec.alphas), _PairTables(spec)
    found: list = []
    record = partial(_record, found, run.xis)
    keys, zero = _keys(n, cols), itertools.repeat((0,) * n * n)
    ident, held = [range(n)] * spec.point_count, [set(k) for k in keys]  # each pair's keys
    record(_where(keys, tables.back, tables.h, held, rows), (0,), "assembly order changes h at %s")
    # h at an image is h's table read through the operator's level maps
    record(_where(keys, tables.drift(tables.h, t.rotations(1)), zero, held, rows), (1,),
           "h not rotation invariant at %s")
    for b, beta in enumerate(spec.classes):
        record(_where(keys, tables.drift(tables.h, t.negations(beta)), zero, held, rows), (2, b),
               f"h not negation invariant at %s, beta={beta}")
    for q, r, _, base in run.swaps:
        if not base:
            continue
        beta, gamma = spec.alphas[q], spec.alphas[r]
        # T:q,r's level maps: its image of every point at every level
        moves, shift = list(map(tuple, _swap_columns(t, ident, q, r))), tables.shift(q, r)
        drifts = [tables.drift(pair_tables, moves, shift) for pair_tables in
                  (tables.h, tables.blocks(beta, spec.classes), tables.blocks(beta, (gamma,), q))]
        # a pair's keys among the base rows, read only where one of its tables drifts somewhere
        held = [set(map(k.__getitem__, base)) if any(map(any, d)) else () for k, *d in
                zip(keys, *drifts)]
        for c, (drift, message) in enumerate(zip(drifts, (
            f"h shift wrong under T:{q},{r} at %s", f"g^{beta} shift wrong under T:{q},{r} at %s",
            f"q^{{{q},{gamma}}} shift wrong under T:{q},{r} at %s",
        ))):
            record(_where(keys, drift, zero, held, base), (3, q, r, c), message)
    yield from _merged(found)
    totals = set(map(sum, zip(*_columns(tables.h, keys))))
    degrees = {degree(ExponentMatrix._make(spec, (total,))) for total in totals}
    if len(degrees) > 1:
        yield f"h degrees differ across divisors: {sorted(degrees)}"


def _invalid(spec: CurveSpec, rows, maps, columns: list) -> Iterator[int]:
    """Those of ``rows`` whose images under ``maps``, a level map per point,
    fail ``_meets``' packed-sum test for kind XI."""
    contrib, targets = spec.packed
    sums = map(sum, zip(*[map(read.__getitem__, map(column.__getitem__, rows))
                          for read, column in zip(_columns(contrib, maps), columns)]))
    return itertools.compress(rows, map(targets[DivisorKind.XI.shift].__ne__, sums))


def _where(columns: list, got: Iterable, want: Iterable, held: Iterable, rows) -> set:
    """Those of ``rows`` at which some column i holds a value v, one of
    ``held[i]``, with got[i][v] != want[i][v]; a column with no such v is not read."""
    out: set = set()
    for column, g, w, h in zip(columns, got, want, held):
        marked = set(itertools.compress(h, map(ne, map(g.__getitem__, h), map(w.__getitem__, h))))
        if marked:
            out.update(itertools.compress(rows, map(marked.__contains__,
                                                    map(column.__getitem__, rows))))
    return out


def _at(cols: list, rows, q: int, r: int, pairs) -> list[int]:
    """Those of ``rows`` at which the levels of the points q and r are one of ``pairs``."""
    pairs, at = set(pairs), zip(map(cols[q].__getitem__, rows), map(cols[r].__getitem__, rows))
    return list(itertools.compress(rows, map(pairs.__contains__, at))) if pairs else []


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
