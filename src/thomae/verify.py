"""Self-checking sweeps: every identity the library promises, run on one curve.

Each check is a generator over one run's ``_Run`` context that yields a
reproducer string per failure and nothing when it passes.  ``_CHECKS`` maps
each check name to its generator, in the order ``run_suite`` runs them by
default, and is the one place a check name is written: ``run_suite`` pairs
every reproducer with the name it looked the check up by.  The sweep never
aborts early, so one run reports everything that is wrong.  The CLI exposes
this as the ``verify`` command and turns findings into exit status 2.

The shifted divisors are listed once per run, as level tuples (``_Run.xis``),
once their exact count is within the cap.  The checks call the integer
kernels of ``operators`` and ``denominators`` on them, the slot-walk oracle
among them.  The non-special equivalence check builds one unchecked
``LeveledDivisor`` per degree-g level tuple it walks, for the public specialty
index and condition test.  The evaluation check builds h's exponents once,
from the first shifted divisor, and evaluates them on every curve of z-values
it draws: the exponents do not depend on the z-values.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache, cached_property, partial
from operator import sub
from typing import Iterable, Iterator, Optional

from .curve import CurveSpec, _Value, _require_sequence
from .denominators import (EvalMode, ExponentMatrix, _g, _h, _q, _shift, _slot_walk, degree,
                           evaluate)
from .divisors import (
    DivisorError,
    DivisorKind,
    LeveledDivisor,
    _allowed,
    _brute_force_levels,
    _list_assignments,
    _meets,
    _require_cap,
    _require_curve,
    _require_int,
    _require_vertices,
    satisfies_conditions,
    specialty_index,
)
from .operators import (
    GroupElement,
    _group,
    _negate,
    _partners,
    _rotate,
    _swap,
    _swap_hat,
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
    spec = run.spec
    n, xi_shift = spec.n, DivisorKind.XI.shift
    t = _tables(n, spec.alphas)
    negations = [(beta, GroupElement.negation(n, beta)) for beta in spec.classes]
    for levels in run.xis:
        for beta, element in negations:
            image = _negate(t, levels, beta)
            if not _meets(spec, image, xi_shift):
                yield f"N_{beta} of {levels} is invalid"
            if _negate(t, image, beta) != levels:
                yield f"N_{beta} not an involution at {levels}"
            if _group(t, levels, element) != image:
                yield f"N_{beta} disagrees with its group element at {levels}"
        if _rotate(t, levels, n) != levels:
            yield f"M^n != id at {levels}"
        if not _meets(spec, _rotate(t, levels, 1), xi_shift):
            yield f"M of {levels} is invalid"
        for q in range(spec.point_count):
            partners = _partners(t, levels, q)
            if levels[q] == 0:  # T needs its base point Q at level 0
                for r in partners:
                    image = _swap(t, levels, q, r)
                    if not _meets(spec, image, xi_shift):
                        yield f"T:{q},{r} of {levels} is invalid"
                    if image[r] != levels[r]:
                        yield f"T:{q},{r} moved the partner at {levels}"
                    if _swap(t, image, q, r) != levels:
                        yield f"T:{q},{r} not an involution at {levels}"
            for r in partners:
                image = _swap_hat(t, levels, q, r)
                if not _meets(spec, image, xi_shift):
                    yield f"That:{q},{r} of {levels} is invalid"
                if _swap_hat(t, image, r, q) != levels:
                    yield f"That:{r},{q} does not invert at {levels}"


def _denominators(run: _Run) -> Iterator[str]:
    spec = run.spec
    t = _tables(spec.n, spec.alphas)
    # each h, g and q is built once and looked up for every image that reaches it
    hs, gs, qs = (cache(partial(kernel, spec)) for kernel in (_h, _g, _q))
    degrees = set()
    for levels in run.xis:
        h = hs(levels)
        degrees.add(degree(ExponentMatrix._make(spec, h)))
        slots = sorted(set(zip(spec.alphas, levels)), reverse=True)
        if _slot_walk(spec, levels, slots)._values != h:
            yield f"assembly order changes h at {levels}"
        if hs(_rotate(t, levels, 1)) != h:
            yield f"h not rotation invariant at {levels}"
        for beta in spec.classes:
            if hs(_negate(t, levels, beta)) != h:
                yield f"h not negation invariant at {levels}, beta={beta}"
        for q in range(spec.point_count):
            if levels[q] != 0:
                continue
            beta = spec.alphas[q]
            g0 = gs(levels, beta)
            for r in _partners(t, levels, q):
                image = _swap(t, levels, q, r)
                shift = _shift(spec, levels, q, r)
                if tuple(map(sub, hs(image), h)) != shift:
                    yield f"h shift wrong under T:{q},{r} at {levels}"
                if tuple(map(sub, gs(image, beta), g0)) != shift:
                    yield f"g^{beta} shift wrong under T:{q},{r} at {levels}"
                gamma = spec.alphas[r]
                if tuple(map(sub, qs(image, q, gamma), qs(levels, q, gamma))) != shift:
                    yield f"q^{{{q},{gamma}}} shift wrong under T:{q},{r} at {levels}"
    if len(degrees) > 1:
        yield f"h degrees differ across divisors: {sorted(degrees)}"


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
