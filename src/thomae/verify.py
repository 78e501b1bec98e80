"""Self-checking sweeps: every identity the library promises, run on one curve.

Each check either passes silently or contributes findings; a finding carries
the check name and a reproducer string, and the sweep never aborts early, so
one run reports everything that is wrong.  The CLI exposes this as the
``verify`` command and turns findings into exit status 2.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Callable, Iterable, Optional

from .curve import CurveSpec
from .denominators import EvalMode, _g, _h, _matrix, _q, _shift, degree, evaluate, full_denominator
from .divisors import (
    DivisorError,
    DivisorKind,
    LeveledDivisor,
    _meets,
    brute_force_divisors,
    enumerate_divisors,
    satisfies_conditions,
    specialty_index,
)
from .operators import (
    GroupElement,
    _Lazy,
    _group,
    _negate,
    _partners,
    _rotate,
    _swap,
    _swap_hat,
    _tables,
)

BRUTE_FORCE_LIMIT = 200_000  # the brute-force checks run only when n ** points is at most this


@dataclass(frozen=True)
class Finding:
    check: str
    reproducer: str

    def __str__(self):
        return f"{self.check}: {self.reproducer}"


class Verifier:
    def __init__(self, spec: CurveSpec, max_vertices: int = 20000, seed: int = 0):
        spec.require_valid()
        self.spec = spec
        self.max_vertices = max_vertices
        self.seed = seed
        self.findings: list[Finding] = []
        self.checks_run: list[str] = []

    def _record(self, check: str, reproducer: str) -> None:
        self.findings.append(Finding(check, reproducer))

    @cached_property
    def xis(self) -> list[LeveledDivisor]:
        """The shifted divisors, enumerated once per run and refused above the cap."""
        out = []
        for div in enumerate_divisors(self.spec, DivisorKind.XI):
            out.append(div)
            if len(out) > self.max_vertices:
                raise DivisorError(
                    f"more than {self.max_vertices} divisors; raise --max-vertices"
                )
        return out

    def run(self, checks: Optional[Iterable[str]] = None) -> list[Finding]:
        table: dict[str, Callable[[], None]] = {
            "genus-sum": self.check_genus_sum,
            "enumeration": self.check_enumeration,
            "nonspecial-equivalence": self.check_nonspecial_equivalence,
            "operators": self.check_operators,
            "denominators": self.check_denominators,
            "evaluation": self.check_evaluation,
        }
        names = list(table) if checks is None else list(checks)
        unknown = [name for name in names if name not in table]
        if unknown:
            raise DivisorError(f"unknown check {unknown[0]!r}")
        for name in names:
            self.checks_run.append(name)
            table[name]()
        return self.findings

    # individual checks ----------------------------------------------------

    def check_genus_sum(self) -> None:
        spec = self.spec
        total = sum(spec.t_value(k) - 1 for k in range(1, spec.n))
        if total != spec.genus():
            self._record("genus-sum", f"sum(t_k - 1) = {total} != g = {spec.genus()}")

    def check_enumeration(self) -> None:
        spec = self.spec
        if spec.n ** spec.point_count > BRUTE_FORCE_LIMIT:
            return  # brute-force cross-check only affordable on small curves
        for kind in (DivisorKind.DELTA, DivisorKind.XI):
            found = self.xis if kind is DivisorKind.XI else enumerate_divisors(spec, kind)
            fast = sorted(d.levels for d in found)
            slow = sorted(d.levels for d in brute_force_divisors(spec, kind))
            if fast != slow:
                self._record(
                    "enumeration",
                    f"kind={kind.value}: enumeration gives {len(fast)} "
                    f"divisors, brute force {len(slow)}",
                )
            if len(set(fast)) != len(fast):
                self._record("enumeration", f"kind={kind.value}: duplicates emitted")

    def check_nonspecial_equivalence(self) -> None:
        spec = self.spec
        if spec.n ** spec.point_count > BRUTE_FORCE_LIMIT:
            return
        # degree g means exponents n-1-l summing to g
        level_sum = spec.point_count * (spec.n - 1) - spec.genus()
        for levels in itertools.product(range(spec.n), repeat=spec.point_count):
            if sum(levels) != level_sum:
                continue
            div = LeveledDivisor(spec, levels, DivisorKind.DELTA)
            if (specialty_index(div) == 0) != satisfies_conditions(div):
                self._record(
                    "nonspecial-equivalence",
                    f"levels={levels}: index {specialty_index(div)} vs conditions",
                )

    def check_operators(self) -> None:
        spec = self.spec
        n, xi_shift = spec.n, DivisorKind.XI.shift
        t = _tables(n, spec.alphas)
        negations = [(beta, GroupElement.negation(n, beta)) for beta in spec.classes]
        for xi in self.xis:
            levels = xi.levels
            for beta, element in negations:
                image = _negate(t, levels, beta)
                if not _meets(spec, image, xi_shift):
                    self._record("operators", f"N_{beta} of {levels} is invalid")
                if _negate(t, image, beta) != levels:
                    self._record("operators", f"N_{beta} not an involution at {levels}")
                if _group(t, levels, element) != image:
                    self._record(
                        "operators", f"N_{beta} disagrees with its group element at {levels}"
                    )
            if _rotate(t, levels, n) != levels:
                self._record("operators", f"M^n != id at {levels}")
            if not _meets(spec, _rotate(t, levels, 1), xi_shift):
                self._record("operators", f"M of {levels} is invalid")
            for q in range(spec.point_count):
                partners = _partners(t, levels, q)
                if levels[q] == 0:  # T needs its base point Q at level 0
                    for r in partners:
                        image = _swap(t, levels, q, r)
                        if not _meets(spec, image, xi_shift):
                            self._record("operators", f"T:{q},{r} of {levels} is invalid")
                        if image[r] != levels[r]:
                            self._record("operators", f"T:{q},{r} moved the partner at {levels}")
                        if _swap(t, image, q, r) != levels:
                            self._record("operators", f"T:{q},{r} not an involution at {levels}")
                for r in partners:
                    image = _swap_hat(t, levels, q, r)
                    if not _meets(spec, image, xi_shift):
                        self._record("operators", f"That:{q},{r} of {levels} is invalid")
                    if _swap_hat(t, image, r, q) != levels:
                        self._record("operators", f"That:{r},{q} does not invert at {levels}")

    def check_denominators(self) -> None:
        spec = self.spec
        t = _tables(spec.n, spec.alphas)
        # each h, g and q is built once and looked up for every image that reaches it
        hs = _Lazy(lambda levels: _h(spec, levels))
        gs = _Lazy(lambda key: _g(spec, *key))
        qs = _Lazy(lambda key: _q(spec, *key))
        degrees = set()
        for xi in self.xis:
            levels = xi.levels
            h = hs[levels]
            whole = _matrix(spec, h)
            degrees.add(degree(whole))
            slots = sorted(xi.sets(), reverse=True)
            if full_denominator(xi, slot_order=slots) != whole:
                self._record("denominators", f"assembly order changes h at {levels}")
            if hs[_rotate(t, levels, 1)] != h:
                self._record("denominators", f"h not rotation invariant at {levels}")
            for beta in spec.classes:
                if hs[_negate(t, levels, beta)] != h:
                    self._record(
                        "denominators", f"h not negation invariant at {levels}, beta={beta}"
                    )
            for q in range(spec.point_count):
                if levels[q] != 0:
                    continue
                beta = spec.alphas[q]
                g0 = gs[levels, beta]
                for r in _partners(t, levels, q):
                    image = _swap(t, levels, q, r)
                    shift = _shift(spec, levels, q, r)
                    if tuple(map(sub, hs[image], h)) != shift:
                        self._record("denominators", f"h shift wrong under T:{q},{r} at {levels}")
                    if tuple(map(sub, gs[image, beta], g0)) != shift:
                        self._record(
                            "denominators", f"g^{beta} shift wrong under T:{q},{r} at {levels}"
                        )
                    gamma = spec.alphas[r]
                    if tuple(map(sub, qs[image, q, gamma], qs[levels, q, gamma])) != shift:
                        self._record(
                            "denominators",
                            f"q^{{{q},{gamma}}} shift wrong under T:{q},{r} at {levels}",
                        )
        if len(degrees) > 1:
            self._record("denominators", f"h degrees differ across divisors: {sorted(degrees)}")

    def check_evaluation(self, trials: int = 20) -> None:
        spec = self.spec
        rng = random.Random(self.seed)
        xis = self.xis
        if not xis:
            return
        xi = xis[0]
        for trial in range(trials):
            lams = _distinct_rationals(rng, spec.point_count)
            cur = spec.with_lambdas(lams)
            div = LeveledDivisor(cur, xi.levels, DivisorKind.XI)
            h = full_denominator(div)
            base = evaluate(h, EvalMode.EXACT_RATIONAL)
            shiftc = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            shifted = cur.with_lambdas([v + shiftc for v in lams])
            hs = full_denominator(LeveledDivisor(shifted, xi.levels, DivisorKind.XI))
            if evaluate(hs, EvalMode.EXACT_RATIONAL) != base:
                self._record("evaluation", f"translation changed the value (trial {trial})")
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = cur.with_lambdas([v * scale for v in lams])
            hsc = full_denominator(LeveledDivisor(scaled, xi.levels, DivisorKind.XI))
            if evaluate(hsc, EvalMode.EXACT_RATIONAL) != base * scale ** degree(h):
                self._record("evaluation", f"scaling law fails (trial {trial})")

    # -----------------------------------------------------------------------


def _distinct_rationals(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        v = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        if v not in out:
            out.append(v)
    return out


def run_suite(
    spec: CurveSpec,
    checks: Optional[Iterable[str]] = None,
    max_vertices: int = 20000,
    seed: int = 0,
) -> tuple[list[str], list[Finding]]:
    """Run the named checks (all by default); returns (checks run, findings)."""
    verifier = Verifier(spec, max_vertices=max_vertices, seed=seed)
    findings = verifier.run(checks)
    return verifier.checks_run, findings
