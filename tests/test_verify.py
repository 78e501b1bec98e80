import itertools
from collections import Counter

import pytest

from thomae import (
    CurveSpec,
    DivisorKind,
    LeveledDivisor,
    apply_T,
    apply_T_hat,
    enumerate_divisors,
    run_suite,
    t_admissible,
    t_hat_admissible,
)
from thomae import verify


def test_run_suite_enumerates_shifted_divisors_once(monkeypatch):
    calls = []
    original = verify._list_assignments

    def counting(spec, kind, allowed):
        calls.append(kind)
        return original(spec, kind, allowed)

    monkeypatch.setattr(verify, "_list_assignments", counting)
    ran, findings = run_suite(CurveSpec.from_alphas(5, [1, 1, 1, 2]))
    assert findings == []
    assert "enumeration" in ran and "operators" in ran
    assert calls.count(DivisorKind.XI) == 1


def test_nonspecial_equivalence_examines_every_degree_g_divisor(monkeypatch):
    examined = []
    original = verify.specialty_index

    def recording(div):
        examined.append(div.levels)
        return original(div)

    monkeypatch.setattr(verify, "specialty_index", recording)
    spec = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    _, findings = run_suite(spec, ["nonspecial-equivalence"])
    assert findings == []
    assert examined == [
        levels
        for levels in itertools.product(range(spec.n), repeat=spec.point_count)
        if sum(LeveledDivisor(spec, levels, DivisorKind.DELTA).exponents) == spec.genus()
    ]


def test_nonspecial_equivalence_derives_the_last_level_on_short_curves(monkeypatch):
    """The check walks p-1 levels and derives the last from the level sum; on
    three points, the fewest a curve has, it examines exactly the tuples of that sum."""
    examined = []
    original = verify.specialty_index

    def recording(div):
        examined.append(div.levels)
        return original(div)

    monkeypatch.setattr(verify, "specialty_index", recording)
    spec = CurveSpec.from_alphas(3, [1, 1, 1])
    list(verify._nonspecial_equivalence(verify._Run(spec, 0, 10)))
    level_sum = spec.point_count * (spec.n - 1) - spec.genus()
    # a finding's message reads the index of its tuple a second time
    assert list(dict.fromkeys(examined)) == [
        levels
        for levels in itertools.product(range(spec.n), repeat=spec.point_count)
        if sum(levels) == level_sum
    ]


def test_operators_check_applies_every_admissible_swap(monkeypatch):
    """Each admissible (Q, R) of every shifted divisor, as found by probing all
    p^2 pairs, gets its swap and the swap back, and nothing else does."""
    calls = Counter()

    def recording(name, kernel):
        def apply(tables, levels, q, r):
            calls[name, levels, q, r] += 1
            return kernel(tables, levels, q, r)

        return apply

    monkeypatch.setattr(verify, "_swap", recording("T", verify._swap))
    monkeypatch.setattr(verify, "_swap_hat", recording("That", verify._swap_hat))
    spec = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    _, findings = run_suite(spec, ["operators"])
    assert findings == []
    want = Counter()
    for xi in enumerate_divisors(spec, DivisorKind.XI):
        for q, r in itertools.permutations(range(spec.point_count), 2):
            if t_admissible(xi, q, r):
                want["T", xi.levels, q, r] += 1
                want["T", apply_T(xi, q, r).levels, q, r] += 1
            if t_hat_admissible(xi, q, r):
                want["That", xi.levels, q, r] += 1
                want["That", apply_T_hat(xi, q, r).levels, r, q] += 1
    assert calls == want and sum(want.values()) > 50


def test_a_finding_carries_the_name_of_its_check(monkeypatch):
    """A T̂ that steps twice breaks only the operator identities, and the sweep
    still runs every check after the one that fails."""
    orig = verify._swap_hat
    monkeypatch.setattr(verify, "_swap_hat", lambda t, l, q, r: orig(t, orig(t, l, q, r), q, r))
    ran, findings = run_suite(CurveSpec.from_alphas(5, [1, 1, 1, 2]))
    assert findings and {f.check for f in findings} == {"operators"}
    assert ran == [
        "genus-sum", "enumeration", "nonspecial-equivalence", "operators", "denominators",
        "evaluation",
    ]
