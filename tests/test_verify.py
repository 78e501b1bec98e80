import functools
import itertools
from collections import Counter
from operator import sub

import pytest

from thomae import (
    CurveSpec,
    DivisorKind,
    ExponentMatrix,
    GroupElement,
    LeveledDivisor,
    apply_M,
    apply_N_beta,
    apply_T,
    apply_T_hat,
    degree,
    enumerate_divisors,
    full_denominator,
    k_inverse,
    pmt_denominator,
    pmt_gamma_denominator,
    run_suite,
    t_admissible,
    t_hat_admissible,
    theta_relation_shift,
)
from thomae import denominators, operators, verify
from thomae.denominators import _PairTables
from thomae.divisors import _meets


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

    def recording(name, reader):
        def apply(tables, columns, q, r):
            for levels in zip(*columns):
                calls[name, levels, q, r] += 1
            return reader(tables, columns, q, r)

        return apply

    monkeypatch.setattr(verify, "_swap_columns", recording("T", verify._swap_columns))
    monkeypatch.setattr(verify, "_swap_hat_columns", recording("That", verify._swap_hat_columns))
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
    orig = verify._swap_hat_columns
    monkeypatch.setattr(verify, "_swap_hat_columns",
                        lambda t, c, q, r: orig(t, orig(t, c, q, r), q, r))
    ran, findings = run_suite(CurveSpec.from_alphas(5, [1, 1, 1, 2]))
    assert findings and {f.check for f in findings} == {"operators"}
    assert ran == [
        "genus-sum", "enumeration", "nonspecial-equivalence", "operators", "denominators",
        "evaluation",
    ]


# ---------------------------------------------------------------------------
# the column checks against the tuple-by-tuple sweeps they replace


def reference_operators(run):
    """The operator identities, one shifted divisor at a time."""
    spec = run.spec
    n, xi_shift = spec.n, DivisorKind.XI.shift
    t = operators._tables(n, spec.alphas)
    negations = [(beta, GroupElement.negation(n, beta)) for beta in spec.classes]
    for levels in run.xis:
        for beta, element in negations:
            image = operators._negate(t, levels, beta)
            if not _meets(spec, image, xi_shift):
                yield f"N_{beta} of {levels} is invalid"
            if operators._negate(t, image, beta) != levels:
                yield f"N_{beta} not an involution at {levels}"
            if operators._group(t, levels, element) != image:
                yield f"N_{beta} disagrees with its group element at {levels}"
        if operators._rotate(t, levels, n) != levels:
            yield f"M^n != id at {levels}"
        if not _meets(spec, operators._rotate(t, levels, 1), xi_shift):
            yield f"M of {levels} is invalid"
        for q in range(spec.point_count):
            partners = operators._partners(t, levels, q)
            if levels[q] == 0:  # T needs its base point Q at level 0
                for r in partners:
                    image = operators._swap(t, levels, q, r)
                    if not _meets(spec, image, xi_shift):
                        yield f"T:{q},{r} of {levels} is invalid"
                    if image[r] != levels[r]:
                        yield f"T:{q},{r} moved the partner at {levels}"
                    if operators._swap(t, image, q, r) != levels:
                        yield f"T:{q},{r} not an involution at {levels}"
            for r in partners:
                image = operators._swap_hat(t, levels, q, r)
                if not _meets(spec, image, xi_shift):
                    yield f"That:{q},{r} of {levels} is invalid"
                if operators._swap_hat(t, image, r, q) != levels:
                    yield f"That:{r},{q} does not invert at {levels}"


def reference_denominators(run):
    """The denominator identities, one shifted divisor at a time."""
    spec = run.spec
    t = operators._tables(spec.n, spec.alphas)
    hs, gs, qs = (functools.cache(functools.partial(kernel, spec))
                  for kernel in (denominators._h, denominators._g, denominators._q))
    degrees = set()
    for levels in run.xis:
        h = hs(levels)
        degrees.add(degree(ExponentMatrix._make(spec, h)))
        slots = sorted(set(zip(spec.alphas, levels)), reverse=True)
        if denominators._slot_walk(spec, levels, slots)._values != h:
            yield f"assembly order changes h at {levels}"
        if hs(operators._rotate(t, levels, 1)) != h:
            yield f"h not rotation invariant at {levels}"
        for beta in spec.classes:
            if hs(operators._negate(t, levels, beta)) != h:
                yield f"h not negation invariant at {levels}, beta={beta}"
        for q in range(spec.point_count):
            if levels[q] != 0:
                continue
            beta = spec.alphas[q]
            g0 = gs(levels, beta)
            for r in operators._partners(t, levels, q):
                image = operators._swap(t, levels, q, r)
                shift = denominators._shift(spec, levels, q, r)
                if tuple(map(sub, hs(image), h)) != shift:
                    yield f"h shift wrong under T:{q},{r} at {levels}"
                if tuple(map(sub, gs(image, beta), g0)) != shift:
                    yield f"g^{beta} shift wrong under T:{q},{r} at {levels}"
                gamma = spec.alphas[r]
                if tuple(map(sub, qs(image, q, gamma), qs(levels, q, gamma))) != shift:
                    yield f"q^{{{q},{gamma}}} shift wrong under T:{q},{r} at {levels}"
    if len(degrees) > 1:
        yield f"h degrees differ across divisors: {sorted(degrees)}"


REFERENCES = {"operators": reference_operators, "denominators": reference_denominators}

# (module, name, stand-in): each breaks a rule that both sweeps read
FAULTS = {
    "none": None,
    # the exponent then tells the two walking directions of a slot pair apart
    "direction-sensitive-exponent": (denominators, "_slot_pair_exponent",
                                     lambda n, s, t: 1000 * s + t),
    "N_beta-off-by-one": (operators, "a_value",
                          lambda beta, alpha, l, n: (alpha * k_inverse(beta, n) - l) % n),
    "T-reads-the-a-reflection": (operators, "b_value", operators.a_value),
}
FAULT_FINDINGS = {"none": 0, "direction-sensitive-exponent": 2170, "N_beta-off-by-one": 3920,
                  "T-reads-the-a-reflection": 1226}


@pytest.mark.parametrize("fault", FAULTS)
def test_column_checks_give_the_reference_findings_in_order(fault, small_battery):
    """On every curve of the small battery, with the rules intact and under
    three broken rules, each column check yields the messages of its
    tuple-by-tuple reference, in the same order."""
    total = 0
    with pytest.MonkeyPatch.context() as patch:
        if FAULTS[fault]:
            patch.setattr(*FAULTS[fault])
        operators._tables.cache_clear()  # the level maps are read from the rules once per curve
        try:
            for spec in small_battery:
                for check, reference in REFERENCES.items():
                    _, findings = run_suite(spec, [check])
                    want = list(reference(verify._Run(spec, 0, 20000)))
                    assert [f.reproducer for f in findings] == want, (spec, check)
                    total += len(want)
        finally:
            operators._tables.cache_clear()
    assert total == FAULT_FINDINGS[fault]


def test_every_column_image_matches_its_public_function(full_battery):
    """Every row of every operator image and every pair table read, against the
    per-divisor function it stands for."""
    rows_checked = 0
    for spec in full_battery:
        run = verify._Run(spec, 0, 20000)
        t, cols, tables = operators._tables(spec.n, spec.alphas), run.columns, _PairTables(spec)
        keys = denominators._keys(spec.n, cols)
        xis = [LeveledDivisor(spec, levels, DivisorKind.XI) for levels in run.xis]
        assert [xi.levels for xi in xis] == list(zip(*cols))

        def rows_of(columns):
            return list(zip(*columns))

        image = rows_of(operators._columns(t.rotations(1), cols))
        assert image == [apply_M(xi).levels for xi in xis]
        for beta in spec.classes:
            image = rows_of(operators._columns(t.negations(beta), cols))
            assert image == [apply_N_beta(xi, beta).levels for xi in xis]
            element = GroupElement.negation(spec.n, beta)
            assert rows_of(verify._group_columns(t, cols, element)) == image
        reads = {"h": tables.h, "back": tables.back}
        reads.update((("g", beta), tables.blocks(beta, spec.classes)) for beta in spec.classes)
        read = {name: rows_of(denominators._read(pair_tables, keys))
                for name, pair_tables in reads.items()}
        for row, xi in enumerate(xis):
            assert read["h"][row] == full_denominator(xi)._values
            slots = sorted(set(zip(spec.alphas, xi.levels)), reverse=True)
            assert read["back"][row] == denominators._slot_walk(spec, xi.levels, slots)._values
            for beta in spec.classes:
                assert read["g", beta][row] == pmt_denominator(xi, beta)._values
        for q, r, hat, base in run.swaps:
            assert hat == [k for k, xi in enumerate(xis) if t_hat_admissible(xi, q, r)]
            assert base == [k for k, xi in enumerate(xis) if t_admissible(xi, q, r)]
            image = rows_of(verify._swap_hat_columns(t, verify._take(cols, hat), q, r))
            assert image == [apply_T_hat(xis[k], q, r).levels for k in hat]
            image = rows_of(verify._swap_columns(t, verify._take(cols, base), q, r))
            assert image == [apply_T(xis[k], q, r).levels for k in base]
            # T moves each point alone: its level maps, read at a row, give the image
            moves = verify._swap_columns(t, [range(spec.n)] * spec.point_count, q, r)
            assert rows_of(operators._columns(moves, verify._take(cols, base))) == image
            at_base = [list(map(k.__getitem__, base)) for k in keys]
            shift = rows_of(denominators._read(tables.shift(q, r), at_base))
            assert shift == [theta_relation_shift(xis[k], q, r)._values for k in base]
            rows_checked += len(base)
        for q in range(spec.point_count):
            at_zero = [k for k, xi in enumerate(xis) if xi.levels[q] == 0]
            at_rows = [list(map(k.__getitem__, at_zero)) for k in keys]
            for gamma in spec.classes:
                q_tables = tables.blocks(spec.alphas[q], (gamma,), q)
                got = rows_of(denominators._read(q_tables, at_rows))
                assert got == [pmt_gamma_denominator(xis[k], q, gamma)._values for k in at_zero]
    assert rows_checked > 7_000
