import itertools
import math
import random
from fractions import Fraction

import pytest

from thomae import (
    CurveSpec,
    DivisorError,
    DivisorKind,
    EvalMode,
    ExponentMatrix,
    LeveledDivisor,
    apply_M,
    apply_N_beta,
    apply_T,
    degree,
    divisor_from_exponents,
    enumerate_divisors,
    evaluate,
    full_denominator,
    matrix_quotient,
    matrix_to_dict,
    pmt_denominator,
    pmt_gamma_denominator,
    reduce_matrix,
    satisfies_conditions,
    t_admissible,
    theta_relation_shift,
)
from thomae import denominators


def xi_of(curve, exponents):
    return divisor_from_exponents(curve, tuple(exponents), DivisorKind.XI)


def two_two_curve(n):
    """w^n = (z-l)(z-s)^2(z-t)^(n-2)(z-m)^(n-1): points P, R, S, Q."""
    return CurveSpec.from_alphas(n, [1, 2, n - 2, n - 1])


P, R, S, Q = 0, 1, 2, 3


def entries(matrix):
    return dict(matrix.items())


def nonempty_slots(d):
    """The (class, level) slots the divisor's points occupy."""
    return set(zip(d.curve.alphas, d.levels))


# ---------------------------------------------------------------------------
# the worked 4-point family displays


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_full_denominator_first_type(n):
    eps = 1 if n % 4 == 1 else 0
    curve = two_two_curve(n)
    big = (n * n + 2 * n + 1 - 4 * eps) // 8
    for l in range(n):
        xi = xi_of(curve, [n - 1, n - 1 - l, l, 0])
        h = full_denominator(xi)
        x = l * (n + 1 - l) // 2 if l % 2 == 0 else (l - 1) * (n - l) // 2
        want = {(P, R): big - x, (S, Q): big - x, (P, S): x, (R, Q): x}
        assert entries(h) == {k: v for k, v in want.items() if v}


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_full_denominator_rotated_first_type(n):
    eps = 1 if n % 4 == 1 else 0
    curve = two_two_curve(n)
    big = (n * n + 2 * n + 1 - 4 * eps) // 8
    for l in range(n):
        xi = xi_of(curve, [n - 1 - l, n - 1, 0, l])
        h = full_denominator(xi)
        x = l * (n - 1 - 2 * l) if l <= (n - 1) // 2 else (n - l) * (2 * l + 1 - n)
        want = {(P, R): big - x, (S, Q): big - x, (P, S): x, (R, Q): x}
        assert entries(h) == {k: v for k, v in want.items() if v}


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_full_denominator_second_type(n):
    eps = 1 if n % 4 == 1 else 0
    curve = two_two_curve(n)
    xi = xi_of(curve, [n - 1, 0, 0, n - 1])
    h = full_denominator(xi)
    want = {
        (P, R): (n * n - 6 * n + 9 - 4 * eps) // 8,
        (S, Q): (n * n - 6 * n + 9 - 4 * eps) // 8,
        (P, Q): n - 1,
        (R, S): n - 1,
    }
    assert entries(h) == {k: v for k, v in want.items() if v}


@pytest.mark.parametrize("n", [7, 8, 10, 11])
def test_full_denominator_three_one_family(n):
    # w^n = (z-l1)(z-l2)(z-l3)(z-t)^(n-3), fourth point at full exponent
    s, t = divmod(n, 3)
    e = 1 if n % 2 == 0 else 2
    curve = CurveSpec.from_alphas(n, [1, 1, 1, n - 3])
    S1 = 3
    for i, j, k in itertools.permutations(range(3)):
        exps = [0] * 4
        exps[S1] = n - 1
        exps[i], exps[j], exps[k] = n - 1 - s, s, 0
        h = full_denominator(xi_of(curve, exps))
        pair = lambda a, b: (min(a, b), max(a, b))
        if t == 1:
            want = {
                pair(i, j): (s * s + 2 * s + 2 - e) // 4,
                pair(j, k): (s * s + 2 * s + 2 - e) // 4,
                pair(i, k): (s * s - 2 * s + 2 - e) // 4,
                pair(S1, i): s,
                pair(S1, k): s,
            }
        else:
            want = {
                pair(j, k): (s * s + 4 * s + 5 - e) // 4,
                pair(i, j): (s * s + 1 - e) // 4,
                pair(i, k): (s * s + 1 - e) // 4,
                pair(S1, i): s + 1,
            }
        assert entries(h) == {key: v for key, v in want.items() if v}


@pytest.mark.parametrize("n", [7, 8, 10, 11])
def test_reduce_strips_common_factor(n):
    s, t = divmod(n, 3)
    e = 1 if n % 2 == 0 else 2
    curve = CurveSpec.from_alphas(n, [1, 1, 1, n - 3])
    xi = xi_of(curve, [n - 1 - s, s, 0, n - 1])
    h = full_denominator(xi)
    reduced = reduce_matrix(h)
    common = (s * s - 2 * s + 2 - e) // 4 if t == 1 else (s * s + 1 - e) // 4
    h_entries, reduced_entries = entries(h), entries(reduced)
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        assert h_entries.get((a, b), 0) - reduced_entries.get((a, b), 0) == common
    for a in range(3):
        assert reduced_entries.get((a, 3), 0) == h_entries.get((a, 3), 0)


# ---------------------------------------------------------------------------
# the base-point-invariant denominator


@pytest.mark.parametrize("n", [5, 7, 9])
def test_pmt_denominator_isolated_divisor(n):
    # the isolated divisor keeps a nontrivial denominator: exponents n-3, 1, 1
    # against the base point
    curve = two_two_curve(n)
    xi = xi_of(curve, [n - 1, 0, 0, n - 1])
    g = pmt_denominator(xi, beta=1)
    assert entries(g) == {(P, R): n - 3, (P, S): 1, (P, Q): 1}


def slot_blocks(d, beta, lead_classes, q=None):
    """g^beta, or q^{Q,gamma} when the base point q is given, straight from
    the slot-block definition.  In each lead class the upper lead slot sits at
    level alpha * beta^{-1} and the lower one a level below; their points are
    paired with every point of every slot (alpha, l) at a(l) = alpha *
    beta^{-1} - 1 - l mod n and at n-1-a(l).  A pair of two lead points of one
    block is counted once, at n-1.  For q, Q is stripped from its slot and
    adjoined to the lower leads."""
    n = d.curve.n
    kb = pow(beta, -1, n)
    points = {i: s for i, s in enumerate(zip(d.curve.alphas, d.levels)) if i != q}
    out = {}
    for drop in (0, 1):
        leads = {
            i for i, (alpha, l) in points.items()
            if alpha in lead_classes and l == (alpha * kb - drop) % n
        }
        if drop and q is not None:
            leads.add(q)
        for x in leads:
            for y in set(points) | leads:
                key = (min(x, y), max(x, y))
                if y not in leads:
                    alpha, l = points[y]
                    av = (alpha * kb - 1 - l) % n
                    out[key] = out.get(key, 0) + (n - 1 - av if drop else av)
                elif x < y:
                    out[key] = out.get(key, 0) + n - 1
    return {k: v for k, v in out.items() if v}


def test_two_block_denominators_match_slot_blocks(small_battery):
    # every level vector, valid or not, as the denominator command takes any XI levels
    for curve in small_battery:
        for levels in itertools.product(range(curve.n), repeat=curve.point_count):
            d = LeveledDivisor(curve, levels, DivisorKind.XI)
            for beta in curve.classes:
                assert entries(pmt_denominator(d, beta)) == slot_blocks(d, beta, curve.classes)
            for q in range(curve.point_count):
                if levels[q] == 0:
                    beta = curve.alphas[q]
                    for gamma in curve.classes:
                        want = slot_blocks(d, beta, {gamma}, q)
                        assert entries(pmt_gamma_denominator(d, q, gamma)) == want


def dense_two_blocks(curve, a, upper, lower):
    """The two-block pair rule over all p(p-1)/2 point pairs: (i, j) gets a[j]
    if i is an upper lead, else a[i] if j is, plus n-1-a[j] if i is a lower
    lead, else n-1-a[i] if j is."""
    top = curve.n - 1
    out = {}
    for i, j in itertools.combinations(range(curve.point_count), 2):
        v = a[j] if upper[i] else a[i] if upper[j] else 0
        if lower[i]:
            v += top - a[j]
        elif lower[j]:
            v += top - a[i]
        if v:
            out[i, j] = v
    return out


def test_lead_sparse_blocks_match_the_dense_rule(full_battery):
    """g^beta for every class beta and q^{Q,gamma} for every level-0 Q and
    every class gamma, on every shifted divisor of the battery."""
    cases = 0
    for curve in full_battery:
        top = curve.n - 1
        for xi in enumerate_divisors(curve, DivisorKind.XI):
            for beta in curve.classes:
                a = apply_N_beta(xi, beta).levels
                upper, lower = [v == top for v in a], [v == 0 for v in a]
                want = dense_two_blocks(curve, a, upper, lower)
                assert entries(pmt_denominator(xi, beta)) == want
            for q in range(curve.point_count):
                if xi.levels[q] != 0:
                    continue
                a = apply_N_beta(xi, curve.alphas[q]).levels
                for gamma in curve.classes:
                    upper = [g == gamma and v == top for g, v in zip(curve.alphas, a)]
                    lower = [g == gamma and v == 0 for g, v in zip(curve.alphas, a)]
                    lower[q] = True
                    want = dense_two_blocks(curve, a, upper, lower)
                    assert entries(pmt_gamma_denominator(xi, q, gamma)) == want
                    cases += 1
    assert cases > 10_000


def test_empty_lead_sets_leave_only_base_blocks():
    # when both distinguished class-gamma slots are unoccupied, everything
    # comes from the adjoined base point, paired at n-1-a(l) per slot
    from thomae import a_value

    n = 5
    curve = two_two_curve(n)
    xi = xi_of(curve, [n - 1, 0, 0, n - 1])  # P and Q at full exponent
    beta = curve.alphas[P]
    # gamma = 2: distinguished levels 2 and 1 are empty (R, S sit at 4, Q at 0)
    qmat = pmt_gamma_denominator(xi, P, 2)
    stripped_levels = {R: n - 1, S: n - 1, Q: 0}  # P itself moves to level 4
    want = {}
    for point, level in stripped_levels.items():
        coef = n - 1 - a_value(beta, curve.alphas[point], level, n)
        if coef:
            want[(min(P, point), max(P, point))] = coef
    assert entries(qmat) == want


# ---------------------------------------------------------------------------
# invariance


def test_full_denominator_invariances(small_battery):
    for curve in small_battery:
        for xi in enumerate_divisors(curve, DivisorKind.XI):
            h = full_denominator(xi)
            reverse = sorted(nonempty_slots(xi), reverse=True)
            assert denominators._slot_walk(xi.curve, xi.levels, reverse) == h
            assert full_denominator(apply_M(xi, 1)) == h
            for beta in curve.classes:
                assert full_denominator(apply_N_beta(xi, beta)) == h
        # the cached exponents against the sorted slot walk on every level vector, valid
        # or not, as the denominator command takes any XI levels; on the same
        # vectors the one condition test against the per-k counts
        for levels in itertools.product(range(curve.n), repeat=curve.point_count):
            d = LeveledDivisor(curve, levels, DivisorKind.XI)
            walked = denominators._slot_walk(d.curve, d.levels, sorted(nonempty_slots(d)))
            assert full_denominator(d) == walked
            for kind in DivisorKind:
                d = LeveledDivisor(curve, levels, kind)
                lhs_holds = all(
                    sum(l < t for l, t in zip(levels, thr)) == curve.t_values[k] - kind.shift
                    for k, thr in enumerate(curve.thresholds, 1)
                )
                assert satisfies_conditions(d) == lhs_holds


def test_full_denominator_beyond_the_battery():
    """h against the slot walk, sorted and reversed, on a curve of 21 classes."""
    curve = CurveSpec.from_alphas(101, list(range(1, 21)) + [93])
    rng = random.Random(20)
    for _ in range(5):
        levels = tuple(rng.randrange(curve.n) for _ in range(curve.point_count))
        d = LeveledDivisor(curve, levels, DivisorKind.XI)
        h = full_denominator(d)
        for reverse in (False, True):
            order = sorted(nonempty_slots(d), reverse=reverse)
            assert h == denominators._slot_walk(d.curve, d.levels, order)


def test_slot_walk_refuses_an_order_that_is_not_the_nonempty_slots():
    curve = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    xi = LeveledDivisor(curve, (0, 0, 2, 1), DivisorKind.XI)
    slots = sorted(nonempty_slots(xi))
    assert slots == [(1, 0), (1, 2), (2, 1)]
    for order in (
        slots[1:],  # a slot missing
        slots + [(1, 0)],  # a slot repeated
        slots + [(2, 3)],  # a slot no point occupies
        slots[:2] + [(1, 6)],  # unoccupied; alpha * n + level names (2, 1) as well
    ):
        with pytest.raises(DivisorError, match="exactly the nonempty slots"):
            denominators._slot_walk(xi.curve, xi.levels, order)


def test_slot_walk_in_a_shuffled_order_gives_h(full_battery):
    rng = random.Random(20)
    for curve in full_battery:
        for xi in enumerate_divisors(curve, DivisorKind.XI):
            slots = list(dict.fromkeys(zip(curve.alphas, xi.levels)))
            rng.shuffle(slots)
            assert denominators._slot_walk(xi.curve, xi.levels, slots) == full_denominator(xi)


def test_h_walks_each_slot_pair_from_the_lower_slot(monkeypatch, small_battery):
    """The exponent is the same walked either way, so an exponent that tells the
    two directions apart is put in its place: h is then the walk in ascending
    slot order, and differs from the reversed walk wherever two slots meet."""
    monkeypatch.setattr(denominators, "_slot_pair_exponent", lambda n, s, t: 1000 * s + t)
    differs = 0
    for curve in small_battery:
        for xi in enumerate_divisors(curve, DivisorKind.XI):
            h = full_denominator(xi)
            ascending = sorted(nonempty_slots(xi))
            assert h == denominators._slot_walk(xi.curve, xi.levels, ascending)
            reverse = sorted(nonempty_slots(xi), reverse=True)
            differs += h != denominators._slot_walk(xi.curve, xi.levels, reverse)
    assert differs > 100


def test_swap_shift_law(small_battery):
    moves = 0
    for curve in small_battery:
        for xi in enumerate_divisors(curve, DivisorKind.XI):
            h0 = full_denominator(xi)
            for q in range(curve.point_count):
                if xi.levels[q] != 0:
                    continue
                beta = curve.alphas[q]
                g0 = pmt_denominator(xi, beta)
                for r in range(curve.point_count):
                    if q == r or not t_admissible(xi, q, r):
                        continue
                    moves += 1
                    image = apply_T(xi, q, r)
                    shift = theta_relation_shift(xi, q, r)
                    assert matrix_quotient(full_denominator(image), h0) == shift
                    assert matrix_quotient(pmt_denominator(image, beta), g0) == shift
                    gamma = curve.alphas[r]
                    q0 = pmt_gamma_denominator(xi, q, gamma)
                    q1 = pmt_gamma_denominator(image, q, gamma)
                    assert matrix_quotient(q1, q0) == shift
    assert moves > 200


def test_degree_constant_per_curve(small_battery):
    for curve in small_battery:
        degrees = {
            degree(full_denominator(xi))
            for xi in enumerate_divisors(curve, DivisorKind.XI)
        }
        assert len(degrees) <= 1


def test_second_type_divisors_share_degree():
    n = 9
    curve = two_two_curve(n)
    half = (n - 1) // 2
    second_type = [
        [n - 1, 0, 0, n - 1],
        [0, n - 1, n - 1, 0],
        [n - 1, n - 3, 1, 1],
        [1, 1, n - 3, n - 1],
        [half - 1, n - 1, 1, half],
        [half, 1, n - 1, half - 1],
    ]
    degs = {degree(full_denominator(xi_of(curve, exps))) for exps in second_type}
    assert len(degs) == 1


# ---------------------------------------------------------------------------
# matrices and evaluation


def test_matrix_quotient_laws():
    curve = two_two_curve(5)
    xi = xi_of(curve, [4, 4, 0, 0])
    h = full_denominator(xi)
    zero = matrix_quotient(h, h)
    assert not zero and entries(zero) == {}
    g = pmt_denominator(xi, 1)
    assert matrix_quotient(h, g) + g == h
    other = CurveSpec.from_alphas(3, [1, 1, 1])
    with pytest.raises(DivisorError, match="different curves"):
        matrix_quotient(h, ExponentMatrix(other))


@pytest.mark.parametrize(
    "q, r, message",
    [
        (1, 99, "no point with index 99"),
        (-1, 0, "no point with index -1"),
        (99, 0, "no point with index 99"),
        (1, 1, "two distinct points"),
    ],
)
def test_shift_rejects_bad_point_indices(q, r, message):
    xi = next(enumerate_divisors(two_two_curve(5), DivisorKind.XI))
    with pytest.raises(DivisorError, match=message):
        theta_relation_shift(xi, q, r)


def test_matrix_rejects_diagonal():
    curve = two_two_curve(5)
    with pytest.raises(DivisorError):
        ExponentMatrix(curve, {(1, 1): 2})


@pytest.mark.parametrize(
    "entries, message",
    [
        ({(-1, 1): 2}, "no point with index -1"),  # would read as the pair (2, 1)
        ({(0, 7): 2}, "no point with index 7"),  # would fail only in evaluate
        ({(0, 1): 2, (1, 0): 3}, "given twice"),  # would keep the last value
        ({(0, 1): 0, (1, 0): 3}, "given twice"),
        ({(0, 1): 0.5}, "not an integer"),  # matrix_to_dict would emit the float
        ({(0, 1): 2.0}, "not an integer"),
        ({(1, 2): "x"}, "not an integer"),
        ({(0, 2): True}, "not an integer"),
    ],
    ids=["negative-index", "index-past-last-point", "pair-twice", "pair-twice-first-zero",
         "float-exponent", "integral-float-exponent", "string-exponent", "bool-exponent"],
)
def test_matrix_rejects_malformed_pairs(entries, message):
    """The constructor refuses a malformed entry."""
    curve = CurveSpec.from_alphas(3, [1, 1, 1])
    with pytest.raises(DivisorError, match=message):
        ExponentMatrix(curve, entries)


def test_matrix_takes_a_pair_in_either_order():
    curve = CurveSpec.from_alphas(3, [1, 1, 1])
    mat = ExponentMatrix(curve, {(2, 0): 5})
    assert mat == ExponentMatrix(curve, {(0, 2): 5})
    assert mat.items() == [((0, 2), 5)]


def test_evaluate_zero_matrix():
    curve = two_two_curve(5).with_lambdas([Fraction(i) for i in range(4)])
    zero = ExponentMatrix(curve)
    assert evaluate(zero, EvalMode.EXACT_RATIONAL) == 1
    logmag, sign = evaluate(zero, EvalMode.LOG_ABS)
    assert logmag == 0.0 and sign == 1


def test_evaluate_single_pair():
    curve = CurveSpec.from_alphas(3, [1, 1, 1]).with_lambdas(
        [Fraction(0), Fraction(1), Fraction(2)]
    )
    mat = ExponentMatrix(curve, {(0, 1): 1})
    assert evaluate(mat, EvalMode.EXACT_RATIONAL) == 1  # (0-1)^6
    mat2 = ExponentMatrix(curve, {(0, 2): 1})
    assert evaluate(mat2, EvalMode.EXACT_RATIONAL) == 64  # (0-2)^6


def test_evaluate_log_matches_exact():
    curve = two_two_curve(7).with_lambdas(
        [Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(-4)]
    )
    h = full_denominator(xi_of(curve, [6, 5, 1, 0]))
    exact = evaluate(h, EvalMode.EXACT_RATIONAL)
    logmag, sign = evaluate(h, EvalMode.LOG_ABS)
    assert sign == 1 and exact > 0
    assert math.isclose(logmag, math.log(float(exact)), rel_tol=1e-9)


def test_evaluate_requires_lambdas():
    curve = two_two_curve(5)
    with pytest.raises(DivisorError, match="z-values"):
        evaluate(full_denominator(xi_of(curve, [4, 4, 0, 0])))


def test_translation_and_scaling_laws():
    import random

    rng = random.Random(7)
    curve = two_two_curve(7)
    xi_levels = (0, 2, 2, 6)
    for _ in range(20):
        lams = []
        while len(lams) < 4:
            v = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            if v not in lams:
                lams.append(v)
        cur = curve.with_lambdas(lams)
        div = LeveledDivisor(cur, xi_levels, DivisorKind.XI)
        h = full_denominator(div)
        base = evaluate(h, EvalMode.EXACT_RATIONAL)
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        shifted = cur.with_lambdas([v + c for v in lams])
        assert (
            evaluate(
                full_denominator(LeveledDivisor(shifted, xi_levels, DivisorKind.XI)),
                EvalMode.EXACT_RATIONAL,
            )
            == base
        )
        u = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        scaled = cur.with_lambdas([v * u for v in lams])
        assert (
            evaluate(
                full_denominator(LeveledDivisor(scaled, xi_levels, DivisorKind.XI)),
                EvalMode.EXACT_RATIONAL,
            )
            == base * u ** degree(h)
        )


def test_matrix_to_dict_format():
    curve = two_two_curve(5)
    h = full_denominator(xi_of(curve, [4, 4, 0, 0]))
    doc = matrix_to_dict(h)
    assert doc["unit"] == "e*n" and doc["e"] == 2 and doc["n"] == 5
    assert all(set(p) == {"i", "j", "exp_unit"} for p in doc["pairs"])
    assert doc["pairs"] == sorted(doc["pairs"], key=lambda p: (p["i"], p["j"]))
