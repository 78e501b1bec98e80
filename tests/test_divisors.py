import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add

import pytest

from thomae import (
    CurveSpec,
    DivisorError,
    DivisorKind,
    LeveledDivisor,
    brute_force_divisors,
    count_base_point_free,
    count_divisors,
    divisor_from_exponents,
    enumerate_cardinality_matrices,
    enumerate_divisors,
    expand_matrix,
    satisfies_conditions,
    specialty_index,
)
from thomae import divisors
from thomae.divisors import CardinalityMatrix

from conftest import curve_battery


def expansion_size(matrix):
    """Labeled assignments with the matrix's per-class counts: one
    multinomial coefficient per row."""
    return math.prod(
        math.comb(sum(row[l:]), row[l]) for _, row in matrix.counts for l in range(len(row))
    )


def delta_of(curve, exponents):
    return divisor_from_exponents(curve, tuple(exponents), DivisorKind.DELTA)


def xi_of(curve, exponents):
    return divisor_from_exponents(curve, tuple(exponents), DivisorKind.XI)


def three_point_curve(n):
    """w^n = (z-a)(z-b)^2(z-c)^(n-3) with distinct rational z-values."""
    return CurveSpec.from_alphas(n, [1, 2, n - 3]).with_lambdas(
        [Fraction(0), Fraction(1), Fraction(2)]
    )


# ---------------------------------------------------------------------------
# an independent specialty oracle: rank of the vanishing conditions on the
# polynomial parts of the differential basis, over exact rationals


def rank_specialty_index(curve, exponents):
    """dim of differentials vanishing on the divisor, via exact linear algebra.

    For each twist k the holomorphic pieces are p(z) * (basis differential)
    with deg p <= t_k - 2, and the divisor forces p to vanish at z-values of
    prescribed points to prescribed orders; the dimension drop is the rank of
    a generalized Vandermonde system over Fraction.
    """
    n = curve.n
    lams = curve.lambdas
    total = 0
    for k in range(1, n):
        tk = curve.t_values[k]
        dim = tk - 1
        if dim <= 0:
            continue
        rows = []
        for i, point in enumerate(curve.points):
            base = n - 1 + n * ((point.alpha * k) // n) - point.alpha * k
            need = exponents[i] - base
            order = 0 if need <= 0 else -(-need // n)  # ceil(need / n)
            for derivative in range(order):
                rows.append(_derivative_row(lams[i], derivative, dim))
        total += dim - _rank(rows)
    return total


def _derivative_row(lam, derivative, dim):
    row = []
    for power in range(dim):
        if power < derivative:
            row.append(Fraction(0))
        else:
            coeff = Fraction(1)
            for j in range(derivative):
                coeff *= power - j
            row.append(coeff * lam ** (power - derivative))
    return row


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# specialty and the cardinality conditions


def test_specialty_examples_n13():
    curve = three_point_curve(13)
    assert specialty_index(delta_of(curve, [3, 1, 2])) == 0
    assert specialty_index(delta_of(curve, [4, 1, 1])) > 0


def test_third_family_classification():
    # exact non-special sets for the three-point family, as exponent vectors
    expected = {
        5: {(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)},
        7: {(2, 1, 0), (1, 1, 1), (1, 0, 2), (0, 2, 1)},
        11: {(3, 1, 1), (2, 1, 2)},
        13: {(3, 1, 2)},
        17: set(),
    }
    for n, want in expected.items():
        curve = three_point_curve(n)
        got = {d.exponents for d in enumerate_divisors(curve, DivisorKind.DELTA)}
        assert got == want, n


def test_third_family_n5_base_pointed_forms():
    # 4 non-special divisors but 6 pairs (divisor, avoided point)
    curve = three_point_curve(5)
    pairs = sum(
        d.exponents.count(0) for d in enumerate_divisors(curve, DivisorKind.DELTA)
    )
    assert pairs == 6


def test_equivalence_index_vs_conditions(small_battery):
    for curve in small_battery:
        g = curve.genus()
        n = curve.n
        for levels in itertools.product(range(n), repeat=curve.point_count):
            div = LeveledDivisor(curve, levels, DivisorKind.DELTA)
            if sum(div.exponents) != g:
                continue
            assert (specialty_index(div) == 0) == satisfies_conditions(div)


def test_rank_oracle_agrees_with_index():
    for n, alphas in [(5, [1, 2, 2]), (7, [1, 2, 4]), (5, [1, 1, 1, 2]), (6, [1, 1, 1, 1, 1, 1])]:
        lams = [Fraction(i) for i in range(len(alphas))]
        curve = CurveSpec.from_alphas(n, alphas).with_lambdas(lams)
        g = curve.genus()
        for levels in itertools.product(range(n), repeat=curve.point_count):
            div = LeveledDivisor(curve, levels, DivisorKind.DELTA)
            if sum(div.exponents) != g:
                continue
            assert rank_specialty_index(curve, div.exponents) == specialty_index(div)


def test_nth_power_divisors_are_special():
    # degree-g divisors containing an n-th power always carry a differential
    for n, alphas in [(3, [1, 1, 1, 1, 1, 1]), (4, [1, 1, 1, 1]), (5, [1, 2, 2]),
                      (5, [1, 1, 1, 2]), (6, [1, 1, 1, 1, 1, 1])]:
        lams = [Fraction(i) for i in range(len(alphas))]
        curve = CurveSpec.from_alphas(n, alphas).with_lambdas(lams)
        g = curve.genus()
        npts = curve.point_count
        checked = 0
        for exponents in itertools.product(range(min(g, 2 * n - 1) + 1), repeat=npts):
            if sum(exponents) != g or max(exponents) < n:
                continue
            assert rank_specialty_index(curve, exponents) >= 1, (n, alphas, exponents)
            checked += 1
        assert checked > 0 or g < n


def test_divisor_from_exponents_rejects_nth_powers():
    curve = three_point_curve(5)
    with pytest.raises(DivisorError, match="reduce"):
        divisor_from_exponents(curve, (5, 0, 0), DivisorKind.DELTA)


def test_xi_conditions_examples():
    # the base-point construction: glue an avoided point at full exponent
    for curve in curve_battery(6, 4):
        for delta in enumerate_divisors(curve, DivisorKind.DELTA):
            for i in range(curve.point_count):
                if delta.exponents[i] != 0:
                    continue
                exps = list(delta.exponents)
                exps[i] = curve.n - 1
                assert satisfies_conditions(xi_of(curve, exps))
            assert satisfies_conditions(delta)


def test_xi_all_level_zero_is_rejected_by_brute_force():
    curve = CurveSpec.from_alphas(3, [1, 1, 1])
    allzero = LeveledDivisor(curve, (0, 0, 0), DivisorKind.XI)
    brute = {d.levels for d in brute_force_divisors(curve, DivisorKind.XI)}
    assert (allzero.levels in brute) == satisfies_conditions(allzero)
    assert not satisfies_conditions(allzero)


def test_second_family_xi_divisors():
    # 6 divisors with the fourth point at full exponent on 1,1,1,n-3 curves
    for n in (7, 8, 10):
        s = n // 3
        curve = CurveSpec.from_alphas(n, [1, 1, 1, n - 3])
        count = 0
        for i, j in itertools.permutations(range(3), 2):
            exps = [0, 0, 0, n - 1]
            exps[i] = n - 1 - s
            exps[j] = s
            assert satisfies_conditions(xi_of(curve, exps))
            count += 1
        assert count == 6


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_matches_brute_force():
    for curve in curve_battery(5, 4):
        for kind in (DivisorKind.DELTA, DivisorKind.XI):
            fast = sorted(d.levels for d in enumerate_divisors(curve, kind))
            slow = sorted(d.levels for d in brute_force_divisors(curve, kind))
            assert fast == slow
            assert len(set(fast)) == len(fast)


def test_search_matches_brute_force_on_full_battery(full_battery):
    """The matrices read off the listing are exactly the distinct per-class
    level-count matrices of the brute-force divisors, each once, in ascending
    lexicographic order of the concatenated rows, and the counts agree,
    base-point-free counts included."""
    for curve in full_battery:
        members = [[i for i, a in enumerate(curve.alphas) if a == c] for c in curve.classes]
        for kind in DivisorKind:
            brute = brute_force_divisors(curve, kind)
            expected = sorted(
                {
                    tuple(
                        tuple(sum(1 for i in pts if d.levels[i] == l) for l in range(curve.n))
                        for pts in members
                    )
                    for d in brute
                }
            )
            matrices = list(enumerate_cardinality_matrices(curve, kind))
            assert all(tuple(a for a, _ in m.counts) == curve.classes for m in matrices)
            # every row has n entries, so tuple order is concatenated-row order
            assert [tuple(row for _, row in m.counts) for m in matrices] == expected
            assert count_divisors(curve, kind) == len(brute)
            for i in range(curve.point_count):
                slot = kind.avoided_level(curve, i)
                direct = sum(1 for d in brute if d.levels[i] == slot)
                assert count_divisors(curve, kind, avoid=i) == direct
            if kind is DivisorKind.XI:
                free = sum(1 for d in brute if 0 not in d.levels)
                assert count_base_point_free(curve) == free


def test_lister_matches_brute_force_in_order_on_full_battery(full_battery):
    """The meet-in-the-middle lister gives exactly the brute-force divisors, in
    the same (lexicographic) order, for both kinds, and with ``avoid`` set it
    gives exactly those with the avoided point at its slot."""
    for curve in full_battery:
        for kind in DivisorKind:
            brute = [d.levels for d in brute_force_divisors(curve, kind)]
            assert [d.levels for d in enumerate_divisors(curve, kind)] == brute
            for i in range(curve.point_count):
                slot = kind.avoided_level(curve, i)
                listed = [d.levels for d in enumerate_divisors(curve, kind, avoid=i)]
                assert listed == [levels for levels in brute if levels[i] == slot]


def per_k_conditions(curve, levels, shift):
    """The conditions written out: for every k, t_k - shift of the levels lie
    below alpha * k mod n."""
    n = curve.n
    for k in range(1, n):
        below = sum(1 for l, a in zip(levels, curve.alphas) if l < (a * k) % n)
        if below != curve.t_values[k] - shift:
            return False
    return True


def test_packed_meets_agrees_with_per_k_test():
    for curve in curve_battery(5, 4):
        for levels in itertools.product(range(curve.n), repeat=curve.point_count):
            for kind in DivisorKind:
                assert divisors._meets(curve, levels, kind.shift) == per_k_conditions(
                    curve, levels, kind.shift
                ), (curve.n, curve.alphas, levels, kind)


def test_listing_refuses_past_state_budget(monkeypatch):
    curve = CurveSpec.from_alphas(11, [1, 1, 1, 10, 10, 10])
    # the second half's 11^3 level tuples all stay within the shifted target
    monkeypatch.setattr(divisors, "STATE_BUDGET", 1_331)
    assert len(list(enumerate_divisors(curve, DivisorKind.XI))) == 6_941
    monkeypatch.setattr(divisors, "STATE_BUDGET", 1_330)
    for listing in (
        lambda: enumerate_divisors(curve, DivisorKind.XI),
        lambda: enumerate_divisors(curve, DivisorKind.XI, avoid=0),
        lambda: enumerate_cardinality_matrices(curve, DivisorKind.XI),
    ):
        with pytest.raises(DivisorError, match="stored level tuples"):
            list(listing())
    # 28 of them pass the degree-g target and are never stored
    monkeypatch.setattr(divisors, "STATE_BUDGET", 1_303)
    assert len(list(enumerate_divisors(curve, DivisorKind.DELTA))) == 1_716
    monkeypatch.setattr(divisors, "STATE_BUDGET", 1_302)
    with pytest.raises(DivisorError, match="stored level tuples"):
        list(enumerate_divisors(curve, DivisorKind.DELTA))


def test_enumeration_empty_for_gdt_curve():
    curve = CurveSpec.from_alphas(17, [1, 2, 14])
    assert list(enumerate_cardinality_matrices(curve, DivisorKind.DELTA)) == []
    assert list(enumerate_divisors(curve, DivisorKind.XI)) == []


def test_expansion_sizes():
    curve = CurveSpec.from_alphas(3, [1, 1, 1])
    matrices = list(enumerate_cardinality_matrices(curve, DivisorKind.XI))
    assert matrices
    for matrix in matrices:
        expanded = list(expand_matrix(matrix, curve))
        assert len(expanded) == expansion_size(matrix)
        assert len({d.levels for d in expanded}) == len(expanded)


def test_matrices_carry_their_kind(small_battery):
    for curve in small_battery:
        for kind in DivisorKind:
            for matrix in enumerate_cardinality_matrices(curve, kind):
                assert matrix.kind is kind
                assert all(d.kind is kind for d in expand_matrix(matrix, curve))


def test_expansion_is_the_listing_of_its_matrix_in_order(full_battery):
    """Each matrix expands to exactly the listed divisors that have it, in the
    listing's (lexicographic) order, for both kinds."""
    for curve in full_battery:
        members = [[i for i, a in enumerate(curve.alphas) if a == c] for c in curve.classes]
        for kind in DivisorKind:
            listed = {}
            for d in enumerate_divisors(curve, kind):
                rows = tuple(
                    tuple(sum(1 for i in pts if d.levels[i] == l) for l in range(curve.n))
                    for pts in members
                )
                listed.setdefault(rows, []).append(d.levels)
            matrices = list(enumerate_cardinality_matrices(curve, kind))
            assert len(matrices) == len(listed)
            for matrix in matrices:
                rows = tuple(row for _, row in matrix.counts)
                assert [d.levels for d in expand_matrix(matrix, curve)] == listed[rows]


def test_expand_single_assignment():
    curve = CurveSpec.from_alphas(3, [1, 1, 1])
    matrix = CardinalityMatrix(curve, ((1, (3, 0, 0)),), DivisorKind.XI)
    assert expansion_size(matrix) == 1
    (only,) = expand_matrix(matrix, curve)
    assert only.levels == (0, 0, 0)


def test_expand_two_choices():
    curve = CurveSpec.from_alphas(2, [1, 1, 1, 1])
    matrix = CardinalityMatrix(curve, ((1, (2, 2)),), DivisorKind.XI)
    assert expansion_size(matrix) == 6
    assert len(list(expand_matrix(matrix, curve))) == 6


def per_k_dp_count(n, alphas, shift):
    """Level tuples meeting every condition with right-hand side t_k - shift,
    counted by a DP over the vector of per-k counts of levels below
    alpha * k mod n, one point at a time.  The targets come from the residue
    sums; nothing here reads the curve's thresholds, t-values or packing."""
    targets = tuple(sum((a * k) % n for a in alphas) // n - shift for k in range(1, n))
    states = Counter({(0,) * (n - 1): 1})
    for i, a in enumerate(sorted(alphas)):  # the count does not depend on the order
        left = len(alphas) - 1 - i
        steps = Counter(tuple(int(l < (a * k) % n) for k in range(1, n)) for l in range(n))
        grown = Counter()
        for counts, ways in states.items():
            for step, levels in steps.items():
                below = tuple(map(add, counts, step))
                # the points left can still bring every count up to its target
                if all(t - left <= c <= t for c, t in zip(below, targets)):
                    grown[below] += ways * levels
        states = grown
    return states[targets]


@pytest.mark.parametrize(
    "n, alphas, kind, count",
    [
        (14, [1, 3, 5, 9, 11, 13], DivisorKind.XI, 4_088),
        (14, [1, 3, 5, 9, 11, 13], DivisorKind.DELTA, 885),
        (12, [1, 5, 7, 11] * 2, DivisorKind.DELTA, 44_512),
        (16, [1, 3, 5, 7, 9, 11, 13, 15], DivisorKind.XI, 133_344),
    ],
)
def test_counts_beyond_the_battery(n, alphas, kind, count):
    """Shapes outside the battery: n > 8 with many classes, or several
    points per class.  Below n = 16 the count is also checked against the
    per-k DP, which takes tens of seconds at n = 16."""
    curve = CurveSpec.from_alphas(n, alphas)
    assert count_divisors(curve, kind) == count
    if n < 16:
        assert per_k_dp_count(n, alphas, kind.shift) == count


def test_count_refuses_past_state_budget(monkeypatch):
    curve = CurveSpec.from_alphas(12, [1, 5, 7, 11] * 2)
    monkeypatch.setattr(divisors, "STATE_BUDGET", 100)
    for count in (
        lambda: count_divisors(curve, DivisorKind.XI),
        lambda: count_divisors(curve, DivisorKind.DELTA, avoid=0),
        lambda: count_base_point_free(curve),
    ):
        with pytest.raises(DivisorError, match="partial sums"):
            count()
    # the largest half-table of this count holds 4,423 partial sums
    monkeypatch.setattr(divisors, "STATE_BUDGET", 4_423)
    assert count_divisors(curve, DivisorKind.XI) == 137_928
    monkeypatch.setattr(divisors, "STATE_BUDGET", 4_422)
    with pytest.raises(DivisorError):
        count_divisors(curve, DivisorKind.XI)


def test_m3_counts():
    for n in range(2, 7):
        curve = CurveSpec.from_alphas(n, [1, 1, 1, n - 1, n - 1, n - 1])
        assert count_divisors(curve, DivisorKind.DELTA) == 18 * n * n - 45 * n + 33
    assert count_divisors(
        CurveSpec.from_alphas(2, [1] * 6), DivisorKind.DELTA, avoid=0
    ) == 10
    assert count_divisors(
        CurveSpec.from_alphas(3, [1, 1, 1, 2, 2, 2]), DivisorKind.DELTA, avoid=0
    ) == 31


def test_fz33_counts():
    for n in range(2, 9):
        curve = CurveSpec.from_alphas(n, [1, 1, n - 1, n - 1])
        assert count_divisors(curve, DivisorKind.DELTA) == 4 * n - 4
        assert count_divisors(curve, DivisorKind.DELTA, avoid=0) == 2 * n - 1


def test_count_matches_enumeration(small_battery):
    for curve in small_battery[:20]:
        for kind in (DivisorKind.DELTA, DivisorKind.XI):
            assert count_divisors(curve, kind) == sum(1 for _ in enumerate_divisors(curve, kind))


def test_avoid_count_independent_of_point_choice(small_battery):
    for curve in small_battery:
        by_alpha = {}
        for i, a in enumerate(curve.alphas):
            by_alpha.setdefault(a, []).append(i)
        for kind in (DivisorKind.DELTA, DivisorKind.XI):
            for points in by_alpha.values():
                counts = {count_divisors(curve, kind, avoid=i) for i in points}
                assert len(counts) == 1


def test_avoided_count_is_one_rotation_orbit_share(full_battery):
    """count_divisors(spec, kind, avoid=i) * n == count_divisors(spec, XI), for
    both kinds and every point i.

    Step 1: the rotation M keeps a shifted divisor valid and moves a point of
    class alpha down by alpha levels; alpha is prime to n, so every M-orbit of
    shifted divisors has n members and point i runs through each level exactly
    once along it.  So exactly 1/n of the shifted divisors have point i at
    level 0, the level ``avoid`` fixes for XI.

    Step 2: moving point i from level 0 to level n-1 lowers every condition
    count by exactly 1, because level 0 lies below every threshold
    alpha_i * k mod n (at least 1, as alpha_i is prime to n) and level n-1
    below none, and the DELTA targets t_k - 1 sit exactly 1 below the XI
    targets t_k.  So the move maps the shifted divisors with point i at
    level 0 one to one onto the degree-g ones with point i at level n-1, the
    level ``avoid`` fixes for DELTA.
    """
    for curve in full_battery:
        total = count_divisors(curve, DivisorKind.XI)
        for kind in DivisorKind:
            for i in range(curve.point_count):
                assert count_divisors(curve, kind, avoid=i) * curve.n == total


def test_avoid_count_matches_filtered_enumeration():
    curve = CurveSpec.from_alphas(5, [1, 2, 2, 1, 4])
    for kind, slot in ((DivisorKind.DELTA, 4), (DivisorKind.XI, 0)):
        for i in range(curve.point_count):
            direct = sum(
                1 for d in enumerate_divisors(curve, kind) if d.levels[i] == slot
            )
            assert count_divisors(curve, kind, avoid=i) == direct


def test_divisors_are_value_objects():
    curve = three_point_curve(5)
    a = LeveledDivisor(curve, (0, 1, 2), DivisorKind.XI)
    b = LeveledDivisor(curve, (0, 1, 2), DivisorKind.XI)
    assert a == b and hash(a) == hash(b)
    assert a != LeveledDivisor(curve, (0, 1, 2), DivisorKind.DELTA)
    assert sorted([(2, 1, 0), (0, 1, 2)]) == [(0, 1, 2), (2, 1, 0)]


def test_divisor_from_a_list_of_levels_is_a_value_object():
    curve = three_point_curve(5)
    from_list = LeveledDivisor(curve, [0, 1, 2], DivisorKind.XI)
    from_tuple = LeveledDivisor(curve, (0, 1, 2), DivisorKind.XI)
    assert from_list.levels == (0, 1, 2)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    with pytest.raises(DivisorError, match="sequence"):
        LeveledDivisor(curve, 7, DivisorKind.XI)


def test_level_bounds_enforced():
    curve = three_point_curve(5)
    with pytest.raises(DivisorError):
        LeveledDivisor(curve, (0, 1, 5), DivisorKind.XI)
    with pytest.raises(DivisorError):
        LeveledDivisor(curve, (-1, 1, 2), DivisorKind.XI)
    with pytest.raises(DivisorError):
        LeveledDivisor(curve, (0, 1), DivisorKind.XI)
