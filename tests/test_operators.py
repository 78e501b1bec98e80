from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from thomae import (
    AdmissibilityError,
    CurveSpec,
    DivisorError,
    DivisorKind,
    GroupElement,
    LeveledDivisor,
    a_value,
    apply_group,
    apply_M,
    apply_N,
    apply_N_beta,
    apply_T,
    apply_T_hat,
    b_value,
    base_point_representative,
    enumerate_divisors,
    k_inverse,
    pmt_denominator,
    satisfies_conditions,
    t_admissible,
    t_hat_admissible,
)
from thomae import operators


def coprime_residues(n):
    return [a for a in range(1, n) if gcd(a, n) == 1]


def xis(curve):
    return list(enumerate_divisors(curve, DivisorKind.XI))


def group_elements(n):
    """All 2n elements of the dihedral group, rotations first."""
    return [GroupElement(n, j, reflect) for reflect in (False, True) for j in range(n)]


# ---------------------------------------------------------------------------
# the level involutions


def test_a_diagonal_formula():
    for n in range(2, 20):
        for alpha in coprime_residues(n):
            for l in range(n):
                expected = n - l - (n if l == 0 else 0)
                assert a_value(alpha, alpha, l, n) == expected


def check_reflection_identity(n):
    """a(b(l)) = n-1-a(l) for all coprime alpha, beta and all l; one n."""
    residues = coprime_residues(n)
    for alpha in residues:
        for beta in residues:
            kb = k_inverse(beta, n)
            akb = (alpha * kb) % n
            for l in range(n):
                b = (2 * akb - 1 - l) % n
                assert (akb - 1 - b) % n == n - 1 - (akb - 1 - l) % n


def check_three_parameter_congruences(n):
    """The two mixed-parameter congruences relating a and b; one n."""
    residues = coprime_residues(n)
    for delta in residues:
        kd = k_inverse(delta, n)
        for alpha in residues:
            akd = (alpha * kd) % n
            for beta in residues:
                kb = k_inverse(beta, n)
                akb = (alpha * kb) % n
                dkb = (delta * kb) % n
                for l in range(n):
                    adl = (akd - 1 - l) % n
                    for r in range(n):
                        j = (l + r * akd) % n
                        assert (akb - 1 - j - adl - ((dkb - 1 - r) % n) * akd) % n == 0
                        assert (2 * akb - 1 - j - adl - ((2 * dkb - 1 - r) % n) * akd) % n == 0


def test_ab_reflection_identity_up_to_64():
    for n in range(2, 65):
        check_reflection_identity(n)


def test_b_after_a_is_translation():
    for n in range(2, 33):
        for alpha in coprime_residues(n):
            for beta in coprime_residues(n):
                step = (alpha * k_inverse(beta, n)) % n
                for l in range(n):
                    moved = b_value(beta, alpha, a_value(beta, alpha, l, n), n)
                    assert moved == (l + step) % n


def test_three_parameter_congruences():
    for n in range(2, 17):
        check_three_parameter_congruences(n)


@settings(max_examples=200)
@given(st.integers(2, 64), st.data())
def test_involutions_are_involutions(n, data):
    residues = coprime_residues(n)
    alpha = data.draw(st.sampled_from(residues))
    beta = data.draw(st.sampled_from(residues))
    involution = data.draw(st.sampled_from([a_value, b_value]))
    l = data.draw(st.integers(0, n - 1))
    image = involution(beta, alpha, l, n)
    assert 0 <= image <= n - 1
    assert involution(beta, alpha, image, n) == l


# ---------------------------------------------------------------------------
# the operators on divisors


def test_negation_involution_and_validity(small_battery):
    for curve in small_battery:
        for xi in xis(curve):
            for beta in curve.classes:
                image = apply_N_beta(xi, beta)
                assert satisfies_conditions(image)
                assert apply_N_beta(image, beta) == xi
                # points at the fixed slot stay put
                if xi.levels and curve.alphas[0] == beta and xi.levels[0] == 0:
                    assert image.levels[0] == 0


def test_negation_fixes_base_slot():
    curve = CurveSpec.from_alphas(5, [1, 2, 2])
    for xi in xis(curve):
        for beta in curve.classes:
            image = apply_N_beta(xi, beta)
            for i, a in enumerate(curve.alphas):
                if a == beta and xi.levels[i] == 0:
                    assert image.levels[i] == 0


def test_rotation_order_and_validity(small_battery):
    for curve in small_battery[:20]:
        n = curve.n
        for xi in xis(curve):
            assert apply_M(xi, 0) == xi
            assert apply_M(xi, n) == xi
            assert satisfies_conditions(apply_M(xi, 1))
            assert apply_M(apply_M(xi, 1), n - 1) == xi


def test_rotation_orbit_hits_every_base_slot(small_battery):
    for curve in small_battery[:20]:
        n = curve.n
        for xi in xis(curve)[:10]:
            for q in range(curve.point_count):
                hits = [k for k in range(n) if apply_M(xi, k).levels[q] == 0]
                assert len(hits) == 1


def test_swap_involution_preserves_partner(small_battery):
    seen = 0
    for curve in small_battery:
        for xi in xis(curve):
            for q in range(curve.point_count):
                for r in range(curve.point_count):
                    if q == r or not t_admissible(xi, q, r):
                        continue
                    seen += 1
                    image = apply_T(xi, q, r)
                    assert satisfies_conditions(image)
                    assert image.levels[r] == xi.levels[r]
                    assert image.levels[q] == 0
                    assert apply_T(image, q, r) == xi
    assert seen > 100


def test_swap_rejects_self_pair():
    curve = CurveSpec.from_alphas(5, [1, 2, 2])
    xi = xis(curve)[0]
    with pytest.raises(Exception, match="distinct"):
        apply_T(xi, 0, 0)
    assert not t_admissible(xi, 0, 0)
    assert not t_hat_admissible(xi, 0, 0)


@pytest.mark.parametrize(
    "operator,args",
    [
        (t_hat_admissible, (0, 9)),
        (t_admissible, (-1, 0)),
        (base_point_representative, (-1,)),
        (base_point_representative, (7,)),
        (apply_T_hat, (0, 9)),
    ],
    ids=lambda v: v.__name__ if callable(v) else "_".join(map(str, v)),
)
def test_operators_reject_bad_point_indices(operator, args):
    curve = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    xi = next(x for x in xis(curve) if x.levels == (1, 3, 4, 0))
    bad = next(p for p in args if not 0 <= p < curve.point_count)
    with pytest.raises(DivisorError, match=f"^no point with index {bad}$"):
        operator(xi, *args)


@pytest.mark.parametrize(
    "make",
    [
        lambda curve, xi: LeveledDivisor(curve, (0.5, 1, 2, 3), DivisorKind.XI),
        lambda curve, xi: LeveledDivisor(curve, (True, 3, 4, 0), DivisorKind.XI),
        lambda curve, xi: apply_M(xi, 2.5),
        lambda curve, xi: GroupElement(0, 1, False),
        lambda curve, xi: GroupElement(1, 0, False),
        lambda curve, xi: GroupElement(5, 1.5, True),
        lambda curve, xi: LeveledDivisor(curve, (0, 0, 2, 1), "xi"),
        lambda curve, xi: apply_N_beta(xi, 2.0),
        lambda curve, xi: apply_N_beta(xi, True),
        lambda curve, xi: pmt_denominator(xi, 2.0),
        lambda curve, xi: pmt_denominator(xi, True),
        lambda curve, xi: GroupElement.negation(5, 2.0),
        lambda curve, xi: GroupElement.negation(103.0, 2),  # k_inverse read the float n first
    ],
    ids=["float_level", "bool_level", "float_rotation", "n_0", "n_1", "float_shift", "str_kind",
         "float_beta", "bool_beta", "float_beta_g", "bool_beta_g", "float_beta_negation",
         "float_n_negation"],
)
def test_non_integer_input_is_refused(make):
    """Refused with DivisorError, and still refused once the integer it equals
    has filled the caches: 2.0 == 2 and True == 1 as cache keys."""
    curve = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    xi = next(x for x in xis(curve) if x.levels == (1, 3, 4, 0))
    with pytest.raises(DivisorError):
        make(curve, xi)
    for beta in (1, 2):
        apply_N_beta(xi, beta)
        pmt_denominator(xi, beta)
        GroupElement.negation(5, beta)
    with pytest.raises(DivisorError):
        make(curve, xi)


def test_swap_admissibility_error_payload():
    curve = CurveSpec.from_alphas(5, [1, 2, 2])
    bad = None
    for xi in xis(curve):
        for q in range(3):
            if xi.levels[q] != 0:
                continue
            for r in range(3):
                if r != q and not t_admissible(xi, q, r):
                    bad = (xi, q, r)
                    break
    xi, q, r = bad
    with pytest.raises(AdmissibilityError) as err:
        apply_T(xi, q, r)
    expected = (curve.alphas[r] * k_inverse(curve.alphas[q], curve.n)) % curve.n
    assert err.value.expected == expected
    assert err.value.found == xi.levels[r]


def test_simple_swap_inverse_pairing(small_battery):
    for curve in small_battery:
        for xi in xis(curve):
            for q in range(curve.point_count):
                for r in range(curve.point_count):
                    if q == r or not t_hat_admissible(xi, q, r):
                        continue
                    image = apply_T_hat(xi, q, r)
                    assert satisfies_conditions(image)
                    assert t_hat_admissible(image, r, q)
                    assert apply_T_hat(image, r, q) == xi


def test_simple_swap_partners_match_probes(full_battery):
    for curve in full_battery:
        points, tables = range(curve.point_count), operators._tables(curve.n, curve.alphas)
        for xi in xis(curve):
            for q in points:
                probed = tuple(r for r in points if t_hat_admissible(xi, q, r))
                assert operators._partners(tables, xi.levels, q) == probed


def test_operator_images_match_their_definitions(full_battery):
    """Every public image and the partner-list kernel against the operators'
    definitions, transcribed point by point."""
    for curve in full_battery:
        n, alphas, points = curve.n, curve.alphas, range(curve.point_count)
        tables = operators._tables(n, alphas)
        for xi in xis(curve):
            lv = xi.levels
            for k in (1, -1, n):
                assert apply_M(xi, k).levels == tuple((l - a * k) % n for a, l in zip(alphas, lv))
            assert apply_N(xi).levels == tuple(n - 1 - l for l in lv)
            for beta in coprime_residues(n):
                want = tuple(a_value(beta, a, l, n) for a, l in zip(alphas, lv))
                assert apply_N_beta(xi, beta).levels == want
            for q in points:
                beta_inv = pow(alphas[q], -1, n)
                partners = []
                for r in points:
                    if r == q:
                        continue
                    if lv[q] == 0 and lv[r] == alphas[r] * beta_inv % n:
                        want = [b_value(alphas[q], a, l, n) for a, l in zip(alphas, lv)]
                        want[q], want[r] = (want[q] - 1) % n, (want[r] + 1) % n
                        assert apply_T(xi, q, r).levels == tuple(want)
                    if lv[r] == alphas[r] * beta_inv * (lv[q] + 1) % n:
                        partners.append(r)
                        want = list(lv)
                        want[q], want[r] = (want[q] + 1) % n, (want[r] - 1) % n
                        assert apply_T_hat(xi, q, r).levels == tuple(want)
                assert operators._partners(tables, lv, q) == tuple(partners)


def test_simple_swap_admissibility_is_orbit_stable(small_battery):
    for curve in small_battery[:20]:
        n = curve.n
        for xi in xis(curve)[:12]:
            for q in range(curve.point_count):
                for r in range(curve.point_count):
                    if q == r:
                        continue
                    flag = t_hat_admissible(xi, q, r)
                    for k in range(1, n):
                        assert t_hat_admissible(apply_M(xi, k), q, r) == flag


def test_simple_swap_is_reflected_swap_on_base_pointed(small_battery):
    for curve in small_battery:
        n = curve.n
        for xi in xis(curve):
            for q in range(curve.point_count):
                if xi.levels[q] != 0:
                    continue
                # the reflection l -> b_{beta,alpha}(l), for beta the class of Q
                elem = GroupElement(n, -2 * k_inverse(curve.alphas[q], n), True)
                for r in range(curve.point_count):
                    if q == r or not t_admissible(xi, q, r):
                        continue
                    assert apply_T_hat(xi, q, r) == apply_group(apply_T(xi, q, r), elem)


def test_base_point_representative(small_battery):
    for curve in small_battery[:20]:
        for xi in xis(curve)[:12]:
            for q in range(curve.point_count):
                rep = base_point_representative(xi, q)
                assert rep.levels[q] == 0
                if xi.levels[q] == 0:
                    assert rep == xi
                for s in range(curve.point_count):
                    back = base_point_representative(
                        base_point_representative(rep, s), q
                    )
                    assert back == rep


# ---------------------------------------------------------------------------
# the dihedral group


def test_group_laws():
    for n in (2, 3, 5, 8):
        elements = group_elements(n)
        assert len(set(elements)) == 2 * n
        identity = GroupElement(n, 0, False)
        for g in elements:
            assert g.compose(identity) == identity.compose(g) == g
            assert g.compose(g.inverse()) == identity
        for a in elements:
            for b in elements:
                for c in elements:
                    assert a.compose(b).compose(c) == a.compose(b.compose(c))
        m = GroupElement(n, 1, False)
        acc = identity
        for _ in range(n):
            acc = m.compose(acc)
        assert acc == identity
        refl = GroupElement(n, 0, True)
        assert refl.compose(refl) == identity


def test_dihedral_relation_on_divisors(small_battery):
    for curve in small_battery[:25]:
        n = curve.n
        for xi in xis(curve)[:8]:
            for beta in curve.classes:
                for k in range(n):
                    left = apply_M(apply_N_beta(xi, beta), k)
                    right = apply_N_beta(apply_M(xi, -k), beta)
                    assert left == right


def test_negation_matches_group_element(small_battery):
    for curve in small_battery:
        n = curve.n
        for beta in curve.classes:
            elem = GroupElement.negation(n, beta)
            # also solvable directly: the unique reflection agreeing pointwise
            candidates = [
                GroupElement(n, j, True)
                for j in range(n)
                if all(
                    apply_group(xi, GroupElement(n, j, True)) == apply_N_beta(xi, beta)
                    for xi in xis(curve)[:4]
                )
            ]
            for xi in xis(curve):
                assert apply_group(xi, elem) == apply_N_beta(xi, beta)
            if xis(curve):
                assert elem in candidates


def test_group_orbit_bound(small_battery):
    for curve in small_battery[:25]:
        n = curve.n
        for xi in xis(curve)[:6]:
            orbit = {apply_group(xi, g) for g in group_elements(n)}
            assert len(orbit) <= 2 * n


def test_apply_group_respects_composition():
    curve = CurveSpec.from_alphas(5, [1, 2, 2])
    for xi in xis(curve):
        for a in group_elements(5):
            for b in group_elements(5):
                assert apply_group(xi, a.compose(b)) == apply_group(apply_group(xi, b), a)
