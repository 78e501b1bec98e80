"""Acceptance suite: every promised identity, example and count, one
pass/fail line per criterion part (run with -s to see them live).

The five *_as_quoted checks pin worked-example values quoted from the
source paper.  Each reads its quote in the one way that holds, and every
value it replaces is backed by a Riemann-Roch oracle built from the orders
of the eigen-differentials, which shares no code with the enumeration and
condition tests.  The whole suite is expected to pass.
"""

import itertools
import time
from fractions import Fraction
from math import gcd

import pytest

from thomae import (
    ClosedFormUnavailable,
    CurveSpec,
    DivisorKind,
    LeveledDivisor,
    ReachabilityPreconditionError,
    apply_M,
    apply_N_beta,
    apply_T,
    apply_T_hat,
    build_graph,
    count_family,
    degree,
    difbeta_hypothesis,
    difbeta_reachability,
    divisor_from_exponents,
    enumerate_divisors,
    evaluate,
    EvalMode,
    f_chain,
    f_closed_form,
    f_recursive,
    f_sign_flip,
    fit_count_polynomial,
    full_denominator,
    k_inverse,
    matrix_quotient,
    pmt_denominator,
    pmt_gamma_denominator,
    satisfies_conditions,
    specialty_index,
    t_admissible,
    t_hat_admissible,
    theta_relation_shift,
)
from thomae import denominators
from thomae.orbits import FamilySpec

from conftest import curve_battery


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail and not ok else ""
    print(f"acceptance {label}: {status}{suffix}")
    return ok


def coprime(n):
    return [d for d in range(1, n) if gcd(d, n) == 1]


@pytest.fixture(scope="module")
def battery():
    return curve_battery(8, 5)


@pytest.fixture(scope="module")
def battery_xis(battery):
    return [(c, list(enumerate_divisors(c, DivisorKind.XI))) for c in battery]


def three_point_curve(n):
    return CurveSpec.from_alphas(n, [1, 2, n - 3])


# ---------------------------------------------------------------------------
# Riemann-Roch oracle: non-specialty from the holomorphic differentials,
# computed by brute force with no call into the enumeration or the
# condition code.  The type-k differentials are
# p(z) prod (z - lambda_i)^{s(alpha_i, k, n)} dz / w^k with deg p <= t_k - 2.


def differential_orders(curve, k):
    """Orders at the branch points of the type-k differential with p = 1."""
    n = curve.n
    return tuple(n - 1 + n * ((a * k) // n) - a * k for a in curve.alphas)


def differential_count(curve, k):
    """t_k - 1, the number of independent type-k differentials."""
    n = curve.n
    return sum(a * k - n * ((a * k) // n) for a in curve.alphas) // n - 1


def rr_index(curve, exps):
    """h^0(K - D) for D = sum e_i P_i with every e_i < n.

    Where e_i exceeds the base order at P_i, a type-k differential vanishing
    on D needs p(lambda_i) = 0; each such point costs one of the t_k - 1
    dimensions.
    """
    return sum(
        max(0, differential_count(curve, k)
            - sum(1 for e, o in zip(exps, differential_orders(curve, k)) if e > o))
        for k in range(1, curve.n)
    )


def effective_of_degree_g(curve):
    n, g = curve.n, curve.genus()
    return {
        exps
        for exps in itertools.product(range(n), repeat=curve.point_count)
        if sum(exps) == g
    }


def rr_nonspecial(curve):
    """Every degree-g exponent vector (entries below n) with h^0(K - D) = 0."""
    return {exps for exps in effective_of_degree_g(curve) if rr_index(curve, exps) == 0}


def basis_differential_divisors(curve):
    """On a three-point curve every t_k is 1 or 2, so each type holds at most
    one differential, and its divisor lies on the branch points."""
    return {
        differential_orders(curve, k)
        for k in range(1, curve.n)
        if differential_count(curve, k) == 1
    }


def dominated(exps, divisors):
    """Whether some divisor in `divisors` is at least `exps` at every point."""
    return any(all(e <= d for e, d in zip(exps, div)) for div in divisors)


# ---------------------------------------------------------------------------
# criterion 1: the f tables


def test_criterion1_f_tables():
    start = time.monotonic()
    checks = []
    checks.append(f_chain(5, 1).values == (0, 4, 6, 6, 4))
    checks.append(f_chain(5, 2).values == (0, 0, 4, 2, 4))
    checks.append(f_chain(5, 3).values == (0, 2, 0, 4, 4))
    checks.append(f_chain(5, 4).values == (0, -2, -2, 0, 4))
    for n in range(2, 61):
        checks.append(f_chain(n, 1).values == tuple(l * (n - l) for l in range(n)))
        checks.append(
            f_chain(n, n - 1).values == tuple(-l * (n - 2 - l) for l in range(n))
        )
        for d in coprime(n):
            table = f_chain(n, d)
            if table.values != f_recursive(n, d).values:
                checks.append(False)
            for l in range(n):
                try:
                    value = f_closed_form(n, d, l)
                except ClosedFormUnavailable:
                    continue
                if value != table[l]:
                    checks.append(False)
    elapsed = time.monotonic() - start
    ok = all(checks) and elapsed < 10
    assert report("1 (f tables, triple agreement, <10s)", ok, f"elapsed {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: the f identity suite


def test_criterion2_f_identities():
    start = time.monotonic()
    bad = []
    for n in range(2, 41):
        for d in coprime(n):
            vals = f_chain(n, d).values
            kd = k_inverse(d, n)
            inv_vals = f_chain(n, kd).values
            flip = f_sign_flip(f_chain(n, d)).values
            for l in range(n):
                if vals[(d - 1 - l) % n] != vals[l]:
                    bad.append(("reflection", n, d, l))
                if vals[(l + d) % n] + l != vals[l] + n - 1 - l:
                    bad.append(("step", n, d, l))
                if flip[l] != 2 * l - vals[l]:
                    bad.append(("sign-flip", n, d, l))
                if vals[l] != inv_vals[(-l * kd) % n]:
                    bad.append(("inverse-index", n, d, l))
                p, q = divmod(l, d)
                if vals[l] != vals[q] + p * (n + d - 1 - q - l):
                    bad.append(("step-chain", n, d, l))
                y = (-l * d) % n
                y1 = y - 1 if y else n - 1
                if vals[y1] + l != vals[y] + n - 1 - l:
                    bad.append(("twisted-pair", n, d, l))
            if d > 1:
                s, t = divmod(n, d)
                sub = f_chain(d, t).values
                for q in range(d):
                    mirror = t - 1 - q if q < t else d + t - 1 - q
                    if n * sub[q] != n * sub[mirror]:
                        bad.append(("remainder-reflection", n, d, q))
                for q in range(d - t):
                    if vals[q + t] != vals[q] - s * (d - t - 1 - 2 * q):
                        bad.append(("remainder-shift-i", n, d, q))
                for q in range(d - t, d):
                    if vals[q + t - d] != vals[q] - (s + 1) * (2 * d - t - 1 - 2 * q):
                        bad.append(("remainder-shift-ii", n, d, q))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30
    assert report(
        "2 (f identity suite n<=40, <30s)", ok, f"elapsed {elapsed:.1f}s, bad={bad[:3]}"
    )


# ---------------------------------------------------------------------------
# criterion 3: the operator suite


def test_criterion3_operator_suite(battery_xis):
    start = time.monotonic()
    bad = []
    # residue-level identities: the reflection composition at n <= 64 and the
    # three-parameter congruences at n <= 32 (checked once per distinct value
    # class; every parameter triple realizes one of them)
    for n in range(2, 65):
        for akb in coprime(n):
            for l in range(n):
                b = (2 * akb - 1 - l) % n
                if (akb - 1 - b) % n != n - 1 - (akb - 1 - l) % n:
                    bad.append(("reflection-composition", n, akb, l))
    for n in range(2, 33):
        for akd in coprime(n):
            for dkb in coprime(n):
                akb = (akd * dkb) % n
                for l in range(n):
                    adl = (akd - 1 - l) % n
                    for r in range(n):
                        j = (l + r * akd) % n
                        if (akb - 1 - j - adl - ((dkb - 1 - r) % n) * akd) % n:
                            bad.append(("congruence-a", n, akd, dkb, l, r))
                        if (2 * akb - 1 - j - adl - ((2 * dkb - 1 - r) % n) * akd) % n:
                            bad.append(("congruence-b", n, akd, dkb, l, r))
    # divisor-level identities over the whole battery
    for curve, xis in battery_xis:
        n = curve.n
        npts = curve.point_count
        for xi in xis:
            for beta in curve.classes:
                image = apply_N_beta(xi, beta)
                if not satisfies_conditions(image):
                    bad.append(("negation-validity", curve.alphas, xi.levels, beta))
                if apply_N_beta(image, beta) != xi:
                    bad.append(("negation-involution", curve.alphas, xi.levels, beta))
                for k in range(n):
                    if apply_M(image, k) != apply_N_beta(apply_M(xi, -k), beta):
                        bad.append(("dihedral", curve.alphas, xi.levels, beta, k))
            if apply_M(xi, n) != xi:
                bad.append(("rotation-order", curve.alphas, xi.levels))
            if not satisfies_conditions(apply_M(xi, 1)):
                bad.append(("rotation-validity", curve.alphas, xi.levels))
            for q in range(npts):
                for r in range(npts):
                    if q == r:
                        continue
                    if t_admissible(xi, q, r):
                        image = apply_T(xi, q, r)
                        if not satisfies_conditions(image):
                            bad.append(("swap-validity", curve.alphas, xi.levels, q, r))
                        if image.levels[r] != xi.levels[r]:
                            bad.append(("swap-partner", curve.alphas, xi.levels, q, r))
                        if apply_T(image, q, r) != xi:
                            bad.append(("swap-involution", curve.alphas, xi.levels, q, r))
                    if t_hat_admissible(xi, q, r):
                        image = apply_T_hat(xi, q, r)
                        if not satisfies_conditions(image):
                            bad.append(("simple-swap-validity", curve.alphas, xi.levels, q, r))
                        if not t_hat_admissible(image, r, q) or apply_T_hat(
                            image, r, q
                        ) != xi:
                            bad.append(("simple-swap-inverse", curve.alphas, xi.levels, q, r))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 120
    assert report(
        "3 (operator suite over battery, <2min)",
        ok,
        f"elapsed {elapsed:.1f}s, bad={bad[:3]}",
    )


# ---------------------------------------------------------------------------
# criterion 4: non-specialty equivalence and the three-point family


def test_criterion4_equivalence(battery):
    start = time.monotonic()
    bad = 0
    for curve in battery:
        n = curve.n
        g = curve.genus()
        alphas = curve.alphas
        npts = curve.point_count
        thresholds = [tuple((a * k) % n for a in alphas) for k in range(1, n)]
        targets = [t - 1 for t in curve.t_values[1:]]
        for levels in itertools.product(range(n), repeat=npts):
            if sum(levels) != npts * (n - 1) - g:
                continue
            index = 0
            all_match = True
            for thr, target in zip(thresholds, targets):
                lhs = 0
                for l, t in zip(levels, thr):
                    if l < t:
                        lhs += 1
                if lhs != target:
                    all_match = False
                if target > lhs:
                    index += target - lhs
            if (index == 0) != all_match:
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 60
    assert report(
        "4a (cardinality conditions equal zero specialty index, <1min)",
        ok,
        f"elapsed {elapsed:.1f}s, bad={bad}",
    )


def test_criterion4_three_point_family_enumerated():
    expected = {
        5: {(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)},
        7: {(2, 1, 0), (1, 1, 1), (1, 0, 2), (0, 2, 1)},
        11: {(3, 1, 1), (2, 1, 2)},
        13: {(3, 1, 2)},
        17: set(),
    }
    checks = []
    for n, want in expected.items():
        curve = three_point_curve(n)
        got = {d.exponents for d in enumerate_divisors(curve, DivisorKind.DELTA)}
        checks.append(got == want)
    # n = 5: four non-special divisors but six base-pointed presentations
    divs5 = list(enumerate_divisors(three_point_curve(5), DivisorKind.DELTA))
    checks.append(sum(d.exponents.count(0) for d in divs5) == 6)
    # n = 7: a single rotation orbit plus the all-points divisor
    graph7 = build_graph(three_point_curve(7))
    checks.append(len(graph7.m_orbits()) == 1)
    # n = 11: both survivors carry every branch point, so no orbits at all
    curve11 = three_point_curve(11)
    divs11 = list(enumerate_divisors(curve11, DivisorKind.DELTA))
    checks.append(all(0 not in d.exponents for d in divs11))
    checks.append(len(build_graph(curve11).vertices) == 0)
    assert report("4b (three-point family, enumerated classification)", all(checks))


def test_criterion4_three_point_family_n5_count_as_quoted():
    # The quoted 6 counts the base-pointed presentations (Delta, Q) with Q off
    # the support of Delta.  It cannot count non-special divisors: of the six
    # effective degree-2 divisors, two are divisors of basis differentials.
    curve = three_point_curve(5)
    effective = effective_of_degree_g(curve)
    canonical = basis_differential_divisors(curve)
    nonspecial = rr_nonspecial(curve)
    presentations = sum(exps.count(0) for exps in nonspecial)
    xis = list(enumerate_divisors(curve, DivisorKind.XI))
    base_points = sum(xi.levels.count(0) for xi in xis)
    delta = {d.exponents for d in enumerate_divisors(curve, DivisorKind.DELTA)}
    checks = [
        len(effective) == 6,
        canonical == {(2, 0, 0), (0, 1, 1)},
        nonspecial == {e for e in effective if not dominated(e, canonical)},
        len(nonspecial) == 4,
        presentations == 6,
        len(xis) == 10 and base_points == 6,
        delta == nonspecial,
    ]
    assert report(
        "4c (three-point family n=5: six base-pointed presentations as quoted, "
        "four non-special)",
        all(checks),
        f"checks {checks}, oracle {sorted(nonspecial)}, xi pairs {base_points}",
    )


def test_criterion4_three_point_family_n7_divisors_as_quoted():
    # Of the four quoted names only (1,1,1) has degree g = 3.  The other three
    # have degree 2g-2 = 4 and are the basis canonical divisors.  The quote's
    # shape holds: the non-special set is one cyclic orbit plus (1,1,1).
    curve = three_point_curve(7)
    g = curve.genus()
    quoted = [(1, 3, 0), (3, 0, 1), (0, 1, 3), (1, 1, 1)]
    canonical = basis_differential_divisors(curve)
    nonspecial = rr_nonspecial(curve)
    orbit = {(2, 1, 0), (1, 0, 2), (0, 2, 1)}

    def rotations(exps):
        return {exps[i:] + exps[:i] for i in range(len(exps))}

    checks = [
        [sum(exps) for exps in quoted] == [2 * g - 2] * 3 + [g],
        set(quoted[:3]) == canonical,
        rotations(quoted[0]) == set(quoted[:3]),
        rr_index(curve, (1, 1, 1)) == 0,
        rotations((2, 1, 0)) == orbit,
        nonspecial == orbit | {(1, 1, 1)},
        nonspecial
        == {e for e in effective_of_degree_g(curve) if not dominated(e, canonical)},
    ]
    assert report(
        "4d (three-point family n=7: quoted (1,1,1) non-special, "
        "one cyclic orbit plus (1,1,1))",
        all(checks),
        f"checks {checks}, oracle {sorted(nonspecial)}",
    )


def test_criterion4_three_point_family_n7_quoted_names_are_canonical():
    # the three quoted names coincide with the divisors of the basis
    # differentials, so each carries a differential and cannot be non-special
    curve = three_point_curve(7)
    canonical = {
        differential_orders(curve, k)
        for k in range(1, curve.n)
        if curve.t_values[k] == 2
    }
    assert {(1, 3, 0), (3, 0, 1), (0, 1, 3)} <= canonical
    for exps in [(1, 3, 0), (3, 0, 1), (0, 1, 3)]:
        div = divisor_from_exponents(curve, exps, DivisorKind.DELTA)
        assert specialty_index(div) >= 1
    assert report("4e (n=7 quoted names are the basis canonical divisors)", True)


def test_criterion4_three_point_family_n11_special_as_quoted():
    # No basis differential dominates either quoted divisor, so both are
    # non-special, and they are the only non-special ones.  Both contain
    # every branch point, so neither has a base point and the curve has no
    # xi divisors at all.
    curve = three_point_curve(11)
    quoted = [(3, 1, 1), (2, 1, 2)]
    canonical = basis_differential_divisors(curve)
    nonspecial = rr_nonspecial(curve)
    checks = [
        [rr_index(curve, exps) for exps in quoted] == [0, 0],
        not any(dominated(exps, canonical) for exps in quoted),
        nonspecial == set(quoted),
        all(0 not in exps for exps in nonspecial),
        list(enumerate_divisors(curve, DivisorKind.XI)) == [],
    ]
    assert report(
        "4f (three-point family n=11: quoted divisors the only non-special, "
        "no xi divisors)",
        all(checks),
        f"checks {checks}, oracle {sorted(nonspecial)}",
    )


# ---------------------------------------------------------------------------
# criterion 5: denominator invariance


def test_criterion5_denominator_invariance(battery_xis):
    start = time.monotonic()
    bad = []
    for curve, xis in battery_xis:
        n = curve.n
        degrees = set()
        for xi in xis:
            h = full_denominator(xi)
            degrees.add(degree(h))
            slots = sorted(set(zip(curve.alphas, xi.levels)), reverse=True)
            if denominators._slot_walk(xi.curve, xi.levels, slots) != h:
                bad.append(("order", curve.alphas, xi.levels))
            if full_denominator(apply_M(xi, 1)) != h:
                bad.append(("rotation", curve.alphas, xi.levels))
            for beta in curve.classes:
                if full_denominator(apply_N_beta(xi, beta)) != h:
                    bad.append(("negation", curve.alphas, xi.levels, beta))
            for q in range(curve.point_count):
                if xi.levels[q] != 0:
                    continue
                beta = curve.alphas[q]
                g0 = pmt_denominator(xi, beta)
                hg0 = matrix_quotient(h, g0)
                for r in range(curve.point_count):
                    if q == r or not t_admissible(xi, q, r):
                        continue
                    image = apply_T(xi, q, r)
                    h1 = full_denominator(image)
                    g1 = pmt_denominator(image, beta)
                    if matrix_quotient(h1, g1) != hg0:
                        bad.append(("pmt-difference", curve.alphas, xi.levels, q, r))
                    shift = theta_relation_shift(xi, q, r)
                    if matrix_quotient(h1, h) != shift or matrix_quotient(g1, g0) != shift:
                        bad.append(("shift", curve.alphas, xi.levels, q, r))
        if len(degrees) > 1:
            bad.append(("degree", curve.alphas, sorted(degrees)))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 300
    assert report(
        "5a (h/g invariance, order independence, degree constancy, <5min)",
        ok,
        f"elapsed {elapsed:.1f}s, bad={bad[:3]}",
    )


def test_criterion5_single_class_denominator_swap_shift(battery_xis):
    # the single-class denominator moves under an admissible swap by exactly
    # the same matrix as the base-point-invariant one (their difference is a
    # swap invariant)
    bad = []
    for curve, xis in battery_xis:
        for xi in xis:
            for q in range(curve.point_count):
                if xi.levels[q] != 0:
                    continue
                for r in range(curve.point_count):
                    if q == r or not t_admissible(xi, q, r):
                        continue
                    gamma = curve.alphas[r]
                    image = apply_T(xi, q, r)
                    moved = matrix_quotient(
                        pmt_gamma_denominator(image, q, gamma),
                        pmt_gamma_denominator(xi, q, gamma),
                    )
                    if moved != theta_relation_shift(xi, q, r):
                        bad.append((curve.alphas, xi.levels, q, r))
    assert report(
        "5b (single-class denominator swap shift)", not bad, f"bad={bad[:3]}"
    )


def test_criterion5_single_class_denominator_fixed_by_swaps_as_quoted(battery_xis):
    # "Fixed by swaps" in its formal sense: q^{Q,gamma} and g^beta move by the
    # same matrix under every admissible swap, so g^beta - q^{Q,gamma} is
    # unchanged.  The matrix q itself moves on most swaps.
    bad = []
    total = at_n2 = 0
    for curve, xis in battery_xis:
        for xi in xis:
            for q in range(curve.point_count):
                if xi.levels[q] != 0:
                    continue
                beta = curve.alphas[q]
                for r in range(curve.point_count):
                    if q == r or not t_admissible(xi, q, r):
                        continue
                    total += 1
                    at_n2 += curve.n == 2
                    gamma = curve.alphas[r]
                    image = apply_T(xi, q, r)
                    before = matrix_quotient(
                        pmt_denominator(xi, beta), pmt_gamma_denominator(xi, q, gamma)
                    )
                    after = matrix_quotient(
                        pmt_denominator(image, beta), pmt_gamma_denominator(image, q, gamma)
                    )
                    if after != before:
                        bad.append((curve.alphas, xi.levels, q, r))
    ok = not bad and at_n2 == 24
    assert report(
        "5c (single-class denominator fixed by swaps up to g^beta, as quoted)",
        ok,
        f"{len(bad)} of {total} admissible swaps ({at_n2} at n=2) move "
        f"g^beta - q^(Q,gamma), bad={bad[:3]}",
    )


# ---------------------------------------------------------------------------
# criterion 6: the worked denominators


def test_criterion6_worked_denominators():
    checks = []
    for n in (5, 7, 9, 11):
        eps = 1 if n % 4 == 1 else 0
        curve = CurveSpec.from_alphas(n, [1, 2, n - 2, n - 1])
        P, R, S, Q = range(4)
        big = (n * n + 2 * n + 1 - 4 * eps) // 8
        for l in range(n):
            xi = divisor_from_exponents(
                curve, (n - 1, n - 1 - l, l, 0), DivisorKind.XI
            )
            x = l * (n + 1 - l) // 2 if l % 2 == 0 else (l - 1) * (n - l) // 2
            want = {(P, R): big - x, (S, Q): big - x, (P, S): x, (R, Q): x}
            got = dict(full_denominator(xi).items())
            checks.append(got == {k: v for k, v in want.items() if v})
        xi = divisor_from_exponents(curve, (n - 1, 0, 0, n - 1), DivisorKind.XI)
        want = {
            (P, R): (n * n - 6 * n + 9 - 4 * eps) // 8,
            (S, Q): (n * n - 6 * n + 9 - 4 * eps) // 8,
            (P, Q): n - 1,
            (R, S): n - 1,
        }
        got = dict(full_denominator(xi).items())
        checks.append(got == {k: v for k, v in want.items() if v})
    for n in (7, 8, 10, 11):
        s, t = divmod(n, 3)
        e = 1 if n % 2 == 0 else 2
        curve = CurveSpec.from_alphas(n, [1, 1, 1, n - 3])
        S1 = 3
        pair = lambda a, b: (min(a, b), max(a, b))
        common = (s * s - 2 * s + 2 - e) // 4 if t == 1 else (s * s + 1 - e) // 4
        for i, j, k in itertools.permutations(range(3)):
            exps = [0] * 4
            exps[S1] = n - 1
            exps[i], exps[j], exps[k] = n - 1 - s, s, 0
            h = full_denominator(divisor_from_exponents(curve, tuple(exps), DivisorKind.XI))
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
            checks.append(dict(h.items()) == {kk: v for kk, v in want.items() if v})
            # the quoted common factor over the three first-class pairs
            from thomae import reduce_matrix

            entries, reduced = dict(h.items()), dict(reduce_matrix(h).items())
            checks.append(
                all(
                    entries.get((a, b), 0) - reduced.get((a, b), 0) == common
                    for a, b in [(0, 1), (0, 2), (1, 2)]
                )
            )
    assert report("6 (worked denominators, exact integer equality)", all(checks))


# ---------------------------------------------------------------------------
# criterion 7: counts


def test_criterion7_counts():
    start = time.monotonic()
    checks = []
    m3 = count_family(FamilySpec((1, 1, 1), (1, 1, 1)), range(2, 8))
    for row in m3.valid_counts():
        n = row.n
        checks.append(row.total_divisors == 18 * n * n - 45 * n + 33)
    by_n = {c.n: c for c in m3.valid_counts()}
    checks.append(by_n[2].per_point_avoid[0] == 10)
    checks.append(by_n[3].per_point_avoid[0] == 31)
    fz33 = count_family(FamilySpec((1, 1), (1, 1)), range(2, 8))
    for row in fz33.valid_counts():
        checks.append(row.total_divisors == 4 * row.n - 4)
        checks.append(row.per_point_avoid[0] == 2 * row.n - 1)
    fam1 = count_family(FamilySpec((1, 2), (2, 1)), [5, 7, 9, 11])
    for row in fam1.valid_counts():
        checks.append(row.total_divisors == 2 * row.n + 5)
        checks.append(row.m_orbits == row.n + 2)
    fam2 = count_family(FamilySpec((1, 1, 1), (3,)), [4, 5, 7, 8, 10, 11])
    for row in fam2.valid_counts():
        checks.append(row.m_orbits == 6)
        if row.n >= 7:
            checks.append(row.total_divisors == 18)
    # exact fit: first three m=3 points determine the quadratic, the held-out
    # n = 5, 6, 7 values land on it exactly
    data = [(c.n, c.total_divisors) for c in m3.valid_counts()]
    coeffs, residuals = fit_count_polynomial(data, 2)
    checks.append(coeffs == (Fraction(33), Fraction(-45), Fraction(18)))
    checks.append(all(r == 0 for r in residuals))
    elapsed = time.monotonic() - start
    ok = all(checks) and elapsed < 300
    assert report(
        "7a (family counts and polynomial fit, <5min)",
        ok,
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion7_m3_avoid_counts_enumerated():
    # the avoided-point counts coincide with the rotation-orbit counts and
    # follow the quadratic fitted from the first three values
    m3 = count_family(FamilySpec((1, 1, 1), (1, 1, 1)), range(2, 8))
    rows = m3.valid_counts()
    checks = []
    for row in rows:
        checks.append(len(set(row.per_point_avoid)) == 1)
        checks.append(row.per_point_avoid[0] == row.m_orbits)
    coeffs, residuals = fit_count_polynomial([(c.n, c.m_orbits) for c in rows], 2)
    checks.append(coeffs == (Fraction(4), Fraction(-9), Fraction(6)))
    checks.append(all(r == 0 for r in residuals))
    assert report("7b (m=3 avoided-point counts, enumerated: 6n^2-9n+4)", all(checks))


def test_criterion7_m3_avoid_polynomial_as_quoted():
    # The quoted 3n^2+6n-14 holds at its two spot values, 10 at n = 2 and 31
    # at n = 3.  The avoided-point count is 6n^2-9n+4, which exceeds the
    # quote by 3(n-2)(n-3) from n = 4 on.
    family = FamilySpec((1, 1, 1), (1, 1, 1))

    def quoted(n):
        return 3 * n * n + 6 * n - 14

    n_values = range(2, 7)
    oracle = {}
    for n in n_values:
        curve = family.curve(n)
        nonspecial = rr_nonspecial(curve)
        oracle[n] = tuple(
            sum(1 for exps in nonspecial if exps[p] == 0)
            for p in range(curve.point_count)
        )
    rows = count_family(family, n_values).valid_counts()
    counts = [(n, oracle[n][0]) for n in n_values]
    coeffs, residuals = fit_count_polynomial(counts, 2)
    checks = [
        [quoted(2), quoted(3)] == [10, 31],
        oracle[2] == (10,) * 6 and oracle[3] == (31,) * 6,
        [c for _, c in counts] == [10, 31, 64, 109, 166],
        all(len(set(oracle[n])) == 1 for n in n_values),
        [row.n for row in rows] == list(n_values),
        all(row.per_point_avoid == oracle[row.n] for row in rows),
        coeffs == (Fraction(4), Fraction(-9), Fraction(6)),
        all(r == 0 for r in residuals),
        all(c - quoted(n) == 3 * (n - 2) * (n - 3) for n, c in counts),
    ]
    assert report(
        "7c (m=3 avoided-point polynomial 3n^2+6n-14 at its spot values n=2,3; "
        "6n^2-9n+4 throughout)",
        all(checks),
        f"checks {checks}, oracle counts {counts}",
    )


# ---------------------------------------------------------------------------
# criterion 8: transitivity evidence


def test_criterion8_transitivity():
    curves = [
        (2, [1] * 4),
        (2, [1] * 6),
        (3, [1] * 3),
        (3, [1] * 6),
        (4, [1] * 4),
        (5, [1] * 5),
        (6, [1] * 6),
        (5, [1, 2, 3, 4]),
        (7, [1, 2, 5, 6]),
        (9, [1, 2, 7, 8]),
        (4, [1, 1, 1, 1]),
        (5, [1, 1, 1, 2]),
        (7, [1, 1, 1, 4]),
        (8, [1, 1, 1, 5]),
        (4, [1, 3, 1, 3]),
        (5, [1, 3, 2, 4]),
        (7, [1, 3, 4, 6]),
        (8, [1, 3, 5, 7]),
        (5, [1, 2, 2]),
        (7, [1, 2, 4]),
    ]
    bad = []
    for n, alphas in curves:
        graph = build_graph(CurveSpec.from_alphas(n, alphas))
        comps = graph.components()
        if len(graph.vertices) and len(comps) != 1:
            bad.append((n, alphas, len(comps)))
    assert report("8a (single component on the battery)", not bad, f"bad={bad}")


def test_criterion8_difbeta():
    curves = [
        (4, [1] * 4),
        (5, [1] * 5),
        (3, [1] * 6),
        (5, [1, 1, 4, 4]),
        (5, [1, 4, 2, 3]),
        (7, [1, 1, 6, 6]),
        (8, [1, 3, 5, 7]),
    ]
    bad = []
    eligible_total = 0
    for n, alphas in curves:
        curve = CurveSpec.from_alphas(n, alphas)
        divisors = list(enumerate_divisors(curve, DivisorKind.XI))
        for beta in sorted(set(curve.alphas)):
            mirror = (n - beta) % n
            if mirror == beta:
                continue
            outside = lambda d: tuple(
                l for a, l in zip(curve.alphas, d.levels) if a not in (beta, mirror)
            )
            groups = {}
            for d in divisors:
                groups.setdefault(outside(d), []).append(d)
            for group in groups.values():
                eligible = [d for d in group if difbeta_hypothesis(d, beta)]
                if len(eligible) < 2:
                    continue
                anchor = eligible[0]
                for other in eligible[1:]:
                    eligible_total += 1
                    try:
                        forward = difbeta_reachability(anchor, other, beta)
                        backward = difbeta_reachability(other, anchor, beta)
                    except ReachabilityPreconditionError as exc:
                        bad.append((n, alphas, beta, str(exc)))
                        continue
                    if not (forward and backward):
                        bad.append((n, alphas, beta, anchor.levels, other.levels))
    ok = not bad and eligible_total > 500
    assert report(
        "8b (restricted-swap reachability on every eligible instance)",
        ok,
        f"instances={eligible_total}, failures={bad[:3]}",
    )


# ---------------------------------------------------------------------------
# criterion 9: structural checks


def test_criterion9_structure(battery):
    import random

    start = time.monotonic()
    checks = []
    for curve in battery:
        checks.append(
            sum(t - 1 for t in curve.t_values[1:]) == curve.genus()
        )
    rng = random.Random(20260809)
    for curve in battery:
        xi = next(iter(enumerate_divisors(curve, DivisorKind.XI)), None)
        if xi is None:
            continue
        for _ in range(20):
            lams = []
            while len(lams) < curve.point_count:
                v = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                if v not in lams:
                    lams.append(v)
            cur = curve.with_lambdas(lams)
            div = LeveledDivisor(cur, xi.levels, DivisorKind.XI)
            h = full_denominator(div)
            base = evaluate(h, EvalMode.EXACT_RATIONAL)
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            shifted = cur.with_lambdas([v + c for v in lams])
            checks.append(
                evaluate(
                    full_denominator(LeveledDivisor(shifted, xi.levels, DivisorKind.XI)),
                    EvalMode.EXACT_RATIONAL,
                )
                == base
            )
            u = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            scaled = cur.with_lambdas([v * u for v in lams])
            checks.append(
                evaluate(
                    full_denominator(LeveledDivisor(scaled, xi.levels, DivisorKind.XI)),
                    EvalMode.EXACT_RATIONAL,
                )
                == base * u ** degree(h)
            )
    elapsed = time.monotonic() - start
    ok = all(checks) and elapsed < 300
    assert report(
        "9 (genus sum, translation invariance, scaling law)",
        ok,
        f"elapsed {elapsed:.1f}s",
    )
