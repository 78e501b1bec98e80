from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from thomae import (
    ClosedFormUnavailable,
    f_chain,
    f_closed_form,
    f_recursive,
    f_sign_flip,
    k_inverse,
)
from thomae.curve import CurveError
from thomae.ffunctions import FFunctionError, FFunctionTable


def coprime_pairs(max_n):
    for n in range(2, max_n + 1):
        for d in range(1, n):
            if gcd(d, n) == 1:
                yield n, d


def test_five_tables():
    assert f_chain(5, 1).values == (0, 4, 6, 6, 4)
    assert f_chain(5, 2).values == (0, 0, 4, 2, 4)
    assert f_chain(5, 3).values == (0, 2, 0, 4, 4)
    assert f_chain(5, 4).values == (0, -2, -2, 0, 4)


def test_chain_equals_recursive_up_to_60():
    for n, d in coprime_pairs(60):
        assert f_chain(n, d).values == f_recursive(n, d).values


def test_d_one_and_d_n_minus_one_formulas():
    for n in range(2, 61):
        assert f_chain(n, 1).values == tuple(l * (n - l) for l in range(n))
        assert f_chain(n, n - 1).values == tuple(-l * (n - 2 - l) for l in range(n))


def test_closed_form_agrees_where_covered():
    covered = uncovered = 0
    for n, d in coprime_pairs(60):
        table = f_chain(n, d)
        for l in range(n):
            try:
                value = f_closed_form(n, d, l)
            except ClosedFormUnavailable:
                uncovered += 1
                continue
            covered += 1
            assert value == table[l], (n, d, l)
    assert covered > 10000
    assert uncovered > 0


def test_closed_form_full_coverage_small_d():
    # d in {1, 2, 3} and the mirrors n-1, n-2, n-3 have everything covered
    for n in range(4, 41):
        for d in (1, 2, 3, n - 1, n - 2, n - 3):
            if gcd(d, n) != 1:
                continue
            for l in range(n):
                assert f_closed_form(n, d, l) == f_chain(n, d)[l]


def test_closed_form_example_d4():
    # n = 4s+1: l even but not divisible by 4 goes to (l-4)(n-1-l)/4 - 1
    for n in (13, 17, 29):
        for l in range(2, n, 4):
            assert f_closed_form(n, 4, l) == (l - 4) * (n - 1 - l) // 4 - 1
            assert f_chain(n, 4)[l] == (l - 4) * (n - 1 - l) // 4 - 1


def test_closed_form_signals_uncovered():
    # d = 7, n = 17: t = 3, residues 1, 4, 5 are not covered either directly
    # or through the mirror d = 10
    with pytest.raises(ClosedFormUnavailable):
        f_closed_form(17, 7, 1)


def test_closed_form_rejects_bad_inputs():
    with pytest.raises(FFunctionError):
        f_closed_form(10, 4, 1)
    with pytest.raises(FFunctionError):
        f_closed_form(7, 2, 9)


def test_sign_flip():
    assert f_sign_flip(f_chain(5, 1)).values == (0, -2, -2, 0, 4)
    for n, d in coprime_pairs(24):
        flipped = f_sign_flip(f_chain(n, d))
        assert flipped.d == n - d
        assert f_sign_flip(flipped).values == f_chain(n, d).values
        assert flipped.values[0] == 0 and flipped.values[n - 1] == n - 1


def test_reflection_and_step_identities_hold():
    for n, d in coprime_pairs(40):
        vals = f_chain(n, d).values
        for l in range(n):
            assert vals[(d - 1 - l) % n] == vals[l]
            assert vals[(l + d) % n] + l == vals[l] + n - 1 - l


def test_inverse_index_identity():
    # f^(n)_d(l) equals f^(n)_{d^-1} at the twisted index -l * d^-1 mod n
    for n, d in coprime_pairs(40):
        kd = k_inverse(d, n)
        left = f_chain(n, d).values
        right = f_chain(n, kd).values
        for l in range(n):
            assert left[l] == right[(-l * kd) % n]


def test_step_chain_formula():
    # the value at p*d + q differs from the value at q by p(n+d-1-q-l)
    for n, d in coprime_pairs(40):
        vals = f_chain(n, d).values
        for l in range(n):
            p, q = divmod(l, d)
            assert vals[l] - vals[q] == p * (n + d - 1 - q - l)


def test_twisted_pair_identity():
    # with y = -l*d mod n: f(y - 1 + n*[y=0]) + l = f(y) + n - 1 - l
    for n, d in coprime_pairs(40):
        vals = f_chain(n, d).values
        for l in range(n):
            y = (-l * d) % n
            y1 = y - 1 if y else n - 1
            assert vals[y1] + l == vals[y] + n - 1 - l


def test_remainder_table_reflection():
    # n * f^(d)_t is invariant under q -> t-1-q (q < t) and q -> d+t-1-q
    for n, d in coprime_pairs(40):
        if d == 1:
            continue
        t = n % d
        sub = f_chain(d, t).values if d >= 2 else (0,)
        for q in range(d):
            mirror = t - 1 - q if q < t else d + t - 1 - q
            assert n * sub[q] == n * sub[mirror]


def test_remainder_shift_identities():
    for n, d in coprime_pairs(40):
        if d == 1:
            continue
        s, t = divmod(n, d)
        vals = f_chain(n, d).values
        for q in range(d - t):
            assert vals[q + t] == vals[q] - s * (d - t - 1 - 2 * q)
        for q in range(d - t, d):
            assert vals[q + t - d] == vals[q] - (s + 1) * (2 * d - t - 1 - 2 * q)


def test_c_constant_closed_forms():
    for n in range(2, 61):
        expected = n * n // 4 if n % 2 == 0 else (n * n - 1) // 4
        assert f_chain(n, 1).cmax == expected
        assert f_chain(n, n - 1).cmax == n - 1
    for n in range(3, 61, 2):
        expected = (n * n + 2 * n - 3) // 8 if n % 4 == 1 else (n * n + 2 * n + 1) // 8
        assert f_chain(n, 2).cmax == expected
        assert f_chain(n, n - 2).cmax == n - 1
    for n in range(4, 61):
        if n % 3 == 0:
            continue
        t = n % 3
        if t == 1:
            expected = (n * n + 4 * n + 4) // 12 if n % 2 == 0 else (n * n + 4 * n - 5) // 12
            assert f_chain(n, n - 3).cmax == n - 1 + (n - 1) // 3
        else:
            expected = (n * n + 4 * n + 3) // 12 if n % 2 else (n * n + 4 * n) // 12
            assert f_chain(n, n - 3).cmax == n - 1
        assert f_chain(n, 3).cmax == expected


def test_c_constant_inverse_symmetry():
    for n, d in coprime_pairs(40):
        assert f_chain(n, d).cmax == f_chain(n, k_inverse(d, n)).cmax


@settings(max_examples=200)
@given(st.integers(2, 80), st.data())
def test_table_random_consistency(n, data):
    d = data.draw(st.sampled_from([d for d in range(1, n) if gcd(d, n) == 1]))
    table = f_chain(n, d)
    l = data.draw(st.integers(0, n - 1))
    assert table[l] == f_recursive(n, d)[l]
    assert table[(d - 1 - l) % n] == table[l]


def test_tables_are_cached():
    assert f_chain(31, 7) is f_chain(31, 7)


@pytest.mark.parametrize(
    "call",
    [
        lambda: f_chain(7.0, 2),
        lambda: f_chain(7, 2.0),
        lambda: f_chain(7, True),
        lambda: f_chain("7", 2),
        lambda: f_recursive(7.0, 2),
        lambda: f_recursive(7, True),
        lambda: f_closed_form(7.0, 2, 1),
        lambda: f_closed_form(7, 1, 1.0),
        lambda: FFunctionTable(7.0, 1, f_chain(7, 1).values),
        lambda: FFunctionTable(7, True, f_chain(7, 1).values),
    ],
    ids=["float_n", "float_d", "bool_d", "str_n", "recursive_float_n", "recursive_bool_d",
         "closed_float_n", "closed_float_l", "table_float_n", "table_bool_d"],
)
def test_non_integer_arguments_are_refused(call):
    """Refused with FFunctionError before any cache is read, so also once the
    tables of 7 and of d = 1, 2 are cached: 7.0 == 7 and True == 1 as keys."""
    with pytest.raises(FFunctionError):
        call()
    for d in (1, 2):
        f_chain(7, d)
        f_recursive(7, d)
    with pytest.raises(FFunctionError):
        call()


def test_k_inverse_refuses_non_integers():
    assert k_inverse(2, 5) == 3 and k_inverse(1, 5) == 1
    for beta, n in ((2.0, 5), (True, 5), (2, 5.0), ("2", 5)):
        with pytest.raises(CurveError, match="not an invertible integer"):
            k_inverse(beta, n)
