import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thomae import (
    BranchPoint,
    CurveError,
    CurveSpec,
    curve_from_dict,
    e_factor,
    k_inverse,
    load_curve,
)


def with_points(n, *points):
    """The curve on n and the given (alpha, z-value) points, built directly."""
    return CurveSpec(n, tuple(BranchPoint(alpha, None, lam) for alpha, lam in points))


def test_validate_smallest_nonsingular():
    assert CurveSpec.from_alphas(3, [1, 1, 1]).alphas == (1, 1, 1)


def test_validate_bad_sum():
    with pytest.raises(CurveError, match="^exponent sum 6 is not 0 mod 5$"):
        CurveSpec.from_alphas(5, [1, 2, 3])


def test_validate_non_coprime_alpha():
    with pytest.raises(CurveError, match="^point 1: alpha 2 not coprime to 4$"):
        CurveSpec.from_alphas(4, [1, 2, 1])


def test_validate_too_few_points():
    with pytest.raises(CurveError, match="^need at least 3 branch points, got 2$"):
        CurveSpec.from_alphas(3, [1, 2])


def test_validate_duplicate_lambdas():
    with pytest.raises(CurveError, match="^z-values must be pairwise distinct$"):
        CurveSpec.from_alphas(3, [1, 1, 1]).with_lambdas([Fraction(0), Fraction(1), Fraction(0)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CurveSpec.from_alphas(5, [0, 5, 5]),
         "point 0: alpha 0 outside 1..4; point 1: alpha 5 outside 1..4; "
         "point 2: alpha 5 outside 1..4"),
        (lambda: CurveSpec.from_alphas(6, [2, 2, 2]),
         "point 0: alpha 2 not coprime to 6; point 1: alpha 2 not coprime to 6; "
         "point 2: alpha 2 not coprime to 6"),
        (lambda: CurveSpec(5, 5), "points must be a tuple of BranchPoints, got 5"),
        (lambda: CurveSpec(n=5, points=(1, 2, 2)),
         r"points must be a tuple of BranchPoints, got \(1, 2, 2\)"),
        (lambda: with_points(5, (1, 0.5), (1, 1), (1, 2), (2, 3)),
         "z-values must be integers or Fractions, got 0.5"),
        (lambda: with_points(5, (1, "0"), (1, "1"), (1, "2"), (2, "3")),
         "z-values must be integers or Fractions, got '0'"),
        (lambda: with_points(5, (1, 0), (1, True), (1, [2]), (2, None)),
         "z-values must be given for all points or none; "
         "z-values must be integers or Fractions, got True"),
    ],
    ids=["alphas-outside-range", "alphas-not-units", "points-an-int", "points-not-branch-points",
         "z-value-a-float", "z-value-a-string", "z-values-partial-bool-and-list"],
)
def test_a_curve_that_is_not_fully_ramified_cannot_be_built(build, message):
    """The constructor refuses what only a valid curve may be, so no counter,
    lister or divisor ever meets such a curve."""
    with pytest.raises(CurveError, match=f"^{message}$"):
        build()


def test_keyword_construction_checks_the_curve():
    points = CurveSpec.from_alphas(5, [1, 2, 2]).points
    assert CurveSpec(n=5, points=points) == CurveSpec(5, points)
    with pytest.raises(CurveError, match="^exponent sum 5 is not 0 mod 7$"):
        CurveSpec(n=7, points=points)


def test_genus_examples():
    assert CurveSpec.from_alphas(3, [1, 1, 1]).genus() == 1
    assert CurveSpec.from_alphas(13, [1, 2, 10]).genus() == 6
    assert CurveSpec.from_alphas(7, [1] * 7).genus() == 15


def test_t_value_examples():
    spec = CurveSpec.from_alphas(5, [1, 2, 2])
    assert spec.t_values[:2] == (0, 1)
    assert CurveSpec.from_alphas(7, [1] * 7).t_values[0] == 0


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_t_value_two_two_family_formula(n):
    # in the r,p,q,m family with exponents 1,2,n-2,n-1 the value of t_k for
    # k up to (n-1)/2 is k*u + q + m with u the exponent-sum quotient
    for r, p, q, m in [(1, 1, 1, 1), (2, 0, 1, 0), (n + 1, 1, 1, 1), (2 * n + 2, 0, 1, 0)]:
        assert (r + 2 * p - 2 * q - m) % n == 0
        u = (r + 2 * p - 2 * q - m) // n
        spec = CurveSpec.from_alphas(n, [1] * r + [2] * p + [n - 2] * q + [n - 1] * m)
        for k in range(1, (n - 1) // 2 + 1):
            assert spec.t_values[k] == k * u + q + m


def test_t_sum_is_genus(small_battery):
    for spec in small_battery:
        assert sum(t - 1 for t in spec.t_values[1:]) == spec.genus()


def test_fractional_parts_cover_everything():
    for n in range(2, 30):
        for alpha in range(1, n):
            from math import gcd

            if gcd(alpha, n) != 1:
                continue
            thresholds = CurveSpec.from_alphas(n, [alpha, n - alpha, 1, n - 1]).thresholds
            assert sorted(thr[0] for thr in thresholds) == list(range(1, n))


def test_k_inverse_examples():
    assert k_inverse(1, 9) == 1
    assert k_inverse(6, 7) == 6
    assert k_inverse(3, 7) == 5
    for n in range(2, 20):
        assert k_inverse(n - 1, n) == n - 1
    with pytest.raises(CurveError):
        k_inverse(2, 4)


@given(st.integers(2, 200), st.integers(1, 199))
def test_k_inverse_property(n, beta):
    from math import gcd

    if gcd(beta % n, n) != 1 or beta % n == 0:
        return
    assert (beta * k_inverse(beta % n, n)) % n == 1


def test_e_factor():
    assert e_factor(4) == 1
    assert e_factor(5) == 2
    assert e_factor(2) == 1
    for n in range(2, 40):
        assert (e_factor(n) * n) % 2 == 0


def test_json_round_trip(tmp_path):
    doc = {
        "n": 5,
        "points": [
            {"alpha": 1, "label": "P", "lambda": "0"},
            {"alpha": 2, "lambda": "7/3"},
            {"alpha": 2, "lambda": "0.25"},
        ],
    }
    spec = curve_from_dict(doc)
    assert spec.points[1].lam == Fraction(7, 3)
    assert spec.points[2].lam == Fraction(1, 4)
    assert [p.label for p in spec.points] == ["P", None, None]


def test_library_z_values_are_read_like_the_document():
    spec = CurveSpec.from_alphas(5, [1, 1, 1, 2]).with_lambdas([0, "7/3", Fraction(1, 4), "0.1"])
    assert spec.lambdas == (0, Fraction(7, 3), Fraction(1, 4), Fraction(1, 10))
    assert spec.with_lambdas(["-1", 2, Fraction(3), "4"]).lambdas == (-1, 2, 3, 4)
    built = with_points(5, (1, 0), (1, Fraction(7, 3)), (1, Fraction(1, 4)), (2, Fraction(1, 10)))
    assert built == spec  # a curve built directly takes ints and Fractions


def test_z_value_exponents_up_to_the_digit_limit_are_read():
    """The exponent bound refuses only an exponent past the limit on an integer's digits."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
    lambdas = [f"1e{limit}", f"-2E-0{limit}", "3e0", "0"]
    spec = CurveSpec.from_alphas(5, [1, 1, 1, 2]).with_lambdas(lambdas)
    assert spec.lambdas == (10 ** limit, Fraction(-2, 10 ** limit), 3, 0)


@pytest.mark.parametrize(
    "lambdas, match",
    [
        ([0, 1], "2 z-values for 4 points"),
        ([0, 1, 2, 3, 4], "5 z-values for 4 points"),
        ([0, 1, 2, "x"], "cannot parse 'x'"),
        ([0, 1, 2, "1/0"], "cannot parse '1/0'"),
        ([0, 1, 2, 0.1], "refusing float z-value 0.1"),
        ([0, 1, 2, True], "not a number"),
        ([0, 1, 2, None], "cannot parse None"),
    ],
)
def test_library_z_values_refused_as_curve_errors(lambdas, match):
    with pytest.raises(CurveError, match=match):
        CurveSpec.from_alphas(5, [1, 1, 1, 2]).with_lambdas(lambdas)


@pytest.mark.parametrize("path", ["descriptor", None, b"curve.json"], ids=["int", "none", "bytes"])
def test_load_curve_refuses_a_path_that_is_not_a_str_before_opening_it(path, tmp_path):
    """``open`` takes an int as a file descriptor and closes it when done, so
    load_curve(3) read descriptor 3 and closed it (and load_curve(True) closed
    stdout); a descriptor opened here is still open after the refusal."""
    file = tmp_path / "curve.json"
    file.write_text('{"n": 5, "points": [{"alpha": 1}, {"alpha": 2}, {"alpha": 2}]}')
    fd = os.open(file, os.O_RDONLY)
    try:
        with pytest.raises(CurveError, match="^path must be a str or an os.PathLike, got "):
            load_curve(fd if path == "descriptor" else path)
        os.fstat(fd)
    finally:
        os.close(fd)
    assert load_curve(file) == load_curve(str(file)) == CurveSpec.from_alphas(5, [1, 2, 2])


def test_json_rejects_floats():
    doc = {"n": 3, "points": [{"alpha": 1, "lambda": 0.1}, {"alpha": 1}, {"alpha": 1}]}
    with pytest.raises(CurveError, match="float"):
        curve_from_dict(doc)


def test_json_rejects_invalid_curve():
    with pytest.raises(CurveError, match="coprime"):
        curve_from_dict({"n": 4, "points": [{"alpha": 1}, {"alpha": 2}, {"alpha": 1}]})


def test_json_rejects_partial_lambdas():
    doc = {"n": 3, "points": [{"alpha": 1, "lambda": "1"}, {"alpha": 1}, {"alpha": 1}]}
    with pytest.raises(CurveError):
        curve_from_dict(doc)


def test_r_is_derived():
    spec = CurveSpec.from_alphas(5, [1, 2, 2])
    assert spec.r(2) == 2 and spec.r(1) == 1 and spec.r(3) == 0
    assert spec.classes == (1, 2)
