"""Every public function that takes a point index, an exponent class or n refuses
anything but an integer with DivisorError or CurveError, and gives a result or
one of those refusals for any integer; one that takes a curve refuses anything
but a CurveSpec, one that takes a divisor, a denominator matrix, a group element,
a divisor kind or a family anything but a LeveledDivisor, an ExponentMatrix, a
GroupElement, a DivisorKind or a FamilySpec, one that takes an f-function table
anything but an FFunctionTable, and exponent lists refuse what is not a sequence
of integers.  A curve's class count and a table's index refuse what is not an
integer, and a group element a reflect that is not a bool."""

import pytest
from hypothesis import given, settings, strategies as st

from thomae import (
    CurveError,
    CurveSpec,
    DivisorError,
    DivisorKind,
    ExponentMatrix,
    FamilySpec,
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
    brute_force_divisors,
    count_base_point_free,
    count_divisors,
    count_family,
    degree,
    difbeta_hypothesis,
    difbeta_reachability,
    divisor_from_exponents,
    e_factor,
    enumerate_divisors,
    evaluate,
    f_sign_flip,
    fit_count_polynomial,
    full_denominator,
    k_inverse,
    load_curve,
    matrix_quotient,
    matrix_to_dict,
    pmt_denominator,
    pmt_gamma_denominator,
    reduce_matrix,
    satisfies_conditions,
    specialty_index,
    t_admissible,
    t_hat_admissible,
    theta_relation_shift,
)
from thomae import build_graph, orbits, run_suite, verify
from thomae.curve import is_int
from thomae.divisors import CardinalityMatrix, expand_matrix
from thomae.ffunctions import FFunctionError, FFunctionTable, f_chain

CURVE = CurveSpec.from_alphas(5, [1, 1, 1, 2])
XI = LeveledDivisor(CURVE, (0, 0, 2, 1), DivisorKind.XI)  # point 0 at level 0

# in and out of range, integral and other floats, booleans and strings
VALUES = st.one_of(
    st.integers(-6, 9),
    st.integers(-6, 9).map(float),
    st.floats(),
    st.booleans(),
    st.text(max_size=2),
)

# name -> (number of generated arguments, the call)
CALLS = {
    "t_hat_admissible": (2, lambda q, r: t_hat_admissible(XI, q, r)),
    "t_admissible": (2, lambda q, r: t_admissible(XI, q, r)),
    "apply_T": (2, lambda q, r: apply_T(XI, q, r)),
    "apply_T_hat": (2, lambda q, r: apply_T_hat(XI, q, r)),
    "base_point_representative": (1, lambda q: base_point_representative(XI, q)),
    "theta_relation_shift": (2, lambda q, r: theta_relation_shift(XI, q, r)),
    "pmt_gamma_denominator": (2, lambda q, gamma: pmt_gamma_denominator(XI, q, gamma)),
    "pmt_denominator": (1, lambda beta: pmt_denominator(XI, beta)),
    "apply_N_beta": (1, lambda beta: apply_N_beta(XI, beta)),
    "ExponentMatrix": (2, lambda i, j: ExponentMatrix(CURVE, {(i, j): 1})),
    "count_divisors_delta": (1, lambda p: count_divisors(CURVE, DivisorKind.DELTA, avoid=p)),
    "count_divisors_xi": (1, lambda p: count_divisors(CURVE, DivisorKind.XI, avoid=p)),
    "enumerate_divisors": (1, lambda p: list(enumerate_divisors(CURVE, DivisorKind.XI, p))),
    "difbeta_hypothesis": (1, lambda beta: difbeta_hypothesis(XI, beta)),
    "difbeta_reachability": (1, lambda beta: difbeta_reachability(XI, XI, beta)),
    "e_factor": (1, e_factor),
    "a_value": (2, lambda alpha, l: a_value(2, alpha, l, 5)),
    "b_value": (2, lambda alpha, l: b_value(2, alpha, l, 5)),
}


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_point_and_class_arguments_are_gated(name, data):
    """A result only when every generated argument is an integer; otherwise,
    and for an integer off the curve, DivisorError or CurveError, never a
    TypeError or another exception."""
    arity, call = CALLS[name]
    args = [data.draw(VALUES, label=f"argument {k}") for k in range(arity)]
    try:
        call(*args)
    except (DivisorError, CurveError):
        return
    assert all(map(is_int, args)), f"{name}{tuple(args)} gave a result"


@pytest.mark.parametrize("name", CALLS)
def test_integral_floats_and_booleans_are_refused_after_the_integer(name):
    """Refused also once the integer that 2.0 or True equals has filled the caches."""
    arity, call = CALLS[name]
    for good, bad in ((2, 2.0), (1, True), (0, 0.0)):
        try:
            call(*[good] * arity)
        except (DivisorError, CurveError):
            pass
        for k in range(arity):
            args = [good] * arity
            args[k] = bad
            with pytest.raises((DivisorError, CurveError)):
                call(*args)


@pytest.mark.parametrize(
    "n, alphas",
    [(5.0, [1, 1, 1, 2]), (5, [1.0, 1, 1, 2]), ("5", [1, 1, 1, 2]), (5, ["1", 1, 1, 2]),
     (True, [1, 1, 1]), (5, [True, 1, 1, 2])],
)
def test_non_integer_n_and_alpha_are_refused(n, alphas):
    """A float, bool or str n or alpha is a CurveError problem line, never a bare
    TypeError from gcd or a comparison."""
    with pytest.raises(CurveError, match="must be an integer"):
        CurveSpec.from_alphas(n, alphas)


# name -> (the call, its refusal, the words of the refusal)
NOT_SEQUENCES = {
    "alphas-int": (lambda: CurveSpec.from_alphas(5, 3), CurveError, "alphas must be a sequence"),
    "alphas-none": (lambda: CurveSpec.from_alphas(5, None), CurveError,
                    "alphas must be a sequence"),
    "lambdas-int": (lambda: CURVE.with_lambdas(5), CurveError, "z-values must be a sequence"),
    "with-lambdas-none": (lambda: CURVE.with_lambdas(None), CurveError,
                          "z-values must be a sequence"),
    "exponent-matrix-int": (lambda: ExponentMatrix(CURVE, 5), DivisorError,
                            "entries must be a Mapping, got 5"),
    "exponent-matrix-pairs": (lambda: ExponentMatrix(CURVE, [((0, 1), 1)]), DivisorError,
                              "entries must be a Mapping, got "),
    "count-family-int": (lambda: count_family(FamilySpec((1, 1, 1), (1, 1, 1)), 5), DivisorError,
                         "n_values must be a sequence, got 5"),
    "run-suite-int": (lambda: run_suite(CURVE, checks=5), DivisorError,
                      "checks must be a sequence, got 5"),
}


@pytest.mark.parametrize("name", NOT_SEQUENCES)
def test_curve_arguments_that_are_not_sequences_are_refused(name):
    """The curve's alphas and z-values, a matrix's entries, a sweep's values of
    n and the names of the checks: refused with the row's error, never a bare
    TypeError or AttributeError from iterating an int or None or from reading
    the items of what is not a mapping."""
    call, error, words = NOT_SEQUENCES[name]
    with pytest.raises(error, match=words):
        call()


# name -> a call that takes the curve as its first argument
CURVE_CALLS = {
    "LeveledDivisor": lambda curve: LeveledDivisor(curve, (0, 0, 2, 1), DivisorKind.XI),
    "divisor_from_exponents": lambda curve: divisor_from_exponents(curve, (4, 4, 2, 3),
                                                                   DivisorKind.XI),
    "ExponentMatrix": lambda curve: ExponentMatrix(curve, {(0, 1): 1}),
    "count_divisors": lambda curve: count_divisors(curve, DivisorKind.XI),
    "count_base_point_free": count_base_point_free,
    "enumerate_divisors": lambda curve: list(enumerate_divisors(curve, DivisorKind.XI)),
    "brute_force_divisors": lambda curve: brute_force_divisors(curve, DivisorKind.XI),
    "build_graph": build_graph,
    "run_suite": run_suite,
    "avoided_level": lambda curve: DivisorKind.XI.avoided_level(curve, 0),
    "CardinalityMatrix": lambda curve: CardinalityMatrix(
        curve, ((1, (3, 0, 0, 0, 0)), (2, (1, 0, 0, 0, 0))), DivisorKind.XI),
}


@pytest.mark.parametrize("name", CURVE_CALLS)
@pytest.mark.parametrize(
    "curve", [5, None, "5", (1, 1, 1, 2), {"n": 5, "points": [{"alpha": 1}] * 5}],
    ids=["int", "none", "str", "alphas", "document"],
)
def test_a_curve_that_is_not_a_curve_spec_is_refused(name, curve):
    """A DivisorError, never a bare AttributeError from reading n or point_count;
    the same call on the curve itself gives a result."""
    call = CURVE_CALLS[name]
    call(CURVE)
    with pytest.raises(DivisorError, match="curve must be a CurveSpec, got "):
        call(curve)


H = full_denominator(XI)
GRAPH = build_graph(CURVE)
VERTEX = next(enumerate_divisors(CURVE, DivisorKind.XI))

# name -> (the record the argument must be, a call that takes it as its one argument)
RECORD_CALLS = {
    "apply_M": ("LeveledDivisor", apply_M),
    "apply_N": ("LeveledDivisor", apply_N),
    "apply_N_beta": ("LeveledDivisor", lambda xi: apply_N_beta(xi, 2)),
    "apply_T": ("LeveledDivisor", lambda xi: apply_T(xi, 0, 1)),
    "apply_T_hat": ("LeveledDivisor", lambda xi: apply_T_hat(xi, 0, 1)),
    "apply_group": ("LeveledDivisor", lambda xi: apply_group(xi, GroupElement(5, 1, False))),
    "apply_group-element": ("GroupElement", lambda g: apply_group(XI, g)),
    "compose": ("GroupElement", lambda g: GroupElement(5, 1, False).compose(g)),
    "base_point_representative": ("LeveledDivisor", lambda xi: base_point_representative(xi, 0)),
    "t_admissible": ("LeveledDivisor", lambda xi: t_admissible(xi, 0, 1)),
    "t_hat_admissible": ("LeveledDivisor", lambda xi: t_hat_admissible(xi, 0, 1)),
    "full_denominator": ("LeveledDivisor", full_denominator),
    "pmt_denominator": ("LeveledDivisor", lambda xi: pmt_denominator(xi, 1)),
    "pmt_gamma_denominator": ("LeveledDivisor", lambda xi: pmt_gamma_denominator(xi, 0, 1)),
    "theta_relation_shift": ("LeveledDivisor", lambda xi: theta_relation_shift(xi, 0, 1)),
    "satisfies_conditions": ("LeveledDivisor", satisfies_conditions),
    "specialty_index": ("LeveledDivisor", specialty_index),
    "difbeta_hypothesis": ("LeveledDivisor", lambda xi: difbeta_hypothesis(xi, 1)),
    "difbeta_reachability-from": ("LeveledDivisor", lambda xi: difbeta_reachability(xi, XI, 1)),
    "difbeta_reachability-to": ("LeveledDivisor", lambda xi: difbeta_reachability(XI, xi, 1)),
    "witness-from": ("LeveledDivisor", lambda xi: GRAPH.witness(xi, VERTEX)),
    "witness-to": ("LeveledDivisor", lambda xi: GRAPH.witness(VERTEX, xi)),
    "evaluate": ("ExponentMatrix", evaluate),
    "matrix_to_dict": ("ExponentMatrix", matrix_to_dict),
    "reduce_matrix": ("ExponentMatrix", reduce_matrix),
    "degree": ("ExponentMatrix", degree),
    "matrix_quotient-first": ("ExponentMatrix", lambda m: matrix_quotient(m, H)),
    "matrix_quotient-second": ("ExponentMatrix", lambda m: matrix_quotient(H, m)),
    "add": ("ExponentMatrix", lambda m: H + m),
    "count_divisors-kind": ("DivisorKind", lambda kind: count_divisors(CURVE, kind)),
    "enumerate_divisors-kind": ("DivisorKind", lambda kind: list(enumerate_divisors(CURVE, kind))),
    "brute_force_divisors-kind": ("DivisorKind", lambda kind: brute_force_divisors(CURVE, kind)),
    "count_family": ("FamilySpec", lambda family: count_family(family, [5])),
}


@pytest.mark.parametrize("name", RECORD_CALLS)
@pytest.mark.parametrize(
    "value", [5, (0, 0, 2, 1), {"kind": "xi", "levels": [0, 0, 2, 1]}],
    ids=["int", "levels", "document"],
)
def test_a_divisor_matrix_or_family_of_another_type_is_refused(name, value):
    """A DivisorError naming the record, never a bare AttributeError from
    reading its curve, kind, levels, modulus or exponent lists, nor a KeyError
    from looking a kind up."""
    record, call = RECORD_CALLS[name]
    with pytest.raises(DivisorError, match=f"must be an? {record}, got "):
        call(value)


# name -> (the words of the refusal, a call that takes the argument as its one argument)
FFUNCTION_CALLS = {
    "f_sign_flip": ("table must be an FFunctionTable", f_sign_flip),
    "FFunctionTable": ("table for n = 5 must be a tuple of 5 integers",
                       lambda values: FFunctionTable(5, 1, values)),
}


@pytest.mark.parametrize("name", FFUNCTION_CALLS)
@pytest.mark.parametrize("value", [5, None, (0, 4.0, 6, 6, 4)], ids=["int", "none", "floats"])
def test_an_f_function_table_or_its_values_of_another_type_are_refused(name, value):
    """An FFunctionError, never a bare AttributeError or TypeError from reading
    the table's n or the length of its values, nor a table of floats."""
    words, call = FFUNCTION_CALLS[name]
    with pytest.raises(FFunctionError, match=f"^{words}, got "):
        call(value)


@pytest.mark.parametrize(
    "c, d, match",
    [([1, 1], (1, 1), "must be tuples"), ((1, 1), [1, 1], "must be tuples"),
     (5, (1,), "must be tuples"), ((1,), "1", "must be tuples"),
     ((1, 1.0), (1, 1), "must be integers"), ((True,), (1,), "must be integers")],
)
def test_family_exponents_are_tuples_of_integers(c, d, match):
    """Never a bare TypeError from adding a list to a tuple or an int to a tuple."""
    with pytest.raises(DivisorError, match=match):
        FamilySpec(c, d)


@pytest.mark.parametrize(
    "exponents, what",
    [(5, "a sequence"), (None, "a sequence"), ((4, "x", 2, 3), "integers"),
     ((4, 4, 2.5, 3), "integers"), ((4, 4, 2.0, 3), "integers"), ((4, True, 2, 3), "integers")],
)
def test_divisor_exponents_are_a_sequence_of_integers(exponents, what):
    """Never a bare TypeError from iterating an int or comparing a string with n."""
    assert divisor_from_exponents(CURVE, (4, 4, 2, 3), DivisorKind.XI) == XI
    with pytest.raises(DivisorError, match=f"exponents must be {what}"):
        divisor_from_exponents(CURVE, exponents, DivisorKind.XI)


@pytest.mark.parametrize(
    "counts, match",
    [
        ([(1, 1), (2, 2), (3, "x")], "count must be an integer"),
        ([(1, 1), (2, 2), (3, 2.5)], "count must be an integer"),
        ([(1, 1), (2, 2), (3, True)], "count must be an integer"),
        ([(1.0, 1), (2, 2), (3, 3)], "n must be an integer"),
        ([("3", 1), (2, 2), (4, 3)], "n must be an integer"),
        ([(1, 1), (2, 2), (3, 3, 3)], r"counts must be \(n, count\) pairs"),
        ([(1, 1), (2, 2), 5], r"counts must be \(n, count\) pairs"),
        (7, r"counts must be \(n, count\) pairs"),
    ],
)
def test_fit_refuses_non_integer_n_and_counts(counts, match):
    """Neither a bare ValueError from Fraction("x") nor a silent residual from
    2.5; nor a bare ValueError or TypeError from unpacking a point that is not
    an (n, count) pair, or from iterating counts that are not a sequence."""
    with pytest.raises(DivisorError, match=match):
        fit_count_polynomial(counts, 1)


FOUR_POINTS = CurveSpec.from_alphas(4, [1, 1, 3, 3])


@pytest.mark.parametrize(
    "rows, match",
    [
        (((1, (2, 0, 0, 0)),), "rows must be the classes"),  # a class row missing
        (((1, (2, 0, 0, 0)), (3, (2, 0, 0, 0)), (3, (2, 0, 0, 0))), "rows must be the classes"),
        (((3, (2, 0, 0, 0)), (1, (2, 0, 0, 0))), "rows must be the classes"),  # out of order
        (((1, (2.0, 0, 0, 0)), (3, (2, 0, 0, 0))), "a count >= 0 per level"),
        (((1, (1, 1, 0, 0)), (3, (1, 0, True, 0))), "a count >= 0 per level"),
        (((1, (3, -1, 0, 0)), (3, (2, 0, 0, 0))), "a count >= 0 per level"),  # sums to r_1
        (((1,),), r"counts must be \(alpha, row\) pairs"),  # a pair missing its row
        (5, r"counts must be \(alpha, row\) pairs"),  # not a sequence
        (((1, 5), (3, (2, 0, 0, 0))), r"counts must be \(alpha, row\) pairs"),  # row 5
    ],
)
def test_cardinality_matrix_rows_are_the_classes_with_counts_at_least_zero(rows, match):
    """One row per class in curve order, each of non-negative integers: never a
    bare KeyError, ValueError or TypeError from unpacking the rows or from the
    expansion, nor a matrix that expands to nothing."""
    with pytest.raises(DivisorError, match=match):
        CardinalityMatrix(FOUR_POINTS, rows, DivisorKind.XI)


@pytest.mark.parametrize("matrix", [5, None, ((1, (2, 0, 0, 0)), (3, (2, 0, 0, 0)))])
def test_expand_matrix_refuses_what_is_not_a_cardinality_matrix(matrix):
    """A DivisorError, never a bare AttributeError from reading its curve."""
    with pytest.raises(DivisorError, match="not a CardinalityMatrix"):
        expand_matrix(matrix, FOUR_POINTS)


def test_cardinality_matrix_kind_is_a_divisor_kind():
    """The expansion builds its divisors unchecked, so the matrix checks the kind."""
    rows = ((1, (2, 0, 0, 0)), (3, (2, 0, 0, 0)))
    assert CardinalityMatrix(FOUR_POINTS, rows, DivisorKind.XI).kind is DivisorKind.XI
    with pytest.raises(DivisorError, match="kind must be a DivisorKind"):
        CardinalityMatrix(FOUR_POINTS, rows, "xi")


@pytest.mark.parametrize("n", [5.0, "5", True])
def test_count_family_refuses_non_integer_n(n):
    with pytest.raises(DivisorError, match="n must be an integer"):
        count_family(FamilySpec((1, 1, 1), (1, 1, 1)), [n])


@pytest.mark.parametrize("key", [0, (0, 1, 2), (1,), "01"])
def test_exponent_matrix_refuses_a_key_that_is_not_a_pair(key):
    with pytest.raises(DivisorError, match="not a pair of point indices"):
        ExponentMatrix(CURVE, {key: 1})


@pytest.mark.parametrize("cap", [-1, -5, 1.5, 2.0, True, "100", None])
def test_vertex_caps_are_non_negative_integers(monkeypatch, cap):
    """run_suite and build_graph refuse a bad max_vertices before any listing;
    None is build_graph's "no cap" and is refused by run_suite."""

    def listing(*args):
        raise AssertionError("listed divisors before checking the cap")

    monkeypatch.setattr(orbits, "_list_assignments", listing)
    with pytest.raises(DivisorError, match="max_vertices must be"):
        run_suite(CURVE, ["genus-sum"], max_vertices=cap)
    if cap is not None:
        with pytest.raises(DivisorError, match="max_vertices must be"):
            build_graph(CURVE, max_vertices=cap)


def test_a_vertex_cap_of_zero_or_none():
    assert run_suite(CURVE, ["genus-sum"], max_vertices=0) == (["genus-sum"], [])
    with pytest.raises(DivisorError, match="exceed the requested cap 0"):
        build_graph(CURVE, max_vertices=0)
    uncapped = build_graph(CURVE).vertex_count
    assert uncapped == build_graph(CURVE, max_vertices=uncapped).vertex_count > 0


def test_vertex_caps_are_checked_on_the_exact_count_before_any_listing(monkeypatch):
    """Past the cap both refuse with the exact count and list nothing; at the
    count both run.  n = 31 [1^4, 30^4] has 648,301 representatives to list."""

    def listing(*args):
        raise AssertionError("listed divisors before checking the cap")

    for module in (orbits, verify):
        monkeypatch.setattr(module, "_list_assignments", listing)
    large = CurveSpec.from_alphas(31, [1] * 4 + [30] * 4)
    for curve, total, cap in ((CURVE, 30, 29), (large, 20_097_331, 100_000)):
        message = f"^{total} vertices exceed the requested cap {cap}$"
        with pytest.raises(DivisorError, match=message):
            build_graph(curve, max_vertices=cap)
        with pytest.raises(DivisorError, match=message):
            run_suite(curve, ["operators"], max_vertices=cap)
    monkeypatch.undo()
    assert build_graph(CURVE, max_vertices=30).vertex_count == 30
    assert run_suite(CURVE, ["operators"], max_vertices=30) == (["operators"], [])


# name -> (a call that ended in a bare exception or a wrong result, its refusal, the
# words of the refusal)
OFF_DOMAIN = {
    "k_inverse-mod-0": (lambda: k_inverse(1, 0), CurveError,
                        "^1 is not an invertible integer mod 0$"),
    "k_inverse-minus-one-mod-0": (lambda: k_inverse(-1, 0), CurveError,
                                  "^-1 is not an invertible integer mod 0$"),
    "k_inverse-negative-modulus": (lambda: k_inverse(2, -3), CurveError,
                                   "^2 is not an invertible integer mod -3$"),
    "load_curve-nul": (lambda: load_curve("c\0.json"), CurveError, "embedded null byte"),
    "run_suite-seed-list": (lambda: run_suite(CURVE, ["evaluation"], seed=[1]), DivisorError,
                            r"^seed must be an integer, got \[1\]$"),
    "run_suite-seed-float": (lambda: run_suite(CURVE, ["evaluation"], seed=1.5), DivisorError,
                             "^seed must be an integer, got 1.5$"),
    "run_suite-seed-none": (lambda: run_suite(CURVE, ["evaluation"], seed=None), DivisorError,
                            "^seed must be an integer, got None$"),
    "run_suite-unhashable-check": (lambda: run_suite(CURVE, [[1]]), DivisorError,
                                   r"^unknown check \[1\]$"),
    "r-list": (lambda: CURVE.r([1]), CurveError, r"^alpha must be an integer, got \[1\]$"),
    "r-float": (lambda: CURVE.r(1.0), CurveError, "^alpha must be an integer, got 1.0$"),
    "r-bool": (lambda: CURVE.r(True), CurveError, "^alpha must be an integer, got True$"),
    "table-str": (lambda: f_chain(5, 2)["x"], FFunctionError, "^l = 'x' is not an integer$"),
    "table-float": (lambda: f_chain(5, 2)[1.5], FFunctionError, "^l = 1.5 is not an integer$"),
    "table-none": (lambda: f_chain(5, 2)[None], FFunctionError, "^l = None is not an integer$"),
    "table-bool": (lambda: f_chain(5, 2)[True], FFunctionError, "^l = True is not an integer$"),
    "reflect-str": (lambda: GroupElement(5, 0, "yes"), DivisorError,
                    "^reflect must be a bool, got 'yes'$"),
    "reflect-none": (lambda: GroupElement(5, 0, None), DivisorError,
                     "^reflect must be a bool, got None$"),
    "reflect-int": (lambda: GroupElement(5, 0, 1), DivisorError, "^reflect must be a bool, got 1$"),
    "z-value-huge-exponent": (lambda: CURVE.with_lambdas(["1e5000", "0", "1", "2"]), CurveError,
                              "^cannot parse '1e5000' as an exact rational: its exponent passes"),
    "z-value-huge-negative-exponent": (lambda: CURVE.with_lambdas(["0", "-1E-5_000", "1", "2"]),
                                       CurveError, "^cannot parse '-1E-5_000' as an exact "),
}


@pytest.mark.parametrize("name", OFF_DOMAIN)
def test_calls_off_the_domain_are_refused(name):
    """No ValueError from pow() with modulus 0 or from a path with a NUL byte, no
    TypeError from seeding random with a list or hashing a list, and no float or
    None seed, which random takes but ``verify`` cannot reproduce from its report.
    No TypeError from counting a class or reading a table at what is not an
    integer, nor the count of class 1 or the value at 1 for True; and no group
    element whose reflect is not a bool, which ``compose`` would compare with !=
    (N composed with itself came out a reflection for "yes" and True).  A z-value
    whose exponent passes the limit on an integer's digits is refused before
    ``Fraction`` spends seconds on 10 ** exponent."""
    call, error, words = OFF_DOMAIN[name]
    with pytest.raises(error, match=words):
        call()
