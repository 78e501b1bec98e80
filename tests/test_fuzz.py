"""Every public name of the package gives a result or refuses with a
ThomaeError, the one base class of its refusals, whatever it is called with:
ints in and out of range, floats, booleans, short strings, None, small integer
tuples and lists, and valid curves, divisors, matrices, kinds, families and
group elements in any position.  A parameter whose name says what it takes
(``curve``, ``xi``, ``matrix``, ``n``, ``beta``, ...) is given a valid value of
that sort half the time, so that a call gets past its first gate and reaches
the next.  ``load_curve`` may also raise the OSError of a path that cannot be
read; ``main`` turns both into one ``error:`` line.  The public methods of the
records the package returns are called the same way."""

import inspect
import itertools
from collections.abc import Iterator

import pytest
from hypothesis import given, settings, strategies as st

import thomae
from thomae import (
    AdmissibilityError,
    ClosedFormUnavailable,
    CurveError,
    CurveSpec,
    DivisorError,
    DivisorKind,
    EvalMode,
    FamilySpec,
    GroupElement,
    LeveledDivisor,
    ReachabilityPreconditionError,
    ThomaeError,
    build_graph,
    count_family,
    f_chain,
    full_denominator,
)
from thomae.ffunctions import FFunctionError

CURVE = CurveSpec.from_alphas(5, [1, 1, 1, 2])
TINY = CurveSpec.from_alphas(3, [1, 1, 1])  # 6 shifted divisors, within caps of 6..9
EXACT = CURVE.with_lambdas([0, 1, 2, 3])
XI = LeveledDivisor(CURVE, (0, 0, 2, 1), DivisorKind.XI)
EXACT_XI = LeveledDivisor(EXACT, (0, 0, 2, 1), DivisorKind.XI)

CURVES = [CURVE, TINY, EXACT]
DIVISORS = [XI, EXACT_XI, LeveledDivisor(CURVE, (4, 4, 2, 3), DivisorKind.DELTA)]
MATRICES = [full_denominator(XI), full_denominator(EXACT_XI)]
# parameter name -> the valid values drawn there most often
TYPED = {
    **dict.fromkeys(["curve", "spec"], CURVES),
    **dict.fromkeys(["xi", "upsilon", "divisor", "source", "target"], DIVISORS),
    **dict.fromkeys(["matrix", "a", "b"], MATRICES),
    "kind": list(DivisorKind),
    "mode": list(EvalMode),
    "family": [FamilySpec((1, 1, 1), (1, 1, 1))],
    "g": [GroupElement(5, 2, True), GroupElement(3, 1, False)],
    "other": [*MATRICES, GroupElement(5, 2, True), GroupElement(3, 1, False)],
    "table": [f_chain(5, 2)],
    "n": [0, 1, 2, 5],  # the edges of the moduli, and the curves' own
    **dict.fromkeys(["alpha", "beta", "gamma", "d"], [-1, 1, 2]),
}

SMALL = st.integers(-1, 5)
VALUES = st.one_of(
    st.sampled_from([v for values in TYPED.values() for v in values]),
    st.integers(-6, 9),
    st.floats(),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(SMALL, max_size=5).map(tuple),
    st.lists(SMALL, max_size=5),
)

# name -> why calling it with arbitrary arguments proves nothing
EXCLUDED = {
    "DivisorKind": "an enum: a call looks a member up by value, and a miss is Enum's ValueError",
    "EvalMode": "an enum: a call looks a member up by value, and a miss is Enum's ValueError",
    **dict.fromkeys(
        ["ThomaeError", "CurveError", "DivisorError", "ClosedFormUnavailable",
         "AdmissibilityError", "ReachabilityPreconditionError"],
        "an exception class: a call builds the exception",
    ),
    **dict.fromkeys(
        ["Finding", "CountReport", "FamilyCount", "OrbitGraph"],
        "a record that the package builds, whose constructor binds its fields unchecked",
    ),
    "enumerate_cardinality_matrices": "deleted with the matrix view, which takes no new gate first",
}
FUZZED = [name for name in thomae.__all__ if name not in EXCLUDED]


def parameters(function) -> tuple[list[str], list[str]]:
    """The names of the arguments that ``function``'s signature requires and of
    those it may be given; a record whose constructor takes ``*values`` requires
    one per field."""
    params = inspect.signature(function).parameters.values()
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return list(function._fields), []
    return ([p.name for p in params if p.default is p.empty],
            [p.name for p in params if p.default is not p.empty])


def argument(name: str):
    """Any value, or one of the valid values that a parameter so named takes."""
    return st.one_of(st.sampled_from(TYPED[name]), VALUES) if name in TYPED else VALUES


(FAMILY,), (ELEMENT, _), (TABLE,) = TYPED["family"], TYPED["g"], TYPED["table"]
GRAPH = build_graph(CURVE)
# "Class.method" -> the method, bound to a record of that class that the package built
METHODS = {
    "CurveSpec.r": CURVE.r,
    "CurveSpec.with_lambdas": CURVE.with_lambdas,
    "CurveSpec.genus": CURVE.genus,
    "FFunctionTable.__getitem__": TABLE.__getitem__,
    "GroupElement.compose": ELEMENT.compose,
    "GroupElement.inverse": ELEMENT.inverse,
    "GroupElement.negation": GroupElement.negation,
    "ExponentMatrix.__add__": MATRICES[0].__add__,
    "ExponentMatrix.items": MATRICES[0].items,
    "OrbitGraph.witness": GRAPH.witness,
    "OrbitGraph.component_sizes": GRAPH.component_sizes,
    "FamilySpec.curve": FAMILY.curve,
    "DivisorKind.avoided_level": DivisorKind.XI.avoided_level,
    "CountReport.valid_counts": count_family(FAMILY, [2, 3, 4, 5]).valid_counts,
}


@pytest.mark.parametrize("name", [*FUZZED, *METHODS])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_public_name_gives_a_result_or_a_thomae_error(name, data):
    """Each optional argument is given or left out on its own; a generator is
    run for a few items, since it may check its arguments on the first."""
    function = METHODS[name] if name in METHODS else getattr(thomae, name)
    required, optional = parameters(function)
    args = [data.draw(argument(key), label=key) for key in required]
    named = {key: data.draw(argument(key), label=key) for key in optional
             if data.draw(st.booleans())}
    refusals = (ThomaeError, OSError) if name == "load_curve" else ThomaeError
    try:
        result = function(*args, **named)
        if isinstance(result, Iterator):
            list(itertools.islice(result, 3))
    except refusals:
        pass


def test_the_exclusions_are_public_names():
    assert set(EXCLUDED) <= set(thomae.__all__)


def test_every_refusal_class_derives_from_thomae_error():
    """One base, a ValueError as each of the six classes was before it."""
    assert issubclass(thomae.ThomaeError, ValueError)
    errors = (CurveError, DivisorError, FFunctionError, AdmissibilityError,
              ReachabilityPreconditionError, ClosedFormUnavailable)
    assert all(issubclass(error, ThomaeError) for error in errors)
    exported = [getattr(thomae, name) for name in thomae.__all__]
    assert {e for e in exported if isinstance(e, type) and issubclass(e, Exception)} == {
        ThomaeError, *errors} - {FFunctionError}
