"""The package's record classes are values: equal exactly when they are of one
class with equal fields, hashed alike when equal, shown as Name(field=value, …),
and never changed after construction."""

import pytest

from thomae.curve import BranchPoint, CurveSpec
from thomae.denominators import ExponentMatrix, full_denominator
from thomae.divisors import CardinalityMatrix, DivisorKind, LeveledDivisor, enumerate_divisors
from thomae.ffunctions import FFunctionTable, f_chain
from thomae.operators import GroupElement
from thomae.orbits import CountReport, Edge, FamilyCount, FamilySpec, OrbitGraph
from thomae.verify import Finding, _Run

CURVE = CurveSpec.from_alphas(4, [1, 1, 3, 3])
FAMILY = FamilySpec((1, 1, 1), (1, 1, 1))
COUNT = FamilyCount(5, False, 10, 30, 6, 2, (6, 6, 6, 6))
ROWS = ((1, (2, 0, 0, 0)), (3, (2, 0, 0, 0)))

# class -> (its fields in declaration order, arguments, arguments that give
# other field values, the last field among them where the constructor allows)
RECORDS = {
    BranchPoint: (("alpha", "label", "lam"), (1, "P", None), (1, "P", 3)),
    CurveSpec: (("n", "points"), (4, CURVE.points), (4, CURVE.points[::-1])),
    LeveledDivisor: (("curve", "levels", "kind"), (CURVE, (0, 1, 2, 3), DivisorKind.XI),
                     (CURVE, (0, 1, 2, 3), DivisorKind.DELTA)),
    CardinalityMatrix: (("curve", "counts", "kind"), (CURVE, ROWS, DivisorKind.XI),
                        (CURVE, ROWS, DivisorKind.DELTA)),
    FFunctionTable: (("n", "d", "values", "cmax"), (5, 2, f_chain(5, 2).values),
                     (5, 3, f_chain(5, 3).values)),
    GroupElement: (("n", "shift", "reflect"), (5, 1, False), (5, 1, True)),
    Edge: (("source", "target", "label"), (0, 1, "M"), (0, 1, "N")),
    OrbitGraph: (("curve", "reps"), (CURVE, ((0, 1, 2, 3),)), (CURVE, ())),
    FamilySpec: (("c", "d"), ((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, 2))),
    FamilyCount: (("n", "skipped", "total_divisors", "xi_divisors", "m_orbits",
                   "base_point_free_xi", "per_point_avoid"),
                  (5, False, 10, 30, 6, 2, (6, 6, 6, 6)), (5, False, 10, 30, 6, 2, (6, 6, 6, 7))),
    CountReport: (("family", "counts", "fit"), (FAMILY, (COUNT,), None),
                  (FAMILY, (COUNT,), {"m_orbits": 1})),
    Finding: (("check", "reproducer"), ("operators", "M of (0,) is invalid"), ("operators", "")),
    _Run: (("spec", "seed", "max_vertices"), (CURVE, 0, 10), (CURVE, 0, 11)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(cls):
    fields, args, other_args = RECORDS[cls]
    one, same, other = cls(*args), cls(*args), cls(*other_args)
    assert one is not same and one == same and not one != same
    assert hash(one) == hash(same)
    assert one != other and not one == other
    # the same field values in another class never compare equal
    twin = type(cls.__name__, (cls,), {})(*args)
    assert [getattr(twin, f) for f in fields] == [getattr(one, f) for f in fields]
    assert one != twin and twin != one
    shown = ", ".join(f"{name}={getattr(one, name)!r}" for name in fields)
    assert repr(one) == f"{cls.__name__}({shown})"
    before = [getattr(one, f) for f in fields]
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(one, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(one, name)
    assert [getattr(one, f) for f in fields] == before and one == same


@pytest.mark.parametrize("cls", [FamilyCount, Finding], ids=lambda cls: cls.__name__)
def test_asdict_gives_the_fields_in_declaration_order(cls):
    """The CLI writes these two records through ``_asdict``, so this is its JSON key order."""
    fields, args, _ = RECORDS[cls]
    assert list(cls(*args)._asdict().items()) == list(zip(fields, args))


def test_make_binds_every_field_as_the_constructor_does():
    """``_make`` takes the field values in order and checks nothing; the record it
    builds equals, hashes and shows like the constructor's."""
    records = [cls(*args) for cls, (_, args, _) in RECORDS.items()] + [_h()]
    for one in records:
        made = type(one)._make(*(getattr(one, f) for f in one._fields))
        assert type(made) is type(one) and made == one and hash(made) == hash(one)
        assert repr(made) == repr(one)


# the records whose fields are bound by the base alone, with no __init__ of their own
UNCHECKED = [CurveSpec, Edge, OrbitGraph, CountReport, Finding, _Run]


@pytest.mark.parametrize("cls", UNCHECKED, ids=lambda cls: cls.__name__)
def test_fields_bind_by_position_then_by_name_each_exactly_once(cls):
    fields, args, _ = RECORDS[cls]
    one, named = cls(*args), dict(zip(fields, args))
    assert cls(**named) == one == cls(**dict(reversed(named.items())))
    assert cls(args[0], **dict(zip(fields[1:], args[1:]))) == one
    message = rf"^{cls.__name__} takes each of the fields \({', '.join(map(repr, fields))}\) once$"
    for wrong in (
        lambda: cls(*args[:-1]),  # the last field missing
        lambda: cls(**dict(zip(fields[1:], args[1:]))),  # the first field missing
        lambda: cls(*args, args[-1]),  # one value too many
        lambda: cls(*args, colour=1),  # an unknown field
        lambda: cls(*args[:-1], **{fields[0]: args[0], fields[-1]: args[-1]}),  # given twice
    ):
        with pytest.raises(TypeError, match=message):
            wrong()


def _h():
    return full_denominator(next(enumerate_divisors(CURVE, DivisorKind.XI)))


def test_exponent_matrices_compare_and_hash_as_values():
    """The denominators that ``verify`` and the acceptance tests compare: equal
    entrywise on one curve, hashed alike, and never equal to a matrix of another
    class with the same fields."""
    h = _h()
    same = ExponentMatrix(CURVE, {(j, i): v for (i, j), v in h.items()})
    entries = dict(h.items())
    other = ExponentMatrix(CURVE, {**entries, (0, 1): entries.get((0, 1), 0) + 1})
    assert h and same is not h and same == h and not same != h and hash(same) == hash(h)
    assert other != h and not other == h
    assert h != ExponentMatrix(CurveSpec.from_alphas(4, [1, 3, 1, 3]), dict(h.items()))
    twin = type("ExponentMatrix", (ExponentMatrix,), {})(CURVE, dict(h.items()))
    assert (twin.curve, twin._values) == (h.curve, h._values)
    assert h != twin and twin != h


def test_exponent_matrices_never_change_so_a_set_still_finds_them():
    h = _h()
    found, before = {h}, (h.curve, h._values)
    for name in ("curve", "_values", "extra"):
        with pytest.raises(AttributeError):
            setattr(h, name, (0,) * 6)
    for name in ("curve", "_values"):
        with pytest.raises(AttributeError):
            delattr(h, name)
    assert (h.curve, h._values) == before and h in found and _h() in found
