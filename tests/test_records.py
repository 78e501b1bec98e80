"""The package's record classes are values: equal exactly when they are of one
class with equal fields, hashed alike when equal, shown as Name(field=value, …),
and never changed after construction."""

import pytest

from thomae.curve import BranchPoint, CurveSpec
from thomae.divisors import CardinalityMatrix, DivisorKind, LeveledDivisor
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
    CurveSpec: (("n", "points"), (4, CURVE.points), (4, CURVE.points[:3])),
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
