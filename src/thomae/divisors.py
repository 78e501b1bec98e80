"""Branch-point-supported divisors, non-specialty, and exhaustive enumeration.

A divisor is stored as one level l in {0..n-1} per branch point; the point
then appears with exponent n-1-l.  A degree-g divisor (kind DELTA) is
non-special exactly when, for every k in 1..n-1, the number of points whose
level lies below alpha*k mod n equals t_k - 1; the shifted family of degree
g+n-1 (kind XI) uses t_k instead, so one test serves both kinds.  The same
left-hand sides drive the specialty index.

The curve packs the n-1 conditions into one integer per point and level
(``CurveSpec.packed``), so a level tuple meets them exactly when its packed
contributions sum to the packed target.  Testing, counting and listing all
read that table.  Both counting and listing meet in the middle: counting
folds multisets of partial sums (``_count_assignments``); listing files the
second half's level tuples under their sums and joins every first half with
the tuples completing it, so divisors come out in lexicographic order
(``_list_assignments``); a cap on them is checked on the exact count first.
The brute-force oracle keeps the condition test written out per k and walks
every level tuple once for both kinds.  The per-class level-count matrices
are read off the listing; each expands back, in the listing's order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from functools import reduce
from operator import add, getitem, lt, sub
from typing import Iterator, Optional

from .curve import CurveSpec, ThomaeError, _Value, _require_sequence, _require_type, is_int


class DivisorError(ThomaeError):
    pass


def _require_int(what: str, value) -> None:
    if not is_int(value):  # in a cache, 2.0 and True would find the entries of 2 and 1
        raise DivisorError(f"{what} must be an integer, got {value!r}")


def _require_cap(what: str, value) -> None:
    """A cap on work is a non-negative integer."""
    _require_int(what, value)
    if value < 0:
        raise DivisorError(f"{what} must be non-negative, got {value}")


def _require_vertices(spec: CurveSpec, max_vertices: int) -> None:
    """Refuse more shifted divisors than ``max_vertices`` by their exact count."""
    total = count_divisors(spec, DivisorKind.XI)
    if total > max_vertices:
        raise DivisorError(f"{total} vertices exceed the requested cap {max_vertices}")


def _require_curve(curve) -> CurveSpec:
    return _require_type(curve, CurveSpec, "curve must be a CurveSpec", DivisorError)


def _require_divisor(divisor) -> "LeveledDivisor":
    return _require_type(divisor, LeveledDivisor, "divisor must be a LeveledDivisor", DivisorError)


def _require_kind(kind) -> None:
    _require_type(kind, DivisorKind, "kind must be a DivisorKind", DivisorError)


def _require_ints(what: str, values) -> tuple:
    """``values`` as a tuple, once each of them is known to be an integer."""
    values = _require_sequence(what, values, DivisorError)
    if not all(map(is_int, values)):
        raise DivisorError(f"{what} must be integers: {values}")
    return values


def _require_points(spec: CurveSpec, *points) -> None:
    """Each of ``points`` is the integer index of a point of ``spec``."""
    for p in points:
        if not (is_int(p) and 0 <= p < spec.point_count):
            raise DivisorError(f"no point with index {p!r}")


class DivisorKind(Enum):
    DELTA = "delta"
    XI = "xi"

    @property
    def shift(self) -> int:
        """Right-hand sides of the k-th condition: t_k minus this."""
        return 1 if self is DivisorKind.DELTA else 0

    def avoided_level(self, spec: CurveSpec, point: int) -> int:
        """The level an avoided ``point`` sits at: n-1 (exponent 0) for DELTA,
        0 (exponent n-1, the base-point slot) for XI."""
        _require_points(_require_curve(spec), point)
        return spec.n - 1 if self is DivisorKind.DELTA else 0


class LeveledDivisor(_Value):
    _fields = ("curve", "levels", "kind")

    def __init__(self, curve: CurveSpec, levels: tuple[int, ...], kind: DivisorKind):
        _require_kind(kind)
        n, levels = _require_curve(curve).n, _require_ints("levels", levels)
        if len(levels) != curve.point_count:
            raise DivisorError("one level per branch point required")
        if levels and (min(levels) < 0 or max(levels) > n - 1):
            raise DivisorError(f"levels must lie in 0..{n - 1}: {levels}")
        super().__init__(curve, levels, kind)

    @property
    def exponents(self) -> tuple[int, ...]:
        n = self.curve.n
        return tuple(n - 1 - l for l in self.levels)


def _meets(spec: CurveSpec, levels: tuple[int, ...], shift: int) -> bool:
    """For every k, exactly t_k - shift of the levels lie below alpha * k mod n."""
    contrib, targets = spec.packed
    return sum(map(getitem, contrib, levels)) == targets[shift]


def satisfies_conditions(divisor: LeveledDivisor) -> bool:
    """Every k-condition of the divisor's kind: lhs_k = t_k - kind.shift."""
    return _meets(_require_divisor(divisor).curve, divisor.levels, divisor.kind.shift)


def specialty_index(divisor: LeveledDivisor) -> int:
    """i(divisor) = sum over k of max(t_k - 1 - |points below threshold|, 0).

    Zero exactly for the non-special divisors; for degree-g divisors this is
    the dimension of the space of holomorphic differentials that are
    multiples of the divisor.
    """
    spec, levels = _require_divisor(divisor).curve, divisor.levels
    return sum(
        max(t - 1 - sum(map(lt, levels, thr)), 0)
        for t, thr in zip(spec.t_values[1:], spec.thresholds)
    )


def divisor_from_exponents(
    curve: CurveSpec, exponents: tuple[int, ...], kind: DivisorKind
) -> LeveledDivisor:
    """Levels from raw exponents; exponents of n or more are rejected outright
    (reducing them is a linear-equivalence step this type does not perform)."""
    n, exponents = _require_curve(curve).n, _require_ints("exponents", exponents)
    if any(v >= n for v in exponents):
        raise DivisorError(f"exponent {max(exponents)} >= n = {n}; reduce the divisor first")
    if any(v < 0 for v in exponents):
        raise DivisorError("exponents must be non-negative")
    return LeveledDivisor(curve, tuple(n - 1 - v for v in exponents), kind)


# ---------------------------------------------------------------------------
# enumeration


class CardinalityMatrix(_Value):
    """Per-class level counts c_{alpha, l} of divisors of one kind: one row per
    class, in curve order, of non-negative integers; row alpha sums to r_alpha.
    ``counts`` holds the (alpha, counts over levels) pairs, as tuples."""

    _fields = ("curve", "counts", "kind")

    def __init__(self, curve: CurveSpec, counts, kind: DivisorKind):
        _require_kind(kind)
        try:  # every pair and every row is taken apart here, and nowhere unguarded
            counts = tuple((alpha, tuple(row)) for alpha, row in counts)
        except (TypeError, ValueError):
            raise DivisorError(f"counts must be (alpha, row) pairs, got {counts!r}") from None
        if tuple(alpha for alpha, _ in counts) != _require_curve(curve).classes:
            raise DivisorError(f"rows must be the classes {curve.classes}, in order")
        for alpha, row in counts:
            if len(row) != curve.n or not all(is_int(c) and c >= 0 for c in row):
                raise DivisorError(f"each class row needs a count >= 0 per level: {row}")
            if sum(row) != curve.r(alpha):
                raise DivisorError(f"row for class {alpha} must sum to r_{alpha}")
        super().__init__(curve, counts, kind)


def enumerate_cardinality_matrices(
    spec: CurveSpec, kind: DivisorKind
) -> Iterator[CardinalityMatrix]:
    """All level-count matrices of the divisors of ``kind``, read off the listing.

    Each divisor from ``_list_assignments`` fills one row of level counts per
    class, in input order; the distinct matrices come out in ascending
    lexicographic order of their concatenated rows (every row has n entries,
    so tuple order is that order).  The cost scales with the divisors listed,
    not with the matrices, and the listing raises DivisorError past
    ``STATE_BUDGET`` stored level tuples.
    """
    row_of = [spec.classes.index(alpha) for alpha in spec.alphas]
    found = set()
    for levels in _list_assignments(spec, kind, _allowed(spec, kind, None)):
        rows = [[0] * spec.n for _ in spec.classes]
        for c, l in zip(row_of, levels):
            rows[c][l] += 1
        found.add(tuple(map(tuple, rows)))
    for rows in sorted(found):
        yield CardinalityMatrix(spec, tuple(zip(spec.classes, rows)), kind)


def expand_matrix(matrix: CardinalityMatrix, spec: CurveSpec) -> Iterator[LeveledDivisor]:
    """All level assignments with the given per-class counts, each once, in
    lexicographic order: each point in turn takes every level its class row
    still has room for, which it takes from the row and gives back after."""
    if not isinstance(matrix, CardinalityMatrix):
        raise DivisorError(f"not a CardinalityMatrix: {matrix!r}")
    if matrix.curve != spec:
        raise DivisorError("matrix belongs to a different curve")
    room = {alpha: list(row) for alpha, row in matrix.counts}
    levels = [0] * spec.point_count

    def walk(i: int) -> Iterator[LeveledDivisor]:
        if i == len(levels):
            yield LeveledDivisor._make(spec, tuple(levels), matrix.kind)
            return
        row = room[spec.alphas[i]]
        for level, left in enumerate(row):
            if left:
                row[level] -= 1
                levels[i] = level
                yield from walk(i + 1)
                row[level] += 1

    return walk(0)


def enumerate_divisors(
    spec: CurveSpec, kind: DivisorKind, avoid: Optional[int] = None
) -> Iterator[LeveledDivisor]:
    """All valid divisors of the given kind in ascending lexicographic order of
    their levels; with ``avoid`` set, those with that point at
    ``kind.avoided_level``.  Raises DivisorError past ``STATE_BUDGET`` stored
    level tuples."""
    for levels in _list_assignments(_require_curve(spec), kind, _allowed(spec, kind, avoid)):
        yield LeveledDivisor._make(spec, levels, kind)


def _brute_force_levels(spec: CurveSpec) -> dict[DivisorKind, list[tuple[int, ...]]]:
    """The valid level tuples of each kind, from one walk over all n^points
    tuples in product order; the enumeration oracle.

    Each prefix carries its vector of per-k counts of levels below
    alpha * k mod n, built one point at a time.  The last point's levels are
    filed once by what a prefix's counts must be for them to complete each
    kind's targets t_k - kind.shift, and every full prefix looks its counts
    up there (the targets differ, so a tuple meets at most one kind).  The
    test is written out per k and shares nothing with the packing.
    """
    # below[i][l][k-1]: 1 when level l of point i lies below alpha_i * k mod n
    below = [
        [tuple(int(l < thr[i]) for thr in spec.thresholds) for l in range(spec.n)]
        for i in range(spec.point_count)
    ]
    targets = [(kind, tuple(t - kind.shift for t in spec.t_values[1:])) for kind in DivisorKind]
    found: dict[DivisorKind, list] = {kind: [] for kind in DivisorKind}
    completes: dict[tuple[int, ...], list] = {}  # prefix counts -> (kind's list, last level)
    for l, step in enumerate(below[-1]):
        for kind, target in targets:
            completes.setdefault(tuple(map(sub, target, step)), []).append((found[kind], l))

    def walk(levels: tuple[int, ...], counts: tuple[int, ...]) -> None:
        if len(levels) < len(below) - 1:
            for l, step in enumerate(below[len(levels)]):
                walk(levels + (l,), tuple(map(add, counts, step)))
            return
        for out, l in completes.get(counts, ()):
            out.append(levels + (l,))

    walk((), (0,) * (spec.n - 1))
    return found


def brute_force_divisors(spec: CurveSpec, kind: DivisorKind) -> list[LeveledDivisor]:
    """The divisors of ``kind`` among all n^points level assignments, in product
    order, by the oracle's walk (``_brute_force_levels``)."""
    _require_kind(kind)
    found = _brute_force_levels(_require_curve(spec))[kind]
    return [LeveledDivisor(spec, levels, kind) for levels in found]


STATE_BUDGET = 1_000_000  # partial sums in a half-table of a count; level tuples a listing stores


def _fold(table: Counter, steps: list[int]) -> Counter:
    """Each partial sum in ``table`` plus each of ``steps``, with multiplicity."""
    out: Counter = Counter()
    for total, ways in table.items():
        for step in steps:
            out[total + step] += ways
        if len(out) > STATE_BUDGET:
            raise DivisorError(f"counting needs over {STATE_BUDGET:,} partial sums; refused")
    return out


def _allowed(spec: CurveSpec, kind: DivisorKind, avoid: Optional[int]) -> list:
    """Every level for every point, or only ``kind.avoided_level`` for ``avoid``."""
    _require_kind(kind)
    allowed = [range(spec.n)] * spec.point_count
    if avoid is not None:
        allowed[avoid] = (kind.avoided_level(spec, avoid),)
    return allowed


def _count_assignments(spec: CurveSpec, kind: DivisorKind, allowed: list) -> int:
    """Assignments meeting the conditions of ``kind`` with point i at a level in allowed[i];
    half the points fold forward from 0, the rest but one back from the target."""
    contrib, targets = spec.packed
    target = targets[kind.shift]
    # a class's points sit together, so tables hold multisets
    order = sorted(range(spec.point_count), key=spec.alphas.__getitem__)
    *rest, last = [[contrib[i][l] for l in allowed[i]] for i in order]
    half = (len(rest) + 1) // 2
    front = reduce(_fold, rest[:half], Counter({0: 1}))
    back = reduce(_fold, ([-w for w in ws] for ws in rest[half:]), Counter({target: 1}))
    return sum(ways * front.get(total - w, 0) for total, ways in back.items() for w in last)


def _list_assignments(spec: CurveSpec, kind: DivisorKind, allowed: list) -> Iterator[tuple]:
    """The level tuples counted by ``_count_assignments``, in lexicographic order
    when every allowed[i] ascends.

    The points split at p//2 in curve order.  Every tuple of the second part's
    levels whose packed sum does not pass the target is filed under that sum,
    in product order; each tuple of the first part's levels, in product order,
    is then joined with the tuples filed under what it lacks of the target.
    """
    contrib, targets = spec.packed
    target = targets[kind.shift]
    split = spec.point_count // 2
    head, tail = contrib[:split], contrib[split:]
    back: dict[int, list] = {}
    stored = 0
    for suffix in itertools.product(*allowed[split:]):
        total = sum(map(getitem, tail, suffix))
        if total <= target:
            back.setdefault(total, []).append(suffix)
            stored += 1
            if stored > STATE_BUDGET:
                raise DivisorError(
                    f"listing needs over {STATE_BUDGET:,} stored level tuples; refused"
                )
    for prefix in itertools.product(*allowed[:split]):
        for suffix in back.get(target - sum(map(getitem, head, prefix)), ()):
            yield prefix + suffix


def count_divisors(spec: CurveSpec, kind: DivisorKind, avoid: Optional[int] = None) -> int:
    """Exact count of valid divisors by a packed-vector meet in the middle; with
    ``avoid`` set, of those with that point at ``kind.avoided_level``.  Raises
    DivisorError past ``STATE_BUDGET`` sums."""
    return _count_assignments(_require_curve(spec), kind, _allowed(spec, kind, avoid))


def count_base_point_free(spec: CurveSpec) -> int:
    """Shifted divisors in which no point sits at level 0 (no base-point form)."""
    allowed = [range(1, _require_curve(spec).n)] * spec.point_count
    return _count_assignments(spec, DivisorKind.XI, allowed)
