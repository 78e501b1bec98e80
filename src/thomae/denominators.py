"""Symbolic denominators: exact exponent matrices over branch-point pairs.

A denominator like h is a product of powers of differences z(P) - z(P')
over unordered pairs of branch points.  We store only the integer exponents,
in units of e*n (e is 1 for even n, 2 for odd n), so the full power of every
factor is even and the choice of order inside each pair never matters.

Three denominators are built here:

* ``full_denominator`` (h): for every pair of nonempty (class, level) slots
  the unit exponent is c^(n)_d - f^(n)_d(l) with d = alpha * delta^{-1} mod n
  and l the twisted level offset; invariant under the negation and rotation
  operators.  The exponent of every (class, level) x (class, level) pair is
  tabulated once per (n, classes), so h reads one entry per point pair; the
  walk over the divisor's slots in a caller-chosen order stays as the oracle
  that the order of assembly never matters.
* ``pmt_denominator`` (g^beta): the base-point-invariant two-block product.
* ``pmt_gamma_denominator`` (q^{Q,gamma}): the single-class denominator for a
  divisor in base-point form.

None of g, q, h is itself unchanged by an admissible base-pointed swap; all
three move by the same matrix, returned by ``theta_relation_shift``, so the
differences h - g and g - q are exact swap invariants.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional

from .curve import CurveSpec, e_factor, k_inverse
from .divisors import DivisorError, DivisorKind, LeveledDivisor
from .ffunctions import c_constant, f_chain
from .operators import a_value


class EvalMode(Enum):
    EXACT_RATIONAL = "exact"
    LOG_ABS = "log"


class ExponentMatrix:
    """Symmetric integer matrix over unordered branch-point pairs.

    Entries are unit exponents; the realized power of z(P_i) - z(P_j) is
    e * n * entry.  Value object: equality is entrywise, zero entries are
    never stored, instances are immutable.
    """

    __slots__ = ("curve", "_entries")

    def __init__(self, curve: CurveSpec, entries: Optional[Mapping[tuple[int, int], int]] = None):
        """Entries keyed by point pairs in either order; each unordered pair of
        two distinct points of the curve may be given once."""
        p = curve.point_count
        clean: dict[tuple[int, int], int] = {}
        seen: set[tuple[int, int]] = set()
        for (i, j), v in (entries or {}).items():
            if i == j:
                raise DivisorError("diagonal pairs are not allowed")
            if not (0 <= i < p and 0 <= j < p):
                raise DivisorError(f"pair ({i}, {j}) names a point outside 0..{p - 1}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DivisorError(f"pair {key} is given twice")
            seen.add(key)
            if v != 0:
                clean[key] = v
        self.curve = curve
        self._entries = clean

    @classmethod
    def _normalised(cls, curve: CurveSpec, entries: dict[tuple[int, int], int]) -> "ExponentMatrix":
        """The matrix of ``entries`` whose keys are already pairs (i, j) of
        points of the curve with i < j; only the zero values are dropped."""
        out = cls.__new__(cls)
        out.curve = curve
        out._entries = {k: v for k, v in entries.items() if v}
        return out

    def unit_exponent(self, i: int, j: int) -> int:
        return self._entries.get((min(i, j), max(i, j)), 0)

    @property
    def unit_factor(self) -> int:
        return e_factor(self.curve.n) * self.curve.n

    def items(self) -> Iterable[tuple[tuple[int, int], int]]:
        return sorted(self._entries.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExponentMatrix)
            and self.curve == other.curve
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.curve, tuple(sorted(self._entries.items()))))

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __sub__(self, other: "ExponentMatrix") -> "ExponentMatrix":
        return matrix_quotient(self, other)

    def __add__(self, other: "ExponentMatrix") -> "ExponentMatrix":
        if self.curve != other.curve:
            raise DivisorError("matrices live on different curves")
        out = dict(self._entries)
        for k, v in other._entries.items():
            out[k] = out.get(k, 0) + v
        return ExponentMatrix._normalised(self.curve, out)

    def degree_units(self) -> int:
        return sum(self._entries.values())

    def __repr__(self):
        return f"ExponentMatrix({dict(self.items())})"


def matrix_quotient(a: ExponentMatrix, b: ExponentMatrix) -> ExponentMatrix:
    """Entrywise difference; negative exponents are fine (formal quotients)."""
    if a.curve != b.curve:
        raise DivisorError("matrices live on different curves")
    out = dict(a._entries)
    for k, v in b._entries.items():
        out[k] = out.get(k, 0) - v
    return ExponentMatrix._normalised(a.curve, out)


def degree(matrix: ExponentMatrix) -> int:
    """Sum of the full (realized) exponents."""
    return matrix.unit_factor * matrix.degree_units()


class _Builder:
    def __init__(self, curve: CurveSpec):
        self.curve = curve
        self.acc: dict[tuple[int, int], int] = {}

    def add_block(self, left: Iterable[int], right: Iterable[int], coef: int) -> None:
        """Pair every point of `left` with every point of `right`."""
        if coef == 0:
            return
        for x in left:
            for y in right:
                if x != y:
                    key = (min(x, y), max(x, y))
                    self.acc[key] = self.acc.get(key, 0) + coef

    def add_self_block(self, pts: Iterable[int], coef: int) -> None:
        """Pair the points of one set among themselves."""
        if coef == 0:
            return
        pts = list(pts)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                x, y = pts[a], pts[b]
                key = (min(x, y), max(x, y))
                self.acc[key] = self.acc.get(key, 0) + coef

    def build(self) -> ExponentMatrix:
        return ExponentMatrix._normalised(self.curve, self.acc)


def _require_xi(xi: LeveledDivisor) -> None:
    if xi.kind is not DivisorKind.XI:
        raise DivisorError("denominators are built from divisors of kind XI")


def _slot_pair_exponent(n: int, first: tuple[int, int], second: tuple[int, int]) -> int:
    """c^(n)_d - f^(n)_d(l) for the slot pair walked from ``first`` = (delta, r)
    to ``second`` = (alpha, l'), where d = alpha * delta^{-1} and l = l' - r * d mod n."""
    (delta, r), (alpha, lj) = first, second
    d = (alpha * k_inverse(delta, n)) % n
    return c_constant(n, d) - f_chain(n, d)[(lj - r * d) % n]


class _PairRows(dict):
    """Slot number -> the unit exponent of that slot against every slot, by
    slot number.  A row is computed the first time a divisor occupies its
    slot: the whole table has (classes * n)^2 entries, and one h on a large
    curve reads only the rows of its own points."""

    def __init__(self, n: int, slots: list[tuple[int, int]]):
        super().__init__()
        self.n = n
        self.slots = slots

    def __missing__(self, s: int) -> tuple[int, ...]:
        mine = self.slots[s]
        row = self[s] = tuple(
            _slot_pair_exponent(self.n, min(mine, other), max(mine, other)) for other in self.slots
        )
        return row


@lru_cache(maxsize=None)
def _pair_table(n: int, classes: tuple[int, ...]) -> tuple[dict[int, int], _PairRows]:
    """Slot numbers and the unit exponent of every pair of (class, level) slots.

    Slot (alpha, l) is numbered offset[alpha] + l, with the classes in
    ascending order, so slot numbers order the same way as the slots do.
    rows[s][t] walks from the lower of s and t to the higher, exactly as the
    sorted slot walk does, so the table is symmetric.
    """
    ordered = sorted(classes)
    offset = {a: i * n for i, a in enumerate(ordered)}
    return offset, _PairRows(n, [(a, l) for a in ordered for l in range(n)])


def full_denominator(xi: LeveledDivisor, slot_order: Optional[list] = None) -> ExponentMatrix:
    """The full denominator h of a valid shifted divisor.

    Each point pair reads its unit exponent from the per-curve table of
    (class, level) slot pairs, ``_pair_table``.  ``slot_order`` instead walks
    the divisor's nonempty slots in the given order, pairing every slot with
    itself and with each later one; that walk is the oracle for the table and
    for order independence, which the tests exercise by passing a reversed
    order.
    """
    _require_xi(xi)
    curve = xi.curve
    n = curve.n
    if slot_order is not None:
        return _slot_walk(xi, list(slot_order))
    offset, rows = _pair_table(n, curve.classes)
    slot = [offset[a] + l for a, l in zip(curve.alphas, xi.levels)]
    entries = {}
    for i, s in enumerate(slot):
        row = rows[s]
        for j in range(i + 1, len(slot)):
            entries[(i, j)] = row[slot[j]]
    return ExponentMatrix._normalised(curve, entries)


def _slot_walk(xi: LeveledDivisor, slots: list) -> ExponentMatrix:
    """h assembled block by block over the nonempty slots in the order given."""
    n = xi.curve.n
    sets = xi.sets()
    if sorted(slots) != sorted(sets):
        raise DivisorError("slot order must enumerate exactly the nonempty slots")
    out = _Builder(xi.curve)
    for i, first in enumerate(slots):
        for j in range(i, len(slots)):
            coef = _slot_pair_exponent(n, first, slots[j])
            if i == j:
                out.add_self_block(sets[first], coef)
            else:
                out.add_block(sets[first], sets[slots[j]], coef)
    return out.build()


def pmt_denominator(xi: LeveledDivisor, beta: int) -> ExponentMatrix:
    """The base-point-invariant denominator g^beta of a valid shifted divisor.

    Two blocks: the level delta*beta^{-1} slot of every class paired against
    everything with unit exponent a_{beta,alpha}(l), and the slot one level
    below paired against everything with n-1-a_{beta,alpha}(l).  Pairs whose
    both sides are distinguished slots would occur twice, so the class order
    breaks the tie; same-slot pairs follow the common rule.
    """
    _require_xi(xi)
    n = xi.curve.n
    kb = k_inverse(beta, n)
    sets = xi.sets()
    classes = xi.curve.classes
    out = _Builder(xi.curve)
    for block in (0, 1):  # block 0: levels delta*kb; block 1: one below
        for delta in classes:
            lead_level = (delta * kb - block) % n
            lead = sets.get((delta, lead_level))
            if not lead:
                continue
            for alpha in classes:
                special = (alpha * kb - block) % n
                for l in range(n):
                    pts = sets.get((alpha, l))
                    if not pts:
                        continue
                    if l == special and delta > alpha:
                        continue  # the pair is already covered from the other side
                    aval = a_value(beta, alpha, l, n)
                    coef = aval if block == 0 else n - 1 - aval
                    if (alpha, l) == (delta, lead_level):
                        out.add_self_block(lead, coef)
                    else:
                        out.add_block(lead, pts, coef)
    return out.build()


def pmt_gamma_denominator(xi: LeveledDivisor, q_id: int, gamma: int) -> ExponentMatrix:
    """The single-class denominator q^{Q,gamma} of a divisor in base-point form.

    Requires the base point Q at level 0.  Built from the degree-g divisor
    obtained by stripping Q^{n-1}: the class-gamma slot at level
    gamma*beta^{-1} is paired against everything with exponents
    a_{beta,alpha}(l), the slot one level below (with Q adjoined) with
    exponents n-1-a_{beta,alpha}(l), and each of the two leading sets is
    paired with itself at the top exponent n-1.  Q is adjoined to the lower
    slot only.  At n = 2 stripping lands Q at level n-1 = gamma*beta^{-1},
    the upper slot's level; Q is kept out of the upper set there as well.
    """
    _require_xi(xi)
    curve = xi.curve
    n = curve.n
    if not 0 <= q_id < curve.point_count:
        raise DivisorError(f"no point with index {q_id}")
    if xi.levels[q_id] != 0:
        raise DivisorError("the base point must sit at level 0")
    if gamma not in curve.classes:
        raise DivisorError(f"no branch points of class {gamma}")
    beta = curve.alphas[q_id]
    kb = k_inverse(beta, n)

    # sets of the stripped degree-g divisor: Q moves from level 0 to level n-1
    csets: dict[tuple[int, int], list[int]] = {}
    for i, (a, l) in enumerate(zip(curve.alphas, xi.levels)):
        csets.setdefault((a, n - 1 if i == q_id else l), []).append(i)

    def without_q(a: int, l: int) -> list[int]:
        return [p for p in csets.get((a, l), []) if p != q_id]

    lead = without_q(gamma, (gamma * kb) % n)
    lead_plus_q = without_q(gamma, (gamma * kb - 1) % n) + [q_id]
    out = _Builder(curve)
    for alpha in curve.classes:
        for l in range(n):
            aval = a_value(beta, alpha, l, n)
            if (alpha, l) != (gamma, (gamma * kb) % n):
                out.add_block(lead, without_q(alpha, l), aval)
            if (alpha, l) != (gamma, (gamma * kb - 1) % n):
                out.add_block(lead_plus_q, without_q(alpha, l), n - 1 - aval)
    out.add_self_block(lead, n - 1)
    out.add_self_block(lead_plus_q, n - 1)
    return out.build()


def theta_relation_shift(xi: LeveledDivisor, q_id: int, r_id: int) -> ExponentMatrix:
    """How every denominator moves under the admissible swap at (Q, R).

    The two sides of the underlying theta-constant relation carry the
    exponent vectors n-1-a(l) and a(l) on the pairs {Q, P} and {R, P}; their
    difference is this matrix, and h, g and q each change by exactly it.
    """
    _require_xi(xi)
    curve = xi.curve
    n = curve.n
    beta = curve.alphas[q_id]
    out = _Builder(curve)
    for p, (a, l) in enumerate(zip(curve.alphas, xi.levels)):
        if p in (q_id, r_id):
            continue
        av = a_value(beta, a, l, n)
        out.add_block([q_id], [p], 2 * av - (n - 1))
        out.add_block([r_id], [p], (n - 1) - 2 * av)
    return out.build()


def reduce_matrix(matrix: ExponentMatrix) -> ExponentMatrix:
    """Strip the common factor of every class pair.

    For each unordered pair of exponent classes, the minimum unit exponent
    over all point pairs of that shape (absent pairs count as zero) is
    subtracted from the whole block.  Reporting helper only; invariance
    checks always use raw matrices.
    """
    curve = matrix.curve
    by_class: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(curve.point_count):
        for j in range(i + 1, curve.point_count):
            ci, cj = curve.alphas[i], curve.alphas[j]
            key = (min(ci, cj), max(ci, cj))
            by_class.setdefault(key, []).append((i, j))
    out = {}
    for pairs in by_class.values():
        m = min(matrix.unit_exponent(i, j) for i, j in pairs)
        for i, j in pairs:
            out[(i, j)] = matrix.unit_exponent(i, j) - m
    return ExponentMatrix(curve, out)


def evaluate(matrix: ExponentMatrix, mode: EvalMode = EvalMode.EXACT_RATIONAL):
    """Realize the matrix at the curve's z-values.

    EXACT_RATIONAL returns the product of (z_i - z_j)**(e*n*unit) as a big
    Fraction.  LOG_ABS returns (sum of full exponents times log |z_i - z_j|,
    +1): every full exponent is even, so the sign is always positive.
    """
    lams = matrix.curve.lambdas
    if lams is None:
        raise DivisorError("the curve carries no z-values to evaluate at")
    factor = matrix.unit_factor
    if mode is EvalMode.EXACT_RATIONAL:
        result = Fraction(1)
        for (i, j), unit in matrix.items():
            result *= (lams[i] - lams[j]) ** (factor * unit)
        return result
    if mode is EvalMode.LOG_ABS:
        logmag = 0.0
        for (i, j), unit in matrix.items():
            logmag += factor * unit * math.log(abs(lams[i] - lams[j]))
        return (logmag, 1)
    raise DivisorError(f"unknown evaluation mode {mode!r}")


def matrix_to_dict(matrix: ExponentMatrix) -> dict:
    """The JSON document form of a denominator."""
    n = matrix.curve.n
    return {
        "unit": "e*n",
        "e": e_factor(n),
        "n": n,
        "pairs": [
            {"i": i, "j": j, "exp_unit": v} for (i, j), v in matrix.items()
        ],
    }
