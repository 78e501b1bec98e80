"""Symbolic denominators: exact exponent matrices over branch-point pairs.

A denominator like h is a product of powers of differences z(P) - z(P')
over unordered pairs of branch points.  We store only the integer exponents,
in units of e*n (e is 1 for even n, 2 for odd n), so the full power of every
factor is even and the choice of order inside each pair never matters.

Three denominators are built here:

* ``full_denominator`` (h): for every pair of (class, level) slots the unit
  exponent is c^(n)_d - f^(n)_d(l) with d = alpha * delta^{-1} mod n and l
  the twisted level offset; invariant under the negation and rotation
  operators.  Each slot-pair exponent is cached per (n, slot, slot), so h
  computes one exponent per new slot pair; the walk over the divisor's
  slots in a caller-chosen order stays as the oracle that the order of
  assembly never matters.
* ``pmt_denominator`` (g^beta) and ``pmt_gamma_denominator`` (q^{Q,gamma})
  are two-block products with one rule per point pair.  Let a(P) be the
  level a_{beta,alpha}(l) = alpha * beta^{-1} - 1 - l mod n that the
  negation N_beta sends P to.  Every upper lead is paired with every other
  point P at a(P), and every lower lead at n-1-a(P).  For g the upper leads
  are the points at level alpha * beta^{-1} of every class alpha and the
  lower leads those one level below; q keeps the leads of class gamma only
  and adjoins the base point Q to the lower leads.  An upper lead has
  a = n-1 and a lower lead a = 0, so a pair of two leads of one block,
  visited once, gets the top exponent n-1 whichever of its points is read.

None of g, q, h is itself unchanged by an admissible base-pointed swap; all
three move by the same matrix, returned by ``theta_relation_shift``, so the
differences h - g and g - q are exact swap invariants.  Each of h, g, q and
the shift is a private kernel from a level tuple to a dense tuple in (i < j)
pair order; the public functions wrap it, and ``verify`` compares tuples.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Mapping, Optional

from .curve import CurveSpec, e_factor, is_int, k_inverse
from .divisors import DivisorError, LeveledDivisor, _require_int, _require_points
from .ffunctions import c_constant, f_chain
from .operators import _negate, _require_swap_pair, _require_xi, _tables


class EvalMode(Enum):
    EXACT_RATIONAL = "exact"
    LOG_ABS = "log"


class ExponentMatrix:
    """Symmetric integer matrix over unordered branch-point pairs.

    Entries are unit exponents; the realized power of z(P_i) - z(P_j) is
    e * n * entry.  Value object: equality is entrywise, instances are
    immutable.  The entries are held as the kernels' dense tuple, in
    ``_pairs`` order.
    """

    __slots__ = ("curve", "_values")

    def __init__(self, curve: CurveSpec, entries: Optional[Mapping[tuple[int, int], int]] = None):
        """Entries keyed by point pairs in either order; each unordered pair of
        two distinct points of the curve may be given once."""
        p = curve.point_count
        values = [0] * len(_pairs(p))
        seen: set[tuple[int, int]] = set()
        for pair, v in (entries or {}).items():
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise DivisorError(f"key {pair!r} is not a pair of point indices")
            i, j = pair
            _require_points(curve, i, j)
            if i == j:
                raise DivisorError("diagonal pairs are not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DivisorError(f"pair {key} is given twice")
            seen.add(key)
            if not is_int(v):
                raise DivisorError(f"pair {key} has exponent {v!r}, not an integer")
            values[_pair_index(p, i, j)] = v
        self.curve = curve
        self._values = tuple(values)

    def unit_exponent(self, i: int, j: int) -> int:
        _require_points(self.curve, i, j)
        return 0 if i == j else self._values[_pair_index(self.curve.point_count, i, j)]

    @property
    def unit_factor(self) -> int:
        return e_factor(self.curve.n) * self.curve.n

    def items(self) -> list[tuple[tuple[int, int], int]]:
        """The nonzero entries, in ascending pair order."""
        return [(pair, v) for pair, v in zip(_pairs(self.curve.point_count), self._values) if v]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExponentMatrix)
            and self.curve == other.curve
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.curve, self._values))

    def __bool__(self) -> bool:
        return any(self._values)

    def _combine(self, other: "ExponentMatrix", op) -> "ExponentMatrix":
        """op(self, other), entrywise."""
        if self.curve != other.curve:
            raise DivisorError("matrices live on different curves")
        return _matrix(self.curve, tuple(map(op, self._values, other._values)))

    def __add__(self, other: "ExponentMatrix") -> "ExponentMatrix":
        return self._combine(other, add)

    def degree_units(self) -> int:
        return sum(self._values)

    def __repr__(self):
        return f"ExponentMatrix({dict(self.items())})"


def matrix_quotient(a: ExponentMatrix, b: ExponentMatrix) -> ExponentMatrix:
    """Entrywise difference; negative exponents are fine (formal quotients)."""
    return a._combine(b, sub)


def degree(matrix: ExponentMatrix) -> int:
    """Sum of the full (realized) exponents."""
    return matrix.unit_factor * matrix.degree_units()


@lru_cache(maxsize=None)
def _slot_pair_exponent(n: int, first: tuple[int, int], second: tuple[int, int]) -> int:
    """c^(n)_d - f^(n)_d(l) for the slot pair walked from ``first`` = (delta, r)
    to ``second`` = (alpha, l'), where d = alpha * delta^{-1} and l = l' - r * d mod n."""
    (delta, r), (alpha, lj) = first, second
    d = (alpha * k_inverse(delta, n)) % n
    return c_constant(n, d) - f_chain(n, d)[(lj - r * d) % n]


def full_denominator(xi: LeveledDivisor, slot_order: Optional[list] = None) -> ExponentMatrix:
    """The full denominator h of a valid shifted divisor.

    Each point pair takes the unit exponent of its (class, level) slot pair,
    walked from the lower slot to the higher and cached per (n, slot, slot).
    ``slot_order`` instead walks the divisor's nonempty slots in the given
    order, pairing every slot with itself and with each later one; that walk
    is the oracle for the cached exponents and for order independence, which
    the tests exercise by passing a reversed order.
    """
    _require_xi(xi)
    if slot_order is not None:
        return _slot_walk(xi, list(slot_order))
    return _matrix(xi.curve, _h(xi.curve, xi.levels))


@lru_cache(maxsize=None)
def _pairs(p: int) -> tuple[tuple[int, int], ...]:
    """The point pairs (i, j), i < j, in the order of the kernels' dense tuples."""
    return tuple(itertools.combinations(range(p), 2))


def _pair_index(p: int, i: int, j: int) -> int:
    """Where the pair of the distinct points i and j, in either order, sits in ``_pairs(p)``."""
    i, j = min(i, j), max(i, j)
    return i * (2 * p - i - 3) // 2 + j - 1


def _matrix(curve: CurveSpec, values: tuple[int, ...]) -> ExponentMatrix:
    """The matrix of a dense tuple in ``_pairs`` order, taken as it is."""
    out = ExponentMatrix.__new__(ExponentMatrix)
    out.curve, out._values = curve, values
    return out


def _h(curve: CurveSpec, levels: tuple[int, ...]) -> tuple[int, ...]:
    n = curve.n
    return tuple(
        _slot_pair_exponent(n, min(s, t), max(s, t))
        for s, t in itertools.combinations(zip(curve.alphas, levels), 2)
    )


def _slot_walk(xi: LeveledDivisor, slots: list) -> ExponentMatrix:
    """h over the nonempty slots in the order given: each point pair takes the
    exponent of its slot pair, walked from the earlier slot to the later."""
    n, p = xi.curve.n, xi.curve.point_count
    sets = xi.sets()
    if sorted(slots) != sorted(sets):
        raise DivisorError("slot order must enumerate exactly the nonempty slots")
    values = [0] * len(_pairs(p))
    for i, first in enumerate(slots):
        for second in slots[i:]:
            coef = _slot_pair_exponent(n, first, second)
            pairs = (itertools.combinations(sets[first], 2) if first == second
                     else itertools.product(sets[first], sets[second]))
            for x, y in pairs:
                values[_pair_index(p, x, y)] = coef
    return _matrix(xi.curve, tuple(values))


def _two_blocks(top: int, a: tuple[int, ...], upper: list, lower: list) -> tuple[int, ...]:
    """Upper leads paired with every other point P at a(P), lower leads at
    n-1-a(P), each point pair visited once."""
    out = []
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            v = a[j] if upper[i] else a[i] if upper[j] else 0
            if lower[i]:
                v += top - a[j]
            elif lower[j]:
                v += top - a[i]
            out.append(v)
    return tuple(out)


def _g(curve: CurveSpec, levels: tuple[int, ...], beta: int) -> tuple[int, ...]:
    top = curve.n - 1
    a = _negate(_tables(curve.n, curve.alphas), levels, beta)
    return _two_blocks(top, a, [v == top for v in a], [v == 0 for v in a])


def _q(curve: CurveSpec, levels: tuple[int, ...], q_id: int, gamma: int) -> tuple[int, ...]:
    top = curve.n - 1
    a = _negate(_tables(curve.n, curve.alphas), levels, curve.alphas[q_id])
    upper = [alpha == gamma and v == top for alpha, v in zip(curve.alphas, a)]
    lower = [alpha == gamma and v == 0 for alpha, v in zip(curve.alphas, a)]
    lower[q_id] = True
    return _two_blocks(top, a, upper, lower)


def _shift(curve: CurveSpec, levels: tuple[int, ...], q_id: int, r_id: int) -> tuple[int, ...]:
    top, p = curve.n - 1, curve.point_count
    out = [0] * len(_pairs(p))
    for s, v in enumerate(_negate(_tables(curve.n, curve.alphas), levels, curve.alphas[q_id])):
        if s not in (q_id, r_id):
            out[_pair_index(p, q_id, s)] = 2 * v - top
            out[_pair_index(p, r_id, s)] = top - 2 * v
    return tuple(out)


def pmt_denominator(xi: LeveledDivisor, beta: int) -> ExponentMatrix:
    """The base-point-invariant denominator g^beta of a valid shifted divisor.

    The upper leads are the points at level alpha * beta^{-1} of every class
    alpha, the lower leads those one level below.  The reflection
    a_{beta,alpha} sends those two levels to n-1 and to 0, so a alone marks
    the leads.
    """
    _require_xi(xi)
    _require_int("beta", beta)
    return _matrix(xi.curve, _g(xi.curve, xi.levels, beta))


def pmt_gamma_denominator(xi: LeveledDivisor, q_id: int, gamma: int) -> ExponentMatrix:
    """The single-class denominator q^{Q,gamma} of a divisor in base-point form.

    Requires the base point Q at level 0.  The same two blocks as g^beta,
    with beta the class of Q, over the degree-g divisor obtained by
    stripping Q^{n-1}: only the leads of class gamma count, and Q is
    adjoined to the lower leads.  Q at level 0 has a = 0, the lower lead
    value, so the pair rule needs no case for it.  Stripping moves Q to
    level n-1, which at n = 2 is the upper lead level gamma*beta^{-1}; Q is
    kept out of the upper leads there as well.
    """
    _require_xi(xi)
    _require_points(xi.curve, q_id)
    _require_int("gamma", gamma)
    curve = xi.curve
    if xi.levels[q_id] != 0:
        raise DivisorError("the base point must sit at level 0")
    if gamma not in curve.classes:
        raise DivisorError(f"no branch points of class {gamma}")
    return _matrix(curve, _q(curve, xi.levels, q_id, gamma))


def theta_relation_shift(xi: LeveledDivisor, q_id: int, r_id: int) -> ExponentMatrix:
    """How every denominator moves under the admissible swap at (Q, R).

    The two sides of the underlying theta-constant relation carry the
    exponent vectors n-1-a(l) and a(l) on the pairs {Q, P} and {R, P}; their
    difference is this matrix, and h, g and q each change by exactly it.
    """
    _require_swap_pair(xi, q_id, r_id)
    return _matrix(xi.curve, _shift(xi.curve, xi.levels, q_id, r_id))


def reduce_matrix(matrix: ExponentMatrix) -> ExponentMatrix:
    """Strip the common factor of every class pair.

    For each unordered pair of exponent classes, the minimum unit exponent
    over all point pairs of that shape (absent pairs count as zero) is
    subtracted from the whole block.  Reporting helper only; invariance
    checks always use raw matrices.
    """
    curve, alphas, values = matrix.curve, matrix.curve.alphas, matrix._values
    shapes = [tuple(sorted((alphas[i], alphas[j]))) for i, j in _pairs(curve.point_count)]
    least: dict[tuple[int, int], int] = {}
    for shape, v in zip(shapes, values):
        least[shape] = min(v, least.get(shape, v))
    return _matrix(curve, tuple(v - least[shape] for shape, v in zip(shapes, values)))


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
