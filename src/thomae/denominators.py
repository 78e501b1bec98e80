"""Symbolic denominators: exact exponent matrices over branch-point pairs.

A denominator like h is a product of powers of differences z(P) - z(P')
over unordered pairs of branch points.  We store only the integer exponents,
in units of e*n (e is 1 for even n, 2 for odd n), so the full power of every
factor is even and the choice of order inside each pair never matters.

Three denominators are built here:

* ``full_denominator`` (h): for every pair of (class, level) slots the unit
  exponent is c^(n)_d - f^(n)_d(l) with d = alpha * delta^{-1} mod n and l
  the twisted level offset; invariant under the negation and rotation
  operators.  A slot is named by its id alpha * n + level, and ids sort like
  the (alpha, level) pairs because level < n.  Each point pair reads the
  exponent of its slot pair walked from the lower id to the higher, cached
  per (n, id, id), so h computes one exponent per new slot pair.  The
  oracle walks each slot pair from the slot earlier in a caller-chosen
  order of the divisor's nonempty slots instead; the exponent is the same
  walked either way, and passing a reversed order checks that it is.
* ``pmt_denominator`` (g^beta) and ``pmt_gamma_denominator`` (q^{Q,gamma})
  are two-block products with one rule per point pair.  Let a(P) be the
  level a_{beta,alpha}(l) = alpha * beta^{-1} - 1 - l mod n that the
  negation N_beta sends P to.  Every upper lead is paired with every other
  point P at a(P), and every lower lead at n-1-a(P).  For g the upper leads
  are the points at level alpha * beta^{-1} of every class alpha and the
  lower leads those one level below; q keeps the leads of class gamma only
  and adjoins the base point Q to the lower leads.  An upper lead has
  a = n-1 and a lower lead a = 0, so a pair of two leads gets the top
  exponent n-1 if they lie in one block and 0 if they do not, whichever of
  its points is read.  No pair needs a sum, and a pair without a lead is 0,
  so the kernels write only the leads' rows of the dense tuple.

None of g, q, h is itself unchanged by an admissible base-pointed swap; all
three move by the same matrix, returned by ``theta_relation_shift``, so the
differences h - g and g - q are exact swap invariants.  Each of h, g, q and
the shift is a private kernel from a level tuple to a dense tuple in (i < j)
pair order, and the public functions wrap it.  Every entry reads only the
levels of its own two points, so ``_PairTables`` tabulates each rule per point
pair for ``verify``, which reads the tables over level columns, and through
an operator's per-point level maps for the denominators of its images.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Optional

from .curve import CurveSpec, _Value, _require_type, e_factor, is_int, k_inverse
from .divisors import DivisorError, LeveledDivisor, _require_curve, _require_int, _require_points
from .ffunctions import f_chain
from .operators import _negate, _require_swap_pair, _require_xi, _tables


class EvalMode(Enum):
    EXACT_RATIONAL = "exact"
    LOG_ABS = "log"


class ExponentMatrix(_Value):
    """Symmetric integer matrix over unordered branch-point pairs.

    Entries are unit exponents; the realized power of z(P_i) - z(P_j) is
    e * n * entry.  Value object: equality is entrywise on one curve, and
    instances are immutable.  The entries are held as the kernels' dense
    tuple, in ``_pairs`` order.
    """

    _fields = ("curve", "_values")

    def __init__(self, curve: CurveSpec, entries: Optional[Mapping[tuple[int, int], int]] = None):
        """Entries keyed by point pairs in either order; each unordered pair of
        two distinct points of the curve may be given once."""
        p = _require_curve(curve).point_count
        if entries is not None:
            _require_type(entries, Mapping, "entries must be a Mapping", DivisorError)
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
            values[_pair_rows(p)[i][j]] = v
        super().__init__(curve, tuple(values))

    @property
    def unit_factor(self) -> int:
        return e_factor(self.curve.n) * self.curve.n

    def items(self) -> list[tuple[tuple[int, int], int]]:
        """The nonzero entries, in ascending pair order."""
        return [(pair, v) for pair, v in zip(_pairs(self.curve.point_count), self._values) if v]

    def __bool__(self) -> bool:
        return any(self._values)

    def _combine(self, other: "ExponentMatrix", op) -> "ExponentMatrix":
        """op(self, other), entrywise."""
        if self.curve != _require_matrix(other).curve:
            raise DivisorError("matrices live on different curves")
        return ExponentMatrix._make(self.curve, tuple(map(op, self._values, other._values)))

    def __add__(self, other: "ExponentMatrix") -> "ExponentMatrix":
        return self._combine(other, add)

    def __repr__(self):
        return f"ExponentMatrix({dict(self.items())})"


def _require_matrix(matrix) -> ExponentMatrix:
    return _require_type(matrix, ExponentMatrix, "matrix must be an ExponentMatrix", DivisorError)


def matrix_quotient(a: ExponentMatrix, b: ExponentMatrix) -> ExponentMatrix:
    """Entrywise difference; negative exponents are fine (formal quotients)."""
    return _require_matrix(a)._combine(b, sub)


def degree(matrix: ExponentMatrix) -> int:
    """Sum of the full (realized) exponents."""
    return _require_matrix(matrix).unit_factor * sum(matrix._values)


@lru_cache(maxsize=None)
def _slot_pair_exponent(n: int, first: int, second: int) -> int:
    """c^(n)_d - f^(n)_d(l) for the slot pair walked from the slot with id
    ``first`` = delta * n + r to the one with id ``second`` = alpha * n + l',
    where d = alpha * delta^{-1} and l = l' - r * d mod n."""
    (delta, r), (alpha, lj) = divmod(first, n), divmod(second, n)
    d = (alpha * k_inverse(delta, n)) % n
    table = f_chain(n, d)
    return table.cmax - table[(lj - r * d) % n]


def full_denominator(xi: LeveledDivisor) -> ExponentMatrix:
    """The full denominator h of a valid shifted divisor.

    Each point pair takes the unit exponent of its (class, level) slot pair,
    walked from the lower slot id to the higher and cached per (n, id, id);
    ``_slot_walk`` is the oracle that walks them in a given slot order instead.
    """
    _require_xi(xi)
    return ExponentMatrix._make(xi.curve, _h(xi.curve, xi.levels))


@lru_cache(maxsize=None)
def _pairs(p: int) -> tuple[tuple[int, int], ...]:
    """The point pairs (i, j), i < j, in the order of the kernels' dense tuples."""
    return tuple(itertools.combinations(range(p), 2))


@lru_cache(maxsize=None)
def _pair_rows(p: int) -> tuple[tuple[int, ...], ...]:
    """rows[i][j]: where the pair of the points i and j, in either order, sits in
    ``_pairs(p)``; rows[i][i] is one past the last pair."""
    index = {pair: k for k, pair in enumerate(_pairs(p))}
    return tuple(
        tuple(index.get((min(i, j), max(i, j)), len(index)) for j in range(p)) for i in range(p)
    )


def _walked(n: int, s: int, t: int) -> int:
    """The exponent of the slot pair {s, t} walked from the lower slot id, as h walks it."""
    return _slot_pair_exponent(n, s, t) if s <= t else _slot_pair_exponent(n, t, s)


def _h(curve: CurveSpec, levels: tuple[int, ...]) -> tuple[int, ...]:
    n = curve.n
    return tuple(
        _walked(n, s, t) for s, t in itertools.combinations(map(add, curve.slot_bases, levels), 2)
    )


def _slot_walk(curve: CurveSpec, levels: tuple[int, ...], slots: list) -> ExponentMatrix:
    """h of ``levels`` with each point pair's slot pair walked from the slot
    earlier in ``slots``, which must list exactly the nonempty (class, level)
    slots; the order-independence oracle, which the tests run in shuffled and
    reversed orders, the last against ``verify``'s reversed-walk tables."""
    n = curve.n
    if sorted(slots) != sorted(set(zip(curve.alphas, levels))):
        raise DivisorError("slot order must enumerate exactly the nonempty slots")
    rank = {alpha * n + level: k for k, (alpha, level) in enumerate(slots)}
    return ExponentMatrix._make(curve, tuple(
        _slot_pair_exponent(n, s, t) if rank[s] <= rank[t] else _slot_pair_exponent(n, t, s)
        for s, t in itertools.combinations(map(add, curve.slot_bases, levels), 2)
    ))


def _two_blocks(
    top: int, alphas: tuple, a: tuple[int, ...], classes: tuple, q_id: Optional[int] = None
) -> tuple[int, ...]:
    """The two-block dense tuple over points of classes ``alphas`` at N_beta's
    levels ``a``, whose leads are the points of ``classes`` at a = top (upper)
    and at a = 0 (lower), with the base point ``q_id``, when given, adjoined
    to the lower leads.  Only the leads' rows are written."""
    p = len(a)
    rows, out = _pair_rows(p), [0] * (len(_pairs(p)) + 1)
    for i, (alpha, v) in enumerate(zip(alphas, a)):
        if i == q_id or v == 0 and alpha in classes:
            for k, w in zip(rows[i], a):
                out[k] = top - w
        elif v == top and alpha in classes:
            for k, w in zip(rows[i], a):
                out[k] = w
    out.pop()  # where rows[i][i] pointed
    return tuple(out)


def _g(curve: CurveSpec, levels: tuple[int, ...], beta: int) -> tuple[int, ...]:
    a = _negate(_tables(curve.n, curve.alphas), levels, beta)
    return _two_blocks(curve.n - 1, curve.alphas, a, curve.classes)


def _q(curve: CurveSpec, levels: tuple[int, ...], q_id: int, gamma: int) -> tuple[int, ...]:
    a = _negate(_tables(curve.n, curve.alphas), levels, curve.alphas[q_id])
    return _two_blocks(curve.n - 1, curve.alphas, a, (gamma,), q_id)


def _shift(curve: CurveSpec, levels: tuple[int, ...], q_id: int, r_id: int) -> tuple[int, ...]:
    top, p = curve.n - 1, curve.point_count
    rows, out = _pair_rows(p), [0] * (len(_pairs(p)) + 1)
    a = _negate(_tables(curve.n, curve.alphas), levels, curve.alphas[q_id])
    for k, v in zip(rows[q_id], a):
        out[k] = 2 * v - top
    for k, v in zip(rows[r_id], a):
        out[k] = top - 2 * v
    out[rows[q_id][r_id]] = 0  # the pair {Q, R} itself does not move
    out.pop()
    return tuple(out)


def _keys(n: int, columns: list) -> list[list[int]]:
    """Per point pair (i, j), the key x * n + y of each row's levels x of i and y of j."""
    scaled = [list(map(n.__mul__, c)) for c in columns]
    return [list(map(add, scaled[i], columns[j])) for i, j in _pairs(len(columns))]


class _PairTables:
    """One curve's lookup tables, a list per rule with one table per point pair
    (i, j), indexed by x * n + y for i at level x and j at level y."""

    def __init__(self, curve: CurveSpec):
        self.curve = curve
        self._block = lru_cache(maxsize=None)(self._block)  # one per classes, beta and role
        self._drift = lru_cache(maxsize=None)(self._drift)
        self.h = self._slots(_walked)
        # the reversed order of the slots walks each slot pair from the higher id
        self.back = self._slots(lambda n, s, t: _slot_pair_exponent(n, max(s, t), min(s, t)))

    def _slots(self, walk) -> list:
        n = self.curve.n
        return [tuple(walk(n, s, t) for s in range(s0, s0 + n) for t in range(t0, t0 + n))
                for s0, t0 in itertools.combinations(self.curve.slot_bases, 2)]

    def _block(self, beta: int, classes: tuple, a: int, b: int, role: Optional[int]) -> tuple:
        curve = self.curve  # an entry reads only its own pair: _two_blocks on the pair alone
        negations = dict(zip(curve.alphas, _tables(curve.n, curve.alphas).negations(beta)))
        return tuple(_two_blocks(curve.n - 1, (a, b), (x, y), classes, role)[0]
                     for x in negations[a] for y in negations[b])

    def blocks(self, beta: int, classes: tuple, q_id: Optional[int] = None) -> list:
        """g^beta's tables, or with a base point ``q_id`` of class beta q's."""
        alphas = self.curve.alphas
        return [self._block(beta, classes, alphas[i], alphas[j],
                            (i, j).index(q_id) if q_id in (i, j) else None)
                for i, j in _pairs(len(alphas))]

    def drift(self, pair_tables: list, moves, shift: Optional[list] = None) -> list:
        """Per point pair, its table read at the levels that ``moves``, a level
        map per point, sends the pair's levels to, less its entry there and
        ``shift``'s: all zero where the entries move by the shift (by 0 if none)."""
        shift = shift or itertools.repeat((0,) * self.curve.n ** 2)
        return [self._drift(table, moves[i], moves[j], by)
                for (i, j), table, by in zip(_pairs(len(moves)), pair_tables, shift)]

    def _drift(self, table: tuple, f: tuple, g: tuple, by: tuple) -> tuple:
        n = self.curve.n
        return tuple(table[f[x] * n + g[y]] - table[x * n + y] - by[x * n + y]
                     for x in range(n) for y in range(n))

    def shift(self, q_id: int, r_id: int) -> list:
        """An entry reads only the level of the point paired with Q or R, so
        ``_shift`` is read with every point at one level z, for each z."""
        n, p = self.curve.n, self.curve.point_count
        at = zip(*(_shift(self.curve, (z,) * p, q_id, r_id) for z in range(n)))
        return [tuple(v for v in by_z for _ in range(n)) if j in (q_id, r_id) else by_z * n
                for (i, j), by_z in zip(_pairs(p), at)]


def pmt_denominator(xi: LeveledDivisor, beta: int) -> ExponentMatrix:
    """The base-point-invariant denominator g^beta of a valid shifted divisor.

    The upper leads are the points at level alpha * beta^{-1} of every class
    alpha, the lower leads those one level below.  The reflection
    a_{beta,alpha} sends those two levels to n-1 and to 0, so a alone marks
    the leads.
    """
    _require_xi(xi)
    _require_int("beta", beta)
    return ExponentMatrix._make(xi.curve, _g(xi.curve, xi.levels, beta))


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
    return ExponentMatrix._make(curve, _q(curve, xi.levels, q_id, gamma))


def theta_relation_shift(xi: LeveledDivisor, q_id: int, r_id: int) -> ExponentMatrix:
    """How every denominator moves under the admissible swap at (Q, R).

    The two sides of the underlying theta-constant relation carry the
    exponent vectors n-1-a(l) and a(l) on the pairs {Q, P} and {R, P}; their
    difference is this matrix, and h, g and q each change by exactly it.
    """
    _require_swap_pair(xi, q_id, r_id)
    return ExponentMatrix._make(xi.curve, _shift(xi.curve, xi.levels, q_id, r_id))


def reduce_matrix(matrix: ExponentMatrix) -> ExponentMatrix:
    """Strip the common factor of every class pair.

    For each unordered pair of exponent classes, the minimum unit exponent
    over all point pairs of that shape (absent pairs count as zero) is
    subtracted from the whole block.  Reporting helper only; invariance
    checks always use raw matrices.
    """
    curve, alphas, values = _require_matrix(matrix).curve, matrix.curve.alphas, matrix._values
    shapes = [tuple(sorted((alphas[i], alphas[j]))) for i, j in _pairs(curve.point_count)]
    least: dict[tuple[int, int], int] = {}
    for shape, v in zip(shapes, values):
        least[shape] = min(v, least.get(shape, v))
    return ExponentMatrix._make(curve, tuple(v - least[shape] for shape, v in zip(shapes, values)))


def evaluate(matrix: ExponentMatrix, mode: EvalMode = EvalMode.EXACT_RATIONAL):
    """Realize the matrix at the curve's z-values.

    EXACT_RATIONAL returns the product of (z_i - z_j)**(e*n*unit) as a big
    Fraction.  LOG_ABS returns (sum of full exponents times log |z_i - z_j|,
    +1): every full exponent is even, so the sign is always positive.
    """
    lams = _require_matrix(matrix).curve.lambdas
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
            diff = abs(lams[i] - lams[j])
            try:
                logmag += factor * unit * math.log(diff)
            except (OverflowError, ValueError):  # diff lies past the range of a float
                logmag += factor * unit * (math.log(diff.numerator) - math.log(diff.denominator))
        return (logmag, 1)
    raise DivisorError(f"unknown evaluation mode {mode!r}")


def matrix_to_dict(matrix: ExponentMatrix) -> dict:
    """The JSON document form of a denominator."""
    n = _require_matrix(matrix).curve.n
    return {
        "unit": "e*n",
        "e": e_factor(n),
        "n": n,
        "pairs": [
            {"i": i, "j": j, "exp_unit": v} for (i, j), v in matrix.items()
        ],
    }
