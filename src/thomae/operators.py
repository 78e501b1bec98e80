"""Divisor operators: the level involutions, N_beta, T, the simplified swap,
the base-point rotation M, and the dihedral group they generate.

All operators act on the level vector of a shifted-degree divisor (kind XI)
and return a new divisor; exponents are derived views, so the wrap-around
at level 0 and level n-1 is ordinary arithmetic mod n.

Each operator is a kernel from level tuple to level tuple over per-point
level maps tabulated once per (n, alphas); ``orbits`` calls the kernels
directly, and ``verify`` composes the same maps, the column readers applied to
every level, and reads level columns only where they differ.  The public
functions check their input, call a kernel and wrap its image unchecked, as
every kernel reduces its levels mod n.
"""

from __future__ import annotations

from functools import cache
from itertools import compress, repeat
from operator import eq, getitem

from .curve import _Value, _require_type, is_int, k_inverse
from .divisors import (DivisorError, DivisorKind, LeveledDivisor, _require_divisor, _require_int,
                       _require_points)


class AdmissibilityError(DivisorError):
    """An operator was asked to act where its precondition fails."""

    def __init__(self, message: str, point: int, found: int, expected: int):
        super().__init__(f"{message}: point {point} at level {found}, need {expected}")
        self.point = point
        self.found = found
        self.expected = expected


def a_value(beta: int, alpha: int, l: int, n: int) -> int:
    """The reflection l -> alpha * beta^{-1} - 1 - l mod n."""
    _require_int("alpha", alpha)
    _require_int("the level", l)
    return (alpha * k_inverse(beta, n) - 1 - l) % n


def b_value(beta: int, alpha: int, l: int, n: int) -> int:
    """The reflection l -> 2 * alpha * beta^{-1} - 1 - l mod n."""
    _require_int("alpha", alpha)
    _require_int("the level", l)
    return (2 * alpha * k_inverse(beta, n) - 1 - l) % n


class _Tables:
    """One curve's level maps: map[i][l] is point i's image at level l.
    rotations(k mod n) is M^k, negations(beta) is N_beta for any unit beta and
    reflections(beta) is T's b-reflection for a base point of class beta, each
    built on first call; up and down step a level by +1 and -1; expected[q][j][r],
    built with the tables, is R's partner level with Q at level j, -1 at Q."""

    def __init__(self, n: int, alphas: tuple[int, ...]):
        self.n, self.alphas, self.points = n, alphas, range(len(alphas))
        self.flip = tuple(range(n - 1, -1, -1))
        self.up, self.down = (tuple((l + step) % n for l in range(n)) for step in (1, -1))
        self.rotations = cache(lambda k: self._maps(lambda a, l: l - a * k))
        self.negations = cache(lambda b: self._maps(lambda a, l: a_value(b, a, l, n)))
        self.reflections = cache(lambda b: self._maps(lambda a, l: b_value(b, a, l, n)))
        self.expected = tuple(map(self._expected, self.points))

    def _maps(self, rule) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(rule(a, l) % self.n for l in range(self.n)) for a in self.alphas)

    def _expected(self, q: int) -> tuple[tuple[int, ...], ...]:
        n, step = self.n, k_inverse(self.alphas[q], self.n)  # gamma * beta^{-1} * (j+1)
        return tuple(
            tuple(-1 if r == q else (g * step * (j + 1)) % n for r, g in enumerate(self.alphas))
            for j in range(n)
        )


_tables = cache(_Tables)  # _tables(n, alphas), one per curve


def _tables_of(xi: LeveledDivisor) -> _Tables:
    return _tables(xi.curve.n, xi.curve.alphas)


def _rotate(t: _Tables, levels: tuple, k: int) -> tuple:
    return tuple(map(getitem, t.rotations(k % t.n), levels))


def _reflect(t: _Tables, levels: tuple) -> tuple:
    return tuple(map(t.flip.__getitem__, levels))


def _negate(t: _Tables, levels: tuple, beta: int) -> tuple:
    return tuple(map(getitem, t.negations(beta), levels))


def _swap(t: _Tables, levels: tuple, q: int, r: int) -> tuple:
    """T: the b-reflection of every point, then Q drops and R rises."""
    return _swap_hat(t, tuple(map(getitem, t.reflections(t.alphas[q]), levels)), r, q)


def _swap_hat(t: _Tables, levels: tuple, q: int, r: int) -> tuple:
    out = list(levels)
    out[q], out[r] = t.up[out[q]], t.down[out[r]]
    return tuple(out)


def _partners(t: _Tables, levels: tuple, q: int) -> tuple[int, ...]:
    return tuple(compress(t.points, map(eq, t.expected[q][levels[q]], levels)))


def _group(t: _Tables, levels: tuple, g: "GroupElement") -> tuple:
    out = _reflect(t, levels) if g.reflect else levels
    return _rotate(t, out, g.shift) if g.shift else out


def _columns(maps, columns: list) -> list[list[int]]:
    """Each point's level column read through that point's level map."""
    return [list(map(m.__getitem__, c)) for m, c in zip(maps, columns)]


def _swap_columns(t: _Tables, columns: list, q: int, r: int) -> list:
    return _swap_hat_columns(t, _columns(t.reflections(t.alphas[q]), columns), r, q)


def _swap_hat_columns(t: _Tables, columns: list, q: int, r: int) -> list:
    out = list(columns)
    out[q], out[r] = _columns((t.up, t.down), (out[q], out[r]))
    return out


def _group_columns(t: _Tables, columns: list, g: "GroupElement") -> list:
    out = _columns(repeat(t.flip), columns) if g.reflect else columns
    return _columns(t.rotations(g.shift), out) if g.shift else out


def _image(xi: LeveledDivisor, levels: tuple) -> LeveledDivisor:
    return LeveledDivisor._make(xi.curve, levels, xi.kind)


def _require_xi(xi: LeveledDivisor) -> None:
    if _require_divisor(xi).kind is not DivisorKind.XI:
        raise DivisorError("need a divisor of kind XI")


def _require_swap_pair(xi: LeveledDivisor, q_id: int, r_id: int) -> None:
    _require_xi(xi)
    _require_points(xi.curve, q_id, r_id)
    if q_id == r_id:
        raise DivisorError("the swap needs two distinct points")


def apply_N_beta(xi: LeveledDivisor, beta: int) -> LeveledDivisor:
    """Negation: every point of class alpha at level l moves to a_{beta,alpha}(l)."""
    _require_xi(xi)
    _require_int("beta", beta)
    return _image(xi, _negate(_tables_of(xi), xi.levels, beta))


def apply_M(xi: LeveledDivisor, k: int = 1) -> LeveledDivisor:
    """Base-point rotation: a point of class alpha drops by alpha * k levels."""
    _require_xi(xi)
    _require_int("the rotation power", k)
    return _image(xi, _rotate(_tables_of(xi), xi.levels, k))


def apply_N(xi: LeveledDivisor) -> LeveledDivisor:
    """The plain reflection l -> n-1-l, the k = 0 member of the reflections."""
    _require_xi(xi)
    return _image(xi, _reflect(_tables_of(xi), xi.levels))


def t_admissible(xi: LeveledDivisor, q_id: int, r_id: int) -> bool:
    """Q at level 0 and R where the simplified swap from level 0 needs it."""
    return t_hat_admissible(xi, q_id, r_id) and xi.levels[q_id] == 0


def apply_T(xi: LeveledDivisor, q_id: int, r_id: int) -> LeveledDivisor:
    """Base-pointed swap: all levels reflect through b, then Q drops and R rises.

    Admissible when Q sits at level 0 and R at level gamma * beta^{-1} mod n;
    the image keeps Q at level 0 and R at its original level.
    """
    _require_swap_pair(xi, q_id, r_id)
    t = _tables_of(xi)
    if xi.levels[q_id] != 0:
        raise AdmissibilityError("base point not at level 0", q_id, xi.levels[q_id], 0)
    expected = t.expected[q_id][0][r_id]
    if xi.levels[r_id] != expected:
        raise AdmissibilityError("swap partner at wrong level", r_id, xi.levels[r_id], expected)
    return _image(xi, _swap(t, xi.levels, q_id, r_id))


def t_hat_admissible(xi: LeveledDivisor, q_id: int, r_id: int) -> bool:
    _require_points(_require_divisor(xi).curve, q_id, r_id)
    if q_id == r_id or xi.kind is not DivisorKind.XI:
        return False
    return xi.levels[r_id] == _tables_of(xi).expected[q_id][xi.levels[q_id]][r_id]


def apply_T_hat(xi: LeveledDivisor, q_id: int, r_id: int) -> LeveledDivisor:
    """Simplified swap: Q rises one level, R drops one level.

    With Q of class beta at level j, the partner R of class gamma must sit at
    level gamma * beta^{-1} * (j+1) mod n; the admissibility travels along
    M-orbits, and the inverse is the same operator with Q and R exchanged.
    """
    _require_swap_pair(xi, q_id, r_id)
    t = _tables_of(xi)
    expected = t.expected[q_id][xi.levels[q_id]][r_id]
    if xi.levels[r_id] != expected:
        raise AdmissibilityError("swap partner at wrong level", r_id, xi.levels[r_id], expected)
    return _image(xi, _swap_hat(t, xi.levels, q_id, r_id))


def base_point_representative(xi: LeveledDivisor, q_id: int) -> LeveledDivisor:
    """The unique divisor in the M-orbit with the given point at level 0."""
    _require_xi(xi)
    _require_points(xi.curve, q_id)
    n = xi.curve.n
    # solve level - alpha*k = 0 mod n for k
    k = (xi.levels[q_id] * k_inverse(xi.curve.alphas[q_id], n)) % n
    return _image(xi, _rotate(_tables_of(xi), xi.levels, k))


# ---------------------------------------------------------------------------
# the dihedral group of order 2n generated by M and N


class GroupElement(_Value):
    """Normal form M^shift or M^shift . N (apply N first, then the rotation)."""

    _fields = ("n", "shift", "reflect")

    def __init__(self, n: int, shift: int, reflect: bool):
        if not (is_int(n) and is_int(shift)) or n < 2:
            raise DivisorError(f"need an integer n >= 2 and shift, got {n!r}, {shift!r}")
        _require_type(reflect, bool, "reflect must be a bool", DivisorError)  # compose reads !=
        super().__init__(n, shift % n, reflect)

    @classmethod
    def negation(cls, n: int, beta: int) -> "GroupElement":
        """The group element acting like apply_N_beta."""
        _require_int("beta", beta)
        cls(n, 0, True)  # refuses a bad n before k_inverse reads it
        return cls(n, -k_inverse(beta, n), True)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other, by the dihedral rules M^n = 1, N^2 = 1, M N = N M^{-1}."""
        if self.n != _require_element(other).n:
            raise DivisorError("group elements live mod different n")
        shift = self.shift - other.shift if self.reflect else self.shift + other.shift
        return GroupElement(self.n, shift, self.reflect != other.reflect)

    def inverse(self) -> "GroupElement":
        if self.reflect:
            return self
        return GroupElement(self.n, -self.shift, False)


def _require_element(g) -> GroupElement:
    return _require_type(g, GroupElement, "group element must be a GroupElement", DivisorError)


def apply_group(xi: LeveledDivisor, g: GroupElement) -> LeveledDivisor:
    _require_xi(xi)
    if _require_element(g).n != xi.curve.n:
        raise DivisorError("group element has the wrong modulus")
    return _image(xi, _group(_tables_of(xi), xi.levels, g))
