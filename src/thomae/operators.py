"""Divisor operators: the level involutions, N_beta, T, the simplified swap,
the base-point rotation M, and the dihedral group they generate.

All operators act on the level vector of a shifted-degree divisor (kind XI)
and return a new divisor; exponents are derived views, so the wrap-around
at level 0 and level n-1 is ordinary arithmetic mod n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import k_inverse
from .divisors import DivisorError, DivisorKind, LeveledDivisor


class AdmissibilityError(DivisorError):
    """An operator was asked to act where its precondition fails."""

    def __init__(self, message: str, point: int, found: int, expected: int):
        super().__init__(f"{message}: point {point} at level {found}, need {expected}")
        self.point = point
        self.found = found
        self.expected = expected


def a_value(beta: int, alpha: int, l: int, n: int) -> int:
    """The reflection l -> alpha * beta^{-1} - 1 - l mod n."""
    return (alpha * k_inverse(beta, n) - 1 - l) % n


def b_value(beta: int, alpha: int, l: int, n: int) -> int:
    """The reflection l -> 2 * alpha * beta^{-1} - 1 - l mod n."""
    return (2 * alpha * k_inverse(beta, n) - 1 - l) % n


def _require_xi(xi: LeveledDivisor) -> None:
    if xi.kind is not DivisorKind.XI:
        raise DivisorError("operators act on divisors of kind XI")


def _require_points(xi: LeveledDivisor, *points: int) -> None:
    for p in points:
        if not 0 <= p < len(xi.levels):
            raise DivisorError(f"no point with index {p}")


def _require_swap_pair(xi: LeveledDivisor, q_id: int, r_id: int) -> None:
    _require_xi(xi)
    if q_id == r_id:
        raise DivisorError("the swap needs two distinct points")
    _require_points(xi, q_id, r_id)


def apply_N_beta(xi: LeveledDivisor, beta: int) -> LeveledDivisor:
    """Negation: every point of class alpha at level l moves to a_{beta,alpha}(l)."""
    _require_xi(xi)
    n = xi.curve.n
    levels = tuple(
        a_value(beta, a, l, n) for a, l in zip(xi.curve.alphas, xi.levels)
    )
    return xi.with_levels(levels)


def apply_M(xi: LeveledDivisor, k: int = 1) -> LeveledDivisor:
    """Base-point rotation: a point of class alpha drops by alpha * k levels."""
    _require_xi(xi)
    n = xi.curve.n
    levels = tuple((l - a * k) % n for a, l in zip(xi.curve.alphas, xi.levels))
    return xi.with_levels(levels)


def apply_N(xi: LeveledDivisor) -> LeveledDivisor:
    """The plain reflection l -> n-1-l, the k = 0 member of the reflections."""
    _require_xi(xi)
    n = xi.curve.n
    return xi.with_levels(tuple(n - 1 - l for l in xi.levels))


def t_admissible(xi: LeveledDivisor, q_id: int, r_id: int) -> bool:
    """Q at level 0 and R where the simplified swap from level 0 needs it."""
    return t_hat_admissible(xi, q_id, r_id) and xi.levels[q_id] == 0


def apply_T(xi: LeveledDivisor, q_id: int, r_id: int) -> LeveledDivisor:
    """Base-pointed swap: all levels reflect through b, then Q drops and R rises.

    Admissible when Q sits at level 0 and R at level gamma * beta^{-1} mod n;
    the image keeps Q at level 0 and R at its original level.
    """
    _require_swap_pair(xi, q_id, r_id)
    n = xi.curve.n
    beta = xi.curve.alphas[q_id]
    gamma = xi.curve.alphas[r_id]
    if xi.levels[q_id] != 0:
        raise AdmissibilityError("base point not at level 0", q_id, xi.levels[q_id], 0)
    expected = (gamma * k_inverse(beta, n)) % n
    if xi.levels[r_id] != expected:
        raise AdmissibilityError("swap partner at wrong level", r_id, xi.levels[r_id], expected)
    levels = [b_value(beta, a, l, n) for a, l in zip(xi.curve.alphas, xi.levels)]
    levels[q_id] = (levels[q_id] - 1) % n
    levels[r_id] = (levels[r_id] + 1) % n
    return xi.with_levels(tuple(levels))


def _t_hat_step(xi: LeveledDivisor, q_id: int) -> int:
    """beta^{-1} * (j+1) mod n for Q of class beta at level j: a partner of
    class gamma must sit at level gamma times this, mod n."""
    n = xi.curve.n
    return (k_inverse(xi.curve.alphas[q_id], n) * (xi.levels[q_id] + 1)) % n


def t_hat_admissible(xi: LeveledDivisor, q_id: int, r_id: int) -> bool:
    _require_points(xi, q_id, r_id)
    if q_id == r_id or xi.kind is not DivisorKind.XI:
        return False
    return xi.levels[r_id] == (xi.curve.alphas[r_id] * _t_hat_step(xi, q_id)) % xi.curve.n


def t_hat_partners(xi: LeveledDivisor, q_id: int) -> tuple[int, ...]:
    """Every R with t_hat_admissible(xi, q_id, R), ascending."""
    _require_points(xi, q_id)
    if xi.kind is not DivisorKind.XI:
        return ()
    n = xi.curve.n
    step = _t_hat_step(xi, q_id)
    return tuple(
        r
        for r, (gamma, l) in enumerate(zip(xi.curve.alphas, xi.levels))
        if l == (gamma * step) % n and r != q_id
    )


def apply_T_hat(xi: LeveledDivisor, q_id: int, r_id: int) -> LeveledDivisor:
    """Simplified swap: Q rises one level, R drops one level.

    With Q of class beta at level j, the partner R of class gamma must sit at
    level gamma * beta^{-1} * (j+1) mod n; the admissibility travels along
    M-orbits, and the inverse is the same operator with Q and R exchanged.
    """
    _require_swap_pair(xi, q_id, r_id)
    n = xi.curve.n
    expected = (xi.curve.alphas[r_id] * _t_hat_step(xi, q_id)) % n
    if xi.levels[r_id] != expected:
        raise AdmissibilityError("swap partner at wrong level", r_id, xi.levels[r_id], expected)
    levels = list(xi.levels)
    levels[q_id] = (levels[q_id] + 1) % n
    levels[r_id] = (levels[r_id] - 1) % n
    return xi.with_levels(tuple(levels))


def base_point_representative(xi: LeveledDivisor, q_id: int) -> LeveledDivisor:
    """The unique divisor in the M-orbit with the given point at level 0."""
    _require_xi(xi)
    _require_points(xi, q_id)
    n = xi.curve.n
    alpha = xi.curve.alphas[q_id]
    # solve level - alpha*k = 0 mod n for k
    k = (xi.levels[q_id] * k_inverse(alpha, n)) % n
    return apply_M(xi, k)


# ---------------------------------------------------------------------------
# the dihedral group of order 2n generated by M and N


@dataclass(frozen=True)
class GroupElement:
    """Normal form M^shift or M^shift . N (apply N first, then the rotation)."""

    n: int
    shift: int
    reflect: bool

    def __post_init__(self):
        object.__setattr__(self, "shift", self.shift % self.n)

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(n, 0, False)

    @classmethod
    def rotation(cls, n: int, k: int = 1) -> "GroupElement":
        return cls(n, k, False)

    @classmethod
    def reflection(cls, n: int) -> "GroupElement":
        return cls(n, 0, True)

    @classmethod
    def negation(cls, n: int, beta: int) -> "GroupElement":
        """The group element acting like apply_N_beta."""
        return cls(n, -k_inverse(beta, n), True)

    @classmethod
    def double_reflection(cls, n: int, beta: int) -> "GroupElement":
        """The reflection sending each level l to b_{beta,alpha}(l); composing
        it with apply_T for a base point of class beta gives apply_T_hat."""
        return cls(n, -2 * k_inverse(beta, n), True)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other, by the dihedral rules M^n = 1, N^2 = 1, M N = N M^{-1}."""
        if self.n != other.n:
            raise DivisorError("group elements live mod different n")
        shift = self.shift - other.shift if self.reflect else self.shift + other.shift
        return GroupElement(self.n, shift, self.reflect != other.reflect)

    def inverse(self) -> "GroupElement":
        if self.reflect:
            return self
        return GroupElement(self.n, -self.shift, False)

    def __str__(self) -> str:
        if self.reflect:
            return f"M^{self.shift}.N" if self.shift else "N"
        return f"M^{self.shift}" if self.shift else "id"


def apply_group(xi: LeveledDivisor, g: GroupElement) -> LeveledDivisor:
    _require_xi(xi)
    if g.n != xi.curve.n:
        raise DivisorError("group element has the wrong modulus")
    out = apply_N(xi) if g.reflect else xi
    return apply_M(out, g.shift) if g.shift else out


def group_elements(n: int) -> list[GroupElement]:
    """All 2n elements, rotations first."""
    return [GroupElement(n, j, False) for j in range(n)] + [
        GroupElement(n, j, True) for j in range(n)
    ]
