"""Operator graphs on shifted divisors, reachability, and family counting.

Vertices are the valid shifted divisors (kind XI) of one curve; edges are
the rotation M, the reflection N (together these generate the dihedral
group) and every admissible simplified swap.  Components of this graph are
the orbits of the combined action, and operator-word witnesses support
counterexample hunting.  The graph need not be connected: n = 7 with
exponents [1, 1, 2, 2, 4, 4] splits into parts of 7 and 560 divisors.  On
every split curve the tests pin, no divisor meets ``difbeta_hypothesis``, under
which the restricted swaps reach a whole group (measured, see README).

M commutes with every simplified swap and N maps M-orbits onto M-orbits,
so every component is a union of M-orbits, and each M-orbit has exactly one
member with point 0 at level 0.  The graph is therefore built on those
representatives alone.  Every walk over it, on representatives or on full
vertices, reads one labelled out-edge generator; the vertex list and the
edges are expanded only when read.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from math import gcd
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .curve import (CurveError, CurveSpec, _Value, _require_sequence, _require_type, is_int,
                    k_inverse)
from .divisors import (
    DivisorError,
    DivisorKind,
    LeveledDivisor,
    _allowed,
    _list_assignments,
    _meets,
    _require_cap,
    _require_curve,
    _require_divisor,
    _require_int,
    _require_vertices,
    count_base_point_free,
    count_divisors,
    enumerate_divisors,
)
from .operators import _partners, _reflect, _rotate, _swap_hat, _tables

if TYPE_CHECKING:
    from fractions import Fraction


class Edge(_Value):
    _fields = ("source", "target", "label")


def _search(start, neighbours, goal=None) -> dict:
    """Breadth-first search from start until goal is reached: each node
    reached maps to the (parent, label) of the edge that first reached it."""
    parent = {start: (None, "")}
    queue = deque([start])
    while queue and goal not in parent:
        u = queue.popleft()
        for v, label in neighbours(u):
            if v not in parent:
                parent[v] = (u, label)
                queue.append(v)
    return parent


class OrbitGraph(_Value):
    """The operator graph, held as its M-orbit representatives.

    reps are the vertices with point 0 at level 0, ascending.  Every walk
    generates out-edges on demand through ``_out``.  The full vertex list
    (ascending level tuples) and the edges are built when read.
    """

    _fields = ("curve", "reps")

    @cached_property
    def _t(self):
        return _tables(self.curve.n, self.curve.alphas)

    def _out(self, levels: tuple) -> Iterator[tuple[tuple, str]]:
        """The out-edges of ``levels`` as (image, label), in a fixed order:
        M, M^-1, N, then every simplified swap "That:q,r" in ascending (q, r)."""
        t = self._t
        yield _rotate(t, levels, 1), "M"
        yield _rotate(t, levels, -1), "M^-1"
        yield _reflect(t, levels), "N"
        for q in range(self.curve.point_count):
            for r in _partners(t, levels, q):
                yield _swap_hat(t, levels, q, r), f"That:{q},{r}"

    @cached_property
    def parts(self) -> list[list[tuple]]:
        """The components as lists of representatives, each in ascending order."""
        t, step = self._t, k_inverse(self.curve.alphas[0], self.curve.n)

        def neighbours(v):  # M^(l * step) takes point 0 from level l to 0; M edges are loops
            return ((_rotate(t, w, w[0] * step), label) for w, label in self._out(v))

        parts, seen = [], set()
        for rep in self.reps:
            if rep not in seen:
                parts.append(sorted(_search(rep, neighbours)))
                seen.update(parts[-1])
        return parts

    @property
    def vertex_count(self) -> int:
        """n vertices per representative: M-orbits are free."""
        return self.curve.n * len(self.reps)

    @property
    def edge_count(self) -> int:
        """n times the out-degrees of the representatives; T-hat partner
        counts are constant along an M-orbit."""
        return self.curve.n * sum(1 for v in self.reps for _ in self._out(v))

    def component_sizes(self) -> list[int]:
        return sorted(self.curve.n * len(part) for part in self.parts)

    @cached_property
    def vertices(self) -> tuple[LeveledDivisor, ...]:
        return tuple(enumerate_divisors(self.curve, DivisorKind.XI))

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {v.levels: i for i, v in enumerate(self.vertices)}

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge, by source vertex in ``_out`` order, built afresh on each access."""
        index, out = self._index, self._out
        return tuple(Edge(i, index[w], label) for v, i in index.items() for w, label in out(v))

    def _ids(self, reps) -> list[int]:
        """The ascending vertex ids of the M-orbits of ``reps``."""
        t, n = self._t, self.curve.n
        return sorted(self._index[_rotate(t, rep, k)] for rep in reps for k in range(n))

    def components(self) -> list[list[int]]:
        """Vertex ids of each component, ascending, in order of least member."""
        return sorted(map(self._ids, self.parts))

    def m_orbits(self) -> list[list[int]]:
        """Orbits of the rotation alone (every one has exactly n members)."""
        return sorted(self._ids((rep,)) for rep in self.reps)

    def witness(self, source: LeveledDivisor, target: LeveledDivisor) -> Optional[list[str]]:
        """A word in the edge labels leading from source to target, if any.  Each
        end must be a vertex, an XI divisor of this graph's curve that meets the
        conditions; that is tested directly, so the vertices are never listed."""
        for div in map(_require_divisor, (source, target)):
            if not (div.curve == self.curve and div.kind is DivisorKind.XI
                    and _meets(self.curve, div.levels, 0)):
                raise DivisorError(f"divisor {div.levels} is not a vertex")
        s, t = source.levels, target.levels
        parent = _search(s, self._out, t)
        if t not in parent:
            return None
        word = []
        while t != s:
            t, label = parent[t]
            word.append(label)
        return word[::-1]


def build_graph(spec: CurveSpec, max_vertices: Optional[int] = None) -> OrbitGraph:
    """The operator graph on all valid shifted divisors, from one representative
    per M-orbit; ``max_vertices`` caps the exact full vertex count before listing.

    Vertices come out in the canonical (lexicographic level vector) order.
    Every edge label names its generator; inverse edges are present for all
    generators, so the graph is symmetric-closed.
    """
    _require_curve(spec)
    if max_vertices is not None:
        _require_cap("max_vertices", max_vertices)
        _require_vertices(spec, max_vertices)
    reps = tuple(_list_assignments(spec, DivisorKind.XI, _allowed(spec, DivisorKind.XI, 0)))
    return OrbitGraph(spec, reps)


# ---------------------------------------------------------------------------
# restricted reachability


class ReachabilityPreconditionError(DivisorError):
    """The two divisors do not satisfy the restricted-swap hypotheses."""


def difbeta_hypothesis(xi: LeveledDivisor, beta: int) -> bool:
    """Either every level of class beta is occupied and the mirror class is
    absent from the curve, or some level j of class beta is occupied together
    with level n-1-j of the mirror class."""
    _require_int("beta", beta)
    if _require_divisor(xi).kind is not DivisorKind.XI:
        raise DivisorError("the occupation hypotheses concern divisors of kind XI")
    curve = xi.curve
    n = curve.n
    mirror = (n - beta) % n
    if mirror == beta:
        return False
    slots = set(zip(curve.alphas, xi.levels))
    if curve.r(mirror) == 0 and all((beta, j) in slots for j in range(n)):
        return True
    return any(
        (beta, j) in slots and (mirror, (n - 1 - j) % n) in slots for j in range(n)
    )


def difbeta_reachability(
    xi: LeveledDivisor, upsilon: LeveledDivisor, beta: int
) -> bool:
    """Reach upsilon from xi using only swaps inside the classes beta, n-beta.

    Precondition: both divisors are of kind XI and agree on every point of
    class neither beta nor n-beta, and xi satisfies one of the two occupation
    hypotheses; violations raise ReachabilityPreconditionError rather than
    returning False, so an unreachable-but-eligible pair is a reportable finding.
    """
    _require_int("beta", beta)
    curve = _require_divisor(xi).curve
    if _require_divisor(upsilon).curve != curve:
        raise DivisorError("divisors live on different curves")
    if xi.kind is not DivisorKind.XI or upsilon.kind is not DivisorKind.XI:
        raise ReachabilityPreconditionError("both divisors must be of kind XI")
    n = curve.n
    if gcd(beta, n) != 1:
        raise ReachabilityPreconditionError(f"class {beta} is not prime to {n}")
    mirror = (n - beta) % n
    pair_classes = {beta, mirror}
    for i, a in enumerate(curve.alphas):
        if a not in pair_classes and xi.levels[i] != upsilon.levels[i]:
            raise ReachabilityPreconditionError(
                f"divisors differ at point {i} of class {a}"
            )
    if not difbeta_hypothesis(xi, beta):
        raise ReachabilityPreconditionError(
            f"occupation hypothesis fails for class {beta}"
        )
    swap_points = [i for i, a in enumerate(curve.alphas) if a in pair_classes]
    t = _tables(n, curve.alphas)

    def swaps(levels):
        for q in swap_points:
            for r in _partners(t, levels, q):
                if curve.alphas[r] in pair_classes:
                    yield _swap_hat(t, levels, q, r), None

    return upsilon.levels in _search(xi.levels, swaps, upsilon.levels)


# ---------------------------------------------------------------------------
# family counting


class FamilySpec(_Value):
    """The sweep family w^n = prod (z-l_i)^{c_i} prod (z-m_i)^{n-d_i}."""

    _fields = ("c", "d")

    def __init__(self, c: tuple[int, ...], d: tuple[int, ...]):
        if not (isinstance(c, tuple) and isinstance(d, tuple)):
            raise DivisorError("the exponent lists c and d must be tuples")
        if not all(is_int(v) for v in c + d):
            raise DivisorError("exponents must be integers")
        if sum(c) != sum(d):
            raise DivisorError("the c and d exponent sums must agree")
        if not c or not d:
            raise DivisorError("both exponent lists must be nonempty")
        if any(v < 1 for v in c + d):
            raise DivisorError("exponents must be positive")
        super().__init__(c, d)

    def curve(self, n: int) -> Optional[CurveSpec]:
        """The member curve at level n, or None when it degenerates."""
        _require_int("n", n)
        if n < 2:
            return None
        try:
            return CurveSpec.from_alphas(n, list(self.c) + [(n - dv) % n for dv in self.d])
        except CurveError:
            return None


class FamilyCount(_Value):
    _fields = ("n", "skipped", "total_divisors", "xi_divisors", "m_orbits",
               "base_point_free_xi", "per_point_avoid")


class CountReport(_Value):
    _fields = ("family", "counts", "fit")

    def valid_counts(self) -> list[FamilyCount]:
        return [c for c in self.counts if not c.skipped]


def count_family(family: FamilySpec, n_values: Sequence[int], fit: bool = False) -> CountReport:
    """Per-n divisor and orbit counts for one sweep family.

    Values of n where some exponent shares a factor with n are marked
    skipped, not errors: the family only defines fully ramified curves at
    the other n.  The orbit count is the shifted-divisor count divided by n
    (rotation orbits are always free); the per-point counts of degree-g
    divisors avoiding each single point and the number of shifted divisors
    with no base-point form are reported alongside.

    Every per-point count is the orbit count, so none is counted.  Step 1:
    the rotation M moves a point of class alpha down by alpha levels, and
    alpha is prime to n, so along each M-orbit of n shifted divisors point
    i runs through every level once; 1/n of them have it at level 0.
    Step 2: moving point i from level 0 to level n-1 lowers every condition
    count by exactly 1 (level 0 lies below every threshold alpha_i * k mod n
    >= 1, level n-1 below none), and the degree-g targets t_k - 1 sit 1
    below the shifted ones, so the move maps those divisors one to one onto
    the degree-g divisors with point i at level n-1, which avoid point i.
    """
    _require_type(family, FamilySpec, "family must be a FamilySpec", DivisorError)
    rows = []
    for n in _require_sequence("n_values", n_values, DivisorError):
        spec = family.curve(n)
        if spec is None:
            rows.append(FamilyCount(n, True, 0, 0, 0, 0, ()))
            continue
        total = count_divisors(spec, DivisorKind.DELTA)
        xi_total = count_divisors(spec, DivisorKind.XI)
        if xi_total % n != 0:
            raise DivisorError(f"rotation orbits are not free at n = {n}")
        rows.append(
            FamilyCount(
                n=n,
                skipped=False,
                total_divisors=total,
                xi_divisors=xi_total,
                m_orbits=xi_total // n,
                base_point_free_xi=count_base_point_free(spec),
                per_point_avoid=(xi_total // n,) * spec.point_count,
            )
        )
    fitted = None
    if fit:
        fitted, degree_hint = {}, len(family.d) - 1
        for name in ("total_divisors", "m_orbits"):
            data = [(c.n, getattr(c, name)) for c in rows if not c.skipped]
            if len(data) >= degree_hint + 2:
                fitted[name] = fit_count_polynomial(data, degree_hint)
    return CountReport(family=family, counts=tuple(rows), fit=fitted)


def fit_count_polynomial(
    counts: Sequence[tuple[int, int]], degree_hint: int
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact interpolation on the first degree_hint+1 points, residuals on the rest.

    Returns (coefficients low to high, residuals).  Zero residuals on the
    held-out points support exact polynomial growth; least squares is never
    used because the claim under test is exact polynomiality.  Each n may
    appear once, and ``degree_hint`` is a non-negative integer.
    """
    from fractions import Fraction  # here, so a job that fits nothing does not load it
    _require_cap("degree_hint", degree_hint)
    try:
        counts = [(x, y) for x, y in counts]
    except (TypeError, ValueError):
        raise DivisorError(f"counts must be (n, count) pairs, got {counts!r}") from None
    for x, y in counts:
        _require_int("n", x)
        _require_int("count", y)
    if len({x for x, _ in counts}) != len(counts):
        raise DivisorError("each n may be given once")
    if len(counts) < degree_hint + 2:
        raise DivisorError(
            f"need at least {degree_hint + 2} data points, got {len(counts)}"
        )
    # Newton's form: each base point adds a multiple of the product of
    # (x - x_j) over the points before it, which vanishes at all of them
    coeffs, basis = [], [Fraction(1)]
    for x, y in counts[: degree_hint + 1]:
        scale = (y - _poly_eval(coeffs, x)) / _poly_eval(basis, x)
        coeffs = [c + scale * b for c, b in zip([*coeffs, 0], basis)]
        basis = [lower - x * b for lower, b in zip([0, *basis], [*basis, 0])]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    residuals = tuple(y - _poly_eval(coeffs, x) for x, y in counts[degree_hint + 1 :])
    return tuple(coeffs), residuals


def _poly_eval(coeffs: Sequence[Fraction], x: int) -> Fraction:
    acc = 0  # a Fraction after the first coefficient
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
