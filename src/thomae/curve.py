"""Fully ramified cyclic covers of the line and their residue arithmetic.

A curve w^n = prod_i (z - lambda_i)^{alpha_i} with every alpha_i prime to n
and the exponent sum divisible by n (so nothing happens over infinity) is
described combinatorially by n and the list of exponents.  Everything the
rest of the package needs from the curve is integer arithmetic derived from
these data; the z-values are optional and only used for evaluation.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import cached_property
from math import gcd
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class ThomaeError(ValueError):
    """The base of every refusal the package raises, which the CLI catches."""


class CurveError(ThomaeError):
    """Raised for structurally unusable curve input (parse errors and such)."""


def k_inverse(beta: int, n: int) -> int:
    """The representative in {0..n-1} of the inverse of beta mod n."""
    if not (is_int(beta) and is_int(n)) or n < 1 or gcd(beta, n) != 1:
        raise CurveError(f"{beta!r} is not an invertible integer mod {n!r}")
    return pow(beta, -1, n)


def e_factor(n: int) -> int:
    """1 for even n, 2 for odd n; e*n is always even."""
    if not is_int(n) or n < 2:
        raise CurveError(f"need an integer n >= 2, got {n!r}")
    return 1 if n % 2 == 0 else 2


class _Value:
    """An immutable record whose subclass names its fields once in ``_fields``;
    ``__init__`` binds values by position, then by name, each field exactly once.
    Equality and hashing read the fields through one ``attrgetter`` and hold only
    within a class; assigning or deleting any attribute raises ``AttributeError``
    (``cached_property`` writes to the instance dict, so it still works)."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values, **named) -> None:
        if named:  # a call by position alone builds no generator
            values += tuple(named.pop(f) for f in self._fields[len(values):] if f in named)
        if len(values) != len(self._fields) or named:
            raise TypeError(f"{type(self).__name__} takes each of the fields {self._fields} once")
        self.__dict__.update(zip(self._fields, values))

    @classmethod
    def _make(cls, *values):
        """The record of ``values``, in field order, with no check: the caller knows them valid."""
        out = object.__new__(cls)
        out.__dict__.update(zip(cls._fields, values))
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in self._fields}


class BranchPoint(_Value):
    """One branch point: its exponent class, optional label and optional z-value."""

    _fields = ("alpha", "label", "lam")

    def __init__(self, alpha: int, label: Optional[str] = None, lam: Optional[Fraction] = None):
        super().__init__(alpha, label, lam)


class CurveSpec(_Value):
    """A curve as n and its branch points, refused with CurveError unless it
    is a fully ramified cover.  Equality and hashing see only these two
    fields; the derived arithmetic is computed once, on first use."""

    _fields = ("n", "points")

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        problems = self._problems()
        if problems:
            raise CurveError("; ".join(problems))

    @classmethod
    def from_alphas(cls, n: int, alphas: Sequence[int]) -> "CurveSpec":
        return cls(n, tuple(map(BranchPoint, _require_sequence("alphas", alphas))))

    @cached_property
    def alphas(self) -> tuple[int, ...]:
        return tuple(p.alpha for p in self.points)

    @cached_property
    def point_count(self) -> int:
        return len(self.points)

    @cached_property
    def classes(self) -> tuple[int, ...]:
        """Distinct exponent classes, in order of first appearance."""
        return tuple(dict.fromkeys(self.alphas))

    @cached_property
    def slot_bases(self) -> tuple[int, ...]:
        """alpha_i * n per point: point i at level l sits in the slot with id
        alpha_i * n + l, and slot ids sort like the (alpha, level) pairs."""
        return tuple(a * self.n for a in self.alphas)

    def r(self, alpha: int) -> int:
        """Number of branch points in the class alpha."""
        if not is_int(alpha):
            raise CurveError(f"alpha must be an integer, got {alpha!r}")
        return self.alphas.count(alpha)

    @property
    def lambdas(self) -> Optional[tuple[Fraction, ...]]:
        vals = tuple(p.lam for p in self.points)
        if any(v is None for v in vals):
            return None
        return vals  # type: ignore[return-value]

    def genus(self) -> int:
        return (self.n - 1) * (self.point_count - 2) // 2

    @cached_property
    def t_values(self) -> tuple[int, ...]:
        """t_k for k = 0..n-1: the sum over the points of alpha_i * k mod n, over n."""
        return (0, *(sum(thr) // self.n for thr in self.thresholds))

    @cached_property
    def thresholds(self) -> tuple[tuple[int, ...], ...]:
        """thresholds[k-1][i] = alpha_i * k mod n, for k = 1..n-1."""
        n = self.n
        return tuple(tuple((a * k) % n for a in self.alphas) for k in range(1, n))

    @cached_property
    def packed(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The k-conditions packed into integers, condition k as digit k-1 in base p+1.

        packed[0][i][l] has digit k-1 equal to 1 when level l lies below
        alpha_i * k mod n; no digit of a sum over the p points reaches the
        base, so sums never carry.  packed[1][shift] packs the targets
        t_k - shift, which lie in 0..p-1: every alpha_i * k mod n lies in
        1..n-1 and their sum is a multiple of n, so 1 <= t_k <= p-1.
        """
        p, n = self.point_count, self.n
        powers = [(p + 1) ** k for k in range(n - 1)]
        rows = list(zip(powers, self.thresholds))
        contrib = tuple(
            tuple(sum(w for w, thr in rows if l < thr[i]) for l in range(n)) for i in range(p)
        )
        targets = tuple(
            sum(w * (t - shift) for w, t in zip(powers, self.t_values[1:])) for shift in (0, 1)
        )
        return contrib, targets

    def _problems(self) -> list[str]:
        """All invariant violations, empty when the curve is usable."""
        n, points = self.n, self.points
        if not (isinstance(points, tuple) and all(isinstance(p, BranchPoint) for p in points)):
            return [f"points must be a tuple of BranchPoints, got {points!r}"]
        if not is_int(n):
            return [f"n must be an integer, got {n!r}"]
        if n < 2:
            return [f"n must be at least 2, got {n}"]
        problems = []
        for i, a in enumerate(self.alphas):
            if not is_int(a):
                problems.append(f"point {i}: alpha must be an integer, got {a!r}")
            elif not 1 <= a <= n - 1:
                problems.append(f"point {i}: alpha {a} outside 1..{n - 1}")
            elif gcd(a, n) != 1:
                problems.append(f"point {i}: alpha {a} not coprime to {n}")
        if all(map(is_int, self.alphas)):
            total = sum(self.alphas)
            if total % n != 0:
                problems.append(f"exponent sum {total} is not 0 mod {n}")
        if self.point_count < 3:
            problems.append(f"need at least 3 branch points, got {self.point_count}")
        lams = [p.lam for p in points if p.lam is not None]
        if lams:
            from fractions import Fraction  # loaded by a curve with z-values only

            if len(lams) != self.point_count:
                problems.append("z-values must be given for all points or none")
            inexact = [v for v in lams if not (is_int(v) or isinstance(v, Fraction))]
            if inexact:
                problems.append(f"z-values must be integers or Fractions, got {inexact[0]!r}")
            elif len(set(lams)) != len(lams):
                problems.append("z-values must be pairwise distinct")
        return problems

    def with_lambdas(self, lambdas: Sequence[Fraction]) -> "CurveSpec":
        """The curve with one exact z-value per point (see ``_parse_exact``)."""
        lams = [_parse_exact(v) for v in _require_sequence("z-values", lambdas)]
        if len(lams) != self.point_count:
            raise CurveError(f"{len(lams)} z-values for {self.point_count} points")
        pts = (BranchPoint(p.alpha, p.label, lam) for p, lam in zip(self.points, lams))
        return CurveSpec(self.n, tuple(pts))


def _require_type(value, cls, claim: str, error: type[ThomaeError]):
    """``value`` when it is a ``cls``; otherwise raises ``error("<claim>, got <value!r>")``."""
    if not isinstance(value, cls):
        raise error(f"{claim}, got {value!r}")
    return value


def _require_sequence(what: str, values, error: type[ThomaeError] = CurveError) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{what} must be a sequence, got {values!r}") from None


def _parse_exact(value) -> Fraction:
    """An exact rational from an int, a ``Fraction`` or a string such as "7/3" or
    "0.25"; floats are rejected on purpose.  ``fractions`` is loaded by the first
    z-value read, not by a job that has none."""
    from fractions import Fraction

    if isinstance(value, bool):
        raise CurveError(f"not a number: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction builds 10 ** exponent, seconds of work for an exponent in the millions;
        # the bound is the one json.loads puts on an integer literal's digits
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
        if limit and _exponent_past(value, limit):
            raise CurveError(f"cannot parse {value!r} as an exact rational: "
                             f"its exponent passes {limit}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CurveError(f"cannot parse {value!r} as an exact rational") from exc
    if isinstance(value, float):
        raise CurveError(
            f"refusing float z-value {value!r}; pass a string like \"7/3\" or \"0.25\""
        )
    raise CurveError(f"cannot parse {value!r} as an exact rational")


def _exponent_past(text: str, limit: int) -> bool:
    """Whether ``text`` is written with an exponent, as "1e5000" is, whose
    absolute value passes ``limit``."""
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    return bool(e) and digits.isdecimal() and (
        len(digits) > len(str(limit)) or int(digits) > limit)


def is_int(value) -> bool:
    """A JSON integer; true and false load as Python ints but are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def curve_from_dict(data: dict) -> CurveSpec:
    """Build a curve from the JSON document format, checking all invariants."""
    try:
        n = data["n"]
        raw_points = data["points"]
    except (KeyError, TypeError) as exc:
        raise CurveError(f"curve document needs 'n' and 'points': {exc}") from exc
    if not isinstance(raw_points, list):
        raise CurveError("'points' must be a list")
    pts = []
    for i, rp in enumerate(raw_points):
        if not isinstance(rp, dict) or "alpha" not in rp:
            raise CurveError(f"point {i}: expected an object with 'alpha'")
        lam = _parse_exact(rp["lambda"]) if "lambda" in rp else None
        label = rp.get("label")
        if label is not None and not isinstance(label, str):
            raise CurveError(f"point {i}: label must be a string")
        pts.append(BranchPoint(rp["alpha"], label, lam))
    return CurveSpec(n, tuple(pts))


def read_document(path: str) -> tuple[object, str]:
    """The JSON document in the file at ``path`` and the first 16 hex digits of the
    SHA-256 of the same bytes, read once, so a pipe works; a path that ``open`` refuses
    (a NUL byte), bytes that are not UTF-8, or JSON that ``json.loads`` refuses or
    recurses too deep on, are refused with the path.  A ``path`` that is not a str or
    an ``os.PathLike`` is refused before anything is opened: ``open`` would take an
    int for a file descriptor and close it."""
    _require_type(path, (str, os.PathLike), "path must be a str or an os.PathLike", CurveError)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        document = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # decode errors and the digit limit are ValueErrors
        raise CurveError(f"{path}: {exc}") from None
    return document, hashlib.sha256(raw).hexdigest()[:16]


def load_curve(path: str) -> CurveSpec:
    return curve_from_dict(read_document(path)[0])
