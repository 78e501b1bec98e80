"""The integer function family f^(n)_d and its normalizing constants.

For n >= 2 and d prime to n, f^(n)_d is the unique function on {0..n-1}
with f(0) = 0 satisfying the reflection identity
    f((d-1-l) mod n) = f(l)
and the step identity
    f((l+d) mod n) = f(l) + n - 1 - 2l.
The step identity is the definition used by ``f_chain``; walking the cycle
0 -> d -> 2d -> ... closes up consistently because the increments sum to 0.
``f_recursive`` computes the same table through the Euclid-style recursion
    f^(n)_d(l) = [l(n+d-1-l) - n f^(d)_{n mod d}(l mod d)] / d
and ``f_closed_form`` covers the cases with a known closed expression.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .curve import ThomaeError, _Value, _require_type, is_int


class FFunctionError(ThomaeError):
    pass


class ClosedFormUnavailable(FFunctionError):
    """No closed form is implemented for the requested (n, d, l)."""


def _check_coprime(n: int, d: int) -> None:
    if not (is_int(n) and is_int(d)) or n < 2:
        raise FFunctionError(f"need integers n >= 2 and d, got {n!r}, {d!r}")
    if not 1 <= d <= n - 1 or gcd(d, n) != 1:
        raise FFunctionError(f"d = {d} must lie in 1..{n - 1} and be prime to n = {n}")


class FFunctionTable(_Value):
    """Values of f^(n)_d on {0..n-1} and c^(n)_d = max f, symmetric under d -> d^-1 mod n."""

    _fields = ("n", "d", "values", "cmax")

    def __init__(self, n: int, d: int, values: tuple[int, ...]):
        _check_coprime(n, d)
        if not (isinstance(values, tuple) and len(values) == n and all(map(is_int, values))):
            raise FFunctionError(f"table for n = {n} must be a tuple of {n} integers, "
                                 f"got {values!r}")
        if values[0] != 0 or values[n - 1] != n - 1:
            raise FFunctionError(f"f^({n})_{d} must have f(0) = 0 and f(n-1) = n-1")
        for l in range(n):
            if values[(d - 1 - l) % n] != values[l]:
                raise FFunctionError(f"reflection identity fails at l = {l}")
            if values[(l + d) % n] != values[l] + n - 1 - 2 * l:
                raise FFunctionError(f"step identity fails at l = {l}")
        super().__init__(n, d, values, max(values))

    def __getitem__(self, l: int) -> int:
        if not is_int(l):  # True would read index 1
            raise FFunctionError(f"l = {l!r} is not an integer")
        return self.values[l % self.n]


def f_chain(n: int, d: int) -> FFunctionTable:
    """Ground-truth table, built by walking the step identity from f(0) = 0."""
    _check_coprime(n, d)  # before the cache, where 7.0 and True would find 7 and 1
    return _f_chain(n, d)


@lru_cache(maxsize=None)
def _f_chain(n: int, d: int) -> FFunctionTable:
    vals = [0] * n
    l = 0
    for _ in range(n - 1):
        nxt = (l + d) % n
        vals[nxt] = vals[l] + n - 1 - 2 * l
        l = nxt
    return FFunctionTable(n, d, tuple(vals))


@lru_cache(maxsize=None)
def _f_rec_values(n: int, d: int) -> tuple[int, ...]:
    if d == 1:
        return tuple(l * (n - l) for l in range(n))
    t = n % d
    sub = _f_rec_values(d, t)
    vals = []
    for l in range(n):
        num = l * (n + d - 1 - l) - n * sub[l % d]
        if num % d != 0:
            raise FFunctionError(f"recursion produced a non-integer at ({n}, {d}, {l})")
        vals.append(num // d)
    return tuple(vals)


def f_recursive(n: int, d: int) -> FFunctionTable:
    """Same table as ``f_chain`` via the division-with-remainder recursion."""
    _check_coprime(n, d)
    return FFunctionTable(n, d, _f_rec_values(n, d))


def f_sign_flip(table: FFunctionTable) -> FFunctionTable:
    """Table for (n, n-d) from the table for (n, d): pointwise 2l - f(l)."""
    n = _require_type(table, FFunctionTable, "table must be an FFunctionTable", FFunctionError).n
    return FFunctionTable(n, n - table.d, tuple(2 * l - v for l, v in enumerate(table.values)))


def _closed_small(n: int, d: int, l: int) -> int:
    """Closed forms for small d and for residues with a uniform expression."""
    if d == 1:
        return l * (n - l)
    t = n % d
    q = l % d
    if t == 1:
        return (l * (n + d - 1 - l) - n * q * (d - q)) // d
    if t == d - 1:
        return (l * (n + d - 1 - l) + n * q * (d - 2 - q)) // d
    if q == 0 or q == t - 1:
        return l * (n + d - 1 - l) // d
    if q == d - 1 or q == t:
        return (l - d + 1) * (n - l) // d
    if d == 5 and ((t == 2 and q == 3) or (t == 3 and q == 1)):
        return ((l - 2) * (n + 2 - l) + 4) // 5
    raise ClosedFormUnavailable(f"no closed form for (n, d, l) = ({n}, {d}, {l})")


def f_closed_form(n: int, d: int, l: int) -> int:
    """Closed-form value where one is known; raises ClosedFormUnavailable otherwise.

    Covered: d = 1 and d = n-1 everywhere; any d with n = +-1 mod d (this
    includes d in {2, 3} and their mirrors n-2, n-3); the residues
    l = 0, t-1, t, -1 mod d for any d; and the two extra d = 5 residues.
    Mirrored cases go through f^(n)_{n-d}(l) = 2l - f^(n)_d(l).
    """
    _check_coprime(n, d)
    if not (is_int(l) and 0 <= l <= n - 1):
        raise FFunctionError(f"l = {l!r} is not an integer in 0..{n - 1}")
    try:
        return _closed_small(n, d, l)
    except ClosedFormUnavailable:
        pass
    try:
        return 2 * l - _closed_small(n, n - d, l)
    except ClosedFormUnavailable:
        raise ClosedFormUnavailable(
            f"no closed form for (n, d, l) = ({n}, {d}, {l})"
        ) from None
