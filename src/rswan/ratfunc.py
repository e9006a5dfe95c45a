"""Rational functions F_p(x) as a scalar coefficient domain.

Raw values are pairs ``(num, den)`` of coefficient tuples over F_p
(low degree first, no trailing zeros), kept in lowest terms with a monic
denominator; zero is ``((), (1,))``.  F_p(x) serves the curve-restriction
experiment (:func:`rswan.extensions.curve_restriction_ratios`): parsing
``f``, its reduction at ``s = 1`` and level 1 (``is_zero``,
``is_pth_power``, ``pth_root``, ``zero`` and ``add``) and its Swan
conductor.  Every other series, form or Witt operation over it, whose
coefficients grow with every factor, raises the one ``TowerMismatch`` of
:func:`_algebra_refused`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NoPthRoot, RswanError, TowerMismatch, ZeroInput
from .scalars import _Frozen, power

__all__ = ["RatFuncDomain", "rat_func_domain", "poly_from_coeffs"]


def _strip(t):
    t = list(t)
    while t and t[-1] == 0:
        t.pop()
    return tuple(t)


def poly_from_coeffs(coeffs, p: int):
    """Normalize an integer coefficient iterable (low degree first) mod p."""
    return _strip(c % p for c in coeffs)


def _algebra_refused() -> TowerMismatch:
    """The refusal of every operation over F_p(x) past parsing, the
    reduction at ``s = 1`` and the Swan conductor (module docstring)."""
    return TowerMismatch(
        "over F_p(x) only parsing, the reduction at s = 1 and the Swan conductor are supported"
    )


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _strip(
        ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)
    )


def _pneg(a, p):
    return tuple((-c) % p for c in a)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _strip(out)


def _pscale(a, c, p):
    c %= p
    return _strip((x * c) % p for x in a)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - c * cb) % p
    return _strip(q), _strip(a)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        a = _pscale(a, pow(a[-1], p - 2, p), p)
    return a


class RatFuncDomain(_Frozen):
    """The field F_p(x), one transcendental over the prime field."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p not in (2, 3, 5):
            raise RswanError(f"p = {p} is outside the supported set {{2, 3, 5}}")
        object.__setattr__(self, "p", p)

    # ------------------------------------------------------------- building
    def _make(self, num, den):
        p = self.p
        num, den = _strip(num), _strip(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (1,))
        g = _pgcd(num, den, p)
        if len(g) > 1 or (g and g[0] != 1):
            num = _pdivmod(num, g, p)[0]
            den = _pdivmod(den, g, p)[0]
        if den[-1] != 1:
            inv_lead = pow(den[-1], p - 2, p)
            num = _pscale(num, inv_lead, p)
            den = _pscale(den, inv_lead, p)
        return (num, den)

    def zero(self):
        return ((), (1,))

    def one(self):
        return ((1,), (1,))

    def from_int(self, n: int):
        """Refused: an integer multiple of a series over F_p(x) reads it."""
        raise _algebra_refused()

    def from_polys(self, num, den=(1,)):
        """Build num/den from integer coefficient iterables (low degree first)."""
        return self._make(poly_from_coeffs(num, self.p), poly_from_coeffs(den, self.p))

    def variable(self):
        """The transcendental x."""
        return ((0, 1), (1,))

    # ----------------------------------------------------------- arithmetic
    def is_zero(self, x) -> bool:
        return not x[0]

    def add(self, x, y):
        p = self.p
        return self._make(
            _padd(_pmul(x[0], y[1], p), _pmul(y[0], x[1], p), p), _pmul(x[1], y[1], p)
        )

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        return (_pneg(x[0], self.p), x[1])

    def mul(self, x, y):
        p = self.p
        return self._make(_pmul(x[0], y[0], p), _pmul(x[1], y[1], p))

    def mul_int(self, x, n: int):
        return (_pscale(x[0], n, self.p), x[1]) if n % self.p else self.zero()

    def inv(self, x):
        if not x[0]:
            raise ZeroInput("zero has no inverse")
        return self._make(x[1], x[0])

    def pow(self, x, n: int):
        if n < 0:
            x, n = self.inv(x), -n
        return power(x, n, self.mul) if n else self.one()

    # ------------------------------------------------------------ p-th roots
    def is_pth_power(self, x) -> bool:
        p = self.p
        return all(c == 0 for i, c in enumerate(x[0]) if i % p) and all(
            c == 0 for i, c in enumerate(x[1]) if i % p
        )

    def pth_root(self, x):
        if not self.is_pth_power(x):
            raise NoPthRoot("rational function is not a p-th power")
        p = self.p
        num = tuple(x[0][i] for i in range(0, len(x[0]), p))
        den = tuple(x[1][i] for i in range(0, len(x[1]), p))
        return (num, den)

    def trace(self, x) -> int:
        raise _algebra_refused()


@lru_cache(maxsize=None)
def rat_func_domain(p: int) -> RatFuncDomain:
    return RatFuncDomain(p)
