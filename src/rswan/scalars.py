"""Coefficient arithmetic: F_q and its unramified Z/p^s lift.

One class is the ring W_s(F_q) = (Z/p^s)[g]/(f) for a fixed monic
polynomial f from a published table; F_q is its length-1 case (s = 1).
s runs over 1..4, the lift lengths a tower accepts; Witt arithmetic runs in
the tower's own lift ring (see :mod:`rswan.witt`), so no longer ring is
built.  For speed the domain operates on *raw* values: a plain int when
k == 1, a length-k tuple of ints otherwise.  :func:`power` and
:func:`render_poly` serve every coefficient layer.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ConfigError, TowerMismatch, ZeroInput

__all__ = [
    "DEFINING_POLYNOMIALS",
    "fq_domain",
    "galois_ring_domain",
    "power",
    "render_poly",
]

# Conway polynomials for F_{p^k}, coefficients ascending, monic.
# Read mod p they define F_q; the same integers read mod p^s define the
# unramified extension W_s(F_q) of Z/p^s.
DEFINING_POLYNOMIALS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
}


def power(x, n: int, mul):
    """``x ** n`` for ``n >= 1`` by square-and-multiply over ``mul``: low bits
    first, the accumulator on the left, no squaring past the top bit."""
    acc = None
    while True:
        if n & 1:
            acc = x if acc is None else mul(acc, x)
        n >>= 1
        if not n:
            return acc
        x = mul(x, x)


def render_poly(coeffs, var: str) -> str:
    """``c_0 + c_1*var + c_2*var^2 + ...`` without the zero terms; ``"0"``
    when every coefficient is zero."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mono = var if i == 1 else f"{var}^{i}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


class _QuotientDomain:
    """Arithmetic of (Z/m)[x]/(f), m = p^s, f monic of degree k (F_q at s = 1)."""

    __slots__ = ("p", "k", "s", "modulus", "poly", "_red_rows")

    def __init__(self, p: int, k: int, s: int):
        if (p, k) not in DEFINING_POLYNOMIALS:
            raise ConfigError(f"no defining polynomial on file for (p, k) = ({p}, {k})")
        if not 1 <= s <= 4:
            raise ConfigError(f"lift length s = {s} out of the supported range 1..4")
        self.p = p
        self.k = k
        self.s = s
        self.modulus = p**s
        self.poly = tuple(c % self.modulus for c in DEFINING_POLYNOMIALS[(p, k)])
        # Reductions of x^k .. x^(2k-2) mod f, for schoolbook products.
        rows: list[tuple[int, ...]] = []
        if k > 1:
            neg_tail = [(-c) % self.modulus for c in self.poly[:k]]
            rows.append(tuple(neg_tail))
            for _ in range(k - 2):
                prev = rows[-1]
                shifted = [0] + list(prev[:-1])
                top = prev[-1]
                rows.append(
                    tuple((shifted[i] + top * neg_tail[i]) % self.modulus for i in range(k))
                )
        self._red_rows = tuple(rows)

    # -- raw constructors -------------------------------------------------
    def zero(self):
        return 0 if self.k == 1 else (0,) * self.k

    def one(self):
        return 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    def from_int(self, n: int):
        n %= self.modulus
        return n if self.k == 1 else (n,) + (0,) * (self.k - 1)

    def coeffs(self, x) -> tuple[int, ...]:
        return (x,) if self.k == 1 else tuple(x)

    def generator(self):
        """The residue class of x (for k = 1: the root of the degree-1 polynomial)."""
        if self.k == 1:
            return (-self.poly[0]) % self.modulus
        return (0, 1) + (0,) * (self.k - 2)

    # -- ring ops ----------------------------------------------------------
    def is_zero(self, x) -> bool:
        return x == 0 if self.k == 1 else not any(x)

    def add(self, x, y):
        if self.k == 1:
            return (x + y) % self.modulus
        m = self.modulus
        return tuple((a + b) % m for a, b in zip(x, y))

    def sub(self, x, y):
        if self.k == 1:
            return (x - y) % self.modulus
        m = self.modulus
        return tuple((a - b) % m for a, b in zip(x, y))

    def neg(self, x):
        if self.k == 1:
            return (-x) % self.modulus
        m = self.modulus
        return tuple((-a) % m for a in x)

    def mul(self, x, y):
        m = self.modulus
        if self.k == 1:
            return (x * y) % m
        k = self.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        prod[i + j] += a * b
        out = [c % m for c in prod[:k]]
        for d in range(k, 2 * k - 1):
            c = prod[d] % m
            if c:
                row = self._red_rows[d - k]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % m
        return tuple(out)

    def mul_int(self, x, n: int):
        n %= self.modulus
        if self.k == 1:
            return (x * n) % self.modulus
        m = self.modulus
        return tuple((a * n) % m for a in x)

    def pow(self, x, n: int):
        if n < 0:
            return self.pow(self.inv(x), -n)
        return power(x, n, self.mul) if n else self.one()

    def inv(self, x):
        if self.is_zero(x):
            raise ZeroInput("cannot invert zero")
        if self.s == 1:
            q = self.p**self.k
            if self.k == 1:
                return pow(x, self.p - 2, self.p)
            return self.pow(x, q - 2)
        # Unit check, then Hensel/Newton from the residue-field inverse.
        res = self.reduce_mod_p(x)
        fld = fq_domain(self.p, self.k)
        if fld.is_zero(res):
            raise ZeroInput("not a unit in the lift ring (reduction mod p is zero)")
        cur = self.lift_from_field(fld.inv(res))
        # each step doubles the p-adic accuracy, starting from 1
        for _ in range((self.s - 1).bit_length()):
            err = self.sub(self.from_int(2), self.mul(x, cur))
            cur = self.mul(cur, err)
        return cur

    # -- structure maps ----------------------------------------------------
    def frobenius(self, x):
        """x ** p (used in characteristic p only).  Series Frobenius raises
        its coefficients with ``pow``, so nothing in the package calls this;
        it stays because the benchmark's tracer wraps it by name."""
        return self.pow(x, self.p)

    def is_pth_power(self, x) -> bool:
        """True: F_q is perfect (s = 1 only, as for :meth:`pth_root`)."""
        if self.s != 1:
            raise TowerMismatch("p-th roots are a residue-field operation")
        return True

    def pth_root(self, x):
        """Unique p-th root in F_q (s = 1; F_q is perfect)."""
        if self.s != 1:
            raise TowerMismatch("p-th roots are a residue-field operation")
        if self.k == 1:
            return x
        return self.pow(x, self.p ** (self.k - 1))

    def trace(self, x) -> int:
        """Trace to Z/p^s, as the trace of the multiplication matrix."""
        if self.k == 1:
            return x
        total = 0
        basis, g = self.one(), self.generator()
        for i in range(self.k):
            total += self.mul(x, basis)[i]
            basis = self.mul(basis, g)
        return total % self.modulus

    # -- lift / reduce -----------------------------------------------------
    def reduce_mod_p(self, x):
        if self.k == 1:
            return x % self.p
        return tuple(a % self.p for a in x)

    def lift_from_field(self, x):
        """Coefficientwise lift of an F_q raw value into this ring."""
        return x if self.k == 1 else tuple(x)

    # -- misc ---------------------------------------------------------------
    def random(self, rng):
        if self.k == 1:
            return rng.randrange(self.modulus)
        return tuple(rng.randrange(self.modulus) for _ in range(self.k))

    def random_nonzero(self, rng):
        while True:
            x = self.random(rng)
            if not self.is_zero(x):
                return x

    def render(self, x) -> str:
        """Human-readable form (polynomial in g)."""
        return render_poly(self.coeffs(x), "g")


def fq_domain(p: int, k: int) -> _QuotientDomain:
    """F_q, q = p^k: the length-1 Galois ring."""
    return galois_ring_domain(p, k, 1)


@lru_cache(maxsize=None)
def galois_ring_domain(p: int, k: int, s: int) -> _QuotientDomain:
    return _QuotientDomain(p, k, s)
