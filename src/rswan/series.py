"""Nested truncated Laurent series with explicit precision windows.

An element of F_q((T_1))...((T_d)) is stored recursively: a series at level
``l`` is a sparse map ``exponent -> coefficient`` in the level-``l`` variable,
whose coefficients are series at level ``l - 1`` (raw scalars at level 1).
The same container carries lift-ring series (Galois-ring scalars) and the
rational-function-coefficient series used by the curve experiments; the
``domain`` object decides the scalar arithmetic.

Precision model
---------------
``ceiling = None`` means the series is *exact*: every unstored exponent is
exactly zero.  A finite ``ceiling`` means exponents ``>= ceiling`` are
unknown; unstored exponents below it are exactly zero.  Exact data stays
exact through ring operations; finite windows appear where they must
(inversion, reversion, substitution through non-monomial images) and
propagate by window intersection.  Operations that cannot certify a result
raise :class:`PrecisionExhausted` instead of truncating silently.

Multiplication
--------------
A level-1 product over ``(Z/p^s)[x]/(f)`` (``F_q`` and its lifts) with at
least ``_KRONECKER_MIN_PAIRS`` term pairs, and no more exponent slots than
term pairs, goes through a Kronecker-substitution kernel: each operand,
trimmed to the exponents the result ceiling can use, is packed into one
Python int with one slot per exponent (``2k - 1`` sub-slots, one per power
of ``g``, when ``k > 1``); the two ints are multiplied once, and the slots
of the product are read back, reduced mod ``p^s`` and, for ``k > 1``,
through the reduction rows of ``f``.  It is exact because a slot never
carries into the next: a product slot sums at most ``min(len) * k``
products of two residues below ``p^s``, so a slot of
``min(len) * k * (p^s - 1)^2`` (rounded up to 1, 2, 4 or 8 bytes) holds it.
Smaller or sparser products, ``F_p(x)`` coefficients and levels >= 2 use
the dict loop ``_schoolbook_mul``, which stays as the reference.  Results
of ring operations are built by ``_make``, which skips the per-entry checks
of ``__init__`` but still drops zeros, cuts at the ceiling and refuses
exponents below the supported range.
"""

from __future__ import annotations

import operator
import sys
from array import array

from .errors import NoPthRoot, PrecisionExhausted, TowerMismatch, ZeroInput
from .scalars import _QuotientDomain

__all__ = [
    "NestedSeries",
    "series_substitute",
    "series_reverse",
    "identity_images",
]

_ORD_FLOOR = -10_000
_new = object.__new__
_set = object.__setattr__  # series are immutable: their own __setattr__ raises


def _min_ceiling(*cs):
    finite = [c for c in cs if c is not None]
    return min(finite) if finite else None


def _make(level: int, domain, coeffs: dict, ceiling: int | None, out=None) -> "NestedSeries":
    """Trusted constructor for the result of an operation on valid series.

    The operands passed ``_check_compatible`` (or there is one operand), so
    the per-entry type and level checks of ``NestedSeries.__init__`` are
    skipped; zeros are still dropped, the ceiling still cuts and an exponent
    below the supported range still raises ``ValueError``.  ``__init__``
    passes itself as ``out`` once it has made those checks.
    """
    clean = {}
    if level > 1:
        # Only an *exactly* zero coefficient may be dropped.  A slot that is
        # zero merely within a finite window stays stored: absent slots read
        # back as exact zeros, so pruning it would claim knowledge beyond the
        # slot's inner ceiling.
        for e, c in coeffs.items():
            if (ceiling is None or e < ceiling) and not (c.is_zero() and c.is_exact()):
                clean[e] = c
    elif isinstance(domain, _QuotientDomain):
        # Raw ints and tuples: comparing with the raw zero is the zero test,
        # without a method call per entry.
        zero = domain.zero()
        for e, c in coeffs.items():
            if c != zero and (ceiling is None or e < ceiling):
                clean[e] = c
    else:
        is_zero = domain.is_zero
        for e, c in coeffs.items():
            if (ceiling is None or e < ceiling) and not is_zero(c):
                clean[e] = c
    if clean and min(clean) < _ORD_FLOOR:
        raise ValueError(f"exponent {min(clean)} below the supported range (>{_ORD_FLOOR})")
    if out is None:
        out = _new(NestedSeries)
    _set(out, "level", level)
    _set(out, "domain", domain)
    _set(out, "coeffs", clean)
    _set(out, "ceiling", ceiling)
    return out


# Below this many term pairs the dict loop is as fast as packing or faster;
# measured with bench/series_mul.py (BENCH_5.json), which puts the crossover
# at 36 to 49 pairs from run to run.
_KRONECKER_MIN_PAIRS = 49
# Slot sizes in bytes -> array typecode of that item size.
_SLOT_CODES = {array(code).itemsize: code for code in "QLIHB"}


def _schoolbook_mul(a: dict, b: dict, ceiling: int | None, mul, add) -> dict:
    """Coefficient map of a product, term pair by term pair (zeros kept)."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if ceiling is not None and e >= ceiling:
                continue
            prod = mul(ca, cb)
            out[e] = add(out[e], prod) if e in out else prod
    return out


def _kronecker_applies(domain, a: dict, b: dict) -> bool:
    """Whether a level-1 product with enough term pairs goes through
    :func:`_kronecker_mul`.

    It needs ``(Z/p^s)[x]/(f)`` scalars and a dense enough support: the
    kernel touches every exponent slot of the product, the dict loop every
    term pair.
    """
    return (
        isinstance(domain, _QuotientDomain)
        and max(a) - min(a) + max(b) - min(b) < len(a) * len(b)
    )


def _pack(coeffs: dict, low: int, high: int, domain, code: str) -> int:
    """One int holding ``coeffs`` in slots of ``code``'s width from ``low``.

    Exponent ``e`` takes ``2k - 1`` consecutive slots, the first ``k`` for
    the ``g``-power coordinates of its coefficient.
    """
    k, m = domain.k, domain.modulus
    stride = 2 * k - 1
    dense = [0] * ((high - low + 1) * stride)
    if k == 1:
        for e, c in coeffs.items():
            dense[e - low] = c % m
    else:
        for e, c in coeffs.items():
            i = (e - low) * stride
            dense[i:i + k] = [x % m for x in c]
    return int.from_bytes(array(code, dense).tobytes(), sys.byteorder)


def _kronecker_mul(domain, a: dict, b: dict, ceiling: int | None) -> dict:
    """Coefficient map of a level-1 product by Kronecker substitution.

    Same values as :func:`_schoolbook_mul` with the domain's ``mul`` and
    ``add`` (zeros dropped): both reduce the same integer sums mod ``p^s``.
    """
    la, lb = min(a), min(b)
    if ceiling is not None:
        if la + lb >= ceiling:
            return {}
        if max(a) + lb >= ceiling:
            a = {e: c for e, c in a.items() if e + lb < ceiling}
        if max(b) + la >= ceiling:
            b = {e: c for e, c in b.items() if e + la < ceiling}
    k, m = domain.k, domain.modulus
    # A product slot sums at most min(len) * k products of two residues.
    need = (min(len(a), len(b)) * k * (m - 1) ** 2).bit_length()
    size = min((s for s in _SLOT_CODES if 8 * s >= need), default=None)
    if size is None:  # wider than 8 bytes: more terms than any window holds
        return _schoolbook_mul(a, b, ceiling, domain.mul, domain.add)
    code = _SLOT_CODES[size]
    ha, hb = max(a), max(b)
    prod = _pack(a, la, ha, domain, code) * _pack(b, lb, hb, domain, code)
    stride = 2 * k - 1
    e0 = la + lb
    span = ha + hb - e0 + 1
    vals = memoryview(prod.to_bytes(span * stride * size, sys.byteorder)).cast(code)
    top = span if ceiling is None else min(span, ceiling - e0)
    if k == 1:
        return {e0 + i: r for i, v in enumerate(vals[:top]) if (r := v % m)}
    rows = domain._red_rows
    out = {}
    for j in range(top):
        sub = vals[j * stride:(j + 1) * stride]
        acc = list(sub[:k])
        for d in range(k, stride):
            c = sub[d]
            if c:
                row = rows[d - k]
                for i in range(k):
                    acc[i] += c * row[i]
        coeff = tuple(x % m for x in acc)
        if any(coeff):
            out[e0 + j] = coeff
    return out


class NestedSeries:
    __slots__ = ("level", "domain", "coeffs", "ceiling")

    def __init__(self, level: int, domain, coeffs: dict, ceiling: int | None = None):
        if level < 1:
            raise ValueError("series level must be >= 1")
        if level > 1:
            for c in coeffs.values():
                if not isinstance(c, NestedSeries) or c.level != level - 1:
                    raise TowerMismatch("coefficient level does not match series level")
        _make(level, domain, coeffs, ceiling, self)

    def __setattr__(self, *a):
        raise AttributeError("series are immutable")

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, level: int, domain, ceiling: int | None = None) -> "NestedSeries":
        return cls(level, domain, {}, ceiling)

    @classmethod
    def constant(cls, level: int, domain, raw, ceiling: int | None = None) -> "NestedSeries":
        cur = raw
        for lvl in range(1, level + 1):
            if lvl == 1:
                cur = cls(1, domain, {0: cur}, None)
            else:
                cur = cls(lvl, domain, {0: cur}, None)
        if ceiling is not None:
            cur = cur.truncate(ceiling)
        return cur

    @classmethod
    def one(cls, level: int, domain) -> "NestedSeries":
        return cls.constant(level, domain, domain.one())

    @classmethod
    def from_monomials(cls, level: int, domain, monomials) -> "NestedSeries":
        """Build an exact series from ``[(exponent_tuple, raw_scalar), ...]``.

        ``exponent_tuple[i]`` is the exponent of the level-``i+1`` variable.
        """
        if level == 1:
            acc: dict = {}
            for exps, raw in monomials:
                (e,) = exps
                acc[e] = domain.add(acc[e], raw) if e in acc else raw
            return cls(1, domain, acc)
        grouped: dict[int, list] = {}
        for exps, raw in monomials:
            grouped.setdefault(exps[-1], []).append((exps[:-1], raw))
        return cls(
            level,
            domain,
            {e: cls.from_monomials(level - 1, domain, ms) for e, ms in grouped.items()},
        )

    @classmethod
    def variable(cls, level: int, domain, var_level: int) -> "NestedSeries":
        """The monomial T_{var_level}, as an exact series at ``level``."""
        exps = tuple(1 if i == var_level else 0 for i in range(1, level + 1))
        return cls.from_monomials(level, domain, [(exps, domain.one())])

    # ------------------------------------------------------------- inspection
    def is_zero(self) -> bool:
        """Zero within the window (exactly zero when the series is exact)."""
        if self.level == 1:
            return not self.coeffs
        return all(c.is_zero() for c in self.coeffs.values())

    def is_exact(self) -> bool:
        if self.ceiling is not None:
            return False
        if self.level == 1:
            return True
        return all(c.is_exact() for c in self.coeffs.values())

    def low(self) -> int:
        """Best known lower bound for the valuation (ceiling when window-zero)."""
        if self.coeffs:
            return min(self.coeffs)
        return self.ceiling if self.ceiling is not None else 0

    def ord(self) -> int:
        """Valuation in the top variable.  Raises ZeroInput on a window-zero series."""
        if self.is_zero():
            raise ZeroInput("ord of a (window-)zero series is undefined")
        e = min(self.coeffs)
        c = self.coeffs[e]
        if self.level > 1 and c.is_zero():
            raise PrecisionExhausted(
                "order is ambiguous: the lowest stored coefficient "
                f"(exponent {e}) is zero only within a finite window",
                exponent=e,
            )
        return e

    def coefficient(self, e: int):
        """Level-(l-1) coefficient at exponent ``e`` (raw scalar at level 1)."""
        if self.ceiling is not None and e >= self.ceiling:
            raise PrecisionExhausted(
                f"coefficient at exponent {e} is beyond the window ceiling {self.ceiling}",
                exponent=e,
            )
        if e in self.coeffs:
            return self.coeffs[e]
        return self._zero_coeff()

    def _zero_coeff(self):
        return self.domain.zero() if self.level == 1 else NestedSeries.zero(self.level - 1, self.domain)

    def leading(self):
        return self.coeffs[self.ord()]

    def iter_monomials(self):
        """Yield ``(exponent_tuple, raw_scalar)`` over the stored support."""
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if self.level == 1:
                yield (e,), c
            else:
                for exps, raw in c.iter_monomials():
                    yield exps + (e,), raw

    # ------------------------------------------------------------------- ring
    def _check_compatible(self, other: "NestedSeries"):
        if not isinstance(other, NestedSeries):
            raise TypeError(f"expected a series, got {type(other).__name__}")
        if other.level != self.level or other.domain is not self.domain:
            raise TowerMismatch("series belong to different towers or coefficient rings")

    def _cadd(self, a, b):
        return self.domain.add(a, b) if self.level == 1 else a + b

    def _cneg(self, a):
        return self.domain.neg(a) if self.level == 1 else -a

    def __add__(self, other):
        self._check_compatible(other)
        ceiling = _min_ceiling(self.ceiling, other.ceiling)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = self._cadd(out[e], c) if e in out else c
        return _make(self.level, self.domain, out, ceiling)

    def __neg__(self):
        return _make(
            self.level, self.domain, {e: self._cneg(c) for e, c in self.coeffs.items()}, self.ceiling
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        ceiling = _min_ceiling(
            None if self.ceiling is None else self.ceiling + other.low(),
            None if other.ceiling is None else other.ceiling + self.low(),
        )
        a, b, domain = self.coeffs, other.coeffs, self.domain
        if self.level > 1:
            out = _schoolbook_mul(a, b, ceiling, operator.mul, operator.add)
        elif len(a) * len(b) >= _KRONECKER_MIN_PAIRS and _kronecker_applies(domain, a, b):
            out = _kronecker_mul(domain, a, b, ceiling)
        else:
            out = _schoolbook_mul(a, b, ceiling, domain.mul, domain.add)
        return _make(self.level, domain, out, ceiling)

    def scalar_mul(self, raw) -> "NestedSeries":
        """Multiply by a raw scalar of the coefficient domain."""
        if self.domain.is_zero(raw):
            return NestedSeries.zero(self.level, self.domain, self.ceiling)
        if self.level == 1:
            out = {e: self.domain.mul(c, raw) for e, c in self.coeffs.items()}
        else:
            out = {e: c.scalar_mul(raw) for e, c in self.coeffs.items()}
        return _make(self.level, self.domain, out, self.ceiling)

    def mul_int(self, n: int) -> "NestedSeries":
        return self.scalar_mul(self.domain.from_int(n))

    def embed_coeff(self, c) -> "NestedSeries":
        """A level-(l-1) coefficient as a series at this level (exponent 0)."""
        return NestedSeries(self.level, self.domain, {0: c})

    def shift(self, n: int) -> "NestedSeries":
        """Multiply by T^n in the top variable."""
        return _make(
            self.level,
            self.domain,
            {e + n: c for e, c in self.coeffs.items()},
            None if self.ceiling is None else self.ceiling + n,
        )

    def shift_at(self, var_level: int, n: int) -> "NestedSeries":
        """Multiply by T_{var_level}^n (any level, not just the top)."""
        if var_level == self.level:
            return self.shift(n)
        if var_level > self.level or var_level < 1:
            raise TowerMismatch(f"no variable at level {var_level}")
        return _make(
            self.level,
            self.domain,
            {e: c.shift_at(var_level, n) for e, c in self.coeffs.items()},
            self.ceiling,
        )

    def truncate(self, ceiling: int | None) -> "NestedSeries":
        new = _min_ceiling(self.ceiling, ceiling)
        if new == self.ceiling:
            return self
        return _make(self.level, self.domain, self.coeffs, new)

    def pow(self, n: int, precision: int | None = None) -> "NestedSeries":
        if n < 0:
            return self.inv(precision).pow(-n)
        acc = NestedSeries.one(self.level, self.domain)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def inv(self, precision: int | None = None) -> "NestedSeries":
        """Multiplicative inverse, Newton iteration on the top variable.

        The result window is exactly what the input window supports: for an
        input known on [v, v + w) the inverse is known on [-v, -v + w).  An
        exact single-term input inverts exactly; otherwise ``precision``
        bounds a fresh window, and without it the inverse raises
        :class:`PrecisionExhausted`.
        """
        if not self.coeffs:
            raise ZeroInput("cannot invert a (window-)zero series")
        v = self.ord()
        lead = self.coeffs[v]
        lead_inv = self.domain.inv(lead) if self.level == 1 else lead.inv(precision)
        if len(self.coeffs) == 1:
            out = NestedSeries(self.level, self.domain, {-v: lead_inv})
            if self.ceiling is not None:
                out = out.truncate(-v + (self.ceiling - v))
            return out
        if self.ceiling is not None:
            width = self.ceiling - v
        elif precision is not None:
            width = precision
        else:
            raise PrecisionExhausted(
                "the inverse of an exact series with several terms needs a width",
                exponent=-v,
            )
        # x_{n+1} = x_n (2 - a x_n); the error 1 - a x_n squares each step.
        two = NestedSeries.one(self.level, self.domain).mul_int(2)
        x = NestedSeries(self.level, self.domain, {-v: lead_inv}, -v + width)
        steps = max(1, (width - 1).bit_length() + 1)
        a = self.truncate(v + width)
        for _ in range(steps):
            x = (x * (two - a * x)).truncate(-v + width)
        return x

    # --------------------------------------------------- characteristic-p maps
    def frobenius(self, times: int = 1) -> "NestedSeries":
        """Raise to the p-th power ``times`` times (field coefficients only)."""
        if times == 0:
            return self
        p_t = self.domain.p**times
        if self.level == 1:
            out = {e * p_t: self.domain.pow(c, p_t) for e, c in self.coeffs.items()}
        else:
            out = {e * p_t: c.frobenius(times) for e, c in self.coeffs.items()}
        ceiling = None if self.ceiling is None else (self.ceiling - 1) * p_t + 1
        return _make(self.level, self.domain, out, ceiling)

    def pth_root(
        self, *, skip_prime_to_p: bool = False, skip_non_powers: bool = False
    ) -> "NestedSeries":
        """p-th root, taken monomial by monomial at every level.

        A monomial ``c * T^e`` has the root ``c^(1/p) * T^(e/p)`` when p
        divides every exponent and the scalar ``c`` is a p-th power.  A
        monomial that fails raises :class:`NoPthRoot` unless its flag leaves
        it out: ``skip_prime_to_p`` gives the series action of the Cartier
        operator; both flags give the root of the largest removable part
        (character reduction), which also leaves out coefficients with
        nothing left in them.
        """
        p = self.domain.p
        out = {}
        for e, c in self.coeffs.items():
            if e % p:
                if skip_prime_to_p:
                    continue
                raise NoPthRoot(f"exponent {e} is not divisible by p = {p}")
            if self.level == 1:
                if not self.domain.is_pth_power(c):
                    if skip_non_powers:
                        continue
                    raise NoPthRoot("coefficient is not a p-th power at the scalar level")
                out[e // p] = self.domain.pth_root(c)
                continue
            root = c.pth_root(skip_prime_to_p=skip_prime_to_p, skip_non_powers=skip_non_powers)
            if root.coeffs or not skip_non_powers:
                out[e // p] = root
        ceiling = None if self.ceiling is None else (self.ceiling - 1) // p + 1
        return NestedSeries(self.level, self.domain, out, ceiling)

    def is_pth_power(self) -> bool:
        """Whether :meth:`pth_root` succeeds."""
        try:
            self.pth_root()
        except NoPthRoot:
            return False
        return True

    # ------------------------------------------------------------- comparison
    def agrees_with(self, other: "NestedSeries") -> bool:
        """Equality on the common window, recursively at every level."""
        self._check_compatible(other)
        ceiling = _min_ceiling(self.ceiling, other.ceiling)
        keys = set(self.coeffs) | set(other.coeffs)
        if ceiling is not None:
            keys = {e for e in keys if e < ceiling}
        for e in keys:
            a = self.coeffs.get(e)
            b = other.coeffs.get(e)
            if a is None:
                a = self._zero_coeff()
            if b is None:
                b = self._zero_coeff()
            if self.level == 1:
                if a != b:
                    return False
            elif not a.agrees_with(b):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, NestedSeries):
            return NotImplemented
        return (
            self.level == other.level
            and self.domain is other.domain
            and self.ceiling == other.ceiling
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, id(self.domain), self.ceiling, tuple(sorted(self.coeffs))))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            bits = []
            for exps, raw in self.iter_monomials():
                mono = "*".join(
                    f"T{i + 1}^{e}" for i, e in enumerate(exps) if e != 0
                )
                bits.append(f"{raw!r}*{mono}" if mono else f"{raw!r}")
            body = " + ".join(bits)
        tail = "" if self.ceiling is None else f" + O(T{self.level}^{self.ceiling})"
        return f"<series L{self.level}: {body}{tail}>"


# ---------------------------------------------------------------- module ops

def identity_images(level: int, domain) -> dict[int, NestedSeries]:
    return {j: NestedSeries.variable(level, domain, j) for j in range(1, level + 1)}


def series_substitute(
    a: NestedSeries,
    images: dict[int, NestedSeries],
    precision: int | None = None,
) -> NestedSeries:
    """Evaluate ``a`` with each level-``j`` variable replaced by ``images[j]``.

    All images must be series of one common level and domain (the target).
    Fails loudly (:class:`PrecisionExhausted`) when an unknown tail of ``a``
    would pollute the guaranteed part of the result: that happens exactly
    when ``a`` has a finite ceiling and the relevant image is not a
    uniformizer-like element (top-variable order >= 1).
    """
    targets = list(images.values())
    if not targets:
        raise ValueError("no images supplied")
    out_level = targets[0].level
    domain = targets[0].domain
    for img in targets:
        if img.level != out_level or img.domain is not domain:
            raise TowerMismatch("substitution images live in different targets")
    powers = {level: {} for level in images}
    return _substitute(a, images, powers, out_level, domain, precision)


def _substitute(a, images, powers, out_level, domain, precision):
    img = images.get(a.level)
    if img is None:
        raise TowerMismatch(f"no image supplied for level {a.level}")
    result = NestedSeries.zero(out_level, domain)
    for e in sorted(a.coeffs):
        c = a.coeffs[e]
        if a.level == 1:
            piece = NestedSeries.constant(out_level, domain, c)
        else:
            piece = _substitute(c, images, powers, out_level, domain, precision)
        result = result + piece * _image_power(img, powers[a.level], e, precision)
    if a.ceiling is not None:
        # Bound the damage of the unknown tail of `a`.
        if img.is_zero():
            tail_bound = None  # image is zero: tail contributes nothing
        else:
            m = img.ord()
            if m >= 1:
                tail_bound = m * a.ceiling
            else:
                raise PrecisionExhausted(
                    "cannot substitute a windowed series through a unit-order image",
                    exponent=a.ceiling,
                )
        if tail_bound is not None:
            result = result.truncate(tail_bound)
    return result


def _image_power(img: NestedSeries, table: dict, e: int, precision) -> NestedSeries:
    """``img^e`` from the power table of its level; ``table[-1]`` is the one inverse."""
    if e not in table:
        if e >= 0:
            table[e] = img.pow(e)
        else:
            if -1 not in table:
                table[-1] = img.inv(precision)
            table[e] = table[-1].pow(-e)
    return table[e]


def _top_derivative(f: NestedSeries) -> NestedSeries:
    """d/dT in the top variable (not logarithmic)."""
    out = {}
    for e, c in f.coeffs.items():
        out[e - 1] = c.mul_int(e) if f.level > 1 else f.domain.mul_int(c, e)
    ceiling = None if f.ceiling is None else f.ceiling - 1
    return NestedSeries(f.level, f.domain, out, ceiling)


def series_reverse(f: NestedSeries, precision: int | None = None) -> NestedSeries:
    """Composition inverse of a series of order 1 in the top variable.

    Returns ``g`` with ``f(g) = T`` to ``precision`` exponents, or to the
    input window width when narrower; an exact input with no ``precision``
    raises :class:`PrecisionExhausted`.
    """
    if f.is_zero() or f.ord() != 1:
        raise ZeroInput("reversion needs a series of valuation exactly 1")
    lead = f.coeffs[1]
    if f.level > 1 and (lead.is_zero() or lead.ord() != 0):
        raise ZeroInput("reversion needs a unit linear coefficient")
    width = precision
    if f.ceiling is not None:
        width = f.ceiling - 1 if width is None else min(width, f.ceiling - 1)
    if width is None:
        raise PrecisionExhausted("the reversion of an exact series needs a width")
    if width < 1:
        raise PrecisionExhausted("no room to compute a reversion")
    domain = f.domain
    level = f.level
    ident = NestedSeries.variable(level, domain, level)
    images = identity_images(level, domain)
    lead_inv = domain.inv(lead) if level == 1 else lead.inv(width)
    g = NestedSeries(level, domain, {1: lead_inv}, width + 1)
    fprime = _top_derivative(f)
    steps = max(1, (width - 1).bit_length() + 1)
    for _ in range(steps):
        images[level] = g
        err = series_substitute(f, images, width) - ident
        if err.is_zero():
            break
        deriv = series_substitute(fprime, images, width)
        g = (g - err * deriv.inv(width)).truncate(width + 1)
    return g
