"""Truncated Witt vectors over series fields, and character reduction.

Component order
---------------
A length-``s`` vector is stored internally as ``comps = [a_0, ..., a_{s-1}]``
where ``a_i`` sits at *standard* Witt index ``s - 1 - i``; equivalently the
standard tuple ``(x_0, ..., x_{s-1})`` is ``comps`` reversed.  All printed /
configured tuples use the standard order (:meth:`WittVector.print_order`),
so ``comps[i]`` carries weight ``p^i``: a polar term of order ``-m`` in
``comps[i]`` contributes ``p^i * m`` to the Swan conductor.

Arithmetic
----------
Sums, negations and integer combinations are computed instance-wise through
ghost components (:func:`ghost_component`).  The field coefficients are
lifted to the tower's own lift ring ``Z/p^s`` (``tower.lift_domain``) by a
relabel: a raw residue of ``F_q`` (ints below ``p``, one per power of
``g``) is already a raw residue of ``Z/p^s``, so only the domain changes.
The combined ghost vector is unwound by the usual recursion

    z_n = (W_n - sum_{i<n} p^i z_i^{p^(n-i)}) / p^n,

and the result is reduced mod p.  Each ghost index ``n`` is one integer
linear combination (:func:`rswan.series.linear_combination`, which sums
every exponent in plain ints and reduces once) of the terms
``c_j p^i x_{j,i}^(p^(n-i))`` of every input ``j`` with ``c_j`` nonzero mod
``p^s`` and the terms ``-p^i z_i^(p^(n-i))``; a term whose multiplier
``c_j p^i`` vanishes mod ``p^s`` is exactly zero and adds only its top
ceiling.  The division by ``p^n`` is one exact division of the raw ints,
and a remainder is an internal error.  Length ``s`` is enough: ``z_n mod
p`` needs ``W_n mod p^(n+1)``, and ``a = b (mod p^k)`` implies ``a^p = b^p
(mod p^(k+1))``, so ``p^i z_i^(p^(n-i)) mod p^(n+1)`` depends only on
``z_i mod p``.
The last ghost component ``W_{s-1}`` of a vector is the paper's ``theta``
(:func:`rswan.reciprocity.theta_lift`).
Length-1 vectors are one linear combination of their components, which also
serves coefficient domains without a stored lift ring (rational-function
scalars).

Reduction
---------
Slots are reduced in standard order ``x_0, x_1, ...`` (internal ``s - 1`` down
to 0).  With ``E`` nonzero only in standard slot ``j``, ``E - F(E)`` lies in
``V^j W``: adding it leaves ``x_0, ..., x_{j-1}`` alone, adds ``U - U^p`` to
``x_j`` and carries only into lighter slots.  So a slot is first reduced as
one series, ``x <- x - u^p + u`` for each removable term, collecting ``U``,
then takes one combination ``comps - F(E) + E``, after which slot ``j`` must
agree with the series-level result and each finished slot with its old value
(on the common window: a windowed combination may narrow it).  The weight-1
slot (internal 0) carries into nothing and takes the series-level result
directly, so at ``s = 1`` no combination runs.

The series-level reduction (``_reduce_slot``) is one ascending sweep over a
heap of the negative exponents divisible by ``p``.  The term ``c_e T^e`` is
removable when its root ``u`` (``pth_root`` with ``skip_prime_to_p`` and
``skip_non_powers``, at any level) is nonzero; removing it sets
``c_e <- c_e - F(u)`` and ``c_{e/p} <- c_{e/p} + u``, pushes ``e/p`` when it
is new and adds ``u T^(e/p)`` to ``U``.  Those are the coefficient operations
of ``x - u^p + u``.  A removal only adds at ``e/p > e``, so no exponent
already passed becomes removable again: the sweep removes the same terms in
the same order as rescanning from the deepest pole after each removal, and
it ends, because every pushed exponent is larger and still negative.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import (
    InconsistentValue,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
    ZeroInput,
)
from .scalars import galois_ring_domain
from .series import NestedSeries, _make, linear_combination
from .tower import FieldTower

__all__ = [
    "WittVector",
    "Character",
    "ghost_component",
    "witt_combine",
    "witt_frobenius",
    "witt_verschiebung",
    "witt_ord_of",
    "swan_of_components",
    "asw_reduce_components",
    "asw_reduce",
    "swan_conductor",
    "lift_series",
    "reduce_series",
]


def _map_raw(sr: NestedSeries, fn, domain) -> NestedSeries:
    """``fn`` on every raw scalar of ``sr``, into ``domain`` (zeros dropped)."""
    if sr.level == 1:
        out = {e: fn(c) for e, c in sr.coeffs.items()}
    else:
        out = {e: _map_raw(c, fn, domain) for e, c in sr.coeffs.items()}
    return _make(sr.level, domain, out, sr.ceiling)


def lift_series(a: NestedSeries, lift_domain) -> NestedSeries:
    """Coefficientwise lift of a residue-field series into a lift ring: the
    raw residues of ``F_q`` are already residues of ``Z/p^s``, so only the
    domain changes."""
    if a.level == 1:
        return _make(1, lift_domain, a.coeffs, a.ceiling, clean=True)
    coeffs = {e: lift_series(c, lift_domain) for e, c in a.coeffs.items()}
    return _make(a.level, lift_domain, coeffs, a.ceiling, clean=True)


def reduce_series(a: NestedSeries, field_domain) -> NestedSeries:
    """Coefficientwise reduction mod p of a lift-ring series."""
    return _map_raw(a, a.domain.reduce_mod_p, field_domain)


# --------------------------------------------------------------- raw engine

def _ghost_terms(xs, n: int, p: int, c: int, out: list) -> list:
    """Append ``(c * p^i, xs[i]^(p^(n-i)))`` to ``out`` for the components
    ``i <= n`` present in ``xs`` that are not exactly zero."""
    for i, x in enumerate(xs[: n + 1]):
        if x.coeffs or x.ceiling is not None:
            out.append((c * p**i, x.pow(p ** (n - i))))
    return out


def ghost_component(xs, n: int, p: int, zero: NestedSeries) -> NestedSeries:
    """``zero + sum_{i<=n} p^i * xs[i]^(p^(n-i))`` over the standard-order
    components ``xs`` present (all of them when ``len(xs) <= n``), as one
    :func:`~rswan.series.linear_combination`; exactly zero components are
    skipped."""
    return linear_combination(zero.level, zero.domain, _ghost_terms(xs, n, p, 1, [(1, zero)]))


def witt_combine(comps_list, ints, p: int):
    """Integer combination ``sum_j ints[j] * vec_j`` of Witt vectors.

    Each entry of ``comps_list`` is a component tuple in internal order; all
    must share one length and one coefficient domain.  Length 1 is one
    linear combination of the components; longer vectors go through ghost
    components over the length-``s`` lift ring, one linear combination per
    ghost index (module docstring, "Arithmetic"), and need finite-field
    coefficients.
    """
    if not comps_list:
        raise InconsistentValue("nothing to combine")
    s = len(comps_list[0])
    domain = comps_list[0][0].domain
    level = comps_list[0][0].level
    for comps in comps_list:
        if len(comps) != s:
            raise TowerMismatch("Witt vectors of different lengths")
        for c in comps:
            if c.domain is not domain or c.level != level:
                raise TowerMismatch("Witt components live in different towers")
    if s == 1:
        pairs = [(n, comp) for n, (comp,) in zip(ints, comps_list)]
        return (linear_combination(level, domain, pairs),)
    if not hasattr(domain, "k") or getattr(domain, "s", 1) != 1:
        raise TowerMismatch(
            "length-s Witt arithmetic needs finite-field coefficients"
        )
    lift = galois_ring_domain(p, domain.k, s)
    # standard order (x_0 first), lifted coefficientwise
    vectors = [
        (cj, [lift_series(x, lift) for x in reversed(comps)])
        for cj, comps in zip(ints, comps_list)
        if cj % lift.modulus
    ]
    z: list[NestedSeries] = []
    for n in range(s):
        terms: list = []
        for cj, lx in vectors:
            _ghost_terms(lx, n, p, cj, terms)
        _ghost_terms(z, n, p, -1, terms)
        z.append(_divide_by_int(linear_combination(level, lift, terms), p**n))
    return tuple(reversed([reduce_series(zi, domain) for zi in z]))


def _divide_by_int(a: NestedSeries, n: int) -> NestedSeries:
    """``a / n`` on the raw ints of every coefficient, each of which must be
    divisible by ``n``."""
    if n == 1:
        return a
    domain = a.domain

    def div_raw(x):
        cs = domain.coeffs(x)
        for c in cs:
            if c % n:
                raise RswanError(
                    "ghost recursion produced a coefficient not divisible "
                    f"by {n} (internal error)"
                )
        return cs[0] // n if domain.k == 1 else tuple([c // n for c in cs])

    return _map_raw(a, div_raw, domain)


def witt_frobenius(comps):
    """Componentwise p-th power (valid over rings of characteristic p)."""
    return tuple(c.frobenius() for c in comps)


def witt_verschiebung(comps):
    """Shift each slot one weight down, dropping the weight-1 component;
    composed with Frobenius this is multiplication by p."""
    s = len(comps)
    zero = NestedSeries.zero(comps[0].level, comps[0].domain)
    return tuple(list(comps[1:]) + [zero]) if s > 1 else (zero,)


def _weighted_orders(comps, p: int):
    """``(known, bound)``: ``min_i p^i * ord(comps[i])`` over the stored
    data, and ``min_i p^i * ceiling_i`` over the finite windows (each None
    when there is nothing to take the minimum of)."""
    known = None
    bound = None
    for i, c in enumerate(comps):
        w = p**i
        if c.coeffs:
            v = w * c.ord()
            known = v if known is None else min(known, v)
        if c.ceiling is not None:
            b = w * c.ceiling
            bound = b if bound is None else min(bound, b)
    return known, bound


def witt_ord_of(comps, p: int) -> int:
    """min_i p^i * ord(comps[i]); ZeroInput when every component vanishes.

    Raises :class:`PrecisionExhausted` when an unknown window tail could lie
    below the stored minimum.
    """
    known, bound = _weighted_orders(comps, p)
    if known is None:
        if bound is not None:
            raise PrecisionExhausted(
                "vector is zero within its windows; its order is not determined"
            )
        raise ZeroInput("order of the zero Witt vector is undefined")
    if bound is not None and bound < known:
        raise PrecisionExhausted(
            f"window tails (>= {bound}) could undercut the stored order {known}"
        )
    return known


def swan_of_components(comps, p: int) -> int:
    """Swan conductor of reduced components: minus their weighted order, at
    least 0.

    Raises :class:`PrecisionExhausted` when window tails could carry deeper
    polar terms than the stored data.
    """
    known, bound = _weighted_orders(comps, p)
    sw_known = max(0, -known) if known is not None else 0
    if bound is not None and -bound > sw_known:
        raise PrecisionExhausted(
            "window tails could carry deeper polar terms than the stored data"
        )
    return sw_known


# ----------------------------------------------------------- reduction loop

def _check_windows_cover_polar_part(comps):
    for i, c in enumerate(comps):
        if c.ceiling is not None and c.ceiling <= 0:
            raise PrecisionExhausted(
                f"component {i} is only known below order {c.ceiling}; "
                "its polar part cannot be certified",
                exponent=c.ceiling,
            )


def _reduce_slot(x: NestedSeries):
    """``(x - U^p + U, U)``, ``U`` None if nothing moved: cancel each removable
    polar term, deepest first, by ``x <- x - u^p + u`` (module docstring).

    ``x``'s window must cover its polar part (ceiling > 0), as
    :func:`asw_reduce_components` checks.
    """
    p, level, domain = x.domain.p, x.level, x.domain
    coeffs = dict(x.coeffs)  # zeros stay until the constructor drops them
    u_coeffs = {}
    heap = [e for e in coeffs if e < 0 and e % p == 0]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)
        c = coeffs[e]
        if level == 1:
            if domain.is_zero(c) or not domain.is_pth_power(c):
                continue
            u = domain.pth_root(c)
            coeffs[e] = domain.zero()  # c - u^p, exactly zero over a field
        else:
            u = c.pth_root(skip_prime_to_p=True, skip_non_powers=True)
            if not u.coeffs:
                continue
            coeffs[e] = c + -u.frobenius()
        f = e // p
        u_coeffs[f] = u
        if f in coeffs:
            coeffs[f] = domain.add(coeffs[f], u) if level == 1 else coeffs[f] + u
        else:
            coeffs[f] = u
            if f % p == 0:
                heapq.heappush(heap, f)
    if not u_coeffs:
        return x, None
    return NestedSeries(level, domain, coeffs, x.ceiling), NestedSeries(level, domain, u_coeffs)


def asw_reduce_components(comps, p: int):
    """Remove every removable polar term, one slot at a time (module docstring)."""
    _check_windows_cover_polar_part(comps)
    comps = tuple(comps)
    for i in reversed(range(len(comps))):
        reduced, total = _reduce_slot(comps[i])
        if i == 0 or total is None:
            comps = comps[:i] + (reduced,) + comps[i + 1:]
            continue
        zero = NestedSeries.zero(total.level, total.domain)
        e_vec = tuple(total if j == i else zero for j in range(len(comps)))
        combined = witt_combine([comps, witt_frobenius(e_vec), e_vec], [1, -1, 1], p)
        if not all(a.agrees_with(b) for a, b in zip(combined[i:], (reduced,) + comps[i + 1:])):
            raise RswanError("a coboundary moved a slot unpredictably (internal error)")
        comps = combined
        _check_windows_cover_polar_part(comps)
    return comps


# ------------------------------------------------------------- tower layer

@dataclass(frozen=True)
class WittVector:
    """A length-``tower.s`` Witt vector of series over ``tower``."""

    tower: FieldTower
    comps: tuple[NestedSeries, ...]

    def __post_init__(self):
        if len(self.comps) != self.tower.s:
            raise TowerMismatch(
                f"expected {self.tower.s} components, got {len(self.comps)}"
            )
        for c in self.comps:
            if c.level != self.tower.d or c.domain is not self.tower.field_domain:
                raise TowerMismatch("component does not live over the tower")

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_print_order(cls, tower: FieldTower, printed) -> "WittVector":
        """Build from the standard tuple ``(x_0, ..., x_{s-1})``."""
        printed = tuple(printed)
        return cls(tower, tuple(reversed(printed)))

    @classmethod
    def zero(cls, tower: FieldTower) -> "WittVector":
        z = NestedSeries.zero(tower.d, tower.field_domain)
        return cls(tower, (z,) * tower.s)

    @classmethod
    def teichmuller(cls, tower: FieldTower, series: NestedSeries) -> "WittVector":
        z = NestedSeries.zero(tower.d, tower.field_domain)
        return cls(tower, (z,) * (tower.s - 1) + (series,))

    # -- views ----------------------------------------------------------------
    @property
    def print_order(self) -> tuple[NestedSeries, ...]:
        """Standard component order ``(x_0, ..., x_{s-1})``."""
        return tuple(reversed(self.comps))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    # -- arithmetic -------------------------------------------------------
    def _peer(self, other: "WittVector"):
        if not isinstance(other, WittVector):
            raise TowerMismatch("expected a Witt vector")
        if other.tower != self.tower:
            raise TowerMismatch("Witt vectors over different towers")

    def __add__(self, other):
        self._peer(other)
        comps = witt_combine([self.comps, other.comps], [1, 1], self.tower.p)
        return WittVector(self.tower, comps)

    def __neg__(self):
        return WittVector(self.tower, witt_combine([self.comps], [-1], self.tower.p))

    def __sub__(self, other):
        self._peer(other)
        comps = witt_combine([self.comps, other.comps], [1, -1], self.tower.p)
        return WittVector(self.tower, comps)

    def frobenius(self) -> "WittVector":
        return WittVector(self.tower, witt_frobenius(self.comps))

    def verschiebung(self) -> "WittVector":
        return WittVector(self.tower, witt_verschiebung(self.comps))

    def agrees_with(self, other: "WittVector") -> bool:
        self._peer(other)
        return all(a.agrees_with(b) for a, b in zip(self.comps, other.comps))


@dataclass(frozen=True)
class Character:
    """A Witt vector regarded as a character datum, with a reducedness flag."""

    vector: WittVector
    reduced: bool = False

    @property
    def tower(self) -> FieldTower:
        return self.vector.tower


def asw_reduce(vec: WittVector | Character) -> Character:
    if isinstance(vec, Character):
        if vec.reduced:
            return vec
        vec = vec.vector
    comps = asw_reduce_components(vec.comps, vec.tower.p)
    return Character(WittVector(vec.tower, comps), reduced=True)


def swan_conductor(char: WittVector | Character) -> int:
    """Swan conductor: minus the weighted order of the reduced vector, at least 0.

    Unreduced input is reduced first.  Raises :class:`PrecisionExhausted`
    when windows leave the answer ambiguous.
    """
    char = asw_reduce(char)
    return swan_of_components(char.vector.comps, char.tower.p)
