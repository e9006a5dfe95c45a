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
Sums, negations and integer combinations are computed through ghost
components.  The field coefficients are lifted to the tower's own lift ring
``Z/p^s`` (``tower.lift_domain``) by a relabel: a raw residue of ``F_q``
(ints below ``p``, one per power of ``g``) is already a raw residue of
``Z/p^s``, so only the domain changes.  The combined ghost vector is unwound
by the recursion (M. Hazewinkel, arXiv:0804.3888, sec. 5)

    z_n = (W_n - sum_{i<n} p^i z_i^{p^(n-i)}) / p^n,

written once (``_ghost_recursion``): each ghost index ``n`` sums the terms
``c_j p^i x_{j,i}^(p^(n-i))`` of every input ``j`` with ``c_j`` nonzero mod
``p^s`` and the terms ``-p^i z_i^(p^(n-i))``, then divides the raw ints
exactly by ``p^n``; a remainder is an internal error.  The results are
reduced mod p.  Length ``s`` is enough: ``z_n mod p`` needs ``W_n mod
p^(n+1)``, and ``a = b (mod p^k)`` implies ``a^p = b^p (mod p^(k+1))``, so
``p^i z_i^(p^(n-i)) mod p^(n+1)`` depends only on ``z_i mod p``.  The flat
engine therefore reduces each ``z_n`` mod p as it divides: its sum at index
``n`` is reduced mod ``p^(n+1)`` and stays divisible by ``p^n``, as it
differs from the exact one by a multiple of ``p^(n+1)``.
Length-1 vectors are one linear combination of their components.  Over
``F_p(x)`` every combination raises ``TowerMismatch`` (:mod:`rswan.ratfunc`).

*Merged ghost terms.*  Once ``z_i`` is known, the slot-``i`` terms (``c_j
x_{j,i}`` of each kept input and ``-z_i``) recur at every later ghost
index with the power ``p^(n-i)``, and ``c x^e + c' x^e = (c + c') x^e``.
So on the flat engine ``_merge_slot`` sums the multipliers of equal
slot terms into the first of them, in the order the terms are summed,
and a term whose multiplier sums to 0 is left out.  When one kept input
with multiplier 1 alone fills a slot, ``z_i`` equals its component and
the two cancel: ``a + b`` with ``b``'s ``x_0`` zero raises no power of
``x_0``.  A slot is compared only when its last power ``p^(s-1-i)`` is
at least ``p^2``, or when the combination has at most two inputs and
just two of the slot's terms can merge (one kept input beside ``z_i``):
a reduction's combination ``[comps, F(E), E]`` pays nothing at a slot
whose last power is ``p``.  The series path merges nothing.

*The last ghost component.*  ``W_{s-1}`` of a vector is the paper's
``theta`` (:func:`rswan.reciprocity.theta_lift`).  ``_last_ghost_component``
forms it as one ghost sum of the flat engine below, with no division and
no reduction, decoded over the lift ring (``W_0 = lift(x_0)`` at ``s =
1``); a vector with a window, or one the flat floor check refuses, takes
:func:`ghost_component` over its lifted components, which raises what it
raises.

The recursion runs on one of two representations of its series.

* **Flat raw maps** (``_flat_combine``), when every component of every
  kept input is exact at every level; this is the gate
  :func:`rswan._kernels._flat_mul` applies.  Each component is written once
  as a level-1 map of raw coefficients by the Kronecker substitution
  ``(e_1, ..., e_d) -> e_d W_d + sum_{l<d} e_l W_l`` with balanced digits:
  ``W_1 = 1``, ``W_{l+1} = W_l (2 B_l + 1)`` and ``B_l = max_{j,i}
  p^(s-1-i) max |e_l(x_{j,i})|`` over the kept inputs (standard index
  ``i``).  The map sends monomials to monomials multiplicatively, so it is
  a ring homomorphism and the recursion runs on its image.  Each ghost
  index is one sum (``_flat_ghost_sum``), reduced mod ``p^(n+1)`` and
  divided by ``p^n``, so every ``z_n`` has coefficients below ``p``.  When
  the combination's inputs pass :func:`rswan._kernels._ghost_sum_packs`,
  decided once per combination (dense level-1 inputs and a last ghost power
  the packing takes), a sum with a power above 1 is one packed int,
  :func:`rswan._kernels._packed_ghost_sum`; every other sum is a dict loop,
  with powers by square-and-multiply over
  :func:`rswan._kernels._level_one_mul` and the sum in plain ints, reduced
  once.  The ``s`` results are decoded (add ``sum_l B_l W_l``, then read
  the digits) and each result series is built once.  At ``d = 1`` the map
  is the identity.  The refined invariant is this flattening's second
  user: :func:`rswan.rsw.rsw_form_at` writes an exact vector once with
  :func:`_flat_components` and forms its ``p^i``-fold products on the same
  maps, inside the same digit bounds (:mod:`rswan.rsw`, "The flat path").
* **Series** otherwise (a window at any level): each ghost index is one
  :func:`rswan.series.linear_combination`, which sums every exponent in
  plain ints and reduces once; a term whose multiplier ``c_j p^i``
  vanishes mod ``p^s`` is exactly zero and adds only its top ceiling.

*No digit carries.*  Decoding is exact when every monomial of every product
the recursion forms has level-``l`` exponents in ``[-B_l, B_l]`` for
``l < d``: the map is injective on that box.  Give ``x_{j,i}`` the weight
``p^i``.  By induction on ``n`` every monomial of ``z_n`` is a product of
monomials of the inputs, ``a_{j,i}`` of them from ``x_{j,i}``, with
``sum a_{j,i} p^i = p^n``: so are those of ``W_n`` and of each
``z_i^(p^(n-i))``, and the sum, the division and the reduction add no
monomial.  Since ``max |e_l(x_{j,i})| <= p^(i-s+1) B_l``, such a monomial
has ``|e_l| <= sum a_{j,i} p^(i-s+1) B_l = p^(n-s+1) B_l``.  A power
``y^(p^(n-i))`` of a component or of ``z_i``, and every partial product of
its square-and-multiply, is a product of at most ``p^(n-i)`` monomials of
weight ``p^i``, so its exponents are bounded by ``p^(n-s+1) B_l <= B_l``
for ``n <= s - 1``.  The ghost sums only add such monomials.

*The exponent floor.*  The deepest exponent the series path forms at a
level is ``p^(s-1-i)`` times slot ``i``'s lowest exponent there, minimized
over the kept slots: every monomial is bounded below as above, and the
slot's own last ghost power ``x_{j,i}^(p^(s-1-i))`` reaches it (the part of
``x`` at its lowest level-``l`` exponent has unit coefficients, so its
power is not zero mod ``p``).  The flat engine refuses with
:class:`~rswan.errors.ExponentOutOfRange` exactly when that exponent is
below the supported range, as the series path does.

Reduction
---------
Slots are reduced in standard order ``x_0, x_1, ...`` (internal ``s - 1`` down
to 0).  With ``E`` nonzero only in standard slot ``j``, ``E - F(E)`` lies in
``V^j W``: adding it leaves ``x_0, ..., x_{j-1}`` alone, adds ``U - U^p`` to
``x_j`` and carries only into lighter slots.  So a slot is first reduced as
one series, ``x <- x - u^p + u`` for each removable term, collecting ``U``,
then takes one combination ``a - F(E) + E``, after which slot ``j`` must
agree with the series-level result.  That combination runs on the moved
slots alone: write ``a = (a_<j, a_>=j)`` and ``E = V^j(e)`` with ``e`` the
length-``(s - j)`` tail of ``E``.  For any ``b``, ``(a_<j, 0) + V^j(b) =
(a_<j, b)`` (a Witt vector is ``sum_n V^n [x_n]``), and ``V^j`` is additive
and commutes with ``F`` in characteristic ``p``, so

    ``a - F(E) + E = (a_<j, 0) + V^j(a_>=j - F(e) + e) = (a_<j, a_>=j - F(e) + e)``:

the heavier slots are kept as they are, and the moved ones are the
length-``(s - j)`` combination of the tails (internal ``comps[:i + 1]`` for
``i = s - 1 - j``).  So the windows of the heavier slots never narrow the
tail's.  The weight-1 slot (internal 0) carries into nothing and takes the
series-level result directly, so at ``s = 1`` no combination runs.

The series-level reduction (``_reduce_slot``) is one ascending sweep over a
heap of the negative exponents divisible by ``p``.  The term ``c_e T^e`` is
removable when its root ``u`` (``pth_root`` with ``skip_prime_to_p`` and
``skip_non_powers``, at any level) is not exactly zero: a root zero only
within an inner window moves with that window, since a completion may hide
a p-th power there.  Removing it sets
``c_e <- c_e - F(u)`` and ``c_{e/p} <- c_{e/p} + u``, pushes ``e/p`` when it
is new and adds ``u T^(e/p)`` to ``U``.  Those are the coefficient operations
of ``x - u^p + u``.  A removal only adds at ``e/p > e``, so no exponent
already passed gains a term again, and its root is then exactly zero or zero
within the window it had, whose removal would change nothing: the sweep
removes the same terms in the same order as rescanning from the deepest
pole after each removal, and it ends, because every pushed exponent is
larger and still negative.

*The ceiling plan.*  A window puts the combination of a moved tail of
length ``L`` with ``F(e)`` and ``e`` on the series path.  There ``z_n`` is
one linear combination divided by ``p^n`` and reduced, so its ceiling is
its terms' least (no multiplier ``p^i``, ``i < L``, vanishes mod ``p^L``),
and a product has the ceiling ``min(ceil(x) + low(y), ceil(y) + low(x))``,
so ``y^q`` has ``(q - 1) low(y) + ceil(y)`` if ``low(y^j) = j low(y)``,
and at least that if ``low(y^j) >= j low(y)``.  :func:`_refuse_if_planned`
bounds each standard output slot ``n`` first, ``LB_n <= ceil(z_n) <= UB_n``:

* ``UB_n`` is the least ceiling of the input terms ``x^(p^(n-i))``, over
  the windowed components ``x`` of slots ``i <= n``; it is exact, as the
  lead of a lifted field coefficient is a unit at every level (or zero
  only within a window, and then stored).  ``e`` and ``F(e)`` are exact.
* ``LB_n = min(UB_n, (p^(n-k) - 1) L_k + LB_k)`` over ``k < n`` bounds the
  terms ``z_k^(p^(n-k))``: by the weight argument of "The exponent floor",
  ``L_k = min(LB_k, p^(k-i) low(x))``, over the components ``x`` of slots
  ``i <= k`` that are not exactly zero, bounds ``low(z_k)`` (``LB_k`` for a
  ``z_k`` zero within its window).  Cancellation in ``z_k`` or a non-unit
  lead raises those ceilings, so ``UB_n`` alone can be too high.

In the check's order, internal slot 0 first, a slot with ``LB_n > 0``
passes, and one with ``LB_n = UB_n <= 0`` is the check's refusal
``_uncovered_polar_part(index, UB_n)``, raised without combining; any other
slot leaves the decision to the combination.  Over ``F_p(x)`` the plan
raises the combination's ``TowerMismatch`` first.  Nothing is planned when
no input has a top ceiling (inner windows never make one), or when
``p^(L-1-i)`` times a component's
least exponent at some level is below the supported range: the combination
raises its :class:`~rswan.errors.ExponentOutOfRange` ("The exponent floor").
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass

from . import _kernels
from .errors import (
    ExponentOutOfRange,
    InconsistentValue,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
)
from .ratfunc import _algebra_refused
from .scalars import _QuotientDomain, galois_ring_domain, power
from .series import (
    _ORD_FLOOR,
    NestedSeries,
    _build,
    _level_lows,
    _make,
    _refuse_below_floor,
    linear_combination,
)
from .tower import FieldTower

__all__ = [
    "WittVector",
    "Character",
    "ghost_component",
    "witt_combine",
    "witt_frobenius",
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
    if a.domain is lift_domain:
        return a
    if a.level == 1:
        return _make(1, lift_domain, a.coeffs, a.ceiling, clean=True)
    coeffs = {e: lift_series(c, lift_domain) for e, c in a.coeffs.items()}
    return _make(a.level, lift_domain, coeffs, a.ceiling, clean=True)


def reduce_series(a: NestedSeries, field_domain) -> NestedSeries:
    """Coefficientwise reduction mod p of a lift-ring series."""
    return _map_raw(a, a.domain.reduce_mod_p, field_domain)


# ------------------------------------------------------------ ghost recursion

def _ghost_terms(xs, n: int, p: int, c: int) -> list:
    """``(c * p^i, x_i, p^(n-i))`` for the standard-order components
    ``x_i``, ``i <= n``, of ``xs``: the terms ``c p^i x_i^(p^(n-i))`` of
    ``c W_n``."""
    return [(c * p**i, x, p ** (n - i)) for i, x in enumerate(xs[: n + 1])]


def _series_ghost_sum(level: int, domain, terms) -> NestedSeries:
    """``sum c * x^e`` over ``(c, x, e)`` terms of series, as one
    :func:`~rswan.series.linear_combination`; exactly zero ``x`` are
    skipped."""
    return linear_combination(
        level, domain, [(c, x.pow(e)) for c, x, e in terms if not x.is_exact_zero()]
    )


def ghost_component(xs, n: int, p: int, zero: NestedSeries) -> NestedSeries:
    """``zero + sum_{i<=n} p^i * xs[i]^(p^(n-i))`` over the standard-order
    components ``xs`` present (all of them when ``len(xs) <= n``), as one
    :func:`~rswan.series.linear_combination`; exactly zero components are
    skipped."""
    return _series_ghost_sum(zero.level, zero.domain, [(1, zero, 1)] + _ghost_terms(xs, n, p, 1))


def _ghost_recursion(vectors, s: int, p: int, ghost_sum, merge: bool) -> list:
    """``[z_0, ..., z_{s-1}]`` for ``(c_j, xs_j)`` pairs of multipliers and
    standard-order components: ``z_n = (sum_j c_j W_n(xs_j) - sum_{i<n} p^i
    z_i^(p^(n-i))) / p^n`` (module docstring, "Arithmetic").
    ``ghost_sum(terms, q)`` sums the ``(c, x, e)`` terms ``c x^e`` of one
    representation (series or flat raw maps) and divides the sum by ``q``;
    with ``merge``, equal slot terms of flat raw maps are merged
    (:func:`_merge_slot`).
    """
    z: list = []
    # one multiplier per slot for each input and for z; a merged term has 0
    owners = [([cj] * s, xs) for cj, xs in vectors] + [([-1] * s, z)]
    for n in range(s):
        terms: list = []
        for cs, xs in owners:
            terms += [(cs[i] * p**i, x, p ** (n - i)) for i, x in enumerate(xs[: n + 1]) if cs[i]]
        z.append(ghost_sum(terms, p**n))
        if merge and n < s - 1:
            _merge_slot(owners, n, s, p)
    return z


def _merge_slot(owners, i: int, s: int, p: int):
    """Once ``z_i`` is known, sum the multipliers of equal nonzero flat
    slot-``i`` terms into the first of them, in the order the terms are
    summed; a term whose multiplier is 0 is left out.  The slot is compared
    only when its last power ``q`` is at least ``p^2``, or when the
    combination has at most two inputs and just two of its terms can merge
    (module docstring, "Arithmetic")."""
    q = p ** (s - 1 - i)  # the power slot i reaches at the last ghost index
    if q < p * p and len(owners) > 3:  # more than two inputs beside z
        return
    held = [(cs, xs[i]) for cs, xs in owners if cs[i] and xs[i]]
    if len(held) < 2 or (q < p * p and len(held) > 2):
        return
    for a, (cs, x) in enumerate(held):
        if not cs[i]:
            continue
        for other, y in held[a + 1:]:
            if other[i] and x == y:
                cs[i] += other[i]
                other[i] = 0


def witt_combine(comps_list, ints, p: int):
    """Integer combination ``sum_j ints[j] * vec_j`` of Witt vectors.

    Each entry of ``comps_list`` is a component tuple in internal order; all
    must share one length and one coefficient domain.  Length 1 is one
    linear combination of the components; longer vectors go through the
    ghost recursion over the length-``s`` lift ring and need finite-field
    coefficients: on flat raw maps when every component is exact, else on
    series (module docstring, "Arithmetic").  ``F_p(x)`` coefficients raise
    ``TowerMismatch`` at any length.
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
    if not isinstance(domain, _QuotientDomain):
        raise _algebra_refused()
    if domain.s != 1:
        raise TowerMismatch("length-s Witt arithmetic needs finite-field coefficients")
    lift = galois_ring_domain(p, domain.k, s)
    # standard order (x_0 first); an input whose multiplier vanishes mod p^s
    # takes no part
    kept = [(cj, comps[::-1]) for cj, comps in zip(ints, comps_list) if cj % lift.modulus]
    flat = _flat_components(kept, s, p, level)
    if flat is not None:
        return _flat_combine(flat, s, p, level, lift, domain)
    vectors = [(cj, [lift_series(x, lift) for x in xs]) for cj, xs in kept]
    z = _ghost_recursion(
        vectors, s, p,
        lambda terms, q: _divide_by_int(_series_ghost_sum(level, lift, terms), q),
        merge=False,
    )
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
                raise _not_divisible(n)
        return cs[0] // n if domain.k == 1 else tuple([c // n for c in cs])

    return _map_raw(a, div_raw, domain)


def _not_divisible(n: int) -> RswanError:
    return RswanError(
        f"ghost recursion produced a coefficient not divisible by {n} (internal error)"
    )


# --------------------------------------------------------- flat raw engine

def _digit_radix(bound: int) -> int:
    """Radix of a balanced digit in ``[-bound, bound]``."""
    return 2 * bound + 1


def _flat_components(kept, s: int, p: int, level: int):
    """``(vectors, weights, lows)``: the ``(c_j, xs_j)`` pairs with each
    component written as one flat level-1 map of raw coefficients, and the
    digit weights and offsets that decode it (module docstring,
    "Arithmetic"); ``None`` when some component has a window at any level.

    Refuses, as the series path does, an input whose last ghost power would
    reach below the supported exponent range.
    """
    if level == 1:
        deepest = 0
        for _, xs in kept:
            for i, x in enumerate(xs):
                if x.ceiling is not None:
                    return None
                if x.coeffs:
                    # the lowest exponent of x's last ghost power
                    deepest = min(deepest, p ** (s - 1 - i) * min(x.coeffs))
        _refuse_below_floor(deepest)
        return [(cj, [x.coeffs for x in xs]) for cj, xs in kept], None, None
    deepest = [0] * (level + 1)
    bounds = [0] * level  # bounds[l], 0 < l < level: B_l
    for _, xs in kept:
        for i, x in enumerate(xs):
            if x.ceiling is not None:
                return None
            if not x.coeffs:
                continue
            q = p ** (s - 1 - i)  # the exponent of x's last ghost power
            lows = [0] + [sys.maxsize] * (level - 1) + [min(x.coeffs)]
            highs = [0] + [-sys.maxsize] * level
            if not _kernels._inner_extent(x.coeffs, level, lows, highs):
                return None
            for l in range(1, level):
                bounds[l] = max(bounds[l], q * max(-lows[l], highs[l]))
            for l in range(1, level + 1):
                deepest[l] = min(deepest[l], q * lows[l])
    _refuse_below_floor(min(deepest))
    weights = [0, 1]
    for l in range(1, level):
        weights.append(weights[l] * _digit_radix(bounds[l]))
    zeros = [0] * (level + 1)
    vectors = []
    for cj, xs in kept:
        flats = []
        for x in xs:
            out: dict = {}
            _kernels._flatten(x.coeffs, level, zeros, weights, 0, out)
            flats.append(out)
        vectors.append((cj, flats))
    return vectors, weights, [0] + [-b for b in bounds[1:]] + [0]


def _raw_pow(domain, x: dict, n: int) -> dict:
    """``x^n`` for ``n >= 1`` by square-and-multiply over
    :func:`~rswan._kernels._level_one_mul` (exact: no ceiling)."""
    return power(x, n, lambda a, b: _kernels._level_one_mul(domain, a, b, None))


def _flat_ghost_sum(lift, terms, q: int, mod: int, packed: bool) -> dict:
    """``sum c * x^e`` over ``(c, x, e)`` terms of flat raw maps, reduced
    mod ``mod`` (a multiple of ``q`` that divides ``p^s``) and divided
    exactly by ``q``; a term with ``c`` zero mod ``mod`` or ``x`` exactly
    zero is skipped (``x^1`` is ``x`` itself).  With ``packed`` (decided
    once per combination by :func:`rswan._kernels._ghost_sum_packs`) a sum
    with a power above 1 is one packed int
    (:func:`rswan._kernels._packed_ghost_sum`); every other sum is the dict
    loop below."""
    if packed and any(e > 1 and x and c % mod for c, x, e in terms):
        out = _kernels._packed_ghost_sum(lift, terms, q, mod)
        if out is None:
            raise _not_divisible(q)
        return out
    k = lift.k

    def powers():
        for c, x, e in terms:
            c %= mod
            if c and x:
                yield c, x if e == 1 else _raw_pow(lift, x, e)

    acc: dict = {}
    out = {}
    if k == 1:
        for c, power in powers():
            for ex, v in power.items():
                acc[ex] = acc[ex] + c * v if ex in acc else c * v
        for ex, v in acc.items():
            v %= mod
            if v:
                if v % q:
                    raise _not_divisible(q)
                out[ex] = v // q
        return out
    for c, power in powers():  # one int per g-coordinate
        for ex, v in power.items():
            if ex in acc:
                acc[ex] = [a + c * b for a, b in zip(acc[ex], v)]
            else:
                acc[ex] = [c * b for b in v]
    for ex, v in acc.items():
        v = [a % mod for a in v]
        if any(v):
            if any(a % q for a in v):
                raise _not_divisible(q)
            out[ex] = tuple([a // q for a in v])
    return out


def _digit_offset(level: int, weights) -> int:
    """``sum_{l<d} B_l W_l = (W_d - 1) / 2``, as ``W_{l+1} - W_l = 2 B_l
    W_l``: added to a flat exponent, it makes every balanced digit a plain
    one (module docstring, "Arithmetic"); 0 at ``d = 1``."""
    return 0 if level == 1 else (weights[level] - 1) // 2


def _flat_series(level: int, domain, flat_map: dict, weights, lows) -> NestedSeries:
    """The exact series over ``domain`` whose flat raw map, with
    :func:`_digit_offset` added to every exponent, is ``flat_map``."""
    if level > 1:
        flat_map = _build(level, domain, _kernels._unflatten(level, flat_map, weights, lows))
    return _make(level, domain, flat_map, None, clean=True)


def _flat_combine(flat, s: int, p: int, level: int, lift, field):
    """:func:`witt_combine` of exact components, the ghost recursion run on
    the flat raw maps of :func:`_flat_components` with each ``z_n`` reduced
    mod p as it is divided; each result series is built once."""
    vectors, weights, lows = flat
    maps = (x for _, xs in vectors for x in xs)
    packed = _kernels._ghost_sum_packs(level, maps, p ** (s - 1), lift.k)
    z = _ghost_recursion(
        vectors, s, p, lambda terms, q: _flat_ghost_sum(lift, terms, q, p * q, packed),
        merge=True,
    )
    half = _digit_offset(level, weights)
    return tuple(
        _flat_series(level, field, {ex + half: v for ex, v in zi.items()} if half else zi,
                     weights, lows)
        for zi in reversed(z)
    )


def _last_ghost_component(xs, p: int, lift) -> NestedSeries:
    """``W_{s-1} = sum_i p^i lift(x_i)^(p^(s-1-i))`` over the length-``s``
    lift ring, for the standard-order components ``xs`` of a vector over a
    finite field: one ghost sum on the flat raw maps when every component
    is exact and the flat floor check passes, else
    :func:`ghost_component` over the lifted components, so that every
    refusal is the series path's (module docstring, "Arithmetic")."""
    s, level = len(xs), xs[0].level
    if s == 1:
        return lift_series(xs[0], lift)
    try:
        flat = _flat_components([(1, xs)], s, p, level)
    except ExponentOutOfRange:
        flat = None
    if flat is None:
        lifted = [lift_series(x, lift) for x in xs]
        return ghost_component(lifted, s - 1, p, NestedSeries.zero(level, lift))
    [(_, flats)], weights, lows = flat
    theta = _flat_ghost_sum(lift, _ghost_terms(flats, s - 1, p, 1), 1, lift.modulus,
                            _kernels._ghost_sum_packs(level, flats, p ** (s - 1), lift.k))
    half = _digit_offset(level, weights)
    if half:
        theta = {ex + half: v for ex, v in theta.items()}
    return _flat_series(level, lift, theta, weights, lows)


def witt_frobenius(comps):
    """Componentwise p-th power (valid over rings of characteristic p)."""
    return tuple(c.frobenius() for c in comps)


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
            "window tails could carry deeper polar terms than the stored data",
            exponent=bound,
        )
    return sw_known


# ----------------------------------------------------------- reduction loop

def _uncovered_polar_part(index: int, ceiling: int) -> PrecisionExhausted:
    """The refusal of a component ``index`` known only below ``ceiling <= 0``."""
    return PrecisionExhausted(
        f"component {index} is only known below order {ceiling}; "
        "its polar part cannot be certified",
        exponent=ceiling,
    )


def _check_windows_cover_polar_part(comps):
    for i, c in enumerate(comps):
        if c.ceiling is not None and c.ceiling <= 0:
            raise _uncovered_polar_part(i, c.ceiling)


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
            if u.is_exact_zero():  # a root zero only within its window still moves
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
    return _make(level, domain, coeffs, x.ceiling), _make(level, domain, u_coeffs, None)


def _refuse_if_planned(comps_list, p: int):
    """Raise the refusal that the check after the reduction combination
    ``witt_combine(comps_list, [1, -1, 1], p)`` raises, when the output
    slots' ceiling intervals decide it (module docstring, "Reduction")."""
    if not isinstance(comps_list[0][0].domain, _QuotientDomain):
        raise _algebra_refused()  # the refusal of witt_combine, before any plan
    if all(x.ceiling is None for comps in comps_list for x in comps):
        return
    inputs = [comps[::-1] for comps in comps_list]  # standard order
    length, upper, lower, low = len(inputs[0]), [], [], []
    for n in range(length):
        slots = [(p ** (n - i), x) for xs in inputs for i, x in enumerate(xs[:n + 1])]
        upper.append(min([(q - 1) * x.low() + x.ceiling for q, x in slots
                          if x.ceiling is not None], default=float("inf")))
        lower.append(min([upper[n]] + [(p ** (n - k) - 1) * low[k] + lower[k] for k in range(n)]))
        low.append(min([lower[n]] + [q * x.low() for q, x in slots if not x.is_exact_zero()]))
    for index, n in enumerate(reversed(range(length))):  # the check's order
        if lower[n] <= 0:
            if lower[n] != upper[n] or min(
                    p ** (length - 1 - i) * min(_level_lows(x, {}).values())
                    for xs in inputs for i, x in enumerate(xs) if x.coeffs) < _ORD_FLOOR:
                return  # undecided, or the combination raises ExponentOutOfRange
            raise _uncovered_polar_part(index, upper[n])


def asw_reduce_components(comps, p: int):
    """Remove every removable polar term, one slot at a time (module docstring)."""
    _check_windows_cover_polar_part(comps)
    comps = tuple(comps)
    for i in reversed(range(len(comps))):
        reduced, total = _reduce_slot(comps[i])
        if i == 0 or total is None:
            comps = comps[:i] + (reduced,) + comps[i + 1:]
            continue
        # the length-(i + 1) tail e of E, with E = V^j(e): only the slots E moves
        e = (NestedSeries.zero(total.level, total.domain),) * i + (total,)
        combination = [comps[:i + 1], witt_frobenius(e), e]
        _refuse_if_planned(combination, p)
        moved = witt_combine(combination, [1, -1, 1], p)
        if not moved[i].agrees_with(reduced):
            raise RswanError("a coboundary moved a slot unpredictably (internal error)")
        comps = moved + comps[i + 1:]
        _check_windows_cover_polar_part(comps)
    return comps


# ------------------------------------------------------------- tower layer

@dataclass(frozen=True)
class WittVector:
    """A length-``tower.s`` Witt vector of series over ``tower``.

    ``zero``, ``is_zero`` and ``agrees_with`` are kept with ``+``, ``-``
    and ``frobenius`` as the ring API of a public class, although inside
    the package only the tests call them.
    """

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
