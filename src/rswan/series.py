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
(inversion, substitution through non-monomial images) and propagate by
window intersection.  Operations that cannot certify a result raise
:class:`PrecisionExhausted` instead of truncating silently.

Multiplication
--------------
Every product with more than one term pair over ``(Z/p^s)[g]/(f)`` (``F_q``
and its lifts, ``k = deg f``) goes through a level-1 kernel.

* **Kronecker** (at least ``_KRONECKER_MIN_PAIRS`` term pairs, and no more
  exponent slots than term pairs).  Each operand, trimmed to the exponents
  the result ceiling can use, is packed into one Python int with one slot
  per exponent (``2k - 1`` sub-slots, one per power of ``g``, when
  ``k > 1``); the two ints are multiplied once, and the slots of the
  product are read back, reduced mod ``p^s`` and, for ``k > 1``, folded
  through the reduction rows of ``f`` column by column.  No slot carries
  into the next: a product slot sums at most ``min(len) * k`` products of
  two residues below ``p^s``, so a slot of ``min(len) * k * (p^s - 1)^2``
  (rounded up to 1, 2, 4 or 8 bytes) holds it.  A square (``x * x``, as
  ``pow`` runs it) packs its operand once and squares that int.
* **The int loop** (``_int_mul``, the other products).  It runs over the
  term pairs and sums each exponent in plain ints, reduced once per
  exponent; at ``k > 1`` each coefficient is one int with a slot per power
  of ``g``, so a pair costs one int product.
* **Flat products at levels >= 2** (``_flat_mul``), when both operands have
  exact inner coefficients and there are at least ``_FLAT_MIN_PAIRS`` term
  pairs.  Each operand is written once as a level-1 map with mixed-radix
  exponents ``E = e_d R_{d-1} + sum_{j<d} (e_j - lo_j) R_{j-1}``, where
  ``lo_j`` is the operand's least level-``j`` exponent, ``R_0 = 1`` and
  ``R_j = R_{j-1} (span_a + span_b + 1)`` with the two operands' level-``j``
  exponent spans.  A product digit ``e_j + e'_j - lo_j - lo'_j`` lies in
  ``[0, span_a + span_b]``, below its radix, so no digit carries into the
  next and ``E`` determines every exponent; the top digit is
  ``floor(E / R_{d-1})``, so an outer ceiling ``c`` is the flat ceiling
  ``c R_{d-1}``.  One level-1 product runs (a square flattens its operand
  once), and its terms are unpacked into nested maps, each inner series
  built once.  The Witt layer's ghost
  recursion is the second user of this flattening (:mod:`rswan.witt`,
  "Arithmetic"): it writes its exact inputs once, with balanced digits
  sized for the whole recursion, and runs every product on level-1 maps.

What falls back to the dict loop ``_schoolbook_mul``, which stays as the
reference: single-pair products; products at levels >= 2 with fewer than
``_FLAT_MIN_PAIRS`` term pairs (``bench/series_mul.py`` measures the gate,
BENCH_11.json) or with an inner coefficient that has a window; and
``F_p(x)`` coefficients.  Results of ring operations are built by
``_make``, which skips the per-entry checks of ``__init__`` but still drops
zeros, cuts at the ceiling and refuses exponents below the supported range
before it builds anything; the kernels and :func:`linear_combination` return
maps that are already clean, which it takes as they are (``clean=True``),
and the Witt layer builds its lifts, reductions and divisions through it as
well.  It never
stores an exactly zero inner coefficient (``is_exact_zero`` relies on it).
It fills a private draft twin of ``NestedSeries`` (``scalars._draft_of``:
the same ``__slots__``, plain stores) and then assigns the public class to
the object, which CPython allows between classes of one layout; the result
is a ``NestedSeries`` whose ``__setattr__`` and ``__delattr__`` raise like
any other's (``scalars._Frozen``).  Four stores through
``object.__setattr__`` cost about twice as much, and only ``__init__``
(which ``_make`` fills through ``out``) still pays them.  It is the one
route that validates: int exponents and ceiling, inner series over the same
domain, reduced raws over ``(Z/p^s)[g]/(f)`` (``F_p(x)`` raws unchecked).

Linear combinations
-------------------
:func:`linear_combination` computes ``sum_j n_j x_j`` in one pass.  It takes
the least ceiling of all the ``x_j`` and cuts at it.  A multiplier that
vanishes in the ring (mod ``p^s``, or mod ``p`` over ``F_p(x)``) adds only
that ceiling, as ``x.mul_int(n)`` does.  At level 1 over
``(Z/p^s)[g]/(f)`` every exponent is summed in plain ints (one int per
``g``-coordinate at ``k > 1``) and reduced once; over ``F_p(x)`` the
domain's ``mul_int`` and ``add`` run in the same single pass.  At levels
>= 2 the terms are grouped by top exponent and each group is combined one
level down, with the least inner ceiling of the group; an inner result is
dropped only when it is exactly zero.  The value and every ceiling equal
those of folding ``acc + x.mul_int(n)``, which the tests keep as the
reference; ``__add__`` itself still makes one domain call per colliding
entry.

Division
--------
Write ``f = c T^v (1 + sum_i b_i T^i)``.  A quotient ``a / f`` on a window
of width ``w`` is unique, so every method that computes it exactly gives
the same series.  One recurrence computes it, power-series division
(Knuth, TAOCP vol. 2, sec. 4.7): with ``a`` read from its least exponent,
``d_n = c^-1 a_n - sum_{0 < i <= n} b_i d_{n-i}`` over the stored terms of
``[v, v + w)``, ``O(w * terms)`` coefficient operations.  At level 1 over
``Z/p^s`` (``k = 1``) each ``d_n`` is summed in plain ints and reduced
once; ``k > 1`` tuples and ``F_p(x)`` coefficients go through their
domain's operations, one per term pair, with no packing.  At levels >= 2
the coefficients are level-``(l-1)`` series, ``c^-1`` is the inverse of
``c`` at its own level, and the sum skips only an *exactly* zero
``d_{n-i}``: one that is zero within a window still carries that window
into ``d_n``, and skipping it would claim knowledge the window lacks.  A
product of factors is divided by one factor after the other, on the same
``w`` coefficients, each pass starting at the factor's least exponent gap;
the product of the ``c^-1`` scales ``a`` once.  The recurrence has two
callers.

* **Inversion** divides ``1``: ``inv`` is known on ``[-v, -v + w)``, with
  ``w`` the input's own width, or ``precision`` for an exact input.  The
  cost is paid on every exponent of the window even when the inverse is
  sparse, so Newton's iteration is faster on level-1 inputs of two to four
  terms at width 1024 (bench/conductor_change.py); the workloads invert at
  widths up to 64.  A zero input raises ``ZeroInput``, an exact input of
  several terms with no width raises ``PrecisionExhausted``, and a single
  exact term inverts exactly.
* **Substitution** (:mod:`rswan.substitution`) divides the Horner sum of
  the poles by ``img^n`` without forming that power: in characteristic
  ``p``, with ``n = sum_j d_j p^j``, ``img^n`` is the product of the
  Frobenius twists ``F^j(img^(d_j))``, each as short as ``img^(d_j)``, one
  factor per nonzero digit.

Over a lift ring ``(Z/p^s)[g]/(f)`` a level-1 series is a unit as soon as
one coefficient is, even when the lowest is not.  Split ``a = N + H``: ``H``
holds the terms from the lowest unit coefficient on, with the ceiling, and
``N`` the terms below it, all in ``p R``.  Then ``(N H^-1)^s = 0`` and
``a^-1 = H^-1 sum_{k<s} (-N H^-1)^k``, computed by the ring operations, so
the windows propagate by the usual rules.  With no unit coefficient stored,
an exact input raises ``ZeroInput`` (it is nilpotent) and a windowed one
``PrecisionExhausted`` (its unknown tail decides).
"""

from __future__ import annotations

import operator
import sys
from array import array

from .errors import ExponentOutOfRange, NoPthRoot, PrecisionExhausted, TowerMismatch, ZeroInput
from .scalars import _Frozen, _QuotientDomain, _draft_of, power

__all__ = [
    "NestedSeries",
    "linear_combination",
]

_ORD_FLOOR = -10_000
# Series and forms are immutable (scalars._Frozen), so the validating
# __init__s store through this.  The trusted constructors build a draft
# twin instead (module docstring, "Multiplication").
_set = object.__setattr__


def _min_ceiling(*cs):
    finite = [c for c in cs if c is not None]
    return min(finite) if finite else None


def _make(level: int, domain, coeffs: dict, ceiling: int | None, out=None, *,
          clean: bool = False) -> "NestedSeries":
    """Trusted constructor for the result of an operation on valid series.

    The operands passed ``_check_compatible`` (or there is one operand), so
    the per-entry type and level checks of ``NestedSeries.__init__`` are
    skipped; zeros are still dropped, the ceiling still cuts and an exponent
    below the supported range still raises :class:`ExponentOutOfRange`.
    ``__init__`` passes itself as ``out`` once it has made those checks.
    ``clean`` says that ``coeffs`` holds no zero and nothing at or above the
    ceiling, as the product kernels return it; it is then stored as it is.
    """
    if not clean:
        kept = {}
        if level > 1:
            # Only an *exactly* zero coefficient may be dropped.  A slot that
            # is zero merely within a finite window stays stored: absent slots
            # read back as exact zeros, so pruning it would claim knowledge
            # beyond the slot's inner ceiling.
            for e, c in coeffs.items():
                if (ceiling is None or e < ceiling) and not c.is_exact_zero():
                    kept[e] = c
        elif isinstance(domain, _QuotientDomain):
            # Raw ints and tuples: comparing with the raw zero is the zero
            # test, without a method call per entry.
            zero = domain.zero()
            for e, c in coeffs.items():
                if c != zero and (ceiling is None or e < ceiling):
                    kept[e] = c
        else:
            is_zero = domain.is_zero
            for e, c in coeffs.items():
                if (ceiling is None or e < ceiling) and not is_zero(c):
                    kept[e] = c
        coeffs = kept
    if coeffs and min(coeffs) < _ORD_FLOOR:
        _refuse_below_floor(min(coeffs))
    if out is not None:
        _set(out, "level", level)
        _set(out, "domain", domain)
        _set(out, "coeffs", coeffs)
        _set(out, "ceiling", ceiling)
        return out
    out = _SeriesDraft()
    out.level = level
    out.domain = domain
    out.coeffs = coeffs
    out.ceiling = ceiling
    out.__class__ = NestedSeries
    return out


def _is_lift_non_unit(domain, c) -> bool:
    """Whether the raw scalar ``c`` lies in ``p (Z/p^s)[g]/(f)`` for a lift
    ring (``s > 1``): a non-unit, nilpotent since ``p^s = 0``."""
    return (isinstance(domain, _QuotientDomain) and domain.s > 1
            and domain.is_zero(domain.reduce_mod_p(c)))


def _refuse_below_floor(e: int):
    """Raise :class:`ExponentOutOfRange` when ``e`` is below the supported
    range of exponents."""
    if e < _ORD_FLOOR:
        raise ExponentOutOfRange(f"exponent {e} below the supported range (>{_ORD_FLOOR})")


# Below this many term pairs the int loop is as fast as packing or faster;
# measured with bench/series_mul.py (BENCH_11.json: the median over the
# crossover cells turns at 64 pairs; windowed k = 1 cells turn near 100).
_KRONECKER_MIN_PAIRS = 64
# Below this many term pairs a product at level >= 2 keeps the loop over
# them; measured with bench/series_mul.py (BENCH_11.json).
_FLAT_MIN_PAIRS = 4
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


def _level_one_mul(domain, a: dict, b: dict, ceiling: int | None) -> dict:
    """Coefficient map of a level-1 product over ``(Z/p^s)[g]/(f)``, by the
    kernel that suits it (zeros dropped)."""
    if len(a) * len(b) >= _KRONECKER_MIN_PAIRS and _kronecker_applies(domain, a, b):
        return _kronecker_mul(domain, a, b, ceiling)
    return _int_mul(domain, a, b, ceiling)


def _int_mul(domain, a: dict, b: dict, ceiling: int | None) -> dict:
    """Coefficient map of a level-1 product over ``(Z/p^s)[g]/(f)``, term
    pair by term pair, each exponent summed in plain ints and reduced once
    (zeros dropped).

    At ``k > 1`` a coefficient is one int with a slot per power of ``g``
    (:func:`_pack_g`), so one int product convolves two coefficients; an
    exponent sums at most ``min(len)`` pairs, which sets the slot width
    (:func:`_g_width`), and :func:`_g_reducer` folds and reduces each sum.
    A square (``a is b``) packs its coefficients once.
    """
    cut = sys.maxsize if ceiling is None else ceiling
    k, m = domain.k, domain.modulus
    acc: dict = {}
    if k == 1:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                if e < cut:
                    acc[e] = acc[e] + ca * cb if e in acc else ca * cb
        out = {}
        for e, v in acc.items():
            v %= m
            if v:
                out[e] = v
        return out
    w = _g_width(domain, min(len(a), len(b)))
    packed_b = [(eb, _pack_g(cb, w)) for eb, cb in b.items()]
    packed_a = packed_b if a is b else [(ea, _pack_g(ca, w)) for ea, ca in a.items()]
    for ea, x in packed_a:
        for eb, y in packed_b:
            e = ea + eb
            if e < cut:
                acc[e] = acc[e] + x * y if e in acc else x * y
    reduce = _g_reducer(domain, w)
    out = {}
    for e, v in acc.items():
        coeff = reduce(v)
        if any(coeff):
            out[e] = coeff
    return out


def _pack_g(coeff, w: int) -> int:
    """``sum_i coeff[i] 2^(i w)``: a raw coefficient in ``w``-bit slots."""
    v = 0
    for x in reversed(coeff):
        v = (v << w) | x
    return v


def _g_width(domain, terms: int) -> int:
    """Slot width for a sum of ``terms`` products of reduced coefficients
    packed by :func:`_pack_g`, folded through the rows of ``f``: a product
    slot sums at most ``k`` products below ``m^2``, and the fold adds
    ``k - 1`` slots times a row entry below ``m``, so no slot carries."""
    k, m = domain.k, domain.modulus
    return (max(terms, 1) * k * (m - 1) ** 2 * (1 + (k - 1) * (m - 1))).bit_length()


def _g_reducer(domain, w: int):
    """The map from such a packed sum (slots ``0 .. 2k - 2``) to its raw
    value in ``(Z/p^s)[g]/(f)``, ``k > 1``."""
    k, m = domain.k, domain.modulus
    mask, low = (1 << w) - 1, (1 << (k * w)) - 1
    rows = [(d * w, _pack_g(row, w)) for d, row in enumerate(domain._red_rows, k)]
    shifts = range(0, k * w, w)

    def reduce(v: int) -> tuple:
        r = v & low
        for shift, row in rows:
            r += ((v >> shift) & mask) * row
        return tuple([((r >> j) & mask) % m for j in shifts])

    return reduce


def _level_lows(sr: "NestedSeries", lows: dict) -> dict:
    """``{level: least stored exponent}`` over every level of ``sr``."""
    if sr.coeffs:
        low = min(sr.coeffs)
        if sr.level not in lows or low < lows[sr.level]:
            lows[sr.level] = low
        if sr.level > 1:
            for c in sr.coeffs.values():
                _level_lows(c, lows)
    return lows


def _inner_extent(coeffs: dict, level: int, lows: list, highs: list) -> bool:
    """Widen ``lows[l]``/``highs[l]`` to the level-``l`` exponents of a
    nested coefficient map at ``level >= 2``, for ``l < level``; ``False``
    when an inner coefficient has a window."""
    for c in coeffs.values():
        if c.ceiling is not None:
            return False
        inner = c.coeffs
        lo, hi = min(inner), max(inner)
        if lo < lows[level - 1]:
            lows[level - 1] = lo
        if hi > highs[level - 1]:
            highs[level - 1] = hi
        if level > 2 and not _inner_extent(inner, level - 1, lows, highs):
            return False
    return True


def _flatten(coeffs: dict, level: int, lows: list, weights: list, base: int, out: dict):
    """Write the monomials of a nested coefficient map into the level-1 map
    ``out`` at the exponents ``base + sum_l (e_l - lows[l]) * weights[l]``."""
    w, lo = weights[level], lows[level]
    if level == 1:
        for e, c in coeffs.items():
            out[base + e - lo] = c
    else:
        for e, c in coeffs.items():
            _flatten(c.coeffs, level - 1, lows, weights, base + (e - lo) * w, out)


def _build(level: int, domain, nested: dict) -> dict:
    """Coefficient map at ``level`` of exact inner series from nested dicts."""
    if level == 2:
        return {e: _make(1, domain, inner, None, clean=True) for e, inner in nested.items()}
    return {e: _make(level - 1, domain, _build(level - 1, domain, inner), None, clean=True)
            for e, inner in nested.items()}


def _flat_mul(level: int, domain, a: dict, b: dict, ceiling: int | None) -> dict | None:
    """Coefficient map of a product at ``level >= 2`` through one level-1
    product (module docstring, "Multiplication"); ``None`` when an inner
    coefficient has a window."""
    # lows[l], highs[l]: level-l exponent range for 0 < l < level; the top
    # exponent keeps offset 0, so that a ceiling c reads c * weights[level].
    lows_a = [0] + [sys.maxsize] * (level - 1) + [0]
    highs_a = [0] + [-sys.maxsize] * (level - 1) + [0]
    lows_b, highs_b = list(lows_a), list(highs_a)
    if not _inner_extent(a, level, lows_a, highs_a):
        return None
    if a is b:  # a square: one extent, one flattening and one packing
        lows_b, highs_b = lows_a, highs_a
    elif not _inner_extent(b, level, lows_b, highs_b):
        return None
    # weights[l] is the place value of the level-l digit; each radix holds
    # the widest digit sum, so no digit carries into the next.
    weights = [0, 1]
    for l in range(1, level):
        spans = highs_a[l] - lows_a[l] + highs_b[l] - lows_b[l]
        weights.append(weights[l] * (spans + 1))
    flat_a: dict = {}
    _flatten(a, level, lows_a, weights, 0, flat_a)
    flat_b = flat_a
    if a is not b:
        flat_b = {}
        _flatten(b, level, lows_b, weights, 0, flat_b)
    top = weights[level]
    flat = _level_one_mul(domain, flat_a, flat_b, None if ceiling is None else ceiling * top)
    return _unflatten(level, domain, flat, weights, [x + y for x, y in zip(lows_a, lows_b)])


def _unflatten(level: int, domain, flat: dict, weights: list, lows: list) -> dict:
    """Coefficient map at ``level >= 2`` of exact inner series from a flat
    level-1 map whose exponents are ``sum_l (e_l - lows[l]) * weights[l]``
    with every lower digit in ``[0, weights[l+1] / weights[l])``."""
    nested: dict = {}
    for e, c in flat.items():
        node = nested
        for l in range(level, 1, -1):
            digit, e = divmod(e, weights[l])
            key = digit + lows[l]
            child = node.get(key)
            if child is None:
                child = node[key] = {}
            node = child
        node[e + lows[1]] = c
    return _build(level, domain, nested)


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
    square = a is b  # packed once and squared
    la, lb = min(a), min(b)
    if ceiling is not None:
        if la + lb >= ceiling:
            return {}
        if max(a) + lb >= ceiling:
            a = {e: c for e, c in a.items() if e + lb < ceiling}
        if square:
            b = a
        elif max(b) + la >= ceiling:
            b = {e: c for e, c in b.items() if e + la < ceiling}
    k, m = domain.k, domain.modulus
    # A product slot sums at most min(len) * k products of two residues.
    need = (min(len(a), len(b)) * k * (m - 1) ** 2).bit_length()
    size = min((s for s in _SLOT_CODES if 8 * s >= need), default=None)
    if size is None:  # wider than 8 bytes: more terms than any window holds
        return _int_mul(domain, a, b, ceiling)
    code = _SLOT_CODES[size]
    ha, hb = max(a), max(b)
    packed = _pack(a, la, ha, domain, code)
    prod = packed * (packed if square else _pack(b, lb, hb, domain, code))
    stride = 2 * k - 1
    e0 = la + lb
    span = ha + hb - e0 + 1
    vals = memoryview(prod.to_bytes(span * stride * size, sys.byteorder)).cast(code)
    top = span if ceiling is None else min(span, ceiling - e0)
    if k == 1:
        return {e0 + i: r for i, v in enumerate(vals[:top]) if (r := v % m)}
    # Fold column by column: coordinate d of every exponent is vals[d::stride].
    cols = [list(vals[d:top * stride:stride]) for d in range(stride)]
    acc = cols[:k]
    for d, row in enumerate(domain._red_rows, k):
        for i, r in enumerate(row):
            if r:
                acc[i] = [x + r * y for x, y in zip(acc[i], cols[d])]
    reduced = zip(*[[x % m for x in col] for col in acc])
    return {e0 + j: coeff for j, coeff in enumerate(reduced) if any(coeff)}


def _divide_by_recurrence(domain, factors: list, width: int, low: int,
                          num: dict | None = None) -> dict:
    """``{low + n: d_n}`` over the ``d_n`` that are not exactly zero, for
    ``[d_0, ..., d_{width-1}]`` the quotient of ``sum_n a_n T^n`` by the
    product of the factors ``c * (1 + sum b_i T^i)`` (module docstring,
    "Division"), ready for ``_make(..., clean=True)``.

    ``num`` maps ``n >= 0`` to ``a_n`` (an ``n >= width`` is ignored), or is
    None for ``a = 1`` (the inverse).  Each factor is ``(c^-1, tail)``, with
    ``tail`` listing ``(i, c * b_i)`` for ``0 < i < width`` in ascending
    ``i``.  The product of the ``c^-1`` scales ``a`` first; then each factor
    in turn replaces ``d`` by its quotient, ``d_n <- d_n - sum_{0 < i <= n}
    b_i d_{n-i}`` for ``n`` from its least ``i`` up.  Over raw ints of
    ``Z/p^s`` (``k = 1``) each ``d_n`` is summed as plain ints and reduced
    once; every other coefficient (``k > 1`` tuples, ``F_p(x)``, series at
    levels >= 2) goes through its domain's operations, skipping only an
    exactly zero ``d_{n-i}``: a window-zero one still carries its window.
    """
    scale = factors[0][0]
    nested = isinstance(scale, NestedSeries)
    if nested:
        mul, add, neg = operator.mul, operator.add, operator.neg
        zero = NestedSeries.zero(scale.level, domain)
        is_zero = NestedSeries.is_exact_zero
    else:
        mul, add, neg = domain.mul, domain.add, domain.neg
        is_zero, zero = domain.is_zero, domain.zero()
    if len(factors) > 1:
        for lead_inv, _ in factors[1:]:
            scale = mul(scale, lead_inv)
    d = [zero] * width
    if num is None:
        if width > 0:
            d[0] = scale
    else:
        for n, a in num.items():
            if n < width:
                d[n] = mul(scale, a)
    plain = not nested and isinstance(domain, _QuotientDomain) and domain.k == 1
    for lead_inv, tail in factors:
        neg_lead_inv = neg(lead_inv)
        steps = [(i, mul(neg_lead_inv, c)) for i, c in tail]
        start = steps[0][0] if steps else width
        if plain:
            m = domain.modulus
            for n in range(start, width):
                acc = d[n]
                for i, b in steps:
                    if i > n:
                        break
                    acc += b * d[n - i]
                d[n] = acc % m
        else:
            for n in range(start, width):
                acc = d[n]
                for i, b in steps:
                    if i > n:
                        break
                    x = d[n - i]
                    if not is_zero(x):
                        acc = add(acc, mul(b, x))
                d[n] = acc
    if nested or not isinstance(domain, _QuotientDomain):
        return {low + n: x for n, x in enumerate(d) if not is_zero(x)}
    return {low + n: x for n, x in enumerate(d) if x != zero}  # raw ints and tuples


class NestedSeries(_Frozen):
    __slots__ = ("level", "domain", "coeffs", "ceiling")

    def __init__(self, level: int, domain, coeffs: dict, ceiling: int | None = None):
        if level < 1:
            raise TowerMismatch("series level must be >= 1")
        if ceiling is not None and type(ceiling) is not int:
            raise TowerMismatch(f"ceiling {ceiling!r} is not an int")
        for e in coeffs:
            if type(e) is not int:
                raise TowerMismatch(f"exponent {e!r} is not an int")
        if level > 1:
            for c in coeffs.values():
                if not isinstance(c, NestedSeries) or c.level != level - 1:
                    raise TowerMismatch("coefficient level does not match series level")
                if c.domain is not domain:
                    raise TowerMismatch("coefficient ring does not match the series' ring")
        elif isinstance(domain, _QuotientDomain) and not domain.are_reduced(coeffs.values()):
            raise TowerMismatch("a coefficient is not a reduced raw scalar of the ring")
        _make(level, domain, coeffs, ceiling, self)

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, level: int, domain, ceiling: int | None = None) -> "NestedSeries":
        return cls(level, domain, {}, ceiling)

    @classmethod
    def constant(cls, level: int, domain, raw) -> "NestedSeries":
        cur = raw
        for lvl in range(1, level + 1):
            cur = _make(lvl, domain, {0: cur}, None)
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
        coeffs = {e: cls.from_monomials(level - 1, domain, ms) for e, ms in grouped.items()}
        for e in coeffs:
            if type(e) is not int:
                raise TowerMismatch(f"exponent {e!r} is not an int")
        return _make(level, domain, coeffs, None)

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

    def is_exact_zero(self) -> bool:
        """Exactly zero: no stored coefficient and no ceiling (``_make``
        never stores an exactly zero inner coefficient)."""
        return not self.coeffs and self.ceiling is None

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
            raise TowerMismatch(f"expected a series, got {type(other).__name__}")
        if other.level != self.level or other.domain is not self.domain:
            raise TowerMismatch("series belong to different towers or coefficient rings")

    def __add__(self, other):
        self._check_compatible(other)
        ceiling = _min_ceiling(self.ceiling, other.ceiling)
        add = self.domain.add if self.level == 1 else operator.add
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = add(out[e], c) if e in out else c
        return _make(self.level, self.domain, out, ceiling)

    def __neg__(self):
        neg = self.domain.neg if self.level == 1 else operator.neg
        return _make(self.level, self.domain, {e: neg(c) for e, c in self.coeffs.items()},
                     self.ceiling)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        ceiling = _min_ceiling(
            None if self.ceiling is None else self.ceiling + other.low(),
            None if other.ceiling is None else other.ceiling + self.low(),
        )
        a, b, domain, level = self.coeffs, other.coeffs, self.domain, self.level
        pairs = len(a) * len(b)
        if pairs > 1 and isinstance(domain, _QuotientDomain):
            if level == 1:
                return _make(1, domain, _level_one_mul(domain, a, b, ceiling), ceiling, clean=True)
            if pairs >= _FLAT_MIN_PAIRS:
                out = _flat_mul(level, domain, a, b, ceiling)
                if out is not None:
                    return _make(level, domain, out, ceiling, clean=True)
        if level == 1:
            out = _schoolbook_mul(a, b, ceiling, domain.mul, domain.add)
        else:
            out = _schoolbook_mul(a, b, ceiling, operator.mul, operator.add)
        return _make(level, domain, out, ceiling)

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
        return self if n == 1 else self.scalar_mul(self.domain.from_int(n))

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
        return power(self, n, operator.mul) if n else NestedSeries.one(self.level, self.domain)

    def inv(self, precision: int | None = None) -> "NestedSeries":
        """Multiplicative inverse in the top variable (module docstring,
        "Division").

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
        if self.level == 1 and _is_lift_non_unit(self.domain, lead):
            return self._inv_past_a_nilpotent_head(precision)
        lead_inv = self.domain.inv(lead) if self.level == 1 else lead.inv(precision)
        if len(self.coeffs) == 1:
            ceiling = None if self.ceiling is None else -v + (self.ceiling - v)
            return _make(self.level, self.domain, {-v: lead_inv}, ceiling)
        if self.ceiling is not None:
            width = self.ceiling - v
        elif precision is not None:
            width = precision
        else:
            raise PrecisionExhausted(
                "the inverse of an exact series with several terms needs a width",
                exponent=-v,
            )
        tail = sorted((e - v, c) for e, c in self.coeffs.items() if v < e < v + width)
        return _make(self.level, self.domain,
                     _divide_by_recurrence(self.domain, [(lead_inv, tail)], width, -v), -v + width,
                     clean=True)

    def _inv_past_a_nilpotent_head(self, precision: int | None) -> "NestedSeries":
        """Inverse at level 1 over a lift ring ``(Z/p^s)[g]/(f)`` whose
        lowest stored coefficient is not a unit (module docstring,
        "Division")."""
        domain = self.domain
        split = next((e for e in sorted(self.coeffs)
                      if not _is_lift_non_unit(domain, self.coeffs[e])), None)
        if split is None:
            if self.ceiling is None:
                raise ZeroInput("not a unit in the lift ring: no coefficient is a unit")
            raise PrecisionExhausted(
                "no stored coefficient is a unit; the unknown tail decides whether "
                "the series is one",
                exponent=self.ceiling,
            )
        head = _make(1, domain, {e: c for e, c in self.coeffs.items() if e < split}, None,
                     clean=True)
        rest = _make(1, domain, {e: c for e, c in self.coeffs.items() if e >= split},
                     self.ceiling, clean=True)
        rest_inv = rest.inv(precision)
        step = -(head * rest_inv)
        total = term = NestedSeries.one(1, domain)
        for _ in range(1, domain.s):
            term = term * step
            total = total + term
        return rest_inv * total

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
        return _make(self.level, self.domain, out, ceiling)

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
        return f"<series L{self.level}: {self._repr_body()}>"

    def _repr_body(self, suffix: str = "") -> str:
        """Monomials ``raw*T1^e1*...*suffix``, then the window ``O(T_l^c)``;
        an inner coefficient with a window prints as one group ``(...)``."""
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mono = (f"*T{self.level}^{e}" if e else "") + suffix
            if self.level == 1:
                bits.append(f"{c!r}{mono}")
            else:
                bits.append(c._repr_body(mono) if c.is_exact() else f"({c._repr_body()}){mono}")
        body = " + ".join(bits) or "0"
        return body if self.ceiling is None else f"{body} + O(T{self.level}^{self.ceiling})"


_SeriesDraft = _draft_of(NestedSeries)


# ---------------------------------------------------------------- module ops

def linear_combination(level: int, domain, pairs) -> NestedSeries:
    """``sum_j n_j * x_j`` over ``(n_j, x_j)`` pairs of ints and series at
    ``level`` over ``domain``, in one pass (module docstring, "Linear
    combinations"); the empty sum is the exact zero."""
    for _, x in pairs:
        if not isinstance(x, NestedSeries) or x.level != level or x.domain is not domain:
            raise TowerMismatch("combined series belong to different towers or coefficient rings")
    # F_p(x) has characteristic p; a multiplier that vanishes there adds
    # only its ceiling.
    m = domain.modulus if isinstance(domain, _QuotientDomain) else domain.p
    terms = [(n % m, x) for n, x in pairs if n % m]
    return _combination(level, domain, terms, _least_ceiling(pairs))


def _least_ceiling(pairs) -> int | None:
    """The least finite ceiling of the series of ``(n, x)`` pairs (a plain
    loop: this runs once per coefficient group)."""
    least = None
    for _, x in pairs:
        c = x.ceiling
        if c is not None and (least is None or c < least):
            least = c
    return least


def _combination(level: int, domain, terms: list, ceiling: int | None) -> NestedSeries:
    """:func:`linear_combination` of ``terms``, whose multipliers are reduced
    and nonzero, cut at ``ceiling``."""
    cut = sys.maxsize if ceiling is None else ceiling
    if level > 1:
        groups: dict = {}
        for n, x in terms:
            for e, c in x.coeffs.items():
                if e < cut:
                    if e in groups:
                        groups[e].append((n, c))
                    else:
                        groups[e] = [(n, c)]
        out = {}
        for e, group in groups.items():
            if len(group) == 1 and group[0][0] == 1:
                out[e] = group[0][1]  # stored, so not an exact zero
                continue
            c = _combination(level - 1, domain, group, _least_ceiling(group))
            # only an exact zero is dropped: a window-zero one keeps its window
            if not c.is_exact_zero():
                out[e] = c
        return _make(level, domain, out, ceiling, clean=True)
    acc: dict = {}
    if not isinstance(domain, _QuotientDomain):
        mul_int, add, is_zero = domain.mul_int, domain.add, domain.is_zero
        for n, x in terms:
            for e, c in x.coeffs.items():
                if e < cut:
                    if n != 1:
                        c = mul_int(c, n)
                    acc[e] = add(acc[e], c) if e in acc else c
        out = {e: c for e, c in acc.items() if not is_zero(c)}
        return _make(1, domain, out, ceiling, clean=True)
    m = domain.modulus
    out = {}
    if domain.k == 1:
        for n, x in terms:
            for e, c in x.coeffs.items():
                if e < cut:
                    if e in acc:
                        acc[e] += n * c
                    else:
                        acc[e] = n * c
        for e, v in acc.items():
            v %= m
            if v:
                out[e] = v
        return _make(1, domain, out, ceiling, clean=True)
    # one int per g-coordinate
    for n, x in terms:
        for e, c in x.coeffs.items():
            if e < cut:
                if e in acc:
                    acc[e] = [a + n * b for a, b in zip(acc[e], c)]
                else:
                    acc[e] = [n * b for b in c]
    for e, v in acc.items():
        coeff = tuple([a % m for a in v])
        if any(coeff):
            out[e] = coeff
    return _make(1, domain, out, ceiling, clean=True)
