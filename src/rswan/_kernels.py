"""Raw coefficient-map kernels under :mod:`rswan.series`.

The functions here take the raw maps ``exponent -> coefficient`` that a
series stores (raw scalars of ``(Z/p^s)[g]/(f)`` at level 1) and return
clean maps, or nested dicts for ``series._build``; :mod:`rswan.series`
builds the series and decides the windows.  This module owns the packings
and the kernel choice, and imports nothing of the package.

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
  exact inner coefficients and there are at least ``series._FLAT_MIN_PAIRS``
  term pairs.  Each operand is written once as a level-1 map with mixed-radix
  exponents ``E = e_d R_{d-1} + sum_{j<d} (e_j - lo_j) R_{j-1}``, where
  ``lo_j`` is the operand's least level-``j`` exponent, ``R_0 = 1`` and
  ``R_j = R_{j-1} (span_a + span_b + 1)`` with the two operands' level-``j``
  exponent spans.  A product digit ``e_j + e'_j - lo_j - lo'_j`` lies in
  ``[0, span_a + span_b]``, below its radix, so no digit carries into the
  next and ``E`` determines every exponent; the top digit is
  ``floor(E / R_{d-1})``, so an outer ceiling ``c`` is the flat ceiling
  ``c R_{d-1}``.  One level-1 product runs (a square flattens its operand
  once), and its terms are unpacked into nested dicts, from which
  ``series._build`` builds each inner series once.  The Witt layer's ghost
  recursion is the second user of this flattening (:mod:`rswan.witt`,
  "Arithmetic"): it writes its exact inputs once, with balanced digits
  sized for the whole recursion, and runs every product on level-1 maps.

What falls back to the dict loop ``_schoolbook_mul``, which stays as the
reference: single-pair products; products at levels >= 2 with fewer than
``series._FLAT_MIN_PAIRS`` term pairs (``bench/series_mul.py`` measures the
gate, BENCH_11.json) or with an inner coefficient that has a window.

Ghost sums
----------
The flat Witt engine (:mod:`rswan.witt`, "Arithmetic") sums ``c x^e`` over
flat level-1 maps ``x`` with powers ``e`` of ``p``, reduces the sum mod
``p q`` (mod ``p^s`` for the last ghost component, ``q = 1``) and divides it
exactly by ``q = p^n``.  ``_packed_ghost_sum`` forms that sum as one Python
int, with one slot per exponent of the sum's span.  At ``k > 1`` the int has
``G = e_max (k - 1) + 1`` rows of such slots, one per power of ``g`` up to
the g-degree of ``x^e_max``, so that no power needs a reduction mod ``f``.
Each term's map is packed once from its least exponent, ``X ** e`` runs in
C, each power is shifted to the sum's least exponent, and the terms ``c X^e``
are summed as ints.  The multipliers are taken mod ``p q`` and the raw ints
are non-negative, so a slot of the sum is at most ``sum c (sum of x's raw
ints)^e``, the sum's value at ``T = g = 1``.  At ``k > 1`` the rows of
``g^d``, ``d >= k``, are then cut out and added, as ints, times the entries
of cached rows of ``g^d mod f`` into the first ``k`` rows, which multiplies
that bound by at most ``1 + (G - k)(p^s - 1)``.  Slots of that many bytes
(rounded up to 1, 2, 4 or 8) never carry.  Each of the ``k`` rows is read
back once (a ``memoryview`` cast at 1, 2, 4 or 8 bytes), reduced and
divided; a remainder is reported to the caller, which raises its internal
error.

``_ghost_sum_packs`` decides once per combination, and once per last ghost
component, from the inputs alone.  It packs level-1 maps when

* the span of their exponents together with 0 is below four times their
  terms.  Every monomial the recursion forms at ghost index ``n`` lies in
  ``p^n`` times that span (the weight argument of :mod:`rswan.witt`, "No
  digit carries"), so the packed width follows the terms;
* the last ghost power ``P = p^(s-1)`` has ``P (P (k - 1) + 1)`` in
  ``_GHOST_PACK_WIDTHS``: a slot grows as ``P`` and the rows of g-powers
  as ``P (k - 1) + 1``.  Past 72 the dict loop, which reduces at every
  product, wins: at ``(p, k, s) = (5, 1, 4)``, ``(5, 2, 3)`` and
  ``(3, 2, 4)`` the packed recursion took 6 to 14 times as long.  Below 3,
  at ``F_2`` and ``s = 2``, each power is one squaring of a few terms, and
  packing cost 5 to 27% more (``bench/witt_combine.py``).

Nearly every combination of the ``witt`` workload at ``d = 1`` passes.  At
``d >= 2`` the digit weights spread the flat exponents, about one
combination in ten would pass, and measuring the span costs those cells
more than packing saves, so their sums stay on the dict loop.  So does a
sum whose live powers are all 1.  The dict loop (``witt._flat_ghost_sum``)
stays as the reference.

Division
--------
Write ``f = c T^v (1 + sum_i b_i T^i)``.  A quotient ``a / f`` on a window
of width ``w`` is unique, so every method that computes it exactly gives
the same series.  One recurrence computes it, power-series division
(Knuth, TAOCP vol. 2, sec. 4.7): with ``a`` read from its least exponent,
``d_n = c^-1 a_n - sum_{0 < i <= n} b_i d_{n-i}`` over the stored terms of
``[v, v + w)``, ``O(w * terms)`` coefficient operations.  At level 1 over
``Z/p^s`` (``k = 1``) each ``d_n`` is summed in plain ints and reduced
once; ``k > 1`` tuples go through their domain's operations, one per term
pair, with no packing.  At levels >= 2 the coefficients are level-``(l-1)``
series, ``c^-1`` is the inverse of ``c`` at its own level, and the sum skips
only an *exactly* zero ``d_{n-i}``: one that is zero within a window still
carries that window into ``d_n``, and skipping it would claim knowledge the
window lacks.  A product of factors is divided by one factor after the
other, on the same ``w`` coefficients, each pass starting at the factor's
least exponent gap; the product of the ``c^-1`` scales ``a`` once.  The cost
is paid on every exponent of the window even when the quotient is sparse, so
Newton's iteration is faster on level-1 inverses of two to four terms at
width 1024 (bench/conductor_change.py); the workloads invert at widths up to
64.  ``series._divide_by_power`` chooses the window and the factors.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import lru_cache

# Below this many term pairs the int loop is as fast as packing or faster;
# measured with bench/series_mul.py (BENCH_11.json: the median over the
# crossover cells turns at 64 pairs; windowed k = 1 cells turn near 100).
_KRONECKER_MIN_PAIRS = 64
# Slot sizes in bytes -> array typecode of that item size.
_SLOT_CODES = {array(code).itemsize: code for code in "QLIHB"}
# Ghost sums place slots by significance, so they cast raw bytes to slots
# only where the native order is little-endian.
_LITTLE = sys.byteorder == "little"
# The last ghost powers P that a packed ghost sum takes, counted as
# P * (P (k - 1) + 1): its slots grow as P bits and its rows of g-powers as
# P (k - 1) + 1 (module docstring, "Ghost sums").
_GHOST_PACK_WIDTHS = range(3, 73)


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


def _kronecker_applies(a: dict, b: dict) -> bool:
    """Whether a level-1 product with enough term pairs goes through
    :func:`_kronecker_mul`.

    It needs a dense enough support: the kernel touches every exponent slot
    of the product, the dict loop every term pair.
    """
    return max(a) - min(a) + max(b) - min(b) < len(a) * len(b)


def _level_one_mul(domain, a: dict, b: dict, ceiling: int | None) -> dict:
    """Coefficient map of a level-1 product over ``(Z/p^s)[g]/(f)``, by the
    kernel that suits it (zeros dropped)."""
    if len(a) * len(b) >= _KRONECKER_MIN_PAIRS and _kronecker_applies(a, b):
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


def _flat_mul(level: int, domain, a: dict, b: dict, ceiling: int | None) -> dict | None:
    """Nested dicts (:func:`_unflatten`) of a product at ``level >= 2``
    through one level-1 product (module docstring, "Multiplication");
    ``None`` when an inner coefficient has a window."""
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
    return _unflatten(level, flat, weights, [x + y for x, y in zip(lows_a, lows_b)])


def _unflatten(level: int, flat: dict, weights: list, lows: list) -> dict:
    """Nested dicts at ``level >= 2``, ``{e_level: {... {e_1: raw}}}``, from
    a flat level-1 map whose exponents are ``sum_l (e_l - lows[l]) *
    weights[l]`` with every lower digit in ``[0, weights[l+1] /
    weights[l])``; ``series._build`` makes them exact inner series."""
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
    return nested


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


def _ghost_sum_packs(level: int, maps, power: int, k: int) -> bool:
    """Whether the ghost sums of a combination run through
    :func:`_packed_ghost_sum` (module docstring, "Ghost sums"), from the
    level of its series, its input flat raw ``maps``, its last ghost power
    ``power`` and the degree ``k`` of ``(Z/p^s)[g]/(f)``."""
    if level > 1 or power * (power * (k - 1) + 1) not in _GHOST_PACK_WIDTHS:
        return False
    exponents = [e for x in maps for e in x]
    return not exponents or max(max(exponents), 0) - min(min(exponents), 0) < 4 * len(exponents)


@lru_cache(maxsize=None)
def _g_power_rows(domain, count: int) -> tuple:
    """The raw tuples of ``g^k, ..., g^(k + count - 1)`` mod ``f`` over the
    domain's ``Z/p^s`` (``k > 1``)."""
    rows = list(domain._red_rows)
    base, m = rows[0], domain.modulus
    while len(rows) < count:
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple([((prev[i - 1] if i else 0) + top * b) % m for i, b in enumerate(base)]))
    return tuple(rows[:count])


def _read_slots(v: int, count: int, size: int):
    """The ``count`` slots of ``size`` bytes of ``v``, lowest first."""
    raw = v.to_bytes(count * size, "little")
    if size <= 8 and _LITTLE:
        return memoryview(raw).cast(_SLOT_CODES[size])
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _packed_ghost_sum(domain, terms, q: int, mod: int) -> dict | None:
    """``sum c * x^e`` over ``(c, x, e)`` terms of level-1 raw maps over
    ``(Z/p^s)[g]/(f)``, reduced mod ``mod`` (a multiple of ``q`` that divides
    ``p^s``) and divided exactly by ``q``, through one packed int (module
    docstring, "Ghost sums"); None when ``q`` leaves a remainder.  A term
    with ``c`` zero mod ``mod`` or ``x`` empty is skipped."""
    k = domain.k
    live = []
    bound = 0  # no slot of the sum exceeds sum c * (sum of x's raw ints)^e
    top = 1
    low = high = None
    for c, x, e in terms:
        c %= mod
        if c and x:
            lo = min(x)
            live.append((c, x, e, lo))
            lo, hi = e * lo, e * max(x)
            bound += c * (sum(x.values()) if k == 1 else sum(map(sum, x.values()))) ** e
            if e > top:
                top = e
            if low is None:
                low, high = lo, hi
            elif lo < low:
                low = lo
            if hi > high:
                high = hi
    if not live:
        return {}
    span = high - low + 1
    sub = top * (k - 1) + 1  # powers of g: the g-degree of x^top, plus 1
    if k > 1:  # the fold adds each g^d, d >= k, times entries below p^s
        bound *= 1 + (sub - k) * (domain.modulus - 1)
    need = (bound.bit_length() + 7) >> 3
    size = need if need > 8 else 8 if need > 4 else 4 if need > 2 else need
    bits = 8 * size
    row = bits * span  # bits per power of g: one slot per exponent
    total = 0
    for c, x, e, lo in live:
        packed = 0
        if k == 1:
            for ex, v in x.items():
                packed |= v << ((ex - lo) * bits)
        else:
            for ex, coeff in x.items():
                at = (ex - lo) * bits
                for v in coeff:
                    packed |= v << at
                    at += row
        total += (c * packed ** e) << ((e * lo - low) * bits)
    if k == 1:
        out = {low + i: r for i, v in enumerate(_read_slots(total, span, size)) if v and (r := v % mod)}
        if q == 1:
            return out
        for r in out.values():
            if r % q:
                return None
        return {ex: r // q for ex, r in out.items()}
    # Fold the g^d rows, d >= k, into the first k through g^d mod f, as ints.
    mask = (1 << row) - 1
    rows = [(total >> (d * row)) & mask for d in range(sub)]
    acc = rows[:k]
    for d, reduction in enumerate(_g_power_rows(domain, sub - k), k):
        for i, r in enumerate(reduction):
            if r:
                acc[i] += r * rows[d]
    out = {}
    for j, coeff in enumerate(zip(*[[a % mod for a in _read_slots(v, span, size)] for v in acc])):
        if any(coeff):
            if any(a % q for a in coeff):
                return None
            out[low + j] = tuple([a // q for a in coeff])
    return out


def _divide_by_recurrence(domain, factors: list, width: int, low: int,
                          num: dict | None = None) -> dict:
    """``{low + n: d_n}`` over the ``d_n`` that are not exactly zero, for
    ``[d_0, ..., d_{width-1}]`` the quotient of ``sum_n a_n T^n`` by the
    product of the factors ``c * (1 + sum b_i T^i)`` (module docstring,
    "Division"), ready for ``series._make(..., clean=True)``.

    ``num`` maps ``n >= 0`` to ``a_n`` (an ``n >= width`` is ignored), or is
    None for ``a = 1`` (the inverse).  Each factor is ``(c^-1, tail)``, with
    ``tail`` listing ``(i, c * b_i)`` for ``0 < i < width`` in ascending
    ``i``.  The product of the ``c^-1`` scales ``a`` first; then each factor
    in turn replaces ``d`` by its quotient, ``d_n <- d_n - sum_{0 < i <= n}
    b_i d_{n-i}`` for ``n`` from its least ``i`` up.  Over raw ints of
    ``Z/p^s`` (``k = 1``) each ``d_n`` is summed as plain ints and reduced
    once; every other coefficient (``k > 1`` tuples, series at levels >= 2)
    goes through its domain's operations, skipping only an exactly zero
    ``d_{n-i}``: a window-zero one still carries its window.
    """
    scale = factors[0][0]
    nested = not isinstance(scale, (int, tuple))  # a series, not a raw scalar
    if nested:
        mul, add, neg = operator.mul, operator.add, operator.neg
        zero = type(scale).zero(scale.level, domain)
        is_zero = type(scale).is_exact_zero
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
    plain = not nested and domain.k == 1
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
    if nested:
        return {low + n: x for n, x in enumerate(d) if not is_zero(x)}
    return {low + n: x for n, x in enumerate(d) if x != zero}  # raw scalars: a zero is == zero

