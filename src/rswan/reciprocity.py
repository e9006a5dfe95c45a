"""Explicit local reciprocity in characteristic p, at the level of symbols.

The lift ring P is the same variable tower with coefficients in the length-s
quotient ring (Z/p^s unramified extension).  A reduced character with vector
``f`` sends a symbol ``{y_1, ..., y_d}`` to

    Res_P( theta(f) dlog y~_1 ^ ... ^ dlog y~_d )  in  Z/p^s,

where ``theta(f) = sum_i p^(s-1-i) f~_i^(p^i)`` (internal component order,
any coefficientwise lift) and Res_P is the iterated T^0-dlog-coefficient
extraction followed by the trace to Z/p^s.  The characterizing identity

    chi(E(alpha)) = Res_F(R_b(Rsw(chi) ^ alpha))     (F_p -> Z/p^s, 1 |-> p^(s-1))

is verified sample-by-sample: the left side through symbols {E(x), y, ...}
read off the coefficients of ``theta(f)``, the right side off one coefficient
of the representative of ``Rsw(chi)`` per term of alpha, which is the value
of the window collapse r_b and the residue-plus-trace map (the orientation
is derived in :func:`verify_rsw_characterization`; "The right side" below).

Symbols
-------
Since ``dlog y = dy y^-1``,

    Res(theta ^ dlog y~_1 ^ ... ^ dlog y~_d)
        = Res((theta ^ dy~_1 ^ ... ^ dy~_d) * prod_i y~_i^-1),

so a symbol builds the small form ``omega = theta ^ dy~_1 ^ ... ^ dy~_d``
and ``g = prod_i y~_i^-1`` and reads the residue of the scaled form,
``residue_to_prime_field(omega.scale(g))``; the ``dlog`` forms are never
built.  The windows of the two routes differ.  An exactly zero derivative
is an exact zero here, where ``dlog`` left ``0 * y~^-1`` zero only within
the inverse's window, so some symbols the ``dlog`` forms refused now
answer.  The other way, a window of ``theta`` can meet terms that cancel
only inside the full ``dlog y~``; what the scaled form refuses at both
widths therefore goes through the ``dlog`` forms, so every symbol the
``dlog`` forms answer still answers, with the same value.
:func:`schmid_symbol` stays on the ``dlog`` forms: it is an independent
oracle for the one-variable, length-1 symbols of the check.

Every entry, one exact monomial included, is lifted, differentiated,
wedged and inverted at the width, so the exponent floor is uniform: an
exponent of ``omega``, of an inverse or of the scaled form below the
supported range raises :class:`ExponentOutOfRange`, as every other product
does.  So ``t^-5001`` on ``[t^-5999]`` at p = 2 refuses at -11000.

Each symbol is evaluated on its own: a symbol that a check hands off
("The left side") builds its ``E(x)``, its variables and the forms and
inverses of its entries afresh, and shares nothing with the others.

The terms of a check's samples are drawn in one call and
rejection-sampled inline on ``rng.getrandbits`` as CPython's
``Random._randbelow_with_getrandbits`` samples ``randrange(w)``:
``w.bit_length()`` bits, redrawn while at least ``w`` (so a width of 1
still takes a bit).  The widths, the order and the redraws are those of
``randint`` and ``random_nonzero``, sample after sample: a coefficient of
``F_p`` is redrawn while it is 0 or at least p, one of ``F_q`` (``k > 1``)
while all its coordinates are 0.  So each seed draws the same terms from
the same bits, and leaves the generator in the same state, as those calls
do, one sample at a time.  Each term comes out as one int code, the mixed
radix of its drawn fields in draw order, so the check keys its table by an
int and reads a code back into a term only the first time it sees it.

The left side
-------------
A term ``x = c T^a`` (``a_top >= m + 1``) lifts to ``y~ = P(T^a)``, ``P(Z) =
sum_{i<p} a~_i Z^i`` with ``a~_i = lift(c^i / i!)``, so ``dlog y~ = Q(T^a)
sum_mu a_mu dlog T_mu`` for ``Q = Z P'/P = sum_{j>=1} Q_j Z^j``, ``Q_j = j
a~_j - sum_{0<i<min(j,p)} a~_i Q_{j-i}`` (``a~_j = 0`` for ``j >= p``).  Res
reads the ``T^0`` coefficient of ``theta Q(T^a)``, so with ``J =
floor(-low_top(theta) / a_top)``

    {E(x), T_key} = Tr(sgn a_mu sum_{j=1..J} Q_j theta[-j a])   in Z/p^s,

where ``sgn a_mu = a`` at d = 1; at d = 2 ``mu`` is the variable not in
``key`` and ``sgn`` is +1 when ``mu`` is below it, else -1.  :class:`_LeftSide`
reads that with no series, form or inverse, one sum per ``(exps, c)`` for
both dlog keys.  It hands a term to :func:`_symbol_value`, whose refusal
is the contract's, only when ``theta`` has a window at any level or opens
a width ``w`` above the budget.  Every other term the sum answers with the
symbol's exact value: every exponent of ``theta`` is at least ``1 - w``;
``y~^-1`` at width ``w`` is exact at the inner level (its inner lead is 1)
and known below the top exponent ``w``; ``theta ^ dy~`` is exact, of top
order at least ``1 - w + a_top``, so the one ceiling the residue meets is
at least ``1 + a_top > 0``.  The sum forms no product, so no exponent
floor applies, where the general path could raise :class:`ExponentOutOfRange`.

The right side
--------------
For one term ``alpha = c T^e dlog T_key`` of the dual window (no ``dlog``
at d = 1), only the coefficient ``R_K`` of ``Rsw(chi)``'s representative
under the complement ``K`` of ``key`` meets ``alpha`` in the wedge, with
the sign ``sgn`` of :func:`logdiff._merge_sign` of ``(K, key)``.  ``r_b``
takes the top-level ``T^0`` slot of ``sgn c T^e R_K`` and roots it ``b``
times, and the residue reads the ``T^0`` coefficient at each lower level
and traces it.  A root of a series keeps its ``T^0`` monomial as the root
of that scalar, so the pairing is ``Tr((sgn c R_K[-e])^(1/p^b))``, where
``R_K[-e]`` is the coefficient of ``R_K`` at the negated exponents, top
level first (0 when one is absent).  Over ``F_q`` the trace is the sum of
the Frobenius conjugates, so it is Frobenius-invariant and the ``b`` roots
drop out:

    Res_F(R_b(Rsw(chi) ^ alpha)) = Tr(sgn c R_K[-e])   in F_p.

:func:`_pairing` walks ``R_K`` to ``R_K[-e]`` through
``NestedSeries.coefficient``, top level first, and builds no ``alpha``,
wedge or ``r_b`` form.  The operators shift each ceiling on that path by
its exponent of ``e`` and read ``T^0`` coefficients, so a window there
raises :class:`PrecisionExhausted` at the same coefficient (the message
names the unshifted ceiling); no product is formed, so no exponent floor
applies, where the operators' product could raise :class:`ExponentOutOfRange`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import (
    InconsistentValue,
    NotTopological,
    PrecisionExhausted,
    TowerMismatch,
    UnramifiedCharacter,
    ZeroEntry,
)
from .logdiff import (
    LogForm,
    WindowedForm,
    _merge_sign,
    d,
    dlog,
    minimal_b,
    residue_to_prime_field,
    wedge,
)
from .rsw import rsw_char_p
from .series import NestedSeries, _level_lows
from .witt import (
    Character,
    WittVector,
    _last_ghost_component,
    asw_reduce,
    lift_series,
    swan_conductor,
)

__all__ = [
    "truncated_exp",
    "check_exp_congruences",
    "ExpCongruenceReport",
    "theta_lift",
    "eval_symbol",
    "schmid_symbol",
    "verify_rsw_characterization",
    "CharacterizationReport",
]

_MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0}

# How a pairing value in F_p is read in Z/p^s, in every report.
FP_EMBEDDING = "F_p -> Z/p^s, 1 |-> p^(s-1)"


# ------------------------------------------------------------ truncated exp

def truncated_exp(x: NestedSeries) -> NestedSeries:
    """E(x) = sum_{i<p} x^i / i!; requires ord(x) >= 1 in the top variable."""
    if x.coeffs and x.ord() < 1:
        raise NotTopological(
            f"E needs an argument of positive order (got order {x.ord()})"
        )
    if x.ceiling is not None and x.ceiling < 1:
        raise PrecisionExhausted(
            "argument is zero within a window that does not certify positive order",
            exponent=x.ceiling,
        )
    domain = x.domain
    acc = NestedSeries.one(x.level, domain) + x  # the terms x^0 / 0! and x^1 / 1!
    power = x
    for i in range(2, domain.p):
        power = power * x
        coeff = domain.inv(domain.from_int(factorial(i)))
        acc = acc + power.scalar_mul(coeff)
    return acc


# --------------------------------------------- exact congruences of E(T)

def _poly_mul(a: dict, b: dict, bound: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e > bound:
                continue
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _binomial_series(alpha: Fraction, inner_exp: int, bound: int) -> dict:
    """(1 - T^inner_exp)^alpha as a Fraction polynomial up to degree bound."""
    out = {0: Fraction(1)}
    coeff = Fraction(1)
    k = 0
    while inner_exp * (k + 1) <= bound:
        coeff = coeff * (alpha - k) / (k + 1)
        k += 1
        out[inner_exp * k] = coeff * (-1) ** k
    return out


def _p_integral(c: Fraction, p: int) -> bool:
    return c.denominator % p != 0


@dataclass(frozen=True)
class ExpCongruenceReport:
    p: int
    results: dict
    notes: tuple = ()


def check_exp_congruences(p: int) -> ExpCongruenceReport:
    """Verify the three defining congruences of E by exact rational arithmetic.

    (1) E(T1+T2) = E(T1)E(T2) modulo total degree p (and the tail is
        p-integral);
    (2) E(T) = prod_{1<=i<p} (1-T^i)^(-mu(i)/i) modulo T^p;
    (3) the logarithmic-derivative normalization (T/E)(dE/dT) = T modulo
        T^p with p-integral error, equivalently T(E' - E) = -T^p/(p-1)!.
    """
    if p not in (2, 3, 5):
        raise InconsistentValue(f"p = {p} is outside the supported set {{2, 3, 5}}")
    E = {i: Fraction(1, factorial(i)) for i in range(p)}
    results = {}

    # (1) bivariate: E(T1+T2) - E(T1)E(T2) in (T1,T2)^p with p-integral tail.
    lhs: dict = {}
    for i, c in E.items():
        for j in range(i + 1):
            key = (j, i - j)
            lhs[key] = lhs.get(key, Fraction(0)) + c * comb(i, j)
    rhs: dict = {}
    for i, ci in E.items():
        for j, cj in E.items():
            key = (i, j)
            rhs[key] = rhs.get(key, Fraction(0)) + ci * cj
    ok1 = True
    for key in set(lhs) | set(rhs):
        diff = lhs.get(key, Fraction(0)) - rhs.get(key, Fraction(0))
        if sum(key) < p:
            ok1 = ok1 and diff == 0
        else:
            ok1 = ok1 and _p_integral(diff, p)
    results["product_rule_mod_degree_p"] = ok1

    # (2) Artin-Hasse-style product, truncated below degree p.
    prod = {0: Fraction(1)}
    for i in range(1, p):
        alpha = Fraction(-_MOBIUS[i], i)
        prod = _poly_mul(prod, _binomial_series(alpha, i, p - 1), p - 1)
    ok2 = all(prod.get(i, Fraction(0)) == E.get(i, Fraction(0)) for i in range(p))
    results["moebius_product_mod_Tp"] = ok2

    # (3) T(E' - E) = -T^p/(p-1)!: degree-< p coefficients vanish and the
    # single degree-p coefficient is p-integral.
    diff = {}
    for i, c in E.items():
        diff[i + 1] = diff.get(i + 1, Fraction(0)) - c  # -T*E
        if i >= 1:
            diff[i] = diff.get(i, Fraction(0)) + c * i  # +T*E' (E' term T^{i-1} * i/i! = T^{i-1}/(i-1)!)
    ok3 = all(c == 0 for e, c in diff.items() if e < p) and all(
        _p_integral(c, p) for e, c in diff.items() if e >= p
    )
    results["dlog_normalization_mod_Tp"] = ok3

    notes = (
        "congruence (3) is checked in the dlog normalization (T/E)dE/dT = T mod T^p, "
        "the form the reciprocity proof uses (dlog E(x) = dx to that order); "
        "the right-hand side is T, not a constant, since the left side vanishes at T = 0",
    )
    return ExpCongruenceReport(p, results, notes)


# ---------------------------------------------------------------- theta map

def theta_lift(vec: WittVector | Character) -> NestedSeries:
    """The last ghost component of the coefficientwise lift over the length-s
    lift ring: ``sum_i p^(s-1-i) * lift(a_i)^(p^i)`` in internal order.

    An exact vector takes one ghost sum on the flat raw maps of the Witt
    engine, over the lift ring, with no division; a windowed one, or one
    whose last ghost power leaves the exponent range, takes the series
    path, which raises what it raises (``witt`` module docstring, "The
    last ghost component")."""
    if isinstance(vec, Character):
        vec = vec.vector
    tower = vec.tower
    return _last_ghost_component(vec.print_order, tower.p, tower.lift_domain)


def eval_symbol(char: Character | WittVector, ys) -> int:
    """Value of the character on the symbol {y_1, ..., y_d}, in Z/p^s.

    Each ``y_i`` is a nonzero series over the character's residue tower
    (any other entry raises :class:`TowerMismatch`); they are lifted
    coefficientwise and the residue of ``theta(f) ^_i dlog y~_i`` is traced
    down to Z/p^s.  This is the paper's symbol map, kept as the public
    entry that validates the entries before ``_symbol_value``, the general
    path, which also takes the terms the characterization check hands off.
    """
    char = asw_reduce(char)
    tower = char.tower
    ys = list(ys)
    if len(ys) != tower.d:
        raise InconsistentValue(f"expected {tower.d} symbol entries, got {len(ys)}")
    for y in ys:
        if not isinstance(y, NestedSeries):
            raise TowerMismatch(f"expected a series, got {type(y).__name__}")
        if y.level != tower.d or y.domain is not tower.field_domain:
            raise TowerMismatch("series belong to different towers or coefficient rings")
        if y.is_exact_zero():
            raise ZeroEntry("symbol entries must be nonzero")
        if y.is_zero():
            raise PrecisionExhausted("symbol entry is zero within its window", exponent=y.low())
    return _symbol_value(theta_lift(char.vector), tower, ys)


def _symbol_value(theta: NestedSeries, tower, ys) -> int:
    """Res of ``theta ^_i dlog y~_i``, traced to Z/p^s, for this one symbol.

    Res reads nothing above T^0, so the inverses of the entries open at the
    width the lowest stored exponent of ``theta`` at any level needs (a
    coefficient zero only within an inner window counts), capped by the
    tower budget; every entry is inverted at each width tried.  Lower-level
    poles of the entries can make that width too small; the residue is then
    computed once more at the cap.  An exponent below the supported range
    raises :class:`ExponentOutOfRange` at once, whatever the entry.  What the
    scaled form's residue refuses at both widths goes through the ``dlog``
    forms at both (module docstring, "Symbols"); when neither answers, the
    refusal names the width the symbol opens and the budget.
    """
    opened, budget = _opened(theta), tower.precision
    widths = sorted({min(opened, budget), budget})
    for width in widths:
        try:
            return _residue_of_symbol(theta, tower, ys, width)
        except PrecisionExhausted as exc:
            cause = exc
    for width in widths:
        try:
            return _residue_through_dlog(theta, tower, ys, width)
        except PrecisionExhausted as exc:
            cause = exc
    raise PrecisionExhausted(
        f"the symbol opens windows of width {opened}; its residue is not "
        f"certified within the budget {budget}",
        exponent=0,
    ) from cause


def _opened(theta: NestedSeries) -> int:
    """The width the entries' inverses open for ``theta`` (:func:`_symbol_value`)."""
    return max(1, 1 - min(_level_lows(theta, {}).values(), default=0))


def _residue_of_symbol(theta: NestedSeries, tower, ys, width: int) -> int:
    """``Res(theta ^ dy~_1 ^ ... ^ dy~_d * prod_i y~_i^-1)``: the symbol's
    residue with ``dlog y = dy y^-1``, each entry lifted, differentiated and
    inverted at ``width``, read as ``residue_to_prime_field(omega.scale(g))``
    for ``omega`` the form and ``g`` the product of the inverses (module
    docstring, "Symbols")."""
    big = tower.lift_domain
    omega = LogForm.from_series(theta)
    g = None
    for y in ys:
        y = lift_series(y, big)
        omega = wedge(omega, d(y))
        inv = y.inv(width)
        g = inv if g is None else g * inv
    return residue_to_prime_field(omega.scale(g))


def _residue_through_dlog(theta: NestedSeries, tower, ys, width: int) -> int:
    """``Res(theta ^ dlog y~_1 ^ ... ^ dlog y~_d)`` with each ``dlog`` form
    built in full at ``width`` (module docstring, "Symbols")."""
    big = tower.lift_domain
    omega = LogForm.from_series(theta)
    for y in ys:
        omega = wedge(omega, dlog(lift_series(y, big), width))
    return residue_to_prime_field(omega)


class _LeftSide:
    """The symbols ``{E(x), T_key}`` of one check's raw terms ``(exps, c,
    key)``, ``x = c T^exps`` (module docstring, "The left side"): read off
    ``theta``'s coefficients through one sum per ``(exps, c)``, or handed
    to :func:`_symbol_value` as a symbol of its own."""

    def __init__(self, theta: NestedSeries, tower):
        self.theta, self.tower, self.opened = theta, tower, _opened(theta)
        self.exact = theta.is_exact() and self.opened <= tower.precision
        self.sums: dict = {}  # (exps, c) -> sum_j Q_j theta[-j exps], for both dlog keys

    def reads(self, exps) -> bool:
        """Whether the terms of ``exps`` are read off ``theta``, not handed off."""
        return self.exact

    def symbol(self, term) -> int:
        exps, c, key = term
        tower, big = self.tower, self.tower.lift_domain
        if not self.reads(exps):
            ys = [_exponential(tower, exps, c)]
            ys += [NestedSeries.variable(tower.d, tower.field_domain, lam) for lam in key]
            return _symbol_value(self.theta, tower, ys)
        if (exps, c) not in self.sums:
            self.sums[exps, c] = _left_sum(self.theta, tower, exps, c)
        a = -exps[1] if key == (1,) else exps[0]  # sgn a_mu, mu not in key
        return big.trace(big.mul_int(self.sums[exps, c], a)) % big.modulus


def _exponential(tower, exps, c) -> NestedSeries:
    """``E(c T^exps)``: a handed-off symbol's first entry, and the Schmid oracle's."""
    return truncated_exp(NestedSeries.from_monomials(tower.d, tower.field_domain, [(exps, c)]))


def _left_sum(theta: NestedSeries, tower, exps, c):
    """``sum_{j=1..J} Q_j theta[-j exps]`` in the lift ring, ``theta`` exact
    (module docstring, "The left side"); a raw of F_q is its lift's raw."""
    field, big, p = tower.field_domain, tower.lift_domain, tower.p
    lifted = [field.mul(field.pow(c, i), field.inv(field.from_int(factorial(i))))
              for i in range(p)]
    total, q = big.zero(), [None]
    for j in range(1, -min(theta.coeffs, default=0) // exps[-1] + 1):
        q.append(big.mul_int(lifted[j], j) if j < p else big.zero())
        for i in range(1, min(j, p)):
            q[j] = big.sub(q[j], big.mul(lifted[i], q[j - i]))
        coeff = theta
        for e in reversed(exps):
            coeff = coeff.coeffs.get(-j * e)
            if coeff is None:
                break
        else:
            total = big.add(total, big.mul(q[j], coeff))
    return total


def schmid_symbol(f: NestedSeries, y: NestedSeries) -> int:
    """Classical one-variable, length-1 local symbol: trace of Res(f dlog y).

    The dlog window opens at ``1 - ord f`` terms, which is all Res reads.
    """
    if f.level != 1:
        raise InconsistentValue("the classical symbol oracle is one-variable only")
    if y.is_exact_zero():  # one zero only within its window refuses in dlog
        raise ZeroEntry("symbol entries must be nonzero")
    omega = dlog(y, max(1, 1 - f.low())).scale(f)
    return residue_to_prime_field(omega)


# ------------------------------------------------- characterizing identity

@dataclass(frozen=True)
class CharacterizationReport:
    n: int
    m: int
    b: int
    samples: int
    agreements: int
    schmid_checked: int
    embedding: str = FP_EMBEDDING
    mismatches: tuple = ()

    @property
    def all_equal(self) -> bool:
        return self.agreements == self.samples and not self.mismatches


def _random_window_terms(tower, rng, m: int, n: int, samples: int):
    """The terms of ``samples`` samples, each a list of 1..3 int codes;
    :func:`_window_term` reads a code as the raw term ``(exps, c, key)``,
    the form c * (lower monomial) * t^i dlog T_key with i in [m+1, n] of
    degree d - 1.

    Per sample the draws are those of ``rng.randint(1, 3)`` for the count,
    then per term ``rng.randint(m + 1, n)``,
    ``field_domain.random_nonzero(rng)``, ``rng.randint(-2, 2)`` per lower
    variable and ``rng.randint(1, d)``, each rejection-sampled here on the
    same bits (module docstring, "Symbols").  A code is the mixed radix, in draw order, of the top
    offset ``i - m - 1``, the base-``p`` digits of ``c``, each lower
    exponent plus 2 and the key minus 1."""
    bits = rng.getrandbits
    d_level = tower.d
    p, k = tower.p, tower.k
    q = p**k
    p_bits = p.bit_length()
    span = n - m
    span_bits = span.bit_length()
    key_bits = d_level.bit_length()
    lower = range(d_level - 1)
    draws = []
    for _ in range(samples):
        count = bits(2)  # the terms after the first
        while count == 3:
            count = bits(2)
        codes = []
        while True:
            code = bits(span_bits)
            while code >= span:
                code = bits(span_bits)
            if k == 1:
                c = bits(p_bits)
                while c == 0 or c >= p:
                    c = bits(p_bits)
            else:
                c = 0
                while not c:  # c is 0 again after k zero digits
                    for _ in range(k):
                        r = bits(p_bits)
                        while r >= p:
                            r = bits(p_bits)
                        c = c * p + r
            code = code * q + c
            if lower:
                for _ in lower:
                    r = bits(3)
                    while r >= 5:
                        r = bits(3)
                    code = code * 5 + r
                r = bits(key_bits)
                while r >= d_level:
                    r = bits(key_bits)
                code = code * d_level + r
            codes.append(code)
            if not count:
                break
            count -= 1
        draws.append(codes)
    return draws


def _window_term(code: int, tower, m: int):
    """The raw term ``(exps, c, key)`` of a code of
    :func:`_random_window_terms`: its radices read back, last first."""
    p, k, d_level = tower.p, tower.k, tower.d
    key = lower = ()
    if d_level > 1:
        code, r = divmod(code, d_level)
        key = (r + 1,)
        for _ in range(d_level - 1):
            code, r = divmod(code, 5)
            lower = (r - 2,) + lower
    if k == 1:
        code, c = divmod(code, p)
    else:
        c = ()
        for _ in range(k):
            code, r = divmod(code, p)
            c = (r,) + c
    return lower + (m + 1 + code,), c, key


def _pairing(window: WindowedForm, term) -> int:
    """``Res_F(R_b(window ^ alpha))`` in F_p for the raw term ``(exps, c,
    key)`` of :func:`_window_term`, ``alpha = c T^exps dlog T_key`` in the
    dual window of a window over ``F_q``: the trace of ``sgn c R_K[-exps]``
    (module docstring, "The right side")."""
    exps, c, key = term
    form = window.form
    domain = form.domain
    partner = tuple(v for v in range(1, form.level + 1) if v not in key)
    coeff = form.coeffs.get(partner)
    if coeff is None:
        return 0
    for e in reversed(exps):
        coeff = coeff.coefficient(-e)
    raw = domain.mul(c, coeff)
    if _merge_sign(partner, key)[0] < 0:
        raw = domain.neg(raw)
    return domain.trace(raw) % domain.modulus


def _recount(draws, known, modulus: int):
    """The agreements and the mismatch entries of the samples ``draws``,
    each term code's values looked up in ``known``, sample by sample."""
    agreements = 0
    mismatches = []
    for idx, terms in enumerate(draws):
        records = [known[term] for term in terms]
        for val, oracle, _ in records:
            if oracle is not None and oracle % modulus != val % modulus:
                mismatches.append(
                    {"sample": idx, "kind": "schmid-oracle", "symbol": val, "oracle": oracle}
                )
        lhs = sum([record[0] for record in records]) % modulus
        rhs = sum([record[2] for record in records]) % modulus
        if lhs == rhs:
            agreements += 1
        else:
            mismatches.append({"sample": idx, "kind": "identity", "lhs": lhs, "rhs": rhs})
    return agreements, mismatches


def verify_rsw_characterization(
    char: Character | WittVector, samples: int, seed: int = 0
) -> CharacterizationReport:
    """Check chi(E(alpha)) = Res_F(R_b(Rsw(chi) ^ alpha)) on random alpha.

    alpha runs over the window m^(m+1)/m^(n+1) of degree-(d-1) forms, as a
    random small sum of monomial terms; the left side goes through symbols
    {E(x), T_lambda}, read off the coefficients of theta, the right side is
    r_b with the minimal b such that p^b >= n - m (the report's ``b``),
    then residue, trace, and the embedding 1 |-> p^(s-1), read off the
    coefficients of Rsw(chi).

    The orientation, for alpha = x dlog T_lambda (no dlog at d = 1) with
    ord x >= m + 1:

    * congruence (3) of :func:`check_exp_congruences` gives
      ``dlog E(x) = dx - x^(p-1) dx / ((p-1)! E(x))``.  The second term, the
      truncated exponential's higher part, has order at least
      ``p(m + 1) > n`` (``m = n // p``): it lies past the window
      ``m^(m+1)/m^(n+1)`` that both sides read, so there ``dlog E(x) = dx``;
    * the left side is ``Res(theta dlog E(x) ^ dlog T_lambda)``, and the
      residue of an exact form is 0, so
      ``Res(theta dx ^ dlog T_lambda) = -Res(x dtheta ^ dlog T_lambda)``;
    * at d = 1 this reads ``chi(E(x)) = -Res(x dtheta)``, which the Schmid
      oracle pins and which equals ``Res(x Rsw(chi))``: on the window
      ``Rsw(chi)`` acts as ``-dtheta``;
    * at d = 2 the same step gives ``Res(-dtheta ^ x dlog T_lambda)``.

    So for every d

        chi(E(alpha)) = Res(Rsw(chi) ^ alpha) = (-1)^(d-1) Res(alpha ^ Rsw(chi)),

    and the right side pairs ``Rsw(chi) ^ alpha``; the two orders differ at
    d = 2 by a sign that only odd p can see.  The symbol and the refined
    Swan conductor are those of the paper (rswan, arXiv 1809.01324) and of
    K. Kato, "Swan conductors for characters of degree one in the imperfect
    residue field case", Contemp. Math. 83 (1989).

    Both sides are additive in alpha.  The left side is a sum of symbols
    by definition; on the right each map is additive:

    * the wedge with Rsw(chi) is bilinear;
    * window truncation and ``residue_step`` read off coefficients;
    * Cartier is additive in characteristic p: (a + b)^(1/p) = a^(1/p) + b^(1/p);
    * the trace to F_p is additive;
    * 1 |-> p^(s-1) is a group homomorphism F_p -> Z/p^s.

    So each distinct drawn term, keyed by its raw monomial ``(exps, c,
    key)``, has its symbol, its Schmid oracle value (at s = 1, d = 1) and
    its own pairing evaluated once per call.  :class:`_LeftSide` reads a
    symbol off ``theta``'s coefficients, through one sum per distinct
    ``(exps, c)`` whatever its key; ``E(x)`` is built only for the Schmid
    oracle and for a term it hands off (module docstring, "The left
    side").  :func:`_pairing` reads a term's pairing
    off ``Rsw(chi)``'s coefficients ("The right side").  Within a sample
    the new symbols come first, in draw order, then the new pairings, so
    an exception comes from the sample's first failing symbol.

    Agreements are counted per term.  A sample's two sides are the sums of
    its terms' values, so when every distinct term agrees (its symbol
    equals its pairing, and its Schmid value where one is taken) every
    sample agrees, and the Schmid check runs once per term occurrence.
    So the loop draws every sample in one call, as int codes (module
    docstring, "Symbols"), skips a sample whose codes are all known after
    one membership pass, and reads a code back into its term only to
    evaluate it.  When some term disagrees, one pass over the kept draws
    sums each sample's sides and lists the mismatches in sample order, a
    sample's Schmid entries before its identity entry.

    ``samples`` must be a positive int (not a bool): anything else raises
    :class:`InconsistentValue`.
    """
    if type(samples) is not int or samples < 1:  # bools are ints to isinstance
        raise InconsistentValue(f"samples must be a positive integer (got {samples!r})")
    char = asw_reduce(char)
    tower = char.tower
    if tower.d not in (1, 2):
        raise InconsistentValue("the identity checker covers one- and two-variable towers")
    p, s = tower.p, tower.s
    n = swan_conductor(char)
    if n == 0:
        raise UnramifiedCharacter("the identity is about ramified characters")
    value = rsw_char_p(char)
    m = value.m
    theta = theta_lift(char.vector)
    rng = random.Random(seed)
    modulus = p**s
    embed = p ** (s - 1)
    schmid = s == 1 and tower.d == 1
    known: dict = {}  # term code -> (symbol value, Schmid oracle value or None, pairing)
    left = _LeftSide(theta, tower)
    draws = _random_window_terms(tower, rng, m, n, samples)
    all_agree = True
    for codes in draws:
        for code in codes:
            if code not in known:
                break
        else:
            continue
        # Left side: the symbol {E(x), T_lambda} of each new term.
        fresh = {}
        for code in codes:
            if code in known or code in fresh:
                continue
            term = _window_term(code, tower, m)
            fresh[code] = term, left.symbol(term), schmid_symbol(
                char.vector.comps[0], _exponential(tower, *term[:2])) if schmid else None
        # Right side: Rsw(chi) paired with each new term.
        for code, (term, val, oracle) in fresh.items():
            pairing = _pairing(value.window, term) * embed % modulus
            known[code] = val, oracle, pairing
            if val % modulus != pairing or schmid and oracle % modulus != val % modulus:
                all_agree = False
    agreements, mismatches = (samples, []) if all_agree else _recount(draws, known, modulus)
    return CharacterizationReport(
        n=n, m=m, b=minimal_b(p, value.window.width), samples=samples, agreements=agreements,
        schmid_checked=sum(map(len, draws)) if schmid else 0, mismatches=tuple(mismatches[:10]),
    )
