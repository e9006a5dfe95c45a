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
built from the monomials of alpha, the right side through the window
collapse r_b and the residue-plus-trace map (the orientation is derived in
:func:`verify_rsw_characterization`).

Symbols
-------
Since ``dlog y = dy y^-1``,

    Res(theta ^ dlog y~_1 ^ ... ^ dlog y~_d)
        = Res((theta ^ dy~_1 ^ ... ^ dy~_d) * prod_i y~_i^-1),

so a symbol builds the small form ``omega = theta ^ dy~_1 ^ ... ^ dy~_d``
and ``g = prod_i y~_i^-1``, every entry by the same rule, and reads the
residue through :func:`logdiff.residue_of_product`, whose value and
refusals are those of ``residue_to_prime_field(omega.scale(g))``; the wide
product ``omega * g``, and the ``dlog`` forms with it, are never built.
The windows of the two routes differ.  An exactly zero derivative is an
exact zero here, where ``dlog`` left ``0 * y~^-1`` zero only within the
inverse's window, so some symbols the ``dlog`` forms refused now answer.
The other way, a window of ``theta`` can meet terms that cancel only
inside the full ``dlog y~``; what the product-free residue refuses at both
widths therefore goes through the ``dlog`` forms, so every symbol the
``dlog`` forms answer still answers, with the same value.
:func:`schmid_symbol` stays on the ``dlog`` forms: it is an independent
oracle for the one-variable, length-1 symbols of the check.

The terms of a sample are drawn by :func:`_below`, CPython's rejection
sampling on ``getrandbits`` (``Random._randbelow_with_getrandbits``), with
the widths, the order and the redraws of ``randint`` and
``random_nonzero``: a coefficient of ``F_p`` is redrawn while it is 0 or at
least p, one of ``F_q`` (``k > 1``) while all its coordinates are 0.  So
each seed draws the same terms from the same bits, and leaves the
generator in the same state, as those calls do.
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
    UnramifiedCharacter,
    ZeroEntry,
)
from .logdiff import (
    LogForm,
    WindowedForm,
    _level_lows,
    d,
    dlog,
    minimal_b,
    r_b,
    residue_of_product,
    residue_to_prime_field,
    wedge,
    wedge_windowed,
)
from .rsw import rsw_char_p
from .series import NestedSeries
from .witt import (
    Character,
    WittVector,
    asw_reduce,
    ghost_component,
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
    lift ring: ``sum_i p^(s-1-i) * lift(a_i)^(p^i)`` in internal order."""
    if isinstance(vec, Character):
        vec = vec.vector
    tower = vec.tower
    lift = tower.lift_domain
    xs = [lift_series(x, lift) for x in vec.print_order]
    return ghost_component(xs, tower.s - 1, tower.p, NestedSeries.zero(tower.d, lift))


def eval_symbol(char: Character | WittVector, ys) -> int:
    """Value of the character on the symbol {y_1, ..., y_d}, in Z/p^s.

    Each ``y_i`` is a nonzero series over the residue tower; they are lifted
    coefficientwise and the residue of ``theta(f) ^_i dlog y~_i`` is traced
    down to Z/p^s.  This is the paper's symbol map, kept as the public
    entry that validates the entries before ``_symbol_value``, which the
    characterization check calls directly.
    """
    char = asw_reduce(char)
    tower = char.tower
    ys = list(ys)
    if len(ys) != tower.d:
        raise InconsistentValue(f"expected {tower.d} symbol entries, got {len(ys)}")
    for y in ys:
        if y.is_exact_zero():
            raise ZeroEntry("symbol entries must be nonzero")
        if y.is_zero():
            raise PrecisionExhausted("symbol entry is zero within its window", exponent=y.low())
    return _symbol_value(theta_lift(char.vector), tower, ys)


def _symbol_value(theta: NestedSeries, tower, ys) -> int:
    """Res of ``theta ^_i dlog y~_i``, traced to Z/p^s.

    Res reads nothing above T^0, so the inverses of the entries open at the
    width the lowest stored exponent of ``theta`` at any level needs (a
    coefficient zero only within an inner window counts), capped by the
    tower budget.  Lower-level poles of the entries can make that width too
    small; the residue is then computed once more at the cap.  What the
    product-free residue refuses at both widths goes through the ``dlog``
    forms at both (module docstring, "Symbols"); when neither answers, the
    refusal names the width the symbol opens and the budget.
    """
    low = min(_level_lows(theta, {}).values(), default=0)
    opened, budget = max(1, 1 - low), tower.precision
    widths = sorted({min(opened, budget), budget})
    for residue in (_residue_of_symbol, _residue_through_dlog):
        for width in widths:
            try:
                return residue(theta, tower, ys, width)
            except PrecisionExhausted as exc:
                cause = exc
    raise PrecisionExhausted(
        f"the symbol opens windows of width {opened}; its residue is not certified "
        f"within the budget {budget}",
        exponent=0,
    ) from cause


def _residue_of_symbol(theta: NestedSeries, tower, ys, width: int) -> int:
    """``Res(theta ^ dy~_1 ^ ... ^ dy~_d * prod_i y~_i^-1)``: the symbol's
    residue with ``dlog y = dy y^-1`` and each inverse at ``width``
    (module docstring, "Symbols")."""
    big = tower.lift_domain
    omega = LogForm.from_series(theta)
    g = None
    for y in ys:
        y = lift_series(y, big)
        omega = wedge(omega, d(y))
        inv = y.inv(width)
        g = inv if g is None else g * inv
    return residue_of_product(omega, g)


def _residue_through_dlog(theta: NestedSeries, tower, ys, width: int) -> int:
    """``Res(theta ^ dlog y~_1 ^ ... ^ dlog y~_d)`` with each ``dlog`` form
    built in full at ``width`` (module docstring, "Symbols")."""
    big = tower.lift_domain
    omega = LogForm.from_series(theta)
    for y in ys:
        omega = wedge(omega, dlog(lift_series(y, big), width))
    return residue_to_prime_field(omega)


def schmid_symbol(f: NestedSeries, y: NestedSeries) -> int:
    """Classical one-variable, length-1 local symbol: trace of Res(f dlog y).

    The dlog window opens at ``1 - ord f`` terms, which is all Res reads.
    """
    if f.level != 1:
        raise InconsistentValue("the classical symbol oracle is one-variable only")
    if y.is_zero():
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


def _below(getrandbits, width: int) -> int:
    """A draw from ``range(width)`` taking the bits ``rng.randrange(width)``
    takes: ``width.bit_length()`` bits, redrawn while ``>= width`` (so a
    width of 1 still takes a bit)."""
    bits = width.bit_length()
    r = getrandbits(bits)
    while r >= width:
        r = getrandbits(bits)
    return r


def _random_window_terms(tower, rng, m: int, n: int):
    """1..3 random raw terms ``(exps, c, key)``, each standing for the form
    c * (lower monomial) * t^i dlog T_key with i in [m+1, n]; degree d - 1.

    The draws are those of ``rng.randint(1, 3)`` for the count, then per
    term ``rng.randint(m + 1, n)``, ``field_domain.random_nonzero(rng)``,
    ``rng.randint(-2, 2)`` per lower variable and ``rng.randint(1, d)``,
    made through :func:`_below` from the same bits (module docstring,
    "Symbols")."""
    bits = rng.getrandbits
    d_level = tower.d
    p, k = tower.p, tower.k
    p_bits = p.bit_length()
    terms = []
    for _ in range(1 + _below(bits, 3)):
        i = m + 1 + _below(bits, n - m)
        if k == 1:
            c = bits(p_bits)
            while not 0 < c < p:
                c = bits(p_bits)
        else:
            c = tuple([_below(bits, p) for _ in range(k)])
            while not any(c):
                c = tuple([_below(bits, p) for _ in range(k)])
        if d_level == 1:
            terms.append(((i,), c, ()))
        else:
            lower = tuple([_below(bits, 5) - 2 for _ in range(d_level - 1)])
            terms.append((lower + (i,), c, (1 + _below(bits, d_level),)))
    return terms


def verify_rsw_characterization(
    char: Character | WittVector, samples: int, seed: int = 0
) -> CharacterizationReport:
    """Check chi(E(alpha)) = Res_F(R_b(Rsw(chi) ^ alpha)) on random alpha.

    alpha runs over the window m^(m+1)/m^(n+1) of degree-(d-1) forms, as a
    random small sum of monomial terms; the left side goes through symbols
    {E(x), T_lambda}, the right side through r_b with the minimal b such
    that p^b >= n - m, then residue, trace, and the embedding 1 |-> p^(s-1).

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
    key)``, has its series built and its symbol, its Schmid oracle value
    (at s = 1, d = 1) and its own pairing evaluated once per call; a
    sample's right side is the sum of its terms' pairings.  Within a
    sample the symbols come first, in draw order, then the new pairings,
    so an exception comes from the sample's first failing symbol.
    """
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
    b = minimal_b(p, n - m)
    theta = theta_lift(char.vector)
    domain = tower.field_domain
    rng = random.Random(seed)
    agreements = 0
    schmid_checked = 0
    mismatches = []
    modulus = p**s
    schmid = s == 1 and tower.d == 1
    known: dict = {}  # raw term -> [symbol value, Schmid oracle value or None, pairing]
    variables = {lam: NestedSeries.variable(tower.d, domain, lam) for lam in range(1, tower.d + 1)}
    for idx in range(samples):
        terms = _random_window_terms(tower, rng, m, n)
        # Left side: sum over terms of the symbol {E(x), T_lambda}.
        fresh = []
        lhs = 0
        for term in terms:
            if term not in known:
                exps, c, key = term
                x = NestedSeries.from_monomials(tower.d, domain, [(exps, c)])
                ys = [truncated_exp(x)] + [variables[lam] for lam in key]
                val = _symbol_value(theta, tower, ys)
                oracle = schmid_symbol(char.vector.comps[0], ys[0]) if schmid else None
                known[term] = [val, oracle, None]
                fresh.append((term, x))
            val, oracle, _ = known[term]
            lhs = (lhs + val) % modulus
            if schmid:
                if oracle % modulus != val % modulus:
                    mismatches.append(
                        {"sample": idx, "kind": "schmid-oracle", "symbol": val, "oracle": oracle}
                    )
                schmid_checked += 1
        # Right side: the invariant wedged with each new term x dlog T_key.
        for term, x in fresh:
            alpha = WindowedForm(LogForm(tower.d, domain, tower.d - 1, {term[2]: x}), -m - 1, -n - 1)
            res_val = residue_to_prime_field(r_b(wedge_windowed(value.window, alpha), b), domain)
            known[term][2] = (res_val * p ** (s - 1)) % modulus
        rhs = sum(known[term][2] for term in terms) % modulus
        if lhs == rhs:
            agreements += 1
        else:
            mismatches.append({"sample": idx, "kind": "identity", "lhs": lhs, "rhs": rhs})
    return CharacterizationReport(
        n=n,
        m=m,
        b=b,
        samples=samples,
        agreements=agreements,
        schmid_checked=schmid_checked,
        mismatches=tuple(mismatches[:10]),
    )
