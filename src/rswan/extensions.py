"""Field embeddings of variable towers: pullbacks and conductor behavior.

An :class:`ExtensionMap` sends each source variable to a series over the
target tower (same constants, same length).  Characters pull back
componentwise and are re-reduced on the target side; the source character is
reduced *before* pulling back, so tame coboundary junk never inflates the
source conductor entering the comparison.

``delta_tor`` measures the torsion depth of the embedding for one-variable
source fields: the minimum target-order of the coefficients of ``dlog phi``
(``phi`` the image of the source uniformizer, of order ``e``) in the basis
``{db_lambda = T_lambda dlog T_lambda, dlog pi_L}``.  In a field the
coefficient of ``dlog T_lambda`` is ``T_lambda d_lambda phi / phi``, and the
shift to ``db_lambda`` moves no top exponent, so the depth is ``min_lambda
ord(T_lambda d_lambda phi) - e``, read without an inverse.  Under the strong-
ramification hypothesis ``Sw > (p/(p-1)) * delta/e`` the target conductor is
``e*Sw - delta``; :func:`conductor_change` reports both sides and a
PASS/FAIL/NOT_APPLICABLE verdict.

Planned pullbacks
-----------------
The pullback of an exact source component whose deepest pole is ``T^-L``
through an exact image of order ``e`` with at least two terms is known
below ``precision - e L`` (:mod:`rswan.substitution`).
:func:`pullback_character` plans these ceilings for every component first
and raises the target reduction's refusal of the first one ``<= 0`` before
any substitution.  It plans nothing when the character is not over the
source tower, the source has more than one variable, the image is a
monomial, windowed or over a larger tower, a component is windowed, or some
``-e L`` lies below the exponent floor (the substitution raises
``ExponentOutOfRange`` there).  Past this source-side plan, the target
reduction refuses an uncovered Witt tail of any length before combining it
(:mod:`rswan.witt`, "Reduction").

Two ratio experiments live here as well: the imperfect-residue family
``u -> v^p + w, t -> w^t`` (ratios 2 - 1/t) and curve restriction over
F_p(x)((t)) (generic conductor vs. per-curve conductors, ratios like
3 - 1/e).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NonEmbedding,
    NonPerfectBase,
    PrecisionExhausted,
    TowerMismatch,
)
from .logdiff import log_derivative
from .ratfunc import RatFuncDomain
from .scalars import _Frozen
from .series import _ORD_FLOOR, NestedSeries, _divide_by_power
from .substitution import series_substitute
from .tower import DEFAULT_PRECISION, FieldTower
from .witt import (
    Character,
    WittVector,
    _uncovered_polar_part,
    asw_reduce,
    asw_reduce_components,
    swan_conductor,
    swan_of_components,
)

__all__ = [
    "ExtensionMap",
    "ramification_index",
    "pullback_series",
    "pullback_character",
    "delta_tor",
    "ConductorChangeReport",
    "conductor_change",
    "imperfect_residue_family",
    "perfect_residue_ratios",
    "curve_restriction_ratios",
]


class ExtensionMap(_Frozen):
    """An embedding of the source tower's field into the target tower's.

    ``images`` maps every source variable name to its image series.  The top
    source variable (the uniformizer) must map to a series of positive
    target-top order; the lower variables are units of the valuation ring
    and must map to units (target-top order exactly zero).
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: FieldTower, target: FieldTower, images: dict):
        if (source.p, source.k, source.s) != (target.p, target.k, target.s):
            raise TowerMismatch(
                "source and target towers must share p, the constant field, and the length"
            )
        resolved = {}
        for idx, name in enumerate(source.variables):
            if name not in images:
                raise NonEmbedding(f"no image given for source variable {name!r}")
            img = images[name]
            if not isinstance(img, NestedSeries) or img.level != target.d:
                raise NonEmbedding(
                    f"image of {name!r} must be a series over the target tower"
                )
            if img.domain is not target.field_domain:
                raise NonEmbedding(f"image of {name!r} lives over the wrong coefficients")
            if img.is_exact_zero():
                raise NonEmbedding(f"image of {name!r} is zero")
            if img.is_zero():
                raise PrecisionExhausted(
                    f"image of {name!r} is zero within its window; cannot certify an embedding",
                    exponent=img.ceiling,
                )
            is_top = idx == len(source.variables) - 1
            if is_top:
                if img.ord() < 1:
                    raise NonEmbedding(
                        f"the source uniformizer must map into the maximal ideal "
                        f"(image of {name!r} has order {img.ord()})"
                    )
            else:
                if img.ord() != 0:
                    raise NonEmbedding(
                        f"lower variables are units; image of {name!r} has order {img.ord()}"
                    )
            resolved[name] = img
        unused = set(images) - set(resolved)
        if unused:
            raise NonEmbedding(f"images given for unknown variables: {sorted(unused)}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", resolved)


def ramification_index(ext: ExtensionMap) -> int:
    """Target order of the image of the source uniformizer."""
    return ext.images[ext.source.variables[-1]].ord()


def pullback_series(ext: ExtensionMap, sr: NestedSeries) -> NestedSeries:
    """Image of a source series under the embedding.

    Coefficients are shared constants; each source variable is replaced by
    its image (see :func:`~rswan.substitution.series_substitute`).  A finite
    source window propagates to the target window at ``ceiling * e``; a
    window on a lower-variable coefficient raises
    :class:`PrecisionExhausted`, since lower variables map to units.
    """
    if sr.level != ext.source.d:
        raise TowerMismatch("series does not live over the source tower")
    images = {
        level: ext.images[name] for level, name in enumerate(ext.source.variables, 1)
    }
    return series_substitute(sr, images, ext.target.precision)


def _planned_ceilings(ext: ExtensionMap, char: Character):
    """The pullback ceiling of each component of the reduced ``char``, None
    for an exact pullback; None when they are not all planned (module
    docstring, "Planned pullbacks")."""
    img = ext.images[ext.source.variables[-1]]
    if (char.tower != ext.source or ext.source.d != 1 or img.level != 1
            or img.ceiling is not None or len(img.coeffs) < 2):
        return None
    e = img.ord()
    ceilings = []
    for c in char.vector.comps:
        if c.ceiling is not None:
            return None
        poles = -min(c.coeffs, default=0)
        if poles <= 0:
            ceilings.append(None)
        elif -e * poles < _ORD_FLOOR:
            return None  # its substitution raises ExponentOutOfRange
        else:
            ceilings.append(ext.target.precision - e * poles)
    return ceilings


def pullback_character(ext: ExtensionMap, char: Character | WittVector) -> Character:
    """Reduce over the source, pull each component back, re-reduce over the
    target; a refusal of the target reduction that the planned windows
    decide is raised before any substitution (module docstring)."""
    char = asw_reduce(char)
    for i, ceiling in enumerate(_planned_ceilings(ext, char) or ()):
        if ceiling is not None and ceiling <= 0:
            raise _uncovered_polar_part(i, ceiling)
    comps = tuple(pullback_series(ext, c) for c in char.vector.comps)
    return asw_reduce(Character(WittVector(ext.target, comps)))


def delta_tor(ext: ExtensionMap) -> int:
    """Torsion depth of the embedding (one-variable source fields only).

    The minimum target-top order of the coefficients of ``dlog(image of the
    source uniformizer)`` in the basis ``{db_lambda, dlog pi_L}``, read from
    the orders of the image's derivatives (module docstring).  An exactly
    zero derivative is skipped; a refusal names the exponent of the
    ``dlog`` coefficient at which a window hides it (its ceiling, or with
    an exact top the coefficient that is zero only within an inner window).
    """
    if ext.source.d != 1:
        raise NonPerfectBase(
            "the torsion depth is defined over a one-variable source field"
        )
    img = ext.images[ext.source.variables[-1]]
    shift = -img.ord()
    depths = []
    for lam in range(1, img.level + 1):
        # T_lambda d_lambda phi / T^e: the top exponents of the dlog coefficient
        c = log_derivative(img, lam).shift(shift)
        if c.is_exact_zero():
            continue
        if c.is_zero():
            raise PrecisionExhausted(
                "a dlog coefficient is zero within its window; "
                "the torsion depth cannot be certified",
                exponent=c.low() if c.ceiling is None else c.ceiling,
            )
        depths.append(c.ord())
    if not depths:
        raise NonEmbedding(
            "dlog of the uniformizer image vanishes identically "
            "(the image is a p-th power); the torsion depth is undefined"
        )
    return min(depths)


@dataclass(frozen=True)
class ConductorChangeReport:
    e: int
    delta: int
    sw_source: int
    sw_target: int
    predicted: int
    hypothesis_lhs: Fraction
    hypothesis_rhs: Fraction
    hypothesis_holds: bool
    status: str  # PASS | FAIL | NOT_APPLICABLE


def conductor_change(ext: ExtensionMap, char: Character | WittVector) -> ConductorChangeReport:
    """Compare the actual target conductor against ``e*Sw - delta``.

    The formula is asserted only under the strong-ramification hypothesis
    ``Sw > (p/(p-1)) * delta/e``; outside it the report carries both
    conductors and the verdict NOT_APPLICABLE.
    """
    char = asw_reduce(char)
    p = ext.source.p
    e = ramification_index(ext)
    delta = delta_tor(ext)
    sw_source = swan_conductor(char)
    sw_target = swan_conductor(pullback_character(ext, char))
    predicted = e * sw_source - delta
    lhs = Fraction(sw_source)
    rhs = Fraction(p, p - 1) * Fraction(delta, e)
    holds = lhs > rhs
    if not holds:
        status = "NOT_APPLICABLE"
    elif sw_target == predicted:
        status = "PASS"
    else:
        status = "FAIL"
    return ConductorChangeReport(
        e=e,
        delta=delta,
        sw_source=sw_source,
        sw_target=sw_target,
        predicted=predicted,
        hypothesis_lhs=lhs,
        hypothesis_rhs=rhs,
        hypothesis_holds=holds,
        status=status,
    )


# ------------------------------------------------- imperfect-residue ratios

def imperfect_residue_family(p: int, t_values):
    """The canned family ``u -> v^p + w, t -> w^t`` (t prime to p) together
    with its test character chi = (u t^-2) over F_p((u))((t))."""
    source = FieldTower(p, 1, 1, ("u", "t"))
    target = FieldTower(p, 1, 1, ("v", "w"))
    fd = source.field_domain
    chi = asw_reduce(
        Character(
            WittVector(
                source,
                (NestedSeries.from_monomials(2, fd, [((1, -2), fd.one())]),),
            )
        )
    )
    tfd = target.field_domain
    u_image = NestedSeries.from_monomials(
        2, tfd, [((p, 0), tfd.one()), ((0, 1), tfd.one())]
    )
    family = []
    for t in t_values:
        if t % p == 0:
            raise NonEmbedding(f"family exponent t = {t} must be prime to p = {p}")
        t_image = NestedSeries.from_monomials(2, tfd, [((0, t), tfd.one())])
        family.append(ExtensionMap(source, target, {"u": u_image, "t": t_image}))
    return chi, family


def perfect_residue_ratios(chi: Character | WittVector, family):
    """Conductor growth ratios ``Sw(pullback)/e`` over a family of embeddings.

    Every ratio is bounded by the source conductor ``n``; the report carries
    the rows, the maximum, and the residue-decomposition gate (``c`` not a
    unit, residual coefficients units) under which the canned family
    ``u -> v^p + w, t -> w^t`` realizes the ratio ``n - 1/t`` exactly.
    """
    from .rsw import rsw_char_p, rsw_decompose

    chi = asw_reduce(chi)
    n = swan_conductor(chi)
    decomposition = rsw_decompose(rsw_char_p(chi))
    gate = (not decomposition.c_is_unit) and all(
        decomposition.residual_units.values()
    ) and decomposition.residual
    rows = []
    for ext in family:
        e = ramification_index(ext)
        sw_t = swan_conductor(pullback_character(ext, chi))
        rows.append({"e": e, "sw_target": sw_t, "ratio": Fraction(sw_t, e)})
    return {
        "sw_source": n,
        "formula_applies": bool(gate),
        "c_is_unit": decomposition.c_is_unit,
        "residual_units": dict(decomposition.residual_units),
        "rows": rows,
        "max_ratio": max((r["ratio"] for r in rows), default=Fraction(0)),
        "all_bounded": all(r["ratio"] <= n for r in rows),
    }


# ---------------------------------------------------- curve restriction

def _curve_x(x0: int, domain) -> NestedSeries:
    """``x0 + u`` over ``domain`` (F_p): what the curves substitute for x."""
    return NestedSeries.from_monomials(1, domain, [((0,), domain.from_int(x0)), ((1,), domain.one())])


def _eval_poly_at(series_base: NestedSeries, coeffs, domain) -> NestedSeries:
    acc = NestedSeries.zero(series_base.level, domain)
    for c in reversed(coeffs):
        acc = acc * series_base + NestedSeries.constant(
            series_base.level, domain, domain.from_int(c)
        )
    return acc


def curve_restriction_ratios(p: int, f: NestedSeries, x0: int, exponents, *,
                             precision: int = DEFAULT_PRECISION):
    """Restrict a character over F_p(x)((t)) to curves t -> u^e, x -> x0 + u.

    ``f`` is a length-one component with coefficients in F_p(x) (the
    :class:`~rswan.ratfunc.RatFuncDomain`).  The generic conductor is
    computed over the rational-function field; each curve gives a character
    over F_p((u)) whose conductor divided by e approaches the generic one
    from below.  Coefficients with a pole at x0 are rejected.  The curves'
    tower F_p((u)) has the budget ``precision``.
    """
    if not isinstance(f.domain, RatFuncDomain) or f.domain.p != p:
        raise TowerMismatch("f must have F_p(x) coefficients for this experiment")
    if f.level != 1:
        raise TowerMismatch("the experiment restricts one-variable characters")
    sw_generic = swan_of_components(asw_reduce_components([f], p), p)
    target = FieldTower(p, 1, 1, ("u",), precision=precision)
    fd = target.field_domain
    base = _curve_x(x0, fd)
    monomials = list(f.iter_monomials())
    quotients = []  # num/den at x0 + u per monomial, filled in the first exponent's pass
    rows = []
    for e in exponents:
        acc = NestedSeries.zero(1, fd)
        for index, ((te,), (num, den)) in enumerate(monomials):
            if index == len(quotients):
                den_s = _eval_poly_at(base, den, fd)
                if den_s.is_zero() or den_s.ord() > 0:
                    raise NonEmbedding(
                        f"coefficient denominator vanishes at x = {x0}; the curve "
                        "meets a pole of the character"
                    )
                quotients.append(_divide_by_power(_eval_poly_at(base, num, fd), den_s, 1,
                                                  target.precision))
            acc = acc + quotients[index].shift(e * te)
        chi_e = asw_reduce(Character(WittVector(target, (acc,))))
        sw_e = swan_conductor(chi_e)
        rows.append({"e": e, "sw": sw_e, "ratio": Fraction(sw_e, e)})
    return {
        "sw_generic": sw_generic,
        "rows": rows,
        "all_bounded": all(r["ratio"] <= sw_generic for r in rows),
    }
