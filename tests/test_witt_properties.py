"""Property tests of Witt sums on random windows (skipped without
Hypothesis).

Random exact and windowed vectors over every ``(p, k)`` the loader accepts,
at lift lengths 1 and 2 and, over small vectors, 3 and 4, one or two
variables.  Some components are zero and some are copies of another
input's, so that the ghost recursion meets slots with one kept input and
equal terms.  ``witt_combine`` equals the recursion that merges nothing
(``test_witt.unmerged_ghost_recursion``), by value or by (type, message,
exponent); addition commutes, and ``(a + b) - b`` agrees with ``a``.

The flat engine's packed ghost sum (``rswan._kernels._packed_ghost_sum``)
equals the dict loop of ``witt._flat_ghost_sum`` on random raw maps, dense
and sparse, and both refuse a sum that the divisor does not divide; at
``d = 1`` and ``k = 3`` and 4, which no workload reaches, ``witt_combine``
(each ``z_n`` reduced mod p as it is divided) equals
``test_witt.uncombined_witt_oracle``.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rswan import _kernels, witt  # noqa: E402
from rswan.errors import RswanError  # noqa: E402
from rswan.scalars import DEFINING_POLYNOMIALS, galois_ring_domain  # noqa: E402
from rswan.series import NestedSeries  # noqa: E402
from rswan.tower import FieldTower  # noqa: E402
from rswan.witt import WittVector, witt_combine  # noqa: E402
from test_witt import uncombined_witt_oracle, unmerged_combine  # noqa: E402

RINGS = sorted(DEFINING_POLYNOMIALS)


@st.composite
def component(draw, tower, windowed):
    """0..3 monomials, inner exponents in -2..2 and top ones in -4..2
    (-2..1 and at most 2 monomials at ``s >= 3``); when ``windowed``, a top
    window or inner windows, some coefficients zero within theirs."""
    d, dom = tower.d, tower.field_domain
    small = tower.s >= 3
    top = st.integers(-2, 1) if small else st.integers(-4, 2)
    monos = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(-2, 2)] * (d - 1), top), st.integers(1, tower.p**tower.k - 1)),
        max_size=2 if small else 3,
    ))
    x = NestedSeries.from_monomials(d, dom, [
        (exps, tuple((c // tower.p**j) % tower.p for j in range(tower.k)) if tower.k > 1 else c)
        for exps, c in monos
    ])
    if not windowed or not draw(st.booleans()):
        return x
    coeffs = x.coeffs
    if d > 1 and draw(st.booleans()):
        coeffs = {e: c.truncate(draw(st.integers(-2, 3))) for e, c in coeffs.items()}
    ceiling = draw(st.one_of(st.none(), st.integers(-2, 4)))
    return NestedSeries(d, dom, {e: c for e, c in coeffs.items()
                                 if ceiling is None or e < ceiling}, ceiling)


@st.composite
def combination(draw):
    """A tower, two to three component tuples (internal order) and their
    multipliers; a component is drawn, zero, or a copy of the first
    input's."""
    p, k = draw(st.sampled_from(RINGS))
    s = draw(st.sampled_from((1, 2, 2, 2, 3, 4))) if p == 2 else draw(st.sampled_from((1, 2, 2, 3)))
    if p ** (s - 1) * k > 12:
        s = 2
    d = draw(st.integers(1, 2))
    tower = FieldTower(p, k, s, ("u", "t")[2 - d:])
    windowed = draw(st.booleans())
    zero = NestedSeries.zero(d, tower.field_domain)
    vectors = [tuple(draw(component(tower, windowed)) for _ in range(s))]
    for _ in range(draw(st.integers(1, 2))):
        vectors.append(tuple(
            draw(st.sampled_from((None, zero, first)))
            for first in vectors[0]
        ))
        vectors[-1] = tuple(c if c is not None else draw(component(tower, windowed))
                            for c in vectors[-1])
    ints = draw(st.lists(st.sampled_from((1, -1, 2, p, -p - 1)), min_size=len(vectors),
                         max_size=len(vectors)))
    return tower, vectors, ints


def outcome(fn, *args):
    try:
        return fn(*args)
    except RswanError as exc:
        return type(exc), str(exc), getattr(exc, "exponent", None)


@settings(max_examples=120, deadline=None)
@given(combination())
def test_merged_sums_equal_the_unmerged_recursion(case):
    tower, vectors, ints = case
    assert outcome(witt_combine, vectors, ints, tower.p) == outcome(
        unmerged_combine, vectors, ints, tower.p
    )


@settings(max_examples=80, deadline=None)
@given(combination())
def test_addition_commutes_and_subtraction_undoes_it(case):
    tower, vectors, _ = case
    a, b = (WittVector(tower, comps) for comps in vectors[:2])
    total = outcome(lambda: a + b)
    assert outcome(lambda: b + a) == total
    if isinstance(total, WittVector):
        assert (total - b).agrees_with(a)


# ------------------------------------------------------- packed ghost sums

@st.composite
def raw_map(draw, lift, dense):
    """0..6 raw terms over the lift ring: exponents in a band of 8 when
    ``dense``, else spread over -150..150; some maps have every raw int at
    ``p^s - 1``, which fills the packed slots most."""
    k, m = lift.k, lift.modulus
    low = draw(st.integers(-12, 4))
    exps = st.integers(low, low + 7) if dense else st.integers(-150, 150)
    if draw(st.booleans()):
        coeff = st.just(m - 1 if k == 1 else (m - 1,) * k)
    else:
        coeff = st.integers(1, m - 1) if k == 1 else st.tuples(*[st.integers(0, m - 1)] * k).filter(any)
    return draw(st.dictionaries(exps, coeff, max_size=6))


@st.composite
def ghost_sum(draw):
    """A lift ring, 1..5 ``(c, x, e)`` terms with ``e = 1`` or a power of p
    no wider than the packing takes, and ``(q, mod)`` as the recursion's ghost index
    ``n`` passes them, ``(p^n, p^(n+1))``, or as the last ghost component
    does, ``(1, p^s)``; every multiplier is ``q`` times a drawn one
    (negative, or zero mod ``mod`` too), so that ``q`` divides the sum."""
    p, k = draw(st.sampled_from(RINGS))
    s = draw(st.integers(1, 4))
    lift = galois_ring_domain(p, k, s)
    powers = [1] + [p**j for j in range(1, s)
                    if p**j * (p**j * (k - 1) + 1) < _kernels._GHOST_PACK_WIDTHS.stop]
    if draw(st.booleans()):
        n = draw(st.integers(0, s - 1))
        q, mod = p**n, p ** (n + 1)
    else:
        q, mod = 1, lift.modulus
    dense = draw(st.booleans())
    terms = draw(st.lists(st.tuples(
        st.sampled_from((1, -1, 2, -3, mod // q, -(mod // q), lift.modulus)),
        raw_map(lift, dense),
        st.sampled_from(powers),
    ), min_size=1, max_size=5))
    return lift, [(q * c, x, e) for c, x, e in terms], q, mod


def dict_loop(lift, terms, q, mod):
    return outcome(witt._flat_ghost_sum, lift, terms, q, mod, False)


@settings(max_examples=100, deadline=None)
@given(ghost_sum())
def test_the_packed_ghost_sum_is_the_dict_loop(case):
    lift, terms, q, mod = case
    want = dict_loop(lift, terms, q, mod)
    assert not isinstance(want, tuple)
    assert _kernels._packed_ghost_sum(lift, terms, q, mod) == want
    if any(e > 1 and x and c % mod for c, x, e in terms):
        assert witt._flat_ghost_sum(lift, terms, q, mod, True) == want
    if q > 1:
        # one more unit at one exponent: q no longer divides the sum
        planted = terms + [(1, {0: lift.one()}, 1)]
        refusal = dict_loop(lift, planted, q, mod)
        assert refusal[0] is RswanError and "not divisible" in refusal[1]
        assert _kernels._packed_ghost_sum(lift, planted, q, mod) is None


@st.composite
def wide_field_combination(draw):
    """Dense ``d = 1`` vectors over ``F_8``, ``F_16``, ``F_27``, ``F_81``,
    ``F_125`` and ``F_625`` at lift lengths 2 and 3, in the workload's
    shape, and their multipliers."""
    p = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.sampled_from((3, 4)))
    s = draw(st.sampled_from((2, 3) if p < 5 else (2,)))
    tower = FieldTower(p, k, s, ("t",))
    dom = tower.field_domain
    comp = st.lists(st.tuples(st.integers(-4, 2), st.integers(1, p**k - 1)), max_size=4).map(
        lambda monos: NestedSeries.from_monomials(1, dom, [
            ((e,), tuple((c // p**j) % p for j in range(k))) for e, c in monos
        ])
    )
    count = draw(st.integers(2, 3))
    vectors = [tuple(draw(comp) for _ in range(s)) for _ in range(count)]
    ints = draw(st.lists(st.sampled_from((1, -1, 2, p, -p - 1)), min_size=count, max_size=count))
    return tower, vectors, ints


@settings(max_examples=30, deadline=None)
@given(wide_field_combination())
def test_wide_field_sums_equal_the_uncombined_oracle(case):
    tower, vectors, ints = case
    assert witt_combine(vectors, ints, tower.p) == uncombined_witt_oracle(vectors, ints, tower.p)
