"""Property tests of Witt sums on random windows (skipped without
Hypothesis).

Random exact and windowed vectors over every ``(p, k)`` the loader accepts,
at lift lengths 1 and 2 and, over small vectors, 3 and 4, one or two
variables.  Some components are zero and some are copies of another
input's, so that the ghost recursion meets slots with one kept input and
equal terms.  ``witt_combine`` equals the recursion that merges nothing
(``test_witt.unmerged_ghost_recursion``), by value or by (type, message,
exponent); addition commutes, and ``(a + b) - b`` agrees with ``a``.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rswan.errors import RswanError  # noqa: E402
from rswan.scalars import DEFINING_POLYNOMIALS  # noqa: E402
from rswan.series import NestedSeries  # noqa: E402
from rswan.tower import FieldTower  # noqa: E402
from rswan.witt import WittVector, witt_combine  # noqa: E402
from test_witt import unmerged_combine  # noqa: E402

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
