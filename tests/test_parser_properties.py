"""Property tests of the literal grammar (skipped without Hypothesis).

Over every tower the loader accepts at ``k = 1, 2`` and ``d = 1, 2``,
variable names included, an exact series reads back from its rendering,
``parse_series(render_series(x)) == x``, and a windowed form of any degree
from its own, ``parse_windowed_form(render_form(w)) == w``.  A name the
grammar cannot read back (``dlog``, ``g``, a non-ASCII letter) is refused
when the tower is built (``tests/test_tower.py``).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rswan.errors import ConfigError  # noqa: E402
from rswan.logdiff import LogForm, WindowedForm  # noqa: E402
from rswan.parser import (  # noqa: E402
    parse_series,
    parse_windowed_form,
    render_form,
    render_series,
)
from rswan.series import NestedSeries  # noqa: E402
from rswan.tower import FieldTower  # noqa: E402

NAMES = st.one_of(
    st.sampled_from(["t", "u", "T1", "x_2", "O", "window", "dlog", "g"]),
    st.from_regex(r"[^\W\d]\w{0,2}", fullmatch=True),
)


@st.composite
def towers(draw):
    """``F_q((T_1))`` or ``F_q((T_1))((T_2))`` with ``q = p^k``, ``k <= 2``,
    under drawn names; a tower that refuses its names is not drawn."""
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 2))
    names = draw(st.lists(NAMES, min_size=1, max_size=2, unique=True))
    try:
        return FieldTower(p, k, 1, tuple(names))
    except ConfigError:
        assume(False)


@st.composite
def exact_series(draw, tower, top=st.integers(-6, 6)):
    """0..5 monomials, inner exponents in -3..3, raws any residue of F_q
    (zeros and repeats included)."""
    q = tower.p**tower.k
    monos = draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-3, 3)] * (tower.d - 1), top), st.integers(0, q - 1)),
        max_size=5))
    return NestedSeries.from_monomials(tower.d, tower.field_domain, [
        (exps, tuple((c // tower.p**j) % tower.p for j in range(tower.k)) if tower.k > 1 else c)
        for exps, c in monos
    ])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_an_exact_series_reads_back_from_its_rendering(data):
    tower = data.draw(towers())
    x = data.draw(exact_series(tower))
    assert parse_series(render_series(x, tower), tower) == x


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_windowed_form_reads_back_from_its_rendering(data):
    """A form of degree 0..d whose coefficients have top exponents in the
    window ``[-n, -m)`` or above it (those are cut)."""
    tower = data.draw(towers())
    n = data.draw(st.integers(-3, 6))
    m = data.draw(st.integers(-6, n - 1))
    degree = data.draw(st.integers(0, tower.d))
    keys = [(), (1,), (2,), (1, 2)]
    coeffs = {
        key: data.draw(exact_series(tower, top=st.integers(-n, -m + 2)))
        for key in keys if len(key) == degree and all(lam <= tower.d for lam in key)
    }
    w = WindowedForm(LogForm(tower.d, tower.field_domain, degree, coeffs), n, m)
    assert parse_windowed_form(render_form(w, tower), tower) == w

