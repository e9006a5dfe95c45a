"""Tower descriptors and the canned catalog refuse bad parameters with the
library's own error, ``ConfigError``: a malformed descriptor (a tower with
no variables among them) or an unknown catalog."""

import pytest

from rswan.catalog import canned_config
from rswan.errors import ConfigError
from rswan.tower import MAX_PRECISION, FieldTower


@pytest.mark.parametrize("kwargs,message", [
    (dict(p=2, k=1, s=1, variables=("t", "t")), "must be distinct"),
    (dict(p=2, k=1, s=1, variables=("g",)), "bad variable name"),
    (dict(p=2, k=1, s=1, variables=("1t",)), "bad variable name"),
    (dict(p=2, k=1, s=1, variables=("t",), precision=3), "too small"),
    (dict(p=2, k=1, s=1, variables=("t",), precision=MAX_PRECISION + 1), "above the cap"),
    # names the literal grammar cannot read back: one of its words, non-ASCII
    (dict(p=2, k=1, s=1, variables=("u", "dlog")), "bad variable name"),
    (dict(p=2, k=1, s=1, variables=("é",)), "bad variable name"),
    (dict(p=2, k=1, s=1, variables=("tµ",)), "bad variable name"),
    # a zero-dimensional tower has no uniformizer, so it is never built
    (dict(p=2, k=1, s=1, variables=()), "at least one variable"),
])
def test_malformed_towers_are_config_errors(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        FieldTower(**kwargs)


def test_an_unknown_catalog_is_a_config_error():
    with pytest.raises(ConfigError, match="no canned catalog"):
        canned_config(7)


def test_an_edited_canned_config_leaves_the_next_one_unchanged():
    """``canned_config`` hands out fresh objects: editing the extension
    images or the thmC exponents of one config reaches neither the catalog
    tables nor a later config."""
    pristine = canned_config(2)
    edited = canned_config(2)
    edited["extensions"]["phi_wild"]["images"]["t"] = "u^5"
    thmc = next(task for task in edited["tasks"] if task["task"] == "thmC")
    thmc["exponents"].append(16)
    thmc["expect_ratios"].clear()
    next(task for task in edited["tasks"] if task["task"] == "thmB")["t_values"].pop()
    assert canned_config(2) == pristine
    assert pristine["extensions"]["phi_wild"]["images"]["t"] == "u^2*(1+u)"
