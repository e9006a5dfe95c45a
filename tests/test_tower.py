"""Tower descriptors and the canned catalog refuse bad parameters with the
library's own errors: ``ConfigError`` for a malformed descriptor or an
unknown catalog, ``TowerMismatch`` for a structure the tower lacks."""

import pytest

from rswan.catalog import canned_config
from rswan.errors import ConfigError, TowerMismatch
from rswan.tower import MAX_PRECISION, FieldTower


@pytest.mark.parametrize("kwargs,message", [
    (dict(p=2, k=1, s=1, variables=("t", "t")), "must be distinct"),
    (dict(p=2, k=1, s=1, variables=("g",)), "bad variable name"),
    (dict(p=2, k=1, s=1, variables=("1t",)), "bad variable name"),
    (dict(p=2, k=1, s=1, variables=("t",), precision=3), "too small"),
    (dict(p=2, k=1, s=1, variables=("t",), precision=MAX_PRECISION + 1), "above the cap"),
])
def test_malformed_towers_are_config_errors(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        FieldTower(**kwargs)


def test_a_zero_dimensional_tower_has_no_uniformizer():
    with pytest.raises(TowerMismatch, match="no uniformizer"):
        FieldTower(2, 1, 1, ()).uniformizer


def test_an_unknown_catalog_is_a_config_error():
    with pytest.raises(ConfigError, match="no canned catalog"):
        canned_config(7)
