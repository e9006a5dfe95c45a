"""Exact ramification invariants for Artin-Schreier-Witt characters.

The package computes Swan conductors, their mod-p differential refinements,
residue/Cartier pairings, reciprocity symbols, and conductor-change formulas
for characters of iterated truncated Laurent series fields in characteristic
p, entirely in exact arithmetic.
"""

from .errors import (
    ConfigError,
    DegreeMismatch,
    DegreeOverflow,
    ExponentOutOfRange,
    InconsistentValue,
    NonEmbedding,
    NonPerfectBase,
    NoPthRoot,
    NotTopDegree,
    NotTopological,
    ParseError,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
    UnknownVariable,
    UnramifiedCharacter,
    WindowTooWide,
    ZeroEntry,
    ZeroInput,
)
from .tower import FieldTower
from .series import NestedSeries
from .substitution import series_substitute
from .parser import parse_series, parse_windowed_form, render_form, render_series
from .witt import (
    Character,
    WittVector,
    asw_reduce,
    swan_conductor,
    witt_frobenius,
)
from .logdiff import (
    LogForm,
    WindowedForm,
    cartier,
    d,
    dlog,
    duality_matrix,
    gram_is_invertible,
    r_b,
    residue_to_prime_field,
    wedge,
    wedge_windowed,
)
from .rsw import (
    RswValue,
    rsw_char_p,
    rsw_decompose,
    rsw_form_at,
    rsw_is_closed,
    sw_from_rsw,
)
from .reciprocity import (
    check_exp_congruences,
    eval_symbol,
    schmid_symbol,
    theta_lift,
    truncated_exp,
    verify_rsw_characterization,
)
from .ratfunc import RatFuncDomain, rat_func_domain
from .extensions import (
    ExtensionMap,
    conductor_change,
    curve_restriction_ratios,
    delta_tor,
    imperfect_residue_family,
    perfect_residue_ratios,
    pullback_character,
    pullback_series,
    ramification_index,
)
from .catalog import CATALOG_PRIMES, canned_config, catalog_characters
from .cli import load_config, main, report_body_bytes, run

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RswanError",
    "ConfigError",
    "DegreeMismatch",
    "DegreeOverflow",
    "ExponentOutOfRange",
    "InconsistentValue",
    "NonEmbedding",
    "NonPerfectBase",
    "NoPthRoot",
    "NotTopDegree",
    "NotTopological",
    "ParseError",
    "PrecisionExhausted",
    "TowerMismatch",
    "UnknownVariable",
    "UnramifiedCharacter",
    "WindowTooWide",
    "ZeroEntry",
    "ZeroInput",
    # fields and series
    "FieldTower",
    "NestedSeries",
    "series_substitute",
    "parse_series",
    "render_series",
    # characters
    "Character",
    "WittVector",
    "asw_reduce",
    "swan_conductor",
    "witt_frobenius",
    # differential forms
    "LogForm",
    "WindowedForm",
    "cartier",
    "d",
    "dlog",
    "duality_matrix",
    "gram_is_invertible",
    "r_b",
    "residue_to_prime_field",
    "wedge",
    "wedge_windowed",
    # refined conductor
    "RswValue",
    "rsw_char_p",
    "rsw_decompose",
    "rsw_form_at",
    "rsw_is_closed",
    "sw_from_rsw",
    # reciprocity
    "check_exp_congruences",
    "eval_symbol",
    "schmid_symbol",
    "theta_lift",
    "truncated_exp",
    "verify_rsw_characterization",
    # scalars beyond finite fields
    "RatFuncDomain",
    "rat_func_domain",
    # extensions
    "ExtensionMap",
    "conductor_change",
    "curve_restriction_ratios",
    "delta_tor",
    "imperfect_residue_family",
    "perfect_residue_ratios",
    "pullback_character",
    "pullback_series",
    "ramification_index",
    # catalog and front-end
    "CATALOG_PRIMES",
    "canned_config",
    "catalog_characters",
    "load_config",
    "main",
    "parse_windowed_form",
    "render_form",
    "report_body_bytes",
    "run",
]
