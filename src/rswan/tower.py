"""Tower descriptors for iterated Laurent series fields.

A :class:`FieldTower` names the field K = F_q((T_1))...((T_d)) together with
the lift length s used by its characters and the precision budget N that
caps the width of any freshly created finite window (4 <= N <= 4096).
Towers are immutable value objects; all structural checks (TowerMismatch
and friends) compare them by equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, TowerMismatch
from .scalars import fq_domain, galois_ring_domain

__all__ = ["FieldTower"]

DEFAULT_PRECISION = 64
# Fresh windows are allocated one slot per exponent (the level-1 inverse
# keeps a list of the width), so the budget is capped.
MAX_PRECISION = 4096


@dataclass(frozen=True)
class FieldTower:
    """F_q((T_1))...((T_d)) with q = p^k, Witt/lift length s, precision N.

    ``variables`` are listed inside-out: ``variables[-1]`` is the uniformizer
    of K, ``variables[:-1]`` generate the residue field.  The absolute
    ramification index is infinite (equal characteristic); there is no e_K
    field for that reason.
    """

    p: int
    k: int
    s: int
    variables: tuple[str, ...]
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if isinstance(self.variables, list):
            object.__setattr__(self, "variables", tuple(self.variables))
        # checks the lift length and looks up the table entry for (p, k)
        galois_ring_domain(self.p, self.k, self.s)
        if len(set(self.variables)) != len(self.variables):
            raise ConfigError("tower variables must be distinct")
        for v in self.variables:
            if not v.isidentifier() or v == "g":
                raise ConfigError(f"bad variable name {v!r}")
        if self.precision < 4:
            raise ConfigError("precision budget too small to be useful")
        if self.precision > MAX_PRECISION:
            raise ConfigError(f"precision budget {self.precision} above the cap {MAX_PRECISION}")

    # -- structure ----------------------------------------------------------
    @property
    def d(self) -> int:
        return len(self.variables)

    @property
    def uniformizer(self) -> str:
        if not self.variables:
            raise TowerMismatch("a zero-dimensional tower has no uniformizer")
        return self.variables[-1]

    def level_of(self, name: str) -> int:
        """1-based level of a variable (1 = innermost)."""
        try:
            return self.variables.index(name) + 1
        except ValueError:
            raise TowerMismatch(f"variable {name!r} not in tower {self.variables}") from None

    # -- coefficient domains --------------------------------------------------
    @property
    def field_domain(self):
        return fq_domain(self.p, self.k)

    @property
    def lift_domain(self):
        return galois_ring_domain(self.p, self.k, self.s)
