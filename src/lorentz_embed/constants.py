"""Named stand-ins for the universal constants left unspecified by the theory.

Only the dimension bounds of :mod:`lorentz_embed.regimes` and the quantile
level of :mod:`lorentz_embed.sharp` have a "ledger form": their shape (all
constants equal to 1) times the named ledger entries. The two-sided
estimates of :mod:`lorentz_embed.analytic` are computed in shape form only;
``calibrate`` fits each one's constant as the largest true/shape ratio.
"""

from __future__ import annotations

import json
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

# Every constant that some formula reads through ConstantLedger.get.  Other
# names are rejected, so that a typo or an unread constant cannot silently
# leave a report unchanged.
KNOWN_CONSTANTS = (
    "c_dim",          # embedding-dimension formulas (d, E, F, d_general)
    "c_rp",           # the (r, p) coefficient: simplified (E, F) tables and d'
    "c2_ellinfty",    # dimension constant in the ell-infinity regime
    "c_ellinfty_gate",  # applicability threshold for the ell-infinity regime
    "C_sharp",        # quantile level S of each order-order case
)


@dataclass(frozen=True)
class ConstantLedger:
    """Positive named constants, held as a read-only copy; 1.0 for a name not given."""

    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", types.MappingProxyType(dict(self.values)))
        for name, v in self.values.items():
            if name not in KNOWN_CONSTANTS:
                raise ValueError(f"unknown constant name: {name!r}")
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not (math.isfinite(v) and v > 0):
                raise ValueError(f"constant {name!r} must be a positive finite number, "
                                 f"got {v!r}")

    def get(self, name: str) -> float:
        if name not in KNOWN_CONSTANTS:
            raise ValueError(f"unknown constant name: {name!r}")
        return self.values.get(name, 1.0)

    def to_dict(self) -> dict[str, float]:
        return {name: self.get(name) for name in KNOWN_CONSTANTS}

    @classmethod
    def from_json(cls, path: str) -> "ConstantLedger":
        with open(path) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("ledger_file must hold a JSON object of named constants")
        return cls(values)


DEFAULT_LEDGER = ConstantLedger()
