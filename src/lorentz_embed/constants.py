"""Named stand-ins for the universal constants left unspecified by the theory.

Every bound in this package is computed in "shape form" (all constants equal
to 1) and in "ledger form" (shape multiplied by the relevant ledger entries).
Calibration routines in :mod:`lorentz_embed.montecarlo` fit ledger entries
empirically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# Every constant that some formula reads through ConstantLedger.get.  Other
# names are rejected, so that a typo or an unread constant cannot silently
# leave a report unchanged.
KNOWN_CONSTANTS = (
    "C_order",        # order-statistic envelopes
    "c_order",        # Renyi-type exponent rate
    "C_median_upper",  # upper median estimate for psi(X)
    "c_median_lower",  # lower median estimate for psi(X)
    "C_bound",        # generic upper constant in two-sided analytic bounds
    "c_bound",        # generic lower constant in two-sided analytic bounds
    "c_dim",          # embedding-dimension formulas (d, E, F, d_general)
    "c_rp",           # the (r, p) coefficient: simplified (E, F) tables and d'
    "c2_ellinfty",    # dimension constant in the ell-infinity regime
    "c_ellinfty_gate",  # applicability threshold for the ell-infinity regime
    "C_sharp",        # sharp-norm quantile constant S and the (A, B) tables
)


@dataclass(frozen=True)
class ConstantLedger:
    """Positive named constants; defaults to 1.0 for every known name."""

    values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
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
