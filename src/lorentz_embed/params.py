"""Weight sequences and Lorentz norm parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightSequence:
    """Non-increasing weights in [0, 1] with first entry exactly 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        if v[0] != 1.0:
            raise ValueError("first weight must equal 1 exactly")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if np.any(np.diff(v) > 0.0):
            raise ValueError("weights must be non-increasing")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class LorentzParams:
    """A (weights, p) pair defining a Lorentz norm (p >= 1) or quasi-norm (p < 1)."""

    weights: WeightSequence
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 0.0):
            raise ValueError("p must be a positive finite real")

    @property
    def n(self) -> int:
        return self.weights.n

    def weight_values(self) -> np.ndarray:
        return self.weights.values


def power_params(r: float, p: float, n: int) -> LorentzParams:
    """The power family w_i = i^(-r), i = 1..n."""
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError("r must be a finite nonnegative real")
    if n < 1:
        raise ValueError("n must be at least 1")
    return LorentzParams(WeightSequence(np.arange(1, n + 1, dtype=float) ** (-r)), p)
