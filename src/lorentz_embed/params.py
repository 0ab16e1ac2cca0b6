"""Lorentz norm parameters: a weight sequence and an exponent p."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class LorentzParams:
    """A (weights, p) pair defining a Lorentz norm (p >= 1) or quasi-norm (p < 1);
    equal only to itself, and holding a read-only copy of the given weights."""

    weights: np.ndarray  # 1-d floats, non-increasing in [0, 1], first entry exactly 1
    p: float

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w[0] != 1.0:
            raise ValueError("first weight must equal 1 exactly")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if np.any(np.diff(w) > 0.0):
            raise ValueError("weights must be non-increasing")
        if not (np.isfinite(self.p) and self.p > 0.0):
            raise ValueError("p must be a positive finite real")

    @property
    def n(self) -> int:
        return self.weights.size


def power_params(r: float, p: float, n: int) -> LorentzParams:
    """The power family w_i = i^(-r), i = 1..n."""
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError("r must be a finite nonnegative real")
    if n < 1:
        raise ValueError("n must be at least 1")
    return LorentzParams(np.arange(1, n + 1, dtype=float) ** (-r), p)
