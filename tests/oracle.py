"""Naive reference for the weighted power sums behind every column kernel,
the deterministic matrix fixture of the embedding tests and the weights of
the screened-extremes tests."""

import math

import numpy as np

from lorentz_embed import LorentzParams, power_params
from lorentz_embed.cli import _load_weights_file


def weighted_power_sum(coeffs, x, q):
    """sum_i c_i x_[i]^q by plain Python loops, x_[i] the i-th largest |x_j|.

    Coefficients shorter than x leave the smallest entries out.
    """
    xs = sorted((abs(float(v)) for v in x), reverse=True)
    return math.fsum(float(c) * v ** q for c, v in zip(coeffs, xs))


def identity_injection(n, k, stream=None):
    """The (n, k) canonical injection, whose every image keeps its norm.
    Tests monkeypatch it in for sample_gaussian_matrix, whose stream it
    ignores."""
    return np.eye(n, k)


def weighted_params(kind, p, n, tmp_path):
    """Flat or power weights, or the weights a weights file gives: steps down
    to 0, or to 1e-40."""
    if kind in ("flat", "power"):
        return power_params(0.0 if kind == "flat" else 0.3, p, n)
    last = "0" if kind == "file" else "1e-40"
    path = tmp_path / "weights.txt"
    path.write_text("\n".join(["1"] * 5 + ["0.5"] * (n - 10) + [last] * 5) + "\n")
    return LorentzParams(_load_weights_file({"weights_file": str(path)}), p)
