"""Naive reference for the weighted power sums behind every column kernel,
and the deterministic matrix fixture of the embedding tests."""

import math

import numpy as np


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
