"""Closed-form shapes of two-sided estimates (incomplete-gamma integrals,
power/log sums, power integrals and psi medians), with their exact oracles,
the xi1 envelope and the uniform order-statistic envelope. Each estimate
holds up to universal constants that the theory leaves unspecified; only
its shape is computed here."""

from __future__ import annotations

import math

import numpy as np


def incomplete_gamma_shape(b: float, q: float, sign: str) -> float:
    """Shape of int_0^b e^(-w) w^q dw (decay) or of int_0^b e^(+w) w^q dw
    (growth): min{1+q, b}^(1+q) for decay, e^b b^(1+q) / (1+q+b) for growth.
    """
    if b < 0.0 or q < 0.0:
        raise ValueError("b and q must be nonnegative")
    if sign == "decay":
        return min(1.0 + q, b) ** (1.0 + q)
    if sign == "growth":
        return math.exp(b) * b ** (1.0 + q) / (1.0 + q + b)
    raise ValueError(f"sign must be 'decay' or 'growth', got {sign!r}")


def power_log_sum_shape(a: float, q: float, n: int) -> float:
    """Shape of sum_{i=1}^n i^(-a) (ln(n/i))^q, with 0^0 = 1 at i = n.

    For a in [0, 1): n^(1-a) (1+q)^(1+q) (ln n)^(1+q) / ((1-a) ln n + 1 + q)^(1+q).
    For a >= 1: (ln n)^(1+q) / ((a-1) ln n + 1 + q) + (ln n)^q. At a = 1
    either branch works; this implementation uses the second.
    """
    if a < 0.0 or q < 0.0:
        raise ValueError("a and q must be nonnegative")
    if n < 2:
        raise ValueError("n must be at least 2")
    ln = math.log(n)
    if a < 1.0:
        return n ** (1.0 - a) * (1.0 + q) ** (1.0 + q) * ln ** (1.0 + q) \
            / ((1.0 - a) * ln + 1.0 + q) ** (1.0 + q)
    return ln ** (1.0 + q) / ((a - 1.0) * ln + 1.0 + q) + ln ** q


def _log_power_sum(v: np.ndarray, q: float, n: int):
    """sum_{i=1}^n v_i (ln(n/i))^q; ln(n/n) is exactly 0 and 0^0 = 1."""
    return np.sum(v * np.log(n / np.arange(1, n + 1, dtype=float)) ** q)


def power_log_sum_exact(a: float, q: float, n: int) -> float:
    """Direct-summation oracle for sum_{i=1}^n i^(-a) (ln(n/i))^q with 0^0 = 1."""
    return float(_log_power_sum(np.arange(1, n + 1, dtype=float) ** (-a), q, n))


def power_integral_shape(a: float, T: float) -> float:
    """Shape (1 + T^(1-a)) ln(T) / (1 + |1-a| ln T) of int_1^T x^(-a) dx."""
    if T < 1.0:
        raise ValueError("T must be at least 1")
    lnT = math.log(T)
    return (1.0 + T ** (1.0 - a)) * lnT / (1.0 + abs(1.0 - a) * lnT)


def power_integral_exact(a: float, T: float) -> float:
    """Closed-form oracle for int_1^T x^(-a) dx."""
    if T < 1.0:
        raise ValueError("T must be at least 1")
    if a == 1.0:
        return math.log(T)
    return (T ** (1.0 - a) - 1.0) / (1.0 - a)


def xi1(t: float) -> float:
    """xi1(t) = e^t (1 - t), a decreasing bijection of [0, 1] onto itself."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("xi1 is defined on [0, 1]")
    return math.exp(t) * (1.0 - t)


def xi1_inv_upper(s):
    """Upper bound min{sqrt(2(1-s)), 1 - s/e} for the inverse of xi1, elementwise."""
    s = np.asarray(s, dtype=float)
    if not np.all((0.0 <= s) & (s <= 1.0)):
        raise ValueError("xi1_inv_upper is defined on [0, 1]")
    return np.minimum(np.sqrt(2.0 * (1.0 - s)), 1.0 - s / math.e)


def uniform_orderstat_upper_all(n: int, t: float) -> np.ndarray:
    """High-probability upper envelope for the i-th uniform order statistic,
    for each i = 1..n, holding simultaneously over i with probability at
    least 1 - (pi^2/3) e^(-t^2/2)."""
    k = n - np.arange(1, n + 1, dtype=float) + 1.0
    s = np.exp((-t ** 2 - 4.0 * np.log(k)) / (2.0 * k))
    return 1.0 - k / (n + 1.0) * (1.0 - xi1_inv_upper(s))


def median_psi_shape(r: float, p: float, n: int) -> float:
    """Shape of the median of psi(X) = sum_i i^(-r) X_[i]^p, X standard normal.

    For r in [0, 1): p^(p/2) n^(1-r) (ln n)^(1+p/2) / (p + (1-r) ln n)^(1+p/2);
    for r >= 1: (ln n)^(1+p/2) / (1 + (r-1) ln n) + (ln n)^(p/2).
    """
    if r < 0.0 or p < 1.0:
        raise ValueError("need r >= 0 and p >= 1")
    if n < 2:
        raise ValueError("n must be at least 2")
    ln = math.log(n)
    if r < 1.0:
        return p ** (p / 2.0) * n ** (1.0 - r) * ln ** (1.0 + p / 2.0) \
            / (p + (1.0 - r) * ln) ** (1.0 + p / 2.0)
    return ln ** (1.0 + p / 2.0) / (1.0 + (r - 1.0) * ln) + ln ** (p / 2.0)


def median_norm_shape(weights: np.ndarray, p: float) -> float:
    """Shape (sum_i w_i (ln(n/i))^(p/2))^(1/p) for the median of |X|_{w,p}, n = w.size."""
    w = np.asarray(weights, dtype=float)
    return float(_log_power_sum(w, p / 2.0, w.size) ** (1.0 / p))

