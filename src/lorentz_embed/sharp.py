"""Auxiliary norms bounding the gradient functional sum_i i^(-2r) x_[i]^(2(p-1)).

Each order-order case gets its own auxiliary norm together with a quantile
level S and a deterministic comparison factor K such that

    sum_{i=1}^n i^(-2r) x_[i]^(2(p-1))  <=  K * |x|_aux^(2(p-1))

holds for every x.  The comparison is pure rearrangement/Hoelder algebra, so
it can be checked exactly on simulated data (zero violations expected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_LEDGER, ConstantLedger
from .norms import _evaluate
from .params import _index_powers
from .regimes import classify_case


def grad_functional(r: float, p: float, x):
    """sum_i i^(-2r) x_[i]^(2(p-1)), the squared-gradient sum (up to p^2), of
    an n-vector (a float) or of each column of an (n, m) matrix (an array),
    with n taken from the rows of x, for finite r >= 0 and p >= 1."""
    if not (0.0 <= r < math.inf and 1.0 <= p < math.inf):
        raise ValueError(f"the gradient functional needs finite r >= 0 and p >= 1, "
                         f"got r={r}, p={p}")
    n = len(x) if np.ndim(x) else 0
    return _evaluate(n, x, _grad_pair(r, p, n))


def _grad_pair(r: float, p: float, n: int) -> tuple:
    """(coefficients, exponent) of the gradient functional."""
    return _index_powers(n, 2.0 * r), 2.0 * (p - 1.0)


def beta_weights(r: float, p: float, n: int) -> np.ndarray:
    """The Case IVa weights beta_i over 1 <= i <= floor(n/e).

    beta_i = (1-2r)^p ln(n) / n^(1-2r) * i^(-2r) (ln(n/i))^(p-1) + 1/i.
    Requires that classify_case give Case IVa (_check_classified).
    """
    _check_classified("IVa", r, p, n)
    A = (1.0 - 2.0 * r) ** p * math.log(n) / n ** (1.0 - 2.0 * r)
    i = np.arange(1, int(n / math.e) + 1, dtype=float)
    return A * _index_powers(i.size, 2.0 * r) * np.log(n / i) ** (p - 1.0) + 1.0 / i


@dataclass(frozen=True, eq=False)
class SharpNormSpec:
    """One case's auxiliary norm (sum_i coefficients_i x_[i]^exponent)^(1/exponent),
    its quantile level S and its comparison factor K; equal only to itself,
    and holding a read-only copy of the given coefficients."""

    case: str
    n: int
    coefficients: np.ndarray = field(repr=False)
    exponent: float
    S: float
    K: float

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)


def _check_classified(case: str, r: float, p: float, n: int):
    """Reject a case other than the one classify_case gives; above r = 2, where
    its map ends, the one it gives at r = 2 (I for p >= 3/2, else II)."""
    expected = classify_case(min(r, 2.0), p, n).orderorder
    if case != expected:
        raise ValueError(f"case {case!r} does not match (r={r}, p={p}, n={n}): "
                         f"expected {expected!r}")


def make_sharp_spec(case: str, r: float, p: float, n: int, t: float = 1.0,
                    ledger: ConstantLedger = DEFAULT_LEDGER) -> SharpNormSpec:
    """Build one case's auxiliary norm with its S and K, after checking that
    the case is the one classify_case gives (_check_classified).

    Case I's norm is the 2(p-1)-th root of the gradient sum (K = 1).  Cases
    II and IVa restrict the sum to i <= floor(n/e) by block comparison of the
    non-increasing summands (factor ceil(n / floor(n/e))) and then apply
    Hoelder with exponents 1/(2(p-1)) and 1/(3-2p).  Case III is pure Hoelder
    over the full range, and Case IVb is Hoelder against the Euclidean norm
    using 2r = 2 - p.  S carries the ledger constant C_sharp.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    _check_classified(case, r, p, n)
    C = ledger.get("C_sharp")
    ln = math.log(n)
    q = 2.0 * (p - 1.0)
    if case == "I":
        if r <= 0.5:
            A = C ** p * p ** p * n ** (1.0 - 2.0 * r) * ln ** p \
                / (p + (1.0 - 2.0 * r) * ln) ** p
        else:
            A = C ** p * ln ** p / (1.0 + (2.0 * r - 1.0) * ln) + C ** p * ln ** (p - 1.0)
        if p < 2.0:
            a2 = abs(2.0 - 2.0 * r - p)
            B = C * (1.0 + (ln / (1.0 + a2 * ln)) ** (2.0 - p)
                     * (1.0 + n ** (2.0 - 2.0 * r - p)))
        else:
            B = C ** p
        S = (A + B * t ** q) ** (1.0 / q)
        return SharpNormSpec(case, n, _index_powers(n, 2.0 * r), q, S, 1.0)
    if case == "II":
        i = np.arange(1, int(n / math.e) + 1, dtype=float)
        w = _index_powers(i.size, 2.0 * r)
        T = float(np.sum(w * (np.log(n / i) + t ** 2 / i) ** (p - 1.0)))
        coeff = w * (np.log(n / i) + t ** 2 / i) ** (-(3.0 - 2.0 * p) / 2.0)
        K = math.ceil(n / i.size) * T ** (3.0 - 2.0 * p)
        return SharpNormSpec(case, n, coeff, 1.0, C * T, K)
    if case == "III":
        coeff = _index_powers(n, 2.0 * r)
        S = C * n ** (1.0 - 2.0 * r) + C * n ** ((1.0 - 4.0 * r) / 2.0) \
            * (ln / (1.0 + (1.0 - 4.0 * r) * ln)) ** 0.5 * t
        return SharpNormSpec(case, n, coeff, 1.0, S,
                             float(np.sum(coeff) ** (3.0 - 2.0 * p)))
    if case == "IVa":
        beta = beta_weights(r, p, n)
        coeff = beta ** (-(3.0 - 2.0 * p) / (2.0 * (p - 1.0))) \
            * _index_powers(beta.size, r / (p - 1.0))
        S = C ** (1.0 / (p - 1.0)) * (1.0 - 2.0 * r) ** (-p / q) \
            * ln ** (-(3.0 - 2.0 * p) / q) * n ** 0.5 \
            + C ** (1.0 / (p - 1.0)) * ln ** 0.5 * t
        K = math.ceil(n / beta.size) * float(np.sum(beta)) ** (3.0 - 2.0 * p)
        return SharpNormSpec(case, n, coeff, 1.0, S, K)
    # IVb
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float)))
    return SharpNormSpec(case, n, np.ones(n), 2.0, C * n ** 0.5 + t,
                         harmonic ** (2.0 - p))


def sharp_norm(spec: SharpNormSpec, x):
    """The case's auxiliary norm of an n-vector (a float), or of each column
    of an (n, m) matrix (an array)."""
    return _evaluate(spec.n, x, (spec.coefficients, spec.exponent),
                     1.0 / spec.exponent)
