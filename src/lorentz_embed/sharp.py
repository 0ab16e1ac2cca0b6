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
from .norms import _checked, _power_sums
from .regimes import _on_iv_boundary, classify_case


def grad_functional(r: float, p: float, x):
    """sum_i i^(-2r) x_[i]^(2(p-1)), the squared-gradient sum (up to p^2), of
    an n-vector (a float) or of each column of an (n, m) matrix (an array),
    with n taken from the rows of x."""
    x = _checked(len(x) if np.ndim(x) else 0, x)
    sums = _power_sums([_grad_pair(r, p, len(x))], x.reshape(len(x), -1))[0]
    return float(sums[0]) if x.ndim == 1 else sums


def _grad_pair(r: float, p: float, n: int) -> tuple:
    """(coefficients, exponent) of the gradient functional."""
    return _grad_weights(r, n), 2.0 * (p - 1.0)


def _grad_weights(r: float, n: int) -> np.ndarray:
    """i^(-2r) for i = 1..n, the weights of the gradient functional."""
    return np.arange(1, n + 1, dtype=float) ** (-2.0 * r)


def _check_case_iv_family(r: float, p: float):
    if not _on_iv_boundary(r, p):
        raise ValueError(f"Case IV requires p = 2(1-r); got p={p}, r={r}")
    if not (0.25 < r <= 0.5):
        raise ValueError(f"Case IV requires r in (1/4, 1/2]; got r={r}")


def beta_weights(r: float, p: float, n: int) -> np.ndarray:
    """The Case IVa weights beta_i over 1 <= i <= floor(n/e).

    beta_i = (1-2r)^p ln(n) / n^(1-2r) * i^(-2r) (ln(n/i))^(p-1) + 1/i.
    Requires p = 2(1-r) with r in (1/4, 1/2] and (1-2r) ln(n) >= e.
    """
    _check_case_iv_family(r, p)
    if (1.0 - 2.0 * r) * math.log(n) < math.e:
        raise ValueError("(1-2r) ln n < e: Case IVa does not apply, use Case IVb "
                         "(Euclidean) instead")
    A = (1.0 - 2.0 * r) ** p * math.log(n) / n ** (1.0 - 2.0 * r)
    i = np.arange(1, int(n / math.e) + 1, dtype=float)
    return A * i ** (-2.0 * r) * np.log(n / i) ** (p - 1.0) + 1.0 / i


@dataclass(frozen=True, eq=False)
class SharpNormSpec:
    """One case's auxiliary norm (sum_i coefficients_i x_[i]^exponent)^(1/exponent),
    its quantile level S and its comparison factor K."""

    case: str
    n: int
    coefficients: np.ndarray = field(repr=False)
    exponent: float
    S: float
    K: float


def _check_classified(case: str, r: float, p: float, n: int):
    """Reject a case that classify_case does not give; r > 2 lies outside its map."""
    expected = classify_case(r, p, n).orderorder if r <= 2.0 else case
    if case != expected:
        raise ValueError(f"case {case!r} does not match (r={r}, p={p}, n={n}): "
                         f"expected {expected!r}")


def make_sharp_spec(case: str, r: float, p: float, n: int, t: float = 1.0,
                    ledger: ConstantLedger = DEFAULT_LEDGER) -> SharpNormSpec:
    """Build one case's auxiliary norm with its S and K, after checking the
    case's preconditions and that the case is the one classify_case gives.

    Case I's norm is the 2(p-1)-th root of the gradient sum (K = 1).  Cases
    II and IVa restrict the sum to i <= floor(n/e) by block comparison of the
    non-increasing summands (factor ceil(n / floor(n/e))) and then apply
    Hoelder with exponents 1/(2(p-1)) and 1/(3-2p).  Case III is pure Hoelder
    over the full range, and Case IVb is Hoelder against the Euclidean norm
    using 2r = 2 - p.  S carries the ledger constant C_sharp.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if t <= 0.0:
        raise ValueError("t must be positive")
    C = ledger.get("C_sharp")
    ln = math.log(n)
    q = 2.0 * (p - 1.0)
    if case == "I":
        if p < 1.5:
            raise ValueError("Case I requires p >= 3/2")
        _check_classified(case, r, p, n)
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
        return SharpNormSpec(case, n, _grad_weights(r, n), q, S, 1.0)
    if case == "II":
        if not (1.0 <= p < 1.5):
            raise ValueError("Case II requires 1 <= p < 3/2")
        if n < 3:
            raise ValueError("Case II requires n >= 3")
        _check_classified(case, r, p, n)
        i = np.arange(1, int(n / math.e) + 1, dtype=float)
        T = float(np.sum(i ** (-2.0 * r) * (np.log(n / i) + t ** 2 / i) ** (p - 1.0)))
        coeff = i ** (-2.0 * r) * (np.log(n / i) + t ** 2 / i) ** (-(3.0 - 2.0 * p) / 2.0)
        K = math.ceil(n / i.size) * T ** (3.0 - 2.0 * p)
        return SharpNormSpec(case, n, coeff, 1.0, C * T, K)
    if case == "III":
        if not (1.0 <= p < 1.5 - 2.0 * r):
            raise ValueError("Case III requires p < 3/2 - 2r")
        _check_classified(case, r, p, n)
        coeff = _grad_weights(r, n)
        S = C * n ** (1.0 - 2.0 * r) + C * n ** ((1.0 - 4.0 * r) / 2.0) \
            * (ln / (1.0 + (1.0 - 4.0 * r) * ln)) ** 0.5 * t
        return SharpNormSpec(case, n, coeff, 1.0, S,
                             float(np.sum(coeff) ** (3.0 - 2.0 * p)))
    if case == "IVa":
        beta = beta_weights(r, p, n)  # validates the sub-case conditions
        _check_classified(case, r, p, n)
        i = np.arange(1, beta.size + 1, dtype=float)
        coeff = beta ** (-(3.0 - 2.0 * p) / (2.0 * (p - 1.0))) * i ** (-r / (p - 1.0))
        S = C ** (1.0 / (p - 1.0)) * (1.0 - 2.0 * r) ** (-p / q) \
            * ln ** (-(3.0 - 2.0 * p) / q) * n ** 0.5 \
            + C ** (1.0 / (p - 1.0)) * ln ** 0.5 * t
        K = math.ceil(n / beta.size) * float(np.sum(beta)) ** (3.0 - 2.0 * p)
        return SharpNormSpec(case, n, coeff, 1.0, S, K)
    if case == "IVb":
        _check_case_iv_family(r, p)
        if (1.0 - 2.0 * r) * ln >= math.e:
            raise ValueError("(1-2r) ln n >= e: use Case IVa instead")
        _check_classified(case, r, p, n)
        harmonic = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float)))
        return SharpNormSpec(case, n, np.ones(n), 2.0, C * n ** 0.5 + t,
                             harmonic ** (2.0 - p))
    raise ValueError(f"unknown case {case!r}")


def sharp_norm(spec: SharpNormSpec, x):
    """The case's auxiliary norm of an n-vector (a float), or of each column
    of an (n, m) matrix (an array)."""
    x = _checked(spec.n, x)
    norms = _power_sums([(spec.coefficients, spec.exponent)],
                        x.reshape(spec.n, -1))[0] ** (1.0 / spec.exponent)
    return float(norms[0]) if x.ndim == 1 else norms
