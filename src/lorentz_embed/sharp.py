"""Auxiliary norms bounding the gradient functional sum_i i^(-2r) x_[i]^(2(p-1)).

Each parameter regime gets its own auxiliary norm together with a
deterministic comparison factor K such that

    sum_{i=1}^n i^(-2r) x_[i]^(2(p-1))  <=  K * |x|_aux^(2(p-1))

holds for every x.  The comparison is pure rearrangement/Hoelder algebra, so
it can be checked exactly on simulated data (zero violations expected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import _check_columns, _check_vector, _power_sum

CASES = ("I", "II", "III", "IVa", "IVb")

# tolerance used to detect the boundary family p = 2(1-r)
P_BOUNDARY_TOL = 1e-12


def grad_functional(r: float, p: float, x) -> float:
    """sum_i i^(-2r) x_[i]^(2(p-1)), the squared-gradient sum (up to p^2)."""
    x = _check_vector(x)
    return float(grad_functional_columns(r, p, x[:, None])[0])


def grad_functional_columns(r: float, p: float, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return _power_sum(_grad_weights(r, X.shape[0]), X, 2.0 * (p - 1.0))


def _grad_weights(r: float, n: int) -> np.ndarray:
    """i^(-2r) for i = 1..n, the weights of the gradient functional."""
    return np.arange(1, n + 1, dtype=float) ** (-2.0 * r)


def _on_iv_boundary(r: float, p: float) -> bool:
    """Whether p = 2 - 2r, the Case IV family, within P_BOUNDARY_TOL."""
    return abs(p - (2.0 - 2.0 * r)) <= P_BOUNDARY_TOL


def _check_case_iv_family(r: float, p: float):
    if not _on_iv_boundary(r, p):
        raise ValueError(f"Case IV requires p = 2(1-r); got p={p}, r={r}")
    if not (0.25 < r <= 0.5):
        raise ValueError(f"Case IV requires r in (1/4, 1/2]; got r={r}")


def _case_iva_A(r: float, p: float, n: int) -> float:
    """A = (1-2r)^p ln(n) / n^(1-2r), after checking that Case IVa applies."""
    _check_case_iv_family(r, p)
    if (1.0 - 2.0 * r) * math.log(n) < math.e:
        raise ValueError("(1-2r) ln n < e: Case IVa does not apply, use Case IVb "
                         "(Euclidean) instead")
    return (1.0 - 2.0 * r) ** p * math.log(n) / n ** (1.0 - 2.0 * r)


def _case_ii_sum(r: float, p: float, n: int, t: float) -> float:
    """sum_{i <= n/e} i^(-2r) (ln(n/i) + t^2/i)^(p-1), the Case II quantile sum."""
    i = np.arange(1, int(n / math.e) + 1, dtype=float)
    return float(np.sum(i ** (-2.0 * r) * (np.log(n / i) + t ** 2 / i) ** (p - 1.0)))


def beta_weights(r: float, p: float, n: int) -> np.ndarray:
    """The Case IVa weights beta_i over 1 <= i <= floor(n/e).

    beta_i = (1-2r)^p ln(n) / n^(1-2r) * i^(-2r) (ln(n/i))^(p-1) + 1/i.
    Requires p = 2(1-r) with r in (1/4, 1/2] and (1-2r) ln(n) >= e.
    """
    A = _case_iva_A(r, p, n)
    i = np.arange(1, int(n / math.e) + 1, dtype=float)
    return A * i ** (-2.0 * r) * np.log(n / i) ** (p - 1.0) + 1.0 / i


@dataclass(frozen=True)
class SharpNormSpec:
    """Precomputed evaluation plan for one case of the auxiliary norm."""

    case: str
    r: float
    p: float
    n: int
    t: float
    coefficients: np.ndarray = field(repr=False)
    is_norm: bool = True

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")


def make_sharp_spec(case: str, r: float, p: float, n: int, t: float = 1.0) -> SharpNormSpec:
    """Build the auxiliary-norm spec for one case, validating its preconditions."""
    if n < 1:
        raise ValueError("n must be positive")
    if t <= 0.0:
        raise ValueError("t must be positive")
    if case == "I":
        if p < 1.5:
            raise ValueError("Case I requires p >= 3/2")
        return SharpNormSpec("I", r, p, n, t, _grad_weights(r, n))
    if case == "II":
        if not (1.0 <= p < 1.5):
            raise ValueError("Case II requires 1 <= p < 3/2")
        if n < 3:
            raise ValueError("Case II requires n >= 3")
        m = int(n / math.e)
        i = np.arange(1, m + 1, dtype=float)
        coeff = i ** (-2.0 * r) * (np.log(n / i) + t ** 2 / i) ** (-(3.0 - 2.0 * p) / 2.0)
        return SharpNormSpec("II", r, p, n, t, coeff, is_norm=p >= 1.5 - 2.0 * r)
    if case == "III":
        if not (1.0 <= p < 1.5 - 2.0 * r):
            raise ValueError("Case III requires p < 3/2 - 2r")
        return SharpNormSpec("III", r, p, n, t, _grad_weights(r, n))
    if case == "IVa":
        beta = beta_weights(r, p, n)  # validates the sub-case conditions
        m = beta.size
        i = np.arange(1, m + 1, dtype=float)
        coeff = beta ** (-(3.0 - 2.0 * p) / (2.0 * (p - 1.0))) * i ** (-r / (p - 1.0))
        return SharpNormSpec("IVa", r, p, n, t, coeff)
    if case == "IVb":
        _check_case_iv_family(r, p)
        if (1.0 - 2.0 * r) * math.log(n) >= math.e:
            raise ValueError("(1-2r) ln n >= e: use Case IVa instead")
        return SharpNormSpec("IVb", r, p, n, t, np.ones(n))
    raise ValueError(f"unknown case {case!r}")


def sharp_norm(spec: SharpNormSpec, x) -> float:
    """Evaluate the case's auxiliary norm at x."""
    x = _check_vector(x)
    if x.size != spec.n:
        raise ValueError(f"dimension mismatch: len(x)={x.size}, spec.n={spec.n}")
    return float(sharp_norm_columns(spec, x[:, None])[0])


def sharp_norm_columns(spec: SharpNormSpec, X: np.ndarray) -> np.ndarray:
    X = _check_columns(spec.n, X)
    # the case's norm is a q-th root: q = 2(p-1) in Case I, 2 (Euclidean) in IVb, else 1
    q = {"I": 2.0 * (spec.p - 1.0), "IVb": 2.0}.get(spec.case, 1.0)
    return _power_sum(spec.coefficients, X, q) ** (1.0 / q)


def chain_factor(spec: SharpNormSpec) -> float:
    """Deterministic K with sum_i i^(-2r) x_[i]^(2(p-1)) <= K |x|_aux^(2(p-1)).

    Case I is an identity (K = 1).  Cases II and IVa restrict the sum to
    i <= floor(n/e) by block comparison of the non-increasing summands
    (factor ceil(n / floor(n/e))) and then apply Hoelder with exponents
    1/(2(p-1)) and 1/(3-2p).  Case III is pure Hoelder over the full range,
    and Case IVb is Hoelder against the Euclidean norm using 2r = 2 - p.
    """
    r, p, n = spec.r, spec.p, spec.n
    if spec.case == "I":
        return 1.0
    if spec.case in ("II", "IVa"):
        T = _case_ii_sum(r, p, n, spec.t) if spec.case == "II" \
            else float(np.sum(beta_weights(r, p, n)))
        return math.ceil(n / int(n / math.e)) * T ** (3.0 - 2.0 * p)
    if spec.case == "III":
        return float(np.sum(_grad_weights(r, n)) ** (3.0 - 2.0 * p))
    # IVb
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float)))
    return harmonic ** (2.0 - p)
