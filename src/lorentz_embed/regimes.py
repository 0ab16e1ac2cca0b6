"""Parameter-regime classification and every embedding-dimension formula."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analytic import _log_power_sum, median_norm_shape
from .constants import DEFAULT_LEDGER, ConstantLedger
from .norms import lipschitz_constant
from .params import WeightSequence, power_params
from .sharp import _case_ii_sum, _case_iva_A, _on_iv_boundary


@dataclass(frozen=True)
class RegimeCase:
    figure1: str
    orderorder: str

    to_dict = asdict


def classify_case(r: float, p: float, n: int) -> RegimeCase:
    """Total, deterministic classification of (r, p) into the region map.

    Regions for p >= 3/2 split on r only; for 1 <= p < 3/2 the boundary family
    p = 2 - 2r (detected within 1e-12) takes precedence, then p < 3/2 - 2r,
    then the generic region split on r.
    """
    if not (0.0 <= r <= 2.0):
        raise ValueError(f"r must lie in [0, 2], got {r}")
    if not (1.0 <= p < math.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if n < 3:
        raise ValueError("n must be at least 3")

    if p >= 1.5:
        if r <= 0.5:
            fig = "ia"
        elif r <= 1.0:
            fig = "ib*"
        else:
            fig = "ib**"
        return RegimeCase(fig, "I")

    # 1 <= p < 3/2
    if _on_iv_boundary(r, p):
        sub = "IVa" if (1.0 - 2.0 * r) * math.log(n) >= math.e else "IVb"
        return RegimeCase("iv", sub)
    if p < 1.5 - 2.0 * r:
        return RegimeCase("iii", "III")
    if r <= 0.5:
        fig = "iia"
    elif r <= 1.0:
        fig = "iib*"
    else:
        fig = "iib**"
    return RegimeCase(fig, "II")


def milman_dimension(
    M: float,
    b: float,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> float:
    """The general Dvoretzky-type dimension c (M/b)^2 eps^2."""
    if M <= 0.0 or b <= 0.0:
        raise ValueError("M and b must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return ledger.get("c_dim") * (M / b) ** 2 * eps ** 2


def lomain_EF(
    r: float,
    p: float,
    n: int,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> tuple[float, float]:
    """The per-case (E, F) pair controlling dimension and failure probability.

    Evaluates the case displays verbatim, with the ledger constant c_dim in
    place of c (entering as c^p where the display says c^p).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    case = classify_case(r, p, n).figure1
    c = ledger.get("c_dim")
    ln = math.log(n)
    a2 = abs(2.0 - 2.0 * r - p)

    if case == "ia":
        E = c ** p * n * ln ** 2 * (p + (1.0 - 2.0 * r) * ln) ** p * eps ** 2 \
            / (p + ln) ** (2.0 + p)
        F = c * p * n ** (2.0 * (1.0 - r) / p) * ln ** (1.0 + 2.0 / p) * eps ** (2.0 / p) \
            / ((1.0 + n ** ((2.0 - 2.0 * r - p) / p)) * (p + ln) ** (1.0 + 2.0 / p)) \
            * ((1.0 + a2 * ln) / ln) ** max((2.0 - p) / p, 0.0)
    elif case == "ib*":
        E = c ** p * p ** p * n ** (2.0 * (1.0 - r)) * ln ** 2 \
            * (1.0 + (2.0 * r - 1.0) * ln) * eps ** 2 / (p + (1.0 - r) * ln) ** (2.0 + p)
        F = c * p * n ** (2.0 * (1.0 - r) / p) * ln ** (1.0 + 2.0 / p) * eps ** (2.0 / p) \
            / (p + (1.0 - r) * ln) ** (1.0 + 2.0 / p)
    elif case == "ib**":
        E = c ** p * ln ** 3 * eps ** 2 / (1.0 + (r - 1.0) * ln) ** 2
        F = c * ln ** (1.0 + 2.0 / p) * eps ** (2.0 / p) / (1.0 + (r - 1.0) * ln) ** (2.0 / p)
    elif case == "iia":
        E = c * n * (1.0 + (1.0 - 2.0 * r) * ln) ** p * eps ** 2 / ln ** p
        F = c * n ** (2.0 * (1.0 - r) / p) * eps ** (2.0 / p) \
            / (1.0 + n ** ((2.0 - 2.0 * r - p) / p)) \
            * ((1.0 + a2 * ln) / ln) ** (1.0 / p)
    elif case == "iib*":
        E = c * n ** (2.0 * (1.0 - r)) * ln ** 2 * (1.0 + (2.0 * r - 1.0) * ln) * eps ** 2 \
            / (1.0 + (1.0 - r) * ln) ** (2.0 + p)
        F = c * n ** (2.0 * (1.0 - r) / p) * ln ** (1.0 + 1.0 / p) \
            * (1.0 + a2 * ln) ** (1.0 / p) * eps ** (2.0 / p) \
            / (1.0 + (1.0 - r) * ln) ** (1.0 + 2.0 / p)
    elif case == "iib**":
        E = c * ln ** 3 * eps ** 2 / (1.0 + (r - 1.0) * ln) ** 2
        F = c * ln ** (1.0 + 2.0 / p) * eps ** (2.0 / p) / (1.0 + (r - 1.0) * ln) ** (2.0 / p)
    elif case == "iii":
        E = c * n * eps ** 2
        F = c * n * (1.0 + (1.0 - 4.0 * r) * ln) ** (1.0 - 1.0 / p) * eps ** (2.0 / p) \
            / ln ** (1.0 - 1.0 / p)
    else:  # iv
        E = c * n * (1.0 + (1.0 - 2.0 * r) * ln) * eps ** 2 / ln
        F = c * n * eps ** (2.0 / p) / ln ** ((2.0 - p) / p)
    return E, F


def lomain_EF_simplified(
    r: float,
    p: float,
    n: int,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> tuple[float, float]:
    """The simplified lower-bound table for (E, F), with the c_rp ledger entry."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    classify_case(r, p, n)  # domain validation
    crp = ledger.get("c_rp")
    ln = math.log(n)
    if r < 0.5:
        E = crp * n * eps ** 2
    elif r == 0.5:
        E = crp * n * ln ** (-p) * eps ** 2
    elif r < 1.0:
        E = crp * n ** (2.0 * (1.0 - r)) * ln ** (-(p - 1.0)) * eps ** 2
    elif r == 1.0:
        E = crp * ln ** 3 * eps ** 2
    else:
        # the table stops at r = 1; beyond it the full display gives ~ln n
        E = crp * ln * eps ** 2
    ep = eps ** (2.0 / p)
    if r <= 0.5:
        if p < 2.0 - 2.0 * r:
            F = crp * n * ep
        elif _on_iv_boundary(r, p):
            F = crp * n * ln ** (1.0 - 2.0 / p) * ep
        else:
            F = crp * n ** (2.0 * (1.0 - r) / p) * ep
    elif r < 1.0:
        F = crp * n ** (2.0 * (1.0 - r) / p) * ep
    elif r == 1.0:
        F = crp * ln ** (1.0 + 2.0 / p) * ep
    else:
        F = crp * ln * ep
    return E, F


def corollary_dimension_rp(
    r: float,
    p: float,
    n: int,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> float:
    """The improved sufficient dimension d' for the power-weight family, r <= 1."""
    if r > 1.0:
        raise ValueError("r > 1 is excluded; use ellinfty_regime instead")
    if not (0.0 <= r and 1.0 <= p):
        raise ValueError("need r in [0, 1] and p >= 1")
    if n < 2:
        raise ValueError("n must be at least 2")
    crp = ledger.get("c_rp")
    ln = math.log(n)
    e2 = eps ** 2
    ep = eps ** (2.0 / p)
    if r < 0.5:
        if p < 2.0 - 2.0 * r:
            return crp * n * e2
        if _on_iv_boundary(r, p):
            return crp * min(n * e2, n * ln ** (1.0 - 2.0 / p) * ep)
        return crp * min(n * e2, n ** (2.0 * (1.0 - r) / p) * ep)
    if r == 0.5:
        if p == 1.0:
            return crp * n * e2 / ln
        return crp * min(n * ln ** (-p) * e2, n ** (1.0 / p) * ep)
    if r < 1.0:
        return crp * min(n ** (2.0 * (1.0 - r)) * ln ** (-(p - 1.0)) * e2,
                         n ** (2.0 * (1.0 - r) / p) * ep)
    return crp * min(ln ** 3 * e2, ln ** (1.0 + 2.0 / p) * ep)


def general_dimension(
    weights: WeightSequence,
    p: float,
    n: int,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> float:
    """Sufficient dimension d for a general weight sequence.

    For p > 1: (1 + 1/(p-1))^(-1) min{ c^p Sw^2 eps^2 / D, c B^(-1/p) Sw^(2/p) eps^(2/p) }
    where Sw = sum_i w_i (ln(n/i))^(p/2), D = sum_i w_i^2 (ln(n/i))^(p-1) and B
    switches at p = 3/2 and p = 2.  For p = 1: c Sw^2 eps^2 / sum_i w_i^2.
    """
    if p < 1.0:
        raise ValueError("p must be at least 1")
    w = weights.values
    if w.size != n:
        raise ValueError("weights length must equal n")
    c = ledger.get("c_dim")
    Sw = float(_log_power_sum(w, p / 2.0, n))
    if p == 1.0:
        return c * Sw ** 2 * eps ** 2 / float(np.sum(w ** 2))
    D = float(_log_power_sum(w ** 2, p - 1.0, n))
    if p < 1.5:
        B = float(np.sum(w ** 2 * np.arange(1, n + 1, dtype=float) ** (-(p - 1.0))))
    elif p < 2.0:
        B = float(np.sum(w ** (2.0 / (2.0 - p))) ** (2.0 - p))
    else:
        B = 1.0
    term1 = c ** p * Sw ** 2 * eps ** 2 / D
    term2 = c * B ** (-1.0 / p) * Sw ** (2.0 / p) * eps ** (2.0 / p)
    return (1.0 + 1.0 / (p - 1.0)) ** (-1.0) * min(term1, term2)


@dataclass(frozen=True)
class EllInftyResult:
    applicable: bool
    k_bound: float
    vacuous: bool = False

    to_dict = asdict


def ellinfty_regime(
    n: int,
    eps: float,
    r: float,
    p: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> EllInftyResult:
    """Permutation-invariant near-l_inf regime: applicability gate and k bound.

    Applicable when p > c ln(1 + (1 + n^(1-r)) / (1 + |1-r| ln n) * ln n);
    the dimension bound is c2 eps ln(n) / ln(1/eps).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    ln = math.log(n)
    gate = ledger.get("c_ellinfty_gate") * math.log(
        1.0 + (1.0 + n ** (1.0 - r)) / (1.0 + abs(1.0 - r) * ln) * ln
    )
    applicable = p > gate
    log_inv_eps = -math.log(eps)
    if log_inv_eps == 0.0:
        return EllInftyResult(applicable, math.inf, vacuous=True)
    k_bound = ledger.get("c2_ellinfty") * eps * ln / log_inv_eps
    # as eps -> 1 the bound blows up past the ambient dimension and says nothing
    return EllInftyResult(applicable, k_bound, vacuous=k_bound >= n)


@dataclass(frozen=True)
class OrderOrderBounds:
    """Quantile level S, gradient bound R and the simplified (A, B) pair."""

    S: float
    R: float
    A: float
    B: float

    to_dict = asdict


def _simplified_AB(case: str, r: float, p: float, n: int,
                   ledger: ConstantLedger) -> tuple[float, float]:
    """The proof's simplified tables: R <= A + B t^(2(p-1)) for r <= 2."""
    C = ledger.get("C_sharp")
    ln = math.log(n)
    a2 = abs(2.0 - 2.0 * r - p)
    if case == "I":
        if r <= 0.5:
            A = C ** p * p ** p * n ** (1.0 - 2.0 * r) * ln ** p \
                / (p + (1.0 - 2.0 * r) * ln) ** p
        else:
            A = C ** p * ln ** p / (1.0 + (2.0 * r - 1.0) * ln)
        B = C ** p * (ln / (1.0 + a2 * ln)) ** max(2.0 - p, 0.0) \
            * (1.0 + n ** (2.0 - 2.0 * r - p))
    elif case == "II":
        if r <= 0.5:
            A = C * n ** (1.0 - 2.0 * r) * ln ** p / (1.0 + (1.0 - 2.0 * r) * ln) ** p
        else:
            A = C * ln ** p / (1.0 + (2.0 * r - 1.0) * ln)
        B = C * (1.0 + n ** (2.0 - 2.0 * r - p)) * ln / (1.0 + a2 * ln)
    elif case == "III":
        A = C * n ** (1.0 - 2.0 * r)
        B = C * n ** (2.0 - 2.0 * r - p) * (ln / (1.0 + (1.0 - 4.0 * r) * ln)) ** (p - 1.0)
    else:  # IVa / IVb
        A = C * min(1.0 / (1.0 - 2.0 * r) if r < 0.5 else math.inf, ln) \
            * n ** (1.0 - 2.0 * r)
        B = C * ln ** (2.0 - p)
    return A, B


def orderorder_SR(
    case: str,
    r: float,
    p: float,
    n: int,
    t: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> OrderOrderBounds:
    """S, R and the simplified (A, B) of the gradient bound for one case."""
    expected = classify_case(min(r, 2.0), p, n).orderorder if r <= 2.0 else None
    if r <= 2.0 and case != expected:
        raise ValueError(f"case {case!r} does not match (r={r}, p={p}, n={n}): "
                         f"expected {expected!r}")
    C = ledger.get("C_sharp")
    ln = math.log(n)
    q = 2.0 * (p - 1.0)
    if case == "I":
        # the full-form (A, B); the simplified pair is reported alongside
        a2 = abs(2.0 - 2.0 * r - p)
        A_thm = _simplified_AB("I", r, p, n, ledger)[0]
        if r > 0.5:
            A_thm += C ** p * ln ** (p - 1.0)
        if p < 2.0:
            B_thm = C * (1.0 + (ln / (1.0 + a2 * ln)) ** (2.0 - p)
                         * (1.0 + n ** (2.0 - 2.0 * r - p)))
        else:
            B_thm = C ** p
        R = A_thm + B_thm * t ** q
        S = R ** (1.0 / q)
        A, B = _simplified_AB("I", min(r, 2.0), p, n, ledger)
    elif case == "II":
        S = C * _case_ii_sum(r, p, n, t)
        R = S
        A, B = _simplified_AB("II", r, p, n, ledger)
    elif case == "III":
        S = C * n ** (1.0 - 2.0 * r) + C * n ** ((1.0 - 4.0 * r) / 2.0) \
            * (ln / (1.0 + (1.0 - 4.0 * r) * ln)) ** 0.5 * t
        R = C * n ** ((1.0 - 2.0 * r) * (3.0 - 2.0 * p)) * S ** q
        A, B = _simplified_AB("III", r, p, n, ledger)
    elif case == "IVa":
        _case_iva_A(r, p, n)  # validates sub-case preconditions
        S = C ** (1.0 / (p - 1.0)) * (1.0 - 2.0 * r) ** (-p / q) \
            * ln ** (-(3.0 - 2.0 * p) / q) * n ** 0.5 \
            + C ** (1.0 / (p - 1.0)) * ln ** 0.5 * t
        R = C * ln ** (3.0 - 2.0 * p) * S ** q
        A, B = _simplified_AB("IV", r, p, n, ledger)
    elif case == "IVb":
        S = C * n ** 0.5 + t
        R = C * ln * S ** q
        A, B = _simplified_AB("IV", r, p, n, ledger)
    else:
        raise ValueError(f"unknown case {case!r}")
    return OrderOrderBounds(S=S, R=R, A=A, B=B)


@dataclass(frozen=True)
class BoundReport:
    """All applicable dimension bounds at one (r, p, n, eps), shape and ledger form."""

    case: RegimeCase
    d_milman: float
    E: float
    F: float
    d_prime: float | None
    d_general: float
    k_max: int
    asymptotics_not_reached: bool
    shape_values: dict = field(default_factory=dict)
    ledger_values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "case": self.case.to_dict(),
            "d": self.d_milman,
            "E": self.E,
            "F": self.F,
            "d_prime": self.d_prime,
            "d_general": self.d_general,
            "k_max": self.k_max,
            "asymptotics_not_reached": self.asymptotics_not_reached,
            "shape_values": self.shape_values,
            "ledger_values": self.ledger_values,
        }


def compute_bound_report(
    r: float,
    p: float,
    n: int,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> BoundReport:
    """Evaluate every applicable dimension bound for the power-weight family.

    At r > 1, where d' is not defined, the near-l_inf regime is reported
    under 'ellinfty' instead; it does not enter k_max.
    """
    case = classify_case(r, p, n)
    params = power_params(r, p, n)
    w = params.weight_values()

    def all_values(ldg: ConstantLedger) -> dict:
        M_shape = median_norm_shape(w, p, n)
        b = lipschitz_constant(params)
        E, F = lomain_EF(r, p, n, eps, ldg)
        E_s, F_s = lomain_EF_simplified(r, p, n, eps, ldg)
        d_prime = corollary_dimension_rp(r, p, n, eps, ldg) if r <= 1.0 else None
        values = {
            "d": milman_dimension(M_shape, b, eps, ldg),
            "E": E,
            "F": F,
            "E_simplified": E_s,
            "F_simplified": F_s,
            "d_prime": d_prime,
            "d_general": general_dimension(params.weights, p, n, eps, ldg),
        }
        if r > 1.0:
            values["ellinfty"] = ellinfty_regime(n, eps, r, p, ldg).to_dict()
        return values

    shape = all_values(DEFAULT_LEDGER)
    scaled = all_values(ledger)
    applicable = [scaled["d"], min(scaled["E"], scaled["F"]), scaled["d_general"]]
    if scaled["d_prime"] is not None:
        applicable.append(scaled["d_prime"])
    best = min(applicable)
    return BoundReport(
        case=case,
        d_milman=scaled["d"],
        E=scaled["E"],
        F=scaled["F"],
        d_prime=scaled["d_prime"],
        d_general=scaled["d_general"],
        k_max=max(1, int(best)),
        asymptotics_not_reached=best < 1.0,
        shape_values=shape,
        ledger_values=scaled,
    )
