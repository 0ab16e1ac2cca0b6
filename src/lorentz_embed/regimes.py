"""Parameter-regime classification and every embedding-dimension formula."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analytic import _log_power_sum, median_norm_shape
from .constants import DEFAULT_LEDGER, ConstantLedger
from .norms import lipschitz_constant
from .params import LorentzParams, _index_powers, power_params

# tolerance used to detect the boundary family p = 2(1-r)
P_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class RegimeCase:
    figure1: str
    orderorder: str

    to_dict = asdict


def _on_iv_boundary(r: float, p: float) -> bool:
    """Whether p = 2 - 2r, the Case IV family, within P_BOUNDARY_TOL."""
    return abs(p - (2.0 - 2.0 * r)) <= P_BOUNDARY_TOL


def classify_case(r: float, p: float, n: int) -> RegimeCase:
    """Total, deterministic classification of (r, p) into the region map.

    Regions for p >= 3/2 split on r only; for 1 <= p < 3/2 the boundary family
    p = 2 - 2r (detected within 1e-12) with r > 1/4, the paper's Case IV,
    takes precedence, then p < 3/2 - 2r, then the generic region split on r.
    """
    if not (0.0 <= r <= 2.0):
        raise ValueError(f"r must lie in [0, 2], got {r}")
    if not (1.0 <= p < math.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if n < 3:
        raise ValueError("n must be at least 3")

    band = "a" if r <= 0.5 else "b*" if r <= 1.0 else "b**"
    if p >= 1.5:
        return RegimeCase("i" + band, "I")
    # 1 <= p < 3/2
    if r > 0.25 and _on_iv_boundary(r, p):
        sub = "IVa" if (1.0 - 2.0 * r) * math.log(n) >= math.e else "IVb"
        return RegimeCase("iv", sub)
    if p < 1.5 - 2.0 * r:
        return RegimeCase("iii", "III")
    return RegimeCase("ii" + band, "II")


def _check_eps(eps: float):
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")


def milman_dimension(
    M: float,
    b: float,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> float:
    """The general Dvoretzky-type dimension c (M/b)^2 eps^2."""
    if M <= 0.0 or b <= 0.0:
        raise ValueError("M and b must be positive")
    _check_eps(eps)
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
    ln = math.log(n)
    e2 = eps ** 2
    ep = eps ** (2.0 / p)
    if r < 0.5:
        E = n * e2
    elif r == 0.5:
        E = n * ln ** (-p) * e2
    elif r < 1.0:
        E = n ** (2.0 * (1.0 - r)) * ln ** (-(p - 1.0)) * e2
    elif r == 1.0:
        E = ln ** 3 * e2
    else:
        # the table stops at r = 1; beyond it the full display gives ~ln n
        E = ln * e2
    if r <= 0.5:
        if p < 2.0 - 2.0 * r:
            F = n * ep
        elif _on_iv_boundary(r, p):
            F = n * ln ** (1.0 - 2.0 / p) * ep
        else:
            F = n ** (2.0 * (1.0 - r) / p) * ep
    elif r < 1.0:
        F = n ** (2.0 * (1.0 - r) / p) * ep
    elif r == 1.0:
        F = ln ** (1.0 + 2.0 / p) * ep
    else:
        F = ln * ep
    crp = ledger.get("c_rp")
    return crp * E, crp * F


def corollary_dimension_rp(
    r: float,
    p: float,
    n: int,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> float:
    """The improved sufficient dimension d' = c_rp min(E', F'): the smaller
    entry of lomain_EF_simplified, for the power-weight family with r <= 1."""
    if r > 1.0:
        raise ValueError("r > 1 is excluded; use ellinfty_regime instead")
    return min(lomain_EF_simplified(r, p, n, eps, ledger))


def general_dimension(
    params: LorentzParams,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> float:
    """Sufficient dimension d for a general weight sequence.

    For p > 1: (1 + 1/(p-1))^(-1) min{ c^p Sw^2 eps^2 / D, c B^(-1/p) Sw^(2/p) eps^(2/p) }
    where Sw = sum_i w_i (ln(n/i))^(p/2), D = sum_i w_i^2 (ln(n/i))^(p-1) and B
    switches at p = 3/2 and p = 2.  For p = 1: c Sw^2 eps^2 / sum_i w_i^2.
    """
    w, p, n = params.weights, params.p, params.n
    if p < 1.0:
        raise ValueError("p must be at least 1")
    _check_eps(eps)
    c = ledger.get("c_dim")
    Sw = float(_log_power_sum(w, p / 2.0, n))
    if p == 1.0:
        return c * Sw ** 2 * eps ** 2 / float(np.sum(w ** 2))
    D = float(_log_power_sum(w ** 2, p - 1.0, n))
    if p < 1.5:
        B = float(np.sum(w ** 2 * _index_powers(n, p - 1.0)))
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
    vacuous: bool

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
    _check_eps(eps)
    ln = math.log(n)
    gate = ledger.get("c_ellinfty_gate") * math.log(
        1.0 + (1.0 + n ** (1.0 - r)) / (1.0 + abs(1.0 - r) * ln) * ln
    )
    applicable = p > gate
    k_bound = ledger.get("c2_ellinfty") * eps * ln / -math.log(eps)
    # as eps -> 1 the bound blows up past the ambient dimension and says nothing
    return EllInftyResult(applicable, k_bound, vacuous=k_bound >= n)


@dataclass(frozen=True)
class BoundReport:
    """All applicable dimension bounds at one (r, p, n, eps), shape and ledger form."""

    case: RegimeCase
    d: float
    E: float
    F: float
    d_prime: float | None
    d_general: float
    k_max: int
    asymptotics_not_reached: bool
    shape_values: dict = field(default_factory=dict)
    ledger_values: dict = field(default_factory=dict)

    to_dict = asdict


def compute_bound_report(
    r: float,
    p: float,
    n: int,
    eps: float,
    ledger: ConstantLedger = DEFAULT_LEDGER,
) -> BoundReport:
    """Evaluate every applicable dimension bound for the power-weight family.

    At r > 1, where d' is not defined, the near-l_inf regime is reported
    under 'ellinfty' instead; it does not enter k_max.  A bound that
    overflows a float (at large p) raises ValueError.
    """
    case = classify_case(r, p, n)
    params = power_params(r, p, n)

    def all_values(ldg: ConstantLedger) -> dict:
        M_shape = median_norm_shape(params.weights, p)
        b = lipschitz_constant(params)
        E, F = lomain_EF(r, p, n, eps, ldg)
        E_s, F_s = lomain_EF_simplified(r, p, n, eps, ldg)
        d_prime = min(E_s, F_s) if r <= 1.0 else None
        values = {
            "d": milman_dimension(M_shape, b, eps, ldg),
            "E": E,
            "F": F,
            "E_simplified": E_s,
            "F_simplified": F_s,
            "d_prime": d_prime,
            "d_general": general_dimension(params, eps, ldg),
        }
        if r > 1.0:
            values["ellinfty"] = ellinfty_regime(n, eps, r, p, ldg).to_dict()
        return values

    try:  # every value is checked here, so numpy's overflow warnings are off
        with np.errstate(over="ignore", invalid="ignore"):
            shape, scaled = all_values(DEFAULT_LEDGER), all_values(ledger)
        if not all(math.isfinite(v) for values in (shape, scaled)
                   for v in values.values() if isinstance(v, float)):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"a bound at p = {p} overflows a float at "
                         f"(r, p, n, eps) = ({r}, {p}, {n}, {eps})") from None
    applicable = [scaled["d"], min(scaled["E"], scaled["F"]), scaled["d_general"]]
    if scaled["d_prime"] is not None:
        applicable.append(scaled["d_prime"])
    best = min(applicable)
    return BoundReport(
        case=case,
        d=scaled["d"],
        E=scaled["E"],
        F=scaled["F"],
        d_prime=scaled["d_prime"],
        d_general=scaled["d_general"],
        k_max=max(1, int(best)),
        asymptotics_not_reached=best < 1.0,
        shape_values=shape,
        ledger_values=scaled,
    )
