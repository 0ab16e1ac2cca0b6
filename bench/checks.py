"""Correctness checks for the benchmark's reports.

Each check compares a report against a computation made here, apart from the
program (strict JSON parsing, Wilson intervals from the quadratic they solve,
naive sort-and-sum oracles on their own MT19937 streams), or against
properties the method must have. None compares against stored output.
Every failed check raises CheckError naming the field.
"""

import json
import math
from statistics import NormalDist

import numpy as np

Z95 = NormalDist().inv_cdf(0.975)
# calibrate_embedding_dimension defaults; the CLI does not expose them
CALIBRATE_THRESHOLD = 0.98
CALIBRATE_SAFETY = 0.8
# verify_embedding and calibrate estimate M from this many samples
MEDIAN_SAMPLES = 10 ** 4
ORACLE_BATCH = 2000
# sampling-error multiple allowed between two independent estimates
SIGMAS = 5.0


class CheckError(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _reject_constant(token: str):
    raise CheckError(f"report holds the non-JSON token {token}")


def parse_strict(text: str) -> dict:
    """Parse a report, rejecting the NaN / Infinity tokens Python's json allows."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None


def wilson_bounds(successes: int, trials: int) -> tuple[float, float]:
    """Roots in pi of (phat - pi)^2 = z^2 pi (1 - pi) / trials, the 95% Wilson interval."""
    phat = successes / trials
    zz = Z95 ** 2 / trials
    a, b, c = 1.0 + zz, -(2.0 * phat + zz), phat ** 2
    q = (-b + math.sqrt(b * b - 4.0 * a * c)) / 2.0  # stable: -b > 0
    return max(0.0, c / q), min(1.0, q / a)


def _successes(rate: float, trials: int, where: str) -> int:
    count = round(rate * trials)
    _require(0 <= count <= trials and abs(count - rate * trials) < 1e-9,
             f"{where}: rate {rate} is not a count out of {trials}")
    return count


def _check_wilson(rate, lo, hi, trials, where):
    exp_lo, exp_hi = wilson_bounds(_successes(rate, trials, where), trials)
    for name, got, want in (("ci_low", lo, exp_lo), ("ci_high", hi, exp_hi)):
        if got is not None:
            _require(abs(got - want) <= 1e-9,
                     f"{where}: {name} {got} != Wilson {want}")


def naive_median_norm(r: float, p: float, n: int, samples: int,
                      seed: int) -> tuple[float, float]:
    """Median of (sum_i i^-r x_[i]^p)^(1/p) over Gaussian vectors, one at a time.

    Returns the median and its standard error, read off the order statistics
    one standard deviation of the binomial rank either side of the middle.
    """
    rng = np.random.Generator(np.random.MT19937(seed))
    w = np.arange(1, n + 1, dtype=float) ** (-r)
    values = np.empty(samples)
    for j in range(samples):
        xs = np.sort(np.abs(rng.standard_normal(n)))[::-1]
        values[j] = np.sum(w * xs ** p) ** (1.0 / p)
    values.sort()
    half = math.ceil(math.sqrt(samples) / 2.0)
    mid = samples // 2
    return float(np.median(values)), float(values[mid + half] - values[mid - half]) / 2.0


def naive_case_one(r: float, p: float, n: int, batch: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Case-I sharp norm and gradient sum of Gaussian vectors, one at a time.

    The sharp norm is the l_q norm of (i^(-2r/q) x_[i]) and the gradient sum
    is sum_i i^(-2r) x_[i]^q, q = 2(p - 1), computed by separate routes.
    """
    rng = np.random.Generator(np.random.MT19937(seed))
    q = 2.0 * (p - 1.0)
    c = np.arange(1, n + 1, dtype=float) ** (-2.0 * r)
    scale = c ** (1.0 / q)
    sharp = np.empty(batch)
    grad = np.empty(batch)
    for j in range(batch):
        xs = np.sort(np.abs(rng.standard_normal(n)))[::-1]
        sharp[j] = np.linalg.norm(scale * xs, ord=q)
        grad[j] = np.sum(c * xs ** q)
    return sharp, grad


def check_verify_embedding(report: dict, oracle_seed: int):
    cfg, res = report["config"], report["result"]
    trials = res["trials"]
    _require(res["k"] == cfg["k"] and res["eps"] == cfg["eps"]
             and trials == cfg["trials"], "result does not echo k / eps / trials")
    _check_wilson(res["success_rate"], res["ci_low"], res["ci_high"], trials, "verify")
    q = res["max_dev_quantiles"]
    _require(0.0 <= q["0.5"] <= q["0.9"] <= q["max"],
             f"max-deviation quantiles out of order: {q}")
    _require((res["success_rate"] == 1.0) == (q["max"] <= res["eps"]),
             f"success_rate {res['success_rate']} disagrees with max deviation "
             f"{q['max']} against eps {res['eps']}")
    median, se = naive_median_norm(cfg["r"], cfg["p"], cfg["n"], MEDIAN_SAMPLES,
                                   oracle_seed)
    tolerance = SIGMAS * se * math.sqrt(2.0)  # both estimates use 10^4 samples
    _require(abs(res["M_used"] - median) <= tolerance,
             f"M_used {res['M_used']} differs from the naive median {median} "
             f"by more than {tolerance}")


def check_calibrate(report: dict, oracle_seed: int):
    cfg, res, ledger = report["config"], report["result"], report["ledger"]
    d = res["details"]
    r, p, n, eps = cfg["r"], cfg["p"], cfg["n"], cfg["eps"]
    _require(r < 0.5 and p < 2.0 - 2.0 * r,
             "closed form c_rp n eps^2 needs r < 1/2 and p < 2 - 2r")
    shape = ledger["c_rp"] * n * eps ** 2
    _require(_close(d["shape_dprime"], shape),
             f"shape_dprime {d['shape_dprime']} != c_rp n eps^2 = {shape}")
    k_star, k_cap, k_use = d["k_star"], d["k_cap"], d["k_use"]
    _require(1 <= k_star <= k_cap, f"k_star {k_star} outside [1, k_cap={k_cap}]")
    _require(d["capped"] == (k_star >= k_cap), "capped flag disagrees with k_star")
    _require(k_use == max(1, math.floor(CALIBRATE_SAFETY * k_star)),
             f"k_use {k_use} != max(1, floor({CALIBRATE_SAFETY} k_star))")
    _require(_close(res["fitted_constant"], k_use / d["shape_dprime"]),
             "fitted_constant != k_use / shape_dprime")
    rates = d["fit_rates"]
    trials = cfg["trials"]
    for k, rate in rates.items():
        _successes(rate, trials, f"fit_rates[{k}]")
    _require(rates.get(str(k_star), -1.0) >= CALIBRATE_THRESHOLD,
             f"fit rate at k_star={k_star} is below {CALIBRATE_THRESHOLD}")
    if k_star < k_cap:
        _require(rates.get(str(k_star + 1), 1.0) < CALIBRATE_THRESHOLD,
                 f"fit rate at k_star+1={k_star + 1} is not below the threshold")
    _check_wilson(d["validation_success_rate"], d["validation_ci_low"], None,
                  trials, "validation")
    _require(_close(res["validation_violation_rate"], 1.0 - d["validation_success_rate"]),
             "validation_violation_rate != 1 - validation_success_rate")
    _require(res["fit_seed"] == cfg["master_seed"]
             and res["validation_seed"] == cfg["validation_seed"]
             and res["fit_seed"] != res["validation_seed"],
             "fit / validation seeds do not echo the config or coincide")


def check_orderorder(report: dict, oracle_seed: int):
    cfg, res = report["config"], report["result"]
    _require(res["case"] == "I" == cfg["case"], "only case I has an oracle here")
    trials = res["trials"]
    _require(trials == cfg["trials"], "result does not echo trials")
    _require(res["implication_violations"] == 0,
             f"implication_violations = {res['implication_violations']}")
    _require(res["chain_K"] == 1.0, f"case I chain_K {res['chain_K']} != 1")
    r, p, n = cfg["r"], cfg["p"], cfg["n"]
    S, R = res["S"], res["R"]
    _require(S > 0.0 and _close(R, res["chain_K"] * S ** (2.0 * (p - 1.0))),
             f"R {R} != chain_K S^(2(p-1))")
    _check_wilson(res["prob_S_holds"], res["ci_low"], res["ci_high"], trials,
                  "orderorder")
    sharp, grad = naive_case_one(r, p, n, ORACLE_BATCH, oracle_seed)
    within = sharp <= S
    bad = int(np.sum(within & (grad > R * (1.0 + 1e-9))))
    _require(bad == 0, f"naive oracle: {bad} vectors with sharp <= S and grad > R")
    share, prob = float(np.mean(within)), res["prob_S_holds"]
    pooled = (share * ORACLE_BATCH + prob * trials) / (ORACLE_BATCH + trials)
    spread = 1.0 / ORACLE_BATCH + 1.0 / trials
    tolerance = SIGMAS * math.sqrt(pooled * (1.0 - pooled) * spread) + spread
    _require(abs(share - prob) <= tolerance,
             f"prob_S_holds {prob} vs naive share {share}: beyond {tolerance}")
