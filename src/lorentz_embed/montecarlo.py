"""Reproducible Monte Carlo: median estimation, the deterministic
gradient-bound implication checks, end-to-end embedding verification,
constant calibration and the eps-scaling probe."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .constants import ConstantLedger
from .embedding import sample_gaussian_matrix, test_directions
from .norms import lorentz_norm_columns, psi_columns
from .params import LorentzParams, power_params
from .regimes import corollary_dimension_rp, orderorder_SR
from .sharp import chain_factor, grad_functional_columns, make_sharp_spec, sharp_norm_columns
from .streams import RandomStream

# chunk sizes are fixed so that results never depend on worker count
TRIAL_CHUNK = 200
DIRECTION_CHUNK = 2000
BOOTSTRAP_RESAMPLES = 1000  # replicates of the probe's slope CI
Z95 = 1.959963984540054  # standard normal 0.975 quantile
# the k-searches: least success rate of a passing k, and the calibration's
# shrink factor from the largest passing k to the reported one
CALIBRATE_THRESHOLD = 0.98
CALIBRATE_SAFETY = 0.8
PROBE_THRESHOLD = 0.9


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z = Z95
    phat = successes / trials
    denom = 1.0 + z ** 2 / trials
    center = (phat + z ** 2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z ** 2 / (4.0 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class EstimatorResult:
    point: float
    ci_low: float
    ci_high: float
    samples: int

    def __post_init__(self):
        if not self.ci_low <= self.point <= self.ci_high:
            raise RuntimeError("point estimate outside its confidence interval")


def _normal_chunks(n: int, samples: int, stream: RandomStream):
    """i.i.d. standard normal (n, m) chunks of TRIAL_CHUNK columns, samples
    columns in all; chunk c is drawn from stream.substream(c).

    Every chunk is drawn into the same buffer, so a chunk is valid only until
    the next one is drawn. One allocation per call, not one per chunk, keeps
    the peak memory from depending on where the allocator puts freed chunks.
    """
    buffer = np.empty(n * min(TRIAL_CHUNK, samples))
    for chunk_index, start in enumerate(range(0, samples, TRIAL_CHUNK)):
        X = buffer[:n * min(TRIAL_CHUNK, samples - start)].reshape(n, -1)
        stream.substream(chunk_index).generator().standard_normal(out=X)
        yield X


def _estimate_median(columns_fn, params: LorentzParams, samples: int,
                     stream: RandomStream) -> EstimatorResult:
    """Sample median with the distribution-free 95% interval between the
    order statistics of ranks floor(m/2 - h) + 1 and ceil(m/2 + h) + 1,
    h = Z95 sqrt(m) / 2: it covers the true median with probability
    P(floor(m/2 - h) + 1 <= Bin(m, 1/2) <= ceil(m/2 + h)), whatever the law."""
    if samples < 100:
        raise ValueError("samples must be at least 100")
    values = np.concatenate([columns_fn(params, X)
                             for X in _normal_chunks(params.n, samples, stream)])
    values.sort()
    half = Z95 * math.sqrt(samples) / 2.0
    return EstimatorResult(
        point=float(np.median(values)),
        ci_low=float(values[max(0, math.floor(samples / 2.0 - half))]),
        ci_high=float(values[min(samples - 1, math.ceil(samples / 2.0 + half))]),
        samples=samples)


def estimate_median_norm(params: LorentzParams, samples: int, stream: RandomStream) -> EstimatorResult:
    """Empirical median of |X|_{w,p} with an order-statistic 95% CI."""
    return _estimate_median(lorentz_norm_columns, params, samples, stream)


def estimate_median_psi(params: LorentzParams, samples: int, stream: RandomStream) -> EstimatorResult:
    """Empirical median of psi(X) = sum_i w_i X_[i]^p with an order-statistic 95% CI."""
    return _estimate_median(psi_columns, params, samples, stream)


def _check_counts(**counts: int):
    """Reject an empty run by the name of its count, before anything is sampled."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be positive, got {count}")


def _check_eps(eps: float):
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")


def _sup_deviations(params: LorentzParams, k: int, trials: int, directions: int,
                    stream: RandomStream, M: float, matrix_factory=None) -> np.ndarray:
    """Per trial, the max of | |G theta|_{w,p} / M - 1 | over sampled directions.

    The directions come from stream.substream(1), trial j's matrix from
    stream.substream(2 + j); images are formed DIRECTION_CHUNK directions at a
    time, in one C-ordered (directions, n) buffer that every trial and block
    reuses and whose transposed views the norm kernel reads contiguously.
    matrix_factory, if given, replaces the Gaussian sampler.
    """
    factory = matrix_factory or sample_gaussian_matrix
    dirs = test_directions(k, directions, "random_sphere", stream.substream(1))
    sups = np.empty(trials)
    buffer = np.empty((min(directions, DIRECTION_CHUNK), params.n))
    for trial in range(trials):
        G = factory(params.n, k, stream.substream(2 + trial))
        sup = 0.0
        for start in range(0, directions, DIRECTION_CHUNK):
            block = dirs[:, start:start + DIRECTION_CHUNK]
            images = np.matmul(block.T, G.entries.T, out=buffer[:block.shape[1]])
            norms = lorentz_norm_columns(params, images.T)
            sup = max(sup, float(np.max(np.abs(norms / M - 1.0))))
        sups[trial] = sup
    return sups


@dataclass(frozen=True)
class OrderOrderVerification:
    case: str
    prob_S_holds: float
    ci_low: float
    ci_high: float
    implication_violations: int
    trials: int
    S: float
    R: float
    chain_K: float

    to_dict = asdict


def verify_orderorder(case: str, r: float, p: float, n: int, t: float,
                      trials: int, ledger: ConstantLedger,
                      stream: RandomStream) -> OrderOrderVerification:
    """Check P{|X|_sharp <= S} and the implication |X|_sharp <= S => grad sum <= R.

    R is derived from S through the case's own deterministic comparison chain
    (R = K S^(2(p-1)) with K from chain_factor), which makes the implication a
    deterministic fact: implication_violations must be 0 for every sample.
    """
    spec = make_sharp_spec(case, r, p, n, t)
    bounds = orderorder_SR(case, r, p, n, t, ledger)
    S = bounds.S
    K = chain_factor(spec)
    q = 2.0 * (p - 1.0)
    R = K * S ** q

    holds = 0
    violations = 0
    for X in _normal_chunks(n, trials, stream):
        grad = grad_functional_columns(r, p, X)
        # Case I's norm to the power q is the gradient sum itself: one sort
        sharp = grad ** (1.0 / q) if case == "I" else sharp_norm_columns(spec, X)
        within = sharp <= S
        holds += int(np.sum(within))
        violations += int(np.sum(within & (grad > R)))
    lo, hi = wilson_interval(holds, trials)
    return OrderOrderVerification(case=case, prob_S_holds=holds / trials,
                                  ci_low=lo, ci_high=hi,
                                  implication_violations=violations,
                                  trials=trials, S=S, R=R, chain_K=K)


@dataclass(frozen=True)
class EmbeddingVerification:
    success_rate: float
    ci_low: float
    ci_high: float
    trials: int
    k: int
    eps: float
    M_used: float
    max_devs: tuple = field(repr=False)

    def to_dict(self) -> dict:
        devs = np.asarray(self.max_devs)
        return {"success_rate": self.success_rate, "ci_low": self.ci_low,
                "ci_high": self.ci_high, "trials": self.trials, "k": self.k,
                "eps": self.eps, "M_used": self.M_used,
                "max_dev_quantiles": {"0.5": float(np.quantile(devs, 0.5)),
                                       "0.9": float(np.quantile(devs, 0.9)),
                                       "max": float(np.max(devs))}}


def verify_embedding(params: LorentzParams, k: int, eps: float, trials: int,
                     directions: int, stream: RandomStream,
                     M: float | None = None,
                     matrix_factory=None) -> EmbeddingVerification:
    """Success rate of the (1 +- eps) event over random matrices and directions.

    M defaults to the empirical median of |X|_{w,p} over 10^4 samples from a
    dedicated substream.  matrix_factory, if given, replaces the Gaussian
    sampler (test override for deterministic fixtures).
    """
    _check_eps(eps)
    _check_counts(trials=trials, directions=directions)
    if M is None:
        M = estimate_median_norm(params, 10 ** 4, stream.substream(0)).point
    max_devs = _sup_deviations(params, k, trials, directions, stream, M,
                               matrix_factory)
    successes = int(np.sum(max_devs <= eps))
    lo, hi = wilson_interval(successes, trials)
    return EmbeddingVerification(success_rate=successes / trials, ci_low=lo,
                                 ci_high=hi, trials=trials, k=k, eps=eps,
                                 M_used=M, max_devs=tuple(max_devs))


@dataclass(frozen=True)
class CalibrationRecord:
    bound_name: str
    fitted_constant: float
    fit_grid: tuple
    validation_violation_rate: float
    fit_seed: int
    validation_seed: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.fit_seed == self.validation_seed:
            raise ValueError("validation seed must differ from the fit seed")

    to_dict = asdict


def _ratio_evaluator(bound_name: str):
    """Registry of named two-sided bounds: (grid_point, stream) -> (true, shape)."""
    from . import analytic

    def power_log_sum(point, stream):
        a, q, n = point
        true = analytic.power_log_sum_exact(a, q, int(n))
        shape = analytic.power_log_sum_bounds(a, q, int(n)).shape_value
        return true, shape

    def power_integral(point, stream):
        a, T = point
        return analytic.power_integral_exact(a, T), \
            analytic.power_integral_bounds(a, T).shape_value

    def incomplete_gamma(sign):
        s = {"decay": -1.0, "growth": 1.0}[sign]

        def evaluate(point, stream):
            from scipy import integrate
            b, q = point
            true, _ = integrate.quad(lambda w: math.exp(s * w) * w ** q, 0.0, b)
            return true, analytic.incomplete_gamma_bounds(b, q, sign).shape_value
        return evaluate

    def median_psi(point, stream):
        r, p, n = point
        params = power_params(r, p, int(n))
        est = estimate_median_psi(params, 4000, stream)
        shape = analytic.median_psi_bounds(r, p, int(n)).shape_value
        return est.point, shape

    registry = {"power_log_sum": power_log_sum,
                "power_integral": power_integral,
                "incomplete_gamma_decay": incomplete_gamma("decay"),
                "incomplete_gamma_growth": incomplete_gamma("growth"),
                "median_psi": median_psi}
    if bound_name not in registry:
        raise ValueError(f"unknown two-sided bound {bound_name!r}; "
                         f"known: {sorted(registry)}")
    return registry[bound_name]


def calibrate(bound_name: str, param_grid, fit_stream: RandomStream,
              validation_stream: RandomStream) -> CalibrationRecord:
    """Fit the extremal constant of a named two-sided bound on one stream and
    validate it on another.

    fitted_constant is the largest true/shape ratio on the fit grid; validation
    counts the grid points exceeding it (with a 5% slack for stochastic
    oracles).  The CLI dispatches its target 'success_rate' to
    calibrate_embedding_dimension instead.
    """
    param_grid = tuple(param_grid)
    if not param_grid:
        raise ValueError("param_grid must be nonempty")
    if (fit_stream.master_seed, fit_stream.stream_id) == \
            (validation_stream.master_seed, validation_stream.stream_id):
        raise ValueError("fit and validation streams must be distinct")

    ev = _ratio_evaluator(bound_name)
    ratios = []
    for j, point in enumerate(param_grid):
        true, shape = ev(point, fit_stream.substream(j))
        if shape <= 0.0:
            if true != 0.0:
                raise ValueError(f"shape is 0 but the quantity is {true} at {point}")
            continue
        ratios.append(true / shape)
    if not ratios:
        raise ValueError("bound never evaluable on grid")
    fitted = max(ratios)
    violations = 0
    total = 0
    for j, point in enumerate(param_grid):
        true, shape = ev(point, validation_stream.substream(j))
        if shape <= 0.0:
            continue
        total += 1
        if true > 1.05 * fitted * shape:
            violations += 1
    return CalibrationRecord(bound_name=bound_name, fitted_constant=fitted,
                             fit_grid=param_grid,
                             validation_violation_rate=violations / total if total else 0.0,
                             fit_seed=fit_stream.master_seed,
                             validation_seed=validation_stream.master_seed,
                             details={"ratio_min": min(ratios), "ratio_max": fitted})


def _largest_successful_k(params: LorentzParams, eps: float, trials: int,
                          directions: int, threshold: float,
                          stream: RandomStream, M: float,
                          k_cap: int) -> tuple[int, dict]:
    """Binary search (to +-1) for the largest k whose success rate meets threshold.

    Fresh substreams per probed k avoid adaptive bias.  Returns 0 when even
    k = 1 fails.  Also returns the success rates observed per probed k.
    """
    observed = {}

    def success_rate(k: int) -> float:
        if k not in observed:
            res = verify_embedding(params, k, eps, trials, directions,
                                   stream.substream(k), M=M)
            observed[k] = res.success_rate
        return observed[k]

    if success_rate(1) < threshold:
        return 0, observed
    lo = 1
    hi = 2
    while hi <= k_cap and success_rate(hi) >= threshold:
        lo = hi
        hi *= 2
    hi = min(hi, k_cap + 1)
    # invariant: lo succeeds, hi fails (or exceeds the cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if success_rate(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo, observed


def calibrate_embedding_dimension(r: float, p: float, n: int, eps: float,
                                  trials: int, directions: int,
                                  fit_stream: RandomStream,
                                  validation_stream: RandomStream) -> CalibrationRecord:
    """Fit c_dim so that k = c_dim * (shape d') succeeds with high probability.

    Binary-searches the largest k whose fit success rate reaches
    CALIBRATE_THRESHOLD, shrinks it by CALIBRATE_SAFETY, and reports the
    validation failure rate at the resulting k on the held-out stream.

    The search is capped at k_cap: the shape value of the dimension bound
    rounded up (a relative excess below 1e-9 is rounding error, not a fraction
    of a dimension), at least 4 and at most n.  A finite number of sampled
    directions can only lower-bound the true sup-distortion, so success rates
    stay high far beyond the dimensions the bound speaks about; probing past
    the shape value would measure the direction sample, not the embedding.
    """
    _check_eps(eps)
    _check_counts(trials=trials, directions=directions)
    params = power_params(r, p, n)
    shape = corollary_dimension_rp(r, p, n, eps)
    k_cap = min(n, max(4, math.ceil(shape * (1.0 - 1e-9))))
    M = estimate_median_norm(params, 10 ** 4, fit_stream.substream(10 ** 6)).point
    k_star, observed = _largest_successful_k(params, eps, trials, directions,
                                             CALIBRATE_THRESHOLD, fit_stream, M, k_cap)
    if k_star == 0:
        raise ValueError("bound never satisfiable on grid: success rate below "
                         f"threshold even at k = 1 (rates: {observed})")
    k_use = max(1, int(CALIBRATE_SAFETY * k_star))
    fitted = k_use / shape
    val = verify_embedding(params, k_use, eps, trials, directions,
                           validation_stream.substream(0), M=M)
    return CalibrationRecord(
        bound_name="embedding_dimension",
        fitted_constant=fitted,
        fit_grid=((r, p, n, eps),),
        validation_violation_rate=1.0 - val.success_rate,
        fit_seed=fit_stream.master_seed,
        validation_seed=validation_stream.master_seed,
        details={"k_star": k_star, "k_use": k_use, "shape_dprime": shape,
                 "k_cap": k_cap, "capped": k_star >= k_cap,
                 "validation_success_rate": val.success_rate,
                 "validation_ci_low": val.ci_low,
                 "fit_rates": {str(k): v for k, v in sorted(observed.items())}},
    )


@dataclass(frozen=True)
class ScalingProbeResult:
    eps_grid: tuple
    k_stars: tuple
    slope: float
    slope_ci_low: float
    slope_ci_high: float
    inconclusive: bool
    saturated: bool = False

    def to_dict(self) -> dict:
        def finite_or_none(v):  # JSON has no NaN; `inconclusive` says why
            return None if math.isnan(v) else v

        return {"eps_grid": list(self.eps_grid), "k_stars": list(self.k_stars),
                "slope": finite_or_none(self.slope),
                "slope_ci_low": finite_or_none(self.slope_ci_low),
                "slope_ci_high": finite_or_none(self.slope_ci_high),
                "inconclusive": self.inconclusive,
                "saturated": self.saturated}


def scaling_probe(r: float, p: float, n: int, eps_grid, trials: int,
                  directions: int, stream: RandomStream) -> ScalingProbeResult:
    """Fit the log-log slope of k*(eps), the largest k passing at rate >= PROBE_THRESHOLD.

    The CI comes from a parametric bootstrap: per probed (eps, k) the observed
    success count is resampled binomially, k* is recomputed from the resampled
    rates, and the regression slope is refit per replicate.

    The search per eps is capped at k_cap = min(n, ceil(4 ln m)) for
    m sampled directions: the sampled sup-deviation stops growing in k around
    k ~ ln m, so larger k values only measure the direction sample.  A run
    where any k* hits the cap is flagged saturated (and inconclusive).
    """
    eps_grid = tuple(float(e) for e in eps_grid)
    if len(eps_grid) < 4 or not all(0.05 < e < 0.4 for e in eps_grid):
        raise ValueError("grid too small: need >= 4 eps points inside (0.05, 0.4)")
    _check_counts(trials=trials, directions=directions)
    k_cap = min(n, math.ceil(4.0 * math.log(directions)))
    params = power_params(r, p, n)
    M = estimate_median_norm(params, 10 ** 4, stream.substream(10 ** 6)).point

    k_stars = []
    per_eps_observed = []
    for j, eps in enumerate(eps_grid):
        k_star, observed = _largest_successful_k(
            params, eps, trials, directions, PROBE_THRESHOLD,
            stream.substream(j), M, k_cap)
        k_stars.append(k_star)
        per_eps_observed.append(observed)
    saturated = any(k >= k_cap for k in k_stars)

    def fit_slope(ks):
        xs, ys = [], []
        for eps, k in zip(eps_grid, ks):
            if k >= 1:
                xs.append(math.log(eps))
                ys.append(math.log(k))
        if len(set(ys)) < 2:  # also when fewer than two k* reach 1
            return math.nan
        return float(np.polyfit(xs, ys, 1)[0])

    slope = fit_slope(k_stars)
    rng = stream.substream(10 ** 6 + 1).generator()
    boot = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        ks_b = []
        for observed in per_eps_observed:
            best = 0
            for k in sorted(observed):
                cnt = rng.binomial(trials, min(1.0, max(0.0, observed[k])))
                if cnt / trials >= PROBE_THRESHOLD:
                    best = max(best, k)
            ks_b.append(best)
        s = fit_slope(ks_b)
        if not math.isnan(s):
            boot.append(s)
    if len(boot) < 100 or math.isnan(slope):
        return ScalingProbeResult(eps_grid, tuple(k_stars), slope, math.nan,
                                  math.nan, inconclusive=True,
                                  saturated=saturated)
    lo = float(np.quantile(boot, 0.025))
    hi = float(np.quantile(boot, 0.975))
    return ScalingProbeResult(eps_grid, tuple(k_stars), slope, lo, hi,
                              inconclusive=saturated, saturated=saturated)
