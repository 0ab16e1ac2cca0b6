"""Reproducible Monte Carlo: median estimation, the deterministic
gradient-bound implication checks, end-to-end embedding verification,
constant calibration and the eps-scaling probe."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analytic
from .constants import ConstantLedger
from .embedding import (_check_k, _check_M, _max_deviation, _trial_passes,
                        sample_gaussian_matrix, test_directions)
from .norms import _blocked_sums
from .params import LorentzParams, power_params
from .regimes import _check_eps, corollary_dimension_rp
from .sharp import _grad_pair, make_sharp_spec
from .streams import RandomStream

# chunk sizes are fixed so that results never depend on worker count
TRIAL_CHUNK = 200
BOOTSTRAP_RESAMPLES = 1000  # replicates of the probe's slope CI
Z95 = 1.959963984540054  # standard normal 0.975 quantile
# the k-searches: least success rate of a passing k, and the calibration's
# shrink factor from the largest passing k to the reported one
CALIBRATE_THRESHOLD = 0.98
CALIBRATE_SAFETY = 0.8
PROBE_THRESHOLD = 0.9
# samples of the median estimate M in verify_embedding, the calibration and the probe
MEDIAN_SAMPLES = 10 ** 4


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion, with exact edges 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z = Z95
    phat = successes / trials
    denom = 1.0 + z ** 2 / trials
    center = (phat + z ** 2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z ** 2 / (4.0 * trials ** 2)) / denom
    return (0.0 if successes == 0 else center - half,
            1.0 if successes == trials else center + half)


def _sample_power_sums(pairs: list, n: int, samples: int,
                       stream: RandomStream) -> list:
    """[sum_i c_i |x|_[i]^q for samples i.i.d. standard normal n-vectors x,
    for each (c, q) in pairs]. Sample s is row s mod TRIAL_CHUNK of chunk
    c = s // TRIAL_CHUNK, the C-ordered draw of stream.substream(c), whose
    generator is made here, in the calling thread. Each chunk is one task of
    norms._blocked_sums, which draws the chunk's blocks one after another
    into its thread's block buffer, so they hold the values of the whole
    draw."""
    starts = range(0, samples, TRIAL_CHUNK)
    generators = [stream.substream(c).generator() for c in range(len(starts))]

    def fill(start: int, stop: int, A: np.ndarray):
        np.abs(generators[start // TRIAL_CHUNK].standard_normal(out=A), out=A)

    return _blocked_sums(pairs, n, samples, fill,
                         [(s, min(s + TRIAL_CHUNK, samples)) for s in starts])


def _estimate_median(params: LorentzParams, samples: int, stream: RandomStream,
                     power: float) -> float:
    """Sample median of psi^power over samples draws of X."""
    if samples < 100:
        raise ValueError("samples must be at least 100")
    values = _sample_power_sums([(params.weights, params.p)], params.n,
                                samples, stream)[0] ** power
    return float(np.median(values))


def estimate_median_norm(params: LorentzParams, samples: int, stream: RandomStream) -> float:
    """Empirical median of |X|_{w,p}."""
    return _estimate_median(params, samples, stream, 1.0 / params.p)


def estimate_median_psi(params: LorentzParams, samples: int, stream: RandomStream) -> float:
    """Empirical median of psi(X) = sum_i w_i X_[i]^p."""
    return _estimate_median(params, samples, stream, 1.0)


def _check_counts(**counts: int):
    """Reject an empty run by the name of its count, before anything is sampled."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be positive, got {count}")


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
    (R = K S^(2(p-1)) with S and K from make_sharp_spec), which makes the
    implication a deterministic fact: implication_violations must be 0 for
    every sample.
    """
    spec = make_sharp_spec(case, r, p, n, t, ledger)
    _check_counts(trials=trials)
    S, K = spec.S, spec.K
    q = 2.0 * (p - 1.0)
    R = K * S ** q

    # case I's norm is the q-th root of the gradient sum itself
    pairs = [(spec.coefficients, spec.exponent)]
    if case != "I":
        pairs.append(_grad_pair(r, p, n))
    sums = _sample_power_sums(pairs, n, trials, stream)
    within = sums[0] ** (1.0 / spec.exponent) <= S
    holds = int(np.sum(within))
    violations = int(np.sum(within & (sums[-1] > R)))
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
                     M: float | None = None) -> EmbeddingVerification:
    """Success rate of the (1 +- eps) event over random matrices and directions.

    M defaults to the empirical median of |X|_{w,p} over MEDIAN_SAMPLES samples
    from stream.substream(0); a given M is checked first. The draws are
    _trial_draws'; each trial's max deviation is embedding._max_deviation's,
    exact, since the one caller in the package, `verify --kind embedding`,
    reports its quantiles. The k-searches of calibrate and probe take _passes.
    """
    _check_eps(eps)
    _check_counts(trials=trials, directions=directions)
    _check_k(params.n, k)
    if M is not None:
        _check_M(M)
    else:
        M = estimate_median_norm(params, MEDIAN_SAMPLES, stream.substream(0))
    dirs, draw = _trial_draws(params.n, k, directions, stream)
    max_devs = np.array([_max_deviation(draw(j), params, M, dirs) for j in range(trials)])
    successes = int(np.sum(max_devs <= eps))
    lo, hi = wilson_interval(successes, trials)
    return EmbeddingVerification(success_rate=successes / trials, ci_low=lo,
                                 ci_high=hi, trials=trials, k=k, eps=eps,
                                 M_used=M, max_devs=tuple(max_devs))


def _trial_draws(n: int, k: int, directions: int, stream: RandomStream) -> tuple:
    """The directions, from stream.substream(1) (at k = 1 {1, -1}, undrawn:
    every drawn one is one of the two), and draw(j), trial j's G from
    substream(2 + j), drawn when asked, so that one G at a time is held."""
    dirs = (np.array([[1.0, -1.0]]) if k == 1
            else test_directions(k, directions, "random_sphere", stream.substream(1)))
    return dirs, lambda j: sample_gaussian_matrix(n, k, stream.substream(2 + j))


def _passes(params: LorentzParams, k: int, eps: float, trials: int,
            directions: int, stream: RandomStream, M: float) -> int:
    """How many trials of verify_embedding(params, k, eps, trials, directions,
    stream, M) pass, on its draws, by embedding._trial_passes."""
    dirs, draw = _trial_draws(params.n, k, directions, stream)
    return sum(_trial_passes(draw(j), params, M, dirs, eps) for j in range(trials))


def _check_seed_split(fit_seed: int, validation_seed: int):
    """Reject a validation seed equal to the fit seed; both calibrations call
    this before their first draw."""
    if fit_seed == validation_seed:
        raise ValueError("validation seed must be distinct from the fit seed")


@dataclass(frozen=True)
class CalibrationRecord:
    bound_name: str
    fitted_constant: float
    fit_grid: tuple
    validation_violation_rate: float
    fit_seed: int
    validation_seed: int
    details: dict = field(default_factory=dict)

    to_dict = asdict


def _incomplete_gamma(sign: str):
    """The oracle of int_0^b e^(+-w) w^q dw, by quadrature, against its shape."""
    s = {"decay": -1.0, "growth": 1.0}[sign]

    def evaluate(b, q, stream):
        from scipy import integrate
        true, _ = integrate.quad(lambda w: math.exp(s * w) * w ** q, 0.0, b)
        return true, analytic.incomplete_gamma_shape(b, q, sign)
    return evaluate


# The named two-sided estimates: name -> (coordinates, evaluate), with
# evaluate(*point, stream) -> (true, shape); a coordinate n is a whole number.
# Every shape is a closed form; only median_psi draws from its stream.
_RATIO_ORACLES = {
    "power_log_sum": (("a", "q", "n"), lambda a, q, n, stream: (
        analytic.power_log_sum_exact(a, q, int(n)),
        analytic.power_log_sum_shape(a, q, int(n)))),
    "power_integral": (("a", "T"), lambda a, T, stream: (
        analytic.power_integral_exact(a, T), analytic.power_integral_shape(a, T))),
    "incomplete_gamma_decay": (("b", "q"), _incomplete_gamma("decay")),
    "incomplete_gamma_growth": (("b", "q"), _incomplete_gamma("growth")),
    "median_psi": (("r", "p", "n"), lambda r, p, n, stream: (
        estimate_median_psi(power_params(r, p, int(n)), 4000, stream),
        analytic.median_psi_shape(r, p, int(n)))),
}


def calibrate(bound_name: str, param_grid, fit_stream: RandomStream,
              validation_stream: RandomStream) -> CalibrationRecord:
    """Fit the extremal constant of a named two-sided bound on one stream and
    validate it on another.

    fitted_constant is the largest true/shape ratio on the fit grid; validation
    counts the points of a held-out grid, details["validation_grid"], that
    exceed it (with a 5% slack for stochastic oracles).  The CLI dispatches
    its target 'success_rate' to calibrate_embedding_dimension instead.
    """
    _check_seed_split(fit_stream.master_seed, validation_stream.master_seed)
    param_grid = tuple(map(tuple, param_grid))
    if not param_grid:
        raise ValueError("param_grid must be nonempty")
    known = sorted(_RATIO_ORACLES)  # a list, so an unhashable name is unknown too
    if bound_name not in known:
        raise ValueError(f"unknown two-sided bound {bound_name!r}; known: {known}")
    coordinates, evaluate = _RATIO_ORACLES[bound_name]
    for point in param_grid:
        if len(point) != len(coordinates):
            raise ValueError(f"grid_file point {list(point)}: {bound_name} "
                             f"takes {len(coordinates)} values")
        if "n" in coordinates and point[coordinates.index("n")] % 1 != 0:
            raise ValueError(f"grid_file point {list(point)}: n must be an integer")

    def evaluated(point: tuple, stream: RandomStream):
        """(true, shape) at point, None where shape <= 0 and true = 0."""
        try:
            true, shape = evaluate(*point, stream)
        except OverflowError:
            true = shape = math.inf
        if not (math.isfinite(true) and math.isfinite(shape)):
            raise ValueError(f"grid_file point {list(point)}: {bound_name} "
                             f"does not evaluate to finite numbers")
        if shape <= 0.0 and true != 0.0:
            raise ValueError(f"shape is 0 but the quantity is {true} at {point}")
        return (true, shape) if shape > 0.0 else None

    fits = [evaluated(point, fit_stream.substream(j)) for j, point in enumerate(param_grid)]
    ratios = [true / shape for true, shape in filter(None, fits)]
    if not ratios:
        raise ValueError("bound never evaluable on grid")
    fitted = max(ratios)
    # held out: fit point j moved by 1.1^U per coordinate, U uniform in [-1, 1]
    # from validation substream j (n rounded), or itself if the oracle rejects that
    checked, validation_grid = [], []
    for j, point in enumerate(param_grid):
        stream = validation_stream.substream(j)
        factors = (1.1 ** stream.generator().uniform(-1.0, 1.0, len(point))).tolist()
        moved = tuple(round(x * f) if name == "n" else x * f
                      for name, x, f in zip(coordinates, point, factors))
        try:
            value = evaluated(moved, stream)
        except ValueError:
            moved, value = point, evaluated(point, stream)
        validation_grid.append(list(moved))
        checked += [value] if value else []
    violations = sum(true > 1.05 * fitted * shape for true, shape in checked)
    return CalibrationRecord(bound_name=bound_name, fitted_constant=fitted,
                             fit_grid=param_grid,
                             validation_violation_rate=violations / len(checked),
                             fit_seed=fit_stream.master_seed,
                             validation_seed=validation_stream.master_seed,
                             details={"ratio_min": min(ratios), "ratio_max": fitted,
                                      "validation_grid": validation_grid})


def _largest_successful_k(params: LorentzParams, eps: float, trials: int,
                          directions: int, threshold: float,
                          stream: RandomStream, M: float,
                          k_cap: int) -> dict:
    """The success rate (_passes) at each k that a search for the largest
    passing k probes, doubling k from 1, then bisecting to +-1; keyed by
    ascending k, _k_star reads that k. Fresh substreams per probed k avoid
    adaptive bias. k = 1 is probed even where k_cap is 0, alone if it fails."""
    observed = {}

    def success_rate(k: int) -> float:  # no k is probed twice
        observed[k] = _passes(params, k, eps, trials, directions,
                              stream.substream(k), M) / trials
        return observed[k]

    cap = max(k_cap, 1)
    lo, hi = 0, 1
    while hi <= cap and success_rate(hi) >= threshold:
        lo = hi
        hi *= 2
    hi = min(hi, cap + 1)
    # invariant: lo succeeds (or is 0), hi fails (or exceeds the cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if success_rate(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return dict(sorted(observed.items()))


def _k_star(rates: dict, threshold: float) -> int:
    """The largest k in rates whose rate meets threshold, or 0."""
    return max((k for k, rate in rates.items() if rate >= threshold), default=0)


def calibrate_embedding_dimension(r: float, p: float, n: int, eps: float,
                                  trials: int, directions: int,
                                  fit_stream: RandomStream,
                                  validation_stream: RandomStream) -> CalibrationRecord:
    """Fit c_dim so that k = c_dim * (shape d') succeeds with high probability.

    Searches (k doubles, then bisects) the largest k whose fit success rate
    reaches CALIBRATE_THRESHOLD, shrinks it by CALIBRATE_SAFETY, and reports
    the validation failure rate at the resulting k on the held-out stream.

    The search is capped at k_cap: the shape value of the dimension bound
    rounded up (a relative excess below 1e-9 is rounding error, not a fraction
    of a dimension), at least 4 and at most n.  A finite number of sampled
    directions can only lower-bound the true sup-distortion, so success rates
    stay high far beyond the dimensions the bound speaks about; probing past
    the shape value would measure the direction sample, not the embedding.
    """
    _check_seed_split(fit_stream.master_seed, validation_stream.master_seed)
    _check_counts(trials=trials, directions=directions)
    params = power_params(r, p, n)
    shape = corollary_dimension_rp(r, p, n, eps)
    k_cap = min(n, max(4, math.ceil(shape * (1.0 - 1e-9))))
    M = estimate_median_norm(params, MEDIAN_SAMPLES, fit_stream.substream(10 ** 6))
    rates = _largest_successful_k(params, eps, trials, directions,
                                  CALIBRATE_THRESHOLD, fit_stream, M, k_cap)
    k_star = _k_star(rates, CALIBRATE_THRESHOLD)
    if k_star == 0:
        raise ValueError("bound never satisfiable on grid: success rate below "
                         f"threshold even at k = 1 (rates: {rates})")
    k_use = max(1, int(CALIBRATE_SAFETY * k_star))
    fitted = k_use / shape
    passed = _passes(params, k_use, eps, trials, directions,
                     validation_stream.substream(0), M)
    return CalibrationRecord(
        bound_name="embedding_dimension",
        fitted_constant=fitted,
        fit_grid=((r, p, n, eps),),
        validation_violation_rate=1.0 - passed / trials,
        fit_seed=fit_stream.master_seed,
        validation_seed=validation_stream.master_seed,
        details={"k_star": k_star, "k_use": k_use, "shape_dprime": shape,
                 "k_cap": k_cap, "capped": k_star >= k_cap,
                 "validation_success_rate": passed / trials,
                 "validation_ci_low": wilson_interval(passed, trials)[0],
                 "fit_rates": {str(k): v for k, v in rates.items()}},
    )


@dataclass(frozen=True)
class ScalingProbeResult:
    eps_grid: tuple
    k_stars: tuple
    slope: float | None  # None where undefined; `inconclusive` says why
    slope_ci_low: float | None
    slope_ci_high: float | None
    inconclusive: bool
    saturated: bool = False

    to_dict = asdict


def scaling_probe(r: float, p: float, n: int, eps_grid, trials: int,
                  directions: int, stream: RandomStream) -> ScalingProbeResult:
    """Fit the log-log slope of k*(eps), the largest k passing at rate >= PROBE_THRESHOLD.

    The CI comes from a parametric bootstrap: per probed (eps, k) the observed
    success count is resampled binomially (all in one draw), k* is recomputed
    from the resampled rates, and the regression slope is refit per replicate.

    The search per eps is capped at k_cap = min(n, ceil(4 ln m)) for
    m sampled directions: the sampled sup-deviation stops growing in k around
    k ~ ln m, so larger k values only measure the direction sample.  A run
    where any k* hits the cap is flagged saturated (and inconclusive).
    """
    eps_grid = tuple(float(e) for e in eps_grid)
    if len(set(eps_grid)) < 4 or not all(0.05 < e < 0.4 for e in eps_grid):
        raise ValueError("grid too small: need >= 4 distinct eps points inside "
                         "(0.05, 0.4)")
    _check_counts(trials=trials, directions=directions)
    k_cap = min(n, math.ceil(4.0 * math.log(directions)))
    params = power_params(r, p, n)
    M = estimate_median_norm(params, MEDIAN_SAMPLES, stream.substream(10 ** 6))

    searches = [_largest_successful_k(params, eps, trials, directions,
                                      PROBE_THRESHOLD, stream.substream(j), M, k_cap)
                for j, eps in enumerate(eps_grid)]
    k_stars = [_k_star(search, PROBE_THRESHOLD) for search in searches]
    saturated = any(k >= k_cap for k in k_stars)

    def fit_slope(ks):
        xs, ys = [], []
        for eps, k in zip(eps_grid, ks):
            if k >= 1:
                xs.append(math.log(eps))
                ys.append(math.log(k))
        if len(set(ys)) < 2:  # also when fewer than two k* reach 1
            return None
        return float(np.polyfit(xs, ys, 1)[0])

    slope = fit_slope(k_stars)
    rng = stream.substream(10 ** 6 + 1).generator()
    rates = [rate for search in searches for rate in search.values()]
    counts = rng.binomial(trials, rates, (BOOTSTRAP_RESAMPLES, len(rates)))
    boot = []
    for row in counts:
        resampled = iter(row / trials)  # each zip below stops at its search's end
        s = fit_slope([_k_star(dict(zip(search, resampled)), PROBE_THRESHOLD)
                       for search in searches])
        if s is not None:
            boot.append(s)
    ci = (None, None)
    if len(boot) >= 100 and slope is not None:
        ci = tuple(float(np.quantile(boot, level)) for level in (0.025, 0.975))
    return ScalingProbeResult(eps_grid, tuple(k_stars), slope, *ci, saturated=saturated,
                              inconclusive=saturated or ci[0] is None)
