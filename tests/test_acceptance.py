"""End-to-end acceptance suite.

One test per criterion; each prints a single [PASS] line on success and fails
loudly otherwise.  Stochastic criteria use frozen master seeds so the whole
suite is bitwise reproducible.
"""

import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy import integrate

from lorentz_embed import (RandomStream, calibrate_embedding_dimension,
                           estimate_median_psi, incomplete_gamma_shape,
                           lipschitz_constant, lipschitz_maximizer,
                           lorentz_norm, median_psi_shape, power_integral_shape,
                           power_log_sum_shape, power_params, psi,
                           psi_gradient_norm, scaling_probe,
                           uniform_orderstat_upper_all, verify_embedding,
                           verify_orderorder)
from lorentz_embed.cli import main as cli_main
from lorentz_embed.constants import DEFAULT_LEDGER

REPORT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "reports")

# representative parameters, one per comparison-chain case, all valid at n = 10^4
CASE_PARAMS = {"I": (0.3, 2.0), "II": (0.3, 1.2), "III": (0.1, 1.2),
               "IVa": (0.3, 1.4), "IVb": (0.45, 1.1)}


def _passed(line: str):
    print(f"[PASS] {line}")


def _endpoint_drift(slices):
    """slices: list of (lo, hi) per-slice ratio intervals -> worst endpoint drift."""
    lows = [lo for lo, _ in slices]
    highs = [hi for _, hi in slices]
    return max(max(lows) / min(lows), max(highs) / min(highs))


def _interval(ratios, exponent):
    arr = np.asarray(ratios, dtype=float) ** exponent
    return float(arr.min()), float(arr.max())


class TestCriterion1AnalyticBoundRatios:
    """Oracle/shape ratios of every closed-form estimate stay in a stable band."""

    def test_incomplete_gamma_decay(self):
        slices = []
        count = 0
        for q in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
            ratios = []
            for b in np.geomspace(0.4, 40.0, 40):
                true, _ = integrate.quad(lambda w: math.exp(-w) * w ** q, 0.0, b)
                ratios.append(true / incomplete_gamma_shape(b, q, "decay"))
                count += 1
            # constants enter with exponent 1 + q; compare on the base scale
            slices.append(_interval(ratios, 1.0 / (1.0 + q)))
        assert count >= 200
        drift = _endpoint_drift(slices)
        assert drift < 2.0
        _passed(f"criterion 1a: decaying-integral ratio endpoints drift {drift:.3f} < 2 "
                f"over {count} points")

    def test_incomplete_gamma_growth(self):
        slices = []
        count = 0
        for q in (0.0, 0.5, 1.0, 2.0, 3.0):
            ratios = []
            for b in np.geomspace(0.5, 50.0, 40):
                true, _ = integrate.quad(lambda w: math.exp(w) * w ** q, 0.0, b)
                ratios.append(true / incomplete_gamma_shape(b, q, "growth"))
                count += 1
            slices.append(_interval(ratios, 1.0))
        assert count >= 200
        drift = _endpoint_drift(slices)
        assert drift < 2.0
        _passed(f"criterion 1b: growing-integral ratio endpoints drift {drift:.3f} < 2 "
                f"over {count} points")

    def test_power_log_sum(self):
        slices = []
        count = 0
        n_grid = sorted({int(round(v)) for v in np.geomspace(100, 10 ** 4, 35)})
        for a, q in ((0.0, 0.0), (0.3, 1.0), (0.7, 0.5), (1.0, 1.0),
                     (1.5, 0.0), (2.0, 1.0)):
            ratios = []
            for n in n_grid:
                i = np.arange(1, n + 1, dtype=float)
                logs = np.log(n / i)
                logs[-1] = 0.0
                powq = np.ones_like(logs) if q == 0.0 else logs ** q
                true = float(np.sum(i ** (-a) * powq))
                ratios.append(true / power_log_sum_shape(a, q, n))
                count += 1
            exponent = 1.0 / (1.0 + q) if a < 1.0 else 1.0
            slices.append(_interval(ratios, exponent))
        assert count >= 200
        drift = _endpoint_drift(slices)
        assert drift < 2.0
        _passed(f"criterion 1c: power/log-sum ratio endpoints drift {drift:.3f} < 2 "
                f"over {count} points")

    def test_power_integral(self):
        # the a = 1 slice is exactly ratio 1/2 everywhere and is pinned down by
        # an exact unit test; here the generic slices must stay in one band
        slices = []
        count = 0
        for a in (0.0, 0.5, 1.5, 2.0, 3.0):
            ratios = []
            for T in np.geomspace(2.0, 200.0, 45):
                if a == 1.0:
                    true = math.log(T)
                else:
                    true = (T ** (1.0 - a) - 1.0) / (1.0 - a)
                ratios.append(true / power_integral_shape(a, float(T)))
                count += 1
            slices.append(_interval(ratios, 1.0))
        assert count >= 200
        drift = _endpoint_drift(slices)
        assert drift < 2.0
        _passed(f"criterion 1d: power-integral ratio endpoints drift {drift:.3f} < 2 "
                f"over {count} points")


class TestCriterion2LipschitzExactness:
    def test_maximizer_attains_and_sphere_never_exceeds(self):
        rng = np.random.default_rng(2)
        vectors_per_config = 2000
        total = 0
        for _ in range(50):
            r = float(rng.uniform(0.0, 2.0))
            p = float(rng.uniform(1.0, 2.0 - 1e-9))
            n = int(rng.integers(2, 65))
            params = power_params(r, p, n)
            b = lipschitz_constant(params)
            theta = lipschitz_maximizer(params)
            assert lorentz_norm(params, theta) == pytest.approx(b, rel=1e-12)
            U = rng.standard_normal((n, vectors_per_config))
            U /= np.linalg.norm(U, axis=0)
            norms = lorentz_norm(params, U)
            assert np.all(norms <= b * (1.0 + 1e-12))
            total += vectors_per_config
        assert total == 10 ** 5
        _passed("criterion 2: supremum attained at the maximizer (rel 1e-12) and "
                f"never exceeded over {total} random unit vectors")


class TestCriterion3GradientFiniteDifferences:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        n, h = 10, 1e-6
        checked = 0
        for r in (0.0, 0.5, 1.0):
            for p in (1.2, 1.5, 2.5):
                params = power_params(r, p, n)
                done = 0
                while done < 100:
                    x = rng.standard_normal(n)
                    res = psi_gradient_norm(params, x)
                    if not res.smooth_point:
                        continue
                    fd = np.empty(n)
                    for j in range(n):
                        e = np.zeros(n)
                        e[j] = h
                        fd[j] = (psi(params, x + e) - psi(params, x - e)) / (2.0 * h)
                    assert abs(float(np.linalg.norm(fd)) - res.value) <= 1e-5
                    done += 1
                    checked += 1
        assert checked == 900
        _passed(f"criterion 3: gradient norm matches central differences (abs 1e-5) "
                f"at {checked} smooth points")


class TestCriterion4DeterministicChains:
    @pytest.mark.parametrize("case", sorted(CASE_PARAMS))
    def test_implication_never_violated(self, case):
        r, p = CASE_PARAMS[case]
        stream = RandomStream(404, (sorted(CASE_PARAMS).index(case),))
        res = verify_orderorder(case, r, p, 10 ** 4, 3.0, 10 ** 4, DEFAULT_LEDGER, stream)
        assert res.implication_violations == 0
        _passed(f"criterion 4: case {case} implication violations = 0 "
                f"over {res.trials} trials (P[S] = {res.prob_S_holds:.4f})")


class TestCriterion5ExplicitTailConstant:
    @pytest.mark.parametrize("t", [2.0, 3.0])
    def test_uniform_orderstat_violation_rate(self, t):
        n, trials, chunk = 2048, 10 ** 4, 500
        env = uniform_orderstat_upper_all(n, t)
        violations = 0
        stream = RandomStream(515)
        for ci, start in enumerate(range(0, trials, chunk)):
            m = min(chunk, trials - start)
            U = np.sort(stream.substream(ci).generator().uniform(size=(m, n)), axis=1)
            violations += int(np.sum(np.any(U > env[None, :], axis=1)))
        rate = violations / trials
        bound = (math.pi ** 2 / 3.0) * math.exp(-t ** 2 / 2.0)
        se = math.sqrt(bound * (1.0 - bound) / trials)
        assert rate <= bound + 3.0 * se
        _passed(f"criterion 5: t = {t:g} envelope violation rate {rate:.4f} <= "
                f"{bound + 3.0 * se:.4f}")


class TestCriterion6MedianShapes:
    def test_median_ratio_band_stable_in_n(self):
        counter = itertools.count()
        worst = 0.0
        for r in (0.0, 0.5, 1.0):
            for p in (1.0, 2.0, 3.0):
                ratios = []
                for n in (10 ** 2, 10 ** 3, 10 ** 4):
                    M = estimate_median_psi(power_params(r, p, n), 10 ** 4,
                                            RandomStream(606, (next(counter),)))
                    ratios.append(M / median_psi_shape(r, p, n))
                drift = max(ratios) / min(ratios)
                worst = max(worst, drift)
                assert drift < 2.0
        _passed(f"criterion 6: median/shape ratio drift in n < 2 for all nine "
                f"(r, p) pairs (worst {worst:.3f})")


class TestCriterion7EndToEndEmbedding:
    def test_calibrated_dimension_validates(self):
        rec = calibrate_embedding_dimension(0.0, 1.5, 2000, 0.2, 100, 10 ** 4,
                                            RandomStream(101), RandomStream(202))
        success = rec.details["validation_success_rate"]
        ci_low = rec.details["validation_ci_low"]
        assert success >= 0.95
        assert ci_low >= 0.90
        _passed(f"criterion 7: held-out success rate {success:.3f} >= 0.95 "
                f"(CI lower edge {ci_low:.3f} >= 0.90) at k = {rec.details['k_use']}")


class TestCriterion8Monotonicity:
    def test_success_and_distortion_monotone_in_k(self):
        params = power_params(0.0, 1.5, 500)
        rates, medians = [], []
        for k in (2, 4, 8, 16):
            res = verify_embedding(params, k, 0.12, 50, 2000, RandomStream(909))
            rates.append(res.success_rate)
            medians.append(float(np.median(res.max_devs)))
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(a <= b for a, b in zip(medians, medians[1:]))
        _passed(f"criterion 8: success rates {rates} non-increasing and median "
                f"max deviations {[f'{m:.4f}' for m in medians]} non-decreasing in k")


class TestCriterion9ScalingProbe:
    def test_euclidean_like_slope_and_advisory_high_p(self, tmp_path):
        def write_and_compare(result, name):
            # written to tmp_path; the committed report must match it byte for byte
            path = tmp_path / name
            with open(path, "w") as fh:
                json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            with open(os.path.join(REPORT_DIR, name), "rb") as fh:
                assert path.read_bytes() == fh.read(), f"reports/{name} is stale"

        res2 = scaling_probe(0.0, 2.0, 100, [0.17, 0.20, 0.24, 0.28], 40,
                             10 ** 4, RandomStream(33))
        write_and_compare(res2, "scaling_probe_p2.json")
        assert not res2.saturated
        assert res2.slope_ci_low <= 2.0 <= res2.slope_ci_high

        res4 = scaling_probe(0.0, 4.0, 5000, [0.12, 0.16, 0.22, 0.30], 20,
                             2000, RandomStream(44))
        write_and_compare(res4, "scaling_probe_p4.json")
        advisory_ok = (not res4.inconclusive and not res4.saturated
                       and res4.slope_ci_high < 2.0)
        if not advisory_ok:
            warnings.warn(
                "advisory: the p = 4 probe did not resolve a slope below 2 "
                f"(saturated={res4.saturated}, inconclusive={res4.inconclusive}, "
                f"ci_high={res4.slope_ci_high}); sampled directions lower-bound "
                "the true sup-distortion, so this check is warn-only")
        _passed(f"criterion 9: p = 2 slope CI ({res2.slope_ci_low:.2f}, "
                f"{res2.slope_ci_high:.2f}) contains 2; p = 4 advisory "
                f"{'passed' if advisory_ok else 'warned'}; reports match reports/")


class TestCriterion10Reproducibility:
    def test_cli_reports_byte_identical(self, tmp_path, capsys):
        jobs = {
            "simulate": ["simulate", "--r", "0.3", "--p", "1.5", "--n", "100",
                         "--k", "3", "--seed", "17", "--samples", "500",
                         "--directions", "1000"],
            "verify": ["verify", "--kind", "embedding", "--r", "0", "--p", "2",
                       "--n", "100", "--k", "2", "--eps", "0.3", "--seed", "18",
                       "--trials", "20", "--directions", "500"],
            "probe": ["probe", "--r", "0", "--p", "2", "--n", "50",
                      "--eps-grid", "0.15,0.2,0.26,0.34", "--seed", "19",
                      "--trials", "10", "--directions", "300"],
            "calibrate": ["calibrate", "--bound-name", "embedding_dimension",
                          "--r", "0", "--p", "2", "--n", "100", "--eps", "0.3",
                          "--seed", "20", "--validation-seed", "21",
                          "--trials", "20", "--directions", "500"],
        }
        for name, argv in jobs.items():
            out_a = str(tmp_path / f"{name}_a.json")
            out_b = str(tmp_path / f"{name}_b.json")
            assert cli_main(argv + ["--output", out_a]) == 0
            assert cli_main(argv + ["--output", out_b]) == 0
            a = open(out_a, "rb").read()
            b = open(out_b, "rb").read()
            assert a == b, f"{name} rerun differs"
        capsys.readouterr()
        _passed(f"criterion 10: {len(jobs)} stochastic commands rerun "
                "byte-identical for fixed master seeds")
