import json
import math

import numpy as np
import pytest

from lorentz_embed import (RandomStream, calibrate,
                           calibrate_embedding_dimension, estimate_median_norm,
                           estimate_median_psi, identity_injection,
                           lorentz_norm_columns, power_params,
                           sample_gaussian_matrix, scaling_probe,
                           verify_embedding, verify_orderorder,
                           wilson_interval)
# alias: pytest would otherwise collect the library function as a test
from lorentz_embed import test_directions as make_directions
from lorentz_embed import montecarlo
from lorentz_embed.constants import DEFAULT_LEDGER
from lorentz_embed.regimes import orderorder_SR
from lorentz_embed.sharp import (chain_factor, grad_functional_columns,
                                 make_sharp_spec, sharp_norm_columns)

# chi distribution with 100 degrees of freedom: median via the regularized
# incomplete gamma inverse (independent quadrature-backed oracle)
CHI100_MEDIAN = 9.966591059694464


class TestWilson:
    def test_symmetric_center(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert lo == pytest.approx(1.0 - hi, abs=1e-12)

    def test_edges_clamped(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.3
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0 and lo > 0.7

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestMedianEstimators:
    def test_half_normal_median(self):
        params = power_params(0.0, 2.0, 1)
        res = estimate_median_norm(params, 4000, RandomStream(71))
        target = 0.6744897501960817  # Phi^{-1}(3/4)
        assert res.ci_low <= target <= res.ci_high
        assert res.point == pytest.approx(target, abs=0.05)

    def test_chi_100_median(self):
        params = power_params(0.0, 2.0, 100)
        res = estimate_median_norm(params, 10 ** 4, RandomStream(72))
        assert res.ci_low <= CHI100_MEDIAN <= res.ci_high

    def test_determinism(self):
        params = power_params(0.5, 1.5, 20)
        a = estimate_median_norm(params, 500, RandomStream(73))
        b = estimate_median_norm(params, 500, RandomStream(73))
        assert a.point == b.point and a.ci_low == b.ci_low

    def test_psi_is_norm_power(self):
        # odd sample count: both medians are the same single order statistic
        params = power_params(0.0, 2.0, 50)
        norm = estimate_median_norm(params, 1001, RandomStream(74))
        psi = estimate_median_psi(params, 1001, RandomStream(74))
        assert psi.point == pytest.approx(norm.point ** 2, rel=1e-12)

    @pytest.mark.parametrize("samples", [1001, 10 ** 4])
    def test_interval_ends_are_order_statistics(self, samples):
        params = power_params(0.3, 1.5, 40)
        res = estimate_median_norm(params, samples, RandomStream(75))
        values = np.sort(np.concatenate([
            lorentz_norm_columns(params, X)
            for X in montecarlo._normal_chunks(params.n, samples, RandomStream(75))]))
        half = montecarlo.Z95 * math.sqrt(samples) / 2.0
        assert res.point == float(np.median(values))
        assert res.ci_low == values[math.floor(samples / 2 - half)]
        assert res.ci_high == values[math.ceil(samples / 2 + half)]
        assert res.samples == samples

    def test_draws_only_the_sample_chunks(self, monkeypatch):
        built = []
        generator = RandomStream.generator

        def counted(self):
            built.append(self.path)
            return generator(self)

        monkeypatch.setattr(RandomStream, "generator", counted)
        estimate_median_norm(power_params(0.0, 2.0, 10), 10 ** 4, RandomStream(76))
        assert len(built) == math.ceil(10 ** 4 / montecarlo.TRIAL_CHUNK) == 50

    def test_interval_coverage_over_seeds(self):
        params = power_params(0.0, 2.0, 100)
        covered = 0
        for seed in range(200):
            res = estimate_median_norm(params, 2000, RandomStream(seed))
            covered += res.ci_low <= CHI100_MEDIAN <= res.ci_high
        assert 0.92 <= covered / 200 <= 0.98

    def test_chunks_match_fresh_draws(self):
        # the chunks share one buffer; each must still equal its own draw,
        # the short last chunk included
        stream = RandomStream(77)
        chunks = [X.copy() for X in montecarlo._normal_chunks(7, 450, stream)]
        assert [X.shape for X in chunks] == [(7, 200), (7, 200), (7, 50)]
        for c, X in enumerate(chunks):
            expected = stream.substream(c).generator().standard_normal(X.shape)
            assert np.array_equal(X, expected)

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            estimate_median_norm(power_params(0.0, 2.0, 5), 50, RandomStream(0))


class TestVerifyOrderOrder:
    def test_case_I_tautological(self):
        # p = 2, r = 0: the implication is |X| <= S => sum X^2 <= S^2
        res = verify_orderorder("I", 0.0, 2.0, 100, 3.0, 400, DEFAULT_LEDGER,
                                RandomStream(91))
        assert res.implication_violations == 0
        assert res.chain_K == 1.0
        assert res.R == pytest.approx(res.S ** 2, rel=1e-12)

    def test_case_II_zero_violations(self):
        res = verify_orderorder("II", 0.3, 1.2, 1000, 3.0, 400, DEFAULT_LEDGER,
                                RandomStream(92))
        assert res.implication_violations == 0

    def test_prob_S_holds_high(self):
        res = verify_orderorder("I", 0.3, 2.0, 1000, 3.0, 400, DEFAULT_LEDGER,
                                RandomStream(93))
        assert res.prob_S_holds >= 1.0 - math.exp(-3.0 ** 2 / 2.0) - 0.05

    def test_case_I_shares_the_gradient_sum(self):
        # case I takes its norm from the gradient sum; a loop over the same
        # chunks that evaluates the two column functions apart must agree
        r, p, n, t, trials = 0.3, 2.5, 60, 0.5, 450
        res = verify_orderorder("I", r, p, n, t, trials, DEFAULT_LEDGER,
                                RandomStream(95))
        spec = make_sharp_spec("I", r, p, n, t)
        S = orderorder_SR("I", r, p, n, t, DEFAULT_LEDGER).S
        R = chain_factor(spec) * S ** (2.0 * (p - 1.0))
        holds = violations = 0
        for X in montecarlo._normal_chunks(n, trials, RandomStream(95)):
            within = sharp_norm_columns(spec, X) <= S
            holds += int(np.sum(within))
            violations += int(np.sum(within & (grad_functional_columns(r, p, X) > R)))
        assert 0 < holds < trials
        assert (res.prob_S_holds, res.implication_violations, res.S, res.R) == \
            (holds / trials, violations, S, R)

    def test_determinism(self):
        args = ("III", 0.1, 1.2, 500, 2.0, 300, DEFAULT_LEDGER)
        a = verify_orderorder(*args, RandomStream(94))
        b = verify_orderorder(*args, RandomStream(94))
        assert a.to_dict() == b.to_dict()


class TestVerifyEmbedding:
    def test_identity_isometry_always_succeeds(self):
        n = 30
        params = power_params(0.0, 2.0, n)

        def factory(n_, k_, stream):
            return identity_injection(n_, k_)

        for eps in (0.01, 0.1, 0.5):
            res = verify_embedding(params, 5, eps, 10, 200, RandomStream(95),
                                   M=1.0, matrix_factory=factory)
            assert res.success_rate == 1.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            verify_embedding(power_params(0.0, 2.0, 10), 2, 1.5, 5, 10,
                             RandomStream(0))

    def test_determinism(self):
        params = power_params(0.0, 1.5, 50)
        a = verify_embedding(params, 3, 0.2, 20, 200, RandomStream(96))
        b = verify_embedding(params, 3, 0.2, 20, 200, RandomStream(96))
        assert a.to_dict() == b.to_dict()

    def test_partial_last_direction_block(self):
        # more directions than one block, the last block short
        params = power_params(0.3, 1.5, 40)
        k, trials, directions, M = 3, 10, montecarlo.DIRECTION_CHUNK + 1500, 2.0
        stream = RandomStream(97)
        res = verify_embedding(params, k, 0.5, trials, directions, stream, M=M)
        dirs = make_directions(k, directions, "random_sphere", stream.substream(1))
        for trial, dev in enumerate(res.max_devs):
            G = sample_gaussian_matrix(params.n, k, stream.substream(2 + trial))
            norms = lorentz_norm_columns(params, G.entries @ dirs)
            assert dev == pytest.approx(np.max(np.abs(norms / M - 1.0)), rel=1e-12)


class TestCalibrate:
    def test_flat_power_log_sum_near_one(self):
        grid = [(0.0, 0.0, n) for n in (100, 300, 1000, 3000)]
        rec = calibrate("power_log_sum", grid, RandomStream(97), RandomStream(98))
        assert 0.5 < rec.fitted_constant < 2.0
        assert rec.validation_violation_rate == 0.0

    def test_same_streams_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            calibrate("power_log_sum", [(0.0, 0.0, 100)], RandomStream(1), RandomStream(1))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            calibrate("power_log_sum", [], RandomStream(1), RandomStream(2))

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError, match="unknown two-sided bound"):
            calibrate("no_such_bound", [(1,)], RandomStream(1), RandomStream(2))

    def test_refit_reproducible(self):
        grid = [(0.3, 0.5, 200), (0.3, 0.5, 500)]
        a = calibrate("power_log_sum", grid, RandomStream(99), RandomStream(100))
        b = calibrate("power_log_sum", grid, RandomStream(99), RandomStream(100))
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)


class TestCalibrateEmbeddingDimension:
    def test_k_cap_ignores_rounding_excess(self):
        # c_rp n eps^2 = 100 * 0.2^2 evaluates to 4.000000000000001
        rec = calibrate_embedding_dimension(0.0, 1.5, 100, 0.2, 20, 200,
                                            RandomStream(1), RandomStream(2))
        assert rec.details["k_cap"] == 4


class TestScalingProbe:
    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid too small"):
            scaling_probe(0.0, 2.0, 100, [0.1, 0.2], 10, 100, RandomStream(0))

    def test_grid_out_of_band(self):
        with pytest.raises(ValueError, match="grid too small"):
            scaling_probe(0.0, 2.0, 100, [0.1, 0.2, 0.3, 0.45], 10, 100,
                          RandomStream(0))

    def test_smoke_run(self):
        res = scaling_probe(0.0, 2.0, 50, [0.15, 0.2, 0.26, 0.34], 10, 300,
                            RandomStream(103))
        assert len(res.k_stars) == 4
        d = res.to_dict()
        assert set(d) >= {"eps_grid", "k_stars", "slope", "slope_ci_low",
                          "slope_ci_high", "inconclusive", "saturated"}
