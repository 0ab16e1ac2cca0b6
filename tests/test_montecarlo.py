import concurrent.futures
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lorentz_embed import (LorentzParams, RandomStream, calibrate,
                           calibrate_embedding_dimension, estimate_median_norm,
                           estimate_median_psi, lorentz_norm, measure_distortion,
                           power_params, sample_gaussian_matrix, scaling_probe,
                           verify_embedding, verify_orderorder,
                           wilson_interval)
# alias: pytest would otherwise collect the library function as a test
from lorentz_embed import test_directions as make_directions
from lorentz_embed import montecarlo, norms
from lorentz_embed.cli import _load_weights_file
from lorentz_embed.constants import DEFAULT_LEDGER, ConstantLedger
from lorentz_embed.sharp import grad_functional, make_sharp_spec, sharp_norm
from oracle import identity_injection, weighted_power_sum

# chi distribution with 100 degrees of freedom: median via the regularized
# incomplete gamma inverse (independent quadrature-backed oracle)
CHI100_MEDIAN = 9.966591059694464


def drawn_chunks(n, samples, stream):
    """The sampler's chunks as drawn whole: chunk c is the C-ordered (w, n)
    draw of stream.substream(c), one sample per row."""
    return [stream.substream(c).generator().standard_normal(
                (min(montecarlo.TRIAL_CHUNK, samples - start), n))
            for c, start in enumerate(range(0, samples, montecarlo.TRIAL_CHUNK))]


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

    @pytest.mark.parametrize("n", [1, 3, 10, 50, 100, 2000, 4000, 10 ** 4])
    def test_edges_exact(self, n):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0

    def test_other_counts_inside_the_unit_interval(self):
        for n in (3, 10, 2000):
            for s in range(1, n):
                lo, hi = wilson_interval(s, n)
                assert 0.0 < lo < s / n < hi < 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestMedianEstimators:
    def test_half_normal_median(self):
        params = power_params(0.0, 2.0, 1)
        M = estimate_median_norm(params, 4000, RandomStream(71))
        target = 0.6744897501960817  # Phi^{-1}(3/4)
        assert M == pytest.approx(target, abs=0.05)

    def test_chi_100_median(self):
        # the sample median's sd is about 0.009 at 10^4 samples
        params = power_params(0.0, 2.0, 100)
        M = estimate_median_norm(params, 10 ** 4, RandomStream(72))
        assert M == pytest.approx(CHI100_MEDIAN, abs=0.03)

    def test_determinism(self):
        params = power_params(0.5, 1.5, 20)
        a = estimate_median_norm(params, 500, RandomStream(73))
        b = estimate_median_norm(params, 500, RandomStream(73))
        assert a == b

    def test_psi_is_norm_power(self):
        # odd sample count: both medians are the same single order statistic
        params = power_params(0.0, 2.0, 50)
        norm = estimate_median_norm(params, 1001, RandomStream(74))
        psi = estimate_median_psi(params, 1001, RandomStream(74))
        assert psi == pytest.approx(norm ** 2, rel=1e-12)

    @pytest.mark.parametrize("samples", [1001, 10 ** 4])
    def test_median_of_the_drawn_chunks(self, samples):
        params = power_params(0.3, 1.5, 40)
        M = estimate_median_norm(params, samples, RandomStream(75))
        values = np.concatenate([
            lorentz_norm(params, Z.T)
            for Z in drawn_chunks(params.n, samples, RandomStream(75))])
        assert M == float(np.median(values))

    def test_draws_only_the_sample_chunks(self, monkeypatch):
        built = []
        generator = RandomStream.generator

        def counted(self):
            built.append(self.path)
            return generator(self)

        monkeypatch.setattr(RandomStream, "generator", counted)
        estimate_median_norm(power_params(0.0, 2.0, 10), 10 ** 4, RandomStream(76))
        assert len(built) == math.ceil(10 ** 4 / montecarlo.TRIAL_CHUNK) == 50

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            estimate_median_norm(power_params(0.0, 2.0, 5), 50, RandomStream(0))


class TestSampledSums:
    # (n, samples), slabs of at most SLAB_ENTRIES entries: a short last
    # chunk; a last chunk of 1 sample; a chunk of two 100-row slabs and a
    # last chunk of one 50-row slab; chunks of 7 and 2 slabs of 25 to 29
    # rows; slabs of 2 rows, n just above half the bound; slabs of 2 and 3
    # rows, the least height, n above the bound
    @pytest.mark.parametrize("n, samples", [
        (7, 450), (40, 201), (600, 250), (2000, 250),
        (montecarlo.SLAB_ENTRIES // 2 + 1, 8), (montecarlo.SLAB_ENTRIES + 1, 5)],
        ids=["short-last-chunk", "one-sample-last-chunk", "two-slabs", "multi-row-slabs",
             "two-row-slabs", "two-and-three-row-slabs"])
    # flat; two sorted pairs, one truncated; case IVb's flat and sorted pair
    @pytest.mark.parametrize("kind", ["flat", "sorted", "IVb"])
    def test_rows_of_the_chunk_draws(self, kind, n, samples, monkeypatch):
        i = np.arange(1, n + 1.0)
        pairs = {"flat": [(np.full(n, 0.7), 1.5)],
                 "sorted": [(i ** -0.3, 1.5), (i[:max(1, n // 4)] ** -0.6, 2.0)],
                 "IVb": [(np.ones(n), 2.0), (i ** -0.9, 0.2)]}[kind]
        stream = RandomStream(77)
        chunks = drawn_chunks(n, samples, stream)
        kernel = [np.concatenate(sums) for sums in
                  zip(*(norms._power_sums(pairs, Z.T) for Z in chunks))]
        monkeypatch.setattr(norms, "_WORKERS", 1)
        serial = montecarlo._sample_power_sums(pairs, n, samples, stream)
        with concurrent.futures.ThreadPoolExecutor(3) as pool:
            monkeypatch.setattr(norms, "_pool", pool)
            monkeypatch.setattr(norms, "_WORKERS", 3)
            parallel = montecarlo._sample_power_sums(pairs, n, samples, stream)
        for (c, q), sums, again, columns in zip(pairs, serial, parallel, kernel):
            assert np.array_equal(sums, again)
            assert np.array_equal(sums, columns)
            for x, got in zip(np.concatenate(chunks), sums):
                assert got == pytest.approx(weighted_power_sum(c, x, q),
                                            rel=1e-12, abs=0.0)

    def test_sampling_threads_hold_slabs_not_blocks(self, monkeypatch):
        # case I at n = 10^4 draws its chunks in 6-row slabs: each thread that
        # runs a chunk holds 480 KB, not a 2 MB block (Tier-1 cannot read the
        # peak RSS, so this stands in for it)
        held = {}
        take = norms._WorkerBuffers.take

        def spy(self, size):
            block = take(self, size)
            held[threading.get_ident()] = self.block.size
            return block

        monkeypatch.setattr(norms._WorkerBuffers, "take", spy)
        monkeypatch.setattr(norms, "_buffers", norms._WorkerBuffers())
        verify_orderorder("I", 0.3, 2.0, 10 ** 4, 3.0, 400, DEFAULT_LEDGER,
                          RandomStream(1))
        assert held and max(held.values()) <= montecarlo.SLAB_ENTRIES

    def test_callers_beyond_cores_share_no_buffer(self):
        # four callers share the kernel's pool, switching threads often: a
        # slab drawn into a buffer that another task also holds would mix
        # their samples (n 2000: chunks of 7 slabs)
        i = np.arange(1, 2001.0)
        cases = [([(coeffs, 1.5)], RandomStream(seed))
                 for coeffs in (np.full(2000, 0.7), i ** -0.3) for seed in (1, 2)]
        expected = [montecarlo._sample_power_sums(pairs, 2000, 600, stream)[0]
                    for pairs, stream in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(
                    lambda c=c: [montecarlo._sample_power_sums(c[0], 2000, 600, c[1])[0]
                                 for _ in range(5)]) for c in cases]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(expected, results):
            assert all(np.array_equal(want, g) for g in got)


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
        # chunks that evaluates the two norm functions apart must agree
        r, p, n, t, trials = 0.3, 2.5, 60, 0.5, 450
        res = verify_orderorder("I", r, p, n, t, trials, DEFAULT_LEDGER,
                                RandomStream(95))
        spec = make_sharp_spec("I", r, p, n, t)
        S = spec.S
        R = spec.K * S ** (2.0 * (p - 1.0))
        holds = violations = 0
        for Z in drawn_chunks(n, trials, RandomStream(95)):
            within = sharp_norm(spec, Z.T) <= S
            holds += int(np.sum(within))
            violations += int(np.sum(within & (grad_functional(r, p, Z.T) > R)))
        assert 0 < holds < trials
        assert (res.prob_S_holds, res.implication_violations, res.S, res.R) == \
            (holds / trials, violations, S, R)

    @pytest.mark.parametrize("point", [("II", 0.3, 1.2, 1000, 3.0),
                                       ("III", 0.1, 1.2, 500, 2.0),
                                       ("IVa", 0.3, 1.4, 2000, 2.0),
                                       ("IVb", 0.45, 1.1, 100, 3.0),
                                       ("I", 0.3, 2.5, 60, 0.5)],
                             ids=lambda pt: pt[0])
    def test_one_sort_per_sample_in_every_case(self, point, monkeypatch):
        # the two sums share one sort of each sample and stay bitwise those
        # of the two norm functions called apart
        case, r, p, n, t = point
        trials = 450
        spec = make_sharp_spec(case, r, p, n, t)
        R = spec.K * spec.S ** (2.0 * (p - 1.0))
        holds = violations = 0
        for Z in drawn_chunks(n, trials, RandomStream(98)):
            within = sharp_norm(spec, Z.T) <= spec.S
            holds += int(np.sum(within))
            violations += int(np.sum(within & (grad_functional(r, p, Z.T) > R)))
        sorted_samples = []

        def counting(pairs, flat, A, outs, rows):
            if not all(flat):  # _row_sums sorts the rows of A once
                sorted_samples.append(A.shape[0])
            return row_sums(pairs, flat, A, outs, rows)

        row_sums = norms._row_sums
        monkeypatch.setattr(norms, "_row_sums", counting)
        res = verify_orderorder(case, r, p, n, t, trials, DEFAULT_LEDGER,
                                RandomStream(98))
        assert sum(sorted_samples) == trials
        assert (res.prob_S_holds, res.implication_violations) == \
            (holds / trials, violations)

    def test_no_sample_chunk_is_held(self):
        # numpy reports its buffers to tracemalloc; one (n, TRIAL_CHUNK)
        # chunk of samples alone would take 10^4 * 200 * 8 B = 16 MB
        tracemalloc.start()
        try:
            verify_orderorder("I", 0.3, 2.0, 10 ** 4, 3.0, 400, DEFAULT_LEDGER,
                              RandomStream(99))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    # (case, r, p, n, t) -> C_sharp -> (S, R, chain_K) as literals, so that a
    # change to any case's arithmetic shows up bit for bit
    PINNED = {
        ("I", 0.3, 2.0, 10 ** 4, 3.0): {
            1.0: (20.66645002743469, 427.10215673645524, 1.0),
            2.0: (41.33290005486938, 1708.408626945821, 1.0)},
        ("II", 0.3, 1.2, 1000, 3.0): {
            1.0: (30.774870327260725, 92.32461098178217, 23.444393045389795),
            2.0: (61.54974065452145, 121.82305454949159, 23.444393045389795)},
        ("III", 0.1, 1.2, 500, 2.0): {
            1.0: (159.0629140720133, 171.16925645108984, 22.53191946552767),
            2.0: (318.1258281440266, 225.8591879683273, 22.53191946552767)},
        ("IVa", 0.3, 1.4, 10 ** 4, 2.0): {
            1.0: (291.38568774968456, 484.02335588442975, 5.167633980939131),
            2.0: (1648.3263659880636, 1936.093423537719, 5.167633980939131)},
        ("IVb", 0.45, 1.1, 100, 3.0): {
            1.0: (13.0, 7.3492283277477215, 4.400003985849025),
            2.0: (23.0, 8.237560876633252, 4.400003985849025)},
    }

    @pytest.mark.parametrize("point", sorted(PINNED, key=str), ids=lambda pt: pt[0])
    @pytest.mark.parametrize("C_sharp", [1.0, 2.0])
    def test_pinned_constants(self, point, C_sharp):
        ledger = DEFAULT_LEDGER if C_sharp == 1.0 else ConstantLedger({"C_sharp": C_sharp})
        res = verify_orderorder(*point, 1, ledger, RandomStream(96))
        assert (res.S, res.R, res.chain_K) == self.PINNED[point][C_sharp]

    def test_determinism(self):
        args = ("III", 0.1, 1.2, 500, 2.0, 300, DEFAULT_LEDGER)
        a = verify_orderorder(*args, RandomStream(94))
        b = verify_orderorder(*args, RandomStream(94))
        assert a.to_dict() == b.to_dict()


class TestVerifyEmbedding:
    @pytest.mark.parametrize("M", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_M_before_any_draw(self, M, monkeypatch):
        def no_draws(self):
            raise AssertionError("sampled before M was rejected")

        monkeypatch.setattr(RandomStream, "generator", no_draws)
        with pytest.raises(ValueError, match=f"M must be positive and finite, got {M}"):
            verify_embedding(power_params(0.3, 1.5, 300), 4, 0.2, 3, 50,
                             RandomStream(1), M=M)

    def test_identity_isometry_always_succeeds(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "sample_gaussian_matrix", identity_injection)
        params = power_params(0.0, 2.0, 30)
        for eps in (0.01, 0.1, 0.5):
            res = verify_embedding(params, 5, eps, 10, 200, RandomStream(95), M=1.0)
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
        # 3500 directions: each trial's max runs over all of them
        params = power_params(0.3, 1.5, 40)
        k, trials, directions, M = 3, 10, 3500, 2.0
        stream = RandomStream(97)
        res = verify_embedding(params, k, 0.5, trials, directions, stream, M=M)
        dirs = make_directions(k, directions, "random_sphere", stream.substream(1))
        for trial, dev in enumerate(res.max_devs):
            G = sample_gaussian_matrix(params.n, k, stream.substream(2 + trial))
            norms = lorentz_norm(params, G @ dirs)
            assert dev == pytest.approx(np.max(np.abs(norms / M - 1.0)), rel=1e-12)

    def test_no_whole_image_is_held(self):
        # numpy reports its buffers to tracemalloc; the (directions, n)
        # image of one trial alone would take 2000 * 2000 * 8 B = 32 MB
        params = power_params(0.3, 1.5, 2000)
        tracemalloc.start()
        try:
            verify_embedding(params, 8, 0.2, 2, 2000, RandomStream(99), M=40.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_caller_grows_no_block_buffer(self, monkeypatch):
        # the float32 screen of 31 blocks and the float64 confirmation of the
        # candidate blocks both run in the pool's buffers; confirming one
        # block inline would grow a third 2 MB buffer on the calling thread
        monkeypatch.setattr(norms, "_WORKERS", max(2, norms._WORKERS))
        params = power_params(0.3, 1.5, 2000)

        def call():  # on a fresh thread, whose block buffer starts empty
            verify_embedding(params, 8, 0.2, 2, 4000, RandomStream(99), M=40.0)
            return norms._buffers.block.size

        with concurrent.futures.ThreadPoolExecutor(1) as caller:
            assert caller.submit(call).result(timeout=60) == 0

    def test_trials_take_the_float64_maximum(self):
        # the README verify point, 31 blocks of 129 directions per trial
        params = power_params(0.3, 1.5, 2000)
        stream, M = RandomStream(1), 40.0
        res = verify_embedding(params, 8, 0.2, 3, 4000, stream, M=M)
        dirs = make_directions(8, 4000, "random_sphere", stream.substream(1))
        for trial, dev in enumerate(res.max_devs):
            G = sample_gaussian_matrix(2000, 8, stream.substream(2 + trial))
            assert dev == measure_distortion(G, params, M, dirs).max_rel_dev

    @pytest.mark.parametrize("p", [1.5, 4.0])
    @pytest.mark.parametrize("weights", ["flat", "power", "file"])
    def test_k1_takes_the_two_unit_directions(self, weights, p, tmp_path, monkeypatch):
        # every direction drawn at k = 1 is +1 or -1: their two deviations
        # are all of them, and substream(1) is not drawn from
        if weights == "file":
            path = tmp_path / "weights.txt"
            path.write_text("\n".join(["1"] * 5 + ["0.5"] * 1990 + ["0"] * 5))
            params = LorentzParams(_load_weights_file({"weights_file": str(path)}), p)
        else:
            params = power_params(0.0 if weights == "flat" else 0.3, p, 2000)
        stream, M = RandomStream(3), 20.0
        drawn = []
        generator = RandomStream.generator

        def spy(self):
            drawn.append(self.path)
            return generator(self)

        monkeypatch.setattr(RandomStream, "generator", spy)
        res = verify_embedding(params, 1, 0.2, 3, 2000, stream, M=M)
        assert stream.substream(1).path not in drawn
        dirs = make_directions(1, 2000, "random_sphere", stream.substream(1))
        for trial, dev in enumerate(res.max_devs):
            G = sample_gaussian_matrix(2000, 1, stream.substream(2 + trial))
            assert dev == measure_distortion(G, params, M, dirs).max_rel_dev


class TestPasses:
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_counts_the_passing_trials_of_verify_embedding(self, k):
        # the same draws as verify_embedding, at eps on and beside each trial's
        # deviation, where the float32 enclosure cannot decide
        params, stream, M = power_params(0.3, 1.5, 300), RandomStream(5), 20.0
        devs = verify_embedding(params, k, 0.5, 6, 500, stream, M=M).max_devs
        for eps in sorted(devs) + [np.nextafter(devs[0], 0.0), 0.9 * min(devs)]:
            assert montecarlo._passes(params, k, eps, 6, 500, stream, M) == \
                sum(dev <= eps for dev in devs)


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

    def test_unhashable_bound_name_is_unknown(self):
        # a name read from a --config file may be any JSON value
        with pytest.raises(ValueError, match="unknown two-sided bound \\['x'\\]"):
            calibrate(["x"], [(1,)], RandomStream(1), RandomStream(2))

    def test_validation_seeds_give_different_grids(self):
        grid = [(0.3, 0.5, 200), (0.5, 1.0, 500)]
        a = calibrate("power_log_sum", grid, RandomStream(99), RandomStream(100))
        b = calibrate("power_log_sum", grid, RandomStream(99), RandomStream(101))
        assert a.details["validation_grid"] != b.details["validation_grid"]
        assert (a.fitted_constant, a.details["ratio_min"]) == \
            (b.fitted_constant, b.details["ratio_min"])
        for rec in (a, b):  # within 10 % of each fit point, n a whole number
            for fit, held in zip(grid, rec.details["validation_grid"]):
                assert isinstance(held[2], int) and held != list(fit)
                assert all(x / 1.1 <= y <= x * 1.1 for x, y in zip(fit, held))

    def test_held_out_violations_counted(self, monkeypatch):
        # the stub's ratio is 1 on the fit points and 2 anywhere else
        fit = {1.0, 2.0, 4.0}
        monkeypatch.setitem(montecarlo._RATIO_ORACLES, "stub", (("a",), lambda a, stream: (
            1.0 if a in fit else 2.0, 1.0)))
        rec = calibrate("stub", [(a,) for a in sorted(fit)], RandomStream(1),
                        RandomStream(2))
        assert rec.fitted_constant == 1.0
        assert rec.validation_violation_rate == 1.0

    def test_rejected_held_out_point_falls_back_to_its_fit_point(self):
        # T below 1 is outside power_integral's domain: a point at T = 1 moved
        # below it is validated at the fit point itself, and the fit still exits 0
        grids = [calibrate("power_integral", [(0.3, 1.0), (0.3, 10.0)], RandomStream(1),
                           RandomStream(seed)).details["validation_grid"]
                 for seed in range(2, 8)]
        assert [0.3, 1.0] in [grid[0] for grid in grids]
        assert all(grid[0] == [0.3, 1.0] or grid[0][1] >= 1.0 for grid in grids)

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


# (which k pass, k_cap) -> (the k the binary search probes, in order, and
# the k it stops at), as recorded when the search still returned that k
# itself; every pattern but "all" and "none" is non-monotone in k
PASSES = {
    "not-multiple-of-3": lambda k: k % 3 != 0,
    "odd-or-below-6": lambda k: k % 2 == 1 or k < 6,
    "scattered": lambda k: k in {1, 2, 4, 6, 7, 13, 19},
    "only-1": lambda k: k == 1,
    "all": lambda k: True,
    "none": lambda k: False,
}
SEARCHES = [
    ("not-multiple-of-3", 31, (1, 2, 4, 8, 16, 24, 20, 22, 23), 23),
    ("not-multiple-of-3", 20, (1, 2, 4, 8, 16, 18, 17), 17),
    ("odd-or-below-6", 20, (1, 2, 4, 8, 6, 5), 5),
    ("scattered", 31, (1, 2, 4, 8, 6, 7), 7),
    ("scattered", 7, (1, 2, 4, 6, 7), 7),
    ("only-1", 7, (1, 2), 1),
    ("all", 31, (1, 2, 4, 8, 16, 24, 28, 30, 31), 31),
    ("all", 0, (1,), 1),  # k = 1 is probed even under a cap of 0
    ("none", 7, (1,), 0),
    ("none", 0, (1,), 0),  # k = 1 fails under a cap of 0
]


class TestKSearch:
    @pytest.mark.parametrize("pattern, k_cap, probes, k_star", SEARCHES,
                             ids=[f"{p}-cap{c}" for p, c, _, _ in SEARCHES])
    def test_probes_and_k_star(self, pattern, k_cap, probes, k_star, monkeypatch):
        probed = []

        def stub(params, k, eps, trials, directions, stream, M):
            probed.append(k)
            return 10 if PASSES[pattern](k) else 5  # passing trials of 10

        monkeypatch.setattr(montecarlo, "_passes", stub)
        rates = montecarlo._largest_successful_k(None, 0.2, 10, 10, 0.9,
                                                 RandomStream(0), 1.0, k_cap)
        assert tuple(probed) == probes
        assert list(rates) == sorted(probes)
        assert montecarlo._k_star(rates, 0.9) == k_star


class TestScalingProbe:
    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid too small"):
            scaling_probe(0.0, 2.0, 100, [0.1, 0.2], 10, 100, RandomStream(0))

    def test_grid_out_of_band(self):
        with pytest.raises(ValueError, match="grid too small"):
            scaling_probe(0.0, 2.0, 100, [0.1, 0.2, 0.3, 0.45], 10, 100,
                          RandomStream(0))

    def test_repeated_eps_is_one_point(self):
        # a slope fitted over one eps value is a regression over one x
        with pytest.raises(ValueError, match="need >= 4 distinct eps points"):
            scaling_probe(0.0, 2.0, 50, [0.2, 0.2, 0.2, 0.2], 5, 100, RandomStream(3))
        with pytest.raises(ValueError, match="grid too small"):
            scaling_probe(0.0, 2.0, 50, [0.15, 0.2, 0.2, 0.3], 5, 100, RandomStream(3))

    def test_smoke_run(self):
        res = scaling_probe(0.0, 2.0, 50, [0.15, 0.2, 0.26, 0.34], 10, 300,
                            RandomStream(103))
        assert len(res.k_stars) == 4
        d = res.to_dict()
        assert set(d) >= {"eps_grid", "k_stars", "slope", "slope_ci_low",
                          "slope_ci_high", "inconclusive", "saturated"}
        # the exact result pins the bootstrap's draw order; k* = 0 is left out of the fit
        assert res.k_stars == (0, 2, 3, 6)
        assert res.slope == 2.0723230629303306
        assert (res.slope_ci_low, res.slope_ci_high) == (1.3054000007482458,
                                                         2.1289968067159237)
