import numpy as np
import pytest
from scipy import stats

from lorentz_embed import (RandomStream, embedding, estimate_median_norm,
                           lorentz_norm, lorentz_norm_images, measure_distortion,
                           norms, power_params, sample_gaussian_matrix)
from lorentz_embed.embedding import _max_deviation, _trial_passes
# alias: pytest would otherwise collect the library function as a test
from lorentz_embed import test_directions as make_directions
from oracle import identity_injection, sphere_deviation_l2, weighted_params


class TestRandomStream:
    def test_determinism(self):
        a = RandomStream(7).generator().standard_normal(5)
        b = RandomStream(7).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(7, (0,)).generator().standard_normal(5)
        b = RandomStream(7, (1,)).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_substream_determinism_and_nesting(self):
        s = RandomStream(7)
        a = s.substream(3).substream(1).generator().standard_normal(4)
        b = RandomStream(7).substream(3).substream(1).generator().standard_normal(4)
        assert np.array_equal(a, b)
        c = s.substream(3).substream(2).generator().standard_normal(4)
        assert not np.array_equal(a, c)

    def test_spawn_key_is_path(self):
        s = RandomStream(7, (2,)).substream(3).substream(1)
        assert s == RandomStream(7, (2, 3, 1))
        seq = np.random.SeedSequence(7, spawn_key=(2, 3, 1))
        assert np.array_equal(s.generator().standard_normal(4),
                              np.random.default_rng(seq).standard_normal(4))
        assert RandomStream(7) == RandomStream(7, (0,))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError, match="path"):
            RandomStream(1, (-2,))
        with pytest.raises(ValueError, match="path"):
            RandomStream(1, 3)
        with pytest.raises(ValueError):
            RandomStream(1).substream(-1)


class TestGaussianMatrix:
    def test_determinism(self):
        G1 = sample_gaussian_matrix(20, 5, RandomStream(11))
        G2 = sample_gaussian_matrix(20, 5, RandomStream(11))
        assert np.array_equal(G1, G2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian_matrix(5, 6, RandomStream(0))

    def test_entries_standard_normal_ks(self):
        G = sample_gaussian_matrix(200, 50, RandomStream(21))
        stat, pvalue = stats.kstest(G.ravel(), "norm")
        assert pvalue > 0.01

    def test_moments(self):
        G = sample_gaussian_matrix(200, 100, RandomStream(22))
        m = G.size
        assert abs(G.mean()) < 5.0 / np.sqrt(m)
        # var of the sample variance of N(0,1) is 2/m
        assert abs(G.var() - 1.0) < 5.0 * np.sqrt(2.0 / m)

    def test_rotational_invariance_ks(self):
        # |G e_1| and |G theta| for fixed random unit theta match in law
        k, trials = 5, 800
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(k)
        theta /= np.linalg.norm(theta)
        a = np.empty(trials)
        b = np.empty(trials)
        stream = RandomStream(23)
        for j in range(trials):
            G = sample_gaussian_matrix(30, k, stream.substream(j))
            a[j] = np.linalg.norm(G[:, 0])
            b[j] = np.linalg.norm(G @ theta)
        stat, pvalue = stats.ks_2samp(a, b)
        assert pvalue > 0.01


class TestDirections:
    def test_unit_norm(self):
        d = make_directions(6, 500, "random_sphere", RandomStream(41))
        assert np.allclose(np.linalg.norm(d, axis=0), 1.0, atol=1e-12)

    def test_grid2d(self):
        d = make_directions(2, 4, "grid2d")
        expected = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        assert np.allclose(d, expected, atol=1e-12)

    def test_grid2d_requires_k2(self):
        with pytest.raises(ValueError):
            make_directions(3, 4, "grid2d")

    def test_sphere_marginal(self):
        # for k = 3 the first coordinate of a uniform sphere point is
        # uniform on [-1, 1]
        d = make_directions(3, 20000, "random_sphere", RandomStream(42))
        stat, pvalue = stats.kstest(d[0], stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert pvalue > 0.01


class TestMeasureDistortion:
    def test_identity_isometry(self):
        n, k = 10, 4
        params = power_params(0.0, 2.0, n)
        G = identity_injection(n, k)
        dirs = make_directions(k, 100, "random_sphere", RandomStream(51))
        report = measure_distortion(G, params, 1.0, dirs)
        assert report.max_rel_dev == pytest.approx(0.0, abs=1e-12)

    def test_doubling_M_halves_ratios(self):
        n, k = 50, 3
        params = power_params(0.3, 1.5, n)
        G = sample_gaussian_matrix(n, k, RandomStream(52))
        dirs = make_directions(k, 200, "random_sphere", RandomStream(53))
        norms = lorentz_norm(params, G @ dirs)
        for M in (4.0, 8.0):
            devs = np.abs(norms / M - 1.0)
            report = measure_distortion(G, params, M, dirs)
            assert report.max_rel_dev == pytest.approx(np.max(devs), rel=1e-12)
            for level, q in report.quantiles.items():
                assert q == pytest.approx(np.quantile(devs, float(level)), rel=1e-12)

    def test_grid_vs_random_sphere_agree(self):
        n, k = 200, 2
        params = power_params(0.0, 1.0, n)
        M = estimate_median_norm(params, 10 ** 4, RandomStream(54))
        G = sample_gaussian_matrix(n, k, RandomStream(55))
        grid = measure_distortion(G, params, M, make_directions(2, 10 ** 4, "grid2d"))
        rand = measure_distortion(
            G, params, M,
            make_directions(2, 10 ** 4, "random_sphere", RandomStream(56)))
        assert rand.max_rel_dev == pytest.approx(grid.max_rel_dev, rel=0.1)

    def test_quantiles_below_max(self):
        n, k = 30, 3
        params = power_params(0.5, 2.0, n)
        G = sample_gaussian_matrix(n, k, RandomStream(57))
        dirs = make_directions(k, 500, "random_sphere", RandomStream(58))
        report = measure_distortion(G, params, 3.0, dirs)
        for q in report.quantiles.values():
            assert q <= report.max_rel_dev + 1e-15

    def test_rejects_nonpositive_M(self):
        G = identity_injection(5, 2)
        dirs = make_directions(2, 10, "grid2d")
        with pytest.raises(ValueError):
            measure_distortion(G, power_params(0.0, 2.0, 5), 0.0, dirs)


@pytest.mark.usefixtures("kernel_workers")
class TestMaxDeviation:
    """_max_deviation is bitwise measure_distortion(...).max_rel_dev, except
    at flat weights and p = 2, where it is the deviation over the sphere."""

    N = 300

    @pytest.fixture(autouse=True)
    def narrow_blocks(self, monkeypatch):
        # blocks at most 8 wide at n = 300: m = 1, 9, 20, 203 give 1, 2, 3
        # and 26 blocks, the last of widths 7 and 8
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 8 * self.N)

    @staticmethod
    def median_M(params, G, D):
        return float(np.median(lorentz_norm_images(params, G, D)))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 0.5])
    @pytest.mark.parametrize("weights", ["flat", "power", "file", "file_tiny"])
    def test_equals_the_float64_maximum(self, weights, p, tmp_path):
        params = weighted_params(weights, p, self.N, tmp_path)
        rng = np.random.default_rng(int(p * 10) + len(weights))
        for k in (1, 2, 3, 8, 80):
            G = rng.standard_normal((self.N, k))
            for m in (1, 9, 20, 203):
                D = make_directions(k, m, "random_sphere", RandomStream(m + k))
                M = self.median_M(params, G, D)
                want = (sphere_deviation_l2(G, M) if (weights, p) == ("flat", 2.0)
                        else measure_distortion(G, params, M, D).max_rel_dev)
                assert _max_deviation(G, params, M, D) == want, (k, m)

    @pytest.mark.parametrize("tie", ["mirror", 1e-9, 1e-7])
    @pytest.mark.parametrize("r, p", [(0.0, 1.5), (0.3, 1.5), (0.3, 2.0), (0.5, 1.0)])
    def test_near_ties_in_other_blocks(self, tie, r, p):
        # beside the largest deviation theta, block j of the 26 gets theta or
        # -theta, or theta turned by (j + 1) * tie rad. Turned by 1e-9, most
        # copies round to theta's float32 entries and tie with it; turned by
        # 1e-7, float32 orders them by its rounding alone, and only the
        # margin E keeps the block of the float64 maximum
        params = power_params(r, p, self.N)
        rng = np.random.default_rng(7)
        G = rng.standard_normal((self.N, 8))
        D = make_directions(8, 203, "random_sphere", RandomStream(8))
        M = self.median_M(params, G, D)
        devs = np.abs(lorentz_norm_images(params, G, D) / M - 1.0)
        theta = D[:, np.argmax(devs)].copy()
        for j, (lo, _) in enumerate(norms._block_bounds(self.N, 203)):
            if tie == "mirror":
                D[:, lo] = theta if j % 2 else -theta
            else:
                a = (j + 1) * tie
                D[:, lo] = theta
                D[:2, lo] = (np.cos(a) * theta[0] - np.sin(a) * theta[1],
                             np.sin(a) * theta[0] + np.cos(a) * theta[1])
        want = measure_distortion(G, params, M, D).max_rel_dev
        assert _max_deviation(G, params, M, D) == want

    def test_float32_overflow_takes_the_float64_pass(self):
        # images near 1e20 square past float32's range, not float64's
        params = power_params(0.3, 2.0, self.N)
        G = np.random.default_rng(3).standard_normal((self.N, 8)) * 1e20
        D = make_directions(8, 203, "random_sphere", RandomStream(9))
        M = self.median_M(params, G, D)
        want = measure_distortion(G, params, M, D).max_rel_dev
        assert _max_deviation(G, params, M, D) == want

    @pytest.mark.parametrize("M", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_M_not_positive_and_finite(self, M):
        params = power_params(0.3, 1.5, self.N)
        G = np.ones((self.N, 8))
        D = make_directions(8, 203, "random_sphere", RandomStream(8))
        for measure in (_max_deviation, measure_distortion):
            with pytest.raises(ValueError, match=f"M must be positive and finite, got {M}"):
                measure(G, params, M, D)

    def test_rejects_what_deviations_rejects(self):
        params = power_params(0.3, 1.5, self.N)
        G = np.ones((self.N, 2))
        D = make_directions(2, 203, "grid2d")
        with pytest.raises(ValueError, match="M must be positive"):
            _max_deviation(G, params, 0.0, D)
        with pytest.raises(ValueError, match="M must be positive"):  # screened
            _max_deviation(np.ones((self.N, 8)), params, 0.0,
                           make_directions(8, 203, "random_sphere", RandomStream(8)))
        with pytest.raises(ValueError, match="expected an \\(2, m\\) matrix"):
            _max_deviation(G, params, 1.0, D[:1])
        G[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            _max_deviation(G, params, 1.0, D)


@pytest.mark.usefixtures("kernel_workers")
class TestSphereDeviationL2:
    """At flat weights and p = 2, a trial's deviation and decision come from
    sigma_1 and sigma_k of G: no sampled direction deviates further."""

    N = 300

    @pytest.mark.parametrize("k", [1, 2, 8, 80])
    def test_bounds_every_sampled_deviation(self, k):
        params = power_params(0.0, 2.0, self.N)
        G = np.random.default_rng(k).standard_normal((self.N, k))
        D = make_directions(k, 2000, "random_sphere", RandomStream(k))
        N = lorentz_norm_images(params, G, D)
        for M in (np.min(N), np.median(N), np.max(N)):
            exact = sphere_deviation_l2(G, M)
            sampled = measure_distortion(G, params, M, D).max_rel_dev
            assert _max_deviation(G, params, M, D) == exact
            assert sampled <= exact + 1e-12 * np.max(N) / M
            for eps in (exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0),
                        0.999 * exact, 1.001 * exact, sampled):
                assert _trial_passes(G, params, M, D, eps) == (exact <= eps)


@pytest.mark.usefixtures("kernel_workers")
class TestTrialPasses:
    """_trial_passes is bitwise _max_deviation(...) <= eps, and forms float64
    blocks only where its float32 enclosure cannot decide."""

    N = 300

    @pytest.fixture(autouse=True)
    def narrow_blocks(self, monkeypatch):
        # m = 1, 9, 20, 203 give 1, 2, 3 and 26 blocks at n = 300
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 8 * self.N)

    @staticmethod
    def assert_decides(G, params, M, D):
        # eps at the deviation, at its two float neighbours and 0.1 % off it
        dev = _max_deviation(G, params, M, D)
        for eps in (dev, np.nextafter(dev, 0.0), np.nextafter(dev, 1.0),
                    0.999 * dev, 1.001 * dev):
            assert _trial_passes(G, params, M, D, eps) == (dev <= eps), eps

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize("weights", ["flat", "power", "file", "file_tiny"])
    def test_decides_as_the_float64_maximum(self, weights, p, tmp_path):
        params = weighted_params(weights, p, self.N, tmp_path)
        rng = np.random.default_rng(int(p * 10) + len(weights))
        for k in (1, 2, 3, 8, 80):
            G = rng.standard_normal((self.N, k))
            for m in (1, 9, 20, 203):
                D = make_directions(k, m, "random_sphere", RandomStream(m + k))
                M = float(np.median(lorentz_norm_images(params, G, D)))
                self.assert_decides(G, params, M, D)

    def test_float32_sums_lose_terms_beside_a_large_entry(self):
        # at (1, 1)/sqrt(2) the image is (0.71, 0.71, t, ..., t) with t below
        # half an ulp of 0.71, so a float32 sum that holds 0.71 drops every t
        # it meets: at n = 2000 that is far more than the rest of E allows.
        # The largest norm binds at M = 1.15, and only the float32-sum term
        # of E keeps it inside the enclosure
        n = 2000
        G = np.full((n, 2), 0.2 * 2.0 ** -24)
        G[:2] = np.eye(2)
        D = make_directions(2, 203, "random_sphere", RandomStream(2))
        D[:, 0] = np.sqrt(0.5)
        self.assert_decides(G, power_params(0.0, 1.0, n), 1.15, D)

    def test_decided_trials_form_no_float64_block(self, monkeypatch):
        formed = []
        power_sums = norms._power_sums

        def spy(pairs, X, D=None, groups=None):
            formed.append(X.dtype)
            return power_sums(pairs, X, D, groups)

        monkeypatch.setattr(norms, "_power_sums", spy)
        rng = np.random.default_rng(11)
        for r, p, k in [(0.0, 1.5, 2), (0.3, 1.0, 8), (0.3, 2.0, 80)]:
            params = power_params(r, p, self.N)
            G = rng.standard_normal((self.N, k))
            D = make_directions(k, 203, "random_sphere", RandomStream(k))
            M = float(np.median(lorentz_norm_images(params, G, D)))
            dev = _max_deviation(G, params, M, D)
            formed.clear()
            assert _trial_passes(G, params, M, D, 1.1 * dev)
            assert not _trial_passes(G, params, M, D, 0.9 * dev)
            assert formed == [np.float32, np.float32]
            formed.clear()  # at eps = dev the enclosure straddles eps
            assert _trial_passes(G, params, M, D, dev)
            assert np.dtype(np.float64) in formed

    @pytest.mark.parametrize("M", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_M_not_positive_and_finite(self, M):
        G = np.ones((self.N, 8))
        D = make_directions(8, 203, "random_sphere", RandomStream(8))
        with pytest.raises(ValueError, match=f"M must be positive and finite, got {M}"):
            _trial_passes(G, power_params(0.3, 1.5, self.N), M, D, 0.2)

    def test_rejects_what_max_deviation_rejects(self):
        params = power_params(0.3, 1.5, self.N)
        G = np.ones((self.N, 8))
        D = make_directions(8, 203, "random_sphere", RandomStream(8))
        with pytest.raises(ValueError, match="expected an \\(300, m\\) matrix"):
            _trial_passes(G[1:], params, 1.0, D, 0.2)
        with pytest.raises(ValueError, match="expected an \\(8, m\\) matrix"):
            _trial_passes(G, params, 1.0, D[1:], 0.2)
        G[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            _trial_passes(G, params, 1.0, D, 0.2)


@pytest.mark.usefixtures("kernel_workers")
class TestScreenGate:
    """Where norms._screen gives no bounds, _image_norm_range forms every
    block and _trial_passes takes _max_deviation."""

    N = 300

    @pytest.mark.parametrize("p, scale", [(4.0, 1.0), (0.5, 1.0), (2.0, 1e20)])
    def test_no_bounds_forms_every_block(self, p, scale, monkeypatch):
        # p outside {1, 3/2, 2}, or images near 1e20 whose float32 squares
        # overflow
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 8 * self.N)
        params = power_params(0.3, p, self.N)
        G = np.random.default_rng(3).standard_normal((self.N, 8)) * scale
        D = make_directions(8, 203, "random_sphere", RandomStream(9))
        assert norms._screen(params, G, D) is None

        formed, exact = [], []
        power_sums, max_deviation = norms._power_sums, embedding._max_deviation

        def spy_sums(pairs, X, D=None, groups=None):
            formed.append((X.dtype, groups))
            return power_sums(pairs, X, D, groups)

        def spy_deviation(*args):
            exact.append(max_deviation(*args))
            return exact[-1]

        monkeypatch.setattr(norms, "_power_sums", spy_sums)
        monkeypatch.setattr(embedding, "_max_deviation", spy_deviation)
        norms._image_norm_range(params, G, D)
        assert formed[-1] == (np.float64, norms._block_bounds(self.N, 203))
        M = float(np.median(lorentz_norm_images(params, G, D)))
        dev = max_deviation(G, params, M, D)
        assert _trial_passes(G, params, M, D, 1.1 * dev)  # bounds would decide it
        assert exact == [dev]
