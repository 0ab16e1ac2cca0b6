import concurrent.futures
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lorentz_embed import (LorentzParams, RandomStream, grad_functional,
                           lipschitz_constant, lipschitz_maximizer,
                           lorentz_norm, lorentz_norm_images, make_sharp_spec,
                           power_params, psi, psi_gradient_norm, sharp_norm)
from lorentz_embed import norms
# alias: pytest would otherwise collect the library function as a test
from lorentz_embed import test_directions as make_directions
from lorentz_embed.norms import _image_norm_range, _power_sums
from oracle import weighted_params, weighted_power_sum

finite_vectors = hnp.arrays(
    np.float64, st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


PARAMS_3 = power_params(0.3, 2.0, 3)
# each norm of a 3-vector, or of the columns of a (3, m) matrix
NORMS = {"lorentz_norm": lambda x: lorentz_norm(PARAMS_3, x),
         "psi": lambda x: psi(PARAMS_3, x),
         "sharp_norm": lambda x: sharp_norm(make_sharp_spec("I", 0.3, 2.0, 3), x),
         "grad_functional": lambda x: grad_functional(0.3, 2.0, x)}


def poisoned(shape, bad):
    """Ones of the given shape with bad as the last entry."""
    x = np.ones(shape)
    x.flat[-1] = bad
    return x


def random_params(rng):
    p = float(rng.uniform(1.0, 3.0))
    n = int(rng.integers(1, 20))
    r = float(rng.uniform(0.0, 2.0))
    return power_params(r, p, n)


class TestWeightSequence:
    def test_power_weights_materialize(self):
        w = power_params(1.0, 1.0, 3).weights
        assert np.allclose(w, [1.0, 0.5, 1.0 / 3.0])

    @pytest.mark.parametrize("r, n, message", [
        (-1.0, 5, "r must be a finite nonnegative real"),
        (math.nan, 5, "r must be a finite nonnegative real"),
        (math.inf, 5, "r must be a finite nonnegative real"),
        (0.5, 0, "n must be at least 1"),
    ])
    def test_power_params_validation(self, r, n, message):
        with pytest.raises(ValueError, match=message):
            power_params(r, 2.0, n)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            LorentzParams(np.array([1.0, 0.5, 0.6]), 2.0)

    def test_rejects_first_not_one(self):
        with pytest.raises(ValueError, match="first weight"):
            LorentzParams(np.array([0.9, 0.5]), 2.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            LorentzParams(np.array([1.0, -0.1]), 2.0)

    def test_weights_checked_before_p(self):
        with pytest.raises(ValueError, match="first weight"):
            LorentzParams(np.array([0.9, 0.5]), -1.0)
        with pytest.raises(ValueError, match="p must be"):
            LorentzParams(np.ones(2), -1.0)

    def test_weights_are_a_float_array(self):
        params = LorentzParams([1, 1, 0], 2.0)
        assert params.weights.dtype == float and params.n == 3

    def test_owns_a_read_only_copy_of_its_weights(self):
        w = np.array([1.0, 0.5])
        params = LorentzParams(w, 1.0)
        w[0] = 7.0
        assert lorentz_norm(params, [1.0, 0.0]) == 1.0
        with pytest.raises(ValueError, match="read-only"):
            power_params(0.3, 2.0, 5).weights[1] = 5.0

    def test_compares_by_identity(self):
        a, b = power_params(0.3, 2.0, 5), power_params(0.3, 2.0, 5)
        assert a == a and not a == b
        assert len({a, b}) == 2


class TestLorentzNorm:
    def test_euclidean_case(self):
        params = LorentzParams(np.ones(3), 2.0)
        assert lorentz_norm(params, [3, 4, 0]) == pytest.approx(5.0)

    def test_weighted_example(self):
        params = LorentzParams(np.array([1.0, 0.5]), 1.0)
        assert lorentz_norm(params, [-2, 1]) == pytest.approx(2.5)

    def test_basis_vector(self, rng):
        params = random_params(rng)
        e1 = np.zeros(params.n)
        e1[0] = 1.0
        assert lorentz_norm(params, e1) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lorentz_norm(power_params(0.0, 2.0, 3), [1.0, 2.0])

    @pytest.mark.parametrize("call, x, message", [
        pytest.param(NORMS[name], poisoned(shape, bad), message,
                     id=f"{name}-{len(shape)}d-{bad}")
        for name in NORMS for shape in [(3,), (3, 2)]
        for bad, message in [(math.nan, "NaN"), (math.inf, "non-finite"),
                             (-math.inf, "non-finite")]
    ] + [
        pytest.param(lambda G: lorentz_norm_images(PARAMS_3, G, np.ones((2, 4))),
                     poisoned((3, 2), math.nan), "NaN", id="images-G-nan"),
        pytest.param(lambda D: lorentz_norm_images(PARAMS_3, np.ones((3, 2)), D),
                     poisoned((2, 4), math.nan), "NaN", id="images-directions-nan"),
        pytest.param(NORMS["grad_functional"], np.ones((3, 2, 2)),
                     "nonempty vector or matrix", id="grad_functional-3d"),
    ])
    def test_rejects_nan(self, call, x, message):
        with pytest.raises(ValueError, match=message):
            call(x)

    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_vector_gives_its_column_as_a_float(self, name, rng):
        X = rng.standard_normal((3, 5))
        columns = NORMS[name](X)
        for j in range(5):
            value = NORMS[name](X[:, j])
            assert type(value) is float
            assert np.float64(value).tobytes() == columns[j].tobytes()

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            lorentz_norm(power_params(0.0, 2.0, 1), [])

    def test_columns_match_scalar(self, rng):
        params = power_params(0.7, 1.3, 15)
        w = params.weights
        X = rng.standard_normal((15, 9))
        cols = lorentz_norm(params, X)
        for j in range(9):
            expected = weighted_power_sum(w, X[:, j], params.p) ** (1.0 / params.p)
            assert cols[j] == pytest.approx(expected, rel=1e-12)
            assert lorentz_norm(params, X[:, j]) == pytest.approx(expected, rel=1e-12)

    def test_columns_constant_weight_fast_path(self, rng):
        # r = 0 skips the per-column sort; must agree with the sorted oracle
        params = power_params(0.0, 1.7, 25)
        w = params.weights
        X = rng.standard_normal((25, 7))
        cols = lorentz_norm(params, X)
        for j in range(7):
            expected = weighted_power_sum(w, X[:, j], params.p) ** (1.0 / params.p)
            assert cols[j] == pytest.approx(expected, rel=1e-12)

    @given(finite_vectors, st.floats(1.0, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, x, p):
        n = x.size
        params = power_params(1.0, p, n)
        y = np.roll(x, 1) * 0.5 - 1.0
        lhs = lorentz_norm(params, x + y)
        rhs = lorentz_norm(params, x) + lorentz_norm(params, y)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-9

    @given(finite_vectors, st.floats(0.3, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_quasi_triangle_inequality(self, x, p):
        n = x.size
        params = power_params(0.5, p, n)
        y = np.roll(x, 1) * 0.5 - 1.0
        lhs = lorentz_norm(params, x + y)
        rhs = 2.0 ** (1.0 / p) * (lorentz_norm(params, x) + lorentz_norm(params, y))
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-9

    @given(finite_vectors, st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, x, lam):
        params = power_params(0.5, 1.5, x.size)
        assert lorentz_norm(params, lam * x) == pytest.approx(
            abs(lam) * lorentz_norm(params, x), rel=1e-9, abs=1e-9)

    @given(finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_sign_and_permutation_invariance(self, x):
        params = power_params(0.3, 1.2, x.size)
        base = lorentz_norm(params, x)
        assert lorentz_norm(params, -x) == pytest.approx(base, rel=1e-12, abs=1e-12)
        assert lorentz_norm(params, x[::-1]) == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestPsi:
    def test_squared_euclidean(self):
        params = LorentzParams(np.ones(2), 2.0)
        assert psi(params, [3, 4]) == pytest.approx(25.0)

    def test_zero(self):
        assert psi(power_params(0.5, 1.5, 4), np.zeros(4)) == 0.0

    def test_matches_norm_power(self, rng):
        params = power_params(0.8, 1.4, 12)
        for _ in range(20):
            x = rng.standard_normal(12)
            assert psi(params, x) == pytest.approx(
                lorentz_norm(params, x) ** params.p, rel=1e-12)

    def test_columns_match_scalar(self, rng):
        params = power_params(0.4, 2.5, 10)
        w = params.weights
        X = rng.standard_normal((10, 5))
        cols = psi(params, X)
        for j in range(5):
            expected = weighted_power_sum(w, X[:, j], params.p)
            assert cols[j] == pytest.approx(expected, rel=1e-12)
            assert psi(params, X[:, j]) == pytest.approx(expected, rel=1e-12)


# entries with ties and zeros, kept off subnormal powers
kernel_entries = st.one_of(st.just(0.0), st.sampled_from([1.0, -1.0, 2.5]),
                           st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, m), elements=kernel_entries))
    # the kernel writes every block as C-ordered rows, whatever X's layout:
    # C, F or a strided slice
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        base = np.full((2 * n, 3 * m), 7.0)
        base[::2, ::3] = X
        X = base[::2, ::3]
    kind = draw(st.sampled_from(["constant", "power", "truncated"]))
    length = draw(st.integers(1, n)) if kind == "truncated" else n
    i = np.arange(1, length + 1, dtype=float)
    if kind == "constant":
        coeffs = np.full(n, draw(st.floats(0.1, 3.0)))
    else:
        coeffs = i ** (-draw(st.floats(0.01, 2.0)))
    q = draw(st.one_of(st.sampled_from([1.0, 1.5, 2.0]), st.floats(0.3, 4.0)))
    return coeffs, X, q


class TestPowerSumKernel:
    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_oracle(self, case):
        coeffs, X, q = case
        before = X.copy()
        got = _power_sums([(coeffs, q)], X)[0]
        assert np.array_equal(X, before)  # the kernel works on its own buffer
        for j in range(X.shape[1]):
            assert got[j] == pytest.approx(weighted_power_sum(coeffs, X[:, j], q),
                                           rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 201])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["flat", "sorted", "truncated"])
    def test_blocks_do_not_change_results(self, kind, order, m, rng, monkeypatch):
        n = 40
        X = np.asarray(rng.standard_normal((n, m)), order=order)
        coeffs = {"flat": np.full(n, 0.7),
                  "sorted": np.arange(1, n + 1.0) ** -0.3,
                  "truncated": np.arange(1, n // 4 + 1.0) ** -0.6}[kind]
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 1)  # blocks 2 or 3 wide
        blocked = _power_sums([(coeffs, 1.5)], X)[0]
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", n * m)  # one block
        assert np.array_equal(blocked, _power_sums([(coeffs, 1.5)], X)[0])

    def test_concurrent_callers_get_their_own_results(self, rng, monkeypatch):
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 2 * 50)
        coeffs = np.arange(1, 51.0) ** -0.5
        inputs = [rng.standard_normal((50, 301)) for _ in range(2)]
        expected = [_power_sums([(coeffs, 1.5)], X)[0] for X in inputs]
        start = threading.Barrier(2)

        def call(X):
            start.wait()
            return [_power_sums([(coeffs, 1.5)], X)[0] for _ in range(20)]

        with concurrent.futures.ThreadPoolExecutor(2) as callers:
            results = list(callers.map(call, inputs))
        for want, got in zip(expected, results):
            assert all(np.array_equal(want, g) for g in got)


def three_halves_reference(coeffs, X):
    """The kernel's arithmetic, unblocked, with |x|^(3/2) as |x| * sqrt(|x|)."""
    n, c = X.shape[0], coeffs.size
    A = np.abs(X.T, order="C")
    if c == n and np.all(coeffs == coeffs[0]):
        return coeffs[0] * np.sum(A * np.sqrt(A), axis=1)
    A.sort(axis=1)
    top = A[:, n - c:]
    return (top * np.sqrt(top)) @ coeffs[::-1]


class TestThreeHalvesPower:
    # (40, 201): many blocks; (3000, 201): blocks of several slices of
    # several rows; (40000, 3): rows longer than POWER_SLICE
    @pytest.mark.parametrize("n, m", [(40, 201), (3000, 201), (40000, 3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["flat", "sorted", "truncated"])
    def test_is_a_times_root_summed(self, kind, order, n, m, rng):
        X = np.asarray(rng.standard_normal((n, m)), order=order)
        coeffs = {"flat": np.full(n, 0.7),
                  "sorted": np.arange(1, n + 1.0) ** -0.3,
                  "truncated": np.arange(1, n // 4 + 1.0) ** -0.6}[kind]
        assert np.array_equal(_power_sums([(coeffs, 1.5)], X)[0],
                              three_halves_reference(coeffs, X))

    def test_within_rounding_of_np_power(self, rng):
        # both are within one rounding of the exact power, so apart by < 2 eps
        a = np.abs(rng.standard_normal(10 ** 5)) * np.exp(rng.uniform(-30, 30, 10 ** 5))
        power = np.power(a, 1.5)
        assert np.all(np.abs(a * np.sqrt(a) - power) <= 4e-16 * power)

    def test_callers_beyond_cores_share_no_buffer(self, rng, monkeypatch):
        # four callers share the kernel's pool, switching threads often: a
        # block buffer or scratch shared by two running tasks would mix
        # their columns
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 2 * 300)
        cases = [(coeffs, rng.standard_normal((300, 41)))
                 for coeffs in (np.full(300, 0.7), np.arange(1, 301.0) ** -0.3)
                 for _ in range(2)]
        expected = [three_halves_reference(coeffs, X) for coeffs, X in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(lambda c=c, X=X: [_power_sums([(c, 1.5)], X)[0]
                                                            for _ in range(30)])
                           for c, X in cases]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(expected, results):
            assert all(np.array_equal(want, g) for g in got)

    def test_buffers_hold_no_stale_data(self, rng, monkeypatch):
        # one thread takes every block into its one buffer, which grows, is
        # reused by a smaller call and then by a larger one again
        monkeypatch.setattr(norms, "_WORKERS", 1)
        calls = []
        for n in (3000, 40, 3000):
            X = rng.standard_normal((n, 150))
            for coeffs in (np.full(n, 0.7), np.arange(1, n + 1.0) ** -0.3,
                           np.arange(1, n // 4 + 1.0) ** -0.6):
                for q in (1.5, 2.3):
                    calls.append((coeffs, X, q))
        expected = []
        for coeffs, X, q in calls:
            monkeypatch.setattr(norms, "_buffers", norms._WorkerBuffers())
            expected.append(_power_sums([(coeffs, q)], X)[0])
        monkeypatch.setattr(norms, "_buffers", norms._WorkerBuffers())
        for (coeffs, X, q), want in zip(calls, expected):
            assert np.array_equal(_power_sums([(coeffs, q)], X)[0], want)


class TestImagesKernel:
    # the images are formed as the C-ordered product D.T @ G.T, block by
    # block, and its transpose is the matrix the unfused kernel gets: G @ D
    # may differ from it in the last bit (at odd m, or k = 80 here)
    # (n, k, m): m = 1; k = 1; m not a multiple of the block width (blocks
    # of 125 and 126 columns at n = 2000; 2 and 3 at n = 140000 >
    # BLOCK_ENTRIES / 2)
    @pytest.mark.parametrize("n, k, m", [(40, 3, 1), (300, 1, 7), (2000, 8, 2001),
                                         (140000, 2, 5), (300, 80, 1001)])
    @pytest.mark.parametrize("r", [0.0, 0.3])
    def test_bitwise_the_unfused_kernel(self, r, n, k, m, rng):
        params = power_params(r, 1.5, n)
        G = rng.standard_normal((n, k))
        D = rng.standard_normal((k, m))
        fused = lorentz_norm_images(params, G, D)
        assert np.array_equal(fused, lorentz_norm(params, (D.T @ G.T).T))
        assert np.allclose(fused, lorentz_norm(params, G @ D),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("r", [0.0, 0.3])
    def test_blocks_of_two_directions_in_one_thread(self, r, rng, monkeypatch):
        # BLOCK_ENTRIES = n asks for blocks 1 wide, and the kernel makes blocks
        # of 2 and 3 of the 41 directions: a block of one would form its
        # image as a GEMV, apart in the last bit from the GEMM's rows
        params = power_params(r, 1.5, 300)
        G = rng.standard_normal((300, 4))
        D = rng.standard_normal((4, 41))
        unfused = lorentz_norm(params, (D.T @ G.T).T)
        monkeypatch.setattr(norms, "_WORKERS", 1)
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 300)
        assert np.array_equal(lorentz_norm_images(params, G, D), unfused)

    def test_callers_beyond_cores_share_no_buffer(self, rng, monkeypatch):
        # four callers form images in the pool's block buffers at once
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 2 * 300)
        cases = [(power_params(r, 1.5, 300), rng.standard_normal((300, 4)),
                  rng.standard_normal((4, 41))) for r in (0.0, 0.3) for _ in range(2)]
        expected = [lorentz_norm(params, (D.T @ G.T).T)
                    for params, G, D in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(lambda c=c: [lorentz_norm_images(*c)
                                                       for _ in range(30)])
                           for c in cases]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(expected, results):
            assert all(np.array_equal(want, g) for g in got)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("r", [0.0, 0.3])
    def test_unformed_blocks_read_nan(self, r, workers, rng, monkeypatch):
        # of the 26 blocks of 7 or 8 directions, only the given ones are
        # formed, bitwise as in the full call; the other columns read NaN
        monkeypatch.setattr(norms, "_WORKERS", workers)
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 8 * 300)
        params = power_params(r, 1.5, 300)
        pairs = [(params.weights, params.p)]
        G = rng.standard_normal((300, 4))
        D = rng.standard_normal((4, 203))
        blocks = norms._block_bounds(300, 203)
        full = _power_sums(pairs, G, D)[0]
        for chosen in ([blocks[3]], [blocks[3], blocks[20]]):
            formed = np.zeros(203, dtype=bool)
            for lo, hi in chosen:
                formed[lo:hi] = True
            got = _power_sums(pairs, G, D, groups=chosen)[0]
            assert np.isnan(got[~formed]).all()
            assert np.array_equal(got[formed], full[formed])

    def test_rejects_mismatched_shapes(self, rng):
        params = power_params(0.3, 1.5, 10)
        with pytest.raises(ValueError, match="expected an \\(10, m\\) matrix"):
            lorentz_norm_images(params, rng.standard_normal((9, 2)),
                                rng.standard_normal((2, 4)))
        with pytest.raises(ValueError,
                           match="expected an \\(2, m\\) matrix, got shape \\(3, 4\\)"):
            lorentz_norm_images(params, rng.standard_normal((10, 2)),
                                rng.standard_normal((3, 4)))


class TestImageNormRange:
    """_image_norm_range is bitwise the min and max of lorentz_norm_images."""

    N = 300

    @pytest.fixture(autouse=True)
    def narrow_blocks(self, monkeypatch):
        # blocks at most 8 wide at n = 300: m = 1, 9, 20, 203 give 1, 2, 3
        # and 26 blocks, the last of widths 7 and 8
        monkeypatch.setattr(norms, "BLOCK_ENTRIES", 8 * self.N)

    @staticmethod
    def assert_range(params, G, D):
        images = lorentz_norm_images(params, G, D)
        low, high = _image_norm_range(params, G, D)
        assert (low, high) == (np.min(images), np.max(images))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 0.5])
    @pytest.mark.parametrize("weights", ["flat", "power", "file", "file_tiny"])
    def test_equals_the_float64_extremes(self, weights, p, workers, tmp_path,
                                         monkeypatch):
        monkeypatch.setattr(norms, "_WORKERS", workers)
        params = weighted_params(weights, p, self.N, tmp_path)
        rng = np.random.default_rng(int(p * 10) + len(weights))
        for k in (1, 2, 3, 8, 80):
            G = rng.standard_normal((self.N, k))
            for m in (1, 9, 20, 203):
                self.assert_range(params, G, make_directions(
                    k, m, "random_sphere", RandomStream(m + k)))

    @pytest.mark.usefixtures("kernel_workers")
    @pytest.mark.parametrize("tie", ["mirror", 1e-9, 1e-7])
    @pytest.mark.parametrize("r, p", [(0.0, 1.5), (0.3, 1.5), (0.3, 2.0), (0.5, 1.0)])
    def test_near_ties_at_both_extremes(self, tie, r, p):
        # the first two columns of block j of the 26 get the directions of
        # the smallest and the largest norm, or their negatives, or each
        # turned by (j + 1) * tie rad. Turned by 1e-9, most copies round to
        # the same float32 entries and tie; turned by 1e-7, float32 orders
        # them by its rounding alone, and only the margin E keeps the blocks
        # of the float64 extremes
        params = power_params(r, p, self.N)
        G = np.random.default_rng(7).standard_normal((self.N, 8))
        D = make_directions(8, 203, "random_sphere", RandomStream(8))
        images = lorentz_norm_images(params, G, D)
        extremes = D[:, [np.argmin(images), np.argmax(images)]].T.copy()
        for j, (lo, _) in enumerate(norms._block_bounds(self.N, 203)):
            for col, theta in zip((lo, lo + 1), extremes):
                if tie == "mirror":
                    D[:, col] = theta if j % 2 else -theta
                else:
                    a = (j + 1) * tie
                    D[:, col] = theta
                    D[:2, col] = (np.cos(a) * theta[0] - np.sin(a) * theta[1],
                                  np.sin(a) * theta[0] + np.cos(a) * theta[1])
        self.assert_range(params, G, D)

    @pytest.mark.usefixtures("kernel_workers")
    def test_float32_overflow_takes_the_float64_pass(self):
        # images near 1e20 square past float32's range, not float64's
        params = power_params(0.3, 2.0, self.N)
        G = np.random.default_rng(3).standard_normal((self.N, 8)) * 1e20
        self.assert_range(params, G, make_directions(8, 203, "random_sphere",
                                                     RandomStream(9)))

    @pytest.mark.usefixtures("kernel_workers")
    def test_float32_sums_lose_terms_beside_large_entries(self):
        # column 0 of G is 16 ones and then t, below half an ulp of 1 in
        # float32; a float32 GEMV that starts each partial sum with a one
        # drops every t, so at p = 1 the image of e_0 has the norm
        # 16 + 1984 t in float64 and 16 in float32. Column 1 shares the ones
        # and adds d, at 80 units of 2^-24 of 16: its float32 norm is above
        # e_0's by more than the rest of E spans (about 42 of those units),
        # its float64 norm below it (123 units). Only the float32-sum term of
        # E keeps block 0, which holds the largest norm
        n = 2000
        G = np.zeros((n, 4))
        G[:16, :2] = 1.0
        G[16:, 0] = 127 * 2.0 ** -31
        G[16, 1] = 5 * 2.0 ** -16
        # e_0 fills block 0 of the 5, e_1 block 1, and e_2, whose image is 0,
        # the rest
        D = np.zeros((4, 10))
        D[0, :2] = D[1, 2:4] = D[2, 4:] = 1.0
        self.assert_range(power_params(0.0, 1.0, n), G, D)


class TestPowerSumPairs:
    @pytest.mark.parametrize("pairs", [
        # sorted pairs, the first one at q = 1 summed before the power
        [("truncated", 1.0), ("sorted", 0.4)],
        # a powered pair before another: it is powered on a copy
        [("sorted", 1.5), ("truncated", 2.0), ("sorted", 1.0)],
        # constant coefficients beside sorted ones: no sort for them
        [("flat", 2.0), ("sorted", 0.2), ("flat", 1.5)],
        [("flat", 1.5), ("flat", 3.0)],
    ])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equal_separate_calls(self, pairs, order, rng):
        n, m = 300, 1001
        X = np.asarray(rng.standard_normal((n, m)), order=order)
        coeffs = {"flat": np.full(n, 0.7),
                  "sorted": np.arange(1, n + 1.0) ** -0.3,
                  "truncated": np.arange(1, n // 4 + 1.0) ** -0.6}
        pairs = [(coeffs[kind], q) for kind, q in pairs]
        got = _power_sums(pairs, X)
        for (c, q), sums in zip(pairs, got):
            assert np.array_equal(sums, _power_sums([(c, q)], X)[0])


class TestPsiGradient:
    def test_euclidean_gradient(self):
        params = LorentzParams(np.ones(3), 2.0)
        res = psi_gradient_norm(params, [3, 4, 12])
        assert res.value == pytest.approx(26.0)
        assert res.smooth_point

    def test_p_one_gradient(self):
        params = LorentzParams(np.ones(2), 1.0)
        res = psi_gradient_norm(params, [3, -4])
        assert res.value == pytest.approx(math.sqrt(2.0))

    def test_non_smooth_flag(self):
        params = power_params(0.0, 2.0, 3)
        assert not psi_gradient_norm(params, [1.0, 1.0, 2.0]).smooth_point
        assert not psi_gradient_norm(params, [0.0, 1.0, 2.0]).smooth_point
        assert psi_gradient_norm(params, [0.5, 1.0, 2.0]).smooth_point

    @pytest.mark.parametrize("r, p", [(0.0, 2.0), (0.3, 1.5), (0.5, 1.0), (1.2, 3.7)])
    def test_is_p_times_root_of_grad_functional(self, r, p, rng):
        # at the power weights w_i^2 = i^(-2r), the coefficients of grad_functional
        params = power_params(r, p, 40)
        for _ in range(20):
            x = rng.standard_normal(40)
            want = p * math.sqrt(grad_functional(r, p, x))
            assert psi_gradient_norm(params, x).value == pytest.approx(want, rel=1e-12)

    def test_matches_finite_differences(self, rng):
        params = power_params(0.5, 1.5, 10)
        h = 1e-6
        for _ in range(25):
            x = rng.uniform(0.5, 3.0, 10) * rng.choice([-1.0, 1.0], 10)
            grad = np.empty(10)
            for i in range(10):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                grad[i] = (psi(params, xp) - psi(params, xm)) / (2.0 * h)
            res = psi_gradient_norm(params, x)
            assert res.smooth_point
            assert res.value == pytest.approx(np.linalg.norm(grad), abs=1e-5)


class TestLipschitz:
    def test_flat_weights_p1(self):
        params = power_params(0.0, 1.0, 4)
        assert lipschitz_constant(params) == pytest.approx(2.0)
        assert np.allclose(lipschitz_maximizer(params), 0.5 * np.ones(4))

    def test_p_two_and_above(self, rng):
        params = random_params(rng)
        params = LorentzParams(params.weights, 2.0)
        assert lipschitz_constant(params) == 1.0
        theta = lipschitz_maximizer(params)
        assert theta[0] == 1.0 and np.all(theta[1:] == 0.0)

    def test_r1_p1_n2(self):
        params = power_params(1.0, 1.0, 2)
        assert lipschitz_constant(params) == pytest.approx(math.sqrt(5.0) / 2.0)
        assert np.allclose(lipschitz_maximizer(params),
                           [2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)])

    def test_equality_at_maximizer(self, rng):
        for _ in range(20):
            p = float(rng.uniform(1.0, 1.99))
            n = int(rng.integers(2, 30))
            r = float(rng.uniform(0.0, 1.5))
            params = power_params(r, p, n)
            theta = lipschitz_maximizer(params)
            assert np.linalg.norm(theta) == pytest.approx(1.0, rel=1e-12)
            assert lorentz_norm(params, theta) == pytest.approx(
                lipschitz_constant(params), rel=1e-12)

    def test_random_sphere_never_exceeds(self, rng):
        params = power_params(0.6, 1.3, 16)
        b = lipschitz_constant(params)
        thetas = rng.standard_normal((16, 2000))
        thetas /= np.linalg.norm(thetas, axis=0)
        norms = lorentz_norm(params, thetas)
        assert np.all(norms <= b * (1.0 + 1e-12))

    def test_rejects_quasi_norm(self):
        with pytest.raises(ValueError):
            lipschitz_constant(power_params(0.0, 0.5, 3))


class TestTailComparisonFact:
    def test_head_sum_dominates(self, rng):
        # sum_i i^(-r) x_[i]^p <= (2n/b) sum_{i <= floor(b)} i^(-r) x_[i]^p
        n, r, p = 50, 0.7, 1.4
        i = np.arange(1, n + 1, dtype=float)
        w = i ** (-r)
        for _ in range(200):
            x = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            terms = w * x ** p
            total = float(np.sum(terms))
            for b in (1.0, 2.5, 7.0, 20.0, float(n)):
                head = float(np.sum(terms[: int(b)]))
                assert total <= (2.0 * n / b) * head * (1.0 + 1e-12)
