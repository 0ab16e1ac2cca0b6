import math

import numpy as np
import pytest

from lorentz_embed import (beta_weights, grad_functional, make_sharp_spec,
                           sharp_norm)
from oracle import weighted_power_sum

# one representative (r, p) per case, all valid at n = 10^4
CASE_PARAMS = {
    "I": (0.3, 2.0),
    "II": (0.3, 1.2),
    "III": (0.1, 1.2),
    "IVa": (0.3, 1.4),
    "IVb": (0.45, 1.1),
}


class TestGradFunctional:
    def test_euclidean_collapse(self, rng):
        x = rng.standard_normal(10)
        assert grad_functional(0.0, 2.0, x) == pytest.approx(
            float(np.sum(x ** 2)), rel=1e-12)

    def test_p_one_constant(self, rng):
        # at p = 1 every term is i^(-2r) (0^0 = 1), independent of x
        x = rng.standard_normal(10) * np.append(np.ones(9), 0.0)
        expected = float(np.sum(np.arange(1, 11, dtype=float) ** (-0.6)))
        assert grad_functional(0.3, 1.0, x) == pytest.approx(expected, rel=1e-12)

    def test_columns_match_scalar(self, rng):
        X = rng.standard_normal((20, 6))
        coeffs = np.arange(1, 21, dtype=float) ** (-0.8)
        cols = grad_functional(0.4, 1.3, X)
        for j in range(6):
            expected = weighted_power_sum(coeffs, X[:, j], 0.6)
            assert cols[j] == pytest.approx(expected, rel=1e-12)
            assert grad_functional(0.4, 1.3, X[:, j]) == pytest.approx(expected,
                                                                       rel=1e-12)


class TestSharpNorm:
    def test_spec_compares_by_identity(self):
        a, b = make_sharp_spec("I", 0.3, 2.0, 5), make_sharp_spec("I", 0.3, 2.0, 5)
        assert a == a and not a == b
        assert len({a, b}) == 2

    def test_case_I_euclidean(self, rng):
        spec = make_sharp_spec("I", 0.0, 2.0, 12)
        x = rng.standard_normal(12)
        assert sharp_norm(spec, x) == pytest.approx(float(np.linalg.norm(x)),
                                                    rel=1e-12)

    def test_case_III_plain_sum(self):
        spec = make_sharp_spec("III", 0.0, 1.2, 3)
        assert sharp_norm(spec, [1.0, 1.0, 1.0]) == pytest.approx(3.0)

    def test_case_IVb_euclidean(self, rng):
        spec = make_sharp_spec("IVb", 0.45, 1.1, 100)
        x = rng.standard_normal(100)
        assert sharp_norm(spec, x) == pytest.approx(float(np.linalg.norm(x)))

    def test_homogeneity(self, rng):
        n = 10 ** 3
        for case, (r, p) in CASE_PARAMS.items():
            if case == "IVa":
                continue  # gate needs larger n; covered below at n = 10^4
            spec = make_sharp_spec(case, r, p, n, t=2.0)
            x = rng.standard_normal(n)
            for lam in (-3.0, 0.5, 7.0):
                assert sharp_norm(spec, lam * x) == pytest.approx(
                    abs(lam) * sharp_norm(spec, x), rel=1e-10)

    def test_case_IVa_triangle_inequality(self, rng):
        spec = make_sharp_spec("IVa", 0.3, 1.4, 10 ** 4, t=2.0)
        X = rng.standard_normal((10 ** 4, 40))
        Y = rng.standard_normal((10 ** 4, 40))
        lhs = sharp_norm(spec, X + Y)
        rhs = sharp_norm(spec, X) + sharp_norm(spec, Y)
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    def test_case_II_triangle_inequality_when_norm(self, rng):
        spec = make_sharp_spec("II", 0.3, 1.2, 500, t=2.0)
        X = rng.standard_normal((500, 50))
        Y = rng.standard_normal((500, 50))
        lhs = sharp_norm(spec, X + Y)
        rhs = sharp_norm(spec, X) + sharp_norm(spec, Y)
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    def test_case_parameter_mismatch(self):
        with pytest.raises(ValueError):
            make_sharp_spec("I", 0.0, 1.2, 100)  # Case I needs p >= 3/2
        with pytest.raises(ValueError):
            make_sharp_spec("III", 0.3, 1.4, 100)  # needs p < 3/2 - 2r
        with pytest.raises(ValueError):
            make_sharp_spec("IVa", 0.3, 1.3, 100)  # p != 2(1-r)

    def test_columns_match_scalar(self, rng):
        for case, (r, p) in CASE_PARAMS.items():
            n = 10 ** 4 if case == "IVa" else 200
            spec = make_sharp_spec(case, r, p, n, t=2.0)
            X = rng.standard_normal((n, 3))
            cols = sharp_norm(spec, X)
            for j in range(3):
                x = X[:, j]
                if case == "IVb":
                    expected = math.sqrt(weighted_power_sum(np.ones(n), x, 2.0))
                elif case == "I":
                    q = 2.0 * (p - 1.0)
                    expected = weighted_power_sum(spec.coefficients, x, q) ** (1.0 / q)
                else:
                    expected = weighted_power_sum(spec.coefficients, x, 1.0)
                assert cols[j] == pytest.approx(expected, rel=1e-10)
                assert sharp_norm(spec, x) == pytest.approx(expected, rel=1e-10)


class TestBetaWeights:
    def test_first_term(self):
        r, p, n = 0.3, 1.4, 10 ** 4
        beta = beta_weights(r, p, n)
        expected = (1.0 - 2.0 * r) ** p * math.log(n) ** p / n ** (1.0 - 2.0 * r) + 1.0
        assert beta[0] == pytest.approx(expected, rel=1e-12)

    def test_coefficient_monotone(self):
        r, p, n = 0.3, 1.4, 10 ** 5
        beta = beta_weights(r, p, n)
        i = np.arange(1, beta.size + 1, dtype=float)
        coeff = beta ** (-(3.0 - 2.0 * p) / (2.0 * (p - 1.0))) * i ** (-r / (p - 1.0))
        assert np.all(np.diff(coeff) <= 1e-12)

    def test_sum_bound_stable_in_n(self):
        # sum beta_i <= C * A * (1-2r)^(-p) * n^(1-2r) with C stable across n
        r, p = 0.3, 1.4
        fitted = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            beta = beta_weights(r, p, n)
            A = (1.0 - 2.0 * r) ** p * math.log(n) / n ** (1.0 - 2.0 * r)
            shape = A * (1.0 - 2.0 * r) ** (-p) * n ** (1.0 - 2.0 * r) + math.log(n)
            fitted.append(float(np.sum(beta)) / shape)
        assert max(fitted) / min(fitted) < 2.0

    def test_gate_rejected(self):
        with pytest.raises(ValueError, match="IVb"):
            beta_weights(0.45, 1.1, 10 ** 4)  # (1-2r) ln n < e


class TestChainFactor:
    def test_case_I_identity(self):
        spec = make_sharp_spec("I", 0.3, 2.0, 100)
        assert spec.K == 1.0

    @pytest.mark.parametrize("case", sorted(CASE_PARAMS))
    def test_deterministic_chain(self, case, rng):
        # grad sum <= K * sharp^(2(p-1)) for every sample, exactly
        r, p = CASE_PARAMS[case]
        n = 10 ** 4
        spec = make_sharp_spec(case, r, p, n, t=3.0)
        K = spec.K
        q = 2.0 * (p - 1.0)
        X = rng.standard_normal((n, 200))
        grad = grad_functional(r, p, X)
        sharp = sharp_norm(spec, X)
        assert np.all(grad <= K * sharp ** q * (1.0 + 1e-12))

    def test_case_III_pure_hoelder(self, rng):
        # constant-free form: grad <= (sum i^(-2r) x_[i])^(2(p-1)) (sum i^(-2r))^(3-2p)
        r, p, n = 0.1, 1.2, 300
        i = np.arange(1, n + 1, dtype=float)
        H = float(np.sum(i ** (-2.0 * r)))
        for _ in range(100):
            x = rng.standard_normal(n)
            lhs = grad_functional(r, p, x)
            spec = make_sharp_spec("III", r, p, n)
            rhs = sharp_norm(spec, x) ** (2.0 * (p - 1.0)) * H ** (3.0 - 2.0 * p)
            assert lhs <= rhs * (1.0 + 1e-12)
