import math

import numpy as np
import pytest
from scipy import integrate

from lorentz_embed import (incomplete_gamma_shape, median_norm_shape,
                           median_psi_shape, power_integral_shape,
                           power_log_sum_shape, uniform_orderstat_upper_all,
                           xi1, xi1_inv_upper)
from lorentz_embed.analytic import power_integral_exact, power_log_sum_exact


class TestIncompleteGamma:
    def test_empty_integral(self):
        assert incomplete_gamma_shape(0.0, 1.0, "decay") == 0.0

    def test_decay_ratio(self):
        true = 1.0 - math.exp(-1.0)
        shape = incomplete_gamma_shape(1.0, 0.0, "decay")
        assert shape == pytest.approx(1.0)
        assert 0.5 <= true / shape <= 1.0

    def test_growth_example(self):
        # int_0^2 e^w w dw = e^2 + 1, shape = e^2
        assert incomplete_gamma_shape(2.0, 1.0, "growth") == pytest.approx(math.exp(2.0))
        true = math.exp(2.0) + 1.0
        quad, _ = integrate.quad(lambda w: math.exp(w) * w, 0.0, 2.0)
        assert quad == pytest.approx(true, rel=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            incomplete_gamma_shape(-1.0, 0.0, "decay")
        with pytest.raises(ValueError):
            incomplete_gamma_shape(1.0, 0.0, "sideways")


class TestPowerLogSum:
    def test_flat_sum_is_n(self):
        for n in (100, 1000):
            assert power_log_sum_exact(0.0, 0.0, n) == pytest.approx(float(n))
            shape = power_log_sum_shape(0.0, 0.0, n)
            assert 0.5 < n / shape < 1.5

    def test_zero_power_convention(self):
        # the i = n term contributes 0^0 = 1 for q = 0
        assert power_log_sum_exact(0.0, 0.0, 2) == pytest.approx(2.0)

    def test_a2_q1_stability(self):
        fitted = [power_log_sum_exact(2.0, 1.0, n)
                  / power_log_sum_shape(2.0, 1.0, n)
                  for n in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert all(0.1 < f < 10.0 for f in fitted)
        assert max(fitted) / min(fitted) < 2.0

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            power_log_sum_shape(0.0, 0.0, 1)


class TestPowerIntegral:
    def test_empty_integral(self):
        assert power_integral_shape(2.0, 1.0) == 0.0
        assert power_integral_exact(2.0, 1.0) == 0.0

    def test_log_case(self):
        # a = 1, T = e: integral 1, shape 2, ratio exactly 1/2
        assert power_integral_exact(1.0, math.e) == pytest.approx(1.0)
        assert power_integral_shape(1.0, math.e) == pytest.approx(2.0)

    def test_decaying_case(self):
        T = 10 ** 3
        true = power_integral_exact(3.0, T)
        assert true == pytest.approx((1.0 - T ** (-2.0)) / 2.0, rel=1e-12)
        shape = power_integral_shape(3.0, T)
        assert shape == pytest.approx(
            (1.0 + T ** (-2.0)) * math.log(T) / (1.0 + 2.0 * math.log(T)), rel=1e-12)


class TestXi1:
    def test_endpoints(self):
        assert xi1(0.0) == 1.0
        assert xi1(1.0) == 0.0
        assert xi1_inv_upper(1.0) == 0.0

    def test_inverse_bound_over_inverts(self):
        # xi1 decreasing, so xi1(upper bound of inverse) <= s
        for s in np.linspace(0.0, 1.0, 100):
            t = xi1_inv_upper(float(s))
            t = min(t, 1.0)
            assert xi1(t) <= s + 1e-12

    def test_inverse_bound_vs_bisection_oracle(self):
        for s in np.linspace(0.01, 0.99, 50):
            lo, hi = 0.0, 1.0
            for _ in range(60):  # solve xi1(t) = s
                mid = 0.5 * (lo + hi)
                if xi1(mid) > s:
                    lo = mid
                else:
                    hi = mid
            assert xi1_inv_upper(float(s)) >= lo - 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            xi1(1.5)
        with pytest.raises(ValueError):
            xi1_inv_upper(-0.1)
        with pytest.raises(ValueError):
            xi1_inv_upper(np.array([0.5, 1.0 + 1e-12]))

    def test_elementwise_is_the_scalar_formula(self):
        # the envelope of uniform_orderstat_upper_all evaluates it on arrays
        s = np.random.default_rng(3).uniform(size=1000)
        expected = [min(math.sqrt(2.0 * (1.0 - v)), 1.0 - v / math.e) for v in s]
        assert np.array_equal(xi1_inv_upper(s), expected)
        assert [xi1_inv_upper(float(v)) for v in s] == expected


class TestUniformOrderstat:
    def test_bottom_envelope_monotone(self):
        env = uniform_orderstat_upper_all(512, 2.0)
        assert np.all(np.diff(env) >= -1e-12)


class TestMedianShapes:
    def test_median_psi_domain(self):
        with pytest.raises(ValueError):
            median_psi_shape(0.5, 0.5, 100)
        with pytest.raises(ValueError):
            median_psi_shape(0.5, 2.0, 1)

    def test_median_norm_shape_flat_p2(self):
        # (sum ln(n/i))^(1/2) ~ sqrt(n) by Stirling
        for n in (100, 1000, 10000):
            w = np.ones(n)
            ratio = median_norm_shape(w, 2.0) / math.sqrt(n)
            assert 0.9 < ratio < 1.1

    def test_median_psi_large_r_branch(self):
        ln = math.log(1000)
        expected = ln ** 2.0 / (1.0 + 0.5 * ln) + ln
        assert median_psi_shape(1.5, 2.0, 1000) == pytest.approx(expected, rel=1e-12)

