import math
import re

import numpy as np
import pytest

from lorentz_embed import (RandomStream, beta_weights, classify_case,
                           grad_functional, make_sharp_spec, sharp_norm,
                           verify_orderorder)
from lorentz_embed.constants import DEFAULT_LEDGER
from lorentz_embed.regimes import RegimeCase
from lorentz_embed.sharp import SharpNormSpec
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

    @pytest.mark.parametrize("r, p", [(math.nan, 2.0), (-1.0, 2.0), (math.inf, 2.0),
                                      (0.3, 0.5), (0.3, math.inf), (0.3, math.nan)])
    def test_rejects_r_or_p_outside_its_domain(self, r, p):
        with pytest.raises(ValueError, match=re.escape(f"got r={r}, p={p}")):
            grad_functional(r, p, [3.0, -1.0, 2.0])

    def test_domain_ends_are_in_range(self):
        # r = 0 and p = 1: every term is 1 (0^0 = 1 as well)
        assert grad_functional(0.0, 1.0, [3.0, -1.0, 0.0]) == 3.0
        assert grad_functional(0.0, 2.0, [3.0, -1.0, 2.0]) == 14.0


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

    def test_coefficients_are_a_read_only_copy(self):
        spec = make_sharp_spec("I", 0.3, 2.0, 5)
        x = [1.0, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            spec.coefficients[0] = -4.0
        assert sharp_norm(spec, x) == 1.0
        given = np.ones(3)
        spec = SharpNormSpec("IVb", 3, given, 2.0, 1.0, 1.0)
        given[0] = 7.0
        assert sharp_norm(spec, [1.0, 0.0, 0.0]) == 1.0

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


# r on every case boundary (1/4: the IV family's end and III's; 1/2 and 1:
# the bands; 2: the map's end), within 1e-12 of them, and above r = 2
GATE_R = [0.0, 0.1, 0.25 - 1e-13, 0.25, 0.25 + 1e-13, 0.3, 0.45, 0.5,
          0.5 + 4e-13, 0.7, 1.0, 2.0, 2.0 + 1e-9, 2.5, 10.0]
# n on the IVa/IVb boundary at r = 0.3, where (1-2r) ln n = e near n = 889.8
GATE_N = [2, 3, 100, 889, 890]


def gate_points():
    for r in GATE_R:
        ps = [0.9, 1.0, 1.2, 1.5 - 1e-13, 1.5, 2.0, 3.0, math.inf,
              2.0 - 2.0 * r, 2.0 - 2.0 * r - 5e-13, 1.5 - 2.0 * r,
              1.5 - 2.0 * r + 1e-13]
        for p in ps:
            for n in GATE_N:
                yield r, p, n


class TestCaseGate:
    def test_accepts_exactly_the_classified_case(self):
        for r, p, n in gate_points():
            try:
                expected = {classify_case(min(r, 2.0), p, n).orderorder}
            except ValueError:
                expected = set()
            accepted = set()
            for case in CASE_PARAMS:
                try:
                    make_sharp_spec(case, r, p, n)
                    accepted.add(case)
                except ValueError:
                    pass
            assert accepted == expected, (r, p, n)

    @pytest.mark.parametrize("case", sorted(CASE_PARAMS))
    def test_rejects_nan_r(self, case):
        with pytest.raises(ValueError, match="r must lie in"):
            make_sharp_spec(case, math.nan, 2.0, 100)


class TestQuarterEdge:
    """Within 1e-12 below p = 3/2 at r = 1/4 the point is on p = 2(1-r), but
    Case IV needs r > 1/4: classify_case gives II, whose check holds, and
    beta_weights, checked by the same map, names II."""

    r, p, n = 0.25, 1.5 - 1e-13, 889

    def test_classified_as_case_II(self):
        assert classify_case(self.r, self.p, self.n) == RegimeCase("iia", "II")

    def test_case_II_check_holds(self):
        res = verify_orderorder("II", self.r, self.p, self.n, 3.0, 200,
                                DEFAULT_LEDGER, RandomStream(22))
        assert res.implication_violations == 0

    def test_beta_weights_names_case_II(self):
        with pytest.raises(ValueError, match="expected 'II'"):
            beta_weights(self.r, self.p, self.n)


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
