import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorentz_embed
from lorentz_embed import (KNOWN_CONSTANTS, ConstantLedger, LorentzParams,
                           classify_case, compute_bound_report,
                           corollary_dimension_rp, ellinfty_regime,
                           general_dimension, lomain_EF, lomain_EF_simplified,
                           make_sharp_spec, milman_dimension, power_params)
from lorentz_embed.analytic import median_norm_shape
from lorentz_embed.norms import lipschitz_constant


class TestClassify:
    def test_examples(self):
        assert classify_case(0.0, 3.0, 100).figure1 == "ia"
        assert classify_case(0.3, 1.4, 100).figure1 == "iv"
        assert classify_case(0.1, 1.2, 100).figure1 == "iii"
        # every band on both sides of r = 1/2 and r = 1, for p >= 3/2 and p < 3/2
        for p, prefix in ((2.0, "i"), (1.2, "ii")):
            for r, band in ((0.5, "a"), (0.6, "b*"), (1.0, "b*"), (1.1, "b**")):
                assert classify_case(r, p, 100).figure1 == prefix + band

    def test_orderorder_dispatch(self):
        assert classify_case(0.3, 2.0, 10 ** 4).orderorder == "I"
        assert classify_case(0.3, 1.2, 10 ** 4).orderorder == "II"
        assert classify_case(0.1, 1.2, 10 ** 4).orderorder == "III"
        assert classify_case(0.3, 1.4, 10 ** 4).orderorder == "IVa"
        # same boundary family, but (1-2r) ln n < e -> Euclidean sub-case
        assert classify_case(0.45, 1.1, 10 ** 4).orderorder == "IVb"

    def test_total_on_grid(self):
        for r in np.linspace(0.0, 2.0, 21):
            for p in np.linspace(1.0, 4.0, 31):
                case = classify_case(float(r), float(p), 1000)
                assert case.figure1 in ("ia", "ib*", "ib**", "iia", "iib*",
                                        "iib**", "iii", "iv")

    def test_boundary_probes(self):
        # within 1e-9 of the p = 3/2 line the p >= 3/2 side wins at p = 1.5
        assert classify_case(0.2, 1.5, 100).figure1 == "ia"
        assert classify_case(0.2, 1.5 - 1e-9, 100).figure1 == "iia"
        # the p = 2 - 2r family is detected within 1e-12 only
        assert classify_case(0.3, 1.4 + 1e-13, 100).figure1 == "iv"
        assert classify_case(0.3, 1.4 + 1e-9, 100).figure1 == "iia"
        # r = 1/2 belongs to the "<= 1/2" regions
        assert classify_case(0.5, 3.0, 100).figure1 == "ia"
        assert classify_case(0.5 + 1e-9, 3.0, 100).figure1 == "ib*"

    def test_domain(self):
        with pytest.raises(ValueError):
            classify_case(-0.1, 2.0, 100)
        with pytest.raises(ValueError):
            classify_case(0.5, 0.9, 100)
        with pytest.raises(ValueError):
            classify_case(2.5, 2.0, 100)


class TestMilman:
    def test_unit_case(self):
        assert milman_dimension(1.0, 1.0, 0.999999) == pytest.approx(
            0.999999 ** 2)

    def test_arithmetic(self):
        ledger = ConstantLedger({"c_dim": 0.01})
        assert milman_dimension(10.0, 1.0, 0.5, ledger) == pytest.approx(0.25)

    def test_flat_p2_scaling(self):
        # M ~ sqrt(n), b = 1 -> d ~ n eps^2
        n, eps = 10 ** 4, 0.1
        params = power_params(0.0, 2.0, n)
        M = median_norm_shape(params.weights, 2.0)
        b = lipschitz_constant(params)
        d = milman_dimension(M, b, eps)
        assert 0.5 * n * eps ** 2 < d < 1.5 * n * eps ** 2


class TestLomainEF:
    def test_case_ia_frozen_value(self):
        # independent evaluation of the display at (0, 2, 1e4, 0.1)
        n, eps = 10 ** 4, 0.1
        ln = math.log(n)
        expected = n * ln ** 2 * eps ** 2 / (2.0 + ln) ** 2
        E, _ = lomain_EF(0.0, 2.0, n, eps)
        assert E == pytest.approx(expected, rel=1e-12)
        assert E == pytest.approx(67.5, abs=0.1)

    def test_case_iii_formula(self):
        n, eps = 1000, 0.1
        E, _ = lomain_EF(0.1, 1.2, n, eps)
        assert E == pytest.approx(n * eps ** 2, rel=1e-12)

    def test_case_iv_simplified_r_half(self):
        # r = 1/2 boundary family row: E >= c n (ln n)^(-1) eps^2
        n, eps = 1000, 0.1
        E_s, _ = lomain_EF_simplified(0.5, 1.0, n, eps)
        assert E_s == pytest.approx(n * eps ** 2 / math.log(n) ** 1.0, rel=1e-12)

    def test_simplified_vs_full_bounded_ratio(self):
        # the simplified table lower-bounds the full displays up to an
        # (r, p)-dependent constant; check the ratio is bounded and stable in n
        worst_per_n = []
        for n in (10 ** 4, 10 ** 5, 10 ** 6):
            worst = 0.0
            for r in (0.0, 0.25, 0.5, 0.75, 1.0):
                for p in (1.0, 1.2, 1.5, 2.0, 3.0):
                    E, F = lomain_EF(r, p, n, 0.05)
                    E_s, F_s = lomain_EF_simplified(r, p, n, 0.05)
                    worst = max(worst, E_s / E, F_s / F)
            worst_per_n.append(worst)
        assert max(worst_per_n) < 20.0
        assert max(worst_per_n) / min(worst_per_n) < 2.0

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            lomain_EF(0.0, 2.0, 100, 0.6)


class TestCorollaryRp:
    def test_small_p_row(self):
        n, eps = 10 ** 4, 0.1
        assert corollary_dimension_rp(0.2, 1.2, n, eps) == pytest.approx(
            n * eps ** 2)

    def test_r_one_row(self):
        n, eps, p = 10 ** 4, 0.1, 2.0
        ln = math.log(n)
        expected = min(ln ** 3 * eps ** 2, ln ** 2.0 * eps)
        assert corollary_dimension_rp(1.0, p, n, eps) == pytest.approx(expected)

    def test_crossover_eps(self):
        # row (r < 1/2, p > 2-2r): n eps^2 vs n^(2(1-r)/p) eps^(2/p) switch at
        # eps* = n^((2(1-r)-p)/(2(p-1)))
        r, p, n = 0.2, 2.0, 10 ** 4
        eps_star = n ** ((2.0 * (1.0 - r) - p) / (2.0 * (p - 1.0)))
        lo, hi = 0.5 * eps_star, min(2.0 * eps_star, 0.49)
        d_lo = corollary_dimension_rp(r, p, n, lo)
        d_hi = corollary_dimension_rp(r, p, n, hi)
        # below eps* the eps^2 term is the smaller one, above it the power term
        assert d_lo == pytest.approx(n * lo ** 2)
        assert d_hi == pytest.approx(n ** (2.0 * (1.0 - r) / p) * hi ** (2.0 / p))

    def test_r_above_one_rejected(self):
        with pytest.raises(ValueError, match="ellinfty"):
            corollary_dimension_rp(1.2, 2.0, 100, 0.1)

    @pytest.mark.parametrize("eps", [-0.1, 0.0, 1.0])
    def test_eps_domain(self, eps):
        # a negative eps would raise eps^(2/p) to a complex number
        with pytest.raises(ValueError, match="eps"):
            corollary_dimension_rp(0.2, 1.5, 100, eps)

    @pytest.mark.parametrize("c_rp", [1.0, 0.37, 3.3, 1e-5])
    def test_is_the_simplified_tables_minimum(self, c_rp):
        # c_rp min(E', F') and min(c_rp E', c_rp F') are the same float:
        # rounding a product by c_rp > 0 is monotone
        ledger = ConstantLedger({"c_rp": c_rp})
        for r in (0.0, 0.2, 0.3, 0.5, 0.7, 1.0):
            for p in (1.0, 1.2, 1.4, 1.6, 2.0, 3.5):
                for n in (3, 100, 10 ** 4):
                    for eps in (0.01, 0.1, 0.3, 0.49):
                        d = corollary_dimension_rp(r, p, n, eps, ledger)
                        assert d == min(lomain_EF_simplified(r, p, n, eps, ledger))
                        assert d == c_rp * min(lomain_EF_simplified(r, p, n, eps))
        report = compute_bound_report(0.5, 1.2, 10 ** 4, 0.1, ledger)
        assert report.d_prime == corollary_dimension_rp(0.5, 1.2, 10 ** 4, 0.1, ledger)

    @pytest.mark.parametrize("n, eps, message", [
        (100, 0.6, "eps must lie in \\(0, 1/2\\)"),
        (2, 0.1, "n must be at least 3"),
    ])
    def test_domain_is_the_tables(self, n, eps, message):
        with pytest.raises(ValueError, match=message):
            corollary_dimension_rp(0.2, 1.5, n, eps)
        with pytest.raises(ValueError, match=message):
            lomain_EF_simplified(0.2, 1.5, n, eps)


class TestGeneralDimension:
    def test_flat_p2_n2(self):
        eps = 0.3
        assert general_dimension(LorentzParams(np.ones(2), 2.0), eps) == pytest.approx(
            math.log(2.0) / 2.0 * eps ** 2, rel=1e-12)

    def test_p_one_display(self):
        n, eps = 100, 0.2
        logs = np.log(n / np.arange(1.0, n + 1))
        logs[-1] = 0.0
        expected = float(np.sum(logs ** 0.5)) ** 2 * eps ** 2 / n
        assert general_dimension(LorentzParams(np.ones(n), 1.0), eps) == \
            pytest.approx(expected, rel=1e-12)

    def test_matches_power_weight_exponent(self):
        # n-exponent of d_general matches min(E, F) away from excluded regimes
        r, p = 0.2, 1.2
        slopes = []
        for d_fn in (
            lambda n: general_dimension(power_params(r, p, n), 0.1),
            lambda n: min(lomain_EF(r, p, n, 0.1)),
        ):
            x = [math.log(n) for n in (10 ** 4, 10 ** 5, 10 ** 6)]
            y = [math.log(d_fn(n)) for n in (10 ** 4, 10 ** 5, 10 ** 6)]
            slopes.append(np.polyfit(x, y, 1)[0])
        assert abs(slopes[0] - slopes[1]) <= 0.05

    @pytest.mark.parametrize("eps", [-0.1, 0.0, 1.5])
    def test_eps_domain(self, eps):
        # a negative eps would raise eps^(2/p) to a complex number
        with pytest.raises(ValueError, match="eps"):
            general_dimension(power_params(0.2, 1.5, 100), eps)


class TestEllInfty:
    def test_arithmetic_example(self):
        res = ellinfty_regime(10 ** 6, 0.1, r=0.0, p=2.0)
        assert res.k_bound == pytest.approx(
            0.1 * math.log(10 ** 6) / math.log(10.0), rel=1e-12)
        assert res.k_bound == pytest.approx(0.600, abs=0.001)

    def test_applicability_gate(self):
        n = 10 ** 4
        ln = math.log(n)
        big_p = 2.0 * ln
        assert ellinfty_regime(n, 0.1, r=0.0, p=big_p).applicable
        assert not ellinfty_regime(n, 0.1, r=0.0, p=2.0).applicable

    def test_vacuous_limit(self):
        # as eps -> 1 the bound exceeds the ambient dimension and is flagged
        res = ellinfty_regime(100, 1.0 - 1e-12, r=0.0, p=50.0)
        assert res.vacuous
        assert res.k_bound >= 100
        assert not ellinfty_regime(100, 0.1, r=0.0, p=50.0).vacuous


class TestOrderOrderSR:
    def test_case_IVb_formulas(self):
        n, t, r, p = 10 ** 4, 3.0, 0.45, 1.1
        spec = make_sharp_spec("IVb", r, p, n, t)
        assert spec.S == pytest.approx(math.sqrt(n) + t, rel=1e-12)

    def test_case_III_formulas(self):
        n, t, r, p = 10 ** 4, 2.0, 0.1, 1.2
        spec = make_sharp_spec("III", r, p, n, t)
        ln = math.log(n)
        S = n ** (1.0 - 2.0 * r) + n ** ((1.0 - 4.0 * r) / 2.0) \
            * (ln / (1.0 + (1.0 - 4.0 * r) * ln)) ** 0.5 * t
        assert spec.S == pytest.approx(S, rel=1e-12)

    def test_case_II_equals_sum(self):
        n, t, r, p = 1000, 2.0, 0.3, 1.2
        spec = make_sharp_spec("II", r, p, n, t)
        m = int(n / math.e)
        i = np.arange(1, m + 1, dtype=float)
        S = float(np.sum(i ** (-0.6) * (np.log(n / i) + t ** 2 / i) ** (p - 1.0)))
        assert spec.S == pytest.approx(S, rel=1e-12)

    def test_mismatched_case(self):
        # (0.1, 1.2) passes Case II's own checks but classifies as Case III
        with pytest.raises(ValueError, match="expected 'III'"):
            make_sharp_spec("II", 0.1, 1.2, 1000, 2.0)

    def test_regimes_imports_no_sharp(self):
        # regimes sits below sharp: it classifies, sharp builds each case's norm;
        # a bare package stands in for lorentz_embed so that its __init__,
        # which imports every module, does not run
        src = str(Path(lorentz_embed.__file__).parent)
        code = ("import sys, types; pkg = types.ModuleType('lorentz_embed'); "
                f"pkg.__path__ = [{src!r}]; sys.modules['lorentz_embed'] = pkg; "
                "import lorentz_embed.regimes; print('lorentz_embed.sharp' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ),
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestBoundReport:
    def test_report_consistency(self):
        report = compute_bound_report(0.0, 2.0, 10 ** 4, 0.1)
        assert report.case.figure1 == "ia"
        applicable = [report.d, min(report.E, report.F),
                      report.d_general, report.d_prime]
        assert report.k_max == max(1, int(min(applicable)))
        assert not report.asymptotics_not_reached
        assert report.to_dict()["shape_values"]["E"] > 0

    def test_ellinfty_only_above_r_one(self):
        n, eps = 10 ** 4, 0.1
        report = compute_bound_report(1.5, 3.0, n, eps)
        expected = ellinfty_regime(n, eps, 1.5, 3.0).to_dict()
        assert report.shape_values["ellinfty"] == expected
        assert report.ledger_values["ellinfty"] == expected
        # k_max is unchanged: the l_inf bound does not enter it
        assert report.k_max == max(1, int(min(
            report.d, min(report.E, report.F), report.d_general)))
        low = compute_bound_report(1.0, 3.0, n, eps)
        assert "ellinfty" not in low.shape_values
        assert "ellinfty" not in low.ledger_values

    def test_shape_equals_ledger_with_defaults(self):
        report = compute_bound_report(0.3, 1.4, 1000, 0.2)
        assert report.shape_values == report.ledger_values

    def test_k_max_floors_at_one(self):
        report = compute_bound_report(1.0, 3.0, 100, 0.01)
        assert report.k_max == 1
        assert report.asymptotics_not_reached


class TestLedger:
    def test_every_known_constant_is_read(self):
        # a constant that no formula reads would sit in every report's ledger
        # block, and setting it in a ledger file would change nothing
        src = Path(lorentz_embed.__file__).parent
        text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
        unread = [name for name in KNOWN_CONSTANTS
                  if f'ledger.get("{name}")' not in text]
        assert unread == []

    def test_owns_a_read_only_copy_of_its_values(self):
        values = {"c_dim": 2.0}
        ledger = ConstantLedger(values)
        values["c_dim"] = -3.0
        assert ledger.get("c_dim") == 2.0
        assert milman_dimension(1.0, 1.0, 0.1, ledger) > 0
        with pytest.raises(TypeError):
            ledger.values["c_dim"] = 1.0
