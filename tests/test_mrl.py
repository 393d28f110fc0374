import math

import numpy as np
import pytest

from resetkit import distributions as d
from resetkit import mrl

from fixture_laws import (brute_tail_integral, exp_law, levy, pe_mean_only,
                          pw_finite, sps, uniform02, weib)


class TestMrlFromTail:
    def test_exponential_memoryless(self):
        spec = exp_law(2.0)
        for r in (0.0, 0.7, 3.3):
            assert mrl.mrl_from_tail(spec, r) == pytest.approx(0.5, rel=1e-10)

    def test_sps_linear_residual_mean(self):
        spec = sps(0.5)
        rs = np.array([0.0, 0.4, 1.0, 2.5, 10.0])
        np.testing.assert_allclose(np.asarray(mrl.mrl_from_tail(spec, rs)),
                                   rs + 0.5, rtol=1e-12)

    def test_weibull_one_is_exponential(self):
        assert mrl.mrl_from_tail(weib(1.0), 2.2) == pytest.approx(1.0, rel=1e-10)

    def test_infinite_mean_raises(self):
        with pytest.raises(mrl.InfiniteMeanError):
            mrl.mrl_from_tail(levy(), 1.0)

    def test_zero_past_support(self):
        spec = uniform02()
        assert mrl.mrl_from_tail(spec, 2.0) == 0.0
        assert mrl.mrl_from_tail(spec, 5.0) == 0.0

    def test_step_law_exact(self):
        # residual mean from the step structure, computed by hand
        spec = pw_finite()
        rest = 0.5 * (1.0 - 0.3) + 0.25 * 0.5 + (1.0 / 6.0) * 0.5
        assert mrl.mrl_from_tail(spec, 0.3) == pytest.approx(rest / 0.5,
                                                             rel=1e-12)

    def test_brute_force_oracle(self):
        spec = pe_mean_only()
        for r in (0.2, 0.9, 1.5):
            rest = brute_tail_integral(spec, r, 60.0)
            expected = rest / float(spec.tail(r))
            assert mrl.mrl_from_tail(spec, r) == pytest.approx(expected,
                                                               rel=1e-5)

    def test_m0_vs_m_at_zero(self):
        # m(0) >= mean, equality exactly when the tail starts at 1
        for make, starts_at_one in ((exp_law, True), (lambda: weib(0.7), True),
                                    (pe_mean_only, False), (pw_finite, False)):
            spec = make()
            m0 = d.mean(spec)
            m_at_0 = mrl.mrl_from_tail(spec, 0.0)
            assert m_at_0 >= m0 - 1e-12
            if starts_at_one:
                assert m_at_0 == pytest.approx(m0, rel=1e-10)
            else:
                assert m_at_0 > m0 + 1e-6


class TestTailFromMrl:
    def test_constant_curve_is_exponential(self):
        curve = mrl.MrlCurve(grid=(0.0, 5.0), values=(2.0, 2.0))
        rs = np.array([0.0, 0.5, 2.0, 7.0])
        np.testing.assert_allclose(np.asarray(mrl.tail_from_mrl(curve, rs)),
                                   np.exp(-rs / 2.0), rtol=1e-12)

    def test_linear_curve_reproduces_pareto_square(self):
        k = 0.5
        curve = mrl.MrlCurve(grid=(0.0, 1.0), values=(k, 1.0 + k),
                             terminal="linear")
        rs = np.array([0.0, 0.3, 1.0, 4.0])
        np.testing.assert_allclose(np.asarray(mrl.tail_from_mrl(curve, rs)),
                                   (k / (rs + k)) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("make", [exp_law, lambda: weib(0.7), sps])
    def test_roundtrip_tail_to_mrl_to_tail(self, make):
        spec = make()
        curve = mrl.mrl_curve(spec)
        grid = np.linspace(0.0, d.default_horizon(spec) * 0.5, 300)
        rec = np.asarray(mrl.tail_from_mrl(curve, grid))
        ref = np.asarray(spec.tail(grid))
        assert float(np.max(np.abs(rec - ref))) < 1e-6

    def test_roundtrip_other_direction(self):
        # generated law's residual mean reproduces the input curve
        curve = mrl.MrlCurve(grid=tuple(np.linspace(0.0, 6.0, 61)),
                             values=tuple(1.0 + 0.3 * np.sin(
                                 np.linspace(0.0, 6.0, 61)) ** 2))
        law = mrl.law_from_mrl(curve)
        rs = np.linspace(0.0, 5.5, 23)
        got = np.asarray(mrl.mrl_from_tail(law, rs))
        want = np.asarray(curve(rs))
        assert float(np.max(np.abs(got - want))) < 1e-6

    def test_step_law_roundtrip_at_continuity_points(self):
        spec = pw_finite()
        curve = mrl.mrl_curve(spec)
        pts = np.array([0.2, 0.7, 1.2, 1.7])  # interior of each step
        rec = np.asarray(mrl.tail_from_mrl(curve, pts))
        ref = np.asarray(spec.tail(pts))
        np.testing.assert_allclose(rec, ref, atol=5e-4)


class TestLawFromMrl:
    def test_constant_generator(self):
        law = mrl.law_from_mrl(mrl.MrlCurve(grid=(0.0, 1.0), values=(1.0, 1.0)))
        assert d.tail(law, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert d.mean(law) == pytest.approx(1.0, rel=1e-12)

    def test_generated_law_validates_and_has_mean_m0(self):
        curve = mrl.MrlCurve(grid=(0.0, 1.0, 2.0, 4.0),
                             values=(1.0, 1.4, 1.2, 1.1))
        law = mrl.law_from_mrl(curve)
        d.validate(law)
        assert d.mean(law) == pytest.approx(1.0, rel=1e-10)

    def test_uniform_via_linear_mrl(self):
        law = uniform02()
        ts = np.array([0.0, 0.5, 1.0, 1.5, 1.999])
        np.testing.assert_allclose(np.asarray(law.tail(ts)), 1.0 - ts / 2.0,
                                   rtol=1e-10)
        assert law.t0 == pytest.approx(2.0)
        assert d.mean(law) == pytest.approx(1.0, rel=1e-12)

    def test_derivative_below_minus_one_rejected(self):
        with pytest.raises(mrl.InvalidMrlError):
            mrl.law_from_mrl(mrl.MrlCurve(grid=(0.0, 1.0), values=(2.0, 0.5)))

    def test_nonpositive_values_rejected(self):
        with pytest.raises(mrl.InvalidMrlError):
            mrl.MrlCurve(grid=(0.0, 1.0), values=(1.0, 0.0))

    def test_m0_above_m_at_zero_rejected(self):
        with pytest.raises(mrl.InvalidMrlError):
            mrl.MrlCurve(grid=(0.0, 1.0), values=(1.0, 1.0), m0=2.0)

    def test_sampling_matches_tail(self):
        law = mrl.law_from_mrl(mrl.MrlCurve(
            grid=(0.0, 1.0, 3.0), values=(0.8, 1.3, 1.1)))
        rng = np.random.default_rng(17)
        x = d.sample(law, rng, 50_000)
        for t in (0.2, 1.0, 2.5):
            th = float(law.tail(t))
            emp = float(np.mean(x > t))
            assert abs(emp - th) <= 4.0 * math.sqrt(th * (1 - th) / x.size)

    def test_isf_past_a_flat_terminal_piece(self):
        # m(t) = 2 - t: the tail stays 1 and drops to 0 at t = 2
        law = mrl.law_from_mrl(mrl.MrlCurve(grid=(0.0, 1.0),
                                            values=(2.0, 1.0),
                                            terminal="linear"))
        us = np.array([0.9, 0.5, 0.1])
        assert np.asarray(law.isf(us)).tolist() == [2.0, 2.0, 2.0]
        assert np.all(np.asarray(law.tail(law.isf(us))) <= us)

    @pytest.mark.parametrize("v0", [2.0, 0.5])
    def test_isf_on_nearly_flat_piece(self, v0):
        # slope 1e-9: v0 ** (1 / slope) overflows (v0 > 1) or underflows
        # (v0 < 1), and the inverse used to raise on such a piece
        law = mrl.law_from_mrl(mrl.MrlCurve(grid=(0.0, 1.0),
                                            values=(v0, v0 + 1e-9)))
        us = np.exp(-np.array([0.1, 0.5, 0.9]) / v0)
        np.testing.assert_allclose(np.asarray(law.isf(us)), -v0 * np.log(us),
                                   rtol=1e-8)

    def test_json_round_trip(self):
        law = uniform02()
        doc = d.spec_to_dict(law)
        back = d.spec_from_dict(doc)
        ts = np.linspace(0.0, 2.0, 40)
        np.testing.assert_allclose(np.asarray(back.tail(ts)),
                                   np.asarray(law.tail(ts)), atol=1e-12)
