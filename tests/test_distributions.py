import math

import numpy as np
import pytest
from scipy import special as sp

from resetkit import distributions as d
from resetkit.distributions import (DegenerateAtZeroError, MomentFunction,
                                    NonMonotoneError, TailCurve,
                                    ZeroAtOriginError)

from fixture_laws import (ALL_LAWS, FINITE_MEAN_LAWS, brute_tail_integral,
                          exp_law, levy, pe_mean_only, pw_finite, pw_sixth,
                          sps, weib)


class TestValidation:
    def test_exponential_accepted(self):
        spec = d.validate(exp_law())
        assert spec.t0 == np.inf
        assert spec.mass_at_infinity == 0.0

    def test_first_level_one_rejected(self):
        with pytest.raises(DegenerateAtZeroError):
            d.PiecewiseConstantTail(breakpoints=(0.0, 1.0), levels=(1.0, 0.5))

    def test_half_quarter_sixth_accepted(self):
        spec = d.validate(pw_sixth())
        assert spec.mass_at_infinity == pytest.approx(1.0 / 6.0)
        assert spec.t0 == np.inf

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneError):
            d.PiecewiseConstantTail(breakpoints=(0.0, 1.0, 2.0),
                                    levels=(0.5, 0.6, 0.1))

    def test_zero_at_origin_rejected(self):
        with pytest.raises(ZeroAtOriginError):
            d.PiecewiseConstantTail(breakpoints=(0.0, 1.0), levels=(0.0, 0.0))

    def test_bad_parameters(self):
        with pytest.raises(d.SpecValidationError):
            d.Exponential(rate=0.0)
        with pytest.raises(d.SpecValidationError):
            d.Weibull(shape=-1.0)
        with pytest.raises(d.SpecValidationError):
            d.ShiftedParetoSquare(offset=1.5)
        with pytest.raises(d.SpecValidationError):
            d.Exponential(rate=1.0, defect=1.0)

    def test_reset_carrier_standing_relaxed(self):
        spec = d.PiecewiseConstantTail(breakpoints=(0.0, 1.0), levels=(1.0, 0.0),
                                       check_standing=False)
        assert spec.tail(0.5) == 1.0

    def test_upward_jump_between_exp_segments_rejected(self):
        with pytest.raises(NonMonotoneError):
            d.PiecewiseExpTail(segments=((0.0, 0.5, 1.0), (1.0, 0.1, 1.0)))


class TestTail:
    def test_exponential(self):
        assert d.tail(exp_law(), 2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    @pytest.mark.parametrize("k", [0.3, 0.5, 1.0, 2.0, 3.0])
    def test_weibull(self, k):
        xs = np.array([0.0, 0.2, 1.0, 3.7])
        np.testing.assert_allclose(d.tail(weib(k), xs), np.exp(-xs ** k),
                                   rtol=1e-14)

    def test_sps_normalized_at_zero(self):
        assert d.tail(sps(0.5), 0.0) == 1.0
        assert d.tail(sps(0.5), 1.0) == pytest.approx(0.25 / 2.25, rel=1e-14)

    def test_levy_erf_form(self):
        assert d.tail(levy(), 1.0) == pytest.approx(0.6826894921370859, abs=1e-13)

    def test_tail_at_infinity_is_zero(self):
        for make in ALL_LAWS.values():
            assert d.tail(make(), np.inf) == 0.0

    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_monotone_and_standing(self, name):
        spec = ALL_LAWS[name]()
        grid = d.working_grid(spec, n=512)
        vals = np.asarray(spec.tail(grid))
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[0] > 0.0
        assert np.all(vals[grid > 0.0] < 1.0)

    def test_log_tail_matches_tail(self):
        for make in ALL_LAWS.values():
            spec = make()
            grid = d.working_grid(spec, n=128)
            lt = np.asarray(spec.log_tail(grid))
            tl = np.asarray(spec.tail(grid))
            mask = tl > 1e-250
            np.testing.assert_allclose(np.exp(lt[mask]), tl[mask], rtol=1e-10)


class TestMoments:
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
    def test_exponential_mean(self, lam):
        assert d.mean(exp_law(lam)) == pytest.approx(1.0 / lam, rel=1e-12)

    @pytest.mark.parametrize("k", [0.3, 0.7, 1.0, 2.0])
    def test_weibull_mean_is_gamma(self, k):
        assert d.mean(weib(k)) == pytest.approx(float(sp.gamma(1 + 1 / k)),
                                                rel=1e-12)

    def test_levy_mean_infinite(self):
        assert d.mean(levy()) == np.inf

    def test_defective_mean_infinite(self):
        assert d.mean(d.Exponential(rate=1.0, defect=0.1)) == np.inf
        assert d.mean(pw_sixth()) == np.inf

    def test_exponential_second_moment(self):
        assert d.second_moment(exp_law()) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.5])
    def test_weibull_second_moment_vs_brute(self, k):
        # oracle: dense Riemann quadrature of 2 t tail(t)
        spec = weib(k)
        upper = d.default_horizon(spec) * 1.5
        edges = np.linspace(0.0, upper, 200_001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        brute = float(np.sum(2.0 * mids * np.asarray(spec.tail(mids)))
                      * upper / 200_000)
        assert d.second_moment(spec) == pytest.approx(float(sp.gamma(1 + 2 / k)),
                                                      rel=1e-12)
        assert d.second_moment(spec) == pytest.approx(brute, rel=1e-3)

    def test_sps_second_moment_infinite(self):
        assert d.second_moment(sps(0.5)) == np.inf

    def test_piecewise_mean_exact(self):
        # cells: 0.5 on [0,1), 0.25 on [1,1.5), 1/6 on [1.5,2)
        expected = 0.5 + 0.25 * 0.5 + (1.0 / 6.0) * 0.5
        assert d.mean(pw_finite()) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(FINITE_MEAN_LAWS))
    def test_mean_vs_brute_force(self, name):
        spec = FINITE_MEAN_LAWS[name]()
        upper = d.default_horizon(spec)
        brute = brute_tail_integral(spec, 0.0, upper)
        rest = float(d.mean_upper_rest(spec, upper))
        assert d.mean(spec) == pytest.approx(brute + rest, rel=5e-4)

    @pytest.mark.parametrize("name", sorted(FINITE_MEAN_LAWS))
    def test_mean_equals_identity_moment(self, name):
        spec = FINITE_MEAN_LAWS[name]()
        assert d.g_moment(spec, MomentFunction.identity()) == pytest.approx(
            d.mean(spec), rel=1e-10)


class TestGMoment:
    def test_weibull_half_power_two(self):
        assert d.g_moment(weib(0.5), MomentFunction.power_of(2)) == \
            pytest.approx(24.0, rel=1e-10)

    def test_indicator_is_tail(self):
        for make in ALL_LAWS.values():
            spec = make()
            assert d.g_moment(spec, MomentFunction.indicator_above(1.2)) == \
                pytest.approx(float(spec.tail(1.2)), abs=1e-15)

    def test_levy_fractional_moment(self):
        # E[T**0.25] for the level-1 passage time, frozen from the Gamma form
        assert d._power_moment(levy(), 0.25) == pytest.approx(
            1.7200799746490392, rel=1e-10)

    def test_levy_power_two_infinite(self):
        assert d.g_moment(levy(), MomentFunction.power_of(2)) == np.inf

    def test_tabulated_moment_curve_vs_stieltjes_oracle(self):
        spec = exp_law()
        g = MomentFunction.tabulated((0.0, 1.0, 3.0), (0.0, 2.0, 2.5))
        # oracle: E[G(T)] = G(0) + sum of slope * int tail over each segment
        expected = 0.0 + 2.0 * brute_tail_integral(spec, 0.0, 1.0) \
            + 0.25 * brute_tail_integral(spec, 1.0, 3.0)
        assert d.g_moment(spec, g) == pytest.approx(expected, rel=1e-5)

    def test_moment_function_validation(self):
        with pytest.raises(ValueError):
            MomentFunction.power_of(0.5)
        with pytest.raises(ValueError):
            MomentFunction.tabulated((0.0, 1.0), (1.0, 0.5))


class TestSampling:
    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_empirical_tail_within_bands(self, name):
        # binomial 4-sigma bands at 5 probe points over 1e5 draws
        spec = ALL_LAWS[name]()
        rng = np.random.default_rng(101)
        x = d.sample(spec, rng, 100_000)
        lim = spec.mass_at_infinity
        probes = [float(spec.isf(min(max(lim + (1 - lim) * u, 1e-7), 0.999999)))
                  for u in (0.85, 0.6, 0.4, 0.2, 0.05)]
        for t in probes:
            if not np.isfinite(t):
                continue
            th = float(spec.tail(t))
            emp = float(np.mean(x > t))
            band = 4.0 * math.sqrt(max(th * (1 - th), 1e-12) / x.size)
            assert abs(emp - th) <= band + 1e-9, (name, t, emp, th)

    def test_atom_at_zero_mass(self):
        rng = np.random.default_rng(7)
        x = d.sample(pw_sixth(), rng, 100_000)
        frac = float(np.mean(x == 0.0))
        assert abs(frac - 0.5) < 4.0 * math.sqrt(0.25 / 100_000)

    def test_defective_mass_fraction(self):
        rng = np.random.default_rng(8)
        spec = d.Exponential(rate=1.0, defect=0.2)
        x = d.sample(spec, rng, 100_000)
        frac = float(np.mean(np.isinf(x)))
        assert abs(frac - 0.2) < 4.0 * math.sqrt(0.16 / 100_000)

    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_scalar_sampler_matches_isf(self, name):
        # a draw made one u at a time equals the array call, bit for bit
        spec = ALL_LAWS[name]()
        us = np.concatenate([[0.0, 1e-300, 0.01, 0.2, 0.5, 0.9, 0.99, 1.0],
                             np.random.default_rng(3).random(500)])
        arr = np.asarray(spec.isf(us))
        one = np.array([spec.isf(float(u)) for u in us])
        assert arr.shape == us.shape
        assert arr.tobytes() == one.tobytes()

    def test_isf_step_atoms(self):
        spec = pw_sixth()
        assert spec.isf(0.6) == 0.0
        assert spec.isf(0.3) == 1.0
        assert spec.isf(0.2) == 1.5
        assert spec.isf(0.1) == np.inf


class TestTailCurve:
    def test_requires_grid_from_zero(self):
        with pytest.raises(d.SpecValidationError):
            TailCurve(grid=(1.0, 2.0), values=(0.5,), terminal=0.2)

    def test_requires_monotone(self):
        with pytest.raises(NonMonotoneError):
            TailCurve(grid=(0.0, 1.0), values=(0.5,), terminal=0.9)

    def test_loglinear_tabulation_agrees_on_grid(self):
        spec = weib(1.3)
        grid = np.linspace(0.0, 6.0, 200)
        curve = d.as_tail_curve(spec, grid, mode="log-linear")
        tab = d.Tabulated(curve=curve)
        np.testing.assert_allclose(np.asarray(tab.tail(grid)),
                                   np.asarray(spec.tail(grid)), atol=1e-6)

    def test_step_tabulation_agrees_on_grid(self):
        # step sampling of a tail starting at 1 would be degenerate at zero,
        # so the step case is exercised with a law that has an atom at 0
        spec = pe_mean_only()
        grid = np.linspace(0.0, 6.0, 400)
        tab = d.Tabulated(curve=d.as_tail_curve(spec, grid, mode="step"))
        np.testing.assert_allclose(np.asarray(tab.tail(grid)),
                                   np.asarray(spec.tail(grid)), atol=1e-6)

    def test_loglinear_interpolates_geometrically(self):
        curve = TailCurve(grid=(0.0, 2.0), values=(1.0,), terminal=math.exp(-2.0),
                          mode="log-linear")
        assert curve(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_tabulated_sampling_consistency(self):
        spec = d.Tabulated(curve=d.as_tail_curve(weib(2.0)))
        rng = np.random.default_rng(5)
        x = d.sample(spec, rng, 50_000)
        for t in (0.3, 0.8, 1.4):
            th = float(spec.tail(t))
            emp = float(np.mean(x > t))
            assert abs(emp - th) <= 4.0 * math.sqrt(th * (1 - th) / x.size) + 1e-9


class TestJsonEnvelope:
    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_round_trip(self, name):
        spec = ALL_LAWS[name]()
        doc = d.spec_to_dict(spec)
        back = d.spec_from_dict(doc)
        grid = d.working_grid(spec, n=64)
        np.testing.assert_allclose(np.asarray(back.tail(grid)),
                                   np.asarray(spec.tail(grid)), atol=1e-12)

    def test_tabulated_envelope(self):
        doc = {"family": "tabulated", "grid": [0.0, 1.0, 2.0],
               "values": [0.8, 0.5, 0.25], "interpolation": "step"}
        spec = d.spec_from_dict(doc)
        assert spec.tail(1.5) == 0.5
        assert spec.mass_at_infinity == 0.25
        assert d.spec_to_dict(spec)["values"] == [0.8, 0.5, 0.25]

    def test_mass_at_infinity_key(self):
        doc = {"family": "exponential", "params": {"rate": 2.0},
               "mass_at_infinity": 0.1}
        spec = d.spec_from_dict(doc)
        assert spec.mass_at_infinity == pytest.approx(0.1)

    def test_unknown_family(self):
        with pytest.raises(d.SpecValidationError):
            d.spec_from_dict({"family": "cauchy", "params": {}})
