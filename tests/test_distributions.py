import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import special as sp

from resetkit import distributions as d
from resetkit import reset_transform as rt
from resetkit.distributions import (DegenerateAtZeroError, MomentFunction,
                                    NonMonotoneError, TailCurve,
                                    ZeroAtOriginError)

from fixture_laws import (ALL_LAWS, FINITE_MEAN_LAWS, brute_tail_integral,
                          exp_law, levy, pe_law, pe_mean_only, pw_finite,
                          pw_sixth, sps, step_law, weib)
from quad_reference import split_quad


class TestValidation:
    def test_exponential_accepted(self):
        spec = d.validate(exp_law())
        assert spec.t0 == np.inf
        assert spec.mass_at_infinity == 0.0

    def test_first_level_one_rejected(self):
        with pytest.raises(DegenerateAtZeroError):
            step_law((0.0, 1.0), (1.0, 0.5))

    def test_half_quarter_sixth_accepted(self):
        spec = d.validate(pw_sixth())
        assert spec.mass_at_infinity == pytest.approx(1.0 / 6.0)
        assert spec.t0 == np.inf

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneError):
            step_law((0.0, 1.0, 2.0), (0.5, 0.6, 0.1))

    def test_zero_at_origin_rejected(self):
        with pytest.raises(ZeroAtOriginError):
            step_law((0.0, 1.0), (0.0, 0.0))

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
        spec = step_law((0.0, 1.0), (1.0, 0.0), check_standing=False)
        assert spec.tail(0.5) == 1.0

    def test_upward_jump_between_exp_segments_rejected(self):
        with pytest.raises(NonMonotoneError):
            pe_law(((0.0, 0.5, 1.0), (1.0, 0.1, 1.0)))

    @pytest.mark.parametrize("doc", [
        {"family": "tabulated", "grid": [0.0], "values": [1.0],
         "interpolation": "log-linear"},
        {"family": "piecewise_exp", "params": {"segments": [[0.0, 0.0, 0.0]]}},
        {"family": "piecewise_exp",
         "params": {"segments": [[0.0, 0.0, 0.0], [1.0, 0.5, 1.0]]}}])
    def test_loglinear_tail_one_from_zero_rejected(self, doc):
        # a one-knot log-linear curve at 1 is 1 forever: its mean was inf
        with pytest.raises(DegenerateAtZeroError):
            d.spec_from_dict(doc)

    def test_one_knot_at_one_with_a_terminal_rate_is_exponential(self):
        curve = TailCurve(grid=(0.0,), values=(), terminal=1.0,
                          terminal_rate=2.0)
        t = np.array([0.0, 0.3, 4.0])
        np.testing.assert_allclose(d.Tabulated(curve=curve).tail(t),
                                   np.exp(-2.0 * t), rtol=1e-15)


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

    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_negative_times(self, name):
        # T >= 0: at t = -0.5 the tail read 1.6487 (exp1), nan (weib05),
        # 0.7788 (weib2), inf (sps05) and 1.25 (uniform02), weib2's density
        # -0.7788, and pe_mean_only's rest 0.9894 rather than rest(0) + 0.5
        spec, t = ALL_LAWS[name](), np.array([-np.inf, -2.0, -0.5, -1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(spec.tail(t) == 1.0) and spec.tail(-0.5) == 1.0
            assert np.all(spec.log_tail(t) == 0.0)
            assert np.all(spec.density(t) == 0.0)
            rest0 = d.mean_upper_rest(spec, 0.0)
            np.testing.assert_array_equal(d.mean_upper_rest(spec, t[1:3]),
                                          rest0 + np.array([2.0, 0.5]))

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

    @pytest.mark.parametrize("grid, values, terminal", [
        ((0.0, 1.0), (math.nan,), 0.2), ((0.0, 1.0), (0.5,), math.nan),
        ((0.0, math.nan), (0.5,), 0.2), ((0.0, math.inf), (0.5,), 0.2),
        ((0.0, 1.0, -math.inf), (0.5, 0.4), 0.2)])
    @pytest.mark.parametrize("spelling", ["step", "log-linear"])
    def test_rejects_non_finite_data(self, grid, values, terminal, spelling):
        # NaN compared false with every bound, so such curves were accepted
        with pytest.raises(d.SpecValidationError):
            d.spec_from_dict({"family": "tabulated", "grid": grid,
                              "values": values, "terminal": terminal,
                              "interpolation": spelling})

    @pytest.mark.parametrize("rate", [math.nan, -0.5, math.inf])
    def test_rejects_a_bad_terminal_rate(self, rate):
        with pytest.raises(d.SpecValidationError):
            TailCurve(grid=(0.0, 1.0), values=(0.5,), terminal=0.2,
                      terminal_rate=rate)

    @pytest.mark.parametrize("grid, spelling", [
        ((0.0, 1.0, 1.0, 1.0), "log-linear"), ((0.0, 1.0, 1.0, 2.0), "step"),
        ((0.0, 0.0, 1.0, 2.0), "log-linear"), ((0.0, 2.0, 1.0, 3.0), "log-linear")])
    def test_a_knot_repeats_once_after_zero_in_log_linear_mode_only(
            self, grid, spelling):
        # a step spelling gives every start once; its jumps are the repeats
        with pytest.raises(d.SpecValidationError, match="strictly increasing"):
            d.spec_from_dict({"family": "tabulated", "grid": grid,
                              "values": [0.9, 0.5, 0.4, 0.2],
                              "interpolation": spelling})

    def test_a_repeated_knot_is_a_jump(self):
        curve = TailCurve(grid=(0.0, 1.0, 1.0, 2.0, 2.0),
                          values=(0.9, 0.5, 0.4, 0.3), terminal=0.1,
                          terminal_rate=0.5)
        spec = d.Tabulated(curve=curve)
        assert spec.tail(np.nextafter(1.0, 0.0)) == pytest.approx(0.5, rel=1e-15)
        assert spec.tail(1.0) == 0.4
        assert spec.tail(2.0) == pytest.approx(0.1, rel=1e-15)
        assert spec.tail(1.5) == pytest.approx(math.sqrt(0.4 * 0.3), rel=1e-15)
        assert spec.tail(4.0) == pytest.approx(0.1 * math.exp(-1.0), rel=1e-15)
        assert spec.log_tail(3000.0) == pytest.approx(math.log(0.1) - 1499.0,
                                                      rel=1e-15)
        sizes = dict(spec.jumps())
        assert list(sizes) == [0.0, 1.0, 2.0]
        assert [sizes[b] for b in sizes] == pytest.approx([0.1, 0.1, 0.2],
                                                          rel=1e-14)
        assert spec.tail_breakpoints() == (1.0, 2.0)
        assert spec.isf(0.45) == 1.0 and spec.isf(0.2) == 2.0
        assert spec.isf(0.1 * math.exp(-1.0)) == pytest.approx(4.0, rel=1e-15)
        assert spec.mass_at_infinity == 0.0 and spec.t0 == np.inf
        rest = (0.9 - 0.5) / math.log(0.9 / 0.5) \
            + (0.4 - 0.3) / math.log(0.4 / 0.3) + 0.1 / 0.5
        assert d.mean(spec) == pytest.approx(rest, rel=1e-14)

    def test_a_last_knot_below_1e300_falls_at_the_terminal_rate(self):
        # its log was floored at 1e-300 and the piece past it read as flat:
        # the tail stayed 1e-310 out to t = 1e6, and isf(1e-315) was 35.5
        spec = d.Tabulated(curve=TailCurve(grid=(0.0, 1.0), values=(1.0,),
                                           terminal=1e-310, terminal_rate=1.0))
        assert spec.tail(6.0) == pytest.approx(1e-310 * math.exp(-5.0), rel=1e-9)
        assert spec.log_tail(6.0) == pytest.approx(math.log(1e-310) - 5.0,
                                                   rel=1e-15)
        assert spec.tail(1e6) == 0.0
        assert spec.isf(1e-315) == pytest.approx(
            1.0 + math.log(1e-310) - math.log(1e-315), rel=1e-14)
        us = np.geomspace(1e-320, 1e-311, 50)
        assert np.all(np.asarray(spec.tail(spec.isf(us))) <= us)

    def test_log_tail_takes_the_tail_only_in_linear_cells(self, monkeypatch):
        # [1, 2) falls linearly to 0: there the log is the tail's, taken at
        # those points only; the flat [2, inf) reads log 0 from the table
        curve = TailCurve(grid=(0.0, 1.0, 2.0), values=(1.0, 0.5), terminal=0.0)
        ts = np.linspace(0.0, 3.0, 31)
        one = np.array([curve.log_tail(float(t)) for t in ts])
        zero_d = np.array([curve.log_tail(np.asarray(t)) for t in ts])
        sizes, call = [], TailCurve.__call__

        def spy(self, t):
            sizes.append(np.size(t))
            return call(self, t)
        monkeypatch.setattr(TailCurve, "__call__", spy)
        got = np.asarray(curve.log_tail(ts))
        assert sizes == [np.count_nonzero((ts >= 1.0) & (ts < 2.0))]
        assert got.tobytes() == one.tobytes() == zero_d.tobytes()
        assert got[ts < 1.0] == pytest.approx(-ts[ts < 1.0] * math.log(2.0),
                                              rel=1e-15, abs=0.0)
        assert got[-1] == -np.inf and got[15] == pytest.approx(math.log(0.25))

    def test_loglinear_tabulation_agrees_on_grid(self):
        spec = weib(1.3)
        grid = np.linspace(0.0, 6.0, 200)
        curve = d.as_tail_curve(spec, grid)
        tab = d.Tabulated(curve=curve)
        np.testing.assert_allclose(np.asarray(tab.tail(grid)),
                                   np.asarray(spec.tail(grid)), atol=1e-6)

    def test_step_tabulation_agrees_on_grid(self):
        # step sampling of a tail starting at 1 would be degenerate at zero,
        # so the step case is exercised with a law that has an atom at 0
        spec = pe_mean_only()
        grid = np.linspace(0.0, 6.0, 400)
        tab = d.spec_from_dict({"family": "tabulated", "grid": grid.tolist(),
                                "values": spec.tail(grid).tolist(),
                                "interpolation": "step"})
        np.testing.assert_allclose(np.asarray(tab.tail(grid)),
                                   np.asarray(spec.tail(grid)), atol=1e-6)

    def test_holds_read_only_float_arrays(self):
        grid = np.array([0.0, 1.0, 2.0])
        curve = TailCurve(grid=grid, values=[1, 0.5], terminal=0.25)
        grid[1] = 1.5  # the curve keeps its own copy
        assert curve.grid.tolist() == [0.0, 1.0, 2.0]
        assert curve.values.dtype == float
        with pytest.raises(ValueError):
            curve.values[0] = 0.9
        same = TailCurve(grid=(0.0, 1.0, 2.0), values=(1.0, 0.5),
                         terminal=0.25)
        assert curve == same and hash(curve) == hash(same)
        assert curve != dataclasses.replace(same, terminal=0.2)
        assert curve != dataclasses.replace(same, values=(1.0, 0.4))

    def test_dict_round_trip(self):
        curve = TailCurve(grid=(0.0, 0.5, 2.0), values=(0.9, 0.4),
                          terminal=0.0)
        doc = d.spec_to_dict(d.Tabulated(curve=curve))
        assert doc["grid"] == [0.0, 0.5, 2.0]
        assert doc["values"] == [0.9, 0.4, 0.0]
        assert all(type(x) is float for x in doc["grid"] + doc["values"])
        assert d.spec_from_dict(doc).curve == curve

    def test_loglinear_interpolates_geometrically(self):
        curve = TailCurve(grid=(0.0, 2.0), values=(1.0,), terminal=math.exp(-2.0))
        assert curve(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_loglinear_density_where_the_tail_falls_linearly(self):
        # the tail interpolates linearly on a cell with a zero end; the
        # density there used the log slope against 1e-300, 340x too large
        curve = TailCurve(grid=(0.0, 0.4, 1.1, 1.9, 2.6),
                          values=(1.0, 0.7, 0.45, 0.2), terminal=0.0)
        reset = d.Tabulated(curve=curve)
        mass, _ = split_quad(reset.density, 1.9, 2.6)
        assert mass == pytest.approx(0.2, abs=1e-12)
        # restart mean E[min(T, R)] / P(T <= R), from the reset law's tail
        # and T's density only
        law = weib(0.5)
        grid = curve.grid

        def both(t):
            return float(law.tail(t)) * float(reset.tail(t))

        def finish(t):
            return float(law.density(t)) * float(reset.tail(t))

        want = split_quad(both, 0.0, 2.6, grid)[0] \
            / split_quad(finish, 0.0, 2.6, grid)[0]
        got = rt.reset_mean(law, rt.ResetLaw.general(reset))
        assert got == pytest.approx(want, rel=1e-9)

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
        assert d.spec_from_dict(d.spec_to_dict(spec)) == spec

    def test_mass_at_infinity_key(self):
        doc = {"family": "exponential", "params": {"rate": 2.0},
               "mass_at_infinity": 0.1}
        spec = d.spec_from_dict(doc)
        assert spec.mass_at_infinity == pytest.approx(0.1)

    @pytest.mark.parametrize("name", ["exp1", "weib05", "pw_finite",
                                      "pe_mean_only", "uniform02"])
    def test_round_trip_keeps_the_mass_at_infinity(self, name):
        spec = dataclasses.replace(ALL_LAWS[name](), defect=0.25)
        doc = d.spec_to_dict(spec)
        assert doc["mass_at_infinity"] == 0.25
        assert d.spec_from_dict(doc) == spec

    def test_explicit_terminal_key(self):
        # values then hold one entry per cell, the terminal its own key
        doc = {"family": "tabulated", "grid": [0.0, 1.0, 2.0],
               "values": [0.8, 0.5], "terminal": 0.25,
               "interpolation": "log-linear"}
        spec = d.spec_from_dict(doc)
        assert spec.curve.knot_values.tolist() == [0.8, 0.5, 0.25]
        assert spec.mass_at_infinity == 0.25
        back = d.spec_to_dict(spec)
        assert back["values"] == [0.8, 0.5, 0.25] and "terminal" not in back
        assert d.spec_from_dict(back) == spec

    def test_unknown_family(self):
        with pytest.raises(d.SpecValidationError):
            d.spec_from_dict({"family": "cauchy", "params": {}})

    def test_piecewise_constant_is_a_step_curve(self):
        pw = {"family": "piecewise_constant", "check_standing": False,
              "params": {"breakpoints": [0.0, 0.5, 1.5],
                         "levels": [1.0, 0.5, 0.0]}}
        tab = {"family": "tabulated", "check_standing": False,
               "grid": [0.0, 0.5, 1.5], "values": [1.0, 0.5, 0.0],
               "interpolation": "step"}
        spec = d.spec_from_dict(pw)
        assert spec == d.spec_from_dict(tab)
        # flat cells, every jump a repeated knot, its left limit first
        assert spec.curve.grid.tolist() == [0.0, 0.5, 0.5, 1.5, 1.5]
        assert spec.curve.knot_values.tolist() == [1.0, 1.0, 0.5, 0.5, 0.0]
        assert d.spec_from_dict(d.spec_to_dict(spec)) == spec

    def test_support_ends_where_the_step_tail_reaches_zero(self):
        # repeated trailing zero levels: t0 was the last breakpoint, 2.0
        spec = d.spec_from_dict({"family": "piecewise_constant", "params": {
            "breakpoints": [0.0, 1.0, 2.0], "levels": [0.5, 0.0, 0.0]}})
        assert spec.t0 == 1.0

    def test_piecewise_exp_is_a_log_linear_curve(self):
        spec = pe_mean_only()
        assert spec.family == "tabulated"
        assert spec.curve.grid.tolist() == [0.0, 1.0, 1.0]
        assert spec.curve.knot_values.tolist() == [
            math.exp(-0.1), math.exp(-1.1), math.exp(-1.25)]
        assert spec.curve.terminal_rate == 1.0
        assert spec.tail_breakpoints() == (1.0,)

    @pytest.mark.parametrize("segments", [
        ((0.0, 0.1, 1.0), (1.0, 1.25, 1.0)),
        ((0.0, 0.0, 1.0), (1.0, 2.0, 0.0), (2.0, 2.0, 1.0)),
        ((0.0, 0.0, 0.001), (0.95, 0.00095, 1.05), (1.05, 0.10595, 0.0),
         (90.0, 0.10595, 0.2))])
    def test_piecewise_exp_round_trip(self, segments):
        spec = pe_law(segments)
        doc = d.spec_to_dict(spec)
        assert doc["family"] == "piecewise_exp"
        assert [s[0] for s in doc["params"]["segments"]] == [
            s[0] for s in segments]
        assert d.spec_from_dict(doc) == spec

    def test_piecewise_exp_round_trip_through_a_zero_knot(self):
        # a tail dropping to 0 at a jump: its offset is inf, not the
        # -log(1e-300) the cell table floors the log at
        spec = pe_law(((0.0, 0.0, 1.0), (1.0, math.inf, 1.0)))
        doc = d.spec_to_dict(spec)
        assert doc["params"]["segments"][-1] == [1.0, math.inf, 1.0]
        assert d.spec_from_dict(doc) == spec

    def test_a_curve_without_a_terminal_rate_stays_tabulated(self):
        curve = TailCurve(grid=(0.0, 1.0, 1.0), values=(0.9, 0.5),
                          terminal=0.4)
        doc = d.spec_to_dict(d.Tabulated(curve=curve))
        assert doc["family"] == "tabulated"
        assert d.spec_from_dict(doc).curve == curve

    @pytest.mark.parametrize("params", [
        {}, {"segments": []}, {"segments": [[0.0, 0.1]]},
        {"segments": [[0.0, 0.1, 1.0], [1.0, 0.5]]},
        {"segments": [[0.0, 0.5, 1.0], [1.0, 0.1, 1.0]]},
        {"segments": [[0.0, 0.1, math.nan]]},
        {"segments": [[0.0, math.nan, 1.0]]},
        {"segments": [[0.0, 0.1, 1.0], [math.inf, 0.5, 1.0]]},
        {"segments": [[0.0, 0.1, 1.0], [2.0, 2.5, 1.0], [1.0, 3.0, 1.0]]}])
    def test_malformed_piecewise_exp(self, params):
        # SpecValidationError is a ValueError; a ragged list raises numpy's
        with pytest.raises((ValueError, KeyError)):
            d.spec_from_dict({"family": "piecewise_exp", "params": params})

    @pytest.mark.parametrize("breakpoints, levels", [
        ([], []), ([0.0, 1.0], []), ([0.0, 1.0], [0.5]),
        ([0.0, 1.0], [0.5, 0.2, 0.0])])
    def test_piecewise_constant_needs_one_level_per_breakpoint(
            self, breakpoints, levels):
        doc = {"family": "piecewise_constant",
               "params": {"breakpoints": breakpoints, "levels": levels}}
        with pytest.raises(d.SpecValidationError,
                           match="need one level per breakpoint"):
            d.spec_from_dict(doc)
