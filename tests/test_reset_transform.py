import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from resetkit import distributions as d
from resetkit import mrl
from resetkit import reset_transform as rt
from resetkit import simulator as sim

import branching_series_reference as series_ref
import single_reset_quad_reference as single_ref
from fixture_laws import (ALL_LAWS, brute_tail_integral, exp_law, levy,
                          pe_law, pe_mean_only, plateau, pw_finite, pw_sixth,
                          sps, standard_resets, step_law, two_atom_reset,
                          uniform02, weib)
from quad_reference import split_quad

# frozen oracle values, computed by independent adaptive quadrature
LEVY_DET1_MEAN = 2.6766224636947697
WEIB05_EXP_MEAN_MU1 = 0.8327056412998532
BRANCH_DET_EXP1_L2 = 0.8034995079577224
# T uniform on [1, 2] under rate-mu restart at l = 2, mean and tolerance,
# by 30-digit mpmath (the cycles' races in closed form as power series)
DEAD_TIME_L2_MEANS = {1.0: (2.4458216550512287, 1e-13),
                      2.0: (3.9525275528247165, 1e-13),
                      5.0: (30.056258346704672, 1e-11)}
# levy under a uniform reset law on [0, 2], by scipy.quad split at every
# breakpoint of both laws
LEVY_UNIFORM02_MEAN = 2.88213856072
# sps(0.5) under a Levy reset law, by 30-digit mpmath
SPS_LEVY_MEAN = 0.42354351582583194


def _loglinear_law(rng, knots: int) -> d.Tabulated:
    """Log-linear tabulated law with random cell widths and hazards."""
    widths = rng.uniform(0.005, 0.04, knots - 1)
    grid = np.concatenate([[0.0], np.cumsum(widths)])
    ladder = np.exp(-np.cumsum(widths * rng.uniform(0.0, 3.0, knots - 1)))
    return d.Tabulated(curve=d.TailCurve(
        grid=grid, values=np.concatenate([[1.0], ladder[:-1]]),
        terminal=0.0))


class TestResetLaw:
    def test_deterministic_validation(self):
        with pytest.raises(rt.InvalidPeriodError):
            rt.ResetLaw.deterministic(0.0)
        with pytest.raises(rt.InvalidPeriodError):
            rt.ResetLaw.deterministic(math.inf)

    def test_exponential_validation(self):
        with pytest.raises(d.SpecValidationError):
            rt.ResetLaw.exponential(-1.0)

    def test_general_needs_mass_above_zero(self):
        dead = step_law((0.0,), (0.0,), check_standing=False)
        with pytest.raises(d.SpecValidationError):
            rt.ResetLaw.general(dead)

    def test_every_law_is_a_spec(self):
        uniform = uniform02()
        for reset in (rt.ResetLaw.deterministic(1.5),
                      rt.ResetLaw.exponential(2.0),
                      rt.ResetLaw.general(uniform)):
            assert [f.name for f in dataclasses.fields(reset)] == \
                ["kind", "spec"]
            assert isinstance(reset.spec, d.DistributionSpec)
        det = rt.ResetLaw.deterministic(1.5)
        assert (det.period, det.rate) == (1.5, None)
        assert det.atoms() == ((1.5, 1.0),) and not det.has_density
        assert det.tail(np.array([1.4, 1.5])).tolist() == [1.0, 0.0]
        exp = rt.ResetLaw.exponential(2.0)
        assert (exp.period, exp.rate) == (None, 2.0)
        assert exp.atoms() == () and exp.has_density
        gen = rt.ResetLaw.general(uniform)
        assert (gen.period, gen.rate) == (None, None)
        assert gen.spec is uniform

    def test_descriptors(self):
        assert rt.ResetLaw.deterministic(1.0).describe() == "det:1"
        assert rt.ResetLaw.exponential(0.5).describe() == "exp:0.5"

    def test_expect_tail_power(self):
        spec = exp_law()
        assert rt.ResetLaw.deterministic(2.0).expect_tail_power(spec) == \
            pytest.approx(math.exp(-2.0), rel=1e-12)
        # E[tail(R)] for R ~ Exp(mu): mu / (mu + 1)
        assert rt.ResetLaw.exponential(3.0).expect_tail_power(spec) == \
            pytest.approx(0.75, rel=1e-9)
        # two atoms at 0.5 and 1.5 with equal weight
        want = 0.5 * (math.exp(-0.5) + math.exp(-1.5))
        assert two_atom_reset().expect_tail_power(spec) == \
            pytest.approx(want, rel=1e-12)

    def test_expect_tail_power_counts_the_mass_past_the_horizon(self):
        # E[tail(R)] = P(R < T) = 1/2 for two iid continuous times; Lévy's
        # horizon of 1e7 leaves P(R > 1e7) = 1.8e-4 past it
        assert abs(rt.ResetLaw.general(levy()).expect_tail_power(levy())
                   - 0.5) < 1e-13
        for reset in (rt.ResetLaw.general(levy()), rt.ResetLaw.general(sps(0.5))):
            for spec in (levy(), sps(0.5), weib(0.5)):
                q = reset.expect_tail_power(spec)
                assert abs(q + rt.prob_completion_first(spec, reset) - 1.0) < 1e-13

    def test_expect_tail_power_counts_restart_at_infinity(self):
        # R = inf with T = inf restarts the cycle; the sum left out that
        # 0.3 x 0.2 and read q + P(T <= R) = 0.94
        spec = dataclasses.replace(weib(0.5), defect=0.2)
        reset = rt.ResetLaw.general(d.Weibull(shape=1.0, defect=0.3))
        for m in (1.0, 2.0, 3.0):
            q = reset.expect_tail_power(spec, m)
            assert abs(q + rt.prob_completion_first(spec, reset, m) - 1.0) < 1e-13

    def test_no_panel_past_a_horizon_the_reset_law_ends_at(self, monkeypatch):
        # uniform02 ends at its horizon, 2: a panel [2, inf) would integrate
        # a zero density on every power row
        ends, panels = [], rt.panels

        def spy(fn, lo, hi, args=()):
            ends.append(np.asarray(hi).tolist())
            return panels(fn, lo, hi, args=args)
        monkeypatch.setattr(rt, "panels", spy)
        powers = 2.0 ** np.arange(61)
        for reset in (standard_resets()["uniform02"], rt.ResetLaw.exponential(1.0)):
            reset.expect_tail_power(weib(0.5), powers)
        assert ends == [[1.0, 2.0], [rt.ResetLaw.exponential(1.0).horizon(),
                                     math.inf]]


class TestClosedForms:
    def test_deterministic_reset_tail_examples(self):
        assert rt.deterministic_reset_tail(exp_law(), 1.0, 1.5) == \
            pytest.approx(math.exp(-1.5), rel=1e-12)
        assert rt.deterministic_reset_tail(weib(2.0), 1.0, 1.5) == \
            pytest.approx(math.exp(-1.25), rel=1e-12)
        assert rt.deterministic_reset_tail(weib(2.0), 1.0, 1.5) > \
            float(weib(2.0).tail(1.5))
        spec = pe_mean_only()
        assert rt.deterministic_reset_tail(spec, 0.7, 0.0) == \
            pytest.approx(float(spec.tail(0.0)), rel=1e-12)

    def test_deterministic_tails_where_the_law_ends_before_the_period(self):
        # tail(r) = 0: before r the law's own tail, 0 after; it was
        # 0 * -inf = NaN before r, and 5e-324 after it for l >= 2
        spec = step_law((0.0, 0.05), (0.05, 0.0), check_standing=False)
        ts = np.array([0.0, 0.01, 0.1, 0.3])
        for l in (1, 2):
            got = np.asarray(rt.branching_deterministic_tail(spec, 0.2, l, ts))
            np.testing.assert_allclose(got, [0.05, 0.05, 0.0, 0.0], rtol=1e-15,
                                       atol=0.0)

    def test_deterministic_mean_where_the_law_ends_before_the_period(self):
        # tail(r) = 0: the mean is the integral of the tail over [0, r]; for
        # l >= 2 the first term's weight was exp(0 * -inf) = NaN and the
        # series ran until l ** k overflowed
        spec = step_law((0.0, 0.05), (0.05, 0.0), check_standing=False)
        for l in (1, 2, 3):
            assert rt.branching_mean_deterministic(spec, 0.2, l) == \
                pytest.approx(0.0025, rel=1e-12)

    def test_invalid_period(self):
        with pytest.raises(rt.InvalidPeriodError):
            rt.deterministic_reset_tail(exp_law(), -1.0, 1.0)

    def test_single_reset_exponential_invisible(self):
        for reset in (rt.ResetLaw.deterministic(0.3),
                      rt.ResetLaw.exponential(2.0), two_atom_reset()):
            assert rt.single_reset_tail(exp_law(), reset, [1.7]).terminal \
                == pytest.approx(math.exp(-1.7), rel=1e-9)

    def test_single_reset_weibull_example(self):
        got = rt.single_reset_tail(weib(0.5), rt.ResetLaw.deterministic(1.0),
                                   [2.0]).terminal
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_single_reset_before_period(self):
        spec = weib(0.5)
        assert rt.single_reset_tail(spec, rt.ResetLaw.deterministic(3.0),
                                    [2.0]).terminal == pytest.approx(float(spec.tail(2.0)), rel=1e-12)

    def test_single_reset_exp_vs_brute(self):
        # dense Riemann oracle for the one-reset convolution
        spec = weib(2.0)
        mu, t = 1.5, 1.8
        s = np.linspace(0.0, t, 200_001)
        integrand = np.asarray(spec.tail(s)) * np.asarray(spec.tail(t - s)) \
            * mu * np.exp(-mu * s)
        brute = float(spec.tail(t)) * math.exp(-mu * t) \
            + float(np.trapezoid(integrand, s))
        got = rt.single_reset_tail(spec, rt.ResetLaw.exponential(mu),
                                   [t]).terminal
        assert got == pytest.approx(brute, rel=1e-6)

    def test_single_reset_splits_at_reset_knots(self):
        # log-linear reset law whose hazard alternates 0.2 / 2 over 24
        # cells: its density jumps at every knot
        spec, t = weib(0.5), 3.0
        grid = np.linspace(0.0, 2.4, 25)
        hazard = np.where(np.arange(24) % 2 == 0, 0.2, 2.0)
        ladder = np.exp(-np.concatenate([[0.0],
                                         np.cumsum(hazard * np.diff(grid))]))
        law = d.Tabulated(curve=d.TailCurve(
            grid=tuple(grid), values=tuple(ladder[:-1]),
            terminal=float(ladder[-1])),
            check_standing=False)

        def f(s):
            return float(spec.tail(s)) * float(spec.tail(t - s)) \
                * float(law.density(s))

        knots = list(grid) + [t]
        want = float(spec.tail(t)) * float(law.tail(t)) + sum(
            quad(f, a, b, epsabs=1e-14, epsrel=1e-13)[0]
            for a, b in zip(knots[:-1], knots[1:]))
        got = rt.single_reset_tail(spec, rt.ResetLaw.general(law),
                                   [t]).terminal
        assert got == pytest.approx(want, rel=0.0, abs=1e-10)

    def test_single_reset_atoms(self):
        spec = weib(2.0)
        t = 2.0
        want = 0.5 * float(spec.tail(0.5)) * float(spec.tail(1.5)) \
            + 0.5 * float(spec.tail(1.5)) * float(spec.tail(0.5))
        assert rt.single_reset_tail(spec, two_atom_reset(), [t]).terminal \
            == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("t", [-0.5, math.nan, math.inf,
                                   [0.0, 1.0, -1e-300]])
    def test_single_reset_refuses_points_outside_the_half_line(self, t):
        # t = -0.5 gave 1.284 for weib(2) under exp:1
        with pytest.raises(ValueError, match="finite points >= 0"):
            rt.single_reset_tail(weib(2.0), rt.ResetLaw.exponential(1.0), t)

    @pytest.mark.parametrize("reset", standard_resets())
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_single_reset_keeps_the_per_point_bits(self, law, reset):
        # one panels call for all the points, each summed over its own
        # panels, gives the bits of one quad call per point
        spec, grid = ALL_LAWS[law](), np.linspace(0.0, 4.0, 1025)
        curve = rt.single_reset_tail(spec, standard_resets()[reset], grid)
        want = single_ref.single_reset_tails(spec, standard_resets()[reset],
                                             grid)
        np.testing.assert_array_equal(curve.grid, grid)
        np.testing.assert_array_equal(curve.knot_values, want)

    @pytest.mark.parametrize("l", [2, 3])
    @pytest.mark.parametrize("reset", ["exp1", "two_atom"])
    def test_single_reset_races_l_copies_bit_for_bit(self, reset, l):
        spec, grid = plateau(), np.linspace(0.0, 4.0, 65)
        curve = rt.single_reset_tail(spec, standard_resets()[reset], grid, l=l)
        np.testing.assert_array_equal(curve.knot_values,
                                      single_ref.single_reset_tails(
                                          spec, standard_resets()[reset],
                                          grid, l))

    def test_single_reset_races_two_copies(self):
        # the l = 1 tail, 0.46169 at t = 1, was all that --branching 2 gave
        spec, reset, t = weib(2.0), rt.ResetLaw.exponential(1.0), 1.0

        def f(s):
            return float(spec.tail(s)) * float(spec.tail(t - s)) ** 2 \
                * math.exp(-s)

        want = float(spec.tail(t)) * math.exp(-t) + \
            quad(f, 0.0, t, epsabs=1e-14, epsrel=1e-13)[0]
        curve = rt.single_reset_tail(spec, reset, [t], l=2)
        assert want == pytest.approx(0.3638250962, abs=5e-11)
        assert curve.terminal == pytest.approx(want, rel=0.0, abs=1e-13)
        assert 0.0 < curve.err_estimate <= 1e-12


class TestRenewalSolver:
    def test_exponential_fixed_point(self):
        spec = exp_law()
        for reset in (rt.ResetLaw.exponential(0.5),
                      rt.ResetLaw.exponential(2.0),
                      rt.ResetLaw.general(uniform02()),
                      two_atom_reset()):
            curve = rt.solver_reset_tail(spec, reset, 10.0, tol=1e-6)
            grid = np.asarray(curve.grid)
            err = float(np.max(np.abs(curve.knot_values - np.exp(-grid))))
            assert err <= 1e-6, reset.describe()

    def test_deterministic_atom_matches_closed_form(self):
        spec = weib(2.0)
        det_like = step_law((0.0, 0.7), (1.0, 0.0), check_standing=False)
        curve = rt.solver_reset_tail(spec, rt.ResetLaw.general(det_like), 6.0,
                                     tol=1e-6)
        grid = np.asarray(curve.grid)
        closed = np.asarray(rt.deterministic_reset_tail(spec, 0.7, grid))
        assert float(np.max(np.abs(curve.knot_values - closed))) <= 1e-9

    def test_reset_tail_zero_value(self):
        # tail at 0 is preserved when the reset law has no atom at 0
        spec = pe_mean_only()
        curve = rt.reset_tail(spec, rt.ResetLaw.exponential(1.0),
                              np.linspace(0.0, 8.0, 257))
        assert curve.knot_values[0] == pytest.approx(float(spec.tail(0.0)),
                                                     rel=1e-9)

    def test_monotone_output(self):
        for reset in (rt.ResetLaw.exponential(1.0), two_atom_reset()):
            curve = rt.reset_tail(weib(0.5), reset, np.linspace(0.0, 12.0, 401))
            vals = curve.knot_values
            assert np.all(np.diff(vals) <= 0.0)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_dominance_direction(self):
        # supermultiplicative tails only improve; submultiplicative only worsen
        grid = np.linspace(0.0, 10.0, 501)
        for spec, sign in ((weib(0.5), -1.0), (weib(2.0), +1.0)):
            for reset in (rt.ResetLaw.deterministic(1.0),
                          rt.ResetLaw.exponential(1.0),
                          rt.ResetLaw.general(uniform02())):
                curve = rt.reset_tail(spec, reset, grid, tol=1e-7)
                diff = sign * (curve.knot_values - np.asarray(spec.tail(grid)))
                assert np.all(diff >= -5e-7), (spec, reset.describe())

    def test_grid_too_coarse_raises(self):
        with pytest.raises(rt.GridTooCoarseError):
            rt.solver_reset_tail(weib(0.5), rt.ResetLaw.exponential(1.0), 10.0,
                                 tol=1e-14, n0=256, n_max=512)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_tolerance_no_solve_can_meet(self, monkeypatch, tol):
        # nan passed as met (err > nan is False) after the whole ladder;
        # 0 and -1 ran the ladder to 262,144 cells before failing
        monkeypatch.setattr(rt, "_branching_pass", None)
        reset, grid = rt.ResetLaw.exponential(1.0), np.linspace(0.0, 4.0, 9)
        with pytest.raises(ValueError, match="tolerance"):
            rt.reset_tail(weib(2.0), reset, grid, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            rt.solver_reset_tail(weib(2.0), reset, 4.0, tol=tol)

    @pytest.mark.parametrize("grid", [[], [0.0], [0.0, -1.0], [0.0, math.nan],
                                      [0.0, 1.0, math.inf]])
    def test_grid_that_does_not_end_past_zero(self, monkeypatch, grid):
        # the solve divided by a zero or non-finite cell width, warned, and
        # failed as an invalid tail curve; an empty grid raised IndexError
        monkeypatch.setattr(rt, "_branching_pass", None)
        reset = rt.ResetLaw.exponential(1.0)
        with pytest.raises(ValueError, match="grid must end"):
            rt.reset_tail(weib(2.0), reset, grid)
        if grid:
            with pytest.raises(ValueError, match="grid must end"):
                rt.solver_reset_tail(weib(2.0), reset, grid[-1])

    def test_value_inside_a_jump_cell(self):
        # t = 1.00005 shares a solver cell with pw_finite's jump at 1: linear
        # interpolation across the cell read 0.224591; a 2**20-cell solve
        # gives 0.2112879 (first- and second-order schemes alike, to 5e-8)
        curve = rt.reset_tail(pw_finite(), rt.ResetLaw.exponential(1.0),
                              [0.0, 0.9999, 1.00005, 1.0001, 10.0])
        assert abs(curve.knot_values[2] - 0.2112879) <= 2e-5

    def test_uniform_grid_starts_on_a_multiple_of_its_cells(self):
        reset = rt.ResetLaw.exponential(1.0)
        # 999 cells: 9,990 doubles four times within 262,144, to 159,840
        assert rt._node_start(reset, np.linspace(0.0, 3.0, 1000), 8192,
                              262144) == (9990, 159840)
        assert rt._node_start(reset, np.linspace(0.0, 3.0, 101), 100,
                              4096) == (300, 2400)
        # n0 a multiple already, not uniform, past n_max, or a reset atom
        # sets the grid: n0 and n_max stay
        for grid in (np.linspace(0.0, 3.0, 1025),
                     np.r_[0.0, np.geomspace(0.1, 3.0, 99)],
                     np.linspace(0.0, 3.0, 300000)):
            assert rt._node_start(reset, grid, 8192, 262144) == (8192, 262144)
        assert rt._node_start(two_atom_reset(), np.linspace(0.0, 3.0, 1000),
                              8192, 262144) == (8192, 262144)

    def test_uniform_grid_solves_within_n_max(self, monkeypatch):
        # 100 cells start at 300 and stop at 2,400, a rung below n0's last
        # (4,096); missing the tolerance there, the solve runs again from n0,
        # and no solve is ever larger than n_max
        sizes = []
        solve = rt._branching_pass

        def record(spec, reset, l, depth, upper, n):
            sizes.append(n)
            return solve(spec, reset, l, depth, upper, n)
        monkeypatch.setattr(rt, "_branching_pass", record)
        with pytest.raises(rt.GridTooCoarseError):
            rt.reset_tail(weib(0.5), rt.ResetLaw.exponential(1.0),
                          np.linspace(0.0, 10.0, 101), tol=1e-14, n0=256,
                          n_max=4096)
        assert sizes == [150, 300, 600, 1200, 2400,
                         128, 256, 512, 1024, 2048, 4096]

    def test_snapped_grid_solves_within_n_max(self, monkeypatch):
        # an atom at 0.5 snaps the first count to 4,102 cells (8,204 with
        # the coarse pass), whose doublings miss n_max = 32,768: the ladder
        # stops at 16,408 rather than going on to 32,816
        sizes = []
        solve = rt._branching_pass

        def record(spec, reset, l, depth, upper, n):
            sizes.append(n)
            return solve(spec, reset, l, depth, upper, n)
        monkeypatch.setattr(rt, "_branching_pass", record)
        reset = rt.ResetLaw.general(pe_law(((0.0, 0.0, 1.0),
                                            (0.5, 1.2, 1.0))))
        with pytest.raises(rt.GridTooCoarseError):
            rt.solver_reset_tail(weib(0.5), reset, 7.0, tol=1e-15,
                                 n_max=32768)
        assert sizes == [4102, 8204, 16408]

    def test_requested_grid_is_respected(self):
        grid = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        curve = rt.reset_tail(exp_law(), rt.ResetLaw.exponential(1.0), grid)
        assert np.asarray(curve.grid) == pytest.approx(grid)


def record_passes(monkeypatch) -> list[int]:
    """The cell count of every ``_branching_pass`` call, as they happen."""
    sizes, solve = [], rt._branching_pass

    def record(spec, reset, l, depth, upper, n):
        sizes.append(n)
        return solve(spec, reset, l, depth, upper, n)
    monkeypatch.setattr(rt, "_branching_pass", record)
    return sizes


class TestHorizonCut:
    """Past its first rung, the ladder solves only [0, T_c], where the
    restarted tail exceeds 1e-3 tol."""

    @pytest.mark.parametrize("l", [1, 2])
    def test_values_before_the_cut_are_the_full_horizons(self, l):
        # weib(0.5) under exp:1 to 429 ends at the cell width of 262,144
        # cells on the whole horizon; the restarted tail is below 1e-9 by
        # t ~ 26 (l = 1) or ~ 17 (l = 2)
        spec, reset, upper = weib(0.5), rt.ResetLaw.exponential(1.0), 429.0
        curve = rt.solver_reset_tail(spec, reset, upper, l=l)
        n, full_n = curve.grid.size - 1, 262144
        assert curve.grid[-1] < 30.0
        assert curve.grid[1] == pytest.approx(upper / full_n, rel=1e-14)
        depth = rt._cycle_reach(spec, reset, l, 1e-6)[0] if l > 1 else 0
        full = np.minimum.accumulate(np.clip(rt._branching_pass(
            spec, reset, l, depth, upper, full_n), 0.0, 1.0))
        np.testing.assert_allclose(curve.knot_values, full[:n + 1],
                                   rtol=0.0, atol=1e-15)
        past = np.arange(n, full_n + 1) * (upper / full_n)
        assert np.max(np.abs(curve(past) - full[n:])) <= curve.err_estimate
        assert curve.terminal_rate > 0.0
        assert curve.terminal <= 1e-9

    @pytest.mark.parametrize("l", [1, 2])
    def test_later_rungs_solve_an_eighth_of_the_cells(self, monkeypatch, l):
        # on the whole horizon the rungs solved 16,384 cells up to 262,144
        sizes = record_passes(monkeypatch)
        rt.solver_reset_tail(weib(0.5), rt.ResetLaw.exponential(1.0), 429.0,
                             l=l)
        assert sizes[:2] == [4096, 8192] and len(sizes) >= 6
        for k, n in enumerate(sizes[2:]):
            assert 8 * n <= 16384 << k

    def test_a_tail_above_the_level_is_not_cut(self, monkeypatch):
        # to t = 10 at tol 1e-7 the ladder doubles once, but the tail is
        # still 2.5e-4 at t = 10: the solve is the whole horizon's, bit for bit
        spec, reset = weib(0.5), rt.ResetLaw.exponential(1.0)
        coarse, fine = (rt._branching_pass(spec, reset, 1, 0, 10.0, n)
                        for n in (8192, 16384))
        sizes = record_passes(monkeypatch)
        curve = rt.solver_reset_tail(spec, reset, 10.0, tol=1e-7)
        assert sizes == [4096, 8192, 16384]
        want = np.minimum.accumulate(np.clip(fine, 0.0, 1.0))
        assert curve.knot_values.tobytes() == want.tobytes()
        assert curve.err_estimate == np.max(np.abs(fine[::2] - coarse)) / 3.0
        assert curve.terminal_rate == 0.0
        assert curve.terminal == pytest.approx(2.5e-4, rel=0.05)

    def test_points_past_the_cut_take_the_terminal_piece(self):
        # np.interp held y(T_c) flat to 429, 1e-9 above a tail that falls
        # geometrically
        spec, reset = weib(0.5), rt.ResetLaw.exponential(1.0)
        t = np.linspace(0.0, 429.0, 513)
        curve = rt.reset_tail(spec, reset, t)
        solved = rt.solver_reset_tail(spec, reset, 429.0)
        past = t > solved.grid[-1]
        assert past.sum() > 400
        np.testing.assert_array_equal(curve.knot_values[past], solved(t[past]))
        assert curve.knot_values[-1] < 1e-100


class TestMeans:
    def test_exponential_invariance(self):
        spec = exp_law(2.0)
        for reset in (rt.ResetLaw.deterministic(0.25),
                      rt.ResetLaw.exponential(1.0),
                      rt.ResetLaw.general(uniform02()), two_atom_reset()):
            assert rt.reset_mean(spec, reset) == pytest.approx(0.5, rel=1e-8)

    def test_deterministic_formula(self):
        spec = weib(0.5)
        for r in (0.3, 1.0, 4.0):
            brute = brute_tail_integral(spec, 0.0, r) / float(d.cdf(spec, r))
            assert rt.reset_mean(spec, rt.ResetLaw.deterministic(r)) == \
                pytest.approx(brute, rel=1e-6)

    def test_levy_deterministic_frozen(self):
        got = rt.reset_mean(levy(), rt.ResetLaw.deterministic(1.0))
        assert got == pytest.approx(LEVY_DET1_MEAN, rel=1e-9)

    def test_exp_reset_mean_matches_general_path(self):
        # the exponential law as a general reset law: reset_mean under
        # ResetLaw.exponential is exp_reset_mean itself
        for spec in (weib(0.5), weib(2.0), pe_mean_only(), sps()):
            for mu in (0.5, 1.0, 3.0):
                a = rt.exp_reset_mean(spec, mu)
                b = rt.reset_mean(spec, rt.ResetLaw.general(
                    d.Exponential(rate=mu)))
                assert a == pytest.approx(b, rel=1e-8)

    def test_weib05_exp_mean_frozen(self):
        got = rt.exp_reset_mean(weib(0.5), 1.0)
        assert got == pytest.approx(WEIB05_EXP_MEAN_MU1, rel=1e-9)
        assert got < d.mean(weib(0.5)) == 2.0

    def test_reset_density_split_at_its_knots(self):
        # a from_mrl reset density jumps at its knots; integrated across
        # them, P(T <= R) was off and this mean came out as 0.99999348
        reset = rt.ResetLaw.general(mrl.law_from_mrl(mrl.MrlCurve(
            grid=(0.0, 0.12276769856301466, 1.0931967734732009,
                  1.5429660758738368, 2.048259634983198),
            values=(1.231739770011757, 1.2501305985172053,
                    0.3767444310980377, 1.2945392721254323,
                    1.70380825568104))))
        assert rt.reset_mean(exp_law(), reset) == pytest.approx(1.0, abs=1e-14)

    def test_bounded_reset_law_with_infinite_mean(self):
        # past the reset law's support the truncation bound of E[T ^ R] is
        # 0 * inf; it counts as 0, where it made these means inf
        uniform = rt.ResetLaw.general(uniform02())
        assert rt.reset_mean(levy(), uniform) == \
            pytest.approx(LEVY_UNIFORM02_MEAN, rel=1e-9)
        # pw_sixth keeps 1/6 of its mass at infinity; exact value 83/124
        assert rt.reset_mean(pw_sixth(), uniform) == \
            pytest.approx(83.0 / 124.0, rel=1e-12)

    def test_general_one_atom_law_matches_deterministic(self):
        atom = rt.ResetLaw.general(step_law((0.0, 1.0), (1.0, 0.0),
                                            check_standing=False))
        assert rt.reset_mean(levy(), atom) == \
            pytest.approx(LEVY_DET1_MEAN, rel=1e-9)
        for spec in (levy(), pw_sixth()):
            assert rt.reset_mean(spec, atom) == pytest.approx(
                rt.reset_mean(spec, rt.ResetLaw.deterministic(1.0)), rel=1e-12)

    @pytest.mark.parametrize("make_reset", [
        # the fourth reset law the benchmark's criterion-7 jobs draw for
        # weibull(0.5): reset_mean was a relative 1.3e-8 off
        lambda: mrl.law_from_mrl(mrl.MrlCurve(
            grid=(0.0, 1.5025375264806287, 2.035129868677092,
                  2.381360878049777, 2.4795075519706433),
            values=(1.542793635875053, 1.4696609215643697,
                    1.2301181696976144, 0.918510261262198,
                    0.8301782547334182))),
        # a 250-knot log-linear law: 2.7e-7 off, E[T ^ R] being split at
        # T's breakpoints only
        lambda: _loglinear_law(np.random.default_rng(8), 250),
    ], ids=["from_mrl", "loglinear250"])
    def test_weib05_under_knotted_laws_matches_split_quadrature(
            self, make_reset):
        # E[T ^ R] and P(T <= R) by scipy.quad split at the reset law's knots
        spec = weib(0.5)
        reset = rt.ResetLaw.general(make_reset())
        knots = reset.spec.tail_breakpoints()

        def split(fn):
            return split_quad(lambda s: float(fn(s)), 0.0, 200.0, knots,
                              epsabs=1e-14, epsrel=1e-13)[0]

        e_min = split(lambda s: spec.tail(s) * reset.tail(s))
        p_stop = 1.0 - split(lambda s: spec.tail(s) * reset.density(s))
        assert rt.reset_mean(spec, reset) == pytest.approx(e_min / p_stop,
                                                           rel=1e-13)

    @pytest.mark.parametrize("r", [1e-5, 1e-7])
    def test_weib2_mean_at_a_short_period(self, r):
        # P(T <= R) came from 1 - E[tail(R)]: 8.3e-8 and 8.0e-4 relative
        # off under the one-atom law, and through the branching mean
        spec = weib(2.0)
        want = math.sqrt(math.pi) / 2.0 * math.erf(r) / -math.expm1(-r * r)
        atom = rt.ResetLaw.general(step_law((0.0, r), (1.0, 0.0),
                                            check_standing=False))
        for got in (rt.reset_mean(spec, rt.ResetLaw.deterministic(r)),
                    rt.reset_mean(spec, atom),
                    rt.branching_mean_deterministic(spec, r, 1)):
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("reset", [
        lambda: rt.ResetLaw.deterministic(1.0),
        lambda: rt.ResetLaw.general(uniform02())], ids=["det1", "uniform02"])
    def test_mean_refused_where_restart_cannot_finish(self, reset):
        stuck = step_law((0.0, 2.0), (1.0, 0.0), check_standing=False)
        with pytest.raises(d.SpecValidationError,
                           match=r"restart never lets the run finish: "
                                 r"P\(T <= R\) = 0"):
            rt.reset_mean(stuck, reset())

    def test_reset_law_with_mass_at_infinity(self):
        # a run the reset law never stops lasts T: exp(1) keeps its mean,
        # and a law of infinite mean has none; a race that stops at the
        # reset law's horizon read 0.961 for exp(1)
        reset = rt.ResetLaw.general(step_law((0.0, 1.0), (1.0, 0.1),
                                             check_standing=False))
        assert rt.reset_mean(levy(), reset) == math.inf
        assert rt.reset_mean(pw_sixth(), reset) == math.inf
        assert rt.reset_mean(exp_law(), reset) == pytest.approx(1.0, abs=1e-14)

    def test_minimum_of_infinite_mean(self):
        # T ^ R has the product of the tails: two Levy tails make 1/t, whose
        # integral diverges, where its quadrature to inf read 453.9; a
        # defective law and a Levy reset law read 5.6e76
        reset = rt.ResetLaw.general(levy())
        assert rt.reset_mean(levy(), reset) == math.inf
        assert rt.reset_mean(pw_sixth(), reset) == math.inf
        # Levy's t**-1/2 times t**-2 converges; the doubling to a bound
        # on the rest was 5.8e-11 off
        assert rt.reset_mean(sps(), reset) == \
            pytest.approx(SPS_LEVY_MEAN, rel=1e-12)

    @pytest.mark.parametrize("curve", [
        # m0 < m(0): an atom at 0 of mass 1/2
        mrl.MrlCurve(grid=(0.0, 1.0), values=(1.0, 0.5), m0=0.5),
        # terminal slope -1: an atom at the support end, 2.5
        mrl.MrlCurve(grid=(0.0, 1.0), values=(1.5, 1.5), terminal="linear",
                     terminal_slope=-1.0),
    ])
    def test_exponential_invariant_under_from_mrl_atoms(self, curve):
        # restart leaves exp(1) invariant; with the atoms of these reset
        # laws missing, reset_mean was 0.362 and reset_tail 0.5 off
        reset = rt.ResetLaw.general(mrl.law_from_mrl(curve))
        assert rt.reset_mean(exp_law(), reset) == pytest.approx(1.0,
                                                                rel=1e-9)
        grid = np.linspace(0.0, 8.0, 81)
        got = rt.reset_tail(exp_law(), reset, grid).knot_values
        np.testing.assert_allclose(got, np.exp(-grid), atol=1e-6)

    def test_defective_numerator_infinite(self):
        spec = d.Exponential(rate=1.0, defect=0.2)
        reset = rt.ResetLaw.general(
            step_law((0.0, 1.0), (1.0, 0.1), check_standing=False))
        assert rt.reset_mean(spec, reset) == np.inf

    def test_laplace_tail(self):
        assert rt.laplace_tail(exp_law(3.0), 2.0) == pytest.approx(0.2,
                                                                   rel=1e-12)
        assert rt.laplace_tail(weib(1.0), 1.0) == pytest.approx(0.5, rel=1e-10)
        # transform relation: E[exp(-mu T)] = 1 - mu * laplace_tail
        spec = weib(0.5)
        mu = 0.7
        s = np.geomspace(1e-9, 200.0, 400_001)
        brute = float(np.trapezoid(np.exp(-mu * s) * np.asarray(spec.tail(s)),
                                   s))
        assert rt.laplace_tail(spec, mu) == pytest.approx(brute, rel=1e-6)


class TestBranching:
    def test_l1_reduces_to_plain(self):
        spec = weib(2.0)
        ts = np.linspace(0.0, 5.0, 101)
        np.testing.assert_allclose(
            np.asarray(rt.branching_deterministic_tail(spec, 1.0, 1, ts)),
            np.asarray(rt.deterministic_reset_tail(spec, 1.0, ts)), rtol=1e-12)

    def test_branching_tail_example(self):
        got = rt.branching_deterministic_tail(exp_law(), 1.0, 2, 1.5)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert got < math.exp(-1.5)

    def test_branching_tail_before_first_reset(self):
        spec = weib(0.5)
        assert rt.branching_deterministic_tail(spec, 2.0, 3, 1.1) == \
            pytest.approx(float(spec.tail(1.1)), rel=1e-12)

    def test_branching_mean_det_frozen_series(self):
        got = rt.branching_mean_deterministic(exp_law(), 1.0, 2)
        assert got == pytest.approx(BRANCH_DET_EXP1_L2, rel=1e-10)

    def test_branching_mean_det_l1_consistency(self):
        for spec in (exp_law(), weib(0.5), pe_mean_only()):
            for r in (0.5, 1.5):
                series = rt.branching_mean_deterministic(spec, r, 1)
                direct = rt.reset_mean(spec, rt.ResetLaw.deterministic(r))
                assert series == pytest.approx(direct, rel=1e-8)

    def test_branching_mean_exp_l1_consistency(self):
        for spec in (exp_law(), weib(0.5), sps()):
            for mu in (0.5, 2.0):
                series = rt.branching_mean_exponential(spec, mu, 1)
                assert series == pytest.approx(rt.exp_reset_mean(spec, mu),
                                               rel=1e-8)

    def test_exponential_invariance_l1(self):
        assert rt.branching_mean_exponential(exp_law(), 1.3, 1) == \
            pytest.approx(1.0, rel=1e-8)
        assert rt.branching_mean_deterministic(exp_law(), 0.8, 1) == \
            pytest.approx(1.0, rel=1e-8)

    def test_more_branching_shrinks_means(self):
        spec = weib(0.5)
        means_exp = [rt.branching_mean_exponential(spec, 1.0, l)
                     for l in (1, 2, 3)]
        assert means_exp[0] > means_exp[1] > means_exp[2]
        means_det = [rt.branching_mean_deterministic(spec, 1.0, l)
                     for l in (1, 2, 3)]
        assert means_det[0] > means_det[1] > means_det[2]

    def test_branching_solver_matches_closed_form(self):
        spec = weib(0.5)
        curve = rt.branching_reset_tail(spec, rt.ResetLaw.deterministic(1.0),
                                        2, 8.0)
        grid = np.asarray(curve.grid)
        closed = np.asarray(rt.branching_deterministic_tail(spec, 1.0, 2, grid))
        assert float(np.max(np.abs(curve.knot_values - closed))) < 1e-10

    @pytest.mark.parametrize("l", [2, 3])
    def test_branching_solver_exact_under_one_atom_law(self, l):
        # the solver's grid holds the atom, so the recursion is exact at
        # the knots; the first-order pass interpolated the atom shifts and
        # was 1e-3 off next to each restart epoch
        spec = weib(0.5)
        reset = rt.ResetLaw.general(step_law((0.0, 1.0), (1.0, 0.0),
                                             check_standing=False))
        curve = rt.branching_reset_tail(spec, reset, l, 10.0)
        closed = rt.branching_deterministic_tail(spec, 1.0, l, curve.grid)
        assert float(np.max(np.abs(curve.knot_values - closed))) <= 1e-12

    def test_branching_tail_past_finite_support(self):
        # at depth 0 the law's own tail enters to the power 0, which is 1
        # also where the tail is 0; it used to give 0 * -inf = NaN there
        spec, mu = uniform02(), 1.0
        curve = rt.branching_reset_tail(spec, rt.ResetLaw.exponential(mu), 2,
                                        30.0)
        vals = curve.knot_values
        assert not np.any(np.isnan(vals))
        mean = float(np.trapezoid(vals, np.asarray(curve.grid)))
        assert mean == pytest.approx(rt.branching_mean_exponential(spec, mu, 2),
                                     rel=1e-4)

    def test_branching_factor_validation(self):
        with pytest.raises(ValueError):
            rt.branching_mean_deterministic(exp_law(), 1.0, 0)
        with pytest.raises(ValueError):
            rt.branching_deterministic_tail(exp_law(), 1.0, 1.5, 1.0)

    def test_series_guard_when_restart_cannot_finish(self):
        # a carrier whose tail is still 1 at the restart period
        stuck = step_law((0.0, 2.0), (1.0, 0.0), check_standing=False)
        with pytest.raises(rt.SeriesNotConvergingError):
            rt.branching_mean_deterministic(stuck, 1.0, 1)

    def test_boolean_branching_factor_is_rejected(self):
        # bool is an int subclass: True used to run as l = 1
        spec = exp_law()
        with pytest.raises(ValueError, match="branching factor"):
            rt.branching_mean_deterministic(spec, 1.0, True)
        with pytest.raises(ValueError, match="branching factor"):
            rt.branching_mean_exponential(spec, 1.0, True)
        with pytest.raises(ValueError, match="branching factor"):
            rt.solver_reset_tail(spec, rt.ResetLaw.exponential(1.0), 4.0,
                                 l=True)
        with pytest.raises(ValueError, match="branching factor"):
            sim.simulate_branching(spec, rt.ResetLaw.exponential(1.0), True,
                                   sim.SimulationConfig(replicates=10))

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("l", [1, 2])
    def test_restart_rate_validation(self, mu, l):
        # checked once, by ResetLaw.exponential; at rate inf and l = 1 the
        # mean used to come out as NaN
        with pytest.raises(d.SpecValidationError, match="restart rate"):
            rt.branching_mean_exponential(exp_law(), mu, l)

    def test_series_guard_under_branching(self):
        # every cycle ends in a restart; the per-term loop ran until l**k
        # overflowed
        stuck = step_law((0.0, 2.0), (1.0, 0.0), check_standing=False)
        with pytest.raises(rt.SeriesNotConvergingError):
            rt.branching_mean_deterministic(stuck, 1.0, 2)

    @pytest.mark.parametrize("mu", sorted(DEAD_TIME_L2_MEANS))
    def test_branching_mean_past_a_dead_time(self, mu):
        # every race takes at least the dead time [0, 1), so cycles past
        # the series' depth add a geometric remainder; the per-term loop
        # was 5.5e-13 and 8e-13 off at rates 1 and 2 and overflowed at 5
        spec = mrl.law_from_mrl(mrl.MrlCurve(
            grid=(0.0, 1.0), values=(1.5, 0.5), terminal="linear",
            terminal_slope=-0.5))
        want, rel = DEAD_TIME_L2_MEANS[mu]
        assert rt.branching_mean_exponential(spec, mu, 2) == \
            pytest.approx(want, rel=rel)

    def test_branching_tail_past_a_dead_time_integrates_to_the_mean(self):
        # cycle 60 is reached with probability 0.68: the solve refused; its
        # last cycle now repeats itself, as the mean's remainder does
        spec = mrl.law_from_mrl(mrl.MrlCurve(
            grid=(0.0, 1.0), values=(1.5, 0.5), terminal="linear",
            terminal_slope=-0.5))
        upper = 400.0  # 13 means: the tail's integral past it is ~5e-5
        curve = rt.solver_reset_tail(spec, rt.ResetLaw.exponential(5.0),
                                     upper, l=2, tol=3e-4)
        grid, vals = np.asarray(curve.grid), curve.knot_values
        mean = float(np.trapezoid(vals, grid))
        quad_err = abs(mean - float(np.trapezoid(vals[::2], grid[::2])))
        assert mean == pytest.approx(DEAD_TIME_L2_MEANS[5.0][0],
                                     abs=curve.err_estimate * upper + quad_err)

    @pytest.mark.parametrize("name", ["exp1", "weib05", "weib2", "sps05",
                                      "pw_finite", "pe_mean_only",
                                      "uniform02", "levy"])
    @pytest.mark.parametrize("l", [2, 3])
    def test_branching_means_match_the_per_term_loops(self, name, l):
        spec = ALL_LAWS[name]()
        for r in (0.2, 0.5, 1.0, 2.0):
            assert rt.branching_mean_deterministic(spec, r, l) == \
                pytest.approx(series_ref.branching_mean_deterministic(
                    spec, r, l), rel=1e-11)
        for mu in (0.5, 1.0, 3.0):
            assert rt.branching_mean_exponential(spec, mu, l) == \
                pytest.approx(series_ref.branching_mean_exponential(
                    spec, mu, l), rel=1e-11)
