import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from resetkit import distributions as d
from resetkit import mrl
from resetkit import reset_transform as rt

from fixture_laws import (brute_tail_integral, exp_law, levy, pe_mean_only,
                          pw_sixth, sps, two_atom_reset, uniform02, weib)

# frozen oracle values, computed by independent adaptive quadrature
LEVY_DET1_MEAN = 2.6766224636947697
WEIB05_EXP_MEAN_MU1 = 0.8327056412998532
BRANCH_DET_EXP1_L2 = 0.8034995079577224
# levy under a uniform reset law on [0, 2], by scipy.quad split at every
# breakpoint of both laws
LEVY_UNIFORM02_MEAN = 2.88213856072


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
        dead = d.PiecewiseConstantTail(breakpoints=(0.0,), levels=(0.0,),
                                       check_standing=False)
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

    def test_invalid_period(self):
        with pytest.raises(rt.InvalidPeriodError):
            rt.deterministic_reset_tail(exp_law(), -1.0, 1.0)

    def test_single_reset_exponential_invisible(self):
        for reset in (rt.ResetLaw.deterministic(0.3),
                      rt.ResetLaw.exponential(2.0), two_atom_reset()):
            assert rt.single_reset_tail(exp_law(), reset, 1.7) == \
                pytest.approx(math.exp(-1.7), rel=1e-9)

    def test_single_reset_weibull_example(self):
        got = rt.single_reset_tail(weib(0.5), rt.ResetLaw.deterministic(1.0), 2.0)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_single_reset_before_period(self):
        spec = weib(0.5)
        assert rt.single_reset_tail(spec, rt.ResetLaw.deterministic(3.0), 2.0) \
            == pytest.approx(float(spec.tail(2.0)), rel=1e-12)

    def test_single_reset_exp_vs_brute(self):
        # dense Riemann oracle for the one-reset convolution
        spec = weib(2.0)
        mu, t = 1.5, 1.8
        s = np.linspace(0.0, t, 200_001)
        integrand = np.asarray(spec.tail(s)) * np.asarray(spec.tail(t - s)) \
            * mu * np.exp(-mu * s)
        brute = float(spec.tail(t)) * math.exp(-mu * t) \
            + float(np.trapezoid(integrand, s))
        got = rt.single_reset_tail(spec, rt.ResetLaw.exponential(mu), t)
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
            terminal=float(ladder[-1]), mode="log-linear"),
            check_standing=False)

        def f(s):
            return float(spec.tail(s)) * float(spec.tail(t - s)) \
                * float(law.density(s))

        knots = list(grid) + [t]
        want = float(spec.tail(t)) * float(law.tail(t)) + sum(
            quad(f, a, b, epsabs=1e-14, epsrel=1e-13)[0]
            for a, b in zip(knots[:-1], knots[1:]))
        got = rt.single_reset_tail(spec, rt.ResetLaw.general(law), t)
        assert got == pytest.approx(want, rel=0.0, abs=1e-10)

    def test_single_reset_atoms(self):
        spec = weib(2.0)
        t = 2.0
        want = 0.5 * float(spec.tail(0.5)) * float(spec.tail(1.5)) \
            + 0.5 * float(spec.tail(1.5)) * float(spec.tail(0.5))
        assert rt.single_reset_tail(spec, two_atom_reset(), t) == \
            pytest.approx(want, rel=1e-12)


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
        det_like = d.PiecewiseConstantTail(breakpoints=(0.0, 0.7),
                                           levels=(1.0, 0.0),
                                           check_standing=False)
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

    def test_requested_grid_is_respected(self):
        grid = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        curve = rt.reset_tail(exp_law(), rt.ResetLaw.exponential(1.0), grid)
        assert np.asarray(curve.grid) == pytest.approx(grid)


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
        for spec in (weib(0.5), weib(2.0), pe_mean_only(), sps()):
            for mu in (0.5, 1.0, 3.0):
                a = rt.exp_reset_mean(spec, mu)
                b = rt.reset_mean(spec, rt.ResetLaw.exponential(mu))
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
        assert rt.reset_mean(exp_law(), reset) == pytest.approx(1.0, abs=1e-9)

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
        atom = rt.ResetLaw.general(d.PiecewiseConstantTail(
            breakpoints=(0.0, 1.0), levels=(1.0, 0.0), check_standing=False))
        assert rt.reset_mean(levy(), atom) == \
            pytest.approx(LEVY_DET1_MEAN, rel=1e-9)
        for spec in (levy(), pw_sixth()):
            assert rt.reset_mean(spec, atom) == pytest.approx(
                rt.reset_mean(spec, rt.ResetLaw.deterministic(1.0)), rel=1e-12)

    def test_defective_numerator_infinite(self):
        spec = d.Exponential(rate=1.0, defect=0.2)
        reset = rt.ResetLaw.general(
            d.PiecewiseConstantTail(breakpoints=(0.0, 1.0), levels=(1.0, 0.1),
                                    check_standing=False))
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
                                        2, 8.0, n=4096)
        grid = np.asarray(curve.grid)
        closed = np.asarray(rt.branching_deterministic_tail(spec, 1.0, 2, grid))
        assert float(np.max(np.abs(curve.knot_values - closed))) < 1e-10

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
        stuck = d.PiecewiseConstantTail(breakpoints=(0.0, 2.0),
                                        levels=(1.0, 0.0),
                                        check_standing=False)
        with pytest.raises(rt.SeriesNotConvergingError):
            rt.branching_mean_deterministic(stuck, 1.0, 1)
