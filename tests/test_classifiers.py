import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from resetkit import classifiers as cls
from resetkit import distributions as d
from resetkit import mrl
from resetkit import reset_transform as rt
from resetkit import simulator as sim
from resetkit._integrate import gl_panel

from fixture_laws import (ALL_LAWS, exp_law, levy, pe_mean_only, plateau,
                          pw_finite, pw_sixth, sps, standard_resets,
                          uniform02, weib)
from quad_reference import split_quad

NO_BIGGER = ("no_bigger_reset", "no_bigger_exp_reset", "no_bigger_mean",
             "no_bigger_exp_mean")
NO_SMALLER = ("no_smaller_reset", "no_smaller_exp_reset", "no_smaller_mean",
              "no_smaller_exp_mean")


class TestMultiplicativity:
    def test_exponential_is_multiplicative(self):
        for lam in (0.3, 1.0, 2.0):
            v = cls.check_supermultiplicative(exp_law(lam))["invariant"]
            assert v.holds and abs(v.margin) <= 1e-9

    def test_weibull_super_iff_shape_below_one(self):
        assert cls.check_supermultiplicative(weib(0.5))["no_bigger"].holds
        v = cls.check_supermultiplicative(weib(1.5))["no_bigger"]
        assert v.fails
        x, y = v.witness
        assert abs(x - y) < max(x, y)  # worst violation sits near x == y

    def test_every_nonexponential_fixture_fails_multiplicativity(self):
        for name, make in ALL_LAWS.items():
            if name == "exp1":
                continue
            v = cls.check_supermultiplicative(make())["invariant"]
            assert v.fails and abs(v.margin) > 1e-8, name

    def test_plateau_example(self):
        # fails on the diagonal x + y == 1 while the shifted family holds
        spec = plateau()
        v = cls.check_supermultiplicative(spec)["no_bigger"]
        assert v.fails
        x, y = v.witness
        assert x + y == pytest.approx(1.0, abs=0.25)
        us = np.linspace(0.0, 6.0, 601)
        lhs = np.asarray(spec.log_tail(us)) + float(spec.log_tail(1.0))
        rhs = np.asarray(spec.log_tail(1.0 + us))
        assert np.all(lhs <= rhs + 1e-12)

    def test_brute_force_pair_oracle(self):
        # dense independent scan agrees with the verdict margins
        spec = pw_sixth()
        xs = np.linspace(0.0, 4.0, 161)
        worst = np.inf
        tail = np.asarray(spec.tail(xs))
        for i, x in enumerate(xs):
            lhs = tail[i] * tail
            rhs = np.asarray(spec.tail(x + xs))
            worst = min(worst, float(np.min(np.log(rhs) - np.log(lhs))))
        v = cls.check_supermultiplicative(spec)["no_bigger"]
        assert v.fails
        assert v.margin <= worst + 1e-9


class TestExpResetCondition:
    def test_exponential_equality(self):
        v = cls.check_exp_reset_condition(exp_law(1.7))["invariant"]
        assert v.holds and abs(v.margin) <= 1e-9

    def test_step_example_holds_while_supermult_fails(self):
        spec = pw_sixth()
        assert cls.check_exp_reset_condition(spec)["no_bigger"].holds
        assert cls.check_supermultiplicative(spec)["no_bigger"].fails

    def test_ratio_against_brute_riemann(self):
        spec = pw_sixth()
        for t in (0.5, 1.2, 1.5, 2.0, 3.7):
            u = np.linspace(0.0, t, 400_001)
            f = np.asarray(spec.tail(u)) * np.asarray(spec.tail(t - u))
            brute = float(np.trapezoid(f, u)) / (t * float(spec.tail(t)))
            got = cls._exp_reset_ratios(spec, [t], (1,))[0, 0]
            assert got == pytest.approx(brute, rel=5e-4), t

    def test_weibull_lfold_condition(self):
        assert cls.check_exp_reset_condition(weib(0.5), l=2)["no_bigger"].holds
        assert cls.check_exp_reset_condition(weib(1.5), l=2)["no_bigger"].fails
        # the k just above 1 failures appear only at very large times
        v = cls.check_exp_reset_condition(weib(1.1), l=3)["no_bigger"]
        assert v.fails
        assert v.witness[0] > 1e3

    def test_mean_only_example_fails_dominance(self):
        v = cls.check_exp_reset_condition(pe_mean_only())["no_bigger"]
        assert v.fails
        assert v.witness[0] == pytest.approx(1.0, abs=0.05)

    def test_compact_support_fails(self):
        assert cls.check_exp_reset_condition(uniform02())["no_bigger"].fails

    def test_branching_reports_only_no_bigger(self):
        # no_smaller and invariant are defined for l = 1 only
        verdicts = cls.check_exp_reset_condition(exp_law(), l=2)
        assert set(verdicts) == {"no_bigger"}

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_grid_point_rejected(self, bad):
        # inf was judged with witness (inf,); NaN was dropped silently
        with pytest.raises(ValueError, match="finite"):
            cls.check_exp_reset_condition(exp_law(), t_grid=[1.0, bad])

    def test_grid_without_positive_point_is_undefined(self):
        for l in (1, 2):
            verdicts = cls.check_exp_reset_condition(exp_law(), t_grid=[0.0],
                                                     l=l)
            assert {v.status for v in verdicts.values()} == {"undefined"}


class TestMeanConditions:
    def test_exponential_invariant(self):
        v = cls.check_mean_conditions(exp_law())["invariant"]
        assert v.holds

    def test_mean_only_example_holds(self):
        v = cls.check_mean_conditions(pe_mean_only())["no_bigger"]
        assert v.holds

    def test_weibull_directions(self):
        assert cls.check_mean_conditions(weib(0.5))["no_bigger"].holds
        assert cls.check_mean_conditions(weib(0.5))["no_smaller"].fails
        assert cls.check_mean_conditions(weib(2.0))["no_smaller"].holds

    def test_tail_below_one_blocks_no_smaller(self):
        v = cls.check_mean_conditions(pw_finite())["no_smaller"]
        assert v.fails
        assert "tail(0) < 1" in v.note

    def test_infinite_mean_undefined(self):
        v = cls.check_mean_conditions(levy())["no_bigger"]
        assert v.status == "undefined"
        assert "m0=inf" in v.note

    def test_normalized_pareto_square_holds_in_mean(self):
        # with tail k^2/(t+k)^2 the residual mean t+k always exceeds m0=k
        v = cls.check_mean_conditions(sps(0.5))["no_bigger"]
        assert v.holds


class TestExpMeanCondition:
    def test_exponential_equality_every_rate(self):
        verdicts, margins = cls.check_exp_mean_condition(exp_law())
        assert verdicts["invariant"].holds
        assert all(abs(m) <= 1e-9 for m in margins.values())

    def test_weibull_heavy_holds(self):
        verdicts, _ = cls.check_exp_mean_condition(weib(0.5))
        assert verdicts["no_bigger"].holds

    def test_normalized_pareto_square_holds(self):
        # the normalized law is supermultiplicative, so this must hold
        verdicts, margins = cls.check_exp_mean_condition(sps(0.5))
        assert verdicts["no_bigger"].holds
        assert all(m > 0 for m in margins.values())

    def test_formal_profile_fails_all_rates(self):
        # residual-mean profile t + k with declared mean 1/k: the worked
        # failure case; no actual law realizes this pair
        k = 0.5
        for mu in (0.1, 0.5, 1.0, 5.0):
            margin = cls.exp_mean_margin_from_curve(lambda t: t + k, 1.0 / k,
                                                    mu)
            assert margin < -1e-3, mu

    def test_formal_profile_matches_closed_form(self):
        # for m = t + k the inner integral is log((t+k)/k), so the left side
        # is k * exp(mu k) * E1(mu k)
        from scipy.special import exp1
        k, mu = 0.5, 1.0
        lhs = k * math.exp(mu * k) * float(exp1(mu * k))
        rhs = 1.0 / (k + mu)
        want = (lhs - rhs) / rhs
        got = cls.exp_mean_margin_from_curve(lambda t: t + k, 1.0 / k, mu)
        assert got == pytest.approx(want, abs=1e-12)

    def test_finite_support_end_matches_closed_form(self):
        # T uniform on [0, 2]: the left side is 1/mu - 1/mu**2 + (1 -
        # exp(-2 mu)) / (2 mu**3) against 1 / (1 + mu); the panels missed
        # the kink at the support end and were up to 2.1e-6 off
        _, margins = cls.check_exp_mean_condition(uniform02())
        for mu, got in margins.items():
            lhs = 1.0 / mu - 1.0 / mu**2 - math.expm1(-2.0 * mu) / (2.0 * mu**3)
            want = lhs * (1.0 + mu) - 1.0
            assert got == pytest.approx(want, abs=1e-12), mu

    def test_margins_are_the_restarted_mean_against_m0(self):
        # margin >= 0 exactly when exp_reset_mean(spec, mu) <= m0; the
        # margin is (m0 - L (1 + mu m0)) / (mu m0**2), L the Laplace tail
        for name, make in ALL_LAWS.items():
            spec = make()
            m0 = d.mean(spec)
            if not math.isfinite(m0):
                continue
            _, margins = cls.check_exp_mean_condition(spec)
            assert tuple(margins) == cls.ClassifyConfig.mu_grid, name
            for mu, got in margins.items():
                mean = rt.exp_reset_mean(spec, mu)
                want = (m0 - mean) / (mu * m0 * m0 * (1.0 + mu * mean))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15), \
                    (name, mu)

    def test_no_rates_undefined(self):
        verdicts, margins = cls.check_exp_mean_condition(weib(0.5), ())
        assert margins == {}
        assert all(v.status == "undefined" for v in verdicts.values())

    def test_infinite_mean_undefined(self):
        verdicts, margins = cls.check_exp_mean_condition(levy())
        assert verdicts["no_bigger"].status == "undefined"
        assert all(math.isnan(m) for m in margins.values())


class TestSecondOrder:
    def test_exponential_equality(self):
        v = cls.check_second_order(exp_law())
        assert v.holds and "equality" in v.note

    def test_sps_trivially_met(self):
        v = cls.check_second_order(sps(0.5))
        assert v.holds and "infinite" in v.note

    def test_weibull_iff_shape_below_one(self):
        assert cls.check_second_order(weib(0.5)).holds
        assert "strict" in cls.check_second_order(weib(0.5)).note
        assert cls.check_second_order(weib(1.5)).fails


class TestLfold:
    def test_weibull_lfold_pointwise(self):
        v = cls.check_supermultiplicative(weib(0.5), l=2)
        assert v["no_bigger"].holds and v["invariant"].fails
        v = cls.check_supermultiplicative(weib(1.5), l=2)
        assert v["no_bigger"].fails and v["invariant"].fails

    def test_exponential_lfold_holds_but_never_invariant(self):
        v = cls.check_supermultiplicative(exp_law(), l=2)
        assert v["no_bigger"].holds
        assert v["invariant"].fails  # invariance is impossible under branching

    def test_invariance_probe_fails_on_every_fixture(self):
        for name, make in ALL_LAWS.items():
            probe = cls.check_supermultiplicative(make(), l=2)["invariant"]
            assert probe.fails, name


class TestMomentTransfer:
    def test_weibull_power_two(self):
        rep = cls.moment_transfer_check(weib(0.5),
                                        rt.ResetLaw.deterministic(1.0),
                                        d.MomentFunction.power_of(2),
                                        direction="no_bigger")
        assert rep.base_value == pytest.approx(24.0, rel=1e-8)
        assert rep.transformed_finite
        assert rep.transformed_value <= 24.0
        assert rep.consistent

    def test_exponential_identity(self):
        rep = cls.moment_transfer_check(exp_law(),
                                        rt.ResetLaw.exponential(2.0),
                                        d.MomentFunction.identity())
        assert rep.transformed_value == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("name, r, p", [("weib05", 1.0, 2.0),
                                            ("weib05", 0.3, 1.5),
                                            ("pw_finite", 0.7, 2.0)])
    def test_power_moment_under_deterministic_restart(self, name, r, p):
        # at t = k r + s the restarted tail is tail(r)**k tail(s), so the
        # moment is the sum over periods of int_0^r p (k r + s)**(p - 1)
        # tail(r)**k tail(s) ds; 60 Gauss-Legendre panels uncut at the
        # epochs were 3.7e-4 to 1.7e-3 off it
        spec = ALL_LAWS[name]()
        fr = float(spec.tail(r))
        pts = [b for b in spec.tail_breakpoints() if 0.0 < b < r]
        want, k = 0.0, 0
        while fr**k > 1e-18:
            want += fr**k * split_quad(
                lambda s: p * (k * r + s)**(p - 1.0) * float(spec.tail(s)),
                0.0, r, pts)[0]
            k += 1
        rep = cls.moment_transfer_check(spec, rt.ResetLaw.deterministic(r),
                                        d.MomentFunction.power_of(p))
        assert rep.transformed_value - rep.remainder_estimate == \
            pytest.approx(want, rel=1e-9)

    def test_second_moment_under_fast_deterministic_restart(self):
        # weib(0.5) restarts 32,000 times before tail(r)**k falls to 1e-14;
        # the cuts stop at 4,096, which keeps the panels small. For p = 2
        # the sum over periods is 2 r A f / (1 - f)**2 + 2 B / (1 - f),
        # f = tail(r), A and B the integrals of tail(s) and s tail(s) on
        # [0, r]; 60 uncut panels were 1.3e-5 off
        spec, r = weib(0.5), 1e-6
        f = float(spec.tail(r))
        a = split_quad(lambda s: float(spec.tail(s)), 0.0, r, epsabs=0.0,
                       epsrel=1e-13)[0]
        b = split_quad(lambda s: s * float(spec.tail(s)), 0.0, r,
                       epsabs=0.0, epsrel=1e-13)[0]
        tracemalloc.start()
        try:
            rep = cls.moment_transfer_check(spec, rt.ResetLaw.deterministic(r),
                                            d.MomentFunction.power_of(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = 2.0 * r * a * f / (1.0 - f)**2 + 2.0 * b / (1.0 - f)
        assert rep.transformed_value == pytest.approx(want, rel=1e-6)
        assert peak <= 64e6

    def test_power_moment_of_a_slow_tail(self):
        # weib(0.5)'s horizon is 429: at tol 1e-7 the whole-horizon solve
        # ended at 262,144 cells short of the tolerance and raised; past
        # T_c ~ 29 the curve is its terminal piece. E[T_R] is the restarted
        # mean, within the solve's estimate over [0, T_c] (twice it, as the
        # estimate reads up to 1.7x low on this law) and the remainder
        spec, reset = weib(0.5), rt.ResetLaw.exponential(1.0)
        val, rem = cls._transformed_moment(spec, reset,
                                           d.MomentFunction.power_of(1.0))
        curve = rt.solver_reset_tail(spec, reset, d.default_horizon(spec),
                                     tol=1e-7)
        assert curve.grid[-1] < 30.0
        assert abs(val - rt.exp_reset_mean(spec, 1.0)) <= \
            2.0 * curve.err_estimate * curve.grid[-1] + rem

    @pytest.mark.parametrize("name, reset", [("uniform02", "exp1"),
                                             ("weib2", "two_atom")])
    def test_power_moment_under_a_reset_law(self, name, reset):
        # the same solved curve integrated cell by cell, where it is smooth,
        # and over its terminal piece where the solve ends short of upper;
        # 60 panels uncut at its knots were 8.6e-5 and 2.8e-4 off
        spec, reset, p = ALL_LAWS[name](), standard_resets()[reset], 2.0
        upper = max(d.default_horizon(spec), reset.horizon())
        curve = rt.solver_reset_tail(spec, reset, upper, tol=1e-7)
        while curve(upper) >= 1e-10:
            upper *= 2.0
            curve = rt.solver_reset_tail(spec, reset, upper, tol=1e-7)
        nodes, weights = gl_panel(np.union1d(curve.grid, upper))
        want = float(weights @ (p * nodes**(p - 1.0) * curve(nodes)))
        rep = cls.moment_transfer_check(spec, reset,
                                        d.MomentFunction.power_of(p))
        assert rep.transformed_value - rep.remainder_estimate == \
            pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("reset_name", ["det1", "exp1"])
    def test_tabulated_moment_is_taken_against_the_restarted_tail(
            self, reset_name):
        # G rises from 0 at t = 1 to 1 at t = 5, so E[G(T_R)] is 0.25 times
        # the restarted tail's integral over [1, 5]; it read the restarted
        # mean, 1.18146 under det:1, where this is 0.106668
        spec, reset = weib(2.0), standard_resets()[reset_name]
        if reset.kind == "deterministic":
            def tail(t):
                return float(rt.deterministic_reset_tail(spec, 1.0, t))
        else:
            tail = rt.solver_reset_tail(spec, reset, 5.0, tol=1e-9)
        want = 0.25 * split_quad(lambda t: float(tail(t)), 1.0, 5.0,
                                 [2.0, 3.0, 4.0])[0]
        rep = cls.moment_transfer_check(
            spec, reset, d.MomentFunction.tabulated((0.0, 1.0, 5.0),
                                                    (0.0, 0.0, 1.0)))
        # the check solves to tol 1e-7, and G' integrates to 1
        assert rep.transformed_value == pytest.approx(want, abs=1e-7)
        assert rep.transformed_finite

    def test_levy_identity_becomes_finite(self):
        rep = cls.moment_transfer_check(levy(), rt.ResetLaw.deterministic(1.0),
                                        d.MomentFunction.identity(),
                                        direction="no_bigger")
        assert not rep.base_finite
        assert rep.transformed_finite
        assert rep.consistent  # only finite => finite is claimed

    @pytest.mark.parametrize("reset_name", ["det1", "exp1", "uniform02"])
    def test_indicator_moment_is_the_restarted_tail(self, reset_name):
        # E[1{T > x}] is the tail at x, before and after restart
        spec, reset, x = weib(2.0), standard_resets()[reset_name], 1.3
        rep = cls.moment_transfer_check(spec, reset,
                                        d.MomentFunction.indicator_above(x))
        assert rep.base_value == float(spec.tail(x))
        if reset.kind == "deterministic":  # tail(1) tail(0.3)
            want = float(rt.deterministic_reset_tail(spec, 1.0, x))
            assert want == pytest.approx(math.exp(-1.09), rel=1e-14)
        else:
            want = float(rt.solver_reset_tail(spec, reset, 2.6, tol=1e-7)(x))
        assert rep.transformed_value == want
        assert rep.remainder_estimate == 0.0 and rep.consistent is None

    def test_no_smaller_claims_finite_only_from_finite(self):
        # no_smaller: a finite moment after restart needs a finite one before
        rep = cls.moment_transfer_check(levy(), rt.ResetLaw.deterministic(1.0),
                                        d.MomentFunction.identity(),
                                        direction="no_smaller")
        assert (rep.base_finite, rep.transformed_finite) == (False, True)
        assert rep.consistent is False
        rep = cls.moment_transfer_check(weib(2.0),
                                        rt.ResetLaw.deterministic(1.0),
                                        d.MomentFunction.identity(),
                                        direction="no_smaller")
        assert rep.base_finite and rep.consistent is True


class TestClassifyReport:
    def test_exponential_all_invariances(self):
        rep = cls.classify(exp_law())
        assert rep.exponential_flag
        for name in ("invariant_reset", "invariant_exp_reset",
                     "invariant_mean"):
            assert rep.conditions[name].holds, name

    def test_weibull_heavy_all_no_bigger(self):
        rep = cls.classify(weib(0.5))
        for name in NO_BIGGER:
            assert rep.conditions[name].holds, name
        for name in ("invariant_reset", "invariant_exp_reset",
                     "invariant_mean"):
            assert not rep.conditions[name].holds, name
        assert not rep.exponential_flag

    def test_weibull_light_all_no_smaller(self):
        rep = cls.classify(weib(1.5))
        for name in NO_SMALLER:
            assert rep.conditions[name].holds, name

    def test_deterministic_aliases_match(self):
        rep = cls.classify(weib(0.5))
        assert rep.conditions["no_bigger_deterministic_reset"] is \
            rep.conditions["no_bigger_reset"]
        assert rep.conditions["no_bigger_deterministic_mean"] is \
            rep.conditions["no_bigger_mean"]

    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_implication_lattice(self, name):
        rep = cls.classify(ALL_LAWS[name]())
        for row in rep.implications:
            assert row["consistent"], (name, row)

    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_supermult_implies_mean_condition(self, name):
        rep = cls.classify(ALL_LAWS[name]())
        if rep.conditions["no_bigger_reset"].holds \
                and rep.conditions["no_bigger_mean"].status != "undefined":
            assert rep.conditions["no_bigger_mean"].holds, name

    def test_report_serializes(self):
        rep = cls.classify(pw_finite())
        doc = rep.to_dict()
        assert "conditions" in doc and "implications" in doc
        assert doc["conditions"]["second_order"]["status"] in (
            "holds", "fails", "inconclusive", "undefined")

    def test_remark_generators(self):
        # non-constant residual mean bounded below by its start: helped in
        # mean by every restart, but not invariant
        ts = np.linspace(0.0, 8.0, 81)
        bump = 1.0 + 0.5 * (ts / (1.0 + ts)) ** 2
        law = mrl.law_from_mrl(mrl.MrlCurve(grid=tuple(ts),
                                            values=tuple(bump)))
        rep = cls.classify(law)
        assert rep.conditions["no_bigger_mean"].holds
        assert not rep.conditions["invariant_mean"].holds

    def test_remark_generator_exp_mean_only(self):
        # residual mean that first rises, then dips below its starting value:
        # the averaged reciprocal stays below 1/m(0) throughout, so constant-
        # rate restart helps in mean at every rate, while the dip makes
        # arbitrary restart harmful in mean
        curve = mrl.MrlCurve(grid=(0.0, 1.0, 5.0, 7.0, 9.0, 12.0),
                             values=(1.0, 1.5, 1.5, 0.9, 1.2, 1.2))
        law = mrl.law_from_mrl(curve)
        ts = np.linspace(1e-4, 40.0, 4001)
        inv_int = np.cumsum(np.diff(np.concatenate([[0.0], ts]))
                            / np.asarray(curve(ts)))
        assert np.all(inv_int <= ts / curve.values[0] + 1e-9)
        assert float(np.min(np.asarray(curve(ts)))) < curve.values[0]
        rep = cls.classify(law)
        assert rep.conditions["no_bigger_mean"].fails
        assert rep.conditions["no_bigger_exp_mean"].holds


class TestOneMarginPass:
    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_classify_matches_standalone_checks(self, name):
        # classify shares one margin pass per condition across its readings
        # and branching factors; each verdict must be the standalone one
        spec = ALL_LAWS[name]()
        rep = cls.classify(spec)
        eps = rep.metadata["eps"]
        exp_mean, margins = cls.check_exp_mean_condition(spec, eps=eps)
        want = {}
        for cond, verdicts in (
                ("reset", cls.check_supermultiplicative(spec, eps=eps)),
                ("exp_reset", cls.check_exp_reset_condition(spec, eps=eps)),
                ("mean", cls.check_mean_conditions(spec, eps=eps)),
                ("exp_mean", exp_mean)):
            for reading, v in verdicts.items():
                want[f"{reading}_{cond}"] = v
        want["second_order"] = cls.check_second_order(spec, eps)
        for l in (2, 3):
            pair = cls.check_supermultiplicative(spec, eps=eps, l=l)
            want[f"lfold_no_bigger_{l}"] = pair["no_bigger"]
            want[f"lfold_invariance_probe_{l}"] = pair["invariant"]
            want[f"lfold_exp_no_bigger_{l}"] = cls.check_exp_reset_condition(
                spec, eps=eps, l=l)["no_bigger"]
        for cond, verdict in rep.conditions.items():
            if "deterministic" in cond:
                continue
            # repr tells nan margins and the sign of zero apart
            assert repr(verdict) == repr(want.pop(cond)), (name, cond)
        assert set(want) == {"invariant_exp_mean"}
        for key in ("no_bigger_exp_mean", "no_smaller_exp_mean"):
            assert repr(rep.per_mu_margins[key]) == repr(margins)

    @pytest.mark.parametrize("name", sorted(ALL_LAWS))
    def test_multi_l_ratios_equal_single_l_pass(self, name):
        spec = ALL_LAWS[name]()
        _, wide = cls._exp_condition_grids(spec)
        together = cls._exp_reset_ratios(spec, wide, (1, 2, 3))
        for row, l in zip(together, (1, 2, 3)):
            alone = cls._exp_reset_ratios(spec, wide, (l,))[0]
            assert row.tobytes() == alone.tobytes(), (name, l)

    def test_lfold_below_two_rejected(self):
        with pytest.raises(ValueError):
            cls.classify(exp_law(), cls.ClassifyConfig(lfolds=(1,)))

    @pytest.mark.parametrize("eps", [math.nan, -1.0, math.inf])
    def test_tolerance_not_finite_and_nonnegative_rejected(self, eps):
        # nan printed as the tolerance; -1 judged every margin against it
        with pytest.raises(ValueError, match="eps"):
            cls.ClassifyConfig(eps=eps)
        assert cls.ClassifyConfig(eps=0.0).eps == 0.0


class TestClassifierVsSimulator:
    def test_no_bigger_laws_dominate_monte_carlo(self):
        resets = (rt.ResetLaw.deterministic(0.7), rt.ResetLaw.exponential(1.0),
                  rt.ResetLaw.general(uniform02()))
        for make in (lambda: weib(0.5), sps, exp_law):
            spec = make()
            assert cls.check_supermultiplicative(spec)["no_bigger"].holds
            probes = tuple(float(spec.isf(u))
                           for u in (0.8, 0.6, 0.4, 0.2, 0.08))
            for reset in resets:
                res = sim.simulate_reset(
                    spec, reset, sim.SimulationConfig(replicates=20_000,
                                                      seed=99,
                                                      probe_times=probes))
                for p, hat, se in zip(probes, res.tail_probs, res.tail_se):
                    assert hat <= float(spec.tail(p)) + 4.0 * se + 1e-9


class TestInconclusive:
    def test_sub_tolerance_violation_reports_inconclusive(self):
        # a hand-made curve with a 1e-8 dent: beyond roundoff, below the
        # tolerance of a curve known to 1e-7 (3e-7)
        grid = np.linspace(0.0, 8.0, 321)
        vals = np.exp(-grid)
        vals[40] *= 1.0 - 1e-8
        curve = d.TailCurve(grid=tuple(grid), values=tuple(vals[:-1]),
                            terminal=float(vals[-1]),
                            err_estimate=1e-7)
        spec = d.Tabulated(curve=curve)
        v = cls.check_supermultiplicative(spec)["no_bigger"]
        assert v.status == "inconclusive"
        # the same dent in an exact curve is judged at 1e-9: a violation
        exact = d.Tabulated(curve=dataclasses.replace(curve, err_estimate=0.0))
        assert cls.check_supermultiplicative(exact)["no_bigger"].fails

    @pytest.mark.parametrize("law, err, want", [
        (pe_mean_only, 0.0, 1e-9),
        (plateau, 0.0, 1e-9),
        (pw_finite, 0.0, 1e-9),
        (pw_finite, 1e-7, 3e-7),
        (pe_mean_only, 1e-5, 3e-5)])
    def test_tolerance_comes_from_the_curve_error(self, law, err, want):
        # every log-linear curve got max(1e-6, 3 err), exact piecewise
        # exponential laws too, and a step curve 1e-9 whatever its error
        spec = law()
        curve = dataclasses.replace(spec.curve, err_estimate=err)
        got = cls.default_tolerance(d.Tabulated(curve=curve))
        assert got == pytest.approx(want, rel=1e-15)
