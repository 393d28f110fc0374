import math

import numpy as np
import pytest

from resetkit import classifiers as cls
from resetkit import distributions as d
from resetkit import optimizer as opt
from resetkit import reset_transform as rt

import laplace_loop_reference as loop
from fixture_laws import (ALL_LAWS, exp_law, levy, pe_mean_only, plateau,
                          pw_finite, sps, uniform02, weib)

# 10% of the mass near t = 1, 90% near t = 100; bare mean 85.55
BIMODAL = {"family": "piecewise_exp",
           "params": {"segments": [[0, 0, 0.001], [0.95, 0.00095, 1.05],
                                   [1.05, 0.10595, 0], [90, 0.10595, 0.2]]}}


class TestCurve:
    @pytest.mark.parametrize("make", [exp_law, lambda: weib(0.5),
                                      lambda: weib(2.0), pe_mean_only,
                                      pw_finite, sps])
    def test_matches_reset_mean(self, make):
        spec = make()
        grid = np.array([0.2, 0.7, 1.3, 2.9])
        vals = opt.deterministic_mean_curve(spec, grid)
        for r, v in zip(grid, vals):
            want = rt.reset_mean(spec, rt.ResetLaw.deterministic(r))
            assert v == pytest.approx(want, rel=1e-8), r

    def test_limit_at_large_r_is_the_mean(self):
        for make in (exp_law, lambda: weib(0.7), sps):
            spec = make()
            m0 = d.mean(spec)
            big = d.default_horizon(spec) * 1.5
            val = float(opt.deterministic_mean_curve(spec, np.array([big]))[0])
            assert val == pytest.approx(m0, rel=1e-2)

    def test_past_a_finite_support_end(self):
        # the knots hold uniform02's support end at 2, where the tail kinks
        vals = opt.deterministic_mean_curve(uniform02(), [1.0, 2.5, 3.0])
        np.testing.assert_allclose(vals, [1.5, 1.0, 1.0], rtol=0.0,
                                   atol=1e-15)

    def test_unsorted_grid_preserved(self):
        spec = exp_law()
        grid = np.array([2.0, 0.5, 1.0])
        vals = opt.deterministic_mean_curve(spec, grid)
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0], rtol=1e-9)


class TestExtremal:
    def test_exponential_flat(self):
        rep = opt.extremal_reset_mean(exp_law(2.0))
        assert rep.sup == pytest.approx(0.5, rel=1e-7)
        assert rep.inf == pytest.approx(0.5, rel=1e-7)
        assert not rep.exponential_improves

    def test_weibull_heavy(self):
        rep = opt.extremal_reset_mean(weib(0.5))
        assert rep.inf == 0.0  # arbitrarily fast restart exploits early mass
        assert rep.inf_r == 0.0
        assert rep.sup == pytest.approx(2.0, rel=1e-6)
        assert rep.sup_r == np.inf  # the bare mean, reached in the limit
        assert rep.exponential_improves
        assert rep.best_exponential_mean < 2.0

    def test_weibull_light(self):
        rep = opt.extremal_reset_mean(weib(1.5))
        m0 = d.mean(weib(1.5))
        assert rep.diverges_at_zero and rep.sup == np.inf
        assert rep.inf == pytest.approx(m0, rel=1e-6)

    def test_levy_restart_always_helps(self):
        rep = opt.extremal_reset_mean(levy())
        assert rep.diverges_at_infinity
        assert 0.5 < rep.best_deterministic_r < 2.0
        assert rep.best_deterministic_mean == pytest.approx(2.6718, rel=1e-3)
        assert np.isfinite(rep.best_exponential_mean)

    def test_sps_plateau_at_zero(self):
        # hazard at 0 is 2/k, so the curve starts at k/2
        rep = opt.extremal_reset_mean(sps(0.5))
        assert rep.limit_at_zero == pytest.approx(0.25, rel=1e-6)
        assert rep.inf == pytest.approx(0.25, rel=1e-6)
        assert rep.sup == pytest.approx(0.5, rel=1e-6)

    def test_atom_at_zero_drives_infimum_to_zero(self):
        rep = opt.extremal_reset_mean(pw_finite())
        assert rep.inf == 0.0

    def test_reset_means_bracketed(self):
        # the reduction: every reset law's mean sits between inf and sup
        resets = (rt.ResetLaw.deterministic(0.3), rt.ResetLaw.exponential(2.0),
                  rt.ResetLaw.general(uniform02()))
        for make in (lambda: weib(0.5), lambda: weib(2.0), pe_mean_only):
            spec = make()
            rep = opt.extremal_reset_mean(spec)
            for reset in resets:
                mean = rt.reset_mean(spec, reset)
                assert rep.inf - 1e-7 <= mean <= rep.sup + 1e-7

    def test_classifier_consistency(self):
        # no-bigger in mean forces sup <= m0; no-smaller forces inf >= m0
        spec = weib(0.5)
        assert cls.check_mean_conditions(spec)["no_bigger"].holds
        rep = opt.extremal_reset_mean(spec)
        assert rep.sup <= d.mean(spec) + 1e-7
        spec = weib(2.0)
        assert cls.check_mean_conditions(spec)["no_smaller"].holds
        rep = opt.extremal_reset_mean(spec)
        assert rep.inf >= d.mean(spec) - 1e-7

    def test_report_serializes(self):
        doc = opt.extremal_reset_mean(weib(1.5)).to_dict()
        assert doc["sup"] == "inf"
        assert isinstance(doc["curve"], list)


class TestGoldenSection:
    """best_exponential_rate: log-rate scan, bounded refinement, and the
    no-improvement rule (the class keeps its name for stable test ids)."""

    def test_interior_minimum_is_refined(self):
        spec = plateau()
        mu, mean = opt.best_exponential_rate(spec)
        scale = d.characteristic_scale(spec)
        scan = [rt.exp_reset_mean(spec, m)
                for m in np.geomspace(1e-3 / scale, 1e3 / scale, 13)]
        # strictly inside the bracket, below every scanned rate, and a
        # local minimum to the refinement's resolution
        assert 1e-3 / scale < mu < 1e3 / scale
        assert mean < min(scan)
        assert mean <= rt.exp_reset_mean(spec, mu * 1.001) + 1e-12
        assert mean <= rt.exp_reset_mean(spec, mu / 1.001) + 1e-12

    def test_bimodal_global_minimum(self):
        # 10% of the mass near t = 1, 90% near t = 100: the mean rises with
        # the rate to ~169 at mu ~ 0.03 before it falls to ~25.8 at mu ~ 1,
        # and a search assuming one minimum stopped near mu = 1e-5
        spec = d.spec_from_dict(BIMODAL)
        mu, mean = opt.best_exponential_rate(spec)
        assert mu == pytest.approx(0.973, rel=1e-2)
        assert mean == pytest.approx(25.80, rel=1e-3)
        assert opt.extremal_reset_mean(spec).exponential_improves

    def test_best_exponential_rate_levy(self):
        mu, mean = opt.best_exponential_rate(levy())
        assert np.isfinite(mean)
        # check local optimality against neighbours
        assert mean <= rt.exp_reset_mean(levy(), mu * 1.3) + 1e-9
        assert mean <= rt.exp_reset_mean(levy(), mu / 1.3) + 1e-9

    def test_no_improvement_for_exponential(self):
        with pytest.raises(opt.NoImprovementError) as info:
            opt.best_exponential_rate(exp_law())
        assert info.value.mean == pytest.approx(1.0, rel=1e-9)

    def test_sps_improves(self):
        # the normalized square-Pareto law is heavy enough to benefit
        mu, mean = opt.best_exponential_rate(sps(0.5))
        assert mean < 0.5

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            opt.best_exponential_rate(exp_law(), (2.0, 1.0))


class TestRateScan:
    """The optimizer's rate scan is one ``exp_reset_mean`` call over an array
    of rates; every value keeps the bits of the one-rate-at-a-time loop."""

    @pytest.mark.parametrize("law", sorted(ALL_LAWS))
    def test_array_of_rates_matches_the_loop_bit_for_bit(self, law):
        spec = ALL_LAWS[law]()
        scale = d.characteristic_scale(spec)
        xs = np.linspace(math.log(1e-3 / scale), math.log(1e3 / scale),
                         opt._RATE_SCAN)
        rates = np.array([math.exp(x) for x in xs])
        want_lt = np.array([loop.laplace_tail(spec, mu) for mu in rates])
        want = np.array([loop.exp_reset_mean(spec, mu) for mu in rates])
        assert rt.laplace_tail(spec, rates).tobytes() == want_lt.tobytes()
        assert rt.exp_reset_mean(spec, rates).tobytes() == want.tobytes()

    def test_scalar_rate_gives_a_float_and_arrays_keep_their_shape(self):
        for spec in (exp_law(), weib(0.5)):
            rates = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
            got = rt.exp_reset_mean(spec, rates)
            assert got.shape == rates.shape
            one = rt.exp_reset_mean(spec, 4.0)
            assert type(one) is float
            assert one == got[1, 1]
            assert type(rt.laplace_tail(spec, 4.0)) is float

    def test_any_rate_not_positive_is_rejected(self):
        for spec in (exp_law(), weib(0.5)):
            with pytest.raises(ValueError):
                rt.laplace_tail(spec, np.array([1.0, 0.0, 2.0]))
            with pytest.raises(ValueError):
                rt.exp_reset_mean(spec, np.array([1.0, np.nan]))
