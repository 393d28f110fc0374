import math
import tracemalloc

import numpy as np
import pytest

from resetkit import distributions as d
from resetkit import reset_transform as rt
from resetkit import simulator as sim

import single_reset_sim_reference as single_ref
from fixture_laws import (ALL_LAWS, exp_law, pe_law, standard_resets,
                          step_law, two_atom_reset, uniform02, weib)


def cfg(**kw) -> sim.SimulationConfig:
    base = dict(replicates=40_000, seed=1234)
    base.update(kw)
    return sim.SimulationConfig(**base)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = sim.simulate_reset(exp_law(), rt.ResetLaw.deterministic(0.5),
                               cfg(replicates=5_000))
        b = sim.simulate_reset(exp_law(), rt.ResetLaw.deterministic(0.5),
                               cfg(replicates=5_000))
        assert a.mean == b.mean
        assert a.tail_probs == b.tail_probs
        np.testing.assert_array_equal(a.times, b.times)

    def test_chunk_decomposition_is_invisible(self):
        laws = (rt.ResetLaw.exponential(1.0), two_atom_reset())
        for reset in laws:
            results = [sim.simulate_reset(weib(0.5), reset,
                                          cfg(replicates=8_000,
                                              parallel_chunks=chunks))
                       for chunks in (1, 3, 8)]
            for other in results[1:]:
                np.testing.assert_array_equal(results[0].times, other.times)
                assert results[0].to_dict() == other.to_dict()

    def test_min_law_l1_bitwise_equals_reset(self):
        a = sim.simulate_reset(exp_law(), rt.ResetLaw.exponential(1.0),
                               cfg(replicates=8_000))
        b = sim.simulate_branching(exp_law(), rt.ResetLaw.exponential(1.0), 1,
                                   cfg(replicates=8_000))
        np.testing.assert_array_equal(a.times, b.times)

    def test_chunks_invisible_across_block_boundaries(self):
        n = 2 * sim._BLOCK + 17
        for reset in (rt.ResetLaw.exponential(1.0), two_atom_reset()):
            results = [sim.simulate_reset(weib(0.5), reset,
                                          cfg(replicates=n,
                                              parallel_chunks=chunks))
                       for chunks in (1, 3, 8)]
            for other in results[1:]:
                np.testing.assert_array_equal(results[0].times, other.times)
                assert results[0].to_dict() == other.to_dict()

    def test_first_block_is_prefix_stable(self):
        block = sim._BLOCK
        reset = rt.ResetLaw.general(uniform02())
        for run in (sim.simulate_reset, sim.simulate_single_reset):
            short = run(weib(0.5), reset, cfg(replicates=block))
            long = run(weib(0.5), reset, cfg(replicates=2 * block + 17))
            np.testing.assert_array_equal(short.times, long.times[:block])

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("law", ["pw_sixth", "levy", "uniform02"])
    def test_single_reset_keeps_the_parent_stream(self, law, seed):
        # the restart loop's second cycle, with no reset drawn, takes the
        # uniforms the separate single-restart loop took, draw for draw
        # pw_sixth's mass at infinity censors its runs, which raise
        spec, n = ALL_LAWS[law](), 2 * sim._BLOCK + 1809
        for reset in standard_resets().values():
            try:
                res = sim.simulate_single_reset(spec, reset,
                                                cfg(replicates=n, seed=seed))
            except sim.ExcessiveCensoringError as exc:
                res = exc.result
            np.testing.assert_array_equal(
                res.times, single_ref.single_reset_times(spec, reset, n, seed))

    def test_different_seed_differs(self):
        a = sim.simulate_reset(exp_law(), rt.ResetLaw.deterministic(0.5),
                               cfg(replicates=2_000, seed=1))
        b = sim.simulate_reset(exp_law(), rt.ResetLaw.deterministic(0.5),
                               cfg(replicates=2_000, seed=2))
        assert a.mean != b.mean


class TestOracleAgreement:
    def test_exponential_invariance_mean(self):
        res = sim.simulate_reset(exp_law(), rt.ResetLaw.deterministic(0.5),
                                 cfg(replicates=100_000))
        assert abs(res.mean - 1.0) < 4.0 * res.mean_se
        assert res.censored_fraction < 1e-4

    def test_weibull_mean_vs_analytic(self):
        spec = weib(2.0)
        reset = rt.ResetLaw.deterministic(1.0)
        res = sim.simulate_reset(spec, reset, cfg(replicates=100_000))
        analytic = rt.reset_mean(spec, reset)
        assert analytic > 0.8862
        assert abs(res.mean - analytic) < 4.0 * res.mean_se

    def test_tail_at_zero_is_preserved(self):
        spec = pe_law(((0.0, 0.1, 1.0), (1.0, 1.25, 1.0)))
        res = sim.simulate_reset(spec, rt.ResetLaw.exponential(1.0),
                                 cfg(probe_times=(0.0, 0.5)))
        th = float(spec.tail(0.0))
        assert abs(res.tail_probs[0] - th) < 4.0 * res.tail_se[0] + 1e-9

    def test_tails_match_solver(self):
        spec = weib(0.5)
        reset = rt.ResetLaw.general(uniform02())
        probes = (0.2, 0.7, 1.5, 3.0, 6.0)
        res = sim.simulate_reset(spec, reset, cfg(replicates=60_000,
                                                  probe_times=probes))
        curve = rt.reset_tail(spec, reset, np.linspace(0.0, 8.0, 1025))
        for p, hat, se in zip(probes, res.tail_probs, res.tail_se):
            want = float(curve(p))
            assert abs(hat - want) <= 4.0 * se + 1e-6, p

    def test_single_reset_matches_formula(self):
        spec = weib(0.5)
        reset = rt.ResetLaw.deterministic(1.0)
        probes = (0.5, 1.0, 2.0)
        res = sim.simulate_single_reset(spec, reset,
                                        cfg(replicates=100_000,
                                            probe_times=probes))
        curve = rt.single_reset_tail(spec, reset, probes)
        for want, hat, se in zip(curve.knot_values[1:], res.tail_probs,
                                 res.tail_se):
            assert abs(hat - want) <= 4.0 * se + 1e-9

    @pytest.mark.parametrize("l", [2, 3])
    def test_branching_mean_deterministic(self, l):
        spec = exp_law()
        res = sim.simulate_branching(spec, rt.ResetLaw.deterministic(1.0), l,
                                     cfg(replicates=100_000))
        want = rt.branching_mean_deterministic(spec, 1.0, l)
        assert abs(res.mean - want) < 3.0 * res.mean_se

    @pytest.mark.parametrize("l", [2, 3])
    def test_branching_mean_exponential(self, l):
        spec = weib(0.5)
        res = sim.simulate_branching(spec, rt.ResetLaw.exponential(1.0), l,
                                     cfg(replicates=100_000))
        want = rt.branching_mean_exponential(spec, 1.0, l)
        assert abs(res.mean - want) < 3.0 * res.mean_se

    def test_min_law_and_direct_agree(self):
        spec = weib(0.5)
        reset = rt.ResetLaw.exponential(1.0)
        a = sim.simulate_branching(spec, reset, 2,
                                   cfg(replicates=50_000, seed=5,
                                       branching_mode="min-law"))
        b = sim.simulate_branching(spec, reset, 2,
                                   cfg(replicates=50_000, seed=6,
                                       branching_mode="direct"))
        z = abs(a.mean - b.mean) / math.hypot(a.mean_se, b.mean_se)
        assert z < 4.0

    def test_branching_tails_match_backward_solver(self):
        spec = weib(0.5)
        reset = rt.ResetLaw.exponential(1.0)
        probes = (0.3, 1.0, 2.5)
        res = sim.simulate_branching(spec, reset, 2,
                                     cfg(replicates=60_000,
                                         probe_times=probes))
        curve = rt.branching_reset_tail(spec, reset, 2, 6.0)
        for p, hat, se in zip(probes, res.tail_probs, res.tail_se):
            assert abs(hat - float(curve(p))) <= 4.0 * se + 1e-5


class TestCensoringAndGuards:
    def test_cycle_cap_censors_and_raises(self):
        spec = weib(0.5)
        reset = rt.ResetLaw.deterministic(0.01)  # nearly always resets
        with pytest.raises(sim.ExcessiveCensoringError) as exc_info:
            sim.simulate_reset(spec, reset, cfg(replicates=500, max_cycles=3))
        partial = exc_info.value.result
        assert partial.censored_fraction > 0.01
        assert partial.n_capped > 0

    def test_auto_cap_keeps_censoring_negligible(self):
        # per-cycle continue chance 0.9: auto cap targets 1e-6 leakage
        spec = exp_law()
        reset = rt.ResetLaw.deterministic(-math.log(0.9))
        res = sim.simulate_reset(spec, reset, cfg(replicates=20_000))
        assert res.censored_fraction < 1e-4
        assert res.max_cycles >= 100

    def test_excessive_branching(self):
        # completion needs ~1e8 racing copies with such a short period
        spec = exp_law()
        reset = rt.ResetLaw.deterministic(1e-8)
        with pytest.raises(sim.ExcessiveBranchingError):
            sim.simulate_branching(spec, reset, 2,
                                   cfg(replicates=50, max_cycles=100))

    def test_excessive_branching_direct_mode(self):
        spec = exp_law()
        reset = rt.ResetLaw.deterministic(1e-8)
        with pytest.raises(sim.ExcessiveBranchingError):
            sim.simulate_branching(spec, reset, 2,
                                   cfg(replicates=50, max_cycles=100,
                                       branching_mode="direct"))

    def test_direct_mode_memory_is_one_row(self):
        # completion needs ~1e4 racing copies: rows of 3**9 and 3**10
        # uniforms, each drawn alone, past the block size
        spec = exp_law()
        reset = rt.ResetLaw.deterministic(1e-4)
        config = cfg(replicates=64, seed=3, max_cycles=40,
                     branching_mode="direct")
        sim.simulate_branching(spec, reset, 3, cfg(replicates=2))  # warm up
        tracemalloc.start()
        try:
            res = sim.simulate_branching(spec, reset, 3, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        widest = 3 ** (len(res.cycle_histogram) - 2)
        assert widest > sim._BLOCK
        assert peak <= 8 * widest + 64 * 1024

    def test_infinite_outcomes_counted(self):
        # defective completion law against a defective reset law
        spec = d.Exponential(rate=1.0, defect=0.4)
        carrier = step_law((0.0, 1.0), (1.0, 0.005), check_standing=False)
        reset = rt.ResetLaw.general(carrier)
        res = sim.simulate_reset(spec, reset, cfg(replicates=30_000))
        assert res.n_infinite > 0
        assert res.censored_fraction == pytest.approx(
            (res.n_capped + res.n_infinite) / res.replicates)

    def test_cycle_histogram_accounts_for_everything(self):
        res = sim.simulate_reset(weib(0.5), rt.ResetLaw.exponential(1.0),
                                 cfg(replicates=10_000))
        assert sum(res.cycle_histogram) == res.replicates

    @pytest.mark.parametrize("kw", [
        {"max_cycles": 0}, {"max_cycles": -1}, {"probe_times": (math.nan,)},
        {"probe_times": (1.0, math.inf)}])
    def test_settings_no_run_can_serve(self, kw):
        # max_cycles = 0 meant "auto"; a nan probe reported P(T > nan) = 0
        with pytest.raises(ValueError):
            sim.SimulationConfig(**kw)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sim.SimulationConfig(replicates=0)
        with pytest.raises(ValueError):
            sim.SimulationConfig(branching_mode="magic")
        with pytest.raises(ValueError):
            sim.simulate_branching(exp_law(), rt.ResetLaw.exponential(1.0), 0,
                                   cfg())
