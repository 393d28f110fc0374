import math

import numpy as np
import pytest

from resetkit import conjecture_probe as cp

from fixture_laws import exp_law, uniform02, weib


class TestResidual:
    def test_exponential_l2_closed_form(self):
        # int_0^t e^(-2u) e^(-(t-u)) du - t e^(-t) = e^(-t) (1 - e^(-t) - t)
        rep = cp.lfold_invariance_residual(exp_law(), 2,
                                           t_grid=np.linspace(0.1, 6.0, 40))
        for t, r in zip(rep.t_grid, rep.residuals):
            want = math.exp(-t) * (1.0 - math.exp(-t) - t)
            assert r == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert r < 0.0

    def test_exponential_l1_identically_zero(self):
        rep = cp.lfold_invariance_residual(exp_law(1.7), 1)
        assert rep.sup_norm < 1e-10

    def test_weibull_l2_nonzero(self):
        rep = cp.lfold_invariance_residual(weib(0.5), 2)
        assert rep.sup_norm > 1e-3

    def test_every_candidate_law_misses(self):
        # continuous laws with tail(0) = 1 are the only candidates; all miss
        for make in (exp_law, lambda: weib(0.7), lambda: weib(2.0), uniform02):
            for l in (2, 3):
                rep = cp.lfold_invariance_residual(make(), l)
                assert rep.sup_norm > 1e-6, (make, l)

    def test_validation(self):
        with pytest.raises(ValueError):
            cp.lfold_invariance_residual(exp_law(), 0)

    @pytest.mark.parametrize("l", [True, False, np.True_])
    def test_boolean_branching_factor_rejected(self, l):
        # bool is an int subclass: True used to run as l = 1
        with pytest.raises(ValueError, match="branching factor"):
            cp.lfold_invariance_residual(exp_law(), l)

    @pytest.mark.parametrize("grid", [[0.0], [], [-1.0, 0.0]])
    def test_grid_without_positive_point_rejected(self, grid):
        # used to raise numpy's bare zero-size reduction error
        with pytest.raises(ValueError, match="no point t > 0"):
            cp.lfold_invariance_residual(exp_law(), 2, t_grid=grid)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_grid_point_rejected(self, bad):
        # inf gave a NaN residual and sup norm; NaN was dropped silently
        with pytest.raises(ValueError, match="finite"):
            cp.lfold_invariance_residual(exp_law(), 2, t_grid=[1.0, bad])

    def test_serializes(self):
        doc = cp.lfold_invariance_residual(exp_law(), 2).to_dict()
        assert doc["l"] == 2
        assert len(doc["residuals"]) == len(doc["t_grid"])

    def test_csv_export(self):
        text = cp.lfold_invariance_residual(exp_law(), 2).to_csv()
        lines = text.splitlines()
        assert lines[0] == "t,residual"
        t, r = lines[1].split(",")
        assert float(t) > 0.0 and float(r) < 0.0
