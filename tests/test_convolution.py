"""The batched convolution integrals against the per-t loops they replace.

``classifiers._exp_reset_ratios`` and ``conjecture_probe``'s residuals
evaluate every t of a grid in one (t x node) pass; they must return the
bits the per-t loops of ``convolution_loop_reference`` return, on the
fixture laws and on random piecewise laws, at grid points that sit exactly
on a kink and past a finite support end (where log tail(t) is -inf).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import _integrate as ig
from resetkit import classifiers as cls
from resetkit import conjecture_probe as cp

import convolution_loop_reference as ref
from fixture_laws import ALL_LAWS, pw_finite
from law_strategies import from_mrl, piecewise_constant, piecewise_exp, tabulated

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

laws = st.one_of(piecewise_constant(), piecewise_exp(), tabulated(),
                 from_mrl())


def _assert_same_bits(spec, t_grid, ls=(1, 2, 3)):
    t_grid = np.asarray(t_grid, dtype=float)
    for l in ls:
        got = cls._exp_reset_ratios(spec, t_grid, (l,))
        want = ref.exp_reset_ratios(spec, t_grid, (l,))
        assert got.tobytes() == want.tobytes(), (spec, l)
        rep = cp.lfold_invariance_residual(spec, l, t_grid=t_grid)
        want = ref.lfold_residuals(spec, l, t_grid)
        assert np.array(rep.residuals).tobytes() == want.tobytes(), (spec, l)
    together = cls._exp_reset_ratios(spec, t_grid, ls)
    assert together.tobytes() == ref.exp_reset_ratios(spec, t_grid,
                                                       ls).tobytes()


def _kinks_and_beyond(spec) -> np.ndarray:
    """The law's kinks themselves, points next to them, and, for a finite
    support, points past its end."""
    pts = ig.kinks((spec,))
    pts = pts[pts > 0.0]
    extra = [pts, np.nextafter(pts, np.inf), np.nextafter(pts, 0.0)]
    end = spec.t0
    if np.isfinite(end):
        extra.append([1.5 * end, 3.0 * end])
    return np.concatenate(extra)


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_fixture_laws_on_the_classifier_grids(name):
    spec = ALL_LAWS[name]()
    near, wide = cls._exp_condition_grids(spec)
    for grid in (near, wide):
        _assert_same_bits(spec, grid)
    default = cp.lfold_invariance_residual(spec, 2)
    want = ref.lfold_residuals(spec, 2, default.t_grid)
    assert np.array(default.residuals).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_fixture_laws_at_their_kinks(name):
    spec = ALL_LAWS[name]()
    _assert_same_bits(spec, np.concatenate([[0.3, 1.0, 7.0],
                                            _kinks_and_beyond(spec)]))


def test_past_the_support_end_takes_the_zero_integral_branch():
    spec = pw_finite()
    t_grid = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 6.0])
    assert np.isinf(spec.log_tail(t_grid[3:])).all()
    _assert_same_bits(spec, t_grid)


@PROPERTY
@given(spec=laws, scale=st.floats(0.05, 4.0))
def test_random_piecewise_laws(spec, scale):
    grid = np.concatenate([scale * np.geomspace(1e-3, 10.0, 12),
                           _kinks_and_beyond(spec)])
    _assert_same_bits(spec, grid)
