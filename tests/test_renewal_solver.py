"""The renewal solver's Toeplitz solve and branching pass against the
step-by-step loops."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz

from resetkit import reset_transform as rt

from fixture_laws import ALL_LAWS, two_atom_reset, uniform02, weib
from branching_loop_reference import branching_pass_loop
from renewal_loop_reference import renewal_fixed_point_loop

RESETS = {
    "exp1": lambda: rt.ResetLaw.exponential(1.0),
    "uniform02": lambda: rt.ResetLaw.general(uniform02()),
    "two_atom": two_atom_reset,
}
UPPER = 10.0
N = 4096
DEPTH = 6  # cycles of the branching pass


@pytest.mark.parametrize("reset_name", sorted(RESETS))
@pytest.mark.parametrize("law", sorted(ALL_LAWS))
def test_matches_loop_on_solver_grid(law, reset_name):
    spec, reset = ALL_LAWS[law](), RESETS[reset_name]()
    n, upper = rt._snap_grid(reset, UPPER, N, 131072)
    want = renewal_fixed_point_loop(spec, reset, upper, n)
    got = rt._renewal_fixed_point(spec, reset, upper, n)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("reset_name", sorted(RESETS))
@pytest.mark.parametrize("law", sorted(ALL_LAWS))
def test_matches_loop_on_unsnapped_grid(law, reset_name):
    # 4,097 cells: the two-atom law's atoms fall between nodes (theta != 0),
    # and the last diagonal block holds a single cell
    spec, reset = ALL_LAWS[law](), RESETS[reset_name]()
    n = N + 1
    for loc, _ in reset.atoms():
        assert not math.isclose(loc * n / UPPER, round(loc * n / UPPER))
    want = renewal_fixed_point_loop(spec, reset, UPPER, n)
    got = rt._renewal_fixed_point(spec, reset, UPPER, n)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("reset_name", sorted(RESETS))
@pytest.mark.parametrize("law", sorted(ALL_LAWS))
def test_branching_matches_loop_on_solver_grid(law, reset_name):
    spec, reset = ALL_LAWS[law](), RESETS[reset_name]()
    n, upper = rt._snap_grid(reset, UPPER, 512, 131072)
    want = branching_pass_loop(spec, reset, 2, DEPTH, upper, n)
    got = rt._branching_pass(spec, reset, 2, DEPTH, upper, n)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("law", sorted(ALL_LAWS))
def test_branching_matches_loop_on_unsnapped_grid(law):
    # 513 cells put the two-atom law's atoms between nodes (theta != 0)
    spec, reset = ALL_LAWS[law](), two_atom_reset()
    want = branching_pass_loop(spec, reset, 3, DEPTH, UPPER, 513)
    got = rt._branching_pass(spec, reset, 3, DEPTH, UPPER, 513)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 2048])
def test_toeplitz_solve_matches_dense(n):
    rng = np.random.default_rng(n)
    a = np.concatenate([[1.0], -rng.uniform(0.0, 1.0 / n, n - 1)])
    c = rng.uniform(-1.0, 1.0, n)
    want = solve_triangular(toeplitz(a, np.zeros(n)), c, lower=True)
    got = c.copy()
    rt._solve_lower_toeplitz(a, got)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_largest_grid_memory():
    # the solve works in place: at n_max its peak allocation stays within
    # ten float arrays of the grid's size
    n = 131072
    tracemalloc.start()
    try:
        rt._renewal_fixed_point(weib(0.5), rt.ResetLaw.exponential(1.0),
                                429.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * (n + 1)
