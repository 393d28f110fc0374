"""The renewal solver's Toeplitz solve and branching pass against the
step-by-step loops, and the Toeplitz solve against the blocked solve it
replaced and the dense solve."""
import collections
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import mrl
from resetkit import reset_transform as rt

from fixture_laws import ALL_LAWS, two_atom_reset, uniform02, weib
from branching_loop_reference import branching_pass_loop
from renewal_loop_reference import renewal_fixed_point_loop
from toeplitz_blocked_reference import _solve_lower_toeplitz as blocked_solve

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
    got = rt._branching_pass(spec, reset, 1, 0, upper, n)
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
    got = rt._branching_pass(spec, reset, 1, 0, UPPER, n)
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


def kernel_sizes(monkeypatch) -> list[int]:
    """The kernel lengths of every ``_lag_kernel`` call, as they happen."""
    sizes, lag_kernel = [], rt._lag_kernel

    def spy(*args):
        sizes.append(args[-1])
        return lag_kernel(*args)
    monkeypatch.setattr(rt, "_lag_kernel", spy)
    return sizes


@pytest.mark.parametrize("law", ["pw_finite", "uniform02", "weib2"])
def test_branching_cut_matches_loop_at_depth(law, monkeypatch):
    # by cycle 12 (4,096 copies) tail**(l**j) falls below 2**-64 within a
    # few cells, so the kernels and free parts stop short of the grid
    spec, reset = ALL_LAWS[law](), rt.ResetLaw.exponential(1.0)
    want = branching_pass_loop(spec, reset, 2, 12, UPPER, 512)
    sizes = kernel_sizes(monkeypatch)
    got = rt._branching_pass(spec, reset, 2, 12, UPPER, 512)
    assert min(sizes) < 512
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("law", ["pw_finite", "uniform02", "weib2"])
def test_branching_cut_keeps_the_atom_taps(law, monkeypatch):
    # the atoms at 0.5 and 1.5 lie between nodes and past most cuts
    spec, reset = ALL_LAWS[law](), two_atom_reset()
    want = branching_pass_loop(spec, reset, 2, 12, UPPER, 513)
    sizes = kernel_sizes(monkeypatch)
    got = rt._branching_pass(spec, reset, 2, 12, UPPER, 513)
    assert min(sizes) < 513
    assert min(sizes) * UPPER / 513 > 1.5
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def dead_time_law():
    """T uniform on [1, 2]: every race lasts the dead time [0, 1)."""
    return mrl.law_from_mrl(mrl.MrlCurve(
        grid=(0.0, 1.0), values=(1.5, 0.5), terminal="linear",
        terminal_slope=-0.5))


def test_branching_cut_where_the_root_rounds_to_one():
    # from cycle 38, (2**-64) ** (1 / 3**j) rounds to 1, which the tail is
    # on the dead time: the cut must still keep the whole dead time
    spec, reset = dead_time_law(), rt.ResetLaw.exponential(5.0)
    want = branching_pass_loop(spec, reset, 3, 40, UPPER, 256)
    got = rt._branching_pass(spec, reset, 3, 40, UPPER, 256)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_branching_ffts_end_at_the_support(monkeypatch):
    # T uniform on [0, 2] on a grid to 10: no kernel reaches past the
    # support end, so no product needs the 2n of a full-length kernel
    spec, reset, n = uniform02(), rt.ResetLaw.exponential(1.0), 8192
    depth = rt._cycle_reach(spec, reset, 2, 1e-6)[0]
    lengths, rfft = [], np.fft.rfft

    def spy(a, size=None, *args, **kwargs):
        lengths.append(size)
        return rfft(a, size, *args, **kwargs)
    monkeypatch.setattr(np.fft, "rfft", spy)
    rt._branching_pass(spec, reset, 2, depth, UPPER, n)
    last = math.ceil(2.0 / (UPPER / n))  # the first node past 2
    assert lengths and 2 * n not in lengths
    assert max(lengths) == scipy.fft.next_fast_len(n + last, real=True)


def test_fast_len_is_scipys_real_fast_length():
    # the branching products keep their FFT lengths, and so their bits
    n = range(1, 2 ** 18 + 1)
    want = [scipy.fft.next_fast_len(k, real=True) for k in n]
    assert [rt._fast_len(k) for k in n] == want


def test_cycle_reach_past_a_dead_time():
    # every race lasts the dead time, so the reach falls slowly and the
    # depth stops at the cap
    depth, reach = rt._cycle_reach(dead_time_law(),
                                   rt.ResetLaw.exponential(5.0), 2, 1e-6)
    assert depth == rt._DEPTH_CAP
    assert reach.size == rt._DEPTH_CAP + 1
    assert reach[depth - 1] > 1e-9


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("reset_name", sorted(RESETS))
@pytest.mark.parametrize("law", sorted(ALL_LAWS))
def test_cycle_reach_keeps_the_bits_of_all_61_powers(law, reset_name, l, tol):
    # the depth and the reach read are the 61-power call's, bit for bit
    spec, reset = ALL_LAWS[law](), RESETS[reset_name]()
    q = np.clip(reset.expect_tail_power(
        spec, float(l) ** np.arange(rt._DEPTH_CAP + 1)), 0.0, 1.0)
    reach = np.cumprod(q)
    depth = min(int(np.count_nonzero(reach > 1e-3 * tol)) + 1, rt._DEPTH_CAP)
    got_depth, got_reach = rt._cycle_reach(spec, reset, l, tol)
    assert got_depth == depth
    assert got_reach[:depth + 1].tobytes() == reach[:depth + 1].tobytes()


JUMP_LAWS = ("pe_mean_only", "pw_finite")  # tails that jump past 0
JUMP_RESETS = ("exp1", "uniform02")


def jump_law_pass(law: str, reset_name: str, l: int):
    """The law's solve on n cells of [0, UPPER], as ``solver_reset_tail``
    runs it (for l >= 2, to the depth it takes at tol 1e-6)."""
    spec, reset = ALL_LAWS[law](), RESETS[reset_name]()
    depth = rt._cycle_reach(spec, reset, l, 1e-6)[0] if l > 1 else 0
    return lambda n: rt._branching_pass(spec, reset, l, depth, UPPER, n)


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("reset_name", JUMP_RESETS)
@pytest.mark.parametrize("law", JUMP_LAWS)
def test_halving_differences_shrink_fourfold_across_jumps(law, reset_name, l):
    # d_n = max |y_n - y_{n/2}| on the coarse nodes falls 4x a doubling in a
    # second-order scheme; across the jumps the trapezoid alone fell 2x.
    # Where each jump falls in its cell moves with n, and the 4x with it
    # (2.3x to 7x a doubling for pw_finite), so the rate is taken over two
    # doublings, 2,048 to 8,192 cells
    solve = jump_law_pass(law, reset_name, l)
    ys = [solve(n) for n in (1024, 2048, 4096, 8192)]
    d = [np.max(np.abs(fine[::2] - coarse)) for coarse, fine in zip(ys, ys[1:])]
    assert math.sqrt(d[0] / d[2]) >= 3.5


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("reset_name", JUMP_RESETS)
@pytest.mark.parametrize("law", JUMP_LAWS)
def test_jump_law_solves_end_at_8192_within_their_estimate(law, reset_name,
                                                           l):
    # the first-order scheme doubled to 16,384-131,072 cells, and its
    # estimate read up to 2.35x low (pe_mean_only under exp:1 at l = 3:
    # 7.6e-7 against 1.8e-6)
    spec, reset = ALL_LAWS[law](), RESETS[reset_name]()
    curve = rt.solver_reset_tail(spec, reset, UPPER, l=l)
    assert curve.grid.size - 1 == 8192
    solve = jump_law_pass(law, reset_name, l)
    err = np.max(np.abs(solve(8192) - solve(2**19)[::2**19 // 8192]))
    assert err <= 1.5 * curve.err_estimate


def dense_solve(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The dense triangular solve, row by row, without the n x n matrix."""
    z = np.empty_like(c)
    for k in range(c.size):
        z[k] = (c[k] - a[k:0:-1] @ z[:k]) / a[0]
    return z


def check_toeplitz_solve(a: np.ndarray, c: np.ndarray) -> None:
    got = c.copy()
    rt._solve_lower_toeplitz(a, got)
    want = c.copy()
    blocked_solve(a, want)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(got, dense_solve(a, c), rtol=0.0, atol=1e-13)


# sizes about the 128-cell Newton seed, its doublings and a snapped grid
@pytest.mark.parametrize("n", [1, 127, 128, 129, 255, 256, 257, 1000, 2048,
                               4097, 8200])
def test_toeplitz_solve_matches_dense(n):
    rng = np.random.default_rng(n)
    a = np.concatenate([[1.0], -rng.uniform(0.0, 1.0 / n, n - 1)])
    check_toeplitz_solve(a, rng.uniform(-1.0, 1.0, n))


@st.composite
def renewal_kernels(draw):
    """First columns of renewal systems: a[0] in (0.5, 1], -a[1:] >= 0 and
    sum(-a[1:]) <= a[0], as when the cell masses add up to at most 1 (the
    reciprocal series then stays bounded). The masses are spread over every
    lag, a few lags or one."""
    n = draw(st.integers(1, 1100))
    a0 = draw(st.floats(0.5, 1.0, exclude_min=True))
    share = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masses = rng.exponential(size=n - 1)
    masses *= rng.random(n - 1) < draw(st.sampled_from([1.0, 0.05, 1e-9]))
    if n > 1 and not masses.any():
        masses[rng.integers(n - 1)] = 1.0
    total = masses.sum()
    if total > 0.0:
        masses *= share * a0 / total
    return np.concatenate([[a0], -masses]), rng.uniform(-1.0, 1.0, n)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(system=renewal_kernels())
def test_toeplitz_solve_matches_blocked_and_dense_on_renewal_kernels(system):
    check_toeplitz_solve(*system)


def test_toeplitz_solve_makes_log_n_calls(monkeypatch):
    # Newton's iteration doubles the inverse: O(log n) FFT calls, and two
    # direct products per doubling of the 128-cell seed, where one call per
    # 128-cell block would take 1,024
    counts = collections.Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((np.fft, "rfft"), (np.fft, "irfft"),
                        (np, "convolve")):
        counting(owner, name)
    n = 131072
    rng = np.random.default_rng(n)
    a = np.concatenate([[1.0], -rng.uniform(0.0, 1.0 / n, n - 1)])
    rt._solve_lower_toeplitz(a, rng.uniform(-1.0, 1.0, n))
    assert counts["rfft"] + counts["irfft"] <= 8 * math.log2(n)
    assert counts["convolve"] <= 2 * math.log2(rt._TOEPLITZ_BLOCK)


def test_largest_grid_memory():
    # the solve works in place: at n_max its peak allocation stays within
    # six float arrays of the grid's size
    n = 131072
    tracemalloc.start()
    try:
        rt._branching_pass(weib(0.5), rt.ResetLaw.exponential(1.0), 1, 0,
                           429.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * (n + 1)
