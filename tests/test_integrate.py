"""The quadrature layer: tanh-sinh panels cut at the kinks of given laws."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import _integrate as ig
from resetkit import distributions as d
from resetkit import mrl
from resetkit import reset_transform as rt

from fixture_laws import ALL_LAWS, pw_finite, uniform02, weib
from law_strategies import from_mrl, piecewise_constant, piecewise_exp, tabulated
from quad_reference import split_quad, tanhsinh_panels


def _from_mrl_reset():
    # knots where the density jumps, and a piece of slope close to -1
    return rt.ResetLaw.general(mrl.law_from_mrl(mrl.MrlCurve(
        grid=(0.0, 0.4, 1.1, 1.6), values=(1.2, 1.3, 0.6, 1.1))))


def _loglinear_reset():
    grid = np.array([0.0, 0.3, 0.7, 1.2, 2.0, 3.1])
    return rt.ResetLaw.general(d.Tabulated(curve=d.TailCurve(
        grid=grid, values=(1.0, 0.8, 0.35, 0.3, 0.1), terminal=0.0)))


RESETS = {
    "exp1": lambda: rt.ResetLaw.exponential(1.0),
    "uniform02": lambda: rt.ResetLaw.general(uniform02()),
    "from_mrl": _from_mrl_reset,
    "loglinear": _loglinear_reset,
}


def test_panels_in_one_call_with_an_infinite_upper_limit():
    vals, errs = ig.panels(lambda x: np.exp(-x), [0.0, 1.0], [1.0, np.inf])
    np.testing.assert_allclose(vals, [1.0 - math.exp(-1.0), math.exp(-1.0)],
                               rtol=1e-14)
    assert np.all(errs < 1e-13)


def test_quad_takes_an_endpoint_singularity():
    val, err = ig.quad(lambda x: 0.5 / np.sqrt(x), 0.0, 4.0)
    assert val == pytest.approx(2.0, rel=1e-13)
    assert err < 1e-12


def test_kinks_are_breakpoints_and_support_ends():
    assert ig.kinks((pw_finite(), uniform02())).tolist() == [1.0, 1.5, 2.0]
    # a defect moves t0 to inf; the base law's support end is still a kink
    defective = mrl.FromMrl(curve=uniform02().curve, defect=0.25)
    assert defective.t0 == np.inf
    assert ig.kinks((defective,)).tolist() == [1.0, 2.0]


def test_one_ulp_panel_is_merged():
    # a cut one ulp past another made a one-ulp panel, where tanh-sinh
    # returns NaN (and reset_mean then returned inf)
    near = (0.4, np.nextafter(0.4, 1.0))
    assert ig.cuts(0.0, 1.0, near).tolist() == [0.0, 0.4, 1.0]
    val, err = ig.quad(lambda x: x, 0.0, 1.0, points=near)
    assert val == pytest.approx(0.5, rel=1e-14)
    assert np.isfinite(err)
    end = (np.nextafter(1.0, 0.0),)
    assert ig.cuts(0.0, 1.0, end).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("reset_name", sorted(RESETS))
@pytest.mark.parametrize("law", sorted(ALL_LAWS))
def test_error_stays_within_tolerance(law, reset_name):
    # a kink inside a panel stalls tanh-sinh: its error estimate then
    # exceeds the tolerance, so this fails when quad misses a kink
    spec, reset = ALL_LAWS[law](), RESETS[reset_name]()
    upper = reset.horizon()
    for fn in (lambda s: spec.tail(s) * reset.density(s),
               lambda s: spec.tail(s) * reset.tail(s)):
        val, err = ig.quad(fn, 0.0, upper, laws=(spec, reset.spec))
        assert err <= 1e-12 * max(1.0, abs(val))
        pts = ig.kinks((spec, reset.spec))
        want, _ = split_quad(lambda s: float(fn(s)), 0.0, upper, pts)
        assert val == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_cumulative():
    # points in any order, one repeated; the law's jumps at 1, 1.5 and 2
    # cut the panels they fall in
    points = np.array([3.0, 0.5, 0.0, 1.7, 0.5])
    got = ig.cumulative(np.exp, points)
    np.testing.assert_allclose(got, np.exp(points) - 1.0, rtol=1e-14)
    law = pw_finite()
    got = ig.cumulative(law.tail, points, laws=(law,))
    want = np.interp(points, [0.0, 1.0, 1.5, 2.0],
                     [0.0, 0.5, 0.625, 0.625 + 1.0 / 12.0])
    np.testing.assert_allclose(got, want, rtol=1e-14)
    assert ig.cumulative(np.exp, [0.0, 0.0]).tolist() == [0.0, 0.0]


def test_gl_panel_builds_the_rule_once(monkeypatch):
    edges = np.array([0.0, 0.25, 1.0, 3.5])
    x, w = np.polynomial.legendre.leggauss(12)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    want_nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    want_weights = (half[:, None] * w[None, :]).ravel()
    ig.gl_panel(edges)

    def rebuilt(order):
        raise AssertionError("gl_panel rebuilt the Gauss-Legendre rule")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", rebuilt)
    nodes, weights = ig.gl_panel(edges)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    rows_nodes, rows_weights = ig.gl_panel(np.stack([edges, edges]))
    assert rows_nodes.tobytes() == np.tile(want_nodes, 2).tobytes()
    assert rows_weights.tobytes() == np.tile(want_weights, 2).tobytes()


def same_bits_as_scipy(fn, lo, hi, args=()):
    """``panels`` over [lo, hi]; asserts its integrals and errors are those
    of ``scipy.integrate.tanhsinh``, bit for bit and in the same shape."""
    got = ig.panels(fn, lo, hi, args=args)
    want = tanhsinh_panels(fn, lo, hi, args=args)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    return got


def test_panels_match_scipy_on_finite_and_infinite_panels():
    vals, _ = same_bits_as_scipy(lambda x: np.exp(-x), [0.0, 1.0], [1.0, np.inf])
    np.testing.assert_allclose(vals, [1.0 - math.exp(-1.0), math.exp(-1.0)],
                               rtol=1e-14)


def test_panels_match_scipy_on_an_endpoint_singularity():
    vals, _ = same_bits_as_scipy(lambda x: 0.5 / np.sqrt(x), [0.0], [4.0])
    assert vals[0] == pytest.approx(2.0, rel=1e-13)


def test_zero_width_panels_give_zero_with_error_zero():
    lo = [0.0, 1.0, 1.0, 2.0, np.inf]
    hi = [1.0, 1.0, 2.0, np.inf, np.inf]
    vals, errs = same_bits_as_scipy(lambda x: np.exp(-x), lo, hi)
    assert vals[1] == vals[4] == errs[1] == errs[4] == 0.0
    assert np.all(vals[[0, 2, 3]] > 0.0)


def test_panels_match_scipy_with_args_as_the_renewal_solver_passes_them():
    # _cell_integrals: one row of powers per panel, and a mask choosing the
    # reset density (True) or the free part's reset tail (False)
    spec, reset, l = weib(0.5), rt.ResetLaw.general(uniform02()), 2
    lo = np.array([0.0, 0.05, 0.3, 1.0, 0.0, 0.1])
    hi = np.array([0.05, 0.1, 1.0, 1.5, 0.1, 0.2])
    dens = np.arange(lo.size) < 4
    m = np.array([1.0, 2.0, 4.0])[:, None] * np.where(dens, 1.0, l)

    def f(x, m, dens):
        return np.asarray(spec.tail(x)) ** m * np.where(
            dens, reset.density(x), reset.tail(x))

    vals, _ = same_bits_as_scipy(f, lo, hi, args=(m, dens))
    assert vals.shape == (3, lo.size)


def test_panels_match_scipy_with_args_as_expect_tail_power_passes_them():
    spec, reset = pw_finite(), rt.ResetLaw.general(uniform02())
    edges = ig.cuts(0.0, reset.horizon(), ig.kinks((spec, reset.spec)))
    m = np.array([0.5, 1.0, 3.0])

    def f(s, m):
        return np.exp(m * np.asarray(spec.log_tail(s))) * reset.density(s)

    vals, _ = same_bits_as_scipy(f, edges[:-1], edges[1:], args=(m[..., None],))
    assert vals.shape == (m.size, edges.size - 1)


def test_panel_holding_a_jump_runs_every_level():
    calls = []

    def step(x):
        calls.append(x.shape)
        return np.where(x < 0.3, 1.0, 2.0)

    vals, errs = same_bits_as_scipy(step, [0.0], [1.0])
    # panels (called first) evaluates once per level from 2 to 10: the 66
    # nodes of levels 0-2, then the new nodes of each level, 2 * 4096 at 10
    assert calls[:len(ig._LEVELS)] == [(1, 66)] + [(1, 2 * 8 * 2**(k - 1))
                                                   for k in ig._LEVELS[1:]]
    assert errs[0] > ig._RTOL * abs(vals[0])


panel_laws = st.one_of(piecewise_constant(), piecewise_exp(), tabulated(),
                       from_mrl())


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(spec=panel_laws,
       cuts=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8),
       to_inf=st.booleans())
def test_panels_match_scipy_on_random_tails(spec, cuts, to_inf):
    edges = np.sort(np.r_[0.0, cuts, np.inf if to_inf else []])
    same_bits_as_scipy(spec.tail, edges[:-1], edges[1:])
