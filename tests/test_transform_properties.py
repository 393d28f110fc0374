"""Property tests of restarted tails on random laws and random reset laws.

Laws are the random piecewise laws of ``law_strategies``; reset laws are
exponential, deterministic, or a general law generated by a random
residual-mean curve (which may hold atoms at 0 and at its support end).
Checked: restarted tails are probabilities and do not increase, l = 2
branching never leaves more survivors than plain restart, the exponential
law is a fixed point of restart, the l = 2 tail under exponential restart
integrates to the branching mean series, and so does the closed-form tail
under deterministic restart for l = 2 and 3.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import distributions as d
from resetkit import mrl
from resetkit import reset_transform as rt
from resetkit._integrate import kinks

from law_strategies import from_mrl, piecewise_constant, piecewise_exp, tabulated

# a fixed, derandomized budget: the whole file runs in about ten seconds
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=30)

# a law with T = 0 surely has restarted tail 0, which no TailCurve holds
laws = st.one_of(piecewise_constant(), piecewise_exp(), tabulated(),
                 from_mrl()).filter(lambda spec: float(spec.tail(0.0)) > 0.0)
resets = st.one_of(
    st.floats(0.3, 3.0).map(rt.ResetLaw.exponential),
    st.floats(0.2, 3.0).map(rt.ResetLaw.deterministic),
    from_mrl().map(rt.ResetLaw.general))
GRID = np.linspace(0.0, 4.0, 41)
FAST = dict(tol=1e-5, n0=2048)


def branched_tail(spec, reset, l):
    """The restarted tail on GRID, or None where the l-fold race is refused
    because, as checked here, it may still run after 60 cycles."""
    try:
        return rt.reset_tail(spec, reset, GRID, l=l, **FAST)
    except rt.SeriesNotConvergingError:
        reach = np.prod(reset.expect_tail_power(spec, float(l) ** np.arange(60)))
        assert reach > FAST["tol"]
        return None


@PROPERTY
@given(spec=laws, reset=resets, l=st.sampled_from([1, 2]))
def test_restarted_tail_is_a_tail(spec, reset, l):
    curve = branched_tail(spec, reset, l)
    if curve is not None:
        vals = curve.knot_values
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 0.0)


@PROPERTY
@given(spec=laws, reset=resets)
def test_branching_leaves_no_more_survivors(spec, reset):
    plain = rt.reset_tail(spec, reset, GRID, **FAST)
    branched = branched_tail(spec, reset, 2)
    if branched is None:
        return
    slack = plain.err_estimate + branched.err_estimate
    assert np.all(branched.knot_values <= plain.knot_values + slack)


@PROPERTY
@given(rate=st.floats(0.2, 3.0), reset=resets)
def test_exponential_law_is_a_fixed_point(rate, reset):
    law = d.Exponential(rate=rate)
    if reset.kind == "deterministic":  # the closed form
        curve = rt.reset_tail(law, reset, GRID)
    else:  # the solver's own knots, free of interpolation error
        curve = rt.solver_reset_tail(law, reset, 4.0)
    want = np.exp(-rate * np.asarray(curve.grid))
    assert np.max(np.abs(curve.knot_values - want)) <= \
        2.0 * curve.err_estimate + 1e-12


@pytest.mark.xfail(strict=True, reason="cell masses next to a singular reset "
                   "density are midpoint sums, off by ~h**0.9, which the "
                   "grid-halving estimate does not see")
def test_fixed_point_next_to_a_singular_reset_density():
    # found by the property above with a larger budget: terminal slope
    # -0.53 makes the reset density blow up like m**-0.1 at its support
    # end; the solve stalls ~1e-6 off with err_estimate 1.6e-7
    reset = rt.ResetLaw.general(mrl.law_from_mrl(mrl.MrlCurve(
        grid=(0.0, 1.4856976668774915), values=(0.832217763033632, 0.05),
        m0=0.7714333731242916, terminal="linear")))
    curve = rt.solver_reset_tail(d.Exponential(rate=0.2), reset, 4.0)
    want = np.exp(-0.2 * np.asarray(curve.grid))
    assert np.max(np.abs(curve.knot_values - want)) <= \
        2.0 * curve.err_estimate + 1e-12


@PROPERTY
@given(spec=st.one_of(tabulated(spellings=("log-linear",)), from_mrl()),
       mu=st.floats(0.5, 3.0))
def test_branching_tail_integrates_to_the_mean_series(spec, mu):
    # by 25 / mu some 25 restarts have come, each racing twice the copies
    upper = 25.0 / mu
    curve = rt.branching_reset_tail(spec, rt.ResetLaw.exponential(mu), 2,
                                    upper)
    grid, vals = np.asarray(curve.grid), curve.knot_values
    mean = float(np.trapezoid(vals, grid))
    # the trapezoid's own error, at the kinks of the law, by halving
    quad_err = abs(mean - float(np.trapezoid(vals[::2], grid[::2])))
    assert mean == pytest.approx(rt.branching_mean_exponential(spec, mu, 2),
                                 abs=curve.err_estimate * upper + quad_err)


@PROPERTY
@given(spec=st.one_of(tabulated(spellings=("log-linear",)), from_mrl()),
       r=st.floats(0.2, 3.0), l=st.sampled_from([2, 3]))
def test_branching_deterministic_tail_integrates_to_the_mean_series(spec, r,
                                                                    l):
    fr = float(spec.tail(r))
    if fr >= 1.0:  # every cycle ends in a restart: no finite mean
        with pytest.raises(rt.SeriesNotConvergingError):
            rt.branching_mean_deterministic(spec, r, l)
        return
    # cycle k >= 1 is reached with probability fr**((l**k - 1) / (l - 1))
    k = np.arange(1, 61)
    with np.errstate(divide="ignore"):
        reach = (float(l) ** k - 1.0) / (l - 1.0) * np.log(fr)
    cycles = 1 + int(np.count_nonzero(reach > np.log(1e-17)))
    # in each cycle the closed form is smooth between the law's kinks; the
    # trapezoid runs over each such piece, short by delta of its ends,
    # where the tail may jump (and the cycle count be rounded)
    edges = np.unique(np.r_[0.0, kinks((spec,)), r])
    edges = edges[edges <= r]
    delta = 1e-13 * r
    starts = np.arange(cycles)[:, None] * r

    def trapezoid(n):
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            t = starts + np.linspace(a + delta, b - delta, n + 1)
            vals = np.asarray(rt.branching_deterministic_tail(spec, r, l, t))
            total += float(np.sum(np.trapezoid(vals, t, axis=-1)))
        return total

    mean = trapezoid(512)
    # the trapezoid's own error, by halving, and the ends left out
    quad_err = abs(mean - trapezoid(256)) + 2.0 * delta * edges.size * cycles
    assert mean == pytest.approx(rt.branching_mean_deterministic(spec, r, l),
                                 abs=quad_err)
