"""Property tests of the inverse tail on random piecewise laws.

``isf`` is the one inverse-transform path: the simulator calls it on whole
arrays of uniforms, the horizon and scale helpers on single numbers. For
random piecewise-constant, piecewise-exponential, tabulated (step and
log-linear) and residual-mean-generated laws, an array call must equal the
calls made one u at a time bit for bit, and ``isf`` must be a generalised
inverse of the tail: tail(isf(u)) <= u. Where the array code replaced a
per-element loop, it must also return that loop's bits
(``isf_loop_reference``).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import distributions as d
from resetkit import mrl

import isf_loop_reference as ref
from fixture_laws import ALL_LAWS

# a fixed, derandomized budget: the whole file runs in a few seconds
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=80)

# tail(isf(u)) <= u holds in exact arithmetic; isf(u) and the tail each
# round, so the check allows a relative 1e-12 in t and in u
ROUNDING = 1e-12

steps = st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6)
unit = st.floats(0.0, 1.0)


def starts(widths) -> tuple[float, ...]:
    return (0.0,) + tuple(float(x) for x in np.cumsum(widths[:-1]))


@st.composite
def piecewise_constant(draw):
    widths = draw(steps)
    levels = sorted(draw(st.lists(unit, min_size=len(widths),
                                  max_size=len(widths))), reverse=True)
    return d.PiecewiseConstantTail(breakpoints=starts(widths),
                                   levels=tuple(levels), check_standing=False)


@st.composite
def piecewise_exp(draw):
    widths = draw(steps)
    segs, offset = [], draw(st.floats(0.0, 2.0))
    for s, w in zip(starts(widths), widths):
        rate = draw(st.sampled_from([0.0, 0.3, 1.0, 4.0]))
        segs.append((s, offset, rate))
        offset += rate * w + draw(st.sampled_from([0.0, 0.0, 0.5]))
    if draw(st.booleans()):
        segs[-1] = segs[-1][:2] + (1.5,)
    defect = draw(st.sampled_from([0.0, 0.0, 0.2]))
    return d.PiecewiseExpTail(segments=tuple(segs), defect=defect,
                              check_standing=False)


@st.composite
def tabulated(draw):
    widths = draw(steps)
    grid = starts(widths) + (float(sum(widths)),)
    first = draw(st.floats(0.05, 1.0))
    ladder = [first] + sorted((min(x, first) for x in draw(
        st.lists(st.one_of(unit, st.just(0.0)), min_size=len(widths),
                 max_size=len(widths)))), reverse=True)
    curve = d.TailCurve(grid=grid, values=tuple(ladder[:-1]),
                        terminal=ladder[-1],
                        mode=draw(st.sampled_from(["step", "log-linear"])))
    return d.Tabulated(curve=curve, check_standing=False)


@st.composite
def from_mrl(draw):
    widths = draw(steps)
    grid = starts(widths) + (float(sum(widths)),)
    values = [draw(st.floats(0.2, 3.0))]
    for w in widths:
        slope = draw(st.sampled_from([-1.0, -0.7, 0.0, 0.4, 2.0]))
        values.append(max(values[-1] + slope * w, 0.05))
    curve = mrl.MrlCurve(grid=grid, values=tuple(values),
                         terminal=draw(st.sampled_from(["constant", "linear"])),
                         m0=values[0] * draw(st.floats(0.5, 1.0)))
    return mrl.law_from_mrl(curve)


laws = st.one_of(piecewise_constant(), piecewise_exp(), tabulated(),
                 from_mrl())
levels = st.lists(unit, min_size=1, max_size=30).map(
    lambda xs: np.asarray(xs + [0.0, 1e-300, 1e-9, 0.5, 1.0]))


@PROPERTY
@given(spec=laws, us=levels)
def test_array_isf_is_scalar_isf_bitwise(spec, us):
    arr = np.asarray(spec.isf(us))
    one = np.array([spec.isf(float(u)) for u in us])
    assert arr.shape == us.shape
    assert arr.tobytes() == one.tobytes()
    grid = np.asarray(spec.isf(us.reshape(-1, 1)))
    assert grid.tobytes() == arr.reshape(-1, 1).tobytes()


@PROPERTY
@given(spec=laws, us=levels)
def test_isf_is_a_generalised_inverse(spec, us):
    t = np.asarray(spec.isf(us))
    assert np.all(t >= 0.0)
    back = np.asarray(spec.tail(t * (1.0 + ROUNDING)))
    assert np.all(back <= us * (1.0 + ROUNDING)), (us, t, back)


def reference_for(spec):
    if isinstance(spec, d.PiecewiseExpTail):
        return ref.piecewise_exp_isf
    if isinstance(spec, d.Tabulated) and spec.curve.mode == "log-linear":
        return ref.loglinear_isf
    if isinstance(spec, mrl.FromMrl):
        return ref.from_mrl_isf
    if isinstance(spec, d.Weibull):
        return ref.weibull_isf
    return None


def assert_matches_reference(spec, us):
    loop = reference_for(spec)
    if loop is None or spec.defect:
        return
    want = np.array([loop(spec, float(u)) for u in us])
    assert np.asarray(spec.isf(us)).tobytes() == want.tobytes()


@PROPERTY
@given(spec=laws, us=levels)
def test_isf_matches_the_loop_reference(spec, us):
    assert_matches_reference(spec, us)


@pytest.mark.parametrize("name", ["pe_mean_only", "plateau", "uniform02",
                                  "weib05", "weib2", "loglinear"])
def test_fixture_isf_matches_the_loop_reference(name):
    if name == "loglinear":
        rng = np.random.default_rng(424242)
        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 8.0, 249))])
        ladder = np.sort(rng.uniform(1e-6, 1.0, 250))[::-1]
        spec = d.Tabulated(curve=d.TailCurve(
            grid=tuple(grid), values=tuple(ladder[:-1]), terminal=0.0,
            mode="log-linear"), check_standing=False)
    else:
        spec = ALL_LAWS[name]()
    us = np.concatenate([np.linspace(0.0, 1.0, 2001),
                         np.random.default_rng(9).random(2000),
                         np.geomspace(1e-300, 1.0, 200)])
    assert_matches_reference(spec, us)
