"""Property tests of the inverse tail on random laws.

``isf`` is the one inverse-transform path: the simulator calls it on whole
arrays of uniforms, the horizon and scale helpers on single numbers. For
random piecewise-constant, piecewise-exponential, tabulated (step and
log-linear), residual-mean-generated and closed-form (Weibull,
exponential, shifted-Pareto-square, Lévy) laws, an array call must equal
the calls made one u at a time, on Python floats and on 0-d arrays, and a
call on a strided view, bit for bit; numpy's log, power and exp give a
scalar the bits of the whole-array call, so the inverses use them and no
scalar ``**``. ``isf`` must be a generalised inverse of the tail:
tail(isf(u)) <= u. Where the array code replaced a per-element loop, it
must also return that loop's bits (``isf_loop_reference``), and it makes
no per-element Python call.
"""
import builtins
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import distributions as d
from resetkit import mrl

import isf_loop_reference as ref
from fixture_laws import ALL_LAWS, weib
from law_strategies import (closed_form, from_mrl, piecewise_constant,
                            piecewise_exp, tabulated, unit)
from test_reset_transform import _loglinear_law

# a fixed, derandomized budget: the whole file runs in a few seconds
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=80)

# tail(isf(u)) <= u holds in exact arithmetic; isf(u) and the tail each
# round, so the check allows a relative 1e-12 in t and in u
ROUNDING = 1e-12

laws = st.one_of(piecewise_constant(), piecewise_exp(), tabulated(),
                 from_mrl(), closed_form())
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
    zero_d = np.array([spec.isf(np.asarray(u)) for u in us])
    assert zero_d.tobytes() == one.tobytes()
    strided = np.asarray(spec.isf(us[::2]))
    assert strided.tobytes() == arr[::2].tobytes()


@PROPERTY
@given(spec=laws, us=levels)
def test_isf_is_a_generalised_inverse(spec, us):
    t = np.asarray(spec.isf(us))
    assert np.all(t >= 0.0)
    back = np.asarray(spec.tail(t * (1.0 + ROUNDING)))
    assert np.all(back <= us * (1.0 + ROUNDING)), (us, t, back)


def reference_for(spec):
    if isinstance(spec, d.Tabulated):
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


@pytest.mark.parametrize("name", ["pe_mean_only", "plateau", "pw_finite",
                                  "pw_sixth", "uniform02", "weib05", "weib2",
                                  "loglinear"])
def test_fixture_isf_matches_the_loop_reference(name):
    if name == "loglinear":
        rng = np.random.default_rng(424242)
        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 8.0, 249))])
        ladder = np.sort(rng.uniform(1e-6, 1.0, 250))[::-1]
        spec = d.Tabulated(curve=d.TailCurve(
            grid=tuple(grid), values=tuple(ladder[:-1]), terminal=0.0),
            check_standing=False)
    else:
        spec = ALL_LAWS[name]()
    us = np.concatenate([np.linspace(0.0, 1.0, 2001),
                         np.random.default_rng(9).random(2000),
                         np.geomspace(1e-300, 1.0, 200)])
    assert_matches_reference(spec, us)


@pytest.mark.parametrize("make", [
    lambda: weib(0.5),
    lambda: _loglinear_law(np.random.default_rng(8), 250),
    ALL_LAWS["uniform02"],
], ids=["weib05", "loglinear250", "uniform02"])
def test_isf_makes_no_per_element_python_call(make, monkeypatch):
    spec = make()
    us = np.random.default_rng(27).random(4096)
    spec.isf(us)  # once first: a from_mrl law builds its tables
    calls = {"log": 0, "pow": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call
    monkeypatch.setattr(math, "log", counted("log", math.log))
    monkeypatch.setattr(builtins, "pow", counted("pow", builtins.pow))
    spec.isf(us)
    assert calls == {"log": 0, "pow": 0}
