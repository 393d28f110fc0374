"""Property tests: deterministic and exponential restart are plain reset laws.

``ResetLaw.deterministic(r)`` and ``ResetLaw.exponential(mu)`` keep closed
forms for a few quantities; the general path on the same law must agree
with them. Laws are the fixture laws plus Weibull laws of random shape.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import distributions as d
from resetkit import reset_transform as rt
from resetkit import simulator as sim

from fixture_laws import ALL_LAWS, step_law

# a fixed, derandomized budget: the whole file runs in a few seconds
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=12)

laws = st.one_of(
    st.sampled_from(sorted(ALL_LAWS)).map(lambda name: ALL_LAWS[name]()),
    st.floats(0.3, 3.0).map(lambda k: d.Weibull(shape=k)))


def one_atom(r: float) -> rt.ResetLaw:
    return rt.ResetLaw.general(step_law((0.0, r), (1.0, 0.0),
                                        check_standing=False))


def mean_or_refusal(spec, reset):
    try:
        return rt.reset_mean(spec, reset)
    except d.SpecValidationError as exc:  # P(T <= r) underflows to 0
        return str(exc)


@PROPERTY
@given(spec=laws, r=st.floats(math.log(1e-7), math.log(5.0)).map(math.exp))
def test_deterministic_mean_matches_general_path(spec, r):
    # one route for both: the cycle series of the one-atom law
    assert mean_or_refusal(spec, one_atom(r)) == \
        mean_or_refusal(spec, rt.ResetLaw.deterministic(r))


def simulate(spec, reset, config):
    try:
        return sim.simulate_reset(spec, reset, config)
    except sim.ExcessiveCensoringError as exc:  # compare what was drawn
        return exc.result


@PROPERTY
@given(spec=laws, r=st.floats(0.05, 5.0), seed=st.integers(0, 2 ** 31))
def test_deterministic_simulation_is_the_general_one(spec, r, seed):
    config = sim.SimulationConfig(replicates=200, seed=seed, max_cycles=200)
    a = simulate(spec, rt.ResetLaw.deterministic(r), config)
    b = simulate(spec, one_atom(r), config)
    assert np.array_equal(a.times, b.times)
    assert a.cycle_histogram == b.cycle_histogram


@PROPERTY
@given(spec=laws, mu=st.floats(0.2, 5.0))
def test_exponential_matches_general_path(spec, mu):
    exp = rt.ResetLaw.exponential(mu)
    gen = rt.ResetLaw.general(d.Exponential(rate=mu))
    grid = np.linspace(0.0, 3.0, 31)
    a = rt.reset_tail(spec, exp, grid, tol=1e-5, n0=2048)
    b = rt.reset_tail(spec, gen, grid, tol=1e-5, n0=2048)
    assert a == b
    assert rt.reset_mean(spec, gen) == \
        pytest.approx(rt.reset_mean(spec, exp), rel=1e-8)
