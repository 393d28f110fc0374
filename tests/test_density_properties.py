"""Property tests of densities and tail integrals on random piecewise laws.

Between consecutive tail breakpoints the tail is continuous, so on every
such cell the density must integrate to the tail's drop, tail(a) -
tail(b-). Checked for log-linear tabulated laws (whose zero knots make the
tail fall linearly), piecewise-exponential laws and laws generated by a
residual-mean curve. For log-linear tabulated laws ``mean_upper_rest``
must equal split quadrature of the tail.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import distributions as d
from resetkit._integrate import split_quad

from law_strategies import from_mrl, piecewise_exp, tabulated, unit

# a fixed, derandomized budget: the whole file runs in a few seconds
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

loglinear = tabulated(modes=("log-linear",))


@PROPERTY
@given(spec=st.one_of(loglinear, piecewise_exp(), from_mrl()))
def test_density_integrates_to_the_tail_drop(spec):
    edges = sorted({0.0, *spec.tail_breakpoints()})
    edges.append(edges[-1] + 3.0)
    for a, b in zip(edges[:-1], edges[1:]):
        mass, _ = split_quad(spec.density, a, b)
        drop = float(spec.tail(a)) - float(spec.tail(np.nextafter(b, a)))
        assert mass == pytest.approx(drop, abs=1e-10), (a, b)


@PROPERTY
@given(spec=loglinear, fracs=st.lists(unit, min_size=1, max_size=8))
def test_loglinear_mean_upper_rest_matches_quadrature(spec, fracs):
    grid = spec.curve.grid
    ts = 1.2 * grid[-1] * np.asarray(fracs)
    got = np.asarray(d.mean_upper_rest(spec, ts))
    if spec.curve.terminal > 0.0:
        assert np.all(np.isinf(got))
        return
    for t, value in zip(ts, got):
        want, _ = split_quad(lambda x: float(spec.tail(x)), float(t),
                             grid[-1], grid)
        assert value == pytest.approx(want, abs=1e-10), t
