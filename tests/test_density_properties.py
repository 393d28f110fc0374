"""Property tests of densities and tail integrals on random piecewise laws.

Between consecutive tail breakpoints (and the support end) the tail is
continuous, so on every such cell the density must integrate to the
tail's drop, tail(a) - tail(b-), where tail(b-) is tail(b) plus the atom
``jumps()`` lists at b. Checked for log-linear tabulated laws (whose zero
knots make the tail fall linearly), piecewise-exponential laws and laws
generated by a residual-mean curve. On every law, the atoms ``jumps()``
lists, the density's integral and the mass at infinity must sum to 1. For
log-linear tabulated laws ``mean_upper_rest`` must equal split quadrature
of the tail (and for laws generated by a residual-mean curve, between
two points), and for step laws the mean (from the cell table) and the
second moment (by quadrature) must equal their sums over the flat cells.
The closed-form families' densities go through
the same tail-drop check.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import distributions as d
from quad_reference import split_quad

from law_strategies import (from_mrl, piecewise_constant, piecewise_exp,
                            tabulated, unit)

# a fixed, derandomized budget: the whole file runs in a few seconds
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

loglinear = tabulated(spellings=("log-linear",))


@PROPERTY
@given(spec=st.one_of(loglinear, piecewise_exp(), from_mrl()))
def test_density_integrates_to_the_tail_drop(spec):
    # cut at the support end too: a terminal piece can be singular there
    ends = (spec.t0,) if np.isfinite(spec.t0) else ()
    edges = sorted({0.0, *spec.tail_breakpoints(), *ends})
    edges.append(edges[-1] + 3.0)
    atoms = dict(spec.jumps())
    for a, b in zip(edges[:-1], edges[1:]):
        mass, _ = split_quad(spec.density, a, b)
        # tail(b-) = tail(b) + the atom at b; just below a support end the
        # tail can still be far from its limit, so no nextafter here
        drop = float(spec.tail(a)) - float(spec.tail(b)) - atoms.get(b, 0.0)
        assert mass == pytest.approx(drop, abs=1e-10), (a, b)


CLOSED_FORM = {f"{name} defect={defect}": make(defect)
               for name, make in (
                   ("exp", lambda m: d.Exponential(rate=1.5, defect=m)),
                   ("weib05", lambda m: d.Weibull(shape=0.5, defect=m)),
                   ("weib2", lambda m: d.Weibull(shape=2.0, defect=m)),
                   ("sps", lambda m: d.ShiftedParetoSquare(offset=0.5, defect=m)),
                   ("levy", lambda m: d.LevyFirstPassage(level=1.0, defect=m)))
               for defect in (0.0, 0.2)}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_closed_form_density_integrates_to_the_tail_drop(name):
    # the CLI takes these as file: reset laws, whose densities enter the
    # restarted tail
    test_density_integrates_to_the_tail_drop.hypothesis.inner_test(
        CLOSED_FORM[name])


@PROPERTY
@given(spec=st.one_of(piecewise_constant(), tabulated(), piecewise_exp(),
                      from_mrl()))
def test_jumps_list_every_drop_of_the_tail(spec):
    # the atoms, the density and the mass at infinity hold all the mass
    ends = (spec.t0,) if np.isfinite(spec.t0) else ()
    edges = sorted({0.0, *spec.tail_breakpoints(), *ends}) + [np.inf]
    mass = sum(split_quad(spec.density, a, b)[0]
               for a, b in zip(edges[:-1], edges[1:]))
    atoms = sum(w for _, w in spec.jumps())
    assert atoms + mass + spec.mass_at_infinity == pytest.approx(1.0,
                                                                 abs=1e-9)


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


@PROPERTY
@given(spec=from_mrl(), fracs=st.lists(unit, min_size=1, max_size=8))
def test_from_mrl_mean_upper_rest_matches_quadrature(spec, fracs):
    # the rest is m * tail at each point, so between two points it must be
    # the tail's integral
    knots = spec.curve.grid
    end = min(spec.t0, knots[-1] + 3.0)
    ts = end * np.asarray(fracs)
    got = np.asarray(d.mean_upper_rest(spec, ts)) \
        - float(d.mean_upper_rest(spec, end))
    for t, value in zip(ts, got):
        want, _ = split_quad(lambda x: float(spec.tail(x)), float(t), end,
                             knots)
        assert value == pytest.approx(want, abs=1e-10), t


@PROPERTY
@given(spec=st.one_of(piecewise_constant(), tabulated(spellings=("step",))))
def test_step_moments_match_the_cell_sums(spec):
    # E[T**p] is the sum of v (b**p - a**p) over the flat cells [a, b) of
    # value v; a repeated knot is a cell of width 0
    g, v = spec.curve.grid, spec.curve.knot_values
    for got, p in ((d.mean(spec), 1.0), (d.second_moment(spec), 2.0)):
        if spec.mass_at_infinity > 0.0:
            assert got == np.inf
        else:
            want = float(np.sum(v[:-1] * np.diff(g ** p)))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


# residual-mean slopes down to -1 - 1e-6 pass validation
steep_from_mrl = from_mrl(slopes=(-1.0 - 9e-7, -1.0 - 5e-7, -1.0, -0.7, 0.4))


@PROPERTY
@given(spec=steep_from_mrl)
def test_from_mrl_tail_never_rises(spec):
    # below slope -1 the tail rose (tail ~ m ** -(1 + 1/slope)), the
    # density went negative and jumps() missed the atom at the support end
    knots = np.asarray(spec.curve.grid)
    end = spec.t0 if np.isfinite(spec.t0) else knots[-1] + 3.0
    ts = np.unique(np.concatenate([np.linspace(0.0, end, 2001), knots,
                                   np.maximum(knots - 1e-9, 0.0)]))
    assert np.all(np.diff(np.asarray(spec.tail(ts))) <= 1e-12)
    assert np.all(np.asarray(spec.density(ts)) >= 0.0)
    edges = sorted({0.0, *spec.tail_breakpoints(), end}) + [np.inf]
    mass = sum(split_quad(spec.density, a, b)[0]
               for a, b in zip(edges[:-1], edges[1:]))
    atoms = sum(w for _, w in spec.jumps())
    assert atoms + mass + spec.mass_at_infinity == pytest.approx(1.0,
                                                                 abs=1e-9)
