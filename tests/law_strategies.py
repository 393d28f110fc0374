"""Hypothesis strategies for random laws shared by the property tests.

Piecewise-constant laws (step curves, read from their
``piecewise_constant`` documents), piecewise-exponential laws (log-linear
curves with jumps at repeated knots and an exponential terminal piece,
read from their ``piecewise_exp`` segments), tabulated laws (read from
their step or log-linear spelling, with zero knots) and
residual-mean-generated laws, on up to six cells; and the families with a
closed-form inverse tail, at random parameters. The piecewise-constant and
tabulated documents are strategies too.
"""
import numpy as np
from hypothesis import strategies as st

from resetkit import distributions as d
from resetkit import mrl

from fixture_laws import pe_law

steps = st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6)
unit = st.floats(0.0, 1.0)


def starts(widths) -> tuple[float, ...]:
    return (0.0,) + tuple(float(x) for x in np.cumsum(widths[:-1]))


@st.composite
def piecewise_constant_doc(draw):
    widths = draw(steps)
    levels = sorted(draw(st.lists(unit, min_size=len(widths),
                                  max_size=len(widths))), reverse=True)
    return {"family": "piecewise_constant", "check_standing": False,
            "params": {"breakpoints": list(starts(widths)), "levels": levels}}


def piecewise_constant():
    return piecewise_constant_doc().map(d.spec_from_dict)


@st.composite
def pe_segments(draw):
    """(start, offset, rate) segments with rates 0 to 4 and downward jumps."""
    widths = draw(steps)
    segs, offset = [], draw(st.floats(0.0, 2.0))
    for s, w in zip(starts(widths), widths):
        rate = draw(st.sampled_from([0.0, 0.3, 1.0, 4.0]))
        segs.append((s, offset, rate))
        offset += rate * w + draw(st.sampled_from([0.0, 0.0, 0.5]))
    if draw(st.booleans()):
        segs[-1] = segs[-1][:2] + (1.5,)
    return tuple(segs)


@st.composite
def piecewise_exp(draw):
    segs = draw(pe_segments())
    defect = draw(st.sampled_from([0.0, 0.0, 0.2]))
    return pe_law(segs, defect=defect, check_standing=False)


@st.composite
def tabulated_doc(draw, spellings=("step", "log-linear")):
    """A ``tabulated`` document in one of its ``interpolation`` spellings:
    a value per grid point, the last one the terminal."""
    widths = draw(steps)
    grid = starts(widths) + (float(sum(widths)),)
    first = draw(st.floats(0.05, 1.0))
    ladder = [first] + sorted((min(x, first) for x in draw(
        st.lists(st.one_of(unit, st.just(0.0)), min_size=len(widths),
                 max_size=len(widths)))), reverse=True)
    return {"family": "tabulated", "check_standing": False, "grid": list(grid),
            "values": ladder, "interpolation": draw(st.sampled_from(spellings))}


def tabulated(spellings=("step", "log-linear")):
    return tabulated_doc(spellings).map(d.spec_from_dict)


@st.composite
def from_mrl(draw, slopes=(-1.0, -0.7, 0.0, 0.4, 2.0)):
    widths = draw(steps)
    grid = starts(widths) + (float(sum(widths)),)
    values = [draw(st.floats(0.2, 3.0))]
    for w in widths:
        slope = draw(st.sampled_from(slopes))
        values.append(max(values[-1] + slope * w, 0.05))
    curve = mrl.MrlCurve(grid=grid, values=tuple(values),
                         terminal=draw(st.sampled_from(["constant", "linear"])),
                         m0=values[0] * draw(st.floats(0.5, 1.0)))
    return mrl.law_from_mrl(curve)


def closed_form():
    """Weibull (shape in [0.2, 5]), exponential, shifted-Pareto-square and
    Lévy laws, each with mass 0 or 0.2 at infinity."""
    defect = st.sampled_from([0.0, 0.2])
    return st.one_of(
        st.builds(d.Weibull, shape=st.floats(0.2, 5.0), defect=defect),
        st.builds(d.Exponential, rate=st.floats(0.1, 10.0), defect=defect),
        st.builds(d.ShiftedParetoSquare, offset=st.floats(0.05, 0.95),
                  defect=defect),
        st.builds(d.LevyFirstPassage, level=st.floats(0.2, 5.0),
                  defect=defect))
