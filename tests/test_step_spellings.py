"""Property tests of the step spellings against the step formulas.

``piecewise_constant`` documents and ``tabulated`` documents spelt
``step`` become log-linear curves of flat cells whose every jump is a
repeated knot. On random documents of both kinds the tail, its log, the
inverse tail and the atoms must keep the bits of the step formulas
(``step_loop_reference``): at the breakpoints, just before them, between
and past them and at infinity, and at every level, at 0, 1 and random u.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import distributions as d

import step_loop_reference as ref
from law_strategies import piecewise_constant_doc, tabulated_doc, unit

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=120)

step_docs = st.one_of(piecewise_constant_doc(), tabulated_doc(("step",)))


def steps_of(doc) -> tuple[list[float], list[float]]:
    if doc["family"] == "piecewise_constant":
        return doc["params"]["breakpoints"], doc["params"]["levels"]
    return doc["grid"], doc["values"]


@PROPERTY
@given(doc=step_docs, fracs=st.lists(unit, max_size=20),
       us=st.lists(unit, max_size=20))
def test_step_spellings_keep_the_step_formulas(doc, fracs, us):
    spec = d.spec_from_dict(doc)
    grid, levels = steps_of(doc)
    g = np.asarray(grid)
    ts = np.concatenate([g, np.nextafter(g[1:], 0.0),
                         1.5 * g[-1] * np.asarray(fracs), [g[-1] + 1.0, np.inf]])
    for got, loop in ((spec.tail, ref.step_tail),
                      (spec.log_tail, ref.step_log_tail)):
        want = np.array([loop(grid, levels, float(t)) for t in ts])
        assert np.asarray(got(ts)).tobytes() == want.tobytes()
    u = np.concatenate([levels, [0.0, 1e-300, 0.5, 1.0], us])
    want = np.array([ref.step_isf(grid, levels, float(x)) for x in u])
    assert np.asarray(spec.isf(u)).tobytes() == want.tobytes()
    assert spec.jumps() == ref.step_jumps(grid, levels)
