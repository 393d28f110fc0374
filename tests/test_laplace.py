"""The tail's Laplace transform in closed form.

Exponential, Levy and step and log-linear tabulated laws answer
``laplace_tail`` from their ``_laplace0`` hook, with no quadrature: the
tabulated ones as a sum over their cells. Checked: the sums match ``quad``
on random piecewise laws with defects, jumps, cells that end at zero and
terminal rates; no ``panels`` call is made; the Levy mean under
constant-rate restart is its closed form.
"""
import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resetkit import _integrate
from resetkit import distributions as d
from resetkit import reset_transform as rt

import laplace_loop_reference as loop
from fixture_laws import exp_law, levy, pe_law, pw_finite, pw_sixth
from law_strategies import piecewise_constant, piecewise_exp, tabulated

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=80)

piecewise = st.one_of(piecewise_constant(), piecewise_exp(), tabulated())


@PROPERTY
@given(spec=piecewise, defect=st.sampled_from([0.0, 0.0, 0.3]),
       log_rate=st.floats(-3.0, 3.0))
def test_cell_sums_match_quadrature(spec, defect, log_rate):
    spec = dataclasses.replace(spec, defect=max(spec.defect, defect))
    mu = 10.0 ** log_rate
    want = loop.laplace_tail_by_quad(spec, mu)
    assert rt.laplace_tail(spec, mu) == pytest.approx(want, rel=1e-13,
                                                      abs=1e-300)


def test_cell_ending_at_zero_across_the_series_switch():
    # a cell falling linearly to 0 over [0, 1]: its share (x - 1 + e^-x) /
    # x**2 is taken by its series below x = 0.1 and directly above
    curve = d.TailCurve(grid=(0.0, 1.0), values=(1.0,), terminal=0.0)
    spec = d.Tabulated(curve=curve)
    for mu in (1e-6, 0.0999, 0.1, 0.1001, 3.0):
        with decimal.localcontext(prec=40):
            x = decimal.Decimal(mu)
            want = float((x - 1 + (-x).exp()) / (x * x))
        assert rt.laplace_tail(spec, mu) == pytest.approx(want, rel=1e-14)


def test_terminal_rate_and_jump():
    # exp(-t) to 1, a jump to exp(-2), then exp(-(2 + 3 (t - 1)))
    spec = pe_law(((0.0, 0.0, 1.0), (1.0, 2.0, 3.0)))
    assert spec.curve.terminal_rate == 3.0
    mu = 0.7
    want = (-math.expm1(-(1.0 + mu))) / (1.0 + mu) \
        + math.exp(-2.0 - mu) / (3.0 + mu)
    assert rt.laplace_tail(spec, mu) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("make", [
    exp_law, levy, pw_finite, pw_sixth,
    lambda: pe_law(((0.0, 0.1, 1.0), (1.0, 1.25, 1.5)), defect=0.2),
    lambda: dataclasses.replace(exp_law(2.0), defect=0.1),
    lambda: dataclasses.replace(levy(0.5), defect=0.3),
    lambda: d.Tabulated(curve=d.TailCurve(
        grid=(0.0, 0.5, 0.5, 2.0), values=(0.9, 0.6, 0.3), terminal=0.0),
        defect=0.05)])
def test_closed_forms_make_no_panels_call(make, monkeypatch):
    spec = make()
    calls = []
    real = _integrate.panels

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(_integrate, "panels", counted)
    monkeypatch.setattr(rt, "panels", counted)
    rates = np.array([0.01, 0.5, 3.0, 200.0])
    many = rt.laplace_tail(spec, rates)
    one = [rt.laplace_tail(spec, mu) for mu in rates]
    assert calls == []
    assert many.tobytes() == np.array(one).tobytes()


def test_levy_mean_under_exponential_restart_is_its_closed_form():
    # E[exp(-mu T)] = exp(-sqrt(2 mu)) for level 1, so the restarted mean
    # at rate mu is (exp(sqrt(2 mu)) - 1) / mu; the quadrature of the tail
    # was 7.5e-12 off at mu = 5
    want = math.expm1(math.sqrt(10.0)) / 5.0
    assert rt.exp_reset_mean(levy(1.0), 5.0) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("mu", [5.0, 50.0, 500.0])
def test_levy_mean_divides_by_its_closed_transform(mu):
    # 1 - mu L formed E[exp(-mu T)] = exp(-sqrt(2 mu)) by subtraction: 1.3e-13
    # relative off at mu = 50 and 2.0e-3 at mu = 500
    want = math.expm1(math.sqrt(2.0 * mu)) / mu
    assert rt.exp_reset_mean(levy(1.0), mu) == pytest.approx(want, rel=1e-13)
    rates = np.array([mu, 2.0 * mu])
    defective = dataclasses.replace(levy(1.0), defect=0.25)
    assert rt.exp_reset_mean(defective, rates) == pytest.approx(
        [(0.25 / m + 0.75 * math.expm1(-math.sqrt(2.0 * m)) / -m)
         / (0.75 * math.exp(-math.sqrt(2.0 * m))) for m in rates], rel=1e-13)
