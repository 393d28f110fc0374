"""Per-element inverse tails, kept as the reference for the array ``isf``.

``Tabulated`` laws (step ones among them, read as flat cells with
repeated knots, and piecewise-exponential ones, with a terminal rate),
``FromMrl`` laws and Weibull laws invert their tails on whole arrays;
these functions invert one u at a time, with Python floats and numpy's
``log`` and ``power`` on each (which give a single float the bits of the
whole-array call, where ``math.log`` and the ``**`` of a numpy float, the
C library's, need not), and the array code must return their bits
exactly. One line differs from the old loop: under a terminal
residual-mean slope of -1 it returned the near end of the piece, where the
tail is still above u. Each takes the spec and a float u in [0, 1] and
returns the base law's inverse (no defect). The loop that inverted the
old segment form of piecewise-exponential laws is kept in
``piecewise_exp_reference``.
"""
from __future__ import annotations

import math

import numpy as np

from resetkit.mrl import _tables


def loglinear_isf(spec, u: float) -> float:
    g = np.asarray(spec.curve.grid, dtype=float)
    ladder = spec.curve.knot_values
    if u >= ladder[0]:
        return 0.0
    if u < ladder[-1]:
        rate = spec.curve.terminal_rate
        if u <= 0.0 or not rate:
            return math.inf
        return float(g[-1]) + (np.log(ladder[-1]) - np.log(u)) / rate
    j = int(np.searchsorted(-ladder, -u, side="left"))
    if j <= 0:
        return 0.0
    if j >= ladder.size:
        return float(g[-1])
    lo_v, hi_v = float(ladder[j - 1]), float(ladder[j])
    lo_t, hi_t = float(g[j - 1]), float(g[j])
    if lo_v <= u or lo_v == hi_v:
        return lo_t
    if hi_v <= 1e-300:
        theta = (lo_v - u) / (lo_v - hi_v)
    else:
        theta = (np.log(u) - np.log(lo_v)) / (np.log(hi_v) - np.log(lo_v))
    return lo_t + min(max(theta, 0.0), 1.0) * (hi_t - lo_t)


def from_mrl_isf(spec, u: float) -> float:
    tb = _tables(spec.curve)
    tails = tb.knot_tails
    if u >= tails[0]:
        return 0.0
    j = min(int(np.searchsorted(-tails, -u, side="left")), tails.size)
    g0, v0 = float(tb.knots[j - 1]), float(tb.values[j - 1])
    c0, s = float(tb.cum_inv[j - 1]), float(tb.slopes[j - 1])
    top = tails[j - 1]
    if u >= top:
        return g0
    if u <= 0.0:
        return tb.support_end
    if abs(s) < 1e-14:
        return g0 + v0 * np.log(top / u)
    q = 1.0 + 1.0 / s
    if abs(q) < 1e-14:
        return g0 + v0  # the loop returned g0 here, the piece's near end
    amp = tb.m0 * math.exp(-c0) * v0 ** (1.0 / s)
    m_here = np.power(u / amp, -1.0 / q)
    return g0 + (m_here - v0) / s


def weibull_isf(spec, u: float) -> float:
    with np.errstate(divide="ignore"):
        return float(np.power(-np.log(u), 1.0 / spec.shape))
