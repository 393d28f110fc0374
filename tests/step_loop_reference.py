"""Step tails one point at a time, kept as the reference for the step
spellings.

A ``piecewise_constant`` document, or a ``tabulated`` one spelt ``step``,
gives a level per breakpoint: the tail is ``levels[i]`` on
[breakpoints[i], breakpoints[i + 1]), the last level past the last
breakpoint. The library reads it as a log-linear curve of flat cells whose
every jump is a repeated knot; these functions read the levels directly,
one t or u at a time with Python floats, as the step formulas did, and the
curve must return their bits exactly. Each takes the breakpoints and the
levels of a law without mass at infinity beyond them (no defect).
"""
from __future__ import annotations

import bisect
import math

import numpy as np


def step_tail(breakpoints, levels, t: float) -> float:
    """The level of the last breakpoint at or before t >= 0; 0 at inf."""
    if t == math.inf:
        return 0.0
    return float(levels[max(bisect.bisect_right(breakpoints, t) - 1, 0)])


def step_log_tail(breakpoints, levels, t: float) -> float:
    with np.errstate(divide="ignore"):
        return float(np.log(step_tail(breakpoints, levels, t)))


def step_isf(breakpoints, levels, u: float) -> float:
    """The first breakpoint whose level is at most u; inf if none is."""
    for x, level in zip(breakpoints, levels):
        if level <= u:
            return float(x)
    return math.inf


def step_jumps(breakpoints, levels) -> tuple[tuple[float, float], ...]:
    """(breakpoint, drop) wherever the tail drops by more than 1e-15."""
    out, left = [], 1.0
    for x, level in zip(breakpoints, levels):
        if left - level > 1e-15:
            out.append((float(x), left - level))
        left = level
    return tuple(out)
