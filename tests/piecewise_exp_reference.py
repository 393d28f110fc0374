"""The segment formulas of the old piecewise-exponential law class.

``piecewise_exp`` segments (start, offset, rate) give the tail
exp(-(offset + rate * (t - start))) from each start to the next, the last
segment extending to infinity. The library now reads them as a log-linear
``Tabulated`` curve; these are the formulas of the class it replaced, kept
verbatim apart from taking the segments instead of the spec, as the
reference the folded law must match. Each describes the base law (no
defect).
"""
from __future__ import annotations

import math

import numpy as np


def _columns(segments):
    starts = np.asarray([s[0] for s in segments], dtype=float)
    offs = np.asarray([s[1] for s in segments], dtype=float)
    rates = np.asarray([s[2] for s in segments], dtype=float)
    return starts, offs, rates


def _segment(starts, t_arr):
    return np.clip(np.searchsorted(starts, t_arr, side="right") - 1, 0,
                   starts.size - 1)


def log_tail(segments, t):
    t_arr = np.asarray(t, dtype=float)
    starts, offs, rates = _columns(segments)
    idx = _segment(starts, t_arr)
    return -(offs[idx] + rates[idx] * (t_arr - starts[idx]))


def tail(segments, t):
    return np.exp(log_tail(segments, t))


def tail_rest(segments, t):
    """Integral of the tail over [t, inf); inf when the last rate is 0."""
    t_arr = np.asarray(t, dtype=float)
    if segments[-1][2] == 0.0:
        return np.full(t_arr.shape, np.inf)
    flat = np.zeros(t_arr.shape)
    n = len(segments)
    for i, (s, a, b) in enumerate(segments):
        end = segments[i + 1][0] if i + 1 < n else np.inf
        lo = np.maximum(t_arr, s)
        width = np.clip(end - lo, 0.0, None)
        v_lo = np.exp(-(a + b * (lo - s)))
        if b > 0.0:
            v_hi = np.exp(-(a + b * (np.minimum(end, lo + width) - s))) \
                if math.isfinite(end) else 0.0
            flat = flat + np.where(width > 0.0, (v_lo - v_hi) / b, 0.0)
        else:
            flat = flat + v_lo * width
    return flat


def jumps(segments):
    out = []
    v_prev = 1.0
    n = len(segments)
    for i, (s, a, b) in enumerate(segments):
        v_here = math.exp(-a)
        size = v_prev - v_here
        if size > 1e-15:
            out.append((float(s), size))
        end = segments[i + 1][0] if i + 1 < n else np.inf
        v_prev = math.exp(-(a + b * (end - s))) if math.isfinite(end) else 0.0
    return tuple(out)


def density(segments, t):
    t_arr = np.asarray(t, dtype=float)
    starts, _, rates = _columns(segments)
    return rates[_segment(starts, t_arr)] * tail(segments, t_arr)


def isf(segments, u: float) -> float:
    """inf{t : tail(t) <= u} for one u in [0, 1]."""
    n = len(segments)
    if u >= math.exp(-segments[0][1]):
        return 0.0
    if u <= 0.0:
        return math.inf
    tau = -math.log(u)
    for i, (s, a, b) in enumerate(segments):
        if tau <= a:
            return s
        end = segments[i + 1][0] if i + 1 < n else math.inf
        if math.isfinite(end):
            end_val = a + b * (end - s)
        else:
            end_val = math.inf if b > 0.0 else a
        if tau < end_val:
            return s + (tau - a) / b
    return math.inf
