"""The convolution integrals' original per-t loops, kept as a reference.

``_integrate.convolution_log_tails`` builds the panels of every t at once
and its consumers evaluate each l over the whole (t x node) array; these
loops build one panel set per t, with two ``log_tail`` calls each, and
are what the batched code is checked against, bit for bit. The bodies
are unchanged from the loops the library used to run; the grading ladder
and the roundoff floor are the library's.
"""
from __future__ import annotations

import math

import numpy as np

from resetkit._integrate import _LADDER, gl_panel, kinks
from resetkit.classifiers import _FLOOR


def convolution_log_tails(spec, t: float
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights and log factors of int_0^1 tail(t v) tail(t (1 - v))**l dv."""
    inner = kinks((spec,))
    inner = inner[(inner > 0.0) & (inner < t)] / t
    nodes, weights = gl_panel(np.unique(np.concatenate(
        [[0.0], _LADDER, 1.0 - _LADDER[::-1], [1.0], inner, 1.0 - inner])))
    head = np.asarray(spec.log_tail(t * nodes))
    rest = np.asarray(spec.log_tail(t * (1.0 - nodes)))
    return (weights, np.where(np.isnan(head), -np.inf, head),
            np.where(np.isnan(rest), -np.inf, rest))


def exp_reset_ratios(spec, t_grid, ls) -> np.ndarray:
    """(1/t) int_0^t tail(u) tail(t-u)**l du / tail(t), one t at a time."""
    out = np.empty((len(ls), len(t_grid)))
    for j, t in enumerate(t_grid):
        t = float(t)
        lf_t = float(spec.log_tail(t))
        weights, head, rest = convolution_log_tails(spec, t)
        for i, l in enumerate(ls):
            expo = head + float(l) * rest
            if math.isinf(lf_t):
                # past the support the condition is "the integral is zero"
                with np.errstate(over="ignore"):
                    raw = float(weights @ np.exp(np.clip(expo, -745.0, 700.0)))
                out[i, j] = math.inf if raw > _FLOOR else 1.0
                continue
            expo = expo - lf_t
            with np.errstate(over="ignore"):
                vals = np.exp(np.clip(expo, -745.0, 700.0))
            vals = np.where(np.isinf(expo) & (expo > 0), np.inf, vals)
            out[i, j] = float(weights @ vals)
    return out


def residual_at(spec, t: float, l: int) -> float:
    # int_0^t tail(u)**l tail(t-u) du, written with u -> t - u
    weights, head, rest = convolution_log_tails(spec, t)
    expo = head + float(l) * rest
    integral = t * float(weights @ np.exp(np.clip(expo, -745.0, 0.0)))
    return integral - t * float(spec.tail(t))


def lfold_residuals(spec, l: int, t_grid) -> np.ndarray:
    """Residuals of the would-be invariance identity, one t at a time."""
    t_grid = np.asarray(t_grid, dtype=float)
    t_grid = t_grid[t_grid > 0.0]
    return np.array([residual_at(spec, float(t), l) for t in t_grid])
