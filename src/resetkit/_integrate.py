"""Shared quadrature helpers: scipy.integrate.quad and Gauss-Legendre panels."""
from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad


def split_quad(fn, a: float, b: float, points=(), epsabs: float = 1e-12,
               epsrel: float = 1e-10, limit: int = 200) -> tuple[float, float]:
    """Integrate ``fn`` over [a, b], splitting at the interior breakpoints.

    Splitting keeps the adaptive rule away from discontinuities and kinks.
    Returns (value, error_estimate). Roundoff chatter from the adaptive
    rule is suppressed; callers judge accuracy by the returned estimate.
    """
    inner = sorted({float(p) for p in points if a < float(p) < b})
    knots = [float(a)] + inner + [float(b)]
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(knots[:-1], knots[1:]):
            if hi - lo <= 0.0:
                continue
            v, e = quad(fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit)
            total += v
            err += e
    return total, err


def octave_quad_to_inf(fn, a: float, tol: float = 1e-11,
                       max_octaves: int = 80) -> tuple[float, float]:
    """Integrate ``fn`` over [a, inf) by doubling octaves until they stop mattering.

    Robust for slowly decaying integrands where a single infinite-interval
    quad call loses the tail. Returns (value, error_estimate); the estimate
    is the size of the last octave plus accumulated quad errors.
    """
    lo = max(a, 0.0)
    hi = max(2.0 * lo, 1.0)
    total, err = quad(fn, lo, hi, epsabs=0.0, epsrel=1e-10, limit=100)
    piece = np.inf
    for _ in range(max_octaves):
        v, e = quad(fn, hi, 2.0 * hi, epsabs=0.0, epsrel=1e-10, limit=100)
        total += v
        err += e
        piece = abs(v)
        hi *= 2.0
        if piece < tol * max(1.0, abs(total)):
            return total, err + piece
    return total, err + piece


def hybrid_grid(upper: float, n: int = 4096, lower: float | None = None,
                extra: tuple[float, ...] = ()) -> np.ndarray:
    """Geometric+linear hybrid grid on [0, upper], densified at ``extra`` points.

    Half the budget is spent linearly, half geometrically from ``lower``
    (default upper * 1e-6), so both small-time structure and the bulk are
    resolved. Breakpoints in ``extra`` are inserted together with midpoints
    of their neighbouring cells.
    """
    if upper <= 0.0:
        raise ValueError("grid upper bound must be positive")
    if lower is None:
        lower = upper * 1e-6
    lower = min(max(lower, 1e-300), upper / 4.0)
    lin = np.linspace(0.0, upper, n // 2)
    geo = np.geomspace(lower, upper, n - n // 2)
    pts = [lin, geo]
    ex = np.asarray([p for p in extra if 0.0 < p < upper], dtype=float)
    if ex.size:
        pts.append(ex)
        pts.append(np.minimum(ex * 1.5, upper))
        pts.append(ex * 0.5)
        eps = upper * 1e-9
        pts.append(np.minimum(ex + eps, upper))
        pts.append(np.maximum(ex - eps, 0.0))
    grid = np.unique(np.concatenate([[0.0], *pts]))
    return grid


def gauss_legendre_cumulative(fn, knots: np.ndarray, order: int = 12) -> np.ndarray:
    """Cumulative integral of ``fn`` along sorted knots with fixed-order GL panels.

    Returns an array c with c[i] = integral of fn over [knots[0], knots[i]].
    ``fn`` must accept numpy arrays.
    """
    knots = np.asarray(knots, dtype=float)
    x, w = np.polynomial.legendre.leggauss(order)
    lo = knots[:-1]
    hi = knots[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # evaluation points: panels x nodes
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    panel = half * (vals @ w)
    out = np.empty(knots.shape, dtype=float)
    out[0] = 0.0
    np.cumsum(panel, out=out[1:])
    return out


def gl_panel(edges: np.ndarray, order: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on consecutive panels of ``edges``."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


_LADDER = np.array([1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 3e-3,
                    1e-2, 3e-2, 0.1, 0.2, 0.35, 0.5])


def _unit_panel_edges(extra: tuple[float, ...] = ()) -> np.ndarray:
    edges = np.concatenate([[0.0], _LADDER, 1.0 - _LADDER[::-1], [1.0],
                            np.asarray(extra, dtype=float)])
    edges = edges[(edges >= 0.0) & (edges <= 1.0)]
    return np.unique(edges)


def convolution_log_integrand(spec, t: float, l: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Weights and log integrand of int_0^1 tail(t v) tail(t (1 - v))**l dv.

    The panels are graded towards both ends of [0, 1] and split wherever
    either factor has a breakpoint or the support of ``spec`` ends. The
    log integrand is -inf where the integrand is 0.
    """
    log_tail = spec.log_tail
    kinks = list(spec.tail_breakpoints())
    if np.isfinite(spec.t0):
        kinks.append(spec.t0)
    extra = []
    for b in kinks:
        if 0.0 < b < t:
            extra += [b / t, 1.0 - b / t]
    nodes, weights = gl_panel(_unit_panel_edges(tuple(extra)))
    with np.errstate(invalid="ignore"):
        expo = np.asarray(log_tail(t * nodes)) \
            + float(l) * np.asarray(log_tail(t * (1.0 - nodes)))
    return weights, np.where(np.isnan(expo), -np.inf, expo)
