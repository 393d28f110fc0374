"""Shared quadrature: tanh-sinh panels cut at kinks, Gauss-Legendre panels.

``quad`` integrates over [a, b] cut at every kink, jump and finite support
end of the laws it is given (plus any extra ``points``), so no panel holds
a kink; ``panels`` integrates all panels in one vectorised call of the
tanh-sinh rule (Takahasi & Mori 1974), which tolerates endpoint
singularities and an infinite upper limit and returns an error estimate
per panel. The fixed-order Gauss-Legendre panels serve the cumulative and
convolution integrals, which need values at thousands of knots.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import tanhsinh

_RTOL = 1e-13
_ATOL = 1e-14
_MERGE = 1e-13  # relative gap below which cuts merge: one-ulp panels give NaN


def panels(fn, lo, hi, args=()) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ``fn`` over the panels [lo[i], hi[i]] and their errors.

    ``fn(x, *args)`` must accept arrays of any shape; ``hi`` may be inf.
    ``args`` broadcast against the panels, and so do the results.
    """
    res = tanhsinh(fn, np.asarray(lo, float), np.asarray(hi, float),
                   args=args, rtol=_RTOL, atol=_ATOL)
    return res.integral, res.error


def kinks(laws) -> np.ndarray:
    """Sorted kinks, jumps and finite support ends (of the base law, which a
    defect leaves a kink) of the tails of ``laws``."""
    pts = np.array([p for law in laws
                    for p in (*law.tail_breakpoints(), law._support_end())])
    return np.unique(pts[np.isfinite(pts)])


def cuts(a: float, b: float, points) -> np.ndarray:
    """Panel edges: a, the ``points`` strictly between a and b, and b.

    Sorted, with cuts closer than a relative 1e-13 merged; ``b`` may be inf.
    """
    pts = np.ravel(np.asarray(points, dtype=float))
    edges = np.unique(np.concatenate([[a, b], pts[(pts > a) & (pts < b)]]))
    scale = np.where(np.isfinite(edges), np.abs(edges), 0.0)
    edges = edges[np.diff(edges, prepend=-np.inf) > _MERGE * scale]
    edges[-1] = b
    return edges


def quad(fn, a: float, b: float, laws=(), points=(), args=()):
    """Integral of ``fn`` over [a, b] and its error estimate, with panels cut
    at every kink of ``laws`` and at ``points``; ``b`` may be inf. ``args``
    broadcast against the panels (the last axis), as in ``panels``."""
    edges = cuts(a, b, np.concatenate([kinks(laws), np.ravel(points)]))
    vals, errs = panels(fn, edges[:-1], edges[1:], args=args)
    vals, errs = np.sum(vals, axis=-1), np.sum(errs, axis=-1)
    return (vals, errs) if args else (float(vals), float(errs))


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
    """c[i] = integral of ``fn`` over [knots[0], knots[i]] by GL panels."""
    nodes, weights = gl_panel(np.asarray(knots, dtype=float), order)
    panel = (fn(nodes) * weights).reshape(-1, order).sum(axis=1)
    return np.concatenate([[0.0], np.cumsum(panel)])


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


def convolution_log_tails(spec, t: float
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights and log factors of int_0^1 tail(t v) tail(t (1 - v))**l dv.

    Returns (weights, head, rest) with head = log tail(t v) and rest =
    log tail(t (1 - v)) at the nodes, so that the integrand for any l is
    exp(head + l * rest). The panels are graded towards both ends of
    [0, 1] and split wherever either factor has a breakpoint or the
    support of ``spec`` ends. Log tails are -inf where the tail is 0.
    """
    inner = kinks((spec,))
    inner = inner[(inner > 0.0) & (inner < t)] / t
    nodes, weights = gl_panel(np.unique(np.concatenate(
        [[0.0], _LADDER, 1.0 - _LADDER[::-1], [1.0], inner, 1.0 - inner])))
    head = np.asarray(spec.log_tail(t * nodes))
    rest = np.asarray(spec.log_tail(t * (1.0 - nodes)))
    return (weights, np.where(np.isnan(head), -np.inf, head),
            np.where(np.isnan(rest), -np.inf, rest))
