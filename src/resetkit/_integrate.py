"""Shared quadrature: tanh-sinh panels cut at kinks, Gauss-Legendre panels.

``quad`` integrates over [a, b] cut at every kink, jump and finite support
end of the laws it is given (plus any extra ``points``), so no panel holds
a kink; ``panels`` integrates all panels at once by the tanh-sinh rule
(Takahasi & Mori 1974), which tolerates endpoint singularities and an
infinite upper limit and returns an error estimate per panel, and
``quad_rows`` runs many such integrals, each on its own cuts, in one
``panels`` call. The rule is
in-house: it is the algorithm of ``scipy.integrate.tanhsinh`` (its nodes,
its Euler-Maclaurin sums and the error estimate of Bailey, Jeyabalan & Li,
Experimental Math. 14, 2005), bit for bit, without its per-call set-up.
The fixed-order Gauss-Legendre panels serve the integrals that need
values at thousands of points: ``cumulative``, the running integral from
0 (cut at the points asked for, at the kinks of its laws and at geometric
points towards 0), and the convolution sums. Callers build no knot lists
of their own.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_RTOL = 1e-13
_ATOL = 1e-14
_MERGE = 1e-13  # relative gap below which cuts merge: one-ulp panels give NaN
_EPS = np.finfo(float).eps
# base step: nodes stop where 1 - x would underflow past 4 * the smallest
# normal double, and level 0 has 8 steps on each side
_H0 = math.asinh(math.log(2.0 / (4.0 * np.finfo(float).smallest_normal) - 1.0)
                 / math.pi) / 8
_LEVELS = range(2, 11)
_ORDER = 12  # Gauss-Legendre nodes per panel


@functools.cache
def _tanh_sinh_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissa complements 1 - x_j and weights of the tanh-sinh rule on
    [-1, 1] with step _H0 / 2**level: the new (odd) nodes of ``level``, or
    every node of levels 0 to ``level`` at the first level. Built once per
    level; at x_0 = 0 the node is counted on both sides at half weight."""
    xjc, wj = [], []
    for k in range(level + 1) if level == _LEVELS[0] else (level,):
        j = np.arange(8 * 2**k + 1) if k == 0 else np.arange(1, 8 * 2**k + 1, 2)
        jh = j * (_H0 / 2**k)
        u1 = math.pi / 2 * np.cosh(jh)
        u2 = math.pi / 2 * np.sinh(jh)
        with np.errstate(over="ignore"):
            w = u1 / np.cosh(u2)**2
            xjc.append(1 / (np.exp(u2) * np.cosh(u2)))
        if k == 0:
            w[0] = w[0] / 2
        wj.append(w)
    xjc, wj = np.concatenate(xjc), np.concatenate(wj)
    xjc.flags.writeable = wj.flags.writeable = False
    return xjc, wj


def panels(fn, lo, hi, args=()) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ``fn`` over the panels [lo[i], hi[i]] and their errors.

    ``fn(x, *args)`` must accept arrays of any shape; lo <= hi, both finite
    except that ``hi`` may be inf (x = 1/u - 1 + lo, weight u**-2). ``args``
    broadcast against the panels, and so do the results. Each panel adds
    levels 2 to 10 of the tanh-sinh rule until its error estimate is below
    _RTOL relative or _ATOL absolute, or its sum is not finite; ``fn`` sees
    only the panels still running, one row each, with their ``args`` as
    columns. A zero-width panel gives 0 with error 0.
    """
    lo, hi, *args = np.broadcast_arrays(np.asarray(lo, float),
                                        np.asarray(hi, float),
                                        *map(np.asarray, args))
    shape = lo.shape
    val, err = np.zeros(lo.size), np.zeros(lo.size)
    rows = np.flatnonzero(lo.ravel() != hi.ravel())
    a0 = lo.reshape(-1, 1)[rows]
    b = hi.reshape(-1, 1)[rows]
    args = [np.reshape(arg, (-1, 1))[rows] for arg in args]
    inf = np.isinf(b[:, 0])
    a = np.where(inf[:, None], 0.0, a0)
    b[inf] = 1.0
    n = rows.size
    # extreme finite node of each side so far (right: max x; left: max -x),
    # with its integrand value and weight, for the error term d4
    far = np.full((n, 2), -np.inf)
    f_far = np.full((n, 2), np.nan)
    w_far = np.zeros((n, 2))
    s1 = s2 = None  # Euler-Maclaurin sums of the two previous levels
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in _LEVELS:
            if not n:
                break
            h = _H0 / 2**level
            xjc, wj = _tanh_sinh_rule(level)
            half = (b - a) / 2
            xj = np.concatenate((-half * xjc + b, half * xjc + a), axis=-1)
            w = wj * half
            w = np.concatenate((w, w), axis=-1)
            w[(xj <= a) | (xj >= b)] = 0  # nodes rounded onto a limit
            x = xj.copy()
            x[inf] = 1 / x[inf] - 1 + a0[inf]
            f = np.ascontiguousarray(fn(x, *args), dtype=float)
            f[inf] *= xj[inf]**-2.
            # non-finite values take the value at the extreme finite node
            m = xjc.size
            f2, w2 = f.reshape(n, 2, m), w.reshape(n, 2, m)
            bad = ~np.isfinite(f2) | (w2 == 0)
            key = xj.reshape(n, 2, m) * np.array([[1.0], [-1.0]])
            key[bad] = -np.inf
            i = np.argmax(key, axis=-1, keepdims=True)
            top = np.take_along_axis(key, i, axis=-1)[..., 0]
            new = top > far
            far[new] = top[new]
            f_far[new] = np.take_along_axis(f2, i, axis=-1)[..., 0][new]
            w_far[new] = np.take_along_axis(w2, i, axis=-1)[..., 0][new]
            d4 = np.maximum(np.abs(f_far[:, 1] * w_far[:, 1]),
                            np.abs(f_far[:, 0] * w_far[:, 0]))
            f2[bad] = np.broadcast_to(f_far[..., None], f2.shape)[bad]
            fw = f * w
            s = np.sum(fw, axis=-1) * h
            if s1 is None:  # the two coarser levels from the prefix nodes
                s1, s2 = (np.sum(fw.reshape(n, 2, m)[..., :8 * 2**k + 1]
                                 .reshape(n, -1), axis=-1) * (h * 2**(level - k))
                          for k in (level - 1, level - 2))
            else:
                s = s1 / 2 + s
            # Bailey's max(d1**(log d1 / log d2), d1**2, eps max|fw|, d4),
            # clipped to [eps |s|, d1]
            d1, d2 = np.abs(s - s1), np.abs(s - s2)
            d12 = np.where(d1 > 0, d1**(np.log(d1) / np.log(d2)), 0)
            e = np.max(np.stack([d12, d1**2, _EPS * np.max(np.abs(fw), axis=-1),
                                 d4]), axis=0)
            d5 = _EPS * np.abs(s)
            e = np.where((e < d5) | np.isnan(d5), d5, e)
            e = np.where((e > d1) | np.isnan(d1), d1, e)
            stop = (e / np.abs(s) < _RTOL) | (e < _ATOL) | ~np.isfinite(s)
            val[rows] = s
            err[rows] = e
            keep = ~stop
            s2, s1 = s1[keep], s[keep]
            rows, a0, a, b, inf, far, f_far, w_far, *args = (
                v[keep] for v in (rows, a0, a, b, inf, far, f_far, w_far, *args))
            n = rows.size
    return val.reshape(shape)[()], err.reshape(shape)[()]


def distinct_panels(x, col):
    """The rows of ``x`` that hold distinct panels, their indices, and for
    every row the position of its panel among them. ``col``, passed to
    ``panels`` as an argument, numbers the panels: rows with one number
    run the same nodes, whatever their other arguments (say, a power), so
    a law need be evaluated on the first row of each only."""
    _, rows, back = np.unique(col[:, 0], return_index=True,
                              return_inverse=True)
    return x[rows], rows, back


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


def quad_rows(fn, edges, args=()) -> tuple[np.ndarray, np.ndarray]:
    """``quad`` on each row of ``edges`` (edge arrays, as from ``cuts``; one
    row of ``args`` each) by one ``panels`` call: rows padded with zero-width
    panels, each summed over its own panels, keep a lone call's bits."""
    width = max(e.size for e in edges)
    padded = np.array([np.pad(e, (0, width - e.size), mode="edge")
                       for e in edges])
    vals, errs = panels(fn, padded[:, :-1], padded[:, 1:], args=args)
    return tuple(np.array([np.sum(v[:e.size - 1]) for v, e in zip(x, edges)])
                 for x in (vals, errs))


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


def cumulative(fn, points, laws=()) -> np.ndarray:
    """Integrals of ``fn`` over [0, p] for every p >= 0 of ``points``, in
    any order, by Gauss-Legendre panels of 12 nodes.

    The panel edges are 0, the points, every kink of ``laws`` below the
    largest point, and 240 points geometric from a relative 1e-13 of it,
    which resolve an integrand singular at 0; ``fn`` takes arrays."""
    points = np.asarray(points, dtype=float)
    top = float(np.max(points, initial=0.0))
    pts = kinks(laws)
    knots = np.unique(np.concatenate([
        [0.0], points.ravel(), pts[pts < top],
        np.geomspace(max(top * 1e-13, 1e-290), top, 240) if top > 0.0 else []]))
    nodes, weights = gl_panel(knots, _ORDER)
    panel = (np.asarray(fn(nodes)) * weights).reshape(-1, _ORDER).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    return cum[np.searchsorted(knots, points)]


@functools.cache
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gl_panel(edges: np.ndarray, order: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on consecutive panels of ``edges``.

    Panels run along the last axis: a (rows x edges) array gives one row of
    nodes and one of weights per row of edges.
    """
    x, w = _gl_rule(order)
    lo = edges[..., :-1, None]
    hi = edges[..., 1:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    shape = (*edges.shape[:-1], (edges.shape[-1] - 1) * order)
    return (mid + half * x).reshape(shape), (half * w).reshape(shape)


_LADDER = np.array([1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 3e-3,
                    1e-2, 3e-2, 0.1, 0.2, 0.35, 0.5])
# 0, the ladder and its mirror about 0.5, and 1: sorted, each edge once
_GRADED = np.concatenate([[0.0], _LADDER, 1.0 - _LADDER[-2::-1], [1.0]])
_BLOCK_NODES = 1 << 13  # nodes per block of t in convolution_sums


def positive_points(t_grid) -> np.ndarray:
    """The points t > 0 of ``t_grid``, as floats; ValueError if a point is
    not finite."""
    t_grid = np.ravel(np.asarray(t_grid, dtype=float))
    if not np.all(np.isfinite(t_grid)):
        bad = t_grid[~np.isfinite(t_grid)]
        raise ValueError(f"grid points must be finite, got {bad.tolist()}")
    return t_grid[t_grid > 0.0]


def convolution_log_tails(spec, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weights and log factors of int_0^1 tail(t v) tail(t (1 - v))**l dv.

    Returns (weights, head, rest, widths), one row per point of the finite,
    positive ``t``: head = log tail(t v) and rest = log tail(t (1 - v)) at
    the nodes, so that the integrand for any l is exp(head + l * rest).
    Each row's panels are graded towards both ends of [0, 1] and split
    wherever either factor has a breakpoint or the support of ``spec``
    ends; row i holds ``widths[i]`` nodes, and the rest of the row is
    zero-width panels at v = 1. Log tails are -inf where the tail is 0.
    """
    pts = kinks((spec,))
    pts = pts[pts > 0.0]
    # kinks at or past t land on the edges 1 and 0, which every row has
    inner = np.where(pts < t[:, None], pts / t[:, None], 1.0)
    edges = np.concatenate([np.broadcast_to(_GRADED, (t.size, _GRADED.size)),
                            inner, 1.0 - inner], axis=1)
    edges.sort(axis=1)
    repeat = edges[:, 1:]
    repeat[repeat == edges[:, :-1]] = np.inf  # sorts repeated edges last
    edges.sort(axis=1)
    counts = np.count_nonzero(edges < np.inf, axis=1)
    edges = edges[:, :counts.max()]
    edges[edges == np.inf] = 1.0
    nodes, weights = gl_panel(edges, _ORDER)
    head = np.asarray(spec.log_tail((t[:, None] * nodes).ravel()))
    rest = np.asarray(spec.log_tail((t[:, None] * (1.0 - nodes)).ravel()))
    return (weights,
            np.where(np.isnan(head), -np.inf, head).reshape(nodes.shape),
            np.where(np.isnan(rest), -np.inf, rest).reshape(nodes.shape),
            _ORDER * (counts - 1))


def convolution_sums(spec, t: np.ndarray, ls, shift: np.ndarray,
                     cap: float) -> np.ndarray:
    """int_0^1 exp(log tail(t v) + l log tail(t (1 - v)) - shift) dv.

    One row per l in ``ls``, one column per point of the finite, positive
    ``t``; ``shift`` holds one value per point. The exponent is clipped to
    [-745, ``cap``] before exp, and an exponent of +inf gives +inf. The
    points go through ``convolution_log_tails`` in blocks of at most
    ``_BLOCK_NODES`` nodes, so the working arrays stay small however many
    kinks the law has; each sum is a dot product over its own row's nodes,
    which gives the bits of a single point's panel set.
    """
    t = np.asarray(t, dtype=float)
    panels_max = _GRADED.size - 1 + 2 * kinks((spec,)).size
    step = max(1, _BLOCK_NODES // (_ORDER * panels_max))
    out = np.empty((len(ls), t.size))
    for lo in range(0, t.size, step):
        block = slice(lo, lo + step)
        weights, head, rest, widths = convolution_log_tails(spec, t[block])
        for i, l in enumerate(ls):
            expo = head + float(l) * rest
            expo -= shift[block, None]
            overflow = expo == np.inf
            with np.errstate(over="ignore"):
                np.exp(np.clip(expo, -745.0, cap, out=expo), out=expo)
            expo[overflow] = np.inf
            out[i, block] = [w[:n] @ v[:n]
                             for w, v, n in zip(weights, expo, widths)]
    return out
