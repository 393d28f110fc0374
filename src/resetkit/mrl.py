"""Mean-residual-life curves: computed from tails, and used to generate laws.

The central identity is the reconstruction formula
``tail(r) = (m0 / m(r)) * exp(-int_0^r dv / m(v))`` valid on [0, t0), which
makes a positive piecewise-linear m a complete description of a law. Laws
generated this way evaluate their tails, densities and partial means in
closed form per segment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import distributions as dist
from ._integrate import cumulative

__all__ = [
    "MrlCurve",
    "FromMrl",
    "InvalidMrlError",
    "InfiniteMeanError",
    "mrl_from_tail",
    "tail_from_mrl",
    "law_from_mrl",
    "mrl_curve",
    "validate_generator",
]

_DERIV_SLACK = 1e-6


class InvalidMrlError(ValueError):
    """Curve is not usable as a mean-residual-life generator."""


class InfiniteMeanError(ValueError):
    """Residual means are undefined because the law has infinite mean."""


@dataclass(frozen=True)
class MrlCurve:
    """Mean-residual-life values on a grid, linearly interpolated.

    ``terminal`` describes the extension past the last grid point: constant,
    or linear with ``terminal_slope`` (inferred from the last segment when
    omitted). ``m0`` is the unconditional mean; it defaults to m(0), which
    corresponds to a tail starting at 1.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    m0: float | None = None
    terminal: str = "constant"
    terminal_slope: float | None = None
    fn: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.size < 1 or g[0] != 0.0:
            raise InvalidMrlError("curve grid must start at 0")
        if g.size != v.size:
            raise InvalidMrlError("need one value per grid point")
        if g.size > 1 and np.any(np.diff(g) <= 0.0):
            raise InvalidMrlError("curve grid must be strictly increasing")
        if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
            raise InvalidMrlError("residual means must be positive and finite")
        if self.terminal not in ("constant", "linear"):
            raise InvalidMrlError(f"unknown terminal behaviour {self.terminal!r}")
        if self.m0 is not None and self.m0 > v[0] + 1e-12:
            raise InvalidMrlError("m0 cannot exceed m(0)")

    @property
    def mean(self) -> float:
        return float(self.values[0] if self.m0 is None else self.m0)

    @property
    def end_slope(self) -> float:
        if self.terminal == "constant":
            return 0.0
        if self.terminal_slope is not None:
            return float(self.terminal_slope)
        if len(self.grid) < 2:
            raise InvalidMrlError("linear terminal needs a slope or two grid points")
        return (self.values[-1] - self.values[-2]) / (self.grid[-1] - self.grid[-2])

    @property
    def support_end(self) -> float:
        """Time where the extended curve hits zero (inf if never)."""
        s = self.end_slope
        if s < 0.0:
            return float(self.grid[-1] + self.values[-1] / (-s))
        return np.inf

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        inner = np.interp(t_arr, g, v)
        ext = v[-1] + self.end_slope * (t_arr - g[-1])
        out = np.where(t_arr <= g[-1], inner, np.clip(ext, 0.0, None))
        out = np.where(t_arr >= self.support_end, 0.0, out)
        return out if out.shape else float(out)


def validate_generator(curve: MrlCurve) -> MrlCurve:
    """Check the sufficient conditions for the curve to generate a law."""
    g = np.asarray(curve.grid, dtype=float)
    v = np.asarray(curve.values, dtype=float)
    if g.size > 1:
        slopes = np.diff(v) / np.diff(g)
        if np.any(slopes < -1.0 - _DERIV_SLACK):
            i = int(np.argmin(slopes))
            raise InvalidMrlError(
                f"derivative {slopes[i]:g} below -1 near t={g[i]:g}")
    if curve.end_slope < -1.0 - _DERIV_SLACK:
        raise InvalidMrlError("terminal slope below -1")
    return curve


@dataclass(frozen=True)
class _CurveTables:
    knots: np.ndarray
    values: np.ndarray
    m_slopes: np.ndarray    # m's slope on each segment, then the terminal's
    slopes: np.ndarray      # the same, clamped at -1 (the tail's pieces)
    cum_inv: np.ndarray     # int_0^knot dv/m at each knot
    knot_tails: np.ndarray  # tail values at the knots
    amp: np.ndarray         # per piece: tail = amp * m ** -(1 + 1/slope)
    m0: float
    support_end: float


@lru_cache(maxsize=128)
def _tables(curve: MrlCurve) -> _CurveTables:
    g = np.asarray(curve.grid, dtype=float)
    v = np.asarray(curve.values, dtype=float)
    raw = np.diff(v) / np.diff(g) if g.size > 1 else np.empty(0)
    # validation admits slopes down to -1 - 1e-6, under which the tail would
    # rise (tail ~ m ** -(1 + 1/slope)): such pieces are flat instead, so
    # m0 / m * exp(-cum) holds its value across them
    m_slopes = np.append(raw, curve.end_slope)
    slopes = np.maximum(m_slopes, -1.0)
    cum = np.zeros(g.size)
    for i in range(g.size - 1):
        cum[i + 1] = cum[i] + (math.log(v[i] / v[i + 1]) if raw[i] < -1.0 else
                               _segment_inv_integral(v[i], raw[i], g[i + 1] - g[i]))
    m0 = curve.mean
    with np.errstate(divide="ignore"):
        knot_tails = (m0 / v) * np.exp(-cum)
    amp = np.full(g.size, np.nan)
    for k in range(g.size):
        s, v0 = float(slopes[k]), float(v[k])
        if abs(s) >= 1e-14:
            try:
                amp[k] = m0 * math.exp(-float(cum[k])) * v0 ** (1.0 / s)
            except OverflowError:  # nearly flat piece: see FromMrl._isf0
                pass
    return _CurveTables(knots=g, values=v, m_slopes=m_slopes, slopes=slopes,
                        cum_inv=cum, knot_tails=knot_tails, amp=amp, m0=m0,
                        support_end=curve.support_end)


def _segment_inv_integral(v_start: float, slope: float, width: float) -> float:
    """Integral of 1/m over one linear segment of m."""
    if width <= 0.0:
        return 0.0
    if abs(slope) < 1e-14:
        return width / v_start
    return math.log1p(slope * width / v_start) / slope


def tail_from_mrl(curve: MrlCurve, r):
    """Reconstruct the tail at r from the residual-mean curve."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if curve.fn is not None:
        out = _tail_from_callable(curve, r_arr)
    else:
        out = _pieces(curve, r_arr)[2]
    return out if np.asarray(r).shape else float(out[0])


def _pieces(curve: MrlCurve, r_arr: np.ndarray):
    """One piece lookup for every point of ``r_arr``: the residual mean m
    there (the curve's, 0 from the support end on), the slope s of the
    tail's piece (m's slope clamped at -1, see ``_tables``) and the tail
    m0 / m * exp(-int_0^r dv / m), flat where s = -1."""
    tb = _tables(curve)
    g = tb.knots
    idx = np.clip(np.searchsorted(g, r_arr, side="right") - 1, 0, g.size - 1)
    base_v = tb.values[idx]
    s = tb.slopes[idx]
    dt = r_arr - g[idx]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # r = inf
        m_here = np.where(r_arr >= tb.support_end, 0.0,
                          np.clip(base_v + tb.m_slopes[idx] * dt, 0.0, None))
        inc = np.where(np.abs(s) < 1e-14, dt / base_v,
                       np.log1p(s * dt / base_v) / np.where(s == 0.0, 1.0, s))
        out = (tb.m0 / np.maximum(m_here, 1e-300)) * np.exp(-(tb.cum_inv[idx] + inc))
    # slope -1: the tail is flat, m0 / m * exp(-cum) only up to rounding
    out = np.where(s == -1.0, tb.knot_tails[idx], out)
    out = np.where(m_here <= 0.0, 0.0, out)
    return m_here, s, out


def _tail_from_callable(curve: MrlCurve, r_arr: np.ndarray) -> np.ndarray:
    end = curve.support_end

    def inv_m(t):
        return 1.0 / np.clip(np.asarray(curve.fn(t)), 1e-300, None)

    grid = np.asarray(curve.grid, dtype=float)
    c_at = cumulative(inv_m, np.r_[np.where(r_arr < end, r_arr, 0.0).ravel(),
                                   grid[grid < end]])[:r_arr.size]
    m_at = np.asarray(curve.fn(r_arr), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (curve.mean / m_at) * np.exp(-c_at.reshape(r_arr.shape))
    # m = 0 where the tail is 0: there m0 / m would be m0 / 1e-300
    return np.where((r_arr >= end) | (m_at <= 0.0), 0.0, vals)


def mrl_from_tail(spec: dist.DistributionSpec, r):
    """Residual mean of a law at r; zero past the support, per convention."""
    m_total = dist.mean(spec)
    if not np.isfinite(m_total):
        raise InfiniteMeanError("residual means are undefined for infinite mean")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    rest = np.asarray(dist.mean_upper_rest(spec, r_arr))
    tl = np.asarray(spec.tail(r_arr))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(tl > 0.0, rest / np.maximum(tl, 1e-300), 0.0)
    out = np.where(r_arr >= spec.t0, 0.0, out)
    return out if np.asarray(r).shape else float(out[0])


def mrl_curve(spec: dist.DistributionSpec, grid=None) -> MrlCurve:
    """Tabulate a law's residual-mean curve, keeping exact evaluation attached."""
    if grid is None:
        grid = dist.working_grid(spec, n=1024)
    grid = np.asarray(grid, dtype=float)
    end = spec.t0
    grid = grid[grid < end]
    if grid.size == 0 or grid[0] != 0.0:
        grid = np.concatenate([[0.0], grid])
    vals = np.atleast_1d(np.asarray(mrl_from_tail(spec, grid)))
    keep = vals > 0.0
    keep[0] = True
    m0 = dist.mean(spec)
    return MrlCurve(grid=tuple(grid[keep]), values=tuple(vals[keep]), m0=m0,
                    fn=lambda t: mrl_from_tail(spec, t))


def law_from_mrl(curve: MrlCurve, *, defect: float = 0.0) -> "FromMrl":
    """Turn a generator-valid curve into a distribution spec.

    The generated law follows the curve's piecewise-linear interpolation;
    any attached exact evaluator is dropped so the law is self-contained.
    """
    validate_generator(curve)
    if curve.fn is not None:
        curve = _strip_fn(curve)
    return FromMrl(curve=curve, defect=defect)


def _strip_fn(curve: MrlCurve) -> MrlCurve:
    return MrlCurve(grid=curve.grid, values=curve.values, m0=curve.m0,
                    terminal=curve.terminal, terminal_slope=curve.terminal_slope)


@dataclass(frozen=True, kw_only=True)
class FromMrl(dist.DistributionSpec):
    """Absolutely continuous law generated by a residual-mean curve."""

    curve: MrlCurve
    family: str = field(default="from_mrl", init=False, repr=False)

    def _validate_family(self):
        if not isinstance(self.curve, MrlCurve):
            raise dist.SpecValidationError("from_mrl spec needs an MrlCurve")
        validate_generator(self.curve)

    def _validate_standing(self):
        # hazard 1/m is positive and finite, so the tail is strictly
        # decreasing from m0/m(0) > 0; both assumptions hold structurally
        return None

    def _tail0(self, t):
        out = _pieces(self.curve, np.atleast_1d(np.asarray(t, dtype=float)))[2]
        return out if np.asarray(t).shape else out[0]

    def _isf0(self, u):
        """Exact inverse survival via the per-piece closed forms."""
        tb = _tables(self.curve)
        tails = tb.knot_tails
        # piece k: the segment after knot k (the last is the terminal piece)
        k = np.clip(np.searchsorted(-tails, -u, side="left"), 1, tails.size) - 1
        g0, v0, s, top = tb.knots[k], tb.values[k], tb.slopes[k], tails[k]
        out = np.empty(u.shape)
        rest = ~((u >= tails[0]) | (u >= top) | (u <= 0.0))
        flat = rest & (np.abs(s) < 1e-14)
        with np.errstate(divide="ignore", over="ignore"):
            # top / u overflows for u near 0, and the log is then inf
            out[flat] = g0[flat] + v0[flat] * np.log(top[flat] / u[flat])
            q = 1.0 + 1.0 / s
        # slope -1 (or clamped to it): the tail is flat, then drops to 0 at
        # the support end (only the terminal piece holds such a u)
        jump = rest & ~flat & (np.abs(q) < 1e-14)
        out[jump] = tb.support_end
        power = rest & ~flat & ~jump
        amp = tb.amp[k]
        exact = power & (amp > 0.0) & (amp < np.inf)
        m_here = np.power(u[exact] / amp[exact], -1.0 / q[exact])
        out[exact] = g0[exact] + (m_here - v0[exact]) / s[exact]
        # amp over- or underflows on a nearly flat piece; there
        # m - v0 = v0 * expm1(log(top / u) / q) keeps the precision
        near = power & ~exact
        out[near] = g0[near] + v0[near] * np.expm1(
            np.log(top[near] / u[near]) / q[near]) / s[near]
        out[u <= 0.0] = tb.support_end
        out[u >= top] = g0[u >= top]
        out[u >= tails[0]] = 0.0
        return out

    def _tail_rest0(self, t):
        m_here, _, tl = _pieces(self.curve, np.atleast_1d(np.asarray(t, dtype=float)))
        out = m_here * tl
        return out if np.asarray(t).shape else out[0]

    def _power_moment0(self, p):
        if p == 1.0:
            return self.curve.mean
        return None

    def _moment_sup_order(self):
        s = self.curve.end_slope
        if s <= 0.0:
            return np.inf
        return 1.0 + 1.0 / s

    def _support_end(self):
        return self.curve.support_end

    def tail_breakpoints(self):
        return tuple(float(x) for x in self.curve.grid[1:])

    def jumps(self):
        tb = _tables(self.curve)
        scale = 1.0 - self.defect
        out = []
        first = (1.0 - float(tb.knot_tails[0])) * scale  # m0 < m(0)
        if first > 1e-15:
            out.append((0.0, first))
        # a terminal slope of -1 keeps the tail flat until m reaches 0
        if np.isfinite(tb.support_end) and abs(1 + 1 / tb.slopes[-1]) < 1e-14:
            out.append((tb.support_end, float(tb.knot_tails[-1]) * scale))
        return tuple(out)

    def _density0(self, t):
        m_here, s, tl = _pieces(self.curve, np.atleast_1d(np.asarray(t, dtype=float)))
        out = tl * (1.0 + s) / np.maximum(m_here, 1e-300)
        return out if np.asarray(t).shape else out[0]

    @classmethod
    def from_params(cls, params: dict, **extra) -> "FromMrl":
        curve = MrlCurve(
            grid=tuple(float(x) for x in params["grid"]),
            values=tuple(float(x) for x in params["values"]),
            m0=float(params["m0"]) if params.get("m0") is not None else None,
            terminal=params.get("terminal", "constant"),
            terminal_slope=(float(params["terminal_slope"])
                            if params.get("terminal_slope") is not None else None),
        )
        return cls(curve=curve, **extra)

    def to_params(self) -> dict:
        out = {"grid": list(self.curve.grid), "values": list(self.curve.values)}
        if self.curve.m0 is not None:
            out["m0"] = self.curve.m0
        if self.curve.terminal != "constant":
            out["terminal"] = self.curve.terminal
            if self.curve.terminal_slope is not None:
                out["terminal_slope"] = self.curve.terminal_slope
        return out


dist.register_family("from_mrl", FromMrl)
