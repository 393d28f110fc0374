"""Lifetime laws on [0, inf] represented through their tail functions.

Every law is a frozen spec object exposing exact (or high-accuracy) tail
evaluation, inverse-transform sampling, and moment quadrature. The tail
function is the single source of truth: all downstream transforms,
classifiers and simulators consume laws only through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from ._integrate import hybrid_grid, octave_quad_to_inf, split_quad

__all__ = [
    "DistributionSpec",
    "Exponential",
    "Weibull",
    "ShiftedParetoSquare",
    "PiecewiseConstantTail",
    "PiecewiseExpTail",
    "LevyFirstPassage",
    "Tabulated",
    "TailCurve",
    "MomentFunction",
    "SpecValidationError",
    "ZeroAtOriginError",
    "DegenerateAtZeroError",
    "NonMonotoneError",
    "validate",
    "tail",
    "log_tail",
    "cdf",
    "characteristic_scale",
    "mean",
    "second_moment",
    "sample",
    "g_moment",
    "mean_upper_rest",
    "working_grid",
    "as_tail_curve",
    "spec_from_dict",
    "spec_to_dict",
    "register_family",
]

_ATOL = 1e-12


class SpecValidationError(ValueError):
    """A distribution spec violates a structural or standing assumption."""


class ZeroAtOriginError(SpecValidationError):
    """The tail vanishes already at t = 0."""


class DegenerateAtZeroError(SpecValidationError):
    """The tail equals 1 on a right neighbourhood of 0 (no mass near 0)."""


class NonMonotoneError(SpecValidationError):
    """Tail values increase somewhere."""


@dataclass(frozen=True)
class TailCurve:
    """Discretized right-continuous nonincreasing tail on a finite grid.

    ``grid`` holds m strictly increasing breakpoints starting at 0;
    ``values`` holds one probability per grid cell [grid[i], grid[i+1]),
    ``terminal`` the value on [grid[-1], inf). In ``log-linear`` mode the
    entries are knot values at the breakpoints instead (terminal doubling
    as the last knot) and the curve interpolates geometrically.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    terminal: float
    mode: str = "step"
    err_estimate: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.size < 1 or g[0] != 0.0:
            raise SpecValidationError("tail curve grid must start at 0")
        if g.size > 1 and np.any(np.diff(g) <= 0.0):
            raise SpecValidationError("tail curve grid must be strictly increasing")
        if v.size != g.size - 1:
            raise SpecValidationError(
                "need one value per grid cell (len(values) == len(grid) - 1)")
        if self.mode not in ("step", "log-linear"):
            raise SpecValidationError(f"unknown interpolation mode {self.mode!r}")
        ladder = np.append(v, self.terminal)
        if np.any(ladder < -_ATOL) or np.any(ladder > 1.0 + _ATOL):
            raise SpecValidationError("tail values must lie in [0, 1]")
        if np.any(np.diff(ladder) > _ATOL):
            raise NonMonotoneError("tail values must be nonincreasing")
        if ladder[0] <= 0.0:
            raise ZeroAtOriginError("first tail value must be positive")

    @property
    def knot_values(self) -> np.ndarray:
        return np.append(np.asarray(self.values, dtype=float), self.terminal)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        g = np.asarray(self.grid, dtype=float)
        ladder = self.knot_values
        idx = np.searchsorted(g, t_arr, side="right") - 1
        idx = np.clip(idx, 0, g.size - 1)
        if self.mode == "step":
            out = ladder[idx]
        else:
            out = _loglinear_eval(g, ladder, t_arr, idx)
        out = np.where(np.isinf(t_arr), 0.0, out)
        return out if out.shape else float(out)


def _loglinear_eval(g: np.ndarray, ladder: np.ndarray, t: np.ndarray,
                    idx: np.ndarray) -> np.ndarray:
    last = g.size - 1
    if last < 1:
        return np.full(t.shape, ladder[-1])
    seg = np.minimum(idx, last - 1)
    lo_t, hi_t = g[seg], g[seg + 1]
    lo_v, hi_v = ladder[seg], ladder[seg + 1]
    theta = np.clip((t - lo_t) / (hi_t - lo_t), 0.0, 1.0)
    tiny = 1e-300
    geo_ok = (lo_v > tiny) & (hi_v > tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = np.exp((1.0 - theta) * np.log(np.maximum(lo_v, tiny))
                     + theta * np.log(np.maximum(hi_v, tiny)))
    lin = (1.0 - theta) * lo_v + theta * hi_v
    # fall back to linear interpolation when an endpoint is (numerically) zero
    return np.where(idx < last, np.where(geo_ok, geo, lin), ladder[-1])


class MomentFunction:
    """Nondecreasing weight G on [0, inf] used for G-moment integrals."""

    def __init__(self, kind: str, *, power: float = 1.0, threshold: float = 0.0,
                 grid: tuple[float, ...] = (), values: tuple[float, ...] = ()):
        self.kind = kind
        self.power = float(power)
        self.threshold = float(threshold)
        self.grid = tuple(float(x) for x in grid)
        self.values = tuple(float(x) for x in values)
        if kind == "power" and self.power < 1.0:
            raise ValueError("power moment requires exponent >= 1")
        if kind == "tabulated":
            if len(self.grid) != len(self.values) or len(self.grid) < 2:
                raise ValueError("tabulated moment curve needs matching grid/values")
            if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
                raise ValueError("tabulated moment grid must be increasing")
            if any(b < a - _ATOL for a, b in zip(self.values, self.values[1:])):
                raise ValueError("moment function must be nondecreasing")
        if kind not in ("identity", "power", "indicator_above", "tabulated"):
            raise ValueError(f"unknown moment function kind {kind!r}")

    @classmethod
    def identity(cls) -> "MomentFunction":
        return cls("identity")

    @classmethod
    def power_of(cls, p: float) -> "MomentFunction":
        return cls("power", power=p)

    @classmethod
    def indicator_above(cls, threshold: float) -> "MomentFunction":
        return cls("indicator_above", threshold=threshold)

    @classmethod
    def tabulated(cls, grid, values) -> "MomentFunction":
        return cls("tabulated", grid=tuple(grid), values=tuple(values))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "identity":
            out = t_arr
        elif self.kind == "power":
            out = t_arr ** self.power
        elif self.kind == "indicator_above":
            out = (t_arr > self.threshold).astype(float)
        else:
            g = np.asarray(self.grid)
            v = np.asarray(self.values)
            out = np.interp(t_arr, g, v, left=v[0], right=v[-1])
        return out if out.shape else float(out)


@dataclass(frozen=True, kw_only=True)
class DistributionSpec:
    """Base class for lifetime laws given through their tail function.

    ``defect`` is extra probability mixed in at infinity on top of whatever
    defect the family itself carries. ``check_standing`` enforces the
    completion-law assumptions (tail positive at 0, strictly below 1 for
    all t > 0); carriers used purely as reset laws may switch it off.
    """

    defect: float = 0.0
    check_standing: bool = True

    family: str = field(default="", init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.defect < 1.0:
            raise SpecValidationError("mass at infinity must lie in [0, 1)")
        self._validate_family()
        if self.check_standing:
            self._validate_standing()

    # family hooks -----------------------------------------------------
    def _validate_family(self) -> None:
        raise NotImplementedError

    def _validate_standing(self) -> None:
        # smooth parametric families satisfy tail < 1 for t > 0 structurally
        if float(self._tail0(np.asarray(0.0))) <= 0.0:
            raise ZeroAtOriginError("tail must be positive at 0")

    def _tail0(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log_tail0(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self._tail0(t))

    def _isf0(self, u: np.ndarray) -> np.ndarray:
        """Generalized inverse of the base tail: inf{t : tail(t) <= u}."""
        raise NotImplementedError

    def _tail_rest0(self, t: np.ndarray) -> np.ndarray:
        """Exact integral of the base tail over [t, inf); inf if divergent."""
        raise NotImplementedError

    def _power_moment0(self, p: float) -> float | None:
        """Closed-form E[T^p] of the base law, None when quadrature is needed."""
        return None

    def _moment_sup_order(self) -> float:
        """Supremum of p with E[T^p] finite for the base law."""
        return np.inf

    def _terminal_limit(self) -> float:
        return 0.0

    def _support_end(self) -> float:
        return np.inf

    def tail_breakpoints(self) -> tuple[float, ...]:
        """Finite discontinuity and kink locations of the tail."""
        return ()

    def jumps(self) -> tuple[tuple[float, float], ...]:
        """Atoms of the law at finite times as (location, mass) pairs."""
        return ()

    def _density0(self, t: np.ndarray) -> np.ndarray:
        return np.zeros_like(t)

    # public surface ---------------------------------------------------
    @property
    def mass_at_infinity(self) -> float:
        """Total defective mass lim tail(t)."""
        return self.defect + (1.0 - self.defect) * self._terminal_limit()

    @property
    def t0(self) -> float:
        """Supremum of the support."""
        if self.mass_at_infinity > 0.0:
            return np.inf
        return self._support_end()

    def tail(self, t):
        t_arr = np.asarray(t, dtype=float)
        base = self._tail0(np.where(np.isinf(t_arr), 0.0, t_arr))
        out = self.defect + (1.0 - self.defect) * base
        out = np.where(np.isinf(t_arr), 0.0, out)
        return out if out.shape else float(out)

    def log_tail(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.defect == 0.0:
            out = self._log_tail0(t_arr)
        else:
            with np.errstate(divide="ignore"):
                out = np.log(self.tail(t_arr))
        out = np.where(np.isinf(t_arr), -np.inf, out)
        return out if out.shape else float(out)

    def density(self, t):
        """Density of the absolutely continuous part (0 where purely atomic)."""
        t_arr = np.asarray(t, dtype=float)
        out = (1.0 - self.defect) * self._density0(t_arr)
        return out if out.shape else float(out)

    def isf(self, u):
        """Generalized inverse survival: inf{t : tail(t) <= u}."""
        u_arr = np.asarray(u, dtype=float)
        m = self.defect
        if m > 0.0:
            scaled = np.clip((u_arr - m) / (1.0 - m), 0.0, 1.0)
            with np.errstate(divide="ignore"):
                out = np.where(u_arr < m, np.inf, self._isf0(scaled))
        else:
            out = np.asarray(self._isf0(u_arr))
        return out if out.shape else float(out)


# ----------------------------------------------------------------------
# parametric families


@dataclass(frozen=True, kw_only=True)
class Exponential(DistributionSpec):
    """Memoryless law, tail exp(-rate * t)."""

    rate: float
    family: str = field(default="exponential", init=False, repr=False)

    def _validate_family(self):
        if not self.rate > 0.0:
            raise SpecValidationError("exponential rate must be positive")

    def _tail0(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def _log_tail0(self, t):
        return -self.rate * np.asarray(t, dtype=float)

    def _isf0(self, u):
        with np.errstate(divide="ignore"):
            return -np.log(u) / self.rate

    def _tail_rest0(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float)) / self.rate

    def _power_moment0(self, p):
        return float(_sp.gamma(p + 1.0)) / self.rate ** p

    def _density0(self, t):
        return self.rate * np.exp(-self.rate * np.asarray(t, dtype=float))


@dataclass(frozen=True, kw_only=True)
class Weibull(DistributionSpec):
    """Unit-scale Weibull, tail exp(-t**shape)."""

    shape: float
    family: str = field(default="weibull", init=False, repr=False)

    def _validate_family(self):
        if not self.shape > 0.0:
            raise SpecValidationError("weibull shape must be positive")

    def _tail0(self, t):
        return np.exp(-np.asarray(t, dtype=float) ** self.shape)

    def _log_tail0(self, t):
        return -np.asarray(t, dtype=float) ** self.shape

    def _isf0(self, u):
        with np.errstate(divide="ignore", invalid="ignore"):
            level = -np.log(u)
        # the C library's pow, as numpy's scalar power uses (see _libm)
        level = np.where(level < 0.0, np.nan, level)  # u > 1
        return _libm(pow, level, 1.0 / self.shape)

    def _tail_rest0(self, t):
        k = self.shape
        t_arr = np.asarray(t, dtype=float)
        return float(_sp.gamma(1.0 / k)) / k * _sp.gammaincc(1.0 / k, t_arr ** k)

    def _power_moment0(self, p):
        return float(_sp.gamma(1.0 + p / self.shape))

    def _density0(self, t):
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.shape * t_arr ** (self.shape - 1.0) * np.exp(-t_arr ** self.shape)
        return np.where(t_arr == 0.0, 0.0 if self.shape > 1.0 else np.inf, out)


@dataclass(frozen=True, kw_only=True)
class ShiftedParetoSquare(DistributionSpec):
    """Lomax-type law with tail (offset / (t + offset))**2.

    Normalized so the tail starts at 1; its mean residual life is t + offset.
    """

    offset: float
    family: str = field(default="shifted_pareto_square", init=False, repr=False)

    def _validate_family(self):
        if not 0.0 < self.offset < 1.0:
            raise SpecValidationError("offset must lie in (0, 1)")

    def _tail0(self, t):
        k = self.offset
        return (k / (np.asarray(t, dtype=float) + k)) ** 2

    def _log_tail0(self, t):
        k = self.offset
        return -2.0 * np.log1p(np.asarray(t, dtype=float) / k)

    def _isf0(self, u):
        k = self.offset
        with np.errstate(divide="ignore"):
            return k * (1.0 / np.sqrt(u) - 1.0)

    def _tail_rest0(self, t):
        k = self.offset
        return k * k / (np.asarray(t, dtype=float) + k)

    def _power_moment0(self, p):
        if p >= 2.0:
            return np.inf
        k = self.offset
        return k ** p * float(_sp.gamma(p + 1.0) * _sp.gamma(2.0 - p))

    def _moment_sup_order(self):
        return 2.0

    def _density0(self, t):
        k = self.offset
        return 2.0 * k * k / (np.asarray(t, dtype=float) + k) ** 3


@dataclass(frozen=True, kw_only=True)
class LevyFirstPassage(DistributionSpec):
    """First-passage time of standard Brownian motion over a level.

    Tail erf(level / sqrt(2 t)); finite almost surely with infinite mean.
    """

    level: float
    family: str = field(default="levy_first_passage", init=False, repr=False)

    def _validate_family(self):
        if not self.level > 0.0:
            raise SpecValidationError("passage level must be positive")

    def _tail0(self, t):
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            arg = np.where(t_arr > 0.0, self.level / np.sqrt(2.0 * np.maximum(t_arr, 1e-300)), np.inf)
        return np.where(t_arr <= 0.0, 1.0, _sp.erf(arg))

    def _isf0(self, u):
        u_arr = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            z = _sp.erfinv(np.clip(u_arr, 0.0, 1.0))
            out = self.level ** 2 / (2.0 * z * z)
        return np.where(u_arr >= 1.0, 0.0, out)

    def _tail_rest0(self, t):
        out = np.full(np.asarray(t, dtype=float).shape, np.inf)
        return out

    def _power_moment0(self, p):
        if p >= 0.5:
            return np.inf
        a = self.level
        return a ** (2.0 * p) * 2.0 ** (-p) * float(_sp.gamma(0.5 - p) / _sp.gamma(0.5))

    def _moment_sup_order(self):
        return 0.5

    def _density0(self, t):
        t_arr = np.asarray(t, dtype=float)
        a = self.level
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a / np.sqrt(2.0 * np.pi) * np.maximum(t_arr, 1e-300) ** -1.5 \
                * np.exp(-a * a / (2.0 * np.maximum(t_arr, 1e-300)))
        return np.where(t_arr <= 0.0, 0.0, out)


# ----------------------------------------------------------------------
# piecewise and tabulated families


@dataclass(frozen=True, kw_only=True)
class PiecewiseConstantTail(DistributionSpec):
    """Pure-jump law: tail constant between breakpoints.

    ``breakpoints`` must start at 0; ``levels[i]`` is the tail value on
    [breakpoints[i], breakpoints[i+1]), the last level extending to infinity
    (a positive last level is mass at infinity).
    """

    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]
    family: str = field(default="piecewise_constant", init=False, repr=False)

    def _validate_family(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.levels, dtype=float)
        if b.size == 0 or b[0] != 0.0:
            raise SpecValidationError("breakpoints must start at 0")
        if np.any(np.diff(b) <= 0.0):
            raise SpecValidationError("breakpoints must be strictly increasing")
        if v.size != b.size:
            raise SpecValidationError("need one level per breakpoint")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise SpecValidationError("levels must lie in [0, 1]")
        if np.any(np.diff(v) > _ATOL):
            raise NonMonotoneError("levels must be nonincreasing")

    def _validate_standing(self):
        if self.levels[0] <= 0.0:
            raise ZeroAtOriginError("tail must be positive at 0")
        if self.levels[0] >= 1.0:
            end = self.breakpoints[1] if len(self.breakpoints) > 1 else np.inf
            raise DegenerateAtZeroError(f"tail equals 1 up to t={end:g}")

    def _tail0(self, t):
        idx = np.searchsorted(self.breakpoints, np.asarray(t, dtype=float),
                              side="right") - 1
        return np.asarray(self.levels, dtype=float)[np.clip(idx, 0, len(self.levels) - 1)]

    def _isf0(self, u):
        u_arr = np.asarray(u, dtype=float)
        v = np.asarray(self.levels, dtype=float)
        b = np.asarray(self.breakpoints, dtype=float)
        idx = np.searchsorted(-v, -u_arr, side="left")
        out = np.where(idx >= v.size, np.inf, b[np.minimum(idx, v.size - 1)])
        return out

    def _tail_rest0(self, t):
        t_arr = np.asarray(t, dtype=float)
        v = np.asarray(self.levels, dtype=float)
        b = np.asarray(self.breakpoints, dtype=float)
        if v[-1] > 0.0:
            return np.full(t_arr.shape, np.inf)
        cell = v[:-1] * np.diff(b)
        suffix = np.append(np.cumsum(cell[::-1])[::-1], 0.0)
        idx = np.clip(np.searchsorted(b, t_arr, side="right") - 1, 0, v.size - 1)
        nxt = np.minimum(idx + 1, v.size - 1)
        partial = v[idx] * np.clip(b[nxt] - t_arr, 0.0, None)
        return suffix[nxt] + partial

    def _power_moment0(self, p):
        if self.levels[-1] > 0.0:
            return np.inf
        total = 0.0
        for i in range(len(self.levels) - 1):
            total += self.levels[i] * (self.breakpoints[i + 1] ** p
                                       - self.breakpoints[i] ** p)
        return total

    def _moment_sup_order(self):
        return np.inf if self.levels[-1] == 0.0 else 0.0

    def _terminal_limit(self):
        return float(self.levels[-1])

    def _support_end(self):
        if self.levels[-1] > 0.0:
            return np.inf
        return float(self.breakpoints[-1])

    def tail_breakpoints(self):
        return tuple(float(x) for x in self.breakpoints[1:])

    def jumps(self):
        out = []
        prev = 1.0
        for b, v in zip(self.breakpoints, self.levels):
            size = (prev - v) * (1.0 - self.defect)
            if size > 1e-15:
                out.append((float(b), float(size)))
            prev = v
        return tuple(out)


@dataclass(frozen=True, kw_only=True)
class PiecewiseExpTail(DistributionSpec):
    """Tail that is log-linear on each segment.

    ``segments`` is a tuple of (start, offset, rate): on [start, next_start)
    the tail equals exp(-(offset + rate * (t - start))); the last segment
    extends to infinity. Downward jumps between segments are allowed.
    """

    segments: tuple[tuple[float, float, float], ...]
    family: str = field(default="piecewise_exp", init=False, repr=False)

    def _validate_family(self):
        if not self.segments:
            raise SpecValidationError("need at least one segment")
        starts = [s[0] for s in self.segments]
        if starts[0] != 0.0:
            raise SpecValidationError("first segment must start at 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise SpecValidationError("segment starts must be strictly increasing")
        for _, off, rate in self.segments:
            if off < 0.0 or rate < 0.0:
                raise NonMonotoneError("segment offsets and rates must be nonnegative")
        for (s0, a0, b0), (s1, a1, _) in zip(self.segments, self.segments[1:]):
            if a1 < a0 + b0 * (s1 - s0) - 1e-9:
                raise NonMonotoneError("tail must not jump upward between segments")

    def _validate_standing(self):
        _, a0, b0 = self.segments[0]
        if a0 == 0.0 and b0 == 0.0:
            end = self.segments[1][0] if len(self.segments) > 1 else np.inf
            raise DegenerateAtZeroError(f"tail equals 1 up to t={end:g}")

    def _starts(self):
        return np.asarray([s[0] for s in self.segments], dtype=float)

    def _log_tail0(self, t):
        t_arr = np.asarray(t, dtype=float)
        starts = self._starts()
        offs = np.asarray([s[1] for s in self.segments])
        rates = np.asarray([s[2] for s in self.segments])
        idx = np.clip(np.searchsorted(starts, t_arr, side="right") - 1, 0,
                      starts.size - 1)
        return -(offs[idx] + rates[idx] * (t_arr - starts[idx]))

    def _tail0(self, t):
        return np.exp(self._log_tail0(t))

    def _isf0(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        segs = self.segments
        n = len(segs)
        top = math.exp(-segs[0][1])
        out = np.full(u_arr.shape, np.inf)
        out[u_arr <= 0.0] = self._support_end()
        out[u_arr >= top] = 0.0
        inner = (u_arr > 0.0) & (u_arr < top)
        tau = -_libm(math.log, u_arr[inner])
        res = np.full(tau.shape, np.inf)
        left = np.ones(tau.shape, dtype=bool)
        # first segment whose start or interior reaches the level tau
        for i, (s, a, b) in enumerate(segs):
            at_start = left & (tau <= a)
            res[at_start] = s
            left &= ~at_start
            end = segs[i + 1][0] if i + 1 < n else math.inf
            if math.isfinite(end):
                end_val = a + b * (end - s)
            else:
                end_val = math.inf if b > 0.0 else a
            within = left & (tau < end_val)
            res[within] = s + (tau[within] - a) / b
            left &= ~within
        out[inner] = res
        return out if np.asarray(u).shape else out[0]

    def _tail_rest0(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.segments[-1][2] == 0.0:
            return np.full(t_arr.shape, np.inf)
        flat = np.zeros(t_arr.shape)
        n = len(self.segments)
        for i, (s, a, b) in enumerate(self.segments):
            end = self.segments[i + 1][0] if i + 1 < n else np.inf
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

    def _moment_sup_order(self):
        return np.inf if self.segments[-1][2] > 0.0 else 0.0

    def _terminal_limit(self):
        _, a, b = self.segments[-1]
        return 0.0 if b > 0.0 else math.exp(-a)

    def tail_breakpoints(self):
        return tuple(float(s[0]) for s in self.segments[1:])

    def jumps(self):
        out = []
        v_prev = 1.0
        n = len(self.segments)
        for i, (s, a, b) in enumerate(self.segments):
            v_here = math.exp(-a)
            size = (v_prev - v_here) * (1.0 - self.defect)
            if size > 1e-15:
                out.append((float(s), size))
            end = self.segments[i + 1][0] if i + 1 < n else np.inf
            v_prev = math.exp(-(a + b * (end - s))) if math.isfinite(end) else 0.0
        return tuple(out)

    def _density0(self, t):
        t_arr = np.asarray(t, dtype=float)
        starts = self._starts()
        rates = np.asarray([s[2] for s in self.segments])
        idx = np.clip(np.searchsorted(starts, t_arr, side="right") - 1, 0,
                      starts.size - 1)
        return rates[idx] * self._tail0(t_arr)


@dataclass(frozen=True, kw_only=True)
class Tabulated(DistributionSpec):
    """Law given by a discretized tail curve."""

    curve: TailCurve
    family: str = field(default="tabulated", init=False, repr=False)

    def _validate_family(self):
        if not isinstance(self.curve, TailCurve):
            raise SpecValidationError("tabulated spec needs a TailCurve")

    def _validate_standing(self):
        ladder = self.curve.knot_values
        if ladder[0] <= 0.0:
            raise ZeroAtOriginError("tail must be positive at 0")
        if self.curve.mode == "step":
            if ladder[0] >= 1.0:
                raise DegenerateAtZeroError("tail equals 1 on the first cell")
        elif ladder[0] >= 1.0 and ladder.size > 1 and ladder[1] >= 1.0:
            raise DegenerateAtZeroError("tail equals 1 on the first segment")

    def _tail0(self, t):
        return np.asarray(self.curve(np.asarray(t, dtype=float)))

    def _isf0(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        g = np.asarray(self.curve.grid, dtype=float)
        ladder = self.curve.knot_values
        idx = np.searchsorted(-ladder, -u_arr, side="left")
        if self.curve.mode == "step":
            out = np.where(idx >= ladder.size, np.inf,
                           g[np.minimum(idx, g.size - 1)])
        else:
            out = _isf_loglinear(u_arr, idx, g, ladder)
        return out if np.asarray(u).shape else float(out.ravel()[0])

    def _tail_rest0(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.curve.terminal > 0.0:
            return np.full(t_arr.shape, np.inf)
        g = np.asarray(self.curve.grid, dtype=float)
        ladder = self.curve.knot_values
        cells = np.diff(g)
        if self.curve.mode == "step":
            cell_int = ladder[:-1] * cells
        else:
            cell_int = _loglinear_cell_integrals(ladder, cells)
        suffix = np.append(np.cumsum(cell_int[::-1])[::-1], 0.0)
        idx = np.clip(np.searchsorted(g, t_arr, side="right") - 1, 0, g.size - 1)
        nxt = np.minimum(idx + 1, g.size - 1)
        inside = idx < g.size - 1
        tv = np.asarray(self._tail0(t_arr))
        if self.curve.mode == "step":
            partial = np.where(inside, tv * np.clip(g[nxt] - t_arr, 0.0, None), 0.0)
        else:
            hi_v = ladder[nxt]
            width = np.clip(g[nxt] - t_arr, 0.0, None)
            partial = np.where(inside & (width > 0.0),
                               _geo_segment_integral(tv, hi_v, width), 0.0)
        return suffix[nxt] + partial

    def _moment_sup_order(self):
        return np.inf if self.curve.terminal == 0.0 else 0.0

    def _terminal_limit(self):
        return float(self.curve.terminal)

    def _support_end(self):
        if self.curve.terminal > 0.0:
            return np.inf
        ladder = self.curve.knot_values
        g = np.asarray(self.curve.grid, dtype=float)
        pos = np.nonzero(ladder > 0.0)[0]
        if pos.size == 0:
            return 0.0
        return float(g[min(int(pos[-1]) + 1, g.size - 1)])

    def tail_breakpoints(self):
        return tuple(float(x) for x in self.curve.grid[1:])

    def jumps(self):
        scale = 1.0 - self.defect
        ladder = self.curve.knot_values
        if self.curve.mode != "step":
            first = (1.0 - float(ladder[0])) * scale
            return ((0.0, first),) if first > 1e-15 else ()
        out = []
        prev = 1.0
        for b, v in zip(self.curve.grid, ladder):
            size = (prev - v) * scale
            if size > 1e-15:
                out.append((float(b), float(size)))
            prev = v
        return tuple(out)

    def _density0(self, t):
        if self.curve.mode == "step":
            return np.zeros(np.asarray(t, dtype=float).shape)
        t_arr = np.asarray(t, dtype=float)
        g = np.asarray(self.curve.grid, dtype=float)
        ladder = self.curve.knot_values
        idx = np.clip(np.searchsorted(g, t_arr, side="right") - 1, 0,
                      max(g.size - 2, 0))
        lo_v = np.maximum(ladder[idx], 1e-300)
        hi_v = np.maximum(ladder[np.minimum(idx + 1, g.size - 1)], 1e-300)
        width = np.maximum(g[np.minimum(idx + 1, g.size - 1)] - g[idx], 1e-300)
        rate = -(np.log(hi_v) - np.log(lo_v)) / width
        out = rate * np.asarray(self._tail0(t_arr))
        return np.where((t_arr < 0.0) | (t_arr >= g[-1]), 0.0, out)


def _isf_loglinear(u: np.ndarray, idx: np.ndarray, g: np.ndarray,
                   ladder: np.ndarray) -> np.ndarray:
    """Inverse of the log-linear interpolant; ``idx`` locates u in the ladder."""
    j = np.clip(idx, 1, ladder.size - 1)
    lo_v, hi_v, lo_t, hi_t = ladder[j - 1], ladder[j], g[j - 1], g[j]
    out = lo_t.copy()
    live = ~((u >= ladder[0]) | (u < ladder[-1]) | (idx >= ladder.size)
             | (lo_v <= u) | (lo_v == hi_v))
    uu, lv, hv = u[live], lo_v[live], hi_v[live]
    theta = (lv - uu) / (lv - hv)
    geo = hv > 1e-300
    log_ladder = _libm(math.log, np.where(ladder > 0.0, ladder, 1.0))
    lj = j[live][geo]
    theta[geo] = (_libm(math.log, uu[geo]) - log_ladder[lj - 1]) \
        / (log_ladder[lj] - log_ladder[lj - 1])
    out[live] = lo_t[live] + np.clip(theta, 0.0, 1.0) * (hi_t[live] - lo_t[live])
    out[idx >= ladder.size] = g[-1]  # only a NaN u lands past the ladder
    out[u < ladder[-1]] = np.inf
    out[u >= ladder[0]] = 0.0
    return out


def _libm(fn, *args) -> np.ndarray:
    """``fn`` (``math.log``, ``pow``) applied element by element.

    numpy's array log and power kernels depend on the host's instruction
    set and differ from the C library's in the last bit on ~1% of
    arguments above 0.1 (AVX-512), while numpy's power of a single float
    is the C library's. Inverse tails built on these go through the C
    library, so a scalar and an array call return the same bits, on every
    host.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    lists = [a.ravel().tolist() for a in arrays]
    return np.fromiter(map(fn, *lists), dtype=float,
                       count=arrays[0].size).reshape(arrays[0].shape)


def _loglinear_cell_integrals(ladder: np.ndarray, cells: np.ndarray) -> np.ndarray:
    out = np.empty_like(cells)
    for i in range(cells.size):
        out[i] = _geo_segment_integral(float(ladder[i]), float(ladder[i + 1]),
                                       float(cells[i]))
    return out


def _geo_segment_integral(lo_v, hi_v, width):
    """Integral over one cell of the geometric interpolant from lo_v to hi_v."""
    lo_v = np.asarray(lo_v, dtype=float)
    hi_v = np.asarray(hi_v, dtype=float)
    width = np.asarray(width, dtype=float)
    tiny = 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(np.maximum(hi_v, tiny)) - np.log(np.maximum(lo_v, tiny))
        rate = -ratio / np.maximum(width, tiny)
        geo = (lo_v - hi_v) / np.maximum(rate, tiny)
    flatish = np.abs(ratio) < 1e-12
    lin = 0.5 * (lo_v + hi_v) * width
    out = np.where(flatish | (lo_v <= tiny) | (hi_v <= tiny), lin, geo)
    return out if out.shape else float(out)


# ----------------------------------------------------------------------
# registry and module-level operations

_REGISTRY: dict[str, type] = {}


def register_family(name: str, cls: type) -> None:
    _REGISTRY[name] = cls


for _cls in (Exponential, Weibull, ShiftedParetoSquare, LevyFirstPassage,
             PiecewiseConstantTail, PiecewiseExpTail, Tabulated):
    register_family(_cls.__dataclass_fields__["family"].default, _cls)


def validate(spec: DistributionSpec) -> DistributionSpec:
    """Re-run all construction checks and return the spec unchanged."""
    if not isinstance(spec, DistributionSpec):
        raise SpecValidationError("not a distribution spec")
    spec._validate_family()
    if spec.check_standing:
        spec._validate_standing()
    probe = working_grid(spec, n=256)
    vals = np.asarray(spec.tail(probe))
    if np.any(np.diff(vals) > 1e-9):
        raise NonMonotoneError("tail increases on the probe grid")
    return spec


def tail(spec: DistributionSpec, t):
    return spec.tail(t)


def log_tail(spec: DistributionSpec, t):
    return spec.log_tail(t)


def cdf(spec: DistributionSpec, t):
    """1 - tail(t), computed without cancellation where the tail is near 1."""
    out = -np.expm1(np.asarray(spec.log_tail(t)))
    return out if out.shape else float(out)


def characteristic_scale(spec: DistributionSpec) -> float:
    """Rough time scale of the law: where the tail falls to 1/e of its range."""
    lim = spec.mass_at_infinity
    target = lim + (float(spec.tail(0.0)) - lim) * math.exp(-1.0)
    q = float(spec.isf(min(max(target, 1e-9), 0.999999)))
    if not np.isfinite(q) or q <= 0.0:
        q = 1.0
    return min(max(q, 1e-3), 1e6)


def mean_upper_rest(spec: DistributionSpec, t):
    """Integral of the tail over [t, inf); inf when divergent."""
    t_arr = np.asarray(t, dtype=float)
    if spec.mass_at_infinity > 0.0:
        out = np.full(t_arr.shape, np.inf)
        return out if out.shape else float(out)
    base = spec._tail_rest0(t_arr)
    out = (1.0 - spec.defect) * np.asarray(base)
    return out if out.shape else float(out)


def mean(spec: DistributionSpec) -> float:
    """Expected lifetime, +inf when divergent or defective."""
    return _power_moment(spec, 1.0)


def second_moment(spec: DistributionSpec) -> float:
    return _power_moment(spec, 2.0)


def _power_moment(spec: DistributionSpec, p: float) -> float:
    if spec.mass_at_infinity > 0.0:
        return np.inf
    if p >= spec._moment_sup_order():
        return np.inf
    closed = spec._power_moment0(p)
    if closed is not None:
        return (1.0 - spec.defect) * float(closed)
    if p == 1.0:
        rest = float(spec._tail_rest0(np.asarray(0.0)))
        if np.isfinite(rest):
            return (1.0 - spec.defect) * rest

    def integrand(t):
        t_arr = np.asarray(t, dtype=float)
        return p * t_arr ** (p - 1.0) * np.asarray(spec.tail(t_arr))

    upper = _bulk_cutoff(spec)
    pts = tuple(spec.tail_breakpoints()) \
        + tuple(np.geomspace(max(upper * 1e-8, 1e-12), upper, 9))
    head, _ = split_quad(integrand, 0.0, upper, points=pts)
    rest, _ = octave_quad_to_inf(integrand, upper)
    return head + rest


def _bulk_cutoff(spec: DistributionSpec, eps: float = 1e-10) -> float:
    """Time beyond which the remaining tail integral is below eps."""
    t = 1.0
    for _ in range(200):
        rest = float(spec._tail_rest0(np.asarray(t)))
        if not np.isfinite(rest):
            break
        if rest < eps:
            return t
        t *= 2.0
    q = spec.isf(min(eps, 1e-10))
    if np.isfinite(q):
        return max(float(q), 1.0)
    return max(t, 1.0)


def g_moment(spec: DistributionSpec, g: MomentFunction) -> float:
    """Lebesgue-Stieltjes moment E[G(T)] against the tail."""
    if g.kind == "identity":
        return mean(spec)
    if g.kind == "power":
        return _power_moment(spec, g.power)
    if g.kind == "indicator_above":
        return float(spec.tail(g.threshold))
    # tabulated piecewise-linear nondecreasing curve, constant beyond its grid
    total = g.values[0]
    for (a, b), (va, vb) in zip(zip(g.grid, g.grid[1:]),
                                zip(g.values, g.values[1:])):
        if b <= a or vb == va:
            continue
        slope = (vb - va) / (b - a)
        pts = tuple(p for p in spec.tail_breakpoints() if a < p < b)
        seg, _ = split_quad(lambda t: np.asarray(spec.tail(t)), a, b, points=pts)
        total += slope * seg
    return float(total)


def sample(spec: DistributionSpec, rng: np.random.Generator, size=None):
    """Inverse-transform draws; returns inf with the defective mass."""
    u = rng.random(size)
    return spec.isf(u)


def working_grid(spec: DistributionSpec, upper: float | None = None,
                 n: int = 4096) -> np.ndarray:
    """Default evaluation grid for a law: hybrid spacing, denser at jumps."""
    if upper is None:
        upper = default_horizon(spec)
    return hybrid_grid(upper, n=n, extra=spec.tail_breakpoints())


def default_horizon(spec: DistributionSpec) -> float:
    """A horizon past the law's bulk: tail within 1e-9 of its limit there."""
    end = spec._support_end()
    if np.isfinite(end):
        return float(end)
    lim = spec.mass_at_infinity
    target = lim + (float(spec.tail(0.0)) - lim) * 1e-9
    q = spec.isf(min(max(target, 1e-12), 0.999999))
    if not np.isfinite(q) or q <= 0.0:
        q = 1.0
    return float(min(max(q, 1.0), 1e7))


def as_tail_curve(spec: DistributionSpec, grid=None,
                  mode: str = "log-linear") -> TailCurve:
    """Tabulate a law's tail on a grid (defaults to the working grid)."""
    if grid is None:
        grid = working_grid(spec)
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(spec.tail(grid))
    return TailCurve(grid=tuple(grid), values=tuple(vals[:-1]),
                     terminal=float(vals[-1]), mode=mode)


# ----------------------------------------------------------------------
# JSON envelope

def spec_from_dict(doc: dict) -> DistributionSpec:
    """Build a spec from the JSON envelope {"family": ..., "params": {...}}."""
    if not isinstance(doc, dict) or "family" not in doc:
        raise SpecValidationError("spec document needs a 'family' key")
    name = doc["family"]
    extra = {}
    if "mass_at_infinity" in doc:
        extra["defect"] = float(doc["mass_at_infinity"])
    if "check_standing" in doc:
        extra["check_standing"] = bool(doc["check_standing"])
    if name == "tabulated":
        grid = [float(x) for x in doc["grid"]]
        values = [float(x) for x in doc["values"]]
        mode = doc.get("interpolation", "step")
        if mode not in ("step", "log-linear"):
            raise SpecValidationError(
                f"unknown interpolation {doc.get('interpolation')!r}")
        if "terminal" in doc:
            terminal = float(doc["terminal"])
            cells = values
        elif len(values) == len(grid):
            terminal = values[-1]
            cells = values[:-1]
        else:
            raise SpecValidationError(
                "values must carry one entry per grid point (last = terminal)")
        curve = TailCurve(grid=tuple(grid), values=tuple(cells),
                          terminal=terminal, mode=mode)
        return Tabulated(curve=curve, **extra)
    cls = _REGISTRY.get(name)
    if cls is None:
        raise SpecValidationError(f"unknown family {name!r}")
    params = dict(doc.get("params", {}))
    if name == "piecewise_constant":
        return cls(breakpoints=tuple(float(x) for x in params["breakpoints"]),
                   levels=tuple(float(x) for x in params["levels"]), **extra)
    if name == "piecewise_exp":
        segs = tuple((float(a), float(b), float(c))
                     for a, b, c in params["segments"])
        return cls(segments=segs, **extra)
    if hasattr(cls, "from_params"):
        return cls.from_params(params, **extra)
    return cls(**{k: float(v) for k, v in params.items()}, **extra)


def spec_to_dict(spec: DistributionSpec) -> dict:
    """Inverse of spec_from_dict."""
    doc: dict = {"family": spec.family}
    if spec.defect:
        doc["mass_at_infinity"] = spec.defect
    if not spec.check_standing:
        doc["check_standing"] = False
    if isinstance(spec, Tabulated):
        doc["grid"] = list(spec.curve.grid)
        doc["values"] = list(spec.curve.values) + [spec.curve.terminal]
        doc["interpolation"] = spec.curve.mode
        return doc
    if isinstance(spec, PiecewiseConstantTail):
        doc["params"] = {"breakpoints": list(spec.breakpoints),
                         "levels": list(spec.levels)}
        return doc
    if isinstance(spec, PiecewiseExpTail):
        doc["params"] = {"segments": [list(s) for s in spec.segments]}
        return doc
    if isinstance(spec, Exponential):
        doc["params"] = {"rate": spec.rate}
    elif isinstance(spec, Weibull):
        doc["params"] = {"shape": spec.shape}
    elif isinstance(spec, ShiftedParetoSquare):
        doc["params"] = {"offset": spec.offset}
    elif isinstance(spec, LevyFirstPassage):
        doc["params"] = {"level": spec.level}
    elif hasattr(spec, "to_params"):
        doc["params"] = spec.to_params()
    else:
        raise SpecValidationError(f"cannot serialize family {spec.family!r}")
    return doc
