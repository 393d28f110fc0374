"""Lifetime laws on [0, inf] represented through their tail functions.

Every law is a frozen spec object exposing exact (or high-accuracy) tail
evaluation, inverse-transform sampling, and moment quadrature. The tail
function is the single source of truth: all downstream transforms,
classifiers and simulators consume laws only through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from ._integrate import hybrid_grid, quad

__all__ = [
    "DistributionSpec",
    "Exponential",
    "Weibull",
    "ShiftedParetoSquare",
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
    "piecewise_curve",
    "spec_from_dict",
    "spec_to_dict",
    "register_family",
]

_ATOL = 1e-12
_TINY = 1e-300  # knot values at or below it count as zero


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
    """Discretized right-continuous nonincreasing tail, log-linear between
    knots.

    ``grid`` holds m nondecreasing knots starting at 0, ``values`` the tail
    at all but the last knot and ``terminal`` the tail at the last. Between
    knots the curve interpolates geometrically (linearly on a cell with an
    end at or below 1e-300), a flat cell reads its knot value exactly, and
    past the last knot the curve falls as exp(-terminal_rate * t) from its
    value there. A knot after 0 may be given twice, its left limit first,
    for a jump; so a step tail is a curve of flat cells whose every jump is
    a repeated knot (``piecewise_curve``). ``grid`` and ``values`` are kept
    as read-only float arrays (copies of what was passed); curves are equal
    when their arrays are bitwise equal and their other fields equal.
    """

    grid: np.ndarray
    values: np.ndarray
    terminal: float
    err_estimate: float = 0.0
    terminal_rate: float = 0.0

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        v = np.array(self.values, dtype=float)
        g.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.size < 1 or g[0] != 0.0 or not np.all(np.isfinite(g)):
            raise SpecValidationError("tail curve grid must be finite and start at 0")
        repeat = np.diff(g) == 0.0  # a jump: a knot after 0 twice
        if np.any(np.diff(g) < 0.0) or np.any(
                repeat & np.append(True, repeat[:-1])):
            raise SpecValidationError(
                "tail curve grid must be strictly increasing (a knot after 0 "
                "may be given twice)")
        if v.size != g.size - 1:
            raise SpecValidationError(
                "need one value per grid cell (len(values) == len(grid) - 1)")
        if not 0.0 <= self.terminal_rate < np.inf:
            raise SpecValidationError("terminal rate must be finite and nonnegative")
        ladder = np.append(v, self.terminal)
        if not np.all((ladder >= -_ATOL) & (ladder <= 1.0 + _ATOL)):
            raise SpecValidationError("tail values must lie in [0, 1]")
        if np.any(np.diff(ladder) > _ATOL):
            raise NonMonotoneError("tail values must be nonincreasing")

    def _key(self) -> tuple:
        return (self.grid.tobytes(), self.values.tobytes(), self.terminal,
                self.err_estimate, self.terminal_rate)

    def __eq__(self, other):
        return isinstance(other, TailCurve) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def knot_values(self) -> np.ndarray:
        return np.append(self.values, self.terminal)

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The cell table every method reads. Per knot i: its value's log,
        whether the piece from it falls linearly, that piece's log slope,
        and whether it is flat. On a flat piece the tail is the knot's
        value, on a linear one it interpolates the values, elsewhere it is
        exp(logs[i] + slopes[i] (t - t_i)). Logs are floored at 1e-300 but
        on a flat piece and the last one, and a sloped cell with an end at
        or below 1e-300 is linear."""
        v, rate = self.knot_values, self.terminal_rate
        same = v[1:] == v[:-1]
        flat, exact = np.append(same, not rate), np.append(same, True)
        small = v <= _TINY
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.maximum(v, _TINY))
            # a repeated knot's slope is +-inf; no t lands in its cell
            slopes = np.append(np.diff(logs) / np.diff(self.grid), -rate)
            logs[exact] = np.log(v[exact])
        linear = (small | np.append(small[1:], False)) & ~exact
        return logs, linear, slopes, flat

    def _cell(self, t: np.ndarray) -> np.ndarray:
        """Index of the last knot at or before each t (0 before the grid)."""
        return np.maximum(np.searchsorted(self.grid, t, side="right") - 1, 0)

    def _log_cell(self, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """logs[idx] + slopes[idx] (t - t_idx), the cell formula's log."""
        logs, _, slopes, _ = self._knots
        with np.errstate(invalid="ignore"):  # t = inf on a flat piece
            return logs[idx] + slopes[idx] * np.maximum(t - self.grid[idx], 0.0)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        idx = self._cell(t_arr)
        ladder, last = self.knot_values, self.grid.size - 1
        _, linear, _, flat = self._knots
        out = ladder[idx]  # a flat cell's value, exactly, whatever its size
        sloped = ~flat[idx]
        if sloped.any():
            out = np.where(sloped, np.exp(self._log_cell(t_arr, idx)), out)
            lin = linear[idx]
            if lin.any():  # a cell with an end at zero falls linearly
                g, nxt = self.grid, np.minimum(idx + 1, last)
                with np.errstate(divide="ignore", invalid="ignore"):
                    theta = np.clip((t_arr - g[idx]) / (g[nxt] - g[idx]),
                                    0.0, 1.0)
                out = np.where(
                    lin, (1.0 - theta) * ladder[idx] + theta * ladder[nxt], out)
        out = np.where(np.isinf(t_arr), 0.0, out)
        return out if out.shape else float(out)

    def log_tail(self, t):
        """log of the curve, from the cell table (so in log space between
        knots and past the last one, where the tail itself underflows); on a
        linear cell the log of the tail, taken at the points there only."""
        t_arr = np.asarray(t, dtype=float)
        idx = self._cell(t_arr)
        out = np.asarray(self._log_cell(t_arr, idx))
        lin = self._knots[1][idx]
        if lin.any():
            with np.errstate(divide="ignore"):
                out[lin] = np.log(self(t_arr[lin]))
        out[np.isinf(t_arr)] = -np.inf
        return out if out.shape else float(out)


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

    def _laplace0(self, mu: np.ndarray) -> np.ndarray | None:
        """Closed-form integral of exp(-mu t) times the base tail over
        [0, inf) for each rate of ``mu`` (> 0), None when quadrature is
        needed."""
        return None

    def _laplace_law0(self, mu: np.ndarray) -> np.ndarray | None:
        """Closed-form E[exp(-mu T)] of the base law for each rate of
        ``mu`` (> 0), None where it is only 1 - mu times ``_laplace0``."""
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
        t_arr, neg, x = _from_zero(t)
        inf = np.isinf(t_arr)
        base = self._tail0(np.where(inf, 0.0, x))
        out = np.where(inf, 0.0, self.defect + (1.0 - self.defect) * base)
        out[neg] = 1.0
        return out if out.shape else float(out)

    def log_tail(self, t):
        t_arr, neg, x = _from_zero(t)
        if self.defect == 0.0:
            out = self._log_tail0(x)
        else:
            with np.errstate(divide="ignore"):
                out = np.log(self.tail(x))
        out = np.where(np.isinf(t_arr), -np.inf, out)
        out[neg] = 0.0
        return out if out.shape else float(out)

    def density(self, t):
        """Density of the absolutely continuous part (0 where purely atomic)."""
        _, neg, x = _from_zero(t)
        out = np.asarray((1.0 - self.defect) * self._density0(x))
        out[neg] = 0.0
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


def _from_zero(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t, its negative times and t with those at 0 for the hooks: T >= 0,
    so there the tail is 1, its log 0, the density 0, the rest rest(0) - t."""
    t = np.asarray(t, dtype=float)
    neg = t < 0.0
    return t, neg, np.where(neg, 0.0, t) if neg.any() else t


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
        from scipy import special as _sp
        return float(_sp.gamma(p + 1.0)) / self.rate ** p

    def _laplace0(self, mu):
        return 1.0 / (self.rate + mu)

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
        level = np.where(level < 0.0, np.nan, level)  # u > 1
        return np.power(level, 1.0 / self.shape)

    def _tail_rest0(self, t):
        from scipy import special as _sp
        k = self.shape
        t_arr = np.asarray(t, dtype=float)
        return float(_sp.gamma(1.0 / k)) / k * _sp.gammaincc(1.0 / k, t_arr ** k)

    def _power_moment0(self, p):
        from scipy import special as _sp
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
        from scipy import special as _sp
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
        from scipy import special as _sp
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            arg = np.where(t_arr > 0.0, self.level / np.sqrt(2.0 * np.maximum(t_arr, 1e-300)), np.inf)
        return np.where(t_arr <= 0.0, 1.0, _sp.erf(arg))

    def _isf0(self, u):
        from scipy import special as _sp
        u_arr = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            z = _sp.erfinv(np.clip(u_arr, 0.0, 1.0))
            out = self.level ** 2 / (2.0 * z * z)
        return np.where(u_arr >= 1.0, 0.0, out)

    def _tail_rest0(self, t):
        out = np.full(np.asarray(t, dtype=float).shape, np.inf)
        return out

    def _power_moment0(self, p):
        from scipy import special as _sp
        if p >= 0.5:
            return np.inf
        a = self.level
        return a ** (2.0 * p) * 2.0 ** (-p) * float(_sp.gamma(0.5 - p) / _sp.gamma(0.5))

    def _laplace0(self, mu):
        # the tail's transform is (1 - E[exp(-mu T)]) / mu
        return -np.expm1(-self.level * np.sqrt(2.0 * mu)) / mu

    def _laplace_law0(self, mu):
        return np.exp(-self.level * np.sqrt(2.0 * mu))

    def _moment_sup_order(self):
        return 0.5

    def _density0(self, t):
        t_arr = np.asarray(t, dtype=float)
        a = self.level
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = a / np.sqrt(2.0 * np.pi) * np.maximum(t_arr, 1e-300) ** -1.5 \
                * np.exp(-a * a / (2.0 * np.maximum(t_arr, 1e-300)))
        return np.where(t_arr <= 0.0, 0.0, out)


# ----------------------------------------------------------------------
# piecewise and tabulated families


@dataclass(frozen=True, kw_only=True)
class Tabulated(DistributionSpec):
    """Law given by a discretized tail curve: exponential between knots,
    with atoms only at 0 and at repeated knots, so a pure-jump law where
    every cell is flat."""

    curve: TailCurve
    family: str = field(default="tabulated", init=False, repr=False)

    def _validate_family(self):
        if not isinstance(self.curve, TailCurve):
            raise SpecValidationError("tabulated spec needs a TailCurve")

    def _validate_standing(self):
        ladder = self.curve.knot_values
        if ladder[0] <= 0.0:
            raise ZeroAtOriginError("tail must be positive at 0")
        flat = ladder[1] >= 1.0 if ladder.size > 1 else not self.curve.terminal_rate
        if ladder[0] >= 1.0 and flat:
            raise DegenerateAtZeroError("tail equals 1 on the first cell")

    def _tail0(self, t):
        return np.asarray(self.curve(np.asarray(t, dtype=float)))

    def _log_tail0(self, t):
        return np.asarray(self.curve.log_tail(t))

    def _isf0(self, u):
        """Inverse of the curve: the knot before the first knot whose value
        is at most u, or where u lies strictly inside a cell of positive width,
        the cell formula inverted (the log work done there only); past the
        last knot the terminal piece, or nothing."""
        c, shape, u = self.curve, np.shape(u), np.atleast_1d(u)
        g, ladder, rate = c.grid, c.knot_values, c.terminal_rate
        logs = c._knots[0]  # floored at 1e-300; theta reads them only above it
        idx = np.searchsorted(-ladder, -u, side="left")  # ladder.size for NaN
        out = g[idx - 1]
        inside = g[np.minimum(idx, ladder.size - 1)] > out
        if inside.any():
            us, j = u[inside], idx[inside]
            lo_v, hi_v = ladder[j - 1], ladder[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                theta = np.where(hi_v > _TINY,
                                 (np.log(us) - logs[j - 1]) / (logs[j] - logs[j - 1]),
                                 (lo_v - us) / (lo_v - hi_v))
            theta = np.minimum(np.maximum(theta, 0.0), 1.0)
            out[inside] = g[j - 1] + theta * (g[j] - g[j - 1])
        below = u < ladder[-1]
        if rate:
            with np.errstate(divide="ignore"):  # u = 0
                log_u = np.log(np.maximum(u[below], 0.0))
            out[below] = g[-1] + (logs[-1] - log_u) / rate
        else:
            out[below] = np.inf
        out[idx == 0] = 0.0
        return out.reshape(shape)

    def _tail_rest0(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self._terminal_limit() > 0.0:
            return np.full(t_arr.shape, np.inf)
        c, (_, linear, slopes, _) = self.curve, self.curve._knots
        g, ladder, rate = c.grid, c.knot_values, c.terminal_rate
        cell_int = ladder[:-1] * _cell_share(0.0, np.diff(g), slopes[:-1], linear[:-1])
        suffix = np.append(np.cumsum(cell_int[::-1])[::-1], 0.0) \
            + (ladder[-1] / rate if rate else 0.0)
        idx = c._cell(t_arr)
        nxt = np.minimum(idx + 1, g.size - 1)
        inside = idx < g.size - 1
        tv = np.asarray(self._tail0(t_arr))
        width = np.clip(g[nxt] - t_arr, 0.0, None)  # from t to the cell's end
        partial = np.where(inside, tv * _cell_share(0.0, width, slopes[idx],
                                                    linear[idx]), 0.0)
        if rate:  # past the last knot the tail falls at the terminal rate
            return np.where(inside, suffix[nxt] + partial, tv / rate)
        return suffix[nxt] + partial

    def _laplace0(self, mu):
        """One sum over the cells for all the rates at once: a cell [a, a + w)
        gives v_a e^{-mu a} times its ``_cell_share`` at mu, and past the
        last knot b, v_b e^{-mu b} / (mu + terminal_rate)."""
        c, (_, linear, slopes, _) = self.curve, self.curve._knots
        g, v, m = c.grid, c.knot_values, np.reshape(mu, (-1, 1))
        share = _cell_share(m, np.diff(g), slopes[:-1], linear[:-1])
        cells = np.concatenate(
            [v[:-1] * np.exp(-m * g[:-1]) * share,
             v[-1] * np.exp(-m * g[-1]) / (m + c.terminal_rate)], axis=1)
        return np.sum(cells, axis=1).reshape(np.shape(mu))

    def _terminal_limit(self):
        return 0.0 if self.curve.terminal_rate else float(self.curve.terminal)

    def _support_end(self):
        if self.curve.terminal > 0.0:
            return np.inf
        g, ladder = self.curve.grid, self.curve.knot_values
        pos = np.nonzero(ladder > 0.0)[0]
        if pos.size == 0:
            return 0.0
        return float(g[min(int(pos[-1]) + 1, g.size - 1)])

    def tail_breakpoints(self):
        return tuple(np.unique(self.curve.grid[1:]).tolist())

    def jumps(self):
        g, ladder = self.curve.grid, self.curve.knot_values
        # the tail just before each knot: continuous but at 0 and repeats
        left = np.where(np.append(True, g[1:] == g[:-1]),
                        np.append(1.0, ladder[:-1]), ladder)
        sizes = (left - ladder) * (1.0 - self.defect)
        return tuple((b, size) for b, size in zip(g.tolist(), sizes.tolist())
                     if size > 1e-15)

    def _density0(self, t):
        t_arr = np.asarray(t, dtype=float)
        g, ladder = self.curve.grid, self.curve.knot_values
        _, linear, slopes, _ = self.curve._knots
        idx = self.curve._cell(t_arr)
        nxt = np.minimum(idx + 1, g.size - 1)
        # the tail falls linearly over a cell with a (numerically) zero end
        drop = (ladder[idx] - ladder[nxt]) / np.maximum(g[nxt] - g[idx], _TINY)
        return np.where(linear[idx], drop, -slopes[idx] * np.asarray(self._tail0(t_arr)))


def _cell_share(m, w: np.ndarray, slopes: np.ndarray,
                linear: np.ndarray) -> np.ndarray:
    """Integral of e^{-m s} times a cell's tail over [0, w), relative to
    the tail at the cell's start: (1 - e^{-(m - slope) w}) / (m - slope)
    at log slope ``slope`` (w where m = slope, so a step cell gives w at
    m = 0), w A(m w) (``_ramp_share``) on a cell falling linearly to zero,
    and 0 on a repeated knot (w = 0)."""
    rate = m - slopes
    with np.errstate(divide="ignore", invalid="ignore"):  # repeated knots
        share = np.where((rate == 0.0) | (w == 0.0), w, -np.expm1(-rate * w) / rate)
    if linear.any():
        share = np.where(linear, w * _ramp_share(m * w), share)
    return share


def _ramp_share(x: np.ndarray) -> np.ndarray:
    """A(x) = (x - 1 + e^{-x}) / x**2, the integral of (1 - s) e^{-x s}
    over [0, 1]; below x = 0.1, where the difference cancels, by its
    series, the sum of (-x)**k / (k + 2)! to k = 8."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (x + np.expm1(-x)) / (x * x)
    series = np.zeros_like(x)
    for k in range(8, -1, -1):
        series = series * -x + 1.0 / math.factorial(k + 2)
    return np.where(x < 0.1, series, direct)


# ----------------------------------------------------------------------
# registry and module-level operations

_REGISTRY: dict[str, type] = {}


def register_family(name: str, cls: type) -> None:
    _REGISTRY[name] = cls


for _cls in (Exponential, Weibull, ShiftedParetoSquare, LevyFirstPassage,
             Tabulated):
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
    t_arr, neg, x = _from_zero(t)
    if spec.mass_at_infinity > 0.0:
        out = np.full(t_arr.shape, np.inf)
        return out if out.shape else float(out)
    base = spec._tail_rest0(x)
    out = (1.0 - spec.defect) * np.asarray(base) - np.where(neg, t_arr, 0.0)
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
    val, _ = quad(integrand, 0.0, np.inf, laws=(spec,),
                  points=np.geomspace(max(upper * 1e-8, 1e-12), upper, 9))
    return val


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
    grid = np.asarray(g.grid)
    slopes = np.diff(g.values) / np.diff(grid)

    def integrand(t):
        cell = np.clip(np.searchsorted(grid, t) - 1, 0, slopes.size - 1)
        return slopes[cell] * np.asarray(spec.tail(t))

    val, _ = quad(integrand, grid[0], grid[-1], laws=(spec,), points=grid)
    return g.values[0] + val


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


def as_tail_curve(spec: DistributionSpec, grid=None) -> TailCurve:
    """Tabulate a law's tail on a grid (defaults to the working grid)."""
    if grid is None:
        grid = working_grid(spec)
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(spec.tail(grid))
    return TailCurve(grid=grid, values=vals[:-1], terminal=float(vals[-1]))


def piecewise_curve(starts, values, lefts=None,
                    terminal_rate: float = 0.0) -> TailCurve:
    """The curve that is ``values[i]`` at ``starts[i]`` and ``lefts[i]``
    just before ``starts[i + 1]``, geometric in between, with a repeated
    knot, its left limit first, where the two differ; past the last start
    it falls at ``terminal_rate``. Without ``lefts`` it is the step tail
    that is ``values[i]`` on [starts[i], starts[i + 1])."""
    starts = np.asarray(starts, dtype=float)
    values = np.asarray(values, dtype=float)
    lefts = values[:-1] if lefts is None else np.asarray(lefts, dtype=float)
    if not np.all(np.diff(starts) > 0.0):
        raise SpecValidationError("tail curve grid must be strictly increasing")
    grid = np.repeat(starts, 2)[1:]  # s0, s1, s1, s2, s2, ...
    ladder = np.repeat(values, 2)[1:]
    ladder[1::2] = lefts
    keep = np.ones(grid.size, dtype=bool)
    keep[1::2] = lefts != values[1:]
    return TailCurve(grid=grid[keep], values=ladder[keep][:-1],
                     terminal=float(ladder[-1]),
                     terminal_rate=float(terminal_rate))


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
    if name == "piecewise_constant":  # a step curve spelt as levels
        params = doc.get("params", {})
        if not len(params["levels"]) == len(params["breakpoints"]) >= 1:
            raise SpecValidationError("need one level per breakpoint")
        name, doc = "tabulated", {"grid": params["breakpoints"],
                                  "values": params["levels"]}
    if name == "tabulated":
        grid = [float(x) for x in doc["grid"]]
        values = [float(x) for x in doc["values"]]
        spelling = doc.get("interpolation", "step")
        if spelling not in ("step", "log-linear"):
            raise SpecValidationError(f"unknown interpolation {spelling!r}")
        if "terminal" in doc:
            values.append(float(doc["terminal"]))
        if len(values) != len(grid) or not grid:
            raise SpecValidationError(
                "values must carry one entry per grid point (last = terminal)")
        curve = piecewise_curve(grid, values) if spelling == "step" else \
            TailCurve(grid=grid, values=values[:-1], terminal=values[-1])
        return Tabulated(curve=curve, **extra)
    if name == "piecewise_exp":  # a log-linear curve spelt as segments
        return Tabulated(curve=_segments_curve(doc["params"]["segments"]),
                         **extra)
    cls = _REGISTRY.get(name)
    if cls is None:
        raise SpecValidationError(f"unknown family {name!r}")
    params = dict(doc.get("params", {}))
    if hasattr(cls, "from_params"):
        return cls.from_params(params, **extra)
    return cls(**{k: float(v) for k, v in params.items()}, **extra)


def _segments_curve(segments) -> TailCurve:
    """The log-linear curve of ``piecewise_exp`` segments (start, offset,
    rate), each the tail exp(-(offset + rate * (t - start))) up to the next
    start; a start where the tail jumps is a repeated knot."""
    seg = np.asarray(segments, dtype=float)
    if seg.ndim != 2 or seg.shape[1] != 3 or not seg.size:
        raise SpecValidationError("need (start, offset, rate) segments")
    starts, offsets, rates = seg.T
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(-offsets)
        left = np.exp(-(offsets[:-1] + rates[:-1] * np.diff(starts)))
    return piecewise_curve(starts, value, left, rates[-1])


def _curve_segments(curve: TailCurve) -> list[list[float]]:
    """Inverse of _segments_curve: a segment starts at each knot that is
    not the left limit of a jump."""
    g, slopes = curve.grid, curve._knots[2]
    with np.errstate(divide="ignore"):  # a zero knot: offset inf, not the floor
        offsets = 0.0 - np.log(curve.knot_values)
    start = np.append(g[1:] != g[:-1], True)
    return np.stack([g, offsets, -slopes], axis=1)[start].tolist()


def spec_to_dict(spec: DistributionSpec) -> dict:
    """Inverse of spec_from_dict."""
    doc: dict = {"family": spec.family}
    if spec.defect:
        doc["mass_at_infinity"] = spec.defect
    if not spec.check_standing:
        doc["check_standing"] = False
    if isinstance(spec, Tabulated) and spec.curve.terminal_rate:
        doc["family"] = "piecewise_exp"
        doc["params"] = {"segments": _curve_segments(spec.curve)}
        return doc
    if isinstance(spec, Tabulated):
        doc["grid"] = spec.curve.grid.tolist()
        doc["values"] = spec.curve.knot_values.tolist()
        doc["interpolation"] = "log-linear"
        return doc
    doc["params"] = spec.to_params() if hasattr(spec, "to_params") else {
        f.name: getattr(spec, f.name) for f in fields(spec)
        if f.init and f.name not in ("defect", "check_standing")}
    return doc
