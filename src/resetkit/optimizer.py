"""Extremal restart means and search for beneficial reset parameters.

The mean under any reset law is a mixture of the values of the curve
r -> int_0^r tail / cdf(r), so its supremum and infimum over all reset
laws equal the extremes of that one-dimensional curve; everything here
reduces to evaluating and searching it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import reset_transform as rt
from ._integrate import cumulative
from .distributions import DistributionSpec

__all__ = [
    "ExtremalReport",
    "NoImprovementError",
    "deterministic_mean_curve",
    "extremal_reset_mean",
    "best_exponential_rate",
]

_RATE_SCAN = 13  # log-spaced rates of the first pass; 2 a decade on the default bracket


class NoImprovementError(RuntimeError):
    """No restart rate in the bracket beats the bare mean."""

    def __init__(self, message: str, mu: float, mean: float):
        super().__init__(message)
        self.mu = mu
        self.mean = mean


@dataclass(frozen=True)
class ExtremalReport:
    """Extremes of the restarted mean over all reset laws.

    The endpoint limits are slope-extrapolated from the smallest sampled
    periods: a curve vanishing like a power of r has infimum 0 (fast
    restart exploits mass near zero), one blowing up has supremum
    infinity (fast restart never lets slow starters finish).
    """

    sup: float
    inf: float
    sup_r: float
    inf_r: float
    limit_at_zero: float
    limit_at_infinity: float
    diverges_at_zero: bool
    diverges_at_infinity: bool
    r_grid: tuple[float, ...]
    curve: tuple[float, ...]
    best_deterministic_r: float
    best_deterministic_mean: float
    best_exponential_mu: float | None
    best_exponential_mean: float | None
    exponential_improves: bool

    def to_dict(self) -> dict:
        def enc(x):
            return x if np.isfinite(x) else ("inf" if x > 0 else "-inf")
        return {
            "sup": enc(self.sup),
            "inf": enc(self.inf),
            "sup_r": enc(self.sup_r),
            "inf_r": enc(self.inf_r),
            "limit_at_zero": enc(self.limit_at_zero),
            "limit_at_infinity": enc(self.limit_at_infinity),
            "diverges_at_zero": self.diverges_at_zero,
            "diverges_at_infinity": self.diverges_at_infinity,
            "best_deterministic_r": self.best_deterministic_r,
            "best_deterministic_mean": self.best_deterministic_mean,
            "best_exponential_mu": self.best_exponential_mu,
            "best_exponential_mean": self.best_exponential_mean,
            "exponential_improves": self.exponential_improves,
            "r_grid": list(self.r_grid),
            "curve": [enc(v) for v in self.curve],
        }


def deterministic_mean_curve(spec: DistributionSpec, r_grid) -> np.ndarray:
    """Mean under period-r restart for each grid r: int_0^r tail / cdf(r)."""
    r_grid = np.asarray(r_grid, dtype=float)
    # the law's kinks, support ends included, split the panels they fall in
    partial = cumulative(spec.tail, r_grid, laws=(spec,))
    prob_done = np.asarray(dist.cdf(spec, r_grid))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(prob_done > 0.0,
                        partial / np.maximum(prob_done, 1e-300), np.inf)


def _extremal_grid(spec: DistributionSpec) -> np.ndarray:
    upper = dist.default_horizon(spec)
    if np.isfinite(spec.t0):
        upper = min(upper, float(spec.t0))
    scale = max(min(upper, 1.0), upper * 1e-6)
    pieces = [np.geomspace(scale * 1e-8, upper, 160),
              np.linspace(upper / 200.0, upper, 120),
              np.asarray([b for b in spec.tail_breakpoints() if b <= upper])]
    if not np.isfinite(spec.t0) and np.isfinite(dist.mean(spec)):
        pieces.append(np.geomspace(upper, upper * 64.0, 13))
    g = np.unique(np.concatenate(pieces))
    return g[g > 0.0]


def extremal_reset_mean(spec: DistributionSpec, r_grid=None,
                        refine_rounds: int = 3,
                        mu_bracket: tuple[float, float] | None = None
                        ) -> ExtremalReport:
    """Grid-certified extremes of the restarted mean, with endpoint limits.

    Near-zero and large-r behaviour is sampled explicitly: the curve tends
    to the bare mean at infinity for integrable laws and diverges otherwise.
    Local grid refinement tightens the reported extremes around the hits.
    """
    grid = np.asarray(r_grid, dtype=float) if r_grid is not None \
        else _extremal_grid(spec)
    grid = np.unique(grid[grid > 0.0])
    vals = deterministic_mean_curve(spec, grid)
    for _ in range(refine_rounds):
        extra = []
        for idx in (int(np.nanargmin(vals)), int(np.nanargmax(np.where(
                np.isfinite(vals), vals, -np.inf)))):
            lo = grid[max(idx - 1, 0)]
            hi = grid[min(idx + 1, grid.size - 1)]
            if hi > lo:
                extra.append(np.linspace(lo, hi, 12)[1:-1])
        if not extra:
            break
        grid = np.unique(np.concatenate([grid, *extra]))
        vals = deterministic_mean_curve(spec, grid)

    m0 = dist.mean(spec)
    diverges_inf = not np.isfinite(m0)
    limit_inf = m0

    # r -> 0 endpoint: power-law extrapolation from three small decades
    tiny = grid[0] * np.array([1e-8, 1e-5, 1e-2])
    tiny_vals = deterministic_mean_curve(spec, tiny)
    with np.errstate(divide="ignore"):
        slope = (math.log(tiny_vals[1] / tiny_vals[0])
                 / math.log(tiny[1] / tiny[0])) if np.all(tiny_vals > 0.0) \
            and np.all(np.isfinite(tiny_vals)) else -1.0
    if not np.all(np.isfinite(tiny_vals)) or slope < -0.02:
        limit_zero, diverges_zero = np.inf, True
    elif slope > 0.02:
        limit_zero, diverges_zero = 0.0, False
    else:
        limit_zero, diverges_zero = float(tiny_vals[0]), False

    finite = np.isfinite(vals)
    cand_vals = [vals[finite], tiny_vals[np.isfinite(tiny_vals)]]
    cand_args = [grid[finite], tiny[np.isfinite(tiny_vals)]]
    if not diverges_inf:
        cand_vals.append([m0])
        cand_args.append([np.inf])
    all_vals = np.concatenate(cand_vals)
    all_args = np.concatenate(cand_args)
    i_min = int(np.argmin(all_vals))
    i_max = int(np.argmax(all_vals))
    if diverges_inf or diverges_zero:
        sup = np.inf
        sup_r = np.inf if diverges_inf else 0.0
    else:
        sup, sup_r = float(all_vals[i_max]), float(all_args[i_max])
    if limit_zero == 0.0:
        inf_v, inf_r = 0.0, 0.0
    else:
        inf_v, inf_r = float(all_vals[i_min]), float(all_args[i_min])

    best_idx = int(np.argmin(np.where(finite, vals, np.inf)))
    best_r = float(grid[best_idx])
    best_mean = float(vals[best_idx])

    try:
        mu_star, mean_star = best_exponential_rate(spec, mu_bracket)
        improves = True
    except NoImprovementError as exc:
        mu_star, mean_star = exc.mu, exc.mean
        improves = False

    return ExtremalReport(
        sup=sup, inf=inf_v, sup_r=sup_r, inf_r=inf_r,
        limit_at_zero=limit_zero, limit_at_infinity=limit_inf,
        diverges_at_zero=diverges_zero, diverges_at_infinity=diverges_inf,
        r_grid=tuple(float(x) for x in grid),
        curve=tuple(float(x) for x in vals),
        best_deterministic_r=best_r, best_deterministic_mean=best_mean,
        best_exponential_mu=mu_star, best_exponential_mean=mean_star,
        exponential_improves=improves)


def best_exponential_rate(spec: DistributionSpec,
                          mu_bracket: tuple[float, float] | None = None
                          ) -> tuple[float, float]:
    """Restart rate minimizing the mean: a log-rate scan, then a refinement.

    The mean need not be unimodal in the rate, so the whole bracket is
    scanned first; a bounded scalar search then refines the best scanned
    rate between its neighbours, unless it lies on the bracket's edge.
    Raises NoImprovementError when the best rate found does not beat the
    bare mean (minimum pinned at a bracket edge, or the law is already
    restart-indifferent).
    """
    if mu_bracket is None:
        scale = dist.characteristic_scale(spec)
        mu_bracket = (1e-3 / scale, 1e3 / scale)
    lo, hi = mu_bracket
    if not (0.0 < lo < hi):
        raise ValueError("need a positive, ordered rate bracket")

    def f(log_mu: float) -> float:
        return rt.exp_reset_mean(spec, np.exp(log_mu))

    xs = np.linspace(math.log(lo), math.log(hi), _RATE_SCAN)
    fs = rt.exp_reset_mean(spec, np.exp(xs))  # the whole scan in one call
    i = int(np.argmin(fs))
    x, fx = float(xs[i]), float(fs[i])
    if 0 < i < xs.size - 1:
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(f, bounds=(xs[i - 1], xs[i + 1]),
                              method="bounded", options={"xatol": 1e-7})
        if res.fun < fx:
            x, fx = float(res.x), float(res.fun)
    mu_star = float(np.exp(x))
    m0 = dist.mean(spec)
    edge = min(x - math.log(lo), math.log(hi) - x) < 1e-3
    tol = 1e-9 * max(1.0, abs(fx))
    if np.isfinite(m0) and fx >= m0 - tol:
        where = "at a bracket edge" if edge else "flat over the bracket"
        raise NoImprovementError(
            f"no restart rate improves the mean ({where}); best "
            f"{fx:.12g} vs bare {m0:.12g}", mu_star, fx)
    return mu_star, fx
