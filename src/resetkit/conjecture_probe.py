"""Numeric probe of the open branching-invariance question.

A law invariant under l-fold constant-rate restart would have to satisfy
int_0^t tail(u)**l tail(t-u) du == t * tail(t) for every t. This module
evaluates that residual on a grid and reports the evidence; it does not,
and cannot, settle the question.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from ._integrate import convolution_log_tails
from .distributions import DistributionSpec

__all__ = ["ResidualReport", "lfold_invariance_residual"]


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residuals of the branching-invariance identity."""

    l: int
    t_grid: tuple[float, ...]
    residuals: tuple[float, ...]
    sup_norm: float

    def to_dict(self) -> dict:
        return {"l": self.l, "t_grid": list(self.t_grid),
                "residuals": list(self.residuals), "sup_norm": self.sup_norm}

    def to_csv(self) -> str:
        lines = ["t,residual"]
        for t, r in zip(self.t_grid, self.residuals):
            lines.append(f"{t!r},{r!r}")
        return "\n".join(lines) + "\n"


def _residual_at(spec: DistributionSpec, t: float, l: int) -> float:
    # int_0^t tail(u)**l tail(t-u) du, written with u -> t - u
    weights, head, rest = convolution_log_tails(spec, t)
    expo = head + float(l) * rest
    integral = t * float(weights @ np.exp(np.clip(expo, -745.0, 0.0)))
    return integral - t * float(spec.tail(t))


def lfold_invariance_residual(spec: DistributionSpec, l: int,
                              t_grid=None) -> ResidualReport:
    """Residuals of the would-be invariance identity on the grid.

    Continuous laws with tail(0) = 1 are the only candidates; the probe
    still evaluates other laws so the caller can see how badly they miss.
    """
    if not (isinstance(l, (int, np.integer)) and l >= 1):
        raise ValueError(f"branching factor must be an integer >= 1, got {l!r}")
    if t_grid is None:
        upper = dist.default_horizon(spec)
        if np.isfinite(spec.t0):
            upper = min(upper, 2.0 * float(spec.t0))
        t_grid = np.unique(np.concatenate([
            np.geomspace(upper * 1e-4, upper, 48),
            np.linspace(upper / 64.0, upper, 32)]))
    t_grid = np.asarray(t_grid, dtype=float)
    t_grid = t_grid[t_grid > 0.0]
    res = np.array([_residual_at(spec, float(t), l) for t in t_grid])
    return ResidualReport(l=int(l), t_grid=tuple(float(t) for t in t_grid),
                          residuals=tuple(float(r) for r in res),
                          sup_norm=float(np.max(np.abs(res))))
