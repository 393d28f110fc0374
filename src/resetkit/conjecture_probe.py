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
from ._integrate import convolution_sums, positive_points
from .distributions import DistributionSpec
from .reset_transform import _check_branching

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


def lfold_invariance_residual(spec: DistributionSpec, l: int,
                              t_grid=None) -> ResidualReport:
    """Residuals of the would-be invariance identity on the grid.

    Continuous laws with tail(0) = 1 are the only candidates; the probe
    still evaluates other laws so the caller can see how badly they miss.
    Raises ValueError for a non-finite grid point or a grid with no t > 0.
    """
    _check_branching(l)
    if t_grid is None:
        upper = dist.default_horizon(spec)
        if np.isfinite(spec.t0):
            upper = min(upper, 2.0 * float(spec.t0))
        t_grid = np.unique(np.concatenate([
            np.geomspace(upper * 1e-4, upper, 48),
            np.linspace(upper / 64.0, upper, 32)]))
    t_grid = positive_points(t_grid)
    if not t_grid.size:
        raise ValueError("grid has no point t > 0")
    # int_0^t tail(u)**l tail(t-u) du, written with u -> t - u
    sums = convolution_sums(spec, t_grid, (l,), np.zeros(t_grid.size), 0.0)[0]
    res = t_grid * sums - t_grid * np.asarray(spec.tail(t_grid))
    return ResidualReport(l=int(l), t_grid=tuple(t_grid.tolist()),
                          residuals=tuple(res.tolist()),
                          sup_norm=float(np.max(np.abs(res))))
