"""The branching means as per-term loops, kept as a reference.

``reset_transform.branching_mean_deterministic`` and
``branching_mean_exponential`` sum the cycles of l-fold branching restart
as one series over any reset law: every cycle's race in one quadrature
call, the depth set by the renewal solver's rule, and a geometric
remainder past it. These are the loops they replaced, one quadrature per
term with a stop rule of their own, and what the series is checked
against. The bodies are unchanged from the ones the library used to run;
they raise ``OverflowError`` once l**k overflows.
"""
from __future__ import annotations

import math

import numpy as np

from resetkit import distributions as dist
from resetkit._integrate import quad
from resetkit.distributions import DistributionSpec
from resetkit.reset_transform import (InvalidPeriodError,
                                      SeriesNotConvergingError,
                                      _check_branching, exp_reset_mean)

_TRUNC = 1e-12
_SERIES_CAP = 2000


def _min_power_integral(spec: DistributionSpec, r: float, m: float) -> float:
    """Integral over [0, r] of tail(u)**m."""
    log_tail = spec.log_tail

    def f(u):
        return np.exp(np.clip(m * log_tail(u), -745.0, 0.0))

    return quad(f, 0.0, r, laws=(spec,),
                points=np.geomspace(r * 1e-12, r, 13))[0]


def branching_mean_deterministic(spec: DistributionSpec, r: float, l: int) -> float:
    """Mean under period-r restart with l-fold branching (series form)."""
    _check_branching(l)
    if not (r > 0.0 and math.isfinite(r)):
        raise InvalidPeriodError(f"restart period must be in (0, inf), got {r!r}")
    if l == 1:
        p_done = float(np.asarray(dist.cdf(spec, r)))
        if p_done <= 0.0:
            raise SeriesNotConvergingError("tail(r) = 1; restart never completes")
        return quad(spec.tail, 0.0, r, laws=(spec,))[0] / p_done
    log_fr = float(spec.log_tail(r))
    total = 0.0
    for k in range(_SERIES_CAP):
        lk = float(l) ** k
        # no completed cycle before r, also where tail(r) = 0
        weight = 1.0 if k == 0 else math.exp(
            max((lk - 1.0) / (l - 1.0) * log_fr, -745.0))
        if weight * r < _TRUNC * max(total, 1.0):
            return total
        total += weight * _min_power_integral(spec, r, lk)
    raise SeriesNotConvergingError(
        f"branching series did not contract after {_SERIES_CAP} terms")


def _laplace_min_power(spec: DistributionSpec, mu: float, m: float) -> float:
    """Integral of exp(-mu t) tail(t)**m over [0, inf)."""
    log_tail = spec.log_tail
    upper = 42.0 / mu

    def f(t):
        return np.exp(np.clip(-mu * t + m * log_tail(t), -745.0, 0.0))

    return quad(f, 0.0, upper, laws=(spec,),
                points=np.geomspace(upper * 1e-12, upper, 13))[0]


def branching_mean_exponential(spec: DistributionSpec, mu: float, l: int) -> float:
    """Mean under rate-mu restart with l-fold branching (product series).

    Each factor is one minus the Laplace transform of the minimum of l**n
    copies; the running product is the chance of surviving n resets and
    bounds the truncation error.
    """
    _check_branching(l)
    if not mu > 0.0:
        raise ValueError("restart rate must be positive")
    if l == 1:
        return exp_reset_mean(spec, mu)
    total = 0.0
    prod = 1.0
    for n in range(_SERIES_CAP):
        q = mu * _laplace_min_power(spec, mu, float(l) ** n)
        if not 0.0 <= q <= 1.0 + 1e-9:
            raise SeriesNotConvergingError(
                f"continuation probability {q:.3g} outside [0, 1]")
        prod *= min(q, 1.0)
        total += prod
        if prod < _TRUNC:
            return total / mu
    raise SeriesNotConvergingError(
        f"branching series did not contract after {_SERIES_CAP} terms")
