"""Split adaptive quadrature with scipy.integrate.quad, kept as a reference.

The library integrates with vectorised tanh-sinh panels
(``resetkit._integrate.quad``); tests check it, and build their own
references, with this independent rule instead.
"""
from __future__ import annotations

import warnings

from scipy.integrate import IntegrationWarning, quad


def split_quad(fn, a: float, b: float, points=(), epsabs: float = 1e-12,
               epsrel: float = 1e-10, limit: int = 200) -> tuple[float, float]:
    """Integrate scalar ``fn`` over [a, b], one quad call between
    consecutive interior ``points``; returns (value, error estimate)."""
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
