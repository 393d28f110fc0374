"""Quadrature references from scipy.integrate, kept for the tests.

The library integrates with its own vectorised tanh-sinh panels
(``resetkit._integrate.quad`` and ``panels``). Tests check its values, and
build their own references, with ``split_quad``, an independent adaptive
rule; ``tanhsinh_panels`` is scipy's tanh-sinh rule, which ``panels``
ports and must match bit for bit.
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad, tanhsinh

from resetkit._integrate import _ATOL, _RTOL


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


def tanhsinh_panels(fn, lo, hi, args=()) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.integrate.tanhsinh`` over the panels [lo, hi] at the library's
    tolerances: (integrals, errors), as ``_integrate.panels`` returns them."""
    res = tanhsinh(fn, np.asarray(lo, float), np.asarray(hi, float),
                   args=args, rtol=_RTOL, atol=_ATOL)
    return res.integral, res.error
