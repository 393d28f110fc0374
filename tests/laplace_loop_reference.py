"""The constant-rate restart mean one rate at a time, kept as a reference.

``reset_transform.laplace_tail`` and ``exp_reset_mean`` take an array of
rates, as the optimizer's rate scan does, and integrate them all in one
``panels`` call where the family has no closed form (``_laplace0``);
these functions are the scalar bodies they replaced, one ``quad`` call
per rate, and what the batched code is checked against, bit for bit.
``laplace_tail_by_quad`` is the quadrature alone, whatever the family,
against which the closed forms are checked.
"""
from __future__ import annotations

import numpy as np

from resetkit._integrate import quad
from resetkit.distributions import SpecValidationError


def laplace_tail(spec, mu: float) -> float:
    """Integral of exp(-mu t) * tail(t) over [0, inf)."""
    if not mu > 0.0:
        raise ValueError("transform rate must be positive")
    rate = np.asarray(mu, dtype=float)
    closed = spec._laplace0(rate)
    if closed is not None:
        return float(spec.defect / rate + (1.0 - spec.defect) * closed)
    return laplace_tail_by_quad(spec, mu)


def laplace_tail_by_quad(spec, mu: float) -> float:
    """The same integral by ``quad``, closed form or not."""
    upper = 42.0 / mu  # integrand below 1e-18 past here regardless of the law
    return quad(lambda t: np.exp(-mu * t) * spec.tail(t), 0.0, upper,
                laws=(spec,), points=np.geomspace(upper * 1e-6, upper, 7))[0]


def exp_reset_mean(spec, mu: float) -> float:
    """Mean under restart at constant rate mu."""
    lt = laplace_tail(spec, mu)
    closed = spec._laplace_law0(np.asarray(mu, dtype=float))
    lap = 1.0 - mu * lt if closed is None else (1.0 - spec.defect) * closed
    if lap <= 0.0:
        raise SpecValidationError("degenerate transform; law has no mass")
    return lt / lap
