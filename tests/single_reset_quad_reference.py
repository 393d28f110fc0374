"""The single-restart tail one point at a time, kept as a reference.

``reset_transform.single_reset_tail`` integrates every point's density
term in one ``panels`` call; this is the per-point body it replaced, one
``quad`` call per point, with the l racing copies after the restart as
the array power ``** l`` (numpy's, as the batched code takes it). The
batched code is checked against it, bit for bit.
"""
from __future__ import annotations

import numpy as np

from resetkit._integrate import kinks, quad


def single_reset_tail(spec, reset, t: float, l: int = 1) -> float:
    """tail(t) P(R > t) + E[tail(R) tail(t - R)**l; R <= t] at one t >= 0."""
    tl = spec.tail
    total = float(tl(t)) * float(reset.tail(t))
    for loc, w in reset.atoms():
        if loc <= t:
            total += w * float(tl(loc)) * float(np.asarray(tl(t - loc)) ** l)
    if reset.has_density:
        def f(s):
            return tl(s) * tl(t - s) ** l * reset.density(s)
        # kinks of tl(s) and of the reset density, then those of tl(t - s)
        total += quad(f, 0.0, t, laws=(spec, reset.spec),
                      points=t - kinks((spec,)))[0]
    return total


def single_reset_tails(spec, reset, t_grid, l: int = 1) -> np.ndarray:
    """``single_reset_tail`` at every point of ``t_grid``."""
    return np.array([single_reset_tail(spec, reset, float(t), l)
                     for t in t_grid])
