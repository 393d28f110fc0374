"""The renewal solver's original step-by-step recursion, kept as a reference.

``reset_transform._renewal_fixed_point`` solves the same discretisation as
one lower-triangular Toeplitz system; this loop builds each step's sum
directly, costs O(n^2), and is what the fast solve is checked against.
The body is unchanged from the loop the library used to run.
"""
from __future__ import annotations

import math

import numpy as np

from resetkit.distributions import DistributionSpec
from resetkit._integrate import split_quad
from resetkit.reset_transform import ResetLaw, _midpoint_weights


def renewal_fixed_point_loop(spec: DistributionSpec, reset: ResetLaw,
                             upper: float, n: int) -> np.ndarray:
    """Forward solve of the restarted tail on the uniform grid i*upper/n."""
    h = upper / n
    t_grid = np.arange(n + 1) * h
    free = np.asarray(spec.tail(t_grid)) * np.asarray(reset.tail(t_grid))
    gh = np.empty(n + 1)
    gh[0] = 0.0
    if reset.has_density or reset.kind == "exponential":
        gh[1:] = _midpoint_weights(spec, reset, h, n, upper)
    else:
        gh[1:] = 0.0
    atoms = [(loc, w, float(spec.tail(loc))) for loc, w in reset.atoms()
             if loc <= upper + 1e-12]
    use_density = bool(np.any(gh != 0.0))

    y = np.empty(n + 1)
    w0 = sum(w for loc, w, _ in atoms if loc == 0.0)
    f0 = float(spec.tail(0.0))
    y[0] = free[0] / (1.0 - f0 * w0) if w0 else free[0]

    # The solution can have infinite slope at 0 (inherited from the tail),
    # where linear interpolation is O(sqrt(h)) off. Near x = 0 the solution
    # equals its free part plus a smooth correction, so replacing the
    # trapezoid of the free part over the first two cells by its exact
    # integral removes the degradation; the adjustment is the same at
    # every step.
    head_corr = np.zeros(3)
    if use_density:
        def free_fn(x):
            return np.asarray(spec.tail(x)) * np.asarray(reset.tail(x))
        w_head0, _ = split_quad(free_fn, 0.0, h,
                                points=np.geomspace(h * 1e-10, h, 7))
        w_head1, _ = split_quad(free_fn, h, 2.0 * h)
        head_corr[1] = w_head0 / h - 0.5 * (free[0] + free[1])
        if n >= 2:
            head_corr[2] = w_head1 / h - 0.5 * (free[1] + free[2])

    half_gh1 = 0.5 * gh[1]
    for i in range(1, n + 1):
        known = free[i]
        coef = 0.0
        if use_density:
            a = gh[1:i + 1]
            known += 0.5 * float(a @ y[i - 1::-1][:i])
            if i >= 2:
                known += 0.5 * float(gh[2:i + 1] @ y[i - 1:0:-1])
                known += gh[i] * head_corr[1] + gh[i - 1] * head_corr[2]
            else:
                known += gh[i] * head_corr[1]
            coef += half_gh1
        for loc, w, f_loc in atoms:
            if loc > t_grid[i] + 1e-12:
                continue
            x = t_grid[i] - loc
            pos = x / h
            m = int(math.floor(pos + 1e-9))
            theta = pos - m
            if m >= i:
                coef += w * f_loc
            elif theta <= 1e-9:
                known += w * f_loc * y[m]
            elif m == i - 1:
                known += w * f_loc * (1.0 - theta) * y[m]
                coef += w * f_loc * theta
            else:
                known += w * f_loc * ((1.0 - theta) * y[m] + theta * y[m + 1])
        y[i] = known / (1.0 - coef)
    return y
