"""The branching pass's recursion as a step-by-step loop, kept as a reference.

``reset_transform._branching_pass`` runs the backward recursion of l-fold
branching restart with one FFT product per depth; this loop builds each
step's sum directly, in O(depth n^2), and is what the fast pass is checked
against. Cycle j races m = l**j copies: y_j(t) is tail**m * reset tail at
t, plus the continuation y_{j+1}(t - s) against the reset density times
tail(s)**m (trapezoid in each cell, with the library's cell masses), plus
each atom's tap; y_depth is the race of cycle ``depth`` alone. The
continuation's free part is integrated exactly over its first eight cells
here, by split quadrature, and where it jumps later each cell's mass
pairs the continuation past the jump by its share (``jump_terms``).
"""
from __future__ import annotations

import math

import numpy as np

from quad_reference import split_quad
from renewal_loop_reference import cell_masses, jump_terms
from resetkit.distributions import DistributionSpec
from resetkit.reset_transform import ResetLaw

HEAD = 8


def branching_pass_loop(spec: DistributionSpec, reset: ResetLaw, l: int,
                        depth: int, upper: float, n: int) -> np.ndarray:
    """Tail under l-fold branching on the grid i*upper/n."""
    h = upper / n
    t_grid = np.arange(n + 1) * h

    def free_part(m):
        return np.asarray(spec.tail(t_grid)) ** m * np.asarray(reset.tail(t_grid))

    y_next = free_part(float(l) ** depth)
    for j in range(depth - 1, -1, -1):
        m = float(l) ** j
        free, free_next = free_part(m), free_part(l * m)

        def free_fn(x):
            return float(spec.tail(x)) ** (l * m) * float(reset.tail(x))
        corr = np.zeros(HEAD)  # exact mean of the continuation's free part
        for k in range(HEAD):  # over cell k, minus its trapezoid
            points = np.geomspace(h * 1e-10, h, 7) if k == 0 else ()
            exact_mean = split_quad(free_fn, k * h, (k + 1) * h, points=points,
                                    epsabs=1e-16, epsrel=1e-14)[0] / h
            corr[k] = exact_mean - 0.5 * (free_next[k] + free_next[k + 1])
        gh = np.zeros(n + 1)  # gh[c]: mass of cell ((c - 1) h, c h]
        jumps = []
        if reset.has_density:
            gh[1:] = cell_masses(spec, reset, h, n, m)
            jumps = jump_terms(spec, reset, h, n, m, l * m, HEAD, gh)
        atoms = [(loc, w * float(spec.tail(loc)) ** m)
                 for loc, w in reset.atoms() if loc <= upper + 1e-12]
        y = np.empty(n + 1)
        for i in range(n + 1):
            total = free[i]
            if i >= 1:
                # cell c pairs the continuation at t_i - c h and t_i - c h + h
                total += 0.5 * float(gh[1:i + 1] @ (y_next[i - 1::-1][:i]
                                                     + y_next[i:0:-1]))
                for k in range(min(HEAD, i)):
                    total += gh[i - k] * corr[k]
                for k, delta, part in jumps:
                    if k <= i:
                        total += delta * part[i - k]
            for loc, mass in atoms:
                if loc > t_grid[i] + 1e-12:
                    continue
                pos = (t_grid[i] - loc) / h
                k = int(math.floor(pos + 1e-9))
                theta = pos - k
                if theta <= 1e-9:
                    total += mass * y_next[k]
                else:
                    total += mass * ((1.0 - theta) * y_next[k]
                                     + theta * y_next[k + 1])
            y[i] = total
        y_next = y
    return y_next
