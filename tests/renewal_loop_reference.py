"""The renewal solver's original step-by-step recursion, kept as a reference.

``reset_transform._branching_pass`` at l = 1 solves the same discretisation
as one lower-triangular Toeplitz system; this loop builds each step's sum
directly, costs O(n^2), and is what the fast solve is checked against.
The body is the loop the library used to run, plus the jump terms of the
second-order scheme (``jump_terms``), whose partial cells it integrates
itself; the cell masses are the library's, rebuilt here from its exact
cell integrals.
"""
from __future__ import annotations

import math

import numpy as np

from resetkit.distributions import DistributionSpec
from quad_reference import split_quad
from resetkit.reset_transform import ResetLaw, _cell_integrals


def cell_masses(spec: DistributionSpec, reset: ResetLaw, h: float, n: int,
                m: float) -> np.ndarray:
    """Masses of tail**m * reset density in the cells ((c - 1) h, c h],
    c = 1..n: midpoint sums, except where the library integrates exactly."""
    (tail_mid, dens_mid), ((cells, owner, pieces, *_),) = _cell_integrals(
        spec, reset, h, n, [m], 1)
    gh = h * tail_mid ** m * np.asarray(dens_mid)
    gh[cells] = 0.0
    np.add.at(gh, owner, pieces)
    return gh


def jump_terms(spec: DistributionSpec, reset: ResetLaw, h: float, n: int,
               m: float, m_next: float, first: int,
               gh: np.ndarray) -> list[tuple[int, float, np.ndarray]]:
    """The continuation's free part tail**m_next * reset tail jumps by delta
    at the law's atoms (at a reset atom the atom's tap makes up for its
    drop). For each jump whose cell lies past the first ``first``: the
    first node k at or past it, delta, and per cell c the mass of tail**m
    * reset density in c that pairs the continuation past the jump at step
    k + c, less the trapezoid's half. That mass is phi gh[c + 1], phi the
    part of cell k - 1 past the jump, and in the cells the library
    integrates exactly the integral over (c h, c h + phi h], by split
    quadrature. ``gh`` as ``cell_masses`` gives it, after a 0 for cell 0."""
    t_grid = np.arange(n + 1) * h
    (_, ((cells, *_),)) = _cell_integrals(spec, reset, h, n, [m], 1)
    points = [*spec.tail_breakpoints(), *reset.spec.tail_breakpoints(),
              spec._support_end(), reset.spec._support_end()]

    def mass(s):
        return float(spec.tail(s)) ** m * float(reset.density(s))

    def free(x):
        return float(spec.tail(x)) ** m_next * float(reset.tail(x))
    terms = []
    for loc in sorted({loc for loc, _ in spec.jumps()}):
        k = int(np.searchsorted(t_grid, loc))
        if not first < k <= n:
            continue
        phi = (t_grid[k] - loc) / h
        share = phi * gh[1:]
        for c in cells:
            share[c] = split_quad(mass, c * h, c * h + phi * h, points=points,
                                  epsabs=1e-16, epsrel=1e-14)[0]
        terms.append((k, free(loc) - free(np.nextafter(loc, -np.inf)),
                      share - 0.5 * gh[1:]))
    return terms


def renewal_fixed_point_loop(spec: DistributionSpec, reset: ResetLaw,
                             upper: float, n: int) -> np.ndarray:
    """Forward solve of the restarted tail on the uniform grid i*upper/n."""
    h = upper / n
    t_grid = np.arange(n + 1) * h
    free = np.asarray(spec.tail(t_grid)) * np.asarray(reset.tail(t_grid))
    gh = np.empty(n + 1)
    gh[0] = 0.0
    if reset.has_density:
        gh[1:] = cell_masses(spec, reset, h, n, 1.0)
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

    # the jumps of the free part past the first two cells: the trapezoid
    # gives each cell's mass half the jump, the part of the cell that pairs
    # the solution past it takes its share
    jumps = jump_terms(spec, reset, h, n, 1.0, 1.0, 2, gh) if use_density \
        else []
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
            for k, delta, part in jumps:
                if k <= i:
                    known += delta * part[i - k]
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
