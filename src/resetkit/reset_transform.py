"""Laws under restart: closed forms, renewal solving, means, branching series.

The repeatedly-restarted law solves a renewal identity that references only
earlier times, so a forward midpoint/trapezoid discretization on a uniform
grid solves it stably; atoms of the reset law enter exactly, and where the
law's tail jumps, each cell's mass pairs the solution past the jump by its
own share, not the trapezoid's half (product integration: Linz, Analytical
and Numerical Methods for Volterra Equations, SIAM 1985), which keeps the
scheme second order there. Its weights depend only on the lag: one
lower-triangular Toeplitz system, solved in O(n log n) by inverting its
kernel as a power series (Newton's iteration, Kung 1974) and applying the
inverse with FFT products. As the identity references only earlier times,
a solve on [0, T_c] has the whole horizon's values there, so the grid's
doublings past the first solve only the span where the restarted tail
exceeds 1e-3 tol. Under l-fold branching each cycle has its own weights
and the recursion runs backward from the last cycle: that system where
every later cycle repeats its race (l = 1, and cycle 60), else its race
alone, each kernel and free part cut where tail**(l**j) falls below
2**-64, so that a cycle costs in proportion to its support. Deterministic
restart has closed-form tails, exponential restart a closed-form mean;
every other mean, the restarted mean E[T ^ R] / P(T <= R) at l = 1 among
them, is one series over the cycles, closed as the solver is, each
cycle's race integrated over [0, inf) and the chance that a cycle
completes summed with expm1, not as 1 - E[tail(R)]. Integrals against the
laws are tanh-sinh panels cut at kinks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from ._integrate import cuts, distinct_panels, kinks, panels, quad, quad_rows
from .distributions import (DistributionSpec, SpecValidationError, TailCurve)

__all__ = [
    "ResetLaw",
    "InvalidPeriodError",
    "GridTooCoarseError",
    "SeriesNotConvergingError",
    "deterministic_reset_tail",
    "single_reset_tail",
    "reset_tail",
    "solver_reset_tail",
    "branching_reset_tail",
    "reset_mean",
    "exp_reset_mean",
    "laplace_tail",
    "branching_deterministic_tail",
    "branching_mean_exponential",
    "branching_mean_deterministic",
    "prob_completion_first",
]

_TRUNC = 1e-12
_TOEPLITZ_BLOCK = 128  # cells of the renewal solve's direct Newton seed
_DEPTH_CAP = 60  # cycles the branching pass may need
_CUT = 2.0 ** -64  # tail**(l**j) below which a cycle's kernel stops
_N_MIN = 256  # fewest cells the renewal solve starts from


class InvalidPeriodError(ValueError):
    """Deterministic restart period must be a positive finite time."""


class GridTooCoarseError(RuntimeError):
    """Renewal solver could not reach the requested tolerance."""


class SeriesNotConvergingError(RuntimeError):
    """A branching series or the branching pass failed to contract."""


@dataclass(frozen=True)
class ResetLaw:
    """Law of the restart epoch R, held as a distribution spec.

    Deterministic restart is the one-atom step curve at its period and
    exponential restart the exponential law; ``kind`` only selects the
    closed forms those two admit. A valid reset law puts positive mass on
    (0, inf] and on [0, inf).
    """

    kind: str
    spec: DistributionSpec

    @classmethod
    def deterministic(cls, r: float) -> "ResetLaw":
        if not (r > 0.0 and math.isfinite(r)):
            raise InvalidPeriodError(f"restart period must be in (0, inf), got {r!r}")
        return cls(kind="deterministic", spec=dist.Tabulated(
            curve=dist.piecewise_curve((0.0, r), (1.0, 0.0)),
            check_standing=False))

    @classmethod
    def exponential(cls, mu: float) -> "ResetLaw":
        if not (mu > 0.0 and math.isfinite(mu)):
            raise SpecValidationError(f"restart rate must be in (0, inf), got {mu!r}")
        return cls(kind="exponential", spec=dist.Exponential(rate=float(mu)))

    @classmethod
    def general(cls, spec: DistributionSpec) -> "ResetLaw":
        if float(spec.tail(0.0)) <= 0.0:
            raise SpecValidationError("reset law needs positive mass on (0, inf]")
        if spec.mass_at_infinity >= 1.0:
            raise SpecValidationError("reset law needs positive mass on [0, inf)")
        return cls(kind="general", spec=spec)

    @property
    def period(self) -> float | None:
        """The restart period of deterministic restart, else None."""
        if self.kind == "deterministic":
            return float(self.spec.curve.grid[1])
        return None

    @property
    def rate(self) -> float | None:
        """The restart rate of exponential restart, else None."""
        return self.spec.rate if self.kind == "exponential" else None

    def describe(self) -> str:
        if self.kind == "deterministic":
            return f"det:{self.period:g}"
        if self.kind == "exponential":
            return f"exp:{self.rate:g}"
        return f"file:{self.spec.family}"

    # distributional surface -------------------------------------------
    def tail(self, t):
        return self.spec.tail(t)

    @property
    def mass_at_infinity(self) -> float:
        return self.spec.mass_at_infinity

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return self.spec.jumps()

    @property
    def has_density(self) -> bool:
        atom_mass = sum(w for _, w in self.spec.jumps())
        return atom_mass + self.spec.mass_at_infinity < 1.0 - 1e-12

    def density(self, t):
        return self.spec.density(t)

    def horizon(self) -> float:
        if self.kind == "exponential":
            return 45.0 / self.rate
        return dist.default_horizon(self.spec)

    def expect_tail_power(self, spec: DistributionSpec, m=1.0):
        """E[tail_T(R)^m] against this reset law; m may be an array of powers."""
        m = np.asarray(m, dtype=float)

        def f(s, m, col):  # the laws once per node, for all the powers
            s, _, back = distinct_panels(s, col)
            return (np.exp(m * np.asarray(spec.log_tail(s))[back])
                    * np.asarray(self.density(s))[back])
        # R = inf, where the cycle restarts only if T is infinite too
        total = self.mass_at_infinity * spec.mass_at_infinity ** m
        for loc, w in self.atoms():
            total += w * np.exp(m * np.asarray(spec.log_tail(loc)))
        if self.has_density:
            upper = self.horizon()
            edges = cuts(0.0, upper, kinks((spec, self.spec)))
            if self.tail(upper) > 0.0:  # the mass past the horizon: one panel
                edges = np.append(edges, math.inf)
            total += np.sum(panels(f, edges[:-1], edges[1:], args=(
                m[..., None], np.arange(edges.size - 1)))[0], axis=-1)
        return total if m.ndim else float(total)


def prob_completion_first(spec: DistributionSpec, reset: ResetLaw,
                          m: float = 1.0) -> float:
    """P(T <= R), or with m copies racing E[1 - tail_T(R)**m]: the chance
    that a cycle ends in completion (ties go to completion). Each term is
    -expm1(m log tail), with no 1 - q to cancel: the reset atoms, its
    density over [0, inf), and its mass at infinity, where the cycle
    completes wherever T is finite."""
    def done(s):
        return -np.expm1(np.minimum(m * np.asarray(spec.log_tail(s)), 0.0))
    total = reset.mass_at_infinity * (1.0 - spec.mass_at_infinity ** m)
    for loc, w in reset.atoms():
        total += w * done(loc)
    if reset.has_density:
        total += quad(lambda s: done(s) * reset.density(s), 0.0, math.inf,
                      laws=(spec, reset.spec), points=_race_points(reset))[0]
    return float(total)


def _race_points(reset: ResetLaw) -> np.ndarray:
    """Cuts of the integrals over [0, inf) against the reset law: 13
    log-spaced points up to its horizon."""
    upper = reset.horizon()
    return np.geomspace(upper * 1e-12, upper, 13)


# ----------------------------------------------------------------------
# closed forms


def deterministic_reset_tail(spec: DistributionSpec, r: float, t):
    """Tail under restart every r: tail(r)**k * tail(t - k r) on [kr, (k+1)r)."""
    return branching_deterministic_tail(spec, r, 1, t)


def single_reset_tail(spec: DistributionSpec, reset: ResetLaw, t_grid=None,
                      *, l: int = 1) -> TailCurve:
    """Tail after at most one restart, which races l copies to completion:
    tail * P(R > t) + E[tail(R) tail(t - R)**l; R <= t] at the finite
    points t >= 0 of ``t_grid`` (0 first, as in ``reset_tail``). The
    density term is one ``quad_rows`` call, each point cut at the kinks of
    both laws and at t less the kinks of ``spec``; ``err_estimate`` is the
    largest point's error."""
    _check_branching(l)
    if t_grid is None:
        t_grid = dist.working_grid(spec)
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise ValueError("single-restart tail needs finite points >= 0")
    if t[0] != 0.0:
        t = np.concatenate([[0.0], t])
    tl = spec.tail
    vals = np.asarray(tl(t)) * np.asarray(reset.tail(t))
    for loc, w in reset.atoms():
        on = loc <= t
        vals[on] += w * float(tl(loc)) * np.asarray(tl(t[on] - loc)) ** l
    err = 0.0
    if reset.has_density:
        pts, back = kinks((spec, reset.spec)), kinks((spec,))
        dens, errs = quad_rows(
            lambda s, x: tl(s) * tl(x - s) ** l * reset.density(s),
            [cuts(0.0, x, np.concatenate([pts, x - back])) for x in t],
            args=(t[:, None],))
        vals += dens
        err = float(np.max(errs))
    return TailCurve(grid=t, values=vals[:-1], terminal=float(vals[-1]),
                     err_estimate=err)


# ----------------------------------------------------------------------
# renewal solver


def _cell_integrals(spec: DistributionSpec, reset: ResetLaw, h: float,
                    n: int, powers, l: int):
    """Tail and reset density at the cell midpoints, and exact integrals where
    midpoint and trapezoid degrade (None without a density), per power m in
    one call: tail**m * reset density over the pieces of the first two cells
    (infinite slopes at 0) and of the cells a kink splits (an O(h) error grid
    halving cannot see); the continuation's free part tail**(l m) * reset
    tail over its first cells: two for l = 1, as ever, else eight; and, for
    each later jump of that free part, at a jump of the law phi cells before
    node k (``_jump_nodes``), each piece's share that pairs the
    continuation past it: in cell c, the part before c h + phi h. The laws
    are evaluated once per panel node for all the powers."""
    if not reset.has_density:
        return None, [None] * len(powers)
    inner = kinks((spec, reset.spec))
    inner = inner[(inner > 0.0) & (inner < n * h)]
    cells = np.union1d(np.arange(min(2, n)),
                       np.minimum(inner // h, n - 1).astype(int))
    edges = cuts(0.0, n * h, np.r_[cells * h, (cells + 1) * h, inner])
    owner = ((edges[:-1] + edges[1:]) // (2.0 * h)).astype(int)
    keep = np.isin(owner, cells)
    lo, hi, owner = edges[:-1][keep], edges[1:][keep], owner[keep]
    heads = np.arange(min(2 if l == 1 else 8, n)) * h
    # the law's jumps past the head cells: node, phi, and the tail and reset
    # tail just past and just before each, [[tail], [reset tail]]
    loc, node = _jump_nodes(spec, h)
    keep = (node > heads.size) & (node <= n)
    loc, node = loc[keep], node[keep]
    before, phi = np.nextafter(loc, -np.inf), node - loc / h
    jumps = (node, phi, np.array([[spec.tail(loc), spec.tail(before)],
                                  [reset.tail(loc), reset.tail(before)]],
                                 dtype=float))
    end = owner * h + phi[:, None] * h  # each jump, in each piece's cell
    full = hi <= end
    part = np.nonzero((lo < end) & ~full)
    k, first = lo.size, lo.size + heads.size
    col = np.arange(first + part[0].size)
    free = (col >= k) & (col < first)

    def f(x, m, col):  # the reset tail, not its density, in the head cells
        x, rows, back = distinct_panels(x, col)
        other = np.where(free[col[rows]], reset.tail(x), reset.density(x))
        return np.asarray(spec.tail(x))[back] ** m * other[back]

    m = np.asarray(powers, dtype=float)[:, None] * np.where(free, l, 1.0)
    vals, _ = panels(f, np.r_[lo, heads, lo[part[1]]],
                     np.r_[hi, heads + h, end[part]], args=(m, col))
    exact = []
    for row in vals:
        shares = np.where(full, row[:k], 0.0)
        shares[part] = row[first:]
        exact.append((cells, owner, row[:k], row[k:first], jumps, shares))
    x = (np.arange(1, n + 1) - 0.5) * h
    return (np.asarray(spec.tail(x)), reset.density(x)), exact


def _lag_kernel(spec: DistributionSpec, reset: ResetLaw, h: float, m: float,
                m_next: float, mid, exact, src: np.ndarray, y0: float,
                free_next: np.ndarray, size: int) -> np.ndarray:
    """Lag kernel of one renewal step in which m copies race.

    Step i sets y[i] from ``src[i]`` and z[i - d] weighted by kern[d], z the
    continuation: the mean mass of cells d and d + 1 of tail**m * reset
    density (``mid`` and ``exact`` from ``_cell_integrals``) plus each
    atom's taps. Added to ``src``: the terms in z[0] = ``y0``, and two
    corrections to the trapezoid where z's free part tail**m_next * reset
    tail (``free_next`` at the first nodes) is not smooth: its exact
    integral over the first cells, as z can have infinite slope at 0; and,
    where it jumps by delta at phi cells before node k, delta times the
    share of cell c's mass that pairs z past the jump, in place of the
    trapezoid's half, at step k + c. The kernel holds the lags d < ``size``
    <= n: the caller picks ``size`` past every atom's taps and where the
    cell masses left out are negligible.
    """
    n = src.size - 1
    if exact is None:
        kern = np.zeros(size)
    else:
        cells, owner, pieces, heads, (node, phi, sides), shares = exact
        cells, inside = cells[cells < size], owner < size
        # the cell masses first: kern[c], (c h, c h + h]
        kern = mid[0][:size] ** m
        kern *= mid[1][:size]
        kern *= h
        kern[cells] = 0.0
        np.add.at(kern, owner[inside], pieces[inside])
        free_next = free_next[:heads.size + 1]
        corr = heads / h - 0.5 * (free_next[:-1] + free_next[1:])
        src[1:size + 1] += kern * (0.5 * y0 + corr[0])
        for c in range(1, corr.size):
            src[c + 1:c + 1 + size] += kern[:n - c] * corr[c]
        free = sides[0] ** m_next * sides[1]
        for k, p, delta, share in zip(node, phi, free[0] - free[1], shares):
            part = kern * (p - 0.5)  # phi of a smooth cell's mass, less half
            part[cells] = -0.5 * kern[cells]
            np.add.at(part, owner[inside], share[inside])
            src[k:k + size] += delta * part[:n + 1 - k]
    kern[1:] += kern[:-1]
    kern *= 0.5
    for loc, w in reset.atoms():
        pos, lag = loc / h, _atom_lag(loc, h)
        if lag > n:
            continue
        theta = lag - pos if lag - pos > 1e-9 else 0.0  # cells before it
        mass = w * float(spec.tail(loc)) ** m
        if lag < n:
            kern[lag] += mass * (1.0 - theta)
        if theta:
            kern[lag - 1] += mass * theta
        src[lag] += mass * (1.0 - theta) * y0  # step lag reaches back to z[0]
        if not theta and lag * h < loc:  # undo the free part's count of
            # the atom at a node a rounding error short of it
            src[lag] += float(spec.tail(lag * h)) ** m * (
                float(reset.tail(loc)) - float(reset.tail(lag * h)))
    return kern


def _atom_lag(loc: float, h: float) -> int:
    """The first node at or past an atom at ``loc``, on a grid of step h."""
    return math.ceil(loc / h - 1e-9)


def _jump_nodes(spec: DistributionSpec,
                h: float) -> tuple[np.ndarray, np.ndarray]:
    """The jumps t > 0 of the law's tail, and the first node i h at or past
    each, where the tail takes its value past the jump. A reset atom is no
    jump of the solution: where the reset tail drops by w, the atom's tap
    w tail**m z(t - a) starts, and makes up for it (exactly for l = 1 and
    tail(0) = 1). Unlike ``_atom_lag``, the rule is exact, with no slack:
    the free part at node i is tail(i h) at the node's time as the solver
    computes it, which must already be past the jump; an atom's tap, in
    turn, takes a node a rounding error short of the atom as its own and
    ``_lag_kernel`` undoes the free part's count there."""
    loc = np.array([loc for loc, _ in spec.jumps() if loc > 0.0])
    node = np.ceil(loc / h)  # then one node on or back where rounding erred
    node[node * h < loc] += 1.0
    node[(node - 1.0) * h >= loc] -= 1.0
    return loc, node.astype(int)


def _branching_pass(spec: DistributionSpec, reset: ResetLaw, l: int,
                    depth: int, upper: float, n: int) -> np.ndarray:
    """Solve of the tail under l-fold restart on i*upper/n.

    Cycle j races m = l**j copies: y_j = src_j + kern_j * y_{j+1}, from
    y_depth down to y_0. At l = 1 (depth 0) and at depth _DEPTH_CAP every
    later cycle repeats the last one's race (from cycle 60 on, the law's
    dead time), so y_depth is the fixed point y = src + kern * y: one
    lower-triangular Toeplitz system in y[1..n], the terms in y[0] in the
    source. Below the cap it is the race of cycle ``depth`` alone. The
    continuation's free part tail**(l m) * reset tail is exact over two
    cells at l = 1, else eight, as many copies steepen it at 0 (at cycle
    60, tail**(l m) is tail**m to within _CUT). Every other cycle costs in
    proportion to its support: from the first node c_j where tail**m <=
    _CUT = 2**-64, the free part is at most _CUT and the cell masses sum
    to at most _CUT * P(R > c_j h), so src_j and kern_j stop at
    K_j = c_j + 1 cells (at least nine, and every atom's taps): y_j moves
    by at most 2 * _CUT, 1.1e-19, below the product's own rounding. The
    product is one FFT of a fast length >= n + K_j - 1 rather than 2n
    (short-kernel convolution: Stockham, AFIPS 1966), the least
    2**a 3**b 5**c from ``_fast_len``.
    """
    h = upper / n
    t = np.arange(n + 1) * h
    tail_t, reset_t = np.asarray(spec.tail(t)), np.asarray(reset.tail(t))
    del t
    closed = l == 1 or depth == _DEPTH_CAP
    powers = float(l) ** np.arange(depth + 1)
    # c_j: the first node past which the nonincreasing majorant of the tail
    # is at most the root of _CUT, stepped down where rounding put it above
    root = _CUT ** (1.0 / powers)
    root = np.where(root ** powers > _CUT, np.nextafter(root, 0.0), root)
    upper_tail = np.maximum.accumulate(tail_t[::-1])[::-1]
    cut = np.searchsorted(-upper_tail, -root)
    del upper_tail
    lags = [_atom_lag(loc, h) for loc, _ in reset.atoms()]
    least = max([9] + [lag + 1 for lag in lags if lag <= n])
    size = np.minimum(n, np.maximum(cut + 1, least))
    if closed:  # the Toeplitz solve spans the grid, cut or not
        size[-1] = n
    y = _free_part(tail_t, reset_t, powers[-1], size[-1])
    head = y[:9].copy()  # the continuation's free part at its first nodes
    if not depth:  # no cycle below: only the fixed point's arrays from here
        del tail_t, reset_t
    mid, exact = _cell_integrals(spec, reset, h, n, powers[:depth + closed], l)
    if closed:
        m = powers[-1]
        w0 = sum(w for loc, w in reset.atoms() if loc == 0.0)
        kern = _lag_kernel(spec, reset, h, m, m, mid, exact[-1], y,
                           y[0] / (1.0 - float(spec.tail(0.0)) ** m * w0),
                           head, n)
        if not depth:
            del mid
        np.negative(kern, out=kern)  # the system's first column: 1 - kern[0],
        kern[0] += 1.0               # then -kern[d]
        _solve_lower_toeplitz(kern, y[1:])
    for j in range(depth - 1, -1, -1):
        k = int(size[j])
        src = _free_part(tail_t, reset_t, powers[j], k)
        free = src[:9].copy()
        kern = _lag_kernel(spec, reset, h, powers[j], powers[j + 1], mid,
                           exact[j], src, y[0], head, k)
        size_fft = _fast_len(n + k - 1)
        prod = np.fft.rfft(kern, size_fft)
        prod *= np.fft.rfft(y[1:], size_fft)
        src[1:] += np.fft.irfft(prod, size_fft)[:n]
        y, head = src, free
    return y


def _fast_len(n: int) -> int:
    """The least 5-smooth length 2**a 3**b 5**c >= n, as numpy's FFT is
    fastest on those; the same as ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2**a >= n
            size = p35 << ((n - 1) // p35).bit_length()
            if size < best:
                best = size
            p35 *= 3
        p5 *= 5
    return best


def _free_part(tail_t: np.ndarray, reset_t: np.ndarray, m: float,
               k: int) -> np.ndarray:
    """tail**m * reset tail on the nodes 0..k, and 0 past them."""
    out = np.zeros(tail_t.size)
    out[:k + 1] = tail_t[:k + 1] ** m
    out[:k + 1] *= reset_t[:k + 1]
    return out


def _solve_lower_toeplitz(a: np.ndarray, c: np.ndarray) -> None:
    """Overwrite c with z solving sum_{d<=k} a[d] z[k-d] = c[k], k < len(c).

    The inverse of a lower-triangular Toeplitz matrix is lower-triangular
    Toeplitz, its first column g the power-series reciprocal of ``a``.
    Newton's iteration (Kung, Numer. Math. 22, 1974) doubles g from one
    cell, g[0] = 1/a[0]: g_2k = g_k - g_k (a g_k - 1) mod x^2k, one middle
    product and one product. Up to the first 128 cells both are direct
    ``np.convolve`` products (for n <= 128, one more direct product applies
    g to c and is the whole solve), then each is of FFT size 2k. g is
    taken to h = ceil(n/2) cells and applied to the two halves of c in
    turn, the first half's effect on the second subtracted between them,
    so every FFT is of size at most 2h: O(n log n) in all. ``a`` needs
    len(c) entries. The FFT products are accurate to rounding while g
    stays bounded, as it does for a renewal kernel (a[0] >= sum(-a[1:]) >=
    0); where g grows geometrically they lose accuracy.
    """
    n = c.size
    if n <= _TOEPLITZ_BLOCK:
        c[:] = np.convolve(_newton_seed(a, n), c)[:n]
        return
    h = (n + 1) // 2
    g = np.empty(h)
    b = min(_TOEPLITZ_BLOCK, h)
    g[:b] = _newton_seed(a, b)
    k = b
    while k < h:
        # coefficients k..2k-1 of a g_k: the cyclic product of size 2k
        # wraps only onto the first k, which are known to be 1, 0, ...
        m = min(2 * k, h)
        g_hat = np.fft.rfft(g[:k], 2 * k)
        prod = np.fft.rfft(a[:2 * k], 2 * k)
        prod *= g_hat
        err = np.fft.irfft(prod, 2 * k)[k:m]
        np.fft.rfft(err, 2 * k, out=prod)
        del err  # each temporary goes before the next of its size
        prod *= g_hat
        np.negative(np.fft.irfft(prod, 2 * k)[:m - k], out=g[k:m])
        k *= 2
    # z[:h] = g c[:h]; c[h:] less the first half's share (the wrap-around
    # of the cyclic product lands below h, outside the cells kept); z[h:] =
    # g c[h:]. Three spectra of size 2h in all, each real product written
    # over the spare one, viewed as 2h + 2 floats.
    g_hat = np.fft.rfft(g, 2 * h)
    del g
    prod = np.fft.rfft(c[:h], 2 * h)
    spare = np.empty_like(prod)
    real = spare.view(float)[:2 * h]
    prod *= g_hat
    c[:h] = np.fft.irfft(prod, 2 * h, out=real)[:h]
    np.fft.rfft(a[:n], 2 * h, out=prod)
    prod *= np.fft.rfft(c[:h], 2 * h, out=spare)
    c[h:] -= np.fft.irfft(prod, 2 * h, out=real)[h:n]
    np.fft.rfft(c[h:], 2 * h, out=prod)
    prod *= g_hat
    c[h:] = np.fft.irfft(prod, 2 * h, out=real)[:n - h]


def _newton_seed(a: np.ndarray, m: int) -> np.ndarray:
    """The first m coefficients of 1/a by Newton's doublings from 1/a[0],
    each a direct middle product and product."""
    g = np.empty(m)
    g[0] = 1.0 / a[0]
    k = 1
    while k < m:
        j = min(2 * k, m)
        err = np.convolve(a[:j], g[:k])[k:j]
        g[k:j] = -np.convolve(g[:k], err)[:j - k]
        k *= 2
    return g


def _snap_grid(reset: ResetLaw, upper: float, n: int,
               n_max: int) -> tuple[int, float]:
    """Align the uniform grid with the reset law's smallest atom.

    With atoms on the grid the recursion needs no interpolation there, so
    purely atomic reset laws solve exactly. The atom count per period is
    kept even so the halved comparison grid stays aligned too.
    """
    atoms = _grid_atoms(reset, upper)
    if not atoms:
        return n, upper
    r0 = min(atoms)
    m = 2 * max(1, round(r0 * n / (2.0 * upper)))
    h = r0 / m
    steps = int(math.ceil(upper / h - 1e-9))
    steps += steps % 2
    if steps > n_max:
        return n, upper
    return steps, steps * h


def _grid_atoms(reset: ResetLaw, upper: float) -> list[float]:
    """The reset law's atoms in (0, upper], to which the grid is aligned."""
    return [loc for loc, _ in reset.atoms() if 0.0 < loc <= upper]


def _cycle_reach(spec: DistributionSpec, reset: ResetLaw, l: int,
                 tol: float) -> tuple[int, np.ndarray]:
    """Depth D of the l-fold race and reach[j] = q[0] ... q[j], j <= 60, the
    chance that cycles 0 to j all end in a restart, q[j] =
    E[tail_T(R)**(l**j)]: cycle D is the first reached with probability
    <= 1e-3 tol, or the 60th. Raises SeriesNotConvergingError where cycle D
    surely ends in a restart."""
    # clipped, as tail**m at m = l**59 magnifies a tail rounded past 1
    q = np.clip(reset.expect_tail_power(
        spec, float(l) ** np.arange(_DEPTH_CAP + 1)), 0.0, 1.0)
    reach = np.cumprod(q)
    depth = min(int(np.count_nonzero(reach > 1e-3 * tol)) + 1, _DEPTH_CAP)
    if not q[depth] < 1.0:
        raise SeriesNotConvergingError(
            f"cycle {depth} ends in a restart surely; restart never completes")
    return depth, reach


def _check_solve(upper: float, tol: float) -> None:
    """Refuse, before any solve, a tolerance or horizon no grid can meet."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
    if not 0.0 < upper < math.inf:
        raise ValueError(
            f"tail grid must end at a finite point > 0, got {upper!r}")


def solver_reset_tail(spec: DistributionSpec, reset: ResetLaw, upper: float,
                      *, l: int = 1, tol: float = 1e-6, n0: int = 8192,
                      n_max: int = 262144) -> TailCurve:
    """Renewal-solve the restarted tail on [0, upper] with error control.

    Cycle j races l**j copies (``_branching_pass``), to the first cycle
    reached with probability at most tol * 1e-3, or closed at the 60th.
    The grid doubles until that probability (0 for a closed cycle) plus
    the grid-halving estimate of the second-order scheme's error is within
    tolerance, or until one more doubling would solve more than n_max
    cells. Where the first rung misses the tolerance, every later rung
    keeps the cell width of its doubling but solves only [0, T_c], past
    which both of the first rung's solves are at most 1e-3 tol
    (``_cut_node``): the recursion at t reads only earlier times, so the
    values before T_c are the full horizon's. The curve then ends at T_c
    with a log-linear terminal piece from y(T_c), at the log slope of its
    last cell; the true tail is nonincreasing, so past T_c it is within
    y(T_c) of it, and the estimate adds y(T_c)."""
    _check_branching(l)
    _check_solve(upper, tol)
    depth, bound = 0, 0.0
    if l > 1:
        depth, reach = _cycle_reach(spec, reset, l, tol)
        bound = float(reach[depth - 1]) if depth < _DEPTH_CAP else 0.0
    n = max(n0, _N_MIN)
    n_eff, upper_eff = _snap_grid(reset, upper, n, n_max)
    coarse = _branching_pass(spec, reset, l, depth, upper_eff, n_eff // 2)
    cut = None  # whether the horizon is cut, once the ladder doubles
    while True:
        fine = _branching_pass(spec, reset, l, depth, upper_eff, n_eff)
        err = float(np.max(np.abs(fine[::2] - coarse))) / 3.0 + bound
        if cut:
            err += max(float(fine[-1]), 0.0)
        if err <= tol or 2 * n_eff > n_max:
            break
        if cut is None:
            k = _cut_node(fine, coarse, 1e-3 * tol)
            cut = k < n_eff
            if cut:
                fine, upper_eff = fine[:k + 1], k * (upper_eff / n_eff)
                n_eff = k
        coarse = fine
        n_eff *= 2  # doubling the cell count keeps atoms grid-aligned
    if err > tol:
        raise GridTooCoarseError(
            f"renewal solve error estimate {err:.3g} exceeds tolerance {tol:g} "
            f"at n={n_eff}")
    h = upper_eff / n_eff
    vals = np.minimum.accumulate(np.clip(fine, 0.0, 1.0, out=fine), out=fine)
    rate = 0.0
    if cut and vals[-1] > 0.0:
        rate = (math.log(vals[-2]) - math.log(vals[-1])) / h
    return TailCurve(grid=np.arange(n_eff + 1) * h, values=vals[:-1],
                     terminal=float(vals[-1]), err_estimate=err,
                     terminal_rate=rate)


def _cut_node(fine: np.ndarray, coarse: np.ndarray, level: float) -> int:
    """The node of ``fine`` past the first at which the nonincreasing
    majorant of ``fine`` and of ``coarse``, on its every other node, is at
    most ``level``: the rule by which ``_cycle_reach`` sets the depth."""
    both = fine.copy()
    np.maximum(both[::2], coarse, out=both[::2])
    majorant = np.maximum.accumulate(both[::-1])[::-1]
    return int(np.count_nonzero(majorant > level)) + 1


def reset_tail(spec: DistributionSpec, reset: ResetLaw, t_grid=None, *,
               l: int = 1, tol: float = 1e-6, n0: int = 8192,
               n_max: int = 262144) -> TailCurve:
    """Tail of the restarted law, each restart racing l times the copies:
    the closed form under deterministic restart, else the renewal solver
    interpolated onto the grid (``_interpolate``), its terminal piece past
    the T_c where it stops short of the grid. A grid uniform from 0 starts
    the solver at a multiple of its cell count (``_node_start``), so that
    every point before T_c is a node. That ladder of doublings solves at
    most n_max cells, at times a rung below n0's; where it misses the
    tolerance there, the solve runs again from n0."""
    if t_grid is None:
        t_grid = dist.working_grid(spec)
    t_grid = np.asarray(t_grid, dtype=float)
    _check_solve(float(t_grid[-1]) if t_grid.size else math.nan, tol)
    if t_grid[0] != 0.0:
        t_grid = np.concatenate([[0.0], t_grid])
    if reset.kind == "deterministic":
        vals, err = np.asarray(branching_deterministic_tail(
            spec, reset.period, l, t_grid)), 0.0
    else:
        solve = functools.partial(solver_reset_tail, spec, reset,
                                  float(t_grid[-1]), l=l, tol=tol)
        start, top = _node_start(reset, t_grid, n0, n_max)
        try:
            solved = solve(n0=start, n_max=top)
        except GridTooCoarseError:
            if top == n_max:
                raise
            solved = solve(n0=n0, n_max=n_max)
        vals = _interpolate(spec, reset, solved, t_grid)
        err = solved.err_estimate
    vals = np.minimum.accumulate(np.clip(vals, 0.0, 1.0))
    return TailCurve(grid=t_grid, values=vals[:-1], terminal=float(vals[-1]),
                     err_estimate=err)


def _node_start(reset: ResetLaw, t_grid: np.ndarray, n0: int,
                n_max: int) -> tuple[int, int]:
    """The solver's first and largest cell counts for the points ``t_grid``:
    where they are uniform from 0, m cells, and no reset atom sets the grid
    (``_grid_atoms``), the least even multiple of m from the solver's first
    count on, where it is another count at most n_max, and its last
    doubling within n_max (both counted in the cells a rung solves); else
    n0 and n_max."""
    m, upper = t_grid.size - 1, float(t_grid[-1])
    if m < 1 or _grid_atoms(reset, upper) or \
            not np.allclose(t_grid, np.linspace(0.0, upper, m + 1),
                            rtol=0.0, atol=1e-12 * upper):
        return n0, n_max
    step = m * (1 + m % 2)  # even, as the halved grid takes every other node
    start = -(-max(n0, _N_MIN) // step) * step
    if start == max(n0, _N_MIN) or start > n_max:  # n0's own ladder
        return n0, n_max
    return start, start << ((n_max // start).bit_length() - 1)


def _interpolate(spec: DistributionSpec, reset: ResetLaw, solved: TailCurve,
                 t: np.ndarray) -> np.ndarray:
    """The solved tail at the points t: linear between nodes, except in a
    cell that holds a jump of the law's tail (``_jump_nodes``), where the
    solution less the free part tail * reset tail is linear, and the free
    part is taken at t itself; past the last node, the curve's terminal
    piece."""
    grid, y = solved.grid, solved.knot_values
    vals = np.interp(t, grid, y)
    past = t > grid[-1]
    if past.any():  # the curve's table is built only where it is read
        vals[past] = solved(t[past])
    k = np.minimum(np.searchsorted(grid, t), grid.size - 1)
    at = np.flatnonzero(np.isin(k, _jump_nodes(spec, float(grid[1]))[1])
                        & (grid[k] != t) & ~past)
    if at.size:
        def free(x):
            return np.asarray(spec.tail(x)) * np.asarray(reset.tail(x))
        k = k[at]
        left = y[k - 1] - free(grid[k - 1])
        right = y[k] - free(grid[k])
        w = (t[at] - grid[k - 1]) / (grid[k] - grid[k - 1])
        vals[at] = left + w * (right - left) + free(t[at])
    return vals


def branching_reset_tail(spec: DistributionSpec, reset: ResetLaw, l: int,
                         upper: float) -> TailCurve:
    """Tail under restart with l-fold branching: ``solver_reset_tail``."""
    return solver_reset_tail(spec, reset, upper, l=l)


# ----------------------------------------------------------------------
# means


def laplace_tail(spec: DistributionSpec, mu):
    """Weighted tail transform: integral of exp(-mu t) * tail(t) over [0, inf).

    ``mu`` is one rate or an array of rates. Where the family has a closed
    form (``_laplace0``: exponential, Levy, and tabulated laws as a sum
    over their cells), the transform is defect / mu plus (1 - defect)
    times it. Otherwise all the rates are integrated in
    one ``quad_rows`` call, each rate's panels cut as for that rate alone
    (the kinks of ``spec`` and 7 log-spaced points up to 42 / mu, past
    which the integrand is below 1e-18 whatever the law). Either way every
    value keeps the bits of a call with its rate alone.
    """
    rates = np.asarray(mu, dtype=float)
    if not np.all(rates > 0.0):
        raise ValueError("transform rate must be positive")
    closed = spec._laplace0(rates)
    if closed is not None:
        out = spec.defect / rates + (1.0 - spec.defect) * closed
    else:
        pts = kinks((spec,))
        edges = [cuts(0.0, upper, np.concatenate(
            [pts, np.geomspace(upper * 1e-6, upper, 7)]))
                 for upper in 42.0 / rates.ravel()]
        out = quad_rows(lambda t, m: np.exp(-m * t) * spec.tail(t), edges,
                        args=(rates.reshape(-1, 1),))[0].reshape(rates.shape)
    return out if out.ndim else float(out)


def reset_mean(spec: DistributionSpec, reset: ResetLaw) -> float:
    """Mean of the restarted law, E[T ^ R] / P(T <= R): ``exp_reset_mean``
    under exponential restart, else the cycle series at l = 1 of
    ``_branching_mean``. +inf where E[T ^ R] is: where the moment orders of
    the two tails sum to at most 1, as T ^ R has the product of the tails
    (an order is 0 with mass at infinity); SpecValidationError where
    P(T <= R) = 0."""
    if reset.kind == "exponential":
        return exp_reset_mean(spec, reset.rate)
    if _moment_order(spec) + _moment_order(reset.spec) <= 1.0:
        return math.inf
    try:
        return _branching_mean(spec, reset, 1)
    except SeriesNotConvergingError:
        raise SpecValidationError(
            "restart never lets the run finish: P(T <= R) = 0") from None


def _moment_order(spec: DistributionSpec) -> float:
    """Supremum of p with E[T**p] finite: 0 where the law keeps mass at
    infinity."""
    return 0.0 if spec.mass_at_infinity > 0.0 else spec._moment_sup_order()


def exp_reset_mean(spec: DistributionSpec, mu):
    """Mean under restart at constant rate mu, via the Laplace transform;
    ``mu`` is one rate or an array of rates, as in ``laplace_tail``. The
    divisor E[exp(-mu T)] is 1 - mu L, or (1 - defect) times the family's
    closed form (``_laplace_law0``), as 1 - mu L cancels where it is small."""
    lt = laplace_tail(spec, mu)
    rates = np.asarray(mu, dtype=float)
    closed = spec._laplace_law0(rates)
    lap = 1.0 - rates * lt if closed is None else (1.0 - spec.defect) * closed
    if np.any(lap <= 0.0):
        raise SpecValidationError("degenerate transform; law has no mass")
    out = lt / lap
    return out if np.ndim(out) else float(out)


# ----------------------------------------------------------------------
# branching closed forms and series


def _check_branching(l: int) -> None:
    if isinstance(l, bool) or not (isinstance(l, (int, np.integer)) and l >= 1):
        raise ValueError(f"branching factor must be an integer >= 1, got {l!r}")


def branching_deterministic_tail(spec: DistributionSpec, r: float, l: int, t):
    """Tail under period-r restart with l-fold branching.

    On [kr, (k+1)r) the survivors are tail(r)**((l**k - 1)/(l - 1)) (k for
    l = 1) many completed cycles times the racing minimum tail(t - kr)**(l**k).
    """
    _check_branching(l)
    if not (r > 0.0 and math.isfinite(r)):
        raise InvalidPeriodError(f"restart period must be in (0, inf), got {r!r}")
    t_arr = np.asarray(t, dtype=float)
    k = np.floor(t_arr / r)
    with np.errstate(over="ignore", invalid="ignore"):
        lk = np.power(float(l), k)
        done = k if l == 1 else (lk - 1.0) / (l - 1.0)
        # no completed cycle before r, also where tail(r) = 0
        out = np.exp(np.where(done > 0.0, done * float(spec.log_tail(r)), 0.0)
                     + lk * np.asarray(spec.log_tail(t_arr - k * r)))
    out = np.where(np.isinf(t_arr) | np.isinf(lk), 0.0, out)
    return out if out.shape else float(out)


def _branching_mean(spec: DistributionSpec, reset: ResetLaw, l: int) -> float:
    """Mean under restart by ``reset`` with l-fold branching: cycle j
    lasts race_j = integral over [0, inf) of tail**(l**j) * P(R > t) on
    average and is reached with probability reached[j], 1 for j = 0, else
    reach[j - 1] of ``_cycle_reach``. The cycles from its depth D on add
    reached[D] race_D / E[1 - tail_T(R)**(l**D)] (``prob_completion_first``),
    each taken to repeat D's race, as ``_branching_pass`` takes them: they
    do at l = 1, where D is 0, and from D = 60 on each lasts the law's dead
    time; below 60, reached[D] is at most 1e-15. Raises
    SeriesNotConvergingError where cycle D never ends in completion."""
    _check_branching(l)
    depth, reach = _cycle_reach(spec, reset, l, _TRUNC) if l > 1 \
        else (0, np.empty(0))
    reached = np.r_[1.0, reach[:depth]]

    def f(t, m):
        return np.exp(np.minimum(m * np.asarray(spec.log_tail(t)), 0.0)) * \
            np.asarray(reset.tail(t))
    race = quad(f, 0.0, math.inf, laws=(spec, reset.spec),
                points=_race_points(reset),
                args=(float(l) ** np.arange(depth + 1)[:, None],))[0]
    done = prob_completion_first(spec, reset, float(l) ** depth)
    if not done > 0.0:
        raise SeriesNotConvergingError(
            f"cycle {depth} ends in a restart surely; restart never completes")
    return float(reached[:depth] @ race[:depth]
                 + reached[depth] * race[depth] / done)


def branching_mean_deterministic(spec: DistributionSpec, r: float, l: int) -> float:
    """Mean under period-r restart with l-fold branching (cycle series)."""
    return _branching_mean(spec, ResetLaw.deterministic(r), l)


def branching_mean_exponential(spec: DistributionSpec, mu: float, l: int) -> float:
    """Mean under rate-mu restart with l-fold branching (cycle series)."""
    return _branching_mean(spec, ResetLaw.exponential(mu), l)
