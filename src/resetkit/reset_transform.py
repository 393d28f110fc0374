"""Laws under restart: closed forms, renewal solving, means, branching series.

The repeatedly-restarted law solves a renewal identity that references only
earlier times, so a forward midpoint/trapezoid discretization on a uniform
grid solves it stably; atoms of the reset law enter exactly. The weights of
that recursion depend only on the lag, so the whole grid is one
lower-triangular Toeplitz system, solved blockwise with FFT products in
O(n log^2 n). Deterministic restart has a closed form, exponential restart
closed-form means.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from ._integrate import split_quad
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
_SERIES_CAP = 2000
_TOEPLITZ_BLOCK = 128  # cells per diagonal block of the renewal solve


class InvalidPeriodError(ValueError):
    """Deterministic restart period must be a positive finite time."""


class GridTooCoarseError(RuntimeError):
    """Renewal solver could not reach the requested tolerance."""


class SeriesNotConvergingError(RuntimeError):
    """The branching mean series failed to contract numerically."""


@dataclass(frozen=True)
class ResetLaw:
    """Law of the restart epoch R, held as a distribution spec.

    Deterministic restart is the one-atom law at its period and exponential
    restart the exponential law; ``kind`` only selects the closed forms
    those two admit. A valid reset law puts positive mass on (0, inf] and
    on [0, inf).
    """

    kind: str
    spec: DistributionSpec

    @classmethod
    def deterministic(cls, r: float) -> "ResetLaw":
        if not (r > 0.0 and math.isfinite(r)):
            raise InvalidPeriodError(f"restart period must be in (0, inf), got {r!r}")
        return cls(kind="deterministic", spec=dist.PiecewiseConstantTail(
            breakpoints=(0.0, float(r)), levels=(1.0, 0.0), check_standing=False))

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
        return self.spec.breakpoints[1] if self.kind == "deterministic" else None

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

    def expect_tail_power(self, spec: DistributionSpec, m: float = 1.0) -> float:
        """E[tail_T(R)^m]: probability-like average against this reset law."""
        log_tail = spec.log_tail
        if self.kind == "deterministic":
            return float(np.exp(m * np.asarray(log_tail(self.period))))
        def f(s):
            return np.exp(m * np.asarray(log_tail(s))) * np.asarray(self.density(s))
        total = 0.0
        for loc, w in self.atoms():
            total += w * float(np.exp(m * np.asarray(log_tail(loc))))
        if self.has_density:
            upper = self.horizon()
            pts = _density_breakpoints(spec, self, upper) + tuple(
                p for p, _ in self.atoms())
            head, _ = split_quad(f, 0.0, upper, points=pts)
            total += head
        return total


def prob_completion_first(spec: DistributionSpec, reset: ResetLaw) -> float:
    """P(T <= R): the per-cycle stopping probability (ties go to completion)."""
    return 1.0 - reset.expect_tail_power(spec, 1.0)


# ----------------------------------------------------------------------
# closed forms


def deterministic_reset_tail(spec: DistributionSpec, r: float, t):
    """Tail under restart every r: tail(r)**k * tail(t - k r) on [kr, (k+1)r)."""
    if not (r > 0.0 and math.isfinite(r)):
        raise InvalidPeriodError(f"restart period must be in (0, inf), got {r!r}")
    t_arr = np.asarray(t, dtype=float)
    k = np.floor(t_arr / r)
    log_fr = float(spec.log_tail(r))
    rem = t_arr - k * r
    with np.errstate(invalid="ignore"):
        out = np.exp(k * log_fr + np.asarray(spec.log_tail(rem)))
    out = np.where(np.isinf(t_arr), 0.0, out)
    return out if out.shape else float(out)


def single_reset_tail(spec: DistributionSpec, reset: ResetLaw, t) -> float:
    """Tail after at most one restart opportunity."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t_arr.shape)
    for idx in np.ndindex(t_arr.shape):
        out[idx] = _single_reset_tail_scalar(spec, reset, float(t_arr[idx]))
    return out if np.asarray(t).shape else float(out[0])


def _single_reset_tail_scalar(spec: DistributionSpec, reset: ResetLaw,
                              t: float) -> float:
    tl = spec.tail
    total = float(tl(t)) * float(reset.tail(t))
    for loc, w in reset.atoms():
        if loc <= t:
            total += w * float(tl(loc)) * float(tl(t - loc))
    if reset.has_density:
        def f(s):
            s_arr = np.asarray(s)
            return np.asarray(tl(s_arr)) * np.asarray(tl(t - s_arr)) \
                * np.asarray(reset.density(s_arr))
        # kinks of tl(s) and of the reset density, then those of tl(t - s)
        own = spec.tail_breakpoints() + ((spec.t0,) if np.isfinite(spec.t0)
                                         else ())
        pts = _density_breakpoints(spec, reset, t) + tuple(t - p for p in own)
        head, _ = split_quad(f, 0.0, t, points=pts)
        total += head
    return total


# ----------------------------------------------------------------------
# renewal solver


def _density_breakpoints(spec: DistributionSpec, reset: ResetLaw,
                         upper: float) -> tuple[float, ...]:
    """Kinks and jumps of tail_T(s) * reset_density(s) inside (0, upper)."""
    pts = set()
    for law in (spec, reset.spec):
        pts.update(law.tail_breakpoints())
        if np.isfinite(law.t0):
            pts.add(float(law.t0))
    return tuple(p for p in pts if 0.0 < p < upper)


def _midpoint_weights(spec: DistributionSpec, reset: ResetLaw, h: float,
                      n: int, upper: float) -> np.ndarray:
    """Cell masses of tail_T(s) * reset_density(s), scaled by the step.

    Plain midpoint evaluation except where it degrades: cells straddling a
    breakpoint of the integrand get their mass piece by piece (otherwise
    the misassignment is O(h) and invisible to grid-halving comparison),
    and the first cells are integrated adaptively because tails and
    densities may have infinite derivatives at zero.
    """
    s = (np.arange(1, n + 1) - 0.5) * h

    def f(x):
        return np.asarray(spec.tail(x)) * np.asarray(reset.density(x))

    gh = h * f(s)
    head_cells = min(2, n)
    for j in range(1, head_cells + 1):
        val, _ = split_quad(f, (j - 1) * h, j * h,
                            points=(np.geomspace(h * 1e-10, h, 7)
                                    if j == 1 else ()))
        gh[j - 1] = val
    for b in _density_breakpoints(spec, reset, upper):
        j = int(math.floor(b / h)) + 1  # cell ((j-1)h, jh] contains b
        frac = b / h - (j - 1)
        if j > n or j <= head_cells or frac <= 1e-9 or frac >= 1.0 - 1e-9:
            continue
        lo, hi = (j - 1) * h, j * h
        left, _ = split_quad(f, lo, b)
        right, _ = split_quad(f, b, hi)
        gh[j - 1] = left + right
    return gh


def _renewal_fixed_point(spec: DistributionSpec, reset: ResetLaw,
                         upper: float, n: int) -> np.ndarray:
    """Forward solve of the restarted tail on the uniform grid i*upper/n.

    Step i of the trapezoid recursion sets y[i] from free[i] and a sum over
    y[0..i] whose weights depend only on the lag d: the density's weight is
    the mean mass of cells d and d + 1 (cell 0 has none), and an atom adds
    one tap on the grid or two between nodes, at the same lags for every
    i. So the recursion is one lower-triangular Toeplitz system in
    y[1..n], with the lag-0 weight on the diagonal and the terms in y[0]
    moved to the source.
    """
    h = upper / n
    if reset.has_density:
        gh = _midpoint_weights(spec, reset, h, n, upper)  # gh[i-1]: cell i
    else:
        gh = np.zeros(n)
    atoms = [(loc, w, float(spec.tail(loc))) for loc, w in reset.atoms()
             if loc <= upper + 1e-12]
    use_density = bool(np.any(gh != 0.0))

    def free_fn(x):
        return np.asarray(spec.tail(x)) * np.asarray(reset.tail(x))

    y = free_fn(np.arange(n + 1) * h)  # the free part, then the solution
    free0 = y[0]
    w0 = sum(w for loc, w, _ in atoms if loc == 0.0)
    f0 = float(spec.tail(0.0))
    if w0:
        y[0] /= 1.0 - f0 * w0

    # The solution can have infinite slope at 0 (inherited from the tail),
    # where linear interpolation is O(sqrt(h)) off. Near x = 0 the solution
    # equals its free part plus a smooth correction, so replacing the
    # trapezoid of the free part over the first two cells by its exact
    # integral removes the degradation; the adjustment is the same at
    # every step.
    if use_density:
        w_head0, _ = split_quad(free_fn, 0.0, h,
                                points=np.geomspace(h * 1e-10, h, 7))
        w_head1, _ = split_quad(free_fn, h, 2.0 * h)
        corr1 = w_head0 / h - 0.5 * (free0 + y[1])
        corr2 = w_head1 / h - 0.5 * (y[1] + y[2]) if n >= 2 else 0.0
        y[1:] += gh * (0.5 * y[0] + corr1)
        y[2:] += gh[:-1] * corr2
    kern = gh  # in place: kern[d], the weight of y[i - d] in step i
    kern[1:] += kern[:-1]
    kern *= 0.5
    for loc, w, f_loc in atoms:
        pos = loc / h
        lag = math.ceil(pos - 1e-9)  # the atom's first node at or past it
        theta = lag - pos if lag - pos > 1e-9 else 0.0  # cells before it
        mass = w * f_loc
        if lag < n:
            kern[lag] += mass * (1.0 - theta)
        if theta and lag <= n:
            kern[lag - 1] += mass * theta
        if 0 < lag <= n:  # step lag reaches back to y[0]
            y[lag] += mass * (1.0 - theta) * y[0]
    np.negative(kern, out=kern)  # the system's first column: 1 - kern[0],
    kern[0] += 1.0               # then -kern[d]
    _solve_lower_toeplitz(kern, y[1:])
    return y


def _solve_lower_toeplitz(a: np.ndarray, c: np.ndarray) -> None:
    """Overwrite c with z solving sum_{d<=k} a[d] z[k-d] = c[k], k < len(c).

    Blocked divide and conquer (Hairer, Lubich & Schlichte, SIAM J. Sci.
    Stat. Comput. 6, 1985) in O(n log^2 n): every diagonal block is a
    triangular solve with the same matrix, and as soon as the left half of
    a span of 2m cells is solved, its effect on the right half is
    subtracted by one FFT middle product of size 2m (the wrap-around of the
    circular convolution misses the cells kept). ``a`` needs len(c) entries.
    """
    from scipy.linalg import solve_triangular, toeplitz

    n = c.size
    b = min(_TOEPLITZ_BLOCK, n)
    tri = toeplitz(a[:b], np.zeros(b))
    for lo in range(0, n, b):
        hi = min(lo + b, n)
        c[lo:hi] = solve_triangular(tri[:hi - lo, :hi - lo], c[lo:hi],
                                    lower=True, check_finite=False)
        if hi == n:
            break
        # spans of 2m cells start at multiples of 2m, so [hi - m, hi) is a
        # left half for the largest such m
        m = b
        while hi % (2 * m) == 0:
            m *= 2
        prod = np.fft.rfft(c[hi - m:hi], 2 * m)
        prod *= np.fft.rfft(a[:2 * m], 2 * m)
        r = min(m, n - hi)
        c[hi:hi + r] -= np.fft.irfft(prod, 2 * m)[m:m + r]


def _snap_grid(reset: ResetLaw, upper: float, n: int,
               n_max: int) -> tuple[int, float]:
    """Align the uniform grid with the reset law's smallest atom.

    With atoms on the grid the recursion needs no interpolation there, so
    purely atomic reset laws solve exactly. The atom count per period is
    kept even so the halved comparison grid stays aligned too.
    """
    atoms = [loc for loc, _ in reset.atoms() if 0.0 < loc <= upper]
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


def solver_reset_tail(spec: DistributionSpec, reset: ResetLaw, upper: float,
                      *, tol: float = 1e-6, n0: int = 8192,
                      n_max: int = 131072) -> TailCurve:
    """Renewal-solve the restarted tail on [0, upper] with error control.

    The error is estimated by grid-halving comparison of the second-order
    scheme; the grid doubles until the estimate is within tolerance.
    """
    n = max(n0, 256)
    n_eff, upper_eff = _snap_grid(reset, upper, n, n_max)
    coarse = _renewal_fixed_point(spec, reset, upper_eff, n_eff // 2)
    while True:
        fine = _renewal_fixed_point(spec, reset, upper_eff, n_eff)
        err = float(np.max(np.abs(fine[::2] - coarse))) / 3.0
        if err <= tol or n_eff >= n_max:
            break
        coarse = fine
        n_eff *= 2  # doubling the cell count keeps atoms grid-aligned
    if err > tol:
        raise GridTooCoarseError(
            f"renewal solve error estimate {err:.3g} exceeds tolerance {tol:g} "
            f"at n={n_eff}")
    grid = np.arange(n_eff + 1) * (upper_eff / n_eff)
    vals = np.minimum.accumulate(np.clip(fine, 0.0, 1.0))
    return TailCurve(grid=tuple(grid), values=tuple(vals[:-1]),
                     terminal=float(vals[-1]), mode="log-linear",
                     err_estimate=err)


def reset_tail(spec: DistributionSpec, reset: ResetLaw, t_grid=None, *,
               tol: float = 1e-6, n0: int = 8192,
               n_max: int = 131072) -> TailCurve:
    """Tail of the repeatedly-restarted law on the requested grid.

    Deterministic restart uses the exact closed form; other reset laws go
    through the renewal solver and are interpolated onto the grid.
    """
    if t_grid is None:
        t_grid = dist.working_grid(spec)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        t_grid = np.concatenate([[0.0], t_grid])
    upper = float(t_grid[-1])
    if reset.kind == "deterministic":
        vals = np.asarray(deterministic_reset_tail(spec, reset.period, t_grid))
        vals = np.minimum.accumulate(np.clip(vals, 0.0, 1.0))
        return TailCurve(grid=tuple(t_grid), values=tuple(vals[:-1]),
                         terminal=float(vals[-1]), mode="log-linear",
                         err_estimate=0.0)
    solved = solver_reset_tail(spec, reset, upper, tol=tol, n0=n0, n_max=n_max)
    vals = np.interp(t_grid, solved.grid, solved.knot_values)
    vals = np.minimum.accumulate(np.clip(vals, 0.0, 1.0))
    return TailCurve(grid=tuple(t_grid), values=tuple(vals[:-1]),
                     terminal=float(vals[-1]), mode="log-linear",
                     err_estimate=solved.err_estimate)


def branching_reset_tail(spec: DistributionSpec, reset: ResetLaw, l: int,
                         upper: float, *, n: int = 8192,
                         depth_tol: float = 1e-9) -> TailCurve:
    """Tail under restart with l-fold branching, by truncated renewal passes.

    Cycle j+1 races l**j fresh copies, so the continuation law changes per
    cycle; the solve runs backward from a depth where the probability of
    ever reaching it is below ``depth_tol`` (reported as the error bound).
    """
    _check_branching(l)
    if l == 1:
        return solver_reset_tail(spec, reset, upper, tol=max(depth_tol, 1e-7))
    h = upper / n
    t_grid = np.arange(n + 1) * h
    log_tail_grid = np.asarray(spec.log_tail(t_grid))
    s_mid = (np.arange(1, n + 1) - 0.5) * h
    log_tail_mid = np.asarray(spec.log_tail(s_mid))
    tail_mid = np.exp(log_tail_mid)
    base_mass = _midpoint_weights(spec, reset, h, n, upper) \
        if reset.has_density else np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens_mass = np.where(tail_mid > 0.0, base_mass / tail_mid, 0.0)
    r_tail = np.asarray(reset.tail(t_grid))
    atoms = [(loc, w) for loc, w in reset.atoms() if loc <= upper + 1e-12]

    # choose truncation depth from the product of continue-probabilities
    depth = 1
    bound = 1.0
    while depth < 60:
        bound *= reset.expect_tail_power(spec, float(l) ** (depth - 1))
        if bound < depth_tol or bound == 0.0:
            break
        depth += 1

    g_next = np.zeros(n + 1)
    for j in range(depth - 1, -1, -1):
        m = float(l) ** j
        with np.errstate(over="ignore"):
            m_tail_grid = np.exp(np.clip(m * log_tail_grid, -745.0, 0.0))
            m_tail_mid = np.exp(np.clip(m * log_tail_mid, -745.0, 0.0))
        g_j = m_tail_grid * r_tail
        if np.any(dens_mass != 0.0):
            avg = 0.5 * (g_next[:-1] + g_next[1:])
            if j == 0:  # tail**0 is 1, also where the tail is 0
                m_ratio = 1.0
            else:
                with np.errstate(over="ignore"):
                    m_ratio = np.exp(np.clip((m - 1.0) * log_tail_mid,
                                             -745.0, 0.0))
            conv = np.convolve(dens_mass * m_ratio * tail_mid, avg)[:n]
            g_j[1:] += conv
        for loc, w in atoms:
            f_loc = float(np.exp(np.clip(m * float(spec.log_tail(loc)), -745.0, 0.0)))
            shifted = np.interp(np.clip(t_grid - loc, 0.0, None), t_grid, g_next)
            g_j[t_grid >= loc - 1e-12] += (w * f_loc * shifted)[t_grid >= loc - 1e-12]
        g_next = g_j
    vals = np.minimum.accumulate(np.clip(g_next, 0.0, 1.0))
    return TailCurve(grid=tuple(t_grid), values=tuple(vals[:-1]),
                     terminal=float(vals[-1]), mode="log-linear",
                     err_estimate=float(bound))


# ----------------------------------------------------------------------
# means


def _tail_integral(spec: DistributionSpec, a: float, b: float) -> float:
    """Integral of the tail over the finite window [a, b]."""
    pts = tuple(p for p in spec.tail_breakpoints() if a < p < b)
    val, _ = split_quad(lambda t: np.asarray(spec.tail(t)), a, b, points=pts)
    return val


def laplace_tail(spec: DistributionSpec, mu: float) -> float:
    """Weighted tail transform: integral of exp(-mu t) * tail(t) over [0, inf)."""
    if not mu > 0.0:
        raise ValueError("transform rate must be positive")
    if isinstance(spec, dist.Exponential) and spec.defect == 0.0:
        return 1.0 / (spec.rate + mu)
    upper = 42.0 / mu  # integrand below 1e-18 past here regardless of the law
    pts = tuple(p for p in spec.tail_breakpoints() if p < upper) \
        + tuple(np.geomspace(upper * 1e-6, upper, 7))
    val, _ = split_quad(lambda t: np.exp(-mu * np.asarray(t))
                        * np.asarray(spec.tail(t)), 0.0, upper, points=pts)
    return val


def reset_mean(spec: DistributionSpec, reset: ResetLaw) -> float:
    """Mean of the restarted law: E[T ^ R] / P(T <= R).

    Always finite for proper reset laws with integrable minimum; +inf when
    the numerator diverges (defective completion with defective reset).
    """
    if reset.kind == "deterministic":
        p_stop = float(np.asarray(dist.cdf(spec, reset.period)))
    else:
        p_stop = prob_completion_first(spec, reset)
    if not p_stop > 0.0:
        raise SpecValidationError(
            "restart never lets the run finish: P(T <= R) = 0")
    num = _expected_minimum(spec, reset)
    if not np.isfinite(num):
        return np.inf
    return num / p_stop


def _expected_minimum(spec: DistributionSpec, reset: ResetLaw) -> float:
    if reset.kind == "deterministic":
        return _tail_integral(spec, 0.0, reset.period)
    if reset.kind == "exponential":
        return laplace_tail(spec, reset.rate)
    if spec.mass_at_infinity > 0.0 and reset.mass_at_infinity > 0.0:
        return np.inf
    def f(t):
        return np.asarray(spec.tail(t)) * np.asarray(reset.tail(t))
    upper = 1.0
    for _ in range(120):
        # a bound whose tail factor is 0 is 0, even when its integral is inf
        rem = min(_bound_term(reset.tail(upper),
                              dist.mean_upper_rest(spec, upper)),
                  _bound_term(spec.tail(upper),
                              dist.mean_upper_rest(reset.spec, upper)))
        if rem < 1e-10:
            break
        upper *= 2.0
        if upper > 1e18:
            return np.inf
    pts = tuple(spec.tail_breakpoints()) + tuple(
        p for p, _ in reset.atoms()) + tuple(np.geomspace(min(1e-6 * upper, 1.0), upper, 7))
    val, _ = split_quad(f, 0.0, upper, points=tuple(p for p in pts if p < upper))
    return val + rem  # rem is an upper bound on what is left; below tolerance


def _bound_term(tail_value, rest) -> float:
    """tail_value * rest, which is 0 where the tail has already reached 0."""
    tail_value = float(tail_value)
    return 0.0 if tail_value == 0.0 else tail_value * float(rest)


def exp_reset_mean(spec: DistributionSpec, mu: float) -> float:
    """Mean under restart at constant rate mu, via the Laplace transform."""
    lt = laplace_tail(spec, mu)
    lap = 1.0 - mu * lt  # E[exp(-mu T)]
    if lap <= 0.0:
        raise SpecValidationError("degenerate transform; law has no mass")
    return lt / lap


# ----------------------------------------------------------------------
# branching closed forms and series


def _check_branching(l: int) -> None:
    if not (isinstance(l, (int, np.integer)) and l >= 1):
        raise ValueError(f"branching factor must be an integer >= 1, got {l!r}")


def branching_deterministic_tail(spec: DistributionSpec, r: float, l: int, t):
    """Tail under period-r restart with l-fold branching.

    On [kr, (k+1)r) the survivors are tail(r)**((l**k - 1)/(l - 1)) many
    completed cycles times the racing minimum tail(t - kr)**(l**k).
    """
    _check_branching(l)
    if not (r > 0.0 and math.isfinite(r)):
        raise InvalidPeriodError(f"restart period must be in (0, inf), got {r!r}")
    if l == 1:
        return deterministic_reset_tail(spec, r, t)
    t_arr = np.asarray(t, dtype=float)
    k = np.floor(t_arr / r)
    with np.errstate(over="ignore", invalid="ignore"):
        lk = np.power(float(l), k)
        exponent = (lk - 1.0) / (l - 1.0)
        log_fr = float(spec.log_tail(r))
        rem_log = np.asarray(spec.log_tail(t_arr - k * r))
        out = np.exp(np.clip(exponent * log_fr + lk * rem_log, -745.0, 0.0))
    out = np.where(np.isinf(t_arr) | np.isinf(lk), 0.0, out)
    return out if out.shape else float(out)


def _min_power_integral(spec: DistributionSpec, r: float, m: float) -> float:
    """Integral over [0, r] of tail(u)**m."""
    log_tail = spec.log_tail

    def f(u):
        return np.exp(np.clip(m * np.asarray(log_tail(u)), -745.0, 0.0))

    pts = tuple(p for p in spec.tail_breakpoints() if p < r) \
        + tuple(np.geomspace(r * 1e-12, r, 13))
    val, _ = split_quad(f, 0.0, r, points=pts)
    return val


def branching_mean_deterministic(spec: DistributionSpec, r: float, l: int) -> float:
    """Mean under period-r restart with l-fold branching (series form)."""
    _check_branching(l)
    if not (r > 0.0 and math.isfinite(r)):
        raise InvalidPeriodError(f"restart period must be in (0, inf), got {r!r}")
    if l == 1:
        p_done = float(np.asarray(dist.cdf(spec, r)))
        if p_done <= 0.0:
            raise SeriesNotConvergingError("tail(r) = 1; restart never completes")
        return _tail_integral(spec, 0.0, r) / p_done
    log_fr = float(spec.log_tail(r))
    total = 0.0
    for k in range(_SERIES_CAP):
        lk = float(l) ** k
        exponent = (lk - 1.0) / (l - 1.0)
        envelope = math.exp(max(exponent * log_fr, -745.0)) * r
        if envelope < _TRUNC * max(total, 1.0):
            return total
        total += math.exp(max(exponent * log_fr, -745.0)) \
            * _min_power_integral(spec, r, lk)
    raise SeriesNotConvergingError(
        f"branching series did not contract after {_SERIES_CAP} terms")


def _laplace_min_power(spec: DistributionSpec, mu: float, m: float) -> float:
    """Integral of exp(-mu t) tail(t)**m over [0, inf)."""
    log_tail = spec.log_tail
    upper = 42.0 / mu

    def f(t):
        t_arr = np.asarray(t)
        return np.exp(np.clip(-mu * t_arr + m * np.asarray(log_tail(t_arr)),
                              -745.0, 0.0))

    pts = tuple(p for p in spec.tail_breakpoints() if p < upper) \
        + tuple(np.geomspace(upper * 1e-12, upper, 13))
    val, _ = split_quad(f, 0.0, upper, points=pts)
    return val


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
