"""Reference answers computed by routes independent of the code under test.

* ``renewal_tail`` solves the restart renewal equation (with l-fold
  branching) by its own discretisation: cell masses on a grid aligned with
  every breakpoint, a trapezoid pairing, and FFT convolutions. It shares
  nothing with ``reset_transform``'s forward solver or backward branching
  pass except the law's tail and the reset law's density.
* ``restart_mean`` and ``single_reset_mean`` integrate E[min(T, R)] and
  P(T > R) with scipy.quad, split at the breakpoints of both laws.
* ``improves_on_scan`` decides whether exponential restart helps from a
  log-grid scan, not from the optimizer's golden-section search.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.signal import fftconvolve

_TRUNC = 1e-13


def _kernel(spec, reset, upper: float, n: int, power: float):
    """Convolution kernel of one cycle racing ``power`` copies.

    Density mass of cell j, ((j-1)h, jh], is split evenly between the two
    endpoints it pairs with; ``lo`` holds the half paired with the later
    endpoint, which is subtracted where the cell lies past t.
    """
    h = upper / n
    mid = (np.arange(1, n + 1) - 0.5) * h
    cell = h * np.asarray(reset.density(mid)) \
        * np.asarray(spec.tail(mid)) ** power
    c = np.zeros(n + 1)
    c[:-1] += 0.5 * cell
    c[1:] += 0.5 * cell
    lo = np.append(0.5 * cell, 0.0)
    for loc, w in reset.atoms():
        if loc > upper:
            continue
        m = loc / h
        if abs(m - round(m)) > 1e-6:
            raise ValueError(f"reset atom {loc} is off the reference grid")
        c[int(round(m))] += w * float(spec.tail(loc)) ** power
    return c, lo


def renewal_tail(spec, reset, upper: float, n: int, l: int = 1):
    """Tail of the restarted law on ``i * upper / n``, i = 0..n.

    Cycle j races l**j copies; the recursion runs backward from the depth
    where the chance of reaching it drops below 1e-13. For l = 1 every
    cycle is alike and the geometric series of the kernel is summed by
    repeated squaring.
    """
    h = upper / n
    t = np.arange(n + 1) * h
    tail = np.asarray(spec.tail(t))
    reset_tail = np.asarray(reset.tail(t))
    if l == 1:
        c, lo = _kernel(spec, reset, upper, n, 1.0)
        free = tail * reset_tail
        y = free - lo * free[0]
        power = c
        reach = c.sum()
        while reach > _TRUNC:
            y = y + fftconvolve(power, y)[: n + 1]
            power = fftconvolve(power, power)[: n + 1]
            reach = reach * reach
        return t, y
    kernels = []
    reach = 1.0
    while reach > _TRUNC and len(kernels) < 200:
        kernels.append(_kernel(spec, reset, upper, n, float(l) ** len(kernels)))
        reach *= kernels[-1][0].sum()
    y = tail ** (float(l) ** len(kernels)) * reset_tail
    for j in range(len(kernels) - 1, -1, -1):
        c, lo = kernels[j]
        y = tail ** (float(l) ** j) * reset_tail \
            + fftconvolve(c, y)[: n + 1] - lo * y[0]
    return t, y


def _race(spec, reset) -> tuple[float, float]:
    """(E[min(T, R)], P(T > R)) by scipy.quad split at every breakpoint of
    both laws, including the knots where a reset density jumps."""
    pts = {float(p) for p in spec.tail_breakpoints()}
    pts |= {float(a) for a, _ in reset.atoms()}
    if reset.spec is not None:
        pts |= {float(p) for p in reset.spec.tail_breakpoints()}
    upper = 200.0
    edges = [0.0] + sorted(p for p in pts if 0.0 < p < upper) + [upper]

    def quad(fn):
        total = sum(integrate.quad(fn, a, b, limit=200, epsabs=1e-13)[0]
                    for a, b in zip(edges[:-1], edges[1:]))
        return total + integrate.quad(fn, upper, np.inf, limit=200)[0]

    e_min = quad(lambda s: float(spec.tail(s)) * float(reset.tail(s)))
    p_cont = sum(w * float(spec.tail(a)) for a, w in reset.atoms())
    p_cont += quad(lambda s: float(spec.tail(s)) * float(reset.density(s)))
    return e_min, p_cont


def restart_mean(spec, reset) -> tuple[float, float]:
    """(mean under repeated restart, P(T <= R)) = E[min(T, R)] / P(T <= R)."""
    e_min, p_cont = _race(spec, reset)
    return e_min / (1.0 - p_cont), 1.0 - p_cont


def single_reset_mean(spec, reset, bare_mean: float) -> float:
    """E[T'] with one restart: E[min(T, R)] + P(T > R) E[T]."""
    e_min, p_cont = _race(spec, reset)
    return e_min + p_cont * bare_mean


def improves_on_scan(exp_reset_mean, bare_mean: float, scale: float,
                     per_decade: int = 10) -> tuple[bool, float, float]:
    """(improves, best rate, best mean) over a log grid of restart rates.

    The grid spans the optimizer's default bracket [1e-3, 1e3] / scale.
    """
    rates = np.geomspace(1e-3 / scale, 1e3 / scale, 6 * per_decade + 1)
    means = np.array([exp_reset_mean(mu) for mu in rates])
    best = int(np.argmin(means))
    improves = bool(math.isfinite(bare_mean)
                    and means[best] < bare_mean * (1.0 - 1e-6))
    return improves, float(rates[best]), float(means[best])
