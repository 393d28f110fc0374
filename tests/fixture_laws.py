"""Shared example laws and reset laws used across the test suite."""
from __future__ import annotations

import numpy as np

from resetkit import distributions as dist
from resetkit import mrl
from resetkit import reset_transform as rt


def exp_law(rate: float = 1.0) -> dist.Exponential:
    return dist.Exponential(rate=rate)


def weib(shape: float) -> dist.Weibull:
    return dist.Weibull(shape=shape)


def sps(offset: float = 0.5) -> dist.ShiftedParetoSquare:
    return dist.ShiftedParetoSquare(offset=offset)


def levy(level: float = 1.0) -> dist.LevyFirstPassage:
    return dist.LevyFirstPassage(level=level)


def step_law(breakpoints, levels, **kw) -> dist.Tabulated:
    """Pure-jump law: ``levels[i]`` is the tail on [breakpoints[i],
    breakpoints[i+1]), the last level extending to infinity."""
    return dist.Tabulated(curve=dist.piecewise_curve(breakpoints, levels),
                          **kw)


def pw_sixth() -> dist.Tabulated:
    """Step tail 1/2, 1/4, 1/6 with the last sixth stuck at infinity."""
    return step_law((0.0, 1.0, 1.5), (0.5, 0.25, 1.0 / 6.0))


def pw_finite() -> dist.Tabulated:
    """Finite-mean variant of the step tail (drops to zero at t=2)."""
    return step_law((0.0, 1.0, 1.5, 2.0), (0.5, 0.25, 1.0 / 6.0, 0.0))


def pe_law(segments, defect: float = 0.0,
           check_standing: bool = True) -> dist.Tabulated:
    """Piecewise-exponential law, read from its ``piecewise_exp`` spelling:
    segment (start, offset, rate) is the tail exp(-(offset + rate * (t -
    start))) up to the next start, the last segment extending to infinity."""
    return dist.spec_from_dict({"family": "piecewise_exp",
                                "params": {"segments": segments},
                                "mass_at_infinity": defect,
                                "check_standing": check_standing})


def pe_mean_only() -> dist.Tabulated:
    """exp(-t-0.1) before t=1, exp(-t-0.25) after: helped in mean only."""
    return pe_law(((0.0, 0.1, 1.0), (1.0, 1.25, 1.0)))


def plateau() -> dist.Tabulated:
    """A jump law: exp(-t) before t=1, where the tail drops from exp(-1)
    to exp(-2), flat exp(-2) on [1, 2], and exp(-t) again after t=2."""
    return pe_law(((0.0, 0.0, 1.0), (1.0, 2.0, 0.0), (2.0, 2.0, 1.0)))


def uniform02() -> mrl.FromMrl:
    """Uniform law on [0, 2], generated from its linear residual mean."""
    return mrl.law_from_mrl(mrl.MrlCurve(grid=(0.0, 1.0), values=(1.0, 0.5),
                                         terminal="linear"))


def two_atom_reset() -> rt.ResetLaw:
    """Reset at 0.5 or 1.5 with equal chances (needs relaxed standing)."""
    spec = step_law((0.0, 0.5, 1.5), (1.0, 0.5, 0.0), check_standing=False)
    return rt.ResetLaw.general(spec)


FINITE_MEAN_LAWS = {
    "exp1": exp_law,
    "weib05": lambda: weib(0.5),
    "weib2": lambda: weib(2.0),
    "sps05": sps,
    "pw_finite": pw_finite,
    "pe_mean_only": pe_mean_only,
    "plateau": plateau,
    "uniform02": uniform02,
}

ALL_LAWS = dict(FINITE_MEAN_LAWS, levy=levy, pw_sixth=pw_sixth)


def standard_resets() -> dict[str, rt.ResetLaw]:
    return {
        "det05": rt.ResetLaw.deterministic(0.5),
        "det1": rt.ResetLaw.deterministic(1.0),
        "exp1": rt.ResetLaw.exponential(1.0),
        "uniform02": rt.ResetLaw.general(uniform02()),
        "two_atom": two_atom_reset(),
    }


def brute_tail_integral(spec, a: float, b: float, n: int = 400_001) -> float:
    """Independent dense trapezoid integral of the tail over [a, b].

    The grid is half linear, half geometric so heavy tails concentrated
    near zero are resolved; breakpoints are included explicitly.
    """
    lo = max(a, (b - a) * 1e-10)
    grid = np.unique(np.concatenate([
        np.linspace(a, b, n // 2),
        np.geomspace(lo if lo > 0 else 1e-12, b, n // 2),
        np.asarray([p for p in spec.tail_breakpoints() if a < p < b]),
        [a, b]]))
    vals = np.asarray(spec.tail(grid))
    return float(np.trapezoid(vals, grid))
