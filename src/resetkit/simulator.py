"""Seeded Monte Carlo realization of restart, single restart, and branching.

Replicates run in fixed blocks of ``_BLOCK``; block b draws from its own
stream keyed by (seed, b), in the manner of counter-based generators
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
Within a block every cycle draws one array of uniforms per law for the
replicates still running and maps it through the law's inverse tail, so
a replicate's draws depend only on the seed, its block and its place in
the block. Aggregation happens once, over the full replicate array, in
canonical order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec
from .reset_transform import ResetLaw, _check_branching

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "ExcessiveCensoringError",
    "ExcessiveBranchingError",
    "simulate_reset",
    "simulate_single_reset",
    "simulate_branching",
]

_BRANCH_CAP = 1_000_000
_CENSOR_LIMIT = 0.01
_BLOCK = 4096  # replicates per random stream


class ExcessiveBranchingError(RuntimeError):
    """A cycle would need more racing copies than the per-cycle cap."""


class ExcessiveCensoringError(RuntimeError):
    """Too many replicates were cut off at the cycle cap.

    The partial result is attached as ``.result``.
    """

    def __init__(self, message: str, result: "SimulationResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for a Monte Carlo run.

    ``max_cycles`` defaults to the smallest cap that makes the geometric
    bound P(R < T)**cap drop below 1e-6. ``probe_times`` defaults to a
    quantile spread of the completion law. ``parallel_chunks`` is accepted
    and validated but changes nothing: a run is one process, and its
    results are fixed by the seed alone.
    """

    replicates: int = 100_000
    seed: int = 0
    max_cycles: int | None = None
    probe_times: tuple[float, ...] | None = None
    parallel_chunks: int = 1
    branching_mode: str = "min-law"

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.branching_mode not in ("min-law", "direct"):
            raise ValueError(f"unknown branching mode {self.branching_mode!r}")
        if self.parallel_chunks < 1:
            raise ValueError("parallel_chunks must be >= 1")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.probe_times is not None and \
                not all(math.isfinite(t) for t in self.probe_times):
            raise ValueError(f"probe times must be finite, got {self.probe_times}")


@dataclass(frozen=True)
class SimulationResult:
    """Point estimates with their Monte Carlo error bars.

    The mean is taken over finite outcomes, with capped replicates entering
    at their accumulated time (a downward-conservative bias bounded by the
    censored fraction). Tail estimates count capped replicates at their
    accumulated time and infinite outcomes as exceeding every probe.
    """

    mean: float
    mean_se: float
    probe_times: tuple[float, ...]
    tail_probs: tuple[float, ...]
    tail_se: tuple[float, ...]
    censored_fraction: float
    n_capped: int
    n_infinite: int
    cycle_histogram: tuple[int, ...]
    replicates: int
    seed: int
    max_cycles: int
    kind: str
    branching: int = 1
    reset_label: str = ""
    times: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "branching": self.branching,
            "reset": self.reset_label,
            "replicates": self.replicates,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "mean": self.mean,
            "mean_se": self.mean_se,
            "probe_times": list(self.probe_times),
            "tail_probs": list(self.tail_probs),
            "tail_se": list(self.tail_se),
            "censored_fraction": self.censored_fraction,
            "n_capped": self.n_capped,
            "n_infinite": self.n_infinite,
            "cycle_histogram": list(self.cycle_histogram),
        }


def _auto_max_cycles(spec: DistributionSpec, reset: ResetLaw) -> int:
    p_cont = reset.expect_tail_power(spec, 1.0)
    if p_cont <= 0.0:
        return 16
    if p_cont >= 1.0:
        return 200_000
    need = math.log(1e-6) / math.log(p_cont)
    return int(min(max(math.ceil(need), 16), 200_000))


def _auto_probes(spec: DistributionSpec) -> tuple[float, ...]:
    levels = (0.85, 0.6, 0.4, 0.2, 0.05)
    lim = spec.mass_at_infinity
    pts = []
    for u in levels:
        target = lim + (float(spec.tail(0.0)) - lim) * u
        q = float(spec.isf(min(max(target, 1e-9), 0.999999)))
        if np.isfinite(q):
            pts.append(q)
    return tuple(sorted(set(pts))) or (1.0,)


def simulate_reset(spec: DistributionSpec, reset: ResetLaw,
                   config: SimulationConfig) -> SimulationResult:
    """Run the repeated-restart experiment and estimate its law."""
    return simulate_branching(spec, reset, 1, config)


def simulate_branching(spec: DistributionSpec, reset: ResetLaw, l: int,
                       config: SimulationConfig) -> SimulationResult:
    """Restart with l-fold branching; l = 1 is plain repeated restart.

    In min-law mode the racing minimum of m copies is drawn by one inverse
    transform at u**(1/m), which keeps the uniform stream identical to the
    non-branching simulation; direct mode draws all m copies and is only
    suitable for small branching loads.
    """
    return _simulate(spec, reset, l, config, single=False)


def simulate_single_reset(spec: DistributionSpec, reset: ResetLaw,
                          config: SimulationConfig, l: int = 1
                          ) -> SimulationResult:
    """One restart opportunity only, after which l copies race to
    completion: the restart loop whose second cycle draws no reset. Its
    cycle cap is ``config.max_cycles``, at most 2."""
    return _simulate(spec, reset, l, config, single=True)


def _simulate(spec: DistributionSpec, reset: ResetLaw, l: int,
              config: SimulationConfig, single: bool) -> SimulationResult:
    _check_branching(l)
    max_cycles = (min(config.max_cycles or 2, 2) if single else
                  config.max_cycles or _auto_max_cycles(spec, reset))
    n = config.replicates
    times = np.empty(n)
    cycles = np.empty(n, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    direct = config.branching_mode == "direct"

    for lo in range(0, n, _BLOCK):
        rng = np.random.default_rng((config.seed, lo // _BLOCK))
        alive = np.arange(lo, min(lo + _BLOCK, n))
        acc = np.zeros(alive.size)
        m, c = 1, 0
        while alive.size:
            if m > _BRANCH_CAP:
                raise ExcessiveBranchingError(
                    f"cycle {c + 1} would race {m} copies (cap {_BRANCH_CAP})")
            c += 1
            if direct and m > 1:
                t_draw = spec.isf(_max_uniforms(rng, alive.size, m))
            else:
                u = rng.random(alive.size)
                t_draw = spec.isf(u ** (1.0 / m) if m > 1 else u)
            r_draw = (np.full(alive.size, np.inf) if single and c == 2
                      else reset.spec.isf(rng.random(alive.size)))
            done = t_draw <= r_draw
            times[alive[done]] = acc[done] + t_draw[done]
            cycles[alive[done]] = c
            alive, acc = alive[~done], acc[~done] + r_draw[~done]
            if c >= max_cycles:
                times[alive] = acc
                capped[alive] = True
                cycles[alive] = c
                break
            m *= l

    return _assemble(spec, reset, times, cycles, capped, config, max_cycles,
                     "single_reset" if single else
                     "branching" if l > 1 else "reset", branching=l)


def _max_uniforms(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """Largest of m uniforms per row: the fastest of m racing copies.

    The inverse tail is nonincreasing, so the copy with the largest uniform
    finishes first. Uniforms are drawn a batch of rows at a time, at most
    max(m, _BLOCK) of them at once.
    """
    out = np.empty(rows)
    step = max(_BLOCK // m, 1)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        out[lo:hi] = rng.random((hi - lo, m)).max(axis=1)
    return out


def _assemble(spec, reset, times, cycles, capped, config, max_cycles, kind,
              branching: int = 1) -> SimulationResult:
    n = times.size
    finite = np.isfinite(times)
    n_infinite = int(n - finite.sum())
    n_capped = int(capped.sum())
    if finite.any():
        vals = times[finite]
        mean = float(vals.mean())
        mean_se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else np.inf
    else:
        mean, mean_se = np.inf, np.inf
    probes = config.probe_times or _auto_probes(spec)
    probes = tuple(float(p) for p in probes)
    tails, ses = [], []
    for p in probes:
        hit = float(np.mean(times > p))
        tails.append(hit)
        ses.append(math.sqrt(max(hit * (1.0 - hit), 0.0) / n))
    hist = np.bincount(cycles, minlength=1)
    censored = (n_capped + n_infinite) / n
    result = SimulationResult(
        mean=mean, mean_se=mean_se, probe_times=probes,
        tail_probs=tuple(tails), tail_se=tuple(ses),
        censored_fraction=censored, n_capped=n_capped, n_infinite=n_infinite,
        cycle_histogram=tuple(int(x) for x in hist),
        replicates=n, seed=config.seed, max_cycles=max_cycles, kind=kind,
        branching=branching, reset_label=reset.describe(), times=times)
    if censored > _CENSOR_LIMIT:
        raise ExcessiveCensoringError(
            f"{n_capped + n_infinite} of {n} replicates censored at the cycle "
            f"cap or at infinity ({censored:.2%} > {_CENSOR_LIMIT:.0%})", result)
    return result
