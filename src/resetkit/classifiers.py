"""Numeric verdicts for the universal-ordering conditions of a lifetime law.

Each condition is an inequality that must hold for every point of a grid;
verdicts are therefore grid-certified, never proofs. Margins are computed
in log-tail space where products of tiny tails would underflow, and a
verdict is only "fails" when the worst margin clears the tolerance; sub-
tolerance violations report "inconclusive".
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from . import mrl as mrl_mod
from . import reset_transform as rt
from ._integrate import convolution_log_integrand, gl_panel
from .distributions import DistributionSpec, MomentFunction

__all__ = [
    "Verdict",
    "ClassificationReport",
    "ClassifyConfig",
    "MomentTransferReport",
    "check_supermultiplicative",
    "check_lfold_supermultiplicative",
    "check_exp_reset_condition",
    "check_mean_conditions",
    "check_exp_mean_condition",
    "exp_mean_margin_from_curve",
    "check_second_order",
    "moment_transfer_check",
    "classify",
    "default_tolerance",
]

_FLOOR = 1e-12  # violations below this are indistinguishable from roundoff


@dataclass(frozen=True)
class Verdict:
    """Outcome of one grid-certified inequality check.

    ``margin`` is the worst signed slack (nonnegative means the inequality
    held there); ``witness`` locates it. ``status`` is one of holds, fails,
    inconclusive, undefined.
    """

    status: str
    margin: float
    tolerance: float
    witness: tuple | None = None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    def to_dict(self) -> dict:
        out = {"status": self.status, "margin": self.margin,
               "tolerance": self.tolerance}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.note:
            out["note"] = self.note
        return out


def _one_sided(margins: np.ndarray, witnesses, eps: float,
               note: str = "") -> Verdict:
    """Verdict for: margin >= 0 required everywhere (within tolerance)."""
    margins = np.asarray(margins, dtype=float)
    ok = ~np.isnan(margins)
    if margins.size == 0 or not ok.any():
        return Verdict("undefined", math.nan, eps, note=note or "no usable grid")
    idx = int(np.argmin(np.where(ok, margins, np.inf)))
    worst = float(margins[idx])
    witness = tuple(np.atleast_1d(witnesses[idx]).tolist()) \
        if witnesses is not None else None
    if worst >= -_FLOOR:
        return Verdict("holds", worst, eps, witness=witness, note=note)
    if worst >= -eps:
        return Verdict("inconclusive", worst, eps, witness=witness,
                       note=note or "violation below tolerance")
    return Verdict("fails", worst, eps, witness=witness, note=note)


def _two_sided(margins: np.ndarray, witnesses, eps: float,
               note: str = "") -> Verdict:
    """Verdict for: margin == 0 required everywhere (within tolerance)."""
    margins = np.asarray(margins, dtype=float)
    ok = ~np.isnan(margins)
    if margins.size == 0 or not ok.any():
        return Verdict("undefined", math.nan, eps, note=note or "no usable grid")
    dev = np.where(ok, np.abs(margins), -np.inf)
    idx = int(np.argmax(dev))
    worst = float(margins[idx])
    witness = tuple(np.atleast_1d(witnesses[idx]).tolist()) \
        if witnesses is not None else None
    if abs(worst) <= eps:
        return Verdict("holds", worst, eps, witness=witness, note=note)
    return Verdict("fails", worst, eps, witness=witness, note=note)


def default_tolerance(spec: DistributionSpec) -> float:
    """1e-9 for closed-form families, looser for discretized curves."""
    if isinstance(spec, dist.Tabulated):
        return max(1e-6, 3.0 * spec.curve.err_estimate)
    return 1e-9


# ----------------------------------------------------------------------
# grids


def _axis_grid(spec: DistributionSpec, upper: float | None = None,
               n_geo: int = 60, n_lin: int = 40) -> np.ndarray:
    if upper is None:
        upper = dist.default_horizon(spec)
    scale = dist.characteristic_scale(spec)
    pieces = [np.geomspace(min(1e-4 * scale, upper / 4.0), upper, n_geo),
              np.linspace(0.0, upper, n_lin)]
    bps = [b for b in spec.tail_breakpoints() if b < upper]
    if bps:
        b_arr = np.asarray(bps)
        pieces += [b_arr, b_arr / 2.0, np.minimum(b_arr * 1.5, upper),
                   np.minimum(b_arr + 1e-9, upper),
                   np.maximum(b_arr - 1e-9, 0.0)]
    return np.unique(np.concatenate([[0.0], *pieces]))


def _exp_condition_grid(spec: DistributionSpec, extend: bool) -> np.ndarray:
    upper = dist.default_horizon(spec)
    t0 = spec.t0
    if np.isfinite(t0):
        upper = min(max(upper, 2.5 * t0), 4.0 * t0)
    g = _axis_grid(spec, upper=upper, n_geo=48, n_lin=32)
    g = g[g > 0.0]
    if extend and not np.isfinite(t0):
        far = np.geomspace(upper, max(upper * 1e6, 1e6), 25)
        g = np.unique(np.concatenate([g, far]))
    return g


# ----------------------------------------------------------------------
# multiplicativity (dominance under arbitrary/deterministic restart)


def _pair_margins(spec: DistributionSpec, xs: np.ndarray, l: int = 1):
    """Log-space slack of tail(x) * tail(y)**l <= tail(x + y) on the grid."""
    h = -np.asarray(spec.log_tail(xs))  # nondecreasing, 0 at 0, may be inf
    hx = h[:, None]
    hy = h[None, :]
    hsum = -np.asarray(spec.log_tail(xs[:, None] + xs[None, :]))
    with np.errstate(invalid="ignore"):
        margins = hx + float(l) * hy - hsum
    # tail(x) * tail(y)**l == 0 makes the inequality vacuous
    vacuous = np.isinf(hx) | np.isinf(hy)
    margins = np.where(vacuous, np.inf, margins)
    return margins


def check_supermultiplicative(spec: DistributionSpec, grid=None,
                              eps: float | None = None,
                              variant: str = "super") -> Verdict:
    """Grid check of tail multiplicativity.

    ``variant`` selects supermultiplicative (restart cannot make the law
    bigger), submultiplicative (mirrored), or multiplicative (both).
    """
    eps = default_tolerance(spec) if eps is None else eps
    xs = np.asarray(grid, dtype=float) if grid is not None else _axis_grid(spec)
    margins = _pair_margins(spec, xs, l=1).ravel()
    pairs = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    if variant == "super":
        return _one_sided(margins, pairs, eps)
    if variant == "sub":
        return _one_sided(-margins, pairs, eps)
    if variant == "multiplicative":
        finite = np.where(np.isinf(margins), np.nan, margins)
        return _two_sided(finite, pairs, eps)
    raise ValueError(f"unknown variant {variant!r}")


def check_lfold_supermultiplicative(spec: DistributionSpec, l: int,
                                    grid=None, eps: float | None = None
                                    ) -> tuple[Verdict, Verdict]:
    """Branching analogue tail(x+y) >= tail(x) tail(y)**l, plus equality probe.

    The equality probe must fail for every law; a holds there signals the
    tolerance is too loose.
    """
    if l < 2:
        raise ValueError("branching check needs l >= 2")
    eps = default_tolerance(spec) if eps is None else eps
    xs = np.asarray(grid, dtype=float) if grid is not None else _axis_grid(spec)
    margins = _pair_margins(spec, xs, l=l).ravel()
    pairs = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    main = _one_sided(margins, pairs, eps)
    finite = np.where(np.isinf(margins), np.nan, margins)
    probe = _two_sided(finite, pairs, eps,
                       note="equality probe; must fail for every law")
    return main, probe


# ----------------------------------------------------------------------
# exponential-restart dominance condition


def _exp_reset_ratio(spec: DistributionSpec, t: float, l: int) -> float:
    """(1/t) int_0^t tail(u) tail(t-u)**l du, normalized by tail(t).

    Computed as an integral over v = u/t in log space so that deep tails
    neither underflow nor lose the sign of the comparison.
    """
    lf_t = float(spec.log_tail(t))
    weights, expo = convolution_log_integrand(spec, t, l)
    if math.isinf(lf_t):
        # past the support: the condition degenerates to "integral is zero"
        with np.errstate(over="ignore"):
            raw = float(weights @ np.exp(np.clip(expo, -745.0, 700.0)))
        return math.inf if raw > _FLOOR else 1.0
    expo = expo - lf_t
    with np.errstate(over="ignore"):
        vals = np.exp(np.clip(expo, -745.0, 700.0))
    vals = np.where(np.isinf(expo) & (expo > 0), np.inf, vals)
    return float(weights @ vals)


def check_exp_reset_condition(spec: DistributionSpec, t_grid=None,
                              eps: float | None = None, l: int = 1,
                              variant: str = "no_bigger") -> Verdict:
    """Convolution-average condition for ordering under constant-rate restart.

    For each grid t the average of tail(u) tail(t-u)**l over u in [0, t] is
    compared against tail(t); no_bigger requires <=, no_smaller >= (l = 1
    only), invariant equality.
    """
    eps = default_tolerance(spec) if eps is None else eps
    if t_grid is None:
        t_grid = _exp_condition_grid(spec, extend=l >= 2)
    t_grid = np.asarray(t_grid, dtype=float)
    t_grid = t_grid[t_grid > 0.0]
    ratios = np.array([_exp_reset_ratio(spec, float(t), l) for t in t_grid])
    if variant == "no_bigger":
        return _one_sided(1.0 - ratios, t_grid, eps)
    if l != 1:
        raise ValueError("no_smaller/invariant variants are defined for l = 1")
    if variant == "no_smaller":
        return _one_sided(ratios - 1.0, t_grid, eps)
    if variant == "invariant":
        return _two_sided(np.where(np.isinf(ratios), np.nan, ratios - 1.0),
                          t_grid, eps)
    raise ValueError(f"unknown variant {variant!r}")


# ----------------------------------------------------------------------
# mean conditions


def check_mean_conditions(spec: DistributionSpec, r_grid=None,
                          eps: float | None = None,
                          variant: str = "no_bigger") -> Verdict:
    """Residual-mean comparison m(r) vs the unconditional mean.

    no_bigger requires m(r) >= m0 on [0, t0); no_smaller the mirror image
    (which forces tail(0) = 1); invariant both. Margins are relative to m0.
    Infinite-mean laws get an undefined verdict.
    """
    eps = default_tolerance(spec) if eps is None else eps
    m0 = dist.mean(spec)
    if not np.isfinite(m0):
        return Verdict("undefined", math.nan, eps,
                       note="mean is infinite; condition undefined (m0=inf)")
    if r_grid is None:
        upper = dist.default_horizon(spec)
        if np.isfinite(spec.t0):
            upper = min(upper, float(spec.t0) * (1.0 - 1e-9))
        r_grid = _axis_grid(spec, upper=upper)
    r_grid = np.asarray(r_grid, dtype=float)
    r_grid = r_grid[(r_grid >= 0.0) & (r_grid < spec.t0)]
    m_vals = np.atleast_1d(np.asarray(mrl_mod.mrl_from_tail(spec, r_grid)))
    rel = (m_vals - m0) / m0
    note = ""
    if variant in ("no_smaller", "invariant") \
            and float(spec.tail(0.0)) < 1.0 - _FLOOR:
        note = "tail(0) < 1, which already rules out the no-smaller case"
    if variant == "no_bigger":
        return _one_sided(rel, r_grid, eps)
    if variant == "no_smaller":
        return _one_sided(-rel, r_grid, eps, note=note)
    if variant == "invariant":
        return _two_sided(rel, r_grid, eps, note=note)
    raise ValueError(f"unknown variant {variant!r}")


def exp_mean_margin_from_curve(m_fn, m0: float, mu: float,
                               upper: float | None = None,
                               n: int = 16384) -> float:
    """Relative slack of the rate-mu mean condition for a bare residual-mean profile.

    Positive means restart at rate mu would not increase the mean of a law
    whose residual-mean function were ``m_fn`` with unconditional mean
    ``m0``. The profile is taken at face value: this evaluates the
    inequality itself and does not require (m_fn, m0) to come from an
    actual law.
    """
    if upper is None:
        upper = 42.0 / mu
    knots = np.unique(np.concatenate([
        [0.0], np.geomspace(upper * 1e-9, upper, n // 2),
        np.linspace(0.0, upper, n // 2)]))

    def inv_m(t):
        return 1.0 / np.clip(np.asarray(m_fn(t), dtype=float), 1e-300, None)

    from ._integrate import gauss_legendre_cumulative
    cum = gauss_legendre_cumulative(inv_m, knots)
    integrand = np.exp(-mu * knots - cum)
    lhs = float(np.trapezoid(integrand, knots))
    rhs = 1.0 / (1.0 / m0 + mu)
    return (lhs - rhs) / rhs


def check_exp_mean_condition(spec: DistributionSpec, mu_grid=None,
                             eps: float | None = None,
                             variant: str = "no_bigger"
                             ) -> tuple[Verdict, dict[float, float]]:
    """Per-rate mean condition under constant-rate restart.

    Evaluates int_0^inf exp(-mu t - int_0^t du/m(u)) dt against
    1/(1/m0 + mu) for each mu. The inner exponential equals the integrated
    tail beyond t divided by m0, which is how it is computed here. Returns
    the aggregate verdict plus the per-mu relative margins.
    """
    eps = default_tolerance(spec) if eps is None else eps
    mu_grid = tuple(mu_grid) if mu_grid is not None else (0.1, 0.5, 1.0, 5.0)
    m0 = dist.mean(spec)
    if not np.isfinite(m0):
        return (Verdict("undefined", math.nan, eps,
                        note="mean is infinite; condition undefined (m0=inf)"),
                {float(mu): math.nan for mu in mu_grid})
    margins: dict[float, float] = {}
    for mu in mu_grid:
        upper = 42.0 / mu
        edges = np.unique(np.concatenate([
            [0.0], np.geomspace(upper * 1e-9, upper, 40),
            np.asarray([b for b in spec.tail_breakpoints() if b < upper]),
            [upper]]))
        nodes, weights = gl_panel(edges)
        rest = np.asarray(dist.mean_upper_rest(spec, nodes))
        lhs = float(weights @ (np.exp(-mu * nodes) * rest)) / m0
        rhs = 1.0 / (1.0 / m0 + mu)
        margins[float(mu)] = (lhs - rhs) / rhs
    vals = np.asarray(list(margins.values()))
    mus = np.asarray(list(margins.keys()))
    if variant == "no_bigger":
        verdict = _one_sided(vals, mus, eps)
    elif variant == "no_smaller":
        verdict = _one_sided(-vals, mus, eps)
    elif variant == "invariant":
        verdict = _two_sided(vals, mus, eps)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return verdict, margins


def check_second_order(spec: DistributionSpec,
                       eps: float | None = None) -> Verdict:
    """Second-moment criterion: E[T^2] >= 2 E[T]^2 (strict favours restart)."""
    eps = default_tolerance(spec) if eps is None else eps
    m0 = dist.mean(spec)
    s2 = dist.second_moment(spec)
    if not np.isfinite(m0):
        return Verdict("undefined", math.nan, eps,
                       note="mean is infinite; comparison undefined")
    if not np.isfinite(s2):
        return Verdict("holds", math.inf, eps,
                       note="second moment infinite: trivially met (strict)")
    rel = (s2 - 2.0 * m0 * m0) / (2.0 * m0 * m0)
    if rel > eps:
        return Verdict("holds", rel, eps, note="strict")
    if rel >= -eps:
        return Verdict("holds", rel, eps, note="equality within tolerance")
    return Verdict("fails", rel, eps)


# ----------------------------------------------------------------------
# moment transfer


@dataclass(frozen=True)
class MomentTransferReport:
    """Diagnostic comparison of a G-moment before and after restart."""

    base_value: float
    transformed_value: float
    remainder_estimate: float
    base_finite: bool
    transformed_finite: bool
    direction: str | None = None
    consistent: bool | None = None

    def to_dict(self) -> dict:
        return {
            "base_value": self.base_value,
            "transformed_value": self.transformed_value,
            "remainder_estimate": self.remainder_estimate,
            "base_finite": self.base_finite,
            "transformed_finite": self.transformed_finite,
            "direction": self.direction,
            "consistent": self.consistent,
        }


def moment_transfer_check(spec: DistributionSpec, reset: rt.ResetLaw,
                          g: MomentFunction,
                          direction: str | None = None) -> MomentTransferReport:
    """Numerically compare E[G(T)] with the same moment after restart.

    Diagnostic only: the transformed moment is a quadrature against the
    restarted tail out to where it has geometrically decayed, with the
    leftover reported as an estimate, not a rigorous bound.
    """
    base = dist.g_moment(spec, g)
    if g.kind == "identity":
        val = rt.reset_mean(spec, reset)
        rem = 0.0
    elif g.kind == "indicator_above":
        if reset.kind == "deterministic":
            val = float(rt.deterministic_reset_tail(spec, reset.period,
                                                    g.threshold))
        else:
            curve = rt.solver_reset_tail(spec, reset,
                                         max(2.0 * g.threshold, 1.0), tol=1e-7)
            val = float(curve(g.threshold))
        rem = 0.0
    else:
        val, rem = _transformed_power_moment(spec, reset, g.power)
    t_finite = np.isfinite(val) and rem < max(1e-6 * max(abs(val), 1.0), 1e-9)
    consistent = None
    if direction == "no_bigger":
        consistent = (not np.isfinite(base)) or bool(t_finite)
    elif direction == "no_smaller":
        consistent = bool(np.isfinite(base)) or not bool(t_finite)
    return MomentTransferReport(
        base_value=base, transformed_value=val, remainder_estimate=rem,
        base_finite=bool(np.isfinite(base)), transformed_finite=bool(t_finite),
        direction=direction, consistent=consistent)


def _transformed_power_moment(spec: DistributionSpec, reset: rt.ResetLaw,
                              p: float) -> tuple[float, float]:
    if reset.kind == "deterministic":
        r = reset.period
        fr = float(spec.tail(r))
        if fr >= 1.0:
            return math.inf, math.inf

        def tail_fn(t):
            return np.asarray(rt.deterministic_reset_tail(spec, r, t))

        upper = r * (1.0 + math.log(1e-14) / math.log(max(fr, 1e-300)))
    else:
        upper = max(dist.default_horizon(spec), reset.horizon())
        curve = None
        for _ in range(8):
            curve = rt.solver_reset_tail(spec, reset, upper, tol=1e-7)
            if curve.terminal < 1e-10:
                break
            upper *= 2.0

        def tail_fn(t):
            return np.asarray(curve(np.asarray(t, dtype=float)))

    edges = np.unique(np.concatenate([
        [0.0], np.geomspace(max(upper * 1e-9, 1e-12), upper, 60), [upper]]))
    nodes, weights = gl_panel(edges)
    vals = p * nodes ** (p - 1.0) * tail_fn(nodes)
    head = float(weights @ vals)
    tail_end = float(tail_fn(upper))
    rem = tail_end * max((2.0 * upper) ** p - upper ** p, 0.0)
    return head + rem, rem


# ----------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class ClassifyConfig:
    """Grids and tolerances for a full classification run."""

    eps: float | None = None
    mu_grid: tuple[float, ...] = (0.1, 0.5, 1.0, 5.0)
    lfolds: tuple[int, ...] = (2, 3)
    xy_grid: tuple[float, ...] | None = None
    t_grid: tuple[float, ...] | None = None
    r_grid: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ClassificationReport:
    """All condition verdicts for one law, plus the implication matrix."""

    conditions: dict[str, Verdict]
    per_mu_margins: dict[str, dict[float, float]]
    exponential_flag: bool
    implications: tuple[dict, ...]
    metadata: dict = field(default_factory=dict)

    def verdict(self, name: str) -> Verdict:
        return self.conditions[name]

    def to_dict(self) -> dict:
        return {
            "conditions": {k: v.to_dict() for k, v in self.conditions.items()},
            "per_mu_margins": {k: {str(mu): m for mu, m in d.items()}
                               for k, d in self.per_mu_margins.items()},
            "exponential_flag": self.exponential_flag,
            "implications": list(self.implications),
            "metadata": self.metadata,
        }


_IMPLICATIONS = (
    ("no_bigger_reset", "no_bigger_exp_reset"),
    ("no_bigger_reset", "no_bigger_mean"),
    ("no_bigger_exp_reset", "no_bigger_exp_mean"),
    ("no_bigger_mean", "no_bigger_exp_mean"),
    ("no_smaller_reset", "no_smaller_exp_reset"),
    ("no_smaller_reset", "no_smaller_mean"),
    ("no_smaller_exp_reset", "no_smaller_exp_mean"),
    ("no_smaller_mean", "no_smaller_exp_mean"),
)


def classify(spec: DistributionSpec,
             config: ClassifyConfig | None = None) -> ClassificationReport:
    """Run every ordering check on one law with shared grids."""
    cfg = config or ClassifyConfig()
    eps = cfg.eps if cfg.eps is not None else default_tolerance(spec)
    xy = np.asarray(cfg.xy_grid, dtype=float) if cfg.xy_grid is not None \
        else _axis_grid(spec)

    conditions: dict[str, Verdict] = {}
    per_mu: dict[str, dict[float, float]] = {}

    pairs = np.stack(np.meshgrid(xy, xy, indexing="ij"), axis=-1).reshape(-1, 2)
    margins = _pair_margins(spec, xy, l=1).ravel()
    conditions["no_bigger_reset"] = _one_sided(margins, pairs, eps)
    conditions["no_smaller_reset"] = _one_sided(-margins, pairs, eps)
    conditions["invariant_reset"] = _two_sided(
        np.where(np.isinf(margins), np.nan, margins), pairs, eps)

    t_grid = np.asarray(cfg.t_grid, dtype=float) if cfg.t_grid is not None \
        else None
    conditions["no_bigger_exp_reset"] = check_exp_reset_condition(
        spec, t_grid, eps, l=1, variant="no_bigger")
    conditions["no_smaller_exp_reset"] = check_exp_reset_condition(
        spec, t_grid, eps, l=1, variant="no_smaller")
    conditions["invariant_exp_reset"] = check_exp_reset_condition(
        spec, t_grid, eps, l=1, variant="invariant")

    r_grid = np.asarray(cfg.r_grid, dtype=float) if cfg.r_grid is not None \
        else None
    for variant in ("no_bigger", "no_smaller", "invariant"):
        conditions[f"{variant}_mean"] = check_mean_conditions(
            spec, r_grid, eps, variant=variant)

    for variant in ("no_bigger", "no_smaller"):
        verdict, margins_mu = check_exp_mean_condition(
            spec, cfg.mu_grid, eps, variant=variant)
        conditions[f"{variant}_exp_mean"] = verdict
        per_mu[f"{variant}_exp_mean"] = margins_mu

    conditions["second_order"] = check_second_order(spec, eps)

    for l in cfg.lfolds:
        main, probe = check_lfold_supermultiplicative(spec, l, xy, eps)
        conditions[f"lfold_no_bigger_{l}"] = main
        conditions[f"lfold_invariance_probe_{l}"] = probe
        conditions[f"lfold_exp_no_bigger_{l}"] = check_exp_reset_condition(
            spec, t_grid, eps, l=l, variant="no_bigger")

    # the arbitrary and deterministic restart classes provably coincide
    conditions["no_bigger_deterministic_reset"] = conditions["no_bigger_reset"]
    conditions["no_smaller_deterministic_reset"] = conditions["no_smaller_reset"]
    conditions["no_bigger_deterministic_mean"] = conditions["no_bigger_mean"]
    conditions["no_smaller_deterministic_mean"] = conditions["no_smaller_mean"]

    exponential_flag = conditions["invariant_reset"].holds

    implications = []
    for ante, cons in _IMPLICATIONS:
        a = conditions[ante]
        c = conditions[cons]
        applicable = a.status != "undefined" and c.status != "undefined"
        implications.append({
            "antecedent": ante, "consequent": cons,
            "antecedent_holds": a.holds, "consequent_holds": c.holds,
            "applicable": applicable,
            "consistent": (not applicable) or (not a.holds) or c.holds,
        })

    m0 = dist.mean(spec)
    meta = {
        "eps": eps,
        "xy_grid_size": int(xy.size),
        "mu_grid": list(cfg.mu_grid),
        "lfolds": list(cfg.lfolds),
        "mean": m0 if np.isfinite(m0) else "inf",
        "mass_at_infinity": spec.mass_at_infinity,
    }
    return ClassificationReport(conditions=conditions, per_mu_margins=per_mu,
                                exponential_flag=exponential_flag,
                                implications=tuple(implications),
                                metadata=meta)
