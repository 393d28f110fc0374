"""Numeric verdicts for the universal-ordering conditions of a lifetime law.

Each condition is an inequality that must hold for every point of a grid;
verdicts are therefore grid-certified, never proofs. A condition's margins
are computed once and read three ways: no_bigger (restart cannot make the
law bigger), no_smaller (the mirror image) and invariant (equality), so
every public check returns a ``{reading: Verdict}`` dict. Margins are
computed in log-tail space where products of tiny tails would underflow,
and a verdict is only "fails" when the worst margin clears the tolerance;
sub-tolerance violations report "inconclusive".
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import distributions as dist
from . import mrl as mrl_mod
from . import reset_transform as rt
from ._integrate import (convolution_sums, cumulative, kinks,
                         positive_points, quad)
from .distributions import DistributionSpec, MomentFunction

__all__ = [
    "Verdict",
    "ClassificationReport",
    "ClassifyConfig",
    "MomentTransferReport",
    "check_supermultiplicative",
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
_READINGS = ("no_bigger", "no_smaller", "invariant")


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


def _verdict(margins: np.ndarray, witnesses, eps: float,
             equality: bool = False) -> Verdict:
    """Verdict for margin >= 0 everywhere, or with ``equality`` for margin
    == 0, within tolerance; only one-sided checks can be inconclusive."""
    margins = np.asarray(margins, dtype=float)
    ok = ~np.isnan(margins)
    if margins.size == 0 or not ok.any():
        return Verdict("undefined", math.nan, eps, note="no usable grid")
    if equality:
        idx = int(np.argmax(np.where(ok, np.abs(margins), -np.inf)))
    else:
        idx = int(np.argmin(np.where(ok, margins, np.inf)))
    worst = float(margins[idx])
    witness = tuple(np.atleast_1d(witnesses[idx]).tolist())
    if (abs(worst) <= eps) if equality else (worst >= -_FLOOR):
        return Verdict("holds", worst, eps, witness=witness)
    if not equality and worst >= -eps:
        return Verdict("inconclusive", worst, eps, witness=witness,
                       note="violation below tolerance")
    return Verdict("fails", worst, eps, witness=witness)


def _verdicts(margins: np.ndarray, witnesses, eps: float,
              smaller: np.ndarray | None = None,
              equal: np.ndarray | None = None) -> dict[str, Verdict]:
    """The three readings of one condition's margins.

    ``margins`` is the no-bigger slack, nonnegative where that inequality
    holds. no_smaller needs the mirror slack ``smaller`` (default
    ``-margins``) to be nonnegative; invariant needs the deviation ``equal``
    (default ``margins``) to vanish, skipping infinite (vacuous) points.
    """
    smaller = -margins if smaller is None else smaller
    equal = margins if equal is None else equal
    return {"no_bigger": _verdict(margins, witnesses, eps),
            "no_smaller": _verdict(smaller, witnesses, eps),
            "invariant": _verdict(np.where(np.isinf(equal), np.nan, equal),
                                  witnesses, eps, equality=True)}


def default_tolerance(spec: DistributionSpec) -> float:
    """1e-9, or three times a tabulated curve's error estimate if larger."""
    err = spec.curve.err_estimate if isinstance(spec, dist.Tabulated) else 0.0
    return max(1e-9, 3.0 * err)


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


def _exp_condition_grids(spec: DistributionSpec
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The t grid for l = 1 and, for unbounded support, its extension for
    l >= 2 out to 1e6 horizons, where the branching condition can first fail."""
    upper = dist.default_horizon(spec)
    t0 = spec.t0
    if np.isfinite(t0):
        upper = min(max(upper, 2.5 * t0), 4.0 * t0)
    g = _axis_grid(spec, upper=upper, n_geo=48, n_lin=32)
    g = g[g > 0.0]
    if np.isfinite(t0):
        return g, g
    far = np.geomspace(upper, max(upper * 1e6, 1e6), 25)
    return g, np.unique(np.concatenate([g, far]))


# ----------------------------------------------------------------------
# multiplicativity (dominance under arbitrary/deterministic restart)


def _pair_margins(spec: DistributionSpec, xs: np.ndarray,
                  ls) -> list[np.ndarray]:
    """Log-space slack of tail(x) * tail(y)**l <= tail(x + y) over the
    raveled (x, y) pairs, one array per l in ``ls``."""
    h = -np.asarray(spec.log_tail(xs))  # nondecreasing, 0 at 0, may be inf
    hx = h[:, None]
    hy = h[None, :]
    hsum = -np.asarray(spec.log_tail(xs[:, None] + xs[None, :]))
    # tail(x) * tail(y)**l == 0 makes the inequality vacuous
    vacuous = np.isinf(hx) | np.isinf(hy)
    out = []
    for l in ls:
        with np.errstate(invalid="ignore"):
            margins = hx + float(l) * hy - hsum
        out.append(np.where(vacuous, np.inf, margins).ravel())
    return out


def _pair_verdicts(margins: np.ndarray, xs: np.ndarray, eps: float,
                   l: int) -> dict[str, Verdict]:
    pairs = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    verdicts = _verdicts(margins, pairs, eps)
    if l == 1:
        return verdicts
    probe = replace(verdicts["invariant"],
                    note="equality probe; must fail for every law")
    return {"no_bigger": verdicts["no_bigger"], "invariant": probe}


def check_supermultiplicative(spec: DistributionSpec, grid=None,
                              eps: float | None = None,
                              l: int = 1) -> dict[str, Verdict]:
    """Grid check of tail(x) tail(y)**l <= tail(x + y).

    For l = 1 the readings are supermultiplicative (no_bigger: restart
    cannot make the law bigger), submultiplicative (no_smaller) and
    multiplicative (invariant). For l >= 2 (branching restart) invariant
    is an equality probe that must fail for every law; a holds there
    signals the tolerance is too loose.
    """
    eps = default_tolerance(spec) if eps is None else eps
    xs = np.asarray(grid, dtype=float) if grid is not None else _axis_grid(spec)
    return _pair_verdicts(_pair_margins(spec, xs, (l,))[0], xs, eps, l)


# ----------------------------------------------------------------------
# exponential-restart dominance condition


def _exp_reset_ratios(spec: DistributionSpec, t_grid: np.ndarray,
                      ls) -> np.ndarray:
    """(1/t) int_0^t tail(u) tail(t-u)**l du, normalized by tail(t).

    One row per l in ``ls``, one column per t. Computed as an integral over
    v = u/t in log space so that deep tails neither underflow nor lose the
    sign of the comparison; the log tails at the nodes are evaluated once
    for every t and shared by every l.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    lf_t = np.asarray(spec.log_tail(t_grid))
    past = np.isinf(lf_t)
    ratios = convolution_sums(spec, t_grid, ls, np.where(past, 0.0, lf_t),
                              700.0)
    # past the support the condition is "the integral is zero"
    return np.where(past, np.where(ratios > _FLOOR, math.inf, 1.0), ratios)


def _exp_reset_verdicts(ratios: np.ndarray, t_grid: np.ndarray, eps: float,
                        l: int) -> dict[str, Verdict]:
    # 1.0 - ratios and ratios - 1.0 are each other's negation except at a
    # ratio of exactly 1, where both are +0.0; -(ratios - 1.0) would be -0.0
    if l != 1:
        return {"no_bigger": _verdict(1.0 - ratios, t_grid, eps)}
    excess = ratios - 1.0
    return _verdicts(1.0 - ratios, t_grid, eps, smaller=excess, equal=excess)


def check_exp_reset_condition(spec: DistributionSpec, t_grid=None,
                              eps: float | None = None,
                              l: int = 1) -> dict[str, Verdict]:
    """Convolution-average condition for ordering under constant-rate restart.

    For each grid t the average of tail(u) tail(t-u)**l over u in [0, t] is
    compared against tail(t): no_bigger requires <=, no_smaller >=,
    invariant equality. For l >= 2 only no_bigger is returned. Raises
    ValueError for a non-finite grid point.
    """
    eps = default_tolerance(spec) if eps is None else eps
    if t_grid is None:
        near, wide = _exp_condition_grids(spec)
        t_grid = wide if l >= 2 else near
    t_grid = positive_points(t_grid)
    ratios = _exp_reset_ratios(spec, t_grid, (l,))[0]
    return _exp_reset_verdicts(ratios, t_grid, eps, l)


# ----------------------------------------------------------------------
# mean conditions


def _undefined_mean(eps: float) -> dict[str, Verdict]:
    undefined = Verdict("undefined", math.nan, eps,
                        note="mean is infinite; condition undefined (m0=inf)")
    return dict.fromkeys(_READINGS, undefined)


def check_mean_conditions(spec: DistributionSpec, r_grid=None,
                          eps: float | None = None) -> dict[str, Verdict]:
    """Residual-mean comparison m(r) vs the unconditional mean.

    no_bigger requires m(r) >= m0 on [0, t0); no_smaller the mirror image
    (which forces tail(0) = 1); invariant both. Margins are relative to m0.
    Infinite-mean laws get undefined verdicts.
    """
    eps = default_tolerance(spec) if eps is None else eps
    m0 = dist.mean(spec)
    if not np.isfinite(m0):
        return _undefined_mean(eps)
    if r_grid is None:
        upper = dist.default_horizon(spec)
        if np.isfinite(spec.t0):
            upper = min(upper, float(spec.t0) * (1.0 - 1e-9))
        r_grid = _axis_grid(spec, upper=upper)
    r_grid = np.asarray(r_grid, dtype=float)
    r_grid = r_grid[(r_grid >= 0.0) & (r_grid < spec.t0)]
    m_vals = np.atleast_1d(np.asarray(mrl_mod.mrl_from_tail(spec, r_grid)))
    verdicts = _verdicts((m_vals - m0) / m0, r_grid, eps)
    if float(spec.tail(0.0)) < 1.0 - _FLOOR:
        for reading in ("no_smaller", "invariant"):
            verdicts[reading] = replace(
                verdicts[reading],
                note="tail(0) < 1, which already rules out the no-smaller case")
    return verdicts


def exp_mean_margin_from_curve(m_fn, m0: float, mu: float) -> float:
    """Relative slack of the rate-mu mean condition for a bare residual-mean profile.

    Positive means restart at rate mu would not increase the mean of a law
    whose residual-mean function were ``m_fn`` with unconditional mean
    ``m0``. The profile is taken at face value: this evaluates the
    inequality itself and does not require (m_fn, m0) to come from an
    actual law. The left side, int exp(-mu t - int_0^t du/m(u)) dt, is two
    nested ``cumulative`` integrals out to 42/mu, past which the integrand
    is below exp(-42).
    """
    def inv_m(t):
        return 1.0 / np.clip(np.asarray(m_fn(t), dtype=float), 1e-300, None)

    def survival(t):
        return np.exp(-mu * t - cumulative(inv_m, t))

    lhs = float(cumulative(survival, [42.0 / mu])[0])
    rhs = 1.0 / (1.0 / m0 + mu)
    return (lhs - rhs) / rhs


def check_exp_mean_condition(spec: DistributionSpec, mu_grid=None,
                             eps: float | None = None
                             ) -> tuple[dict[str, Verdict], dict[float, float]]:
    """Per-rate mean condition under constant-rate restart.

    Compares int_0^inf exp(-mu t - int_0^t du/m(u)) dt with 1/(1/m0 + mu)
    for each mu (default: ``ClassifyConfig``'s rates). The inner
    exponential is the integrated tail beyond t divided by m0, so the left
    side is (m0 - L) / (mu m0) with L = ``laplace_tail(spec, mu)``, and the
    relative margin is (m0 - L (1 + mu m0)) / (mu m0**2): nonnegative
    exactly when ``exp_reset_mean(spec, mu)`` <= m0. Returns the verdicts
    over all rates plus the per-mu relative margins.
    """
    eps = default_tolerance(spec) if eps is None else eps
    mu_grid = tuple(ClassifyConfig.mu_grid if mu_grid is None else mu_grid)
    m0 = dist.mean(spec)
    if not np.isfinite(m0):
        return _undefined_mean(eps), {float(mu): math.nan for mu in mu_grid}
    mus = np.asarray(mu_grid, dtype=float)
    lap = np.asarray(rt.laplace_tail(spec, mus)) if mus.size else mus
    vals = (m0 - lap * (1.0 + mus * m0)) / (mus * m0 * m0)
    return _verdicts(vals, mus, eps), dict(zip(mus.tolist(), vals.tolist()))


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
        return asdict(self)


def moment_transfer_check(spec: DistributionSpec, reset: rt.ResetLaw,
                          g: MomentFunction,
                          direction: str | None = None) -> MomentTransferReport:
    """Numerically compare E[G(T)] with the same moment after restart.

    Diagnostic only: the transformed moment is a quadrature against the
    restarted tail out to where it has geometrically decayed, with the
    leftover reported as an estimate, not a rigorous bound.
    """
    base, rem = dist.g_moment(spec, g), 0.0
    if g.kind == "identity":
        val = rt.reset_mean(spec, reset)
    elif g.kind == "indicator_above":
        if reset.kind == "deterministic":
            val = float(rt.deterministic_reset_tail(spec, reset.period,
                                                    g.threshold))
        else:
            curve = rt.solver_reset_tail(spec, reset,
                                         max(2.0 * g.threshold, 1.0), tol=1e-7)
            val = float(curve(g.threshold))
    else:
        val, rem = _transformed_moment(spec, reset, g)
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


def _transformed_moment(spec: DistributionSpec, reset: rt.ResetLaw,
                        g: MomentFunction) -> tuple[float, float]:
    """E[G(T_R)] for a power or tabulated G, as ``g_moment`` takes E[G(T)]:
    G(0) plus G' against the restarted tail up to where it has decayed,
    and the estimate tail(upper) (G(2 upper) - G(upper)) of the rest."""
    p, knots = g.power, np.asarray(g.grid, dtype=float)
    # a tabulated G is piecewise linear, constant beyond its grid
    slopes = np.r_[0.0, np.diff(g.values) / np.diff(knots), 0.0]

    def slope(t):
        return p * t ** (p - 1.0) if g.kind == "power" else \
            slopes[np.searchsorted(knots, t)]

    def g_at(t):
        return t ** p if g.kind == "power" else \
            float(np.interp(t, knots, g.values))
    points = ()  # cuts besides the kinks of both laws
    if reset.kind == "deterministic":
        r = reset.period
        fr = float(spec.tail(r))
        if fr >= 1.0:  # no run completes: G(inf), bounded if tabulated
            return g_at(math.inf), math.inf if g.kind == "power" else 0.0

        def tail_fn(t):
            return np.asarray(rt.deterministic_reset_tail(spec, r, t))

        upper = r * (1.0 + math.log(1e-14) / math.log(max(fr, 1e-300)))
        # each epoch k r restarts the law: cut there and at its kinks past
        # it, up to 4,096 cuts, as the panels' memory grows with them; more
        # epochs come only with a small 1 - tail(r), the sawtooth's height
        pts = kinks((spec,))
        k = np.arange(min(math.ceil(upper / r), 4096))
        points = (r * k[:, None] + np.r_[0.0, pts[pts < r]]).ravel()[:4096]
    else:
        upper = max(dist.default_horizon(spec), reset.horizon())
        curve = None
        for _ in range(8):
            curve = rt.solver_reset_tail(spec, reset, upper, tol=1e-7)
            if curve(upper) < 1e-10:
                break
            upper *= 2.0

        def tail_fn(t):
            return np.asarray(curve(np.asarray(t, dtype=float)))

    head = quad(lambda t: slope(t) * tail_fn(t), 0.0, upper,
                laws=(spec, reset.spec),
                points=np.r_[points, knots, np.geomspace(
                    max(upper * 1e-9, 1e-12), upper, 60)])[0]
    tail_end = float(tail_fn(upper))
    rem = tail_end * max(g_at(2.0 * upper) - g_at(upper), 0.0)
    return g_at(0.0) + head + rem, rem


# ----------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class ClassifyConfig:
    """Tolerance, restart rates and branching factors of a classify run."""

    eps: float | None = None
    mu_grid: tuple[float, ...] = (0.1, 0.5, 1.0, 5.0)
    lfolds: tuple[int, ...] = (2, 3)

    def __post_init__(self):
        if self.eps is not None and not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps!r}")


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


# each class implies the weaker ones, in either direction
_IMPLICATIONS = tuple(
    (f"{side}_{ante}", f"{side}_{cons}") for side in ("no_bigger", "no_smaller")
    for ante, cons in (("reset", "exp_reset"), ("reset", "mean"),
                       ("exp_reset", "exp_mean"), ("mean", "exp_mean")))


def classify(spec: DistributionSpec,
             config: ClassifyConfig | None = None) -> ClassificationReport:
    """Run every ordering check on one law with shared grids.

    Each condition's margins are computed once for l = 1 and every l in
    ``lfolds``, the convolution average on the wider l >= 2 grid; its l = 1
    readings come from the points of the l = 1 grid.
    """
    cfg = config or ClassifyConfig()
    if any(l < 2 for l in cfg.lfolds):
        raise ValueError("branching check needs l >= 2")
    eps = cfg.eps if cfg.eps is not None else default_tolerance(spec)
    ls = (1, *cfg.lfolds)
    xy = _axis_grid(spec)
    pair = dict(zip(ls, _pair_margins(spec, xy, ls)))
    near, wide = _exp_condition_grids(spec)
    ratios = dict(zip(ls, _exp_reset_ratios(spec, wide, ls)))
    exp_mean, margins_mu = check_exp_mean_condition(spec, cfg.mu_grid, eps)
    del exp_mean["invariant"]  # the report has no invariant exp-mean reading

    readings = {
        "reset": _pair_verdicts(pair[1], xy, eps, 1),
        "exp_reset": _exp_reset_verdicts(ratios[1][np.isin(wide, near)], near,
                                         eps, 1),
        "mean": check_mean_conditions(spec, eps=eps),
        "exp_mean": exp_mean,
    }
    conditions = {f"{reading}_{name}": verdict
                  for name, verdicts in readings.items()
                  for reading, verdict in verdicts.items()}
    per_mu = {"no_bigger_exp_mean": margins_mu,
              "no_smaller_exp_mean": margins_mu}
    conditions["second_order"] = check_second_order(spec, eps)

    for l in cfg.lfolds:
        lfold = _pair_verdicts(pair[l], xy, eps, l)
        conditions[f"lfold_no_bigger_{l}"] = lfold["no_bigger"]
        conditions[f"lfold_invariance_probe_{l}"] = lfold["invariant"]
        conditions[f"lfold_exp_no_bigger_{l}"] = _exp_reset_verdicts(
            ratios[l], wide, eps, l)["no_bigger"]

    # the arbitrary and deterministic restart classes provably coincide
    for name in ("reset", "mean"):
        for side in ("no_bigger", "no_smaller"):
            conditions[f"{side}_deterministic_{name}"] = \
                conditions[f"{side}_{name}"]

    exponential_flag = conditions["invariant_reset"].holds

    implications = []
    for ante, cons in _IMPLICATIONS:
        a, c = conditions[ante], conditions[cons]
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
