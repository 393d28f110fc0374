"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""
import json
import math
import time

import numpy as np

from resetkit import classifiers as cls
from resetkit import conjecture_probe as cp
from resetkit import distributions as d
from resetkit import mrl
from resetkit import optimizer as opt
from resetkit import reset_transform as rt
from resetkit import simulator as sim
from resetkit.cli import parse_reset

from fixture_laws import (ALL_LAWS, exp_law, pe_mean_only, plateau,
                          pw_sixth, sps, uniform02, weib)

_SUITE_START = time.time()


def _finish(number: int, label: str, failures: list, started: float,
            budget: float) -> None:
    elapsed = time.time() - started
    ok = not failures and elapsed <= budget
    print(f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'}: {label} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")
    assert not failures, failures
    assert elapsed <= budget, f"criterion {number} overran: {elapsed:.1f}s"


def test_criterion_1_weibull_classification_table():
    started = time.time()
    failures = []
    no_bigger = ("no_bigger_reset", "no_bigger_deterministic_reset",
                 "no_bigger_exp_reset", "no_bigger_mean",
                 "no_bigger_deterministic_mean", "no_bigger_exp_mean")
    no_smaller = ("no_smaller_reset", "no_smaller_deterministic_reset",
                  "no_smaller_exp_reset", "no_smaller_mean",
                  "no_smaller_deterministic_mean", "no_smaller_exp_mean")
    invariant = ("invariant_reset", "invariant_exp_reset", "invariant_mean")
    for k in (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0):
        rep = cls.classify(weib(k), cls.ClassifyConfig(eps=1e-9))
        for name in no_bigger:
            want = k <= 1.0
            if rep.conditions[name].holds is not want:
                failures.append((k, name, rep.conditions[name].status))
        for name in no_smaller:
            want = k >= 1.0
            if rep.conditions[name].holds is not want:
                failures.append((k, name, rep.conditions[name].status))
        for name in invariant:
            want = k == 1.0
            if rep.conditions[name].holds is not want:
                failures.append((k, name, rep.conditions[name].status))
        if rep.exponential_flag is not (k == 1.0):
            failures.append((k, "exponential_flag", rep.exponential_flag))
        for l in (2, 3):
            for name in (f"lfold_no_bigger_{l}", f"lfold_exp_no_bigger_{l}"):
                if rep.conditions[name].holds is not (k <= 1.0):
                    failures.append((k, name, rep.conditions[name].status))
            if not rep.conditions[f"lfold_invariance_probe_{l}"].fails:
                failures.append((k, f"lfold_invariance_probe_{l}",
                                 "unexpected hold"))
    _finish(1, "Weibull table: no-bigger iff k<=1, no-smaller iff k>=1, "
               "invariant iff k=1, l-fold no-bigger iff k<=1", failures,
            started, 30.0)


def test_criterion_2_exponential_fixed_point(tmp_path):
    started = time.time()
    failures = []
    spec = exp_law(1.0)
    uniform_doc = {"family": "from_mrl",
                   "params": {"grid": [0.0, 1.0], "values": [1.0, 0.5],
                              "terminal": "linear"}}
    path = tmp_path / "uniform02.json"
    path.write_text(json.dumps(uniform_doc))
    resets = {
        "det:0.1": rt.ResetLaw.deterministic(0.1),
        "det:1": rt.ResetLaw.deterministic(1.0),
        "det:10": rt.ResetLaw.deterministic(10.0),
        "exp:0.5": rt.ResetLaw.exponential(0.5),
        "exp:2": rt.ResetLaw.exponential(2.0),
        "file:uniform(0,2)": parse_reset(f"file:{path}"),
    }
    grid = np.linspace(0.0, 10.0, 2001)
    probes = (0.5, 1.0, 2.0, 4.0, 8.0)
    for label, reset in resets.items():
        curve = rt.reset_tail(spec, reset, grid, tol=1e-6)
        sup_err = float(np.max(np.abs(curve.knot_values - np.exp(-grid))))
        if sup_err > 1e-6:
            failures.append((label, "solver sup error", sup_err))
        res = sim.simulate_reset(spec, reset,
                                 sim.SimulationConfig(replicates=100_000,
                                                      seed=20240801,
                                                      probe_times=probes))
        for p, hat, se in zip(probes, res.tail_probs, res.tail_se):
            want = math.exp(-p)
            if abs(hat - want) > 4.0 * se + 1e-12:
                failures.append((label, "mc tail", p, hat, want))
    _finish(2, "solver tail within 1e-6 of exp(-t) and Monte Carlo within "
               "4 sigma for six reset laws", failures, started, 10.0)


def test_criterion_3_counterexample_regressions():
    started = time.time()
    failures = []

    # (a) step tail 1/2, 1/4, 1/6: helped by constant-rate restart in
    # dominance, yet not supermultiplicative
    spec_a = pw_sixth()
    v = cls.check_exp_reset_condition(spec_a, eps=1e-9)
    if not v.holds:
        failures.append(("a", "exp-reset condition", v.status, v.margin))
    v = cls.check_supermultiplicative(spec_a, eps=1e-9)
    if not (v.fails and v.witness is not None):
        failures.append(("a", "supermultiplicative should fail with witness",
                         v.status))

    # (b) two-piece exponential tail: helped in mean, not in dominance
    spec_b = pe_mean_only()
    v = cls.check_mean_conditions(spec_b, eps=1e-9, variant="no_bigger")
    if not v.holds:
        failures.append(("b", "no-bigger in mean", v.status, v.margin))
    v = cls.check_exp_reset_condition(spec_b, eps=1e-9)
    if not v.fails:
        failures.append(("b", "exp-reset dominance should fail", v.status))

    # (c) square-Pareto example: second-order criterion trivially met while
    # the worked residual-mean profile (m = t + k with mean 1/k) fails the
    # rate condition at every tested rate
    spec_c = sps(0.5)
    v = cls.check_second_order(spec_c)
    if not (v.holds and "infinite" in v.note):
        failures.append(("c", "second order should be trivially met",
                         v.status, v.note))
    if not d.second_moment(spec_c) == np.inf:
        failures.append(("c", "second moment should be infinite"))
    k = 0.5
    for mu in (0.1, 0.5, 1.0, 5.0):
        margin = cls.exp_mean_margin_from_curve(lambda t: t + k, 1.0 / k, mu)
        if not margin < -1e-9:
            failures.append(("c", "profile rate condition should fail", mu,
                             margin))

    # (d) plateau tail: shifted comparisons through t=1 hold while the
    # symmetric split fails
    spec_d = plateau()
    v = cls.check_supermultiplicative(spec_d, eps=1e-9)
    if not v.fails:
        failures.append(("d", "supermultiplicativity should fail", v.status))
    else:
        x, y = v.witness
        if not (0.0 < x < 1.0 and 0.0 < y < 1.0
                and abs(x + y - 1.0) < 0.35):
            failures.append(("d", "witness should split x + y = 1", v.witness))
    us = np.linspace(0.0, 6.0, 1201)
    lhs = np.asarray(spec_d.log_tail(us)) + float(spec_d.log_tail(1.0))
    rhs = np.asarray(spec_d.log_tail(1.0 + us))
    if not np.all(lhs <= rhs + 1e-9):
        failures.append(("d", "shifted family comparison should hold"))
    _finish(3, "counterexample regressions (a)-(d)", failures, started, 30.0)


def test_criterion_4_mrl_roundtrip():
    started = time.time()
    failures = []
    for name, make in (("exp1", exp_law), ("weib0.7", lambda: weib(0.7)),
                       ("sps0.5", sps)):
        spec = make()
        curve = mrl.mrl_curve(spec)
        upper = d.default_horizon(spec)
        grid = np.linspace(0.0, upper, 1200)
        rec = np.asarray(mrl.tail_from_mrl(curve, grid))
        ref = np.asarray(spec.tail(grid))
        sup = float(np.max(np.abs(rec - ref)))
        if sup > 1e-6:
            failures.append((name, "roundtrip sup error", sup))
    for k in (0.3, 0.5, 0.9):
        rs = np.array([0.0, 0.5, 1.0, 3.0, 10.0])
        got = np.asarray(mrl.mrl_from_tail(sps(k), rs))
        if float(np.max(np.abs(got - (rs + k)))) > 1e-8:
            failures.append(("sps", k, "residual mean is not r + offset"))
    _finish(4, "tail->mrl->tail within 1e-6; square-Pareto residual mean "
               "r + offset within 1e-8", failures, started, 60.0)


def _integral_of_transformed_tail(spec, reset) -> float:
    """Independent quadrature of the restarted tail over [0, inf)."""
    from resetkit._integrate import split_quad

    if reset.kind == "deterministic":
        # integrate the closed form period by period until it has decayed
        r = reset.period
        fr = float(spec.tail(r))
        total = 0.0
        k = 0
        while fr ** k * r > 1e-13 and k < 200:
            seg, _ = split_quad(
                lambda t: np.asarray(rt.deterministic_reset_tail(spec, r, t)),
                k * r, (k + 1) * r,
                points=k * r + np.geomspace(r * 1e-10, r, 9))
            total += seg
            k += 1
        return total
    curve = rt.solver_reset_tail(spec, reset, 45.0, tol=2e-7)
    g = np.asarray(curve.grid)
    y = curve.knot_values
    head = float(np.trapezoid(y, g))
    # the solution inherits any infinite slope of the tail at 0; replace the
    # first two trapezoid cells of its exactly-known free part
    h = float(g[1])

    def free_fn(x):
        return np.asarray(spec.tail(x)) * np.asarray(reset.tail(x))

    f = free_fn(g[:3])
    w0, _ = split_quad(free_fn, 0.0, h, points=np.geomspace(h * 1e-10, h, 7))
    w1, _ = split_quad(free_fn, h, 2.0 * h)
    head += (w0 - 0.5 * h * (f[0] + f[1])) + (w1 - 0.5 * h * (f[1] + f[2]))
    y_end = float(y[-1])
    if y_end <= 1e-12:
        return head
    i = min(max(int(np.searchsorted(g, 0.9 * g[-1])), 0), g.size - 2)
    rate = (math.log(max(y[i], 1e-300)) - math.log(max(y_end, 1e-300))) \
        / (g[-1] - g[i])
    return head + y_end / max(rate, 1e-6)


def test_criterion_5_mean_formula_cross_validation():
    started = time.time()
    failures = []
    specs = {"exp1": exp_law(), "weib0.5": weib(0.5), "weib2": weib(2.0)}
    resets = {"det:1": rt.ResetLaw.deterministic(1.0),
              "exp:1": rt.ResetLaw.exponential(1.0),
              "uniform(0,2)": rt.ResetLaw.general(uniform02())}
    for sname, spec in specs.items():
        for rname, reset in resets.items():
            analytic = rt.reset_mean(spec, reset)
            integral = _integral_of_transformed_tail(spec, reset)
            if abs(integral - analytic) > 1e-6 * max(1.0, analytic):
                failures.append((sname, rname, "tail integral vs formula",
                                 integral, analytic))
            res = sim.simulate_reset(spec, reset,
                                     sim.SimulationConfig(replicates=100_000,
                                                          seed=7177))
            if abs(res.mean - analytic) > 4.0 * res.mean_se:
                failures.append((sname, rname, "mc mean", res.mean, analytic))
        for mu in (0.5, 1.0, 2.0):
            a = rt.exp_reset_mean(spec, mu)
            b = rt.reset_mean(spec, rt.ResetLaw.exponential(mu))
            if abs(a - b) > 1e-8 * max(1.0, abs(a)):
                failures.append((sname, mu, "transform vs direct", a, b))
    _finish(5, "restart means: formula vs tail integral vs Monte Carlo on a "
               "3x3 matrix; transform route within 1e-8", failures, started,
            30.0)


def test_criterion_6_branching_series_vs_simulation():
    started = time.time()
    failures = []
    for sname, spec in (("exp1", exp_law()), ("weib0.5", weib(0.5))):
        for l in (2, 3):
            want = rt.branching_mean_deterministic(spec, 1.0, l)
            res = sim.simulate_branching(
                spec, rt.ResetLaw.deterministic(1.0), l,
                sim.SimulationConfig(replicates=100_000, seed=551))
            if abs(res.mean - want) > 3.0 * res.mean_se:
                failures.append((sname, l, "deterministic", res.mean, want))
            want = rt.branching_mean_exponential(spec, 1.0, l)
            res = sim.simulate_branching(
                spec, rt.ResetLaw.exponential(1.0), l,
                sim.SimulationConfig(replicates=100_000, seed=552))
            if abs(res.mean - want) > 3.0 * res.mean_se:
                failures.append((sname, l, "exponential", res.mean, want))
        for r in (0.5, 1.0):
            a = rt.branching_mean_deterministic(spec, r, 1)
            b = rt.reset_mean(spec, rt.ResetLaw.deterministic(r))
            if abs(a - b) > 1e-8 * max(1.0, a):
                failures.append((sname, r, "l=1 deterministic", a, b))
        for mu in (0.5, 1.0):
            a = rt.branching_mean_exponential(spec, mu, 1)
            b = rt.exp_reset_mean(spec, mu)
            if abs(a - b) > 1e-8 * max(1.0, a):
                failures.append((sname, mu, "l=1 exponential", a, b))
    _finish(6, "branching mean series vs 1e5-replicate simulation within "
               "3 sigma; l=1 degeneracy within 1e-8", failures, started, 10.0)


def _random_reset_law(rng: np.random.Generator, scale: float) -> rt.ResetLaw:
    if rng.random() < 0.6:
        # atomic: random decreasing level ladder
        n = int(rng.integers(1, 5))
        bps = np.sort(rng.uniform(0.05 * scale, 2.5 * scale, size=n))
        levels = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
        terminal = 0.0 if rng.random() < 0.7 else float(rng.uniform(0, 0.2))
        levels = np.concatenate([levels, [terminal]])
        levels[0] = float(rng.uniform(0.4, 1.0))
        levels = np.minimum.accumulate(levels)
        spec = d.PiecewiseConstantTail(
            breakpoints=tuple([0.0] + [float(b) for b in bps]),
            levels=tuple(float(v) for v in levels), check_standing=False)
    else:
        # smooth: random positive residual-mean profile
        n = int(rng.integers(2, 6))
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 3.0, size=n))])
        vals = rng.uniform(0.3, 2.0, size=n + 1) * scale
        # keep slopes above -1 so the curve generates a law
        for i in range(1, vals.size):
            floor = vals[i - 1] - 0.9 * (ts[i] - ts[i - 1])
            vals[i] = max(vals[i], floor, 0.05 * scale)
        spec = mrl.law_from_mrl(mrl.MrlCurve(grid=tuple(ts),
                                             values=tuple(vals)))
    return rt.ResetLaw.general(spec)


def test_criterion_7_extremal_reduction():
    started = time.time()
    failures = []
    rng = np.random.default_rng(424242)
    fixtures = {"exp1": exp_law(), "weib0.5": weib(0.5), "weib2": weib(2.0),
                "sps0.5": sps(0.5), "pe": pe_mean_only()}
    for name, spec in fixtures.items():
        report = opt.extremal_reset_mean(spec)
        scale = d.characteristic_scale(spec)
        for trial in range(20):
            reset = _random_reset_law(rng, scale)
            mean = rt.reset_mean(spec, reset)
            tol = 1e-6 * max(1.0, abs(mean if np.isfinite(mean) else 1.0))
            if not (report.inf - tol <= mean <= report.sup + tol):
                failures.append((name, trial, reset.describe(), mean,
                                 report.inf, report.sup))
        m0 = d.mean(spec)
        big = d.default_horizon(spec) * 1.5
        val = float(opt.deterministic_mean_curve(spec, np.array([big]))[0])
        if abs(val - m0) > 0.01 * m0:
            failures.append((name, "large-period curve limit", val, m0))
    _finish(7, "20 random reset laws per fixture stay inside [inf, sup]; "
               "curve limit within 1% of the bare mean", failures, started,
            120.0)


def test_criterion_8_property_suite():
    started = time.time()
    failures = []
    # implication lattice and branching-invariance probes across fixtures
    for name, make in ALL_LAWS.items():
        rep = cls.classify(make())
        for row in rep.implications:
            if not row["consistent"]:
                failures.append((name, "implication", row))
        for l in (2, 3):
            if not rep.conditions[f"lfold_invariance_probe_{l}"].fails:
                failures.append((name, f"invariance probe l={l} held"))
    # monotone transformed tails
    grid = np.linspace(0.0, 12.0, 601)
    for spec, reset in ((weib(0.5), rt.ResetLaw.exponential(1.0)),
                        (weib(2.0), rt.ResetLaw.deterministic(0.7)),
                        (pe_mean_only(), rt.ResetLaw.general(uniform02()))):
        curve = rt.reset_tail(spec, reset, grid)
        vals = curve.knot_values
        if not (np.all(np.diff(vals) <= 1e-12)
                and np.all((vals >= 0.0) & (vals <= 1.0))):
            failures.append(("monotone output", reset.describe()))
    # determinism under parallel decomposition
    base = sim.simulate_reset(weib(0.5), rt.ResetLaw.exponential(1.0),
                              sim.SimulationConfig(replicates=4000, seed=31,
                                                   parallel_chunks=1))
    for chunks in (2, 5, 16):
        again = sim.simulate_reset(weib(0.5), rt.ResetLaw.exponential(1.0),
                                   sim.SimulationConfig(replicates=4000,
                                                        seed=31,
                                                        parallel_chunks=chunks))
        if not np.array_equal(base.times, again.times):
            failures.append(("parallel decomposition", chunks))
    # conjecture probe: nonzero residual for every fixture at l = 2
    for name, make in ALL_LAWS.items():
        rep = cp.lfold_invariance_residual(make(), 2)
        if not rep.sup_norm > 1e-7:
            failures.append((name, "conjecture residual too small",
                             rep.sup_norm))
    elapsed_total = time.time() - _SUITE_START
    print(f"[ACCEPTANCE 8] acceptance-module wall time so far: "
          f"{elapsed_total:.1f}s (limit 300s)")
    if elapsed_total > 300.0:
        failures.append(("acceptance module exceeded 5 minutes",
                         elapsed_total))
    _finish(8, "implication lattice, monotone outputs, decomposition "
               "determinism, invariance-probe failure", failures, started,
            120.0)
