"""Span tracer that instruments resetkit from outside the package.

``Tracer.install()`` replaces every function and method defined in the
traced modules with a wrapper that records one span per call: name, start,
end and parent. Spans live in compact arrays until ``metrics()`` reduces
them; a span's self time is its duration minus the durations of its direct
children. Names imported into other modules (``from ._integrate import
split_quad``) are rebound too, so a call counts whichever module makes it.
``uninstall()`` restores the originals. Nothing under ``src/`` is edited.

A few wrappers also keep counters (integrand evaluations, tail points,
replicates, ...); they are listed in ``PER_LAYER`` with the metric names
``BENCHMARK.json`` declares. Metric names must start with a letter, so the
``_integrate`` module reports as ``integrate``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "distributions", "mrl", "_integrate", "reset_transform",
           "simulator", "classifiers", "optimizer", "conjecture_probe")

# the public checks classify() calls; it evaluates the plain supermultiplicative
# condition through _pair_margins, so check_supermultiplicative never runs
CHECKS = ("check_lfold_supermultiplicative", "check_exp_reset_condition",
          "check_mean_conditions", "check_exp_mean_condition",
          "check_second_order")

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "reset_transform.solver_s": "s",
    "reset_transform.solver_calls": "count",
    "reset_transform.solver_final_n": "count",
    "reset_transform.grid_too_coarse": "count",
    "reset_transform.branching_s": "s",
    "reset_transform.mean_s": "s",
    "reset_transform.self_s": "s",
    "integrate.split_quad_calls": "count",
    "integrate.integrand_evals": "count",
    "integrate.gl_nodes": "count",
    "integrate.self_s": "s",
    "distributions.tail_calls": "count",
    "distributions.tail_points": "count",
    "distributions.scalar_isf_calls": "count",
    "distributions.self_s": "s",
    "mrl.self_s": "s",
    "simulator.replicates": "count",
    "simulator.cycles": "count",
    "simulator.us_per_replicate": "us",
    "simulator.censored": "count",
    "simulator.self_s": "s",
    **{f"classifiers.{name}_s": "s" for name in CHECKS},
    "classifiers.self_s": "s",
    "optimizer.extremal_s": "s",
    "optimizer.rate_evals": "count",
    "optimizer.curve_points": "count",
    "optimizer.self_s": "s",
    "conjecture_probe.residual_s": "s",
    "conjecture_probe.self_s": "s",
    "cli.self_s": "s",
}

# metric -> span whose summed duration it reports
_SPAN_TOTALS = {
    "reset_transform.solver_s": "reset_transform.solver_reset_tail",
    "reset_transform.branching_s": "reset_transform.branching_reset_tail",
    "reset_transform.mean_s": "reset_transform.reset_mean",
    "optimizer.extremal_s": "optimizer.extremal_reset_mean",
    "conjecture_probe.residual_s": "conjecture_probe.lfold_invariance_residual",
    **{f"classifiers.{name}_s": f"classifiers.{name}" for name in CHECKS},
}
# metric -> span whose call count it reports
_SPAN_CALLS = {
    "reset_transform.solver_calls": "reset_transform.solver_reset_tail",
    "integrate.split_quad_calls": "_integrate.split_quad",
    "optimizer.rate_evals": "reset_transform.exp_reset_mean",
}
_SIM_TOP = ("simulator.simulate_branching", "simulator.simulate_single_reset")


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    """Records spans and counters for calls into the traced modules."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.solver_final = []      # (final n, span index) per finished solve
        self.passes = []            # (n, span index) per renewal pass
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def wrap(self, fn, name: str, before=None, after=None, failed=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(result, args, kwargs, span)`` may return a replacement
        result; ``failed(exc, span)`` sees exceptions, which still raise.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if failed is not None:
                    failed(exc, idx)
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                result = after(result, args, kwargs, idx)
            return result

        return traced

    def _hooks(self, name: str, fn) -> dict:
        """Counters attached to particular functions, keyed by span name."""
        counts = self.counts

        def count(metric):
            def before(args, kwargs):
                counts[metric] += 1
                return args, kwargs
            return before

        def integrand(args, kwargs):
            f = args[0]
            wrapped = self.wrap(f, f"{_short(f.__module__)}.integrand",
                                before=count("integrate.integrand_evals"))
            return (wrapped,) + tuple(args[1:]), kwargs

        def gl_nodes(args, kwargs):
            bound = _bound(fn, args, kwargs)
            counts["integrate.gl_nodes"] += \
                max(np.size(bound["knots"]) - 1, 0) * int(bound["order"])
            return args, kwargs

        def tail_points(args, kwargs):
            counts["distributions.tail_calls"] += 1
            counts["distributions.tail_points"] += np.size(args[1])
            return args, kwargs

        def sampler(result, args, kwargs, span):
            return self.wrap(result, f"{_short(result.__module__)}.scalar_isf",
                             before=count("distributions.scalar_isf_calls"))

        def solver_done(result, args, kwargs, span):
            n = len(result.grid) - 1
            counts["reset_transform.solver_final_n"] += n
            self.solver_final.append((n, span))
            return result

        def solver_failed(exc, span):
            if type(exc).__name__ == "GridTooCoarseError":
                counts["reset_transform.grid_too_coarse"] += 1

        def renewal_pass(result, args, kwargs, span):
            self.passes.append((int(_bound(fn, args, kwargs)["n"]), span))
            return result

        def simulated(result, args, kwargs, span):
            hist = result.cycle_histogram
            counts["simulator.replicates"] += result.replicates
            counts["simulator.cycles"] += sum(k * c for k, c in enumerate(hist))
            counts["simulator.censored"] += result.n_capped + result.n_infinite
            return result

        def simulation_failed(exc, span):
            partial = getattr(exc, "result", None)
            if partial is not None:
                simulated(partial, (), {}, span)

        def curve_points(args, kwargs):
            counts["optimizer.curve_points"] += \
                np.size(_bound(fn, args, kwargs)["r_grid"])
            return args, kwargs

        table = {
            "_integrate.split_quad": dict(before=integrand),
            "_integrate.quad_to_inf": dict(before=integrand),
            "_integrate.octave_quad_to_inf": dict(before=integrand),
            "_integrate.gauss_legendre_cumulative": dict(before=gl_nodes),
            "distributions.DistributionSpec.tail": dict(before=tail_points),
            "distributions.DistributionSpec.log_tail": dict(before=tail_points),
            "distributions.DistributionSpec.make_scalar_sampler":
                dict(after=sampler),
            "reset_transform.solver_reset_tail":
                dict(after=solver_done, failed=solver_failed),
            "reset_transform._renewal_fixed_point": dict(after=renewal_pass),
            "simulator.simulate_branching":
                dict(after=simulated, failed=simulation_failed),
            "simulator.simulate_single_reset":
                dict(after=simulated, failed=simulation_failed),
            "optimizer.deterministic_mean_curve": dict(before=curve_points),
        }
        return table.get(name, {})

    # ------------------------------------------------------------------
    # install / uninstall

    def install(self) -> None:
        """Wrap every function and method defined in the traced modules."""
        modules = [importlib.import_module(f"resetkit.{m}") for m in MODULES]
        replaced: dict[int, object] = {}
        for mod in modules:
            short = _short(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                not meth.startswith("__") or meth == "__call__"):
                            name = f"{short}.{obj.__name__}.{meth}"
                            self._patch(obj, meth, self.wrap(
                                fn, name, **self._hooks(name, fn)))
                elif callable(obj) and not inspect.isclass(obj) \
                        and getattr(obj, "__module__", None) == mod.__name__:
                    name = f"{short}.{attr}"
                    wrapper = self.wrap(obj, name, **self._hooks(name, obj))
                    replaced[id(obj)] = wrapper
                    self._patch(mod, attr, wrapper)
        # rebind names imported from one traced module into another
        for mod in modules + [importlib.import_module("resetkit")]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reduction

    def durations(self, spans) -> list[float]:
        start, end = self.span_start, self.span_end
        return [end[i] - start[i] for i in spans]

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        k = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_t = np.bincount(name, weights=own, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(self_t[i]))
                for i, n in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``PER_LAYER``, by name."""
        by_name = self.per_name()
        out = {m: 0.0 for m in PER_LAYER}
        for metric, count in self.counts.items():
            out[metric] = float(count)
        for metric, span in _SPAN_TOTALS.items():
            out[metric] = by_name.get(span, (0, 0.0, 0.0))[1]
        for metric, span in _SPAN_CALLS.items():
            out[metric] = float(by_name.get(span, (0, 0.0, 0.0))[0])
        for span, (_, _, own) in by_name.items():
            key = f"{span.partition('.')[0].lstrip('_')}.self_s"
            if key in out:
                out[key] += own
        sim_s = sum(by_name.get(s, (0, 0.0, 0.0))[1] for s in _SIM_TOP)
        if out["simulator.replicates"]:
            out["simulator.us_per_replicate"] = \
                1e6 * sim_s / out["simulator.replicates"]
        return out

    def solver_by_n(self) -> list[tuple[int, int, float, int, float]]:
        """Rows (n, passes, median pass s, solves ending at n, median solve s)."""
        passes, solves = defaultdict(list), defaultdict(list)
        for n, span in self.passes:
            passes[n].append(span)
        for n, span in self.solver_final:
            solves[n].append(span)
        rows = []
        for n in sorted(set(passes) | set(solves)):
            p = self.durations(passes[n])
            s = self.durations(solves[n])
            rows.append((n, len(p), statistics.median(p) if p else 0.0,
                         len(s), statistics.median(s) if s else 0.0))
        return rows

    @property
    def span_count(self) -> int:
        return len(self.span_start)
