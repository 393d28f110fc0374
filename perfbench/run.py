"""resetkit benchmark: run one workload and print its metrics.

Usage, from the root of a checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

The run builds its inputs from ``--seed``, then runs the workload's pass
(its job list in the order the seed shuffles), one job at a time: one
whole pass, then on through the list again until ``--seconds`` have
elapsed. Each job's latency is the mean over its calls. Outputs are
checked after the timed loop, against references computed then. Times
are reported scaled to a reference speed of the machine (``SpeedProbe``).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it installs the span tracer of ``spans.py`` and reports the per-module
metrics instead. A report for people comes first; the last line of
standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
# one client: the solver's dot products run no faster on two threads, and a
# thread count taken from the environment would change the gated timings
BLAS_THREADS = 1
BASELINE_REPEATS = 3
# The shared host's speed drifts by up to a third between runs minutes
# apart, for resetkit and for other code alike (README.md). So a fixed
# probe that shares no code with resetkit is timed before every call and
# every import timed, and each time is reported scaled to the speed at which
# the probe takes REFERENCE_PROBE_S: raw seconds * REFERENCE_PROBE_S /
# (median probe time of the run). The report prints raw times as well.
REFERENCE_PROBE_S = 0.010
# kept in sync with BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
              "job_tail_s": "s", "peak_rss_mb": "MB"}
KIND_UNITS = {"classify_s": "s", "transform_s": "s", "simulate_s": "s",
              "optimize_s": "s", "reset_mean_s": "s", "residual_s": "s",
              "replicates_per_s": "1/s"}


def _import_resetkit(root: Path):
    src = root / "src"
    if not (src / "resetkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/resetkit under {root}; run from the root "
                 "of a resetkit checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import resetkit
    import resetkit.cli  # noqa: F401  (loads every module the CLI uses)
    if Path(resetkit.__file__).resolve().parent != (src / "resetkit").resolve():
        sys.exit(f"perfbench: imported resetkit from {resetkit.__file__}, "
                 f"not from {src}")
    return resetkit


class SpeedProbe:
    """Times a fixed mix of interpreter, numpy and scipy.quad work."""

    def __init__(self):
        import numpy as np
        from scipy import integrate
        self._np, self._quad = np, integrate.quad
        self._a = np.linspace(0.0, 1.0, 65536)
        self._b = np.empty_like(self._a)
        self.samples: list[float] = []

    def run(self) -> None:
        np, a, b = self._np, self._a, self._b
        t0 = time.perf_counter()
        total = 0.0
        for i in range(16000):
            total += math.sqrt(i + 0.5)
        for _ in range(64):
            np.sqrt(a, out=b)
            np.add(b, a, out=b)
            total += float(b.sum())
        for k in range(16):
            total += self._quad(lambda x: math.exp(-k * x * x), 0.0, 1.0)[0]
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)


def measure_setup(root: Path, probe: SpeedProbe) -> float:
    """Median wall time for a fresh interpreter to import resetkit.cli."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        probe.run()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import resetkit.cli"],
                       cwd=root, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_job(job, cli_main):
    """(seconds, result, exception) for one job; the exception is set when
    the job raised (out of the CLI, a traceback the CLI does not document)."""
    t0 = time.perf_counter()
    try:
        if job.argv:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(list(job.argv))
                except SystemExit as exc:
                    code = exc.code
            result = (code, out.getvalue())
        else:
            result = job.call()
    except Exception as exc:  # noqa: BLE001  (reported as a failed job)
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, result, None


def run_loop(workload, cli_main, seconds: float, probe: SpeedProbe):
    """Closed loop over the pass: one whole pass, then on through it again
    until ``seconds`` have elapsed. (job, seconds, result, error) per call;
    the speed probe runs before each call, outside its time."""
    records = []
    started = time.perf_counter()
    while len(records) < len(workload.jobs) \
            or time.perf_counter() - started < seconds:
        job = workload.jobs[len(records) % len(workload.jobs)]
        probe.run()
        records.append((job, *run_job(job, cli_main)))
    return records


def check_calls(records) -> list[tuple[object, str, str]]:
    """(job, reason, known defect or "") for every call that failed.

    A failure is known only when its cause is recognised: an exception of
    the type the job records, or a check that names the defect it found.
    """
    results = {job.name: result for job, _, result, _ in records}
    failed = []
    for job, _, result, error in records:
        if error is not None:
            known_type, known = job.known_error or (None, "")
            failed.append((job, f"raised {type(error).__name__}: {error}",
                           known if known_type and isinstance(error, known_type)
                           else ""))
            continue
        reason = job.check(result, results)
        if isinstance(reason, tuple):
            failed.append((job, *reason))
        elif reason:
            failed.append((job, reason, ""))
    return failed


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count beyond) at the highest percentile with at
    least ten jobs beyond it; the maximum when there are ten jobs or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def summarize(workload, records, setup_s: float,
              peak_rss_mb: float) -> tuple[dict, dict, list]:
    """End-to-end metrics, per-kind metrics and failures of a run.

    A job's latency is the mean over its calls, which the loop spreads
    through the run, so each one averages the machine's drift in speed.
    ``wall_s`` is the time of one pass from these means; the percentiles
    are over the distinct jobs. The checks run here, after the timed loop,
    and compute each reference on first use.
    """
    calls = defaultdict(list)
    for job, sec, _, _ in records:
        calls[job.name].append(sec)
    latency = {name: statistics.fmean(secs) for name, secs in calls.items()}
    jobs = {job.name: job for job in workload.jobs}
    tail, pct, beyond = tail_latency(list(latency.values()))
    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(latency[job.name] for job in workload.jobs),
        "job_p50_s": statistics.median(latency.values()),
        "job_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    kinds = {}
    for kind in sorted({job.kind for job in jobs.values()}):
        kinds[f"{kind}_s"] = statistics.median(
            latency[name] for name, job in jobs.items() if job.kind == kind)
    sim_s = sum(sec for job, sec, _, _ in records if job.kind == "simulate")
    if sim_s:
        kinds["replicates_per_s"] = sum(
            job.replicates for job, _, _, _ in records) / sim_s
    failures = check_calls(records)
    kinds["fail_frac"] = len(failures) / len(records)
    kinds["attempted"] = len(records)
    kinds["tail"] = (pct, beyond, len(latency))
    kinds["passes"] = len(records) / len(workload.jobs)
    return e2e, kinds, failures


def machine_info(root: Path) -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "src.lines": src_lines}


def _time_baseline(rows) -> list[tuple[str, float]]:
    out = []
    for label, fn in rows:
        times = []
        for _ in range(BASELINE_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out.append((label, statistics.median(times)))
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def to_reference(values: dict, units: dict, scale: float) -> dict:
    """Times in ``values`` scaled to the reference speed, rates inversely;
    metrics in other units as they are."""
    factor = {"s": scale, "us": scale, "1/s": 1.0 / scale}
    return {name: value * factor.get(units[name], 1.0)
            for name, value in values.items()}


def report(args, workload, e2e, kinds, failures, info, scale, tracer=None,
           untraced=None):
    mode = "on" if tracer else "off"
    distinct = len({job.name for job in workload.jobs})
    print(f"resetkit benchmark: workload {workload.name}, seed {args.seed}, "
          f"{kinds['passes']:.2f} passes of {len(workload.jobs)} calls "
          f"({distinct} jobs), {kinds['attempted']} calls, trace {mode}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"speed: probe median {_fmt(REFERENCE_PROBE_S / scale * 1e3)} ms "
          f"against the reference {_fmt(REFERENCE_PROBE_S * 1e3)} ms; times "
          f"are scaled by {_fmt(scale)} (raw values in brackets)")
    raw_e2e, e2e = e2e, to_reference(e2e, END_TO_END, scale)
    kind_units = {name: unit for name, unit in KIND_UNITS.items() if name in kinds}
    raw_kinds = {name: kinds[name] for name in kind_units}
    for name, value in e2e.items():
        note = f"  [{_fmt(raw_e2e[name])}]" if value != raw_e2e[name] else ""
        if name == "job_tail_s":
            pct, beyond, n = kinds["tail"]
            note += f"  (p{pct:.1f}: {beyond} of {n} jobs beyond)"
        if name == "setup_s":
            note += f"  (median of {SETUP_REPEATS} fresh imports of resetkit.cli)"
        print(f"  {name:<18} {_fmt(value):>12} {END_TO_END[name]}{note}")
    for name, value in to_reference(raw_kinds, kind_units, scale).items():
        print(f"  {name:<18} {_fmt(value):>12} {kind_units[name]}"
              f"  [{_fmt(raw_kinds[name])}]")
    print(f"  {'fail_frac':<18} {_fmt(kinds['fail_frac']):>12} "
          f"({len(failures)} of {kinds['attempted']} calls failed)")
    grouped = Counter((job.name, reason, known) for job, reason, known in failures)
    for (name, reason, known), count in grouped.items():
        print(f"    FAILED [{'known' if known else 'NEW'}] {name} "
              f"(x{count}): {reason}")
        if known:
            print(f"      known since the benchmark was defined: {known}")
    if tracer is None:
        return
    print(f"trace: {tracer.span_count} spans in memory")
    if untraced is not None:
        print(f"  tracing overhead: wall_s {_fmt(e2e['wall_s'])} traced - "
              f"{_fmt(untraced)} untraced = {_fmt(e2e['wall_s'] - untraced)} s")
    else:
        print(f"  tracing overhead: no untraced run of workload {workload.name} "
              f"with seed {args.seed} recorded in this checkout")
    rows = tracer.solver_by_n()
    if rows:
        print("  renewal solver by grid size n: passes, median pass s, "
              "solves ending at n, median solve s (raw)")
        for n, p, p_s, s, s_s in rows:
            print(f"    n={n:<7} {p:>4} {_fmt(p_s):>10} {s:>4} {_fmt(s_s):>10}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "montecarlo_analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is imported
    rk = _import_resetkit(root)
    import spans as tracing
    import workloads

    probe = SpeedProbe()
    setup_s = measure_setup(root, probe)
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state) as tmp:
        inputs = workloads.Inputs(rk, Path(tmp))
        workload = workloads.WORKLOADS[args.workload](rk, args.seed, inputs)
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            records = run_loop(workload, rk.cli.main, args.seconds, probe)
        finally:
            if tracer:
                tracer.uninstall()
        # read before the checks build their references in this process
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e, kinds, failures = summarize(workload, records, setup_s,
                                         peak_rss_mb)
        info = machine_info(root)
        scale = probe.scale()

        # the seed sets the job list, so overhead compares runs of one seed
        record = state / f"untraced-{args.workload}-seed{args.seed}.json"
        untraced = None
        if tracer:
            if record.is_file():
                untraced = json.loads(record.read_text())["wall_s"]
        else:
            record.write_text(json.dumps({"wall_s": e2e["wall_s"] * scale}))
        report(args, workload, e2e, kinds, failures, info, scale, tracer,
               untraced)
        if tracer:
            print("  ROADMAP baseline rows (tracing off, raw, median of "
                  f"{BASELINE_REPEATS}):")
            for label, sec in _time_baseline(workload.baseline()):
                print(f"    {label}: {_fmt(sec)} s")
            units = tracing.PER_LAYER
            values = to_reference(tracer.metrics(), units, scale)
            for name, value in values.items():
                print(f"  {name:<48} {_fmt(value):>12} {units[name]}")
        else:
            values, units = to_reference(e2e, END_TO_END, scale), END_TO_END

    attempted = kinds["attempted"]
    print(json.dumps({
        "correct": all(known for _, _, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
