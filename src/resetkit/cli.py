"""Command-line front door: classify, transform, simulate, optimize.

Every report embeds the resolved configuration and the tool version, and
identical inputs (including the seed) produce byte-identical output files.
Exit codes: 0 success, 2 inconclusive under --strict, 3 excessive
censoring (partial report written), 64 usage, 65 bad data, 74 I/O.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import classifiers as cls
from . import distributions as dist
from . import mrl  # noqa: F401  (registers the from_mrl family)
from . import optimizer as opt
from . import reset_transform as rt
from . import simulator as sim

EXIT_OK = 0
EXIT_STRICT_INCONCLUSIVE = 2
EXIT_CENSORING = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


class DataError(ValueError):
    pass


def _load_spec(path: str, overrides: dict) -> dist.DistributionSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}") from exc
    if overrides:
        doc.setdefault("params", {}).update(overrides)
    try:
        return dist.spec_from_dict(doc)
    except (dist.SpecValidationError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid spec in {path}: {exc}") from exc


def parse_reset(descriptor: str) -> rt.ResetLaw:
    """Reset-law mini-grammar: det:<r>, exp:<mu>, file:<path>."""
    kind, sep, arg = descriptor.partition(":")
    if not sep:
        raise DataError(f"reset descriptor needs a ':', got {descriptor!r}")
    if kind == "file":
        return rt.ResetLaw.general(_load_spec(arg, {}))
    if kind not in ("det", "exp"):
        raise DataError(f"unknown reset kind {kind!r} (want det/exp/file)")
    try:
        value = float(arg)
    except ValueError as exc:
        raise DataError(f"bad reset parameter {arg!r}") from exc
    if kind == "det":
        return rt.ResetLaw.deterministic(value)
    return rt.ResetLaw.exponential(value)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=True, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _collect_overrides(args) -> dict:
    out = {}
    for name in ("shape", "rate", "offset", "level"):
        val = getattr(args, name, None)
        if val is not None:
            out[name] = val
    for item in getattr(args, "set", None) or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise DataError(f"--set expects key=value, got {item!r}")
        out[key] = float(val)
    return out


def _config_echo(args, extra: dict | None = None) -> dict:
    # the output path is not semantic configuration; keeping it out makes
    # equal runs byte-identical regardless of where they are written
    skip = {"func", "output"}
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}
    echo["version"] = __version__
    if extra:
        echo.update(extra)
    return echo


# ----------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    spec = _load_spec(args.spec, _collect_overrides(args))
    cfg = cls.ClassifyConfig(
        eps=args.eps,
        mu_grid=tuple(args.mu_grid),
        lfolds=tuple(args.lfolds),
    )
    report = cls.classify(spec, cfg)
    payload = report.to_dict()
    payload["config"] = _config_echo(args)
    if args.format == "json":
        _write_output(_json_dump(payload), args.output)
    elif args.format == "human":
        _write_output(_render_classification(report), args.output)
    else:
        lines = ["condition,status,margin,tolerance"]
        for name, verdict in report.conditions.items():
            lines.append(f"{name},{verdict.status},{verdict.margin!r},"
                         f"{verdict.tolerance!r}")
        _write_output("\n".join(lines) + "\n", args.output)
    inconclusive = any(v.status == "inconclusive"
                       for v in report.conditions.values())
    if args.strict and inconclusive:
        return EXIT_STRICT_INCONCLUSIVE
    return EXIT_OK


def _render_classification(report: cls.ClassificationReport) -> str:
    lines = [f"resetkit {__version__} classification",
             f"exponential law detected: {report.exponential_flag}", ""]
    width = max(len(k) for k in report.conditions)
    lines.append(f"{'condition':<{width}}  {'status':<13} margin")
    lines.append("-" * (width + 30))
    for name, v in report.conditions.items():
        lines.append(f"{name:<{width}}  {v.status:<13} {v.margin:.3e}"
                     + (f"  [{v.note}]" if v.note else ""))
    lines.append("")
    lines.append("implication matrix (antecedent => consequent):")
    for row in report.implications:
        mark = "ok" if row["consistent"] else "VIOLATED"
        lines.append(f"  {row['antecedent']} => {row['consequent']}: "
                     f"{row['antecedent_holds']} => {row['consequent_holds']}"
                     f" [{mark}]")
    return "\n".join(lines) + "\n"


def cmd_transform(args) -> int:
    spec = _load_spec(args.spec, _collect_overrides(args))
    reset = parse_reset(args.reset)
    upper = args.t_max if args.t_max is not None else \
        float(dist.default_horizon(spec))
    grid = np.linspace(0.0, upper, args.points)
    if args.single:
        transformed = np.asarray(rt.single_reset_tail(spec, reset, grid))
        err = 0.0
    elif args.branching > 1:
        curve = rt.branching_reset_tail(spec, reset, args.branching, upper,
                                        n=max(args.points, 4096))
        transformed = np.asarray(curve(grid))
        err = curve.err_estimate
    else:
        curve = rt.reset_tail(spec, reset, grid, tol=args.tol)
        transformed = curve.knot_values
        err = curve.err_estimate
    original = np.asarray(spec.tail(grid))
    if args.format == "json":
        payload = {
            "family": "tabulated",
            "grid": [float(t) for t in grid],
            "values": [float(v) for v in transformed],
            "interpolation": "log-linear",
            "err_estimate": err,
            "config": _config_echo(args),
        }
        _write_output(_json_dump(payload), args.output)
    else:
        lines = ["t,tail_original,tail_transformed"]
        for t, o, v in zip(grid, original, transformed):
            lines.append(f"{float(t)!r},{float(o)!r},{float(v)!r}")
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec, _collect_overrides(args))
    reset = parse_reset(args.reset)
    config = sim.SimulationConfig(
        replicates=args.replicates, seed=args.seed,
        max_cycles=args.max_cycles,
        probe_times=tuple(args.probes) if args.probes else None,
        parallel_chunks=args.chunks,
        branching_mode=args.branching_mode)
    code = EXIT_OK
    try:
        if args.single:
            result = sim.simulate_single_reset(spec, reset, config)
        else:
            result = sim.simulate_branching(spec, reset, args.branching, config)
    except sim.ExcessiveCensoringError as exc:
        result = exc.result
        code = EXIT_CENSORING
    payload = result.to_dict()
    payload["config"] = _config_echo(args)
    if code != EXIT_OK:
        payload["error"] = "excessive_censoring"
    _write_output(_json_dump(payload), args.output)
    return code


def cmd_optimize(args) -> int:
    spec = _load_spec(args.spec, _collect_overrides(args))
    bracket = tuple(args.mu_bracket) if args.mu_bracket else None
    report = opt.extremal_reset_mean(spec, mu_bracket=bracket)
    if args.format == "csv":
        lines = ["r,deterministic_reset_mean"]
        for r, v in zip(report.r_grid, report.curve):
            lines.append(f"{float(r)!r},{float(v)!r}")
        _write_output("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    payload = report.to_dict()
    payload["config"] = _config_echo(args)
    m0 = dist.mean(spec)
    payload["bare_mean"] = m0 if np.isfinite(m0) else "inf"
    payload["restart_harmful"] = bool(np.isfinite(m0) and report.sup > m0 * (1 + 1e-9))
    if args.format == "human":
        lines = [f"resetkit {__version__} extremal restart report",
                 f"bare mean: {payload['bare_mean']}",
                 f"sup over reset laws: {report.sup} (r={report.sup_r})",
                 f"inf over reset laws: {report.inf} (r={report.inf_r})",
                 f"best deterministic period: {report.best_deterministic_r}"
                 f" (mean {report.best_deterministic_mean})",
                 f"best exponential rate: {report.best_exponential_mu}"
                 f" (mean {report.best_exponential_mean},"
                 f" improves: {report.exponential_improves})"]
        if payload["restart_harmful"]:
            lines.append("restart harmful: some reset laws increase the mean")
        _write_output("\n".join(lines) + "\n", args.output)
    else:
        _write_output(_json_dump(payload), args.output)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="path to a spec JSON file")
    p.add_argument("--shape", type=float, help="override the shape parameter")
    p.add_argument("--rate", type=float, help="override the rate parameter")
    p.add_argument("--offset", type=float, help="override the offset parameter")
    p.add_argument("--level", type=float, help="override the level parameter")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override an arbitrary spec parameter")
    p.add_argument("--output", "-o", default=None,
                   help="output path (default stdout)")


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="resetkit",
                     description="restart transforms, ordering classification "
                                 "and Monte Carlo cross-validation for "
                                 "lifetime laws")
    parser.add_argument("--version", action="version",
                        version=f"resetkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run every ordering check on a law")
    _add_spec_args(p)
    p.add_argument("--mu-grid", type=_float_list, default=[0.1, 0.5, 1.0, 5.0])
    p.add_argument("--lfolds", type=_int_list, default=[2, 3])
    p.add_argument("--eps", type=float, default=None,
                   help="tolerance override")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when any verdict is inconclusive")
    p.add_argument("--format", choices=("json", "csv", "human"),
                   default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("transform", help="emit the restarted tail curve")
    _add_spec_args(p)
    p.add_argument("--reset", required=True,
                   help="reset law: det:<r>, exp:<mu>, file:<path>")
    p.add_argument("--branching", type=int, default=1)
    p.add_argument("--single", action="store_true",
                   help="one restart opportunity only")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--points", type=int, default=513)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("simulate", help="Monte Carlo restart experiment")
    _add_spec_args(p)
    p.add_argument("--reset", required=True)
    p.add_argument("--branching", type=int, default=1)
    p.add_argument("--single", action="store_true")
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cycles", type=int, default=None)
    p.add_argument("--probes", type=_float_list, default=None)
    p.add_argument("--chunks", type=int, default=1,
                   help="accepted and validated (>= 1) but changes nothing: "
                        "results depend on --seed alone")
    p.add_argument("--branching-mode", choices=("min-law", "direct"),
                   default="min-law")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="extremal restart means and search")
    _add_spec_args(p)
    p.add_argument("--mu-bracket", type=_float_list, default=None,
                   metavar="LO,HI")
    p.add_argument("--format", choices=("json", "csv", "human"),
                   default="json")
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        sys.stderr.write(f"resetkit: data error: {exc}\n")
        return EXIT_DATA
    except (dist.SpecValidationError, rt.InvalidPeriodError) as exc:
        sys.stderr.write(f"resetkit: invalid spec: {exc}\n")
        return EXIT_DATA
    except ValueError as exc:
        sys.stderr.write(f"resetkit: data error: {exc}\n")
        return EXIT_DATA
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        sys.stderr.write(f"resetkit: i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
