import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import resetkit
from resetkit import cli
from resetkit import distributions as d
from resetkit import reset_transform as rt

NAN, INF = float("nan"), float("inf")


@pytest.fixture
def spec_files(tmp_path):
    paths = {}
    docs = {
        "exp1": {"family": "exponential", "params": {"rate": 1.0}},
        "weibull": {"family": "weibull", "params": {"shape": 2.0}},
        "uniform02": {"family": "from_mrl",
                      "params": {"grid": [0.0, 1.0], "values": [1.0, 0.5],
                                 "terminal": "linear"}},
    }
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run(argv):
    return cli.main(argv)


class TestClassify:
    def test_weibull_override_all_no_bigger(self, spec_files, tmp_path):
        out = tmp_path / "report.json"
        code = run(["classify", "--spec", spec_files["weibull"],
                    "--shape", "0.5", "-o", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        for name in ("no_bigger_reset", "no_bigger_exp_reset",
                     "no_bigger_mean", "no_bigger_exp_mean"):
            assert rep["conditions"][name]["status"] == "holds", name
        assert rep["config"]["shape"] == 0.5
        assert rep["config"]["version"]

    def test_exponential_flag(self, spec_files, tmp_path):
        out = tmp_path / "report.json"
        assert run(["classify", "--spec", spec_files["exp1"],
                    "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["exponential_flag"] is True

    def test_human_format(self, spec_files, capsys):
        assert run(["classify", "--spec", spec_files["exp1"],
                    "--format", "human"]) == 0
        text = capsys.readouterr().out
        assert "implication matrix" in text
        assert "invariant_reset" in text

    def test_strict_inconclusive_exit(self, tmp_path):
        grid = np.linspace(0.0, 8.0, 161)
        vals = np.exp(-grid)
        vals[20] *= 1.0 - 1e-8  # sub-tolerance dent
        doc = {"family": "tabulated", "grid": list(grid),
               "values": [float(v) for v in vals],
               "interpolation": "log-linear"}
        p = tmp_path / "dented.json"
        p.write_text(json.dumps(doc))
        assert run(["classify", "--spec", str(p), "--strict",
                    "-o", str(tmp_path / "r.json")]) == 2
        assert run(["classify", "--spec", str(p),
                    "-o", str(tmp_path / "r2.json")]) == 0


class TestErrors:
    def test_malformed_json_is_data_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(["classify", "--spec", str(p)]) == 65

    def test_invalid_spec_is_data_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"family": "exponential",
                                 "params": {"rate": -2.0}}))
        assert run(["classify", "--spec", str(p)]) == 65

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["classify", "--spec", str(tmp_path / "nope.json")]) == 74

    def test_usage_error_exit_code(self, spec_files):
        with pytest.raises(SystemExit) as info:
            run(["classify"])
        assert info.value.code == 64

    @pytest.mark.parametrize("doc", [
        {"family": "piecewise_constant",
         "params": {"breakpoints": [0.0, 1.0], "levels": []}},
        {"family": "piecewise_constant",
         "params": {"breakpoints": [0.0, 1.0], "levels": [0.5, 0.2, 0.0]}},
        {"family": "piecewise_constant",
         "params": {"breakpoints": [], "levels": []}},
        {"family": "tabulated", "grid": [], "values": []}])
    def test_step_curve_without_one_value_per_knot(self, tmp_path, doc):
        # an empty curve has no last value to take as its terminal; taking
        # it raised an IndexError, which escaped the CLI as a traceback
        p = tmp_path / "step.json"
        p.write_text(json.dumps(doc))
        assert run(["classify", "--spec", str(p)]) == 65

    @pytest.mark.parametrize("doc", [
        {"family": "tabulated", "grid": [0, 1], "values": [NAN, 0.2]},
        {"family": "tabulated", "grid": [0, NAN], "values": [0.5, 0.2]},
        {"family": "tabulated", "grid": [0, INF], "values": [0.5, 0.2]},
        {"family": "tabulated", "grid": [0, 1], "values": [0.5, NAN],
         "interpolation": "log-linear"},
        {"family": "piecewise_exp", "params": {"segments": [[0, 0.1, NAN]]}},
        {"family": "piecewise_exp", "params": {"segments": [[0, NAN, 1]]}}])
    def test_non_finite_curve_data(self, tmp_path, doc):
        # classify exited 0 on these, with verdicts for a meaningless law
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(doc))
        assert run(["classify", "--spec", str(p)]) == 65

    @pytest.mark.parametrize("doc", [
        {"family": "tabulated", "grid": [0], "values": [1],
         "interpolation": "log-linear"},
        {"family": "piecewise_exp", "params": {"segments": [[0, 0, 0]]}}])
    def test_tail_one_forever(self, tmp_path, doc):
        # the log-linear spelling exited 0 with an infinite mean
        p = tmp_path / "one.json"
        p.write_text(json.dumps(doc))
        assert run(["classify", "--spec", str(p)]) == 65

    @pytest.mark.parametrize("doc", [
        {"family": "piecewise_exp"},
        {"family": "piecewise_exp", "params": {"segments": []}},
        {"family": "piecewise_exp", "params": {"segments": [[0, 0.1]]}},
        {"family": "piecewise_exp",
         "params": {"segments": [[0, 0.1, 1], [1, 0.5]]}},
        {"family": "piecewise_exp",
         "params": {"segments": [[0, 0.5, 1], [1, 0.1, 1]]}}])
    def test_malformed_piecewise_exp(self, tmp_path, doc):
        p = tmp_path / "pe.json"
        p.write_text(json.dumps(doc))
        assert run(["classify", "--spec", str(p)]) == 65

    def test_bad_reset_descriptor(self, spec_files):
        assert run(["transform", "--spec", spec_files["exp1"],
                    "--reset", "poisson:1"]) == 65

    @pytest.mark.parametrize("flag, value", [
        ("--points", "0"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"),
        ("--t-max", "0"), ("--t-max", "-1"), ("--t-max", "nan"),
        ("--t-max", "inf")])
    def test_transform_flag_no_solve_can_serve(self, spec_files, capsys,
                                               flag, value):
        # --points 0 ended in an IndexError traceback, --tol nan exited 0,
        # and the others warned and blamed the law
        with pytest.raises(SystemExit) as info:
            run(["transform", "--spec", spec_files["weibull"],
                 "--reset", "exp:1", flag, value])
        assert info.value.code == 64
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"resetkit transform: error: argument {flag}:")

    def test_transform_on_one_point_is_a_data_error(self, spec_files, capsys):
        # the solve divided by a zero cell width, warned twice, and failed
        # as an invalid spec
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["transform", "--spec", spec_files["weibull"],
                        "--reset", "exp:1", "--points", "1"]) == 65
        assert capsys.readouterr().err == (
            "resetkit: data error: tail grid must end at a finite point > 0,"
            " got 0.0\n")

    def test_transform_flags_echo_as_given(self, spec_files, capsys):
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--reset", "exp:1", "--single", "--t-max", "4",
                    "--points", "5", "--tol", "1e-7", "--format", "json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["t_max"], config["points"], config["tol"]) == \
            (4.0, 5, 1e-7)

    @pytest.mark.parametrize("argv", [
        ["classify", "--eps", "nan"], ["classify", "--eps", "-1"],
        ["simulate", "--reset", "exp:1", "--probes", "nan"],
        ["simulate", "--reset", "exp:1", "--max-cycles", "0"]])
    def test_setting_no_run_can_serve_is_a_data_error(self, spec_files,
                                                      argv):
        # each exited 0: eps nan printed as the tolerance, eps -1 judged
        # every margin against it, a nan probe reported P(T > nan) = 0, and
        # --max-cycles 0 meant "auto"
        assert run(argv + ["--spec", spec_files["exp1"]]) == 65


class TestTransform:
    def test_exponential_untouched(self, spec_files, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", spec_files["exp1"],
                    "--reset", "exp:2", "--t-max", "6", "--points", "101",
                    "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,tail_original,tail_transformed"
        rows = np.array([[float(x) for x in ln.split(",")]
                         for ln in lines[1:]])
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-6

    def test_weibull_det_direction(self, spec_files, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--reset", "det:1", "--t-max", "6", "--points", "121",
                    "-o", str(out)]) == 0
        rows = np.array([[float(x) for x in ln.split(",")] for ln in
                         out.read_text().splitlines()[1:]])
        assert np.all(rows[:, 2] >= rows[:, 1] - 1e-12)

    def test_branching_exp_direction(self, spec_files, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--shape", "0.5", "--branching", "2", "--reset", "exp:1",
                    "--t-max", "8", "--points", "101", "-o", str(out)]) == 0
        rows = np.array([[float(x) for x in ln.split(",")] for ln in
                         out.read_text().splitlines()[1:]])
        assert np.all(rows[:, 2] <= rows[:, 1] + 1e-6)

    def test_default_call_exits_zero(self, spec_files, tmp_path):
        # weibull(0.5) under exp:1 to its default horizon, 429, needs a grid
        # of 262,144 cells; at the old cap of 131,072 it raised
        # GridTooCoarseError
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--shape", "0.5", "--reset", "exp:1", "-o", str(out)]) == 0
        rows = np.array([[float(x) for x in ln.split(",")] for ln in
                         out.read_text().splitlines()[1:]])
        assert rows.shape == (513, 3)
        assert np.all(np.diff(rows[:, 2]) <= 0.0)

    @pytest.mark.parametrize("l", [2, 3])
    def test_branching_deterministic_is_the_closed_form(self, spec_files,
                                                        tmp_path, l):
        # the first-order branching pass was 1.8e-3 (l = 2) and 1.5e-3
        # (l = 3) off in the cells next to the restart epochs
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--shape", "0.5", "--reset", "det:1", "--branching", str(l),
                    "--t-max", "10", "--points", "1025", "-o", str(out)]) == 0
        rows = np.array([[float(x) for x in ln.split(",")] for ln in
                         out.read_text().splitlines()[1:]])
        want = rt.branching_deterministic_tail(d.Weibull(shape=0.5), 1.0, l,
                                               rows[:, 0])
        assert np.max(np.abs(rows[:, 2] - want)) <= 1e-12

    def test_default_horizon_branching_within_tolerance(self, spec_files,
                                                        tmp_path):
        # to the default horizon, 429, the first-order pass ran on 4,096
        # cells and was 4.4e-3 off while reporting an error of 2e-12
        out = tmp_path / "t.json"
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--shape", "0.5", "--reset", "exp:1", "--branching", "2",
                    "--format", "json", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["err_estimate"] <= 1e-6
        grid = np.asarray(payload["grid"])
        near = grid <= 10.0
        ref = rt.branching_reset_tail(d.Weibull(shape=0.5),
                                      rt.ResetLaw.exponential(1.0), 2, 10.0)
        want = np.interp(grid[near], ref.grid, ref.knot_values)
        got = np.asarray(payload["values"])[near]
        assert np.max(np.abs(got - want)) <= \
            payload["err_estimate"] + ref.err_estimate + 1e-6

    def test_branching_past_cycle_60_answers(self, tmp_path):
        # T is uniform on [1, 2] and R mostly falls before 1, so every cycle
        # restarts with probability 0.993: cycle 60 is still reached, and
        # the solve, which refused (exit 65), closes the series there
        p = tmp_path / "u12.json"
        p.write_text(json.dumps({"family": "from_mrl", "params": {
            "grid": [0.0, 1.0], "values": [1.5, 0.5], "terminal": "linear",
            "terminal_slope": -0.5}}))
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", str(p), "--reset", "exp:5",
                    "--branching", "2", "-o", str(out)]) == 0
        rows = np.array([[float(x) for x in ln.split(",")] for ln in
                         out.read_text().splitlines()[1:]])
        # every copy lasts the dead time [0, 1): the tail is 1 there
        assert np.all(rows[rows[:, 0] < 1.0, 2] >= 1.0 - 1e-6)

    def test_json_output_roundtrips_as_spec(self, spec_files, tmp_path):
        out = tmp_path / "transformed.json"
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--reset", "det:1", "--format", "json", "--t-max", "5",
                    "--points", "65", "-o", str(out)]) == 0
        assert run(["classify", "--spec", str(out),
                    "-o", str(tmp_path / "rep.json")]) == 0

    def test_uniform_points_are_solver_nodes(self, tmp_path):
        # 1,000 points on [0, 3] with pw_finite's jumps at 1, 1.5 and 2: the
        # solve on 8,192 cells put t = 1.0 inside a cell across the jump and
        # printed 0.24195 there (3.1e-2 off); the solve now starts at 9,990
        # cells, ten to each of the 999 intervals
        p = tmp_path / "pw_finite.json"
        p.write_text(json.dumps({"family": "piecewise_constant", "params": {
            "breakpoints": [0.0, 1.0, 1.5, 2.0],
            "levels": [0.5, 0.25, 1.0 / 6.0, 0.0]}}))
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", str(p), "--reset", "exp:1",
                    "--t-max", "3", "--points", "1000", "-o", str(out)]) == 0
        rows = np.array([[float(x) for x in ln.split(",")] for ln in
                         out.read_text().splitlines()[1:]])
        # a solve of 999 * 1,024 cells (about 2**20) has every point as a node
        want = rt._branching_pass(d.spec_from_dict(json.loads(
            p.read_text())), rt.ResetLaw.exponential(1.0), 1, 0, 3.0,
            999 * 1024)[::1024]
        assert np.max(np.abs(rows[:, 2] - want)) <= 1e-6

    @pytest.mark.parametrize("points, sizes", [
        # 9,990 cells, then [0, T_c] at 611 of them, T_c = 26.27
        (1000, [4995, 9990, 1222, 2444, 4888, 9776]),
        # 8,200 cells, then [0, T_c] at 502 of them; on the whole horizon
        # the ladder stopped at 131,200 short of the tolerance, and the solve
        # ran again from n0 to 262,144
        (101, [4100, 8200, 1004, 2008, 4016, 8032, 16064]),
    ])
    def test_uniform_points_solve_within_n_max(self, spec_files, tmp_path,
                                               monkeypatch, points, sizes):
        # weibull(0.5) under exp:1 to its default horizon 429 doubles four
        # or five times; past its first rung it solves only [0, T_c], where
        # the restarted tail exceeds 1e-9
        seen = []
        solve = rt._branching_pass

        def record(spec, reset, l, depth, upper, n):
            seen.append(n)
            return solve(spec, reset, l, depth, upper, n)
        monkeypatch.setattr(rt, "_branching_pass", record)
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--shape", "0.5", "--reset", "exp:1",
                    "--points", str(points), "-o", str(out)]) == 0
        assert seen == sizes
        assert len(out.read_text().splitlines()) == points + 1

    def test_default_horizon_of_a_slow_tail_solves(self, tmp_path):
        # sps(0.5)'s default horizon is 15,811, while the restarted tail is
        # below 1e-9 by t ~ 42: on the whole horizon the ladder ended at
        # 262,144 cells with an estimate of 3.05e-4 and exit 65; n_max now
        # caps the cells a rung solves on [0, T_c]
        p = tmp_path / "sps05.json"
        p.write_text(json.dumps({"family": "shifted_pareto_square",
                                 "params": {"offset": 0.5}}))
        out = tmp_path / "t.json"
        assert run(["transform", "--spec", str(p), "--reset", "exp:1",
                    "--format", "json", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["err_estimate"] <= 1e-6
        grid, vals = np.array(doc["grid"]), np.array(doc["values"])
        ref = rt.solver_reset_tail(d.spec_from_dict(json.loads(p.read_text())),
                                   rt.ResetLaw.exponential(1.0), 40.0)
        near = grid <= 40.0
        assert np.max(np.abs(vals[near] - ref(grid[near]))) <= \
            doc["err_estimate"] + ref.err_estimate

    def test_single_reset_flag(self, spec_files, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", spec_files["weibull"],
                    "--shape", "0.5", "--reset", "det:1", "--single",
                    "--t-max", "4", "--points", "81", "-o", str(out)]) == 0
        rows = np.array([[float(x) for x in ln.split(",")] for ln in
                         out.read_text().splitlines()[1:]])
        t2 = rows[np.isclose(rows[:, 0], 2.0)][0]
        assert t2[2] == pytest.approx(np.exp(-2.0), rel=1e-9)


    def test_single_serves_branching(self, spec_files, tmp_path):
        # --branching 2 was ignored (0.46169, the l = 1 tail, at t = 1),
        # then refused with exit 64; one restart racing two copies gives
        # 0.36383 by quad
        out = tmp_path / "t.csv"
        assert run(["transform", "--spec", spec_files["weibull"], "--reset",
                    "exp:1", "--single", "--branching", "2", "--t-max", "2",
                    "--points", "3", "-o", str(out)]) == 0
        t1 = out.read_text().splitlines()[2].split(",")
        assert float(t1[0]) == 1.0
        assert float(t1[2]) == pytest.approx(0.3638250962, abs=1e-10)

    def test_single_reports_its_quadrature_error(self, spec_files, capsys):
        # err_estimate was 0.0 whatever the quadrature's error
        assert run(["transform", "--spec", spec_files["weibull"], "--reset",
                    "exp:1", "--single", "--t-max", "4", "--points", "65",
                    "--format", "json"]) == 0
        err = json.loads(capsys.readouterr().out)["err_estimate"]
        assert 0.0 < err <= 1e-12

    def test_single_that_misses_its_tolerance_is_a_data_error(self,
                                                              spec_files,
                                                              capsys):
        # --tol was ignored: exit 0 with err_estimate 1.6e-14 over 1e-15,
        # where the renewal solve exits 65
        assert run(["transform", "--spec", spec_files["weibull"], "--shape",
                    "0.5", "--reset", "exp:1", "--single", "--tol",
                    "1e-15"]) == 65
        err = capsys.readouterr().err
        assert err.startswith("resetkit: data error: single-restart error "
                              "estimate") and err.count("\n") == 1


class TestSimulate:
    def test_byte_identical_reruns(self, spec_files, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--spec", spec_files["exp1"], "--reset", "det:0.5",
                "--replicates", "20000", "--seed", "42"]
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rep = json.loads(a.read_text())
        assert abs(rep["mean"] - 1.0) < 4.0 * rep["mean_se"]

    def test_file_reset_law(self, spec_files, tmp_path):
        out = tmp_path / "s.json"
        assert run(["simulate", "--spec", spec_files["exp1"],
                    "--reset", f"file:{spec_files['uniform02']}",
                    "--replicates", "5000", "--seed", "7",
                    "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["reset"] == "file:from_mrl"

    def test_censoring_exit_code_with_partial_report(self, spec_files,
                                                     tmp_path):
        out = tmp_path / "s.json"
        code = run(["simulate", "--spec", spec_files["weibull"],
                    "--shape", "0.5", "--reset", "det:0.01",
                    "--replicates", "500", "--seed", "1",
                    "--max-cycles", "3", "-o", str(out)])
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["error"] == "excessive_censoring"
        assert rep["censored_fraction"] > 0.01

    @pytest.mark.parametrize("mode", ["min-law", "direct"])
    def test_single_races_branching_copies(self, spec_files, capsys, mode):
        # ran one copy after the restart and printed "branching": 1, then
        # was refused with exit 64
        probes = (0.3, 0.8, 1.2, 2.0)
        assert run(["simulate", "--spec", spec_files["weibull"], "--reset",
                    "exp:1", "--single", "--branching", "2",
                    "--branching-mode", mode, "--replicates", "40000",
                    "--seed", "3", "--probes", "0.3,0.8,1.2,2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["kind"], rep["branching"]) == ("single_reset", 2)
        curve = rt.single_reset_tail(d.Weibull(shape=2.0),
                                     rt.ResetLaw.exponential(1.0), probes,
                                     l=2)
        for want, hat, se in zip(curve.knot_values[1:], rep["tail_probs"],
                                 rep["tail_se"]):
            assert abs(hat - want) <= 4.0 * se

    def test_single_obeys_max_cycles(self, spec_files, capsys):
        # --max-cycles 1 ran two cycles and reported max_cycles 2: the cap
        # of a single restart is min(k, 2), and at 1 the restarted
        # replicates are censored
        argv = ["simulate", "--spec", spec_files["weibull"], "--reset",
                "exp:1", "--single", "--replicates", "5000", "--seed", "9"]
        assert run(argv + ["--max-cycles", "1"]) == 3
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "excessive_censoring"
        assert rep["max_cycles"] == rep["config"]["max_cycles"] == 1
        assert rep["cycle_histogram"] == [0, 5000]
        assert rep["n_capped"] > 0.01 * 5000
        for k in ("2", "3"):
            assert run(argv + ["--max-cycles", k]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert (rep["max_cycles"], rep["n_capped"]) == (2, 0)
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["max_cycles"] == 2


class TestOptimize:
    def test_exponential_flat_report(self, spec_files, tmp_path):
        out = tmp_path / "o.json"
        assert run(["optimize", "--spec", spec_files["exp1"],
                    "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["sup"] == pytest.approx(1.0, rel=1e-6)
        assert rep["inf"] == pytest.approx(1.0, rel=1e-6)
        assert rep["exponential_improves"] is False
        assert rep["restart_harmful"] is False
        assert rep["config"]["version"]

    def test_weibull_light_flags_harmful(self, spec_files, tmp_path):
        out = tmp_path / "o.json"
        assert run(["optimize", "--spec", spec_files["weibull"],
                    "--shape", "1.5", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["restart_harmful"] is True
        assert rep["sup"] == "inf"

    def test_csv_curve(self, spec_files, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["optimize", "--spec", spec_files["exp1"], "--format",
                    "csv", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,deterministic_reset_mean"
        assert len(lines) > 100


def test_import_loads_no_scipy_integrate_or_optimize(tmp_path):
    # the quadrature is in-house, so a fresh interpreter importing the CLI
    # pays for neither, nor for numpy.ma (which a module-level np.unique
    # loaded, ~8 ms), nor for the parser, built on the first call;
    # optimize still refines an interior best rate through its lazy import
    # (the bimodal law of test_optimizer, mu ~ 0.97)
    spec = tmp_path / "bimodal.json"
    spec.write_text(json.dumps({"family": "piecewise_exp", "params": {
        "segments": [[0, 0, 0.001], [0.95, 0.00095, 1.05],
                     [1.05, 0.10595, 0], [90, 0.10595, 0.2]]}}))
    out = tmp_path / "o.json"
    script = (
        "import sys, resetkit.cli\n"
        "before = sorted(m for m in ('scipy.integrate', 'scipy.optimize',"
        " 'numpy.ma') if m in sys.modules)\n"
        "built = resetkit.cli.build_parser.cache_info().currsize\n"
        f"code = resetkit.cli.main(['optimize', '--spec', {str(spec)!r}, "
        f"'-o', {str(out)!r}])\n"
        "print(before, built, code, 'scipy.optimize' in sys.modules)\n")
    src = str(Path(resetkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["[]", "0", "0", "True"]
    assert json.loads(out.read_text())["exponential_improves"] is True


def test_cli_runs_without_scipy_on_piecewise_and_mrl_laws(tmp_path):
    # the closed-form laws' special functions load scipy.special on first
    # use; the solver, the branching pass, the simulator and the checks on
    # piecewise and from_mrl laws load no scipy module at all
    docs = {
        "pw_finite": {"family": "piecewise_constant",
                      "params": {"breakpoints": [0.0, 1.0, 1.5, 2.0],
                                 "levels": [0.5, 0.25, 1.0 / 6.0, 0.0]}},
        "pe_mean_only": {"family": "piecewise_exp", "params": {
            "segments": [[0.0, 0.1, 1.0], [1.0, 1.25, 1.0]]}},
        "uniform02": {"family": "from_mrl",
                      "params": {"grid": [0.0, 1.0], "values": [1.0, 0.5],
                                 "terminal": "linear"}},
        "weib2": {"family": "weibull", "params": {"shape": 2.0}}}
    spec = {}
    for name, doc in docs.items():
        spec[name] = str(tmp_path / f"{name}.json")
        Path(spec[name]).write_text(json.dumps(doc))
    short = ["--t-max", "4", "--points", "65"]
    calls = [
        ["transform", "--spec", spec["pe_mean_only"], "--reset", "exp:1"]
        + short,
        ["transform", "--spec", spec["pw_finite"],
         "--reset", f"file:{spec['uniform02']}"] + short,
        ["transform", "--spec", spec["uniform02"], "--reset", "exp:1",
         "--branching", "3"] + short,
        ["transform", "--spec", spec["pe_mean_only"], "--reset", "exp:1"],
        ["simulate", "--spec", spec["pe_mean_only"], "--reset", "exp:1",
         "--replicates", "2000"],
        ["classify", "--spec", spec["pw_finite"]],
        ["classify", "--spec", spec["pe_mean_only"]],
        ["classify", "--spec", spec["uniform02"]]]
    weib = ["classify", "--spec", spec["weib2"]]
    outputs = [str(tmp_path / f"{i}.out") for i in range(len(calls))]
    script = f"""
import json, sys
import resetkit.cli

def scipy():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

seen = [scipy()]
for argv, out in zip({calls!r}, {outputs!r}):
    seen.append([resetkit.cli.main(argv + ['-o', out])] + scipy())
code = resetkit.cli.main({weib!r} + ['-o', {str(tmp_path / "weib.out")!r}])
seen.append([code, 'scipy.special' in sys.modules])
print(json.dumps(seen))
"""
    src = str(Path(resetkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[]] + [[0]] * len(calls) + [[0, True]]
    here = tmp_path / "weib_here.out"
    assert run(weib + ["-o", str(here)]) == 0
    assert here.read_bytes() == (tmp_path / "weib.out").read_bytes()


class TestParserReuse:
    """One parser serves every call in a process."""

    def calls(self, spec_files):
        weibull, exp1 = spec_files["weibull"], spec_files["exp1"]
        transform = ["transform", "--spec", weibull, "--reset", "exp:1",
                     "--single", "--t-max", "2", "--points", "5"]
        classify = ["classify", "--spec", exp1, "--format", "json"]
        simulate = ["simulate", "--spec", exp1, "--reset", "exp:2",
                    "--replicates", "2000", "--seed", "5"]
        return [transform + ["--set", "shape=0.5"],
                transform,
                classify + ["--set", "rate=2", "--mu-grid", "0.5,2",
                            "--lfolds", "4"],
                classify,
                simulate + ["--probes", "0.1,0.4"],
                simulate,
                transform + ["--format", "json", "--shape", "3"],
                ["optimize", "--spec", weibull, "--format", "csv"],
                transform]

    def test_each_call_prints_what_a_lone_call_prints(self, spec_files,
                                                      capsys):
        lone = []
        for argv in self.calls(spec_files):
            cli.build_parser.cache_clear()
            lone.append((run(argv), capsys.readouterr()))
            assert lone[-1][0] == 0, lone[-1]
        cli.build_parser.cache_clear()
        for _ in range(2):
            for argv, want in zip(self.calls(spec_files), lone):
                assert (run(argv), capsys.readouterr()) == want, argv
        assert cli.build_parser.cache_info().misses == 1

    def test_defaults_and_overrides_do_not_carry_over(self, spec_files):
        parser = cli.build_parser()
        spec = spec_files["exp1"]
        first = parser.parse_args(["classify", "--spec", spec,
                                   "--set", "rate=2"])
        assert first.set == ["rate=2"]
        for value in (first.set, first.mu_grid, first.lfolds):
            if isinstance(value, list):  # as a handler might
                value.append(9)
        second = parser.parse_args(["classify", "--spec", spec])
        assert second.set is None
        assert list(second.mu_grid) == [0.1, 0.5, 1.0, 5.0]
        assert list(second.lfolds) == [2, 3]
        third = parser.parse_args(["classify", "--spec", spec,
                                   "--set", "level=1"])
        assert third.set == ["level=1"]

    def test_handler_is_looked_up_per_call(self, spec_files, monkeypatch):
        # a rebound handler (as a tracer installs) is seen by a parser
        # built before it was rebound
        cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_optimize",
                            lambda args: seen.append(args.spec) or 0)
        assert run(["optimize", "--spec", spec_files["exp1"]]) == 0
        assert seen == [spec_files["exp1"]]

