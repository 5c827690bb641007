import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ncadmm import cli, data, metrics, solvers
from ncadmm.exceptions import ConfigError, DivergenceError

import oracles


@pytest.fixture
def runner():
    return CliRunner()


def write_spec(path, **overrides):
    spec = {
        "version": "v1",
        "problem": {"kind": "graph_guided", "n": 120, "d": 6, "seed": 3,
                    "nu": 1e-5, "empty_support": True},
        "solvers": [
            {"name": "dete", "variant": "dete", "eta": 1.0, "rho": 60.0, "T": 30},
            {"name": "stoc", "variant": "stoc", "eta": 1.0, "rho": 60.0,
             "M": 20, "T": 30},
        ],
        "repetitions": 2,
        "seed_base": 11,
        "trace_stride": 5,
    }
    spec.update(overrides)
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return spec


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_outputs_and_header(self, runner, tmp_path):
        spec = tmp_path / "exp.json"
        write_spec(spec)
        out = tmp_path / "out"
        res = runner.invoke(
            cli.main, ["run", "--spec", str(spec), "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        for name in ("dete", "stoc"):
            for rep in range(2):
                assert (out / f"{name}_rep{rep}.csv").exists()
            assert (out / f"{name}_mean.csv").exists()
        rows = read_csv(out / "dete_rep0.csv")
        assert rows[0] == cli.CSV_COLUMNS
        # stride 5 over 30 iterations
        assert [int(r[0]) for r in rows[1:]] == [5, 10, 15, 20, 25, 30]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["solvers"]) == {"dete", "stoc"}
        assert summary["solvers"]["dete"]["certificate"]["accepted"] is True

    def test_rerun_identical_up_to_wall_time(self, runner, tmp_path):
        spec = tmp_path / "exp.json"
        write_spec(spec)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            res = runner.invoke(
                cli.main, ["run", "--spec", str(spec), "--out", str(out)]
            )
            assert res.exit_code == 0, res.output
            outs.append(out)
        wt = cli.CSV_COLUMNS.index("wall_time_s")
        for name in ("dete_rep0.csv", "dete_rep1.csv", "stoc_rep0.csv",
                     "stoc_mean.csv"):
            a = read_csv(outs[0] / name)
            b = read_csv(outs[1] / name)
            for ra, rb in zip(a, b):
                ra[wt] = rb[wt] = ""
                assert ra == rb

    def test_uncertified_refused_then_overridden(self, runner, tmp_path):
        spec = tmp_path / "exp.json"
        write_spec(spec, solvers=[
            {"name": "bad", "variant": "stoc", "eta": 1.0, "rho": 0.1,
             "M": 20, "T": 10},
        ])
        out = tmp_path / "out"
        res = runner.invoke(
            cli.main, ["run", "--spec", str(spec), "--out", str(out)]
        )
        assert res.exit_code == 2
        assert "refused" in res.output
        res = runner.invoke(
            cli.main,
            ["run", "--spec", str(spec), "--out", str(out), "--allow-uncertified"],
        )
        assert res.exit_code == 0, res.output

    def test_bad_version_exits_2(self, runner, tmp_path):
        spec = tmp_path / "exp.json"
        write_spec(spec, version="v0")
        res = runner.invoke(
            cli.main, ["run", "--spec", str(spec), "--out", str(tmp_path / "o")]
        )
        assert res.exit_code == 2

    def test_lyapunov_column_filled(self, runner, tmp_path, monkeypatch):
        # every variant's column is exactly Psi of its own trace at the
        # certificate's zeta
        runs = []

        def keep(problem, config, callback=None, _orig=solvers.run):
            result = _orig(problem, config, callback)
            runs.append((config, result))
            return result

        monkeypatch.setattr(solvers, "run", keep)
        spec = tmp_path / "exp.json"
        write_spec(spec, solvers=[
            {"name": v, "variant": v, "eta": 1.0, "rho": 60.0, "M": 20, "T": 30}
            for v in solvers.VARIANTS
        ])
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["run", "--spec", str(spec), "--out",
                                       str(out), "--allow-uncertified"])
        assert res.exit_code == 0, res.output
        summary = strict_json((out / "summary.json").read_text())
        col = cli.CSV_COLUMNS.index("lyapunov")
        assert [c.variant for c, _ in runs] == [
            v for v in solvers.VARIANTS for _ in range(2)
        ]
        for i, (cfg, result) in enumerate(runs):
            name, rep = cfg.variant, i % 2
            rows = read_csv(out / f"{name}_rep{rep}.csv")
            vals = [float(r[col]) for r in rows[1:]]
            zeta = summary["solvers"][name]["certificate"]["constants"]["zeta"]
            assert all(np.isfinite(vals))
            assert vals == metrics.lyapunov_psi(result.trace, zeta, cfg.rho).tolist()

    def test_every_repetition_diverged_exits_3(self, runner, tmp_path,
                                               monkeypatch):
        def diverge(problem, config, callback=None):
            raise DivergenceError("x", 7)

        monkeypatch.setattr(solvers, "run", diverge)
        spec = tmp_path / "exp.json"
        write_spec(spec)
        out = tmp_path / "out"
        res = runner.invoke(
            cli.main, ["run", "--spec", str(spec), "--out", str(out)]
        )
        assert res.exit_code == cli.EXIT_DIVERGED, res.output
        assert sorted(os.listdir(out)) == ["summary.json"]
        summary = strict_json((out / "summary.json").read_text())
        for name in ("dete", "stoc"):
            solver = summary["solvers"][name]
            assert solver["repetitions_completed"] == 0
            assert solver["diverged"] == [
                {"rep": rep, "error": "x (iteration 7)", "iteration": 7}
                for rep in range(2)
            ]

    def test_solver_seed_is_ignored(self, runner, tmp_path):
        """Repetition k runs at seed_base + k, so a solver-level seed is an
        undeclared key: kept, unchecked and without effect."""
        outs = []
        for tag, extra in (("a", {}), ("b", {"seed": 5})):
            spec = tmp_path / f"{tag}.json"
            write_spec(
                spec, problem={"kind": "graph_guided", "n": 60, "d": 4, "seed": 0},
                solvers=[{"variant": "stoc", "eta": 1.0, "rho": 1.0, "M": 5,
                          "T": 5, **extra}],
                trace_stride=1,
            )
            out = tmp_path / tag
            res = runner.invoke(cli.main, ["run", "--spec", str(spec), "--out",
                                           str(out), "--allow-uncertified"])
            assert res.exit_code == 0, res.output
            outs.append(out)
        wt = cli.CSV_COLUMNS.index("wall_time_s")
        for name in ("stoc_rep0.csv", "stoc_rep1.csv", "stoc_mean.csv"):
            a, b = read_csv(outs[0] / name), read_csv(outs[1] / name)
            assert len(a) == len(b) == 6
            for ra, rb in zip(a, b):
                ra[wt] = rb[wt] = ""
                assert ra == rb
        spec = json.loads((tmp_path / "b.json").read_text())
        spec["solvers"][0]["seed"] = "x"
        assert cli._check_spec(spec)["solvers"][0]["seed"] == "x"

    def test_seed_option_replaces_seed_base(self, runner, tmp_path):
        # stoc draws its batches from the seed, so its rows tell seeds apart
        for tag, seed_base, extra in (("opt", 11, ["--seed", "4"]),
                                      ("spec", 4, []), ("base", 11, [])):
            spec = tmp_path / f"{tag}.json"
            write_spec(spec, seed_base=seed_base)
            res = runner.invoke(cli.main, ["run", "--spec", str(spec), "--out",
                                           str(tmp_path / tag), *extra])
            assert res.exit_code == 0, res.output
        wt = cli.CSV_COLUMNS.index("wall_time_s")

        def rows(tag, name):
            table = read_csv(tmp_path / tag / name)
            for row in table:
                row[wt] = ""
            return table

        for name in ("dete_rep0.csv", "dete_rep1.csv", "dete_mean.csv",
                     "stoc_rep0.csv", "stoc_rep1.csv", "stoc_mean.csv"):
            assert rows("opt", name) == rows("spec", name)
        assert rows("opt", "stoc_rep0.csv") != rows("base", "stoc_rep0.csv")


def strict_json(text, start=0):
    """The JSON value at `start` of text; Infinity, -Infinity and NaN, which
    JSON does not have, are refused."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.JSONDecoder(parse_constant=refuse).raw_decode(text, start)[0]


class TestCheckParams:
    def test_accept_and_reject(self, runner, tmp_path):
        spec = tmp_path / "exp.json"
        write_spec(spec)
        ok = runner.invoke(
            cli.main,
            ["check-params", "--spec", str(spec), "--variant", "dete",
             "--eta", "1.0", "--rho", "60.0"],
        )
        assert ok.exit_code == 0, ok.output
        assert json.loads(ok.output)["accepted"] is True
        bad = runner.invoke(
            cli.main,
            ["check-params", "--spec", str(spec), "--variant", "stoc",
             "--eta", "1.0", "--rho", "0.1"],
        )
        assert bad.exit_code == 2

    @pytest.mark.parametrize("variant, batch, extra, accepted", [
        ("svrg", "20", ["--epoch-length", "3"], True),
        ("svrg", "20", ["--epoch-length", "6"], False),
        ("saga", "20", ["--iterations", "1"], True),
        ("saga", "20", ["--iterations", "10"], False),
        ("saga", "60", [], True),
    ])
    def test_accepted_is_a_json_bool(self, runner, tmp_path, variant, batch,
                                     extra, accepted):
        # eta inside its interval, so Gamma alone decides
        spec = tmp_path / "exp.json"
        write_spec(spec)
        res = runner.invoke(
            cli.main,
            ["check-params", "--spec", str(spec), "--variant", variant,
             "--eta", "1.0", "--rho", "60.0", "--batch", batch, *extra],
        )
        cert = json.loads(res.output)
        lo, hi = cert["eta_interval"]
        assert lo < 1.0 <= hi
        assert cert["accepted"] is accepted
        assert res.exit_code == (0 if accepted else 2)
        assert all(type(g) is float for g in cert["gamma_sequence"])


    def test_overflowing_certificate_is_strict_json(self, runner, tmp_path):
        # the saga shift schedule overflows to inf, and Gamma with it
        spec = tmp_path / "exp.json"
        write_spec(
            spec, problem={"kind": "graph_guided", "n": 2000, "d": 10, "seed": 0},
            solvers=[{"variant": "saga", "eta": 1.0, "rho": 1.0, "M": 20,
                      "T": 1200}],
        )
        res = runner.invoke(cli.main, [
            "check-params", "--spec", str(spec), "--variant", "saga", "--eta",
            "1", "--rho", "1", "--batch", "20", "--iterations", "1200",
        ])
        assert res.exit_code == 2
        cert = strict_json(res.output)
        assert cert["gamma"] is None and None in cert["schedule"]
        out = tmp_path / "out"
        res = runner.invoke(cli.main, ["run", "--spec", str(spec), "--out", str(out)])
        assert res.exit_code == 2
        assert strict_json(res.output, res.output.index("{")) == cert
        summary = strict_json((out / "summary.json").read_text())
        assert summary["solvers"]["saga"]["certificate"] == cert


class TestRhoSweep:
    def test_table_written(self, runner, tmp_path):
        spec = tmp_path / "exp.json"
        write_spec(
            spec,
            solvers=[{"name": "dete", "variant": "dete", "eta": 1.0,
                      "rho": 60.0, "T": 10}],
            repetitions=1,
        )
        out = tmp_path / "sweep"
        res = runner.invoke(
            cli.main,
            ["rho-sweep", "--spec", str(spec), "--out", str(out),
             "--rho", "40", "--rho", "80", "--allow-uncertified"],
        )
        assert res.exit_code == 0, res.output
        rows = read_csv(out / "sweep_table.csv")
        assert rows[0] == ["rho", "solver", "final_objective",
                           "final_feas_sq", "certified"]
        assert {r[0] for r in rows[1:]} == {"40.0", "80.0"}

    def test_problem_built_once(self, runner, tmp_path, monkeypatch):
        calls = []

        def build(problem_spec, _orig=cli.build_problem):
            calls.append(problem_spec)
            return _orig(problem_spec)

        monkeypatch.setattr(cli, "build_problem", build)
        spec = tmp_path / "exp.json"
        write_spec(spec, repetitions=1)
        res = runner.invoke(cli.main, [
            "rho-sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep"),
            "--rho", "40", "--rho", "80", "--allow-uncertified",
        ])
        assert res.exit_code == 0, res.output
        assert len(calls) == 1

    def test_each_rho_is_its_run(self, runner, tmp_path):
        """Each rho_<v>/ holds what `run` writes for the spec at that rho,
        up to wall time: the rhos share one problem, which no run changes."""
        spec = tmp_path / "exp.json"
        raw = write_spec(spec, solvers=[
            {"variant": v, "eta": 1.0, "rho": 1.0, "M": 20, "T": 10}
            for v in solvers.VARIANTS
        ])
        out = tmp_path / "sweep"
        res = runner.invoke(cli.main, [
            "rho-sweep", "--spec", str(spec), "--out", str(out),
            "--rho", "40", "--rho", "80", "--allow-uncertified",
        ])
        assert res.exit_code == 0, res.output
        wt = cli.CSV_COLUMNS.index("wall_time_s")
        for rho in (40.0, 80.0):
            at_rho = tmp_path / f"at_{rho:g}.json"
            at_rho.write_text(json.dumps(cli._at_rho(raw, rho)))
            single = tmp_path / f"run_{rho:g}"
            res = runner.invoke(cli.main, ["run", "--spec", str(at_rho), "--out",
                                           str(single), "--allow-uncertified"])
            assert res.exit_code == 0, res.output
            swept = out / f"rho_{rho:g}"
            names = sorted(os.listdir(single))
            assert sorted(os.listdir(swept)) == names and len(names) == 13
            for name in names:
                if name.endswith(".csv"):
                    a, b = read_csv(swept / name), read_csv(single / name)
                    for row in a + b:
                        del row[wt]
                    assert a == b, name
            assert ((swept / "summary.json").read_text()
                    == (single / "summary.json").read_text())


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, env_extra=None, python_flags=()):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "ncadmm.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestFailClosed:
    @pytest.fixture
    def refused_spec(self, tmp_path):
        # graph-guided certificates are refused at rho=1
        spec = tmp_path / "exp.json"
        write_spec(
            spec,
            problem={"kind": "graph_guided", "n": 400, "d": 20, "seed": 0},
            solvers=[{"name": "stoc", "variant": "stoc", "eta": 1.0,
                      "rho": 1.0, "M": 20, "T": 10}],
            repetitions=1,
        )
        return spec

    def assert_one_line_error(self, proc):
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and proc.stderr.strip() == errors[0]

    def test_rho_sweep_refusal_writes_summary(self, refused_spec, tmp_path):
        out = tmp_path / "sweep"
        proc = run_cli(["rho-sweep", "--spec", str(refused_spec), "--out",
                        str(out), "--rho", "1"])
        self.assert_one_line_error(proc)
        summary = json.loads((out / "rho_1" / "summary.json").read_text())
        cert = summary["solvers"]["stoc"]["certificate"]
        assert cert["accepted"] is False and cert["reasons"]
        rows = read_csv(out / "sweep_table.csv")
        assert rows[1][:2] == ["1.0", "stoc"] and rows[1][-1] == "False"

    def test_run_refusal_runs_no_solver(self, refused_spec, tmp_path):
        good = {"name": "dete", "variant": "dete", "eta": 1.0, "rho": 60.0, "T": 5}
        spec = json.loads(refused_spec.read_text())
        spec["solvers"].insert(0, good)
        refused_spec.write_text(json.dumps(spec))
        out = tmp_path / "out"
        proc = run_cli(["run", "--spec", str(refused_spec), "--out", str(out)])
        self.assert_one_line_error(proc)
        assert sorted(os.listdir(out)) == ["summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["solvers"]) == {"dete", "stoc"}

    @pytest.mark.parametrize("command", ["run", "rho-sweep"])
    def test_workers_option_is_gone(self, command, refused_spec, tmp_path):
        args = [command, "--spec", str(refused_spec), "--out",
                str(tmp_path / "o"), "--allow-uncertified", "--workers", "2"]
        if command == "rho-sweep":
            args += ["--rho", "1"]
        proc = run_cli(args)
        assert proc.returncode == 2
        # click's wording varies across versions
        assert "no such option" in proc.stderr.lower()
        assert "--workers" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_run_experiment_takes_one_worker_only(self, refused_spec, tmp_path):
        spec = cli.load_spec(str(refused_spec))
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="workers must be 1, got 2"):
            cli.run_experiment(spec, str(out), allow_uncertified=True,
                               workers=2, echo=lambda *_: None)
        assert not out.exists()

    @pytest.mark.parametrize("rhos, same", [
        (["1", "1"], "1.0, 1.0"), (["2", "1", "1.0000001"], "1.0, 1.0000001"),
    ])
    def test_rho_sweep_refuses_rhos_sharing_a_directory(self, rhos, same,
                                                        refused_spec, tmp_path):
        out = tmp_path / "sweep"
        args = ["rho-sweep", "--spec", str(refused_spec), "--out", str(out),
                "--allow-uncertified"]
        proc = run_cli(args + [tok for rho in rhos for tok in ("--rho", rho)])
        self.assert_one_line_error(proc)
        assert f"rho values {same} would all write rho_1/" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["0", "-1"])
    def test_rho_sweep_refuses_non_positive_rho_before_any_run(self, rho,
                                                               refused_spec,
                                                               tmp_path):
        out = tmp_path / "sweep"
        proc = run_cli(["rho-sweep", "--spec", str(refused_spec), "--out",
                        str(out), "--rho", "1", "--rho", rho,
                        "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "all rho values must be > 0" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_rho_sweep_refuses_non_finite_rho_before_any_run(self, rho,
                                                             refused_spec,
                                                             tmp_path):
        out = tmp_path / "sweep"
        proc = run_cli(["rho-sweep", "--spec", str(refused_spec), "--out",
                        str(out), "--rho", "1", "--rho", rho,
                        "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert f"rho-sweep: rho must be a finite number, got {rho}" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text, token", [
        ("nan 1:1\n1 1:2\n2 1:3\n", "'nan'"),
        ("1 1:1\n-1 99999999999999999999:1\n", "'99999999999999999999:1'"),
        ("1 1:1\n1e400 2:1\n", "'1e400'"),
    ])
    def test_parse_refuses_non_finite_label_and_huge_index(self, text, token,
                                                           tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text(text)
        proc = run_cli(["parse", "--path", str(path)])
        self.assert_one_line_error(proc)
        assert token in proc.stderr and "line" in proc.stderr

    @pytest.mark.parametrize("command", ["run", "check-params", "parse"])
    def test_directory_as_input_file(self, command, tmp_path):
        flag = "--path" if command == "parse" else "--spec"
        args = [command, flag, str(tmp_path)]
        args += {"run": ["--out", str(tmp_path / "o")], "parse": [],
                 "check-params": ["--variant", "stoc", "--eta", "1", "--rho", "1"]
                 }[command]
        proc = run_cli(args)
        self.assert_one_line_error(proc)
        assert "Is a directory" in proc.stderr

    def test_out_under_a_regular_file(self, refused_spec, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(blocker / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "Not a directory" in proc.stderr

    def test_gen_data_into_a_missing_directory(self, tmp_path):
        proc = run_cli(["gen-data", "--kind", "overlap", "--n", "10", "--out",
                        str(tmp_path / "missing" / "x.libsvm")])
        self.assert_one_line_error(proc)
        assert "No such file or directory" in proc.stderr

    def test_gen_data_negative_seed(self, tmp_path):
        out = tmp_path / "x.libsvm"
        proc = run_cli(["gen-data", "--kind", "overlap", "--n", "10", "--seed",
                        "-1", "--out", str(out)])
        self.assert_one_line_error(proc)
        assert "seed must be >= 0, got -1" in proc.stderr
        assert not out.exists()

    def test_gen_data_overlap_takes_d(self, tmp_path):
        out = tmp_path / "x.libsvm"
        proc = run_cli(["gen-data", "--kind", "overlap", "--n", "5", "--d", "9",
                        "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "wrote 5 samples x 9 features" in proc.stdout
        meta = json.loads((tmp_path / "x.libsvm.meta.json").read_text())
        assert meta["d"] == 9

    @pytest.mark.parametrize("d", ["3", "0"])
    def test_gen_data_overlap_d_not_a_square(self, d, tmp_path):
        out = tmp_path / "x.libsvm"
        proc = run_cli(["gen-data", "--kind", "overlap", "--n", "5", "--d", d,
                        "--out", str(out)])
        self.assert_one_line_error(proc)
        assert f"d must be a positive perfect square, got {d}" in proc.stderr
        assert not out.exists()

    def test_libsvm_support_too_large_for_memory(self, refused_spec, tmp_path):
        # d = 1e8 would ask for an 80 PB d x d A^T A; the parse refuses it
        # above MAX_DIM before any graph is drawn
        path = tmp_path / "wide.libsvm"
        path.write_text("1 1:1\n-1 100000000:1\n")
        spec = json.loads(refused_spec.read_text())
        spec["problem"] = {"kind": "libsvm", "path": str(path)}
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "d=100000000" in proc.stderr

    @pytest.mark.parametrize("problem, lines, message", [
        ({"kind": "graph_guided", "n": 10, "d": 100000000}, None,
         "graph_guided features: d=100000000 is above the largest supported "
         "d=16384"),
        ({"kind": "overlap", "n": 10, "grid": 129}, None, "d=16641"),
        ({"kind": "libsvm"}, "1 1:1\n-1 16385:1\n", "line 2: feature index 16385"),
        ({"kind": "multitask"}, "0 9223372036854775807:1\n",
         "line 1: feature index 9223372036854775807"),
        ({"kind": "multitask"}, "0 1:1\n1 6000:1\n2 2:1\n",
         "multitask model of 3 classes x 6000 features: d=18000"),
    ])
    def test_dimension_above_bound(self, problem, lines, message, tmp_path):
        if lines is not None:
            data_path = tmp_path / "data.libsvm"
            data_path.write_text(lines)
            problem["path"] = str(data_path)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        proc = run_cli(["check-params", "--spec", str(path), "--variant",
                        "stoc", "--eta", "1", "--rho", "1"])
        self.assert_one_line_error(proc)
        assert message in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (["--variant", "svrg", "--epoch-length", str(2**60)],
         f"svrg epoch length m: {2**60} values of 8 bytes do not fit one array"),
        (["--variant", "saga", "--iterations", str(2**60)],
         f"saga horizon T + 1: {2**60 + 1} values of 8 bytes"),
    ])
    def test_check_params_size_no_array_holds(self, args, message,
                                              refused_spec):
        proc = run_cli(["check-params", "--spec", str(refused_spec),
                        "--eta", "1", "--rho", "1", *args])
        self.assert_one_line_error(proc)
        assert message in proc.stderr

    @pytest.mark.parametrize("kind", ["overlap", "graph_guided"])
    def test_gen_data_size_no_array_holds(self, kind, tmp_path):
        out = tmp_path / "x.libsvm"
        proc = run_cli(["gen-data", "--kind", kind, "--n", str(2**60),
                        "--out", str(out)])
        self.assert_one_line_error(proc)
        assert f"n={2**60} samples x d=" in proc.stderr
        assert not out.exists()

    def test_spec_size_no_array_holds(self, refused_spec):
        spec = json.loads(refused_spec.read_text())
        spec["problem"]["n"] = 2**60
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["check-params", "--spec", str(refused_spec),
                        "--variant", "stoc", "--eta", "1", "--rho", "1"])
        self.assert_one_line_error(proc)
        assert f"split of n={2**60} samples" in proc.stderr

    @pytest.mark.parametrize("k", [2**63, 2**61])
    @pytest.mark.parametrize("command", ["run", "check-params"])
    def test_overlap_copies_no_array_holds(self, command, k, tmp_path):
        # refused from k x d alone, before the k copies are listed
        problem = {"kind": "overlap", "n": 20, "grid": 2, "k": k}
        if command == "run":
            spec = tmp_path / "exp.json"
            write_spec(spec, problem=problem)
            args = ["run", "--spec", str(spec), "--out", str(tmp_path / "o"),
                    "--allow-uncertified"]
        else:
            spec = tmp_path / "problem.json"
            spec.write_text(json.dumps(problem))
            args = ["check-params", "--spec", str(spec), "--variant", "stoc",
                    "--eta", "1", "--rho", "1"]
        proc = run_cli(args)
        self.assert_one_line_error(proc)
        assert f"overlap constraint of k={k} copies x d=4" in proc.stderr

    @pytest.mark.parametrize("flag, value, key", [
        ("--iterations", "0", "T"), ("--iterations", "-5", "T"),
        ("--batch", "0", "M"), ("--epoch-length", "0", "m"),
    ])
    def test_check_params_size_below_least(self, flag, value, key,
                                           refused_spec):
        proc = run_cli(["check-params", "--spec", str(refused_spec),
                        "--variant", "svrg", "--eta", "1", "--rho", "1",
                        flag, value])
        self.assert_one_line_error(proc)
        assert f"check-params: {key} must be >= 1, got {value}" in proc.stderr
        assert proc.stdout == ""

    def test_parse_refuses_index_above_bound(self, tmp_path):
        path = tmp_path / "huge.libsvm"
        path.write_text("1 9223372036854775807:1\n")
        proc = run_cli(["parse", "--path", str(path)])
        self.assert_one_line_error(proc)
        assert "d=9223372036854775807 is above" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("flag, value", [
        ("--eta", "nan"), ("--eta", "inf"), ("--rho", "nan"),
        ("--rho", "-inf"), ("--r", "nan"), ("--r", "inf"),
    ])
    def test_check_params_non_finite_number(self, refused_spec, flag, value):
        args = {"--eta": "1", "--rho": "1", flag: value}
        proc = run_cli(["check-params", "--spec", str(refused_spec),
                        "--variant", "stoc",
                        *[tok for item in args.items() for tok in item]])
        self.assert_one_line_error(proc)
        assert f"{flag[2:]} must be a finite number, got {value}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be >= 0"), ("n", "abc", "n must be an integer"),
        ("n", 0, "n must be >= 1"), ("d", 0, "d must be >= 1"),
        ("train_fraction", "x", "train_fraction must be a finite number"),
    ])
    def test_bad_problem_number(self, key, value, message, refused_spec,
                                tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["problem"][key] = value
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["check-params", "--spec", str(refused_spec),
                        "--variant", "stoc", "--eta", "1", "--rho", "1"])
        self.assert_one_line_error(proc)
        assert f"graph_guided problem: {message}" in proc.stderr

    def test_bad_overlap_grid(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"kind": "overlap", "n": 100, "grid": 0}))
        proc = run_cli(["check-params", "--spec", str(path), "--variant",
                        "stoc", "--eta", "1", "--rho", "1"])
        self.assert_one_line_error(proc)
        assert "overlap problem: grid must be >= 1, got 0" in proc.stderr

    @pytest.mark.parametrize("section, key", [
        ("solver", "rho"), ("solver", "variant"), ("problem", "kind"),
        ("problem", "n"), ("problem", "d"), ("spec", "problem"),
    ])
    def test_missing_spec_key(self, section, key, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        owner = {"solver": spec["solvers"][0], "problem": spec["problem"],
                 "spec": spec}[section]
        del owner[key]
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert repr(key) in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["libsvm", "multitask"])
    def test_missing_path(self, kind, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["problem"] = {"kind": kind}
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "'path'" in proc.stderr

    def test_check_params_problem_without_kind(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"n": 200, "d": 10}))
        proc = run_cli(["check-params", "--spec", str(path), "--variant",
                        "stoc", "--eta", "1", "--rho", "1"])
        self.assert_one_line_error(proc)
        assert "'kind'" in proc.stderr

    @pytest.mark.parametrize("command", ["run", "check-params"])
    def test_invalid_json(self, command, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        args = [command, "--spec", str(path)]
        args += (["--out", str(tmp_path / "o")] if command == "run" else
                 ["--variant", "stoc", "--eta", "1", "--rho", "1"])
        proc = run_cli(args)
        self.assert_one_line_error(proc)
        assert "not valid JSON" in proc.stderr

    @pytest.mark.parametrize("command, bad_file", [
        ("parse", "data"), ("run", "data"), ("run", "spec"),
        ("check-params", "spec"), ("rho-sweep", "spec"),
    ])
    def test_non_utf8_file(self, command, bad_file, tmp_path):
        # 0xff never occurs in UTF-8 text
        data_path = tmp_path / "d.libsvm"
        data_path.write_bytes(b"1 1:0.5\n-1 2:1\n" + b"\xff" * (bad_file == "data"))
        spec = tmp_path / "exp.json"
        write_spec(spec, problem={"kind": "libsvm", "path": str(data_path)})
        if bad_file == "spec":
            spec.write_bytes(spec.read_bytes().replace(b'"v1"', b'"v1\xff"'))
        out = ["--out", str(tmp_path / "o"), "--allow-uncertified"]
        args = {
            "parse": ["--path", str(data_path)],
            "run": ["--spec", str(spec), *out],
            "check-params": ["--spec", str(spec), "--variant", "stoc",
                             "--eta", "1", "--rho", "1"],
            "rho-sweep": ["--spec", str(spec), *out, "--rho", "1"],
        }[command]
        proc = run_cli([command, *args])
        self.assert_one_line_error(proc)
        if bad_file == "spec":
            assert f"{spec} is not UTF-8 text" in proc.stderr
        else:
            assert "not UTF-8 text at line 1 or later: byte 0xff" in proc.stderr

    def test_zero_batch_in_spec(self, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["solvers"][0].update(variant="svrg", M=0)  # m defaults to n // M
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "M must be >= 1" in proc.stderr

    def test_non_integer_repetitions(self, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["repetitions"] = "2"
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "repetitions" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("variant, flag, value", [
        ("svrg", "--batch", "0"), ("stoc", "--batch", "0"),
        ("svrg", "--rho", "0"), ("saga", "--rho", "0"),
    ])
    def test_check_params_zero_batch_or_rho(self, refused_spec, variant,
                                            flag, value):
        args = {"--eta": "0.01", "--rho": "300", "--batch": "20"}
        args[flag] = value
        proc = run_cli(["check-params", "--spec", str(refused_spec),
                        "--variant", variant,
                        *[tok for item in args.items() for tok in item]])
        self.assert_one_line_error(proc)

    @pytest.mark.parametrize("key, value", [
        ("M", "20"), ("eta", "1"), ("rho", "1"), ("r", "x"), ("T", 1.5),
        ("m", "5"), ("T", None), ("eta", float("nan")), ("M", True),
        ("variant", 5), ("variant", None), ("name", 5),
    ])
    def test_non_numeric_solver_value(self, key, value, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["solvers"][0].update({"variant": "svrg", "m": 5, key: value})
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert f"solver entry 0: {key} must be" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("trace_stride", "5"), ("trace_stride", 0), ("seed_base", -1),
    ])
    def test_bad_spec_number(self, key, value, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec[key] = value
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert f"experiment spec: {key} must be" in proc.stderr

    @pytest.mark.parametrize("command, problem, message", [
        ("run", {"kind": ["graph_guided"], "n": 400, "d": 20},
         "problem: kind must be a string, got ['graph_guided']"),
        ("check-params", {"kind": ["graph_guided"], "n": 400, "d": 20},
         "problem: kind must be a string, got ['graph_guided']"),
        ("run", {"kind": "multitask", "path": 5},
         "multitask problem: path must be a string, got 5"),
    ], ids=["run-kind", "check-params-kind", "run-path"])
    def test_non_string_problem_value(self, command, problem, message,
                                      refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["problem"] = problem
        refused_spec.write_text(json.dumps(spec))
        args = [command, "--spec", str(refused_spec)]
        args += (["--out", str(tmp_path / "o"), "--allow-uncertified"]
                 if command == "run" else
                 ["--variant", "stoc", "--eta", "1", "--rho", "1"])
        proc = run_cli(args)
        self.assert_one_line_error(proc)
        assert message in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "rho-sweep"])
    @pytest.mark.parametrize("solvers", [5, {}, "stoc", [], {"stoc": {}}])
    def test_solvers_not_a_non_empty_list(self, command, solvers, refused_spec,
                                          tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["solvers"] = solvers
        refused_spec.write_text(json.dumps(spec))
        out = tmp_path / "o"
        args = [command, "--spec", str(refused_spec), "--out", str(out),
                "--allow-uncertified"]
        proc = run_cli(args + (["--rho", "1"] if command == "rho-sweep" else []))
        self.assert_one_line_error(proc)
        assert "solvers" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["no", 1, None, [], 0.0])
    def test_empty_support_must_be_a_bool(self, value, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["problem"]["empty_support"] = value
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert (f"graph_guided problem: empty_support must be true or false, "
                f"got {value!r}") in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["../x", "a/b", "/x", ".", "..", "x\0"])
    def test_name_is_one_path_component(self, name, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["solvers"][0]["name"] = name
        refused_spec.write_text(json.dumps(spec))
        before = sorted(tmp_path.rglob("*"))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "solver entry 0: name must be one path component" in proc.stderr
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("names", [("a", "a"), ("stoc", None)],
                             ids=["named-twice", "name-equals-variant"])
    def test_solver_names_must_be_distinct(self, names, refused_spec, tmp_path):
        # an entry without a name takes its variant's
        spec = json.loads(refused_spec.read_text())
        entry = spec["solvers"][0]
        spec["solvers"] = [{**entry, "name": name} for name in names]
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "error: solver names must be distinct" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, empty_support", [
        ("run", False), ("check-params", False), ("check-params", True),
    ], ids=["run", "check-params", "check-params-kappa-1"])
    def test_r_below_bound_refused_before_any_run(self, command, empty_support,
                                                  tmp_path):
        # check-params refuses what run refuses; on the kappa = 1 system the
        # certificate at r = 1 would divide by phi_H = 0
        spec = tmp_path / "exp.json"
        stoc = {"variant": "stoc", "eta": 1.0, "rho": 1.0, "M": 20, "T": 20}
        write_spec(
            spec,
            problem={"kind": "graph_guided", "n": 200, "d": 8, "seed": 0,
                     "empty_support": empty_support},
            solvers=[{**stoc, "name": "stoc"}, {**stoc, "name": "low", "r": 1.0}],
        )
        out = tmp_path / "o"
        args = (["--out", str(out), "--allow-uncertified"] if command == "run"
                else ["--variant", "stoc", "--eta", "1", "--rho", "1", "--r", "1"])
        proc = run_cli([command, "--spec", str(spec), *args])
        self.assert_one_line_error(proc)
        assert "error: r=1 below the H >= I bound" in proc.stderr
        assert proc.stdout == ""
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("problem, solver, check_params, reason", [
        ({"n": 400, "d": 20}, {"rho": 1e300}, None,
         "not finite in float64: zeta, zeta1, phi_H, rho_0, delta"),
        ({"n": 80, "d": 5}, {"rho": 1e300}, None, "not finite in float64: rho_0"),
        ({"n": 80, "d": 5}, {"eta": 1e-200, "rho": 1.0}, None,
         "not finite in float64: zeta, zeta1"),
        ({"n": 80, "d": 5}, {"eta": 1e-200, "rho": 1.0},
         ["--variant", "dete", "--eta", "1e300", "--rho", "1e300"], None),
    ], ids=["rho-1e300", "rho-1e300-kappa-1", "eta-1e-200", "check-params-1e300"])
    def test_extreme_finite_parameters_refused(self, problem, solver,
                                               check_params, reason, tmp_path):
        # n = 80, d = 5 draws no edge, so kappa(A^T A) = 1
        spec = tmp_path / "exp.json"
        write_spec(spec, problem={"kind": "graph_guided", "seed": 0, **problem},
                   solvers=[{"variant": "stoc", "M": 10, "T": 5, **solver}])
        out = tmp_path / "o"
        args = (["run", "--out", str(out)] if check_params is None
                else ["check-params", *check_params])
        proc = run_cli([*args, "--spec", str(spec)],
                       python_flags=("-W", "error::RuntimeWarning"))
        self.assert_one_line_error(proc)
        if check_params is not None:
            assert "r=inf" in proc.stderr and proc.stdout == ""
            return
        cert = strict_json((out / "summary.json").read_text())[
            "solvers"]["stoc"]["certificate"]
        assert cert["accepted"] is False and reason in cert["reasons"]
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["run", "check-params"])
    def test_size_too_large_to_allocate(self, command, refused_spec, tmp_path):
        # 10**16 float64 entries are 8e16 bytes, beyond any address space
        huge = 10**16
        if command == "run":
            spec = json.loads(refused_spec.read_text())
            spec["solvers"][0].update(variant="svrg", m=huge)
            refused_spec.write_text(json.dumps(spec))
            args = ["--out", str(tmp_path / "o"), "--allow-uncertified"]
        else:
            args = ["--variant", "saga", "--eta", "1", "--rho", "1",
                    "--iterations", str(huge)]
        proc = run_cli([command, "--spec", str(refused_spec), *args])
        self.assert_one_line_error(proc)
        assert "Unable to allocate" in proc.stderr

    def test_zero_iterations_refused(self, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["solvers"][0]["T"] = 0
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        self.assert_one_line_error(proc)
        assert "T must be >= 1, got 0" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_null_sizes_take_their_defaults(self, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        spec["solvers"][0].update(variant="svrg", M=None, m=None, r=None)
        refused_spec.write_text(json.dumps(spec))
        proc = run_cli(["run", "--spec", str(refused_spec), "--out",
                        str(tmp_path / "o"), "--allow-uncertified"])
        assert proc.returncode == 0, proc.stderr

    def test_svrg_overflow_refused_without_warnings(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(
            {"kind": "graph_guided", "n": 4000, "d": 20, "seed": 0}
        ))
        # M = 1 gives the epoch m = 2000 over the 2000 training samples
        proc = run_cli(["check-params", "--spec", str(path), "--variant", "svrg",
                        "--batch", "1", "--eta", "1", "--rho", "1"],
                       python_flags=("-W", "error::RuntimeWarning"))
        assert proc.returncode == 2 and proc.stderr == ""
        cert = json.loads(proc.stdout)
        assert cert["accepted"] is False
        assert any("h schedule overflows" in r for r in cert["reasons"])

    def test_rho_sweep_needs_no_rho(self, refused_spec, tmp_path):
        spec = json.loads(refused_spec.read_text())
        del spec["solvers"][0]["rho"]
        refused_spec.write_text(json.dumps(spec))
        out = tmp_path / "sweep"
        proc = run_cli(["rho-sweep", "--spec", str(refused_spec), "--out",
                        str(out), "--rho", "1", "--allow-uncertified"])
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep_table.csv").exists()


class TestDataCommands:
    def test_gen_and_parse(self, runner, tmp_path):
        path = tmp_path / "toy.libsvm"
        res = runner.invoke(
            cli.main,
            ["gen-data", "--kind", "graph_guided", "--n", "30", "--d", "5",
             "--seed", "1", "--out", str(path)],
        )
        assert res.exit_code == 0, res.output
        assert path.exists() and (tmp_path / "toy.libsvm.meta.json").exists()
        res = runner.invoke(cli.main, ["parse", "--path", str(path)])
        assert res.exit_code == 0
        meta = json.loads(res.output)
        assert meta["n"] == 30 and meta["d"] == 5

    def test_parse_bad_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 2:1.0 1:2.0\n")
        res = runner.invoke(cli.main, ["parse", "--path", str(path)])
        assert res.exit_code == 2


class TestBuildProblem:
    def test_libsvm_kind(self, tmp_path, rng):
        ds, _, _ = data.gen_graph_guided(60, 5, seed=2)
        path = tmp_path / "d.libsvm"
        data.write_libsvm(ds, path)
        prob, test, info = cli.build_problem(
            {"kind": "libsvm", "path": str(path), "support_density": 0.2,
             "seed": 1}
        )
        assert prob.n + test.n == 60
        assert info["kind"] == "libsvm"

    @pytest.mark.parametrize("kind", ["libsvm", "multitask"])
    def test_dense_libsvm_file_stays_csr(self, kind, tmp_path):
        # every feature of every line is stored: density 1
        ds, _, _ = data.gen_graph_guided(40, 5, seed=2)
        if kind == "multitask":
            ds.labels = np.arange(40) % 3.0
        path = tmp_path / "d.libsvm"
        data.write_libsvm(ds, path)
        prob, test, _ = cli.build_problem({"kind": kind, "path": str(path)})
        assert sp.issparse(prob.loss.features)
        assert prob.loss.features.nnz == prob.n * 5
        assert sp.issparse(test.features)

    def test_libsvm_graph_drawn_as_edges(self, tmp_path, monkeypatch):
        # no d x d array before the constraint system: the parse, the split
        # and the edge draw at d = 4000 peak well below d^2 bytes
        d = 4000
        path = tmp_path / "wide.libsvm"
        path.write_text(f"1 1:1\n-1 {d}:1\n1 2:1\n-1 3:1\n")
        seen = {}

        def record(edges, d):
            seen["edges"], seen["d"] = edges, d
            return types.SimpleNamespace(d=d, q=edges[0].size + d)

        monkeypatch.setattr(cli, "build_graph_guided_A", record)
        tracemalloc.start()
        try:
            _, _, info = cli.build_problem(
                {"kind": "libsvm", "path": str(path), "support_density": 0.01}
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d
        ii, jj = seen["edges"]
        assert seen["d"] == d and info["edges"] == ii.size == jj.size
        # about density * d (d - 1) / 2 = 79980 edges
        assert abs(ii.size - 79980) < 5 * math.sqrt(79980)
        # distinct pairs i < j < d in row-major order
        assert ii.min() >= 0 and jj.max() < d and (ii < jj).all()
        assert (np.diff(ii * d + jj) > 0).all()

    def test_unknown_kind_rejected(self):
        from ncadmm.exceptions import ConfigError

        with pytest.raises(ConfigError):
            cli.build_problem({"kind": "mystery"})

    def test_empty_support_is_a_bool(self):
        spec = {"kind": "graph_guided", "n": 40, "d": 6, "seed": 3}
        edges = {flag: cli.build_problem(dict(spec, empty_support=flag))[2]["edges"]
                 for flag in (True, False)}
        assert edges == {True: 0, False: cli.build_problem(spec)[2]["edges"]}
        assert edges[False] > 0

    @pytest.mark.parametrize("name", [None, ""])
    def test_null_or_empty_name_means_the_variant(self, name, tmp_path):
        spec = {
            "version": "v1",
            "problem": {"kind": "graph_guided", "n": 40, "d": 4},
            "solvers": [{"name": name, "variant": "stoc", "rho": 1.0, "T": 2}],
        }
        given = json.dumps(spec)
        code = cli.run_experiment(spec, str(tmp_path), allow_uncertified=True,
                                  echo=lambda *_: None)
        assert code == cli.EXIT_OK
        assert json.dumps(spec) == given  # ncbench's gate reads it afterwards
        assert sorted(os.listdir(tmp_path)) == ["stoc_mean.csv", "stoc_rep0.csv",
                                                "summary.json"]

    def test_dict_spec_checked_like_a_file(self, tmp_path):
        from ncadmm.exceptions import ConfigError

        spec = {
            "version": "v1",
            "problem": {"kind": "graph_guided", "n": 200, "d": 10},
            "solvers": [{"variant": "stoc", "T": 5}],
        }
        with pytest.raises(ConfigError, match="rho"):
            cli.run_experiment(spec, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestTestEvaluator:
    """The evaluator is the training loss on the test rows; it returns
    bitwise what the oracle's closure for each loss type returns."""

    @pytest.mark.parametrize("kind", ["graph_guided", "libsvm", "multitask"])
    def test_equals_closure_per_loss_type(self, kind, tmp_path):
        rng = np.random.default_rng(7)
        if kind == "graph_guided":
            spec = {"kind": kind, "n": 80, "d": 6, "seed": 3}
        else:
            ds, _, _ = data.gen_graph_guided(80, 6, seed=2)
            ds.features[rng.random(ds.features.shape) < 0.6] = 0.0
            if kind == "multitask":
                ds.labels = np.arange(80) % 3.0
            path = tmp_path / "d.libsvm"
            data.write_libsvm(ds, path)
            spec = {"kind": kind, "path": str(path)}
        problem, test, _ = cli.build_problem(spec)
        assert sp.issparse(test.features) == (kind != "graph_guided")
        evaluate = cli.make_test_evaluator(problem, test)
        oracle = oracles.make_test_evaluator(problem, test)
        # x = 0 scores every row 0: a tie for every prediction
        for x in (np.zeros(problem.d), *rng.standard_normal((3, problem.d))):
            assert evaluate(x) == oracle(x)


def _aggregate_rows_loop(rep_rows):
    """The per-cell loop _aggregate_rows must equal bitwise."""
    n_rows = min(len(rows) for rows in rep_rows)
    out = []
    for i in range(n_rows):
        acc = []
        for col in range(len(cli.CSV_COLUMNS)):
            vals = [float(rows[i][col]) for rows in rep_rows]
            acc.append(float(np.mean(vals)))
        acc[0] = int(acc[0])
        out.append(acc)
    return out


class TestAggregateRows:
    @pytest.mark.parametrize("reps", [1, 3, 9])
    def test_bitwise_equal_to_loop(self, reps):
        rng = np.random.default_rng(reps)
        for _ in range(40):
            rep_rows = []
            for rep in range(reps):
                rows = []
                for t in range(int(rng.integers(1, 6))):  # ragged lengths
                    row = [5 * (t + 1), *(rng.standard_normal(9)
                                          * 10.0 ** rng.integers(-6, 6, 9))]
                    row[2] = int(rng.integers(0, 1000))
                    row[3] = -0.0 if rng.random() < 0.3 else row[3]
                    rows.append(row)
                rep_rows.append(rows)
            got = cli._aggregate_rows(rep_rows)
            want = _aggregate_rows_loop(rep_rows)
            # repr tells -0.0 from 0.0 and int from float
            assert repr(got) == repr(want)



# every JSON value: null, bools, integers, floats with nan and +-inf, text,
# and lists and objects nesting them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
PROBLEMS = {"graph_guided": {"n": 40, "d": 5}, "overlap": {"n": 40},
            "libsvm": {"path": "a.libsvm"}, "multitask": {"path": "b.libsvm"}}


def conforms(value, key):
    """Whether a checked spec value has its Key's declared type and bound."""
    if value is None:
        return key.default is None
    if key.type is float:
        ok = type(value) in (int, float) and math.isfinite(value)
    else:
        ok = type(value) is key.type
    return ok and (key.least is None or value >= key.least)


def assert_conforms(spec):
    assert spec["version"] == "v1"
    problem = spec["problem"]
    levels = [(spec, cli._EXPERIMENT_KEYS),
              (problem, {**cli._PROBLEM_KEYS, **cli._KIND_KEYS[problem["kind"]]})]
    assert isinstance(spec["solvers"], list) and spec["solvers"]
    levels += [(entry, cli._SOLVER_KEYS) for entry in spec["solvers"]]
    for owner, keys in levels:
        for name, key in keys.items():
            assert conforms(owner[name], key), (name, owner[name])
    # an unknown variant, which a null name stands for, is refused by
    # `solvers.variant` before any file is written
    for name in (entry["name"] or "" for entry in spec["solvers"]):
        assert "/" not in name and "\0" not in name and name not in (".", "..")


class TestSpecSchema:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(PROBLEMS)), data=st.data(),
           value=JSON_VALUES)
    def test_one_key_set_to_any_json_value(self, kind, data, value):
        spec = {
            "version": "v1",
            "problem": {"kind": kind, **PROBLEMS[kind]},
            "solvers": [{"variant": "stoc", "rho": 1.0},
                        {"name": "b", "variant": "dete", "rho": 2.0, "M": 7}],
        }
        level = data.draw(st.sampled_from(["experiment", "problem", "solver"]))
        owner, keys = {
            "experiment": (spec, [*cli._EXPERIMENT_KEYS, "version", "problem",
                                  "solvers"]),
            "problem": (spec["problem"], [*cli._PROBLEM_KEYS,
                                          *cli._KIND_KEYS[kind], "kind"]),
            "solver": (data.draw(st.sampled_from(spec["solvers"])),
                       list(cli._SOLVER_KEYS)),
        }[level]
        owner[data.draw(st.sampled_from([*keys, "unknown"]))] = value
        given_json = json.dumps(spec)
        # rho-sweep sets every solver's rho before its check
        for check in (cli._check_spec, lambda s: cli._check_spec(cli._at_rho(s, 2.0))):
            try:
                checked = check(spec)
            except ConfigError:
                checked = None
            assert json.dumps(spec) == given_json
            if checked is not None:
                assert_conforms(checked)
                # checking a filled spec gives it back and leaves it as it is
                filled = json.dumps(checked)
                assert json.dumps(cli._check_spec(checked)) == filled
                assert json.dumps(checked) == filled
