import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from hardedge import experiments
from hardedge.cli import _EXPERIMENTS, main


def run_cli(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_trajectory_csv(path):
    """Read back a trajectory written by the simulate command."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [list(map(float, line.strip().split(","))) for line in fh if line.strip()]
    data = np.array(rows)
    return header, data[:, 0], data[:, 1:]


class TestSimulate:
    def test_trajectory_roundtrip_full_precision(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(
            json.dumps(
                {
                    "initial": [3.0, 2.0, 1.0],
                    "save_times": [0.01, 0.02],
                    "eta": 0.5,
                }
            )
        )
        code = run_cli(tmp_path, "simulate", "--config", str(cfg), "--seed", "7")
        assert code == 0
        header, times, states = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "x1", "x2", "x3"]
        np.testing.assert_array_equal(times, [0.0, 0.01, 0.02])
        # the written digits round-trip to the exact in-memory doubles
        from hardedge.core import OrderedConfig, SdeParams
        from hardedge.rng import RandomSource
        from hardedge.sde import simulate as sim

        traj = sim(
            OrderedConfig([3.0, 2.0, 1.0]),
            SdeParams(eta=0.5),
            1e-3,
            [0.01, 0.02],
            RandomSource(7),
        )
        np.testing.assert_array_equal(states, np.array([s.values for s in traj.states]))
        # rerun in a second directory: identical bytes, full precision survives
        second = tmp_path / "again"
        code = main(
            ["simulate", "--config", str(cfg), "--seed", "7", "--out", str(second)]
        )
        assert code == 0
        assert (tmp_path / "trajectory.csv").read_bytes() == (
            second / "trajectory.csv"
        ).read_bytes()
        _, _, states2 = read_trajectory_csv(second / "trajectory.csv")
        np.testing.assert_array_equal(states, states2)

    def test_set_override_wins(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(
            json.dumps({"initial": [1.0], "save_times": [0.01]})
        )
        code = run_cli(tmp_path, "simulate", "--config", str(cfg), "--set", "save_times=[0.005]")
        assert code == 0
        _, times, _ = read_trajectory_csv(tmp_path / "trajectory.csv")
        np.testing.assert_array_equal(times, [0.0, 0.005])

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # integrator selects nothing: the particle step is the log step
        for key, value in (("bogus", 1), ("integrator", "log")):
            cfg = tmp_path / "sim.json"
            cfg.write_text(
                json.dumps({"initial": [1.0], "save_times": [0.01], key: value})
            )
            assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 1
            assert f"unknown config keys [{key!r}]" in capsys.readouterr().err

    def test_step_failure_exits_two(self, tmp_path, capsys):
        # the rejected proposals overflow exp on the way; stderr holds only the error
        code = run_cli(
            tmp_path, "simulate", "--seed", "3", "--set", "initial=[1.0000000000005, 1.0]",
            "--set", "save_times=[1.0]", "--set", "dt=1.0",
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: step failed at t=0"]
        assert not (tmp_path / "trajectory.csv").exists()

    def test_seed_defaults_to_zero(self, tmp_path, monkeypatch):
        # the environment is not a seed source
        monkeypatch.setenv("HARDEDGE_SEED", "5")
        args = ["simulate", "--set", "initial=[3,2,1]", "--set", "save_times=[0.01]"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(a_dir)]) == 0
        assert main([*args, "--seed", "0", "--out", str(b_dir)]) == 0
        assert (a_dir / "trajectory.csv").read_bytes() == (b_dir / "trajectory.csv").read_bytes()

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"save_times": [0.01]}))
        assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "save_times",
        ["[0.01, NaN]", "[0.01, Infinity]", "[NaN]", "[-0.1, 0.01]"],
        # the last save time is the path's horizon
        ids=["nan-horizon", "inf-horizon", "nan-save-time", "negative-save-time"],
    )
    def test_nonfinite_times_are_typed_errors(self, tmp_path, capsys, save_times):
        code = run_cli(
            tmp_path, "simulate", "--set", "initial=[1.0]", "--set", f"save_times={save_times}"
        )
        assert code == 2
        assert "save_times" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()


class TestSamplers:
    def test_sample_kernel(self, tmp_path):
        code = run_cli(
            tmp_path, "sample-kernel", "--seed", "3",
            "--set", "x=[5,4,3,2,1]", "--set", "K=2", "--set", "n=50",
        )
        assert code == 0
        body = (tmp_path / "samples.csv").read_text().splitlines()
        assert body[0] == "y1,y2"
        assert len(body) == 51

    def test_sample_equilibrium(self, tmp_path):
        code = run_cli(
            tmp_path, "sample-equilibrium", "--seed", "4",
            "--set", "N=3", "--set", "eta=1.0", "--set", "n=20",
        )
        assert code == 0
        rows = (tmp_path / "samples.csv").read_text().splitlines()
        assert rows[0] == "x1,x2,x3"
        vals = np.array([list(map(float, r.split(","))) for r in rows[1:]])
        assert np.all(np.diff(vals, axis=1) < 0)

    def test_eta_near_minus_one_writes_every_row(self, tmp_path):
        # a few of these rows have a smallest Laguerre eigenvalue far below
        # eps |T|, so their largest inverse points reach ~1e48
        code = run_cli(
            tmp_path, "sample-equilibrium", "--seed", "0", "--set", "N=2",
            "--set", "eta=-0.9", "--set", "n=300", "--set", "inverse=true",
        )
        assert code == 0
        rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        vals = np.array([list(map(float, r.split(","))) for r in rows])
        assert vals.shape == (300, 2)
        assert np.isfinite(vals).all() and (vals > 0).all()
        assert np.all(np.diff(vals, axis=1) < 0)

    def test_nan_eta_is_named(self, tmp_path, capsys):
        code = run_cli(
            tmp_path, "sample-equilibrium", "--seed", "0",
            "--set", "N=3", "--set", "eta=NaN", "--set", "n=5",
        )
        assert code == 2
        assert "need eta > -1, got nan" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "command, settings",
        [
            ("sample-kernel", ["x=[5,4,3,2,1]", "K=2"]),
            ("sample-equilibrium", ["N=3", "eta=1.0"]),
        ],
    )
    def test_nonpositive_n_is_a_typed_error(self, tmp_path, capsys, command, settings, n):
        argv = [command, "--seed", "3", "--set", f"n={n}"]
        for item in settings:
            argv += ["--set", item]
        assert run_cli(tmp_path, *argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()


class TestKernelTable:
    def test_single_point(self, tmp_path):
        code = run_cli(tmp_path, "kernel-table", "--set", "eta=1.0", "--set", "grid=[0.5]")
        assert code == 0
        rows = (tmp_path / "kernel.csv").read_text().splitlines()
        assert rows[0] == "x,y,value"
        assert len(rows) == 2

    def test_symmetric_grid(self, tmp_path):
        code = run_cli(
            tmp_path, "kernel-table", "--set", "eta=0.5", "--set", "grid=[0.4,0.9,1.7]"
        )
        assert code == 0
        rows = (tmp_path / "kernel.csv").read_text().splitlines()[1:]
        table = {}
        for r in rows:
            x, y, v = r.split(",")
            table[(x, y)] = v
        assert len(rows) == 9
        for (x, y), v in table.items():
            assert table[(y, x)] == v
        diag = [float(v) for (x, y), v in table.items() if x == y]
        assert all(d > 0 for d in diag)

    def test_bad_grid(self, tmp_path):
        assert run_cli(tmp_path, "kernel-table", "--set", "eta=1.0", "--set", "grid=[2,1]") == 1

    @pytest.mark.parametrize("grid", ["[0.2,NaN]", "[1,Infinity]"], ids=["nan", "inf"])
    def test_nonfinite_grid_is_a_config_error(self, tmp_path, capsys, grid):
        assert run_cli(tmp_path, "kernel-table", "--set", "eta=1.0", "--set", f"grid={grid}") == 1
        assert "grid must be finite" in capsys.readouterr().err
        assert not (tmp_path / "kernel.csv").exists()

    def test_eta_at_or_below_minus_one_exits_two(self, tmp_path, capsys):
        code = run_cli(tmp_path, "kernel-table", "--set", "eta=-2", "--set", "grid=[0.5]")
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "kernel.csv").exists()


class TestConfigKinds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "intertwining", "--set", "x=[3,2,1]", "--set", "t=0.05",
             "--set", "n=true"],
            ["kernel-table", "--set", "eta=true", "--set", "grid=[0.5]"],
        ],
        ids=["int", "float"],
    )
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path, *argv) == 1
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "hard-edge-density", "--set", "N=100", "--set", "eta=1",
             "--set", "n=10", "--set", 'bins=[0.1,"a"]'],
            ["experiment", "intertwining", "--set", 'x=[3,2,"a"]', "--set", "t=0.05",
             "--set", "n=10"],
            ["simulate", "--set", 'initial=[3,"x"]', "--set", "save_times=[0.1]"],
            ["simulate", "--set", "initial=[3,true]", "--set", "save_times=[0.1]"],
            ["experiment", "uniform-approx", "--set", "sizes=[4,null]", "--set", "n=10"],
        ],
        ids=["string-bin", "string-x", "string-initial", "boolean-initial", "null-size"],
    )
    def test_list_entries_must_be_numbers(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path, *argv) == 1
        assert "expected list of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [(["--seed", "-1"], "--seed"), (["--set", "seed=-1"], "seed")],
        ids=["flag", "config-key"],
    )
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, argv, named):
        argv = ["experiment", "uniform-approx", *argv, "--set", "sizes=[4]", "--set", "n=10"]
        assert run_cli(tmp_path, *argv) == 1
        assert f"config error: {named} must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["experiment", "hard-edge-density", "--set", "N=Infinity", "--set", "eta=1",
              "--set", "n=10", "--set", "bins=[0.1,2]"], "N"),
            (["sample-equilibrium", "--set", "N=2", "--set", "eta=1", "--set", "n=-Infinity"],
             "n"),
            (["experiment", "uniform-approx", "--set", "sizes=[4]", "--set", "n=10",
              "--set", "seed=Infinity"], "seed"),
        ],
        ids=["experiment-key", "command-key", "seed"],
    )
    def test_infinite_integer_is_a_config_error(self, tmp_path, capsys, argv, key):
        # int(inf) raises OverflowError, not ValueError
        assert run_cli(tmp_path, *argv) == 1
        assert f"config error: key {key!r}: expected int, got" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--set", "horizon=1"],
            ["simulate", "--set", "stream=0"],
            ["simulate", "--set", "dt_max=0.001"],
            ["sample-kernel", "--set", "x=[2,1]", "--set", "K=1", "--set", "n=10",
             "--set", "stream=0"],
            ["sample-equilibrium", "--set", "N=2", "--set", "eta=1", "--set", "n=10",
             "--set", "stream=0"],
            ["experiment", "hard-edge-density", "--set", "N=100", "--set", "eta=0",
             "--set", "n=10", "--set", "bins=[1,2]", "--set", "tol=0.15"],
        ],
        ids=["horizon", "simulate-stream", "dt_max", "sample-kernel-stream",
             "sample-equilibrium-stream", "hard-edge-tol"],
    )
    def test_removed_keys_are_unknown(self, tmp_path, capsys, argv):
        if argv[0] == "simulate":
            argv = [*argv, "--set", "initial=[2,1]", "--set", "save_times=[0.01]"]
        assert run_cli(tmp_path, *argv) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sample-kernel", "sample-equilibrium",
                                         "kernel-table"])
    def test_threads_is_an_experiment_flag_only(self, tmp_path, command):
        assert run_cli(tmp_path, command, "--threads", "2") == 1


class TestExperimentCommand:
    def test_pass_and_exit_zero(self, tmp_path):
        code = run_cli(
            tmp_path, "experiment", "intertwining", "--seed", "11",
            "--set", "x=[3,2,1]", "--set", "t=0.0", "--set", "n=800",
            "--set", "dt=0.002", "--set", "n_perm=200",
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["passed"] is True
        assert doc["config"]["x"] == [3, 2, 1]
        assert doc["version"]

    def test_report_records_each_input_once(self, tmp_path):
        # the resolved config is the one record of a run's inputs; the report
        # restates none of them and no statistics file sits beside it
        settings = {
            "intertwining": ["x=[3,2,1]", "t=0.01", "n=50", "n_perm=200"],
            "uniform-approx": ["sizes=[4]", "n=50"],
            "equilibrium": ["N=1", "eta=1", "t_grid=[0.01]", "n=50", "n_perm=200"],
            "coupling-l2": ["omega_xs=[1]", "N_list=[4,8]", "T=0.01"],
            "collision-bound": ["sizes=[2]", "delta=0.05", "eps=0.1", "t=0.01", "n=50"],
            "hard-edge-density": ["N=100", "eta=1", "n=10", "bins=[0.1,2]", "min_count=0"],
            "matrix-eigen-agreement": ["N=3", "x0=[3,2,1]", "t=0.01", "n=50"],
        }
        assert list(settings) == list(_EXPERIMENTS)
        for name, items in settings.items():
            out = tmp_path / name
            argv = ["experiment", name, "--seed", "3"]
            for item in items:
                argv += ["--set", item]
            assert run_cli(out, *argv) in (0, 2)
            doc = json.loads((out / "report.json").read_text())
            assert set(doc) == {
                "name", "version", "statistics", "thresholds", "verdicts", "passed", "config",
            }
            assert set(doc["config"]) == {*_EXPERIMENTS[name].keys, "seed"}
            assert doc["config"]["seed"] == 3
            assert [p.name for p in out.iterdir()] == ["report.json"]

    def test_failing_experiment_exits_two(self, tmp_path):
        # eta mismatch between pipelines: the negative control must fail
        code = run_cli(
            tmp_path, "experiment", "intertwining", "--seed", "12",
            "--set", "x=[3,2,1]", "--set", "t=0.25", "--set", "n=2500",
            "--set", "dt=0.002", "--set", "n_perm=200", "--set", "eta=0.0",
            "--set", "eta_corner_side=2.0",
        )
        assert code == 2
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["passed"] is False

    def test_unknown_experiment(self, tmp_path):
        assert run_cli(tmp_path, "experiment", "nope") == 1

    def test_report_identical_across_thread_counts(self, tmp_path):
        args = [
            "experiment", "equilibrium", "--seed", "5",
            "--set", "N=1", "--set", "eta=1.0", "--set", "t_grid=[1.0]",
            "--set", "n=1500", "--set", "dt=0.002", "--set", "n_perm=200",
        ]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--threads", "1", "--out", str(a_dir)]) in (0, 2)
        assert main([*args, "--threads", "8", "--out", str(b_dir)]) in (0, 2)
        assert (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "name, settings, expected_pools",
        [
            ("uniform-approx", ["sizes=[4]"], [2, 2]),
            # a worker returning a tuple of arrays, concatenated per field
            ("intertwining", ["x=[3,2,1]", "t=0.01", "n_perm=200"], [2]),
            # the Sturm tail counts, summed over blocks, and the array kernels
            ("hard-edge-density", ["N=100", "eta=1", "bins=[0.07,0.12,0.17,0.22,0.32]"], [2]),
        ],
        ids=["uniform-approx", "intertwining", "hard-edge-density"],
    )
    def test_report_identical_on_the_thread_pool(
        self, tmp_path, monkeypatch, name, settings, expected_pools
    ):
        # n = 5000 spans two replica blocks, so --threads 2 runs them on the pool
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
        args = ["experiment", name, "--seed", "6", "--set", "n=5000"]
        args += [arg for setting in settings for arg in ("--set", setting)]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--threads", "1", "--out", str(a_dir)]) in (0, 2)
        assert pools == []
        assert main([*args, "--threads", "2", "--out", str(b_dir)]) in (0, 2)
        assert pools == expected_pools
        assert (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "name, settings",
        [
            ("intertwining", ["x=[3,2,1]", "t=0.01", "n=50", "n_perm=20"]),
            ("equilibrium", ["N=1", "eta=1", "t_grid=[0.01]", "n=50", "n_perm=20"]),
            ("collision-bound", ["sizes=[2]", "delta=0.05", "eps=0.1", "t=0.01", "n=50"]),
            ("matrix-eigen-agreement", ["N=3", "x0=[3,2,1]", "t=0.01", "n=50"]),
        ],
        ids=["intertwining", "equilibrium", "collision", "matrix"],
    )
    def test_dt_check_is_an_unknown_key(self, tmp_path, capsys, name, settings):
        # each experiment runs at its one dt; a dt/2 comparison is a second run
        argv = ["experiment", name, "--seed", "1", "--set", "dt_check=true"]
        for item in settings:
            argv += ["--set", item]
        assert run_cli(tmp_path, *argv) == 1
        assert "unknown config keys ['dt_check']" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "name, settings",
        [
            ("equilibrium", ["N=1", "eta=1", "t_grid=[0.1]", "n=0"]),
            ("equilibrium", ["N=1", "eta=1", "t_grid=[]", "n=10"]),
            ("collision-bound", ["sizes=[2]", "delta=0.05", "eps=0.1", "t=0.01", "n=0"]),
            ("collision-bound", ["sizes=[]", "delta=0.05", "eps=0.1", "t=0.01", "n=10"]),
            ("uniform-approx", ["sizes=[]", "n=10"]),
            ("coupling-l2", ["omega_xs=[1]", "N_list=[]", "T=0.01"]),
            ("matrix-eigen-agreement", ["N=2", "x0=[3,2,1]", "t=0.05", "n=50", "dt=0.005"]),
            ("matrix-eigen-agreement", ["N=3", "x0=[3,2,1]", "t=-0.5", "n=50"]),
            ("intertwining", ["x=[3,2,1]", "t=-0.1", "n=300", "n_perm=200"]),
            ("collision-bound", ["sizes=[2]", "delta=0.05", "eps=0.1", "t=-0.01", "n=10"]),
            ("collision-bound", ["sizes=[2]", "delta=0.05", "eps=0.1", "t=0.01", "n=10", "dt=0"]),
            ("coupling-l2", ["omega_xs=[1]", "N_list=[4,8]", "T=-0.01"]),
            ("coupling-l2", ["omega_xs=[1]", "N_list=[4,8]", "T=0.01", "dt=0"]),
            ("uniform-approx", ["sizes=[2]", "n=10", "bump=[0.5]"]),
            ("uniform-approx", ["sizes=[2]", "n=10", "bump=[0.5,0.5]"]),
            ("collision-bound", ["sizes=[2]", "delta=0.05", "eps=0", "t=0.01", "n=10"]),
            ("collision-bound", ["sizes=[2]", "delta=0.05", "eps=-0.1", "t=0.01", "n=10"]),
            ("hard-edge-density", ["N=100", "eta=1", "n=10", "bins=[0.3,0.2]"]),
            ("hard-edge-density", ["N=100", "eta=1", "n=10", "bins=[0.1,2]", "min_count=0", "top=-1"]),
            ("hard-edge-density", ["N=100", "eta=1", "n=10", "bins=[0.1,2]", "min_count=0", "top=0"]),
            ("hard-edge-density", ["N=100", "eta=1", "n=10", "bins=[0.1,2]", "min_count=0", "top=101"]),
            ("collision-bound", ["sizes=[2.5]", "delta=0.05", "eps=0.1", "t=0.01", "n=10"]),
            ("uniform-approx", ["sizes=[4,8.5]", "n=10"]),
            ("coupling-l2", ["omega_xs=[1]", "N_list=[4.5,8]", "T=0.01"]),
            ("coupling-l2", ["omega_xs=[1]", "N_list=[4,4,8]", "T=0.01"]),
            ("intertwining", ["x=[3,2,1]", "t=0.05", "n=10", "eta=NaN"]),
            ("matrix-eigen-agreement", ["N=3", "x0=[3,2,1]", "t=0.05", "n=10", "eta=NaN"]),
            ("coupling-l2", ["omega_xs=[1]", "gamma=NaN", "N_list=[4,8]", "T=0.01"]),
        ],
        ids=[
            "equilibrium-n0", "equilibrium-empty-t_grid", "collision-n0", "collision-no-sizes",
            "uniform-no-sizes", "coupling-empty-N_list", "matrix-H0-not-NxN",
            "matrix-negative-t", "intertwining-negative-t", "collision-negative-t",
            "collision-dt0", "coupling-negative-T", "coupling-dt0", "uniform-bump-one-entry",
            "uniform-bump-empty-interval", "collision-eps0", "collision-negative-eps",
            "hard-edge-decreasing-bins", "hard-edge-negative-top", "hard-edge-top0",
            "hard-edge-top-above-N", "collision-fractional-size",
            "uniform-fractional-size", "coupling-fractional-N_list", "coupling-repeated-N_list",
            "intertwining-nan-eta", "matrix-nan-eta", "coupling-nan-gamma",
        ],
    )
    def test_malformed_inputs_are_typed_errors(self, tmp_path, capsys, name, settings):
        argv = ["experiment", name, "--seed", "1"]
        for item in settings:
            argv += ["--set", item]
        assert run_cli(tmp_path, *argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_hard_edge_near_eta_minus_one_reaches_its_verdict(self, tmp_path, capsys):
        # the Sturm tail counts resolve every row at eta = -0.9, so the run
        # ends on its verdict, not on a ConvergenceFailure
        argv = ["experiment", "hard-edge-density", "--seed", "1"]
        for item in ["N=100", "eta=-0.9", "n=300", "bins=[0.1,2]", "min_count=0"]:
            argv += ["--set", item]
        assert run_cli(tmp_path, *argv) == 2
        assert "error:" not in capsys.readouterr().err
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["statistics"]["bins_used"] == 1.0
        assert doc["statistics"]["sup_rel_error"] == pytest.approx(0.745, abs=5e-4)
        assert doc["verdicts"] == {"sup_rel_error": False}

    def test_hard_edge_bin_centre_at_or_below_zero_is_named_up_front(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("drew samples for bins that fail a precondition")

        monkeypatch.setattr(experiments, "_embedded_tail_counts", never)
        argv = ["experiment", "hard-edge-density", "--seed", "1"]
        for item in ["N=100", "eta=1", "n=50", "bins=[-0.5,0.5,1.0]", "min_count=0"]:
            argv += ["--set", item]
        assert run_cli(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert "bins must have positive centres, got centre 0.0 in [-0.5, 0.5, 1.0]" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "name, settings, named",
        [
            ("intertwining", ["x=[2,2,1]", "t=0.25", "n=300"], "x[0] = x[1] = 2.0"),
            ("equilibrium", ["N=3", "eta=1", "x0=[2,1,0]", "t_grid=[1]", "n=300"], "x[2] = 0"),
            ("matrix-eigen-agreement", ["N=3", "x0=[2,2,1]", "t=0.05", "n=50"], "x[0] = x[1] = 2.0"),
        ],
        ids=["intertwining-tie", "equilibrium-zero", "matrix-tie"],
    )
    def test_tied_or_zero_start_is_named_up_front(
        self, tmp_path, capsys, monkeypatch, name, settings, named
    ):
        self._fails_before_evolving(tmp_path, capsys, monkeypatch, name, settings, named)

    @pytest.mark.parametrize(
        "eta, named",
        [("-1", "need eta > -1, got -1.0"), ("NaN", "need eta > -1, got nan")],
        ids=["-1", "nan"],
    )
    def test_equilibrium_eta_is_named_up_front(self, tmp_path, capsys, monkeypatch, eta, named):
        settings = ["N=2", f"eta={eta}", "x0=[2,1]", "t_grid=[0.1]", "n=50"]
        self._fails_before_evolving(tmp_path, capsys, monkeypatch, "equilibrium", settings, named)

    @pytest.mark.parametrize(
        "name, settings, named",
        [
            ("intertwining", ["x=[3]", "t=0.25", "n=300"], "x must have at least 2"),
            (
                "equilibrium",
                ["N=2", "eta=1", "x0=[3,2,1]", "t_grid=[0.1]", "n=50", "n_perm=200"],
                "x0 must have N=2 coordinates, got 3",
            ),
            (
                "matrix-eigen-agreement",
                ["N=2", "x0=[3,2,1]", "t=0.05", "n=50"],
                "x0 must have N=2 coordinates, got 3",
            ),
        ],
        ids=["intertwining-one-coordinate", "equilibrium-x0-not-N", "matrix-x0-not-N"],
    )
    def test_wrong_size_start_is_named_up_front(
        self, tmp_path, capsys, monkeypatch, name, settings, named
    ):
        self._fails_before_evolving(tmp_path, capsys, monkeypatch, name, settings, named)

    @staticmethod
    def _fails_before_evolving(tmp_path, capsys, monkeypatch, name, settings, named):
        def never(*args, **kwargs):
            raise AssertionError("evolved from a start that fails a precondition")

        monkeypatch.setattr(experiments, "evolve_ensemble", never)
        argv = ["experiment", name, "--seed", "1"]
        for item in settings:
            argv += ["--set", item]
        assert run_cli(tmp_path, *argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestExperimentTable:
    @pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
    def test_keys_reach_run_parameters(self, name):
        experiment = _EXPERIMENTS[name]
        params = inspect.signature(experiment.run).parameters
        for key in experiment.pass_through():
            assert key in params, key
        for param in experiment.built:
            assert param in params, param
        assert "rng" in params
        assert ("threads" in params) == experiment.threaded

    def test_readme_lists_every_experiment(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listing = re.search(r"Experiment names:(.*?)\n\n", readme, re.S).group(1)
        assert re.findall(r"`([a-z0-9-]+)`", listing) == list(_EXPERIMENTS)


def _readme_commands() -> list[list[str]]:
    """Every ``hardedge`` command of README's Command line sh block, with
    continuation lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("hardedge ")
    ]


class TestReadmeExamples:
    def test_five_examples(self):
        assert [argv[0] for argv in _readme_commands()] == [
            "simulate", "sample-kernel", "sample-equilibrium", "kernel-table", "experiment",
        ]

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_example_runs(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0


class TestImport:
    def test_cli_import_leaves_scipy_stats_unimported(self):
        # importing scipy adds ~0.2 s to the start of every verdict process,
        # scipy.stats alone ~0.4 s; numpy.random, which numpy 2 loads lazily,
        # is loaded here and not inside the first verdict
        src = str(Path(experiments.__file__).resolve().parents[1])
        code = (
            "import hardedge.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')), "
            "'numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[] True"

    def test_parser_keeps_no_set_values_between_calls(self, tmp_path):
        # main parses with one parser built on import; a second call must not
        # see the first call's --set values
        assert run_cli(
            tmp_path, "sample-equilibrium", "--seed", "1", "--set", "N=2",
            "--set", "eta=0.5", "--set", "n=3",
        ) == 0
        assert run_cli(tmp_path, "sample-equilibrium", "--seed", "1", "--set", "N=3") == 1
        assert run_cli(
            tmp_path, "sample-equilibrium", "--seed", "1", "--set", "N=4",
            "--set", "eta=0.5", "--set", "n=2",
        ) == 0
        assert (tmp_path / "samples.csv").read_text().splitlines()[0] == "x1,x2,x3,x4"
