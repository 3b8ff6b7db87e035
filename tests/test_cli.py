import inspect
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from hardedge import experiments
from hardedge.cli import _EXPERIMENTS, main, read_trajectory_csv


def run_cli(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestSimulate:
    def test_trajectory_roundtrip_full_precision(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(
            json.dumps(
                {
                    "initial": [3.0, 2.0, 1.0],
                    "horizon": 0.02,
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
            0.02,
            1e-3,
            [0.01, 0.02],
            RandomSource(7, 0),
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
            json.dumps({"initial": [1.0], "horizon": 0.01, "save_times": [0.01]})
        )
        code = run_cli(
            tmp_path, "simulate", "--config", str(cfg), "--set", "horizon=0.005",
            "--set", "save_times=[0.005]",
        )
        assert code == 0
        _, times, _ = read_trajectory_csv(tmp_path / "trajectory.csv")
        np.testing.assert_array_equal(times, [0.0, 0.005])

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"initial": [1.0], "horizon": 0.01, "save_times": [0.01], "bogus": 1}))
        assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 1

    def test_step_failure_exits_two(self, tmp_path, capsys):
        code = run_cli(
            tmp_path, "simulate", "--seed", "3", "--set", "initial=[1.0000000000005, 1.0]",
            "--set", "horizon=1.0", "--set", "save_times=[1.0]", "--set", "dt_max=1.0",
            "--set", "integrator=\"eigen\"",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"horizon": 0.01, "save_times": [0.01]}))
        assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 1


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

    def test_eta_at_or_below_minus_one_exits_two(self, tmp_path, capsys):
        code = run_cli(tmp_path, "kernel-table", "--set", "eta=-2", "--set", "grid=[0.5]")
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "kernel.csv").exists()

    def test_invalid_env_seed_is_never_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDEDGE_SEED", "not-a-number")
        assert run_cli(tmp_path, "kernel-table", "--set", "eta=1.0", "--set", "grid=[0.5]") == 0


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
        assert os.path.exists(tmp_path / "intertwining_statistics.csv")

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

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDEDGE_SEED", "99")
        code = run_cli(
            tmp_path, "experiment", "collision-bound",
            "--set", "sizes=[2]", "--set", "delta=0.05", "--set", "eps=0.1",
            "--set", "t=0.01", "--set", "n=100",
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["seeds"] == [99, 0]

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

    def test_report_identical_on_the_thread_pool(self, tmp_path, monkeypatch):
        # n = 5000 spans two replica blocks, so --threads 2 runs them on the pool
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
        args = [
            "experiment", "uniform-approx", "--seed", "6", "--set", "sizes=[4]", "--set", "n=5000",
        ]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--threads", "1", "--out", str(a_dir)]) in (0, 2)
        assert pools == []
        assert main([*args, "--threads", "2", "--out", str(b_dir)]) in (0, 2)
        assert pools == [2, 2]
        assert (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()

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
        ],
        ids=[
            "equilibrium-n0", "equilibrium-empty-t_grid", "collision-n0", "collision-no-sizes",
            "uniform-no-sizes", "coupling-empty-N_list", "matrix-H0-not-NxN",
            "matrix-negative-t", "intertwining-negative-t", "collision-negative-t",
            "collision-dt0", "coupling-negative-T", "coupling-dt0", "uniform-bump-one-entry",
            "uniform-bump-empty-interval", "collision-eps0", "collision-negative-eps",
            "hard-edge-decreasing-bins", "hard-edge-negative-top", "hard-edge-top0",
            "hard-edge-top-above-N",
        ],
    )
    def test_malformed_inputs_are_typed_errors(self, tmp_path, capsys, name, settings):
        argv = ["experiment", name, "--seed", "1"]
        for item in settings:
            argv += ["--set", item]
        assert run_cli(tmp_path, *argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "name, settings, named",
        [
            ("intertwining", ["x=[2,2,1]", "t=0.25", "n=300"], "x[0] = x[1] = 2.0"),
            ("equilibrium", ["N=3", "eta=1", "x0=[2,1,0]", "t_grid=[1]", "n=300"], "x[2] = 0"),
        ],
        ids=["intertwining-tie", "equilibrium-zero"],
    )
    def test_tied_or_zero_start_is_named_up_front(
        self, tmp_path, capsys, monkeypatch, name, settings, named
    ):
        def never(*args, **kwargs):
            raise AssertionError("evolved from a start that is not strictly interior")

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
