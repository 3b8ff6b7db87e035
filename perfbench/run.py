#!/usr/bin/env python3
"""Experiment-level benchmark for hardedge: time from ``hardedge experiment``
to a verdict, end to end, and per layer in a traced run.

    python3 perfbench/run.py --workload equilibrium-relax --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports hardedge from ``src/``.  A
run is a closed loop with one client: for ``--seconds`` it starts a fresh
Python process per verdict, which calls ``hardedge.cli.main(["experiment",
..., "--seed", <seed>, "--threads", "1", "--out", <dir>])`` once, and starts
the next one only after the previous has ended.  Every verdict's output is
checked.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates traced and untraced verdicts, runs the thread-scaling row and
prints the per-layer metrics.  The last line of standard output is one JSON
object; a record of the run, with the environment and the per-verdict
diagnostics, is written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from host import BLAS_ENV, REFERENCE_S, calibrate  # noqa: E402
from spans import EXACT, LAYERS, PER_LAYER, layer_metrics, read_spans  # noqa: E402
from workloads import THREAD_ROW, WORKLOADS, Workload  # noqa: E402

END_TO_END = (
    ("time_to_verdict_s", "s"),
    ("replicas_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
CHILD_TIMEOUT_S = 150


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are fewer than eleven samples."""
    rank = len(values) - 10
    if rank < 1:
        return None
    return 100 * rank // len(values), sorted(values)[rank - 1]


def environment(child_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **child_env,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
    }


class Runner:
    """Starts verdict processes, one at a time, and checks what they write."""

    def __init__(self, work_dir: Path, seed: int, smoke: bool):
        self.work_dir = work_dir
        self.seed = seed
        self.smoke = smoke
        self.count = 0
        self.env = {**os.environ, **BLAS_ENV}
        self.calibrations: dict[str, float] = {}  # measured after the last process

    def spawn(self, argv, spans=None) -> dict:
        spec = {"src": str(ROOT / "src"), "argv": argv, "spans": spans,
                "run_id": f"{self.work_dir.name}-{self.count}", "spawned": time.monotonic()}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"exit": None, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            error = f"process exited {proc.returncode}: {proc.stderr[-2000:]}"
            return {"exit": None, "error": error}
        return json.loads(lines[-1])

    def calibrate(self, workload: Workload) -> None:
        """Host speed for the workload's kind of work, and for imports (numpy)."""
        self.calibrations = {k: calibrate(k) for k in {"numpy", workload.calibration}}

    def verdict(self, workload: Workload, threads: int = 1, traced: bool = False) -> dict:
        """Run one verdict and check its report; returns the verdict record."""
        self.count += 1
        out = self.work_dir / f"v{self.count}"
        spans = str(out / "spans.jsonl.gz") if traced else None
        out.mkdir(parents=True)
        argv = workload.argv(self.seed, str(out), threads=threads, smoke=self.smoke)
        before = self.calibrations
        rec = self.spawn(argv, spans)
        self.calibrate(workload)

        def speed(kind):
            return (before[kind] + self.calibrations[kind]) / (2 * REFERENCE_S[kind])

        rec.update(workload=workload.name, threads=threads, traced=traced,
                   attempted=workload.attempted(self.smoke),
                   host_speed=speed(workload.calibration), setup_host_speed=speed("numpy"))
        rec.update(check_report(workload, rec, out / "report.json"))
        if traced and rec["exit"] is not None:
            rec["layers"] = layer_metrics(read_spans(spans))
            rec["spans_file"] = spans
        return rec


def check_report(workload: Workload, rec: dict, path: Path) -> dict:
    """Output checks of one verdict: the exit code matches the verdict, every
    statistic is finite, pinned verdicts hold and statistics stay below their limits."""
    problems, flips = [], []
    if rec.get("error"):
        problems.append(rec["error"].strip().splitlines()[-1])
    elif rec["exit"] not in (0, 2):
        problems.append(f"exit code {rec['exit']}")
    elif rec.get("setup_s") is None:
        problems.append("no run_* call was made")
    if problems or not path.is_file():
        return {"problems": problems or ["no report.json"], "flips": flips, "sha256": None,
                "statistics": {}, "discarded": 0}
    data = path.read_bytes()
    report = json.loads(data)
    stats = report["statistics"]
    if (rec["exit"] == 0) != report["passed"]:
        problems.append(f"exit {rec['exit']} but passed={report['passed']}")
    problems += [f"{k} = {v} is not finite" for k, v in stats.items() if not math.isfinite(v)]
    for key, expected in workload.pinned.items():
        if report["verdicts"].get(key) is not expected:
            problems.append(f"verdict {key} is {report['verdicts'].get(key)}, expected {expected}")
    for key, limit in workload.upper.items():
        if not stats[key] < limit:
            problems.append(f"{key} = {stats[key]:.6g} is not below {limit}")
    flips = [k for k, ok in report["verdicts"].items() if not ok and k not in workload.pinned]
    return {"problems": problems, "flips": flips, "sha256": hashlib.sha256(data).hexdigest(),
            "statistics": stats, "discarded": int(stats.get("discarded_replicas", 0))}


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  smoke: bool = False) -> dict:
    """Measure one workload for ``seconds``; returns the run record."""
    runs_dir = HERE / "runs"
    work_dir = runs_dir / f"tmp-{os.getpid()}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    runner = Runner(work_dir, seed, smoke)
    try:
        warm = runner.spawn(None)  # import only, so later processes find warm file caches
        if warm.get("error"):
            raise RuntimeError(f"hardedge does not import: {warm['error']}")
        env = environment(warm["environment"])
        runner.calibrate(workload)
        verdicts = []
        start = time.monotonic()
        while not verdicts or time.monotonic() - start < seconds or (
            trace and not any(v["traced"] for v in verdicts)
        ):
            verdicts.append(runner.verdict(workload, traced=trace and len(verdicts) % 2 == 1))
        thread_row = []
        if trace:
            for threads in (env["nproc"], 1):
                thread_row.append(runner.verdict(THREAD_ROW, threads=threads))
        record = summarise(workload, seed, trace, env, verdicts, thread_row)
        kept = next((v["spans_file"] for v in verdicts if v.get("spans_file")), None)
        stem = f"{workload.name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
        if kept:
            shutil.move(kept, runs_dir / f"{stem}-spans.jsonl.gz")
        for v in verdicts + thread_row:
            v.pop("spans_file", None)
        with open(runs_dir / f"{stem}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        return record
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def summarise(workload, seed, trace, env, verdicts, thread_row) -> dict:
    problems = [f"{v['workload']}: {p}" for v in verdicts + thread_row for p in v["problems"]]
    shas = {v["sha256"] for v in verdicts}
    if len(shas) > 1:
        problems.append(f"verdicts with seed {seed} wrote {len(shas)} different reports")
    ok = [v for v in verdicts if not v["traced"] and not v["problems"]]
    samples = {
        "time_to_verdict_s": [_at_reference(v) for v in ok],
        "replicas_per_s": [(v["attempted"] - v["discarded"]) / _at_reference(v) for v in ok],
        "setup_s": [v["setup_s"] / v["setup_host_speed"] for v in ok],
        "peak_rss_mb": [v["peak_rss_mb"] for v in ok],
    }
    metrics = {name: _median(samples[name]) for name, _ in END_TO_END}
    layers, layer_self = {}, {}
    if trace:
        layers, layer_self = per_layer(verdicts, metrics["time_to_verdict_s"], thread_row, problems)
    return {
        "workload": workload.name, "seed": seed, "trace": trace, "environment": env,
        "correct": not problems, "problems": problems,
        "attempted": sum(v["attempted"] for v in verdicts + thread_row),
        "failed": sum(v["attempted"] if v["problems"] else v["discarded"]
                      for v in verdicts + thread_row),
        "metrics": metrics, "samples": samples, "layers": layers, "layer_self": layer_self,
        "dominant_expected": workload.dominant, "verdicts": verdicts, "thread_row": thread_row,
    }


def _at_reference(verdict) -> float:
    """The verdict's wall-clock time at the reference host speed."""
    return verdict["time_to_verdict_s"] / verdict["host_speed"]


def per_layer(verdicts, untraced_time, thread_row, problems):
    """Per-layer metrics of a traced run: medians of times over the traced
    verdicts, counters that must repeat exactly, the tracing overhead and
    the thread row.  Appends to ``problems``."""
    good = [v for v in verdicts if v["traced"] and not v["problems"]]
    layers = {}
    for name, unit, _ in PER_LAYER:
        values = [v["layers"][name] for v in good if name in v["layers"]]
        if name in EXACT and len(set(values)) > 1:
            problems.append(f"{name} differs between verdicts with one seed: {sorted(set(values))}")
        if unit in ("s", "us"):
            values = [v["layers"][name] / v["host_speed"] for v in good if name in v["layers"]]
        layers[name] = values[0] if name in EXACT and values else _median(values)
    layers["trace.overhead_s"] = _median([_at_reference(v) for v in good]) - untraced_time
    many, one = thread_row
    if not many["problems"] and not one["problems"]:
        if many["sha256"] != one["sha256"] or many["exit"] != one["exit"]:
            problems.append(f"thread row: reports differ between --threads {many['threads']} and 1")
        layers["experiments.thread_speedup"] = _at_reference(one) / _at_reference(many)
    layer_self = {
        k: _median([v["layers"]["layer_self"][k] / v["host_speed"] for v in good]) for k in LAYERS
    }
    return layers, layer_self


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def metric_line(name: str, unit: str, values: list) -> str:
    """Median, highest percentile with ten samples beyond it, and count."""
    high = tail(values)
    high_txt = f"p{high[0]} {high[1]:.6g}" if high else "p- (under 11 samples)"
    return f"  {name:18s} median {_fmt(_median(values)):>12s} {unit:4s} {high_txt}  n={len(values)}"


def report_lines(record: dict) -> list[str]:
    """Human-readable summary printed above the result line."""
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"]
    lines.append("environment " + json.dumps(record["environment"]))
    if record["trace"]:
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, value in record["layers"].items():
            lines.append(f"  {name:30s} {_fmt(value):>14s} {units[name]}")
        ranked = sorted(record["layer_self"].items(), key=lambda kv: -kv[1])
        lines.append("layer self time: " + ", ".join(f"{k} {v:.3g} s" for k, v in ranked))
        lines.append(f"dominant layer: {ranked[0][0]} (expected {record['dominant_expected']})")
    else:
        lines += [metric_line(name, unit, record["samples"][name]) for name, unit in END_TO_END]
        ok = [v for v in record["verdicts"] if not v["problems"] and not v["traced"]]

        def med(key):
            return _fmt(_median([v[key] for v in ok]))

        lines.append(f"  as measured: time_to_verdict_s median {med('time_to_verdict_s')} s, "
                     f"setup_s median {med('setup_s')} s; host speed median "
                     f"{med('host_speed')} (1 = reference)")
    frac = record["failed"] / record["attempted"]
    lines.append(f"  {'failed_frac':18s} {frac:.6g} ratio "
                 f"({record['failed']} of {record['attempted']} replicas)")
    flips = sum(bool(v["flips"]) for v in record["verdicts"])
    lines.append(f"verdicts {len(record['verdicts'])}, statistical verdict flips {flips}, "
                 f"report sha256 {record['verdicts'][0]['sha256']}")
    lines += [f"PROBLEM {p}" for p in record["problems"]]
    return lines


def result(record: dict) -> dict:
    """The result line: end-to-end metrics, or per-layer ones for a traced run."""
    if record["trace"]:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["layers"].items()}
    else:
        metrics = {k: {"value": record["metrics"][k], "unit": u} for k, u in END_TO_END}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hardedge" / "cli.py").is_file():
        print(f"perfbench: no hardedge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(report_lines(record)))
    print(json.dumps(result(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
