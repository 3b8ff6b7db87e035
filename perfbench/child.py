"""Run one ``hardedge`` verdict in a fresh process and report its timings.

Usage: python3 child.py '<json spec>'

Spec keys: ``src`` (directory holding the hardedge package), ``argv`` (the
arguments for ``hardedge.cli.main``, or null to only import it),
``spawned`` (``time.monotonic()`` when the parent started this process),
``spans`` (path for the span file of a traced verdict, or null) and
``run_id``.  Prints one JSON line: exit code, setup_s (process start to the
first ``run_*`` call), time_to_verdict_s (``cli.main`` entry to return,
after report.json is written), peak_rss_mb, the CLI's printed summary and,
for the import-only form, the environment block.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    first_run: list[float] = []

    import hardedge.experiments as experiments

    def mark(fn):
        def wrapper(*args, **kwargs):
            if not first_run:
                first_run.append(time.monotonic())
            return fn(*args, **kwargs)

        return wrapper

    # Patched before hardedge.cli is imported, so the CLI binds these names.
    for name in dir(experiments):
        if name.startswith("run_"):
            setattr(experiments, name, mark(getattr(experiments, name)))
    recorder = None
    if spec["spans"]:
        from spans import Recorder

        recorder = Recorder(spec["run_id"])
        recorder.install()
    from hardedge import cli

    result = {"exit": None, "error": None}
    if spec["argv"] is None:
        result["exit"] = 0
        result["environment"] = _environment()
    else:
        entry = recorder.wrap("cli.main", cli.main) if recorder else cli.main
        printed = io.StringIO()
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(printed):
                result["exit"] = entry(spec["argv"])
        except Exception:  # reported to the parent, which counts the verdict as failed
            result["error"] = traceback.format_exc()
        result["time_to_verdict_s"] = time.monotonic() - start
        result["setup_s"] = first_run[0] - spec["spawned"] if first_run else None
        result["printed"] = printed.getvalue()
        if recorder:
            recorder.write(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
