#!/usr/bin/env python3
"""Pool the run records under perfbench/runs/ by workload and print, for each
end-to-end metric, the median over all verdicts, the highest percentile with
at least ten samples beyond it, and the sample count.

    python3 perfbench/summarize.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, metric_line  # noqa: E402


def main() -> int:
    pooled: dict[str, dict[str, list]] = {}
    runs: dict[str, int] = {}
    for path in sorted((HERE / "runs").glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"]:
            continue
        runs[record["workload"]] = runs.get(record["workload"], 0) + 1
        for name, values in record["samples"].items():
            pooled.setdefault(record["workload"], {}).setdefault(name, []).extend(values)
    for workload, samples in sorted(pooled.items()):
        print(f"{workload} ({runs[workload]} runs)")
        for name, unit in END_TO_END:
            print(metric_line(name, unit, samples.get(name, [])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
