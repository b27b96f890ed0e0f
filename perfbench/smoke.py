"""Tiny-size run of every workload in both modes.

    python3 perfbench/smoke.py

Asserts that each run checks its outputs without a failure and emits
exactly the metrics BENCHMARK.json names, with their units.  Takes
about a minute.
"""

from __future__ import annotations

import json
import math
import sys

import run

TINY_AUTHORS = {"batch-short": 300, "dual-audit": 3, "archive-json": 3}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sys.path.insert(0, str(run.SRC))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, _ = run.measure(workload, seed=1, seconds=0, trace=bool(trace),
                                    authors=TINY_AUTHORS[workload])
            metrics = result["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            assert got == expected[trace], (workload, trace, set(got) ^ set(expected[trace]))
            assert all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in metrics.values()), (workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            print(f"ok {workload} --trace {trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} commands checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
