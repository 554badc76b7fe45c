"""Print benchmark run records; exit 1 if any run failed a correctness check.

Timings are at the reference host speed (see ``run.py``); the ``raw``
lines and the per-op-kind latencies are as measured.

    python3 perfbench/report.py                      # every record in perfbench/records/
    python3 perfbench/report.py perfbench/records/point-ops-seed1-trace0.json
"""

from __future__ import annotations

import glob
import json
import os
import sys

RECORDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "records")


def show(path: str) -> bool:
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']} "
        f"seconds={record['seconds']} consumers={record['consumers']} "
        f"server_workers={record['server_workers']} nproc={record['nproc']} "
        f"python={record['python']} git={record['git_sha'][:12]}"
    )
    print(f"  correct={record['correct']} attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for name, metric in sorted(record["metrics"].items()):
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']:9s} n={metric['samples']}")
    for name, metric in sorted(record["raw_metrics"].items()):
        print(f"  raw {name:36s} {metric['value']:14.4f} {metric['unit']:9s} n={metric['samples']}")
    scales = record["host_scale"]
    print("  host scale: setup " + " ".join(f"{scale:.4f}" for scale in scales["setup"])
          + ", phases " + " ".join(f"{scale:.4f}" for scale in scales["phases"]))
    for kind, stats in sorted(record["op_kinds"].items()):
        print(
            f"  raw op {kind:8s} count={stats['count']} failed={stats['failed']} "
            f"p25={stats['p25_ms']:.2f}ms p50={stats['p50_ms']:.2f}ms p75={stats['p75_ms']:.2f}ms"
        )
    return record["correct"]


def main(argv: list[str]) -> int:
    paths = argv or sorted(glob.glob(os.path.join(RECORDS, "*.json")))
    if not paths:
        print("no run records found", file=sys.stderr)
        return 1
    results = [show(path) for path in paths]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
