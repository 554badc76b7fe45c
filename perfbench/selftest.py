"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py [--seed 1] [--seconds 1.5]

For each workload: a clean closed-loop run must fail no op; then every
response the consumer receives is corrupted before it is parsed (the
first digit of a dataset value, the update count, the resource name in a
property document) and every op must be caught as failed.  Exits 1 if a
clean op failed or a corrupted op went unnoticed.
"""

from __future__ import annotations

import argparse
import os
import re
import threading
import sys

import run  # sets up sys.path for repro and the benchmark modules
from repro.soap.envelope import Envelope
from tracing import Patches
from workloads import WORKLOADS, workload_database

_VALUE_DIGIT = re.compile(rb"(:Value>)(\d)")
_UPDATE_COUNT = re.compile(rb"(:SQLUpdateCount>)(\d)")
_SHOP_NAME = re.compile(rb"(>urn:dais:resource:sho)p")


def _bump(match: re.Match) -> bytes:
    return match.group(1) + str((int(match.group(2)) + 1) % 10).encode()


def corrupt(data: bytes) -> bytes:
    """Change one answer-bearing byte of a response body."""
    for pattern, replace in (
        (_VALUE_DIGIT, _bump),
        (_UPDATE_COUNT, _bump),
        (_SHOP_NAME, lambda m: m.group(1) + b"q"),
    ):
        changed, n = pattern.subn(replace, data, count=1)
        if n:
            return changed
    return data


def corrupt_responses() -> Patches:
    """Corrupt every response parsed on a consumer thread."""
    patches = Patches()
    from_bytes = Envelope.__dict__["from_bytes"].__func__

    def corrupted(cls, data):
        if threading.current_thread().name.startswith("consumer-"):
            data = corrupt(data)
        return from_bytes(cls, data)

    patches.set(Envelope, "from_bytes", classmethod(corrupted))
    return patches


def check_workload(name: str, seed: int, seconds: float) -> list[str]:
    problems = []
    workload = WORKLOADS[name](seed, workload_database(seed))
    server = run.ServerProcess(seed, run.nproc())
    try:
        consumers = [
            run.Consumer(i, workload, seed, server.target)
            for i in range(min(workload.consumers, run.nproc()))
        ]
        clean = run.run_phase(consumers, server, seconds, traced=False)
        failed = [s for s in clean.samples if not s[4]]
        print(f"{name}: clean run {len(clean.samples)} ops, {len(failed)} failed")
        if failed or not clean.samples:
            problems.append(f"{name}: clean run failed {len(failed)} of {len(clean.samples)} ops")
        patches = corrupt_responses()
        try:
            bad = run.run_phase(consumers, server, seconds, traced=False)
        finally:
            patches.undo()
        caught = sum(1 for s in bad.samples if not s[4])
        print(f"{name}: corrupted run {len(bad.samples)} ops, {caught} caught")
        if not bad.samples or caught != len(bad.samples):
            problems.append(f"{name}: {len(bad.samples) - caught} corrupted ops passed the checks")
        for consumer in consumers:
            consumer.transport.close()
    finally:
        server.stop()
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.5)
    args = parser.parse_args()
    problems = []
    for name in WORKLOADS:
        problems += check_workload(name, args.seed, args.seconds)
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    print("self-test passed" if not problems else "self-test failed")
    return 1 if problems else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
