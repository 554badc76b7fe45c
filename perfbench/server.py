"""The server process of the benchmark.

Builds the shop database from the workload seed, serves it with one
``SQLRealisationService`` behind a ``DaisHttpServer`` (worker pool sized
by ``--workers``), prints one JSON line with its address, then obeys line
commands on stdin, answering each with one JSON line:

* ``trace on`` / ``trace off`` — install or remove the benchmark's
  span wrappers (spans accumulate across toggles);
* ``dump <path>`` — write the spans to *path* and answer with the
  wrappers' counters;
* ``quit`` (or end of input) — stop the server and exit.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.workload import RelationalWorkload, build_http_deployment  # noqa: E402

import tracing  # noqa: E402
from workloads import CUSTOMERS  # noqa: E402


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    deployment = build_http_deployment(
        RelationalWorkload(customers=CUSTOMERS, seed=args.seed), workers=args.workers
    )
    deployment.server.start()
    reply({"address": deployment.address, "name": str(deployment.name)})
    recorder = tracing.Recorder()
    patches = None
    try:
        for line in iter(sys.stdin.readline, ""):
            command = line.split()
            if command == ["trace", "on"] and patches is None:
                patches = tracing.install(recorder)
                reply({"tracing": True})
            elif command == ["trace", "off"] and patches is not None:
                patches.undo()
                patches = None
                reply({"tracing": False})
            elif len(command) == 2 and command[0] == "dump":
                recorder.dump(command[1])
                reply({"counters": recorder.counters()})
            elif command == ["quit"]:
                break
            else:
                reply({"error": f"unknown command {line.strip()!r}"})
    finally:
        deployment.server.stop()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
