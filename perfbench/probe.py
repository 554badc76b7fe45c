"""Host-speed probe: a fixed, program-independent CPU burst, timed at a
steady interval while a benchmark run goes.

On a shared virtual machine the CPU's speed drifts with the neighbours'
load — by well over a third within minutes on a 2-vCPU VM — and every
timing of the run drifts with it.  This process runs one burst (parse a
fixed XML document with ``xml.etree``, tally its values in a dict,
``zlib``-compress it: the same mix of interpreter and C-library work as
the program under test, but none of its code) every
:data:`INTERVAL_S` seconds and records the burst's CPU time.  ``run.py``
divides its timings by the median burst time of the same stretch of the
run (see ``run.py``'s ``HostSpeed``).

Started by ``run.py``; stops at end of input and then prints one JSON
list of ``[start, end, cpu_seconds]`` per burst (``perf_counter``
clock, shared with the other processes of the run).
"""

from __future__ import annotations

import json
import random
import select
import sys
import time
import xml.etree.ElementTree as ET
import zlib

#: Seconds between bursts; a burst takes ~3 ms of CPU, about 1% of one CPU.
INTERVAL_S = 0.25

_rng = random.Random(7)
DOCUMENT = (
    "<Rows>"
    + "".join(
        f"<Row><V>{_rng.randint(1, 10**6)}</V><V>product-{_rng.randint(1, 500)}</V>"
        f"<V>{_rng.random():.4f}</V></Row>"
        for _ in range(600)
    )
    + "</Rows>"
).encode("ascii")


def burst() -> int:
    rows = [tuple(value.text for value in row) for row in ET.fromstring(DOCUMENT)]
    tally: dict[str, int] = {}
    for row in rows:
        tally[row[1]] = tally.get(row[1], 0) + len(row[0])
    return len(zlib.compress(DOCUMENT, 6)) + len(tally)


def main() -> int:
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start, cpu = time.perf_counter(), time.thread_time()
        burst()
        samples.append([start, time.perf_counter(), time.thread_time() - cpu])
    sys.stdout.write(json.dumps(samples) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
