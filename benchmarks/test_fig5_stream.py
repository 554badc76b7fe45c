"""Figure 5 follow-on — bounded-memory streamed result delivery.

The streamed pipeline's claim: delivering an N-row dataset costs O(page)
service memory instead of O(N), because rows flow generator → lazy
dataset emitter → chunked serializer without ever materializing.  This
benchmark measures peak traced memory and serialization throughput of
one SQLExecute dispatch + full body drain at 1k / 10k / 100k rows,
drained chunk by chunk (the chunked HTTP writer) and, for contrast,
buffered into one body (what Content-Length framing would need).

Hard gates (``make bench-stream``):

* streamed peak memory at 100k rows stays under 2x the 1k-row streamed
  baseline (flat in result size);
* the streamed dispatch + drain of 10k rows stays within
  ``STREAM_BUDGET_MS``: the median plus the quartile spread of eleven
  runs on a 2-core x86-64 host (Python 3.11), taken before the
  materialized SQLExecute path was deleted.
"""

import time
import tracemalloc

import pytest

from repro.bench import Table
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.dair import messages as msg
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.relational import Database

SIZES = [1_000, 10_000, 100_000]
THROUGHPUT_SIZE = 10_000
#: Measured runs per size and mode after one warm-up; the timing is the
#: fastest of them, the peak the highest.
RUNS = 3
STREAM_BUDGET_MS = 835.0


@pytest.fixture(scope="module")
def deployments():
    built = {}
    for rows in SIZES:
        registry = ServiceRegistry()
        address = "dais://stream-bench"
        service = SQLRealisationService("stream-bench", address)
        registry.register(service)
        database = Database(f"bench{rows}")
        database.execute(
            "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(32))"
        )
        for base in range(0, rows, 5000):
            batch = min(5000, rows - base)
            database.execute(
                "INSERT INTO t VALUES "
                + ",".join(
                    f"({i},'value-{i:06d}')"
                    for i in range(base, base + batch)
                )
            )
        resource = SQLDataResource(mint_abstract_name("t"), database)
        service.add_resource(resource)
        built[rows] = (service, address, resource.abstract_name)
    return built


def _measure(service, address, name, streamed):
    """One SQLExecute dispatch + full body drain under tracemalloc.

    Returns (peak traced bytes, seconds, body bytes).  The drain
    mirrors the transport: chunk-by-chunk for the streamed path (the
    chunked HTTP writer), one buffered string otherwise.
    """
    request = Envelope(
        headers=MessageHeaders(
            to=address, action=msg.SQLExecuteRequest.action()
        ),
        payload=msg.SQLExecuteRequest(
            abstract_name=name, expression="SELECT k, v FROM t"
        ).to_xml(),
    )
    tracemalloc.start()
    tracemalloc.reset_peak()
    started = time.perf_counter()
    response = service.dispatch(request)
    if streamed:
        body_bytes = sum(len(piece) for piece in response.iter_bytes())
    else:
        body_bytes = len(response.to_bytes())
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, elapsed, body_bytes


def test_fig5_streamed_memory_and_throughput(deployments):
    table = Table(
        "Figure 5 — streamed vs buffered SQLExecute delivery",
        ["rows", "mode", "peak KiB", "body MiB", "ms", "rows/s"],
        note="peak = tracemalloc high-water across dispatch + body drain",
    )
    peaks = {}
    rates = {}
    for rows in SIZES:
        service, address, name = deployments[rows]
        for streamed in (False, True):
            mode = "streamed" if streamed else "buffered"
            # One warm-up to stabilize caches, then the measured runs.
            _measure(service, address, name, streamed)
            runs = [
                _measure(service, address, name, streamed)
                for _ in range(RUNS)
            ]
            peak = max(run[0] for run in runs)
            elapsed = min(run[1] for run in runs)
            body_bytes = runs[0][2]
            peaks[rows, mode] = peak
            rates[rows, mode] = rows / elapsed
            table.add(
                rows,
                mode,
                round(peak / 1024),
                round(body_bytes / (1024 * 1024), 2),
                round(elapsed * 1000, 1),
                round(rows / elapsed),
            )
    table.show()

    # Gate 1: streamed peak memory is flat in result size.
    baseline = peaks[SIZES[0], "streamed"]
    top = peaks[SIZES[-1], "streamed"]
    assert top < 2 * baseline, (
        f"streamed peak grew {top / baseline:.1f}x from "
        f"{SIZES[0]} to {SIZES[-1]} rows (gate: < 2x)"
    )
    # Sanity: a buffered body really is O(result) — it should dwarf the
    # streamed peak at the top size.
    assert peaks[SIZES[-1], "buffered"] > 5 * top

    # Gate 2: the streamed mid-size delivery stays within its budget
    # (timed under tracemalloc, like the budget's reference runs).
    elapsed_ms = THROUGHPUT_SIZE / rates[THROUGHPUT_SIZE, "streamed"] * 1e3
    assert elapsed_ms <= STREAM_BUDGET_MS, (
        f"streamed {THROUGHPUT_SIZE} rows took {elapsed_ms:.0f}ms "
        f"(budget {STREAM_BUDGET_MS}ms)"
    )
