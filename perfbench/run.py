"""DAIS benchmark: one workload against a real DaisHttpServer over loopback.

    python3 perfbench/run.py --workload rowset-bulk --seed 1 --seconds 10 --trace 0

The server runs in its own process (``perfbench/server.py``, worker pool
sized to the host's cores); this process is the load: closed-loop
consumer threads, each with its own ``SQLClient`` over a keep-alive
``HttpTransport``.  A run launches the server several times to time
set-up, warms the caches, then measures for ``--seconds``:

* ``--trace 0`` — untraced; prints the end-to-end metrics;
* ``--trace 1`` — alternates untraced and traced quarters of the window
  (span wrappers on in both processes for the traced ones); prints the
  per-layer metrics, including the tracing overhead.

Timings are reported at a reference host speed: a probe process
(``perfbench/probe.py``) times a fixed burst of CPU work throughout the
run, and each timing is scaled by ``REFERENCE_BURST_S`` over the median
burst time of its own stretch of the run (:class:`HostSpeed`); per-slice
throughputs and latencies by the bursts around their slice.  The raw
timings are kept in the run record.

Every op's answer is checked against a reference database built here
from the same seed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(every metric with unit and sample count, host and build facts) goes to
``perfbench/records/`` — print it with ``python3 perfbench/report.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.client.sql import SQLClient  # noqa: E402
from repro.transport import HttpTransport  # noqa: E402

import tracing  # noqa: E402
from workloads import CUSTOMERS, WORKLOADS, CheckFailed, Target, workload_database  # noqa: E402

#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Closed-loop warm-up before the timed window (plan, property-document
#: and shared-result caches fill; pooled connections open).
WARMUP_S = 2.0
#: Seconds to wait for any reply from the server process.
SERVER_TIMEOUT_S = 60.0
RECORDS = os.path.join(HERE, "records")
#: Throughputs and latencies are taken per slice of this many seconds
#: and reported from the quieter quarter of the slices (:func:`quiet`).
SLICE_S = 1.0
#: CPU seconds of one probe burst on the reference host.  A timing made
#: while bursts take twice this long is reported at half its raw value.
REFERENCE_BURST_S = 0.003
#: Fewest probe bursts a stretch of the run is scaled by; a shorter
#: stretch borrows the bursts nearest to it.
MIN_BURSTS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "rows_per_s": "1/s",
    "wire_bytes_per_op": "bytes",
    "server_cpu_ms_per_op": "ms",
    "client_cpu_ms_per_op": "ms",
    "server_rss_mb": "MB",
    "setup_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# the server process and outside-in probes
# ---------------------------------------------------------------------------

class HostSpeed:
    """The host-speed probe process (``probe.py``) and its bursts."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.bursts: list[list[float]] = []

    def stop(self) -> None:
        """End the probe and collect its bursts."""
        try:
            out, _ = self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("host-speed probe did not stop") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"host-speed probe exited with {self.proc.returncode}")
        self.bursts = json.loads(out)

    def scale(self, start: float, end: float) -> float:
        """Factor turning a time measured during [*start*, *end*] into
        reference-host time: ``REFERENCE_BURST_S`` / median burst time."""
        inside = [cpu for s, e, cpu in self.bursts if start <= s and e <= end]
        if len(inside) < MIN_BURSTS:
            middle = (start + end) / 2
            nearest = sorted(self.bursts, key=lambda b: abs((b[0] + b[1]) / 2 - middle))
            inside = [cpu for _, _, cpu in nearest[:MIN_BURSTS]]
        return REFERENCE_BURST_S / statistics.median(inside)


class ServerProcess:
    def __init__(self, seed: int, workers: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--seed", str(seed), "--workers", str(workers)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        hello = self._reply()
        self.target = Target(hello["address"], hello["name"])
        self.base_url = hello["address"].rsplit("/", 1)[0]

    def _reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server process gave no reply (exited or timed out)")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of stat(5); fields[0] is 3.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def scrape(self) -> dict[str, float]:
        """``GET /metrics``, summed over labels per metric name."""
        with urllib.request.urlopen(self.base_url + "/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
        totals: dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            name = series.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def launch_server(seed: int, workers: int) -> tuple[ServerProcess, float]:
    """Start a server; set-up time runs from launch to the first answer."""
    started = perf_counter()
    server = ServerProcess(seed, workers)
    try:
        client = SQLClient(HttpTransport())
        rows = client.sql_query_rowset(
            server.target.address, server.target.name, "SELECT COUNT(*) FROM customers"
        ).rows
        elapsed = perf_counter() - started
        client.transport.close()
        if rows != [(str(CUSTOMERS),)]:
            raise RuntimeError(f"first request answered {rows!r}")
    except BaseException:
        server.stop()
        raise
    return server, elapsed


# ---------------------------------------------------------------------------
# consumers
# ---------------------------------------------------------------------------

class Consumer:
    def __init__(self, index: int, workload, seed: int, target: Target) -> None:
        self.index = index
        self.target = target
        self.transport = HttpTransport()
        self.client = SQLClient(self.transport)
        self.state = workload.new_state(index)
        self.ops = workload.ops(index, seed, self.state)
        self.samples: list[tuple] = []
        self.failures: list[str] = []

    def wire(self) -> tuple[float, float]:
        metrics = self.transport.metrics
        return (
            metrics.counter("http.bytes.in").total() + metrics.counter("http.bytes.out").total(),
            metrics.counter("rpc.client.connections.created").total(),
        )

    def run_until(self, deadline: float) -> None:
        """Closed loop: each op starts when the previous one answered."""
        samples = self.samples = []
        client, target = self.client, self.target
        while perf_counter() < deadline:
            op = next(self.ops)
            cpu0 = time.thread_time()
            t0 = perf_counter()
            try:
                rows, observation = op.execute(client, target)
                error = None
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                rows, error = 0, f"{op.kind}: {type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            cpu = time.thread_time() - cpu0
            if error is None:
                try:
                    op.check(observation)
                except CheckFailed as exc:
                    error = str(exc)
            if error is not None and len(self.failures) < 10:
                self.failures.append(error)
            samples.append((op.kind, latency, rows, cpu, error is None, t0))


@dataclasses.dataclass
class Phase:
    """One stretch of closed-loop load with its probe deltas."""

    traced: bool
    started: float
    elapsed: float
    samples: list
    server_cpu: float
    wire: float
    new_conns: float
    #: Raw-to-reference-host time factors (:meth:`HostSpeed.scale`) of
    #: each :data:`SLICE_S` slice with a slice either side of it (the
    #: host's speed drifts within a run), and their mean for the phase.
    scale: float = 1.0
    slice_scales: list = dataclasses.field(default_factory=list)

    def slices(self) -> int:
        """Whole slices in the phase (a last, partial one is dropped)."""
        return max(1, int(self.elapsed / SLICE_S))

    def slice_of(self, t: float) -> int:
        return int((t - self.started) / SLICE_S)

    def slice_scale(self, index: int) -> float:
        return self.slice_scales[min(index, len(self.slice_scales) - 1)] if self.slice_scales else self.scale

    def measure_speed(self, speed: "HostSpeed") -> None:
        self.slice_scales = [
            speed.scale(self.started + (index - 1) * SLICE_S, self.started + (index + 2) * SLICE_S)
            for index in range(self.slices())
        ]
        self.scale = statistics.fmean(self.slice_scales)


def run_phase(consumers: list[Consumer], server: ServerProcess, seconds: float, traced: bool) -> Phase:
    wire0 = [c.wire() for c in consumers]
    cpu0 = server.cpu_seconds()
    started = perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=c.run_until, args=(deadline,), name=f"consumer-{c.index}")
        for c in consumers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - started
    cpu = server.cpu_seconds() - cpu0
    wire1 = [c.wire() for c in consumers]
    return Phase(
        traced,
        started,
        elapsed,
        [s for c in consumers for s in c.samples],
        cpu,
        sum(after[0] - before[0] for before, after in zip(wire0, wire1)),
        sum(after[1] - before[1] for before, after in zip(wire0, wire1)),
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slice_rates(phases: list[Phase], column: int | None) -> list[float]:
    """Per :data:`SLICE_S` slice of each phase, the ops (or, with
    *column*, the rows) completed per second.  Each op counts towards a
    slice by the share of its duration inside it, so a rate is not
    quantized to whole ops."""
    rates = []
    for phase in phases:
        for index in range(phase.slices()):
            low = phase.started + index * SLICE_S
            high = low + SLICE_S
            work = 0.0
            for sample in phase.samples:
                start, latency = sample[5], sample[1]
                overlap = min(start + latency, high) - max(start, low)
                if overlap > 0:
                    weight = sample[column] if column is not None else 1
                    work += weight * overlap / latency
            rates.append(work / SLICE_S / phase.slice_scale(index))
    return rates


def slice_percentiles(phases: list[Phase], q: int, kind: str | None = None) -> list[float]:
    """Per :data:`SLICE_S` slice of each phase, the *q*-th percentile (ms)
    of the latencies of the ops (of *kind*, if given) that started in it."""
    values = []
    for phase in phases:
        buckets: dict[int, list[float]] = {}
        for sample in phase.samples:
            if kind is None or sample[0] == kind:
                index = phase.slice_of(sample[5])
                buckets.setdefault(index, []).append(sample[1] * 1000 * phase.slice_scale(index))
        values.extend(_percentile(v, q) for i, v in sorted(buckets.items()) if i < phase.slices())
    return values


def quiet(values: list[float], better: str) -> float:
    """The quartile of per-slice *values* on the *better* side: the lower
    quartile of latencies, the upper one of rates.

    On a shared host a neighbour's load comes and goes within a run, and
    every op in a loaded stretch waits for a CPU: a whole-window tail, or
    even the median slice, then reads how busy the neighbours were.  The
    quieter quarter of the slices is what the program itself gives; a
    change that slows every op moves it as much as the median."""
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[0] if better == "lower" else quartiles[2]


def end_to_end(phases: list[Phase], setups: list[float], rss_mb: float) -> dict:
    """The end-to-end metrics, timings at reference host speed.  With
    every scale 1 (see :func:`unscaled`) they are the raw timings."""
    samples = [s for p in phases for s in p.samples]
    ops = len(samples)
    writes = [s for p in phases for s in p.samples if s[0] == "write"]
    metrics = {
        "ops_per_s": (quiet(slice_rates(phases, None), "higher"), ops),
        "latency_p50_ms": (quiet(slice_percentiles(phases, 50), "lower"), ops),
        "latency_p90_ms": (quiet(slice_percentiles(phases, 90), "lower"), ops),
        "rows_per_s": (quiet(slice_rates(phases, 2), "higher"), ops),
        "wire_bytes_per_op": (sum(p.wire for p in phases) / ops, ops),
        "server_cpu_ms_per_op": (sum(p.server_cpu * p.scale for p in phases) * 1000 / ops, ops),
        "client_cpu_ms_per_op": (
            sum(s[3] * p.slice_scale(p.slice_of(s[5])) for p in phases for s in p.samples) * 1000 / ops, ops),
        "server_rss_mb": (rss_mb, 1),
        "setup_s": (statistics.median(setups), len(setups)),
    }
    record = {name: {"value": value, "unit": END_TO_END[name], "samples": n} for name, (value, n) in metrics.items()}
    # Kept in the record only: a workload without writes has no write
    # latency, and the failure share is 0 on a correct run.
    if writes:
        record["write_p50_ms"] = {
            "value": quiet(slice_percentiles(phases, 50, "write"), "lower"),
            "unit": "ms",
            "samples": len(writes),
        }
    failed = sum(1 for s in samples if not s[4])
    record["failed_op_frac"] = {"value": failed / ops, "unit": "ratio", "samples": ops}
    return record


def unscaled(phases: list[Phase]) -> list[Phase]:
    return [dataclasses.replace(p, scale=1.0, slice_scales=[]) for p in phases]


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(traced: list[Phase], untraced: list[Phase], spans: dict, counters: dict, scraped: dict, live: int) -> dict:
    ops = sum(len(p.samples) for p in traced)
    all_ops = ops + sum(len(p.samples) for p in untraced)
    traced_s = sum(p.elapsed for p in traced)
    scale = sum(p.scale * p.elapsed for p in traced) / traced_s
    times = spans["self"]
    call = spans["call"]
    per_op_ms = lambda seconds: seconds * scale * 1000 / ops  # noqa: E731
    metrics = {f"{name}_ms": (per_op_ms(times[name]), "ms", ops) for name in tracing.LAYERS if name != "client.call"}
    metrics["client.call_ms"] = (per_op_ms(call), "ms", ops)
    metrics["trace.layer_sum_frac"] = (spans["accounted"] / call, "ratio", ops)
    # What the layers leave out, each as a share of client.call time.
    for part, seconds in spans["unaccounted"].items():
        metrics[f"trace.unaccounted.{part}_frac"] = (seconds / call, "ratio", ops)
    traced_rate = ops / sum(p.elapsed * p.scale for p in traced)
    untraced_rate = sum(len(p.samples) for p in untraced) / sum(p.elapsed * p.scale for p in untraced)
    metrics["trace.overhead_frac"] = (1 - traced_rate / untraced_rate, "ratio", all_ops)

    def delta(name):
        return scraped["after"].get(name, 0.0) - scraped["before"].get(name, 0.0)

    rows_out = counters.get("relational.rows_out", 0) + spans["server_counts"]["relational.stream_rows"]
    metrics["relational.plan_cache_hit_ratio"] = (
        _ratio(delta("cache_plan_hits_total"), delta("cache_plan_misses_total")), "ratio", all_ops)
    metrics["relational.rows_scanned_per_row_out"] = (
        counters.get("relational.rows_scanned", 0) / max(1, rows_out), "ratio", ops)
    metrics["dair.result_cache_hit_ratio"] = (
        _ratio(delta("cache_result_hits_total"), delta("cache_result_misses_total")), "ratio", all_ops)
    metrics["core.propdoc_cache_hit_ratio"] = (
        _ratio(delta("cache_propdoc_hits_total"), delta("cache_propdoc_misses_total")), "ratio", all_ops)
    gzip_in = counters.get("gzip.in", 0)
    metrics["transport.gzip_ratio"] = (counters.get("gzip.out", 0) / gzip_in if gzip_in else 1.0, "ratio", ops)
    metrics["transport.pool_new_conn_per_op"] = (
        sum(p.new_conns for p in traced + untraced) / all_ops, "count/op", all_ops)
    metrics["transport.server_shed"] = (delta("http_server_queue_shed_total"), "count", all_ops)
    metrics["core.live_resources"] = (live, "count", 1)
    return {name: {"value": value, "unit": unit, "samples": n} for name, (value, unit, n) in metrics.items()}


def op_kinds(samples: list[tuple]) -> dict:
    """Per op kind: count, failures and latency quartiles (ms)."""
    kinds = {}
    for kind in sorted({s[0] for s in samples}):
        latencies = [s[1] * 1000 for s in samples if s[0] == kind]
        kinds[kind] = {
            "count": len(latencies),
            "failed": sum(1 for s in samples if s[0] == kind and not s[4]),
            "p25_ms": _percentile(latencies, 25),
            "p50_ms": _percentile(latencies, 50),
            "p75_ms": _percentile(latencies, 75),
        }
    return kinds


def git_sha() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool, stem: str) -> dict:
    cores = nproc()
    reference = workload_database(seed)
    workload = WORKLOADS[workload_name](seed, reference)
    del reference
    setups = []
    server = None
    speed = HostSpeed()
    try:
        for _ in range(SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            launched = perf_counter()
            server, elapsed = launch_server(seed, cores)
            setups.append((launched, elapsed))
        consumers = [
            Consumer(i, workload, seed, server.target)
            for i in range(min(workload.consumers, cores))
        ]
        run_phase(consumers, server, WARMUP_S, traced=False)
        for consumer in consumers:
            consumer.failures.clear()
        retries0 = sum(c.state.conflict_retries for c in consumers)
        scraped = {"before": server.scrape()}
        phases = []
        recorder = tracing.Recorder()
        schedule = [False, True, False, True] if trace else [False]
        for traced in schedule:
            patches = None
            if traced:
                server.command("trace on")
                patches = tracing.install(recorder)
            try:
                phases.append(run_phase(consumers, server, seconds / len(schedule), traced))
            finally:
                if patches is not None:
                    patches.undo()
                    server.command("trace off")
        scraped["after"] = server.scrape()
        retries = sum(c.state.conflict_retries for c in consumers) - retries0
        lister = SQLClient(HttpTransport())
        live = len(lister.list_resources(server.target.address))
        lister.transport.close()
        rss = server.peak_rss_mb()
        counters = {}
        if trace:
            client_path, server_path = stem + ".client-spans.jsonl", stem + ".server-spans.jsonl"
            recorder.dump(client_path)
            counters = server.command(f"dump {server_path}")["counters"]
        for consumer in consumers:
            consumer.transport.close()
    finally:
        if server is not None:
            server.stop()
        speed.stop()

    for phase in phases:
        phase.measure_speed(speed)
    setup_scales = [speed.scale(start, start + elapsed) for start, elapsed in setups]
    setups_raw = [elapsed for _, elapsed in setups]
    untraced = [p for p in phases if not p.traced]
    traced_phases = [p for p in phases if p.traced]
    metrics = end_to_end(untraced, [t * k for t, k in zip(setups_raw, setup_scales)], rss)
    samples = [s for p in phases for s in p.samples]
    metrics["relational.conflict_retries_per_op"] = {
        "value": retries / len(samples), "unit": "count/op", "samples": len(samples)}
    if trace:
        spans = tracing.layer_times(tracing.load(client_path), tracing.load(server_path))
        metrics.update(per_layer(traced_phases, untraced, spans, counters, scraped, live))
    failed = sum(1 for s in samples if not s[4])
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "failures": [f for c in consumers for f in c.failures],
        "consumers": len(consumers),
        "server_workers": cores,
        "nproc": cores,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "metrics": metrics,
        # Raw timings (not scaled to the reference host; op_kinds are raw
        # too) and the scales.
        "raw_metrics": end_to_end(unscaled(untraced), setups_raw, rss),
        "host_scale": {
            "setup": setup_scales,
            "phases": [p.scale for p in phases],
            "slices": [p.slice_scales for p in phases],
        },
        "setups_raw_s": setups_raw,
        "op_kinds": op_kinds(samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="DAIS HTTP benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(RECORDS, exist_ok=True)
    stem = os.path.join(RECORDS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), stem)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    if args.trace:
        names = [m["name"] for m in _benchmark_spec()["per_layer"]]
    else:
        names = [m["name"] for m in _benchmark_spec()["end_to_end"]]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name]["value"], "unit": record["metrics"][name]["unit"]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
