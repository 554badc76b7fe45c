"""Load and soak for the event-loop HTTP front end.

c=100 real keep-alive sockets hammer one ``DaisHttpServer``: every
request must get exactly one well-formed response (none lost, none
corrupted), connections must actually be reused, and the dispatch
queue must never exceed its configured bound.  A second group drives
the server into overload on purpose and checks that admission control
degrades *correctly*: sheds are wire-parseable ``ServiceBusyFault``
envelopes the resilience layer retries to success, and the loop-thread
``/healthz`` fast path stays responsive while every worker is pinned.

Set ``LOAD_SEED`` to replay a particular workload interleaving.
"""

import http.client
import os
import random
import threading
import time

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.core.faults import ServiceBusyFault
from repro.dair import SQLDataResource, SQLRealisationService
from repro.dair import messages as msg
from repro.faultinject import FaultPlan, Latency
from repro.relational import Database
from repro.resilience import NO_RETRY, BreakerConfig, Resilience, RetryPolicy
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import DaisHttpServer, HttpTransport

LOAD_SEED = int(os.environ.get("LOAD_SEED", "0"))

CLIENTS = 100
REQUESTS_EACH = 4


def _make_server(**knobs):
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0, **knobs)
    address = server.url_for("/load")
    service = SQLRealisationService("load-sql", address)
    registry.register(service)
    database = Database("loaddb")
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
    database.execute("INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c')")
    resource = SQLDataResource(mint_abstract_name("t"), database)
    service.add_resource(resource)
    return server, address, resource.abstract_name


def _request_bytes(address: str, name: str) -> bytes:
    request = msg.SQLExecuteRequest(
        abstract_name=name, expression="SELECT v FROM t ORDER BY id"
    )
    envelope = Envelope(
        headers=MessageHeaders(to=address, action=type(request).action()),
        payload=request.to_xml(),
    )
    return envelope.to_bytes()


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request(
        "POST",
        "/load",
        body=body,
        headers={"Content-Type": "text/xml; charset=utf-8"},
    )
    reply = conn.getresponse()
    return reply.status, reply.read()


class TestKeepAliveLoad:
    def test_c100_no_lost_responses_and_bounded_queue(self):
        server, address, name = _make_server(workers=8, queue_depth=256)
        body = _request_bytes(address, name)
        errors: list[BaseException] = []
        ok = []
        barrier = threading.Barrier(CLIENTS)

        def one_client(index: int) -> None:
            rng = random.Random(LOAD_SEED * 100_003 + index)
            try:
                barrier.wait(timeout=30)
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=30
                )
                try:
                    for _ in range(REQUESTS_EACH):
                        status, payload = _post(conn, body)
                        assert status == 200, (status, payload[:200])
                        reply = Envelope.from_bytes(payload)
                        reply.raise_if_fault()
                        decoded = msg.SQLExecuteResponse.from_xml(reply.payload)
                        assert decoded.dataset is not None
                        ok.append(index)
                        # jitter the interleaving (seeded, replayable)
                        time.sleep(rng.uniform(0.0, 0.002))
                finally:
                    conn.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,))
            for i in range(CLIENTS)
        ]
        with server:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors, errors[:3]
        assert len(ok) == CLIENTS * REQUESTS_EACH

        # Every request answered, none shed, none lost.
        requests = server.metrics.counter("http.server.requests")
        assert requests.value(status="200") == CLIENTS * REQUESTS_EACH
        shed = server.metrics.counter("http.server.queue.shed")
        assert shed.total() == 0

        # Keep-alive actually reused: one accepted connection per client,
        # not one per request.
        connections = server.metrics.counter("http.server.connections")
        assert connections.value(event="accepted") == CLIENTS

        # The dispatch queue never grew past its bound.
        depth = server.metrics.histogram("http.server.queue.depth")
        stats = depth.stats()
        assert stats.count == CLIENTS * REQUESTS_EACH
        assert stats.maximum <= 256


class TestOverloadDegradation:
    def test_sheds_are_retried_to_success_by_resilience_layer(self):
        # One slow worker and a one-slot queue guarantee admission
        # refusals under a concurrent volley; the client-side resilience
        # layer must absorb every one of them.
        server, address, name = _make_server(
            workers=1, queue_depth=1, queue_deadline=None
        )
        server.fault_plan = FaultPlan(seed=LOAD_SEED).always(Latency(0.05))
        callers = 12
        errors: list[BaseException] = []
        barrier = threading.Barrier(callers)
        # A wide-open breaker: this test *wants* sustained overload, and
        # sheds under a deliberate volley would trip default thresholds.
        resilience = Resilience(
            policy=RetryPolicy(
                max_attempts=10,
                base_delay=0.05,
                max_delay=0.5,
                budget_seconds=60.0,
            ),
            breaker=BreakerConfig(failure_threshold=10_000),
            seed=LOAD_SEED,
        )
        client = SQLClient(HttpTransport(resilience=resilience))

        def call() -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(2):
                    rowset = client.sql_query_rowset(
                        address, name, "SELECT v FROM t ORDER BY id"
                    )
                    assert rowset.rows == [("a",), ("b",), ("c",)]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(callers)]
        with server:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors, errors[:3]

        # The point of the test: overload actually happened, and the
        # resilience layer retried through it to full success.
        shed = server.metrics.counter("http.server.queue.shed")
        assert shed.value(reason="queue-full") > 0
        assert resilience.metrics.counter("resilience.retries").total() > 0
        assert resilience.metrics.counter("resilience.giveups").total() == 0

    def test_shed_is_parseable_fault_and_keeps_connection_alive(self):
        # Saturate worker + queue, then probe on a raw keep-alive
        # socket: the 503 must carry a SOAP ServiceBusyFault envelope
        # and must NOT cost us the connection.
        server, address, name = _make_server(
            workers=1, queue_depth=1, queue_deadline=None
        )
        server.fault_plan = FaultPlan().always(Latency(0.3))
        body = _request_bytes(address, name)
        # Shed posts return at once, so a fixed number of them could end
        # the saturation before the probe's first request arrives: the
        # saturators keep posting until the probe has seen its 503.
        probed = threading.Event()

        def saturate() -> None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            try:
                while not probed.is_set():
                    _post(conn, body)
            finally:
                conn.close()

        saturators = [threading.Thread(target=saturate) for _ in range(4)]
        with server:
            for thread in saturators:
                thread.start()
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            try:
                # Keep probing the saturated server until a shed lands
                # (exact interleaving is scheduler-dependent).
                deadline = time.monotonic() + 20
                payload = b""
                while time.monotonic() < deadline:
                    status, payload = _post(conn, body)
                    if status == 503:
                        break
                else:  # pragma: no cover - diagnostic
                    pytest.fail("no shed observed under saturation")
                probed.set()
                assert status == 503
                reply = Envelope.from_bytes(payload)
                with pytest.raises(ServiceBusyFault, match="shed at admission"):
                    reply.raise_if_fault()
                for thread in saturators:
                    thread.join(timeout=60)
                # Same socket, next request: served normally — the shed
                # did not cost us the keep-alive connection.
                status, payload = _post(conn, body)
                assert status == 200
                Envelope.from_bytes(payload).raise_if_fault()
            finally:
                probed.set()
                conn.close()
        shed = server.metrics.counter("http.server.queue.shed")
        assert shed.value(reason="queue-full") >= 1

    def test_stale_queued_requests_shed_on_deadline(self):
        # A tiny queued-wait deadline: requests that sat behind a slow
        # worker longer than the deadline are refused when dequeued,
        # with the distinct queue-deadline reason on the wire metric.
        server, address, name = _make_server(
            workers=1, queue_depth=10, queue_deadline=0.05
        )
        server.fault_plan = FaultPlan().always(Latency(0.3))
        client = SQLClient(HttpTransport(resilience=NO_RETRY))
        outcomes: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def call() -> None:
            try:
                barrier.wait(timeout=30)
                client.sql_query_rowset(address, name, "SELECT v FROM t")
                result = "ok"
            except ServiceBusyFault:
                result = "busy"
            except BaseException as exc:  # noqa: BLE001
                result = f"unexpected: {exc!r}"
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=call) for _ in range(4)]
        with server:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert sorted(set(outcomes)) in (["busy", "ok"], ["busy"]), outcomes
        shed = server.metrics.counter("http.server.queue.shed")
        assert shed.value(reason="queue-deadline") > 0

    def test_healthz_fast_path_survives_saturation(self):
        # Every worker pinned on injected latency; /healthz is answered
        # on the loop thread and must stay fast.
        server, address, name = _make_server(
            workers=2, queue_depth=8, queue_deadline=None
        )
        server.fault_plan = FaultPlan().always(Latency(0.4))
        body = _request_bytes(address, name)

        def saturate() -> None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                _post(conn, body)
            except Exception:  # noqa: BLE001 - sheds are fine here
                pass
            finally:
                conn.close()

        threads = [threading.Thread(target=saturate) for _ in range(6)]
        with server:
            for thread in threads:
                thread.start()
            time.sleep(0.1)  # let the workers get pinned
            probe = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=5
            )
            latencies = []
            try:
                for _ in range(20):
                    started = time.monotonic()
                    probe.request("GET", "/healthz")
                    reply = probe.getresponse()
                    payload = reply.read()
                    latencies.append(time.monotonic() - started)
                    assert reply.status == 200
                    assert b'"status"' in payload or b"ok" in payload
            finally:
                probe.close()
            for thread in threads:
                thread.join(timeout=60)
        worst = max(latencies)
        assert worst < 0.25, f"/healthz p100 {worst * 1000:.1f}ms under saturation"
