"""Benchmark-side tracing: spans around the public entry points of each
layer, installed by monkeypatching in the client and the server process.

Nothing under ``src/`` knows about these spans.  :func:`install` wraps
the same entry points in both processes and names each span by the
thread it runs on: server workers are ``dais-worker-*`` threads, every
other thread is a consumer.  A span keeps its name, start, end, parent,
trace id and *self time* — its duration minus the time of the spans
nested in it, computed while the run goes, so a layer's self time is
its own work and nothing it called.  Lazy iterators (streamed rows,
streamed emission, streaming gzip) are timed per ``next()`` and folded
into one span per iterator.

The trace id of a request is its ``wsa:MessageID``: the client reads it
off the envelope it sends, the server off the envelope it parses, which
is how :func:`layer_times` lines each server request up with the client
socket reads that waited for it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import threading
from time import perf_counter

from repro.client.core import CoreClient
from repro.client.sql import SQLClient
from repro.core.service import DataService
from repro.relational.engine import ResultSet, Session
from repro.relational.storage import TableStorage
from repro.soap.envelope import Envelope
from repro.transport.http11 import RequestParser
from repro.transport.httpserver import DaisHttpServer, HttpTransport
import repro.client.sql as client_sql
import repro.dair.service as dair_service
import repro.transport.httpserver as httpserver

SERVER_THREAD_PREFIX = "dais-worker-"

#: The consumer-facing calls the workloads make; each outermost one is a
#: ``client.call`` span.
CLIENT_CALLS = [
    (SQLClient, "sql_execute"),
    (SQLClient, "sql_query_rowset"),
    (SQLClient, "sql_execute_factory"),
    (SQLClient, "sql_rowset_factory"),
    (SQLClient, "get_tuples"),
    (SQLClient, "get_sql_property_document"),
    (CoreClient, "destroy"),
]


class Span:
    __slots__ = ("name", "start", "end", "child", "self_time", "id", "parent", "root", "trace", "count")

    def __init__(self, name, start, span_id, parent) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.self_time = 0.0
        self.id = span_id
        self.parent = parent.id if parent is not None else 0
        self.root = parent.root if parent is not None else self
        self.trace = None
        self.count = 1

    def to_json(self) -> list:
        trace = self.trace if self.trace is not None else self.root.trace
        return [self.name, self.start, self.end, self.self_time, self.id, self.parent, trace, self.count]


class Recorder:
    """Collects spans in memory; one per process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        #: Per-thread counter dicts (each thread writes only its own).
        self._counters: list[dict] = []

    def _thread(self):
        local = self._local
        try:
            return local.stack, local.server, local.counters
        except AttributeError:
            local.stack = []
            local.server = threading.current_thread().name.startswith(SERVER_THREAD_PREFIX)
            local.counters = {}
            self._counters.append(local.counters)
            return local.stack, local.server, local.counters

    def is_server_thread(self) -> bool:
        return self._thread()[1]

    def count(self, key: str, amount: int) -> None:
        counters = self._thread()[2]
        counters[key] = counters.get(key, 0) + amount

    def counters(self) -> dict:
        total: dict = {}
        for counters in list(self._counters):
            for key, value in list(counters.items()):
                total[key] = total.get(key, 0) + value
        return total

    def open(self, name: str) -> Span:
        stack = self._thread()[0]
        span = Span(name, perf_counter(), next(self._ids), stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        stack = self._thread()[0]
        span.end = end = perf_counter()
        stack.pop()
        duration = end - span.start
        span.self_time = duration - span.child
        if stack:
            stack[-1].child += duration
        self.spans.append(span)

    def top(self) -> Span | None:
        stack = self._thread()[0]
        return stack[-1] if stack else None

    def timed_iter(self, name: str, iterator, on_item=None):
        """Time each ``next()`` of *iterator*, folded into one span whose
        ``count`` is the number of items it yielded."""
        stack = self._thread()[0]
        span = Span(name, perf_counter(), next(self._ids), stack[-1] if stack else None)
        span.count = -1  # the final next() raises StopIteration
        self.spans.append(span)
        return _TimedIterator(stack, span, iter(iterator), on_item)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()))
                handle.write("\n")


class _Frame:
    """The stack entry of one ``next()`` call of a timed iterator."""

    __slots__ = ("name", "start", "child")

    def __init__(self, name) -> None:
        self.name = name
        self.start = 0.0
        self.child = 0.0


class _TimedIterator:
    __slots__ = ("_stack", "_span", "_it", "_on_item", "_frame")

    def __init__(self, stack, span, it, on_item) -> None:
        self._stack = stack
        self._span = span
        self._it = it
        self._on_item = on_item
        self._frame = _Frame(span.name)

    def __iter__(self):
        return self

    def __next__(self):
        stack, frame = self._stack, self._frame
        frame.child = 0.0
        stack.append(frame)
        frame.start = start = perf_counter()
        try:
            item = next(self._it)
        finally:
            end = perf_counter()
            stack.pop()
            span = self._span
            span.self_time += end - start - frame.child
            span.end = end
            span.count += 1
            if stack:
                stack[-1].child += end - start
        if self._on_item is not None:
            self._on_item(item)
        return item

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, old in reversed(self._saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved.clear()


_MISSING = object()


def install(recorder: Recorder) -> Patches:
    """Wrap every traced entry point; returns the patches to undo."""
    patches = Patches()
    rec = recorder

    def spanned(name, fn):
        def wrapper(*args, **kwargs):
            span = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(span)

        return wrapper

    def sided(server_name, client_name, fn):
        def wrapper(*args, **kwargs):
            span = rec.open(server_name if rec.is_server_thread() else client_name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(span)

        return wrapper

    # -- client --------------------------------------------------------------
    for owner, attr in CLIENT_CALLS:
        patches.set(SQLClient, attr, _client_call(rec, getattr(owner, attr)))

    send = HttpTransport.send

    def traced_send(self, address, envelope):
        span = rec.open("transport.client_http")
        span.root.trace = envelope.headers.message_id
        try:
            return send(self, address, envelope)
        finally:
            rec.close(span)

    patches.set(HttpTransport, "send", traced_send)
    recv_into = socket.socket.recv_into

    def traced_recv_into(self, *args):
        span = rec.open("transport.client_wait")
        try:
            return recv_into(self, *args)
        finally:
            rec.close(span)

    patches.set(socket.socket, "recv_into", traced_recv_into)
    patches.set(
        http.client.HTTPConnection,
        "request",
        spanned("transport.client_send", http.client.HTTPConnection.request),
    )
    patches.set(httpserver, "gunzip", spanned("transport.client_gunzip", httpserver.gunzip))
    patches.set(client_sql, "parse_rowset", spanned("dair.client_rowset_parse", client_sql.parse_rowset))

    # -- soap (both sides) ---------------------------------------------------
    patches.set(Envelope, "to_bytes", sided("dair.emit", "soap.client_serialize", Envelope.to_bytes))
    iter_bytes = Envelope.iter_bytes
    patches.set(Envelope, "iter_bytes", lambda self: rec.timed_iter("dair.emit", iter_bytes(self)))
    from_bytes = Envelope.__dict__["from_bytes"].__func__

    def traced_from_bytes(cls, data):
        server = rec.is_server_thread()
        span = rec.open("soap.server_parse" if server else "soap.client_parse")
        try:
            envelope = from_bytes(cls, data)
        finally:
            rec.close(span)
        if server:
            span.root.trace = envelope.headers.message_id
        return envelope

    patches.set(Envelope, "from_bytes", classmethod(traced_from_bytes))

    # -- server transport ----------------------------------------------------
    on_request = DaisHttpServer.on_request

    def traced_on_request(self, conn, request, core, waited):
        span = rec.open("transport.server_request")
        queued = Span("transport.server_queue_wait", span.start - waited, 0, None)
        queued.root = span
        queued.end = span.start
        queued.self_time = waited
        rec.spans.append(queued)
        try:
            return on_request(self, conn, request, core, waited)
        finally:
            rec.close(span)

    patches.set(DaisHttpServer, "on_request", traced_on_request)
    for attr in ("feed", "next_request"):
        patches.set(RequestParser, attr, spanned("transport.server_framing", getattr(RequestParser, attr)))
    gzip_compress = httpserver.gzip_compress

    def traced_compress(payload, *args, **kwargs):
        span = rec.open("transport.compress")
        try:
            compressed = gzip_compress(payload, *args, **kwargs)
        finally:
            rec.close(span)
        rec.count("gzip.in", len(payload))
        rec.count("gzip.out", len(compressed))
        return compressed

    patches.set(httpserver, "gzip_compress", traced_compress)
    gzip_stream = httpserver.gzip_stream

    def traced_gzip_stream(fragments, *args, **kwargs):
        counted = (_count(rec, "gzip.in", fragment) for fragment in fragments)
        return rec.timed_iter(
            "transport.compress",
            gzip_stream(counted, *args, **kwargs),
            lambda out: rec.count("gzip.out", len(out)),
        )

    patches.set(httpserver, "gzip_stream", traced_gzip_stream)
    sendall = socket.socket.sendall

    def traced_sendall(self, data, *args):
        if not rec.is_server_thread():
            return sendall(self, data, *args)
        span = rec.open("transport.server_write")
        try:
            return sendall(self, data, *args)
        finally:
            rec.close(span)

    patches.set(socket.socket, "sendall", traced_sendall)

    # -- core, dair, relational ----------------------------------------------
    patches.set(DataService, "dispatch", spanned("core.dispatch", DataService.dispatch))
    patches.set(dair_service, "render_rowset", spanned("dair.emit", dair_service.render_rowset))
    execute = Session.execute

    def traced_execute(self, *args, **kwargs):
        span = rec.open("relational.execute")
        try:
            result = execute(self, *args, **kwargs)
        finally:
            rec.close(span)
        if result.is_query and not result.is_streaming:
            rec.count("relational.rows_out", len(result.rows))
        return result

    patches.set(Session, "execute", traced_execute)
    iter_rows = ResultSet.iter_rows

    def traced_iter_rows(self):
        rows = iter_rows(self)
        if not self.is_streaming:
            return rows
        return rec.timed_iter("relational.stream_rows", rows)

    patches.set(ResultSet, "iter_rows", traced_iter_rows)
    for attr in ("rows", "iter_rows"):
        patches.set(TableStorage, attr, _counted_scan(rec, getattr(TableStorage, attr)))
    get = TableStorage.get

    def counted_get(self, row_id):
        rec.count("relational.rows_scanned", 1)
        return get(self, row_id)

    patches.set(TableStorage, "get", counted_get)
    return patches


def _count(rec: Recorder, key: str, fragment: bytes) -> bytes:
    rec.count(key, len(fragment))
    return fragment


def _client_call(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        top = rec.top()
        if top is not None and top.name == "client.call":
            return fn(*args, **kwargs)
        span = rec.open("client.call")
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)

    return wrapper


def _counted_scan(rec: Recorder, fn):
    def wrapper(self):
        scanned = 0
        try:
            for item in fn(self):
                scanned += 1
                yield item
        finally:
            rec.count("relational.rows_scanned", scanned)

    return wrapper


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

#: Every layer; see :func:`layer_times` for the two that are intervals
#: between processes (``transport.server_admission``,
#: ``transport.client_wait``).
LAYERS = [
    "client.call",
    "soap.client_serialize",
    "transport.client_http",
    "transport.client_send",
    "transport.client_wait",
    "transport.client_gunzip",
    "soap.client_parse",
    "dair.client_rowset_parse",
    "transport.server_admission",
    "transport.server_framing",
    "transport.server_queue_wait",
    "transport.server_request",
    "soap.server_parse",
    "core.dispatch",
    "relational.execute",
    "relational.stream_rows",
    "dair.emit",
    "transport.compress",
    "transport.server_write",
]
_SERVER_ROOTS = ("transport.server_request", "transport.server_queue_wait")
#: Client spans in which the consumer waits on the server.
_CLIENT_WAITS = ("transport.client_send", "transport.client_wait")


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def layer_times(client_spans: list[list], server_spans: list[list]) -> dict:
    """Per layer name the total self seconds, the total ``client.call``
    duration, the part of it the measured layers account for, and per
    server span name the calls (items, for iterators).

    Spans of one request share its message id.  The server handles a
    request from the start of its queue wait to the end of
    ``on_request``; from the end of the client's ``transport.client_send``
    to the start of the queue wait the request is in the kernel and the
    event loop, reported as ``transport.server_admission``.  Client time
    inside ``transport.client_send`` or ``transport.client_wait`` that
    overlaps admission or the server's handling is the server's time,
    not the client's (a server thread the consumer wakes can take the
    consumer's CPU before the send returns); the rest of a wait is the
    response in transit, reported as ``transport.client_wait``.

    The accounted time counts only what a measured layer covers:

    * the self time of every client layer span — not ``client.call``'s
      own self time (the client API's code that no layer wraps) and not
      transit;
    * the client's time overlapping the request's admission interval;
    * of the client's time overlapping the server's handling, the share
      the server's inner layers cover: 1 - (``on_request`` self time /
      handling time).  ``on_request``'s own code is not counted.

    Server layers are not summed directly because they run partly in
    parallel with the client (the client decodes chunks while the server
    still emits), so their sum can exceed the consumer's wait.  The time
    of a layer that is not wrapped falls to its caller, and lowers the
    accounted share when that caller is ``client.call`` or ``on_request``.
    """
    sent: dict[str, float] = {}
    for name, _start, end, _self, _id, _parent, trace, _count in client_spans:
        if name == "transport.client_send":
            sent[trace] = end
    handled: dict[str, list] = {}
    for name, start, end, self_time, _id, _parent, trace, _count in server_spans:
        if name in _SERVER_ROOTS and trace is not None:
            entry = handled.setdefault(trace, [start, end, 0.0])
            entry[0] = min(entry[0], start)
            entry[1] = max(entry[1], end)
            if name == "transport.server_request":
                entry[2] += self_time
    totals = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(LAYERS, 0)
    call_total = accounted = 0.0
    unaccounted = {"client.call": 0.0, "transit": 0.0, "server_request": 0.0}
    admitted: dict[str, tuple] = {}
    for trace, (first, last, _root_self) in handled.items():
        admitted[trace] = (min(first, sent.get(trace, first)), first)
        totals["transport.server_admission"] += first - admitted[trace][0]
    for name, start, end, self_time, _id, _parent, trace, _count in client_spans:
        remote = handled.get(trace) if name in _CLIENT_WAITS else None
        if remote is not None:
            low, high = admitted[trace]
            overlap = max(0.0, min(end, high) - max(start, low))
            self_time -= overlap
            accounted += overlap
            first, last, root_self = remote
            overlap = max(0.0, min(end, last) - max(start, first))
            covered = overlap * (1.0 - root_self / (last - first)) if last > first else 0.0
            self_time -= overlap
            accounted += covered
            unaccounted["server_request"] += overlap - covered
        if name == "client.call":
            call_total += end - start
            unaccounted["client.call"] += self_time
        elif name == "transport.client_wait":
            unaccounted["transit"] += self_time
        else:
            accounted += self_time
        totals[name] = totals.get(name, 0.0) + self_time
    for name, _start, _end, self_time, _id, _parent, _trace, count in server_spans:
        totals[name] = totals.get(name, 0.0) + self_time
        counts[name] = counts.get(name, 0) + count
    return {
        "self": totals,
        "call": call_total,
        "accounted": accounted,
        "unaccounted": unaccounted,
        "server_counts": counts,
    }
