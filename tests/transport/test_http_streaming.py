"""Chunked transfer of streamed datasets over the real HTTP binding.

Every response that carries a dataset is chunked; responses without one
(property documents, update counts) keep Content-Length.
"""

import http.client

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.relational import Database
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.dair import messages as msg
from repro.transport import DaisHttpServer, HttpTransport

ROWS = 300


def _build(registry: ServiceRegistry, server: DaisHttpServer):
    address = server.url_for("/sql")
    service = SQLRealisationService("stream-sql", address)
    registry.register(service)
    database = Database("chunkdb")
    database.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20))")
    database.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i},'value-{i}')" for i in range(ROWS))
    )
    resource = SQLDataResource(mint_abstract_name("t"), database)
    service.add_resource(resource)
    return address, resource.abstract_name, service


@pytest.fixture(scope="module")
def http_setup():
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0)
    address, name, service = _build(registry, server)
    with server:
        yield server, address, name, service


def _raw_exchange(server, address, name, sql=None):
    """POST via raw http.client so response headers are inspectable.

    Sends an SQLExecute of *sql*, or a GetSQLPropertyDocument (a
    response with no dataset) when *sql* is omitted."""
    message = (
        msg.GetSQLPropertyDocumentRequest(abstract_name=name)
        if sql is None
        else msg.SQLExecuteRequest(abstract_name=name, expression=sql)
    )
    request = Envelope(
        headers=MessageHeaders(to=address, action=message.action()),
        payload=message.to_xml(),
    )
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request(
            "POST",
            "/sql",
            body=request.to_bytes(),
            headers={"Content-Type": "text/xml; charset=utf-8"},
        )
        reply = conn.getresponse()
        body = reply.read()
        return reply, body
    finally:
        conn.close()


class TestChunkedResponses:
    def test_streamable_select_goes_out_chunked(self, http_setup):
        server, address, name, _ = http_setup
        reply, body = _raw_exchange(server, address, name, "SELECT v FROM t")
        assert reply.status == 200
        assert reply.getheader("Transfer-Encoding") == "chunked"
        assert reply.getheader("Content-Length") is None
        envelope = Envelope.from_bytes(body)
        assert not envelope.is_fault()

    def test_pipeline_breaker_goes_out_chunked(self, http_setup):
        # ORDER BY materializes its rows in the engine; the dataset is
        # still emitted incrementally, so the framing is chunked too.
        server, address, name, _ = http_setup
        reply, body = _raw_exchange(
            server, address, name, "SELECT v FROM t ORDER BY k"
        )
        assert reply.status == 200
        assert reply.getheader("Transfer-Encoding") == "chunked"
        assert reply.getheader("Content-Length") is None
        assert not Envelope.from_bytes(body).is_fault()

    def test_chunk_counter_increments(self, http_setup):
        server, address, name, _ = http_setup
        before = server.metrics.counter("http.server.chunks").total()
        _raw_exchange(server, address, name, "SELECT v FROM t")
        after = server.metrics.counter("http.server.chunks").total()
        assert after > before

    def test_streamed_rows_arrive_intact_via_pooled_client(self, http_setup):
        _, address, name, _ = http_setup
        transport = HttpTransport()
        client = SQLClient(transport)
        rowset = client.sql_query_rowset(address, name, "SELECT k, v FROM t")
        assert rowset.row_count == ROWS
        assert rowset.rows[0] == ("0", "value-0")
        assert rowset.rows[-1] == (str(ROWS - 1), f"value-{ROWS - 1}")
        assert rowset.types == ["INTEGER", "VARCHAR(20)"]
        transport.close()

    def test_connection_reusable_after_chunked_response(self, http_setup):
        _, address, name, _ = http_setup
        transport = HttpTransport()
        client = SQLClient(transport)
        for _ in range(3):
            rowset = client.sql_query_rowset(
                address, name, "SELECT v FROM t WHERE k < 10"
            )
            assert rowset.row_count == 10
        reused = transport.metrics.counter(
            "rpc.client.connections.reused"
        ).total()
        assert reused >= 2
        transport.close()

    def test_streamed_and_eager_bodies_agree(self, http_setup):
        # The same rows pulled lazily from the engine (a plain scan)
        # and materialized by it first (ORDER BY on the scan order)
        # must go out as the same dataset bytes.
        server, address, name, _ = http_setup
        sql = "SELECT k, v FROM t WHERE k < 25"
        _, streamed_body = _raw_exchange(server, address, name, sql)
        _, eager_body = _raw_exchange(
            server, address, name, sql + " ORDER BY k"
        )
        from repro.xmlutil import serialize

        streamed = Envelope.from_bytes(streamed_body)
        eager = Envelope.from_bytes(eager_body)
        # Same dataset bytes modulo per-request MessageID/RelatesTo headers.
        assert serialize(
            streamed.payload.find(msg._q("SQLDataset"))
        ) == serialize(eager.payload.find(msg._q("SQLDataset")))

    def test_eager_response_uses_content_length(self):
        registry = ServiceRegistry()
        server = DaisHttpServer(registry, port=0)
        address, name, _ = _build(registry, server)
        with server:
            reply, body = _raw_exchange(server, address, name)
            assert reply.getheader("Transfer-Encoding") is None
            assert int(reply.getheader("Content-Length")) == len(body)
            assert not Envelope.from_bytes(body).is_fault()
            assert server.metrics.counter("http.server.chunks").total() == 0
