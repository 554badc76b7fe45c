"""Figure 2 — the compiled hot path gate (plan cache + byte templates).

Paper claim: figure 2's round-trip decomposition shows the message
layer — serialization, parsing, dispatch framing — dominating the
engine for realistic result sizes.  The hot path is compiled:
prepared-statement plans cached on SQL text, precompiled byte-template
serialization, a tag-interning single-pass parser, and batched tuple
emission.  Each is the only implementation of its concern, so the gate
is an absolute budget on the message layer of the repeat query.

Hard gate (``make bench-fig2``):

* message-layer time (total − engine) for the 1000-row repeat query
  stays within ``BUDGET_MS``, measured as min-of-rounds × best-of-N so
  machine noise drops out;
* wire output is **byte-identical**: templated vs tree serialization,
  and chunked vs whole-body delivery; the dataset emitter reproduces
  the golden dataset snapshots under ``tests/dair/golden``;
* the plan-cache invalidation regressions stay green (they run in the
  same suite: ``tests/relational/test_plan_cache.py``).

``BENCH_FIG2_SMOKE=1`` (wired into ``make test``) runs a scaled-down
tier: fewer rounds, with a budget set from the same tier's own spread,
so the everyday suite stays fast while still catching a regressed hot
path.

The budgets are the median plus the quartile spread of twelve runs of
each tier on a 2-core x86-64 host (Python 3.11), taken before the
second (pre-compilation) code path was deleted.
"""

import os
import re
import time

import pytest

from repro.bench import Table
from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService, render_rowset
from repro.dair import messages as msg
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, populate_shop_database
from repro.xmlutil import serialize, serialize_bytes
from tests.dair.test_streaming_datasets import (
    ALL_FORMATS,
    GOLDEN_CORPUS,
    golden_text,
)

SMOKE = os.environ.get("BENCH_FIG2_SMOKE", "") == "1"

#: Same scale as the other figure-2 benchmarks: 1200 lineitems.
WORKLOAD = RelationalWorkload(
    customers=100, orders_per_customer=4, items_per_order=3
)
QUERY = "SELECT * FROM lineitems LIMIT 1000"

ROUNDS = 2 if SMOKE else 6
BEST_OF = 3 if SMOKE else 8
BUDGET_MS = 16.7 if SMOKE else 13.8


@pytest.fixture(scope="module")
def deploy():
    registry = ServiceRegistry()
    service = SQLRealisationService("hot-sql", "dais://hot-sql")
    registry.register(service)
    database = populate_shop_database(WORKLOAD)
    resource = SQLDataResource(mint_abstract_name("shop"), database)
    service.add_resource(resource)
    client = SQLClient(LoopbackTransport(registry))
    return service, database, resource, client


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def test_fig2_hotpath_gate(deploy):
    """Message-layer time of the repeat query against its budget.

    ``message = total − engine``: the engine leg is measured on the
    same :class:`Database` (plan cache included), so what remains is
    serialization, parsing, and dispatch framing — the figure-2 message
    layer.  Legs alternate within every round and the final number is
    the min across rounds, so a load spike hits both alike.
    """
    service, database, resource, client = deploy

    def call():
        client.sql_execute(service.address, resource.abstract_name, QUERY)

    def engine():
        database.execute(QUERY)

    call()  # warm the plan cache and the parser's tag caches
    samples: list[float] = []
    engines: list[float] = []
    for _ in range(ROUNDS):
        engines.append(_best(engine, BEST_OF))
        samples.append(_best(call, BEST_OF))
    message_ms = (min(samples) - min(engines)) * 1e3

    table = Table(
        "Figure 2 — message layer of the repeat query (1000 rows)",
        ["engine ms", "total ms", "message ms", "budget ms"],
        note=(
            f"min of {ROUNDS} interleaved rounds × best-of-{BEST_OF}; "
            f"gate: message ≤ {BUDGET_MS} ms"
        ),
    )
    table.add(
        f"{min(engines) * 1e3:8.2f}",
        f"{min(samples) * 1e3:8.2f}",
        f"{message_ms:8.2f}",
        f"{BUDGET_MS:8.2f}",
    )
    table.show()

    assert message_ms > 0
    assert message_ms <= BUDGET_MS, (
        f"message layer {message_ms:.2f}ms over the {BUDGET_MS}ms budget"
    )


def _execute(service, resource) -> Envelope:
    """One SQLExecute dispatched at the envelope layer.  Dispatched
    fresh every call: a streamed response drains its dataset when
    serialized, so the envelope is single-use by design."""
    request = Envelope(
        headers=MessageHeaders(
            to=service.address, action=msg.SQLExecuteRequest.action()
        ),
        payload=msg.SQLExecuteRequest(
            abstract_name=resource.abstract_name,
            expression=QUERY,
        ).to_xml(),
    )
    return service.dispatch(Envelope.from_bytes(request.to_bytes()))


#: Every dispatch mints fresh ``wsa:MessageID``/``wsa:RelatesTo`` UUIDs;
#: pin them so responses to identical requests compare byte-for-byte.
_UUID = re.compile(rb"urn:uuid:[0-9a-f-]{36}")


def _normalize(wire: bytes) -> bytes:
    return _UUID.sub(b"urn:uuid:pinned", wire)


def test_fig2_wire_bytes_identical_templated_vs_tree(deploy):
    """The byte-template serializer is an optimization, not a dialect:
    the same response rendered through the generic tree walker (the
    fallback for uncommon header shapes) gives the same wire bytes."""
    service, database, resource, client = deploy
    templated = _execute(service, resource).to_bytes()
    tree = serialize_bytes(_execute(service, resource)._serial_view())
    assert _normalize(templated) == _normalize(tree)


def test_fig2_wire_bytes_identical_eager_vs_streamed(deploy):
    """Chunked delivery changes when bytes are produced, never which
    bytes: the chunked body equals the whole-body serialization, and
    the dataset emitter matches the golden snapshots taken from the
    tree renderers it replaced."""
    service, database, resource, client = deploy
    chunked = b"".join(_execute(service, resource).iter_bytes())
    whole = _execute(service, resource).to_bytes()
    assert _normalize(chunked) == _normalize(whole)
    for case, rowset in GOLDEN_CORPUS.items():
        for format_uri in ALL_FORMATS:
            emitted = serialize(render_rowset(format_uri, rowset))
            assert emitted == golden_text(case, format_uri), (case, format_uri)
