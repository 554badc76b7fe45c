"""The three consumer workloads: inputs from a seed, the ops, their checks.

Every op is split into ``execute`` (the timed consumer interaction, made
only through the public :class:`repro.client.sql.SQLClient` API) and
``check`` (run after the clock stops).  Reference answers come from a
:class:`repro.relational.Database` that the load process builds from the
same seed as the server's, and are computed before any timed window.

Why each workload exists (see README.md for the layer-to-metric table):

* ``rowset-bulk`` — one consumer pulling 1000-row SQLRowset datasets with
  gzip on: the engine, dataset emission, gzip and the client-side parse do
  nearly all the work.
* ``point-ops`` — two consumers sending 1-10 row lookups: per-message cost
  (envelopes, HTTP framing, admission queue, dispatch) dominates, half the
  statement texts repeat (plan-cache hits) and half carry an inline key
  from a domain many times the plan cache's size (mostly misses).
* ``factory-rw`` — two consumers mixing WS-DAI indirect access (factory ->
  rowset factory -> GetTuples -> destroy) with writes and property-document
  fetches: resource create/destroy, the shared-result and property-document
  caches with their invalidation, and the relational write path.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
import time
from collections import Counter

from repro.core.faults import InvalidExpressionFault
from repro.dair.datasets import Rowset
from repro.relational import Database
from repro.workload import RelationalWorkload, populate_shop_database

#: Shop database scale (400 customers -> 1600 orders, 4800 line items).
CUSTOMERS = 400
ORDERS = CUSTOMERS * 4
LINEITEMS = ORDERS * 3
#: The relational plan cache's capacity; the inline-key domains of
#: point-ops are several times larger, so most inline statements miss.
PLAN_CACHE_ENTRIES = 512
#: GetTuples window size for the indirect-access sequence.
PAGE = 100
#: Inserted orders get totals above any generated order (3 items x 20 qty
#: x 99.5 price < 6000), so they match every read threshold but sort
#: after the first page: the page stays comparable with the reference.
INSERT_TOTAL_BASE = 7000.0
#: Serialization-conflict retries: attempts per call and the pause
#: between them (a conflicting write commits within a few ms).
CONFLICT_ATTEMPTS = 50
CONFLICT_BACKOFF_S = 0.002


class CheckFailed(Exception):
    """An answer that disagrees with the reference."""


def workload_database(seed: int) -> Database:
    """The shop database both processes build from *seed*."""
    return populate_shop_database(
        RelationalWorkload(customers=CUSTOMERS, seed=seed)
    )


def _rows(db: Database, sql: str, params=()) -> list[tuple]:
    return Rowset.from_result(db.execute(sql, tuple(params))).rows


def _same_values(got: tuple, ref: tuple) -> bool:
    """Row equality that tolerates float summation order in aggregates."""
    if got == ref:
        return True
    if len(got) != len(ref):
        return False
    for a, b in zip(got, ref):
        if a == b:
            continue
        try:
            if not math.isclose(float(a), float(b), rel_tol=1e-9):
                return False
        except (TypeError, ValueError):
            return False
    return True


def retry_conflicts(state, call, *args):
    """Run one SQL-executing call, retrying SQLSTATE 40001.

    The engine answers a read or write that meets another transaction's
    uncommitted writes with a serialization conflict instead of
    blocking; a DAIS consumer's answer to that typed fault is to retry.
    Retries are counted in ``state.conflict_retries``, never hidden.
    """
    for attempt in range(CONFLICT_ATTEMPTS):
        try:
            return call(*args)
        except InvalidExpressionFault as exc:
            if "[40001]" not in str(exc) or attempt == CONFLICT_ATTEMPTS - 1:
                raise
            state.conflict_retries += 1
            time.sleep(CONFLICT_BACKOFF_S)


def deck(rng: random.Random, counts: dict[str, int]):
    """Endless op kinds: each round deals every kind its count, shuffled,
    so every stretch of a run has the workload's mix exactly."""
    cards = [kind for kind, count in counts.items() for _ in range(count)]
    while True:
        rng.shuffle(cards)
        yield from cards


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Op:
    """One consumer interaction: a query, a write, a property-document
    fetch, or one whole indirect-access sequence."""

    __slots__ = ("kind", "execute", "check")

    def __init__(self, kind, execute, check) -> None:
        self.kind = kind
        #: ``execute(client, target) -> (rows received, observation)``.
        self.execute = execute
        #: ``check(observation)``; raises :class:`CheckFailed`.
        self.check = check


class ConsumerState:
    """Per-consumer bookkeeping."""

    def __init__(self, consumer: int) -> None:
        self.consumer = consumer
        self.conflict_retries = 0
        #: threshold -> factory response whose shared claim we hold.
        self.held = {}
        #: Inserts this consumer has seen acknowledged.
        self.acked_inserts = 0
        self.inserted = itertools.count(1)


class Workload:
    """A workload: its consumer count and each consumer's op stream."""

    consumers = 1

    def new_state(self, consumer: int):
        """Per-consumer state threaded through :meth:`ops`."""
        return ConsumerState(consumer)

    def ops(self, consumer: int, seed: int, state):
        """An endless, seed-determined stream of :class:`Op`."""
        raise NotImplementedError


class Target:
    """Where the consumers send requests."""

    def __init__(self, address: str, name: str) -> None:
        self.address = address
        self.name = name


# ---------------------------------------------------------------------------
# rowset-bulk
# ---------------------------------------------------------------------------

REPEAT_SQL = "SELECT * FROM lineitems LIMIT 1000"
_PROJECTIONS = [
    "id, order_id, product, qty",
    "order_id, product, price",
    "id, qty, price",
]
_GROUPINGS = [("c.region", "region"), ("c.segment", "segment")]
_STATUSES = ["open", "shipped", "billed", "closed"]


class RowsetBulk(Workload):
    consumers = 1
    #: Filtered scans drawn per run: enough that every run samples the
    #: same selectivity range.
    FILTERS = 24
    #: Op kinds per round of ten: 50% repeat, 30% filter, 20% aggregate.
    MIX = {"repeat": 5, "filter": 3, "aggregate": 2}

    def __init__(self, seed: int, reference: Database) -> None:
        rng = random.Random(f"rowset-bulk:{seed}")
        all_items = _rows(reference, "SELECT * FROM lineitems")
        self.repeat_universe = set(all_items)
        self.repeat_count = min(1000, len(all_items))
        # Selectivity stays in roughly [0.35, 1] so a LIMIT 1000 scan
        # reads at most ~3x its output: the filtered cluster of the
        # latency distribution stays narrow from seed to seed.
        self.filters = []
        for index in range(self.FILTERS):
            columns = _PROJECTIONS[index % len(_PROJECTIONS)]
            params = [str(rng.randint(1, 6)), f"{rng.uniform(50, 99.5):.2f}"]
            sql = (
                f"SELECT {columns} FROM lineitems "
                "WHERE qty >= ? AND price < ? LIMIT 1000"
            )
            full = _rows(
                reference,
                f"SELECT {columns} FROM lineitems WHERE qty >= ? AND price < ?",
                params,
            )
            self.filters.append((sql, params, Counter(full), min(1000, len(full))))
        self.aggregates = []
        for status in _STATUSES:
            for expr, alias in _GROUPINGS:
                sql = (
                    f"SELECT {expr} AS {alias}, COUNT(*) AS n, "
                    "SUM(o.total) AS revenue, AVG(o.total) AS mean_total "
                    "FROM orders o JOIN customers c ON o.customer_id = c.id "
                    f"WHERE o.status = ? GROUP BY {expr} "
                    f"ORDER BY revenue DESC, {alias}"
                )
                self.aggregates.append(
                    (sql, [status], _rows(reference, sql, [status]))
                )

    def ops(self, consumer: int, seed: int, state):
        rng = random.Random(f"rowset-bulk:{seed}:{consumer}")
        for kind in deck(rng, self.MIX):
            if kind == "repeat":
                yield self._repeat()
            elif kind == "filter":
                yield self._filtered(*rng.choice(self.filters))
            else:
                yield self._aggregate(*rng.choice(self.aggregates))

    def _repeat(self) -> Op:
        def execute(client, target):
            rowset = client.sql_query_rowset(target.address, target.name, REPEAT_SQL)
            return len(rowset.rows), rowset.rows

        def check(rows):
            _expect(len(rows) == self.repeat_count, f"repeat: {len(rows)} rows")
            _expect(len(set(rows)) == len(rows), "repeat: duplicate rows")
            _expect(
                all(row in self.repeat_universe for row in rows),
                "repeat: row not in lineitems",
            )

        return Op("repeat", execute, check)

    def _filtered(self, sql, params, reference: Counter, count: int) -> Op:
        def execute(client, target):
            rowset = client.sql_query_rowset(target.address, target.name, sql, params)
            return len(rowset.rows), rowset.rows

        def check(rows):
            _expect(len(rows) == count, f"filter {params}: {len(rows)} rows, want {count}")
            _expect(
                not (Counter(rows) - reference),
                f"filter {params}: rows outside the predicate",
            )

        return Op("filter", execute, check)

    def _aggregate(self, sql, params, reference: list[tuple]) -> Op:
        def execute(client, target):
            rowset = client.sql_query_rowset(target.address, target.name, sql, params)
            return len(rowset.rows), rowset.rows

        def check(rows):
            _expect(len(rows) == len(reference), f"aggregate {params}: row count")
            _expect(
                all(_same_values(g, r) for g, r in zip(rows, reference)),
                f"aggregate {params}: values differ",
            )

        return Op("aggregate", execute, check)


# ---------------------------------------------------------------------------
# point-ops
# ---------------------------------------------------------------------------

class PointOps(Workload):
    consumers = 2

    #: (mode, SQL, reference answer table, key domain size).  Parameterized
    #: texts repeat, so they hit the plan cache; inline texts draw a key
    #: from a domain 3-9x the plan cache size, so most miss it.
    FAMILIES = [
        ("param", "SELECT * FROM customers WHERE id = ?", "customers", CUSTOMERS),
        (
            "param",
            "SELECT id, order_date, status, total FROM orders WHERE customer_id = ?",
            "orders_by_customer",
            CUSTOMERS,
        ),
        (
            "param",
            "SELECT id, product, qty, price FROM lineitems WHERE order_id = ?",
            "items_by_order",
            ORDERS,
        ),
        ("inline", "SELECT * FROM lineitems WHERE id = {key}", "items", LINEITEMS),
        (
            "inline",
            "SELECT id, product, qty, price FROM lineitems WHERE order_id = {key}",
            "items_by_order",
            ORDERS,
        ),
    ]

    def __init__(self, seed: int, reference: Database) -> None:
        # Reference answers grouped by key from one read per table; the
        # statements carry no ORDER BY, so answers compare as multisets.
        self.answers: dict[str, dict[int, list[tuple]]] = {
            "customers": {},
            "orders_by_customer": {},
            "items_by_order": {},
            "items": {},
        }
        for row in _rows(reference, "SELECT * FROM customers"):
            self.answers["customers"][int(row[0])] = [row]
        for row in _rows(
            reference, "SELECT customer_id, id, order_date, status, total FROM orders"
        ):
            self.answers["orders_by_customer"].setdefault(int(row[0]), []).append(
                row[1:]
            )
        for row in _rows(reference, "SELECT * FROM lineitems"):
            self.answers["items"][int(row[0])] = [row]
            self.answers["items_by_order"].setdefault(int(row[1]), []).append(
                (row[0], row[2], row[3], row[4])
            )
        for table in self.answers.values():
            for key, rows in table.items():
                rows.sort()

    def ops(self, consumer: int, seed: int, state):
        rng = random.Random(f"point-ops:{seed}:{consumer}")
        by_mode = {
            mode: [f for f in self.FAMILIES if f[0] == mode] for mode in ("param", "inline")
        }
        while True:
            family = by_mode["param" if rng.random() < 0.5 else "inline"]
            mode, sql, table, domain = family[rng.randrange(len(family))]
            key = rng.randint(1, domain)
            yield self._lookup(mode, sql, table, key)

    def _lookup(self, mode, sql, table, key) -> Op:
        expected = self.answers[table].get(key, [])
        if mode == "param":
            text, params = sql, [str(key)]
        else:
            text, params = sql.format(key=key), None

        def execute(client, target):
            rowset = client.sql_query_rowset(target.address, target.name, text, params)
            return len(rowset.rows), rowset.rows

        def check(rows):
            _expect(sorted(rows) == expected, f"{text} [{key}]: rows differ")

        return Op(mode, execute, check)


# ---------------------------------------------------------------------------
# factory-rw
# ---------------------------------------------------------------------------

READ_SQL = "SELECT id, customer_id, total FROM orders WHERE total >= ? ORDER BY total, id"
INSERT_SQL = "INSERT INTO orders VALUES (?, ?, ?, ?, ?)"
UPDATE_SQL = "UPDATE orders SET status = ? WHERE id = ?"


class FactoryRW(Workload):
    consumers = 2
    #: Op kinds per round of forty: 15% writes (half inserts, half
    #: updates), 10% property documents, 75% indirect reads.
    MIX = {"insert": 3, "update": 3, "propdoc": 4, "indirect": 30}
    #: Distinct read thresholds.  With writes invalidating every shared
    #: result, this sets the miss share of the reads.
    THRESHOLDS = 2

    def __init__(self, seed: int, reference: Database) -> None:
        rng = random.Random(f"factory-rw:{seed}")
        totals = sorted(float(row[0]) for row in _rows(reference, "SELECT total FROM orders"))
        # Thresholds at seeded quantiles in [0.80, 0.85]: 240-320 matching
        # rows each, so every miss evaluates a similar amount of work.
        self.thresholds = []
        for _ in range(self.THRESHOLDS):
            quantile = rng.uniform(0.80, 0.85)
            self.thresholds.append(f"{totals[int(quantile * len(totals))]:.2f}")
        self.first_page = {}
        self.counts = {}
        for threshold in self.thresholds:
            rows = _rows(reference, READ_SQL, [threshold])
            self.first_page[threshold] = rows[:PAGE]
            self.counts[threshold] = len(rows)
            if len(rows) < PAGE:
                raise ValueError(f"threshold {threshold} matches under {PAGE} rows")
        self._started_lock = threading.Lock()
        self.inserts_started = 0

    def ops(self, consumer: int, seed: int, state: ConsumerState):
        rng = random.Random(f"factory-rw:{seed}:{consumer}")
        for kind in deck(rng, self.MIX):
            if kind == "insert":
                yield self._insert(state, rng)
            elif kind == "update":
                yield self._update(state, rng)
            elif kind == "propdoc":
                yield self._propdoc()
            else:
                yield self._indirect(state, rng.choice(self.thresholds))

    def _note_insert_started(self) -> None:
        with self._started_lock:
            self.inserts_started += 1

    def _insert(self, state: ConsumerState, rng: random.Random) -> Op:
        n = next(state.inserted)
        params = [
            str(1_000_000 + state.consumer * 100_000 + n),
            str(rng.randint(1, CUSTOMERS)),
            "2006-01-01",
            "open",
            f"{INSERT_TOTAL_BASE + n:.2f}",
        ]

        def execute(client, target):
            self._note_insert_started()
            response = retry_conflicts(
                state, client.sql_execute, target.address, target.name, INSERT_SQL, params
            )
            if response.update_count == 1:
                state.acked_inserts += 1
            return 0, response.update_count

        def check(update_count):
            _expect(update_count == 1, f"insert: update count {update_count}")

        return Op("write", execute, check)

    def _update(self, state: ConsumerState, rng: random.Random) -> Op:
        # Each consumer updates its own residue class of order ids, so two
        # consumers never write the same row.
        order_id = rng.randrange(state.consumer + 1, ORDERS + 1, FactoryRW.consumers)
        params = [rng.choice(_STATUSES), str(order_id)]

        def execute(client, target):
            response = retry_conflicts(
                state, client.sql_execute, target.address, target.name, UPDATE_SQL, params
            )
            return 0, response.update_count

        def check(update_count):
            _expect(update_count == 1, f"update {order_id}: update count {update_count}")

        return Op("write", execute, check)

    def _propdoc(self) -> Op:
        def execute(client, target):
            document = client.get_sql_property_document(target.address, target.name)
            return 0, (target.name, document)

        def check(observation):
            name, document = observation
            _expect(document.tag.local == "SQLPropertyDocument", "propdoc: root element")
            texts = [el.text for el in document.iter() if el.tag.local == "DataResourceAbstractName"]
            _expect(name in texts, "propdoc: abstract name missing")
            _expect(
                any(el.tag.local == "CIMDescription" for el in document.iter()),
                "propdoc: CIM description missing",
            )

        return Op("propdoc", execute, check)

    def _indirect(self, state: ConsumerState, threshold: str) -> Op:
        def execute(client, target):
            floor = state.acked_inserts
            response = retry_conflicts(
                state, client.sql_execute_factory, target.address, target.name, READ_SQL, [threshold]
            )
            rowset = client.sql_rowset_factory(response.address, response.abstract_name)
            window, total = client.get_tuples(rowset.address, rowset.abstract_name, 0, PAGE)
            client.destroy(rowset.address.address, rowset.abstract_name)
            # Hold one claim per threshold: release a repeated claim on the
            # same shared response, or the one a newer response superseded.
            held = state.held.get(threshold)
            if held is not None and held.abstract_name == response.abstract_name:
                client.destroy(response.address.address, response.abstract_name)
            else:
                if held is not None:
                    client.destroy(held.address.address, held.abstract_name)
                state.held[threshold] = response
            return len(window.rows), (window, total, floor, self.inserts_started)

        def check(observation):
            window, total, floor, started = observation
            _expect(
                window.rows == self.first_page[threshold],
                f"window {threshold}: rows differ from the reference page",
            )
            lower = self.counts[threshold] + floor
            upper = self.counts[threshold] + started
            _expect(
                lower <= total <= upper,
                f"window {threshold}: total_rows {total} outside [{lower}, {upper}]",
            )

        return Op("indirect", execute, check)


WORKLOADS = {
    "rowset-bulk": RowsetBulk,
    "point-ops": PointOps,
    "factory-rw": FactoryRW,
}
