"""Dataset emitters, type metadata plumbing and CSV robustness.

Every dataset format has one emitter, ``render_rowset``.  Its wire
bytes for a fixed corpus (NULL, empty and literal ``\\N`` values, XML
and CSV structure characters, typed and untyped columns, zero rows and
zero columns) are snapshotted under ``golden/``; the snapshots were
captured from the tree renderers the emitter replaced.

Regenerate deliberately with::

    PYTHONPATH=src python tests/dair/test_streaming_datasets.py --regen
"""

import pathlib
import random

import pytest

from repro.dair import (
    CSV_FORMAT_URI,
    SQLROWSET_FORMAT_URI,
    WEBROWSET_FORMAT_URI,
)
from repro.dair.datasets import (
    Rowset,
    StreamingRowset,
    parse_rowset,
    render_rowset,
)
from repro.relational import Database
from repro.relational.types import NULL
from repro.xmlutil import parse, serialize, serialize_chunks

ALL_FORMATS = [SQLROWSET_FORMAT_URI, WEBROWSET_FORMAT_URI, CSV_FORMAT_URI]

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Golden file suffix per format: ``<case>.<suffix>.xml``.
GOLDEN_SUFFIX = {
    SQLROWSET_FORMAT_URI: "sqlrowset",
    WEBROWSET_FORMAT_URI: "webrowset",
    CSV_FORMAT_URI: "csv",
}

GOLDEN_CORPUS = {
    "mixed": Rowset(
        columns=["id", "label", "note", "price"],
        types=["INTEGER", "", "VARCHAR(16)", "DECIMAL(10,2)"],
        rows=[
            ("1", "plain", "caf\u00e9", "9.99"),
            ("2", NULL, "", "\\N"),
            ("3", '& < > "', "a,b", 'quo"te'),
            ("4", "line\nbreak", 'x,"y"\r\nz', ""),
            (NULL, NULL, NULL, NULL),
            ("", "", "", ""),
        ],
    ),
    "untyped": Rowset(
        columns=["a,b", 'q"c', "<x&y>"],
        types=["", "", ""],
        rows=[("x", "y", "z"), ('"', ",", "\n"), ("\\N", "&amp;", NULL)],
    ),
    "zero_rows": Rowset(
        columns=["k", "v"], types=["INTEGER", "VARCHAR(8)"], rows=[]
    ),
    "zero_columns": Rowset(columns=[], types=[], rows=[]),
}


def golden_text(case: str, format_uri: str) -> str:
    """The snapshotted serialization of ``GOLDEN_CORPUS[case]``."""
    path = GOLDEN_DIR / f"{case}.{GOLDEN_SUFFIX[format_uri]}.xml"
    return path.read_bytes().decode("utf-8")


NASTY = [
    "plain",
    "",
    "a,b",
    'quo"te',
    "line\nbreak",
    "\\N",
    '"',
    ",",
    "\n",
    "\r",
    "<&>",
    '""\\N""',
    "trailing,",
]


def _random_rowset(rng: random.Random) -> Rowset:
    column_count = rng.randint(1, 4)
    columns = [f"c{i}" for i in range(column_count)]
    types = [
        rng.choice(["", "INTEGER", "VARCHAR(16)", "DECIMAL(10,2)"])
        for _ in range(column_count)
    ]
    rows = [
        tuple(
            NULL if rng.random() < 0.15 else rng.choice(NASTY)
            for _ in range(column_count)
        )
        for _ in range(rng.randint(0, 6))
    ]
    return Rowset(columns, types, rows)


class TestStreamingRowset:
    def _streaming(self, rows):
        return StreamingRowset(["k"], ["INTEGER"], iter(rows))

    def test_iteration_counts_rows(self):
        rowset = self._streaming([(str(i),) for i in range(5)])
        assert list(rowset) == [(str(i),) for i in range(5)]
        assert rowset.rows_streamed == 5

    def test_window_skips_and_bounds(self):
        rowset = self._streaming([(str(i),) for i in range(10)])
        assert list(rowset.window(2, 3)) == [("2",), ("3",), ("4",)]
        # Regression: the window must not pull a row beyond its bound —
        # 2 skipped + 3 yielded, the 6th row stays in the stream.
        assert rowset.rows_streamed == 5
        assert next(iter(rowset)) == ("5",)

    def test_window_count_none_means_rest(self):
        rowset = self._streaming([(str(i),) for i in range(4)])
        assert list(rowset.window(1)) == [("1",), ("2",), ("3",)]

    def test_window_count_zero_is_empty(self):
        rowset = self._streaming([("0",)])
        assert list(rowset.window(0, 0)) == []
        assert rowset.rows_streamed == 0

    def test_window_negative_rejected(self):
        rowset = self._streaming([])
        with pytest.raises(ValueError):
            list(rowset.window(-1))
        with pytest.raises(ValueError):
            list(rowset.window(0, -1))

    def test_from_result_is_lazy_and_lexicalizes(self):
        db = Database("lazy")
        db.execute("CREATE TABLE t (k INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1),(2)")
        result = db.create_session().execute("SELECT k FROM t", stream=True)
        rowset = StreamingRowset.from_result(result)
        assert rowset.rows_streamed == 0
        assert rowset.materialize().rows == [("1",), ("2",)]


def _round_trip(format_uri: str, rowset) -> Rowset:
    """Emit, serialize to real XML text, parse back."""
    return parse_rowset(
        format_uri, parse(serialize(render_rowset(format_uri, rowset)))
    )


class TestEmitterParity:
    """Whichever way a dataset is drained — chunk by chunk (the chunked
    HTTP writer) or as one string (the loopback transport) — and
    whichever rowset backs it, the bytes are the same."""

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_fuzzed_parity(self, format_uri):
        rng = random.Random(20260806)
        for _ in range(150):
            rowset = _random_rowset(rng)
            whole = serialize(render_rowset(format_uri, rowset))
            chunked = "".join(serialize_chunks(render_rowset(format_uri, rowset)))
            assert chunked == whole
            lazy = StreamingRowset(rowset.columns, rowset.types, iter(rowset.rows))
            assert serialize(render_rowset(format_uri, lazy)) == whole
            parsed = parse_rowset(format_uri, parse(whole))
            assert parsed.columns == rowset.columns
            assert parsed.rows == rowset.rows

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_empty_rowset_parity(self, format_uri):
        rowset = GOLDEN_CORPUS["zero_columns"]
        chunked = "".join(serialize_chunks(render_rowset(format_uri, rowset)))
        assert chunked == golden_text("zero_columns", format_uri)

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_streaming_source_parity(self, format_uri):
        for case, rowset in GOLDEN_CORPUS.items():
            lazy = StreamingRowset(rowset.columns, rowset.types, iter(rowset.rows))
            chunked = "".join(serialize_chunks(render_rowset(format_uri, lazy)))
            assert chunked == golden_text(case, format_uri), case
            assert lazy.rows_streamed == rowset.row_count


class TestTypeMetadataRoundTrip:
    """Satellite regression: SQL type names survive result → dataset →
    parse for every format (Rowset.from_result used to drop them)."""

    @pytest.fixture()
    def typed_result(self):
        db = Database("typed")
        db.execute(
            "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(8), d DECIMAL(10))"
        )
        db.execute("INSERT INTO t VALUES (1,'one',1.25)")
        return db.create_session().execute("SELECT k, v, d FROM t")

    def test_from_result_keeps_types(self, typed_result):
        rowset = Rowset.from_result(typed_result)
        assert rowset.types == ["INTEGER", "VARCHAR(8)", "DECIMAL(10)"]

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_types_round_trip(self, typed_result, format_uri):
        rowset = Rowset.from_result(typed_result)
        parsed = _round_trip(format_uri, rowset)
        assert parsed.types == ["INTEGER", "VARCHAR(8)", "DECIMAL(10)"]
        assert parsed.columns == ["k", "v", "d"]
        assert parsed.rows == rowset.rows

    def test_comma_bearing_type_survives_csv(self):
        rowset = Rowset(["d"], ["DECIMAL(10,2)"], [("1.25",)])
        parsed = _round_trip(CSV_FORMAT_URI, rowset)
        assert parsed.types == ["DECIMAL(10,2)"]


@pytest.mark.parametrize("case", sorted(GOLDEN_CORPUS))
@pytest.mark.parametrize("format_uri", ALL_FORMATS)
def test_golden_dataset_bytes(case, format_uri):
    expected = golden_text(case, format_uri)
    element = render_rowset(format_uri, GOLDEN_CORPUS[case])
    assert serialize(element) == expected, (
        f"{case} drifted from its golden snapshot; if intentional, "
        "regenerate with --regen and review the diff"
    )
    # A materialized rowset re-iterates its rows on every drain.
    assert serialize(element) == expected


class TestCsvRoundTrip:
    def test_fuzzed_round_trip(self):
        rng = random.Random(8062026)
        for _ in range(300):
            rowset = _random_rowset(rng)
            parsed = _round_trip(CSV_FORMAT_URI, rowset)
            assert parsed.columns == rowset.columns
            assert parsed.rows == rowset.rows

    def test_quoted_null_token_stays_literal(self):
        rowset = Rowset(["c"], [""], [(NULL,), ("\\N",)])
        parsed = _round_trip(CSV_FORMAT_URI, rowset)
        assert parsed.rows[0][0] is NULL
        assert parsed.rows[1][0] == "\\N"

    def test_embedded_structure_characters(self):
        rowset = Rowset(
            ["a", "b"],
            ["", ""],
            [('x,"y"', "line\none"), ("", ","), ('"', "\r")],
        )
        parsed = _round_trip(CSV_FORMAT_URI, rowset)
        assert parsed.rows == rowset.rows


def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, rowset in GOLDEN_CORPUS.items():
        for format_uri, suffix in GOLDEN_SUFFIX.items():
            text = serialize(render_rowset(format_uri, rowset))
            (GOLDEN_DIR / f"{case}.{suffix}.xml").write_bytes(
                text.encode("utf-8")
            )
            print(f"wrote golden/{case}.{suffix}.xml")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
