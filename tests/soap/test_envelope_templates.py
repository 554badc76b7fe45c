"""Byte-template envelope rendering must be invisible on the wire.

``Envelope.to_bytes`` routes common-shape envelopes through a
precompiled byte template.  These tests pin the contract from three
directions: the template path must be *taken* for the hot shapes, its
output must be byte-identical to tree serialization for every golden
corpus envelope and for fuzzed header/payload combinations, and the
shapes it cannot express must fall back to the tree path rather than
render wrongly.
"""

import random
import string

import pytest

from repro.soap.addressing import EndpointReference, MessageHeaders
from repro.soap.envelope import Envelope
from repro.xmlutil import E, QName, StreamedElement, serialize_bytes

from tests.soap.test_golden_envelopes import GOLDEN_DIR, _build_envelopes

pytestmark = []


def _tree_bytes(envelope: Envelope) -> bytes:
    return serialize_bytes(envelope.to_xml())


class TestGoldenCorpus:
    @pytest.mark.parametrize("key", sorted(_build_envelopes()))
    def test_to_bytes_matches_tree_serialization(self, key):
        envelope = _build_envelopes()[key]
        assert envelope.to_bytes() == _tree_bytes(envelope)

    @pytest.mark.parametrize("key", sorted(_build_envelopes()))
    def test_to_bytes_matches_snapshot(self, key):
        envelope = _build_envelopes()[key]
        assert envelope.to_bytes() == (GOLDEN_DIR / f"{key}.xml").read_bytes()


class TestTemplatePathTaken:
    def test_common_shape_uses_template(self):
        envelope = Envelope(
            headers=MessageHeaders(to="http://h/s", action="urn:a"),
            payload=E(QName("urn:x", "Req"), "body"),
        )
        fast = envelope._template_bytes()
        assert fast is not None
        assert fast == _tree_bytes(envelope)

    def test_relates_to_shape_uses_template(self):
        envelope = Envelope(
            headers=MessageHeaders(
                to="http://h/s", action="urn:a", relates_to="urn:msg:1"
            ),
            payload=E(QName("urn:x", "Resp"), "body"),
        )
        fast = envelope._template_bytes()
        assert fast is not None
        assert fast == _tree_bytes(envelope)


class TestFallbackShapes:
    def test_reply_to_falls_back_and_stays_identical(self):
        envelope = Envelope(
            headers=MessageHeaders(
                to="http://h/s",
                action="urn:a",
                reply_to=EndpointReference(address="http://reply"),
            ),
            payload=E(QName("urn:x", "Req")),
        )
        assert envelope._template_bytes() is None
        assert envelope.to_bytes() == _tree_bytes(envelope)

    def test_reference_parameters_fall_back(self):
        envelope = Envelope(
            headers=MessageHeaders(
                to="http://h/s",
                action="urn:a",
                reference_parameters=(E(QName("urn:x", "Key"), "v"),),
            ),
            payload=E(QName("urn:x", "Req")),
        )
        assert envelope._template_bytes() is None
        assert envelope.to_bytes() == _tree_bytes(envelope)

    def test_empty_header_value_falls_back(self):
        envelope = Envelope(
            headers=MessageHeaders(to="", action="urn:a"),
            payload=E(QName("urn:x", "Req")),
        )
        assert envelope._template_bytes() is None
        assert envelope.to_bytes() == _tree_bytes(envelope)


NS_POOL = [
    "http://www.ggf.org/namespaces/2005/05/WS-DAI",
    "http://www.ggf.org/namespaces/2005/05/WS-DAIR",
    "urn:fuzz:payload:a",
    "urn:fuzz:payload:b",
    "",
]

HEADER_ALPHABET = string.ascii_letters + string.digits + ":/#?&<>\"' %.-_~é"


def _fuzz_payload(rng: random.Random, depth: int = 2) -> E:
    namespace = rng.choice(NS_POOL)
    element = E(QName(namespace, rng.choice(["Req", "Data", "Row", "Item"])))
    for _ in range(rng.randint(0, 2)):
        element.set(
            QName(rng.choice(NS_POOL), "attr"),
            "".join(rng.choice(HEADER_ALPHABET) for _ in range(6)),
        )
    for _ in range(rng.randint(0, 3)):
        if depth > 0 and rng.random() < 0.5:
            element.append(_fuzz_payload(rng, depth - 1))
        else:
            element.append(
                "".join(rng.choice(HEADER_ALPHABET) for _ in range(10))
            )
    return element


@pytest.mark.parametrize("seed", range(30))
def test_fuzzed_envelopes_template_and_tree_agree(seed):
    """The byte-identity gate: random header values (escape-worthy
    characters included), random payload namespace mixes, RelatesTo
    present or absent — templated output must equal tree output
    byte-for-byte whenever the template path engages, and ``to_bytes``
    must equal tree output always."""
    rng = random.Random(seed)
    headers = MessageHeaders(
        to="http://host/" + "".join(rng.choice(HEADER_ALPHABET) for _ in range(8)),
        action="urn:act:" + "".join(rng.choice(HEADER_ALPHABET) for _ in range(8)),
        relates_to=(
            "urn:rel:" + "".join(rng.choice(HEADER_ALPHABET) for _ in range(6))
            if rng.random() < 0.5
            else None
        ),
    )
    envelope = Envelope(headers=headers, payload=_fuzz_payload(rng))
    tree = _tree_bytes(envelope)
    assert envelope.to_bytes() == tree
    fast = envelope._template_bytes()
    assert fast is not None, f"seed {seed}: template path not taken"
    assert fast == tree, f"seed {seed}: template output drifted"


class TestStreamedPayloads:
    def _streamed_envelope(self) -> tuple[Envelope, list[str]]:
        rows = [f"<r>row-{index}&lt;</r>" for index in range(10)]
        payload = E(
            QName("urn:fuzz:stream", "Wrapper"),
            StreamedElement(
                QName("urn:fuzz:stream", "Data"),
                lambda q: iter(list(rows)),
                namespaces=("urn:fuzz:stream",),
            ),
        )
        envelope = Envelope(
            headers=MessageHeaders(to="http://h/s", action="urn:a"),
            payload=payload,
        )
        return envelope, rows

    def test_iter_bytes_concatenation_matches_eager_chunked_path(self):
        envelope, rows = self._streamed_envelope()
        joined = b"".join(envelope.iter_bytes())
        # The chunked body carries the XML declaration, like every
        # Content-Length body, so the two framings send the same bytes.
        assert joined == _tree_bytes(envelope) == envelope.to_bytes()
        for row in rows:
            assert row.encode("utf-8") in joined

    def test_streamed_chunk_content_arrives_once(self):
        envelope, rows = self._streamed_envelope()
        joined = b"".join(envelope.iter_bytes())
        assert joined.count(rows[0].encode("utf-8")) == 1
