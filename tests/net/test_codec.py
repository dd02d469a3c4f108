"""Wire codec unit tests: exact round trips and garbage tolerance."""

import random
import zlib

import pytest

from repro.mp.message import Message
from repro.net.codec import (
    HEADER_SIZE,
    MAGIC,
    MAX_BODY,
    MAX_NODE_INDEX,
    MAX_REQUEST_ID,
    T_HELLO,
    T_MSG,
    T_REQ,
    T_RSP,
    WIRE_VERSION,
    CodecError,
    Decoder,
    Frame,
    decode_message,
    encode_frame,
    encode_hello,
    encode_message,
    encode_request,
    encode_response,
    hello_fields,
    tuplify,
)

# Bytes guaranteed not to contain the magic, for unambiguous garbage counts.
JUNK = bytes(range(0, 65)) * 2

TRACED = 0x80  # the type-byte flag announcing a trace block


def raw_frame(type_byte, payload, version=WIRE_VERSION):
    """A CRC-valid frame built by hand, whatever the payload is."""
    return (
        MAGIC
        + bytes((version, type_byte))
        + len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )


def reversioned(frame, version):
    """The same CRC-valid frame claiming another wire version."""
    return frame[:2] + bytes((version,)) + frame[3:]


def roundtrip(message):
    frames = Decoder().feed(encode_message(message))
    assert len(frames) == 1
    return decode_message(frames[0])


class TestRoundTrip:
    def test_exact(self):
        message = Message(0, 1, ("fork", ("0", "1"), True))
        assert roundtrip(message) == message

    def test_nested_tuples_restored(self):
        message = Message(2, 3, ("request", (1, (2, (3,))), False))
        out = roundtrip(message)
        assert out == message
        assert isinstance(out.payload[1], tuple)
        assert isinstance(out.payload[1][1], tuple)

    def test_hello(self):
        frames = Decoder().feed(encode_hello(7, role="client"))
        assert len(frames) == 1 and frames[0].is_hello
        assert hello_fields(frames[0]) == (WIRE_VERSION, 7, "client")

    def test_hello_fields_rejects_other_types(self):
        frames = Decoder().feed(encode_message(Message(0, 1, ("x",))))
        assert hello_fields(frames[0]) is None

    def test_tuplify_deep(self):
        assert tuplify([1, [2, [3]], {"k": [4]}]) == (1, (2, (3,)), {"k": (4,)})


class TestEncodeErrors:
    def test_unknown_type(self):
        with pytest.raises(CodecError):
            encode_frame(99, {})

    def test_unencodable_body(self):
        with pytest.raises(CodecError):
            encode_frame(T_MSG, {"payload": object()})

    def test_oversized_body(self):
        with pytest.raises(CodecError):
            encode_frame(T_MSG, {"pad": "x" * (MAX_BODY + 1)})

    def test_lock_service_types_have_no_json_form(self):
        for frame_type in (T_REQ, T_RSP):
            with pytest.raises(CodecError):
                encode_frame(frame_type, {"op": "acquire", "id": "c.1"})


class TestGarbageTolerance:
    def test_garbage_prefix_counted_and_resynced(self):
        decoder = Decoder()
        frames = decoder.feed(JUNK + encode_message(Message(0, 1, ("ping",))))
        assert [decode_message(f) for f in frames] == [Message(0, 1, ("ping",))]
        assert decoder.garbage_bytes == len(JUNK)
        assert decoder.resyncs >= 1

    def test_garbage_between_many_frames(self):
        rng = random.Random(42)
        decoder = Decoder()
        expected = []
        collected = []
        for i in range(20):
            message = Message(i % 4, (i + 1) % 4, ("fork", (i, i + 1), bool(i % 2)))
            expected.append(message)
            junk = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
            for frame in decoder.feed(junk + encode_message(message)):
                decoded = decode_message(frame)
                if decoded is not None:
                    collected.append(decoded)
        assert collected == expected

    def test_byte_at_a_time(self):
        data = encode_message(Message(0, 1, ("one", "byte", "at", "a", "time")))
        decoder = Decoder()
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i : i + 1]))
        assert len(frames) == 1
        assert decoder.garbage_bytes == 0

    def test_split_across_chunks(self):
        data = encode_message(Message(1, 0, ("split",)))
        decoder = Decoder()
        assert decoder.feed(data[:HEADER_SIZE]) == []
        frames = decoder.feed(data[HEADER_SIZE:])
        assert len(frames) == 1

    def test_version_mismatch_is_garbage(self):
        # 1, 2 and 3 are the retired layouts: junk now, like any stranger.
        good = encode_message(Message(0, 1, ("ok",)))
        for version in (1, 2, 3, WIRE_VERSION + 1):
            decoder = Decoder()
            frames = decoder.feed(reversioned(good, version) + good)
            assert [decode_message(f) for f in frames] == [Message(0, 1, ("ok",))]
            assert decoder.garbage_bytes > 0, version

    def test_json_type_with_a_non_json_body_is_garbage(self):
        packed = encode_request("acquire", "c.1")[HEADER_SIZE:]
        decoder = Decoder()
        for frame_type in (T_HELLO, T_MSG):
            assert decoder.feed(raw_frame(frame_type, packed)) == []
        assert decoder.feed(raw_frame(T_MSG, b"[" * 100_000)) == []  # too deep
        assert decoder.garbage_bytes > 0 and decoder.frames_decoded == 0

    def test_lock_service_type_with_a_json_body_is_garbage(self):
        decoder = Decoder()
        for frame_type, body in (
            (T_REQ, b'{"id":"mallory.1","node":0,"op":"steal"}'),
            (T_REQ, b'{"id":"c.1","op":"acquire"}'),
            (T_RSP, b'{"id":"c.1","ok":true,"op":"acquire"}'),
        ):
            assert decoder.feed(raw_frame(frame_type, body)) == []
        assert decoder.garbage_bytes > 0 and decoder.frames_decoded == 0

    def test_crc_corruption_rejected(self):
        good = encode_message(Message(0, 1, ("ok",)))
        bad = bytearray(good)
        bad[-1] ^= 0xFF  # flip a body byte; the CRC no longer matches
        decoder = Decoder()
        frames = decoder.feed(bytes(bad) + good)
        assert len(frames) == 1
        assert decode_message(frames[0]) == Message(0, 1, ("ok",))

    def test_pure_garbage_never_raises(self):
        rng = random.Random(7)
        decoder = Decoder()
        total = 0
        for _ in range(50):
            chunk = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
            total += len(chunk)
            for frame in decoder.feed(chunk):
                # Astronomically unlikely (CRC); malformed at worst.
                assert decode_message(frame) is None or True
        assert decoder.garbage_bytes + len(decoder) == total

    def test_trailing_partial_magic_kept(self):
        decoder = Decoder()
        decoder.feed(JUNK + MAGIC[:1])
        assert len(decoder) == 1  # the possible frame start survives
        frames = decoder.feed(
            MAGIC[1:] + encode_message(Message(0, 1, ("late",)))[2:]
        )
        assert len(frames) == 1


class TestMessageValidation:
    def test_wrong_shape_returns_none(self):
        assert decode_message(Frame(T_MSG, {"src": 0})) is None
        assert decode_message(Frame(T_MSG, [1, 2])) is None
        assert decode_message(Frame(T_HELLO, {"src": 0, "dst": 1, "payload": []})) is None

    def test_payload_must_be_sequence(self):
        assert decode_message(Frame(T_MSG, {"src": 0, "dst": 1, "payload": 3})) is None


class TestBoundarySplits:
    """Resynchronisation when stream chunk boundaries land anywhere —
    including inside the magic of a frame that follows garbage.  This is
    exactly what a TCP read loop hands the decoder under the chaos proxy."""

    def decoded(self, frames):
        return [decode_message(f) for f in frames]

    def expected(self):
        return [
            Message(0, 1, ("first",)),
            Message(1, 0, ("second", 2)),
            Message(2, 1, ("third", (3, 4))),
        ]

    def blob(self):
        # Garbage between frames deliberately ends with a partial magic,
        # so a split right after it looks like a frame start mid-chunk.
        glue = JUNK[:7] + MAGIC[:1]
        frames = [encode_message(m) for m in self.expected()]
        return frames[0] + glue + frames[1] + glue + frames[2]

    def test_every_split_position_decodes_identically(self):
        blob = self.blob()
        for cut in range(len(blob) + 1):
            decoder = Decoder()
            frames = decoder.feed(blob[:cut]) + decoder.feed(blob[cut:])
            assert self.decoded(frames) == self.expected(), f"cut at {cut}"
            assert decoder.garbage_bytes == 2 * (7 + 1)

    def test_three_way_splits_around_the_glue(self):
        blob = self.blob()
        interesting = [0, 1, HEADER_SIZE - 1, HEADER_SIZE, len(blob) // 2]
        for a in interesting:
            for b in interesting:
                lo, hi = min(a, b), max(a, b)
                decoder = Decoder()
                frames = (
                    decoder.feed(blob[:lo])
                    + decoder.feed(blob[lo:hi])
                    + decoder.feed(blob[hi:])
                )
                assert self.decoded(frames) == self.expected()

    def test_magic_straddling_a_chunk_boundary_resyncs(self):
        # Garbage, then a frame whose magic is cut in half by the read
        # boundary: the decoder must keep the half and resync, not drop it.
        frame = encode_message(Message(0, 1, ("straddle",)))
        decoder = Decoder()
        assert decoder.feed(JUNK[:11] + frame[:1]) == []
        frames = decoder.feed(frame[1:])
        assert self.decoded(frames) == [Message(0, 1, ("straddle",))]
        assert decoder.resyncs >= 1

    def test_counters_are_split_invariant(self):
        blob = self.blob()
        reference = Decoder()
        reference.feed(blob)
        for cut in (1, 5, len(blob) // 3, len(blob) - 2):
            decoder = Decoder()
            decoder.feed(blob[:cut])
            decoder.feed(blob[cut:])
            assert decoder.frames_decoded == reference.frames_decoded
            assert decoder.garbage_bytes == reference.garbage_bytes


class TestTracedFrames:
    """The trace block: Lamport stamp + span id behind a type-byte flag,
    on any frame type, invisible in :attr:`Frame.type`."""

    def test_roundtrip_with_stamp_and_span(self):
        message = Message(0, 1, ("fork", ("0", "1"), True))
        frames = Decoder().feed(encode_message(message, lc=41, span="0/0/7"))
        assert len(frames) == 1
        frame = frames[0]
        assert frame.lc == 41
        assert frame.span == "0/0/7"
        assert decode_message(frame) == message

    def test_unstamped_frames_decode_with_no_stamps(self):
        frames = Decoder().feed(encode_message(Message(0, 1, ("x",))))
        assert frames[0].lc is None and frames[0].span is None

    def test_stamped_lock_service_frames_roundtrip(self):
        frames = Decoder().feed(
            encode_request("acquire", "c.1", node=2, lc=7, span="gw/0/3")
            + encode_response("acquire", "c.1", True, lc=8, span="1/0/9")
            + encode_response("release", "c.2", False, error="bad-op", lc=1 << 63)
        )
        assert [(f.type, f.lc, f.span) for f in frames] == [
            (T_REQ, 7, "gw/0/3"), (T_RSP, 8, "1/0/9"), (T_RSP, 1 << 63, None),
        ]
        assert frames[0].body == {
            "op": "acquire", "id": "c.1", "span": "c.1", "node": 2,
        }
        assert frames[1].body == {"op": "acquire", "id": "c.1", "ok": True}
        assert frames[2].body["error"] == "bad-op"

    def test_stamping_changes_only_the_flag_and_the_block(self):
        plain = encode_request("release", "c.9")
        stamped = encode_request("release", "c.9", lc=5, span="s")
        assert stamped[3] == plain[3] | TRACED
        assert stamped.endswith(plain[HEADER_SIZE:])
        with pytest.raises(CodecError):
            encode_request("release", "c.9", lc=-1)
        with pytest.raises(CodecError):
            encode_response("release", "c.9", True, lc=1, span="s" * 300)

    def test_empty_span_decodes_as_none(self):
        frames = Decoder().feed(encode_message(Message(0, 1, ("x",)), lc=1))
        assert frames[0].lc == 1
        assert frames[0].span is None

    def test_mixed_version_stream(self):
        # Plain and stamped frames interleave freely; the retired traced
        # layout (version byte 2) in their midst is garbage, not a frame.
        plain = encode_message(Message(0, 1, ("a",)))
        traced = encode_message(Message(1, 0, ("b",)), lc=9, span="s")
        decoder = Decoder()
        frames = decoder.feed(plain + traced + reversioned(traced, 2) + plain)
        assert [f.lc for f in frames] == [None, 9, None]
        assert [f.type for f in frames] == [T_MSG] * 3
        assert decoder.garbage_bytes == len(traced)

    def test_traced_frame_survives_garbage_interleave(self):
        traced = encode_message(Message(2, 3, ("c",)), lc=5, span="2/0/1")
        decoder = Decoder()
        frames = decoder.feed(JUNK[:9] + traced + JUNK[:9])
        assert len(frames) == 1
        assert frames[0].lc == 5 and frames[0].span == "2/0/1"
        assert decoder.garbage_bytes >= 9

    def test_stamp_bounds_enforced(self):
        message = Message(0, 1, ("x",))
        with pytest.raises(CodecError):
            encode_message(message, lc=-1)
        with pytest.raises(CodecError):
            encode_message(message, lc=1 << 64)
        with pytest.raises(CodecError):
            encode_message(message, lc=1, span="s" * 300)

    def test_max_length_span_roundtrips(self):
        span = "s" * 255
        frames = Decoder().feed(
            encode_message(Message(0, 1, ("x",)), lc=2, span=span)
        )
        assert frames[0].span == span

    def test_truncated_trace_block_is_rejected_as_junk(self):
        # A flagged header whose CRC-valid payload is too short for the
        # trace block, or whose span length overruns it, or whose span is
        # not UTF-8: the CRC passes but the block cannot.
        decoder = Decoder()
        for payload in (
            b"\x00\x01",  # shorter than the 9-byte block head
            (5).to_bytes(8, "big") + b"\x09ab",  # span length 9, 2 bytes left
            (5).to_bytes(8, "big") + b"\x02\xff\xfe{}",  # span not UTF-8
        ):
            for frame_type in (T_MSG, T_REQ):
                assert decoder.feed(raw_frame(frame_type | TRACED, payload)) == []
        assert decoder.garbage_bytes > 0 and decoder.frames_decoded == 0


class TestBinaryFrames:
    """The struct-packed ``T_REQ``/``T_RSP`` records of the lock service."""

    def test_request_roundtrip_acquire(self):
        frames = Decoder().feed(encode_request("acquire", "c12.3f"))
        assert len(frames) == 1
        frame = frames[0]
        assert frame.type == T_REQ
        assert frame.lc is None and frame.span is None
        assert frame.body == {"op": "acquire", "id": "c12.3f", "span": "c12.3f"}

    def test_request_roundtrip_release(self):
        frames = Decoder().feed(encode_request("release", "gw.a1"))
        assert frames[0].body == {"op": "release", "id": "gw.a1"}

    def test_request_with_node_index(self):
        frames = Decoder().feed(encode_request("acquire", "c0.1", node=513))
        assert frames[0].body["node"] == 513

    def test_response_roundtrip(self):
        frames = Decoder().feed(encode_response("acquire", "c5.7", True))
        assert frames[0].type == T_RSP
        assert frames[0].body == {"op": "acquire", "id": "c5.7", "ok": True}

    def test_response_with_error_and_retry(self):
        frames = Decoder().feed(
            encode_response(
                "acquire", "c1.2", False, error="retry", retry_after_s=0.05
            )
        )
        body = frames[0].body
        assert body["ok"] is False
        assert body["error"] == "retry"
        assert body["retry_after_s"] == pytest.approx(0.05)


class TestBinaryEncodeErrors:
    def test_unknown_op(self):
        with pytest.raises(CodecError):
            encode_request("steal", "c0.1")
        with pytest.raises(CodecError):
            encode_response("steal", "c0.1", True)

    def test_non_string_id(self):
        with pytest.raises(CodecError):
            encode_request("acquire", 42)

    def test_empty_and_oversized_id(self):
        with pytest.raises(CodecError):
            encode_request("acquire", "")
        with pytest.raises(CodecError):
            encode_request("acquire", "x" * (MAX_REQUEST_ID + 1))

    def test_node_index_bounds(self):
        with pytest.raises(CodecError):
            encode_request("acquire", "c0.1", node=-1)
        with pytest.raises(CodecError):
            encode_request("acquire", "c0.1", node=MAX_NODE_INDEX + 1)

    def test_retry_after_bounds(self):
        with pytest.raises(CodecError):
            encode_response("acquire", "c0.1", False, retry_after_s=70.0)

    def test_oversized_error_rejected(self):
        with pytest.raises(CodecError):
            encode_response("acquire", "c0.1", False, error="e" * 300)


class TestBinaryGarbageTolerance:
    def test_malformed_packed_body_is_junk(self):
        # CRC-valid lock-service frames whose packed body is malformed must
        # resync exactly like a truncated trace block.
        good = encode_request("acquire", "ok.1")
        decoder = Decoder()
        for frame_type, payload in (
            (T_REQ, b"\x01\x00"),  # shorter than the 5-byte request head
            (T_REQ, b"\x09\x00\x00\x00\x01x"),  # op code 9 names no op
            (T_REQ, b"\x01\x00\x00\x00\x00"),  # empty id
            (T_REQ, b"\x01\x00\x00\x00\x02\xff\xfe"),  # id not UTF-8
            (T_REQ, b"\x01\x00\x00\x00\x01xy"),  # trailing byte
            (T_RSP, b"\x01\x01\x00"),  # shorter than the response head
            (T_RSP, b"\x01\x01\x00\x00\x01x"),  # no error-length byte
            (T_RSP, b"\x01\x01\x00\x00\x01x\x05no"),  # error overruns
        ):
            assert decoder.feed(raw_frame(frame_type, payload)) == []
        assert [f.body["id"] for f in decoder.feed(good)] == ["ok.1"]
        assert decoder.garbage_bytes > 0
        assert decoder.resyncs >= 1

    def test_unknown_frame_type_is_junk(self):
        # The type byte selects the schema; one naming no type selects none,
        # flagged or not.
        payload = b"\x01\x00\x00\x00\x01x"
        decoder = Decoder()
        for type_byte in (0, 5, 0x7F, TRACED, TRACED | 5):
            assert decoder.feed(raw_frame(type_byte, payload)) == []
        assert decoder.garbage_bytes > 0 and decoder.frames_decoded == 0

    def test_packed_record_survives_garbage_interleave(self):
        frame = encode_request("acquire", "g.1")
        decoder = Decoder()
        frames = decoder.feed(JUNK[:13] + frame + JUNK[:13])
        assert len(frames) == 1 and frames[0].body["id"] == "g.1"
        assert decoder.garbage_bytes >= 13


class TestMixedVersionBoundarySplits:
    """The full resync battery over the byte soup a gateway's upstream
    socket sees under the chaos proxy: every frame type, stamped and plain,
    glued with partial-magic garbage — and with frames of the retired wire
    versions 1–3 in their midst, which must count as garbage too."""

    def blob(self):
        glue = JUNK[:7] + MAGIC[:1]
        frames = [
            encode_hello(0),
            encode_message(Message(0, 1, ("plain",))),
            encode_request("acquire", "c1.a", node=1),
            encode_message(Message(1, 0, ("stamped",)), lc=3, span="1/0/2"),
            encode_response("acquire", "c1.a", True, lc=4, span="1/0/2"),
            encode_request("release", "c1.b", lc=5),
            encode_response("release", "c1.b", True),
        ]
        retired = [
            reversioned(encode_message(Message(0, 1, ("v1",))), 1),
            reversioned(encode_message(Message(0, 1, ("v2",)), lc=1), 2),
            reversioned(encode_request("acquire", "v3.a"), 3),
        ]
        blob = b""
        for i, frame in enumerate(frames):
            blob += frame + glue
            if i < len(retired):
                blob += retired[i] + glue
        garbage = (len(frames) + len(retired)) * len(glue)
        return blob, len(frames), garbage + sum(map(len, retired))

    def signature(self, frames):
        out = []
        for frame in frames:
            if frame.type in (T_REQ, T_RSP):
                out.append(
                    (frame.type, frame.lc, frame.body["op"], frame.body["id"])
                )
            else:
                out.append((frame.type, frame.lc))
        return out

    def test_every_split_position_decodes_identically(self):
        blob, count, garbage = self.blob()
        reference = Decoder()
        expected = self.signature(reference.feed(blob))
        assert len(expected) == count
        assert [lc for _, lc, *_ in expected] == [None, None, None, 3, 4, 5, None]
        # The final glue ends in a partial magic that stays buffered as a
        # possible frame start, so it is not yet counted as garbage.
        assert garbage - len(reference) == reference.garbage_bytes
        for cut in range(len(blob) + 1):
            decoder = Decoder()
            frames = decoder.feed(blob[:cut]) + decoder.feed(blob[cut:])
            assert self.signature(frames) == expected, f"cut at {cut}"
            assert decoder.garbage_bytes == reference.garbage_bytes

    def test_three_way_splits(self):
        blob, _, _ = self.blob()
        reference = Decoder()
        expected = self.signature(reference.feed(blob))
        cuts = [0, 1, HEADER_SIZE - 1, HEADER_SIZE, len(blob) // 3,
                len(blob) // 2, len(blob) - 3]
        for lo in cuts:
            for hi in cuts:
                if lo > hi:
                    continue
                decoder = Decoder()
                frames = (
                    decoder.feed(blob[:lo])
                    + decoder.feed(blob[lo:hi])
                    + decoder.feed(blob[hi:])
                )
                assert self.signature(frames) == expected, (lo, hi)
                assert decoder.garbage_bytes == reference.garbage_bytes
    
    def test_counters_split_invariant(self):
        blob, _, _ = self.blob()
        reference = Decoder()
        reference.feed(blob)
        for cut in (1, HEADER_SIZE, len(blob) // 3, len(blob) - 3):
            decoder = Decoder()
            decoder.feed(blob[:cut])
            decoder.feed(blob[cut:])
            assert decoder.frames_decoded == reference.frames_decoded
            assert decoder.garbage_bytes == reference.garbage_bytes

    def test_byte_at_a_time(self):
        blob, count, _ = self.blob()
        reference = Decoder()
        reference.feed(blob)
        decoder = Decoder()
        frames = []
        for i in range(len(blob)):
            frames.extend(decoder.feed(blob[i : i + 1]))
        assert len(frames) == count
        assert decoder.garbage_bytes == reference.garbage_bytes
