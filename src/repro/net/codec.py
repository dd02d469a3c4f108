"""The versioned, length-prefixed wire codec of the live cluster.

One frame on the wire is::

    MAGIC(2) | version(1) | type(1) | length(4, big-endian) | crc32(4) | body

There is one layout.  The **frame type picks the body schema**:
``T_HELLO``/``T_MSG`` bodies are canonical UTF-8 JSON, ``T_REQ``/``T_RSP``
bodies are struct-packed records (the frames a front-end tier pushes by
the million, where ``json.dumps``/``json.loads`` would dominate the cost).
The high bit of the type byte says the body opens with a binary trace
block — ``lc`` (u64 BE) + span-id length (u8) + span id bytes — which the
decoder peels before either body parser, so any frame type may carry a
Lamport stamp and :attr:`Frame.type` is always the bare type.

Tuples inside JSON payloads are encoded as arrays and restored
recursively on decode — :class:`repro.mp.message.Message` payloads are
tuples by contract, and protocol code (e.g. the Chandy–Misra ``edge_key``
check) compares them structurally, so the round-trip must be exact:
``decode(encode(m)) == m``.

The decoder is **garbage tolerant** by construction, which is the wire-level
image of the paper's arbitrary-initial-channel model: a transient fault (or
the chaos proxy, or a maliciously crashing peer) may put arbitrary bytes on
a TCP stream, and the decoder must (a) never crash, (b) discard junk while
counting it, and (c) resynchronise on the next genuine frame.  Resync scans
for the magic; a candidate header is accepted only if version, type, and
length bounds hold, the CRC32 of the body matches *and* the body parses
under its type's schema — random bytes masquerading as a frame have a
~2^-32 chance of surviving, and protocol layers above still validate
payload shape (defence in depth, exactly as ``on_message``
implementations do in the simulator).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from ..mp.message import Message

#: Bump on any incompatible change to the frame layout or body schema.
#: 1–3 were the JSON, JSON+trace-block and packed layouts this one
#: replaces: a hello advertising them is refused, their frames are junk.
WIRE_VERSION = 4

#: ``lc`` (u64 big-endian) + span-id length (u8) of a trace block.  The
#: block is binary (not JSON keys) so stamping stays off the JSON hot
#: path — the ``net/codec/roundtrip`` bench gates the overhead under 10%.
_TRACE_BLOCK = struct.Struct(">QB")
MAX_SPAN_ID = 255  #: span ids are short (``node/epoch/counter``)
_FLAG_TRACED = 0x80  #: type-byte bit: the body opens with a trace block

#: The complete header in one pack: magic, version, type, length, crc.
_HEADER = struct.Struct(">2sBBII")
#: ``T_REQ`` body head: op code, flags, target node index, id length.
_REQ_HEAD = struct.Struct(">BBHB")
#: ``T_RSP`` body head: op code, ok, retry-after (ms), id length.
_RSP_HEAD = struct.Struct(">BBHB")
_FLAG_NODE = 1  #: REQ flags bit: the node field is meaningful

_OP_CODES = {"acquire": 1, "release": 2}
_OP_NAMES = {1: "acquire", 2: "release"}
MAX_REQUEST_ID = 255  #: request ids are short (``client.epoch.counter``)
MAX_NODE_INDEX = 0xFFFF
MAX_RETRY_MS = 0xFFFF

MAGIC = b"RW"
HEADER_SIZE = 12
#: Upper bound on a body; a bogus length field past this is junk, not a
#: reason to buffer forever.
MAX_BODY = 1 << 20

#: Frame types.
T_HELLO = 1  #: protocol-version handshake, first frame of a peer link
T_MSG = 2  #: one :class:`Message` between neighbouring nodes
T_REQ = 3  #: lock-service client request (acquire/release)
T_RSP = 4  #: lock-service response (granted/released/error)

#: The types whose body is canonical JSON; the lock-service types are packed.
_JSON_TYPES = frozenset((T_HELLO, T_MSG))
_TYPES = _JSON_TYPES | {T_REQ, T_RSP}

_CANONICAL = dict(sort_keys=True, separators=(",", ":"))


class CodecError(ValueError):
    """A payload that cannot be put on the wire."""


def tuplify(value: Any) -> Any:
    """Restore tuple structure lost to JSON (lists become tuples, deeply)."""
    if isinstance(value, list):
        return tuple(tuplify(v) for v in value)
    if isinstance(value, dict):
        return {k: tuplify(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame.

    ``lc`` and ``span`` are the causal stamps of a traced frame — ``None``
    on a plain one.  ``type`` is the bare frame type, trace flag removed.
    """

    type: int
    body: Any
    lc: Optional[int] = None
    span: Optional[str] = None

    @property
    def is_hello(self) -> bool:
        return self.type == T_HELLO


# ------------------------------------------------------------------ encode


def _seal(
    frame_type: int, payload: bytes, lc: Optional[int], span: Optional[str]
) -> bytes:
    """One complete frame around an encoded body: header + (trace block +)
    body, CRC over everything after the header."""
    if lc is not None:
        if not 0 <= lc < 1 << 64:
            raise CodecError(f"lamport stamp out of range: {lc!r}")
        span_bytes = ("" if span is None else span).encode("utf-8")
        if len(span_bytes) > MAX_SPAN_ID:
            raise CodecError(f"span id too long ({len(span_bytes)} bytes)")
        payload = _TRACE_BLOCK.pack(lc, len(span_bytes)) + span_bytes + payload
        frame_type |= _FLAG_TRACED
    if len(payload) > MAX_BODY:
        raise CodecError(f"body too large ({len(payload)} bytes)")
    return (
        _HEADER.pack(
            MAGIC,
            WIRE_VERSION,
            frame_type,
            len(payload),
            zlib.crc32(payload) & 0xFFFFFFFF,
        )
        + payload
    )


def encode_frame(
    frame_type: int,
    body: Any,
    *,
    lc: Optional[int] = None,
    span: Optional[str] = None,
) -> bytes:
    """One ``T_HELLO``/``T_MSG`` frame: canonical JSON body, stamped when
    ``lc`` is given.  The lock-service types have no JSON form — use
    :func:`encode_request` / :func:`encode_response`."""
    if frame_type not in _JSON_TYPES:
        raise CodecError(f"frame type {frame_type!r} has no JSON body")
    try:
        payload = json.dumps(body, **_CANONICAL).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"body is not wire-encodable: {exc}") from None
    return _seal(frame_type, payload, lc, span)


def encode_message(
    message: Message,
    *,
    lc: Optional[int] = None,
    span: Optional[str] = None,
) -> bytes:
    """A :class:`Message` as one ``T_MSG`` frame (traced when ``lc`` given)."""
    return encode_frame(
        T_MSG,
        {"src": message.src, "dst": message.dst, "payload": list(message.payload)},
        lc=lc,
        span=span,
    )


def _request_id_bytes(req_id: Any) -> bytes:
    """The id as short UTF-8 bytes, or a :class:`CodecError`."""
    if not isinstance(req_id, str):
        raise CodecError(f"binary frames need string ids, got {req_id!r}")
    ident = req_id.encode("utf-8")
    if not 0 < len(ident) <= MAX_REQUEST_ID:
        raise CodecError(f"request id length {len(ident)} out of range")
    return ident


def encode_request(
    op: str,
    req_id: Any,
    *,
    node: Optional[int] = None,
    lc: Optional[int] = None,
    span: Optional[str] = None,
) -> bytes:
    """One lock-service request as a packed ``T_REQ`` frame.

    Decodes into the body dict ``{"op", "id"}`` — plus ``span`` mirroring
    the id on acquires (the client-side span the node adopts), plus
    ``node`` when a gateway routes on behalf of a logical client.
    """
    code = _OP_CODES.get(op)
    if code is None:
        raise CodecError(f"op {op!r} has no wire encoding")
    ident = _request_id_bytes(req_id)
    flags = 0
    node_index = 0
    if node is not None:
        if not 0 <= node <= MAX_NODE_INDEX:
            raise CodecError(f"node index {node!r} out of range")
        flags |= _FLAG_NODE
        node_index = node
    payload = _REQ_HEAD.pack(code, flags, node_index, len(ident)) + ident
    return _seal(T_REQ, payload, lc, span)


def encode_response(
    op: str,
    req_id: Any,
    ok: bool,
    *,
    error: Optional[str] = None,
    retry_after_s: Optional[float] = None,
    lc: Optional[int] = None,
    span: Optional[str] = None,
) -> bytes:
    """One lock-service response as a packed ``T_RSP`` frame.

    ``error`` is the typed refusal (``"retry"`` for admission sheds,
    ``"bad-request"`` for no or an unknown node, ``"bad-op"`` for protocol
    misuse); ``retry_after_s`` is the shed back-off hint, in whole ms.
    """
    code = _OP_CODES.get(op)
    if code is None:
        raise CodecError(f"op {op!r} has no wire encoding")
    ident = _request_id_bytes(req_id)
    err = ("" if error is None else error).encode("utf-8")
    if len(err) > 255:
        raise CodecError(f"error string too long ({len(err)} bytes)")
    retry_ms = 0
    if retry_after_s is not None:
        if not 0 <= retry_after_s <= MAX_RETRY_MS / 1000.0:
            raise CodecError(f"retry_after_s {retry_after_s!r} out of range")
        retry_ms = int(round(retry_after_s * 1000.0))
    payload = (
        _RSP_HEAD.pack(code, 1 if ok else 0, retry_ms, len(ident))
        + ident
        + bytes((len(err),))
        + err
    )
    return _seal(T_RSP, payload, lc, span)


def _decode_packed_body(frame_type: int, body: bytes) -> Optional[dict]:
    """The body dict of a ``T_REQ``/``T_RSP`` frame, or ``None`` if the
    bytes are junk.

    The CRC already passed, so a malformed body here is garbage that got
    lucky (or a buggy peer); the decoder treats ``None`` exactly like a
    failed JSON parse — defence in depth, same as the trace block.
    """
    if frame_type == T_REQ:
        if len(body) < _REQ_HEAD.size:
            return None
        code, flags, node_index, id_len = _REQ_HEAD.unpack_from(body, 0)
        op = _OP_NAMES.get(code)
        end = _REQ_HEAD.size + id_len
        if op is None or id_len == 0 or len(body) != end:
            return None
        try:
            ident = body[_REQ_HEAD.size : end].decode("utf-8")
        except UnicodeDecodeError:
            return None
        decoded: dict = {"op": op, "id": ident}
        if op == "acquire":
            decoded["span"] = ident
        if flags & _FLAG_NODE:
            decoded["node"] = node_index
        return decoded
    if len(body) < _RSP_HEAD.size:
        return None
    code, ok, retry_ms, id_len = _RSP_HEAD.unpack_from(body, 0)
    op = _OP_NAMES.get(code)
    id_end = _RSP_HEAD.size + id_len
    if op is None or id_len == 0 or len(body) < id_end + 1:
        return None
    err_len = body[id_end]
    if len(body) != id_end + 1 + err_len:
        return None
    try:
        ident = body[_RSP_HEAD.size : id_end].decode("utf-8")
        err = body[id_end + 1 :].decode("utf-8")
    except UnicodeDecodeError:
        return None
    decoded = {"op": op, "id": ident, "ok": bool(ok)}
    if err:
        decoded["error"] = err
    if retry_ms:
        decoded["retry_after_s"] = retry_ms / 1000.0
    return decoded


def _parse(type_byte: int, payload: bytes) -> Optional[Frame]:
    """The frame in a CRC-valid payload, or ``None`` if the bytes are junk
    under the one schema their type byte selects."""
    lc: Optional[int] = None
    span: Optional[str] = None
    if type_byte & _FLAG_TRACED:
        if len(payload) < _TRACE_BLOCK.size:
            return None
        lc, span_len = _TRACE_BLOCK.unpack_from(payload, 0)
        end = _TRACE_BLOCK.size + span_len
        if len(payload) < end:
            return None
        try:
            span = payload[_TRACE_BLOCK.size : end].decode("utf-8") or None
        except UnicodeDecodeError:
            return None
        payload = payload[end:]
    frame_type = type_byte & ~_FLAG_TRACED
    if frame_type in _JSON_TYPES:
        try:
            body = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            return None  # RecursionError: a CRC-valid "[[[[…" a mile deep
    else:
        body = _decode_packed_body(frame_type, payload)
        if body is None:
            return None
    return Frame(frame_type, body, lc, span)


def encode_hello(node: Any, *, role: str = "peer") -> bytes:
    """The handshake frame: wire version + sender identity + role."""
    return encode_frame(
        T_HELLO, {"version": WIRE_VERSION, "node": node, "role": role}
    )


def decode_message(frame: Frame) -> Optional[Message]:
    """The :class:`Message` in a ``T_MSG`` frame, or ``None`` if malformed.

    Malformed here means "valid frame, wrong body shape" — possible when
    garbage happens to pass the CRC or a buggy/malicious peer sends a
    syntactically valid frame.  Junk yields ``None``, never an exception.
    """
    body = frame.body
    if frame.type != T_MSG or not isinstance(body, dict):
        return None
    if not {"src", "dst", "payload"} <= set(body):
        return None
    payload = body["payload"]
    if not isinstance(payload, (list, tuple)):
        return None
    return Message(
        src=tuplify(body["src"]),
        dst=tuplify(body["dst"]),
        payload=tuplify(list(payload)),
    )


def hello_fields(frame: Frame) -> Optional[Tuple[int, Any, str]]:
    """``(version, node, role)`` of a hello frame, or ``None`` if malformed."""
    body = frame.body
    if frame.type != T_HELLO or not isinstance(body, dict):
        return None
    version = body.get("version")
    if not isinstance(version, int):
        return None
    return version, tuplify(body.get("node")), str(body.get("role", "peer"))


# ------------------------------------------------------------------ decode


class Decoder:
    """Incremental, garbage-tolerant frame decoder for one byte stream.

    Feed it arbitrary chunks; it yields every complete valid frame and
    counts every byte it had to discard (``garbage_bytes``) plus how many
    times it lost sync (``resyncs``).  The counters are the wire-level
    analogue of the simulator's junk-payload statistics, and the chaos
    tests assert on them.
    """

    __slots__ = ("_buffer", "garbage_bytes", "resyncs", "frames_decoded")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.garbage_bytes = 0
        self.resyncs = 0
        self.frames_decoded = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Buffer ``data``; return all frames completed by it."""
        self._buffer.extend(data)
        return list(self._drain())

    def _drain(self) -> Iterator[Frame]:
        buf = self._buffer
        while True:
            start = buf.find(MAGIC)
            if start < 0:
                # No magic anywhere: all junk except a possible partial
                # magic at the very end.
                keep = 1 if buf[-1:] == MAGIC[:1] else 0
                discard = len(buf) - keep
                if discard > 0:
                    self.garbage_bytes += discard
                    self.resyncs += 1
                    del buf[:discard]
                return
            if start > 0:
                self.garbage_bytes += start
                self.resyncs += 1
                del buf[:start]
            if len(buf) < HEADER_SIZE:
                return  # header not complete yet
            version, type_byte = buf[2], buf[3]
            length = int.from_bytes(buf[4:8], "big")
            crc = int.from_bytes(buf[8:12], "big")
            if (
                version != WIRE_VERSION
                or (type_byte & ~_FLAG_TRACED) not in _TYPES
                or length > MAX_BODY
            ):
                # False magic: discard one byte and rescan.
                self.garbage_bytes += 1
                self.resyncs += 1
                del buf[:1]
                continue
            if len(buf) < HEADER_SIZE + length:
                return  # body not complete yet
            body_bytes = bytes(buf[HEADER_SIZE : HEADER_SIZE + length])
            frame = (
                _parse(type_byte, body_bytes)
                if zlib.crc32(body_bytes) & 0xFFFFFFFF == crc
                else None
            )
            if frame is None:
                self.garbage_bytes += 1
                self.resyncs += 1
                del buf[:1]
                continue
            del buf[: HEADER_SIZE + length]
            self.frames_decoded += 1
            yield frame
