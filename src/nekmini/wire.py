"""Framed binary wire protocol for the staging transport.

Every frame is::

    magic 'NKSS' (4) | version (1, 0x03) | type tag (1) | payload length (u64 LE) | payload

All multi-byte integers are little-endian; floats are IEEE-754 LE.

Type tags: Hello=0x01, HelloAck=0x02, BlockPayload=0x04, StepAck=0x05, Bye=0x06.

A step is one BlockPayload frame of point data: step u64, time f64, origin
3*f64, spacing 3*f64, extents 6*i64, field count u32 (116 bytes); the field
table, per field: name length u16 + UTF-8 bytes, components u32, value
count u64; zero bytes up to the next multiple of 8 from the frame's first
byte; then every field's values f64[], in table order. So every field
starts 8-byte aligned whenever the frame's buffer is.

Every other message has one fixed payload length, declared with its tag
and its packing in `_FIXED`, the one table that frame_parts,
check_header and decode_message read; a BlockPayload is at least 116
bytes. So check_header can reject a bad frame from its 14-byte header
alone, before a reader reads the one whole frame that decode_message takes.
frame_parts declares the layout once: a frame as the byte views that make
it up, the head (all bytes up to the values) and each field's values, a
view of the field's own array. A sender gather-writes them, so no field
is copied on the way out; encode_message joins them into one frame. A
BlockPayload is decoded with no copy either: each field's values are an
aligned read-only float64 view over the frame, which FieldArray adopts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from nekmini.data_model import POINT, Block, FieldArray

MAGIC = b"NKSS"
VERSION = 0x03
HEADER = struct.Struct("<4sBBQ")  # magic, version, tag, payload length

TAG_HELLO = 0x01
TAG_HELLO_ACK = 0x02
TAG_BLOCK_PAYLOAD = 0x04
TAG_STEP_ACK = 0x05
TAG_BYE = 0x06

_STEP_FIXED = struct.Struct("<Qd3d3d6qI")  # step, time, origin, spacing, extents, field count
_FIELD_HEAD = struct.Struct("<IQ")  # components, value count

MAX_PAYLOAD = 1 << 30  # 1 GiB: the largest payload a frame may declare

# error-ack sentinel: an ack carrying this step tells the producer the
# endpoint abandoned the step (a deliberately "wrong step" signal)
ERROR_STEP = (1 << 64) - 1


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class Hello:
    producer_id: int


@dataclass(frozen=True)
class HelloAck:
    accepted: bool


@dataclass(frozen=True)
class BlockPayload:
    step: int
    time: float
    block: Block


@dataclass(frozen=True)
class StepAck:
    step: int


@dataclass(frozen=True)
class Bye:
    pass


WireMessage = Hello | HelloAck | BlockPayload | StepAck | Bye

# every message but BlockPayload has a payload of one fixed length:
# type -> (tag, layout, payload of a message, message from a payload)
_FIXED = {
    Hello: (TAG_HELLO, struct.Struct("<II"),  # producer id, reserved flags
            lambda m: (m.producer_id, 0), lambda pid, _flags: Hello(pid)),
    HelloAck: (TAG_HELLO_ACK, struct.Struct("<B"),
               lambda m: (1 if m.accepted else 0,), lambda accepted: HelloAck(bool(accepted))),
    StepAck: (TAG_STEP_ACK, struct.Struct("<Q"), lambda m: (m.step,), StepAck),
    Bye: (TAG_BYE, struct.Struct("<"), lambda m: (), Bye),
}
_FIXED_BY_TAG = {tag: (kind, layout, message)
                 for kind, (tag, layout, _, message) in _FIXED.items()}


def frame_parts(m: WireMessage) -> list[memoryview]:
    """m's whole frame as the byte views that make it up, in wire order.

    A fixed-size message is one part. A BlockPayload frame is the bytes
    from the header through the field table and its padding, then each
    field's values, a view of the field's own array (`<f8`, C-contiguous),
    not a copy, on a little-endian host: 1 + len(fields) parts. Joined,
    the parts are the frame; a sender can gather-write them instead.
    """
    if not isinstance(m, BlockPayload):
        try:
            tag, layout, payload, _ = _FIXED[type(m)]
        except KeyError:
            raise TypeError(f"not a wire message: {m!r}") from None
        frame = HEADER.pack(MAGIC, VERSION, tag, layout.size) + layout.pack(*payload(m))
        return [memoryview(frame)]
    b = m.block
    values = [memoryview(np.ascontiguousarray(f.values, "<f8")).cast("B") for f in b.fields]
    table = _STEP_FIXED.pack(m.step, m.time, *b.origin, *b.spacing, *b.extents, len(b.fields))
    for f in b.fields:
        name = f.name.encode("utf-8")
        table += struct.pack("<H", len(name)) + name + _FIELD_HEAD.pack(f.components, f.values.size)
    table += bytes(-(HEADER.size + len(table)) % 8)  # pad to the frame's next 8 bytes
    size = len(table) + sum(len(v) for v in values)
    return [memoryview(HEADER.pack(MAGIC, VERSION, TAG_BLOCK_PAYLOAD, size) + table), *values]


def decode_block_payload(buf) -> BlockPayload:
    """Unmarshal a BlockPayload (a frame's bytes after its header): read the
    field table, check that the padding after it is whole and zero, then
    view each field's values, read-only over buf and aligned if the frame is."""
    view = memoryview(buf).toreadonly()
    try:
        step, time, *geometry, nfields = _STEP_FIXED.unpack_from(view)
        pos, table, nbytes = _STEP_FIXED.size, [], 0
        for _ in range(nfields):
            (nlen,) = struct.unpack_from("<H", view, pos); pos += 2
            name = str(view[pos:pos + nlen], "utf-8"); pos += nlen
            comps, nvals = _FIELD_HEAD.unpack_from(view, pos); pos += _FIELD_HEAD.size
            table.append((name, comps, nvals, nbytes)); nbytes += 8 * nvals
        start = pos + -(HEADER.size + pos) % 8  # the values, at the frame's next 8 bytes
        if start + nbytes > len(view):
            raise ProtocolError("truncated block payload")
        if any(view[pos:start]):
            raise ProtocolError("non-zero padding in block payload")
        if start + nbytes != len(view):
            raise ProtocolError(f"{len(view) - start - nbytes} trailing bytes in block payload")
        fields = tuple(FieldArray(name, POINT, comps, np.frombuffer(view, "<f8", nvals, start + at))
                       for name, comps, nvals, at in table)
        return BlockPayload(step, time, Block(geometry[0:3], geometry[3:6], geometry[6:12], fields))
    except struct.error as e:
        raise ProtocolError(f"truncated block payload: {e}") from e
    except UnicodeDecodeError as e:
        raise ProtocolError(f"field name is not UTF-8: {e}") from e


def encode_message(m: WireMessage) -> bytes:
    """One whole frame: frame_parts(m) joined into one new buffer."""
    return b"".join(frame_parts(m))


def check_header(buf) -> tuple[int, int]:
    """Check the frame header at the head of buf; returns (tag, frame length).

    Needs only the HEADER.size header bytes, so a reader can reject a bad
    frame before it allocates room for the payload. Raises ProtocolError on
    a bad magic, version or tag, a fixed-size message of the wrong length,
    a BlockPayload shorter than its fixed part, or a declared length over
    MAX_PAYLOAD.
    """
    magic, version, tag, length = HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unknown protocol version {version}")
    if tag in _FIXED_BY_TAG:
        kind, layout, _ = _FIXED_BY_TAG[tag]
        if length != layout.size:
            raise ProtocolError(f"{kind.__name__} payload must be {layout.size} bytes, "
                                f"got {length}")
    elif tag != TAG_BLOCK_PAYLOAD:
        raise ProtocolError(f"unknown message tag 0x{tag:02x}")
    elif length < _STEP_FIXED.size:
        raise ProtocolError(f"BlockPayload payload must be at least {_STEP_FIXED.size} bytes, "
                            f"got {length}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload length {length} exceeds cap {MAX_PAYLOAD}")
    return tag, HEADER.size + length


def decode_message(buf) -> tuple[WireMessage, int]:
    """Decode buf (any bytes-like object), which holds exactly one whole frame.

    Returns (message, frame length). Raises ProtocolError on a malformed
    frame, or a buf shorter or longer than the frame its header declares.
    A BlockPayload's field values are read-only views over buf, not copies.
    """
    if len(buf) < HEADER.size:
        raise ProtocolError(f"{len(buf)} bytes cannot hold a {HEADER.size}-byte frame header")
    tag, total = check_header(buf)
    if len(buf) != total:
        raise ProtocolError(f"{len(buf)} bytes given for a {total}-byte frame")
    payload = memoryview(buf)[HEADER.size:]
    if tag == TAG_BLOCK_PAYLOAD:
        return decode_block_payload(payload), total
    _, layout, message = _FIXED_BY_TAG[tag]
    return message(*layout.unpack(payload)), total
