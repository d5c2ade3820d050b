"""Tests for the framed wire protocol: exact byte layouts and round-trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekmini import wire
from nekmini.data_model import POINT, Block, FieldArray
from nekmini.wire import (
    ERROR_STEP,
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    TAG_BLOCK_PAYLOAD,
    TAG_BYE,
    TAG_HELLO,
    TAG_HELLO_ACK,
    TAG_STEP_ACK,
    VERSION,
    BlockPayload,
    Bye,
    Hello,
    HelloAck,
    ProtocolError,
    StepAck,
    WireMessage,
    check_header,
    decode_block_payload,
    decode_message,
    encode_message,
)


def encode_block(b, step=7, time=0.375):
    """A step's payload bytes: its frame without the header."""
    return encode_message(BlockPayload(step, time, b))[HEADER.size:]


_STEP_FIXED_SIZE = 8 + 8 + 24 + 24 + 48 + 4  # step, time, origin, spacing, extents, field count


def make_block(rng, ni=4, nj=3, nfields=2):
    fields = []
    for k in range(nfields):
        comps = int(rng.integers(1, 4))
        fields.append(FieldArray(f"f{k}", POINT, comps, rng.standard_normal(ni * nj * comps)))
    return Block((0.0, 0.5, 0.0), (0.25, 0.25, 1.0), (0, ni - 1, 0, nj - 1, 0, 0),
                 tuple(fields))


class TestFrameLayout:
    def test_header_is_14_bytes(self):
        assert HEADER.size == 14

    def test_hello_frame_exact_bytes(self):
        # 14-byte header + u32 id + u32 reserved flags = 22 bytes
        raw = encode_message(Hello(producer_id=3))
        assert len(raw) == 22
        assert raw == b"NKSS" + bytes([VERSION, TAG_HELLO]) + struct.pack("<Q", 8) \
            + struct.pack("<II", 3, 0)

    def test_bye_is_header_only(self):
        raw = encode_message(Bye())
        assert len(raw) == 14
        assert raw[:4] == MAGIC
        assert raw[5] == TAG_BYE
        assert struct.unpack("<Q", raw[6:14]) == (0,)

    def test_step_ack_error_sentinel(self):
        raw = encode_message(StepAck(ERROR_STEP))
        msg, used = decode_message(raw)
        assert used == len(raw)
        assert msg.step == ERROR_STEP == 2**64 - 1

    def test_all_integers_little_endian(self):
        b = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 0, 0, 0, 0, 0))
        raw = encode_message(BlockPayload(step=0x0102030405060708, time=0.0, block=b))
        payload = raw[14:]
        assert payload[:8] == bytes([8, 7, 6, 5, 4, 3, 2, 1])

    def test_step_frame_exact_bytes(self):
        # a 4x3 block with one field: 14 header + 116 fixed (step, time,
        # origin, spacing, extents, field count) + 2 name length + 11 name
        # + 12 (components, value count) = 155, then 5 zero bytes up to the
        # frame's next multiple of 8, then 96 values = 256 bytes
        values = np.arange(12, dtype=np.float64) / 8
        b = Block((0.5, -1.0, 0.0), (0.25, 0.5, 1.0), (4, 7, 0, 2, 0, 0),
                  (FieldArray("temperature", POINT, 1, values),))
        raw = encode_message(BlockPayload(step=30, time=0.125, block=b))
        assert len(raw) == 14 + 116 + 2 + 11 + 12 + 5 + 96 == 256
        assert raw == (HEADER.pack(MAGIC, 0x03, TAG_BLOCK_PAYLOAD, 242)
                       + struct.pack("<Qd3d3d6qI", 30, 0.125, 0.5, -1.0, 0.0, 0.25, 0.5, 1.0,
                                     4, 7, 0, 2, 0, 0, 1)
                       + struct.pack("<H", 11) + b"temperature"
                       + struct.pack("<IQ", 1, 12) + bytes(5) + values.astype("<f8").tobytes())
        assert decode_message(raw) == (BlockPayload(30, 0.125, b), 256)


class TestDecodeIncremental:
    def test_short_buffer_rejected(self):
        # decode_message takes one whole frame: every cut of one is an error
        raw = encode_message(Hello(0))
        for cut in range(len(raw)):
            with pytest.raises(ProtocolError, match=f"^{cut} bytes "):
                decode_message(raw[:cut])
        msg, used = decode_message(raw)
        assert msg == Hello(0) and used == len(raw)

    def test_bytes_past_the_frame_rejected(self):
        a = encode_message(StepAck(5))
        b = encode_message(Bye())
        for extra in (b[:1], b):
            with pytest.raises(ProtocolError, match=f"{len(a + extra)} bytes given for a "
                                                    f"{len(a)}-byte frame"):
                decode_message(a + extra)
        assert decode_message(a) == (StepAck(5), len(a))
        assert decode_message(b) == (Bye(), len(b))

    def test_bad_magic_rejected(self):
        raw = bytearray(encode_message(Bye()))
        raw[0] = ord("X")
        with pytest.raises(ProtocolError, match="magic"):
            decode_message(bytes(raw))

    def test_bad_version_rejected(self):
        assert VERSION == 0x03
        for version in (0x7F, 0x02, 0x01):
            raw = bytearray(encode_message(Bye()))
            raw[4] = version
            with pytest.raises(ProtocolError, match=f"unknown protocol version {version}"):
                decode_message(bytes(raw))

    def test_unknown_tag_rejected(self):
        raw = bytearray(encode_message(Bye()))
        raw[5] = 0x3A
        with pytest.raises(ProtocolError, match="tag"):
            decode_message(bytes(raw))

    def test_payload_length_cap_enforced(self):
        assert MAX_PAYLOAD == 1 << 30
        for length in (MAX_PAYLOAD + 1, 1 << 40):
            raw = HEADER.pack(MAGIC, VERSION, TAG_BLOCK_PAYLOAD, length)
            with pytest.raises(ProtocolError, match="cap"):
                decode_message(raw)
        # a length at the cap passes the header check
        raw = HEADER.pack(MAGIC, VERSION, TAG_BLOCK_PAYLOAD, MAX_PAYLOAD)
        assert check_header(raw) == (TAG_BLOCK_PAYLOAD, HEADER.size + MAX_PAYLOAD)

    def test_bye_with_payload_rejected(self):
        raw = HEADER.pack(MAGIC, VERSION, TAG_BYE, 1) + b"\x00"
        with pytest.raises(ProtocolError, match="Bye"):
            decode_message(raw)

    def test_hello_payload_size_checked(self):
        raw = HEADER.pack(MAGIC, VERSION, TAG_HELLO, 4) + struct.pack("<I", 1)
        with pytest.raises(ProtocolError, match="Hello"):
            decode_message(raw)

    @pytest.mark.parametrize("tag, length", [
        (TAG_HELLO, 0), (TAG_HELLO, 9),
        (TAG_HELLO_ACK, 0), (TAG_HELLO_ACK, 2),
        (TAG_BLOCK_PAYLOAD, 0), (TAG_BLOCK_PAYLOAD, 115),
        (TAG_STEP_ACK, 0), (TAG_STEP_ACK, 7), (TAG_STEP_ACK, 9),
        (TAG_BYE, 1),
    ])
    def test_fixed_payload_length_checked(self, tag, length):
        # the header alone is enough to reject the frame, and the whole
        # frame raises ProtocolError, not IndexError or struct.error
        raw = HEADER.pack(MAGIC, VERSION, tag, length) + bytes(length)
        with pytest.raises(ProtocolError, match="payload must be"):
            check_header(raw[:HEADER.size])
        with pytest.raises(ProtocolError, match="payload must be"):
            decode_message(raw)

    def test_check_header_gives_tag_and_frame_length(self):
        raw = encode_message(StepAck(5))
        assert check_header(raw) == (TAG_STEP_ACK, len(raw)) == (TAG_STEP_ACK, 22)
        raw = encode_message(BlockPayload(5, 1.25, Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                                          (0, 0, 0, 0, 0, 0))))
        # 14 header + 116 fixed + 6 zero bytes up to the frame's next multiple of 8
        assert check_header(raw) == (TAG_BLOCK_PAYLOAD, len(raw)) == (TAG_BLOCK_PAYLOAD, 136)


CONTROL_MESSAGES = [
    Hello(0),
    Hello(2**32 - 1),
    HelloAck(True),
    HelloAck(False),
    StepAck(0),
    StepAck(ERROR_STEP - 1),
    StepAck(12345),
    StepAck(ERROR_STEP),
    Bye(),
]


class TestRoundTrips:
    @pytest.mark.parametrize("msg", CONTROL_MESSAGES)
    def test_control_message_round_trip(self, msg):
        decoded, used = decode_message(encode_message(msg))
        assert decoded == msg
        assert used == len(encode_message(msg))

    def test_round_trips_cover_every_fixed_message(self):
        # every message of one fixed payload length is in the one table,
        # and each of them round-trips above
        assert {type(m) for m in CONTROL_MESSAGES} == set(wire._FIXED) \
            == {Hello, HelloAck, StepAck, Bye}

    def test_encoding_a_non_message_raises_type_error(self):
        with pytest.raises(TypeError, match="^not a wire message: <object object at "):
            encode_message(object())

    def test_block_round_trip_bit_exact(self):
        rng = np.random.default_rng(17)
        b = make_block(rng)
        back = decode_block_payload(encode_block(b, step=2**64 - 2, time=-1.5e300))
        assert (back.step, back.time) == (2**64 - 2, -1.5e300)
        back = back.block
        assert back.origin == b.origin
        assert back.spacing == b.spacing
        assert back.extents == b.extents
        for fa, fb in zip(b.fields, back.fields):
            assert (fa.name, fa.association, fa.components) == (fb.name, fb.association, fb.components)
            assert np.array_equal(fa.values, fb.values)

    def test_block_payload_message_round_trip(self):
        rng = np.random.default_rng(3)
        b = make_block(rng)
        decoded, _ = decode_message(encode_message(BlockPayload(3, 0.5, b)))
        assert (decoded.step, decoded.time) == (3, 0.5)
        assert np.array_equal(decoded.block.fields[0].values, b.fields[0].values)

    def test_decoded_fields_are_read_only_views_of_the_frame(self):
        rng = np.random.default_rng(4)
        frame = encode_message(BlockPayload(0, 0.0, make_block(rng)))
        decoded, _ = decode_message(frame)
        for f in decoded.block.fields:
            assert not f.values.flags.writeable
            assert not f.values.flags.owndata
            assert np.shares_memory(f.values, np.frombuffer(frame, np.uint8))

    def test_block_frame_is_one_buffer_of_the_frame_size(self):
        rng = np.random.default_rng(6)
        b = make_block(rng)
        frame = encode_message(BlockPayload(0, 0.0, b))
        assert isinstance(frame, bytes)
        table = _STEP_FIXED_SIZE + sum(2 + len(f.name) + 12 for f in b.fields)
        padding = -(HEADER.size + table) % 8
        payload = table + padding + sum(8 * f.values.size for f in b.fields)
        assert len(frame) == HEADER.size + payload and len(frame) % 8 == 0
        assert HEADER.unpack_from(frame) == (MAGIC, VERSION, TAG_BLOCK_PAYLOAD, payload)

    @pytest.mark.parametrize("names, ni, nj", [
        (("temperature",), 4, 3),
        (("velocity", "pressure"), 5, 2),
        (("u", "v", "temperature"), 3, 3),
        (("température", "压力"), 4, 3),
        (("temperature", "velocity"), 1, 1),
    ])
    def test_frame_parts_are_the_frame_with_each_field_sent_as_it_is(self, names, ni, nj):
        # the parts, joined, are the frame encode_message returns and the
        # layout written out here: the head through the field table and its
        # padding, then every field's values part, a view of the field's own
        # array, so a gather-write copies no field
        rng = np.random.default_rng(len(names) * 100 + ni)
        fields = tuple(FieldArray(n, POINT, c, rng.standard_normal(c * ni * nj))
                       for c, n in enumerate(names, start=1))
        m = BlockPayload(9, -0.5, Block((0.5, 0.0, 0.0), (0.5, 0.25, 1.0),
                                        (1, ni, 0, nj - 1, 0, 0), fields))
        payload = struct.pack("<Qd3d3d6qI", 9, -0.5, 0.5, 0.0, 0.0, 0.5, 0.25, 1.0,
                              1, ni, 0, nj - 1, 0, 0, len(fields))
        for f in fields:
            name = f.name.encode("utf-8")
            payload += (struct.pack("<H", len(name)) + name
                        + struct.pack("<IQ", f.components, f.values.size))
        payload += bytes(-(HEADER.size + len(payload)) % 8)
        head = HEADER.size + len(payload)
        assert head % 8 == 0
        for f in fields:
            payload += f.values.astype("<f8").tobytes()
        reference = HEADER.pack(MAGIC, VERSION, TAG_BLOCK_PAYLOAD, len(payload)) + payload
        parts = wire.frame_parts(m)
        assert b"".join(parts) == encode_message(m) == reference
        assert len(parts) == 1 + len(fields)
        assert len(parts[0]) == head
        for f, values in zip(fields, parts[1:], strict=True):
            assert np.shares_memory(np.frombuffer(values, np.uint8), f.values)
        assert decode_message(reference)[0] == m

    def test_non_utf8_field_name_rejected(self):
        f = FieldArray("ab", POINT, 1, np.zeros(12))
        raw = bytearray(encode_block(Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                           (0, 3, 0, 2, 0, 0), (f,))))
        raw[118:120] = b"\xff\xfe"  # the name, after 116 fixed bytes and its length
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_block_payload(raw)

    def test_truncated_block_rejected(self):
        rng = np.random.default_rng(1)
        raw = encode_block(make_block(rng))
        with pytest.raises(ProtocolError, match="truncated"):
            decode_block_payload(raw[:-8])

    def test_payload_ending_inside_the_padding_is_truncated(self):
        # a 1-byte name leaves 14 + 116 + 2 + 1 + 12 = 145 bytes, so 7 zero
        # bytes pad the head to 152; cut anywhere in them, the payload is
        # truncated, not "-k trailing bytes"
        f = FieldArray("t", POINT, 1, np.zeros(0))
        raw = encode_block(Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 3, 0, 2, 0, 0), (f,)))
        assert len(raw) == 152 - 14
        for cut in range(1, 8):
            with pytest.raises(ProtocolError, match="^truncated block payload"):
                decode_block_payload(raw[:-cut])
        raw = encode_block(Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 0, 0, 0, 0, 0)))
        assert len(raw) == 136 - 14
        with pytest.raises(ProtocolError, match="^truncated block payload"):
            decode_block_payload(raw[:116])

    def test_non_zero_padding_rejected(self):
        f = FieldArray("temperature", POINT, 1, np.arange(12.0))
        raw = encode_block(Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 3, 0, 2, 0, 0), (f,)))
        for at in range(141, 146):  # the 5 zero bytes after the 141-byte head of the payload
            bad = bytearray(raw)
            bad[at] = 1
            with pytest.raises(ProtocolError, match="padding"):
                decode_block_payload(bytes(bad))
        assert decode_block_payload(raw).block.fields == (f,)

    def test_trailing_bytes_rejected(self):
        rng = np.random.default_rng(1)
        raw = encode_block(make_block(rng))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_block_payload(raw + b"\x00" * 4)

    def test_block_size_oracle(self):
        # fixed part 8+8+24+24+48+4, per field 2+len(name)+12 in the table,
        # zero bytes to the frame's next multiple of 8, then 8*nvals per field
        f = FieldArray("temperature", POINT, 1, np.zeros(12))
        b = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 3, 0, 2, 0, 0), (f,))
        assert len(encode_block(b)) == 116 + 2 + 11 + 12 + 5 + 96
        g = FieldArray("p", POINT, 2, np.zeros(24))
        b = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 3, 0, 2, 0, 0), (f, g))
        # 14 + 116 + 25 + 15 = 170, so 6 zero bytes up to 176
        assert len(encode_block(b)) == 116 + (2 + 11 + 12) + (2 + 1 + 12) + 6 + 96 + 192

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        ni=st.integers(2, 6),
        nj=st.integers(2, 6),
        nfields=st.integers(1, 4),
    )
    def test_randomized_block_round_trip(self, seed, ni, nj, nfields):
        rng = np.random.default_rng(seed)
        b = make_block(rng, ni=ni, nj=nj, nfields=nfields)
        back = decode_block_payload(encode_block(b, step=seed)).block
        assert back.extents == b.extents
        for fa, fb in zip(b.fields, back.fields):
            assert np.array_equal(fa.values, fb.values)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_arbitrary_bytes_never_crash_uncontrolled(self, junk):
        # decoding junk either raises ProtocolError, never anything else,
        # or decodes it as exactly one whole frame
        try:
            msg, used = decode_message(junk)
        except ProtocolError:
            return
        assert isinstance(msg, WireMessage) and used == len(junk)
