"""Wire-format tests: lengths, round trips, corruption detection."""

import random

import pytest

from wbansim.errors import CrcError, MalformedError, RangeError, TruncatedError
from wbansim.frames import (ACK_FRAME_BYTES, MAX_PAYLOAD, MGMT_BITS, OVERHEAD_BYTES, Frame,
                            FrameHeader, FrameType, ack_frame, compute_crc16, data_frame,
                            decode_frame, encode_frame, management_frame)


def random_frame(rng: random.Random, max_payload: int = 30) -> Frame:
    kind = rng.randrange(5)
    recipient = rng.randrange(256)
    sender = rng.randrange(256)
    seq = rng.randrange(256)
    if kind == 0:
        return data_frame(recipient, sender, seq,
                          rng.randbytes(rng.randrange(0, max_payload + 1)),
                          fragment_index=rng.randrange(128),
                          last_fragment=rng.random() < 0.5)
    if kind == 1:
        return ack_frame(recipient, sender, seq)
    ftype = (FrameType.MGMT_REQUEST, FrameType.MGMT_ASSIGNMENT,
             FrameType.MGMT_DISCONNECT)[kind - 2]
    # management_frame builds an empty body; the decoder accepts one with a body
    return Frame(FrameHeader(ftype, recipient, sender, seq),
                 rng.randbytes(rng.randrange(0, 4)))


# -------------------------------------------------------------- length laws

def test_data_frame_length_is_payload_plus_8():
    f = data_frame(2, 1, 0, bytes(10))
    assert len(encode_frame(f)) == 18


def test_zero_payload_data_frame_is_8_bytes():
    f = data_frame(2, 1, 0, b"")
    assert len(encode_frame(f)) == OVERHEAD_BYTES


def test_ack_frame_is_9_bytes():
    for seq in (0, 77, 255):
        assert len(encode_frame(ack_frame(3, 0, seq))) == ACK_FRAME_BYTES


@pytest.mark.parametrize("ftype", [FrameType.MGMT_REQUEST, FrameType.MGMT_ASSIGNMENT,
                                   FrameType.MGMT_DISCONNECT])
def test_management_frame_without_params_is_mgmt_bits(ftype):
    assert len(encode_frame(management_frame(ftype, 0, 1, 0))) * 8 == MGMT_BITS


def test_length_law_all_payload_sizes():
    for n in range(256):
        f = data_frame(1, 2, 3, bytes(n))
        assert len(encode_frame(f)) == n + OVERHEAD_BYTES


def test_crc_is_big_endian_tail():
    f = data_frame(2, 1, 9, b"abc")
    wire = encode_frame(f)
    assert int.from_bytes(wire[-2:], "big") == compute_crc16(wire[:-2])


# -------------------------------------------------------------- round trips

def test_round_trip_identity_random_frames():
    rng = random.Random(1234)
    for _ in range(2000):
        f = random_frame(rng)
        assert decode_frame(encode_frame(f)) == f


# ------------------------------------------------------------- error paths

def test_truncated_below_minimum():
    with pytest.raises(TruncatedError):
        decode_frame(b"\x00\x01\x02")


def test_single_bit_flips_all_raise_crc_error():
    rng = random.Random(99)
    for _ in range(25):
        wire = encode_frame(random_frame(rng))
        for bit in range(len(wire) * 8):
            corrupted = bytearray(wire)
            corrupted[bit >> 3] ^= 0x80 >> (bit & 7)
            with pytest.raises(CrcError):
                decode_frame(bytes(corrupted))


def test_crc_error_carries_best_effort_header():
    f = data_frame(7, 5, 42, b"xyz")
    wire = bytearray(encode_frame(f))
    wire[-1] ^= 0xFF
    with pytest.raises(CrcError) as info:
        decode_frame(bytes(wire))
    header = info.value.header
    assert header is not None
    assert (header.sender_id, header.recipient_id, header.sequence) == (5, 7, 42)


def test_inconsistent_payload_len_is_malformed():
    wire = bytearray(encode_frame(data_frame(1, 2, 3, b"abcd")))
    wire[5] = 9  # lie about the length, then fix the checksum
    wire[-2:] = compute_crc16(bytes(wire[:-2])).to_bytes(2, "big")
    with pytest.raises(MalformedError):
        decode_frame(bytes(wire))


def test_unknown_frame_type_is_malformed():
    wire = bytearray(encode_frame(data_frame(1, 2, 3, b"")))
    wire[0] = 0x07
    wire[-2:] = compute_crc16(bytes(wire[:-2])).to_bytes(2, "big")
    with pytest.raises(MalformedError):
        decode_frame(bytes(wire))


# -------------------------------------------------------------- field range

# (header, the start of the RangeError's message): the first field out of
# range, type first and then in header order, is the one named
OUT_OF_RANGE = [
    (FrameHeader(FrameType.DATA, 256, 0, 0), "recipient_id=256"),
    (FrameHeader(FrameType.DATA, 0, -1, 0), "sender_id=-1"),
    (FrameHeader(FrameType.DATA, 0, 0, 999), "sequence=999"),
    (FrameHeader(FrameType.DATA, 0, 0, 0, fragment_index=128), "fragment_index=128"),
    (FrameHeader(FrameType.DATA, 0, 0, 0, fragment_index=-1), "fragment_index=-1"),
    (FrameHeader(FrameType.DATA, 0, 300, 300, fragment_index=200), "sender_id=300"),
    (FrameHeader(7, 300, 0, 0), "unknown frame type"),
]


@pytest.mark.parametrize("header, field", OUT_OF_RANGE,
                         ids=[f"header{i}" for i in range(len(OUT_OF_RANGE))])
def test_out_of_range_fields_raise(header, field):
    with pytest.raises(RangeError, match=field):
        encode_frame(Frame(header, b""))


def test_body_over_max_payload_raises():
    with pytest.raises(RangeError):
        encode_frame(data_frame(1, 2, 3, bytes(MAX_PAYLOAD + 1)))


@pytest.mark.parametrize("call, error", [
    (lambda: FrameHeader(7, 0, 1, 0).validate(), RangeError),   # unknown frame type
    (lambda: data_frame(0, 1, 0, b"x").acked_sequence, ValueError),
    (lambda: encode_frame(Frame(ack_frame(0, 1, 0).header, b"\x00\x00")), RangeError),
], ids=["unknown-type", "acked-sequence-of-data", "two-byte-ack"])
def test_frames_the_codec_refuses_raise(call, error):
    with pytest.raises(error):
        call()
