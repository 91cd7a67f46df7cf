"""Checksum unit tests against an independent bitwise reference."""

import random

from wbansim.errors import MalformedError
from wbansim.frames import (CRC_HAMMING_DISTANCE, CRC_SYNDROMES, MAX_PAYLOAD, OVERHEAD_BYTES,
                            compute_crc16, data_frame, decode_frame, encode_frame)


def crc16_reference(data: bytes) -> int:
    """Bit-at-a-time CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF,
    no reflection, no final xor."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def test_published_check_value():
    assert compute_crc16(b"123456789") == 0x29B1


def test_empty_input_leaves_register():
    assert compute_crc16(b"") == 0xFFFF


def test_deterministic():
    data = b"\x00\xff\x55\xaa" * 7
    assert compute_crc16(data) == compute_crc16(data)


def test_matches_reference_on_random_inputs():
    rng = random.Random(0xC0FFEE)
    for _ in range(500):
        data = rng.randbytes(rng.randrange(0, 64))
        assert compute_crc16(data) == crc16_reference(data)


def test_every_error_of_up_to_three_bits_fails_the_checksum():
    # The syndrome, computed CRC xor received CRC, is 0 on an intact frame
    # and linear in the error pattern, so an error's syndrome is the xor of
    # its single-bit syndromes.  On the largest frame (263 bytes, 2104 bits,
    # CRC included): no single-bit syndrome is 0, no two are equal and no
    # two xor to a third, so every 1-, 2- and 3-bit error is caught.  A
    # shorter frame's single-bit syndromes are the last ones of this frame,
    # and ``CRC_SYNDROMES[d]`` is the one of the flip `d` bits before the end.
    wire = encode_frame(data_frame(0, 1, 0, bytes(range(MAX_PAYLOAD))))
    assert len(wire) == MAX_PAYLOAD + OVERHEAD_BYTES

    def syndrome(frame: bytes) -> int:
        return compute_crc16(frame[:-2]) ^ int.from_bytes(frame[-2:], "big")

    def flip(positions) -> bytes:
        flipped = bytearray(wire)
        for pos in positions:
            flipped[pos >> 3] ^= 0x80 >> (pos & 7)
        return bytes(flipped)

    nbits = len(wire) * 8
    singles = [syndrome(flip([pos])) for pos in range(nbits)]
    assert syndrome(wire) == 0
    assert list(CRC_SYNDROMES) == singles[::-1]
    rng = random.Random(4)
    for _ in range(200):   # linearity, checked on random 3-bit errors
        a, b, c = rng.sample(range(nbits), 3)
        assert syndrome(flip([a, b, c])) == singles[a] ^ singles[b] ^ singles[c]
    assert 0 not in singles
    distinct = set(singles)
    assert len(distinct) == len(singles)
    for i, s in enumerate(singles):
        assert distinct.isdisjoint(map(s.__xor__, singles[i + 1:]))
    assert CRC_HAMMING_DISTANCE == 4


def test_a_flips_syndrome_depends_only_on_its_distance_from_the_frame_end():
    # the 0xFFFF init cancels between frames of equal length, so a management
    # frame, an ack and a data frame share the table's last entries
    for payload in (b"", bytes([7]), bytes(range(10))):
        wire = encode_frame(data_frame(2, 1, 9, payload))
        nbits = len(wire) * 8
        value = int.from_bytes(wire, "big")
        for pos in range(nbits):
            hit = (value ^ 1 << (nbits - 1 - pos)).to_bytes(len(wire), "big")
            got = compute_crc16(hit[:-2]) ^ int.from_bytes(hit[-2:], "big")
            assert got == CRC_SYNDROMES[nbits - 1 - pos]


def test_the_generator_pattern_is_a_four_bit_error_the_checksum_misses():
    # g(x) = x^16 + x^12 + x^5 + 1 divides itself, so xoring it into a frame
    # at any shift leaves the checksum matching: distance 4 is tight, and a
    # frame with 4 flips may arrive as a different, valid frame
    pattern = 0x11021
    assert pattern.bit_count() == CRC_HAMMING_DISTANCE
    frame = data_frame(0, 1, 0, bytes(range(10)))
    wire = encode_frame(frame)
    nbits = len(wire) * 8
    assert nbits == 144
    decoded = 0
    for shift in range(nbits - pattern.bit_length() + 1):
        hit = (int.from_bytes(wire, "big") ^ (pattern << shift)).to_bytes(len(wire), "big")
        assert compute_crc16(hit[:-2]) == int.from_bytes(hit[-2:], "big")
        try:
            other = decode_frame(hit)
        except MalformedError:
            continue
        assert other != frame
        decoded += 1
    assert decoded
