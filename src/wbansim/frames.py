"""Frame encoding/decoding with CRC-16 integrity protection.

Wire format (all frames):

    +---------------+-----------+--------+----------+------------------+-------------+--------+--------+
    | frame_control | recipient | sender | sequence | fragment_control | payload_len | body   | CRC-16 |
    | 1 byte        | 1 byte    | 1 byte | 1 byte   | 1 byte           | 1 byte      | 0-255B | 2 bytes|
    +---------------+-----------+--------+----------+------------------+-------------+--------+--------+

- frame_control: frame type in the low 3 bits, upper bits reserved zero
- fragment_control: bit 7 = last-fragment flag, bits 0-6 = fragment index
- payload_len: byte count of `body`
- CRC-16: CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no final
  xor) over all preceding bytes, appended most significant byte first

A data frame therefore carries exactly 8 bytes of overhead around its
payload.  An Ack frame has a fixed 1-byte body (the acknowledged sequence
number) and encodes to exactly 9 bytes.  Management frames are built with
an empty body, though ``decode_frame`` accepts one that arrives with a body.
"""

import binascii
from dataclasses import dataclass
from enum import IntEnum

from .errors import CrcError, MalformedError, RangeError, TruncatedError

OVERHEAD_BYTES = 8        # header (6) + CRC (2)
ACK_FRAME_BYTES = OVERHEAD_BYTES + 1   # overhead + 1-byte acked sequence
ACK_BITS = 8 * ACK_FRAME_BYTES
MGMT_BITS = 8 * OVERHEAD_BYTES          # a management frame: no body
MAX_PAYLOAD = 255
MAX_FRAME_BYTES = MAX_PAYLOAD + OVERHEAD_BYTES
MAX_FRAGMENT_INDEX = 127
# CRC-16/CCITT has Hamming distance 4 up to the largest frame (Koopman and
# Chakravarty, DSN 2004): every error of fewer bit flips fails the checksum.
CRC_HAMMING_DISTANCE = 4

_LAST_FRAGMENT_BIT = 0x80


class FrameType(IntEnum):
    DATA = 0
    ACK = 1
    MGMT_REQUEST = 2      # node -> hub: ask to join
    MGMT_ASSIGNMENT = 3   # hub -> node: connection granted
    MGMT_DISCONNECT = 4   # either direction: tear down / reject


_TYPE_BY_VALUE = {int(t): t for t in FrameType}


def compute_crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE of `data` (check value of b"123456789" is 0x29B1)."""
    return binascii.crc_hqx(data, 0xFFFF)


def _syndromes() -> tuple[int, ...]:
    """``x^d mod g(x)`` for every ``d`` below the largest frame's bit count,
    with ``g(x) = x^16 + x^12 + x^5 + 1``."""
    table, syndrome = [], 1
    for _ in range(MAX_FRAME_BYTES * 8):
        table.append(syndrome)
        syndrome <<= 1
        if syndrome >> 16:
            syndrome ^= 0x11021
    return tuple(table)


# A received frame's syndrome, its computed CRC xor its CRC field, is 0 when
# it is intact and linear in the error pattern; the 0xFFFF init cancels
# between frames of equal length (Peterson and Brown, Proc. IRE 1961).  So a
# flip `d` bits before the frame's end adds CRC_SYNDROMES[d], whatever the
# frame's length, and an error passes the checksum exactly when the xor of
# its flips' entries is 0.
CRC_SYNDROMES = _syndromes()


@dataclass
class FrameHeader:
    frame_type: FrameType
    recipient_id: int
    sender_id: int
    sequence: int
    fragment_index: int = 0
    last_fragment: bool = True

    def validate(self) -> None:
        if self.frame_type not in _TYPE_BY_VALUE:
            raise RangeError(f"unknown frame type {self.frame_type!r}")
        for name in ("recipient_id", "sender_id", "sequence"):
            value = getattr(self, name)
            if not 0 <= value <= 255:
                raise RangeError(f"{name}={value} does not fit in one byte")
        if not 0 <= self.fragment_index <= MAX_FRAGMENT_INDEX:
            raise RangeError(f"fragment_index={self.fragment_index} exceeds 7 bits")


@dataclass
class Frame:
    header: FrameHeader
    body: bytes = b""

    @property
    def acked_sequence(self) -> int:
        if self.header.frame_type is not FrameType.ACK:
            raise ValueError("not an Ack frame")
        return self.body[0]


def data_frame(recipient: int, sender: int, sequence: int, payload: bytes,
               fragment_index: int = 0, last_fragment: bool = True) -> Frame:
    header = FrameHeader(FrameType.DATA, recipient, sender, sequence,
                         fragment_index, last_fragment)
    return Frame(header, bytes(payload))


def ack_frame(recipient: int, sender: int, acked_sequence: int) -> Frame:
    header = FrameHeader(FrameType.ACK, recipient, sender, acked_sequence)
    return Frame(header, bytes([acked_sequence]))


def management_frame(frame_type: FrameType, recipient: int, sender: int,
                     sequence: int) -> Frame:
    return Frame(FrameHeader(frame_type, recipient, sender, sequence))


def encode_frame(frame: Frame) -> bytes:
    """Serialize `frame`; raises RangeError on out-of-range fields."""
    header = frame.header
    header.validate()
    if len(frame.body) > MAX_PAYLOAD:
        raise RangeError(f"body of {len(frame.body)} bytes exceeds {MAX_PAYLOAD}")
    if header.frame_type is FrameType.ACK and len(frame.body) != 1:
        raise RangeError("Ack frames carry exactly one body byte")
    fragment_control = header.fragment_index | (
        _LAST_FRAGMENT_BIT if header.last_fragment else 0)
    wire = bytes((
        int(header.frame_type),
        header.recipient_id,
        header.sender_id,
        header.sequence,
        fragment_control,
        len(frame.body),
    )) + frame.body
    return wire + compute_crc16(wire).to_bytes(2, "big")


def _parse_header(data: bytes) -> FrameHeader:
    """Header parse without integrity or consistency checks."""
    frame_control = data[0]
    frame_type = _TYPE_BY_VALUE.get(frame_control)
    if frame_type is None:
        raise MalformedError(f"unknown frame_control byte 0x{frame_control:02x}")
    return FrameHeader(
        frame_type=frame_type,
        recipient_id=data[1],
        sender_id=data[2],
        sequence=data[3],
        fragment_index=data[4] & MAX_FRAGMENT_INDEX,
        last_fragment=bool(data[4] & _LAST_FRAGMENT_BIT),
    )


def decode_frame(data: bytes) -> Frame:
    """Parse `data` back into the unique Frame whose encoding it is.

    Raises TruncatedError below the minimum length, CrcError on checksum
    mismatch (with the best-effort header attached), and MalformedError
    when the checksum passes but the bytes are structurally inconsistent.
    """
    if len(data) < OVERHEAD_BYTES:
        raise TruncatedError(f"{len(data)} bytes is below the {OVERHEAD_BYTES}-byte minimum")
    received = int.from_bytes(data[-2:], "big")
    computed = compute_crc16(data[:-2])
    if received != computed:
        try:
            header = _parse_header(data)
        except MalformedError:
            header = None
        raise CrcError(
            f"checksum mismatch (got 0x{received:04x}, computed 0x{computed:04x})",
            header=header)
    header = _parse_header(data)
    if data[5] != len(data) - OVERHEAD_BYTES:
        raise MalformedError(
            f"payload_len={data[5]} inconsistent with frame of {len(data)} bytes")
    if header.frame_type is FrameType.ACK and len(data) != ACK_FRAME_BYTES:
        raise MalformedError(f"Ack frame must be {ACK_FRAME_BYTES} bytes, got {len(data)}")
    return Frame(header, bytes(data[6:-2]))
