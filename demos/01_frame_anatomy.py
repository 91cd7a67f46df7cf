"""Walk through the wire format byte by byte.

Every frame carries 6 header bytes and a 2-byte CRC-16/CCITT-FALSE around
its body, so a data frame costs payload+8 bytes on air and an ack costs
exactly 9.  Run me:  python demos/01_frame_anatomy.py
"""

from wbansim import ack_frame, compute_crc16, data_frame, decode_frame, encode_frame
from wbansim.errors import CrcError

print("=== a 10-byte sensor reading inside a data frame ===")
reading = bytes(range(10))
frame = data_frame(recipient=0, sender=3, sequence=42, payload=reading)
wire = encode_frame(frame)
print(f"payload bytes : {reading.hex()}")
print(f"on the wire   : {wire.hex()}  ({len(wire)} bytes = 10 payload + 8 overhead)")
print(f"header fields : type={frame.header.frame_type.name} to={frame.header.recipient_id}"
      f" from={frame.header.sender_id} seq={frame.header.sequence}")
print(f"checksum      : 0x{int.from_bytes(wire[-2:], 'big'):04x} (tail two bytes, big endian)")

print()
print("=== the matching ack is always 9 bytes ===")
ack = ack_frame(recipient=3, sender=0, acked_sequence=42)
print(f"ack wire      : {encode_frame(ack).hex()}  ({len(encode_frame(ack))} bytes)")

print()
print("=== decoding is exact or it is an error ===")
assert decode_frame(wire) == frame
print("clean bytes decode back to the identical frame")

damaged = bytearray(wire)
damaged[7] ^= 0x10   # flip one bit mid-payload
try:
    decode_frame(bytes(damaged))
except CrcError as exc:
    print(f"one flipped bit -> {type(exc).__name__}; "
          f"best-effort sender id {exc.header.sender_id} still readable")

print()
print("=== the checksum is the published CCITT-FALSE variant ===")
print(f"crc16('123456789') = 0x{compute_crc16(b'123456789'):04X}  (expected 0x29B1)")
