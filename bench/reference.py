"""A fixed pure-Python loop that measures how fast the machine runs right now.

The benchmark times it before every timed operation and divides by it (see
``run.py``).  It is a frozen imitation of the work wbansim does, so that it
slows down as wbansim does when neighbours on a shared host take the CPU.
Two thirds of it is a frame exchange: 64 node objects with counters, queues
and memo tables, a heap scheduler, dataclass frames with an enum type, CRC
encoding and decoding, and string keyed drop counters.  The rest is
closed-form work: small float functions, a bisection and a gradient descent.
It imports nothing from wbansim, so no change to wbansim changes its time.
"""

import binascii
import enum
import heapq
import math
import time
from collections import Counter, deque
from dataclasses import dataclass


class _Kind(enum.Enum):
    DATA = 0
    ACK = 1


@dataclass
class _Header:
    kind: _Kind
    sender: int
    recipient: int
    sequence: int
    length: int = 0


@dataclass
class _Frame:
    header: _Header
    body: bytes = b""


class _Node:
    def __init__(self, ident: int):
        self.ident = ident
        self.now = 0.0
        self.sequence = 0
        self.sent = 0
        self.inbox: deque = deque()
        self.drops: Counter = Counter()
        self.received: Counter = Counter()
        self.acks: dict = {}


def _encode(frame: _Frame) -> bytes:
    h = frame.header
    wire = bytes((h.kind.value, h.recipient, h.sender, h.sequence, 0, h.length)) + frame.body
    return wire + binascii.crc_hqx(wire, 0xFFFF).to_bytes(2, "big")


def _decode(wire: bytes) -> _Frame:
    if binascii.crc_hqx(wire[:-2], 0xFFFF) != int.from_bytes(wire[-2:], "big"):
        raise ValueError("crc")
    return _Frame(_Header(_Kind(wire[0]), wire[2], wire[1], wire[3], wire[5]),
                  bytes(wire[6:-2]))


def _exchanges(n: int) -> int:
    nodes = [_Node(i + 1) for i in range(64)]
    hub = _Node(0)
    heap = [(0.0, i) for i in range(64)]
    payloads = [bytes((i * 7 + k) & 255 for k in range(10)) for i in range(64)]
    for i in range(n):
        t, k = heapq.heappop(heap)
        node = nodes[k]
        frame = _Frame(_Header(_Kind.DATA, node.ident, 0, node.sequence, 10), payloads[k])
        node.sequence = (node.sequence + 1) & 255
        node.sent += 1
        wire = _encode(frame)
        if i % 53 == 0:
            wire = wire[:3] + bytes((wire[3] ^ 4,)) + wire[4:]
        hub.inbox.append(wire)
        try:
            data = _decode(hub.inbox.popleft())
        except ValueError:
            hub.drops["crc"] += 1
            hub.drops[f"crc_from_{node.ident}"] += 1
            node.now = t + 0.05
            heapq.heappush(heap, (node.now, k))
            continue
        hub.received[data.header.sender] += 1
        key = (data.header.sender, data.header.sequence)
        ack = hub.acks.get(key)
        if ack is None:
            ack = _encode(_Frame(_Header(_Kind.ACK, 0, data.header.sender,
                                         data.header.sequence, 1),
                                 bytes((data.header.sequence,))))
            hub.acks[key] = ack
        node.inbox.append(ack)
        reply = _decode(node.inbox.popleft())
        if reply.header.kind is _Kind.ACK and reply.body[0] == frame.header.sequence:
            node.now = t + 0.00178
        heapq.heappush(heap, (node.now, k))
    return sum(node.sent for node in nodes)


def _check(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(p)


def _ack_bits(p: float) -> float:
    _check(p)
    return sum(72.0 * j * p ** (j - 1) * (1.0 - p) for j in range(1, 6))


def _failure(payload: float, p: float) -> float:
    _check(p)
    return -math.expm1((8.0 * (payload + 8.0) + _ack_bits(p)) * math.log1p(-p))


def _models(n: int) -> float:
    total = 0.0
    for i in range(n):
        p = 1e-5 * (1 + i % 997)
        lo, hi = 0.0, 0.01
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _failure(10, mid) < _failure(i % 31, p) else (lo, mid)
        x = 15.0
        for _ in range(4):
            x -= 0.25 * x * (-8.0 * math.log(1.0 - p) * (1.0 - p) ** x)
        total += lo + x
    return total


def seconds(n: int = 6_000) -> float:
    """Wall time of one pass of the loop: about 0.1 s here on a quiet host."""
    started = time.perf_counter()
    _exchanges(n)
    _models(n // 6)
    return time.perf_counter() - started
