"""Polling MAC engine: management, data service, and data transmission.

Each device splits its work three ways, mirroring the protocol's service
split:

- management: connection build-up/tear-down handshake and the hub's
  connected-node table (capacity 64)
- data service: fragmentation of service data units into frame payloads
  and reassembly of arriving fragments, with a gap timeout
- data transmission: framing, CRC verification, address judgment, acks,
  and stop-and-wait ARQ with a retry limit

Requests from above are calls: ``request_connect``, ``request_disconnect``
and ``request_send`` each record their request in the trace, do the work at
once and return the poll outputs.  The inbox holds only received wire
bytes.  Indications and confirms travel upward as Primitives.  Poll outputs
are action tuples: ``("tx", frame, wire_bytes)`` for transmissions and
``("ind", primitive)`` for upward notifications.

Drivers use a small public surface: the three requests, ``submit``, which
hands a list of frames down as one SDU and returns its id with the first
poll outputs, ``poll_step``, which handles one received frame if there is
one and then checks the timers, and ``next_deadline``, which says when the
device next needs polling with an empty inbox.  ``pump`` is the one loop
that carries frames between a sender and its peer over a `LinkHandle`,
until the sender is idle; ``send_with_arq`` (one data frame through
stop-and-wait ARQ) and ``establish_connection`` (the join handshake) start
an exchange, pump it and read the result.

``send_clean`` and ``join_clean`` are the driver-side arithmetic twins of
``send_with_arq`` and ``establish_connection``, on the same arguments
(``send_clean`` adds `until`): each takes the exchanges whose flips decide
their fate without building frames; ``_at_rest`` is the steady-state rule
both apply to both devices.

Timing is virtual and counts integer ticks, one bit period each: a frame's
airtime is ``len(wire) * 8`` ticks.  A driver (the simulator or a test)
advances ``device.now`` and the device compares it against its one
deadline: the join timer while CONNECTING, or the ack timer of its pending
frame, which a node gives up when it leaves and a hub gives up when its
recipient leaves.  ``ACK_TIMEOUT`` is the airtime of one maximum-size frame
plus a 2x guard, the smallest value that can never expire on an exchange
that is still in flight.  Trace times are ticks too: seconds appear only
where the simulator and the CLI divide ticks by ``data_rate_bps``.
"""

import math
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum, auto
from typing import Optional

from .channel import ChannelModel, FrameCorruptor
from .errors import (CrcError, EmptySduError, MalformedError, ProtocolError,
                     RangeError, TruncatedError)
from .frames import (ACK_BITS, CRC_SYNDROMES, MAX_FRAGMENT_INDEX, MAX_FRAME_BYTES,
                     MAX_PAYLOAD, MGMT_BITS, OVERHEAD_BYTES, Frame, FrameType, ack_frame,
                     data_frame, decode_frame, encode_frame, management_frame)

MAX_NODES = 64
MAX_FRAGMENTS = MAX_FRAGMENT_INDEX + 1
JOIN_MAX_ROUNDS = 63
# timers, in ticks
ACK_TIMEOUT = 3 * MAX_FRAME_BYTES * 8
REASSEMBLY_TIMEOUT = 10 * ACK_TIMEOUT


class PrimitiveFamily(Enum):
    MANAGEMENT = auto()
    DATA_SERVICE = auto()
    DATA_TRANSFER = auto()


class PrimitiveKind(Enum):
    REQUEST = auto()
    CONFIRM = auto()
    INDICATION = auto()


@dataclass
class Primitive:
    family: PrimitiveFamily
    kind: PrimitiveKind
    payload: dict


class Role(Enum):
    HUB = auto()
    NODE = auto()


class Connection(Enum):
    IDLE = auto()
    CONNECTING = auto()
    CONNECTED = auto()


@dataclass
class TransmissionOutcome:
    success: bool
    attempts_used: int


@dataclass
class _PendingAck:
    frame: Frame
    wire: bytes
    sdu_id: int
    attempts_used: int


@dataclass
class _ReassemblyEntry:
    chunks: dict
    last_index: Optional[int]
    deadline: int


def ack_timeout_for_rate(data_rate_bps: float) -> float:
    """The ack timeout in seconds at `data_rate_bps`."""
    return ACK_TIMEOUT / data_rate_bps


def fragment_sdu(sdu: bytes) -> list[bytes]:
    """Split `sdu` into consecutive chunks of at most `MAX_PAYLOAD` bytes.

    Concatenating the result reproduces `sdu` exactly; the final chunk is
    the only one allowed to be short.
    """
    if len(sdu) == 0:
        raise EmptySduError("cannot fragment an empty service data unit")
    return [bytes(sdu[i:i + MAX_PAYLOAD]) for i in range(0, len(sdu), MAX_PAYLOAD)]


class Device:
    """One hub or node: state, counters, and the three-way poll dispatch."""

    def __init__(self, role: Role, device_id: int, *, max_retries: int = 3,
                 trace: Optional[list] = None):
        if not 0 <= device_id <= 255:
            raise RangeError(f"device_id={device_id} does not fit in one byte")
        self.role = role
        self.device_id = device_id
        self.max_retries = max_retries
        self.trace = trace

        self.now = 0                               # ticks
        self.connection = Connection.IDLE
        self.hub_id: Optional[int] = None          # node side
        self.registry: set[int] = set()            # hub side: connected node ids
        self.next_sequence = 0
        self.inbox: deque = deque()
        self.last_accepted: dict[int, int] = {}    # sender -> last data sequence

        self._tx_queue: deque = deque()            # _PendingAck records, unsent
        self._pending: Optional[_PendingAck] = None
        self._deadline: Optional[int] = None       # join (CONNECTING) or ack timer
        self._reassembly: dict = {}                # (sender, base_seq) -> entry

        # raw tallies; the simulator folds them into per-link counters
        self.frames_sent = 0        # data-frame transmission attempts
        self.packets_sent = 0       # distinct SDUs handed down; the next SDU id
        self.packets_delivered = 0  # SDUs confirmed by ack
        self.packets_lost = 0       # SDUs given up
        self.rx_frames: Counter = Counter()   # per sender, intact data frames
        self.rx_packets: Counter = Counter()  # per sender, completed SDUs
        self.drops: Counter = Counter()       # reason -> count

    # ------------------------------------------------------------------ API

    def deliver(self, wire: bytes) -> None:
        """Queue received wire bytes for the next poll."""
        self.inbox.append(wire)

    def request_connect(self, hub_id: int) -> list:
        """Send a join request to `hub_id`, arm its retry timer; give back the outputs."""
        self._record(PrimitiveFamily.MANAGEMENT, PrimitiveKind.REQUEST)
        outputs: list = []
        if self.role is not Role.NODE or self.connection is not Connection.IDLE:
            self.drops["protocol"] += 1
            return outputs
        self.hub_id = hub_id
        self.connection = Connection.CONNECTING
        self._send_join_request(outputs)
        return outputs

    def request_disconnect(self) -> list:
        """Tell the hub this node leaves and leave at once; give back the outputs."""
        self._record(PrimitiveFamily.MANAGEMENT, PrimitiveKind.REQUEST)
        outputs: list = []
        if self.role is not Role.NODE or self.connection is not Connection.CONNECTED:
            self.drops["protocol"] += 1
            return outputs
        self._send_mgmt(FrameType.MGMT_DISCONNECT, self.hub_id, outputs)
        self._leave(PrimitiveKind.CONFIRM, "disconnected", self.hub_id, outputs)
        return outputs

    def request_send(self, sdu: bytes) -> list:
        """Fragment `sdu` into data frames for the hub; give back `submit`'s outputs."""
        self._record(PrimitiveFamily.DATA_SERVICE, PrimitiveKind.REQUEST)
        if self.hub_id is None:
            raise ProtocolError("no hub association; connect before sending data")
        chunks = fragment_sdu(sdu)
        if len(chunks) > MAX_FRAGMENTS:
            raise RangeError(
                f"SDU needs {len(chunks)} fragments; the header carries at most {MAX_FRAGMENTS}")
        last = len(chunks) - 1
        frames = [data_frame(self.hub_id, self.device_id, 0, chunk,
                             fragment_index=i, last_fragment=(i == last))
                  for i, chunk in enumerate(chunks)]
        return self.submit(frames)[1]

    def submit(self, frames: list[Frame]) -> tuple[int, list]:
        """Hand `frames` down as one SDU; give back its id and the poll outputs.

        Each frame takes the next sequence number and is encoded before any
        counter moves, so a frame no wire carries raises with the device as it
        was.  The first one goes on air at once when the device is idle and
        (for a node) connected; the rest wait for the ack of the one before.
        """
        sdu_id = self.packets_sent
        for i, frame in enumerate(frames):
            frame.header.sequence = (self.next_sequence + i) & 0xFF
        queued = [_PendingAck(frame, encode_frame(frame), sdu_id, 0) for frame in frames]
        self.next_sequence = (self.next_sequence + len(frames)) & 0xFF
        self.packets_sent += 1
        self._tx_queue.extend(queued)
        outputs: list = []
        self._transmit_next(outputs)
        return sdu_id, outputs

    @property
    def next_deadline(self) -> Optional[int]:
        """The armed ack or join deadline; None when none is armed."""
        return self._deadline

    @property
    def open_reassemblies(self) -> int:
        """SDUs partly received, each with its gap timer armed."""
        return len(self._reassembly)

    def poll_step(self) -> list:
        """Handle one received frame if there is one, then check the timers."""
        outputs: list = []
        if self.inbox:
            self._on_wire(self.inbox.popleft(), outputs)
        self._check_timers(outputs)
        return outputs

    # ------------------------------------------------------- event dispatch

    def _record(self, family: PrimitiveFamily, kind: PrimitiveKind) -> None:
        if self.trace is not None:
            self.trace.append((self.now, self.device_id, family.name, kind.name))

    def _emit(self, outputs: list, primitive: Primitive) -> None:
        self._record(primitive.family, primitive.kind)
        outputs.append(("ind", primitive))

    def _on_wire(self, wire: bytes, outputs: list) -> None:
        try:
            frame = decode_frame(wire)
        except CrcError:
            self.drops["crc"] += 1
            return
        except TruncatedError:
            self.drops["truncated"] += 1
            return
        except MalformedError:
            self.drops["malformed"] += 1
            return
        if frame.header.recipient_id != self.device_id:
            self.drops["address"] += 1
            return
        ftype = frame.header.frame_type
        if ftype is FrameType.DATA:
            self._data_rx(frame, outputs)
        elif ftype is FrameType.ACK:
            self._ack_rx(frame, outputs)
        else:
            self._on_management(frame, outputs)

    def _check_timers(self, outputs: list) -> None:
        if self._deadline is not None and self.now >= self._deadline:
            if self._pending is None:
                self._send_join_request(outputs)
            elif self._pending.attempts_used <= self.max_retries:
                self._transmit_pending(outputs)
            else:
                self._give_up(outputs)
                self._transmit_next(outputs)
        if self._reassembly:
            expired = [key for key, entry in self._reassembly.items()
                       if self.now >= entry.deadline]
            for key in expired:
                entry = self._reassembly.pop(key)
                self.drops["gap"] += 1
                self._emit(outputs, Primitive(
                    PrimitiveFamily.DATA_SERVICE, PrimitiveKind.INDICATION,
                    {"error": "gap", "sender": key[0],
                     "missing": self._missing_indices(entry)}))

    # ----------------------------------------------------------- management

    def _on_management(self, frame: Frame, outputs: list) -> None:
        """Connection handshake: build-up, assignment, tear-down."""
        ftype = frame.header.frame_type
        sender = frame.header.sender_id
        if ftype is FrameType.MGMT_REQUEST:
            if self.role is not Role.HUB:
                self.drops["protocol"] += 1
                return
            if sender in self.registry:
                self._send_mgmt(FrameType.MGMT_ASSIGNMENT, sender, outputs)
                return
            if len(self.registry) >= MAX_NODES:
                self.drops["capacity"] += 1
                self._send_mgmt(FrameType.MGMT_DISCONNECT, sender, outputs)
                return
            self.registry.add(sender)
            self._send_mgmt(FrameType.MGMT_ASSIGNMENT, sender, outputs)
            self._emit(outputs, Primitive(
                PrimitiveFamily.MANAGEMENT, PrimitiveKind.INDICATION,
                {"event": "node_joined", "node_id": sender}))
        elif ftype is FrameType.MGMT_ASSIGNMENT:
            if self.role is not Role.NODE or self.connection is not Connection.CONNECTING \
                    or sender != self.hub_id:
                self.drops["protocol"] += 1
                return
            self.connection = Connection.CONNECTED
            self._deadline = None
            self._emit(outputs, Primitive(
                PrimitiveFamily.MANAGEMENT, PrimitiveKind.CONFIRM,
                {"event": "connected", "hub_id": sender}))
            self._transmit_next(outputs)   # flush data held during the handshake
        elif ftype is FrameType.MGMT_DISCONNECT:
            if self.role is Role.HUB:
                if sender in self.registry:
                    self.registry.remove(sender)
                    pending = self._pending
                    if pending is not None and pending.frame.header.recipient_id == sender:
                        self._give_up(outputs)
                        self._transmit_next(outputs)
                    self._emit(outputs, Primitive(
                        PrimitiveFamily.MANAGEMENT, PrimitiveKind.INDICATION,
                        {"event": "node_left", "node_id": sender}))
                else:
                    self.drops["protocol"] += 1
            elif self.connection is Connection.IDLE or sender != self.hub_id:
                self.drops["protocol"] += 1
            elif self.connection is Connection.CONNECTING:
                # join rejected (hub at capacity)
                self._leave(PrimitiveKind.CONFIRM, "rejected", sender, outputs)
            else:
                self._leave(PrimitiveKind.INDICATION, "disconnected", sender, outputs)

    def _send_join_request(self, outputs: list) -> None:
        # the join deadline is armed only while CONNECTING: every way out of
        # that state (assignment, _leave) disarms it
        self._send_mgmt(FrameType.MGMT_REQUEST, self.hub_id, outputs)
        self._deadline = self.now + ACK_TIMEOUT

    def _leave(self, kind: PrimitiveKind, event: str, hub_id: int, outputs: list) -> None:
        """Back to IDLE holding no deadline, giving up any pending frame; tell
        the layer above.  Later SDUs stay queued for the next connect."""
        self.connection = Connection.IDLE
        self._deadline = None
        if self._pending is not None:
            self._give_up(outputs)
        self._emit(outputs, Primitive(PrimitiveFamily.MANAGEMENT, kind,
                                      {"event": event, "hub_id": hub_id}))

    def _send_mgmt(self, ftype: FrameType, recipient: int, outputs: list) -> None:
        frame = management_frame(ftype, recipient, self.device_id, self._take_sequence())
        outputs.append(("tx", frame, encode_frame(frame)))

    # --------------------------------------------------------- data service

    def _take_sequence(self) -> int:
        seq = self.next_sequence
        self.next_sequence = (seq + 1) & 0xFF
        return seq

    def reassemble(self, frame: Frame) -> Optional[bytes]:
        """Feed one data frame in; give the whole SDU back once complete.

        Fragments may arrive in any order.  Grouping key is the sequence
        number the first fragment carried, recovered as
        (sequence - fragment_index) mod 256.
        """
        header = frame.header
        if header.fragment_index == 0 and header.last_fragment:
            return frame.body   # unfragmented SDU
        base_seq = (header.sequence - header.fragment_index) & 0xFF
        key = (header.sender_id, base_seq)
        entry = self._reassembly.get(key)
        if entry is None:
            entry = _ReassemblyEntry({}, None, self.now + REASSEMBLY_TIMEOUT)
            self._reassembly[key] = entry
        entry.chunks[header.fragment_index] = frame.body
        if header.last_fragment:
            entry.last_index = header.fragment_index
        if entry.last_index is None or len(entry.chunks) != entry.last_index + 1:
            return None
        del self._reassembly[key]
        return b"".join(entry.chunks[i] for i in range(entry.last_index + 1))

    @staticmethod
    def _missing_indices(entry: _ReassemblyEntry) -> list[int]:
        upper = entry.last_index if entry.last_index is not None else max(entry.chunks)
        return [i for i in range(upper + 1) if i not in entry.chunks]

    # ---------------------------------------------------- data transmission

    def _data_rx(self, frame: Frame, outputs: list) -> None:
        sender = frame.header.sender_id
        if self.role is Role.HUB:
            if sender not in self.registry:
                self.drops["access"] += 1
                return
        elif not (self.connection is Connection.CONNECTED and sender == self.hub_id):
            self.drops["access"] += 1
            return
        self.rx_frames[sender] += 1
        ack = ack_frame(sender, self.device_id, frame.header.sequence)
        outputs.append(("tx", ack, encode_frame(ack)))
        if self.last_accepted.get(sender) == frame.header.sequence:
            self.drops["duplicate"] += 1
            return
        self.last_accepted[sender] = frame.header.sequence
        sdu = self.reassemble(frame)
        if sdu is not None:
            self.rx_packets[sender] += 1
            self._emit(outputs, Primitive(
                PrimitiveFamily.DATA_SERVICE, PrimitiveKind.INDICATION,
                {"sdu": sdu, "sender": sender}))

    def _ack_rx(self, frame: Frame, outputs: list) -> None:
        pending = self._pending
        if pending is None or frame.acked_sequence != pending.frame.header.sequence:
            self.drops["stale_ack"] += 1
            return
        if pending.frame.header.last_fragment:
            self.packets_delivered += 1
        self._resolve(True, outputs)
        self._transmit_next(outputs)

    def _transmit_next(self, outputs: list) -> None:
        """Send the next queued frame; a hub gives up each SDU for a node not connected."""
        while self._pending is None and self._tx_queue:
            if self.connection is not Connection.CONNECTED and self.role is Role.NODE:
                return  # handshake safety: hold data until Connected
            pending = self._pending = self._tx_queue.popleft()
            if self.role is Role.HUB and pending.frame.header.recipient_id not in self.registry:
                self._give_up(outputs)
            else:
                self._transmit_pending(outputs)

    def _transmit_pending(self, outputs: list) -> None:
        pending = self._pending
        pending.attempts_used += 1
        self._deadline = self.now + len(pending.wire) * 8 + ACK_TIMEOUT
        self.frames_sent += 1
        outputs.append(("tx", pending.frame, pending.wire))

    def _give_up(self, outputs: list) -> None:
        self.packets_lost += 1
        # the rest of this SDU is pointless; drop queued siblings
        while self._tx_queue and self._tx_queue[0].sdu_id == self._pending.sdu_id:
            self._tx_queue.popleft()
        self._resolve(False, outputs)

    def _resolve(self, success: bool, outputs: list) -> None:
        """Clear the pending frame and its deadline and confirm it."""
        pending = self._pending
        self._pending = None
        self._deadline = None
        self._emit(outputs, Primitive(
            PrimitiveFamily.DATA_TRANSFER, PrimitiveKind.CONFIRM,
            {"success": success, "sequence": pending.frame.header.sequence,
             "attempts_used": pending.attempts_used, "sdu_id": pending.sdu_id}))


# -------------------------------------------------------------- link drivers

@dataclass
class LinkHandle:
    """Channel endpoints for one node<->hub pair, with its own substreams."""

    peer: Device
    uplink: FrameCorruptor    # sender -> peer
    downlink: FrameCorruptor  # peer -> sender

    def to_peer(self, wire: bytes) -> bytes:
        return self.uplink.corrupt(wire)

    def to_sender(self, wire: bytes) -> bytes:
        return self.downlink.corrupt(wire)


def make_link(sender: Device, peer: Device, model: ChannelModel, ber: float) -> LinkHandle:
    return LinkHandle(
        peer,
        FrameCorruptor(model.stream((sender.device_id, peer.device_id)), ber),
        FrameCorruptor(model.stream((peer.device_id, sender.device_id)), ber))


def pump(sender: Device, link: LinkHandle, outputs: list, max_rounds: int) -> list:
    """Carry frames between `sender` and `link.peer` until the sender is idle.

    Each round ferries every transmission among the sender's outputs through
    the channel, polls the peer once per frame, ferries the peer's replies
    back, then polls the sender, first jumping the clock to its next
    deadline when its inbox is empty.  Airtime of both directions is charged
    to the sender's clock; the peer's clock is pulled forward to match.  It
    stops when the sender has an empty inbox and no deadline, or when
    `max_rounds` run out, and returns the sender's indications in order.
    """
    peer = link.peer
    indications = []
    for _ in range(max_rounds):
        for item in outputs:
            if item[0] == "ind":
                indications.append(item[1])
                continue
            wire = item[2]
            sender.now += len(wire) * 8
            if peer.now < sender.now:
                peer.now = sender.now
            peer.deliver(link.to_peer(wire))
            for reply in peer.poll_step():
                if reply[0] == "tx":
                    sender.now += len(reply[2]) * 8
                    sender.deliver(link.to_sender(reply[2]))
        if not sender.inbox:
            deadline = sender.next_deadline
            if deadline is None:
                return indications
            if deadline > sender.now:
                sender.now = deadline
        outputs = sender.poll_step()
    return indications


def send_with_arq(sender: Device, link: LinkHandle, payload_len: int) -> TransmissionOutcome:
    """Drive one data frame of `payload_len` zero bytes to ``link.peer``
    through the ARQ loop; CRC-16 is affine, so the bytes decide no outcome.

    Success means some attempt's data frame AND its ack both came through
    uncorrupted.  A `payload_len` outside ``0..MAX_PAYLOAD`` raises
    RangeError before any device changes.  The exchange is pumped until the
    sender is idle, within ``8 * (max_retries + 2)`` rounds, so SDUs queued
    ahead of or behind the frame go on air too; ProtocolError is raised when
    the frame's confirm does not come within them (e.g. behind a long queued
    SDU).
    """
    if not 0 <= payload_len <= MAX_PAYLOAD:
        raise RangeError(f"payload_len={payload_len} must be in 0..{MAX_PAYLOAD}")
    if sender.connection is not Connection.CONNECTED:
        raise ProtocolError("sender is not connected")
    frame = data_frame(link.peer.device_id, sender.device_id, 0, bytes(payload_len))
    sdu_id, outputs = sender.submit([frame])
    for p in pump(sender, link, outputs, 8 * (sender.max_retries + 2)):
        if p.family is PrimitiveFamily.DATA_TRANSFER and p.payload["sdu_id"] == sdu_id:
            return TransmissionOutcome(p.payload["success"], p.payload["attempts_used"])
    raise ProtocolError("ARQ exchange did not resolve")


def _at_rest(device: Device) -> bool:
    """Whether an arithmetic twin may act for `device`: the one rule that
    ``send_clean`` and ``join_clean`` apply to both their devices.

    The device is untraced, its inbox is empty, and it holds no armed
    deadline (no pending frame, no join under way) and no open reassembly.
    Its next poll then only handles the frame the twin decides: a trace, a
    waiting frame, an expiring timer or a reassembly gap would each make the
    frame path do more than the twin accounts for.
    """
    return (device.trace is None and not device.inbox
            and device.next_deadline is None and not device.open_reassemblies)


def send_clean(sender: Device, link: LinkHandle, payload_len: int,
               until: int) -> int:
    """Account the packets of one `payload_len`-byte data frame each that
    start before `until`, up to the first whose fate the CRC could leave
    open.

    The channel can say where the flips of a link's next frames will land
    before any frame exists.  Between connected devices at rest
    (``_at_rest``) a packet's fate follows from them: a frame with no flip
    arrives intact, and one with flips fails its checksum unless the xor of
    their ``frames.CRC_SYNDROMES`` entries, the frame's syndrome, is 0.  Each
    attempt then goes as in ``send_with_arq``: a lost data frame or ack ends
    at the attempt's deadline, the hub accepts an intact data frame or
    counts it a duplicate, and a packet whose attempts all fail is lost.  A
    packet with a frame of flips and a zero syndrome, which the CRC misses
    and the receiver decodes as some other frame or finds malformed, is left
    to the frame path.
    Returns how many packets were taken.  At 0 the devices are unchanged
    and the caller sends the next packet with ``send_with_arq`` on the same
    arguments less `until`, which flips the bits looked at here: a packet
    left to the frame path hands the gaps it drew back to ``ahead``, where
    ``corrupt`` takes them before it draws.
    While either direction holds such gaps it declines.  `until` is a tick,
    an int like ``sender.now``; a `payload_len` outside ``0..MAX_PAYLOAD``
    raises RangeError.

    One loop walks both substreams (``FrameCorruptor.gap`` and fresh draws)
    in local variables.  Each step is a run of clean exchanges, taken
    without a loop up to `until`, or one packet decided by its frames'
    syndromes.  Both add to the packets, the sequence numbers and the
    packets the hub accepts; a decided packet adds its deficits too: its
    retries, its corrupted data frames and whether it was lost.  The hub
    clock is pulled forward to the last data arrival.  A decided packet
    draws each gap inline, by ``draw``'s inversion over the substream's
    ``rng`` and ``log_q``, and keeps the gaps it drew until its fate is
    known.  After the loop one block derives the data frames, the intact
    ones and the acked packets, and changes the counters, drops and
    sequence numbers as the frame path would, and each substream's gap is
    set to the gap after the taken packets.  At ``ber`` 0 only
    `until` ends a run.  Each link draws from its own substreams, so taking
    one link's frames cannot move another's.
    """
    if not 0 <= payload_len <= MAX_PAYLOAD:
        raise RangeError(f"payload_len={payload_len} must be in 0..{MAX_PAYLOAD}")
    hub = link.peer
    node_id = sender.device_id
    uplink, downlink = link.uplink, link.downlink
    # a connected sender with no armed deadline has no ack pending, and so
    # an empty transmit queue
    if (not _at_rest(sender) or not _at_rest(hub)
            or sender.connection is not Connection.CONNECTED
            or sender.hub_id != hub.device_id or node_id not in hub.registry
            or uplink.ahead or downlink.ahead):
        return 0
    # the module globals the loop reads, as locals
    ack_bits, timeout, syndromes, log1p = ACK_BITS, ACK_TIMEOUT, CRC_SYNDROMES, math.log1p
    data_bits = (payload_len + OVERHEAD_BYTES) * 8
    exchange = data_bits + ack_bits
    # a flip at `pos` lies `last - pos` bits before its frame's end
    data_last, ack_last = data_bits - 1, ack_bits - 1
    tries = sender.max_retries + 1
    now = arrival = sender.now
    seq = sender.next_sequence
    last = hub.last_accepted.get(node_id)
    packets = accepted = retries = corrupted = lost = 0
    # per direction: clean bits before the next flip from the next frame's
    # start, and what draw's inversion reads: log_q is capped, so every
    # quotient is a finite float
    up_gap, up_random, up_logq = uplink.gap, uplink.rng.random, uplink.log_q
    down_gap, down_random, down_logq = downlink.gap, downlink.rng.random, downlink.log_q
    while now < until:
        run = up_gap // data_bits
        acks = down_gap // ack_bits
        if acks < run:
            run = acks
        if run:   # one attempt each, data frame and ack intact
            # the run's exchanges that start before `until`: all of them
            # when its last one does, else one division counts them
            final_start = now + (run - 1) * exchange
            n = run if final_start < until else (until - now - 1) // exchange + 1
            now += n * exchange
            arrival = now - ack_bits
            up_gap -= n * data_bits
            down_gap -= n * ack_bits
            packets += n
            # the hub's duplicate rule: only the first can repeat `last`
            accepted += n - (last == seq)
            last = (seq + n - 1) & 0xFF
            seq = (seq + n) & 0xFF
            continue
        # one packet, decided by its frames' syndromes, in `attempts` data
        # frames of which `arrived` came through intact, and the gaps it drew
        before = up_gap, down_gap
        up_took, down_took = [], []
        t, attempts, arrived, delivered = now, 0, 0, False
        while attempts < tries:
            syndrome = 0
            attempts += 1
            t += data_bits
            landed = t
            deadline = t + timeout
            if up_gap >= data_bits:   # the data frame arrives intact
                up_gap -= data_bits
                arrived += 1
                t += ack_bits
                if down_gap >= ack_bits:   # and so does its ack
                    down_gap -= ack_bits
                    delivered = True
                    break
                # the ack's flips
                while down_gap < ack_bits:
                    syndrome ^= syndromes[ack_last - down_gap]
                    gap = int(log1p(-down_random()) / down_logq)   # draw's inversion
                    down_took.append(gap)
                    down_gap += 1 + gap
                down_gap -= ack_bits
            else:   # the data frame's flips
                while up_gap < data_bits:
                    syndrome ^= syndromes[data_last - up_gap]
                    gap = int(log1p(-up_random()) / up_logq)   # draw's inversion
                    up_took.append(gap)
                    up_gap += 1 + gap
                up_gap -= data_bits
            if not syndrome:
                break   # the CRC misses this frame
            t = deadline
        if not (delivered or syndrome):   # the frame path carries this packet
            up_gap, down_gap = before
            uplink.ahead.extend(reversed(up_took))
            downlink.ahead.extend(reversed(down_took))
            break
        now, arrival = t, landed
        packets += 1
        retries += attempts - 1
        corrupted += attempts - arrived
        lost += not delivered
        if arrived:
            accepted += last != seq
            last = seq
        seq = (seq + 1) & 0xFF
    if not packets:
        return 0
    # the substreams: the gap after the taken packets
    uplink.gap = up_gap
    downlink.gap = down_gap
    # what the deficits leave: data frames, intact ones and acked packets
    frames = packets + retries
    intact = frames - corrupted
    acked = packets - lost
    # the sender: per packet, submit, its transmissions and its fate
    sender.next_sequence = seq
    sender.packets_sent += packets
    sender.frames_sent += frames
    sender.packets_delivered += acked
    sender.now = now
    sender.packets_lost += lost
    # Counter keys appear only when counted, as on the frame path
    if intact > acked:   # intact data frames whose ack was lost
        sender.drops["crc"] += intact - acked
    # the hub: intact data frames, new or duplicate, and checksum failures
    if intact:
        hub.rx_frames[node_id] += intact
        hub.last_accepted[node_id] = last
    if accepted:
        hub.rx_packets[node_id] += accepted
    if intact > accepted:
        hub.drops["duplicate"] += intact - accepted
    if frames > intact:
        hub.drops["crc"] += frames - intact
    if hub.now < arrival:
        hub.now = arrival
    return packets


def establish_connection(node: Device, link: LinkHandle) -> bool:
    """Run the join handshake of `node` with ``link.peer`` over the link;
    SDUs the node held from before go on air once it is connected."""
    pump(node, link, node.request_connect(link.peer.device_id), JOIN_MAX_ROUNDS)
    return node.connection is Connection.CONNECTED


def join_clean(node: Device, link: LinkHandle) -> bool:
    """Apply the join handshake of `node` with ``link.peer`` when its request
    and assignment will both cross with zero flips; give whether it was taken.

    Between devices at rest (``_at_rest``), an IDLE node with nothing
    queued and a hub with room for the node, such a join has one outcome:
    the hub registers the node and the node is CONNECTED.  The devices,
    clocks and substreams then change as ``pump`` would change them: the
    node's clock gains two ``MGMT_BITS`` airtimes, the hub clock is pulled
    forward to the request's arrival, and each direction's ``gap`` loses
    one ``MGMT_BITS``.  False means nothing changed and the caller joins
    with ``establish_connection``.
    """
    hub, up, down = link.peer, link.uplink, link.downlink
    # an IDLE node holds no pending frame, so sent minus resolved SDUs is
    # what waits in its queue
    if (not _at_rest(node) or not _at_rest(hub)
            or node.role is not Role.NODE or node.connection is not Connection.IDLE
            or node.packets_sent - node.packets_delivered - node.packets_lost
            or hub.role is not Role.HUB
            or node.device_id in hub.registry or len(hub.registry) >= MAX_NODES
            or not (up.gap >= MGMT_BITS and down.gap >= MGMT_BITS)):
        return False
    # the request: the node's sequence number, its airtime, the hub's arrival
    node.hub_id = hub.device_id
    node.next_sequence = (node.next_sequence + 1) & 0xFF
    node.now += MGMT_BITS
    if hub.now < node.now:
        hub.now = node.now
    # the assignment: the hub registers the node and answers
    hub.registry.add(node.device_id)
    hub.next_sequence = (hub.next_sequence + 1) & 0xFF
    node.now += MGMT_BITS
    node.connection = Connection.CONNECTED
    up.gap -= MGMT_BITS
    down.gap -= MGMT_BITS
    return True
