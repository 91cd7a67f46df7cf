"""MAC engine tests: handshake, fragmentation/reassembly, ARQ, polling."""

import math
import random
import sys
from collections import Counter

import pytest

from wbansim.channel import ChannelModel, FrameCorruptor
from wbansim.errors import EmptySduError, ProtocolError, RangeError
from wbansim.frames import (ACK_BITS, CRC_HAMMING_DISTANCE, CRC_SYNDROMES, MAX_PAYLOAD,
                            MGMT_BITS, OVERHEAD_BYTES, FrameType, ack_frame, compute_crc16,
                            data_frame, encode_frame, management_frame)
from wbansim.mac import (ACK_TIMEOUT, JOIN_MAX_ROUNDS, MAX_NODES,
                         REASSEMBLY_TIMEOUT, Connection, Device,
                         PrimitiveFamily, PrimitiveKind, Role,
                         establish_connection, fragment_sdu, join_clean, make_link,
                         pump, send_clean, send_with_arq)
from wbansim.simulator import DEFAULT_DATA_RATE_BPS

SECOND = DEFAULT_DATA_RATE_BPS   # ticks: bit periods at the default rate


def lossless_pair(max_retries=3, seed=0):
    hub = Device(Role.HUB, 0)
    node = Device(Role.NODE, 1, max_retries=max_retries)
    link = make_link(node, hub, ChannelModel(rng_seed=seed), 0.0)
    return hub, node, link


def connect(hub, node, link):
    assert establish_connection(node, link)
    return hub, node, link


def set_ber(link, ber):
    """Flip each bit of both directions with probability `ber` from here on:
    fresh corruptors on the link's generators, where they stand."""
    link.uplink = FrameCorruptor(link.uplink.rng, ber)
    link.downlink = FrameCorruptor(link.downlink.rng, ber)


def limit_uplink(link, frames):
    """Fail the test once more than `frames` frames go up `link`, so a join
    that never gives up fails instead of hanging."""
    carry, left = link.to_peer, iter(range(frames))

    def to_peer(wire):
        if next(left, None) is None:
            pytest.fail(f"more than {frames} frames went up the link")
        return carry(wire)
    link.to_peer = to_peer


def txs(outputs):
    return [item for item in outputs if item[0] == "tx"]


def inds(outputs):
    return [item[1] for item in outputs if item[0] == "ind"]


# ---------------------------------------------------------------- handshake

def test_connect_request_moves_to_connecting():
    node = Device(Role.NODE, 1)
    outputs = node.request_connect(0)
    assert node.connection is Connection.CONNECTING
    sent = txs(outputs)
    assert len(sent) == 1
    assert sent[0][1].header.frame_type is FrameType.MGMT_REQUEST
    assert sent[0][1].header.recipient_id == 0


def test_hub_registers_and_assigns():
    hub = Device(Role.HUB, 0)
    node = Device(Role.NODE, 5)
    request_wire = txs(node.request_connect(0))[0][2]
    hub.deliver(request_wire)
    outputs = hub.poll_step()
    assert 5 in hub.registry
    sent = txs(outputs)
    assert sent[0][1].header.frame_type is FrameType.MGMT_ASSIGNMENT
    joined = [p for p in inds(outputs) if p.payload.get("event") == "node_joined"]
    assert joined and joined[0].payload["node_id"] == 5


def test_full_handshake_reaches_connected():
    hub, node, link = lossless_pair()
    assert establish_connection(node, link)
    assert node.connection is Connection.CONNECTED
    assert node.device_id in hub.registry


def test_a_link_draws_each_direction_at_its_rate_from_its_own_substream():
    model = ChannelModel(rng_seed=5)
    link = make_link(Device(Role.NODE, 3), Device(Role.HUB, 0), model, 0.5)
    for corruptor, stream_id in ((link.uplink, (3, 0)), (link.downlink, (0, 3))):
        twin = FrameCorruptor(model.stream(stream_id), 0.5)
        assert (corruptor.gap, corruptor.rng.getstate()) == (twin.gap, twin.rng.getstate())
        assert corruptor.log_q == math.log1p(-0.5)


def test_hub_capacity_rejection():
    hub = Device(Role.HUB, 0)
    for i in range(MAX_NODES):
        hub.registry.add(i + 1)
    node = Device(Role.NODE, 70)
    link = make_link(node, hub, ChannelModel(rng_seed=1), 0.0)
    assert not establish_connection(node, link)
    assert node.connection is Connection.IDLE
    assert 70 not in hub.registry
    assert hub.drops["capacity"] == 1


def test_assignment_while_idle_is_protocol_error():
    node = Device(Role.NODE, 1)
    node.hub_id = 0
    wire = encode_frame(management_frame(FrameType.MGMT_ASSIGNMENT, 1, 0, 0))
    node.deliver(wire)
    node.poll_step()
    assert node.connection is Connection.IDLE
    assert node.drops["protocol"] == 1


def test_disconnect_tears_down_both_sides():
    hub, node, link = connect(*lossless_pair())
    outputs = node.request_disconnect()
    assert node.connection is Connection.IDLE
    wire = txs(outputs)[0][2]
    hub.deliver(link.to_peer(wire))
    hub.poll_step()
    assert node.device_id not in hub.registry


def test_the_hub_gives_up_every_sdu_for_a_node_that_left():
    hub, node, link = connect(*lossless_pair())
    for body in (b"a", b"b"):
        hub.submit([data_frame(1, 0, 0, body)])
    assert hub.frames_sent == 1
    hub.deliver(encode_frame(management_frame(FrameType.MGMT_DISCONNECT, 0, 1, 9)))
    outputs = hub.poll_step()
    assert txs(outputs) == []
    confirms = [p.payload for p in inds(outputs) if p.family is PrimitiveFamily.DATA_TRANSFER]
    assert [(c["sdu_id"], c["success"]) for c in confirms] == [(0, False), (1, False)]
    assert (hub.frames_sent, hub.packets_lost, hub.next_deadline) == (1, 2, None)
    hub.now += SECOND
    assert hub.poll_step() == []
    assert hub.frames_sent == 1


def _connect_at_hub():
    hub = Device(Role.HUB, 0)
    return hub, hub.request_connect(0)


def _connect_while_connecting():
    node = Device(Role.NODE, 1)
    node.request_connect(0)
    return node, node.request_connect(0)


def _disconnect_while_idle():
    node = Device(Role.NODE, 1)
    return node, node.request_disconnect()


def _received(device, ftype, sender):
    device.deliver(encode_frame(management_frame(ftype, device.device_id, sender, 0)))
    return device, device.poll_step()


def _join_request_at_a_node():
    return _received(Device(Role.NODE, 1), FrameType.MGMT_REQUEST, 0)


def _disconnect_from_an_unregistered_node():
    return _received(Device(Role.HUB, 0), FrameType.MGMT_DISCONNECT, 5)


def _disconnect_at_an_idle_node():
    return _received(Device(Role.NODE, 1), FrameType.MGMT_DISCONNECT, 0)


def _disconnect_from_a_device_that_is_not_its_hub():
    hub, node, link = connect(*lossless_pair())
    return _received(node, FrameType.MGMT_DISCONNECT, 7)


@pytest.mark.parametrize("case", [
    _connect_at_hub, _connect_while_connecting, _disconnect_while_idle,
    _join_request_at_a_node, _disconnect_from_an_unregistered_node,
    _disconnect_at_an_idle_node, _disconnect_from_a_device_that_is_not_its_hub])
def test_management_out_of_turn_is_a_protocol_drop(case):
    device, outputs = case()
    assert device.drops["protocol"] == 1
    assert outputs == []


def test_handshake_survives_lost_request():
    # first request corrupted; retry timer drives a second one
    hub = Device(Role.HUB, 0)
    node = Device(Role.NODE, 1)
    link = make_link(node, hub, ChannelModel(rng_seed=2), 0.0)
    loss_plan = iter([True, False, False, False])
    original = link.to_peer
    link.to_peer = lambda wire: (b"\x00" * len(wire)
                                 if next(loss_plan, False) else wire)
    assert establish_connection(node, link)
    assert node.connection is Connection.CONNECTED


def test_join_over_dead_link_gives_up_within_round_bound():
    hub, node, link = lossless_pair()
    set_ber(link, 1.0)
    limit_uplink(link, 2 * JOIN_MAX_ROUNDS)
    assert not establish_connection(node, link)
    # the join timed out: the node is back to IDLE with no timer armed
    assert node.connection is Connection.IDLE
    assert node.next_deadline is None
    assert not hub.registry
    # the retry timer re-sent the request, up to the node's own limit
    assert 1 < hub.drops["crc"] <= JOIN_MAX_ROUNDS
    # exactly JOIN_MAX_ROUNDS requests, one per ACK_TIMEOUT: a limit that
    # moves by one request fails
    assert hub.drops["crc"] == 63
    assert node.now == JOIN_MAX_ROUNDS * ACK_TIMEOUT


def test_a_timed_out_join_can_be_tried_again():
    hub, node, link = lossless_pair()
    set_ber(link, 1.0)
    assert not establish_connection(node, link)
    # a second join counts its requests afresh
    assert not establish_connection(node, link)
    assert hub.drops["crc"] == 2 * JOIN_MAX_ROUNDS
    assert node.connection is Connection.IDLE and node.next_deadline is None
    # and over a restored link it connects
    set_ber(link, 0.0)
    assert establish_connection(node, link)
    assert node.connection is Connection.CONNECTED and hub.registry == {1}


def test_a_join_counts_requests_not_pump_rounds():
    # each corrupted assignment costs pump a round of its own, yet only the
    # requests count: 62 lost replies, then an assignment that gets through
    hub, node, link = lossless_pair()
    lost = iter([True] * (JOIN_MAX_ROUNDS - 1))
    link.to_sender = lambda wire: bytes(len(wire)) if next(lost, False) else wire
    assert establish_connection(node, link)
    assert hub.registry == {1}


# ------------------------------------------------------------ fragmentation

def test_fragment_arithmetic_split():
    chunks = fragment_sdu(bytes(2 * MAX_PAYLOAD + 5))
    assert [len(c) for c in chunks] == [MAX_PAYLOAD, MAX_PAYLOAD, 5]


def test_fragment_exact_fit_single_chunk():
    chunks = fragment_sdu(bytes(MAX_PAYLOAD))
    assert len(chunks) == 1


def test_fragment_empty_sdu_rejected():
    with pytest.raises(EmptySduError):
        fragment_sdu(b"")


def test_fragment_concat_inverse_full_range():
    rng = random.Random(42)
    for _ in range(300):
        sdu = rng.randbytes(rng.randrange(1, 4 * MAX_PAYLOAD + 1))
        chunks = fragment_sdu(sdu)
        assert b"".join(chunks) == sdu
        assert all(len(c) <= MAX_PAYLOAD for c in chunks)
        assert all(len(c) == MAX_PAYLOAD for c in chunks[:-1])


def test_reassemble_in_order():
    hub, node, link = connect(*lossless_pair())
    sdu = bytes(i & 0xFF for i in range(600))
    outputs = node.request_send(sdu)
    delivered = []
    data_frames = 0
    for _ in range(10):
        for _, frame, wire in txs(outputs):
            data_frames += frame.header.frame_type is FrameType.DATA
            hub.deliver(wire)
            hub_out = hub.poll_step()
            delivered += [p.payload["sdu"] for p in inds(hub_out)
                          if "sdu" in p.payload]
            for _, _a, awire in txs(hub_out):
                node.deliver(awire)
        outputs = node.poll_step()
    assert data_frames > 1
    assert delivered == [sdu]


def make_fragments(sender_id, sdu, base_seq=10):
    chunks = fragment_sdu(sdu)
    last = len(chunks) - 1
    return [data_frame(0, sender_id, (base_seq + i) & 0xFF, chunk,
                       fragment_index=i, last_fragment=(i == last))
            for i, chunk in enumerate(chunks)]


def test_reassemble_out_of_order_permutations():
    rng = random.Random(9)
    hub = Device(Role.HUB, 0)
    hub.registry.add(1)
    for trial in range(40):
        sdu = rng.randbytes(rng.randrange(MAX_PAYLOAD + 1, 8 * MAX_PAYLOAD))
        frames = make_fragments(1, sdu, base_seq=rng.randrange(256))
        rng.shuffle(frames)
        got = None
        for frame in frames:
            result = hub.reassemble(frame)
            if result is not None:
                got = result
        assert got == sdu


def test_reassembly_gap_times_out():
    hub = Device(Role.HUB, 0)
    hub.registry.add(1)
    frames = make_fragments(1, bytes(3 * MAX_PAYLOAD))
    hub.deliver(encode_frame(frames[0]))
    hub.deliver(encode_frame(frames[2]))  # index 1 missing, last flag seen
    hub.poll_step()
    outputs = hub.poll_step()
    for _, _f, wire in txs(outputs):
        pass  # acks, ignored
    hub.now += REASSEMBLY_TIMEOUT + 1
    outputs = hub.poll_step()   # empty inbox -> timer sweep
    gaps = [p for p in inds(outputs) if p.payload.get("error") == "gap"]
    assert len(gaps) == 1
    assert gaps[0].payload["missing"] == [1]
    assert hub.drops["gap"] == 1


def test_a_reassembly_gap_expires_at_a_hub_driven_by_pump():
    # the hub is polled only with frames in its inbox, so its gap timer runs
    # after each frame it handles
    hub, node, link = connect(*lossless_pair(max_retries=0))
    first = txs(node.request_send(bytes(2 * MAX_PAYLOAD + 1)))[0][2]   # three fragments
    hub.deliver(first)
    node.deliver(txs(hub.poll_step())[0][2])
    node.poll_step()                    # the first is acked; the middle one is lost
    node.now = node.next_deadline
    node.poll_step()                    # and given up, with the last one
    assert node.packets_lost == 1
    node.now += REASSEMBLY_TIMEOUT
    confirm, = pump(node, link, node.request_send(b"next"))
    assert confirm.payload["success"]
    assert hub.drops["gap"] == 1


def _hub_id_256():
    Device(Role.HUB, 256)


def _send_before_connecting():
    Device(Role.NODE, 1).request_send(b"x")


def _send_129_fragments():
    hub, node, link = connect(*lossless_pair())
    node.request_send(bytes(128 * MAX_PAYLOAD + 1))


@pytest.mark.parametrize("call, error", [
    (_hub_id_256, RangeError), (_send_before_connecting, ProtocolError),
    (_send_129_fragments, RangeError)])
def test_requests_the_mac_refuses_raise(call, error):
    with pytest.raises(error):
        call()


# ------------------------------------------------------------------ ARQ

def test_arq_perfect_channel_single_attempt():
    hub, node, link = connect(*lossless_pair())
    outcome = send_with_arq(node, link, 10)
    assert outcome.success and outcome.attempts_used == 1


def test_arq_dead_channel_exhausts_retries():
    hub, node, link = connect(*lossless_pair(max_retries=3))
    set_ber(link, 1.0)
    outcome = send_with_arq(node, link, 10)
    assert not outcome.success
    assert outcome.attempts_used == 4
    assert node.packets_lost == 1


def test_exhausted_fragment_drops_the_rest_of_its_sdu():
    hub, node, link = connect(*lossless_pair(max_retries=3))
    set_ber(link, 1.0)
    pump(node, link, node.request_send(bytes(600)))
    assert node.frames_sent == node.max_retries + 1
    assert node.next_deadline is None
    assert node.packets_lost == 1


def test_arq_attempt_bound_various_limits():
    for retries in (0, 1, 2, 5):
        hub, node, link = connect(*lossless_pair(max_retries=retries))
        set_ber(link, 1.0)
        outcome = send_with_arq(node, link, 1)
        assert outcome.attempts_used == retries + 1


def test_arq_requires_connected_state():
    hub, node, link = lossless_pair()
    with pytest.raises(ProtocolError):
        send_with_arq(node, link, 1)


def test_arq_carries_a_long_sdu_queued_ahead_of_its_frame():
    # a 100-fragment SDU queued ahead of the frame goes on air in full, and
    # every data frame the node counts reaches the hub
    hub, node, link = connect(*lossless_pair(max_retries=1))
    (_, _, first), = txs(node.request_send(bytes(MAX_PAYLOAD * 100)))
    hub.deliver(first)                        # the first fragment, carried by hand
    (_, _, ack), = txs(hub.poll_step())
    node.deliver(ack)
    outcome = send_with_arq(node, link, 1)
    assert outcome.success
    assert node.frames_sent == hub.rx_frames[node.device_id] == 101


def test_arq_raises_when_the_sender_leaves_with_its_frame_queued():
    # the first SDU's frame is lost; the hub's answer to its retransmission
    # becomes a disconnect, so the node leaves with the frame queued behind
    hub, node, link = connect(*lossless_pair())
    node.request_send(b"first")
    disconnect = management_frame(FrameType.MGMT_DISCONNECT, node.device_id, hub.device_id, 0)
    replies = iter([encode_frame(disconnect)])
    link.to_sender = lambda wire: next(replies, wire)
    with pytest.raises(ProtocolError, match="ARQ exchange did not resolve"):
        send_with_arq(node, link, 1)
    assert node.connection is Connection.IDLE
    assert node.packets_lost == 1


def test_corrupted_ack_forces_retry_and_dedup():
    # data always clean, first ack corrupted: sender retries, hub counts
    # the duplicate frame but delivers the packet only once
    hub, node, link = connect(*lossless_pair())
    acks = iter([True, False])
    original = link.to_sender
    link.to_sender = lambda wire: (b"\x00" * len(wire)
                                   if next(acks, False) else original(wire))
    outcome = send_with_arq(node, link, 10)
    assert outcome.success
    assert outcome.attempts_used == 2
    assert hub.rx_frames[1] == 2       # both copies arrived intact
    assert hub.rx_packets[1] == 1      # delivered exactly once
    assert hub.drops["duplicate"] == 1


def test_arq_sequence_discipline():
    hub, node, link = connect(*lossless_pair())
    first = node.next_sequence
    for k in range(300):
        send_with_arq(node, link, 1)
    # acked data frames observed at the hub climbed mod 256
    assert node.next_sequence == (first + 300) & 0xFF


def test_arq_empirical_attempt_failure_matches_exchange_model():
    # per-attempt failure/Monte Carlo vs the analytic exchange model with
    # the actual 9-byte ack (72 bits)
    p_ber = 2e-3
    hub, node, link = connect(*lossless_pair(max_retries=3, seed=7))
    set_ber(link, p_ber)
    packets = 4000
    attempts = 0
    delivered = 0
    for _ in range(packets):
        out = send_with_arq(node, link, 10)
        attempts += out.attempts_used
        delivered += out.success
    fail_rate = (attempts - delivered) / attempts
    expected = 1 - (1 - p_ber) ** (144 + 72)
    sigma = math.sqrt(expected * (1 - expected) / attempts)
    assert abs(fail_rate - expected) < 3 * sigma


def test_submit_numbers_sdus_consecutively():
    hub, node, link = connect(*lossless_pair())
    first, out_first = node.submit([data_frame(0, 1, 0, b"a")])
    second, out_second = node.submit([data_frame(0, 1, 0, b"b")])
    assert second == first + 1
    assert len(txs(out_first)) == 1
    assert out_second == []            # waits for the first one's ack
    assert node.packets_sent == 2


def test_a_frame_no_wire_carries_is_refused_before_any_counter_moves():
    hub, node, link = connect(*lossless_pair())
    before = state(hub, node), node.next_deadline
    # a caller-built body one byte past what the length byte can say
    frames = [data_frame(0, 1, 0, b"a"), data_frame(0, 1, 0, bytes(MAX_PAYLOAD + 1))]
    with pytest.raises(RangeError, match="256 bytes"):
        node.submit(frames)
    assert (state(hub, node), node.next_deadline) == before
    outcome = send_with_arq(node, link, 10)
    assert outcome.success and outcome.attempts_used == 1
    assert (node.packets_sent, node.packets_delivered, node.packets_lost) == (1, 1, 0)


def test_next_deadline_tracks_the_pending_ack():
    hub, node, link = connect(*lossless_pair())
    assert node.next_deadline is None
    _, outputs = node.submit([data_frame(0, 1, 0, bytes(10))])
    wire = txs(outputs)[0][2]
    assert node.next_deadline == node.now + len(wire) * 8 + ACK_TIMEOUT


def test_a_resolved_frame_leaves_no_deadline():
    hub, node, link = connect(*lossless_pair())
    assert send_with_arq(node, link, 1).success
    assert node.next_deadline is None
    set_ber(link, 1.0)
    assert not send_with_arq(node, link, 1).success
    assert node.next_deadline is None


def _leave_by_request(node):
    return node.request_disconnect()


def _leave_at_the_hubs_word(node):
    return _received(node, FrameType.MGMT_DISCONNECT, node.hub_id)[1]


@pytest.mark.parametrize("leave", [_leave_by_request, _leave_at_the_hubs_word])
def test_a_node_that_leaves_gives_up_its_pending_frame(leave):
    hub, node, link = connect(*lossless_pair())
    sdu_id, _ = node.submit([data_frame(0, 1, 0, b"x")])
    deadline = node.next_deadline
    outputs = leave(node)
    assert node.connection is Connection.IDLE
    assert node.next_deadline is None
    assert node.packets_lost == 1
    confirms = [p for p in inds(outputs) if p.family is PrimitiveFamily.DATA_TRANSFER]
    assert [(p.kind, p.payload["success"], p.payload["sdu_id"]) for p in confirms] == [
        (PrimitiveKind.CONFIRM, False, sdu_id)]
    # nothing is retransmitted to the hub it left
    node.now = deadline
    assert txs(node.poll_step()) == []
    assert node.frames_sent == 1


def test_a_rejected_join_holds_no_deadline():
    node = Device(Role.NODE, 1)
    node.request_connect(0)
    _received(node, FrameType.MGMT_DISCONNECT, 0)
    assert node.connection is Connection.IDLE
    assert node.next_deadline is None


def test_sdus_behind_the_one_given_up_wait_for_the_next_connect():
    hub, node, link = connect(*lossless_pair())
    node.submit([data_frame(0, 1, 0, b"x")])
    node.submit([data_frame(0, 1, 0, b"y")])
    hub.deliver(txs(node.request_disconnect())[0][2])
    hub.poll_step()
    assert node.frames_sent == 1
    hub.deliver(txs(node.request_connect(0))[0][2])
    node.deliver(txs(hub.poll_step())[0][2])
    sent = txs(node.poll_step())
    assert node.connection is Connection.CONNECTED
    assert [frame.body for _, frame, _ in sent] == [b"y"]


def test_an_sdu_held_over_a_reconnect_goes_on_air():
    hub, node, link = connect(*lossless_pair(max_retries=0))
    node.request_disconnect()
    node.request_send(b"held")
    assert establish_connection(node, link)
    assert send_with_arq(node, link, 10).success
    assert hub.rx_packets[node.device_id] == 2
    assert node.packets_lost == 0
    # every counted attempt went on air
    assert node.frames_sent == hub.rx_frames[node.device_id]


# --------------------------------------------------------- clean exchanges

STATE_FIELDS = ("now", "connection", "registry", "next_sequence", "last_accepted",
                "frames_sent", "packets_sent", "packets_delivered", "packets_lost",
                "rx_frames", "rx_packets", "drops")


def state(*devices):
    return [{name: getattr(d, name) for name in STATE_FIELDS} for d in devices]


def lossy_pair(seed, ber, max_retries=3):
    hub, node, link = connect(*lossless_pair(max_retries, seed))
    set_ber(link, ber)
    return hub, node, link


def _rates(up, down):
    return pytest.param((up, down), 10, id=f"up{up}-down{down}-10")


@pytest.mark.parametrize("ber, payload_len", [(2e-3, 10), (0.0, 10), (1e-3, 0),
                                              (5e-3, 1), (1.0, 10), (0.02, 10), (0.05, 10),
                                              _rates(0.02, 0.0), _rates(0.0, 0.05),
                                              _rates(1.0, 0.02), _rates(0.02, 1.0)])
def test_send_clean_then_frame_path_matches_frame_path_alone(ber, payload_len):
    # `ber` is both directions' rate, or the uplink's and the downlink's
    up, down = ber if isinstance(ber, tuple) else (ber, ber)
    fast = lossy_pair(seed=11, ber=0.0)
    slow = lossy_pair(seed=11, ber=0.0)
    for _, _, link in (fast, slow):
        link.uplink = FrameCorruptor(link.uplink.rng, up)
        link.downlink = FrameCorruptor(link.downlink.rng, down)
    taken = 0
    for _ in range(600):
        for (hub, node, link), try_clean in ((fast, True), (slow, False)):
            if try_clean and send_clean(node, link, payload_len, node.now + 1):
                taken += 1
            else:
                send_with_arq(node, link, payload_len)
    assert state(fast[0], fast[1]) == state(slow[0], slow[1])
    assert taken > 200


def _traced(hub, node):
    node.trace = []


def _not_registered(hub, node):
    hub.registry.remove(node.device_id)


def _hub_inbox_busy(hub, node):
    hub.deliver(b"\x00")


def _frame_queued(hub, node):
    node.submit([data_frame(0, 1, 0, b"q")])


def _hub_frame_pending(hub, node):
    hub.registry.add(2)
    hub.submit([data_frame(2, 0, 0, b"d")])


def _hub_reassembling(hub, node):
    hub.reassemble(data_frame(0, 2, 5, b"x", fragment_index=0, last_fragment=False))


def _node_reassembling(hub, node):
    # left over from an earlier SDU or connection: its gap timer runs at the
    # node's next poll, which the frame path makes when the next frame arrives
    node.reassemble(data_frame(1, 0, 5, b"x", fragment_index=0, last_fragment=False))


@pytest.mark.parametrize("spoil", [_traced, _not_registered, _hub_inbox_busy,
                                   _frame_queued, _hub_frame_pending, _hub_reassembling,
                                   _node_reassembling])
def test_send_clean_declines_outside_the_steady_state(spoil):
    hub, node, link = connect(*lossless_pair())
    spoil(hub, node)
    before = state(hub, node)
    assert not send_clean(node, link, 10, node.now + 1)
    assert state(hub, node) == before


def _refuses(send, payload_len, ber):
    # a refusal comes before any device or substream changes
    hub, node, link = lossy_pair(seed=3, ber=ber)

    def streams():
        return [(c.gap, c.ahead[:], c.rng.getstate()) for c in (link.uplink, link.downlink)]

    before = state(hub, node), streams()
    with pytest.raises(RangeError, match="payload_len"):
        send(node, link, payload_len)
    assert (state(hub, node), streams()) == before


UNCARRIED = [MAX_PAYLOAD + 1, 300, -1, -8, -20]


@pytest.mark.parametrize("ber", [0.0, 2e-3])
@pytest.mark.parametrize("payload_len", UNCARRIED)
def test_send_clean_refuses_a_payload_no_frame_can_carry(payload_len, ber):
    _refuses(lambda node, link, n: send_clean(node, link, n, node.now + SECOND),
             payload_len, ber)


@pytest.mark.parametrize("ber", [0.0, 2e-3])
@pytest.mark.parametrize("payload_len", UNCARRIED)
def test_send_with_arq_refuses_a_payload_no_frame_can_carry(payload_len, ber):
    _refuses(send_with_arq, payload_len, ber)


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
@pytest.mark.parametrize("k", [0, 1, 2, 300])
def test_send_clean_takes_no_exchange_starting_at_or_after_until(k, past):
    # at ber 0 only `until` ends a run, and exchange j starts j exchanges
    # after the first: one starting at `until` is not taken, one starting a
    # tick before it is, though it ends after
    hub, node, link = connect(*lossless_pair())
    exchange = (10 + OVERHEAD_BYTES) * 8 + ACK_BITS
    start = node.now
    before = state(hub, node)
    taken = k + past
    assert send_clean(node, link, 10, start + k * exchange + past) == taken
    assert node.now == start + taken * exchange
    if not taken:
        assert state(hub, node) == before


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
def test_send_clean_takes_a_whole_clean_run_only_if_its_last_exchange_starts_before_until(past):
    # the uplink's first flip lands in the fourth data frame, so the clean
    # run is three exchanges long; its last one starts at `until`, or a tick
    # before it
    data_bits = (10 + OVERHEAD_BYTES) * 8
    exchange = data_bits + ACK_BITS
    hub, node, link = connect(*lossless_pair())
    link.uplink = FrameCorruptor(_Gaps([3 * data_bits], 0.01), 0.01)
    assert link.uplink.gap // data_bits == 3
    start = node.now
    assert send_clean(node, link, 10, start + 2 * exchange + past) == 2 + past
    assert node.now == start + (2 + past) * exchange


def _run_until(pair, until, step_until):
    """Send 10-byte frames until `until`, clean runs first; give the longest run."""
    hub, node, link = pair
    longest = 0
    while node.now < until:
        taken = send_clean(node, link, 10, step_until(node, until))
        longest = max(longest, taken)
        if not taken:
            send_with_arq(node, link, 10)
    return longest


def test_one_long_send_clean_equals_one_exchange_calls():
    # one call takes a run longer than a 256-sequence cycle; one exchange
    # per call leaves the same devices and the same channel state
    whole, stepped = lossy_pair(seed=7, ber=1e-6), lossy_pair(seed=7, ber=1e-6)
    longest = _run_until(whole, 20 * SECOND, lambda node, until: until)
    assert _run_until(stepped, 20 * SECOND, lambda node, until: node.now + 1) == 1
    assert longest > 256
    assert state(*whole[:2]) == state(*stepped[:2])
    a, b = whole[2], stepped[2]
    for ca, cb in ((a.uplink, b.uplink), (a.downlink, b.downlink)):
        assert ca.gap == cb.gap
        assert ca.rng.random() == cb.rng.random()


# (ber, max_retries, payload_len) of lossy links where packets fail and
# retry, up to ber 0.05, where most frames carry 4 or more flips
LOSSY_LINKS = [(2e-3, 3, 10), (2e-3, 0, 10), (1e-2, 1, 10), (1e-2, 3, 0), (5e-2, 2, 0),
               (5e-2, 3, 10), (1e-4, 2, 255), (2e-3, 1, 255), (5e-3, 3, 255)]


def _carry(pair, payload_len, until, decide):
    """Send packets until `until` as ``run_experiment`` does, trying
    ``send_clean`` first when `decide`."""
    hub, node, link = pair
    while node.now < until:
        if not (decide and send_clean(node, link, payload_len, until)):
            send_with_arq(node, link, payload_len)


def _count_heavy_frames(pair, tally):
    """Add to `tally` each frame that `pair`'s link carries through the frame
    path with ``CRC_HAMMING_DISTANCE`` or more flips."""
    link = pair[2]
    for name, corrupt in (("to_peer", link.uplink.corrupt),
                          ("to_sender", link.downlink.corrupt)):
        def carry(wire, corrupt=corrupt):
            out = corrupt(wire)
            tally["heavy"] += sum((a ^ b).bit_count() for a, b in zip(out, wire)) \
                >= CRC_HAMMING_DISTANCE
            return out
        setattr(link, name, carry)


def _assert_same_devices_and_streams(decided, framed):
    assert state(*decided[:2]) == state(*framed[:2])
    for a, b in ((decided[2].uplink, framed[2].uplink),
                 (decided[2].downlink, framed[2].downlink)):
        assert a.gap == b.gap                     # the clean bits before the next flip
        assert a.ahead == b.ahead                 # the gaps drawn after it
        assert a.rng.random() == b.rng.random()   # and the generator's place


def test_send_clean_matches_send_with_arq_on_lossy_links():
    seen = Counter()
    for seed, (ber, retries, payload_len) in enumerate(LOSSY_LINKS):
        decided, framed = (lossy_pair(seed, ber, retries) for _ in range(2))
        # both carry the same frames: those of the frame path alone, less
        # those of the frame path after send_clean, are the ones it decided
        on_frame_path, alone = Counter(), Counter()
        _count_heavy_frames(decided, on_frame_path)
        _count_heavy_frames(framed, alone)
        _carry(decided, payload_len, 30 * SECOND, decide=True)
        _carry(framed, payload_len, 30 * SECOND, decide=False)
        _assert_same_devices_and_streams(decided, framed)
        seen["heavy_decided"] += alone["heavy"] - on_frame_path["heavy"]
        seen.update(decided[1].drops)
        seen["exhausted"] += decided[1].packets_lost
        seen.update({f"hub_{k}": v for k, v in decided[0].drops.items()})
    # every outcome occurred: lost data frames and acks, duplicates,
    # exhausted packets, and frames of 4 or more flips decided by syndrome
    assert all(seen[k] for k in ("hub_crc", "crc", "hub_duplicate", "exhausted",
                                 "heavy_decided"))


def test_send_clean_matches_send_with_arq_across_a_sequence_wrap():
    # node 2 of the simulator's `sequence-wrap-clean` config, joined over its
    # lossy link: with no retries, each duplicate is a new packet that
    # arrives 256 sequence numbers after the last one the hub accepted
    def pair():
        hub, node = Device(Role.HUB, 0), Device(Role.NODE, 2, max_retries=0)
        link = make_link(node, hub, ChannelModel(rng_seed=0), ber=0.00263)
        return connect(hub, node, link)

    decided, framed = pair(), pair()
    _carry(decided, 255, 120 * SECOND, decide=True)
    _carry(framed, 255, 120 * SECOND, decide=False)
    _assert_same_devices_and_streams(decided, framed)
    assert decided[0].drops["duplicate"] == 1


@pytest.mark.parametrize("ber, seed", [(0.0, 0), (0.02, 5)])
def test_send_clean_counts_a_wrapped_sequence_as_a_duplicate(ber, seed):
    # a data frame repeating the sequence the hub accepted last is a
    # duplicate, in a clean exchange and in a packet whose first ack is lost
    decided, framed = lossy_pair(seed, ber), lossy_pair(seed, ber)
    for hub, node, link in (decided, framed):
        hub.last_accepted[node.device_id] = node.next_sequence
    assert send_clean(decided[1], decided[2], 0, decided[1].now + 1) == 1
    _carry(framed, 0, decided[1].now, decide=False)
    _assert_same_devices_and_streams(decided, framed)
    assert decided[0].drops["duplicate"] >= 1
    assert bool(decided[1].drops["crc"]) == (ber > 0)   # an ack was lost


def _twin_pair(ber, rng_seed):
    """A connected pair whose link runs at `ber` both ways on fresh substreams,
    and a twin corruptor per direction on a same-seeded generator."""
    hub, node, link = connect(*lossless_pair())
    twins = []
    for name in ("uplink", "downlink"):
        setattr(link, name, FrameCorruptor(ChannelModel(rng_seed=rng_seed).stream(name), ber))
        twins.append(FrameCorruptor(ChannelModel(rng_seed=rng_seed).stream(name), ber))
    return hub, node, link, twins


@pytest.mark.parametrize("ber", [2e-3, 5e-3, 0.015])
def test_send_clean_draws_every_gap_as_draw_does(ber):
    # the walk's inline inversion: after 60 s taken with no frame path, each
    # direction stands where a twin on a same-seeded generator stands that
    # corrupted the same frames, with draw's gaps: the same int gap before
    # the next flip, the same generator state, and no gap handed back
    hub, node, link, (up, down) = _twin_pair(ber, rng_seed=7)
    while node.now < 60 * SECOND:
        assert send_clean(node, link, 10, 60 * SECOND)   # no frame path at all
    for _ in range(node.frames_sent):
        up.corrupt(bytes(10 + OVERHEAD_BYTES))
    for _ in range(hub.rx_frames[node.device_id]):
        down.corrupt(bytes(ACK_BITS // 8))
    assert node.frames_sent > node.packets_sent > 100
    assert hub.rx_frames[node.device_id] > node.packets_delivered
    for corruptor, twin in ((link.uplink, up), (link.downlink, down)):
        assert type(corruptor.gap) is int and corruptor.gap == twin.gap
        assert corruptor.rng.getstate() == twin.rng.getstate()
        assert corruptor.ahead == twin.ahead == []


def test_send_clean_draws_as_draw_does_at_a_subnormal_ber():
    # at a subnormal ber log_q is capped, so each gap is a finite quotient
    # past any run, and the walk draws it as draw does.  Planted flips spoil
    # the first data frame and the second attempt's ack; the third attempt
    # crosses clean, and so does every packet after it.  Each direction then
    # stands where a twin stands that corrupted the same frames
    hub, node, link, (up, down) = _twin_pair(5e-324, rng_seed=1)
    link.uplink.gap, link.downlink.gap = up.gap, down.gap = 5, 3
    taken = send_clean(node, link, 10, node.now + SECOND)
    assert taken > 100
    assert (node.frames_sent, node.packets_delivered, node.drops["crc"]) == (
        taken + 2, taken, 1)
    assert hub.drops["crc"] == 1 and hub.drops["duplicate"] == 1
    for _ in range(node.frames_sent):
        up.corrupt(bytes(10 + OVERHEAD_BYTES))
    for _ in range(hub.rx_frames[node.device_id]):
        down.corrupt(bytes(ACK_BITS // 8))
    for corruptor, twin in ((link.uplink, up), (link.downlink, down)):
        assert corruptor.gap == twin.gap > 10**290
        assert corruptor.rng.getstate() == twin.rng.getstate()
        assert corruptor.ahead == twin.ahead == []


def test_the_walk_makes_no_python_call_per_flip():
    # a profiler sees each Python function send_clean calls, and each gap
    # it draws as one call of math.log1p
    code = send_clean.__code__
    calls, draws = [], 0

    def profile(frame, event, arg):
        nonlocal draws
        if event == "call" and frame.f_back is not None and frame.f_back.f_code is code:
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and frame.f_code is code and arg is math.log1p:
            draws += 1

    hub, node, link = lossy_pair(seed=2, ber=0.015)
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        taken = send_clean(node, link, 10, node.now + 20 * SECOND)
    finally:
        sys.setprofile(before)
    assert taken > 100 and draws > 500
    # the checks before the walk, and the new Counter keys after it
    assert calls[:4] == ["_at_rest", "_at_rest", "log_q", "log_q"]
    assert set(calls[4:]) == {"__missing__"} and len(calls) < 10


class _Gaps:
    """Stands in for a substream's generator: its uniforms make a
    ``FrameCorruptor`` at `ber` draw exactly `gaps`, the clean bits before
    each next flip."""

    def __init__(self, gaps, ber):
        log_q = math.log1p(-ber)
        self._uniforms = iter([-math.expm1((gap + 0.5) * log_q) for gap in gaps])

    def random(self):
        return next(self._uniforms)


@pytest.mark.parametrize("pattern", [0x11021, 0x11021 | 0x11021 << 20],
                         ids=["g", "g-times-1-plus-x20"])
def test_a_data_frame_the_checksum_cannot_judge_goes_to_the_frame_path(pattern):
    # the first data frame carries a multiple of g(x) inside its body: the
    # CRC misses it, so the hub takes a different, valid frame and acks it;
    # send_clean must leave that packet to the frame path, which sends it once
    ber, nbits = 0.01, 18 * 8
    flips = sorted(nbits - 1 - d for d in range(nbits) if pattern << 16 >> d & 1)
    gaps = [flips[0], *(b - a - 1 for a, b in zip(flips, flips[1:])), 1000, 0]

    def pair():
        hub, node, link = connect(*lossless_pair())
        link.uplink = FrameCorruptor(_Gaps(gaps, ber), ber)
        return hub, node, link

    decided, framed = pair(), pair()
    assert send_clean(decided[1], decided[2], 10, SECOND) == 0
    _carry(decided, 10, decided[1].now + 1, decide=True)
    _carry(framed, 10, framed[1].now + 1, decide=False)
    _assert_same_devices_and_streams(decided, framed)
    hub, node = decided[:2]
    assert (node.frames_sent, node.packets_delivered, hub.rx_packets[1]) == (1, 1, 1)
    assert hub.drops == Counter()


def _g_in_frame(nbits, start):
    """Stream positions of g(x) times x^16 in the `nbits`-bit frame at `start`."""
    return [start + nbits - 1 - d for d in reversed(range(nbits)) if 0x11021 << 16 >> d & 1]


@pytest.mark.parametrize("direction, flips, taken", [
    ("downlink", _g_in_frame(ACK_BITS, 0), 0),
    ("uplink", [40, *_g_in_frame(18 * 8, 18 * 8)], 0),
    ("uplink", _g_in_frame(18 * 8, 2 * 18 * 8), 2),
    ("uplink", [40, *_g_in_frame(18 * 8, 2 * 18 * 8)], 1),
], ids=["first-ack", "second-data-frame-after-a-failed-one", "third-data-frame",
        "data-frame-after-a-decided-packet"])
def test_a_frame_the_checksum_cannot_judge_anywhere_in_a_packet_goes_to_the_frame_path(
        direction, flips, taken):
    # g(x) lands in the first packet's first ack, in its second data frame
    # after a first data frame with one flip, in the third packet's data
    # frame after two clean exchanges, or in the second packet's data frame
    # after a first packet decided in two attempts: send_clean must judge
    # each frame by its own syndrome, take the packets before it, leaving
    # both devices as the frame path leaves them after those packets, and
    # leave the substreams where the frame path finds g(x)
    ber = 0.01
    gaps = [flips[0], *(b - a - 1 for a, b in zip(flips, flips[1:])), 1000, 0]

    def pair():
        hub, node, link = connect(*lossless_pair())
        setattr(link, direction, FrameCorruptor(_Gaps(gaps, ber), ber))
        return hub, node, link

    decided, framed = pair(), pair()
    assert send_clean(decided[1], decided[2], 10, SECOND) == taken
    for _ in range(taken):
        send_with_arq(framed[1], framed[2], 10)
    assert state(*decided[:2]) == state(*framed[:2])
    _carry(decided, 10, decided[1].now + 1, decide=True)
    _carry(framed, 10, decided[1].now, decide=False)
    _assert_same_devices_and_streams(decided, framed)
    assert decided[1].packets_sent == taken + 1


@pytest.mark.xfail(strict=True, reason="a CRC-missed flip of the sequence byte is accepted "
                   "as a second packet (ROADMAP items 3 and 4)")
def test_a_checksum_missed_sequence_flip_is_not_counted_as_a_second_packet():
    # the first data frame's sequence byte loses its low bit, 112 bits before
    # the frame's end, and its CRC field flips by x^112 mod g(x): the CRC
    # misses the error, so the hub accepts and acks a frame with the other
    # sequence number; the node drops that ack as stale and retransmits, and
    # the hub accepts the real frame as a second packet
    ber, nbits = 0.01, 18 * 8
    crc_flips = [nbits - 1 - d for d in range(16) if CRC_SYNDROMES[nbits - 1 - 31] >> d & 1]
    flips = [31, *sorted(crc_flips)]
    gaps = [flips[0], *(b - a - 1 for a, b in zip(flips, flips[1:])), 1000]
    hub, node, link = connect(*lossless_pair())
    link.uplink = FrameCorruptor(_Gaps(gaps, ber), ber)
    assert send_with_arq(node, link, 10).attempts_used == 2
    assert (node.packets_sent, node.drops["stale_ack"], hub.rx_frames[1]) == (1, 1, 2)
    assert hub.rx_packets[1] <= node.packets_sent


@pytest.mark.xfail(strict=True, reason="a CRC-missed data frame that decodes as a disconnect "
                   "strands its node (ROADMAP items 3 and 4)")
def test_a_checksum_missed_disconnect_does_not_strand_the_node():
    # the first data frame's type byte gains its 0x04 bit, turning DATA into
    # MGMT_DISCONNECT, and its CRC field flips by that bit's syndrome: the CRC
    # misses the error, so the hub drops node 1 from its registry, while the
    # node, which hears nothing of it, stays connected; the hub drops each
    # retransmission as `access`, and the packet is lost
    ber, nbits = 0.01, 18 * 8
    crc_flips = [nbits - 1 - d for d in range(16) if CRC_SYNDROMES[nbits - 6] >> d & 1]
    flips = [5, *sorted(crc_flips)]
    gaps = [flips[0], *(b - a - 1 for a, b in zip(flips, flips[1:])), 1000]
    hub, node, link = connect(*lossless_pair())
    link.uplink = FrameCorruptor(_Gaps(gaps, ber), ber)
    send_with_arq(node, link, 10)
    assert len(flips) == 6
    assert (1 in hub.registry) == (node.connection is Connection.CONNECTED)


# ------------------------------------------------------------- clean joins

JOIN_FIELDS = (*STATE_FIELDS, "hub_id", "next_deadline")


def join_state(hub, node, link):
    """Every join field of both devices, and where each substream stands:
    the clean bits before its next flip and its generator's whole state, so
    that no gap is left drawn ahead."""
    devices = [{name: getattr(d, name) for name in JOIN_FIELDS} for d in (hub, node)]
    streams = [(c.gap, c.rng.getstate()) for c in (link.uplink, link.downlink)]
    return devices, streams


def idle_pair():
    hub, node = Device(Role.HUB, 0), Device(Role.NODE, 1)
    return hub, node, make_link(node, hub, ChannelModel(rng_seed=0), 1e-3)


def test_join_clean_takes_a_join_whose_frames_both_cross_clean():
    # the pair each case below spoils
    hub, node, link = idle_pair()
    assert join_clean(node, link)
    assert (node.connection, node.hub_id, node.next_deadline) == (Connection.CONNECTED, 0, None)
    assert (hub.registry, node.next_sequence, hub.next_sequence) == ({1}, 1, 1)
    assert (hub.now, node.now) == (MGMT_BITS, 2 * MGMT_BITS)


def _hub_traced(hub, node):
    hub.trace = []


def _node_connecting(hub, node):
    node.request_connect(hub.device_id)


def _node_registered(hub, node):
    hub.registry.add(node.device_id)


def _hub_full(hub, node):
    hub.registry.update(range(100, 100 + MAX_NODES))


# _frame_queued queues an SDU at the IDLE node, which holds it until it connects
@pytest.mark.parametrize("spoil", [_traced, _hub_traced, _node_connecting, _node_registered,
                                   _hub_full, _hub_inbox_busy, _frame_queued,
                                   _hub_frame_pending, _hub_reassembling,
                                   _node_reassembling])
def test_join_clean_declines_outside_its_steady_state(spoil):
    hub, node, link = idle_pair()
    spoil(hub, node)
    before = join_state(hub, node, link)
    assert not join_clean(node, link)
    assert join_state(hub, node, link) == before


@pytest.mark.parametrize("ber", [0.0, 2e-3, 0.02, 1.0])
def test_join_clean_then_establish_connection_matches_establish_connection(ber):
    # three nodes join one hub in turn, as in ``run_experiment``, so later
    # joins meet a hub whose clock runs ahead of the node's
    def star(seed):
        hub = Device(Role.HUB, 0)
        model = ChannelModel(rng_seed=seed)
        return hub, [(node, make_link(node, hub, model, ber))
                     for node in (Device(Role.NODE, i) for i in (1, 2, 3))]

    seen = Counter()
    for seed in range(40):
        twin, framed = star(seed), star(seed)
        for (node, link), (other, other_link) in zip(twin[1], framed[1]):
            taken = join_clean(node, link)
            seen[taken] += 1
            if not taken:
                establish_connection(node, link)
            establish_connection(other, other_link)
            assert join_state(twin[0], node, link) == join_state(framed[0], other, other_link)
    if ber in (2e-3, 0.02):
        assert seen[True] and seen[False]   # both ways of joining occurred
    else:
        assert seen[ber == 0.0] == 120      # every join taken at ber 0, none at ber 1


# ------------------------------------------------------------------ polling

def test_poll_empty_inbox_only_advances_timers():
    hub, node, link = connect(*lossless_pair())
    before = (node.connection, node.next_sequence, node.frames_sent)
    assert node.poll_step() == []
    assert (node.connection, node.next_sequence, node.frames_sent) == before


def test_poll_drops_frames_for_other_devices():
    hub, node, link = connect(*lossless_pair())
    stray = data_frame(200, 1, 0, b"not for the hub")
    hub.deliver(encode_frame(stray))
    outputs = hub.poll_step()
    assert outputs == []
    assert hub.drops["address"] == 1
    assert hub.rx_frames[1] == 0


def test_poll_never_acks_misaddressed_frames():
    hub, node, link = connect(*lossless_pair())
    for recipient in (5, 77, 255):
        hub.deliver(encode_frame(data_frame(recipient, 1, 3, b"x")))
        assert txs(hub.poll_step()) == []


def test_poll_valid_data_frame_emits_ack_and_indication():
    hub, node, link = connect(*lossless_pair())
    frame = data_frame(0, 1, 9, b"reading")
    hub.deliver(encode_frame(frame))
    outputs = hub.poll_step()
    sent = txs(outputs)
    assert len(sent) == 1
    assert sent[0][1].header.frame_type is FrameType.ACK
    assert sent[0][1].acked_sequence == 9
    notes = [p for p in inds(outputs)
             if p.family is PrimitiveFamily.DATA_SERVICE
             and p.kind is PrimitiveKind.INDICATION]
    assert notes and notes[0].payload["sdu"] == b"reading"


def test_poll_rejects_data_from_unregistered_sender():
    hub = Device(Role.HUB, 0)
    hub.deliver(encode_frame(data_frame(0, 9, 0, b"intruder")))
    outputs = hub.poll_step()
    assert txs(outputs) == []
    assert hub.drops["access"] == 1


def _crafted(frame_control, body):
    """Hub-to-node bytes the encoder would refuse to build, with a valid CRC."""
    head = bytes([frame_control, 1, 0, 0, 0x80, len(body)]) + body
    return head + compute_crc16(head).to_bytes(2, "big")


# wire bytes -> (drops, connection afterwards, indication events)
RECEIVED_AT_NODE = {
    "truncated": (b"\x00\x01\x00", {"truncated": 1}, Connection.CONNECTED, []),
    "unknown-type": (_crafted(7, b""), {"malformed": 1}, Connection.CONNECTED, []),
    "ten-byte-ack": (_crafted(FrameType.ACK, b"\x00\x00"), {"malformed": 1},
                     Connection.CONNECTED, []),
    "stale-ack": (encode_frame(ack_frame(1, 0, 42)), {"stale_ack": 1},
                  Connection.CONNECTED, []),
    "data-not-from-hub": (encode_frame(data_frame(1, 7, 0, b"x")), {"access": 1},
                          Connection.CONNECTED, []),
    "hub-disconnects": (encode_frame(management_frame(FrameType.MGMT_DISCONNECT, 1, 0, 0)),
                        {}, Connection.IDLE, ["disconnected"]),
}


@pytest.mark.parametrize("name", sorted(RECEIVED_AT_NODE))
def test_connected_node_receives_crafted_bytes(name):
    wire, drops, connection, events = RECEIVED_AT_NODE[name]
    hub, node, link = connect(*lossless_pair())
    node.deliver(wire)
    outputs = node.poll_step()
    assert txs(outputs) == []
    assert [(p.kind, p.payload["event"]) for p in inds(outputs)] == \
        [(PrimitiveKind.INDICATION, event) for event in events]
    assert node.drops == drops
    assert node.connection is connection


def test_node_emits_data_only_when_connected():
    # enqueue while idle: nothing goes out; connecting flushes the queue
    hub = Device(Role.HUB, 0)
    node = Device(Role.NODE, 1)
    node.hub_id = 0
    assert txs(node.request_send(b"early")) == []

    link = make_link(node, hub, ChannelModel(rng_seed=3), 0.0)
    request_wire = txs(node.request_connect(0))[0][2]
    hub.deliver(request_wire)
    assignment_wire = txs(hub.poll_step())[0][2]
    node.deliver(assignment_wire)
    outputs = node.poll_step()
    assert node.connection is Connection.CONNECTED
    sent = txs(outputs)
    assert len(sent) == 1
    assert sent[0][1].header.frame_type is FrameType.DATA


def test_primitive_trace_records_family_and_kind():
    trace = []
    hub = Device(Role.HUB, 0, trace=trace)
    node = Device(Role.NODE, 1, trace=trace)
    link = make_link(node, hub, ChannelModel(rng_seed=4), 0.0)
    establish_connection(node, link)
    send_with_arq(node, link, 1)
    families = {entry[2] for entry in trace}
    assert "MANAGEMENT" in families
    assert "DATA_TRANSFER" in families
    kinds = {entry[3] for entry in trace}
    assert {"REQUEST", "CONFIRM", "INDICATION"} <= kinds
