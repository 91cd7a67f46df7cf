"""Named mutants of the decision code, each with the tests that must kill it.

    python3 tools/mutants.py

Each mutant is one exact text replacement in one file of the tree this
script sits in.  For each, the script copies the tree to a temporary
directory, applies the replacement there and runs ``pytest -x -q`` on the
mutant's listed tests; if they pass, it runs all of tier-1.  A mutant is
killed when a test fails (or the run times out) and survives when every
test passes.  The script first checks that each replacement's old text
occurs exactly once and that the listed tests pass on the unmutated tree;
it refuses to run otherwise.  It runs at most two test processes at a time,
prints one line per mutant, and exits 1 if any mutant survived, 2 if the
catalogue or the unmutated tree is at fault.  Standard library only.
"""

import concurrent.futures
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
TIMEOUT_S = 120
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                     "*.egg-info", "results")
FAILED_LINE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MAC = "src/wbansim/mac.py"
CHANNEL = "src/wbansim/channel.py"
FRAMES = "src/wbansim/frames.py"
SIMULATOR = "src/wbansim/simulator.py"
CLI = "src/wbansim/cli.py"
OPTIMIZER = "src/wbansim/optimizer.py"
TEST_MAC = "tests/test_mac.py::"
TEST_CHANNEL = "tests/test_channel.py::"
JOIN_TWIN = (TEST_MAC + "test_join_clean_then_establish_connection_matches_establish_connection",)
FORCED_MISS = TEST_MAC + "test_a_data_frame_the_checksum_cannot_judge_goes_to_the_frame_path"
FORCED_MISS_LATER = (TEST_MAC + "test_a_frame_the_checksum_cannot_judge_anywhere_in_a_packet"
                     "_goes_to_the_frame_path")
LOSSY_LINKS = TEST_MAC + "test_send_clean_matches_send_with_arq_on_lossy_links"
FRAME_PATH_ALONE = TEST_MAC + "test_send_clean_then_frame_path_matches_frame_path_alone"
LOOK_AHEAD = TEST_CHANNEL + "test_looking_ahead_keeps_the_corrupt_sequence"
LONG_LOOK_AHEAD = TEST_CHANNEL + "test_corrupt_uses_a_long_look_ahead_in_linear_time"
EXTREME_RATES = (TEST_CHANNEL + "test_ber_0_draws_nothing_and_ber_1_flips_every_bit_at_one"
                 "_draw_each")
SEND_DECLINES = TEST_MAC + "test_send_clean_declines_outside_the_steady_state"
SEND_REFUSES = TEST_MAC + "test_send_clean_refuses_a_payload_no_frame_can_carry"
ARQ_REFUSES = TEST_MAC + "test_send_with_arq_refuses_a_payload_no_frame_can_carry"
JOIN_DECLINES = TEST_MAC + "test_join_clean_declines_outside_its_steady_state"
DEAD_LINK_JOIN = TEST_MAC + "test_join_over_dead_link_gives_up_within_round_bound"
DRAWS_AS_DRAW = TEST_MAC + "test_send_clean_draws_every_gap_as_draw_does"
SUBNORMAL_BER = TEST_MAC + "test_send_clean_draws_as_draw_does_at_a_subnormal_ber"
NO_CALL_PER_FLIP = TEST_MAC + "test_the_walk_makes_no_python_call_per_flip"
KEYS_PINNED = (TEST_CHANNEL + "test_substream_keys_are_pinned",)
TEST_OPTIMIZER = "tests/test_optimizer.py::"
OPTIMIZER_ORACLE = (TEST_OPTIMIZER + "test_the_descent_matches_the_oracle_on_a_grid",)
HALVINGS_RUN_OUT = (TEST_OPTIMIZER + "test_a_line_search_halves_its_first_step_at_most"
                    "_halvings_times")
CURVATURE = (TEST_OPTIMIZER + "test_exact_gradient_matches_finite_differences",
             TEST_OPTIMIZER + "test_printed_gradient_matches_its_own_potential")
WRITTEN_OUT = (TEST_OPTIMIZER + "test_formulas_are_their_written_out_forms",)

CATALOGUE = [
    # mac.join_clean, the arithmetic twin of establish_connection
    Mutant("join-hub-clock-not-pulled", MAC,
           "    if hub.now < node.now:\n        hub.now = node.now\n", "", JOIN_TWIN),
    Mutant("join-hub-clock-pulled-after-the-assignment", MAC,
           "    node.now += MGMT_BITS\n"
           "    if hub.now < node.now:\n        hub.now = node.now\n"
           "    # the assignment: the hub registers the node and answers\n"
           "    hub.registry.add(node.device_id)\n"
           "    hub.next_sequence = (hub.next_sequence + 1) & 0xFF\n"
           "    node.now += MGMT_BITS\n",
           "    node.now += MGMT_BITS\n"
           "    # the assignment: the hub registers the node and answers\n"
           "    hub.registry.add(node.device_id)\n"
           "    hub.next_sequence = (hub.next_sequence + 1) & 0xFF\n"
           "    node.now += MGMT_BITS\n"
           "    if hub.now < node.now:\n        hub.now = node.now\n", JOIN_TWIN),
    Mutant("join-hub-sequence-not-taken", MAC,
           "    hub.next_sequence = (hub.next_sequence + 1) & 0xFF\n", "", JOIN_TWIN),
    Mutant("join-uplink-gap-not-committed", MAC,
           "    up.gap -= MGMT_BITS\n", "", JOIN_TWIN),
    Mutant("join-downlink-gap-not-committed", MAC,
           "    down.gap -= MGMT_BITS\n", "", JOIN_TWIN),
    Mutant("join-capacity-unchecked", MAC,
           " or len(hub.registry) >= MAX_NODES", "", (JOIN_DECLINES,)),
    Mutant("join-node-not-checked-at-rest", MAC,
           "(not _at_rest(node) or not _at_rest(hub)", "(not _at_rest(hub)",
           (JOIN_DECLINES,)),
    Mutant("join-clean-check-and-to-or", MAC,
           "up.gap >= MGMT_BITS and down.gap", "up.gap >= MGMT_BITS or down.gap",
           JOIN_TWIN),
    # mac._at_rest, the steady-state rule of both twins
    Mutant("rest-trace-unchecked", MAC,
           "(device.trace is None and not device.inbox", "(not device.inbox",
           (SEND_DECLINES, JOIN_DECLINES)),
    Mutant("rest-inbox-unchecked", MAC,
           "(device.trace is None and not device.inbox", "(device.trace is None",
           (SEND_DECLINES, JOIN_DECLINES)),
    Mutant("rest-deadline-unchecked", MAC,
           "            and device.next_deadline is None and not device.open_reassemblies)",
           "            and not device.open_reassemblies)",
           (SEND_DECLINES, JOIN_DECLINES)),
    Mutant("rest-reassembly-unchecked", MAC,
           " and not device.open_reassemblies)", ")",
           (SEND_DECLINES, JOIN_DECLINES)),
    # mac.send_clean, the arithmetic twin of send_with_arq
    Mutant("send-payload-len-unbounded", MAC,
           "    if not 0 <= payload_len <= MAX_PAYLOAD:\n"
           "        raise RangeError(f\"payload_len={payload_len} must be in 0..{MAX_PAYLOAD}\")\n"
           "    hub = link.peer\n",
           "    hub = link.peer\n", (SEND_REFUSES,)),
    Mutant("send-payload-len-bound-one-long", MAC,
           "payload_len <= MAX_PAYLOAD:\n"
           "        raise RangeError(f\"payload_len={payload_len} must be in 0..{MAX_PAYLOAD}\")\n"
           "    hub = link.peer\n",
           "payload_len <= MAX_PAYLOAD + 1:\n"
           "        raise RangeError(f\"payload_len={payload_len} must be in 0..{MAX_PAYLOAD}\")\n"
           "    hub = link.peer\n", (SEND_REFUSES,)),
    Mutant("send-hub-not-checked-at-rest", MAC,
           "(not _at_rest(sender) or not _at_rest(hub)", "(not _at_rest(sender)",
           (SEND_DECLINES,)),
    Mutant("send-wrap-duplicate-accepted", MAC,
           "accepted += n - (last == seq)", "accepted += n",
           (TEST_MAC + "test_send_clean_counts_a_wrapped_sequence_as_a_duplicate",)),
    Mutant("send-failed-attempt-ends-before-its-deadline", MAC,
           "            t = deadline\n", "",
           (LOSSY_LINKS,)),
    Mutant("send-zero-syndrome-packet-not-handed-off", MAC,
           "        if not (delivered or syndrome):   # the frame path carries this packet\n"
           "            up_gap, down_gap = before\n"
           "            uplink.ahead.extend(reversed(up_took))\n"
           "            downlink.ahead.extend(reversed(down_took))\n"
           "            break\n", "",
           (FORCED_MISS,)),
    Mutant("send-attempt-loop-goes-on-past-a-zero-syndrome", MAC,
           "            if not syndrome:\n"
           "                break   # the CRC misses this frame\n",
           "",
           (FORCED_MISS,)),
    Mutant("send-data-frame-decided-by-its-flip-count", MAC,
           "syndrome ^= syndromes[data_last - up_gap]", "syndrome += 1",
           (FORCED_MISS,)),
    Mutant("send-ack-decided-by-its-flip-count", MAC,
           "syndrome ^= syndromes[ack_last - down_gap]", "syndrome += 1",
           (FORCED_MISS_LATER,)),
    Mutant("send-syndrome-reset-per-packet-not-per-attempt", MAC,
           "        while attempts < tries:\n            syndrome = 0\n",
           "        syndrome = 0\n        while attempts < tries:\n",
           (FORCED_MISS_LATER,)),
    Mutant("send-handed-off-packet-keeps-its-walk", MAC,
           "            up_gap, down_gap = before\n", "",
           (FORCED_MISS_LATER,)),
    Mutant("send-handed-off-packet-pulls-the-hub-clock", MAC,
           "            up_gap, down_gap = before\n",
           "            up_gap, down_gap = before\n"
           "            arrival = landed\n",
           (FORCED_MISS_LATER,)),
    Mutant("send-uplink-hand-back-not-reversed", MAC,
           "uplink.ahead.extend(reversed(up_took))", "uplink.ahead.extend(up_took)",
           (FORCED_MISS,)),
    Mutant("send-downlink-hand-back-not-reversed", MAC,
           "downlink.ahead.extend(reversed(down_took))", "downlink.ahead.extend(down_took)",
           (FORCED_MISS_LATER,)),
    Mutant("send-uplink-hand-back-dropped", MAC,
           "            uplink.ahead.extend(reversed(up_took))\n", "",
           (FORCED_MISS,)),
    Mutant("send-gaps-recorded-per-call-not-per-packet", MAC,
           "        up_took, down_took = [], []\n",
           "        try:\n"
           "            up_took, down_took\n"
           "        except UnboundLocalError:\n"
           "            up_took, down_took = [], []\n",
           (FORCED_MISS_LATER,)),
    Mutant("send-walks-past-handed-back-gaps", MAC,
           "\n            or uplink.ahead or downlink.ahead):", "):",
           (FORCED_MISS_LATER,)),
    Mutant("send-clean-run-takes-the-longer-direction", MAC,
           "        if acks < run:", "        if acks > run:", (FRAME_PATH_ALONE,)),
    Mutant("send-uplink-gap-not-written-back", MAC,
           "    uplink.gap = up_gap\n", "", (LOSSY_LINKS,)),
    Mutant("send-downlink-gap-not-written-back", MAC,
           "    downlink.gap = down_gap\n", "", (LOSSY_LINKS,)),
    Mutant("send-duplicate-drop-not-counted", MAC,
           '    if intact > accepted:\n        hub.drops["duplicate"] += intact - accepted\n', "",
           (TEST_MAC + "test_send_clean_counts_a_wrapped_sequence_as_a_duplicate",)),
    Mutant("send-clean-run-drops-the-ack-airtime", MAC,
           "now += n * exchange", "now += n * data_bits",
           (FRAME_PATH_ALONE,)),
    Mutant("send-clean-run-pulls-the-hub-clock-to-the-ack-end", MAC,
           "arrival = now - ack_bits", "arrival = now",
           (FRAME_PATH_ALONE,)),
    Mutant("send-clean-run-takes-an-exchange-starting-at-until", MAC,
           "(until - now - 1) // exchange + 1", "(until - now) // exchange + 1",
           (TEST_MAC + "test_send_clean_takes_no_exchange_starting_at_or_after_until",)),
    Mutant("send-clean-run-taken-whole-when-its-last-exchange-starts-at-until", MAC,
           "final_start < until", "final_start <= until",
           (TEST_MAC + "test_send_clean_takes_a_whole_clean_run_only_if_its_last_exchange"
            "_starts_before_until",)),
    Mutant("send-decided-packet-drops-the-ack-airtime", MAC,
           "                t += ack_bits\n", "",
           (LOSSY_LINKS,)),
    Mutant("send-deadline-one-airtime-short", MAC,
           "deadline = t + timeout", "deadline = t - data_bits + timeout",
           (LOSSY_LINKS,)),
    Mutant("send-deadline-one-airtime-long", MAC,
           "deadline = t + timeout", "deadline = t + data_bits + timeout",
           (LOSSY_LINKS,)),
    Mutant("send-last-accepted-stays-at-the-first-packet", MAC,
           "last = (seq + n - 1) & 0xFF", "last = seq",
           (TEST_MAC + "test_one_long_send_clean_equals_one_exchange_calls",)),
    Mutant("send-decided-wrap-duplicate-accepted", MAC,
           "accepted += last != seq", "accepted += 1",
           (TEST_MAC + "test_send_clean_counts_a_wrapped_sequence_as_a_duplicate",)),
    Mutant("send-retries-deficit-one-long", MAC,
           "retries += attempts - 1", "retries += attempts", (LOSSY_LINKS,)),
    Mutant("send-corrupted-deficit-counts-the-intact-frames", MAC,
           "corrupted += attempts - arrived", "corrupted += arrived", (LOSSY_LINKS,)),
    Mutant("send-lost-deficit-counts-the-delivered", MAC,
           "lost += not delivered", "lost += delivered", (LOSSY_LINKS,)),
    # send_clean's inline draws
    Mutant("send-uplink-walk-draws-from-the-downlink-generator", MAC,
           "up_gap, up_random, up_logq = uplink.gap, uplink.rng.random",
           "up_gap, up_random, up_logq = uplink.gap, downlink.rng.random",
           (DRAWS_AS_DRAW, LOSSY_LINKS)),
    Mutant("send-uplink-walk-calls-draw", MAC,
           "gap = int(log1p(-up_random()) / up_logq)", "gap = uplink.draw()",
           (NO_CALL_PER_FLIP,)),
    # FrameCorruptor's look-ahead buffer
    Mutant("draw-ignores-handed-back-gaps", CHANNEL,
           "        if self.ahead:\n            return self.ahead.pop()\n", "",
           (LOOK_AHEAD, LONG_LOOK_AHEAD)),
    Mutant("corrupt-returns-early-at-ber-0", CHANNEL,
           "        nbits = len(data) * 8\n",
           "        if self.gap == sys.maxsize:\n            return data\n"
           "        nbits = len(data) * 8\n",
           JOIN_TWIN),
    Mutant("ber-1-draws-gaps-at-a-finite-rate", CHANNEL,
           "-math.inf", "math.log1p(-0.5)", (EXTREME_RATES,)),
    Mutant("corruptor-log-q-uncapped", CHANNEL,
           "min(math.log1p(-ber), LOG_Q_CAP)", "math.log1p(-ber)",
           (SUBNORMAL_BER, TEST_CHANNEL + "test_a_gap_past_every_float_does_not_overflow")),
    # optimizer._descend, the barrier descent's damped Newton steps, and the
    # kernels' formulas, each written once
    Mutant("line-search-objective-at-x-not-at-the-candidate", OPTIMIZER,
           "fc = kernel.objective(candidate, eps)", "fc = kernel.objective(x, eps)",
           OPTIMIZER_ORACLE),
    Mutant("line-search-takes-a-candidate-at-or-below-0", OPTIMIZER,
           "            if candidate > 0:\n", "            if True:\n", (HALVINGS_RUN_OUT,)),
    Mutant("line-search-one-halving-too-many", OPTIMIZER,
           "range(HALVINGS)", "range(HALVINGS + 1)", (HALVINGS_RUN_OUT,)),
    Mutant("line-search-accepted-objective-not-carried", OPTIMIZER,
           "x, fx = candidate, fc", "x = candidate",
           ("tests/test_golden.py::test_cli_outputs_are_byte_identical[optimize]",)),
    Mutant("line-search-no-early-stop", OPTIMIZER,
           "            if candidate == x:\n"
           "                return x, fx, steps   # every later halving rounds to x too\n", "",
           (TEST_OPTIMIZER + "test_a_line_search_stops_once_its_candidate_equals_x",)),
    Mutant("newton-step-never-taken", OPTIMIZER,
           "alpha = 1.0 / h if h > 0 else 0.25 * x / abs(g)", "alpha = 0.25 * x / abs(g)",
           (TEST_OPTIMIZER + "test_newton_steps_take_at_most_six_tenths_of_the_oracles_steps",)),
    Mutant("curvature-barrier-sign-flipped", OPTIMIZER,
           "+ 2.0 * eps / x ** 2 / x)", "- 2.0 * eps / x ** 2 / x)", CURVATURE),
    Mutant("exact-curvature-with-slope-1", OPTIMIZER,
           "    slope = 8.0\n", "    slope = 1.0\n", CURVATURE),
    Mutant("verbatim-exponent-is-the-frame-exponent", OPTIMIZER,
           "        return x\n\n    def objective", "        return 8.0 * (x + _OVERHEAD)\n\n"
           "    def objective", WRITTEN_OUT),
    Mutant("gradient-barrier-term-not-squared", OPTIMIZER,
           "self.clean ** self.exponent(x) - eps / x ** 2",
           "self.clean ** self.exponent(x) - eps / x", CURVATURE + WRITTEN_OUT),
    Mutant("optimize-flat-start-reported-as-converged", OPTIMIZER,
           "    if x == payload_0 and fer_opt == 1.0:\n", "    if False:\n",
           (TEST_OPTIMIZER + "test_a_flat_start_is_not_reported_as_converged",)),
    # the codec's and the config's range checks
    Mutant("validate-fragment-index-unchecked", FRAMES,
           "if not 0 <= self.fragment_index <= MAX_FRAGMENT_INDEX:", "if False:",
           ("tests/test_frames.py::test_out_of_range_fields_raise",)),
    Mutant("config-node-count-bound-one-long", SIMULATOR,
           "self.node_count <= MAX_NODES:", "self.node_count <= MAX_NODES + 1:",
           ("tests/test_simulator.py::test_config_validation",)),
    Mutant("config-max-retries-unbounded", SIMULATOR,
           "not 0 <= self.max_retries <= MAX_EXCHANGES_PER_NODE:", "not 0 <= self.max_retries:",
           ("tests/test_simulator.py::test_config_validation",)),
    # error paths: a run's failures and their messages
    Mutant("arq-unresolved-exchange-not-raised", MAC,
           "    raise ProtocolError(\"ARQ exchange did not resolve\")\n",
           "", (TEST_MAC + "test_arq_raises_when_the_sender_leaves_with_its_frame_queued",)),
    Mutant("send-with-arq-accepts-any-payload-length", MAC,
           "    if not 0 <= payload_len <= MAX_PAYLOAD:\n"
           "        raise RangeError(f\"payload_len={payload_len} must be in 0..{MAX_PAYLOAD}\")\n"
           "    if sender.connection is not Connection.CONNECTED:\n",
           "    if sender.connection is not Connection.CONNECTED:\n", (ARQ_REFUSES,)),
    Mutant("send-with-arq-addressed-to-its-sender", MAC,
           "data_frame(link.peer.device_id, sender.device_id,",
           "data_frame(sender.device_id, sender.device_id,",
           (TEST_MAC + "test_arq_perfect_channel_single_attempt",)),
    Mutant("join-failure-from-a-distance-names-the-ber", SIMULATOR,
           "            source = (f\"ber={config.ber}\" if config.ber is not None\n"
           "                      else f\"distance_m={distances[i]}\")\n",
           "            source = f\"ber={config.ber}\"\n",
           ("tests/test_simulator.py::test_a_join_failure_from_a_distance_names_the_distance",)),
    Mutant("attempt-failure-rate-divides-by-zero-frames", SIMULATOR,
           "        if total.s_frm == 0:\n            return 0.0\n", "",
           ("tests/test_simulator.py::test_a_run_too_short_for_any_frame_has_a_zero"
            "_attempt_failure_rate",)),
    Mutant("cli-library-error-escapes-main", CLI,
           "    except WbanError as exc:\n"
           "        print(f\"error: {type(exc).__name__}: {exc}\", file=sys.stderr)\n"
           "        return EXIT_USAGE\n", "",
           ("tests/test_cli.py::test_a_library_error_in_a_subcommand_exits_2_naming_its_type",)),
    # the connection drivers and the trace file
    Mutant("join-requests-its-own-id", MAC,
           "node.request_connect(link.peer.device_id)", "node.request_connect(node.device_id)",
           (TEST_MAC + "test_full_handshake_reaches_connected",)),
    Mutant("join-limit-one-long", MAC,
           "if self._join_requests < JOIN_MAX_ROUNDS:",
           "if self._join_requests <= JOIN_MAX_ROUNDS:", (DEAD_LINK_JOIN,)),
    Mutant("join-never-gives-up", MAC,
           "if self._join_requests < JOIN_MAX_ROUNDS:", "if True:", (DEAD_LINK_JOIN,)),
    Mutant("timed-out-join-stays-connecting", MAC,
           "                    self._leave(PrimitiveKind.CONFIRM, \"timed_out\", self.hub_id,"
           " outputs)\n",
           "                    self._deadline = None\n", (DEAD_LINK_JOIN,)),
    Mutant("join-requests-not-reset", MAC,
           "        self._join_requests = 0\n", "",
           (TEST_MAC + "test_a_timed_out_join_can_be_tried_again",)),
    Mutant("pump-stops-at-the-first-indication", MAC,
           "                indications.append(item[1])\n                continue\n",
           "                indications.append(item[1])\n                return indications\n",
           (TEST_MAC + "test_an_sdu_held_over_a_reconnect_goes_on_air",)),
    Mutant("node-leaves-at-any-senders-disconnect", MAC,
           "elif self.connection is Connection.IDLE or sender != self.hub_id:",
           "elif self.connection is Connection.IDLE:",
           (TEST_MAC + "test_management_out_of_turn_is_a_protocol_drop"
            "[_disconnect_from_a_device_that_is_not_its_hub]",)),
    Mutant("output-check-unlinks-a-dangling-link", CLI,
           "existed = os.path.lexists(path)", "existed = path.exists()",
           ("tests/test_cli.py::test_an_output_through_a_dangling_link_keeps_the_link",)),
    Mutant("trace-file-written-in-ticks", CLI,
           "{t / config.data_rate_bps:.9f}", "{t:.9f}",
           ("tests/test_golden.py::test_cli_outputs_are_byte_identical",)),
    # the substream keys: one SHA-256, from the builtin module first
    Mutant("stream-keyed-by-the-first-8-bytes-of-the-digest", CHANNEL,
           'int.from_bytes(digest, "big")', 'int.from_bytes(digest[:8], "big")', KEYS_PINNED),
    Mutant("derive-seed-takes-the-whole-digest", SIMULATOR,
           "key_digest(int(base_seed), index)[:8]", "key_digest(int(base_seed), index)",
           KEYS_PINNED),
    Mutant("key-hashes-the-id-before-the-seed", CHANNEL,
           "repr((seed, stream_id)).encode()", "repr((stream_id, seed)).encode()", KEYS_PINNED),
    Mutant("key-digest-from-hashlib-first", CHANNEL,
           "    from _sha256 import sha256\n", "    from hashlib import sha256\n",
           ("tests/test_cli.py::test_no_command_loads_hashlib",)),
    Mutant("key-fallback-imports-a-different-hash", CHANNEL,
           "    from hashlib import sha256\n", "    from hashlib import sha3_256 as sha256\n",
           (TEST_CHANNEL + "test_without_the_builtin_sha256_streams_key_through_hashlib",)),
    # a link's rate is given where the link is made; fragments are cut at MAX_PAYLOAD
    Mutant("make-link-downlink-keyed-by-the-uplink-id", MAC,
           "FrameCorruptor(model.stream((peer.device_id, sender.device_id)), ber))",
           "FrameCorruptor(model.stream((sender.device_id, peer.device_id)), ber))",
           (TEST_MAC + "test_a_link_draws_each_direction_at_its_rate_from_its_own_substream",)),
    Mutant("corruptor-rate-unchecked", CHANNEL,
           '        _check_probability("ber", ber)\n', "",
           (TEST_CHANNEL + "test_bad_ber_rejected",)),
    Mutant("fragment-cut-one-byte-short", MAC,
           "sdu[i:i + MAX_PAYLOAD]) for i in range(0, len(sdu), MAX_PAYLOAD)]",
           "sdu[i:i + MAX_PAYLOAD - 1]) for i in range(0, len(sdu), MAX_PAYLOAD - 1)]",
           (TEST_MAC + "test_fragment_arithmetic_split",)),
    Mutant("preset-drops-its-table", CHANNEL,
           "ChannelModel(rng_seed=rng_seed, distance_map=table)",
           "ChannelModel(rng_seed=rng_seed)",
           (TEST_CHANNEL + "test_wired_calibration_anchors_reference_fer",)),
    # Device
    Mutant("poll-step-checks-timers-only-on-an-empty-inbox", MAC,
           "            self._on_wire(self.inbox.popleft(), outputs)\n"
           "        self._check_timers(outputs)\n",
           "            self._on_wire(self.inbox.popleft(), outputs)\n"
           "        else:\n            self._check_timers(outputs)\n",
           (TEST_MAC + "test_a_reassembly_gap_expires_at_a_hub_driven_by_pump",)),
    Mutant("submit-counts-before-encoding", MAC,
           "        queued = [_PendingAck(frame, encode_frame(frame), sdu_id, 0)"
           " for frame in frames]\n"
           "        self.next_sequence = (self.next_sequence + len(frames)) & 0xFF\n"
           "        self.packets_sent += 1\n",
           "        self.next_sequence = (self.next_sequence + len(frames)) & 0xFF\n"
           "        self.packets_sent += 1\n"
           "        queued = [_PendingAck(frame, encode_frame(frame), sdu_id, 0)"
           " for frame in frames]\n",
           (TEST_MAC + "test_a_frame_no_wire_carries_is_refused_before_any_counter_moves",)),
    Mutant("hub-sends-to-a-node-that-left", MAC,
           "            if self.role is Role.HUB and pending.frame.header.recipient_id"
           " not in self.registry:\n"
           "                self._give_up(outputs)\n"
           "            else:\n"
           "                self._transmit_pending(outputs)\n",
           "            self._transmit_pending(outputs)\n",
           (TEST_MAC + "test_the_hub_gives_up_every_sdu_for_a_node_that_left",)),
]


def refusals() -> list[str]:
    """Why each refused mutant cannot be applied to this tree."""
    problems = []
    for m in CATALOGUE:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: its old text occurs {count} times in {m.file}, not once")
    return problems


def pytest(tree: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """Run pytest in `tree` on `tests` (all of tier-1 when empty); give the
    exit status (None on a timeout) and the output."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def copy_tree(into: str) -> Path:
    tree = Path(into) / "tree"
    shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
    return tree


def verdict(status, output: str) -> str:
    if status is None:
        return f"killed by a timeout after {TIMEOUT_S} s"
    if status in (1, 2):   # a test failed, or collecting the tests did
        found = FAILED_LINE.search(output)
        return "killed by " + (found.group(1) if found else f"pytest exit {status}")
    if status == 0:
        return "SURVIVED"
    return f"BROKEN: pytest exit {status}\n{output}"


def run(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="wbansim-mutant-") as scratch:
        tree = copy_tree(scratch)
        path = tree / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        status, output = pytest(tree, mutant.tests)
        missed = status == 0
        if missed:
            status, output = pytest(tree, ())
    result = verdict(status, output)
    if missed and result.startswith("killed"):
        result += " (its listed tests passed)"
    return result


def main() -> int:
    problems = refusals()
    if problems:
        print("refused:\n  " + "\n  ".join(problems))
        return 2
    start = time.monotonic()
    listed = tuple(dict.fromkeys(t for m in CATALOGUE for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="wbansim-mutant-") as scratch:
        status, output = pytest(copy_tree(scratch), listed)
    if status != 0:
        print(f"refused: the listed tests do not pass on the unmutated tree\n{output}")
        return 2
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        verdicts = list(pool.map(run, CATALOGUE))
    width = max(len(m.name) for m in CATALOGUE)
    for m, v in zip(CATALOGUE, verdicts):
        print(f"{m.name:<{width}}  {v}")
    survived = verdicts.count("SURVIVED")
    broken = sum(v.startswith("BROKEN") for v in verdicts)
    print(f"{len(CATALOGUE)} mutants: {len(CATALOGUE) - survived - broken} killed, "
          f"{survived} survived, {broken} broken, in {time.monotonic() - start:.0f} s")
    return 2 if broken else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
