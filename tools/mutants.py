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
TEST_MAC = "tests/test_mac.py::"
TEST_CHANNEL = "tests/test_channel.py::"
JOIN_TWIN = (TEST_MAC + "test_join_clean_then_establish_connection_matches_establish_connection",)

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
    Mutant("join-downlink-not-skipped", MAC,
           "    link.downlink.skip(MGMT_BITS, 1)\n", "", JOIN_TWIN),
    Mutant("join-capacity-unchecked", MAC,
           " or len(hub.registry) >= MAX_NODES", "",
           (TEST_MAC + "test_join_clean_declines_outside_its_steady_state",)),
    Mutant("join-node-reassembly-unchecked", MAC,
           " or node.open_reassemblies", "",
           (TEST_MAC + "test_join_clean_declines_outside_its_steady_state",)),
    Mutant("join-clean-check-and-to-or", MAC,
           "clean_run(MGMT_BITS)\n                    and link.downlink",
           "clean_run(MGMT_BITS)\n                    or link.downlink", JOIN_TWIN),
    # mac.send_clean, the arithmetic twin of send_with_arq
    Mutant("send-wrap-duplicate-accepted", MAC,
           "accepted += n - (last == seq)", "accepted += n",
           (TEST_MAC + "test_send_clean_counts_a_wrapped_sequence_as_a_duplicate",)),
    Mutant("send-failed-attempt-ends-before-its-deadline", MAC,
           "                t = deadline\n", "",
           (TEST_MAC + "test_send_clean_matches_send_with_arq_on_lossy_links",)),
    Mutant("send-hand-off-only-at-exactly-four-flips", MAC,
           "            if flips >= CRC_HAMMING_DISTANCE:\n                break   # the frame path",
           "            if flips == CRC_HAMMING_DISTANCE:\n                break   # the frame path",
           (TEST_MAC + "test_send_clean_matches_send_with_arq_on_lossy_links",)),
    Mutant("send-attempt-loop-stops-only-at-exactly-four-flips", MAC,
           "                if flips >= CRC_HAMMING_DISTANCE:\n                    break\n",
           "                if flips == CRC_HAMMING_DISTANCE:\n                    break\n",
           (TEST_MAC + "test_a_data_frame_the_checksum_cannot_judge_goes_to_the_frame_path",)),
    Mutant("send-duplicate-drop-not-counted", MAC,
           '    if intact > accepted:\n        hub.drops["duplicate"] += intact - accepted\n', "",
           (TEST_MAC + "test_send_clean_counts_a_wrapped_sequence_as_a_duplicate",)),
    Mutant("send-clean-run-drops-the-ack-airtime", MAC,
           "now += n * exchange", "now += n * data_bits",
           (TEST_MAC + "test_send_clean_then_frame_path_matches_frame_path_alone",)),
    Mutant("send-clean-run-pulls-the-hub-clock-to-the-ack-end", MAC,
           "arrival = now - ACK_BITS", "arrival = now",
           (TEST_MAC + "test_send_clean_then_frame_path_matches_frame_path_alone",)),
    Mutant("send-clean-run-takes-an-exchange-starting-at-until", MAC,
           "(until - now - 1) // exchange + 1", "(until - now) // exchange + 1",
           (TEST_MAC + "test_send_clean_takes_no_exchange_starting_at_or_after_until",)),
    Mutant("send-clean-run-taken-whole-when-its-last-exchange-starts-at-until", MAC,
           "final_start < until", "final_start <= until",
           (TEST_MAC + "test_send_clean_takes_a_whole_clean_run_only_if_its_last_exchange"
            "_starts_before_until",)),
    Mutant("send-decided-packet-drops-the-ack-airtime", MAC,
           "                    t += ACK_BITS\n", "",
           (TEST_MAC + "test_send_clean_matches_send_with_arq_on_lossy_links",)),
    Mutant("send-deadline-one-airtime-short", MAC,
           "deadline = t + ACK_TIMEOUT", "deadline = t - data_bits + ACK_TIMEOUT",
           (TEST_MAC + "test_send_clean_matches_send_with_arq_on_lossy_links",)),
    Mutant("send-deadline-one-airtime-long", MAC,
           "deadline = t + ACK_TIMEOUT", "deadline = t + data_bits + ACK_TIMEOUT",
           (TEST_MAC + "test_send_clean_matches_send_with_arq_on_lossy_links",)),
    Mutant("send-last-accepted-stays-at-the-first-packet", MAC,
           "last = (seq + n - 1) & 0xFF", "last = seq",
           (TEST_MAC + "test_one_long_send_clean_equals_one_exchange_calls",)),
    # FrameCorruptor's look-ahead buffer
    Mutant("set-ber-keeps-gaps-drawn-ahead", CHANNEL,
           "        self._ahead = deque()",
           "        if not hasattr(self, '_ahead'):\n            self._ahead = deque()",
           (TEST_CHANNEL + "test_flips_ahead_keeps_the_corrupt_sequence",)),
    Mutant("corrupt-ignores-gaps-drawn-ahead", CHANNEL,
           "            pos += 1 + (ahead.popleft() if ahead else self._draw())\n"
           "        self._gap = pos - nbits",
           "            pos += 1 + self._draw()\n        self._gap = pos - nbits",
           (TEST_CHANNEL + "test_flips_ahead_keeps_the_corrupt_sequence",)),
    Mutant("skip-ignores-gaps-drawn-ahead", CHANNEL,
           "                pos += 1 + (ahead.popleft() if ahead else self._draw())\n"
           "            self._gap = pos - end",
           "                pos += 1 + self._draw()\n            self._gap = pos - end",
           (TEST_CHANNEL + "test_flips_ahead_keeps_the_corrupt_sequence",)),
    # Device
    Mutant("poll-step-checks-timers-only-on-an-empty-inbox", MAC,
           "            self._on_wire(self.inbox.popleft(), outputs)\n"
           "        self._check_timers(outputs)\n",
           "            self._on_wire(self.inbox.popleft(), outputs)\n"
           "        else:\n            self._check_timers(outputs)\n",
           (TEST_MAC + "test_a_reassembly_gap_expires_at_a_hub_driven_by_pump",)),
    Mutant("hub-sends-to-a-node-that-left", MAC,
           "            if self.role is Role.HUB and frame.header.recipient_id not in self.registry:\n"
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
