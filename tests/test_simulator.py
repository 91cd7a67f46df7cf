"""Experiment harness tests: determinism, conservation, counters, sweeps."""

import dataclasses
import math

import pytest

from wbansim import simulator
from wbansim.analytics import (data_length, fer_analytic,
                               frame_corruption_probability)
from wbansim.channel import FrameCorruptor
from wbansim.errors import ConfigError
from wbansim.frames import CRC_SYNDROMES, MGMT_BITS, OVERHEAD_BYTES
from wbansim.mac import MAX_FRAME_BYTES
from wbansim.simulator import (ExperimentConfig, LinkCounters, derive_seed,
                               run_experiment, sweep)


def quick_config(**overrides):
    base = dict(node_count=2, distance_m=2.0, payload_len=10, max_retries=3,
                duration_s=0.5, seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("bad", [
    dict(node_count=0), dict(node_count=65), dict(payload_len=-1),
    dict(payload_len=256), dict(max_retries=-1), dict(duration_s=0),
    dict(data_rate_bps=0), dict(preset="fancy"), dict(ber=1.5),
    dict(distance_m=-1.0), dict(distance_m=[1.0]),  # one distance, two nodes
    dict(data_rate_bps=1e300),   # finite, but a run could never reach duration_s
    dict(preset="explicit", distance_map=()),
    dict(distance_map=((1.0, 1e-5), (10.0, 1e-4))),   # the preset has its own table
    dict(preset="explicit", ber=0.01, distance_map=((1.0, 1e-4), (10.0, 1e-3))),
    dict(max_retries=10**9),   # a packet's retries run past duration_s
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        quick_config(**bad).validate()


def test_explicit_preset_needs_a_channel():
    with pytest.raises(ConfigError):
        quick_config(preset="explicit").validate()
    quick_config(preset="explicit", ber=0.0).validate()
    quick_config(preset="explicit",
                 distance_map=((1.0, 1e-5), (10.0, 1e-4))).validate()


def test_counter_ordering_enforced():
    with pytest.raises(ConfigError, match="r_frm=6"):
        LinkCounters(s_frm=5, r_frm=6, s_pkt=0, r_pkt=0)
    with pytest.raises(ConfigError, match=r"^r_pkt=2 outside 0\.\.s_pkt=1$"):
        LinkCounters(s_frm=2, r_frm=2, s_pkt=1, r_pkt=2)


# ---------------------------------------------------------------- lossless

def test_lossless_channel_zero_error_rates():
    result = run_experiment(quick_config(preset="explicit", ber=0.0))
    assert result.totals.fer == 0.0
    assert result.totals.per == 0.0
    for link in result.links:
        assert link.counters.s_frm == link.counters.r_frm
        assert link.counters.s_pkt == link.counters.r_pkt
        assert link.lost == 0


# ------------------------------------------------------------ reproducible

def test_identical_config_bit_identical_counters():
    a = run_experiment(quick_config(duration_s=1.0, seed=7))
    b = run_experiment(quick_config(duration_s=1.0, seed=7))
    assert [link.counters for link in a.links] == [link.counters for link in b.links]


def test_different_seeds_differ():
    a = run_experiment(quick_config(duration_s=1.0, seed=7))
    b = run_experiment(quick_config(duration_s=1.0, seed=8))
    assert [l.counters for l in a.links] != [l.counters for l in b.links]


def test_adding_a_node_keeps_existing_links_unchanged():
    # per-link substreams: node 1's counters do not depend on node 2
    solo = run_experiment(quick_config(node_count=1, duration_s=1.0, seed=5))
    pair = run_experiment(quick_config(node_count=2, duration_s=1.0, seed=5))
    assert solo.links[0].counters == pair.links[0].counters


# ------------------------------------------------------------ conservation

def test_every_packet_delivered_or_lost():
    result = run_experiment(quick_config(duration_s=2.0, distance_m=10.0,
                                         max_retries=1, seed=13))
    for link in result.links:
        assert link.delivered + link.lost == link.counters.s_pkt
        assert link.counters.r_pkt <= link.counters.s_pkt
        assert link.counters.r_frm <= link.counters.s_frm
        assert link.counters.s_frm >= link.counters.s_pkt


def test_link_time_respects_capacity():
    config = quick_config(duration_s=1.0)
    result = run_experiment(config)
    max_exchange = (MAX_FRAME_BYTES * 8 / config.data_rate_bps) * 4
    for link in result.links:
        on_air = link.counters.s_frm * (config.payload_len + 8) * 8
        assert on_air <= link.busy_s * config.data_rate_bps
        assert link.busy_s <= config.duration_s + 5 * max_exchange


def test_traced_times_are_whole_bit_periods():
    # virtual time counts bit periods, so each traced time is an int tick;
    # the config is the golden `simulate-trace` case's.  Each device's times
    # never decrease; lines of different devices may interleave out of order
    config = ExperimentConfig(node_count=3, duration_s=0.5, seed=88)
    trace = []
    run_experiment(config, trace=trace)
    assert len(trace) > 1000
    assert [t for t, *_ in trace if type(t) is not int] == []
    for device in range(config.node_count + 1):
        times = [t for t, d, *_ in trace if d == device]
        assert times == sorted(times)


def test_per_node_distances():
    config = quick_config(node_count=3, distance_m=[1.0, 5.0, 10.0],
                          duration_s=0.3)
    result = run_experiment(config)
    bers = [link.ber for link in result.links]
    assert bers[0] < bers[1] < bers[2]


# ---------------------------------------------------------- analytic links

def test_simulated_rates_match_closed_forms():
    # one run, two laws: the hub-side frame error rate follows the
    # data-frame corruption law, and the per-attempt exchange failure rate
    # follows the full analytic exchange model, both within 3 sigma
    ber = 2e-4
    payload = 10
    config = quick_config(node_count=4, preset="explicit", ber=ber,
                          duration_s=50.0, seed=17)
    result = run_experiment(config)
    n = result.totals.s_frm
    assert n > 40_000

    expected_frame = frame_corruption_probability(data_length(payload), ber)
    sigma = math.sqrt(expected_frame * (1 - expected_frame) / n)
    assert abs(result.totals.fer - expected_frame) < 3 * sigma

    expected_exchange = fer_analytic(payload, ber)
    sigma = math.sqrt(expected_exchange * (1 - expected_exchange) / n)
    assert abs(result.attempt_failure_rate - expected_exchange) < 3 * sigma


# ------------------------------------------------------------------ sweeps

def test_sweep_rejects_bad_axis_and_empty_values():
    with pytest.raises(ConfigError):
        sweep(quick_config(), "frequency", [1, 2])
    with pytest.raises(ConfigError):
        sweep(quick_config(), "distance", [])


def test_sweep_rows_follow_values():
    rows = sweep(quick_config(duration_s=0.3), "max_retries", [0, 1, 2])
    assert [row.value for row in rows] == [0, 1, 2]
    assert all(row.axis == "max_retries" for row in rows)


def test_sweep_distance_fer_trend():
    # large spread so the trend beats noise even at desk scale
    rows = sweep(quick_config(node_count=4, duration_s=2.0, seed=21),
                 "distance", [1.0, 10.0])
    assert rows[0].counters.fer < rows[1].counters.fer


def test_sweep_retry_per_trend():
    rows = sweep(quick_config(node_count=4, distance_m=10.0, duration_s=2.0,
                              seed=22), "max_retries", [0, 3])
    assert rows[0].counters.per >= rows[1].counters.per
    assert rows[1].counters.per == 0.0


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(123, 0) == derive_seed(123, 0)
    assert derive_seed(123, 0) != derive_seed(123, 1)
    assert derive_seed(123, 0) != derive_seed(124, 0)


def test_config_replacement_does_not_mutate_base():
    base = quick_config(duration_s=0.3)
    before = dataclasses.asdict(base)
    sweep(base, "payload_len", [5, 10])
    assert dataclasses.asdict(base) == before


# ----------------------------------------------------- clean-exchange path

# `frame_path_links` runs every join and packet through the frame path, so it
# is the oracle for the ones an untraced run takes in arithmetic.
FAST_VS_FRAME_PATH = {
    "payload-0": quick_config(node_count=3, payload_len=0, duration_s=1.0, seed=3),
    "ber-0": quick_config(preset="explicit", ber=0.0, seed=4),
    # runs longer than a sequence cycle, with and without any draw at all
    "ber-0-long": quick_config(node_count=1, preset="explicit", ber=0.0,
                               duration_s=25.0, seed=4),
    "low-ber-long": quick_config(preset="explicit", ber=1e-6, duration_s=25.0, seed=7),
    "payload-30-at-10m": quick_config(node_count=4, payload_len=30,
                                      distance_m=10.0, duration_s=1.0, seed=6),
    "wired-64": quick_config(node_count=64, preset="wired",
                             distance_m=[1.0 + 9.0 * i / 63 for i in range(64)],
                             duration_s=0.2, seed=7),
    "criterion-8": ExperimentConfig(node_count=3, duration_s=0.5, seed=88),
    "distance-map": quick_config(node_count=3, preset="explicit",
                                 distance_map=((1.0, 1e-4), (10.0, 3e-3)),
                                 distance_m=[1.0, 4.0, 9.0], duration_s=1.0, seed=9),
    "ack-sized-data": quick_config(payload_len=1, preset="explicit", ber=2e-3,
                                   duration_s=1.0, seed=12),
    # node 2 sends a clean frame exactly 256 sequence numbers after its last
    # accepted one, which the hub counts as a duplicate
    "sequence-wrap-clean": quick_config(node_count=3, preset="explicit", ber=0.00263,
                                        payload_len=255, max_retries=0,
                                        duration_s=120.0, seed=0),
    # at ber 0.03 a join times out after its 63 requests for seed 1 of these
    # (and for 43 of seeds 0..149), so both paths must then fail the same way
    **{f"lossy-no-retry-seed-{seed}": quick_config(
        node_count=1, preset="explicit", ber=0.03, max_retries=0,
        duration_s=60.0, seed=seed) for seed in (1, 2, 3, 5)},
    "lossy-no-retry-ber-0.01": quick_config(node_count=1, preset="explicit", ber=0.01,
                                            max_retries=0, duration_s=60.0, seed=1),
    # data frames carry about 2.2 flips each, so most packets are decided
    # by their syndromes over several walked flips
    "high-ber-4-nodes": quick_config(node_count=4, preset="explicit", ber=0.015,
                                     payload_len=10, max_retries=3, duration_s=20.0, seed=3),
}


def links_or_error(config, trace=None):
    """Per-link results, or the message when a node fails to join."""
    try:
        return run_experiment(config, trace=trace).links
    except ConfigError as exc:
        return str(exc)


def frame_path_links(config, trace=None):
    """`links_or_error` with both twins declining: `send_clean` takes no
    packet and `join_clean` no join, so all of them go through the frame path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "send_clean", lambda *args: 0)
        patch.setattr(simulator, "join_clean", lambda *args: False)
        return links_or_error(config, trace)


@pytest.mark.parametrize("name", sorted(FAST_VS_FRAME_PATH))
def test_clean_exchange_path_matches_frame_path(name):
    config = FAST_VS_FRAME_PATH[name]
    assert links_or_error(config) == frame_path_links(config)


def test_a_traced_run_matches_the_frame_path_line_for_line():
    config = FAST_VS_FRAME_PATH["criterion-8"]
    traced, framed = [], []
    assert links_or_error(config, traced) == frame_path_links(config, framed)
    assert len(traced) > 1000 and traced == framed


class _Planted:
    """Stands in for a substream's generator: its first uniforms make a
    ``FrameCorruptor`` at `ber` draw exactly `gaps`, and the rest come from
    `rng`."""

    def __init__(self, gaps, ber, rng):
        log_q = math.log1p(-ber)
        self._uniforms = [-math.expm1((gap + 0.5) * log_q) for gap in reversed(gaps)]
        self._rng = rng

    def random(self):
        return self._uniforms.pop() if self._uniforms else self._rng.random()


def test_a_run_rejoins_a_node_its_hub_let_go(monkeypatch):
    # node 1's first data frame gains the type byte's 0x04 bit and the CRC
    # bits of that bit's syndrome: the CRC misses it and the hub, reading a
    # disconnect, lets node 1 go; it answers the retransmission with a
    # disconnect, the node leaves, and the run joins it again
    config = quick_config(preset="explicit", ber=1e-3, duration_s=1.0)
    nbits = (config.payload_len + OVERHEAD_BYTES) * 8
    flips = [5, *sorted(nbits - 1 - d for d in range(16) if CRC_SYNDROMES[nbits - 6] >> d & 1)]
    # after the join request, which crosses clean
    gaps = [MGMT_BITS + flips[0], *(b - a - 1 for a, b in zip(flips, flips[1:]))]
    make_link = simulator.make_link

    def planted(sender, peer, model, ber):
        link = make_link(sender, peer, model, ber)
        if sender.device_id == 1:
            link.uplink = FrameCorruptor(_Planted(gaps, ber, link.uplink.rng), ber)
        return link

    monkeypatch.setattr(simulator, "make_link", planted)
    links, traced = links_or_error(config), []
    assert links[0].lost >= 1 and links[0].counters.r_pkt > 0
    assert links == frame_path_links(config) == links_or_error(config, traced)


def test_sequence_wrap_config_reaches_a_clean_duplicate():
    links = run_experiment(FAST_VS_FRAME_PATH["sequence-wrap-clean"]).links
    assert [link.counters.r_frm - link.counters.r_pkt for link in links] == [0, 1, 0]


def test_the_high_ber_config_keeps_its_counters():
    result = run_experiment(FAST_VS_FRAME_PATH["high-ber-4-nodes"])
    t = result.totals
    assert (t.s_frm, t.r_frm, t.s_pkt, t.r_pkt) == (1542, 178, 413, 157)
    assert [(link.delivered, link.lost) for link in result.links] == [
        (15, 90), (20, 85), (11, 86), (20, 86)]


def test_a_lossy_no_retry_config_fails_its_join():
    # keeps the join-failure branch of the differential test covered
    assert "failed to join" in links_or_error(FAST_VS_FRAME_PATH["lossy-no-retry-seed-1"])


def test_a_join_failure_from_a_distance_names_the_distance():
    # at ber 0.5 from the calibration table no handshake gets through
    config = ExperimentConfig(node_count=1, preset="explicit", distance_map=((1.0, 0.5),))
    assert links_or_error(config) == ("node 1 failed to join the hub within 63 handshake "
                                      "rounds at link ber=0.5 (from distance_m=2.0)")


def test_a_run_too_short_for_any_frame_has_a_zero_attempt_failure_rate():
    result = run_experiment(ExperimentConfig(duration_s=1e-9))
    assert result.totals.s_frm == 0
    assert result.attempt_failure_rate == 0.0
