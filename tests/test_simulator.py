"""Experiment harness tests: determinism, conservation, counters, sweeps."""

import dataclasses
import math

import pytest

from wbansim.analytics import (data_length, fer_analytic,
                               frame_corruption_probability)
from wbansim.errors import ConfigError
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
    with pytest.raises(ConfigError):
        LinkCounters(s_frm=5, r_frm=6, s_pkt=0, r_pkt=0)


# ---------------------------------------------------------------- lossless

def test_lossless_channel_zero_error_rates():
    result = run_experiment(quick_config(preset="explicit", ber=0.0))
    assert result.fer == 0.0
    assert result.per == 0.0
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
    # virtual time counts bit periods, so each traced time is k / rate for
    # an integer k; the config is the golden `simulate-trace` case's
    config = ExperimentConfig(node_count=3, duration_s=0.5, seed=88)
    trace = []
    run_experiment(config, trace=trace)
    rate = config.data_rate_bps
    assert len(trace) > 1000
    assert [t for t, *_ in trace if round(t * rate) / rate != t] == []


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
    assert abs(result.fer - expected_frame) < 3 * sigma

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
    assert rows[0].fer < rows[1].fer


def test_sweep_retry_per_trend():
    rows = sweep(quick_config(node_count=4, distance_m=10.0, duration_s=2.0,
                              seed=22), "max_retries", [0, 3])
    assert rows[0].per >= rows[1].per
    assert rows[1].per == 0.0


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

# A traced run takes the frame path for every exchange, so it is the oracle
# for the arithmetic path an untraced run takes on clean exchanges.
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
    # at ber 0.03 a join fails within 64 rounds for about one seed in three,
    # so both paths must then fail the same way
    **{f"lossy-no-retry-seed-{seed}": quick_config(
        node_count=1, preset="explicit", ber=0.03, max_retries=0,
        duration_s=60.0, seed=seed) for seed in (1, 2, 3, 5)},
    "lossy-no-retry-ber-0.01": quick_config(node_count=1, preset="explicit", ber=0.01,
                                            max_retries=0, duration_s=60.0, seed=1),
}


def links_or_error(config, trace=None):
    """Per-link results, or the message when a node fails to join."""
    try:
        return run_experiment(config, trace=trace).links
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(FAST_VS_FRAME_PATH))
def test_clean_exchange_path_matches_frame_path(name):
    config = FAST_VS_FRAME_PATH[name]
    assert links_or_error(config) == links_or_error(config, trace=[])


def test_sequence_wrap_config_reaches_a_clean_duplicate():
    links = run_experiment(FAST_VS_FRAME_PATH["sequence-wrap-clean"]).links
    assert [link.counters.r_frm - link.counters.r_pkt for link in links] == [0, 1, 0]


def test_a_lossy_no_retry_config_fails_its_join():
    # keeps the join-failure branch of the differential test covered
    assert "failed to join" in links_or_error(FAST_VS_FRAME_PATH["lossy-no-retry-seed-1"])
