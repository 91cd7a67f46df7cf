"""Channel model tests: flip statistics, determinism, calibration."""

import math
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wbansim.analytics import fer_analytic
from wbansim.channel import ChannelModel, FrameCorruptor, ber_for_distance, preset
from wbansim.errors import RangeError


def bit_count_diff(a: bytes, b: bytes) -> int:
    return sum((x ^ y).bit_count() for x, y in zip(a, b))


def transmit(data: bytes, model: ChannelModel, stream_id) -> bytes:
    """Send `data` once through a fresh corruptor on the given substream."""
    return FrameCorruptor(model.stream(stream_id), model.ber).corrupt(data)


def test_ber_zero_is_identity():
    model = ChannelModel(ber=0.0, rng_seed=1)
    data = bytes(range(256))
    assert transmit(data, model, "s") == data


def test_ber_one_is_complement():
    model = ChannelModel(ber=1.0, rng_seed=1)
    data = bytes(range(256))
    assert transmit(data, model, "s") == bytes(b ^ 0xFF for b in data)


def test_output_length_preserved():
    model = ChannelModel(ber=0.3, rng_seed=5)
    for n in (0, 1, 9, 18, 263):
        assert len(transmit(bytes(n), model, "len")) == n


def test_flip_fraction_at_half():
    # 10^6 bits at ber 0.5: fraction within 3 sigma = 3*0.0005 of 0.5
    model = ChannelModel(ber=0.5, rng_seed=42)
    data = bytes(125_000)
    out = transmit(data, model, "half")
    fraction = bit_count_diff(data, out) / 1e6
    assert abs(fraction - 0.5) < 3 * 0.0005


def test_determinism_same_seed_same_stream():
    data = bytes(64)
    first = transmit(data, ChannelModel(ber=0.1, rng_seed=7), "x")
    second = transmit(data, ChannelModel(ber=0.1, rng_seed=7), "x")
    assert first == second


def test_distinct_streams_differ():
    model = ChannelModel(ber=0.5, rng_seed=7)
    data = bytes(64)
    assert transmit(data, model, "a") != transmit(data, model, "b")


def test_stream_independence_chi_square():
    # flips on two streams, ber 0.5: 2x2 contingency, df=1, crit 6.63 (1%)
    model = ChannelModel(ber=0.5, rng_seed=123)
    n = 40_000
    data = bytes(n // 8)
    flips_a = np.frombuffer(transmit(data, model, "a"), dtype=np.uint8)
    flips_b = np.frombuffer(transmit(data, model, "b"), dtype=np.uint8)
    bits_a = np.unpackbits(flips_a).astype(bool)
    bits_b = np.unpackbits(flips_b).astype(bool)
    table = np.array([[np.sum(bits_a & bits_b), np.sum(bits_a & ~bits_b)],
                      [np.sum(~bits_a & bits_b), np.sum(~bits_a & ~bits_b)]],
                     dtype=float)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / table.sum()
    chi2 = float(((table - expected) ** 2 / expected).sum())
    assert chi2 < 6.63


def binomial_law_holds(seed: int, stream_id: str) -> bool:
    """Frame corruption rate on 144-bit frames lies within 3 sigma of the law."""
    ber = 2e-3
    nframes = 20_000
    frame = bytes(18)
    model = ChannelModel(ber=ber, rng_seed=seed)
    corruptor = FrameCorruptor(model.stream(stream_id), ber)
    corrupted = sum(corruptor.corrupt(frame) != frame for _ in range(nframes))
    p = 1.0 - (1.0 - ber) ** 144
    sigma = math.sqrt(p * (1 - p) / nframes)
    return abs(corrupted / nframes - p) < 3 * sigma


def test_corruption_rate_matches_binomial_law():
    assert binomial_law_holds(9, "law")


def test_batched_corruptor_same_law():
    assert binomial_law_holds(10, "batch")


def test_clean_run_and_skip_keep_the_corrupt_sequence():
    # skipping the clean frames of one corruptor leaves every corrupted frame
    # of a twin on the same substream unchanged, with two frame lengths
    # interleaved on one bit sequence
    ber = 4e-3
    frames = (bytes(18), bytes(range(9)))
    probed = FrameCorruptor(ChannelModel(rng_seed=4).stream("s"), ber)
    plain = FrameCorruptor(ChannelModel(rng_seed=4).stream("s"), ber)
    skipped = 0
    for k in range(10_000):
        frame = frames[k % 3 == 0]
        nbits = len(frame) * 8
        run = probed.clean_run(nbits)
        assert probed.clean_run(nbits) == run   # looking consumes nothing
        out = plain.corrupt(frame)
        assert (bit_count_diff(out, frame) == 0) == (run > 0)
        if run:
            gap = probed._gap
            probed.skip(nbits, 1)
            assert probed._gap == gap - nbits    # a skip lowers the gap by its bits
            for bits in (144, 72):               # which both lengths then see
                assert probed.clean_run(bits) == probed._gap // bits
            skipped += 1
        else:
            assert probed.corrupt(frame) == out
    assert 5000 < skipped < 9000


def test_flips_ahead_keeps_the_corrupt_sequence():
    # counts read ahead, then the frames carried through corrupt or skip,
    # give the bytes of a twin that never looked ahead, with three lengths
    # on one bit sequence and looks that reach past what is then carried
    cap = 4
    rng = np.random.default_rng(8)
    probed = FrameCorruptor(ChannelModel(rng_seed=6).stream("s"), 0.01)
    plain = FrameCorruptor(ChannelModel(rng_seed=6).stream("s"), 0.01)
    looked = carried = 0
    for _ in range(3000):
        frame = bytes(int(rng.choice([9, 18, 263])))
        nbits, ahead = len(frame) * 8, int(rng.integers(1, 6))
        counts = list(islice(probed.flips_ahead(nbits, cap), ahead))
        assert list(islice(probed.flips_ahead(nbits, cap), ahead)) == counts
        looked += len(counts)
        for count in counts[:int(rng.integers(0, len(counts) + 1))]:
            out = plain.corrupt(frame)
            assert min(bit_count_diff(out, frame), cap) == count
            if rng.random() < 0.5:
                assert probed.corrupt(frame) == out
            else:
                probed.skip(nbits, 1)
            carried += 1
    assert probed.corrupt(bytes(263)) == plain.corrupt(bytes(263))
    assert 1000 < carried < looked
    # setting ber discards the gaps drawn ahead: the corruptor then equals
    # a fresh one on a generator at the same point of the substream
    list(islice(probed.flips_ahead(144, 10**6), 20))
    fresh_rng = ChannelModel(rng_seed=6).stream("s")
    fresh_rng.setstate(probed.rng.getstate())
    probed.ber = fresh_ber = 0.02
    fresh = FrameCorruptor(fresh_rng, fresh_ber)
    for _ in range(200):
        assert probed.corrupt(bytes(18)) == fresh.corrupt(bytes(18))


def test_clean_run_at_the_extreme_rates_draws_nothing():
    for ber, run in ((0.0, sys.maxsize), (1.0, 0)):
        corruptor = FrameCorruptor(ChannelModel(rng_seed=1).stream("s"), ber)
        assert corruptor.clean_run(144) == run
        assert next(corruptor.flips_ahead(144, 4)) == (4 if ber else 0)
        corruptor.skip(144, run)
        assert corruptor.corrupt(bytes(18)) == bytes([0xFF if ber else 0] * 18)
        assert corruptor.rng.random() == ChannelModel(rng_seed=1).stream("s").random()


def test_a_gap_past_every_float_does_not_overflow():
    # at a ber this small log1p(-u) / log1p(-ber) overflows a float
    corruptor = FrameCorruptor(ChannelModel(rng_seed=1).stream("s"), 1e-310)
    assert corruptor.corrupt(bytes(18)) == bytes(18)
    assert corruptor.clean_run(144) > 10**15


def test_flip_frequency_is_flat_across_frame_boundaries():
    # consecutive frames of two lengths share one bit sequence, so every
    # position flips at `ber`, the first and last bit of each frame included
    ber, per_length = 0.2, 4000
    corruptor = FrameCorruptor(ChannelModel(rng_seed=13).stream("positions"), ber)
    flips = {3: np.zeros(24), 5: np.zeros(40)}
    for _ in range(per_length):
        for nbytes, counts in flips.items():
            out = corruptor.corrupt(bytes(nbytes))
            counts += np.unpackbits(np.frombuffer(out, dtype=np.uint8))
    sigma = math.sqrt(ber * (1 - ber) / per_length)
    for counts in flips.values():   # 64 positions: 4.5 sigma each
        assert np.all(np.abs(counts / per_length - ber) < 4.5 * sigma)


def test_flips_per_frame_follow_the_binomial_law():
    # chi-square of flips per 16-bit frame against Binomial(16, ber), counts
    # of 8 or more pooled: 8 degrees of freedom, critical 26.12 at 0.1%
    ber, nbits, nframes, top = 0.2, 16, 20_000, 8
    corruptor = FrameCorruptor(ChannelModel(rng_seed=14).stream("counts"), ber)
    observed = [0] * (top + 1)
    for _ in range(nframes):
        observed[min(bit_count_diff(corruptor.corrupt(bytes(2)), bytes(2)), top)] += 1
    pmf = [math.comb(nbits, k) * ber ** k * (1 - ber) ** (nbits - k) for k in range(top)]
    pmf.append(1.0 - sum(pmf))
    chi2 = sum((o - nframes * p) ** 2 / (nframes * p) for o, p in zip(observed, pmf))
    assert chi2 < 26.12


def test_preset_caches_its_table_not_its_model():
    first, second = preset("wired", rng_seed=3), preset("wired", rng_seed=3)
    assert first.distance_map == second.distance_map
    # the second model's substream starts where the first one's did
    assert first.stream("s").random() == second.stream("s").random()


# -------------------------------------------------------------- calibration

def test_interpolation_hits_calibration_points():
    model = ChannelModel(ber=0.0, rng_seed=0,
                         distance_map=((1.0, 1e-5), (2.0, 3e-5), (4.0, 9e-5)))
    assert ber_for_distance(2.0, model) == pytest.approx(3e-5)


def test_interpolation_midpoint_is_mean():
    model = ChannelModel(ber=0.0, rng_seed=0,
                         distance_map=((1.0, 1e-5), (3.0, 3e-5)))
    assert ber_for_distance(2.0, model) == pytest.approx(2e-5)


def test_interpolation_clamps_at_endpoints():
    model = ChannelModel(ber=0.0, rng_seed=0,
                         distance_map=((1.0, 1e-5), (3.0, 3e-5)))
    assert ber_for_distance(0.5, model) == pytest.approx(1e-5)
    assert ber_for_distance(50.0, model) == pytest.approx(3e-5)


def test_non_positive_distance_rejected():
    model = preset("wireless")
    with pytest.raises(RangeError):
        ber_for_distance(0.0, model)
    with pytest.raises(RangeError):
        ber_for_distance(-1.0, model)
    with pytest.raises(RangeError):
        ber_for_distance(math.nan, model)


def assert_interp_bits(distance, model):
    """`ber_for_distance` is `np.interp`, bit for bit."""
    distances, bers = zip(*model.distance_map)
    expected = float(np.interp(distance, distances, bers))
    assert ber_for_distance(distance, model).hex() == expected.hex()


@pytest.mark.parametrize("name", ["wireless", "wired"])
def test_interpolation_is_numpy_interp_on_the_presets(name):
    model = preset(name)
    knots = [d for d, _ in model.distance_map]
    probes = {0.01, 1.5, 3.0, 7.3, 1e6}
    for d in knots:
        probes |= {d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)}
    for a, b in zip(knots, knots[1:]):
        probes |= {a + (b - a) * k / 7 for k in range(1, 7)}
    for distance in probes:
        assert_interp_bits(distance, model)


@st.composite
def interp_cases(draw):
    # magnitudes up to 1e300, so no knot difference overflows a float
    finite = st.floats(-1e300, 1e300)
    distances = sorted(draw(st.lists(finite, min_size=1, max_size=6, unique=True)))
    bers = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(distances),
                                max_size=len(distances))))
    near = [math.nextafter(d, to) for d in distances for to in (-math.inf, math.inf)]
    queries = draw(st.lists(st.floats(0.0, 1e300, exclude_min=True)
                            | st.sampled_from(distances + near), min_size=1, max_size=8))
    return ChannelModel(distance_map=tuple(zip(distances, bers))), queries


@given(interp_cases())
def test_interpolation_is_numpy_interp_on_any_valid_table(case):
    model, queries = case
    for distance in queries:
        if distance > 0:
            assert_interp_bits(distance, model)


def test_monotone_distance_map_required():
    with pytest.raises(RangeError):
        ChannelModel(distance_map=((2.0, 1e-5), (1.0, 2e-5)))
    with pytest.raises(RangeError):
        ChannelModel(distance_map=((1.0, 2e-5), (2.0, 1e-5)))


@pytest.mark.parametrize("table", [((math.nan, 1e-5), (2.0, 2e-5)),
                                   ((1.0, 1e-5), (math.inf, 2e-5))])
def test_distance_map_entries_must_be_finite(table):
    # a NaN distance passes every ordering comparison and interpolates to NaN
    with pytest.raises(RangeError):
        ChannelModel(distance_map=table)


def test_presets_are_monotone_in_distance():
    for name in ("wireless", "wired"):
        model = preset(name)
        bers = [b for _, b in model.distance_map]
        assert all(b1 <= b2 for b1, b2 in zip(bers, bers[1:]))
        sampled = [ber_for_distance(d, model) for d in (1, 1.5, 2, 3, 5, 8, 10)]
        assert all(a <= b for a, b in zip(sampled, sampled[1:]))


def test_wireless_calibration_anchors_reference_fer():
    # 2 m point inverts the analytic exchange-FER model at payload 10
    model = preset("wireless")
    ber_2m = ber_for_distance(2.0, model)
    assert fer_analytic(10, ber_2m) == pytest.approx(0.005, abs=1e-9)


def test_wired_calibration_anchors_reference_fer():
    model = preset("wired")
    ber_2m = ber_for_distance(2.0, model)
    assert fer_analytic(10, ber_2m) == pytest.approx(0.003, abs=1e-9)


def test_bad_ber_rejected():
    with pytest.raises(RangeError):
        ChannelModel(ber=1.5)
    with pytest.raises(RangeError):
        ChannelModel(ber=-0.1)
