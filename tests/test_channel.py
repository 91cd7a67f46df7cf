"""Channel model tests: flip statistics, determinism, calibration."""

import hashlib
import importlib.util
import math
import signal
import sys
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wbansim.channel
from wbansim.analytics import fer_analytic
from wbansim.channel import (ChannelModel, FrameCorruptor, ber_for_distance,
                             check_distance_map, key_digest, preset)
from wbansim.errors import RangeError
from wbansim.frames import MAX_FRAME_BYTES
from wbansim.mac import Device, Role, make_link


def bit_count_diff(a: bytes, b: bytes) -> int:
    return sum((x ^ y).bit_count() for x, y in zip(a, b))


def transmit(data: bytes, model: ChannelModel, stream_id, ber: float) -> bytes:
    """Send `data` once at `ber` through a fresh corruptor on the given substream."""
    return FrameCorruptor(model.stream(stream_id), ber).corrupt(data)


def test_ber_zero_is_identity():
    model = ChannelModel(rng_seed=1)
    data = bytes(range(256))
    assert transmit(data, model, "s", 0.0) == data


def test_ber_one_is_complement():
    model = ChannelModel(rng_seed=1)
    data = bytes(range(256))
    assert transmit(data, model, "s", 1.0) == bytes(b ^ 0xFF for b in data)


def test_output_length_preserved():
    model = ChannelModel(rng_seed=5)
    for n in (0, 1, 9, 18, 263):
        assert len(transmit(bytes(n), model, "len", 0.3)) == n


def test_flip_fraction_at_half():
    # 10^6 bits at ber 0.5: fraction within 3 sigma = 3*0.0005 of 0.5
    model = ChannelModel(rng_seed=42)
    data = bytes(125_000)
    out = transmit(data, model, "half", 0.5)
    fraction = bit_count_diff(data, out) / 1e6
    assert abs(fraction - 0.5) < 3 * 0.0005


def test_determinism_same_seed_same_stream():
    data = bytes(64)
    first = transmit(data, ChannelModel(rng_seed=7), "x", 0.1)
    second = transmit(data, ChannelModel(rng_seed=7), "x", 0.1)
    assert first == second


def test_distinct_streams_differ():
    model = ChannelModel(rng_seed=7)
    data = bytes(64)
    assert transmit(data, model, "a", 0.5) != transmit(data, model, "b", 0.5)


KEY_SEEDS = (0, 1, 2**64, 12345678901234567890123456)
KEY_IDS = (0, 7, (0, 1), (1, 0), (0, 63), "s", "positions")


def test_substream_keys_are_pinned():
    from wbansim.simulator import derive_seed
    for seed in KEY_SEEDS:
        for stream_id in KEY_IDS:
            key = repr((seed, stream_id)).encode()
            assert key_digest(seed, stream_id) == hashlib.sha256(key).digest()
    # first draws and derived seeds as they were under hashlib.sha256
    first_draws = [(0, 0, 0.3782245459892333), (1, (1, 0), 0.06174426244120845),
                   (2**64, "s", 0.49172513252117367),
                   (12345678901234567890123456, (0, 63), 0.36714417894245166)]
    for seed, stream_id, draw in first_draws:
        assert ChannelModel(rng_seed=seed).stream(stream_id).random() == draw
    derived = [(0, 0, 11328772439404994428), (1, 1, 15000183751391786203),
               (2**64, 4, 17797016065475860126),
               (12345678901234567890123456, 2, 310330577854471684)]
    for seed, index, value in derived:
        assert derive_seed(seed, index) == value


def test_without_the_builtin_sha256_streams_key_through_hashlib(monkeypatch):
    # a second copy of the module, loaded where `import _sha256` fails, and
    # `import _sha2` too, as it does before CPython 3.12
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    spec = importlib.util.spec_from_file_location("wbansim._channel_without_sha256",
                                                  wbansim.channel.__file__)
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fallback)
    spec.loader.exec_module(fallback)
    assert fallback.sha256 is hashlib.sha256
    for seed in KEY_SEEDS:
        for stream_id in KEY_IDS:
            draws = fallback.ChannelModel(rng_seed=seed).stream(stream_id)
            twin = ChannelModel(rng_seed=seed).stream(stream_id)
            assert [draws.random() for _ in range(3)] == [twin.random() for _ in range(3)]


def test_where_only_the_builtin_sha2_is_there_it_keys_the_streams(monkeypatch):
    # CPython 3.12 moved the builtin sha256 from `_sha256` into `_sha2`; a
    # stub `_sha2` stands in for it here, and counts its calls
    calls = []

    def sha256(data):
        calls.append(data)
        return hashlib.sha256(data)

    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", types.SimpleNamespace(sha256=sha256))
    spec = importlib.util.spec_from_file_location("wbansim._channel_with_sha2",
                                                  wbansim.channel.__file__)
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fallback)
    spec.loader.exec_module(fallback)
    assert fallback.sha256 is sha256
    for seed in KEY_SEEDS:
        for stream_id in KEY_IDS:
            draws = fallback.ChannelModel(rng_seed=seed).stream(stream_id)
            twin = ChannelModel(rng_seed=seed).stream(stream_id)
            assert [draws.random() for _ in range(3)] == [twin.random() for _ in range(3)]
    assert len(calls) == len(KEY_SEEDS) * len(KEY_IDS)


def test_stream_independence_chi_square():
    # flips on two streams, ber 0.5: 2x2 contingency, df=1, crit 6.63 (1%)
    model = ChannelModel(rng_seed=123)
    n = 40_000
    data = bytes(n // 8)
    flips_a = np.frombuffer(transmit(data, model, "a", 0.5), dtype=np.uint8)
    flips_b = np.frombuffer(transmit(data, model, "b", 0.5), dtype=np.uint8)
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
    model = ChannelModel(rng_seed=seed)
    corruptor = FrameCorruptor(model.stream(stream_id), ber)
    corrupted = sum(corruptor.corrupt(frame) != frame for _ in range(nframes))
    p = 1.0 - (1.0 - ber) ** 144
    sigma = math.sqrt(p * (1 - p) / nframes)
    return abs(corrupted / nframes - p) < 3 * sigma


def test_corruption_rate_matches_binomial_law():
    assert binomial_law_holds(9, "law")


def test_batched_corruptor_same_law():
    assert binomial_law_holds(10, "batch")


def test_clean_frames_committed_by_their_bits_keep_the_corrupt_sequence():
    # a frame crosses clean exactly when the gap covers its bits, and
    # committing the clean frames of one corruptor by lowering its gap leaves
    # every corrupted frame of a twin on the same substream unchanged, with
    # two frame lengths interleaved on one bit sequence
    ber = 4e-3
    frames = (bytes(18), bytes(range(9)))
    probed = FrameCorruptor(ChannelModel(rng_seed=4).stream("s"), ber)
    plain = FrameCorruptor(ChannelModel(rng_seed=4).stream("s"), ber)
    committed = 0
    for k in range(10_000):
        frame = frames[k % 3 == 0]
        nbits = len(frame) * 8
        clean = probed.gap >= nbits
        out = plain.corrupt(frame)
        assert (bit_count_diff(out, frame) == 0) == clean
        if clean:
            probed.gap -= nbits
            committed += 1
        else:
            assert probed.corrupt(frame) == out
    assert 5000 < committed < 9000


def look(corruptor: FrameCorruptor, nbits: int, k: int,
         taken: int = 0) -> list[tuple[list[int], int]]:
    """Walk the next `k` frames of `nbits` bits as ``mac.send_clean`` does,
    taking each gap through ``draw()``, and commit the first `taken`: set
    ``gap`` to the gap after them and hand back, reversed, the gaps drawn
    past them.  Gives per frame its flip positions and the gap after it."""
    frames, gap, took = [], corruptor.gap, []
    for _ in range(k):
        flips = []
        while gap < nbits:
            flips.append(gap)
            took.append(corruptor.draw())
            gap += 1 + took[-1]
        gap -= nbits
        frames.append((flips, gap, len(took)))
    kept = 0
    if taken:
        _, corruptor.gap, kept = frames[taken - 1]
    corruptor.ahead.extend(reversed(took[kept:]))
    return [frame[:2] for frame in frames]


def flip_positions(out: bytes, sent: bytes) -> list[int]:
    return [pos for pos in range(len(sent) * 8)
            if (out[pos >> 3] ^ sent[pos >> 3]) & 0x80 >> (pos & 7)]


def test_looking_ahead_keeps_the_corrupt_sequence():
    # positions looked ahead, then the frames carried through corrupt or a
    # commit of one frame's walk, give the bytes and the gap of a twin that
    # never looked ahead, with three lengths on one bit sequence and looks
    # that reach past what is then carried: a look that hands back every gap
    # it drew consumes nothing
    rng = np.random.default_rng(8)
    probed = FrameCorruptor(ChannelModel(rng_seed=6).stream("s"), 0.01)
    plain = FrameCorruptor(ChannelModel(rng_seed=6).stream("s"), 0.01)
    looked = carried = 0
    for _ in range(3000):
        frame = bytes(int(rng.choice([9, 18, 263])))
        nbits, ahead = len(frame) * 8, int(rng.integers(1, 6))
        gap = probed.gap
        seen = look(probed, nbits, ahead)
        assert look(probed, nbits, ahead) == seen and probed.gap == gap
        looked += len(seen)
        for flips, _ in seen[:int(rng.integers(0, len(seen) + 1))]:
            out = plain.corrupt(frame)
            assert flip_positions(out, frame) == flips
            if rng.random() < 0.5:
                assert probed.corrupt(frame) == out
            else:
                assert look(probed, nbits, 1, taken=1) == [(flips, plain.gap)]
            assert probed.gap == plain.gap
            carried += 1
    assert probed.corrupt(bytes(263)) == plain.corrupt(bytes(263))
    assert probed.gap == plain.gap
    assert 1000 < carried < looked


def test_a_commit_keeps_the_corrupt_sequence():
    # a walk that looks some frames ahead and commits a prefix of them, by
    # setting the gap and handing back the gaps drawn past it, leaves the
    # corruptor where a twin stands that carried those frames through corrupt
    rng = np.random.default_rng(9)
    probed = FrameCorruptor(ChannelModel(rng_seed=7).stream("s"), 0.02)
    plain = FrameCorruptor(ChannelModel(rng_seed=7).stream("s"), 0.02)
    committed = 0
    for _ in range(2000):
        frame = bytes(int(rng.choice([9, 18, 263])))
        k = int(rng.integers(1, 6))
        taken = int(rng.integers(0, k + 1))
        look(probed, len(frame) * 8, k, taken)
        for _ in range(taken):
            plain.corrupt(frame)
        committed += taken
        assert probed.gap == plain.gap
        assert probed.corrupt(frame) == plain.corrupt(frame)
    assert committed > 1000


def _too_slow(signum, frame):
    raise TimeoutError("corrupt took over 2 s to use the gaps handed back")


def test_corrupt_uses_a_long_look_ahead_in_linear_time():
    # 200 000 gaps drawn outside the look-ahead and handed back reversed,
    # carried through corrupt frame by frame, give the bytes of a twin that
    # never looked ahead; each gap is popped off the end of ``ahead``, so
    # using them all takes well under the 2 s bound
    probed = FrameCorruptor(ChannelModel(rng_seed=3).stream("s"), 0.05)
    plain = FrameCorruptor(ChannelModel(rng_seed=3).stream("s"), 0.05)
    gaps = [probed.draw() for _ in range(200_000)]
    probed.ahead.extend(reversed(gaps))
    frame, outs = bytes(MAX_FRAME_BYTES), []
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        while probed.ahead:
            outs.append(probed.corrupt(frame))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert outs == [plain.corrupt(frame) for _ in outs]
    assert probed.gap == plain.gap


def test_ber_0_draws_nothing_and_ber_1_flips_every_bit_at_one_draw_each():
    # at ber 0 the gap counts down by each frame's bits and nothing is drawn
    corruptor = FrameCorruptor(ChannelModel(rng_seed=1).stream("s"), 0.0)
    assert (corruptor.gap, corruptor.ahead) == (sys.maxsize, [])
    assert corruptor.corrupt(bytes(18)) == bytes(18)
    assert (corruptor.gap, corruptor.ahead) == (sys.maxsize - 144, [])
    assert corruptor.rng.random() == ChannelModel(rng_seed=1).stream("s").random()
    # at ber 1 every gap is 0: the initial gap, then one draw per flipped bit
    corruptor = FrameCorruptor(ChannelModel(rng_seed=1).stream("s"), 1.0)
    assert (corruptor.gap, corruptor.ahead) == (0, [])
    assert corruptor.corrupt(bytes(18)) == bytes([0xFF] * 18)
    assert (corruptor.gap, corruptor.ahead) == (0, [])
    replay = ChannelModel(rng_seed=1).stream("s")
    for _ in range(1 + 144):
        replay.random()
    assert corruptor.rng.random() == replay.random()


def test_a_gap_past_every_float_does_not_overflow():
    # at a ber this small log1p(-u) / log1p(-ber) overflows a float
    corruptor = FrameCorruptor(ChannelModel(rng_seed=1).stream("s"), 1e-310)
    assert corruptor.corrupt(bytes(18)) == bytes(18)
    assert corruptor.gap // 144 > 10**15


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
    model = ChannelModel(distance_map=((1.0, 1e-5), (2.0, 3e-5), (4.0, 9e-5)))
    assert ber_for_distance(2.0, model) == pytest.approx(3e-5)


def test_interpolation_midpoint_is_mean():
    model = ChannelModel(distance_map=((1.0, 1e-5), (3.0, 3e-5)))
    assert ber_for_distance(2.0, model) == pytest.approx(2e-5)


def test_interpolation_clamps_at_endpoints():
    model = ChannelModel(distance_map=((1.0, 1e-5), (3.0, 3e-5)))
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


def test_a_repeated_distance_is_refused():
    with pytest.raises(RangeError, match="strictly increasing"):
        ChannelModel(distance_map=((1.0, 1e-5), (1.0, 2e-5), (2.0, 3e-5)))


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
    # a rate is given only where a link or a corruptor is made
    with pytest.raises(RangeError):
        make_link(Device(Role.NODE, 1), Device(Role.HUB, 0), ChannelModel(), 1.5)
    with pytest.raises(RangeError):
        FrameCorruptor(ChannelModel().stream("s"), -0.1)


@pytest.mark.parametrize("call", [
    lambda: check_distance_map(((1.0, 1.5),)),    # a BER over 1
    lambda: ber_for_distance(1.0, ChannelModel()),   # no calibration table
    lambda: preset("nope"),
], ids=["check_distance_map", "ber_for_distance", "preset"])
def test_bad_calibration_inputs_raise(call):
    with pytest.raises(RangeError):
        call()
