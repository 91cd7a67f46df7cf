"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical checks run at fixed seeds, so every run is bit-reproducible;
tolerances are 3-sigma binomial bands at the stated sample sizes.
"""

import json
import math
import random
import time

import numpy as np

from wbansim.analytics import (ack_length_term, data_length, fer_analytic,
                               invert_fer_analytic,
                               retry_success_geometric, retry_success_paper)
from wbansim.channel import ber_for_distance, preset
from wbansim.cli import main
from wbansim.frames import compute_crc16, decode_frame, encode_frame
from wbansim.errors import CrcError
from wbansim.mac import ACK_TIMEOUT
from wbansim.optimizer import optimize_payload, penalized_fer, penalized_fer_gradient
from wbansim.simulator import ExperimentConfig, run_experiment, sweep

from test_frames import random_frame

RATE = 121_400.0
TABLE_DISTANCES = (1.0, 2.0, 5.0, 10.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def duration_for_frames(n_frames: int, payload: int, ber: float) -> float:
    """Simulated seconds that yield at least `n_frames` attempts."""
    exchange_bits = (payload + 8 + 9) * 8
    t_ok = exchange_bits / RATE
    fail = 1.0 - (1.0 - ber) ** exchange_bits
    t_fail = (payload + 8) * 8 / RATE + ACK_TIMEOUT / RATE
    return n_frames * ((1 - fail) * t_ok + fail * t_fail) * 1.08 + 1.0


def run_point(preset_name: str, distance: float, frames: int, seed: int,
              payload: int = 10, retries: int = 3):
    model = preset(preset_name)
    ber = ber_for_distance(distance, model)
    config = ExperimentConfig(
        node_count=1, distance_m=distance, payload_len=payload,
        max_retries=retries, duration_s=duration_for_frames(frames, payload, ber),
        seed=seed, preset=preset_name)
    return run_experiment(config).totals


def test_criterion_1_retry_optimum():
    """Sweeping retries 0..4 over the four test distances: PER never
    increases with retries and is exactly zero from 3 retries up."""
    t0 = time.time()
    packets_floor = 10_000
    ok = True
    details = []
    for preset_name in ("wireless", "wired"):
        model = preset(preset_name)
        for distance in TABLE_DISTANCES:
            ber = ber_for_distance(distance, model)
            duration = duration_for_frames(
                int(packets_floor * 1.1 * (1 + 5 * ber * 216)), 10, ber)
            base = ExperimentConfig(node_count=1, distance_m=distance,
                                    payload_len=10, duration_s=duration,
                                    seed=1801, preset=preset_name)
            rows = sweep(base, "max_retries", [0, 1, 2, 3, 4])
            pers = [row.counters.per for row in rows]
            packets = [row.counters.s_pkt for row in rows]
            if min(packets) < packets_floor:
                ok = False
                details.append(f"{preset_name}@{distance}m packets={min(packets)}")
            if any(a < b for a, b in zip(pers, pers[1:])):
                ok = False
                details.append(f"{preset_name}@{distance}m pers={pers}")
            if pers[3] != 0.0 or pers[4] != 0.0:
                ok = False
                details.append(f"{preset_name}@{distance}m tail={pers[3:]}")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s")
    report("criterion 1 (retry optimum)", ok,
           details[0] if details else
           f"PER non-increasing, zero at >=3 retries, {elapsed:.1f}s")


def test_criterion_2_fer_magnitudes():
    """Calibrated presets reproduce the reference error magnitudes at short
    range (reference measurements: wireless 0.005+-0.002, wired
    0.003+-0.0015 at <= 4 m) and FER never decreases with distance."""
    frames_plan = {1.0: 600_000, 2.0: 600_000, 5.0: 100_000, 10.0: 100_000}
    windows = {"wireless": (0.003, 0.007), "wired": (0.0015, 0.0045)}
    frames_wired = {1.0: 400_000, 2.0: 400_000, 5.0: 100_000, 10.0: 100_000}
    ok = True
    details = []
    for preset_name in ("wireless", "wired"):
        plan = frames_plan if preset_name == "wireless" else frames_wired
        fers = []
        for distance in TABLE_DISTANCES:
            totals = run_point(preset_name, distance, plan[distance],
                               seed=2808 + int(distance))
            fers.append(totals.fer)
        lo, hi = windows[preset_name]
        for distance, value in zip(TABLE_DISTANCES[:2], fers[:2]):
            if not lo <= value <= hi:
                ok = False
                details.append(f"{preset_name}@{distance}m fer={value:.5f} "
                               f"outside [{lo},{hi}]")
        if any(a > b for a, b in zip(fers, fers[1:])):
            ok = False
            details.append(f"{preset_name} fers={[f'{v:.5f}' for v in fers]}")
        details.append(f"{preset_name}: " + " ".join(f"{v:.5f}" for v in fers))
    report("criterion 2 (FER magnitudes)", ok, "; ".join(details))


def test_criterion_3_payload_monotonicity():
    """Analytic FER strictly increases with payload on a log grid of error
    rates; simulated FER over the six test payloads never drops by more
    than the 3-sigma band."""
    ok = True
    details = []
    for p_ber in np.logspace(-5, -2, 16):
        values = [fer_analytic(payload, p_ber) for payload in range(31)]
        if not all(a < b for a, b in zip(values, values[1:])):
            ok = False
            details.append(f"analytic not strict at p={p_ber:.2e}")
            break

    ber = invert_fer_analytic(0.005, 10)
    base = ExperimentConfig(node_count=1, distance_m=2.0, payload_len=10,
                            max_retries=3,
                            duration_s=duration_for_frames(110_000, 30, ber),
                            seed=3303, preset="explicit", ber=ber)
    rows = sweep(base, "payload_len", [5, 10, 15, 20, 25, 30])
    frames = [row.counters.s_frm for row in rows]
    if min(frames) < 100_000:
        ok = False
        details.append(f"only {min(frames)} frames at a sweep point")
    fers = [row.counters.fer for row in rows]
    sigmas = [math.sqrt(f * (1 - f) / n) if n else 0.0
              for f, n in zip(fers, frames)]
    for i in range(len(fers) - 1):
        band = 3 * math.hypot(sigmas[i], sigmas[i + 1])
        if fers[i + 1] < fers[i] - band:
            ok = False
            details.append(f"drop at payload {rows[i + 1].value}: "
                           f"{fers[i]:.5f} -> {fers[i + 1]:.5f}")
    report("criterion 3 (payload monotonicity)", ok,
           "; ".join(details) if details else
           "analytic strict on 16-rate grid; simulated " +
           " ".join(f"{v:.5f}" for v in fers))


def test_criterion_4_analytic_simulation_agreement():
    """Monte Carlo exchange-corruption rate matches the analytic model
    within 3 sigma at 1e5 frames per parameter point, in under 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(440)
    trials = 100_000
    ok = True
    details = []
    for p_ber in (1e-4, 1e-3):
        for payload in (10, 30):
            bits = round(data_length(payload) + ack_length_term(p_ber))
            corrupted = (rng.binomial(bits, p_ber, size=trials) > 0).mean()
            expected = fer_analytic(payload, p_ber)
            sigma = math.sqrt(expected * (1 - expected) / trials)
            delta = abs(corrupted - expected)
            if delta >= 3 * sigma:
                ok = False
            details.append(f"(p={p_ber:g},payload={payload}) "
                           f"|{corrupted:.5f}-{expected:.5f}|={delta:.5f} "
                           f"vs 3s={3 * sigma:.5f}")
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s")
    report("criterion 4 (analytic-simulation agreement)", ok, "; ".join(details))


def test_criterion_5_retry_model_crosscheck():
    """Combinatorial and cumulative retry models agree exactly at m=1;
    the cumulative model matches a million-trial Bernoulli Monte Carlo."""
    ok = True
    details = []
    rng_py = random.Random(555)
    for _ in range(20):
        p = rng_py.random()
        if retry_success_paper(1, p) != retry_success_geometric(1, p):
            ok = False
            details.append(f"m=1 mismatch at p={p}")
    rng = np.random.default_rng(556)
    trials = 1_000_000
    for m in (1, 2, 3, 4):
        for p_fer in (0.05, 0.1, 0.3):
            s = (1 - p_fer) ** 2
            hit = (rng.random((trials, m)) < s).any(axis=1).mean()
            expected = retry_success_geometric(m, p_fer)
            sigma = math.sqrt(expected * (1 - expected) / trials)
            if abs(hit - expected) >= 3 * sigma:
                ok = False
                details.append(f"MC m={m} p={p_fer}: {hit:.6f} vs {expected:.6f}")
    report("criterion 5 (retry-model cross-check)", ok,
           "; ".join(details) if details else
           "m=1 exact for 20 rates; 12 Monte Carlo points within 3 sigma")


def test_criterion_6_codec_suite():
    """Round-trip identity over 1e4 random frames, 100% single- and
    double-bit corruption detection, and the published check value."""
    ok = compute_crc16(b"123456789") == 0x29B1
    details = [] if ok else ["check value mismatch"]

    rng = random.Random(666)
    for _ in range(10_000):
        frame = random_frame(rng)
        if decode_frame(encode_frame(frame)) != frame:
            ok = False
            details.append(f"round trip failed: {frame}")
            break

    detected = total = 0
    for _ in range(30):   # frames up to 38 bytes: payload <= 30
        wire = encode_frame(random_frame(rng, max_payload=30))
        nbits = len(wire) * 8
        for bit in range(nbits):
            corrupted = bytearray(wire)
            corrupted[bit >> 3] ^= 0x80 >> (bit & 7)
            total += 1
            try:
                decode_frame(bytes(corrupted))
            except CrcError:
                detected += 1
    single_ok = detected == total
    details.append(f"single-bit {detected}/{total}")

    pair_detected = pair_total = 0
    for index in range(12):
        wire = encode_frame(random_frame(rng, max_payload=30))
        nbits = len(wire) * 8
        exhaustive = index < 2
        pairs = ([(i, j) for i in range(nbits) for j in range(i + 1, nbits)]
                 if exhaustive else
                 [tuple(sorted(rng.sample(range(nbits), 2))) for _ in range(4000)])
        for i, j in pairs:
            corrupted = bytearray(wire)
            corrupted[i >> 3] ^= 0x80 >> (i & 7)
            corrupted[j >> 3] ^= 0x80 >> (j & 7)
            pair_total += 1
            try:
                decode_frame(bytes(corrupted))
            except CrcError:
                pair_detected += 1
    double_ok = pair_detected == pair_total
    details.append(f"double-bit {pair_detected}/{pair_total}")

    ok = ok and single_ok and double_ok
    report("criterion 6 (codec suite)", ok, "; ".join(details))


def test_criterion_7_optimizer_suite():
    """Exact gradient matches central finite differences to 1e-6 relative
    at 50 random interior points; the optimizer's report is never beaten
    by any integer payload in 1..30."""
    ok = True
    details = []
    rng = random.Random(777)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(0.5, 40.0)
        p = 10 ** rng.uniform(-5, -2)
        eps = 10 ** rng.uniform(-4, 0.5)
        h = 1e-5 * max(1.0, x)
        fd = (penalized_fer(x + h, p, eps) - penalized_fer(x - h, p, eps)) / (2 * h)
        grad = penalized_fer_gradient(x, p, eps)
        rel = abs(grad - fd) / max(abs(fd), 1e-30)
        worst = max(worst, rel)
    if worst >= 1e-6:
        ok = False
        details.append(f"worst FD deviation {worst:.2e}")
    details.append(f"worst FD rel err {worst:.2e}")

    for p_ber in (1e-4, 1e-3, 1e-2):
        result = optimize_payload(p_ber)
        grid = [fer_analytic(payload, p_ber) for payload in range(1, 31)]
        if not result.converged:
            ok = False
            details.append(f"p={p_ber}: did not converge")
        if result.best_integer.fer > min(grid) or result.fer_opt > min(grid):
            ok = False
            details.append(f"p={p_ber}: beaten by grid")
    details.append("grid-dominant at 3 rates")
    report("criterion 7 (optimizer suite)", ok, "; ".join(details))


def test_criterion_8_determinism(tmp_path):
    """Any command run twice with the same inputs produces an identical
    manifest and byte-identical CSV."""
    commands = {
        "simulate": ["simulate", "--set", "duration_s=0.5",
                     "--set", "node_count=3", "--set", "seed=88"],
        "sweep": ["sweep", "--set", "duration_s=0.3", "--set", "node_count=2",
                  "--set", "seed=88", "--axis", "max_retries", "--values", "0..2"],
        "analyze": ["analyze", "payload", "--payload", "0..30",
                    "--p-ber", "1e-4,1e-3"],
        "optimize": ["optimize", "--p-ber", "1e-3"],
    }
    ok = True
    details = []
    for name, args in commands.items():
        out_a = tmp_path / f"{name}_a.csv"
        out_b = tmp_path / f"{name}_b.csv"
        code_a = main([*args, "-o", str(out_a)])
        code_b = main([*args, "-o", str(out_b)])
        same_bytes = out_a.read_bytes() == out_b.read_bytes()
        manifest_a = json.loads(out_a.with_suffix(".manifest.json").read_text())
        manifest_b = json.loads(out_b.with_suffix(".manifest.json").read_text())
        manifest_a["outputs"] = manifest_b["outputs"] = []
        if not (code_a == code_b == 0 and same_bytes and manifest_a == manifest_b):
            ok = False
            details.append(f"{name} differs")
    report("criterion 8 (determinism)", ok,
           "; ".join(details) if details else
           "simulate/sweep/analyze/optimize byte-identical on repeat")
