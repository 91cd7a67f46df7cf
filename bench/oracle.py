"""Closed forms the benchmark checks wbansim's outputs against.

They are written out here rather than imported from ``wbansim.analytics``,
so that a fault in the package's own models cannot pass its own check.
"""

import math

DATA_OVERHEAD_BYTES = 8      # 6-byte header + 2-byte CRC around every payload
ACK_BITS = 72                # a 9-byte ack frame
ACK_SERIES_TERMS = 5         # terms of the expected-ack-length series
CALIBRATION_PAYLOAD = 10     # payload the presets are calibrated at

# The presets' calibration data: (distance in m, target exchange FER).
PRESET_FER_TARGETS = {
    "wireless": ((1.0, 0.00475), (2.0, 0.005), (4.0, 0.0056),
                 (5.0, 0.012), (10.0, 0.025)),
    "wired": ((1.0, 0.0026), (2.0, 0.0030), (4.0, 0.0034),
              (5.0, 0.0040), (10.0, 0.0050)),
}

# |z| above which a statistical check fails.  A 3-sigma band fails about
# one check in 370 on correct code; ten runs of each simulation workload
# make 120 such checks, so they would fail on correct code about one time
# in four.  At 5 sigma that chance is below one in a thousand.
Z_LIMIT = 5.0


def frame_error(bits: float, ber: float) -> float:
    """Chance that at least one of `bits` independent bits flips."""
    return -math.expm1(bits * math.log1p(-ber))


def data_bits(payload: float) -> float:
    return 8.0 * (payload + DATA_OVERHEAD_BYTES)


def expected_ack_bits(ber: float) -> float:
    return sum(ACK_BITS * j * ber ** (j - 1) * (1.0 - ber)
               for j in range(1, ACK_SERIES_TERMS + 1))


def exchange_fer(payload: float, ber: float) -> float:
    """The calibration model: 1-(1-ber)^(L_data + L_ack)."""
    return frame_error(data_bits(payload) + expected_ack_bits(ber), ber)


def calibrate(target_fer: float, payload: float = CALIBRATION_PAYLOAD) -> float:
    """BER at which `exchange_fer` meets `target_fer`, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if exchange_fer(payload, mid) < target_fer:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrated_table(preset: str) -> list[tuple[float, float]]:
    return [(d, calibrate(f)) for d, f in PRESET_FER_TARGETS[preset]]


def interpolate(table, distance: float) -> float:
    """Piecewise-linear in distance, held constant beyond both ends."""
    if distance <= table[0][0]:
        return table[0][1]
    for (d0, b0), (d1, b1) in zip(table, table[1:]):
        if distance <= d1:
            return b0 + (b1 - b0) * (distance - d0) / (d1 - d0)
    return table[-1][1]


def retry_final_attempt(m: int, p: float) -> float:
    """First clean exchange lands exactly on attempt m: (1-p)^2 [p(2-p)]^(m-1)."""
    return (1.0 - p) ** 2 * (p * (2.0 - p)) ** (m - 1)


def retry_within(m: int, p: float) -> float:
    """At least one clean exchange within m attempts: 1-(1-(1-p)^2)^m."""
    return 1.0 - (1.0 - (1.0 - p) ** 2) ** m


def z_score(events: float, expected: float, variance: float) -> float:
    """Standard score of an observed count against its expectation."""
    if variance <= 0.0:
        return 0.0 if events == expected else math.inf
    return (events - expected) / math.sqrt(variance)


def binomial_z(events: int, trials: int, p: float) -> float:
    return z_score(events, trials * p, trials * p * (1.0 - p))
