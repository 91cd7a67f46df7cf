"""Stochastic link model: i.i.d. bit flips at a configurable error rate.

Randomness comes from MT19937 substreams (the stdlib's ``random.Random``),
one per stream id, each keyed by a SHA-256 of ``(rng_seed, stream_id)``.
The digest comes from the interpreter's builtin ``_sha256`` module, as
``random`` takes SHA-512 from ``_sha512``, so wbansim never loads OpenSSL
through ``hashlib``; ``hashlib.sha256``, which gives the same digest, is
imported only where the builtin is missing.
Distinct stream ids are statistically independent and reproducible
regardless of how transmissions interleave across links, so adding a node
to a simulation never perturbs the noise seen by the others.
Each substream is one Bernoulli(`ber`) bit sequence across every frame it
carries, drawn as geometric gaps between flips: one uniform draw per
flipped bit, none for a frame that crosses clean.  The extreme rates obey
the same law: at ``ber`` 0 no gap ends, and at ``ber`` 1 every gap is 0.

The distance calibration maps test distance to bit error rate.  The bundled
``wireless`` and ``wired`` presets are calibration artifacts: the targets
are frame error rates (what a test rig can actually measure), inverted
through the analytic payload/FER model at the 10-byte reference payload.
"""

import bisect
import functools
import math
import random
import sys
from dataclasses import dataclass

try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .analytics import _check_probability, invert_fer_analytic
from .errors import RangeError

CALIBRATION_PAYLOAD = 10   # reference payload (bytes) for preset inversion

# Measured-FER targets per distance (m) for each preset.  Flat-ish out to
# 4 m, growing beyond, with the wired rig cleaner than the wireless one.
PRESET_FER_TARGETS = {
    "wireless": ((1.0, 0.00475), (2.0, 0.005), (4.0, 0.0056), (5.0, 0.012), (10.0, 0.025)),
    "wired": ((1.0, 0.0026), (2.0, 0.0030), (4.0, 0.0034), (5.0, 0.0040), (10.0, 0.0050)),
}


def key_digest(seed: int, stream_id) -> bytes:
    """The 32-byte SHA-256 of ``repr((seed, stream_id))``: the key of a
    channel substream and of a sweep point's derived seed."""
    return sha256(repr((seed, stream_id)).encode()).digest()


def check_distance_map(table) -> tuple[tuple[float, float], ...]:
    """`table` as (distance, ber) float pairs; RangeError unless every entry
    is finite, distances strictly increase and BERs are probabilities
    non-decreasing with them."""
    table = tuple((float(d), float(b)) for d, b in table)
    if not all(math.isfinite(x) for pair in table for x in pair):
        raise RangeError("calibration entries must be finite")
    distances = [d for d, _ in table]
    bers = [b for _, b in table]
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise RangeError("calibration distances must be strictly increasing")
    if any(b < a for a, b in zip(bers, bers[1:])):
        raise RangeError("calibration BERs must be non-decreasing with distance")
    if any(not 0.0 <= b <= 1.0 for b in bers):
        raise RangeError("calibration BERs must be probabilities")
    return table


@dataclass
class ChannelModel:
    """Bit-flip channel: an RNG seed and an optional distance calibration.
    It holds no error rate: ``make_link`` takes each link's."""

    rng_seed: int = 0
    distance_map: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.distance_map is not None:
            self.distance_map = check_distance_map(self.distance_map)

    def stream(self, stream_id) -> random.Random:
        """Fresh generator at the start of the (rng_seed, stream_id)
        substream, for any repr-stable id; asking twice for one id gives two
        generators that draw the same numbers."""
        digest = key_digest(self.rng_seed, stream_id)
        return random.Random(int.from_bytes(digest, "big"))


# The steepest ``log1p(-ber)`` a substream divides by: ``-log1p(-u) < 40``
# (at most 53 ln 2, about 36.7) for every ``u`` that ``random()`` returns, so
# every quotient over it is a finite float.  Only a ber below about 2.2e-307
# meets it, and there every gap but the inversion's ``u == 0`` case, which
# is 0 at every rate, exceeds 5e290 bits.
LOG_Q_CAP = -40.0 / sys.float_info.max


class FrameCorruptor:
    """Flip each bit of a frame independently with probability `ber`.

    Bit positions are MSB-first within each byte.  One instance per
    substream treats everything it carries as one Bernoulli(`ber`) bit
    sequence, frame after frame, and keeps the number of clean bits before
    the next flip.  Gaps between the successes of Bernoulli trials are
    geometric, so drawing each gap by inversion,
    ``floor(log1p(-u) / log1p(-ber))`` from one uniform ``u`` (Devroye,
    *Non-Uniform Random Variate Generation*, 1986), realizes exactly the
    i.i.d. per-bit law at one draw per flipped bit.  A frame the gap covers
    crosses unchanged and draws nothing; a gap that ends inside a frame
    flips that bit, and further gaps are taken until one reaches past the
    frame end, whose remainder carries into the next frame.

    The look-ahead that ``mac.send_clean`` walks is public: ``gap`` is the
    number of clean bits before the next flip, counted from the next frame's
    start, and ``ahead`` holds gaps that a walk drew past that flip and
    handed back, the next one last.  ``draw`` pops ``ahead`` before it draws
    from ``rng``, so it is the one home of the substream's next gap, and
    ``corrupt`` takes each gap through it.  A walk commits the frames it
    decided by setting ``gap`` to the gap after them; a frame crosses clean
    exactly when ``gap >= nbits``, and committing it is ``gap -= nbits``.  A
    walk that leaves its frames to ``corrupt`` restores ``gap`` and hands
    its gaps back, reversed, onto ``ahead``, so every substream carries the
    same bits whether or not anyone looked ahead.  At ``ber`` 0 nothing
    flips: ``gap`` starts at ``sys.maxsize``, far past any run of frames,
    and counts down like any other gap.  At ``ber`` 1 ``log1p(-ber)`` is
    ``-inf``, so every gap drawn is 0: every bit flips, at one draw per bit
    as at any other rate.  The rate is fixed at construction; below about
    2.2e-307 ``log_q`` is ``LOG_Q_CAP``, so no quotient overflows.
    """

    __slots__ = ("rng", "_log_q", "gap", "ahead")

    def __init__(self, rng: random.Random, ber: float):
        _check_probability("ber", ber)
        self.rng = rng
        self.ahead = []
        self._log_q = min(math.log1p(-ber), LOG_Q_CAP) if ber < 1.0 else -math.inf
        self.gap = self.draw() if ber else sys.maxsize

    @property
    def log_q(self) -> float:
        """Inversion denominator ``min(log1p(-ber), LOG_Q_CAP)``, ``-inf`` at ``ber`` 1."""
        return self._log_q

    def draw(self) -> int:
        """The substream's next gap, the clean bits before a flip: the last
        one handed back to ``ahead``, else a fresh one drawn by inversion
        over ``log_q``, always a finite quotient."""
        if self.ahead:
            return self.ahead.pop()
        return int(math.log1p(-self.rng.random()) / self._log_q)

    def corrupt(self, data: bytes) -> bytes:
        nbits = len(data) * 8
        out = bytearray(data)
        pos = self.gap
        while pos < nbits:
            out[pos >> 3] ^= 0x80 >> (pos & 7)
            pos += 1 + self.draw()
        self.gap = pos - nbits
        return bytes(out)


def ber_for_distance(distance_m: float, model: ChannelModel) -> float:
    """Piecewise-linear interpolation over the calibration table, clamped
    at both endpoints, in ``numpy.interp``'s arithmetic: the same floats."""
    if not distance_m > 0:
        raise RangeError(f"distance_m={distance_m} must be positive")
    table = model.distance_map
    if not table:
        raise RangeError("channel model has no distance calibration table")
    j = bisect.bisect_right(table, distance_m, key=lambda entry: entry[0]) - 1
    if j < 0:
        return table[0][1]
    x0, y0 = table[j]
    if x0 == distance_m or j == len(table) - 1:
        return y0
    x1, y1 = table[j + 1]
    return (y1 - y0) / (x1 - x0) * (distance_m - x0) + y0


@functools.cache
def _calibration_table(name: str) -> tuple[tuple[float, float], ...]:
    """(distance, ber) pairs of a preset, inverted once per process.

    Only the immutable table is cached; every `preset` call still builds a
    fresh ChannelModel.
    """
    if name not in PRESET_FER_TARGETS:
        raise RangeError(f"unknown channel preset {name!r}")
    return tuple((d, invert_fer_analytic(f, CALIBRATION_PAYLOAD))
                 for d, f in PRESET_FER_TARGETS[name])


def preset(name: str, rng_seed: int = 0) -> ChannelModel:
    """Calibrated channel preset: ``wireless`` or ``wired``."""
    table = _calibration_table(name)
    return ChannelModel(rng_seed=rng_seed, distance_map=table)
