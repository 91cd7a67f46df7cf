"""Stochastic link model: i.i.d. bit flips at a configurable error rate.

Randomness comes from MT19937 substreams (the stdlib's ``random.Random``),
one per stream id, each keyed by a SHA-256 of ``(rng_seed, stream_id)``.
Distinct stream ids are statistically independent and reproducible
regardless of how transmissions interleave across links, so adding a node
to a simulation never perturbs the noise seen by the others.
Each substream is one Bernoulli(`ber`) bit sequence across every frame it
carries, drawn as geometric gaps between flips: one uniform draw per
flipped bit, none for a frame that crosses clean.

The distance calibration maps test distance to bit error rate.  The bundled
``wireless`` and ``wired`` presets are calibration artifacts: the targets
are frame error rates (what a test rig can actually measure), inverted
through the analytic payload/FER model at the 10-byte reference payload.
"""

import bisect
import functools
import hashlib
import math
import random
import sys
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .analytics import invert_fer_analytic
from .errors import RangeError

CALIBRATION_PAYLOAD = 10   # reference payload (bytes) for preset inversion

# Measured-FER targets per distance (m) for each preset.  Flat-ish out to
# 4 m, growing beyond, with the wired rig cleaner than the wireless one.
PRESET_FER_TARGETS = {
    "wireless": ((1.0, 0.00475), (2.0, 0.005), (4.0, 0.0056), (5.0, 0.012), (10.0, 0.025)),
    "wired": ((1.0, 0.0026), (2.0, 0.0030), (4.0, 0.0034), (5.0, 0.0040), (10.0, 0.0050)),
}


def check_distance_map(table) -> tuple[tuple[float, float], ...]:
    """`table` as (distance, ber) float pairs; RangeError unless every entry
    is finite, distances strictly increase and BERs are probabilities
    non-decreasing with them."""
    table = tuple((float(d), float(b)) for d, b in table)
    if not all(math.isfinite(x) for pair in table for x in pair):
        raise RangeError("calibration entries must be finite")
    distances = [d for d, _ in table]
    bers = [b for _, b in table]
    if any(b < a for a, b in zip(distances, distances[1:])) or \
       len(set(distances)) != len(distances):
        raise RangeError("calibration distances must be strictly increasing")
    if any(b < a for a, b in zip(bers, bers[1:])):
        raise RangeError("calibration BERs must be non-decreasing with distance")
    if any(not 0.0 <= b <= 1.0 for b in bers):
        raise RangeError("calibration BERs must be probabilities")
    return table


@dataclass
class ChannelModel:
    """Bit-flip channel: error rate, RNG seed, optional distance calibration."""

    ber: float = 0.0
    rng_seed: int = 0
    distance_map: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise RangeError(f"ber={self.ber} is not a probability")
        if self.distance_map is not None:
            self.distance_map = check_distance_map(self.distance_map)

    def stream(self, stream_id) -> random.Random:
        """Fresh generator at the start of the (rng_seed, stream_id)
        substream, for any repr-stable id; asking twice for one id gives two
        generators that draw the same numbers."""
        digest = hashlib.sha256(repr((self.rng_seed, stream_id)).encode()).digest()
        return random.Random(int.from_bytes(digest, "big"))


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
    costs a subtraction; a gap that ends inside a frame flips that bit, and
    further gaps are drawn until one reaches past the frame end, whose
    remainder carries into the next frame.

    ``clean_run`` says how many frames of a given length will cross with
    zero flips before the next one that will not, ``flips_ahead`` counts
    the flips of each next frame, and ``skip`` consumes frames without
    flipping anything; together they let a caller account frames whose
    fate their flip counts decide without building them.  Gaps drawn to
    look ahead wait in a buffer that ``corrupt`` and ``skip`` take from
    before they draw again, so every substream draws the same numbers in
    the same order whether or not anyone looked ahead.  At ``ber`` 0
    nothing flips and at ``ber`` 1 every bit does; neither draws anything.
    Setting ``ber`` discards the gap and the buffer and draws a fresh gap,
    which is exact because the law is memoryless.
    """

    __slots__ = ("rng", "_ber", "_log_q", "_gap", "_ahead")

    def __init__(self, rng: random.Random, ber: float):
        self.rng = rng
        self.ber = ber

    @property
    def ber(self) -> float:
        return self._ber

    @ber.setter
    def ber(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise RangeError(f"ber={value} is not a probability")
        self._ber = value
        self._ahead = deque()   # gaps after the next flip, drawn by a look-ahead
        if 0.0 < value < 1.0:
            self._log_q = math.log1p(-value)
            self._gap = self._draw()

    def _draw(self) -> int:
        """Clean bits before the next flip."""
        try:
            return int(math.log1p(-self.rng.random()) / self._log_q)
        except OverflowError:   # a gap past any float, at a sub-1e-307 ber
            return sys.maxsize

    def clean_run(self, nbits: int) -> int:
        """Frames of `nbits` bits ahead that will cross with zero flips, up
        to the next one that will not; consumes nothing.

        At ``ber`` 0 the run has no end; it is given as ``sys.maxsize``.
        """
        ber = self._ber
        if ber == 0.0:
            return sys.maxsize
        if ber == 1.0:
            return 0
        return self._gap // nbits

    def flips_ahead(self, nbits: int, cap: int) -> Iterator[int]:
        """Yield the number of flips each next frame of `nbits` bits will
        carry, counting at most `cap`; consumes nothing.

        The look-ahead ends after the first frame that reaches `cap`, and it
        holds only until the next ``corrupt``, ``skip`` or change of ``ber``.
        """
        ber = self._ber
        if ber == 0.0 or ber == 1.0:
            count = min(nbits, cap) if ber else 0
            while True:
                yield count
                if count == cap:
                    return
        ahead = self._ahead
        pos, i = self._gap, 0   # next flip from the frame start; ahead[i] follows it
        while True:
            count = 0
            while pos < nbits:
                count += 1
                if count == cap:
                    yield cap
                    return
                if i == len(ahead):
                    ahead.append(self._draw())
                pos += 1 + ahead[i]
                i += 1
            yield count
            pos -= nbits

    def skip(self, nbits: int, n: int) -> None:
        """Consume `n` frames of `nbits` bits as ``corrupt`` would, flips
        included, without building them."""
        if 0.0 < self._ber < 1.0:
            end, pos, ahead = n * nbits, self._gap, self._ahead
            while pos < end:
                pos += 1 + (ahead.popleft() if ahead else self._draw())
            self._gap = pos - end

    def corrupt(self, data: bytes) -> bytes:
        ber = self._ber
        if ber == 0.0:
            return data
        if ber == 1.0:
            return bytes(b ^ 0xFF for b in data)
        nbits = len(data) * 8
        pos = self._gap
        if pos >= nbits:
            self._gap = pos - nbits
            return data
        out = bytearray(data)
        ahead = self._ahead
        while pos < nbits:
            out[pos >> 3] ^= 0x80 >> (pos & 7)
            pos += 1 + (ahead.popleft() if ahead else self._draw())
        self._gap = pos - nbits
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
    return ChannelModel(ber=table[0][1], rng_seed=rng_seed, distance_map=table)
