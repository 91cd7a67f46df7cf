"""Closed-form link metrics: error ratios, retry success, payload/FER model.

Two retry-success models are provided side by side and are NOT equivalent:

- `retry_success_paper` evaluates the combinatorial sum
  (1-p)^2 * sum_{i=0}^{m-1} C(m-1,i) [p(1-p)]^(m-i-1) p^i, which collapses
  algebraically to (1-p)^2 * [p(2-p)]^(m-1): the probability that the first
  fully clean data+ack exchange lands exactly on the last of m attempts.
  It *decreases* with m for small p.
- `retry_success_geometric` is the independent oracle: the probability of
  at least one clean exchange within m attempts, which increases with m.

They coincide at m = 1.  Tests assert both behaviours rather than silently
replacing one with the other.
"""

import math

from .errors import RangeError
from .frames import ACK_BITS, OVERHEAD_BYTES

# a float, so an integer payload past 2**53 is rounded once, before the sum
_OVERHEAD = float(OVERHEAD_BYTES)
J_MAX = 5                # truncation of the ack retransmission series
PAPER_MAX_M = 1030       # largest m whose binomials C(m-1, i) all fit a float


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"{name}={p} is not a probability")


def fer(s_frm: int, r_frm: int) -> float:
    """Frame error ratio (S_frm - R_frm) / S_frm."""
    if s_frm == 0:
        raise ZeroDivisionError("no frames sent")
    if not 0 <= r_frm <= s_frm:
        raise RangeError(f"need 0 <= r_frm <= s_frm, got {r_frm}, {s_frm}")
    return (s_frm - r_frm) / s_frm


def per(s_pkt: int, r_pkt: int) -> float:
    """Packet error ratio (S_pkt - R_pkt) / S_pkt."""
    if s_pkt == 0:
        raise ZeroDivisionError("no packets sent")
    if not 0 <= r_pkt <= s_pkt:
        raise RangeError(f"need 0 <= r_pkt <= s_pkt, got {r_pkt}, {s_pkt}")
    return (s_pkt - r_pkt) / s_pkt


def exchange_success(p_fer: float) -> float:
    """Chance one attempt succeeds: data frame and its ack both clean."""
    _check_probability("p_fer", p_fer)
    return (1.0 - p_fer) ** 2


def retry_success_paper(m: int, p_fer: float) -> float:
    """Combinatorial retry model, evaluated term by term as printed.

    Exact integer binomials keep the sum well-conditioned for m up to
    a few hundred; past `PAPER_MAX_M` one no longer converts to a float.
    """
    if not 1 <= m <= PAPER_MAX_M:
        raise RangeError(f"attempt count m={m} outside 1..{PAPER_MAX_M}")
    _check_probability("p_fer", p_fer)
    p = p_fer
    total = 0.0
    c = 1   # C(m-1, i), stepped exactly in integers
    for i in range(m):
        total += c * (p * (1.0 - p)) ** (m - i - 1) * p ** i
        c = c * (m - 1 - i) // (i + 1)
    return exchange_success(p) * total


def retry_success_geometric(m: int, p_fer: float) -> float:
    """Probability of at least one clean exchange within m attempts.

    Summed as sum_{k=1}^{m} s(1-s)^(k-1) with s the per-attempt success,
    so the m = 1 case is bit-identical to the combinatorial model.
    """
    if m < 1:
        raise RangeError(f"attempt count m={m} must be >= 1")
    s = exchange_success(p_fer)
    fail = 1.0 - s
    total = 0.0
    term = s
    for _ in range(m):
        total += term
        term *= fail
    return total


def ack_length_term(p_ber: float) -> float:
    """Expected ack bits: sum_{j=1}^{J_MAX} 8*9*j * p^(j-1) (1-p)."""
    _check_probability("p_ber", p_ber)
    return sum(ACK_BITS * j * p_ber ** (j - 1) * (1.0 - p_ber)
               for j in range(1, J_MAX + 1))


def data_length(payload: float) -> float:
    """Data frame length in bits: 8 * (payload + 8)."""
    if not payload >= 0:
        raise RangeError(f"payload={payload} must be >= 0")
    return 8.0 * (payload + _OVERHEAD)


def _any_flip(bits: float, log_clean: float) -> float:
    """Unchecked 1 - (1-p)^bits from log_clean = log1p(-p)."""
    # exp/log1p form keeps precision at small p where (1-p)^L loses bits
    return -math.expm1(bits * log_clean)


def fer_analytic(payload: float, p_ber: float) -> float:
    """Exchange failure probability 1 - (1-p)^(L_data + L_ack)."""
    return frame_corruption_probability(data_length(payload) + ack_length_term(p_ber), p_ber)


def frame_corruption_probability(frame_bits: float, p_ber: float) -> float:
    """Chance at least one of `frame_bits` i.i.d. bits flips: 1-(1-p)^L."""
    _check_probability("p_ber", p_ber)
    if not frame_bits >= 0:
        raise RangeError(f"frame_bits={frame_bits} must be >= 0")
    if p_ber == 1.0:
        return 1.0 if frame_bits > 0 else 0.0
    return _any_flip(frame_bits, math.log1p(-p_ber))


def invert_fer_analytic(target_fer: float, payload: float) -> float:
    """Bit error rate whose analytic exchange FER equals `target_fer`.

    Bisection on p; the analytic FER is strictly increasing in p so the
    root is unique.  It has no iteration cap: it stops at its fixed point,
    a midpoint that rounds to a bound, which every later halving repeats.
    """
    if not 0.0 < target_fer < 1.0:
        raise RangeError(f"target_fer={target_fer} must be in (0,1)")
    lo, hi, mid = 0.0, 1.0, 0.5
    while lo < mid < hi:
        if fer_analytic(payload, mid) < target_fer:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
