"""Closed-form model tests.

Expected values were computed independently: ratio examples by hand,
series examples term by term with exact arithmetic, and the payload/FER
reference with 50-digit arbitrary-precision evaluation of the defining
formulas.  Monte Carlo oracles use seeded numpy draws with 3-sigma bands.
"""

import functools
import math
import random

import numpy as np
import pytest

from wbansim import analytics
from wbansim.analytics import (J_MAX, PAPER_MAX_M, ack_length_term, data_length,
                               fer, fer_analytic, frame_corruption_probability,
                               invert_fer_analytic, per,
                               retry_success_geometric, retry_success_paper)
from wbansim.channel import CALIBRATION_PAYLOAD, PRESET_FER_TARGETS
from wbansim.errors import RangeError


# ------------------------------------------------------------- error ratios

def test_fer_direct_ratio():
    assert fer(1000, 995) == pytest.approx(0.005)


def test_fer_lossless():
    for n in (1, 17, 10**6):
        assert fer(n, n) == 0.0


def test_fer_zero_sent_raises():
    with pytest.raises(ZeroDivisionError):
        fer(0, 0)


def test_per_basics():
    assert per(500, 500) == 0.0
    assert per(500, 0) == 1.0
    with pytest.raises(ZeroDivisionError):
        per(0, 0)


def test_ratio_bounds_and_validation():
    rng = random.Random(5)
    for _ in range(200):
        s = rng.randrange(1, 10**6)
        r = rng.randrange(0, s + 1)
        assert 0.0 <= fer(s, r) <= 1.0
    with pytest.raises(RangeError):
        fer(5, 6)


# -------------------------------------------------------------- retry model

def test_paper_model_single_attempt():
    assert retry_success_paper(1, 0.1) == pytest.approx(0.81, rel=1e-12)


def test_paper_model_two_attempts_term_by_term():
    # (1-p)^2 * [C(1,0)(p(1-p))^1 p^0 + C(1,1)(p(1-p))^0 p^1]
    #   = 0.81 * (0.09 + 0.1) = 0.15390
    assert retry_success_paper(2, 0.1) == pytest.approx(0.1539, rel=1e-12)


def _paper_sum_with_math_comb(m, p):
    # the printed sum, one math.comb per term
    total = 0.0
    for i in range(m):
        total += math.comb(m - 1, i) * (p * (1.0 - p)) ** (m - i - 1) * p ** i
    return (1.0 - p) ** 2 * total


@pytest.mark.parametrize("m", [1, 2, 30, 300, PAPER_MAX_M])
def test_paper_model_matches_math_comb_bit_for_bit(m):
    for p in (0.0, 1e-6, 0.001, 0.05, 0.1, 0.3, 0.5, 0.7, 0.999, 1.0):
        expected = _paper_sum_with_math_comb(m, p)
        assert math.isfinite(expected)
        assert retry_success_paper(m, p) == expected


def test_geometric_single_attempt():
    assert retry_success_geometric(1, 0.1) == pytest.approx(0.81, rel=1e-12)


def test_geometric_two_attempts():
    assert retry_success_geometric(2, 0.1) == pytest.approx(0.9639, rel=1e-12)


def test_models_identical_at_m1():
    rng = random.Random(77)
    for _ in range(50):
        p = rng.random()
        assert retry_success_paper(1, p) == retry_success_geometric(1, p)


def test_paper_model_collapses_to_closed_form():
    # the combinatorial sum telescopes to (1-p)^2 [p(2-p)]^(m-1):
    # success landing exactly on the final attempt
    for m in range(1, 31):
        for p in (0.01, 0.1, 0.3, 0.7):
            closed = (1 - p) ** 2 * (p * (2 - p)) ** (m - 1)
            assert retry_success_paper(m, p) == pytest.approx(closed, rel=1e-9)


def test_paper_model_evaluates_up_to_its_largest_m():
    # the last m whose binomials all convert to a float still gives a value;
    # the next one is refused instead of overflowing
    assert math.isfinite(retry_success_paper(PAPER_MAX_M, 0.1))
    with pytest.raises(OverflowError):
        float(math.comb(PAPER_MAX_M, PAPER_MAX_M // 2))
    with pytest.raises(RangeError):
        retry_success_paper(PAPER_MAX_M + 1, 0.1)


def test_geometric_strictly_increasing_in_m():
    for p in (0.05, 0.1, 0.3, 0.9):
        values = [retry_success_geometric(m, p) for m in range(1, 31)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        # strictness holds until the float value saturates at 1
        assert all(a < b for a, b in zip(values, values[1:]) if b < 1 - 1e-12)


def test_geometric_approaches_one():
    assert retry_success_geometric(1000, 0.3) == pytest.approx(1.0, abs=1e-12)


def test_geometric_vs_bernoulli_monte_carlo():
    rng = np.random.default_rng(2024)
    trials = 200_000
    for m in (1, 2, 3, 4):
        for p_fer in (0.05, 0.1, 0.3):
            s = (1 - p_fer) ** 2
            attempts = rng.random((trials, m)) < s
            hit = attempts.any(axis=1).mean()
            expected = retry_success_geometric(m, p_fer)
            sigma = math.sqrt(expected * (1 - expected) / trials)
            assert abs(hit - expected) < 3 * sigma + 1e-12


def test_plateau_onset_of_retry_benefit():
    # at p_fer = 0.1 the residual loss drops below plotting resolution
    # (2e-3) exactly from the fourth attempt on
    threshold = 2e-3
    losses = {m: 1 - retry_success_geometric(m, 0.1) for m in range(1, 31)}
    first_adequate = min(m for m, loss in losses.items() if loss < threshold)
    assert first_adequate == 4
    assert all(losses[m] < threshold for m in range(4, 31))


# ------------------------------------------------------------ payload model

def test_ack_length_at_zero_ber():
    assert ack_length_term(0.0) == pytest.approx(72.0, rel=1e-12)


def test_ack_length_half_ber_exact_terms():
    # 36 + 36 + 27 + 18 + 11.25
    assert ack_length_term(0.5) == pytest.approx(128.25, rel=1e-12)


def test_ack_length_total_loss():
    assert ack_length_term(1.0) == 0.0


def test_ack_length_independent_summation():
    rng = random.Random(3)
    for _ in range(100):
        p = rng.random()
        expected = 0.0
        for j in range(1, J_MAX + 1):
            expected += 8 * 9 * j * p ** (j - 1) * (1 - p)
        assert ack_length_term(p) == pytest.approx(expected, rel=1e-12)


def test_data_length_values():
    assert data_length(10) == 144
    assert data_length(0) == 64
    assert data_length(30) == 304


def test_fer_analytic_zero_ber():
    for payload in (0, 10, 30):
        assert fer_analytic(payload, 0.0) == 0.0


def test_fer_analytic_reference_value():
    # 50-digit evaluation: 0.19440986258496184872...
    assert fer_analytic(10, 1e-3) == pytest.approx(0.1944098625849618, rel=1e-12)


def test_fer_analytic_more_reference_values():
    assert fer_analytic(10, 1e-4) == pytest.approx(0.02137015229659820, rel=1e-12)
    assert fer_analytic(30, 1e-3) == pytest.approx(0.31357632067997235, rel=1e-12)
    assert fer_analytic(30, 1e-4) == pytest.approx(0.03690440118169561, rel=1e-12)


def test_fer_analytic_strictly_increasing_in_payload():
    for p in np.logspace(-5, -2, 13):
        values = [fer_analytic(payload, p) for payload in range(31)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_fer_analytic_strictly_increasing_in_ber():
    grid = np.logspace(-6, -2, 40)
    for payload in (0, 10, 30):
        values = [fer_analytic(payload, p) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
    # larger rates saturate toward 1 in float but never decrease
    coarse = [fer_analytic(30, p) for p in (0.01, 0.05, 0.1, 0.3, 0.7, 1.0)]
    assert all(a <= b for a, b in zip(coarse, coarse[1:]))


def test_fer_analytic_monte_carlo():
    rng = np.random.default_rng(11)
    trials = 100_000
    for payload, p in ((10, 1e-3), (30, 1e-4)):
        bits = round(data_length(payload) + ack_length_term(p))
        corrupted = (rng.binomial(bits, p, size=trials) > 0).mean()
        expected = fer_analytic(payload, p)
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(corrupted - expected) < 3 * sigma + 1e-4


@pytest.mark.parametrize("function, args", [
    (data_length, (math.nan,)), (data_length, (-1,)), (fer_analytic, (math.nan, 1.0)),
    (fer_analytic, (math.nan, 1e-3)), (invert_fer_analytic, (0.01, math.nan))],
    ids=["data_length-nan", "data_length-negative", "fer_analytic-nan-at-ber-1",
         "fer_analytic-nan", "invert_fer_analytic-nan"])
def test_a_nan_or_negative_payload_is_refused(function, args):
    with pytest.raises(RangeError, match="payload="):
        function(*args)


@pytest.mark.parametrize("frame_bits", [math.nan, -8, -1e-9])
@pytest.mark.parametrize("p_ber", [0.1, 1.0])
def test_a_nan_or_negative_frame_length_is_refused(frame_bits, p_ber):
    with pytest.raises(RangeError, match="frame_bits="):
        frame_corruption_probability(frame_bits, p_ber)


def test_frame_corruption_probability():
    assert frame_corruption_probability(144, 0.0) == 0.0
    assert frame_corruption_probability(144, 1.0) == 1.0
    assert frame_corruption_probability(144, 1e-3) == pytest.approx(
        1 - (1 - 1e-3) ** 144, rel=1e-12)


def test_invert_fer_analytic_round_trip():
    for target in (1e-4, 0.003, 0.005, 0.05, 0.5):
        p = invert_fer_analytic(target, 10)
        assert fer_analytic(10, p) == pytest.approx(target, rel=1e-9)


def test_invert_fer_analytic_round_trips_a_tiny_target():
    # a 200-bisection cap ended the search at 3.11e-61, whose FER is 6.7e-59
    fer = fer_analytic(10, invert_fer_analytic(1e-100, 10))
    assert fer == pytest.approx(1e-100, rel=1e-9, abs=0)


def bisect_1100_times(target_fer, payload, fer=fer_analytic):
    """A bisection with no stop of its own: 1 100 halvings of [0, 1] reach
    every float in it, down to the subnormal 2**-1074."""
    lo, hi = 0.0, 1.0
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        if fer(payload, mid) < target_fer:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# 600 log-spaced targets over 1e-320..0.5, the extremes of (0,1) and rates
# within 1e-12..1e-3 of 1, each at one of three payloads in turn
INVERT_TARGETS = ([10 ** (-320 + 319.7 * k / 599) for k in range(600)]
                  + [5e-324, 1e-323, 0.5, 1 - 1e-12, 1 - 1e-9, 1 - 1e-6, 1 - 1e-3,
                     math.nextafter(1.0, 0.0)])


def test_invert_fer_analytic_stops_where_more_bisection_changes_nothing(monkeypatch):
    for i, target in enumerate(INVERT_TARGETS):
        for payload in ((0, 10, 255)[i % 3], (0, 10, 255)[(i + 1) % 3]):
            # fer_analytic is pure, so the search and the reference share
            # one evaluation of each midpoint
            fer = functools.cache(fer_analytic)
            monkeypatch.setattr(analytics, "fer_analytic", fer)
            assert invert_fer_analytic(target, payload) == bisect_1100_times(
                target, payload, fer), (target, payload)


def test_invert_fer_analytic_bisects_a_preset_target_fewer_than_100_times(monkeypatch):
    calls = []

    def counted(payload, p_ber):
        calls.append(p_ber)
        return fer_analytic(payload, p_ber)

    monkeypatch.setattr(analytics, "fer_analytic", counted)
    for targets in PRESET_FER_TARGETS.values():
        for _, target in targets:
            calls.clear()
            assert invert_fer_analytic(target, CALIBRATION_PAYLOAD) == bisect_1100_times(
                target, CALIBRATION_PAYLOAD)
            assert len(calls) < 100, target


@pytest.mark.parametrize("call", [
    lambda: per(1, 2),                         # more packets received than sent
    lambda: retry_success_geometric(0, 0.1),   # no attempt at all
    lambda: invert_fer_analytic(0.0, 10),      # no BER gives a FER of 0
], ids=["per", "retry_success_geometric", "invert_fer_analytic"])
def test_arguments_outside_the_domain_raise(call):
    with pytest.raises(RangeError):
        call()
