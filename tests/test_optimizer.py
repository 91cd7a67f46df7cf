"""Barrier optimizer tests: formula evaluators, gradients, descent."""

import inspect
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wbansim import optimizer
from wbansim.analytics import ack_length_term, data_length, fer_analytic
from wbansim.errors import DomainError, RangeError
from wbansim.optimizer import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, INNER_CAP,
                               MAX_START, MIN_START,
                               barrier_gradient, barrier_objective,
                               epsilon_schedule, epsilon_schedule_exact,
                               grid_search_fer, optimize_payload,
                               penalized_fer, penalized_fer_gradient)


# ------------------------------------------------------- formula evaluators

def test_objective_collapses_at_zero_ber():
    for x, eps in ((1.0, 0.5), (10.0, 2.0), (30.0, 1.0)):
        assert barrier_objective(x, 0.0, eps) == pytest.approx(1.0 + eps / x)


def test_objective_diverges_at_boundary():
    assert barrier_objective(1e-12, 1e-3, 1.0) > 1e9


def test_objective_reference_value():
    # 50-digit evaluation: 0.90559013741503815128...
    assert barrier_objective(10, 1e-3, 1.0) == pytest.approx(
        0.9055901374150382, rel=1e-12)


def test_objective_rejects_bad_domain():
    with pytest.raises(DomainError):
        barrier_objective(0.0, 1e-3, 1.0)
    with pytest.raises(DomainError):
        barrier_objective(-1.0, 1e-3, 1.0)


@pytest.mark.parametrize("function", [barrier_objective, barrier_gradient, penalized_fer,
                                      penalized_fer_gradient], ids=lambda f: f.__name__)
def test_formulas_reject_a_nan_payload(function):
    with pytest.raises(DomainError, match="payload=nan"):
        function(math.nan, 1e-3, 1.0)


@pytest.mark.parametrize("schedule", [epsilon_schedule, epsilon_schedule_exact],
                         ids=lambda f: f.__name__)
def test_schedules_reject_a_nan_payload(schedule):
    with pytest.raises(DomainError, match="payload=nan"):
        schedule(math.nan, 1e-3)


def test_gradient_zero_ber_is_pure_barrier():
    for x, eps in ((2.0, 1.0), (7.0, 0.25)):
        assert barrier_gradient(x, 0.0, eps) == pytest.approx(-eps / x ** 2)


def test_gradient_negative_at_small_payload():
    assert barrier_gradient(0.5, 1e-3, 1.0) < 0
    assert penalized_fer_gradient(0.5, 1e-3, 1.0) < 0


def test_gradient_reference_value():
    assert barrier_gradient(10, 1e-3, 1.0) == pytest.approx(
        -0.0020756781366998194, rel=1e-12)


def test_gradient_rejects_total_loss_rate():
    with pytest.raises(DomainError):
        barrier_gradient(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        penalized_fer_gradient(1.0, 1.0, 1.0)


def test_schedule_boundary_values():
    assert epsilon_schedule(10.0, 0.0) == 0.0
    assert epsilon_schedule(0.0, 1e-3) == 0.0


def test_schedule_positive_and_crosschecked():
    # -8 x^2 ln(1-p)(1-p)^x computed independently
    rng = random.Random(8)
    for _ in range(50):
        x = rng.uniform(0.1, 40.0)
        p = rng.uniform(1e-6, 0.2)
        expected = -8.0 * x * x * math.log(1 - p) * (1 - p) ** x
        got = epsilon_schedule(x, p)
        assert got > 0
        assert got == pytest.approx(expected, rel=1e-12)


def test_schedule_reference_value():
    assert epsilon_schedule(10, 1e-3) == pytest.approx(
        0.7924321863300181, rel=1e-12)


# ------------------------------------------------------------ gradient laws

def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_exact_gradient_matches_finite_differences():
    rng = random.Random(404)
    for _ in range(50):
        x = rng.uniform(0.5, 40.0)
        p = 10 ** rng.uniform(-5, -2)
        eps = 10 ** rng.uniform(-4, 0.5)
        h = 1e-5 * max(1.0, x)
        fd = central_difference(lambda v: penalized_fer(v, p, eps), x, h)
        grad = penalized_fer_gradient(x, p, eps)
        assert grad == pytest.approx(fd, rel=1e-6)


def test_printed_gradient_matches_its_own_potential():
    # the printed form is the exact derivative of -8(1-p)^x + eps/x
    rng = random.Random(405)
    for _ in range(50):
        x = rng.uniform(0.5, 40.0)
        p = 10 ** rng.uniform(-5, -2)
        eps = 10 ** rng.uniform(-4, 0.5)
        h = 1e-5 * max(1.0, x)
        potential = lambda v: -8.0 * (1 - p) ** v + eps / v
        fd = central_difference(potential, x, h)
        assert barrier_gradient(x, p, eps) == pytest.approx(fd, rel=1e-6)


# Each public formula equals its written-out form bit for bit.  Payloads
# start at MIN_START: below it payload**2 underflows and both sides divide
# by zero; past 1e100 it overflows.
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(MIN_START, 1e100),
       st.floats(0.0, 1e300))
def test_formulas_are_their_written_out_forms(p, x, e):
    exact = data_length(x) + ack_length_term(p)
    assert penalized_fer(x, p, e) == fer_analytic(x, p) + e / x
    assert penalized_fer_gradient(x, p, e) == (
        -8.0 * math.log(1.0 - p) * (1.0 - p) ** exact - e / x ** 2)
    assert barrier_gradient(x, p, e) == (
        -8.0 * math.log(1.0 - p) * (1.0 - p) ** x - e / x ** 2)
    assert barrier_objective(x, p, e) == (1.0 - p) ** exact + e / x
    assert epsilon_schedule_exact(x, p) == (
        -8.0 * x ** 2 * (math.log(1.0 - p) * (1.0 - p) ** exact))
    assert epsilon_schedule(x, p) == (
        -8.0 * x ** 2 * (math.log(1.0 - p) * (1.0 - p) ** x))


def test_printed_vs_exact_gradient_deviation_is_the_exponent():
    # the two forms differ exactly by the frame exponent substitution:
    # swap payload -> 8*(payload+8)+L_ack in the power and they coincide
    deviations = []
    for x in (1.0, 5.0, 10.0, 20.0, 30.0):
        for p in (1e-4, 1e-3, 1e-2):
            eps = 1.0
            printed = barrier_gradient(x, p, eps)
            exact = penalized_fer_gradient(x, p, eps)
            deviations.append(abs(printed - exact))
            rebuilt = (-8.0 * math.log(1 - p)
                       * (1 - p) ** (data_length(x) + ack_length_term(p))
                       - eps / x ** 2)
            assert rebuilt == pytest.approx(exact, rel=1e-12)
    assert max(deviations) > 0  # they are genuinely different formulas


# ---------------------------------------------------------------- descent

def test_optimum_beats_integer_grid():
    for p in (1e-4, 1e-3, 1e-2):
        result = optimize_payload(p)
        assert result.converged
        grid = [fer_analytic(payload, p) for payload in range(1, 31)]
        assert result.fer_opt <= min(grid)
        assert result.best_integer.fer <= min(grid)


def test_smaller_payload_means_smaller_fer_along_trace():
    result = optimize_payload(1e-3)
    payloads = [pt.payload for pt in result.trace]
    assert payloads[-1] < payloads[0]
    fers = [fer_analytic(pt.payload, 1e-3) for pt in result.trace]
    assert fers[-1] < fers[0]


# The descent's kernels skip the domain checks; this is what lets them.
@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(MIN_START, MAX_START), st.booleans(),
       st.sampled_from((1, 5, 50, DEFAULT_MAX_ITERATIONS)))
def test_iterates_stay_feasible(p, payload_0, verbatim, max_iterations):
    result = optimize_payload(p, payload_0=payload_0, max_iterations=max_iterations,
                              verbatim_gradient=verbatim)
    assert all(pt.payload > 0 for pt in result.trace)


def test_verbatim_mode_reaches_the_boundary_too():
    result = optimize_payload(1e-3, verbatim_gradient=True)
    assert result.converged
    assert result.payload_opt < 1.0
    assert result.best_integer.payload in (0, 1)


def test_tiny_rate_flat_landscape_terminates():
    result = optimize_payload(1e-15)
    assert result.converged
    assert result.payload_opt > 0


def test_iteration_cap_returns_best_iterate_with_diagnostic():
    result = optimize_payload(1e-3, max_iterations=1)
    assert not result.converged
    assert result.diagnostic is not None
    assert result.payload_opt > 0
    assert result.iterations == 1


def test_input_validation():
    with pytest.raises(RangeError):
        optimize_payload(0.0)
    with pytest.raises(RangeError):
        optimize_payload(1.0)
    # below MIN_START the barrier term divides by zero; above MAX_START no
    # frame carries the payload, yet the descent reported it "converged"
    for payload_0 in (0.0, 1e-200, math.nextafter(MIN_START, 0),
                      math.nextafter(MAX_START, math.inf), 1e6, 1e300):
        with pytest.raises(DomainError):
            optimize_payload(0.5, payload_0=payload_0)


def test_every_start_in_range_gives_a_result():
    for payload_0 in (MIN_START, 1e-100, 1e-30, 1e-6, 1.0, MAX_START):
        for p_ber in (1e-5, 1e-3, 0.1, 0.5, 0.9):
            for verbatim in (False, True):
                result = optimize_payload(p_ber, payload_0=payload_0,
                                          verbatim_gradient=verbatim)
                assert 0 < result.payload_opt <= MAX_START
                assert math.isfinite(result.fer_opt)


def test_trace_epsilon_shrinks():
    result = optimize_payload(1e-3)
    eps = [abs(pt.epsilon) for pt in result.trace[1:]]
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_grid_search_oracle():
    # analytic FER increases with payload, so the grid best is payload 1
    for p in (1e-4, 1e-3, 1e-2):
        assert grid_search_fer(p).payload == 1


def test_exact_schedule_matches_at_small_rates():
    # the two schedules agree in the small-rate limit (exponent irrelevant)
    x = 12.0
    a = epsilon_schedule(x, 1e-7)
    b = epsilon_schedule_exact(x, 1e-7)
    assert a == pytest.approx(b, rel=1e-4)


# A flat start: at p_ber 0.2 the analytic FER at payload 15 rounds to 1.0, so
# no candidate's objective is strictly lower and the descent never moves,
# though fer_analytic(0, 0.2) is below 1.
def test_a_flat_start_is_not_reported_as_converged():
    assert fer_analytic(15.0, 0.2) == 1.0 > fer_analytic(0, 0.2)
    result = optimize_payload(0.2)
    assert [pt.payload for pt in result.trace] == [15.0, 15.0]
    assert not result.converged
    assert "p_ber=0.2" in result.diagnostic and "payload_0=15.0" in result.diagnostic


# ------------------------------------------------- the descent's line search

def oracle_descend(kernel, x, eps, steps, max_iterations, exits):
    """`_descend` as it was before its loop wrote the kernel's formulas out,
    tallying in `exits` each way out of its loops."""
    objective = kernel.objective
    for _ in range(INNER_CAP):
        if steps >= max_iterations:
            exits["step cap"] += 1
            break
        g = kernel.gradient(x, eps)
        steps += 1
        if g == 0.0:
            exits["g == 0"] += 1
            break
        # first candidate moves a quarter of the way to the boundary at most
        alpha = 0.25 * x / abs(g)
        fx = objective(x, eps)
        for _ in range(60):
            candidate = x - alpha * g
            exits["candidate <= 0"] += not candidate > 0
            if candidate > 0 and objective(candidate, eps) < fx:
                break
            alpha *= 0.5
        else:
            exits["halvings run out"] += 1
            break
        stalled = abs(candidate - x) < 1e-12 * max(1.0, x)
        x = candidate
        if stalled:
            exits["stall"] += 1
            break
    return x, steps


# 50 log-spaced rates over 1e-6..0.1, and two where the exact gradient at
# payload 255 is subnormal (a first step of inf, every candidate -inf) or 0
GRID_BERS = [10 ** (-6 + 5 * k / 49) for k in range(50)] + [0.28, 0.3]
GRID = [(p_ber, start, max_iterations, verbatim)
        for p_ber in GRID_BERS for start in (MIN_START, 1.0, 15.0, 255.0)
        for max_iterations in (1, 40, DEFAULT_MAX_ITERATIONS) for verbatim in (False, True)]


def solve(p_ber, start, max_iterations, verbatim):
    return optimize_payload(p_ber, payload_0=start, max_iterations=max_iterations,
                            verbatim_gradient=verbatim)


@pytest.fixture(scope="module")
def oracle_grid():
    exits = Counter()

    def descend(kernel, x, eps, steps, max_iterations):
        x, steps = oracle_descend(kernel, x, eps, steps, max_iterations, exits)
        return x, kernel.objective(x, eps), steps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_descend", descend)
        results = {case: solve(*case) for case in GRID}
    return results, exits


def test_the_descent_matches_the_oracle_on_a_grid(oracle_grid):
    results, _ = oracle_grid
    for case in GRID:
        result, expected = solve(*case), results[case]
        # repr compares every float bit for bit, nan and -0.0 included
        assert repr(result) == repr(expected), case
        # converged follows the tolerance unless the start is flat; a start
        # at MIN_START never moves, and stays converged below FER 1
        trace = result.trace
        flat = result.payload_opt == case[1] and result.fer_opt == 1.0
        assert result.converged == (not flat and len(trace) > 1 and abs(
            trace[-1].payload - trace[-2].payload) < DEFAULT_TOLERANCE), case


def test_the_grid_reaches_every_way_out_of_the_descent(oracle_grid):
    _, exits = oracle_grid
    for way_out in ("step cap", "g == 0", "halvings run out", "stall", "candidate <= 0"):
        assert exits[way_out] > 0, way_out


def test_the_line_search_writes_out_the_kernels_formulas():
    # a tracer reads each gradient and each candidate's objective that the
    # line search computes, and each must equal the kernel's own bit for bit
    code = optimizer._descend.__code__
    source, first = inspect.getsourcelines(optimizer._descend)
    line = {text.strip(): first + i for i, text in enumerate(source)}
    after_g, after_fc = line["steps += 1"], line["if fc < fx:"]
    seen = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in (after_g, after_fc):
            v = frame.f_locals
            seen.append((v["kernel"].gradient, v["x"], v["eps"], v["g"])
                        if frame.f_lineno == after_g else
                        (v["kernel"].objective, v["candidate"], v["eps"], v["fc"]))
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        for p_ber in GRID_BERS[::4] + [0.28, 0.3]:
            for start in (MIN_START, 1.0, 15.0, 255.0):
                for verbatim in (False, True):
                    solve(p_ber, start, 40, verbatim)
    finally:
        sys.settrace(before)
    formulas = Counter(f.__name__ for f, *_ in seen)
    assert formulas["gradient"] > 1000 and formulas["objective"] > 1000
    for formula, x, eps, value in seen:
        assert value.hex() == formula(x, eps).hex(), (formula, x, eps)


def test_the_line_search_makes_no_python_call_per_candidate():
    code = optimizer._descend.__code__
    calls, candidates = [], 0

    def profile(frame, event, arg):
        nonlocal candidates
        if event == "call" and frame.f_back is not None and frame.f_back.f_code is code:
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and frame.f_code is code and arg is math.expm1:
            candidates += 1

    def profiled(p_ber):
        nonlocal candidates
        calls.clear()
        candidates = 0
        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            return optimize_payload(p_ber)
        finally:
            sys.setprofile(before)

    # one Python call per inner solve: the objective at its start point
    result = profiled(1e-3)
    assert result.iterations > 100 and calls == ["objective"] * (len(result.trace) - 1)
    # the flat start's one step tries all 60 halvings, one expm1 each
    profiled(0.2)
    assert calls == ["objective"] and candidates == 60
