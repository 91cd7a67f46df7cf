"""Interior-point (log-free barrier) search for the payload length that
minimizes the analytic exchange failure rate, subject to payload >= 0.

The error rate is strictly increasing in payload, so the constrained
minimum sits on the boundary; the barrier weight is therefore driven to
zero on a geometric schedule and the iterates approach zero payload from
inside the feasible region.  The report includes the neighbouring integer
payloads and their analytic error rates, which is what a frame designer
actually picks from.

Two gradient forms are provided:

- `penalized_fer_gradient`: the exact derivative of
  ``penalized_fer(x) = FER(x) + eps/x`` with the full frame exponent
  8*(payload+8) + L_ack.  This is the default ("true") gradient.
- `barrier_gradient`: the printed shorthand, identical except that the
  exponent of (1-p) is the bare payload.  Available through
  ``verbatim_gradient=True`` and evaluated exactly as written.

`barrier_objective` keeps the printed success-plus-barrier form
``(1-p)^(L_data+L_ack) + eps/payload`` for reference and testing; the
descent itself uses the error-rate orientation above, which is the form
whose interior minimum exists.

Each `optimize_payload` call binds its p_ber constants (L_ack, ln(1-p),
log1p(-p)) once into an `_Exact` or `_Verbatim` kernel; the public formula
functions are checked wrappers over its unchecked methods.  `_descend`
writes the gradient and the objective out again over local copies of the
constants, in the same float operations, so that its loop makes no Python
call; the tests hold the two forms equal bit for bit.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from .analytics import _OVERHEAD, _any_flip, ack_length_term, fer_analytic
from .errors import DomainError, RangeError
from .frames import MAX_PAYLOAD

DEFAULT_START = 15.0
DEFAULT_TOLERANCE = 1e-6
DEFAULT_MAX_ITERATIONS = 10_000
SHRINK = 0.5            # barrier weight factor per outer iteration
INNER_CAP = 200         # descent steps per inner solve
HALVINGS = 60           # backtracking halvings per descent step
# Starting payloads: no frame carries more than MAX_PAYLOAD bytes, and below
# MIN_START the square in the barrier term epsilon/payload^2 is subnormal,
# where it loses its digits and soon divides by zero.
MIN_START = math.sqrt(sys.float_info.min)
MAX_START = float(MAX_PAYLOAD)


def _check_domain(payload: float, p_ber: float, allow_zero: bool = False) -> None:
    if not (payload > 0 or allow_zero and payload == 0):
        raise DomainError(f"payload={payload} outside the barrier domain")
    if not 0.0 <= p_ber < 1.0:
        raise DomainError(f"p_ber={p_ber} must lie in [0,1)")


def barrier_objective(payload: float, p_ber: float, epsilon: float) -> float:
    """Printed barrier form: (1-p)^(L_data+L_ack) + epsilon/payload."""
    _check_domain(payload, p_ber)
    kernel = _Exact(p_ber)
    return kernel.clean ** kernel.exponent(payload) + epsilon / payload


def barrier_gradient(payload: float, p_ber: float, epsilon: float) -> float:
    """Printed gradient form: -8 ln(1-p)(1-p)^payload - epsilon/payload^2."""
    _check_domain(payload, p_ber)
    return _Verbatim(p_ber).gradient(payload, epsilon)


def epsilon_schedule(payload: float, p_ber: float) -> float:
    """Barrier weight -8 payload^2 [ln(1-p)(1-p)^payload]."""
    _check_domain(payload, p_ber, allow_zero=True)
    return _Verbatim(p_ber).schedule(payload)


def epsilon_schedule_exact(payload: float, p_ber: float) -> float:
    """Full-exponent variant of `epsilon_schedule`.

    Uses the frame exponent 8*(payload+8) + L_ack, so the starting point is
    stationary for the exact gradient.  Seeding the exact-gradient descent
    with the bare-payload schedule can overshoot the balance curve's peak at
    larger error rates, leaving the inner problem with no stationary point.
    """
    _check_domain(payload, p_ber, allow_zero=True)
    return _Exact(p_ber).schedule(payload)


def penalized_fer(payload: float, p_ber: float, epsilon: float) -> float:
    """Error-rate orientation of the barrier objective: FER + epsilon/payload."""
    _check_domain(payload, p_ber)
    return _Exact(p_ber).objective(payload, epsilon)


def penalized_fer_gradient(payload: float, p_ber: float, epsilon: float) -> float:
    """Exact derivative of `penalized_fer` in payload.

    Same shape as `barrier_gradient`; the (1-p) power carries the full
    frame exponent instead of the bare payload.
    """
    _check_domain(payload, p_ber)
    return _Exact(p_ber).gradient(payload, epsilon)


class _Verbatim:
    """The printed gradient, its schedule and its potential at one p_ber.
    Unchecked: the caller keeps 0 <= p_ber < 1 and x > 0 (>= 0 to schedule)."""

    def __init__(self, p_ber: float):
        self.clean = 1.0 - p_ber
        self.log_clean = math.log(self.clean)

    def exponent(self, x: float) -> float:
        """The power of (1-p) in the gradient and the schedule."""
        return x

    def objective(self, x: float, eps: float) -> float:
        """Antiderivative of the printed gradient, used for its line search."""
        return -8.0 * self.clean ** x + eps / x

    def gradient(self, x: float, eps: float) -> float:
        return -8.0 * self.log_clean * self.clean ** self.exponent(x) - eps / x ** 2

    def schedule(self, x: float) -> float:
        return -8.0 * x ** 2 * (self.log_clean * self.clean ** self.exponent(x))


class _Exact(_Verbatim):
    """`penalized_fer`, its exact gradient and its schedule at one p_ber:
    the power of (1-p) is the full frame exponent L_data + L_ack."""

    def __init__(self, p_ber: float):
        super().__init__(p_ber)
        self.l_ack = ack_length_term(p_ber)
        self.log1p_clean = math.log1p(-p_ber)

    def exponent(self, x: float) -> float:
        """`data_length(x) + ack_length_term(p_ber)`, unchecked."""
        return 8.0 * (x + _OVERHEAD) + self.l_ack

    def objective(self, x: float, eps: float) -> float:
        return _any_flip(self.exponent(x), self.log1p_clean) + eps / x


@dataclass
class TracePoint:
    iteration: int
    payload: float
    epsilon: float
    objective: float


@dataclass
class IntegerCandidate:
    payload: int
    fer: float


@dataclass
class OptimizeResult:
    payload_opt: float
    fer_opt: float
    converged: bool
    iterations: int
    trace: list[TracePoint] = field(default_factory=list)
    candidates: list[IntegerCandidate] = field(default_factory=list)
    diagnostic: Optional[str] = None

    @property
    def best_integer(self) -> IntegerCandidate:
        return min(self.candidates, key=lambda c: c.fer)


def optimize_payload(p_ber: float, payload_0: float = DEFAULT_START,
                     tolerance: float = DEFAULT_TOLERANCE,
                     max_iterations: int = DEFAULT_MAX_ITERATIONS,
                     verbatim_gradient: bool = False) -> OptimizeResult:
    """Minimize the analytic FER over payload >= 0 by barrier descent.

    The weight starts at the scheduled value for the starting point and is
    multiplied by `SHRINK` before each inner solve; iteration stops when
    successive outer iterates move less than `tolerance`.  Exceeding
    `max_iterations` total descent steps returns the best iterate with a
    diagnostic instead of raising.  So does a flat start: one whose FER
    rounds to 1, which the descent never leaves.
    """
    if not 0.0 < p_ber < 1.0:
        raise RangeError(f"p_ber={p_ber} must lie strictly inside (0,1)")
    if not MIN_START <= payload_0 <= MAX_START:
        raise DomainError(f"payload_0={payload_0} outside [{MIN_START:.3g}, {MAX_START:g}]")

    kernel = _Verbatim(p_ber) if verbatim_gradient else _Exact(p_ber)
    x = float(payload_0)
    eps = kernel.schedule(x)
    trace = [TracePoint(0, x, eps, kernel.objective(x, eps))]
    steps = 0
    converged = False
    outer = 0

    while steps < max_iterations:
        outer += 1
        eps *= SHRINK
        x_new, fx, steps = _descend(kernel, x, eps, steps, max_iterations)
        trace.append(TracePoint(outer, x_new, eps, fx))
        converged = abs(x_new - x) < tolerance
        x = x_new
        if converged:
            break

    fer_opt = fer_analytic(x, p_ber)
    diagnostic = None if converged else \
        f"stopped after {steps} descent steps without meeting tolerance={tolerance}"
    if x == payload_0 and fer_opt == 1.0:
        # no candidate's objective is below one that rounds to 1, so the
        # descent never moved: its stop is no sign of a minimum
        converged = False
        diagnostic = (f"the analytic FER at payload_0={payload_0} rounds to 1 at "
                      f"p_ber={p_ber}, and the descent never left it")
    return OptimizeResult(payload_opt=x, fer_opt=fer_opt, converged=converged,
                          iterations=steps, trace=trace,
                          candidates=_integer_candidates(x, p_ber), diagnostic=diagnostic)


def _descend(kernel, x: float, eps: float, steps: int,
             max_iterations: int) -> tuple[float, float, int]:
    """Backtracking gradient descent to the inner minimum for fixed eps.
    x only moves to a candidate > 0, keeping the kernel in its domain.
    An accepted candidate's objective is the next step's `fx`."""
    exact = isinstance(kernel, _Exact)
    clean, log_clean, expm1, overhead = kernel.clean, kernel.log_clean, math.expm1, _OVERHEAD
    # the verbatim kernel's formulas read neither of these
    l_ack, log1p_clean = (kernel.l_ack, kernel.log1p_clean) if exact else (0.0, 0.0)
    fx = kernel.objective(x, eps)
    for _ in range(INNER_CAP):
        if steps >= max_iterations:
            break
        g = (-8.0 * log_clean * clean ** (8.0 * (x + overhead) + l_ack if exact else x)
             - eps / x ** 2)
        steps += 1
        if g == 0.0:
            break
        # first candidate moves a quarter of the way to the boundary at most
        alpha = 0.25 * x / abs(g)
        for _ in range(HALVINGS):
            candidate = x - alpha * g
            if candidate > 0:
                fc = (-expm1((8.0 * (candidate + overhead) + l_ack) * log1p_clean) if exact
                      else -8.0 * clean ** candidate) + eps / candidate
                if fc < fx:
                    break
            alpha *= 0.5
        else:
            break
        stalled = abs(candidate - x) < 1e-12 * max(1.0, x)
        x, fx = candidate, fc
        if stalled:
            break
    return x, fx, steps


def _integer_candidates(x: float, p_ber: float) -> list[IntegerCandidate]:
    lo = max(0, math.floor(x))
    hi = math.ceil(x)
    payloads = sorted({lo, hi})
    return [IntegerCandidate(p, fer_analytic(p, p_ber)) for p in payloads]


def grid_search_fer(p_ber: float) -> IntegerCandidate:
    """Exhaustive oracle: the payload in 1..30 with the lowest analytic FER."""
    best = min(range(1, 31), key=lambda p: fer_analytic(p, p_ber))
    return IntegerCandidate(best, fer_analytic(best, p_ber))
