"""Closed-form performance guarantees for the elimination scheme.

All logarithms are natural.  Throughout, ``n_inactive`` is the number N of
inactive nodes, ``k`` the number of active ones, and the per-slot choice
probability is held at its optimum ``1/(k+1)`` inside the slot-budget
formulas.

The chain behind the budgets: one slot removes an expected fraction
``p(1-p)**k`` of the surviving inactive nodes, so after ``i`` slots the
expected surplus is ``N(1 - p(1-p)**k)**i``.  At ``p = 1/(k+1)`` the decay
constant ``-1/ln(1 - p(1-p)**k)`` is below ``e(k+1)``, and a Markov argument
turns the expected surplus into a tail bound, giving budgets proportional to
``e(k+1)`` times a logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ranges import check, check_levels

__all__ = [
    "GAUSSIAN_TAIL_CONSTANT",
    "ChannelUsePlan",
    "expected_remaining",
    "slots_for_surplus_bound",
    "slots_for_exact_recovery",
    "theoretical_error_curve",
    "exact_error_curve",
    "exact_end_to_end_failure",
    "repetition_length",
    "channel_uses_closed_form",
    "plan_channel_uses",
]

# Tail constant c for which the averaged-noise excursion probability of the
# repetition code is at most exp(1 - c*m*P/K**2).  The value 1/8 is safe for
# gaussian noise declared with K = sigma: the exact excursion probability is
# 2Q(sqrt(P*m)/(2*sigma)) <= 2*exp(-P*m/(8*sigma**2)) < e*exp(-P*m/(8*sigma**2)).
GAUSSIAN_TAIL_CONSTANT = 0.125


def expected_remaining(n_inactive: int, k: int, p: float, levels) -> np.ndarray:
    """Expected surplus ``N * (1 - p*(1-p)**k)**l`` after l slots, each l in ``levels``."""
    check("n_inactive", n_inactive)
    check("k", k)
    check("p", p)
    return n_inactive * (1.0 - p * (1.0 - p) ** k) ** check_levels(levels)


def slots_for_surplus_bound(n_inactive: int, k: int, eps: float,
                            surplus_factor: float) -> int:
    """Slot budget after which P(surplus >= surplus_factor * k) <= eps.

    Evaluates ``ceil(e*(k+1) * ln(N / (k * eps * C)))`` with C the surplus
    factor.  When the logarithm's argument is at most 1 (including N = 0,
    nothing to eliminate) the guarantee already holds with zero slots, and 0
    is returned.
    """
    check("n_inactive", n_inactive)
    check("k", k)
    check("eps", eps)
    check("surplus_factor", surplus_factor)
    argument = n_inactive / (k * eps * surplus_factor)
    if argument <= 1.0:
        return 0
    return math.ceil(math.e * (k + 1) * math.log(argument))


def slots_for_exact_recovery(n_inactive: int, k: int, eps: float) -> int:
    """Slot budget after which the potential set equals the active set w.p. >= 1 - eps.

    This is the surplus bound pushed below one node (surplus factor 1/k):
    ``ceil(e*(k+1) * ln(N/eps))``.  Returns 0 when N = 0.
    """
    check("n_inactive", n_inactive)
    check("k", k)
    check("eps", eps)
    argument = n_inactive / eps
    if argument <= 1.0:
        return 0
    return math.ceil(math.e * (k + 1) * math.log(argument))


def theoretical_error_curve(n_inactive: int, k: int, levels) -> np.ndarray:
    """Upper bound on P(surplus > 0 after l slots), for each l in ``levels``.

    The bound is ``min(1, N*exp(-l/(e(k+1))))``: the expected surplus
    relaxed through ``1 - x <= exp(-x)`` and the decay-constant bound, then
    capped at 1.  It is the reference curve the Monte Carlo error frequencies
    are compared against.
    """
    check("n_inactive", n_inactive)
    check("k", k)
    levels = check_levels(levels)
    return np.minimum(1.0, n_inactive * np.exp(-levels / (math.e * (k + 1))))


def _log_factorials(top: int) -> np.ndarray:
    """``ln(x!)`` for x = 0..top."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, top + 1)))))


def _binomial_pmf(trials: int, prob: float, log_fact: np.ndarray) -> np.ndarray:
    """Bin(x; trials, prob) for x = 0..trials, from a log-factorial table."""
    x = np.arange(trials + 1)
    # at prob 0 or 1, log 0 = -inf and 0 * -inf = nan arise where np.where masks them
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (log_fact[trials] - log_fact[x] - log_fact[trials - x]
                   + np.where(x > 0, x * np.log(prob), 0.0)
                   + np.where(x < trials, (trials - x) * np.log1p(-prob), 0.0))
    return np.exp(log_pmf)


def _some_left(n_inactive: int, p: float, top: int) -> np.ndarray:
    """P(some of N inactive nodes survives u useful slots) = 1 - (1 - (1-p)**u)**N, u = 0..top."""
    with np.errstate(divide="ignore"):
        return -np.expm1(n_inactive * np.log1p(-np.power(1.0 - p, np.arange(top + 1))))


def exact_error_curve(n_inactive: int, k: int, p: float,
                      levels) -> np.ndarray:
    """Exact P(surplus > 0 after l slots) under the ideal oracle, for each l in ``levels``.

    With r = (1-p)**k the number of useful slots among l is U ~ Bin(l, r), and
    each inactive node survives u useful slots w.p. (1-p)**u independently, so
    ``P(T > l) = 1 - E[(1 - (1-p)**U)**N] = E[1 - (1 - (1-p)**U)**N]``; the
    second form is a sum of nonnegative terms and keeps small tail values
    accurate.  Each level costs O(l); the binomial weights come from a
    log-factorial table.
    """
    check("n_inactive", n_inactive)
    check("k", k)
    check("p", p)
    levels = check_levels(levels)
    if n_inactive == 0:
        return np.zeros(len(levels))
    top = int(levels.max(initial=0))
    log_fact = _log_factorials(top)
    some_left = _some_left(n_inactive, p, top)
    r = (1.0 - p) ** k
    return np.array([_binomial_pmf(level, r, log_fact) @ some_left[:level + 1]
                     for level in levels])


def exact_end_to_end_failure(n_inactive: int, k: int, p: float, slots: int,
                             repetitions: int, sigma: float, power: float) -> float:
    """Exact failure probability of the noisy scheme under gaussian(sigma) noise.

    The slot average's noise is N(0, sigma**2/m), so a slot with no active
    node chosen (probability r = (1-p)**k) decodes true w.p.
    ``fp = Q(sqrt(m*P)/(2*sigma))``, and one with j active nodes chosen
    decodes false w.p. ``fn_j = Phi(sqrt(m)*(sqrt(P)/2 - j*sqrt(P))/sigma)``,
    which evicts an active node.  Per slot, a = r*(1 - fp) is a useful slot
    decoded false, d = sum_j Bin(j; k, p)*fn_j an eviction and b = 1 - a - d
    neither.  Inactive nodes never change a decode, so given F useful false
    slots each survives w.p. (1-p)**F independently, and
    ``P(success) = sum_F C(l, F) a**F b**(l-F) (1 - (1-p)**F)**N``.  The
    failure is returned as ``1 - (1-d)**l`` plus a sum of nonnegative terms,
    which keeps small values accurate; it costs O(l + k).
    """
    check("n_inactive", n_inactive)
    check("k", k)
    check("p", p)
    check("slots", slots)
    check("repetitions", repetitions)
    check("sigma", sigma)
    check("power", power)
    root_m = math.sqrt(repetitions)
    root_power = math.sqrt(power)
    false_positive = 0.5 * math.erfc(root_m * root_power / (2.0 * sigma) / math.sqrt(2.0))
    useful = (1.0 - p) ** k * (1.0 - false_positive)
    j = np.arange(1, k + 1)
    false_negative = 0.5 * np.array([math.erfc(-x / math.sqrt(2.0)) for x in
                                     root_m * (root_power / 2.0 - j * root_power) / sigma])
    evict = float(_binomial_pmf(k, p, _log_factorials(k))[1:] @ false_negative)
    evicted = -math.expm1(slots * math.log1p(-evict))  # 1 - (1-d)**l
    if n_inactive == 0:
        return evicted
    # given no eviction, F ~ Bin(l, a/(1-d))
    weights = _binomial_pmf(slots, useful / (1.0 - evict), _log_factorials(slots))
    left = float(weights @ _some_left(n_inactive, p, slots))
    return min(1.0, evicted + (1.0 - evicted) * left)  # the weights sum to 1 +- ulp


def repetition_length(norm_bound: float, power: float, slot_error: float,
                      tail_constant: float) -> int:
    """Repetitions per slot so a sub-gaussian-noise slot errs w.p. <= ``slot_error``.

    Evaluates ``ceil((K**2 / P) * (ln(1/delta) + 1) / c)`` where K bounds the
    sub-gaussian norm of each noise step, P is the input power budget and c is
    the family's tail constant (see :data:`GAUSSIAN_TAIL_CONSTANT`).  A target
    ``slot_error >= 1`` makes the bound degenerate and is rejected.  A slot
    takes at least one repetition, also where ``K**2/P`` underflows to 0.
    """
    check("norm_bound", norm_bound)
    check("power", power)
    check("slot_error", slot_error)
    check("tail_constant", tail_constant)
    count = (norm_bound**2 / power) * (math.log(1.0 / slot_error) + 1.0) / tail_constant
    return max(1, math.ceil(count))


@dataclass(frozen=True)
class ChannelUsePlan:
    """Joint budget: slots, per-slot error target, repetitions, total steps.

    ``total`` is the exact integer product ``slots * repetitions`` actually
    spent.  ``closed_form`` is the analytic reference obtained by substituting
    the real-valued slot budget into the product before any rounding; the
    integer ceilings can push ``total`` slightly above it.
    """

    slots: int
    slot_error_target: float
    repetitions: int
    total: int
    closed_form: float


def channel_uses_closed_form(n_inactive: int, k: int, eps: float,
                             norm_bound: float, power: float,
                             tail_constant: float) -> float:
    """Real-valued channel-use budget in fully expanded form.

    ``(K**2/P) * (1/c) * e*(k+1)*ln(N/eps) * (2 + ln(k+1) + ln ln(N/eps) + ln(1/eps))``
    -- algebraically identical to (real-valued slots) * (real-valued
    repetitions at per-slot error eps/slots).  Returns 0.0 when no slots are
    needed at all (``N <= eps``).
    """
    check("n_inactive", n_inactive)
    check("k", k)
    check("eps", eps)
    check("norm_bound", norm_bound)
    check("power", power)
    check("tail_constant", tail_constant)
    if n_inactive == 0:
        return 0.0
    log_ratio = math.log(n_inactive / eps)
    if log_ratio <= 0.0:
        return 0.0
    slots_real = math.e * (k + 1) * log_ratio
    bracket = 2.0 + math.log(k + 1) + math.log(log_ratio) + math.log(1.0 / eps)
    return (norm_bound**2 / power) / tail_constant * slots_real * bracket


def plan_channel_uses(n_inactive: int, k: int, eps: float, norm_bound: float,
                      power: float, tail_constant: float) -> ChannelUsePlan:
    """Derive the end-to-end budget for overall error at most ``2*eps``.

    The slot budget covers the elimination failure w.p. <= eps; splitting a
    further eps uniformly over the slots (per-slot target ``eps/slots``) and
    a union bound cover the decoding failures, for ``2*eps`` overall.  Every
    parameter is checked, also when no slot is needed (N = 0).
    """
    closed_form = channel_uses_closed_form(n_inactive, k, eps, norm_bound,
                                           power, tail_constant)
    slots = slots_for_exact_recovery(n_inactive, k, eps)
    if slots == 0:
        return ChannelUsePlan(slots=0, slot_error_target=0.0, repetitions=0,
                              total=0, closed_form=closed_form)
    slot_error = eps / slots
    repetitions = repetition_length(norm_bound, power, slot_error, tail_constant)
    return ChannelUsePlan(
        slots=slots,
        slot_error_target=slot_error,
        repetitions=repetitions,
        total=slots * repetitions,
        closed_form=closed_form,
    )
