"""Every closed-form law of the scheme and of the noisy channel, each written once.

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

The scheme's laws are the slot budgets, the expected surplus, its bound and
the exact ideal-oracle error curve; the channel's are the tail bound
:func:`slot_error_bound` on a slot's error and its inverse
:func:`repetition_length`, the exact gaussian excursion
:func:`gaussian_slot_error_exact` and :func:`exact_end_to_end_failure`.  Both
exact failures sum the survivors law ``1 - (1 - (1-p)**F)**N`` over a
binomial F, and the harness reads it for each end-to-end trial.  The scalar
laws are pure ``math`` and never load numpy, so ``gtmac bounds`` starts
without it; a law that builds arrays imports numpy when it runs.  A planner
takes the log of a ratio such as ``N/eps``; where that ratio overflows a
double, its log is taken as a difference of logs instead, so a tiny valid
``eps`` or ``delta`` still gives a finite budget.  Every law computes with the
Python int or float that its range check returns, so a numpy scalar argument
takes the same route as the Python one.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._ranges import check, check_levels

TYPE_CHECKING = False  # importing typing would cost start-up
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TAIL_CONSTANT",
    "ChannelUsePlan",
    "expected_remaining",
    "slots_for_surplus_bound",
    "slots_for_exact_recovery",
    "theoretical_error_curve",
    "exact_error_curve",
    "exact_end_to_end_failure",
    "gaussian_slot_error_exact",
    "slot_error_bound",
    "repetition_length",
    "plan_channel_uses",
]

# Tail constant c for which the averaged-noise excursion probability of the
# repetition code is at most exp(1 - c*m*P/K**2).  The value 1/8 is safe for
# any noise whose steps have variance proxy K (E exp(tZ) <= exp(t**2 K**2/2)):
# the excursion probability is at most 2*exp(-P*m/(8*K**2)) < e*exp(-P*m/(8*K**2)).
TAIL_CONSTANT = 0.125


def _log_ratio(numerator: float, *factors: float) -> float:
    """``ln(numerator / (f1*f2*...))`` for positive factors; -inf at numerator 0.

    Where the quotient is a positive finite double this is its log, bit for
    bit as the formula reads.  Only where the quotient overflows or underflows
    (a denominator of 0 or infinity included) is it
    ``ln(numerator) - sum(ln(f))``, which is finite there: elsewhere the two
    forms can differ by an ulp, which would change a budget's last digit.
    """
    if not numerator:
        return -math.inf
    denominator = math.prod(factors)
    quotient = numerator / denominator if denominator else math.inf
    if 0.0 < quotient < math.inf:
        return math.log(quotient)
    return math.log(numerator) - math.fsum(map(math.log, factors))


def expected_remaining(n_inactive: int, k: int, p: float, levels) -> np.ndarray:
    """Expected surplus ``N * (1 - p*(1-p)**k)**l`` after l slots, each l in ``levels``."""
    n_inactive, k, p = check("n_inactive", n_inactive), check("k", k), check("p", p)
    return n_inactive * (1.0 - p * (1.0 - p) ** k) ** check_levels(levels)


def slots_for_surplus_bound(n_inactive: int, k: int, eps: float,
                            surplus_factor: float) -> int:
    """Slot budget after which P(surplus >= surplus_factor * k) <= eps.

    Evaluates ``ceil(e*(k+1) * ln(N / (k * eps * C)))`` with C the surplus
    factor.  When the logarithm's argument is at most 1 (including N = 0,
    nothing to eliminate) the guarantee already holds with zero slots, and 0
    is returned.
    """
    n_inactive, k, eps = check("n_inactive", n_inactive), check("k", k), check("eps", eps)
    surplus_factor = check("surplus_factor", surplus_factor)
    return _slot_budget(k, _log_ratio(n_inactive, k, eps, surplus_factor))


def slots_for_exact_recovery(n_inactive: int, k: int, eps: float) -> int:
    """Slot budget after which the potential set equals the active set w.p. >= 1 - eps.

    This is the surplus bound pushed below one node (surplus factor 1/k):
    ``ceil(e*(k+1) * ln(N/eps))``.  Returns 0 when N = 0.
    """
    n_inactive, k, eps = check("n_inactive", n_inactive), check("k", k), check("eps", eps)
    return _slot_budget(k, _log_ratio(n_inactive, eps))


def _slot_budget(k: int, log_argument: float) -> int:
    """``ceil(e*(k+1) * L)`` slots for L = ``log_argument``, 0 where L <= 0."""
    if log_argument <= 0.0:
        return 0
    return math.ceil(math.e * (k + 1) * log_argument)


def theoretical_error_curve(n_inactive: int, k: int, levels) -> np.ndarray:
    """Upper bound on P(surplus > 0 after l slots), for each l in ``levels``.

    The bound is ``min(1, N*exp(-l/(e(k+1))))``: the expected surplus
    relaxed through ``1 - x <= exp(-x)`` and the decay-constant bound, then
    capped at 1.  It is the reference curve the Monte Carlo error frequencies
    are compared against.
    """
    n_inactive, k = check("n_inactive", n_inactive), check("k", k)
    levels = check_levels(levels)
    import numpy as np

    return np.minimum(1.0, n_inactive * np.exp(-levels / (math.e * (k + 1))))


def _log_factorials(top: int) -> np.ndarray:
    """``ln(x!)`` for x = 0..top."""
    import numpy as np

    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, top + 1)))))


def _binomial_pmf(trials: int, prob: float, log_fact: np.ndarray) -> np.ndarray:
    """Bin(x; trials, prob) for x = 0..trials, from a log-factorial table."""
    import numpy as np

    x = np.arange(trials + 1)
    # at prob 0 or 1, log 0 = -inf and 0 * -inf = nan arise where np.where masks them
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (log_fact[trials] - log_fact[x] - log_fact[trials - x]
                   + np.where(x > 0, x * np.log(prob), 0.0)
                   + np.where(x < trials, (trials - x) * np.log1p(-prob), 0.0))
    return np.exp(log_pmf)


def _survivors(n_inactive: int, p: float, false_slots) -> np.ndarray:
    """The survivors law ``1 - (1 - (1-p)**F)**N``, per F in ``false_slots``: P(some of
    N inactive nodes outlasts F slots decoded false), each w.p. (1-p)**F.  With
    no inactive node it is 0 at every F, where ``0 * log(0)`` would be nan."""
    import numpy as np

    if n_inactive == 0:
        return np.zeros(np.shape(false_slots))
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at F = 0
        return -np.expm1(n_inactive * np.log1p(-(1.0 - p) ** false_slots))


def _elimination(n_inactive: int, p: float, q: float, levels) -> np.ndarray:
    """``sum_F Bin(F; l, q) * survivors(F)`` for each l in ``levels``: P(some
    inactive node survives l slots, each decoded false w.p. q independently)."""
    import numpy as np

    top = int(max(levels, default=0))
    log_fact, left = _log_factorials(top), _survivors(n_inactive, p, np.arange(top + 1))
    return np.array([_binomial_pmf(level, q, log_fact) @ left[:level + 1] for level in levels])


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
    n_inactive, k, p = check("n_inactive", n_inactive), check("k", k), check("p", p)
    return _elimination(n_inactive, p, (1.0 - p) ** k, check_levels(levels))


def exact_end_to_end_failure(n_inactive: int, k: int, p: float, slots: int,
                             repetitions: int, sigma: float, power: float) -> float:
    """Exact failure probability of the noisy scheme under gaussian(sigma) noise.

    Under N(0, sigma**2/m) averaged noise a slot with no active node chosen
    (probability r = (1-p)**k) decodes true w.p. ``fp = Q(sqrt(m*P)/(2*sigma))``,
    and one with j chosen decodes false, which evicts an active node, w.p.
    ``fn_j = Q((2j - 1)*sqrt(m*P)/(2*sigma))`` (both :func:`_gaussian_miss`).
    Per slot, a = r*(1 - fp) is a useful slot decoded false, d = sum_j Bin(j;
    k, p)*fn_j an eviction and b = 1 - a - d neither.  Inactive nodes never
    change a decode, so given F useful false slots each survives w.p.
    (1-p)**F independently, and
    ``P(success) = sum_F C(l, F) a**F b**(l-F) (1 - (1-p)**F)**N``.  The
    failure is returned as ``1 - (1-d)**l`` plus a sum of nonnegative terms,
    which keeps small values accurate; it costs O(l + k).
    """
    n_inactive, k, p = check("n_inactive", n_inactive), check("k", k), check("p", p)
    slots, repetitions = check("slots", slots), check("repetitions", repetitions)
    sigma, power = check("sigma", sigma), check("power", power)
    errors = [0.5 * _gaussian_miss(sigma, power, repetitions, j) for j in range(k + 1)]
    useful = (1.0 - p) ** k * (1.0 - errors[0])
    evict = float(_binomial_pmf(k, p, _log_factorials(k))[1:] @ errors[1:])
    evicted = -math.expm1(slots * math.log1p(-evict))  # 1 - (1-d)**l
    # given no eviction, F ~ Bin(l, a/(1-d))
    left = float(_elimination(n_inactive, p, useful / (1.0 - evict), [slots])[0])
    return min(1.0, evicted + (1.0 - evicted) * left)  # the weights sum to 1 +- ulp


def gaussian_slot_error_exact(sigma: float, power: float, repetitions: int) -> float:
    """Exact P(|averaged gaussian noise| >= sqrt(P)/2) = 2*Q(sqrt(P*m)/(2*sigma)).

    The averaged noise of m i.i.d. N(0, sigma^2) steps is N(0, sigma^2/m).
    This bounds the decoder's error on any message pattern (for all-false
    slots the error is one-sided, half this value).
    """
    sigma, power = check("sigma", sigma), check("power", power)
    repetitions = check("repetitions", repetitions)
    return _gaussian_miss(sigma, power, repetitions, 0)


def _gaussian_miss(sigma: float, power: float, repetitions: int, senders: int) -> float:
    """``erfc(|2c-1| * sqrt(m*P)/(2*sigma) / sqrt(2))``, c = ``senders``: twice the decode
    error of c senders, and at c = 0 the excursion (not 2Q, which rounds twice)."""
    x = math.sqrt(power * repetitions) / (2.0 * sigma)
    return math.erfc(abs(2 * senders - 1) * x / math.sqrt(2.0))


def slot_error_bound(variance_proxy: float, power: float, repetitions: int,
                     tail_constant: float) -> float:
    """``exp(1 - c*m*P/K**2)``: the slot error bound that :func:`repetition_length` inverts.

    Where c*m*P or K**2 is 0 or inf as a double, their quotient comes from logs.
    """
    variance_proxy, power = check("variance_proxy", variance_proxy), check("power", power)
    repetitions = check("repetitions", repetitions)
    tail_constant = check("tail_constant", tail_constant)
    product, square = tail_constant * repetitions * power, variance_proxy * variance_proxy
    if 0.0 < product < math.inf and 0.0 < square < math.inf:
        exponent = product / square
    else:  # exp(709) is near the largest double; past ~745 the bound is 0 anyway
        exponent = math.exp(min(709.0, math.log(tail_constant) + math.log(repetitions)
                                + math.log(power) - 2.0 * math.log(variance_proxy)))
    return math.exp(1.0 - exponent)


def repetition_length(variance_proxy: float, power: float, slot_error: float,
                      tail_constant: float) -> int:
    """Repetitions per slot so a sub-gaussian-noise slot errs w.p. <= ``slot_error``.

    Evaluates ``ceil((K**2 / P) * (ln(1/delta) + 1) / c)`` where K is a
    variance proxy of each noise step (``E exp(tZ) <= exp(t**2 * K**2 / 2)``),
    P is the input power budget and c is the tail constant (see
    :data:`TAIL_CONSTANT`).  A target
    ``slot_error >= 1`` makes the bound degenerate and is rejected.  A slot
    takes at least one repetition, also where ``K**2/P`` underflows to 0.
    """
    variance_proxy, power = check("variance_proxy", variance_proxy), check("power", power)
    slot_error = check("slot_error", slot_error)
    tail_constant = check("tail_constant", tail_constant)
    return _repetitions(variance_proxy, power, _log_ratio(1.0, slot_error), tail_constant)


def _repetitions(variance_proxy: float, power: float, log_inverse_error: float,
                 tail_constant: float) -> int:
    """:func:`repetition_length` from ``ln(1/slot_error)``, its inputs unchecked.

    Raises ``OverflowError`` where the count exceeds a double (K above ~1e154).
    """
    count = (variance_proxy * variance_proxy / power) * (log_inverse_error + 1.0) / tail_constant
    if not math.isfinite(count):
        raise OverflowError(f"the repetition count for K = {variance_proxy!r} and "
                            f"P = {power!r} exceeds a double")
    return max(1, math.ceil(count))


class ChannelUsePlan(namedtuple("ChannelUsePlan",
                                "slots slot_error_target repetitions total closed_form")):
    """Joint budget that :func:`plan_channel_uses` returns: slots, per-slot error
    target, repetitions, total steps.  An end-to-end run reads only the slots
    (ℓ) and repetitions (m), as plain numbers; ``total`` is their exact integer
    product.  ``closed_form`` is the analytic reference, the real-valued slot
    budget times the real-valued repetitions at per-slot error eps/slots
    before any rounding, in fully expanded form:
    ``(K**2/P) * (1/c) * e*(k+1)*ln(N/eps) * (2 + ln(k+1) + ln ln(N/eps) + ln(1/eps))``.
    The integer ceilings can push ``total`` slightly above it.  It reads 0.0
    where no slot is needed (``N <= eps``), and inf where it exceeds a double.
    """

    __slots__ = ()


def plan_channel_uses(n_inactive: int, k: int, eps: float, variance_proxy: float,
                      power: float, tail_constant: float) -> ChannelUsePlan:
    """Derive the end-to-end budget for overall error at most ``2*eps``.

    The slot budget, :func:`slots_for_exact_recovery`'s, covers the
    elimination failure w.p. <= eps; splitting a further eps uniformly over
    the slots (per-slot target ``eps/slots``) and a union bound cover the
    decoding failures, for ``2*eps`` overall.  The repetitions are
    :func:`repetition_length`'s at that target, sized from ``ln(slots/eps)``,
    which stays finite where the target is subnormal or underflows to 0.0.
    Every parameter is checked once, also when no slot is needed (N = 0).
    K is ``variance_proxy``, as in :func:`repetition_length`.
    """
    n_inactive, k, eps = check("n_inactive", n_inactive), check("k", k), check("eps", eps)
    variance_proxy, power = check("variance_proxy", variance_proxy), check("power", power)
    tail_constant = check("tail_constant", tail_constant)
    log_ratio = _log_ratio(n_inactive, eps)
    slots = _slot_budget(k, log_ratio)
    if slots == 0:
        return ChannelUsePlan(slots=0, slot_error_target=0.0, repetitions=0,
                              total=0, closed_form=0.0)
    repetitions = _repetitions(variance_proxy, power, _log_ratio(slots, eps), tail_constant)
    slots_real = math.e * (k + 1) * log_ratio
    bracket = 2.0 + math.log(k + 1) + math.log(log_ratio) + _log_ratio(1.0, eps)
    return ChannelUsePlan(
        slots=slots,
        slot_error_target=eps / slots,
        repetitions=repetitions,
        total=slots * repetitions,
        closed_form=(variance_proxy * variance_proxy / power) / tail_constant
        * slots_real * bracket,
    )
