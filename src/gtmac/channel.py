"""Adder channel with sub-gaussian noise, and a repetition code for disjunctions.

The physical channel adds all transmitted reals plus a noise term:
``Y_t = sum_r x_{r,t} + Z_t``.  Inputs obey a peak power constraint
``|x| <= sqrt(P)``.  The noise steps are independent, zero mean, and
sub-gaussian with norm at most K, where the norm of Z is
``sup_n (E|Z|**n)**(1/n) / sqrt(n)``.  The noise distribution may change from
step to step (an arbitrarily varying schedule) as long as every step respects
the same K: a :class:`NoiseModel` is a list of ``(family, scale)`` members,
and step t of a run of slots uses member ``t mod len(members)``.

To convey one disjunction per slot, each transmitter repeats ``sqrt(P)`` for
``m`` steps when its bit is true and ``0`` when it is false; the receiver
averages the slot and compares against ``sqrt(P)/2``.  Since senders only add
nonnegative amounts, the slot average is the averaged noise when all bits are
false and at least ``sqrt(P)`` plus the averaged noise otherwise -- so the
decoder errs only if the averaged noise strays ``sqrt(P)/2`` from zero,
which happens with probability at most ``exp(1 - c*m*P/K**2)`` (tail constant
c per family; 1/8 is valid for gaussian noise).  :func:`repetition_length`
in :mod:`gtmac.bounds` inverts that bound.  :class:`RepetitionDisjunctionOracle`
decodes whole runs of slots, each starting at step 0 of the noise schedule.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ._ranges import check
from .scheme import DisjunctionOracle

__all__ = [
    "NoiseModel",
    "gaussian",
    "uniform",
    "rademacher",
    "schedule",
    "slot_noise_averages",
    "gaussian_slot_error_exact",
    "RepetitionDisjunctionOracle",
]

_FAMILIES = ("gaussian", "uniform", "rademacher")


class NoiseModel(namedtuple("NoiseModel", "members")):
    """A per-step schedule of noise families, with its norm bound.

    ``members`` is a non-empty tuple of ``(family, scale)`` pairs and step t
    uses member ``t mod len(members)``; one member is a plain family.
    ``scale`` means: standard deviation for ``gaussian``, half-width for
    ``uniform`` on [-a, a], magnitude for ``rademacher`` (fair +/-a).
    ``norm_bound`` is a valid upper bound on the sub-gaussian norm of every
    step, the largest over the members of:

    * gaussian(sigma): the norm is ``sigma*sqrt(2/pi)`` (the n = 1 moment
      dominates), so K = sigma is an upper bound;
    * uniform(a): the norm is a/2;  K = a is an upper bound;
    * rademacher(a): the norm is exactly a.

    A zero scale is allowed and degenerates to noiseless steps.
    """

    __slots__ = ()

    def __new__(cls, members):
        checked = []
        for family, scale in members:
            if family not in _FAMILIES:
                raise ValueError(f"unknown noise family {family!r}")
            checked.append((family, float(check("scale", scale))))
        if not checked:
            raise ValueError("a noise model needs at least one member")
        return super().__new__(cls, tuple(checked))

    @property
    def norm_bound(self) -> float:
        return max(scale for _, scale in self.members)


def gaussian(sigma: float) -> NoiseModel:
    return NoiseModel((("gaussian", sigma),))


def uniform(half_width: float) -> NoiseModel:
    return NoiseModel((("uniform", half_width),))


def rademacher(magnitude: float) -> NoiseModel:
    return NoiseModel((("rademacher", magnitude),))


def schedule(*models: NoiseModel) -> NoiseModel:
    """The schedule that cycles through one-member ``models``, one per step."""
    if any(len(model.members) > 1 for model in models):
        raise ValueError("schedules cannot nest")
    return NoiseModel(member for model in models for member in model.members)


# numpy's ``Generator.random()`` is j * 2**-53 with j uniform on 53 bits.
_BITS = 53
_BIT_WEIGHTS = 2.0 ** np.arange(-_BITS, 0)
# Fewest uniform steps per slot drawn from bit counts.  53 Bin(n, 1/2) draws
# cost about as much as n random() draws near n = 780 (numpy 2.4, 2-vCPU
# Xeon; 50x more at n = 54, half as much at n = 1538), so below 800 the n
# draws themselves are cheaper.
_BIT_COUNT_STEPS = 800
# Values of uniform noise held at once.
_UNIFORM_CHUNK = 1 << 16


def _member_step_counts(period: int, repetitions: int, slot_count: int,
                        run_slots: int) -> np.ndarray:
    """Steps member j of a ``period``-cycle gets in each slot, shape (period, slots).

    Slots form runs of ``run_slots``; slot i of a run covers steps
    ``i*m .. (i+1)*m - 1`` and step t goes to member ``t mod period``: every
    member gets ``m // period`` steps, and the ``m % period`` members that
    follow the slot's first step in the cycle get one more.
    """
    base, extra = divmod(repetitions, period)
    within = np.arange(slot_count, dtype=np.int64) % max(run_slots, 1)
    first = extra * within % period
    behind = (np.arange(period)[:, None] - first) % period
    return base + (behind < extra)


def _bit_count_sums(steps: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` sums of ``steps`` draws of numpy's ``random()``, from bit counts.

    Bit b of the draws' mantissas is set in C_b ~ Bin(steps, 1/2) of them,
    independently over the 53 bits, so the draws sum to
    ``sum_b 2**(b-53) * C_b``: the exact law for any ``steps``.
    """
    return rng.binomial(steps, 0.5, (rows, _BITS)) @ _BIT_WEIGHTS


def _uniform_sums(half_width: float, counts: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Per slot, the sum of ``counts[i]`` uniform draws on [-a, a].

    Counts differ by at most one across slots.  Their common part n is drawn
    by :func:`_bit_count_sums` when n >= ``_BIT_COUNT_STEPS`` and as the n
    draws themselves otherwise, ``_UNIFORM_CHUNK`` values at a time; the
    slots with one step more get one further draw each.
    """
    common = int(counts.min()) if len(counts) else 0
    bit_counts = common >= _BIT_COUNT_STEPS
    rows = max(1, _UNIFORM_CHUNK // (_BITS if bit_counts else max(common, 1)))
    unit_sums = np.empty(len(counts))
    for lo in range(0, len(counts), rows):
        hi = min(lo + rows, len(counts))
        if bit_counts:
            unit_sums[lo:hi] = _bit_count_sums(common, hi - lo, rng)
        else:
            unit_sums[lo:hi] = rng.random((hi - lo, common)).sum(axis=1)
    longer = np.flatnonzero(counts > common)
    unit_sums[longer] += rng.random(longer.size)
    # a sum of n U(0, 1) draws maps to a sum of n U(-a, a) draws by 2a*s - a*n
    return half_width * (2.0 * unit_sums - counts)


def slot_noise_averages(model: NoiseModel, repetitions: int, slot_count: int,
                        rng: np.random.Generator,
                        run_slots: int | None = None) -> np.ndarray:
    """Averaged noise of ``slot_count`` consecutive slots of ``repetitions`` steps.

    This is the noise the decoder sees: for the repetition code a slot
    average is (number of senders)*sqrt(P) plus this quantity, which
    :class:`RepetitionDisjunctionOracle` adds.  The slots are one run, or
    with ``run_slots`` runs of that many slots (it divides ``slot_count``);
    slot i of a run covers steps ``i*m`` onwards, so every run starts at
    step 0 of the schedule.  A member's step count per slot is thus fixed by
    the slot's place in its run, m and the period, and each member's share
    of a slot's noise sum is drawn from its exact law:

    * n gaussian(sigma) steps: one N(0, n*sigma**2) draw;
    * n rademacher(a) steps: ``a*(2*Bin(n, 1/2) - n)``;
    * n uniform(a) steps: for n >= 800, 53 draws of Bin(n, 1/2), which
      count the draws with each mantissa bit set (the law of n draws of
      numpy's ``random()``, exact for any n, and cheaper than the draws from
      about 780 steps on); for fewer steps, the n draws summed;
    * a zero-scale member: nothing drawn.

    Memory is O(slot_count) whatever m is.  Members draw in member order.
    """
    check("repetitions", repetitions)
    check("count", slot_count)
    run_slots = slot_count if run_slots is None else check("count", run_slots)
    if slot_count and (run_slots == 0 or slot_count % run_slots):
        raise ValueError(f"run_slots {run_slots} does not divide slot_count {slot_count}")
    counts = _member_step_counts(len(model.members), repetitions, slot_count, run_slots)
    sums = np.zeros(slot_count)
    for (family, a), n in zip(model.members, counts):
        if a == 0.0:
            continue
        if family == "gaussian":
            sums += a * np.sqrt(n) * rng.standard_normal(slot_count)
        elif family == "rademacher":
            sums += a * (2.0 * rng.binomial(n, 0.5) - n)
        else:
            sums += _uniform_sums(a, n, rng)
    return sums / repetitions


def gaussian_slot_error_exact(sigma: float, power: float, repetitions: int) -> float:
    """Exact P(|averaged gaussian noise| >= sqrt(P)/2) = 2*Q(sqrt(P*m)/(2*sigma)).

    The averaged noise of m i.i.d. N(0, sigma^2) steps is N(0, sigma^2/m);
    this is the probability that it leaves the decoding-safe band.  It upper
    bounds the decoder's actual error on any message pattern (for all-false
    slots the error is one-sided, half this value).
    """
    check("sigma", sigma)
    check("power", power)
    check("repetitions", repetitions)
    x = math.sqrt(power * repetitions) / (2.0 * sigma)
    return math.erfc(x / math.sqrt(2.0))


class RepetitionDisjunctionOracle(DisjunctionOracle):
    """Disjunction oracle realised by the repetition code over a noisy channel.

    A sender adds ``sqrt(P)`` at each of its slot's ``repetitions`` steps and
    any other node adds 0, so a slot's average is its sender count times
    ``sqrt(P)`` plus the averaged noise; above ``sqrt(P)/2`` decodes true and
    a tie decodes false.  Each call decodes whole runs that start at step 0
    of the noise schedule: a 1-D ``senders`` is one run of its slots, and a
    2-D one holds one run per row.  Only the noise stream carries over from
    one call to the next.
    """

    def __init__(self, noise: NoiseModel, power: float, repetitions: int,
                 rng: np.random.Generator):
        self.noise = noise
        self.power = check("power", power)
        self.repetitions = check("repetitions", repetitions)
        self.rng = rng

    def decode_block(self, senders: np.ndarray) -> np.ndarray:
        senders = np.asarray(senders)
        run_slots = senders.shape[-1]
        root_power = math.sqrt(self.power)
        averaged = slot_noise_averages(self.noise, self.repetitions, senders.size,
                                       self.rng, run_slots=run_slots)
        return senders * root_power + averaged.reshape(senders.shape) > root_power / 2.0
