"""Adder channel with sub-gaussian noise, and a repetition code for disjunctions.

The physical channel adds all transmitted reals plus a noise term:
``Y_t = sum_r x_{r,t} + Z_t``.  Inputs obey a peak power constraint
``|x| <= sqrt(P)``.  The noise steps are independent, zero mean, and
sub-gaussian with norm at most K, where the norm of Z is
``sup_n (E|Z|**n)**(1/n) / sqrt(n)``.  The noise distribution may change from
step to step (an arbitrarily varying schedule) as long as every step respects
the same K.

To convey one disjunction per slot, each transmitter repeats ``sqrt(P)`` for
``m`` steps when its bit is true and ``0`` when it is false; the receiver
averages the slot and compares against ``sqrt(P)/2``.  Since senders only add
nonnegative amounts, the slot average is the averaged noise when all bits are
false and at least ``sqrt(P)`` plus the averaged noise otherwise -- so the
decoder errs only if the averaged noise strays ``sqrt(P)/2`` from zero,
which happens with probability at most ``exp(1 - c*m*P/K**2)`` (tail constant
c per family; 1/8 is valid for gaussian noise).  :func:`repetition_length`
in :mod:`gtmac.bounds` inverts that bound.
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
    "transmit_block",
    "slot_noise_averages",
    "gaussian_slot_error_exact",
    "RepetitionDisjunctionOracle",
]

_FAMILIES = ("gaussian", "uniform", "rademacher", "schedule")


class NoiseModel(namedtuple("NoiseModel", "family scale members")):
    """One noise family (or a per-step schedule of families) with its norm bound.

    ``scale`` means: standard deviation for ``gaussian``, half-width for
    ``uniform`` on [-a, a], magnitude for ``rademacher`` (fair +/-a).  A
    ``schedule`` cycles through its member models, step t using member
    ``t mod len(members)``; members must be base families.  ``norm_bound``
    is a valid upper bound on the sub-gaussian norm of every step:

    * gaussian(sigma): the norm is ``sigma*sqrt(2/pi)`` (the n = 1 moment
      dominates), so K = sigma is an upper bound;
    * uniform(a): the norm is a/2;  K = a is an upper bound;
    * rademacher(a): the norm is exactly a;
    * schedule: the maximum over members.

    A zero scale is allowed and degenerates to noiseless steps.
    """

    __slots__ = ()

    def __new__(cls, family: str, scale: float = 0.0,
                members: tuple[NoiseModel, ...] = ()):
        if family not in _FAMILIES:
            raise ValueError(f"unknown noise family {family!r}")
        if family == "schedule":
            if not members:
                raise ValueError("schedule needs at least one member model")
            if any(m.family == "schedule" for m in members):
                raise ValueError("schedules cannot nest")
        else:
            if members:
                raise ValueError("only schedules take member models")
            scale = float(check("scale", scale))
        return super().__new__(cls, family, scale, members)

    @property
    def norm_bound(self) -> float:
        if self.family == "schedule":
            return max(m.norm_bound for m in self.members)
        return self.scale


def gaussian(sigma: float) -> NoiseModel:
    return NoiseModel("gaussian", scale=sigma)


def uniform(half_width: float) -> NoiseModel:
    return NoiseModel("uniform", scale=half_width)


def rademacher(magnitude: float) -> NoiseModel:
    return NoiseModel("rademacher", scale=magnitude)


def schedule(*members: NoiseModel) -> NoiseModel:
    return NoiseModel("schedule", members=tuple(members))


# Upper bound on the uniform draws held at once by slot_noise_averages.
_UNIFORM_CHUNK = 1 << 16


def _member_step_counts(period: int, repetitions: int, slot_count: int,
                        start_step: int) -> np.ndarray:
    """Steps member j of a ``period``-cycle gets in each slot, shape (period, slots).

    Slot i covers steps ``start_step + i*m .. start_step + (i+1)*m - 1`` and
    step t goes to member ``t mod period``: every member gets ``m // period``
    steps, and the ``m % period`` members that follow the slot's first step
    in the cycle get one more.
    """
    base, extra = divmod(repetitions, period)
    first = (start_step % period
             + (repetitions % period) * np.arange(slot_count, dtype=np.int64)) % period
    behind = (np.arange(period)[:, None] - first) % period
    return base + (behind < extra)


def _uniform_sums(half_width: float, counts: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Per slot, the sum of ``counts[i]`` uniform draws on [-a, a].

    Counts differ by at most one across slots, so the common part is a
    (slots, steps) block of draws, made ``_UNIFORM_CHUNK`` draws at a time,
    and the slots with one step more get one further draw each.
    """
    common = int(counts.min()) if len(counts) else 0
    unit_sums = np.zeros(len(counts))
    rows = max(1, _UNIFORM_CHUNK // max(common, 1))
    for lo in range(0, len(counts), rows):
        hi = min(lo + rows, len(counts))
        for done in range(0, common, _UNIFORM_CHUNK):
            width = min(_UNIFORM_CHUNK, common - done)
            unit_sums[lo:hi] += rng.random((hi - lo, width)).sum(axis=1)
    longer = np.flatnonzero(counts > common)
    unit_sums[longer] += rng.random(longer.size)
    # a sum of n U(0, 1) draws maps to a sum of n U(-a, a) draws by 2a*s - a*n
    return half_width * (2.0 * unit_sums - counts)


def slot_noise_averages(model: NoiseModel, repetitions: int, slot_count: int,
                        rng: np.random.Generator, start_step: int = 0) -> np.ndarray:
    """Averaged noise of ``slot_count`` consecutive slots of ``repetitions`` steps.

    This is the noise the decoder sees: for the repetition code a slot
    average is (number of true senders)*sqrt(P) plus this quantity, and
    :func:`transmit_block` adds it to the superposed levels.  Slot i covers
    steps ``start_step + i*m`` onwards, so a schedule member's step count
    per slot is fixed by ``start_step``, m and the period, and each member's
    share of a slot's noise sum is drawn from its exact law:

    * n gaussian(sigma) steps: one N(0, n*sigma**2) draw;
    * n rademacher(a) steps: ``a*(2*Bin(n, 1/2) - n)``;
    * n uniform(a) steps: n draws summed (Irwin-Hall has no cheap exact
      sampler), at most 65536 held at once;
    * a zero-scale member: nothing drawn.

    Memory is O(slot_count) whatever m is.  Members draw in member order.
    """
    check("repetitions", repetitions)
    check("count", slot_count)
    members = model.members or (model,)
    counts = _member_step_counts(len(members), repetitions, slot_count, start_step)
    sums = np.zeros(slot_count)
    for member, n in zip(members, counts):
        a = member.scale
        if a == 0.0:
            continue
        if member.family == "gaussian":
            sums += a * np.sqrt(n) * rng.standard_normal(slot_count)
        elif member.family == "rademacher":
            sums += a * (2.0 * rng.binomial(n, 0.5) - n)
        else:
            sums += _uniform_sums(a, n, rng)
    return sums / repetitions


def transmit_block(messages: np.ndarray, repetitions: int, power: float,
                   noise: NoiseModel, rng: np.random.Generator,
                   start_step: int = 0) -> np.ndarray:
    """Encode, superpose, add noise, and threshold-decode a block of slots.

    ``messages`` has shape ``(senders, slot_count)``.  Each true sender adds
    ``sqrt(P)`` at every one of the ``repetitions`` steps of its slot and a
    false one adds 0, both within the peak constraint; the slot average above
    ``sqrt(P)/2`` decodes true and a tie decodes false.  Returns the decoded
    boolean per slot.  The step index for schedule noise starts at
    ``start_step`` and advances by ``repetitions`` per slot.
    """
    check("repetitions", repetitions)
    check("power", power)
    messages = np.asarray(messages, dtype=bool)
    if messages.ndim != 2:
        raise ValueError(f"messages shape {messages.shape} is not (senders, slot_count)")
    root_power = math.sqrt(power)
    levels = messages.sum(axis=0) * root_power
    averaged = slot_noise_averages(noise, repetitions, messages.shape[1], rng, start_step)
    return (levels + averaged) > root_power / 2.0


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

    Holds its own noise stream (kept separate from the scheme's common
    randomness) and a running step counter so consecutive decode calls keep
    advancing any noise schedule.
    """

    def __init__(self, noise: NoiseModel, power: float, repetitions: int,
                 rng: np.random.Generator):
        self.noise = noise
        self.power = power
        self.repetitions = repetitions
        self.rng = rng
        self._next_step = 0

    def decode_block(self, messages: np.ndarray) -> np.ndarray:
        decoded = transmit_block(messages, self.repetitions, self.power, self.noise,
                                 self.rng, start_step=self._next_step)
        self._next_step += self.repetitions * len(decoded)
        return decoded
