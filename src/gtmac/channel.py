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
from dataclasses import dataclass

import numpy as np

from ._ranges import check
from .scheme import DisjunctionOracle

__all__ = [
    "NoiseModel",
    "gaussian",
    "uniform",
    "rademacher",
    "schedule",
    "sample_noise_block",
    "transmit_block",
    "slot_noise_averages",
    "gaussian_slot_error_exact",
    "RepetitionDisjunctionOracle",
]

_FAMILIES = ("gaussian", "uniform", "rademacher", "schedule")


@dataclass(frozen=True)
class NoiseModel:
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

    family: str
    scale: float = 0.0
    members: tuple["NoiseModel", ...] = ()

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.family == "schedule":
            if not self.members:
                raise ValueError("schedule needs at least one member model")
            if any(m.family == "schedule" for m in self.members):
                raise ValueError("schedules cannot nest")
        else:
            if self.members:
                raise ValueError("only schedules take member models")
            object.__setattr__(self, "scale", float(check("scale", self.scale)))

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


def sample_noise_block(model: NoiseModel, start_step: int, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Vectorised draw for steps ``start_step .. start_step + count - 1``.

    For a schedule the draws for each member family are generated in member
    order and scattered to their step positions, so the layout is
    deterministic for a given stream; base families consume one vectorised
    call.
    """
    check("count", count)
    if model.family == "gaussian":
        return rng.normal(0.0, model.scale, size=count)
    if model.family == "uniform":
        if model.scale == 0.0:
            return np.zeros(count)
        return rng.uniform(-model.scale, model.scale, size=count)
    if model.family == "rademacher":
        return model.scale * (2.0 * rng.integers(0, 2, size=count) - 1.0)
    out = np.empty(count)
    period = len(model.members)
    offsets = (np.arange(count) + start_step) % period
    for j, member in enumerate(model.members):
        idx = np.flatnonzero(offsets == j)
        if idx.size:
            out[idx] = sample_noise_block(member, 0, idx.size, rng)
    return out


def slot_noise_averages(model: NoiseModel, repetitions: int, slot_count: int,
                        rng: np.random.Generator, start_step: int = 0) -> np.ndarray:
    """Averaged noise of ``slot_count`` consecutive slots of ``repetitions`` steps.

    Diagnostic helper (the receiver cannot observe it); also the hot path for
    large Monte Carlo runs of the decoder, since for the repetition code the
    slot average is (number of true senders)*sqrt(P) plus this quantity.
    """
    draws = sample_noise_block(model, start_step, repetitions * slot_count, rng)
    return draws.reshape(slot_count, repetitions).mean(axis=1)


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
