"""Adder channel with sub-gaussian noise, and a repetition code for disjunctions.

The physical channel adds all transmitted reals plus a noise term:
``Y_t = sum_r x_{r,t} + Z_t``.  Inputs obey a peak power constraint
``|x| <= sqrt(P)``.  The noise steps are independent, zero mean, and
sub-gaussian: a step has variance proxy s if ``E exp(tZ) <= exp(t**2 * s**2 /
2)`` for every real t.  (The sub-gaussian norm ``sup_n (E|Z|**n)**(1/n) /
sqrt(n)`` is not such an s: a gaussian of norm 1 breaks the bound below.)  The
noise distribution may change from step to step (an arbitrarily varying
schedule): a :class:`NoiseModel` is a list of ``(family, scale)`` members, and
step t of a run of slots uses member ``t mod len(members)``.

To convey one disjunction per slot, each transmitter repeats ``sqrt(P)`` for
``m`` steps when its bit is true and ``0`` when it is false; the receiver
averages the slot and compares against ``sqrt(P)/2``.  Since senders only add
nonnegative amounts, the slot average is the averaged noise when all bits are
false and at least ``sqrt(P)`` plus the averaged noise otherwise -- so the
decoder errs only if the averaged noise strays ``sqrt(P)/2`` from zero,
with probability at most ``2*exp(-m*P/(8*s**2))``, s the largest member
proxy.  So a plan's bound ``exp(1 - c*m*P/K**2)`` holds when ``c <=
K**2/(8*s**2)`` for every member (:meth:`NoiseModel.tail_constant_limit`):
``uniform=3`` (s = sqrt(3)) at K = 2 proves c up to 0.1667.  That bound, its
inverse and the exact gaussian excursion are laws of :mod:`gtmac.bounds`;
this module only samples: :class:`RepetitionDisjunctionOracle` decodes runs
of slots, :func:`slot_error_rates` counts the slots whose noise alone
reaches ``sqrt(P)/2``.  ``_FAMILIES`` holds one record per family: its step
sampler, its proxy, and its exact excursion law where ``bounds`` has one.

The decoder reads only each slot's noise sum, so :func:`slot_noise_averages`
draws each member's share of it from the law of a sum of unit steps.  A draw
of a fixed Bin(n, p) -- a rademacher share, the 53 bit counts of a uniform
share, and the sender counts of :mod:`gtmac.harness` -- inverts the CDF at
2**-64 from one 64-bit word: thresholds ``T_i = ceil(2**64 * F(i))``, exact in
Python ints because a double p is dyadic, and a 2**16-cell index on the word's
top 16 bits, built once per (n, p) and process.  Each atom is within 2**-64 of
the pmf.  Where the build would cost more than about a millisecond
(``n**2 * log2(denominator of p)`` above 2**22: n above 2048 at p = 1/2, or
above about 270 at p = 1/(k+1)), numpy's ``binomial`` draws instead; the
route depends on (n, p) only, so no result depends on the worker count.

An oracle is any object with ``decode_block`` (see :func:`gtmac.scheme.run_scheme`),
so this module imports only numpy, :mod:`gtmac.bounds` and :mod:`gtmac._ranges`.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from . import bounds
from ._ranges import check

__all__ = [
    "NoiseModel",
    "slot_noise_averages",
    "RepetitionDisjunctionOracle",
    "slot_error_rates",
]


class NoiseModel(namedtuple("NoiseModel", "members")):
    """A per-step schedule of noise families, with its variance proxies.

    ``members`` is a non-empty tuple of ``(family, scale)`` pairs and step t
    uses member ``t mod len(members)``; one member is a plain family.
    ``scale`` means: standard deviation for ``gaussian``, half-width for
    ``uniform`` on [-a, a], magnitude for ``rademacher`` (fair +/-a).  A
    family's record in ``_FAMILIES`` holds its proxy s per unit scale and,
    for :meth:`exact_excursion`, its exact law if it has one.  A declared K
    and tail constant c are certified when ``c <= K**2/(8*s**2)`` for every
    member (:meth:`tail_constant_limit`): ``uniform=3`` at K = 2 proves c up
    to 0.1667.  ``largest_scale``, the CLI's default K, is at least every
    proxy, so it proves the default c = 1/8.  A zero scale gives noiseless steps.
    """

    __slots__ = ()

    def __new__(cls, members):
        checked = []
        for family, scale in members:
            if family not in _FAMILIES:
                raise ValueError(f"unknown noise family {family!r}")
            checked.append((family, float(check("scale", scale))))
        if not checked:
            raise ValueError("empty noise spec")
        return super().__new__(cls, tuple(checked))

    @classmethod
    def parse(cls, spec: str) -> NoiseModel:
        """The model ``family=scale[,family=scale...]`` spells (:attr:`spec` prints
        it); blank items are skipped, and a family is read without case or padding."""
        members = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            family, is_pair, raw = part.partition("=")
            if not is_pair:
                raise ValueError(f"noise spec {part!r} is not family=scale")
            members.append((family.strip().lower(), float(raw)))
        return cls(members)

    @property
    def spec(self) -> str:
        """The model as :meth:`parse` reads it, each scale by its ``repr``."""
        return ",".join(f"{family}={scale!r}" for family, scale in self.members)

    @property
    def largest_scale(self) -> float:
        return max(scale for _, scale in self.members)

    def tail_constant_limit(self, variance_proxy: float) -> float:
        """The largest c whose ``exp(1 - c*m*P/K**2)``, K = ``variance_proxy``, bounds
        a slot's decode error: the least ``K**2/(8*s**2) = (K/a)**2 * (a**2/s**2) / 8``
        over the members of scale a > 0 (inf if every scale is 0), as m averaged
        steps stray sqrt(P)/2 with probability at most ``2*exp(-m*P/(8*s**2))``.
        K/a is squared: never nan, and inf where it overflows.
        """
        return min((variance_proxy / a * (variance_proxy / a) * (_FAMILIES[name].proxy_ratio / 8)
                    for name, a in self.members if a), default=math.inf)

    def exact_excursion(self, power: float, repetitions: int) -> float | None:
        """P(|slot-averaged noise| >= sqrt(P)/2) by its family's exact law, for one
        member of scale > 0 whose family has one (gaussian); else None."""
        [(family, a), *rest] = self.members
        law = _FAMILIES[family].excursion
        return None if rest or not a or law is None else law(a, power, repetitions)


# A fixed Bin(n, p) is drawn by table: the top _CELL_BITS bits of a 64-bit
# word pick a cell, and the few cells that a step of the CDF splits are
# settled by the whole word.
_CELL_BITS = 16
_CELL_SHIFT = 64 - _CELL_BITS  # the bits of a word below its cell index
# Largest n**2 * log2(denominator of p) built as a table: the build's exact
# Python-int work grows about as that product.  On a 2-vCPU Xeon Bin(1538,
# 1/2) (2.4e6) builds in 1.4-1.7 ms and Bin(20, 1/21) (2.3e4) in 0.2 ms cold;
# past the bound numpy's ``binomial`` draws.
_TABLE_WORK = 1 << 22
# numpy's ``Generator.random()`` is j * 2**-53 with j uniform on 53 bits.
_BITS = 53
_BIT_WEIGHTS = 2.0 ** np.arange(-_BITS, 0)
# Fewest uniform steps per slot drawn from bit counts.  53 table draws of
# Bin(n, 1/2) cost about as much as n random() draws near n = 150 (numpy
# 2.4, 2-vCPU Xeon: 1.8 ms for 4530 slots, against 0.8 ms of draws at n = 60
# and 3.5 ms at n = 300), so below the switch the draws are cheaper.
_BIT_COUNT_STEPS = 160
# Values of uniform noise held at once: 2**14 keeps a chunk's arrays (~128 KiB)
# under glibc's mmap threshold, so no chunk maps and unmaps its own pages.
_UNIFORM_CHUNK = 1 << 14


@functools.lru_cache(maxsize=16)
def _binomial_table(n: int, p: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Thresholds and cells of Bin(n, p)'s inverse CDF at 2**-64; None if costly.

    A double p is a / 2**e exactly, so 2**(e*n) * F(i) is the integer sum
    over j <= i of C(n, j) * a**j * (2**e - a)**(n - j), and each threshold
    T_i = ceil(2**64 * F(i)) is exact.  A word w uniform on [0, 2**64) maps
    to #{i : T_i <= w}, which is i with probability (T_i - T_{i-1}) / 2**64,
    within 2**-64 of the pmf; the thresholds stop at the first that reaches
    2**64.  Cell c holds the draw of every word whose top bits are c, or
    ``len(thresholds) + 1`` if a threshold falls inside the cell.  None when
    n**2 * e exceeds ``_TABLE_WORK``.  0 < p < 1.
    """
    a, denominator = p.as_integer_ratio()
    e = denominator.bit_length() - 1
    if n * n * e > _TABLE_WORK:
        return None
    b, shift = denominator - a, e * n
    # 2**(64 + e*n) * F(i) above ``top`` makes T_i = 2**64
    top = ((1 << 64) - 1) << shift
    sums, term, total = [], b**n << 64, 0
    for i in range(n):
        total += term
        if total > top:
            break
        sums.append(total)
        term = term * (n - i) * a // ((i + 1) * b)
    thresholds = [-(-s >> shift) for s in sums]
    # the first cell whose words all lie at or above each threshold
    starts = [0, *(-(-t >> _CELL_SHIFT) for t in thresholds), 1 << _CELL_BITS]
    hard = len(sums) + 1  # no draw's value
    cells = np.repeat(np.arange(hard, dtype=np.uint8 if hard < 256 else np.uint16),
                      [end - start for start, end in zip(starts, starts[1:])])
    cells[[t >> _CELL_SHIFT for t in thresholds if t % (1 << _CELL_SHIFT)]] = hard
    thresholds = np.array(thresholds, dtype=np.uint64)
    thresholds.flags.writeable = cells.flags.writeable = False  # shared by every caller
    return thresholds, cells


def _table_binomial(n: int, p: float, shape, rng: np.random.Generator) -> np.ndarray:
    """``shape`` draws of Bin(n, p), by :func:`_binomial_table` where it has a table.

    Each draw reads one 64-bit word of ``rng``'s bit generator; without a
    table the draws are numpy's ``binomial``.  Which route a draw takes
    depends on (n, p) alone, so no result depends on the worker count.
    p = 0 and p = 1 draw nothing.
    """
    n, p = int(n), float(p)
    if p == 0.0 or p == 1.0:
        return np.full(shape, n if p else 0)
    table = _binomial_table(n, p)
    if table is None:
        return rng.binomial(n, p, shape)
    thresholds, cells = table
    words = rng.bit_generator.random_raw(shape).reshape(-1)
    draws = np.take(cells, (words >> np.uint64(_CELL_SHIFT)).view(np.int64))
    hard = np.flatnonzero(draws == len(thresholds) + 1)
    draws[hard] = np.searchsorted(thresholds, words[hard], side="right")
    return draws.reshape(shape)


def _bit_count_sums(steps: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` sums of ``steps`` draws of numpy's ``random()``, from bit counts.

    Bit b of the draws' mantissas is set in C_b ~ Bin(steps, 1/2) of them,
    independently over the 53 bits, so the draws sum to
    ``sum_b 2**(b-53) * C_b``: the law of the summed draws for any ``steps``.
    The sum is einsum's own loop, not a BLAS gemv, so no BLAS thread runs.
    """
    return np.einsum("ij,j", _table_binomial(steps, 0.5, (rows, _BITS), rng), _BIT_WEIGHTS)


def _gaussian_steps(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` sums of n N(0, 1) steps: N(0, n) draws."""
    return math.sqrt(n) * rng.standard_normal(size)


def _rademacher_steps(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` sums of n fair +/-1 steps: 2*Bin(n, 1/2) - n."""
    return 2.0 * _table_binomial(n, 0.5, size, rng) - n


def _uniform_steps(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` sums of n U(-1, 1) steps: 2s - n for s a sum of n ``random()`` draws.

    s comes from :func:`_bit_count_sums` when n >= ``_BIT_COUNT_STEPS``, and
    from the n draws themselves otherwise, ``_UNIFORM_CHUNK`` values at a time.
    """
    bit_counts = n >= _BIT_COUNT_STEPS
    rows = max(1, _UNIFORM_CHUNK // (_BITS if bit_counts else n))
    sums = np.empty(size)
    for lo in range(0, size, rows):
        hi = min(lo + rows, size)
        sums[lo:hi] = (_bit_count_sums(n, hi - lo, rng) if bit_counts
                       else rng.random((hi - lo, n)).sum(axis=1))
    return 2.0 * sums - n


_Family = namedtuple("_Family", "step_sums proxy_ratio excursion")
# The families NoiseModel accepts: ``step_sums(n, size, rng)`` draws sums of n
# unit-scale steps, ``proxy_ratio`` is a**2/s**2 (s the variance proxy at scale
# a) as an exact int, ``excursion(a, power, m)`` the exact slot excursion or None:
#   gaussian(a):   E exp(tZ) = exp(t**2 * a**2 / 2), so s = a;
#   uniform(a):    sinh(ta)/(ta) <= exp(t**2 * a**2 / 6), so s = a/sqrt(3);
#   rademacher(a): cosh(ta) <= exp(t**2 * a**2 / 2), so s = a.
_FAMILIES = {"gaussian": _Family(_gaussian_steps, 1, bounds.gaussian_slot_error_exact),
             "uniform": _Family(_uniform_steps, 3, None),
             "rademacher": _Family(_rademacher_steps, 1, None)}


def slot_noise_averages(model: NoiseModel, repetitions: int, slot_count: int,
                        rng: np.random.Generator,
                        run_slots: int | None = None) -> np.ndarray:
    """Averaged noise of ``slot_count`` consecutive slots of ``repetitions`` steps.

    This is the noise the decoder sees: for the repetition code a slot
    average is (number of senders)*sqrt(P) plus this quantity, which
    :class:`RepetitionDisjunctionOracle` adds.  The slots are one run, or
    with ``run_slots`` runs of that many slots (it divides ``slot_count``);
    slot i of a run covers steps ``i*m`` onwards, so every run starts at
    step 0 of the schedule.  A member gets c = m // period steps in every
    slot, and one more in the slots fixed by their place in the run, m and
    the period (none when the period divides m).  Each member draws the sum
    of its c steps in every slot, then of its one further step in those
    slots, each from the exact law of a sum of n unit steps in its family
    (``_FAMILIES``; a binomial draw is :func:`_table_binomial`'s), scaled
    by the member's scale over m; a zero-scale member draws nothing.  Memory
    is O(slot_count) whatever m and the number of members are.  Members draw
    in member order.
    """
    check("repetitions", repetitions)
    check("count", slot_count)
    run_slots = slot_count if run_slots is None else check("count", run_slots)
    if slot_count and (run_slots == 0 or slot_count % run_slots):
        raise ValueError(f"run_slots {run_slots} does not divide slot_count {slot_count}")
    period = len(model.members)
    steps, extra = divmod(repetitions, period)
    # slot i of a run starts at step i*m, at member i*m mod period; that member
    # and the extra - 1 after it get one step more (none if the period divides m)
    first = (extra * (np.arange(slot_count, dtype=np.int64) % max(run_slots, 1)) % period
             if extra else np.empty(0, dtype=np.int64))
    averages = np.zeros(slot_count)
    for j, (family, a) in enumerate(model.members):
        if a == 0.0:
            continue
        step_sums, scale = _FAMILIES[family].step_sums, a / repetitions
        if steps:
            averages += scale * step_sums(steps, slot_count, rng)
        longer = np.flatnonzero((j - first) % period < extra)
        if longer.size:
            averages[longer] += scale * step_sums(1, longer.size, rng)
    return averages


class RepetitionDisjunctionOracle:
    """Disjunction oracle realised by the repetition code over a noisy channel.

    A sender adds ``sqrt(P)`` at each of its slot's ``repetitions`` steps and
    any other node adds 0, so a slot's average is its sender count times
    ``sqrt(P)`` plus the averaged noise; above ``threshold`` = ``sqrt(P)/2``
    decodes true and a tie decodes false.  Each call decodes whole runs that
    start at step 0 of the noise schedule: a 1-D ``senders`` is one run of its
    slots, and a 2-D one holds one run per row.  Only the noise stream carries
    over from one call to the next.
    """

    def __init__(self, noise: NoiseModel, power: float, repetitions: int,
                 rng: np.random.Generator):
        self.noise = noise
        self.power = check("power", power)
        self.repetitions = check("repetitions", repetitions)
        self.threshold = math.sqrt(self.power) / 2.0
        self.rng = rng

    def decode_block(self, senders: np.ndarray) -> np.ndarray:
        senders = np.asarray(senders)
        run_slots = senders.shape[-1]
        root_power = math.sqrt(self.power)
        averaged = slot_noise_averages(self.noise, self.repetitions, senders.size,
                                       self.rng, run_slots=run_slots)
        return senders * root_power + averaged.reshape(senders.shape) > self.threshold


def slot_error_rates(noise: NoiseModel, power: float, repetitions: int, slots: int,
                     seed: int) -> tuple[float, float]:
    """Rates of |noise| >= t (excursions) and noise > t (decoded true) over ``slots``
    slots from ``seed``, t the oracle's ``threshold``; drawn in chunks of 200 000
    rounded up to whole schedule periods, each starting at step 0 as a run does."""
    check("channel_slots", slots)
    rng = np.random.default_rng(seed)
    threshold = RepetitionDisjunctionOracle(noise, power, repetitions, rng).threshold
    excursions = decoded_true = 0
    period = len(noise.members)
    chunk = -(-200_000 // period) * period
    for done in range(0, slots, chunk):
        averaged = slot_noise_averages(noise, repetitions, min(chunk, slots - done), rng)
        excursions += int((np.abs(averaged) >= threshold).sum())
        decoded_true += int((averaged > threshold).sum())
    return excursions / slots, decoded_true / slots
