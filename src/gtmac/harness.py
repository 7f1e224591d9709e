"""Monte Carlo harness: run-until-exact experiments, traces, end-to-end trials, CSV.

Reproducibility contract
------------------------
A batch is fully determined by its parameters and ``seed_base``.

Until-exact and trace batches are seeded per block: trials
``b*TRIAL_BLOCK .. (b+1)*TRIAL_BLOCK - 1``, with ``TRIAL_BLOCK`` = 8192, are
drawn together by the surplus kernel from ``SeedSequence((seed_base, b))``:
blocks and slots share one seed rule, :func:`gtmac.scheme.slot_rng`, which
this module binds at import.  One runner returns every batch's block results
in block order, and a trace adds its blocks' sums in that order, so no result
depends on the worker count.

End-to-end batches are seeded per block by the same rule: a block holds
``max(1, 2**16 // slots)`` trials, a constant of the batch's ℓ, and block
``b`` is drawn by :func:`end_to_end_trial` from ``SeedSequence((seed_base,
b))``; any block can be replayed in isolation, a single trial cannot.  The
block's one stream draws every trial's per-slot sender counts, then the
channel noise of all of them, then each trial's count of surviving inactive
nodes, whose law given the decodes is the survivors law of :mod:`gtmac.bounds`.
Which nodes are active does not matter, so nothing places them.

CSV files are written with a header row, comma separators, ``\\n`` line
endings and UTF-8 encoding.  Each field is the ``repr`` of its value, as the
``csv`` module would write it (no field needs quoting), so ``float()`` of a
field recovers the exact value; result objects (an :class:`ErrorCurve`'s
summary fields too) hold Python ints and floats, never numpy scalars, whose
``repr`` is not a number.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple

import numpy as np

from . import bounds
from ._ranges import check, check_levels
from .scheme import _live_steps, optimal_choice_probability, sample_slots_until_exact
from .scheme import slot_rng as _block_rng
# The node-level reference scheme and the single-run step kernel; no batch runs
# either, but perfbench/tracing.py patches both under these names.
from .scheme import run_scheme, run_scheme_fast  # noqa: F401

TYPE_CHECKING = False  # importing typing would cost start-up
if TYPE_CHECKING:
    from collections.abc import Sequence

    from .channel import NoiseModel

__all__ = [
    "TRIAL_BLOCK",
    "RunRecord",
    "ErrorCurve",
    "ExpectationTrace",
    "EndToEndSummary",
    "trial_seed",
    "default_slot_cap",
    "simulate_until_exact",
    "run_until_exact_batch",
    "build_error_curve",
    "expectation_trace",
    "end_to_end_trial",
    "run_end_to_end_batch",
    "export_csv",
]

# Trials per seeded block of until-exact and trace batches.  Against 4096,
# 8192 halves the trace kernel's per-slot overhead per run; a block also stays
# below the ~10 000 elements past which OpenBLAS threads the trace's dot
# product, which made 16384-run blocks 3-6x slower under two workers on a
# 2-vCPU VM.
TRIAL_BLOCK = 8192


def trial_seed(seed_base: int, index: int) -> int:
    """64-bit seed of trial ``index``: SeedSequence((seed_base, index)) hashed down.

    No batch seeds per trial any more; perfbench/tracing.py patches this name.
    """
    check("index", index)
    ss = np.random.SeedSequence((seed_base, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _end_to_end_block(slots: int) -> int:
    """Trials per seeded block of an end-to-end batch: about 2**16 slots."""
    return max(1, (1 << 16) // max(slots, 1))


def default_slot_cap(n_inactive: int, k: int) -> int:
    """Hard stop for run-until-exact: 100x the typical e(k+1)ln N scale."""
    grown = max(1.0, math.log(max(n_inactive, 1)))
    return math.ceil(100.0 * math.e * (k + 1) * grown)


class RunRecord(namedtuple("RunRecord", "trial_seed slots_until_exact")):
    """Result of one until-exact trial.

    ``slots_until_exact`` is the slot at which the potential set became the
    active set; ``None`` means the trial was censored at the slot cap (it
    counts as a failure at every grid point).
    """

    __slots__ = ()


class ErrorCurve(namedtuple("ErrorCurve",
                            "slot_grid observed_frequency theoretical_bound trials "
                            "censored median_slots max_slots")):
    """Observed error frequency per grid slot beside the analytic bound, as the CSV holds
    them; then the censored count, and the other trials' median and max slots (or nan)."""

    __slots__ = ()


class ExpectationTrace(namedtuple("ExpectationTrace",
                                  "slots empirical_mean std_error predicted_mean")):
    """Per-slot surplus mean with standard errors and the analytic prediction."""

    __slots__ = ()


class EndToEndSummary(namedtuple("EndToEndSummary",
                                 "trials failures failure_rate conditional_failure_rate "
                                 "two_epsilon slots repetitions total_channel_uses")):
    """Failure statistics of an end-to-end batch plus its channel budget, the ℓ
    slots and m repetitions that ran and their product ``total_channel_uses``.

    ``conditional_failure_rate`` is the mean over trials of each trial's
    failure probability given its decoded slots (see :func:`end_to_end_trial`);
    it estimates the same probability as ``failure_rate`` with less variance.
    """

    __slots__ = ()


def simulate_until_exact(n_inactive: int, k: int, p: float, seed: int,
                         slot_cap: int | None = None) -> RunRecord:
    """One run of the surplus kernel until the potential set is exact.

    The slot count is sampled in O(1) by :func:`sample_slots_until_exact`,
    identical in law to the node-level scheme with the error-free oracle;
    draws come from ``numpy.random.default_rng(seed)``.  A run still inexact
    at ``slot_cap`` (default :func:`default_slot_cap`) is censored.
    """
    cap = default_slot_cap(n_inactive, k) if slot_cap is None else slot_cap
    slots = int(sample_slots_until_exact(n_inactive, k, p, cap,
                                         np.random.default_rng(seed), 1)[0])
    return RunRecord(trial_seed=seed, slots_until_exact=None if slots < 0 else slots)


def _seeded_blocks(kernel, trials: int, block: int, seed_base: int, blocks: range) -> list:
    """``kernel(rng, size)`` of each block b in ``blocks``: trials b*block onwards."""
    return [kernel(_block_rng(seed_base, b), min(block, trials - b * block)) for b in blocks]


def _pool_size(threads: int, tasks: int, cpus: int) -> int:
    """Worker processes for ``tasks`` blocks: never more than threads, tasks or CPUs."""
    return max(1, min(threads, tasks, cpus))


def _run_blocks(kernel, trials: int, block: int, seed_base: int, workers: int) -> list:
    """``kernel(rng, size)`` of every seeded block of ``trials``, in block order.

    Block b holds trials ``b*block`` up to the next block's first (the last
    block may be short) and draws from its own seed, so no result depends
    on the worker count.  Nothing is made per block before the blocks run.
    ``kernel`` is a module-level function with the batch's parameters bound
    by :func:`functools.partial`, so it pickles into worker processes, which
    run contiguous ranges of blocks.
    """
    check("workers", workers)
    count = -(-trials // block)
    size = _pool_size(workers, count, os.cpu_count() or 1)
    run = functools.partial(_seeded_blocks, kernel, trials, block, seed_base)
    if size == 1:
        return run(range(count))
    # imported here: the pool's modules cost a one-worker run ~9 ms of start-up
    from concurrent.futures import ProcessPoolExecutor

    step = -(-count // (8 * size))
    with ProcessPoolExecutor(max_workers=size) as pool:
        parts = pool.map(run, (range(lo, min(lo + step, count))
                               for lo in range(0, count, step)))
        return [result for part in parts for result in part]


def run_until_exact_batch(n_inactive: int, k: int, p: float, slot_cap: int,
                          trials: int, seed_base: int, workers: int = 1) -> np.ndarray:
    """Slots until exact of every trial, in trial order (int64, -1 = censored)."""
    check("trials", trials)
    kernel = functools.partial(sample_slots_until_exact, n_inactive, k, p, slot_cap)
    return np.concatenate(_run_blocks(kernel, trials, TRIAL_BLOCK, seed_base, workers))


def build_error_curve(slots_until_exact: np.ndarray, slot_grid: Sequence[int],
                      n_inactive: int, k: int) -> ErrorCurve:
    """Observed frequency of non-recovery per grid slot, and the trials' summary.

    ``slots_until_exact`` holds one entry per trial, -1 for a censored trial,
    and ``slot_grid`` slots >= 0, as a tuple or a ``range`` does.  A trial
    counts as failed at grid slot L when it needed more than L slots; censored
    trials count as failed everywhere.  Both are read off one sort.
    """
    finished = np.asarray(slots_until_exact, dtype=np.int64)
    trials = len(finished)
    if trials == 0:
        raise ValueError("need at least one trial")
    grid = check_levels(slot_grid)
    if len(grid) == 0:
        raise ValueError("slot_grid must not be empty")
    done = int(np.count_nonzero(finished >= 0))
    ordered = np.where(finished < 0, np.iinfo(np.int64).max, finished)
    ordered.sort()  # in place: the only sort, censored trials last
    observed = (trials - np.searchsorted(ordered, grid, side="right")) / trials
    bound = bounds.theoretical_error_curve(n_inactive, k, grid)
    # the middle one or two finished trials, as statistics.median takes them
    low, high = ordered[[(done - 1) // 2, done // 2]].tolist() if done else [math.nan] * 2
    return ErrorCurve(slot_grid=tuple(grid.tolist()),
                      observed_frequency=tuple(observed.tolist()),
                      theoretical_bound=tuple(bound.tolist()),
                      trials=trials, censored=trials - done,
                      median_slots=low if done % 2 else (low + high) / 2,
                      max_slots=int(ordered[done - 1]) if done else math.nan)


def _trace_block(n_inactive: int, k: int, p: float, horizon: int,
                 rng: np.random.Generator, size: int) -> np.ndarray:
    """Per-slot sum (row 0) and sum of squares (row 1) of ``size`` trials' surplus.

    An exact run adds 0 to both, so only the live runs are summed, and no
    slot once none is left.
    """
    sums = np.zeros((2, horizon + 1))
    for i, live in enumerate(_live_steps(n_inactive, k, p, horizon, rng, size)):
        if not live.size:
            break
        values = live.astype(float)
        sums[:, i] = values.sum(), values @ values
    return sums


def expectation_trace(n_inactive: int, k: int, p: float, trials: int, horizon: int,
                      seed_base: int = 0, workers: int = 1) -> ExpectationTrace:
    """Empirical mean surplus per slot over ``trials`` surplus-kernel runs.

    Each seeded block of trials is stepped together by the step kernel of
    :func:`gtmac.scheme.surplus_steps`, whose live runs are summed per slot;
    block sums add up in block order.  Slot 0 is the deterministic starting
    surplus.  ``std_error`` is the sample standard deviation over trials
    divided by sqrt(trials); the prediction column is
    :func:`gtmac.bounds.expected_remaining`.  Every parameter is checked
    before any block runs.
    """
    check("n_inactive", n_inactive)
    check("k", k)
    check("p", p)
    check("trace_trials", trials)
    check("horizon", horizon)
    kernel = functools.partial(_trace_block, n_inactive, k, p, horizon)
    sums, sums_sq = sum(_run_blocks(kernel, trials, TRIAL_BLOCK, seed_base, workers),
                        np.zeros((2, horizon + 1)))
    mean = sums / trials
    variance = np.maximum(sums_sq - trials * mean * mean, 0.0) / (trials - 1)
    std_error = np.sqrt(variance / trials)
    predicted = bounds.expected_remaining(n_inactive, k, p, np.arange(horizon + 1))
    return ExpectationTrace(tuple(range(horizon + 1)), tuple(mean.tolist()),
                            tuple(std_error.tolist()), tuple(predicted.tolist()))


def _comp(n_inactive: int, p: float, senders: np.ndarray, decoded: np.ndarray,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The COMP receiver on a block of decoded slots, one trial per row.

    ``senders`` holds each slot's count of active senders, ``decoded`` its
    decoded bit.  A slot with a sender decoded false evicts an active node,
    and the trial fails.  Otherwise each of the N inactive nodes outlasts the
    F slots decoded false with probability (1-p)**F independently, and the
    trial succeeds iff a Bin(N, (1-p)**F) draw from ``rng`` is zero.  Returns,
    per trial, whether the active set was recovered and its failure
    probability given (evicted, F): 1 after an eviction, else
    ``bounds._survivors``.
    """
    cleared = ~decoded
    evicted = ((senders > 0) & cleared).any(axis=-1)
    false_slots = np.count_nonzero(cleared, axis=-1)
    recovered = ~evicted & (rng.binomial(n_inactive, (1.0 - p) ** false_slots) == 0)
    return recovered, np.where(evicted, 1.0, bounds._survivors(n_inactive, p, false_slots))


def end_to_end_trial(n_inactive: int, k: int, noise: NoiseModel, power: float, slots: int,
                     repetitions: int, rng: np.random.Generator,
                     trials: int) -> tuple[np.ndarray, np.ndarray]:
    """A block of ``trials`` full noisy-channel trials, drawn from their exact law.

    Returns, per trial, whether the active set was recovered, and the
    trial's failure probability given its decoded slots (see :func:`_comp`).

    Every trial runs ``slots`` decision steps (ℓ), each a disjunction sent over
    ``repetitions`` channel uses (m), whichever planner sized them; N, k, ℓ,
    and m when ℓ > 0, are checked before any draw.  ``noise`` is the actual noise:
    :func:`gtmac.bounds.plan_channel_uses` bounds the failure by ``2*eps`` for
    the *declared* K and c, which need ``c <= K**2/(8*s**2)`` for every step's proxy s.

    Each active node joins a slot with probability p = 1/(k+1), so a slot's
    sender count is Bin(k, p).  The (trials, slots) counts are drawn from
    ``rng``, one 64-bit word each, by :func:`gtmac.channel._table_binomial`,
    and decoded in one ``decode_block`` call of an oracle whose schedule
    restarts at step 0 in every trial; an inactive node sends 0, so it never
    changes a decode.  :func:`_comp` then decides each trial.  This is the
    law of :func:`gtmac.scheme.run_scheme`'s final mask equalling the active
    mask, in O(trials * slots) time and memory whatever N is.  With no slot
    the potential set stays every node, exact iff N = 0, and nothing is drawn.
    """
    n_inactive, k = check("n_inactive", n_inactive), check("k", k)
    trials, slots = check("trials", trials), check("slots", slots)
    if slots == 0:
        return np.full(trials, n_inactive == 0), np.full(trials, float(n_inactive != 0))
    repetitions = check("repetitions", repetitions)
    # only e2e runs need the channel
    from .channel import RepetitionDisjunctionOracle, _table_binomial

    p = optimal_choice_probability(k)
    oracle = RepetitionDisjunctionOracle(noise, power, repetitions, rng)
    senders = _table_binomial(k, p, (trials, slots), rng)
    return _comp(n_inactive, p, senders, oracle.decode_block(senders), rng)


def run_end_to_end_batch(n_inactive: int, k: int, eps: float, noise: NoiseModel,
                         power: float, slots: int, repetitions: int, trials: int,
                         seed_base: int, workers: int = 1) -> EndToEndSummary:
    """The failure summary of all end-to-end trials.

    Every trial runs ``slots`` steps of ``repetitions`` channel uses (see
    :func:`end_to_end_trial`), checked with N and k before any block runs;
    ``eps``, their target, is reported as ``two_epsilon``: nothing here plans.
    Trials are drawn in seeded blocks (see the module docstring), their
    failures counted per block.
    """
    n_inactive, k = check("n_inactive", n_inactive), check("k", k)
    check("eps", eps)
    trials, slots = check("trials", trials), check("slots", slots)
    repetitions = check("repetitions", repetitions) if slots else repetitions
    kernel = functools.partial(end_to_end_trial, n_inactive, k, noise, power, slots, repetitions)
    parts, conditional = zip(*_run_blocks(kernel, trials, _end_to_end_block(slots),
                                          seed_base, workers))
    failures = trials - sum(int(np.count_nonzero(part)) for part in parts)
    return EndToEndSummary(
        trials=trials,
        failures=failures,
        failure_rate=failures / trials,
        conditional_failure_rate=float(np.concatenate(conditional).mean()),
        two_epsilon=2.0 * eps,
        slots=slots,
        repetitions=repetitions,
        total_channel_uses=slots * repetitions,
    )


# --- CSV layer ---------------------------------------------------------------

_ERROR_CURVE_HEADER = ["l", "observed_frequency", "theoretical_bound", "trials"]
_TRACE_HEADER = ["slot", "empirical_mean", "std_error", "predicted_mean"]
_END_TO_END_HEADER = ["trials", "failures", "failure_rate", "two_epsilon",
                      "l", "m", "total_channel_uses"]


def _write_rows(path: str, header: list[str], rows) -> None:
    """The header, then every field's ``repr``: one ``%`` fills a ``%r`` per field."""
    cells = tuple([cell for row in rows for cell in row])
    template = ",".join(["%r"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + template * (len(cells) // len(header)) % cells)


def export_csv(result, path: str) -> None:
    """Write a result object to ``path``; identical inputs give identical bytes."""
    if isinstance(result, ErrorCurve):
        rows = zip(result.slot_grid, result.observed_frequency, result.theoretical_bound,
                   [result.trials] * len(result.slot_grid))
        _write_rows(path, _ERROR_CURVE_HEADER, rows)
    elif isinstance(result, ExpectationTrace):
        rows = zip(result.slots, result.empirical_mean, result.std_error,
                   result.predicted_mean)
        _write_rows(path, _TRACE_HEADER, rows)
    elif isinstance(result, EndToEndSummary):
        rows = [[result.trials, result.failures, result.failure_rate,
                 result.two_epsilon, result.slots, result.repetitions,
                 result.total_channel_uses]]
        _write_rows(path, _END_TO_END_HEADER, rows)
    else:
        raise TypeError(f"no CSV layout for {type(result).__name__}")
