"""Monte Carlo harness: run-until-exact experiments, traces, end-to-end trials, CSV.

Reproducibility contract
------------------------
A batch is fully determined by its parameters and ``seed_base``.

Until-exact and trace batches are seeded per block: trials
``b*TRIAL_BLOCK .. (b+1)*TRIAL_BLOCK - 1`` are drawn together by the surplus
kernel from ``SeedSequence((seed_base, b))``.  One runner returns every
batch's block results in block order, and a trace adds its blocks' sums in
that order, so no result depends on how many workers ran the batch.

End-to-end batches are seeded per block by the same rule: a block holds
``max(1, 2**16 // slots)`` trials, a constant of the batch's plan, and block
``b`` is drawn by :func:`end_to_end_trial` from ``SeedSequence((seed_base,
b))``; any block can be replayed in isolation, a single trial cannot.  The
block's one stream draws every trial's per-slot sender counts, then the
channel noise of all of them, then each trial's count of surviving inactive
nodes.  Which nodes are active does not matter, so nothing places them.

CSV files are written with a header row, comma separators, ``\\n`` line
endings and UTF-8 encoding.  The ``csv`` module renders a float with
``repr``, so ``float()`` of a field recovers the exact value; result objects
hold Python ints and floats (``.tolist()`` of the numpy results), never
numpy scalars, whose ``repr`` is not a number.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from collections import namedtuple

import numpy as np

from . import bounds
from ._ranges import check, check_levels
from .scheme import (DisjunctionOracle, Population, SchemeConfig,
                     optimal_choice_probability, run_scheme_fast,
                     sample_slots_until_exact, surplus_steps)
# The node-level reference scheme; no batch runs it, but perfbench/tracing.py
# patches it under this name.
from .scheme import run_scheme  # noqa: F401

TYPE_CHECKING = False  # importing typing would cost start-up
if TYPE_CHECKING:
    from .channel import NoiseModel

__all__ = [
    "TRIAL_BLOCK",
    "RunRecord",
    "ErrorCurve",
    "ExpectationTrace",
    "EndToEndSummary",
    "trial_seed",
    "default_slot_cap",
    "default_slot_grid",
    "simulate_until_exact",
    "run_until_exact_batch",
    "build_error_curve",
    "expectation_trace",
    "decode_active_rows",
    "end_to_end_trial",
    "run_end_to_end_batch",
    "export_csv",
]

TRIAL_BLOCK = 4096  # trials per seeded block of until-exact and trace batches


def trial_seed(seed_base: int, index: int) -> int:
    """64-bit seed of trial ``index``: SeedSequence((seed_base, index)) hashed down.

    No batch seeds per trial any more; perfbench/tracing.py patches this name.
    """
    check("index", index)
    ss = np.random.SeedSequence((seed_base, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _block_rng(seed_base: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed_base, block))))


def _block_sizes(trials: int, block: int = TRIAL_BLOCK) -> list[int]:
    return [min(block, trials - lo) for lo in range(0, trials, block)]


def _end_to_end_block(slots: int) -> int:
    """Trials per seeded block of an end-to-end batch: about 2**16 slots."""
    return max(1, (1 << 16) // max(slots, 1))


def default_slot_cap(n_inactive: int, k: int) -> int:
    """Hard stop for run-until-exact: 100x the typical e(k+1)ln N scale."""
    grown = max(1.0, math.log(max(n_inactive, 1)))
    return math.ceil(100.0 * math.e * (k + 1) * grown)


def default_slot_grid(max_slot: int, step: int) -> tuple[int, ...]:
    """Slot grid the error curve is evaluated on: 0..max_slot in ``step`` strides."""
    check("max_slot", max_slot)
    check("step", step)
    return tuple(range(0, max_slot + 1, step))


class RunRecord(namedtuple("RunRecord", "trial_seed slots_until_exact surplus_trace",
                           defaults=(None,))):
    """Result of one until-exact trial.

    ``slots_until_exact`` is the slot at which the potential set became the
    active set; ``None`` means the trial was censored at the slot cap (it
    counts as a failure at every grid point).  ``surplus_trace`` holds the
    surplus after 0, 1, ... slots when the trial collected it, else ``None``.
    """

    __slots__ = ()


class ErrorCurve(namedtuple("ErrorCurve",
                            "slot_grid observed_frequency theoretical_bound trials")):
    """Observed error frequency per grid slot, paired with the analytic bound."""

    __slots__ = ()


class ExpectationTrace(namedtuple("ExpectationTrace",
                                  "slots empirical_mean std_error predicted_mean")):
    """Per-slot surplus mean with standard errors and the analytic prediction."""

    __slots__ = ()


class EndToEndSummary(namedtuple("EndToEndSummary",
                                 "trials failures failure_rate conditional_failure_rate "
                                 "two_epsilon slots repetitions total_channel_uses")):
    """Failure statistics of an end-to-end batch plus its channel budget.

    ``conditional_failure_rate`` is the mean over trials of each trial's
    failure probability given its decoded slots: 1 after an eviction, else
    ``1 - (1 - (1-p)**F)**N`` for F slots decoded false.  It estimates the
    same failure probability as ``failure_rate`` with less variance.
    """

    __slots__ = ()


def simulate_until_exact(n_inactive: int, k: int, p: float, seed: int,
                         slot_cap: int | None = None,
                         collect_trace: bool = False) -> RunRecord:
    """One run of the surplus kernel until the potential set is exact.

    The kernel is identical in law to the node-level scheme with the
    error-free oracle; draws come from ``numpy.random.default_rng(seed)``.
    Stops at ``slot_cap`` (default :func:`default_slot_cap`) and reports a
    censored record if the surplus is still positive there.  Without a trace
    the slot count is sampled in O(1) (:func:`sample_slots_until_exact`);
    with ``collect_trace`` the surplus is stepped slot by slot through
    :func:`run_scheme_fast` and the count is read off that path.
    """
    cap = default_slot_cap(n_inactive, k) if slot_cap is None else slot_cap
    if not collect_trace:
        slots = int(sample_slots_until_exact(n_inactive, k, p, cap,
                                             np.random.default_rng(seed), 1)[0])
        return RunRecord(trial_seed=seed, slots_until_exact=None if slots < 0 else slots)
    run = run_scheme_fast(Population(n_inactive + k, frozenset(range(k))),
                          SchemeConfig(p, cap, seed))
    hit = run.slots_until_exact
    trace = run.surplus_trace if hit is None else run.surplus_trace[:hit + 1]
    return RunRecord(trial_seed=seed, slots_until_exact=hit, surplus_trace=trace)


def _seeded_block(kernel, sizes: list[int], seed_base: int, b: int):
    return kernel(_block_rng(seed_base, b), sizes[b])


def _pool_size(threads: int, tasks: int, cpus: int) -> int:
    """Worker processes for ``tasks`` blocks: never more than threads, tasks or CPUs."""
    return max(1, min(threads, tasks, cpus))


def _run_blocks(kernel, sizes: list[int], seed_base: int, workers: int) -> list:
    """``kernel(rng, size)`` of every seeded block, in block order.

    Each block draws from its own seed, so no result depends on the worker
    count.  ``kernel`` is a module-level function with the batch's
    parameters bound by :func:`functools.partial`, so it pickles into worker
    processes.
    """
    check("workers", workers)
    size = _pool_size(workers, len(sizes), os.cpu_count() or 1)
    block = functools.partial(_seeded_block, kernel, sizes, seed_base)
    if size == 1:
        return list(map(block, range(len(sizes))))
    # imported here: the pool's modules cost a one-worker run ~9 ms of start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(block, range(len(sizes)),
                             chunksize=math.ceil(len(sizes) / (8 * size))))


def run_until_exact_batch(n_inactive: int, k: int, p: float, slot_cap: int,
                          trials: int, seed_base: int, workers: int = 1) -> np.ndarray:
    """Slots until exact of every trial, in trial order (int64, -1 = censored)."""
    check("trials", trials)
    kernel = functools.partial(sample_slots_until_exact, n_inactive, k, p, slot_cap)
    return np.concatenate(_run_blocks(kernel, _block_sizes(trials), seed_base, workers))


def build_error_curve(slots_until_exact: np.ndarray, slot_grid: tuple[int, ...],
                      n_inactive: int, k: int) -> ErrorCurve:
    """Observed frequency of non-recovery per grid slot.

    ``slots_until_exact`` holds one entry per trial, -1 for a censored trial.
    A trial counts as failed at grid slot L when it needed more than L slots;
    censored trials count as failed everywhere.
    """
    finished = np.asarray(slots_until_exact, dtype=np.int64)
    trials = len(finished)
    if trials == 0:
        raise ValueError("need at least one trial")
    grid = check_levels(slot_grid)
    if len(grid) == 0:
        raise ValueError("slot_grid must not be empty")
    ordered = np.sort(np.where(finished < 0, np.iinfo(np.int64).max, finished))
    observed = (trials - np.searchsorted(ordered, grid, side="right")) / trials
    bound = bounds.theoretical_error_curve(n_inactive, k, grid)
    return ErrorCurve(slot_grid=tuple(grid.tolist()),
                      observed_frequency=tuple(observed.tolist()),
                      theoretical_bound=tuple(bound.tolist()),
                      trials=trials)


def _trace_block(n_inactive: int, k: int, p: float, horizon: int,
                 rng: np.random.Generator, size: int) -> np.ndarray:
    """Per-slot sum (row 0) and sum of squares (row 1) of ``size`` trials' surplus."""
    sums = np.zeros((2, horizon + 1))
    for i, surplus in enumerate(surplus_steps(n_inactive, k, p, horizon, rng, size)):
        values = surplus.astype(float)
        sums[:, i] = values.sum(), values @ values
    return sums


def expectation_trace(n_inactive: int, k: int, p: float, trials: int, horizon: int,
                      seed_base: int = 0, workers: int = 1) -> ExpectationTrace:
    """Empirical mean surplus per slot over ``trials`` surplus-kernel runs.

    Each seeded block of trials is stepped together by
    :func:`gtmac.scheme.surplus_steps`; block sums add up in block order.
    Slot 0 is the deterministic starting surplus.  ``std_error`` is the
    sample standard deviation over trials divided by sqrt(trials); the
    prediction column is :func:`gtmac.bounds.expected_remaining`.
    """
    check("trace_trials", trials)
    check("horizon", horizon)
    kernel = functools.partial(_trace_block, n_inactive, k, p, horizon)
    sums, sums_sq = sum(_run_blocks(kernel, _block_sizes(trials), seed_base, workers),
                        np.zeros((2, horizon + 1)))
    mean = sums / trials
    variance = np.maximum(sums_sq - trials * mean * mean, 0.0) / (trials - 1)
    std_error = np.sqrt(variance / trials)
    predicted = bounds.expected_remaining(n_inactive, k, p, np.arange(horizon + 1))
    return ExpectationTrace(tuple(range(horizon + 1)), tuple(mean.tolist()),
                            tuple(std_error.tolist()), tuple(predicted.tolist()))


def decode_active_rows(k: int, p: float, shape, oracle: DisjunctionOracle,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Run the scheme on the k active nodes only: (an active node evicted, F).

    ``shape`` is ``slots`` for one run or ``(trials, slots)`` for a block of
    runs, one per row.  Each active node joins a slot with probability p, so
    a slot's sender count is Bin(k, p); the counts are drawn from ``rng``
    and decoded in one ``oracle.decode_block`` call.  A slot with a sender
    decoded false evicts an active node; F is the number of slots decoded
    false.  Both results hold one entry per run.  An inactive node sends 0,
    so it never changes a decode: given F, each of them survives the run
    independently with probability ``(1-p)**F``.
    """
    senders = rng.binomial(k, p, shape)
    decoded = np.asarray(oracle.decode_block(senders), dtype=bool)
    if decoded.shape != senders.shape:
        raise ValueError("oracle returned wrong number of decoded slots")
    cleared = ~decoded
    return ((senders > 0) & cleared).any(axis=-1), np.count_nonzero(cleared, axis=-1)


def _conditional_failure(n_inactive: int, evicted: np.ndarray,
                         survive: np.ndarray) -> np.ndarray:
    """P(trial fails | evicted, F) per trial: 1 - (1 - survive)**N when not evicted.

    ``survive`` is ``(1-p)**F``, each inactive node's chance to outlast the run.
    """
    fail = np.full(survive.shape, float(n_inactive > 0))  # survive = 1: all N stay
    live = survive < 1.0
    fail[live] = -np.expm1(n_inactive * np.log1p(-survive[live]))
    return np.where(evicted, 1.0, fail)


def end_to_end_trial(n_inactive: int, k: int, noise: NoiseModel, power: float,
                     plan: bounds.ChannelUsePlan, rng: np.random.Generator,
                     trials: int) -> tuple[np.ndarray, np.ndarray]:
    """A block of ``trials`` full noisy-channel trials, drawn from their exact law.

    Returns, per trial, whether the active set was recovered, and the
    trial's failure probability given (evicted, F), where F is the number of
    slots decoded false.

    ``plan`` is :func:`gtmac.bounds.plan_channel_uses` of the batch: its slot
    budget targets elimination error eps and its repetition length targets
    per-slot decoding error ``eps/slots``, so the failure probability is at
    most ``2*eps``.  ``noise`` is the channel's actual noise; the plan is
    sized for the *declared* norm bound K, which must dominate the noise's
    true norm but need not equal it.

    The (trials, slots) sender counts are drawn and decoded by
    :func:`decode_active_rows` with p = 1/(k+1), through one oracle whose
    schedule restarts at step 0 in every trial.  A trial fails on an
    eviction; otherwise it succeeds iff none of the N inactive nodes
    survives, a Bin(N, (1-p)**F) draw equal to zero.  This is the law of
    :func:`gtmac.scheme.run_scheme`'s final mask equalling the active mask,
    in O(trials * slots) time and memory whatever N is.  With no inactive
    node the plan has no slot and the potential set starts exact.
    """
    check("trials", trials)
    if plan.slots == 0:
        return np.ones(trials, dtype=bool), np.zeros(trials)
    from .channel import RepetitionDisjunctionOracle  # only e2e runs need the channel

    p = optimal_choice_probability(k)
    oracle = RepetitionDisjunctionOracle(noise, power, plan.repetitions, rng)
    evicted, false_slots = decode_active_rows(k, p, (trials, plan.slots), oracle, rng)
    survive = (1.0 - p) ** false_slots
    recovered = ~evicted & (rng.binomial(n_inactive, survive) == 0)
    return recovered, _conditional_failure(n_inactive, evicted, survive)


def run_end_to_end_batch(n_inactive: int, k: int, eps: float, noise: NoiseModel,
                         norm_bound: float, power: float, tail_constant: float,
                         trials: int, seed_base: int,
                         workers: int = 1) -> tuple[EndToEndSummary, np.ndarray]:
    """All end-to-end trials: the failure summary and each trial's success.

    The channel-use plan depends only on the batch's parameters; it is
    computed once and shared by every trial.  ``norm_bound`` is the declared
    K the plan is sized for.  Trials are drawn in seeded blocks (see the
    module docstring).  The second result holds one bool per trial, in trial
    order.
    """
    check("trials", trials)
    plan = bounds.plan_channel_uses(n_inactive, k, eps, norm_bound, power, tail_constant)
    kernel = functools.partial(end_to_end_trial, n_inactive, k, noise, power, plan)
    sizes = _block_sizes(trials, _end_to_end_block(plan.slots))
    parts, conditional = zip(*_run_blocks(kernel, sizes, seed_base, workers))
    successes = np.concatenate(parts)
    failures = trials - int(np.count_nonzero(successes))
    summary = EndToEndSummary(
        trials=trials,
        failures=failures,
        failure_rate=failures / trials,
        conditional_failure_rate=float(np.concatenate(conditional).mean()),
        two_epsilon=2.0 * eps,
        slots=plan.slots,
        repetitions=plan.repetitions,
        total_channel_uses=plan.total,
    )
    return summary, successes


# --- CSV layer ---------------------------------------------------------------

_ERROR_CURVE_HEADER = ["l", "observed_frequency", "theoretical_bound", "trials"]
_TRACE_HEADER = ["slot", "empirical_mean", "std_error", "predicted_mean"]
_END_TO_END_HEADER = ["trials", "failures", "failure_rate", "two_epsilon",
                      "l", "m", "total_channel_uses"]


def _write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_csv(result, path: str) -> None:
    """Write a result object to ``path``; identical inputs give identical bytes."""
    if isinstance(result, ErrorCurve):
        rows = [[l, f, b, result.trials]
                for l, f, b in zip(result.slot_grid, result.observed_frequency,
                                   result.theoretical_bound)]
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
