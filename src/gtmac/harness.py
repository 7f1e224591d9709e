"""Monte Carlo harness: run-until-exact experiments, traces, end-to-end trials, CSV.

Reproducibility contract
------------------------
A batch is fully determined by its parameters and ``seed_base``.

Until-exact and trace batches are seeded per block: trials
``b*TRIAL_BLOCK .. (b+1)*TRIAL_BLOCK - 1``, with ``TRIAL_BLOCK`` = 8192, are
drawn together by the surplus kernel from ``SeedSequence((seed_base, b))``:
blocks and slots share one seed rule, :func:`gtmac.scheme.slot_rng`, which
this module binds at import.  Every block of every batch returns exact
integer counts, which add up in any grouping: workers pre-add ranges of them,
sized from the measured rate, and the parent adds each range as it lands;
nothing is held per trial or per block, and no result depends on the worker
count or the split.

End-to-end batches are seeded per block by the same rule: a block holds
``max(1, 2**16 // slots)`` trials, a constant of the batch's ℓ, and block
``b`` is drawn by :func:`end_to_end_trial` from ``SeedSequence((seed_base,
b))``; any block can be replayed in isolation, a single trial cannot.  The
block's one stream draws every trial's per-slot sender counts, then the
channel noise of all of them, then one uniform per trial, below which the
trial fails: its failure probability given the decodes, by the survivors law
of :mod:`gtmac.bounds`.  Which nodes are active does not matter, so nothing
places them.

CSV files are written with a header row, comma separators, ``\\n`` line
endings and UTF-8 encoding.  Each field is the ``repr`` of its value, as the
``csv`` module would write it (no field needs quoting), so ``float()`` of a
field recovers the exact value; result objects (an :class:`ErrorCurve`'s
summary fields too) hold Python ints and floats, never numpy scalars, whose
``repr`` is not a number.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import time
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
# 8192 halves the trace kernel's per-slot overhead per run.
TRIAL_BLOCK = 8192
_MAX_BINS = 1 << 24  # of an until-exact histogram, 128 MiB: k up to ~3e5 at N = 10**4
# Linux forks, ~2x faster than 3.14's forkserver and safe: no worker calls BLAS
_START_METHOD = "fork" if sys.platform == "linux" else "spawn"  # spawn: macOS's default
# Seconds of one worker's work a range of blocks holds: an interrupt waits for
# about this long, and the parent wakes ~5 times a worker-second.
_RANGE_SECONDS = 0.2


def trial_seed(seed_base: int, index: int) -> int:
    """64-bit seed of trial ``index``: SeedSequence((seed_base, index)) hashed down.
    No batch seeds per trial any more; perfbench/tracing.py patches this name."""
    check("index", index)
    return int(np.random.SeedSequence((seed_base, index)).generate_state(1, np.uint64)[0])


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


def _seeded_blocks(kernel, trials: int, block: int, seed_base: int, blocks: range):
    """Each block's ``kernel(rng, size)``, added up by :func:`_add_counts`."""
    results = (kernel(_block_rng(seed_base, b), min(block, trials - b * block)) for b in blocks)
    return functools.reduce(_add_counts, results)


def _pool_size(threads: int, tasks: int, cpus: int) -> int:
    """Worker processes for ``tasks`` blocks: never more than threads, tasks or CPUs."""
    return max(1, min(threads, tasks, cpus))


def _run_blocks(kernel, trials: int, block: int, seed_base: int, workers: int):
    """The sum of ``kernel(rng, size)``'s counts over every seeded block of ``trials``.

    Block b holds trials ``b*block`` up to the next block's first and draws
    from its own seed.  Workers add contiguous ranges of blocks and the parent
    adds each range as it lands, by :func:`_add_counts`: the counts are exact,
    so no result depends on the worker count, the split or the order.  Ranges
    are made one at a time, at most two a worker in flight, each about
    ``_RANGE_SECONDS`` of a worker's work at the rate the finished blocks
    show (the first are single blocks) and at most a 2·workers-th of the
    blocks left; so an interrupt or error waits only for the ranges already
    running, and cancels the rest.  ``kernel`` pickles into workers,
    which only this function starts (by ``_START_METHOD``; one that dies
    raises ``ChildProcessError``); nothing is made per block before it runs.
    """
    check("workers", workers)
    count = -(-trials // block)
    size = _pool_size(workers, count, os.cpu_count() or 1)
    run = functools.partial(_seeded_blocks, kernel, trials, block, seed_base)
    if size == 1:
        return run(range(count))
    # imported here: the pool's modules cost a one-worker run ~9 ms of start-up
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import get_context

    total, lo, done, running = None, 0, 0, {}
    try:
        with ProcessPoolExecutor(size, mp_context=get_context(_START_METHOD)) as pool:
            start = time.perf_counter()
            try:
                while running or lo < count:
                    while lo < count and len(running) < 2 * size:
                        rate = done / (size * (time.perf_counter() - start)) if done else 0
                        step = max(1, min(int(_RANGE_SECONDS * rate),
                                          -(-(count - lo) // (2 * size))))
                        running[pool.submit(run, range(lo, lo + step))] = step
                        lo += step
                    for future in wait(running, return_when=FIRST_COMPLETED).done:
                        done += running.pop(future)
                        counts = future.result()
                        total = counts if total is None else _add_counts(total, counts)
            except BaseException:
                for future in running:
                    future.cancel()  # exit waits only for the ranges already running
                raise
        return total
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from exc


def _until_exact_block(n_inactive: int, k: int, p: float, slot_cap: int,
                       rng: np.random.Generator, size: int) -> np.ndarray:
    """Histogram of ``size`` trials: bin 0 counts the censored ones, bin s + 1
    the ones exact after s slots, up to the last; at most ``_MAX_BINS`` bins."""
    slots = sample_slots_until_exact(n_inactive, k, p, slot_cap, rng, size)
    if slots.max() + 2 > _MAX_BINS:
        raise MemoryError(f"{slots.max()} slots until exact overflow a {_MAX_BINS}-bin histogram")
    return np.bincount(slots + 1, minlength=2)


def _add_counts(counts: np.ndarray, more: np.ndarray) -> np.ndarray:
    """``counts + more``, the one with fewer rows padded with zeros, added into the
    other: int64 histograms and tables, and object arrays of Python ints, alike."""
    longer, shorter = (counts, more) if len(counts) >= len(more) else (more, counts)
    longer[:len(shorter)] += shorter
    return longer


def run_until_exact_batch(n_inactive: int, k: int, p: float, slot_cap: int,
                          trials: int, seed_base: int, workers: int = 1) -> np.ndarray:
    """int64 histogram of all trials: bin 0 the censored, bin s + 1 those exact after s slots."""
    check("trials", trials)
    kernel = functools.partial(_until_exact_block, n_inactive, k, p, slot_cap)
    return _run_blocks(kernel, trials, TRIAL_BLOCK, seed_base, workers)


def build_error_curve(counts: np.ndarray, slot_grid: Sequence[int],
                      n_inactive: int, k: int) -> ErrorCurve:
    """Observed frequency of non-recovery per grid slot, and the trials' summary.

    ``counts`` is a histogram from :func:`run_until_exact_batch`, ``slot_grid``
    slots >= 0, as a tuple or a ``range`` holds them.  A trial fails at grid slot
    L if it needed more than L slots, a censored one everywhere: all is read off
    one cumulative count."""
    finished = np.cumsum(counts[1:])  # finished[s]: trials exact within s slots
    trials = int(np.sum(counts))
    grid = check_levels(slot_grid)
    if len(counts) < 2 or trials == 0 or len(grid) == 0:
        raise ValueError("need a trial, bins for censored and 0 slots, and a slot_grid point")
    done = int(finished[-1])
    observed = (trials - finished[np.minimum(grid, len(finished) - 1)]) / trials
    bound = bounds.theoretical_error_curve(n_inactive, k, grid)
    # the middle one or two finished trials (as statistics.median takes them), and the last
    low, high, top = (np.searchsorted(finished, [(done - 1) // 2, done // 2, done - 1],
                                      side="right").tolist() if done else [math.nan] * 3)
    return ErrorCurve(slot_grid=tuple(grid.tolist()),
                      observed_frequency=tuple(observed.tolist()),
                      theoretical_bound=tuple(bound.tolist()),
                      trials=trials, censored=trials - done,
                      median_slots=low if done % 2 else (low + high) / 2,
                      max_slots=top)


_LIMB = 21  # bits: a limb product summed over up to 2**21 values stays in int64


def _limb_sums(values: np.ndarray, limbs: int) -> tuple[int, int]:
    """Exact sums of ``values`` below 2**(21*limbs) and of their squares, as ints:
    each value is split into 21-bit limbs, summed, and multiplied pairwise in int64."""
    parts = values[None] if limbs == 1 else values >> np.arange(0, _LIMB * limbs, _LIMB)[:, None]
    parts[:-1] &= (1 << _LIMB) - 1  # the top limb is below 2**21 already
    # einsum's own loop: int64 has no BLAS, and no BLAS thread runs beside a worker
    products = np.einsum("ir,jr->ij", parts, parts).tolist()
    return (sum(part << _LIMB * i for i, part in enumerate(parts.sum(axis=1).tolist())),
            sum(product << _LIMB * (i + j)
                for i, row in enumerate(products) for j, product in enumerate(row)))


def _trace_block(n_inactive: int, k: int, p: float, horizon: int,
                 rng: np.random.Generator, size: int) -> np.ndarray:
    """Per-slot sum and sum of squares of ``size`` trials' surplus, a row of ints a
    slot up to the last with a live run: an exact run adds 0 to both, and a
    surplus never exceeds N, which sets its limbs."""
    limbs = max(1, -(-n_inactive.bit_length() // _LIMB))
    rows = []
    for live in _live_steps(n_inactive, k, p, horizon, rng, size):
        if not live.size:
            break
        rows.append(_limb_sums(live, limbs))
    return np.array(rows, dtype=object).reshape(-1, 2)


def expectation_trace(n_inactive: int, k: int, p: float, trials: int, horizon: int,
                      seed_base: int = 0, workers: int = 1) -> ExpectationTrace:
    """Empirical mean surplus per slot over ``trials`` surplus-kernel runs.

    Each seeded block of trials is stepped together by the step kernel of
    :func:`gtmac.scheme.surplus_steps`, whose live runs add to exact int sums
    S1 and S2 of the surplus and its square.  Slot 0 is the deterministic
    starting surplus.  The mean S1/T and ``std_error``, the sample standard
    deviation over sqrt(T), ``sqrt((T*S2 - S1**2) / (T**2 (T-1)))``, are taken
    from the exact ints; the prediction column is :func:`gtmac.bounds.expected_remaining`.
    Every parameter is checked before any block runs.
    """
    n_inactive, k, p = check("n_inactive", n_inactive), check("k", k), check("p", p)
    trials, horizon = check("trace_trials", trials), check("horizon", horizon)
    kernel = functools.partial(_trace_block, n_inactive, k, p, horizon)
    sums = _run_blocks(kernel, trials, TRIAL_BLOCK, seed_base, workers).tolist()
    sums += [[0, 0]] * (horizon + 1 - len(sums))  # no run is live past the last row
    predicted = bounds.expected_remaining(n_inactive, k, p, np.arange(horizon + 1))
    scale = trials * trials * (trials - 1)
    return ExpectationTrace(tuple(range(horizon + 1)), tuple(s1 / trials for s1, _ in sums),
                            tuple(math.sqrt((trials * s2 - s1 * s1) / scale) for s1, s2 in sums),
                            tuple(predicted.tolist()))


def _comp(n_inactive: int, p: float, senders: np.ndarray, decoded: np.ndarray,
          rng: np.random.Generator) -> np.ndarray:
    """The COMP receiver on a block of decoded slots, one trial per row, as a table.

    ``senders`` holds each slot's count of active senders, ``decoded`` its
    decoded bit.  A slot with a sender decoded false evicts an active node,
    and the trial fails.  Otherwise each of the N inactive nodes outlasts the
    F slots decoded false with probability (1-p)**F independently, so the
    trial fails with probability ``bounds._survivors`` at F; it fails iff one
    ``rng.random()`` draw lies below that, 1 after an eviction.  Returns an
    int64 table: row 0 counts the trials that evicted, row F + 1 the others
    that cleared F slots, up to the largest F; column 1 those that failed.
    """
    cleared = ~decoded
    evicted = ((senders > 0) & cleared).any(axis=-1)
    false_slots = np.count_nonzero(cleared, axis=-1)
    survivors = bounds._survivors(n_inactive, p, np.arange(false_slots.max() + 1))
    failed = rng.random(len(evicted)) < np.where(evicted, 1.0, survivors[false_slots])
    row = np.where(evicted, 0, false_slots + 1)
    return np.bincount(2 * row + failed, minlength=2 * len(survivors) + 2).reshape(-1, 2)


def end_to_end_trial(n_inactive: int, k: int, noise: NoiseModel, power: float, slots: int,
                     repetitions: int, rng: np.random.Generator, trials: int) -> np.ndarray:
    """A block of ``trials`` full noisy-channel trials, drawn from their exact law.

    Returns the int64 table of :func:`_comp`: per eviction or F slots decoded
    false, the trials that recovered the active set and that failed.

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
        return np.array([[0, 0], [0, trials] if n_inactive else [trials, 0]])
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
    Trials are drawn in seeded blocks (see the module docstring), whose
    tables add up.  The conditional failure rate is (evicted + sum_F h[F] *
    survivors(F)) / trials for h the table's histogram of F: the COMP law of
    :func:`gtmac.bounds.exact_end_to_end_failure`, h in place of Bin(ℓ, q).
    """
    n_inactive, k = check("n_inactive", n_inactive), check("k", k)
    check("eps", eps)
    trials, slots = check("trials", trials), check("slots", slots)
    repetitions = check("repetitions", repetitions) if slots else repetitions
    kernel = functools.partial(end_to_end_trial, n_inactive, k, noise, power, slots, repetitions)
    table = _run_blocks(kernel, trials, _end_to_end_block(slots), seed_base, workers)
    evicted, *held = table.sum(axis=1).tolist()
    survivors = bounds._survivors(n_inactive, optimal_choice_probability(k), np.arange(len(held)))
    failures = int(table[:, 1].sum())
    return EndToEndSummary(
        trials=trials, failures=failures, failure_rate=failures / trials,
        conditional_failure_rate=math.fsum([evicted, *(held * survivors).tolist()]) / trials,
        two_epsilon=2.0 * eps, slots=slots, repetitions=repetitions,
        total_channel_uses=slots * repetitions)


# --- CSV layer ---------------------------------------------------------------

_ERROR_CURVE_HEADER = ["l", "observed_frequency", "theoretical_bound", "trials"]
_TRACE_HEADER = ["slot", "empirical_mean", "std_error", "predicted_mean"]
_END_TO_END_HEADER = ["trials", "failures", "failure_rate", "two_epsilon",
                      "l", "m", "total_channel_uses"]


def _write_rows(path: str, header: list[str], rows) -> None:
    """The header, then every field's ``repr``: one ``%`` fills a ``%r`` per field of
    4096 rows, so the text held at once is one chunk's, not the file's."""
    template, rows = ",".join(["%r"] * len(header)) + "\n", iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while cells := tuple(itertools.chain.from_iterable(itertools.islice(rows, 4096))):
            fh.write(template * (len(cells) // len(header)) % cells)


def export_csv(result, path: str) -> None:
    """Write a result object to ``path``; identical inputs give identical bytes."""
    if isinstance(result, ErrorCurve):
        rows = zip(result.slot_grid, result.observed_frequency, result.theoretical_bound,
                   itertools.repeat(result.trials))
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
