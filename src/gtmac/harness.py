"""Monte Carlo harness: run-until-exact experiments, traces, end-to-end trials, CSV.

Reproducibility contract
------------------------
A batch is fully determined by its parameters and ``seed_base``.

Until-exact and trace batches are seeded per block: trials
``b*TRIAL_BLOCK .. (b+1)*TRIAL_BLOCK - 1`` are drawn together by the surplus
kernel from ``SeedSequence((seed_base, b))``.  The block size is a constant and
worker chunks are whole blocks, so results do not depend on execution order
or on how many workers ran the batch.

End-to-end trials are seeded per trial: trial ``t`` uses the 64-bit seed
``trial_seed(seed_base, t)``, obtained by hashing the pair ``(seed_base, t)``
through ``numpy.random.SeedSequence``, so any trial can be replayed in
isolation.  The trial splits its seed into three child streams
(``SeedSequence(seed).spawn(3)``): experiment setup (which nodes are active),
the scheme's common randomness, and the channel noise.

CSV files are written with a header row, comma separators, ``\\n`` line
endings and UTF-8 encoding; floats are rendered with ``repr`` so parsing
them back recovers the exact values.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds
from ._ranges import check
from .channel import (ChannelSpec, NoiseModel, RepetitionCodeParams,
                      RepetitionDisjunctionOracle)
from .scheme import (Population, SchemeConfig, optimal_choice_probability, run_scheme,
                     run_scheme_fast, sample_slots_until_exact, surplus_steps)

__all__ = [
    "DEFAULT_TRIALS",
    "TRIAL_BLOCK",
    "ExperimentConfig",
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
    "end_to_end_trial",
    "run_end_to_end_batch",
    "export_csv",
    "read_error_curve",
    "read_expectation_trace",
    "read_end_to_end_summary",
]

DEFAULT_TRIALS = 20_000  # default Monte Carlo sample size per experiment
TRIAL_BLOCK = 4096  # trials per seeded block of until-exact and trace batches


def trial_seed(seed_base: int, index: int) -> int:
    """64-bit seed of trial ``index``: SeedSequence((seed_base, index)) hashed down."""
    check("index", index)
    ss = np.random.SeedSequence((seed_base, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _block_rng(seed_base: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed_base, block))))


def _block_sizes(trials: int) -> list[int]:
    return [min(TRIAL_BLOCK, trials - lo) for lo in range(0, trials, TRIAL_BLOCK)]


def default_slot_cap(n_inactive: int, k: int) -> int:
    """Hard stop for run-until-exact: 100x the typical e(k+1)ln N scale."""
    grown = max(1.0, math.log(max(n_inactive, 1)))
    return math.ceil(100.0 * math.e * (k + 1) * grown)


def default_slot_grid(max_slot: int = 2500, step: int = 1) -> tuple[int, ...]:
    """Slot grid the error curve is evaluated on: 0..max_slot in ``step`` strides."""
    check("max_slot", max_slot)
    check("step", step)
    return tuple(range(0, max_slot + 1, step))


@dataclass(frozen=True)
class ExperimentConfig:
    """Aggregate description of one batch experiment.

    ``mode`` selects what the batch runners do: ``"until_exact"`` (run to an
    exact potential set, error curves) or ``"end_to_end"`` (noisy channel,
    repetition code).  ``choice_probability`` of ``None`` means the optimum
    ``1/(k+1)``.  The channel fields are only consulted in end-to-end mode.
    """

    n_inactive: int
    k: int
    mode: str = "until_exact"
    choice_probability: float | None = None
    trials: int = DEFAULT_TRIALS
    seed_base: int = 0
    slot_cap: int | None = None
    eps: float | None = None
    noise: NoiseModel | None = None
    norm_bound: float | None = None
    power: float | None = None
    tail_constant: float = bounds.GAUSSIAN_TAIL_CONSTANT

    def __post_init__(self) -> None:
        if self.mode not in ("until_exact", "end_to_end"):
            raise ValueError(f"unknown mode {self.mode!r}")
        check("n_inactive", self.n_inactive)
        check("k", self.k)
        check("trials", self.trials)
        if self.choice_probability is not None:
            check("p", self.choice_probability)
        if self.slot_cap is not None:
            check("slot_cap", self.slot_cap)
        if self.mode == "end_to_end":
            missing = [name for name in ("eps", "noise", "norm_bound", "power")
                       if getattr(self, name) is None]
            if missing:
                raise ValueError(f"end_to_end mode needs {', '.join(missing)}")
            for name in ("eps", "norm_bound", "power", "tail_constant"):
                check(name, getattr(self, name))

    def effective_choice_probability(self) -> float:
        if self.choice_probability is not None:
            return self.choice_probability
        return optimal_choice_probability(self.k)


@dataclass(frozen=True)
class RunRecord:
    """Result of one trial.

    ``slots_until_exact`` is the slot at which the potential set became the
    active set; ``None`` means the trial was censored at the slot cap (it
    counts as a failure at every grid point).  ``success`` is only set by
    end-to-end trials (exact recovery within the fixed budget).
    """

    trial_seed: int
    slots_until_exact: int | None
    surplus_trace: tuple[int, ...] | None = None
    success: bool | None = None


@dataclass(frozen=True)
class ErrorCurve:
    """Observed error frequency per grid slot, paired with the analytic bound."""

    slot_grid: tuple[int, ...]
    observed_frequency: tuple[float, ...]
    theoretical_bound: tuple[float, ...]
    trials: int


@dataclass(frozen=True)
class ExpectationTrace:
    """Per-slot surplus mean with standard errors and the analytic prediction."""

    slots: tuple[int, ...]
    empirical_mean: tuple[float, ...]
    std_error: tuple[float, ...]
    predicted_mean: tuple[float, ...]


@dataclass(frozen=True)
class EndToEndSummary:
    """Failure statistics of an end-to-end batch plus its channel budget."""

    trials: int
    failures: int
    failure_rate: float
    two_epsilon: float
    slots: int
    repetitions: int
    total_channel_uses: int


def _slot_cap(n_inactive: int, k: int, slot_cap: int | None) -> int:
    return default_slot_cap(n_inactive, k) if slot_cap is None else slot_cap


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
    cap = _slot_cap(n_inactive, k, slot_cap)
    if not collect_trace:
        slots = int(sample_slots_until_exact(n_inactive, k, p, cap,
                                             np.random.default_rng(seed), 1)[0])
        return RunRecord(trial_seed=seed, slots_until_exact=None if slots < 0 else slots)
    run = run_scheme_fast(Population(n_inactive + k, frozenset(range(k))),
                          SchemeConfig(p, cap, seed))
    hit = run.slots_until_exact
    trace = run.surplus_trace if hit is None else run.surplus_trace[:hit + 1]
    return RunRecord(trial_seed=seed, slots_until_exact=hit, surplus_trace=trace)


def _until_exact_chunk(args: tuple) -> np.ndarray:
    cfg, lo, hi = args
    p = cfg.effective_choice_probability()
    cap = _slot_cap(cfg.n_inactive, cfg.k, cfg.slot_cap)
    sizes = _block_sizes(cfg.trials)
    return np.concatenate([
        sample_slots_until_exact(cfg.n_inactive, cfg.k, p, cap,
                                 _block_rng(cfg.seed_base, b), sizes[b])
        for b in range(lo, hi)
    ])


def _pool_size(threads: int, tasks: int, cpus: int) -> int:
    """Worker processes for ``tasks`` chunks: never more than threads, tasks or CPUs."""
    return max(1, min(threads, tasks, cpus))


def _chunk_ranges(units: int, workers: int) -> list[tuple[int, int]]:
    chunk = max(1, math.ceil(units / (workers * 8)))
    return [(lo, min(lo + chunk, units)) for lo in range(0, units, chunk)]


def _run_chunked(worker, cfg: ExperimentConfig, units: int, workers: int) -> list:
    """``worker((cfg, lo, hi))`` over ``0..units`` in chunks; the parts in order."""
    check("workers", workers)
    size = _pool_size(workers, units, os.cpu_count() or 1)
    if size == 1:
        return [worker((cfg, 0, units))]
    tasks = [(cfg, lo, hi) for lo, hi in _chunk_ranges(units, size)]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(worker, tasks))


def run_until_exact_batch(cfg: ExperimentConfig, workers: int = 1) -> np.ndarray:
    """Slots until exact of every trial, in trial order (int64, -1 = censored)."""
    if cfg.mode != "until_exact":
        raise ValueError("config mode must be 'until_exact'")
    blocks = len(_block_sizes(cfg.trials))
    return np.concatenate(_run_chunked(_until_exact_chunk, cfg, blocks, workers))


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
    grid = np.asarray(slot_grid)
    if grid.ndim != 1 or len(grid) == 0 or np.any(grid < 0):
        raise ValueError("slot_grid must be a nonempty sequence of slots >= 0")
    ordered = np.sort(np.where(finished < 0, np.iinfo(np.int64).max, finished))
    done = np.searchsorted(ordered, grid, side="right")
    observed = [(trials - int(d)) / trials for d in done]
    bound = [bounds.theoretical_error_curve(n_inactive, k, int(level)) for level in grid]
    return ErrorCurve(slot_grid=tuple(int(v) for v in grid),
                      observed_frequency=tuple(observed),
                      theoretical_bound=tuple(bound),
                      trials=trials)


def expectation_trace(n_inactive: int, k: int, p: float, trials: int,
                      horizon: int, seed_base: int = 0) -> ExpectationTrace:
    """Empirical mean surplus per slot over ``trials`` surplus-kernel runs.

    Each seeded block of trials is stepped together by
    :func:`gtmac.scheme.surplus_steps`.  Slot 0 is the deterministic starting
    surplus.  ``std_error`` is the sample standard deviation over trials
    divided by sqrt(trials); the prediction column is
    :func:`gtmac.bounds.expected_remaining`.
    """
    check("trace_trials", trials)
    check("horizon", horizon)
    sums = np.zeros(horizon + 1)
    sums_sq = np.zeros(horizon + 1)
    for b, size in enumerate(_block_sizes(trials)):
        steps = surplus_steps(n_inactive, k, p, horizon, _block_rng(seed_base, b), size)
        for i, surplus in enumerate(steps):
            values = surplus.astype(float)
            sums[i] += values.sum()
            sums_sq[i] += values @ values
    mean = sums / trials
    variance = np.maximum(sums_sq - trials * mean * mean, 0.0) / (trials - 1)
    std_error = np.sqrt(variance / trials)
    predicted = [bounds.expected_remaining(n_inactive, k, p, i) for i in range(horizon + 1)]
    return ExpectationTrace(
        slots=tuple(range(horizon + 1)),
        empirical_mean=tuple(float(v) for v in mean),
        std_error=tuple(float(v) for v in std_error),
        predicted_mean=tuple(float(v) for v in predicted),
    )


def end_to_end_trial(n_inactive: int, k: int, noise: NoiseModel, power: float,
                     plan: bounds.ChannelUsePlan, seed: int) -> RunRecord:
    """One full noisy-channel trial: run the scheme on ``plan``, check recovery.

    ``plan`` is :func:`gtmac.bounds.plan_channel_uses` of the batch: its slot
    budget targets elimination error eps and its repetition length targets
    per-slot decoding error ``eps/slots``, so the failure probability is at
    most ``2*eps``.  ``noise`` is the channel's actual noise; the plan is
    sized for the *declared* norm bound K, which must dominate the noise's
    true norm but need not equal it.

    Success means the final potential set is exactly the active set.  With
    no inactive node the plan has no slot and the potential set starts exact.
    """
    if plan.slots == 0:
        return RunRecord(trial_seed=seed, slots_until_exact=None, success=True)
    total_nodes = n_inactive + k
    setup_ss, scheme_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    setup_rng = np.random.Generator(np.random.PCG64(setup_ss))
    population = Population.with_random_active_set(total_nodes, k, setup_rng)

    master_seed = int(scheme_ss.generate_state(1, dtype=np.uint64)[0])
    config = SchemeConfig(optimal_choice_probability(k), plan.slots, master_seed)
    channel = ChannelSpec(power=power, noise=noise, num_transmitters=total_nodes)
    params = RepetitionCodeParams(plan.repetitions, plan.slot_error_target)
    oracle = RepetitionDisjunctionOracle(
        channel, params, np.random.Generator(np.random.PCG64(noise_ss)))

    final_mask, _ = run_scheme(population, config, oracle)
    return RunRecord(trial_seed=seed, slots_until_exact=None,
                     success=np.array_equal(final_mask, population.active_mask()))


def _end_to_end_chunk(plan: bounds.ChannelUsePlan, args: tuple) -> list[RunRecord]:
    cfg, lo, hi = args
    return [end_to_end_trial(cfg.n_inactive, cfg.k, cfg.noise, cfg.power, plan,
                             trial_seed(cfg.seed_base, t))
            for t in range(lo, hi)]


def run_end_to_end_batch(cfg: ExperimentConfig,
                         workers: int = 1) -> tuple[EndToEndSummary, list[RunRecord]]:
    """All end-to-end trials plus the aggregate failure summary.

    The channel-use plan depends only on the batch's parameters; it is
    computed once and shared by every trial.
    """
    if cfg.mode != "end_to_end":
        raise ValueError("config mode must be 'end_to_end'")
    plan = bounds.plan_channel_uses(cfg.n_inactive, cfg.k, cfg.eps,
                                    cfg.norm_bound, cfg.power, cfg.tail_constant)
    chunks = _run_chunked(functools.partial(_end_to_end_chunk, plan), cfg,
                          cfg.trials, workers)
    records = [r for part in chunks for r in part]
    failures = sum(1 for r in records if not r.success)
    summary = EndToEndSummary(
        trials=len(records),
        failures=failures,
        failure_rate=failures / len(records),
        two_epsilon=2.0 * cfg.eps,
        slots=plan.slots,
        repetitions=plan.repetitions,
        total_channel_uses=plan.total,
    )
    return summary, records


# --- CSV layer ---------------------------------------------------------------

_ERROR_CURVE_HEADER = ["l", "observed_frequency", "theoretical_bound", "trials"]
_TRACE_HEADER = ["slot", "empirical_mean", "std_error", "predicted_mean"]
_END_TO_END_HEADER = ["trials", "failures", "failure_rate", "two_epsilon",
                      "l", "m", "total_channel_uses"]


def _write_rows(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def export_csv(result, path: str) -> None:
    """Write a result object to ``path``; identical inputs give identical bytes."""
    if isinstance(result, ErrorCurve):
        rows = [[l, f, b, result.trials]
                for l, f, b in zip(result.slot_grid, result.observed_frequency,
                                   result.theoretical_bound)]
        _write_rows(path, _ERROR_CURVE_HEADER, rows)
    elif isinstance(result, ExpectationTrace):
        rows = [list(r) for r in zip(result.slots, result.empirical_mean,
                                     result.std_error, result.predicted_mean)]
        _write_rows(path, _TRACE_HEADER, rows)
    elif isinstance(result, EndToEndSummary):
        rows = [[result.trials, result.failures, result.failure_rate,
                 result.two_epsilon, result.slots, result.repetitions,
                 result.total_channel_uses]]
        _write_rows(path, _END_TO_END_HEADER, rows)
    else:
        raise TypeError(f"no CSV layout for {type(result).__name__}")


def _read_rows(path: str, expected_header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != expected_header:
            raise ValueError(f"unexpected header {header!r} in {path}")
        return list(reader)


def read_error_curve(path: str) -> ErrorCurve:
    rows = _read_rows(path, _ERROR_CURVE_HEADER)
    if not rows:
        raise ValueError(f"{path} has no data rows")
    return ErrorCurve(
        slot_grid=tuple(int(r[0]) for r in rows),
        observed_frequency=tuple(float(r[1]) for r in rows),
        theoretical_bound=tuple(float(r[2]) for r in rows),
        trials=int(rows[0][3]),
    )


def read_expectation_trace(path: str) -> ExpectationTrace:
    rows = _read_rows(path, _TRACE_HEADER)
    return ExpectationTrace(
        slots=tuple(int(r[0]) for r in rows),
        empirical_mean=tuple(float(r[1]) for r in rows),
        std_error=tuple(float(r[2]) for r in rows),
        predicted_mean=tuple(float(r[3]) for r in rows),
    )


def read_end_to_end_summary(path: str) -> EndToEndSummary:
    rows = _read_rows(path, _END_TO_END_HEADER)
    if len(rows) != 1:
        raise ValueError(f"expected exactly one summary row in {path}")
    r = rows[0]
    return EndToEndSummary(
        trials=int(r[0]), failures=int(r[1]), failure_rate=float(r[2]),
        two_epsilon=float(r[3]), slots=int(r[4]), repetitions=int(r[5]),
        total_channel_uses=int(r[6]),
    )
