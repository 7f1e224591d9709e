"""Monte Carlo harness: trial seeding, error curves, traces, CSV determinism."""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from gtmac import bounds, harness, scheme
from gtmac._ranges import check_levels
from gtmac.channel import NoiseModel, RepetitionDisjunctionOracle


def _per_trial(table: np.ndarray, n_inactive: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Each trial of an end-to-end table, in row order: whether it failed, and its
    failure probability given its row -- 1 after an eviction (row 0), else the
    survivors law at the F of row F + 1."""
    law = np.r_[1.0, bounds._survivors(n_inactive, p, np.arange(len(table) - 1))]
    counts = table.ravel()
    return (np.repeat(np.tile([False, True], len(table)), counts),
            np.repeat(np.repeat(law, 2), counts))


def _plan_uses(n_inactive: int, k: int, eps: float) -> tuple[int, int]:
    """The slots and repetitions (l, m) that ``gtmac e2e`` plans at K = P = 1, c = 1/8."""
    plan = bounds.plan_channel_uses(n_inactive, k, eps, 1.0, 1.0, 0.125)
    return plan.slots, plan.repetitions


# --- seeding -----------------------------------------------------------------

def test_trial_seed_is_deterministic_and_spread():
    assert harness.trial_seed(7, 0) == harness.trial_seed(7, 0)
    seeds = {harness.trial_seed(7, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert harness.trial_seed(8, 0) != harness.trial_seed(7, 0)
    assert all(0 <= s < 2**64 for s in seeds)
    with pytest.raises(ValueError):
        harness.trial_seed(7, -1)


def test_default_slot_cap_scales_and_handles_tiny_populations():
    assert harness.default_slot_cap(1, 1) >= 1
    expected = math.ceil(100 * math.e * 21 * math.log(10_000))
    assert harness.default_slot_cap(10_000, 20) == expected


# --- run until exact -----------------------------------------------------------

def test_simulate_until_exact_trivial_cases():
    assert harness.simulate_until_exact(0, 3, 0.3, seed=1).slots_until_exact == 0
    with pytest.raises(ValueError):  # k >= 1
        harness.simulate_until_exact(5, 0, 1.0, seed=2)


def test_simulate_until_exact_censors_at_cap():
    rec = harness.simulate_until_exact(50, 2, 1e-6, seed=3, slot_cap=10)
    assert rec.slots_until_exact is None


def test_simulate_until_exact_is_deterministic():
    # one O(1) draw from default_rng(seed): the batch kernel's single run
    rec = harness.simulate_until_exact(100, 3, 0.25, seed=4)
    assert rec == (4, rec.slots_until_exact) and rec.slots_until_exact > 0
    assert rec == harness.simulate_until_exact(100, 3, 0.25, seed=4)
    cap = harness.default_slot_cap(100, 3)
    draw = scheme.sample_slots_until_exact(100, 3, 0.25, cap, np.random.default_rng(4), 1)
    assert rec.slots_until_exact == int(draw[0])


def test_until_exact_batch_is_worker_count_invariant():
    cap = harness.default_slot_cap(80, 2)
    for trials in (60, 2 * harness.TRIAL_BLOCK + 7):  # one block, then three
        serial = harness.run_until_exact_batch(80, 2, 1 / 3, cap, trials, 5, workers=1)
        parallel = harness.run_until_exact_batch(80, 2, 1 / 3, cap, trials, 5, workers=3)
        # a histogram of every trial, ending at the last finished one
        assert serial.dtype == np.int64 and serial.sum() == trials and serial[-1] > 0
        assert np.array_equal(serial, parallel)
        assert serial[0] == serial[1] == 0  # none censored, none exact at slot 0


def test_until_exact_batch_seeds_fixed_blocks():
    # block b of every batch is drawn from SeedSequence((seed_base, b)); the
    # batch adds up the blocks' histograms bin by bin
    trials, cap = harness.TRIAL_BLOCK + 5, harness.default_slot_cap(80, 2)
    counts = harness.run_until_exact_batch(80, 2, 1 / 3, cap, trials, 6)
    total = np.zeros(0, dtype=np.int64)
    for block, size in enumerate((harness.TRIAL_BLOCK, 5)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((6, block))))
        expected = np.bincount(scheme.sample_slots_until_exact(80, 2, 1 / 3, cap, rng, size) + 1)
        total = np.pad(total, (0, max(0, len(expected) - len(total))))
        total[:len(expected)] += expected
    assert np.array_equal(counts, total)


class BlockRan(Exception):
    """Raised by :func:`refuse_block` (module level, so it pickles into workers)."""


def refuse_block(rng, size):
    raise BlockRan(size)


def block_size(rng, size):
    return np.bincount([size])


@pytest.mark.parametrize("workers", [1, 2])
def test_block_runner_sizes_each_block_from_its_index(workers):
    # each block counts its own size: blocks of 4, 4 and 2, then of 4 and 4
    assert harness._run_blocks(block_size, 10, 4, 0, workers).tolist() == [0, 0, 1, 0, 2]
    assert harness._run_blocks(block_size, 8, 4, 0, workers).tolist() == [0, 0, 0, 0, 2]
    # 2**62 trials are 2**50 blocks: a list of their sizes would not fit in
    # memory, so the first block's error must come before any such list
    with pytest.raises(BlockRan) as info:
        harness._run_blocks(refuse_block, 2**62, harness.TRIAL_BLOCK, 0, workers)
    assert info.value.args == (harness.TRIAL_BLOCK,)


_MARK = 0  # a worker that imports this module afresh reads 0


def marked_block(rng, size):
    return np.array([_MARK])


def test_block_runner_forks_on_linux_whatever_the_default_start_method(monkeypatch):
    # a forked worker copies the parent's patched global, a spawned one
    # imports 0; two blocks of one trial, one for each of two workers
    monkeypatch.setattr(sys.modules[__name__], "_MARK", 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        total = harness._run_blocks(marked_block, 2, 1, 0, 2)
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert total.tolist() == [14 if sys.platform == "linux" else 0]


_LOWSNR = NoiseModel.parse("gaussian=8,uniform=8,rademacher=8")
_LOWSNR_PLAN = bounds.plan_channel_uses(500, 5, 0.05, 8.0, 1.0, bounds.TAIL_CONSTANT)


@pytest.mark.parametrize("batch", [
    # 20000 trials are 3 blocks of 8192, 8192 and 3616
    lambda workers: harness.run_until_exact_batch(
        10_000, 20, 1 / 21, harness.default_slot_cap(10_000, 20), 20_000, 7, workers).tolist(),
    lambda workers: harness.expectation_trace(1000, 3, 0.25, 20_000, 50, 7, workers),
    # CI's lowsnr e2e batch: l = 151 slots make blocks of 434 trials, so 4 blocks
    lambda workers: harness.run_end_to_end_batch(
        500, 5, 0.05, _LOWSNR, 1.0, _LOWSNR_PLAN.slots, _LOWSNR_PLAN.repetitions, 1500, 7,
        workers),
], ids=["until-exact", "trace", "e2e-lowsnr"])
def test_batches_are_worker_count_invariant_under_fork_and_spawn(monkeypatch, batch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = batch(1)
    assert batch(2) == serial  # forked workers on Linux
    monkeypatch.setattr(harness, "_START_METHOD", "spawn")
    assert batch(2) == serial


@pytest.mark.parametrize("workers", [2, 3])
def test_block_runner_keeps_two_ranges_a_worker_in_flight(monkeypatch, workers):
    # 1000 blocks of one trial: every range is one submit, and none is made
    # while 2 ranges a worker are unfinished
    from concurrent.futures.process import ProcessPoolExecutor

    submit, futures, ranges = ProcessPoolExecutor.submit, [], []

    def counted(pool, fn, *args):
        assert sum(not future.done() for future in futures) < 2 * workers
        futures.append(submit(pool, fn, *args))
        ranges.extend(args)
        return futures[-1]

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    total = harness._run_blocks(block_size, 1000, 1, 0, workers).tolist()
    assert sorted(b for blocks in ranges for b in blocks) == list(range(1000))
    assert total == harness._run_blocks(block_size, 1000, 1, 0, 1).tolist() == [0, 1000]


def test_pool_size_never_exceeds_threads_tasks_or_cpus():
    assert harness._pool_size(1000, 245, 2) == 2
    assert harness._pool_size(3, 1, 8) == 1
    assert harness._pool_size(4, 245, 64) == 4
    assert harness._pool_size(10**9, 10**9, 1) == 1
    assert harness._pool_size(2, 0, 2) == 1


def test_batch_runners_validate_parameters():
    cap = harness.default_slot_cap(5, 1)
    for p, trials in ((0.5, 0), (1.5, 10)):
        with pytest.raises(ValueError):
            harness.run_until_exact_batch(5, 1, p, cap, trials, 0)
    plan = bounds.plan_channel_uses(5, 1, 0.1, 1.0, 1.0, 0.125)
    for power, trials in ((math.inf, 10), (1.0, 0)):
        with pytest.raises(ValueError):
            harness.run_end_to_end_batch(5, 1, 0.1, NoiseModel([("gaussian", 1.0)]), power,
                                         plan.slots, plan.repetitions, trials, 0)


# --- error curves ----------------------------------------------------------------

def test_build_error_curve_counts_strictly_larger_and_censored():
    slots = np.array([1, 2, -1])  # the last trial is censored
    curve = harness.build_error_curve(np.bincount(slots + 1), (0, 1, 2, 3), n_inactive=10, k=1)
    assert curve.observed_frequency == (1.0, 2 / 3, 1 / 3, 1 / 3)
    assert curve.trials == 3
    assert curve.theoretical_bound == tuple(
        bounds.theoretical_error_curve(10, 1, [0, 1, 2, 3]).tolist())
    # a run that finished exactly at the grid slot is a success there
    assert curve.observed_frequency[1] == pytest.approx(2 / 3)


def test_build_error_curve_matches_per_level_means():
    # one cumulative count gives the very floats of a per-level mean
    slots = np.random.default_rng(12).integers(-1, 60, size=997)
    grid = range(71)
    curve = harness.build_error_curve(np.bincount(slots + 1), grid, 10, 1)
    assert curve.observed_frequency == tuple(
        float(((slots < 0) | (slots > level)).mean()) for level in grid)


def _sorted_reading(slots: np.ndarray, grid: range) -> tuple:
    """An error curve's frequencies, censored count, median and maximum read off
    one sort of per-trial slots (-1 for a censored trial, sorted last)."""
    trials, done = len(slots), int(np.count_nonzero(slots >= 0))
    ordered = np.sort(np.where(slots < 0, np.iinfo(np.int64).max, slots))
    observed = (trials - np.searchsorted(ordered, grid, side="right")) / trials
    low, high = ordered[[(done - 1) // 2, done // 2]].tolist() if done else [math.nan] * 2
    return (tuple(observed.tolist()), trials - done,
            low if done % 2 else (low + high) / 2,
            int(ordered[done - 1]) if done else math.nan)


@pytest.mark.parametrize("trials", [2000, 2001])
@pytest.mark.parametrize("n_inactive, k, p, cap", [
    (0, 3, 0.25, 50),            # every trial exact at slot 0
    (1, 1, 0.5, 1000),
    (1, 1, 0.5, 3),              # some censored
    (10_000, 20, 1 / 21, 1000),
    (10_000, 20, 1 / 21, 520),   # about half censored
    (10_000, 20, 1 / 21, 0),     # all censored
    (10_000, 20, 0.0, 100),      # nothing is ever removed
])
def test_histogram_curve_matches_a_sort_of_the_same_draws(n_inactive, k, p, cap, trials):
    slots = scheme.sample_slots_until_exact(n_inactive, k, p, cap,
                                            np.random.default_rng(trials + cap), trials)
    grid = range(0, 2 * max(int(slots.max()), 1) + 5, 3)  # well past the maximum
    curve = harness.build_error_curve(np.bincount(slots + 1, minlength=2), grid, n_inactive, k)
    # repr tells an int from a float and matches nan to nan
    assert repr((curve.observed_frequency, curve.censored, curve.median_slots,
                 curve.max_slots)) == repr(_sorted_reading(slots, grid))
    assert curve.trials == trials


def test_until_exact_block_refuses_a_histogram_past_its_bins(monkeypatch):
    monkeypatch.setattr(harness, "_MAX_BINS", 10)
    with pytest.raises(MemoryError, match="slots until exact overflow a 10-bin histogram"):
        harness.run_until_exact_batch(80, 2, 1 / 3, harness.default_slot_cap(80, 2), 50, 5)


def test_build_error_curve_rejects_bad_inputs():
    counts = np.array([0, 0, 1])  # one trial, exact after 1 slot
    for empty in (np.array([], dtype=np.int64), np.array([0, 0])):
        with pytest.raises(ValueError):
            harness.build_error_curve(empty, (0, 1), 10, 1)
    with pytest.raises(ValueError):
        harness.build_error_curve(counts, (), 10, 1)
    with pytest.raises(ValueError):
        harness.build_error_curve(counts, (-1, 2), 10, 1)


_GRID_CONSUMERS = {
    "build_error_curve": lambda levels: harness.build_error_curve(
        np.bincount([4, 6]), levels, 10, 1),
    "exact_error_curve": lambda levels: bounds.exact_error_curve(100, 2, 0.3, levels),
    "theoretical_error_curve": lambda levels: bounds.theoretical_error_curve(
        100, 2, levels),
    "expected_remaining": lambda levels: bounds.expected_remaining(100, 2, 0.3, levels),
}


@pytest.mark.parametrize("levels,error", [
    ((1.5, 2.9), TypeError),       # floats are not truncated to slot counts
    ([2.7, True], TypeError),
    ([True, False], TypeError),    # a bool is not a count
    ([[1, 2]], TypeError),         # a grid is 1-D
    ([0, -1], ValueError),
])
@pytest.mark.parametrize("consumer", sorted(_GRID_CONSUMERS))
def test_every_grid_consumer_rejects_bad_levels(consumer, levels, error):
    with pytest.raises(error):
        _GRID_CONSUMERS[consumer](levels)


def test_check_levels_returns_an_int64_vector():
    for levels in ((0, 3, 7), [0, 3, 7], np.array([0, 3, 7], dtype=np.uint8)):
        grid = check_levels(levels)
        assert grid.dtype == np.int64 and grid.tolist() == [0, 3, 7]
    assert check_levels(()).tolist() == []


def test_error_curve_observed_rate_tracks_truth_small_case():
    # N = 1, k = 1, p = 1/2: the lone inactive node survives each slot unless
    # the slot is undiscarded (w.p. 1/2) and it is chosen (w.p. 1/2), so
    # P(still there after l slots) = (3/4)**l
    trials = 4000
    records = harness.run_until_exact_batch(1, 1, 0.5, harness.default_slot_cap(1, 1),
                                            trials, 11)
    curve = harness.build_error_curve(records, (1, 2, 4, 8), 1, 1)
    for level, freq in zip(curve.slot_grid, curve.observed_frequency):
        truth = 0.75**level
        se = math.sqrt(truth * (1 - truth) / trials)
        assert abs(freq - truth) <= 4 * se


# --- expectation trace -------------------------------------------------------------

def test_expectation_trace_shapes_and_slot_zero():
    trace = harness.expectation_trace(100, 2, 1 / 3, trials=400, horizon=5,
                                      seed_base=21)
    assert trace.slots == (0, 1, 2, 3, 4, 5)
    assert trace.empirical_mean[0] == 100.0
    assert trace.std_error[0] == 0.0
    assert trace.predicted_mean[0] == 100.0
    assert trace.predicted_mean[1] == pytest.approx(2300 / 27)


def test_expectation_trace_matches_prediction_within_3_se():
    trace = harness.expectation_trace(100, 2, 1 / 3, trials=4000, horizon=8,
                                      seed_base=22)
    for i in (1, 4, 8):
        delta = abs(trace.empirical_mean[i] - trace.predicted_mean[i])
        assert delta <= 3 * trace.std_error[i]


@pytest.mark.parametrize("n_inactive,p,level", [
    (10, 0.0, 10.0),   # nobody is ever chosen
    (10, 1.0, 10.0),   # every slot is discarded
    (0, 1 / 3, 0.0),   # nothing to eliminate
], ids=["p0", "p1", "no-inactive"])
def test_degenerate_trace_is_the_constant_path(n_inactive, p, level):
    # two blocks: no run of either is ever live and useful
    trace = harness.expectation_trace(n_inactive, 2, p, trials=harness.TRIAL_BLOCK + 5,
                                      horizon=6, seed_base=3)
    assert trace.empirical_mean == (level,) * 7
    assert trace.std_error == (0.0,) * 7
    assert trace.predicted_mean == (level,) * 7


def test_expectation_trace_validation(monkeypatch):
    with pytest.raises(ValueError):
        harness.expectation_trace(10, 1, 0.5, trials=1, horizon=5)
    with pytest.raises(ValueError):
        harness.expectation_trace(10, 1, 0.5, trials=10, horizon=0)

    def refuse(*args):
        raise AssertionError("a block ran")

    # N, k and p are checked before any block runs, not inside each block
    monkeypatch.setattr(harness, "_run_blocks", refuse)
    for args, error in (((-1, 1, 0.5), ValueError), ((True, 1, 0.5), TypeError),
                        ((10, 0, 0.5), ValueError), ((10, 1, 1.5), ValueError)):
        with pytest.raises(error):
            harness.expectation_trace(*args, trials=10, horizon=5)


def test_expectation_trace_is_worker_count_invariant():
    # three seeded blocks, so two workers really split them
    trials = 2 * harness.TRIAL_BLOCK + 7
    serial = harness.expectation_trace(40, 2, 1 / 3, trials, 12, seed_base=5, workers=1)
    parallel = harness.expectation_trace(40, 2, 1 / 3, trials, 12, seed_base=5, workers=2)
    for field in harness.ExpectationTrace._fields:
        assert getattr(serial, field) == getattr(parallel, field), field


def _whole_block_steps(n_inactive, k, p, slots, rng, count):
    """The step kernel's per-slot loop over the whole block, written independently:
    every slot finds the live runs again and copies all ``count`` surpluses."""
    surplus = np.full(count, n_inactive, dtype=np.int64)
    paths = [surplus]
    for _ in range(slots):
        live = np.flatnonzero(surplus)
        if live.size:
            useful = live[rng.random(live.size) >= 1.0 - (1.0 - p) ** k]
            trials = np.sort(surplus[useful])
            surplus = surplus.copy()
            surplus[useful] = trials - rng.binomial(trials, p)
        paths.append(surplus)
    return paths


@pytest.mark.parametrize("count", [1, 2, 4097])
@pytest.mark.parametrize("p", [0.0, 1 / 3, 1.0])
@pytest.mark.parametrize("n_inactive", [0, 1, 40, 1000])
def test_live_run_kernel_makes_the_whole_block_loops_draws(n_inactive, p, count):
    # same generator, same draws: each slot's multiset of surpluses, the trace
    # block's sums and the generator's final state all agree with the loop
    k, horizon = 2, 250
    reference = np.random.default_rng(23)
    paths = _whole_block_steps(n_inactive, k, p, horizon, reference, count)
    if 0.0 < p < 1.0:
        assert not paths[-1].any()  # the horizon outlasts the last inexact run
    rng = np.random.default_rng(23)
    steps = list(scheme.surplus_steps(n_inactive, k, p, horizon, rng, count))
    assert len(steps) == horizon + 1
    for step, path in zip(steps, paths):
        assert step.dtype == np.int64 and np.array_equal(np.sort(step), np.sort(path))
    assert rng.bit_generator.state == reference.bit_generator.state
    rng = np.random.default_rng(23)
    sums = harness._trace_block(n_inactive, k, p, horizon, rng, count)
    # one row a slot up to the last with a live run, of exact Python ints
    live = [path.tolist() for path in paths if path.any()]
    assert sums.tolist() == [[sum(v), sum(x * x for x in v)] for v in live]
    assert not any(path.any() for path in paths[len(live):])
    assert rng.bit_generator.state == reference.bit_generator.state


def test_expectation_trace_sums_fixed_blocks_in_block_order():
    # block b is stepped from SeedSequence((seed_base, b)); its exact sums
    # add to the other blocks'
    trials = harness.TRIAL_BLOCK + 5
    trace = harness.expectation_trace(40, 2, 1 / 3, trials, 6, seed_base=6)
    sums = np.zeros(7)
    for block, size in enumerate((harness.TRIAL_BLOCK, 5)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((6, block))))
        for i, surplus in enumerate(scheme.surplus_steps(40, 2, 1 / 3, 6, rng, size)):
            sums[i] += surplus.sum()
    assert trace.empirical_mean == tuple((sums / trials).tolist())


@pytest.mark.parametrize("n_inactive", [1000, 10**8, 10**12])
def test_expectation_trace_is_exact_at_any_population(n_inactive):
    # every slot's mean and standard error are rounded once from Python-int
    # sums of the same blocks' surpluses; at N = 10**12 float sums of squares
    # lost slot 0's zero spread to cancellation, reading 1414.64
    k, p, horizon, trials, seed = 3, 0.25, 6, 20_000, 1
    trace = harness.expectation_trace(n_inactive, k, p, trials, horizon, seed_base=seed)
    sums = [[0, 0] for _ in range(horizon + 1)]
    for block in range(-(-trials // harness.TRIAL_BLOCK)):
        size = min(harness.TRIAL_BLOCK, trials - block * harness.TRIAL_BLOCK)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
        for row, surplus in zip(sums, scheme.surplus_steps(n_inactive, k, p, horizon, rng, size)):
            values = surplus.tolist()
            row[0] += sum(values)
            row[1] += sum(v * v for v in values)
    assert trace.std_error[0] == 0.0
    assert trace.empirical_mean == tuple(s1 / trials for s1, _ in sums)
    assert trace.std_error == tuple(math.sqrt((trials * s2 - s1 * s1) / (trials**2 * (trials - 1)))
                                    for s1, s2 in sums)


def test_limb_sums_are_exact_near_the_int64_limit():
    values = np.array([2**63 - 1, 2**63 - 2, 2**62 + 12345, 2**42 - 1, 2**21, 1, 0])
    exact = values.tolist()
    assert harness._limb_sums(values, 3) == (sum(exact), sum(v * v for v in exact))
    # a block of the largest surplus: every limb is 2**21 - 1, and each limb
    # product's sum over the block stays in int64
    values = np.full(harness.TRIAL_BLOCK, 2**63 - 1)
    assert harness._limb_sums(values, 3) == (harness.TRIAL_BLOCK * (2**63 - 1),
                                             harness.TRIAL_BLOCK * (2**63 - 1) ** 2)
    # one limb below 2**21
    values = np.arange(2**21 - 8, 2**21)
    exact = values.tolist()
    assert harness._limb_sums(values, 1) == (sum(exact), sum(v * v for v in exact))


@pytest.mark.parametrize("run", [
    lambda workers: harness.run_until_exact_batch(5, 1, 0.5, 10, 3, 0, workers=workers),
    lambda workers: harness.expectation_trace(5, 1, 0.5, 3, 4, 0, workers=workers),
    lambda workers: harness.run_end_to_end_batch(
        5, 1, 0.1, NoiseModel([("gaussian", 1.0)]), 1.0, *_plan_uses(5, 1, 0.1), 3, 0,
        workers=workers),
], ids=["until-exact", "trace", "e2e"])
def test_batch_runners_reject_a_bool_worker_count(run):
    with pytest.raises(TypeError):
        run(True)


# --- end to end ----------------------------------------------------------------------

def test_end_to_end_trial_zero_noise_fails_only_through_elimination():
    # noiseless channel, generous budget: recovery succeeds
    plan = bounds.plan_channel_uses(50, 2, 0.01, 1.0, 1.0, 0.125)
    table = harness.end_to_end_trial(50, 2, NoiseModel([("gaussian", 0.0)]), power=1.0,
                                     slots=plan.slots, repetitions=plan.repetitions,
                                     rng=np.random.default_rng(31), trials=1)
    # columns: recovered, failed
    assert table.dtype == np.int64 and table.sum(axis=0).tolist() == [1, 0]
    table = harness.end_to_end_trial(50, 2, NoiseModel([("gaussian", 0.0)]), 1.0, plan.slots,
                                     plan.repetitions, np.random.default_rng(31), 1)
    assert table.sum(axis=0).tolist() == [1, 0]


def test_end_to_end_batch_summary_fields():
    noise = NoiseModel.parse("gaussian=1,rademacher=1")
    plan = bounds.plan_channel_uses(40, 2, 0.1, 1.0, 1.0, 0.125)
    summary = harness.run_end_to_end_batch(40, 2, 0.1, noise, 1.0, plan.slots,
                                           plan.repetitions, 40, 32)
    assert summary.trials == 40
    # replay the batch block by block from each block's seed
    block = harness._end_to_end_block(plan.slots)
    tables = [harness.end_to_end_trial(40, 2, noise, 1.0, plan.slots, plan.repetitions,
                                       harness._block_rng(32, b // block), min(block, 40 - b))
              for b in range(0, 40, block)]
    assert all(table.dtype == np.int64 for table in tables)
    recovered, failed = sum(table.sum(axis=0) for table in tables).tolist()
    assert recovered + failed == 40
    assert summary.failures == failed
    assert summary.failure_rate == summary.failures / 40
    assert summary.two_epsilon == pytest.approx(0.2)
    assert (summary.slots, summary.repetitions, summary.total_channel_uses) == \
        (plan.slots, plan.repetitions, plan.total)
    # the declared K dominates every member family of the schedule
    assert noise.largest_scale <= 1.0


def test_end_to_end_batch_runs_the_plan_it_is_given(monkeypatch):
    # the batch plans nothing itself: every block runs the caller's l and m
    slots, repetitions = _plan_uses(40, 2, 0.1)
    calls, blocks = [], []
    trial = harness.end_to_end_trial

    def recorded(n_inactive, k, noise, power, block_slots, block_repetitions, rng, trials):
        blocks.append((block_slots, block_repetitions))
        return trial(n_inactive, k, noise, power, block_slots, block_repetitions, rng, trials)

    monkeypatch.setattr(bounds, "plan_channel_uses", lambda *args: calls.append(args))
    monkeypatch.setattr(harness, "end_to_end_trial", recorded)
    summary = harness.run_end_to_end_batch(40, 2, 0.1, NoiseModel([("gaussian", 1.0)]), 1.0, slots,
                                           repetitions, 40, 34, workers=1)
    assert summary.trials == 40
    assert calls == [] and blocks and set(blocks) == {(slots, repetitions)}


def test_end_to_end_batch_is_worker_count_invariant():
    batch = (30, 2, 0.1, NoiseModel([("gaussian", 1.0)]), 1.0, *_plan_uses(30, 2, 0.1), 24, 33)
    assert (harness.run_end_to_end_batch(*batch, workers=1)
            == harness.run_end_to_end_batch(*batch, workers=4))


def test_end_to_end_schedule_batch_over_three_blocks_is_worker_count_invariant():
    # l = 697 slots makes blocks of 94 trials, so 200 trials are 3 blocks
    noise = NoiseModel.parse("gaussian=1,uniform=1,rademacher=1")
    plan = bounds.plan_channel_uses(10_000, 20, 0.05, 1.0, 1.0, 0.125)
    batch = (10_000, 20, 0.05, noise, 1.0, plan.slots, plan.repetitions, 200, 36)
    assert 200 > 2 * harness._end_to_end_block(plan.slots)
    assert (harness.run_end_to_end_batch(*batch, workers=1)
            == harness.run_end_to_end_batch(*batch, workers=3))


def test_every_trial_of_a_block_restarts_the_noise_schedule(monkeypatch):
    # a period-3 schedule at m = 4 (4 mod 3 = 1): member 0 gets 2 steps in
    # slot i of a run when i % 3 == 0, else 1.  A sum of n rademacher(1)
    # steps has the parity of n, so the noise shows member 0's count per
    # slot; l = 10 slots is not a multiple of 3, so a trial that went on
    # from the previous one's last step would see another pattern
    from gtmac import channel

    seen = []
    channel_averages = channel.slot_noise_averages

    def spy(*args, **kwargs):
        seen.append(channel_averages(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(channel, "slot_noise_averages", spy)
    noise = NoiseModel.parse("rademacher=1,gaussian=0,gaussian=0")
    harness.end_to_end_trial(30, 2, noise, 1.0, 10, 4, np.random.default_rng(5), 7)
    (averaged,) = seen
    steps = 4 * np.arange(10)[:, None] + np.arange(4)  # steps of a run from step 0
    member_0 = np.count_nonzero(steps % 3 == 0, axis=1)
    assert member_0.tolist() == [2, 1, 1, 2, 1, 1, 2, 1, 1, 2]
    parity = np.rint(averaged.reshape(7, 10) * 4).astype(np.int64) % 2
    assert np.array_equal(parity, np.tile(member_0 % 2, (7, 1)))


def _merged_columns(a: np.ndarray, b: np.ndarray, minimum: int = 20) -> np.ndarray:
    """2-row table of two count vectors, adjacent columns merged to >= ``minimum``."""
    merged, run = [], np.zeros(2, dtype=np.int64)
    for column in zip(a, b):
        run += column
        if run.sum() >= minimum:
            merged.append(run)
            run = np.zeros(2, dtype=np.int64)
    if merged:
        merged[-1] = merged[-1] + run
    return np.array(merged).T


@pytest.mark.parametrize("noise", [None, NoiseModel([("gaussian", 0.5)]),
                                   NoiseModel.parse("gaussian=0.5,uniform=1,rademacher=0.3")],
                         ids=["ideal", "gaussian", "schedule"])
def test_active_row_path_matches_node_level_scheme(noise, monkeypatch):
    # run_scheme simulates all N + k nodes; the end-to-end block kernel
    # decodes the k active rows of every trial at once and _comp fails a trial
    # with the survivors law at its F.  N = 30, k = 2 and 20 slots fail about
    # half the time, so both laws are visible.  gaussian(0) noise decodes as
    # the ideal oracle does.
    n_inactive, k, slots, runs = 30, 2, 20, 1500
    p = scheme.optimal_choice_probability(k)
    population = scheme.Population(n_inactive + k, frozenset({5, 21}))
    active = population.active_mask()
    rng = np.random.default_rng(808)

    def oracle():
        if noise is None:
            return scheme.IdealDisjunctionOracle()
        return RepetitionDisjunctionOracle(noise, 1.0, 2, rng)

    node_success = np.empty(runs, dtype=bool)
    node_false = np.empty(runs, dtype=np.int64)
    for i in range(runs):
        config = scheme.SchemeConfig(p, slots, int(rng.integers(2**63)))
        final, outcomes = scheme.run_scheme(population, config, oracle())
        node_success[i] = np.array_equal(final, active)
        node_false[i] = sum(not slot.decoded_disjunction for slot in outcomes)

    # the block's _table_binomial counts go into its one decode_block call
    blocks = []
    decode_block = RepetitionDisjunctionOracle.decode_block

    def spy(self, senders):
        blocks.append((senders, decode_block(self, senders)))
        return blocks[-1][1]

    monkeypatch.setattr(RepetitionDisjunctionOracle, "decode_block", spy)
    row_table = harness.end_to_end_trial(
        n_inactive, k, NoiseModel([("gaussian", 0.0)]) if noise is None else noise, 1.0, slots,
        2, rng, runs)
    ((senders, decoded),) = blocks
    assert senders.shape == decoded.shape == (runs, slots)
    decodes = [decoded]
    if noise is None:
        decodes.append(scheme.IdealDisjunctionOracle().decode_block(senders))

    assert 0.1 < node_success.mean() < 0.9
    for table in [row_table] + [harness._comp(n_inactive, p, senders, bits, rng)
                                for bits in decodes]:
        successes = [[node_success.sum(), runs - node_success.sum()],
                     table.sum(axis=0).tolist()]
        assert scipy.stats.fisher_exact(successes).pvalue > 1e-3
    table = _merged_columns(np.bincount(node_false, minlength=slots + 1),
                            np.bincount(np.count_nonzero(~decoded, axis=1),
                                        minlength=slots + 1))
    assert table.shape[1] >= 4
    assert scipy.stats.chi2_contingency(table).pvalue > 1e-3


def test_comp_decides_each_trial_from_its_senders_and_decodes():
    rng = np.random.default_rng(0)
    n_inactive, p = 3, 0.5
    useful = np.zeros(60, dtype=np.int64)
    # row 0: a busy slot decoded false evicts, though 59 more false slots clear
    # every inactive node; row 1: of its slots decoded true, slot 0 is useful
    # and slot 1 busy, and neither is in F = 2; row 2: every slot decoded true
    # leaves F = 0
    senders = np.array([np.r_[1, useful[1:]], np.r_[0, 2, useful[2:]], useful])
    decoded = np.array([np.zeros(60, dtype=bool), np.arange(60) < 58,
                        np.ones(60, dtype=bool)])
    # rows: evicted, then F = 0, 1, ..., 60 (row 0's false slots); columns:
    # recovered, failed
    table = harness._comp(n_inactive, p, senders, decoded, rng)
    assert table.dtype == np.int64 and table.shape == (62, 2)
    assert table[0].tolist() == [0, 1]  # row 0 evicts
    assert table[1].tolist() == [0, 1]  # row 2 at F = 0 keeps every inactive node
    assert table[3].sum() == 1  # row 1 at F = 2
    assert table.sum() == 3
    failed, conditional = _per_trial(table, n_inactive, p)
    assert conditional.tolist() == pytest.approx([1.0, 1.0, 1 - (1 - (1 - p) ** 2) ** n_inactive])
    # with no inactive node a trial fails only through an eviction
    table = harness._comp(0, p, senders, decoded, rng)
    assert (table[0].tolist(), table[1].tolist(), table[3].tolist()) == ([0, 1], [1, 0], [1, 0])
    assert table.sum() == 3


def test_comp_fails_each_trial_with_its_survivors_probability():
    n_inactive, p, slots, rows = 40, 0.25, 24, 4000
    # each row's first F slots decode false; the last 4000 rows also evict an
    # active node in slot 0, and a busy slot decoded true evicts nothing
    false_slots = np.repeat([12, 16, 20, 3], rows)
    decoded = np.arange(slots) >= false_slots[:, None]
    senders = np.zeros(decoded.shape, dtype=np.int64)
    senders[:, -1] = 2
    evicted = np.arange(len(false_slots)) >= 3 * rows
    senders[evicted, 0] = 1
    table = harness._comp(n_inactive, p, senders, decoded, np.random.default_rng(37))
    # row 0 holds the evicted rows, row F + 1 the others at F, up to F = 20
    held = np.zeros(22, dtype=np.int64)
    held[[0, 13, 17, 21]] = rows
    assert table.sum(axis=1).tolist() == held.tolist()
    assert table[0].tolist() == [0, rows]
    for f in (12, 16, 20):  # survivors law 0.724, 0.332 and 0.119
        law = float(bounds._survivors(n_inactive, p, f))
        assert scipy.stats.binomtest(int(table[f + 1, 1]), rows, law).pvalue > 1e-3
    # with no inactive node a trial fails only through an eviction
    table = harness._comp(0, p, senders, decoded, np.random.default_rng(38))
    assert table.sum(axis=1).tolist() == held.tolist()
    assert table[:, 1].tolist() == [rows] + [0] * 21


def test_conditional_failure_rate_matches_exact_law():
    # criterion 6's batch: the mean of the per-trial conditional failure
    # probabilities estimates the exact failure probability
    plan = bounds.plan_channel_uses(500, 5, 0.05, 1.0, 1.0, bounds.TAIL_CONSTANT)
    batch = (500, 5, 0.05, NoiseModel([("gaussian", 1.0)]), 1.0, plan.slots, plan.repetitions,
             2000, 20260816)
    summary = harness.run_end_to_end_batch(*batch)
    # replay the batch block by block from each block's seed
    block, p = harness._end_to_end_block(plan.slots), scheme.optimal_choice_probability(5)
    conditional = np.concatenate([_per_trial(
        harness.end_to_end_trial(500, 5, NoiseModel([("gaussian", 1.0)]), 1.0, plan.slots,
                                 plan.repetitions, harness._block_rng(batch[-1], b // block),
                                 min(block, summary.trials - b)), 500, p)[1]
        for b in range(0, summary.trials, block)])
    assert len(conditional) == summary.trials
    # the batch sums each F's law times its count exactly, not trial by trial
    assert summary.conditional_failure_rate == pytest.approx(float(np.mean(conditional)),
                                                             rel=1e-12, abs=0)
    se = np.std(conditional, ddof=1) / math.sqrt(summary.trials)
    exact = bounds.exact_end_to_end_failure(500, 5, scheme.optimal_choice_probability(5),
                                            plan.slots, plan.repetitions, 1.0, 1.0)
    assert abs(summary.conditional_failure_rate - exact) <= 4 * se


def test_end_to_end_trial_conditional_failure_edge_cases():
    plan = bounds.plan_channel_uses(50, 2, 0.01, 1.0, 1.0, 0.125)
    # noiseless: nothing is evicted, and 50 nodes rarely outlast the plan
    table = harness.end_to_end_trial(50, 2, NoiseModel([("gaussian", 0.0)]), 1.0, plan.slots,
                                     plan.repetitions, np.random.default_rng(31), 1)
    failed, conditional = _per_trial(table, 50, 1 / 3)
    assert failed.tolist() == [False] and table[0].tolist() == [0, 0]
    assert 0.0 < conditional[0] < 0.01
    # no inactive node: no slot, and no trial can fail
    empty = bounds.plan_channel_uses(0, 2, 0.01, 1.0, 1.0, 0.125)
    table = harness.end_to_end_trial(0, 2, NoiseModel([("gaussian", 1.0)]), 1.0, empty.slots,
                                     empty.repetitions, np.random.default_rng(3), 4)
    failed, conditional = _per_trial(table, 0, 1 / 3)
    assert failed.tolist() == [False] * 4
    assert conditional.tolist() == [0.0] * 4
    # every slot decoded true: F = 0, so every inactive node survives
    assert bounds._survivors(50, 0.5, np.array([0, 1]))[0] == 1.0
    # an eviction fails the trial whatever F is: noise this loud evicts an
    # active node in every trial
    table = harness.end_to_end_trial(50, 2, NoiseModel([("gaussian", 1e3)]), 1.0, plan.slots,
                                     plan.repetitions, np.random.default_rng(5), 8)
    failed, conditional = _per_trial(table, 50, 1 / 3)
    assert failed.tolist() == [True] * 8 and table[0].tolist() == [0, 8]
    assert conditional.tolist() == [1.0] * 8
    # the vectorised law against the per-trial formula 1 - (1 - (1-p)**F)**N
    false_slots = np.arange(1, 120)
    survive = (2 / 3) ** false_slots
    expected = [-math.expm1(50 * math.log1p(-s)) for s in survive.tolist()]
    np.testing.assert_allclose(bounds._survivors(50, 1 / 3, false_slots), expected,
                               rtol=1e-12)


def test_end_to_end_batch_without_inactive_nodes_never_fails():
    # 3 slots of 2 repetitions with N = 0, which no plan gives: noiseless
    # decodes evict no active node, and a trial whose 3 slots all had a sender
    # has F = 0, where the survivors law 1 - (1 - (1-p)**F)**N would read 0 * log(0)
    summary = harness.run_end_to_end_batch(0, 2, 0.1, NoiseModel([("gaussian", 0.0)]), 1.0, 3, 2,
                                           50, 1)
    assert (summary.failures, summary.conditional_failure_rate) == (0, 0.0)
    assert bounds._survivors(0, 1 / 3, np.arange(4)).tolist() == [0.0] * 4


def _refused_before_any_draw(monkeypatch, error, n_inactive, k, slots, repetitions):
    """Both e2e entry points raise ``error``: the trial before drawing, the batch
    before running a block."""
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(error):
        harness.end_to_end_trial(n_inactive, k, NoiseModel([("gaussian", 1.0)]), 1.0, slots,
                                 repetitions, rng, 5)
    assert rng.bit_generator.state == state

    def refuse(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(harness, "_run_blocks", refuse)
    with pytest.raises(error):
        harness.run_end_to_end_batch(n_inactive, k, 0.1, NoiseModel([("gaussian", 1.0)]), 1.0,
                                     slots, repetitions, 5, 0)


@pytest.mark.parametrize("slots, repetitions, error", [
    (-1, 4, ValueError), (True, 4, TypeError), (3, 0, ValueError),
], ids=["negative-l", "bool-l", "zero-m"])
def test_end_to_end_entry_points_check_l_and_m_before_any_draw(slots, repetitions, error,
                                                                monkeypatch):
    _refused_before_any_draw(monkeypatch, error, 20, 2, slots, repetitions)


@pytest.mark.parametrize("n_inactive, k, slots, repetitions, error", [
    (-3, 2, 5, 2, ValueError), (True, 2, 5, 2, TypeError), (20, 0, 5, 2, ValueError),
    (-3, 0, 0, 0, ValueError),  # no slot: nothing would be drawn to reject them
], ids=["negative-n", "bool-n", "zero-k", "no-slot"])
def test_end_to_end_entry_points_check_n_and_k_before_any_draw(n_inactive, k, slots,
                                                                repetitions, error,
                                                                monkeypatch):
    _refused_before_any_draw(monkeypatch, error, n_inactive, k, slots, repetitions)


@pytest.mark.parametrize("repetitions", [0, 1, 7])
def test_no_slot_recovers_exactly_when_there_is_no_inactive_node(repetitions):
    # with l = 0 the potential set stays all N + k nodes, whatever m is, and
    # nothing is drawn: exact at N = 0, a failure with certainty at N = 5
    assert bounds.exact_end_to_end_failure(5, 2, 1 / 3, 0, 4, 1.0, 1.0) == 1.0
    for n_inactive, recovered, conditional in ((0, True, 0.0), (5, False, 1.0)):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        table = harness.end_to_end_trial(n_inactive, 2, NoiseModel([("gaussian", 1.0)]), 1.0, 0,
                                         repetitions, rng, 4)
        assert rng.bit_generator.state == state
        failed, probability = _per_trial(table, n_inactive, 1 / 3)
        assert table.dtype == np.int64 and (~failed).tolist() == [recovered] * 4
        assert probability.tolist() == [conditional] * 4
        summary = harness.run_end_to_end_batch(n_inactive, 2, 0.1, NoiseModel([("gaussian", 1.0)]),
                                               1.0, 0, repetitions, 30, 1)
        assert (summary.failures, summary.conditional_failure_rate) == \
            (0 if recovered else 30, conditional)
        assert (summary.slots, summary.total_channel_uses) == (0, 0)


@pytest.mark.parametrize("sigma, exact", [
    (0.5, 0.3675148106603396),
    (0.0, 0.1342767),
], ids=["gaussian", "noiseless"])
def test_end_to_end_trial_matches_exact_law_at_an_unplanned_budget(sigma, exact):
    # l = 30 slots of m = 4 uses at N = 20, k = 2, P = 1, a pair no plan
    # gives, failing often enough that a slot error off by 2x shows: at
    # sigma = 0.5 a useful slot decodes true and a single sender's slot false
    # w.p. Q(2) each
    n_inactive, k, p, slots, repetitions, trials = 20, 2, 1 / 3, 30, 4, 20_000
    if sigma:
        law = bounds.exact_end_to_end_failure(n_inactive, k, p, slots, repetitions, sigma, 1.0)
    else:
        law = float(bounds.exact_error_curve(n_inactive, k, p, [slots])[0])
    assert law == pytest.approx(exact, rel=1e-6)
    failed, conditional = _per_trial(
        harness.end_to_end_trial(n_inactive, k, NoiseModel([("gaussian", sigma)]), 1.0, slots,
                                 repetitions, np.random.default_rng(3030), trials), n_inactive, p)
    failures = int(np.count_nonzero(failed))
    assert scipy.stats.binomtest(failures, trials, law).pvalue > 1e-3
    z = (conditional.mean() - law) / (conditional.std(ddof=1) / math.sqrt(trials))
    assert 2 * scipy.stats.norm.sf(abs(z)) > 1e-3


def test_end_to_end_batch_memory_stays_flat_at_a_million_nodes():
    # a trial holds k x slots bits, never a vector over the N inactive nodes
    tracemalloc.start()
    try:
        plan = bounds.plan_channel_uses(10**6, 20, 0.01, 1.0, 1.0, 0.125)
        summary = harness.run_end_to_end_batch(10**6, 20, 0.01, NoiseModel([("gaussian", 1.0)]),
                                               1.0, plan.slots, plan.repetitions, 20, 35)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.trials == 20 and summary.slots > 1000
    assert peak < 16 * 2**20


def test_end_to_end_batch_memory_does_not_grow_with_trials():
    # blocks add up one small table each: a block's draws and two tables,
    # not 17 bytes a trial (34 MB here); gtmac e2e plans l = 26, m = 12 at K = 0.5
    plan = bounds.plan_channel_uses(20, 1, 0.2, 0.5, 1.0, 0.125)
    tracemalloc.start()
    try:
        summary = harness.run_end_to_end_batch(20, 1, 0.2, NoiseModel([("gaussian", 0.5)]), 1.0,
                                               plan.slots, plan.repetitions, 2_000_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (summary.trials, summary.failures) == (2_000_000, 27_588)
    assert peak < 4 * 2**20


# --- CSV -------------------------------------------------------------------------------

def _assert_csv_holds(path, header, rows):
    """``path`` parses into ``header`` and ``rows``; every float bit for bit."""
    with open(path, encoding="utf-8", newline="") as fh:
        got_header, *got = csv.reader(fh)
    assert got_header == header
    assert len(got) == len(rows)
    for fields, values in zip(got, rows):
        assert len(fields) == len(values)
        for field, value in zip(fields, values):
            if isinstance(value, float):
                assert float(field).hex() == value.hex(), (field, value)
            else:
                assert field == str(value), (field, value)


def test_error_curve_csv_roundtrip_and_layout(tmp_path):
    curve = harness.ErrorCurve(slot_grid=(0, 5, 10),
                               observed_frequency=(1.0, 0.25, 0.1),
                               theoretical_bound=(1.0, 0.5, 0.0078125),
                               trials=400, censored=40, median_slots=4.5, max_slots=12)
    path = tmp_path / "curve.csv"
    harness.export_csv(curve, str(path))
    assert "\r" not in path.read_text(encoding="utf-8")
    _assert_csv_holds(path, ["l", "observed_frequency", "theoretical_bound", "trials"],
                      [(0, 1.0, 1.0, 400), (5, 0.25, 0.5, 400), (10, 0.1, 0.0078125, 400)])


def test_expectation_trace_csv_roundtrip(tmp_path):
    trace = harness.ExpectationTrace(slots=(0, 1), empirical_mean=(10.0, 7.5),
                                     std_error=(0.0, 0.1230000000000001),
                                     predicted_mean=(10.0, 500 / 66))
    path = tmp_path / "trace.csv"
    harness.export_csv(trace, str(path))
    _assert_csv_holds(path, ["slot", "empirical_mean", "std_error", "predicted_mean"],
                      [(0, 10.0, 0.0, 10.0), (1, 7.5, 0.1230000000000001, 500 / 66)])


def test_end_to_end_summary_csv_roundtrip(tmp_path):
    summary = harness.EndToEndSummary(trials=2000, failures=31,
                                      failure_rate=31 / 2000,
                                      conditional_failure_rate=0.0143, two_epsilon=0.1,
                                      slots=151, repetitions=73,
                                      total_channel_uses=151 * 73)
    path = tmp_path / "e2e.csv"
    harness.export_csv(summary, str(path))
    _assert_csv_holds(path, ["trials", "failures", "failure_rate", "two_epsilon",
                             "l", "m", "total_channel_uses"],
                      [(2000, 31, 31 / 2000, 0.1, 151, 73, 151 * 73)])


_EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e300,
                math.inf, -math.inf, math.nan)
_INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("result,header,rows", [
    (harness.ErrorCurve(tuple(range(9)), _EDGE_FLOATS, _EDGE_FLOATS[::-1], _INT64_MAX,
                        0, 4.5, 8),
     ["l", "observed_frequency", "theoretical_bound", "trials"],
     [(l, f, b, _INT64_MAX) for l, f, b in zip(range(9), _EDGE_FLOATS, _EDGE_FLOATS[::-1])]),
    (harness.ExpectationTrace(tuple(range(9)), _EDGE_FLOATS, _EDGE_FLOATS[::-1],
                              _EDGE_FLOATS),
     ["slot", "empirical_mean", "std_error", "predicted_mean"],
     list(zip(range(9), _EDGE_FLOATS, _EDGE_FLOATS[::-1], _EDGE_FLOATS))),
    (harness.EndToEndSummary(_INT64_MAX, 0, -0.0, 5e-324, math.nan, 0, _INT64_MAX, 1),
     ["trials", "failures", "failure_rate", "two_epsilon", "l", "m", "total_channel_uses"],
     [(_INT64_MAX, 0, -0.0, math.nan, 0, _INT64_MAX, 1)]),
], ids=["curve", "trace", "e2e"])
def test_csv_bytes_are_those_of_the_csv_module(tmp_path, result, header, rows):
    # the writer joins each field's repr; the csv module writes the same bytes
    path = tmp_path / "out.csv"
    harness.export_csv(result, str(path))
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("kind", ["curve", "trace"])
def test_csv_write_holds_a_chunk_not_the_file(tmp_path, kind):
    # 10**5 rows are many chunks of the writer's template; its bytes are the
    # csv module's, and it allocates little above the result it writes (the
    # whole text and a tuple of every cell took 127 and 144 bytes a row here)
    n = 10**5
    column = tuple(i / 7 for i in range(n))
    if kind == "curve":
        result = harness.ErrorCurve(tuple(range(n)), column, column[::-1], 400, 0, 4.5, n)
        rows = zip(range(n), column, column[::-1], [400] * n)
    else:
        result = harness.ExpectationTrace(tuple(range(n)), column, column[::-1], column)
        rows = zip(range(n), column, column[::-1], column)
    path = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        harness.export_csv(result, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADERS[kind])
        writer.writerows(rows)
    assert path.read_bytes() == reference.read_bytes()


_CSV_HEADERS = {"curve": ["l", "observed_frequency", "theoretical_bound", "trials"],
                "trace": ["slot", "empirical_mean", "std_error", "predicted_mean"]}


def test_csv_of_numpy_computed_results_parses_back_exactly(tmp_path):
    # the curve and trace columns come out of numpy arrays; a numpy scalar in
    # a result would be written as "np.float64(...)", which float() rejects
    slots = harness.run_until_exact_batch(60, 2, 1 / 3, harness.default_slot_cap(60, 2),
                                          50, 42)
    curve = harness.build_error_curve(slots, range(0, 41, 5), 60, 2)
    trace = harness.expectation_trace(60, 2, 1 / 3, trials=30, horizon=6, seed_base=42)
    harness.export_csv(curve, str(tmp_path / "curve.csv"))
    harness.export_csv(trace, str(tmp_path / "trace.csv"))
    _assert_csv_holds(tmp_path / "curve.csv",
                      ["l", "observed_frequency", "theoretical_bound", "trials"],
                      [(*row, curve.trials) for row in zip(
                          curve.slot_grid, curve.observed_frequency,
                          curve.theoretical_bound)])
    _assert_csv_holds(tmp_path / "trace.csv",
                      ["slot", "empirical_mean", "std_error", "predicted_mean"],
                      list(zip(trace.slots, trace.empirical_mean, trace.std_error,
                               trace.predicted_mean)))


def test_export_csv_is_byte_identical_across_calls(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        records = harness.run_until_exact_batch(60, 2, 1 / 3,
                                                harness.default_slot_cap(60, 2), 50, 41)
        curve = harness.build_error_curve(records, range(0, 201, 5), 60, 2)
        path = tmp_path / name
        harness.export_csv(curve, str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_export_csv_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        harness.export_csv({"not": "supported"}, str(tmp_path / "x.csv"))
