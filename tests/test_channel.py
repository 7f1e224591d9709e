"""Adder channel, noise families, and the repetition disjunction code."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from gtmac import channel
from gtmac.channel import (NoiseModel, RepetitionDisjunctionOracle, gaussian,
                           gaussian_slot_error_exact, rademacher, schedule,
                           slot_noise_averages, uniform)


def absolute_moment_ratio(model: NoiseModel, n: int) -> float:
    """(E|Z|**n)**(1/n) / sqrt(n), from closed-form moments (test-side oracle)."""
    [(family, a)] = model.members
    if family == "gaussian":
        if a == 0.0:
            return 0.0
        # E|Z|**n = sigma**n * 2**(n/2) * Gamma((n+1)/2) / sqrt(pi)
        log_moment = (n * math.log(a) + 0.5 * n * math.log(2.0)
                      + math.lgamma((n + 1) / 2) - 0.5 * math.log(math.pi))
        return math.exp(log_moment / n) / math.sqrt(n)
    if family == "uniform":
        # E|Z|**n = a**n / (n+1)
        return a / ((n + 1) ** (1.0 / n) * math.sqrt(n))
    if family == "rademacher":
        return a / math.sqrt(n)
    raise ValueError(family)


# --- noise models ----------------------------------------------------------------

def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel([("lognormal", 1.0)])
    with pytest.raises(ValueError):
        gaussian(-1.0)
    with pytest.raises(ValueError):
        gaussian(float("inf"))
    with pytest.raises(ValueError):
        schedule()
    with pytest.raises(ValueError):
        schedule(schedule(gaussian(1.0), uniform(1.0)), rademacher(1.0))  # no nesting


def test_declared_norm_bounds():
    assert gaussian(1.5).norm_bound == 1.5
    assert uniform(2.0).norm_bound == 2.0
    assert rademacher(0.25).norm_bound == 0.25
    assert schedule(gaussian(0.5), rademacher(2.0)).norm_bound == 2.0


@pytest.mark.parametrize("model", [gaussian(1.0), gaussian(1.7), uniform(2.3),
                                   rademacher(0.9)])
def test_norm_bound_dominates_all_moment_ratios(model):
    # the declared K really is an upper bound on sup_n (E|Z|^n)^(1/n)/sqrt(n)
    ratios = [absolute_moment_ratio(model, n) for n in range(1, 41)]
    assert max(ratios) <= model.norm_bound + 1e-12
    # and the n = 1 ratio identifies the actual norm of each family
    [(family, scale)] = model.members
    if family == "gaussian":
        assert ratios[0] == pytest.approx(scale * math.sqrt(2 / math.pi))
        assert max(ratios) == ratios[0]
    if family == "rademacher":
        assert max(ratios) == pytest.approx(model.norm_bound)  # K is tight


def rotated(model: NoiseModel, steps: int) -> NoiseModel:
    """The schedule as seen from step ``steps`` on: its members rotated left."""
    shift = steps % len(model.members)
    return NoiseModel(model.members[shift:] + model.members[:shift])


def per_step_averages(model: NoiseModel, repetitions: int, slot_count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Slot averages from one draw per step (test-side reference): step t
    uses member ``t mod period``, and each slot averages its m steps."""
    member_of = np.arange(repetitions * slot_count) % len(model.members)
    draws = np.empty(repetitions * slot_count)
    for j, (family, a) in enumerate(model.members):
        idx = np.flatnonzero(member_of == j)
        if family == "gaussian":
            draws[idx] = rng.normal(0.0, a, idx.size)
        elif family == "uniform":
            draws[idx] = rng.uniform(-a, a, idx.size)
        else:
            draws[idx] = a * (2.0 * rng.integers(0, 2, idx.size) - 1.0)
    return draws.reshape(slot_count, repetitions).mean(axis=1)


def test_schedule_cycles_through_members():
    # at m = 1 the slot averages are the steps
    model = schedule(rademacher(3.0), gaussian(0.0))
    draws = slot_noise_averages(model, 1, 10, np.random.default_rng(0))
    assert all(abs(v) == 3.0 for v in draws[0::2])   # even steps: +-3
    assert all(v == 0.0 for v in draws[1::2])        # odd steps: degenerate gaussian


def test_block_sampler_statistics():
    # at m = 1 the slot averages are single steps of each family
    rng = np.random.default_rng(7)
    block = slot_noise_averages(gaussian(2.0), 1, 200_000, rng)
    assert abs(block.mean()) < 0.02
    assert block.std() == pytest.approx(2.0, rel=0.01)
    block = slot_noise_averages(uniform(1.0), 1, 200_000, rng)
    assert block.std() == pytest.approx(1 / math.sqrt(3), rel=0.01)
    assert set(slot_noise_averages(rademacher(2.0), 1, 200, rng)) == {-2.0, 2.0}
    assert np.all(np.abs(slot_noise_averages(uniform(0.5), 1, 200, rng)) <= 0.5)
    assert np.all(slot_noise_averages(gaussian(0.0), 1, 10, rng) == 0.0)


@pytest.mark.parametrize("model, m, start", [
    (gaussian(1.3), 7, 5),
    (uniform(0.8), 7, 5),
    (rademacher(0.6), 7, 5),
    (schedule(gaussian(1.0), uniform(2.0), rademacher(0.5)), 8, 4),  # 8 mod 3 = 2
])
def test_slot_sums_follow_the_per_step_law(model, m, start):
    # two-sample tests of the exact-sum sampler against one draw per step, over
    # the schedule as seen from step ``start`` on
    slots = 20_000
    model = rotated(model, start)
    fast = slot_noise_averages(model, m, slots, np.random.default_rng(101))
    slow = per_step_averages(model, m, slots, np.random.default_rng(202))
    if model.members[0][0] == "rademacher":
        # the average takes the m + 1 values a*(2b - m)/m: chi-square on the
        # counts of each step sum 2b - m (rounded, as the two sides sum in
        # different orders)
        fast_sums, slow_sums = (np.rint(side * m / model.norm_bound)
                                for side in (fast, slow))
        values = np.union1d(fast_sums, slow_sums)
        table = [[np.count_nonzero(side == v) for v in values]
                 for side in (fast_sums, slow_sums)]
        pvalue = scipy.stats.chi2_contingency(table).pvalue
    else:
        pvalue = scipy.stats.ks_2samp(fast, slow).pvalue
    assert pvalue > 1e-4


def test_slot_sums_with_fewer_steps_than_members():
    # m = 1 over a 3-cycle from step 1: slot 0 holds no uniform step, so the
    # first uniform draw belongs to slot 2, not to slot 0
    model = rotated(schedule(uniform(0.25), rademacher(3.0), gaussian(0.0)), 1)
    draws = slot_noise_averages(model, 1, 30, np.random.default_rng(4))
    assert all(abs(v) == 3.0 for v in draws[0::3])
    assert all(v == 0.0 for v in draws[1::3])
    assert all(0.0 < abs(v) < 0.25 for v in draws[2::3])
    # m = 2 over the same cycle: members get 1 or 0 steps per slot
    draws = slot_noise_averages(model, 2, 3000, np.random.default_rng(5))
    reference = per_step_averages(model, 2, 3000, np.random.default_rng(6))
    for offset in range(3):
        # slot i holds steps 1 + 2i, 2 + 2i: its members repeat every 3 slots.
        # Offset 0 takes two values, on which scipy's exact p-value can fail
        # and fall back to the asymptotic one with a warning: ask for that one.
        assert scipy.stats.ks_2samp(draws[offset::3], reference[offset::3],
                                    method="asymp").pvalue > 1e-4
    # steps 1, 2: rademacher, gaussian(0); 3, 4: uniform, rademacher;
    # 5, 6: gaussian(0), uniform
    assert set(np.abs(draws[0::3])) == {1.5}
    assert np.all(np.abs(np.abs(draws[1::3]) - 1.5) < 0.125)
    assert np.all((np.abs(draws[2::3]) < 0.125) & (draws[2::3] != 0.0))


def test_zero_scale_members_draw_nothing():
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    model = rotated(schedule(gaussian(0.0), uniform(0.0), rademacher(0.0)), 2)
    assert np.all(slot_noise_averages(model, 5, 100, rng) == 0.0)
    assert rng.bit_generator.state == state
    # a zero-scale member leaves the others' law alone
    mixed = slot_noise_averages(schedule(gaussian(0.0), rademacher(1.0)), 4, 1000,
                                np.random.default_rng(9))
    assert set(mixed) <= {-0.5, 0.0, 0.5}


def test_uniform_slot_sums_hold_bounded_memory():
    # a per-step array here would be 2870 * 20000 * 8 B = 460 MB
    tracemalloc.start()
    try:
        averaged = slot_noise_averages(uniform(8.0), 2870, 20_000,
                                       np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert averaged.std() == pytest.approx(8.0 / math.sqrt(3 * 2870), rel=0.02)


def summed_uniform_draws(n: int, slot_count: int, rng: np.random.Generator) -> np.ndarray:
    """Per slot, n draws of U(-1, 1) summed (test-side reference, 500 slots at a time)."""
    return np.concatenate([2.0 * rng.random((min(500, slot_count - lo), n)).sum(axis=1) - n
                           for lo in range(0, slot_count, 500)])


@pytest.mark.parametrize("n", [1538, 54])
def test_uniform_bit_count_sums_follow_the_summed_draws_law(n):
    # 53 Bin(n, 1/2) counts of the draws' mantissa bits give a sum with the
    # law of n summed draws for any n > 53 (1538 is e2e_lowsnr's member count)
    slots = 20_000
    fast = 2.0 * channel._bit_count_sums(n, slots, np.random.default_rng(31)) - n
    slow = summed_uniform_draws(n, slots, np.random.default_rng(32))
    assert scipy.stats.ks_2samp(fast, slow).pvalue > 1e-4
    assert scipy.stats.ttest_ind(fast, slow).pvalue > 1e-4
    # F test of the variances (both near n/3; the sums are near gaussian)
    ratio = scipy.stats.f(slots - 1, slots - 1)
    f_stat = fast.var(ddof=1) / slow.var(ddof=1)
    assert 2.0 * min(ratio.cdf(f_stat), ratio.sf(f_stat)) > 1e-4
    assert fast.var() == pytest.approx(n / 3.0, rel=0.05)


@pytest.mark.parametrize("n", [53, channel._BIT_COUNT_STEPS - 1])
def test_uniform_sums_below_the_bit_count_switch_are_drawn_directly(n):
    slots = 1000
    rng = np.random.default_rng(33)
    direct = slot_noise_averages(uniform(1.0), n, slots, rng) * n
    reference = np.random.default_rng(33)
    np.testing.assert_allclose(direct, summed_uniform_draws(n, slots, reference),
                               rtol=0, atol=1e-9)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_uniform_sums_from_the_bit_count_switch_on_are_drawn_from_bit_counts():
    n, slots = channel._BIT_COUNT_STEPS, 1000
    rng = np.random.default_rng(34)
    drawn = slot_noise_averages(uniform(1.0), n, slots, rng) * n
    reference = np.random.default_rng(34)
    np.testing.assert_allclose(drawn, 2.0 * channel._bit_count_sums(n, slots, reference) - n,
                               rtol=0, atol=1e-9)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_runs_of_slots_restart_the_schedule():
    # period 3 at m = 4: member 0 gets 2 steps in slot i of a run when
    # i % 3 == 0, else 1, and a sum of n rademacher(1) steps has n's parity
    model = schedule(rademacher(1.0), gaussian(0.0), gaussian(0.0))
    averaged = slot_noise_averages(model, 4, 70, np.random.default_rng(6), run_slots=10)
    parity = np.rint(averaged * 4).astype(np.int64) % 2
    assert parity.tolist() == [0, 1, 1, 0, 1, 1, 0, 1, 1, 0] * 7
    with pytest.raises(ValueError):
        slot_noise_averages(model, 4, 70, np.random.default_rng(6), run_slots=8)
    with pytest.raises(ValueError):
        slot_noise_averages(model, 4, 70, np.random.default_rng(6), run_slots=0)


# --- encoder / channel / decoder ---------------------------------------------------

def oracle_decode(senders, repetitions, power, noise, seed):
    """One decode of ``senders`` by a fresh oracle seeded with ``seed``."""
    oracle = RepetitionDisjunctionOracle(noise, power, repetitions,
                                         np.random.default_rng(seed))
    return oracle.decode_block(senders)


def test_threshold_decode_tie_goes_to_false():
    # rademacher(0.5) noise, m = 1, P = 1: each slot average is a tie at the
    # sqrt(P)/2 = 0.5 threshold (+0.5 silent, 1 - 0.5 with a sender) or clear of it
    noise = slot_noise_averages(rademacher(0.5), 1, 200, np.random.default_rng(3))
    assert set(noise) == {-0.5, 0.5}
    silent = oracle_decode(np.zeros(200, int), 1, 1.0, rademacher(0.5), 3)
    assert not silent.any()
    sending = oracle_decode(np.ones(200, int), 1, 1.0, rademacher(0.5), 3)
    np.testing.assert_array_equal(sending, noise > 0)


def test_repetition_oracle_rejects_a_bad_code_and_keeps_the_threshold():
    # the repetition count and the power are checked once, when the oracle is built
    for repetitions, power in ((0, 1.0), (1, 0.0), (1, math.inf)):
        with pytest.raises(ValueError):
            RepetitionDisjunctionOracle(rademacher(1.0), power, repetitions,
                                        np.random.default_rng(0))
    # the threshold is sqrt(P)/2: silent slots average +-1, which clears it at
    # P = 1 and ties it at P = 4
    silent = np.zeros(100, int)
    noise = slot_noise_averages(rademacher(1.0), 1, 100, np.random.default_rng(0))
    decoded = oracle_decode(silent, 1, 1.0, rademacher(1.0), 0)
    np.testing.assert_array_equal(decoded, noise > 0)
    assert not oracle_decode(silent, 1, 4.0, rademacher(1.0), 0).any()


def test_repetition_oracle_matches_scalar_pipeline():
    # the slot pipeline written out step by step, against the block path
    power, m = 2.5, 5
    senders = np.array([1, 0, 3, 2])
    noise_model = schedule(gaussian(0.8), uniform(0.3))
    block = oracle_decode(senders, m, power, noise_model, 42)
    noise = slot_noise_averages(noise_model, m, len(senders), np.random.default_rng(42))
    root = math.sqrt(power)
    scalar = [root * count + noise[i] > root / 2 for i, count in enumerate(senders)]
    np.testing.assert_array_equal(block, np.array(scalar))


def test_repetition_oracle_is_one_sided_and_monotone_in_senders():
    # errors on all-false slots only when the averaged noise exceeds +threshold,
    # and adding a sender can only turn decodes from false to true
    power, m, slots = 1.0, 9, 2000
    decoded_silent = oracle_decode(np.zeros(slots, int), m, power, gaussian(1.0), 11)
    averaged = slot_noise_averages(gaussian(1.0), m, slots,
                                   np.random.default_rng(11))
    np.testing.assert_array_equal(decoded_silent, averaged > 0.5)

    decoded_true = oracle_decode(np.ones(slots, int), m, power, gaussian(1.0), 11)
    assert np.all(decoded_true >= decoded_silent)
    # with a sender the decode fails only if noise drags the slot down
    np.testing.assert_array_equal(decoded_true, averaged > -0.5)


# --- exact gaussian error and calibration -----------------------------------------

def test_gaussian_slot_error_exact_reference_value():
    assert gaussian_slot_error_exact(1.0, 1.0, 45) == pytest.approx(
        7.962301575908114e-4, rel=1e-12)


def test_gaussian_slot_error_exact_matches_scipy_tail():
    from scipy.stats import norm
    for sigma, power, m in [(1.0, 1.0, 45), (0.5, 2.0, 10), (3.0, 1.0, 300)]:
        x = math.sqrt(power * m) / (2 * sigma)
        assert gaussian_slot_error_exact(sigma, power, m) == pytest.approx(
            2 * norm.sf(x), rel=1e-10)


def test_gaussian_slot_error_monotone_and_validated():
    errs = [gaussian_slot_error_exact(1.0, 1.0, m) for m in (1, 5, 25, 125)]
    assert errs == sorted(errs, reverse=True)
    with pytest.raises(ValueError):
        gaussian_slot_error_exact(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        gaussian_slot_error_exact(1.0, 1.0, 0)


def test_tail_constant_one_eighth_is_safe_for_gaussian():
    # exact excursion probability <= exp(1 - c m P / K^2) at c = 1/8, K = sigma
    for sigma in (0.5, 1.0, 2.0):
        for power in (0.5, 1.0, 4.0):
            for m in range(1, 400, 7):
                exact = gaussian_slot_error_exact(sigma, power, m)
                hoeffding = math.exp(1.0 - 0.125 * m * power / sigma**2)
                assert exact <= hoeffding


def test_empirical_gaussian_excursion_rate_matches_exact():
    sigma, power, m, slots = 1.0, 1.0, 45, 200_000
    averaged = slot_noise_averages(gaussian(sigma), m, slots,
                                   np.random.default_rng(2024))
    rate = float((np.abs(averaged) >= math.sqrt(power) / 2).mean())
    exact = gaussian_slot_error_exact(sigma, power, m)
    se = math.sqrt(exact * (1 - exact) / slots)
    assert abs(rate - exact) <= 3 * se


# --- repetition-code oracle ---------------------------------------------------------

def test_repetition_oracle_decodes_the_disjunction():
    # without noise a slot decodes true iff it has a sender, whatever their number
    oracle = RepetitionDisjunctionOracle(gaussian(0.0), 1.0, 4, np.random.default_rng(1))
    senders = np.array([1, 0, 2, 0, 3])
    np.testing.assert_array_equal(oracle.decode_block(senders), senders > 0)


def test_transmit_block_zero_noise_recovers_exact_disjunction():
    # six nodes' messages over 40 slots: the OR of each column is what a
    # noiseless repetition code decodes from the column's sender count
    messages = np.random.default_rng(5).random((6, 40)) < 0.3
    counts = messages.sum(axis=0)
    assert {0, 1, 2, 3} <= set(counts.tolist())
    decoded = oracle_decode(counts, 3, 2.0, gaussian(0.0), 0)
    np.testing.assert_array_equal(decoded, messages.any(axis=0))


def test_repetition_oracle_starts_every_call_at_step_0():
    # m = 3 over (rademacher(1), gaussian(0)): a slot from step 0 holds two
    # rademacher steps (average 2/3 w.p. 1/4 clears sqrt(P)/2 = 1/2), one
    # from step 3 would hold one (average +-1/3 never does).  Every call is a
    # run from step 0, so the second call of each pair decodes true as often
    model = schedule(rademacher(1.0), gaussian(0.0))
    oracle = RepetitionDisjunctionOracle(model, 1.0, 3, np.random.default_rng(8))
    decoded = np.array([oracle.decode_block(np.zeros(1, int))[0]
                        for _ in range(400)])
    assert 20 <= decoded[0::2].sum() <= 80
    assert 20 <= decoded[1::2].sum() <= 80
