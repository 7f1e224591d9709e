"""Adder channel, noise families, and the repetition disjunction code."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gtmac.channel import (NoiseModel, RepetitionDisjunctionOracle, gaussian,
                           gaussian_slot_error_exact, rademacher, sample_noise_block,
                           schedule, slot_noise_averages, transmit_block, uniform)


def absolute_moment_ratio(model: NoiseModel, n: int) -> float:
    """(E|Z|**n)**(1/n) / sqrt(n), from closed-form moments (test-side oracle)."""
    a = model.scale
    if model.family == "gaussian":
        if a == 0.0:
            return 0.0
        # E|Z|**n = sigma**n * 2**(n/2) * Gamma((n+1)/2) / sqrt(pi)
        log_moment = (n * math.log(a) + 0.5 * n * math.log(2.0)
                      + math.lgamma((n + 1) / 2) - 0.5 * math.log(math.pi))
        return math.exp(log_moment / n) / math.sqrt(n)
    if model.family == "uniform":
        # E|Z|**n = a**n / (n+1)
        return a / ((n + 1) ** (1.0 / n) * math.sqrt(n))
    if model.family == "rademacher":
        return a / math.sqrt(n)
    raise ValueError(model.family)


# --- noise models ----------------------------------------------------------------

def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("lognormal", scale=1.0)
    with pytest.raises(ValueError):
        gaussian(-1.0)
    with pytest.raises(ValueError):
        gaussian(float("inf"))
    with pytest.raises(ValueError):
        schedule()
    with pytest.raises(ValueError):
        schedule(schedule(gaussian(1.0)), rademacher(1.0))  # no nesting


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
    if model.family == "gaussian":
        assert ratios[0] == pytest.approx(model.scale * math.sqrt(2 / math.pi))
        assert max(ratios) == ratios[0]
    if model.family == "rademacher":
        assert max(ratios) == pytest.approx(model.norm_bound)  # K is tight


def test_schedule_cycles_through_members():
    model = schedule(rademacher(3.0), gaussian(0.0))
    rng = np.random.default_rng(0)
    draws = sample_noise_block(model, 0, 10, rng)
    assert all(abs(v) == 3.0 for v in draws[0::2])   # even steps: +-3
    assert all(v == 0.0 for v in draws[1::2])        # odd steps: degenerate gaussian
    # a nonzero start step shifts the pattern
    shifted = sample_noise_block(model, 1, 4, np.random.default_rng(0))
    assert shifted[0] == 0.0 and abs(shifted[1]) == 3.0


def test_block_sampler_statistics():
    rng = np.random.default_rng(7)
    block = sample_noise_block(gaussian(2.0), 0, 200_000, rng)
    assert abs(block.mean()) < 0.02
    assert block.std() == pytest.approx(2.0, rel=0.01)
    block = sample_noise_block(uniform(1.0), 0, 200_000, rng)
    assert block.std() == pytest.approx(1 / math.sqrt(3), rel=0.01)
    assert set(sample_noise_block(rademacher(2.0), 0, 200, rng)) == {-2.0, 2.0}
    assert np.all(np.abs(sample_noise_block(uniform(0.5), 0, 200, rng)) <= 0.5)
    assert np.all(sample_noise_block(gaussian(0.0), 0, 10, rng) == 0.0)


# --- encoder / channel / decoder ---------------------------------------------------

def test_threshold_decode_tie_goes_to_false():
    # rademacher(0.5) noise, m = 1, P = 1: each slot average is a tie at the
    # sqrt(P)/2 = 0.5 threshold (+0.5 silent, 1 - 0.5 with a sender) or clear of it
    noise = sample_noise_block(rademacher(0.5), 0, 200, np.random.default_rng(3))
    assert set(noise) == {-0.5, 0.5}
    silent = transmit_block(np.zeros((1, 200), bool), 1, 1.0, rademacher(0.5),
                            np.random.default_rng(3))
    assert not silent.any()
    sending = transmit_block(np.ones((1, 200), bool), 1, 1.0, rademacher(0.5),
                             np.random.default_rng(3))
    np.testing.assert_array_equal(sending, noise > 0)


def test_transmit_block_zero_noise_recovers_exact_disjunction():
    rng = np.random.default_rng(5)
    messages = rng.random((6, 40)) < 0.3
    decoded = transmit_block(messages, 3, 2.0, gaussian(0.0), np.random.default_rng(0))
    np.testing.assert_array_equal(decoded, messages.any(axis=0))


def test_transmit_block_validates_shapes_and_threshold():
    for shape in ((4,), (4, 3, 1)):
        with pytest.raises(ValueError):
            transmit_block(np.zeros(shape, bool), 1, 1.0, rademacher(1.0),
                           np.random.default_rng(0))
    # the repetition count and the power are checked where they are used
    for repetitions, power in ((0, 1.0), (1, 0.0), (1, math.inf)):
        with pytest.raises(ValueError):
            transmit_block(np.zeros((4, 3), bool), repetitions, power, rademacher(1.0),
                           np.random.default_rng(0))
    # the threshold is sqrt(P)/2: silent slots average +-1, which clears it at
    # P = 1 and ties it at P = 4
    silent = np.zeros((4, 100), bool)
    noise = sample_noise_block(rademacher(1.0), 0, 100, np.random.default_rng(0))
    decoded = transmit_block(silent, 1, 1.0, rademacher(1.0), np.random.default_rng(0))
    np.testing.assert_array_equal(decoded, noise > 0)
    assert not transmit_block(silent, 1, 4.0, rademacher(1.0),
                              np.random.default_rng(0)).any()


def test_transmit_block_matches_scalar_pipeline():
    # the slot pipeline written out step by step, against the block path
    power, m, slots = 2.5, 5, 4
    messages = np.array([[True, False, False, True],
                         [False, False, True, True],
                         [False, False, False, False]])
    noise_model = schedule(gaussian(0.8), uniform(0.3))
    block = transmit_block(messages, m, power, noise_model, np.random.default_rng(42))
    noise = sample_noise_block(noise_model, 0, m * slots,
                               np.random.default_rng(42)).reshape(slots, m)
    root = math.sqrt(power)
    scalar = []
    for i in range(slots):
        level = root * sum(bool(bit) for bit in messages[:, i])  # true senders
        steps = [level + noise[i, t] for t in range(m)]
        scalar.append(sum(steps) / m > root / 2)
    np.testing.assert_array_equal(block, np.array(scalar))


def test_transmit_block_is_one_sided_and_monotone_in_senders():
    # errors on all-false slots only when the averaged noise exceeds +threshold,
    # and adding a true sender can only turn decodes from false to true
    power, m, slots = 1.0, 9, 2000
    silent = np.zeros((1, slots), bool)
    decoded_silent = transmit_block(silent, m, power, gaussian(1.0),
                                    np.random.default_rng(11))
    averaged = slot_noise_averages(gaussian(1.0), m, slots,
                                   np.random.default_rng(11))
    np.testing.assert_array_equal(decoded_silent, averaged > 0.5)

    one_true = np.vstack([np.zeros(slots, bool), np.ones(slots, bool)])
    decoded_true = transmit_block(one_true, m, power, gaussian(1.0),
                                  np.random.default_rng(11))
    assert np.all(decoded_true >= decoded_silent)
    # with a true sender the decode fails only if noise drags the slot down
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
    oracle = RepetitionDisjunctionOracle(gaussian(0.0), 1.0, 4, np.random.default_rng(1))
    messages = np.array([[True, False, False, False, True],
                         [False, False, True, False, True],
                         [False, False, False, False, False]])
    np.testing.assert_array_equal(oracle.decode_block(messages),
                                  messages.any(axis=0))


def test_repetition_oracle_advances_schedule_between_calls():
    # odd repetition count over a 2-cycle schedule: the step counter must carry
    # across calls for the second block to see the shifted pattern
    model = schedule(rademacher(1.0), gaussian(0.0))
    oracle = RepetitionDisjunctionOracle(model, 1.0, 3, np.random.default_rng(0))
    oracle.decode_block(np.zeros((1, 1), bool))
    assert oracle._next_step == 3
    oracle.decode_block(np.zeros((1, 1), bool))
    assert oracle._next_step == 6
