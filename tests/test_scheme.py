"""Elimination scheme: node-level semantics, fast path, and their agreement."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtmac._ranges import MAX_SLOT_CAP
from gtmac.scheme import (FastRunResult, IdealDisjunctionOracle, Population,
                          SchemeConfig, optimal_choice_probability, receiver_update,
                          run_scheme, run_scheme_fast, sample_slots_until_exact,
                          slot_rng, surplus_steps)


def brute_force_single_slot_law(n_inactive: int, k: int, p: float) -> dict:
    """Exact joint law of (any-active-chosen, removed-count) for one slot.

    Enumerates all 2**(n_inactive + k) chosen-set patterns; nodes 0..k-1 are
    the active ones.  Independent of the samplers under test.
    """
    total = n_inactive + k
    law: dict[tuple[bool, int], float] = {}
    for pattern in itertools.product((False, True), repeat=total):
        prob = 1.0
        for bit in pattern:
            prob *= p if bit else (1.0 - p)
        any_active = any(pattern[:k])
        removed = 0 if any_active else sum(pattern[k:])
        key = (any_active, removed)
        law[key] = law.get(key, 0.0) + prob
    return law


def fast_path_single_slot_law(n_inactive: int, k: int, p: float) -> dict:
    """Analytic law the fast path samples from."""
    q = 1.0 - p
    law = {(True, 0): 1.0 - q**k}
    for removed in range(n_inactive + 1):
        law[(False, removed)] = (q**k * math.comb(n_inactive, removed)
                                 * p**removed * q**(n_inactive - removed))
    return {key: val for key, val in law.items() if val > 0.0}


# --- optimal choice probability ------------------------------------------------

def test_optimal_choice_probability_values():
    assert optimal_choice_probability(1) == 0.5
    assert optimal_choice_probability(20) == pytest.approx(1 / 21)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 17])
def test_optimal_choice_probability_maximises_removal_rate(k):
    if k == 0:  # k >= 1: the budgets take ln(N/k), so there is no k = 0 optimum
        with pytest.raises(ValueError):
            optimal_choice_probability(k)
        return
    best = optimal_choice_probability(k)
    rate = lambda p: p * (1 - p) ** k
    for p in np.linspace(0.001, 0.999, 499):
        assert rate(best) >= rate(p)


def test_optimal_choice_probability_rejects_bad_k():
    with pytest.raises(ValueError):
        optimal_choice_probability(-1)
    with pytest.raises(TypeError):
        optimal_choice_probability(2.0)


# --- populations and configs ---------------------------------------------------

def test_population_validation():
    pop = Population(5, frozenset({0, 4}))
    assert pop.num_active == 2 and pop.num_inactive == 3
    assert list(pop.active_mask()) == [True, False, False, False, True]
    with pytest.raises(ValueError):
        Population(3, frozenset({3}))
    with pytest.raises(ValueError):
        Population(-1, frozenset())


def test_scheme_config_rejects_invalid_probability():
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            SchemeConfig(bad, 10, 0)
    with pytest.raises(ValueError):
        SchemeConfig(0.5, -1, 0)
    with pytest.raises(ValueError):
        SchemeConfig(0.5, 10, -3)
    # boundary values are legal (p = 1 discards every slot, p = 0 is stasis)
    SchemeConfig(0.0, 1, 0)
    SchemeConfig(1.0, 1, 0)


# --- receiver update -------------------------------------------------------------

def _mask(total: int, nodes) -> np.ndarray:
    """Bool vector over ``total`` nodes, true on ``nodes``."""
    mask = np.zeros(total, dtype=bool)
    mask[list(nodes)] = True
    return mask


def test_receiver_update_keeps_set_on_true():
    potential = _mask(4, {0, 1, 2})
    new = receiver_update(potential, _mask(4, {1, 2}), decoded_disjunction=True)
    assert np.array_equal(new, _mask(4, {0, 1, 2}))


def test_receiver_update_removes_all_chosen_on_false():
    potential = _mask(10, {0, 1, 2, 3})
    new = receiver_update(potential, _mask(10, {1, 3, 9}), decoded_disjunction=False)
    assert np.array_equal(new, _mask(10, {0, 2}))   # node 9 already gone: no-op
    assert new.sum() - 1 == 1                       # surplus |P| - k with k = 1
    assert np.array_equal(potential, _mask(10, {0, 1, 2, 3}))  # input untouched


def test_receiver_update_can_evict_active_under_decoding_error():
    # a wrong 'false' decode removes a chosen active node; surplus goes negative
    new = receiver_update(_mask(2, {0, 1}), _mask(2, {0}), decoded_disjunction=False)
    assert np.array_equal(new, _mask(2, {1}))
    assert new.sum() - 2 == -1                      # k = 2


# --- node-level runs -------------------------------------------------------------

def test_run_scheme_is_deterministic():
    pop = Population(30, frozenset({4, 7, 19}))
    cfg = SchemeConfig(0.25, 60, master_seed=99)
    a = run_scheme(pop, cfg, IdealDisjunctionOracle())
    b = run_scheme(pop, cfg, IdealDisjunctionOracle())
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    # a different master seed changes which slots choose an active node
    other = run_scheme(pop, SchemeConfig(0.25, 60, master_seed=100),
                       IdealDisjunctionOracle())
    assert other[1] != a[1]


def test_run_scheme_ideal_oracle_invariants():
    pop = Population(40, frozenset({0, 13}))
    active = pop.active_mask()
    cfg = SchemeConfig(1 / 3, 80, master_seed=5)
    final, outcomes = run_scheme(pop, cfg, IdealDisjunctionOracle())
    assert len(outcomes) == 80
    state = np.ones(40, dtype=bool)
    for i, out in enumerate(outcomes):
        # slot i's chosen set is replayed from the common randomness
        chosen = slot_rng(cfg.master_seed, i).random(40) < cfg.choice_probability
        assert out.any_active_chosen == bool((chosen & active).any())
        nxt = receiver_update(state, chosen, out.decoded_disjunction)
        # ideal oracle: decoded bit equals the true disjunction
        assert out.decoded_disjunction == out.any_active_chosen
        # removals only on decoded false
        if out.decoded_disjunction:
            assert np.array_equal(nxt, state)
        assert not (nxt & ~state).any()
        assert not (active & ~nxt).any()
        state = nxt
    assert np.array_equal(state, final)
    assert final.sum() - pop.num_active >= 0
    # p = 0 chooses nobody, so no slot removes anything
    final, outcomes = run_scheme(pop, SchemeConfig(0.0, 5, 5), IdealDisjunctionOracle())
    assert np.array_equal(final, np.ones(40, dtype=bool))
    assert not any(out.any_active_chosen or out.decoded_disjunction for out in outcomes)


def test_run_scheme_k0_p1_clears_everything_in_one_slot():
    # k >= 1 in every layer: the k = 0 population of this run is rejected
    with pytest.raises(ValueError):
        Population(17, frozenset())


def test_run_scheme_single_slot_mean_surplus():
    # N = 100, k = 2, p = 1/3: expected surplus after one slot is 2300/27
    pop = Population(102, frozenset({0, 1}))
    runs = 100_000
    surpluses = np.empty(runs)
    for seed in range(runs):
        final, _ = run_scheme(pop, SchemeConfig(1 / 3, 1, seed),
                              IdealDisjunctionOracle())
        surpluses[seed] = final.sum() - pop.num_active
    se = surpluses.std(ddof=1) / math.sqrt(runs)
    assert abs(surpluses.mean() - 2300 / 27) <= 3 * se


class _AlwaysFalseOracle(IdealDisjunctionOracle):
    """Adversarial oracle decoding 'false' on every slot."""

    def decode_block(self, senders):
        return np.zeros(len(senders), dtype=bool)


def test_run_scheme_noisy_oracle_can_evict_active_nodes():
    pop = Population(10, frozenset({3}))
    cfg = SchemeConfig(0.9, 30, master_seed=8)
    final, outcomes = run_scheme(pop, cfg, _AlwaysFalseOracle())
    assert not final[3]                       # the active node was evicted
    assert any(o.any_active_chosen and not o.decoded_disjunction for o in outcomes)
    assert not np.array_equal(final, pop.active_mask())


class _RecordingOracle(IdealDisjunctionOracle):
    """Ideal oracle that keeps the sender counts it was handed."""

    def decode_block(self, senders):
        self.senders = np.array(senders)
        return super().decode_block(senders)


def test_run_scheme_hands_the_oracle_only_the_active_rows():
    # inactive nodes always send 0, so the oracle sees per slot the number of
    # active nodes chosen: the column sums of their chosen bits
    pop = Population(50, frozenset({41, 3, 17}))
    cfg = SchemeConfig(0.3, 25, master_seed=12)
    oracle = _RecordingOracle()
    run_scheme(pop, cfg, oracle)
    chosen = np.array([slot_rng(cfg.master_seed, i).random(50) < cfg.choice_probability
                       for i in range(25)])
    expected = chosen[:, 3].astype(int) + chosen[:, 17] + chosen[:, 41]
    np.testing.assert_array_equal(oracle.senders, expected)
    assert oracle.senders.shape == (25,) and oracle.senders.dtype.kind == "i"
    assert 0 in oracle.senders and oracle.senders.max() >= 2


@settings(max_examples=40, deadline=None)
@given(total=st.integers(1, 12), seed=st.integers(0, 2**32),
       p=st.floats(0.05, 0.95), budget=st.integers(1, 25),
       data=st.data())
def test_run_scheme_never_loses_active_nodes_under_ideal_oracle(total, seed, p, budget, data):
    k = data.draw(st.integers(1, total))
    active = frozenset(data.draw(
        st.sets(st.integers(0, total - 1), min_size=k, max_size=k)))
    pop = Population(total, active)
    final, _ = run_scheme(pop, SchemeConfig(p, budget, seed), IdealDisjunctionOracle())
    assert not (pop.active_mask() & ~final).any()


# --- slot substreams -------------------------------------------------------------

def test_slot_rng_substreams_are_reproducible_and_distinct():
    a = slot_rng(123, 0).random(4)
    b = slot_rng(123, 0).random(4)
    c = slot_rng(123, 1).random(4)
    d = slot_rng(124, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# --- fast path --------------------------------------------------------------------

def test_fast_path_trace_shape_and_determinism():
    pop = Population(25, frozenset({0, 1, 2}))
    cfg = SchemeConfig(0.25, 50, master_seed=17)
    res = run_scheme_fast(pop, cfg)
    assert isinstance(res, FastRunResult)
    assert len(res.surplus_trace) == 51
    assert res.surplus_trace[0] == 22
    assert res.final_surplus == res.surplus_trace[-1]
    assert res == run_scheme_fast(pop, cfg)


def test_fast_path_surplus_never_increases():
    pop = Population(200, frozenset(range(4)))
    res = run_scheme_fast(pop, SchemeConfig(0.2, 300, master_seed=1))
    trace = res.surplus_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    if res.slots_until_exact is not None:
        assert trace[res.slots_until_exact] == 0
        assert all(v > 0 for v in trace[:res.slots_until_exact])


def test_fast_path_p0_stasis():
    pop = Population(60, frozenset(range(3)))
    res = run_scheme_fast(pop, SchemeConfig(0.0, 40, master_seed=2))
    assert set(res.surplus_trace) == {57}
    assert res.slots_until_exact is None


def test_fast_path_k0_p1_finishes_in_one_slot():
    # k >= 1 in every layer: neither the population nor the fast path's kernel takes k = 0
    with pytest.raises(ValueError):
        Population(9, frozenset())
    with pytest.raises(ValueError):
        list(surplus_steps(9, 0, 1.0, 5, np.random.default_rng(3), 1))


def test_fast_path_empty_population_is_immediately_exact():
    pop = Population(2, frozenset({0, 1}))
    res = run_scheme_fast(pop, SchemeConfig(0.5, 4, master_seed=4))
    assert res.slots_until_exact == 0
    assert res.surplus_trace == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("n_inactive,k", [(3, 1), (2, 2), (4, 1), (1, 3)])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_single_slot_laws_agree(n_inactive, k, p):
    brute = brute_force_single_slot_law(n_inactive, k, p)
    analytic = fast_path_single_slot_law(n_inactive, k, p)
    assert set(brute) == set(analytic)
    for key, prob in brute.items():
        assert analytic[key] == pytest.approx(prob, abs=1e-12)


def test_fast_path_matches_node_level_distribution():
    # same one-slot surplus distribution from both simulators (chi-square)
    from scipy.stats import chisquare
    n_inactive, k, p, samples = 5, 1, 0.5, 40_000
    pop = Population(n_inactive + k, frozenset({0}))
    law = fast_path_single_slot_law(n_inactive, k, p)

    def distribution(runner):
        counts = np.zeros(n_inactive + 1)
        for seed in range(samples):
            counts[runner(SchemeConfig(p, 1, seed))] += 1
        return counts

    fast_counts = distribution(lambda cfg: run_scheme_fast(pop, cfg).final_surplus)
    node_counts = distribution(
        lambda cfg: run_scheme(pop, cfg, IdealDisjunctionOracle())[0].sum() - k)
    expected = np.array([
        sum(prob for (any_active, removed), prob in law.items()
            if (n_inactive if any_active else n_inactive - removed) == m)
        for m in range(n_inactive + 1)
    ]) * samples
    for counts in (fast_counts, node_counts):
        keep = expected > 0
        stat = chisquare(counts[keep], expected[keep])
        assert stat.pvalue > 1e-3


# --- surplus kernel: the O(1) sampler and the step kernel ----------------------------

def _step_kernel_slots(n_inactive, k, p, slot_cap, rng, count):
    """Slots until exact read off the step kernel's paths (-1 = censored)."""
    paths = np.array(list(surplus_steps(n_inactive, k, p, slot_cap, rng, count)))
    exact = paths == 0
    return np.where(exact.any(axis=0), exact.argmax(axis=0), -1)


@pytest.mark.parametrize("n_inactive,k,p,expected", [
    (0, 3, 0.3, 0),      # nothing to eliminate
    pytest.param(5, 0, 1.0, ValueError, id="5-0-1.0-1"),  # k >= 1: k = 0 is rejected
    (5, 3, 0.0, -1),     # nobody is ever chosen
    (5, 3, 1.0, -1),     # every slot is discarded: r = 0
    (40, 2, 1e-300, -1),  # G overflows any integer long before the cap
])
def test_kernel_degenerate_inputs(n_inactive, k, p, expected):
    for sampler in (sample_slots_until_exact, _step_kernel_slots):
        if expected is ValueError:
            with pytest.raises(ValueError):
                sampler(n_inactive, k, p, 50, np.random.default_rng(7), 200)
            continue
        slots = sampler(n_inactive, k, p, 50, np.random.default_rng(7), 200)
        assert slots.dtype == np.int64
        assert np.all(slots == expected), sampler.__name__


class _UniformsNearOne:
    """Generator stand-in whose uniforms are the largest double below 1."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_sampler_tiny_p_with_uniform_near_one_is_censored_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slots = sample_slots_until_exact(10_000, 20, 1e-20, MAX_SLOT_CAP,
                                         _UniformsNearOne(), 4)
    assert np.all(slots == -1)


def test_sampler_validates_inputs():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        sample_slots_until_exact(-1, 2, 0.5, 10, rng, 1)
    with pytest.raises(ValueError):
        sample_slots_until_exact(5, 2, 1.5, 10, rng, 1)
    with pytest.raises(ValueError):
        sample_slots_until_exact(5, 2, 0.5, MAX_SLOT_CAP + 1, rng, 1)
    with pytest.raises(ValueError):
        surplus_steps(5, 2, 0.5, -1, rng, 1)
    with pytest.raises(TypeError):  # a bool is not a count
        surplus_steps(True, 2, 0.5, 3, rng, 1)


def test_sampler_and_step_kernel_agree_in_law():
    # two-sample chi-square on T at small (N, k), plus each against the exact law
    from scipy.stats import chi2_contingency, chisquare
    from gtmac.bounds import exact_error_curve

    n_inactive, k, p, cap, samples = 6, 2, 1 / 3, 400, 40_000
    fast = sample_slots_until_exact(n_inactive, k, p, cap,
                                    np.random.default_rng(11), samples)
    stepped = _step_kernel_slots(n_inactive, k, p, cap,
                                 np.random.default_rng(12), samples)
    assert not np.any(fast < 0) and not np.any(stepped < 0)
    edges = np.arange(0, 41)  # bins {0}, ..., {39}, then T >= 40
    tail = exact_error_curve(n_inactive, k, p, edges)
    expected = np.append(-np.diff(np.append(1.0, tail)), tail[-1]) * samples

    def counts(slots):
        return np.bincount(np.minimum(slots, 41), minlength=42)[1:]

    keep = expected[1:] > 5
    table = np.array([counts(fast)[keep], counts(stepped)[keep]])
    assert chi2_contingency(table).pvalue > 1e-3
    for slots in (fast, stepped):
        observed = counts(slots)[keep]
        assert chisquare(observed, expected[1:][keep] * observed.sum()
                         / expected[1:][keep].sum()).pvalue > 1e-3
