"""Adder channel, noise families, and the repetition disjunction code."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from gtmac import bounds, channel
from gtmac.bounds import gaussian_slot_error_exact
from gtmac.channel import NoiseModel, RepetitionDisjunctionOracle, slot_noise_averages


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
        NoiseModel([("gaussian", -1.0)])
    with pytest.raises(ValueError):
        NoiseModel([("gaussian", float("inf"))])
    with pytest.raises(ValueError):
        NoiseModel([])


def test_largest_scales():
    assert NoiseModel([("gaussian", 1.5)]).largest_scale == 1.5
    assert NoiseModel([("uniform", 2.0)]).largest_scale == 2.0
    assert NoiseModel([("rademacher", 0.25)]).largest_scale == 0.25
    assert NoiseModel.parse("gaussian=0.5,rademacher=2.0").largest_scale == 2.0


@pytest.mark.parametrize("family, log_mgf", [
    ("gaussian", lambda t: t * t / 2),
    ("uniform", lambda t: math.log(math.sinh(t) / t)),
    ("rademacher", lambda t: math.log(math.cosh(t))),
])
def test_tail_constant_limit_is_each_familys_variance_proxy(family, log_mgf):
    # a step of scale 1 with limit c has proxy s**2 = 1/(8c): E exp(tZ) <= exp(t**2 s**2/2)
    proxy = 1.0 / (8.0 * NoiseModel([(family, 1.0)]).tail_constant_limit(1.0))
    for t in np.linspace(0.01, 50.0, 500):
        assert log_mgf(t) <= t * t * proxy / 2 * (1 + 1e-12)
    # a smaller proxy fails near t = 0, where log E exp(tZ) ~ t**2 Var Z / 2
    assert log_mgf(1e-3) > (1e-3) ** 2 * proxy * 0.999 / 2
    # K/a is squared: K = 2a quadruples the limit, and an overflow reads inf
    assert NoiseModel([(family, 0.5)]).tail_constant_limit(1.0) == 4 / (8.0 * proxy)
    assert NoiseModel([(family, 1.0)]).tail_constant_limit(1e200) == math.inf


def test_tail_constant_limit_takes_the_least_member_and_skips_zero_scales():
    schedule = NoiseModel.parse("gaussian=0.5,uniform=2,rademacher=1")
    assert schedule.tail_constant_limit(2.0) == 0.375  # the uniform member's
    assert NoiseModel.parse("uniform=0,rademacher=0").tail_constant_limit(1.0) == math.inf


@pytest.mark.parametrize("spec", ["gaussian=1.5", "uniform=3", "rademacher=1e-300",
                                  "gaussian=8,uniform=8,rademacher=8",
                                  "uniform=0.5,rademacher=0,gaussian=2"])
def test_the_largest_scale_proves_the_default_tail_constant(spec):
    model = NoiseModel.parse(spec)
    assert model.tail_constant_limit(model.largest_scale) >= bounds.TAIL_CONSTANT


def test_k_below_the_largest_scale_is_proved_by_the_proxy():
    # uniform on [-3, 3] has proxy sqrt(3) < 2, so K = 2 proves c up to 4/24
    assert NoiseModel([("uniform", 3.0)]).tail_constant_limit(2.0) == pytest.approx(
        1 / 6, rel=1e-15)
    assert NoiseModel([("gaussian", 3.0)]).tail_constant_limit(2.0) < bounds.TAIL_CONSTANT


@pytest.mark.parametrize("model", [
    NoiseModel([("gaussian", 1.5)]), NoiseModel([("uniform", 0.0)]),
    NoiseModel([("rademacher", 1e-300)]),
    NoiseModel([("uniform", 0.5), ("rademacher", 1.0), ("gaussian", 2.0)]),
    NoiseModel.parse("gaussian=8,uniform=8,rademacher=8"),
    NoiseModel.parse(" Gaussian = 8 ,UNIFORM=1e-3,, rademacher =8 "),
], ids=["gaussian", "uniform", "rademacher", "three", "lowsnr", "padded"])
def test_spec_parses_back_to_an_equal_model(model):
    assert NoiseModel.parse(model.spec) == model


def test_parse_reads_families_without_case_or_padding():
    padded = NoiseModel.parse(" Gaussian = 8 ,UNIFORM=1e-3,, rademacher =8 ")
    assert padded.members == (("gaussian", 8.0), ("uniform", 0.001), ("rademacher", 8.0))
    assert padded.spec == "gaussian=8.0,uniform=0.001,rademacher=8.0"


@pytest.mark.parametrize("spec, message", [
    ("", "empty noise spec"),
    (" , ", "empty noise spec"),
    ("gaussian", "noise spec 'gaussian' is not family=scale"),
    ("cauchy=1", "unknown noise family 'cauchy'"),
    ("gaussian=abc", "could not convert string to float: 'abc'"),
    ("gaussian=1,uniform=-1", "scale must be a finite real >= 0, got -1.0"),
])
def test_malformed_specs_raise_value_error(spec, message):
    with pytest.raises(ValueError) as info:
        NoiseModel.parse(spec)
    assert str(info.value) == message


@pytest.mark.parametrize("model", [
    NoiseModel([("gaussian", 1.0)]), NoiseModel([("gaussian", 1.7)]),
    NoiseModel([("uniform", 2.3)]), NoiseModel([("rademacher", 0.9)])])
def test_norm_bound_dominates_all_moment_ratios(model):
    # the largest scale, the default K, bounds sup_n (E|Z|^n)^(1/n)/sqrt(n)
    ratios = [absolute_moment_ratio(model, n) for n in range(1, 41)]
    assert max(ratios) <= model.largest_scale + 1e-12
    # and the n = 1 ratio identifies the actual norm of each family
    [(family, scale)] = model.members
    if family == "gaussian":
        assert ratios[0] == pytest.approx(scale * math.sqrt(2 / math.pi))
        assert max(ratios) == ratios[0]
    if family == "rademacher":
        assert max(ratios) == pytest.approx(model.largest_scale)  # K is tight


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
    model = NoiseModel.parse("rademacher=3,gaussian=0")
    draws = slot_noise_averages(model, 1, 10, np.random.default_rng(0))
    assert all(abs(v) == 3.0 for v in draws[0::2])   # even steps: +-3
    assert all(v == 0.0 for v in draws[1::2])        # odd steps: degenerate gaussian


def test_block_sampler_statistics():
    # at m = 1 the slot averages are single steps of each family
    rng = np.random.default_rng(7)
    block = slot_noise_averages(NoiseModel([("gaussian", 2.0)]), 1, 200_000, rng)
    assert abs(block.mean()) < 0.02
    assert block.std() == pytest.approx(2.0, rel=0.01)
    block = slot_noise_averages(NoiseModel([("uniform", 1.0)]), 1, 200_000, rng)
    assert block.std() == pytest.approx(1 / math.sqrt(3), rel=0.01)
    assert set(slot_noise_averages(NoiseModel([("rademacher", 2.0)]), 1, 200, rng)) == {-2.0, 2.0}
    assert np.all(np.abs(slot_noise_averages(NoiseModel([("uniform", 0.5)]), 1, 200, rng)) <= 0.5)
    assert np.all(slot_noise_averages(NoiseModel([("gaussian", 0.0)]), 1, 10, rng) == 0.0)


@pytest.mark.parametrize("model, m, start", [
    (NoiseModel([("gaussian", 1.3)]), 7, 5),
    (NoiseModel([("uniform", 0.8)]), 7, 5),
    (NoiseModel([("rademacher", 0.6)]), 7, 5),
    (NoiseModel.parse("gaussian=1,uniform=2,rademacher=0.5"), 8, 4),  # 8 mod 3 = 2
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
        fast_sums, slow_sums = (np.rint(side * m / model.largest_scale)
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
    model = rotated(NoiseModel.parse("uniform=0.25,rademacher=3,gaussian=0"), 1)
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
    model = rotated(NoiseModel.parse("gaussian=0,uniform=0,rademacher=0"), 2)
    assert np.all(slot_noise_averages(model, 5, 100, rng) == 0.0)
    assert rng.bit_generator.state == state
    # a zero-scale member leaves the others' law alone
    mixed = slot_noise_averages(NoiseModel.parse("gaussian=0,rademacher=1"), 4, 1000,
                                np.random.default_rng(9))
    assert set(mixed) <= {-0.5, 0.0, 0.5}


def test_uniform_slot_sums_hold_bounded_memory():
    # a per-step array here would be 2870 * 20000 * 8 B = 460 MB
    tracemalloc.start()
    try:
        averaged = slot_noise_averages(NoiseModel([("uniform", 8.0)]), 2870, 20_000,
                                       np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert averaged.std() == pytest.approx(8.0 / math.sqrt(3 * 2870), rel=0.02)


def test_uniform_chunks_stay_under_the_mmap_threshold_and_keep_the_draws():
    # e2e_lowsnr's uniform member: 1538 steps in each of a block's 4530
    # slots; a 2**16-value chunk peaked at 1.22 MB, which glibc maps and
    # unmaps afresh every chunk, and 2**14 at 0.33 MB (the cached Bin(1538,
    # 1/2) table, ~0.9 MB, is built first: it is not the chunk's)
    channel._binomial_table(1538, 0.5)
    rng = np.random.default_rng(35)
    tracemalloc.start()
    try:
        chunked = channel._uniform_steps(1538, 4530, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**10
    # the chunks draw the same words in the same order as one unchunked call
    reference = np.random.default_rng(35)
    assert chunked.tolist() == (2.0 * channel._bit_count_sums(1538, 4530, reference) - 1538).tolist()
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("period, m, slots, run", [
    (1, 7, 10, 10), (3, 4, 70, 10), (3, 6, 30, 30), (5, 2, 40, 8), (50, 4615, 302, 151),
])
def test_member_step_counts_match_the_broadcast_formula(period, m, slots, run):
    # every member gets m // period steps, plus one in the slots the formula names
    base, extra = divmod(m, period)
    first = extra * (np.arange(slots) % run) % period
    broadcast = base + ((np.arange(period)[:, None] - first) % period < extra)
    # the formula against each slot's steps counted one by one, slot i of a run from step i*m
    steps = (np.arange(slots) % run)[:, None] * m + np.arange(m)
    direct = np.stack([np.bincount(row % period, minlength=period) for row in steps], axis=1)
    np.testing.assert_array_equal(broadcast, direct)
    # slot_noise_averages against the formula: a lone rademacher(1) member j
    # among noiseless ones sums its n steps to 2B - n, whose parity is n's
    for j in range(period):
        members = [("gaussian", 0.0)] * period
        members[j] = ("rademacher", 1.0)
        averages = slot_noise_averages(NoiseModel(members), m, slots,
                                       np.random.default_rng(j), run_slots=run)
        sums = np.rint(m * averages).astype(np.int64)
        assert np.all(np.abs(sums) <= broadcast[j])
        np.testing.assert_array_equal(sums % 2, broadcast[j] % 2)


def test_schedule_slot_sums_hold_memory_flat_in_the_period():
    # a (period, slots) count array for 50 members over one 200 000-slot
    # `gtmac channel` chunk was 80 MB, and the slot sums peaked at 165 MiB
    def peak(model):
        tracemalloc.start()
        try:
            slot_noise_averages(model, 4615, 200_000, np.random.default_rng(8))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(NoiseModel([("gaussian", 1.0)]))
    fifty = peak(NoiseModel([("gaussian", 1.0)] * 50))
    assert fifty < 3 * one
    assert fifty < 20 * 2**20


# --- table-inverted binomials -----------------------------------------------------

def _fixed_draw_cases():
    for k in (1, 2, 5, 13, 20, 30):
        for p in (1 / (k + 1), 0.5):
            yield k, p


@pytest.mark.parametrize("n, p", list(_fixed_draw_cases()))
def test_binomial_table_atoms_are_the_exact_pmf_at_2_to_the_minus_64(n, p):
    # T_i = ceil(2**64 F(i)) from the exact CDF of the double p; atom i is
    # T_i - T_{i-1}, the last atom reaching 2**64, and every atom is within
    # one 2**-64 unit of 2**64 * pmf(i)
    from fractions import Fraction

    q = Fraction(p)
    pmf = [math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(n + 1)]
    cdf = np.cumsum(np.array(pmf, dtype=object))
    thresholds, cells = channel._binomial_table(n, p)
    assert thresholds.tolist() == [math.ceil(2**64 * f) for f in cdf[:len(thresholds)]]
    assert math.ceil(2**64 * cdf[len(thresholds)]) == 2**64
    edges = [0, *thresholds.tolist(), 2**64]
    atoms = [hi - lo for lo, hi in zip(edges, edges[1:])] + [0] * (n - len(thresholds))
    assert all(abs(atom - 2**64 * mass) < 1 for atom, mass in zip(atoms, pmf))
    # a cell holds the draw of every word it covers, or marks a cell that a
    # threshold splits
    starts = np.arange(2**16, dtype=np.uint64) << np.uint64(48)
    first = np.searchsorted(thresholds, starts, side="right")
    last = np.searchsorted(thresholds, starts + np.uint64(2**48 - 1), side="right")
    split = first != last
    assert np.array_equal(cells[~split], first[~split])
    assert np.all(cells[split] == len(thresholds) + 1)


@pytest.mark.parametrize("n, p", [(20, 1 / 21), (1538, 0.5), (1, 0.5)])
def test_table_draws_invert_one_raw_word_each(n, p):
    draws = channel._table_binomial(n, p, (300, 70), np.random.default_rng(41))
    words = np.random.default_rng(41).bit_generator.random_raw(300 * 70)
    thresholds, _ = channel._binomial_table(n, p)
    assert draws.shape == (300, 70)
    assert np.array_equal(draws.reshape(-1),
                          np.searchsorted(thresholds, words, side="right"))


def _merged_counts(a: np.ndarray, b: np.ndarray, minimum: int = 20) -> np.ndarray:
    """2-row table of two samples' value counts, adjacent values merged to >= ``minimum``."""
    top = int(max(a.max(), b.max())) + 1
    merged, run = [], np.zeros(2, dtype=np.int64)
    for column in zip(np.bincount(a, minlength=top), np.bincount(b, minlength=top)):
        run += column
        if run.min() >= minimum:
            merged.append(run)
            run = np.zeros(2, dtype=np.int64)
    merged[-1] = merged[-1] + run
    return np.array(merged).T


@pytest.mark.parametrize("k", [1, 5, 20, 200])
@pytest.mark.parametrize("fair", [False, True], ids=["p=1/(k+1)", "p=1/2"])
def test_table_binomial_matches_numpy_binomial(k, fair):
    p = 0.5 if fair else 1 / (k + 1)
    assert channel._binomial_table(k, p) is not None
    table = channel._table_binomial(k, p, 200_000, np.random.default_rng(43))
    reference = np.random.default_rng(44).binomial(k, p, 200_000)
    counts = _merged_counts(table.astype(np.int64), reference)
    if counts.shape[1] > 1:
        assert scipy.stats.chi2_contingency(counts).pvalue > 1e-4
    assert table.min() >= 0 and table.max() <= k


def test_table_binomial_edges_draw_nothing_and_large_tables_fall_back():
    rng = np.random.default_rng(45)
    state = rng.bit_generator.state
    assert channel._table_binomial(7, 0.0, (2, 3), rng).tolist() == [[0] * 3] * 2
    assert channel._table_binomial(7, 1.0, 4, rng).tolist() == [7] * 4
    assert rng.bit_generator.state == state
    # Bin(4000, 1/2) costs more to tabulate than the ~1 ms bound: numpy draws it
    assert 4000**2 > channel._TABLE_WORK
    assert channel._binomial_table(4000, 0.5) is None
    drawn = channel._table_binomial(4000, 0.5, 50, np.random.default_rng(46))
    assert np.array_equal(drawn, np.random.default_rng(46).binomial(4000, 0.5, 50))


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
    direct = slot_noise_averages(NoiseModel([("uniform", 1.0)]), n, slots, rng) * n
    reference = np.random.default_rng(33)
    np.testing.assert_allclose(direct, summed_uniform_draws(n, slots, reference),
                               rtol=0, atol=1e-9)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_uniform_sums_from_the_bit_count_switch_on_are_drawn_from_bit_counts():
    n, slots = channel._BIT_COUNT_STEPS, 1000
    rng = np.random.default_rng(34)
    drawn = slot_noise_averages(NoiseModel([("uniform", 1.0)]), n, slots, rng) * n
    reference = np.random.default_rng(34)
    np.testing.assert_allclose(drawn, 2.0 * channel._bit_count_sums(n, slots, reference) - n,
                               rtol=0, atol=1e-9)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_runs_of_slots_restart_the_schedule():
    # period 3 at m = 4: member 0 gets 2 steps in slot i of a run when
    # i % 3 == 0, else 1, and a sum of n rademacher(1) steps has n's parity
    model = NoiseModel.parse("rademacher=1,gaussian=0,gaussian=0")
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
    noise = slot_noise_averages(NoiseModel([("rademacher", 0.5)]), 1, 200,
                                np.random.default_rng(3))
    assert set(noise) == {-0.5, 0.5}
    silent = oracle_decode(np.zeros(200, int), 1, 1.0, NoiseModel([("rademacher", 0.5)]), 3)
    assert not silent.any()
    sending = oracle_decode(np.ones(200, int), 1, 1.0, NoiseModel([("rademacher", 0.5)]), 3)
    np.testing.assert_array_equal(sending, noise > 0)


def test_repetition_oracle_rejects_a_bad_code_and_keeps_the_threshold():
    # the repetition count and the power are checked once, when the oracle is built
    for repetitions, power in ((0, 1.0), (1, 0.0), (1, math.inf)):
        with pytest.raises(ValueError):
            RepetitionDisjunctionOracle(NoiseModel([("rademacher", 1.0)]), power, repetitions,
                                        np.random.default_rng(0))
    # the threshold is sqrt(P)/2: silent slots average +-1, which clears it at
    # P = 1 and ties it at P = 4
    silent = np.zeros(100, int)
    noise = slot_noise_averages(NoiseModel([("rademacher", 1.0)]), 1, 100,
                                np.random.default_rng(0))
    decoded = oracle_decode(silent, 1, 1.0, NoiseModel([("rademacher", 1.0)]), 0)
    np.testing.assert_array_equal(decoded, noise > 0)
    assert not oracle_decode(silent, 1, 4.0, NoiseModel([("rademacher", 1.0)]), 0).any()


def test_repetition_oracle_matches_scalar_pipeline():
    # the slot pipeline written out step by step, against the block path
    power, m = 2.5, 5
    senders = np.array([1, 0, 3, 2])
    noise_model = NoiseModel.parse("gaussian=0.8,uniform=0.3")
    block = oracle_decode(senders, m, power, noise_model, 42)
    noise = slot_noise_averages(noise_model, m, len(senders), np.random.default_rng(42))
    root = math.sqrt(power)
    scalar = [root * count + noise[i] > root / 2 for i, count in enumerate(senders)]
    np.testing.assert_array_equal(block, np.array(scalar))


def test_repetition_oracle_is_one_sided_and_monotone_in_senders():
    # errors on all-false slots only when the averaged noise exceeds +threshold,
    # and adding a sender can only turn decodes from false to true
    power, m, slots = 1.0, 9, 2000
    decoded_silent = oracle_decode(np.zeros(slots, int), m, power,
                                   NoiseModel([("gaussian", 1.0)]), 11)
    averaged = slot_noise_averages(NoiseModel([("gaussian", 1.0)]), m, slots,
                                   np.random.default_rng(11))
    np.testing.assert_array_equal(decoded_silent, averaged > 0.5)

    decoded_true = oracle_decode(np.ones(slots, int), m, power,
                                 NoiseModel([("gaussian", 1.0)]), 11)
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


@pytest.mark.parametrize("sigma, power, m", [(1.0, 1.0, 45), (0.5, 2.0, 10), (3.0, 1.0, 300),
                                            (1.0, 1.0, 5631), (1e-200, 1.0, 1)])
def test_exact_excursion_of_one_gaussian_member_is_the_bounds_law(sigma, power, m):
    # 5631 steps make the excursion subnormal
    exact = NoiseModel([("gaussian", sigma)]).exact_excursion(power, m)
    assert exact == gaussian_slot_error_exact(sigma, power, m)


@pytest.mark.parametrize("spec", ["uniform=1", "rademacher=1", "gaussian=0",
                                  "gaussian=1,gaussian=1", "gaussian=1,uniform=1"])
def test_exact_excursion_is_none_without_one_member_whose_family_has_a_law(spec):
    assert NoiseModel.parse(spec).exact_excursion(1.0, 45) is None


def test_every_family_is_one_record_with_named_fields():
    for family, record in channel._FAMILIES.items():
        assert record._fields == ("step_sums", "proxy_ratio", "excursion"), family
    assert channel._FAMILIES["gaussian"].excursion is gaussian_slot_error_exact
    assert channel._FAMILIES["uniform"].proxy_ratio == 3


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
    averaged = slot_noise_averages(NoiseModel([("gaussian", sigma)]), m, slots,
                                   np.random.default_rng(2024))
    rate = float((np.abs(averaged) >= math.sqrt(power) / 2).mean())
    exact = gaussian_slot_error_exact(sigma, power, m)
    se = math.sqrt(exact * (1 - exact) / slots)
    assert abs(rate - exact) <= 3 * se


@pytest.mark.parametrize("spec", ["gaussian=1", "gaussian=1,uniform=1,rademacher=1",
                                  "rademacher=1"])
def test_slot_error_rates_replay_the_chunked_threshold_counts(spec):
    # the rates are counts over period-aligned chunks of 200 000 slots or more,
    # each drawn by slot_noise_averages from one default_rng(seed) stream
    noise, power, m, slots, seed = NoiseModel.parse(spec), 1.0, 4, 450_000, 11
    rng, period = np.random.default_rng(seed), len(noise.members)
    chunk = -(-200_000 // period) * period
    averaged = np.concatenate([slot_noise_averages(noise, m, min(chunk, slots - done), rng)
                               for done in range(0, slots, chunk)])
    excursions = np.count_nonzero(np.abs(averaged) >= 0.5)
    decoded_true = np.count_nonzero(averaged > 0.5)
    assert channel.slot_error_rates(noise, power, m, slots, seed) == (
        excursions / slots, decoded_true / slots)
    if spec == "rademacher=1":
        # four +-1 steps average to 0.5 in about a quarter of the slots: a
        # tie is an excursion but not a decoded true, as in the oracle
        ties = np.count_nonzero(averaged == 0.5)
        assert ties > slots // 5
        assert excursions == ties + np.count_nonzero(averaged == -0.5) + np.count_nonzero(
            np.abs(averaged) == 1.0)
        assert decoded_true == np.count_nonzero(averaged == 1.0)


# --- repetition-code oracle ---------------------------------------------------------

def test_repetition_oracle_decodes_the_disjunction():
    # without noise a slot decodes true iff it has a sender, whatever their number
    oracle = RepetitionDisjunctionOracle(NoiseModel([("gaussian", 0.0)]), 1.0, 4,
                                         np.random.default_rng(1))
    senders = np.array([1, 0, 2, 0, 3])
    np.testing.assert_array_equal(oracle.decode_block(senders), senders > 0)


def test_transmit_block_zero_noise_recovers_exact_disjunction():
    # six nodes' messages over 40 slots: the OR of each column is what a
    # noiseless repetition code decodes from the column's sender count
    messages = np.random.default_rng(5).random((6, 40)) < 0.3
    counts = messages.sum(axis=0)
    assert {0, 1, 2, 3} <= set(counts.tolist())
    decoded = oracle_decode(counts, 3, 2.0, NoiseModel([("gaussian", 0.0)]), 0)
    np.testing.assert_array_equal(decoded, messages.any(axis=0))


def test_repetition_oracle_starts_every_call_at_step_0():
    # m = 3 over (rademacher(1), gaussian(0)): a slot from step 0 holds two
    # rademacher steps (average 2/3 w.p. 1/4 clears sqrt(P)/2 = 1/2), one
    # from step 3 would hold one (average +-1/3 never does).  Every call is a
    # run from step 0, so the second call of each pair decodes true as often
    model = NoiseModel.parse("rademacher=1,gaussian=0")
    oracle = RepetitionDisjunctionOracle(model, 1.0, 3, np.random.default_rng(8))
    decoded = np.array([oracle.decode_block(np.zeros(1, int))[0]
                        for _ in range(400)])
    assert 20 <= decoded[0::2].sum() <= 80
    assert 20 <= decoded[1::2].sum() <= 80
