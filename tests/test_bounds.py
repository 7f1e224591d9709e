"""Closed-form budget formulas: frozen reference values and algebraic identities."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtmac import bounds

E = math.e


# --- frozen reference values (computed independently from the closed forms) --

def test_exact_recovery_budget_reference_values():
    assert bounds.slots_for_exact_recovery(10_000, 20, 1e-2) == 789
    assert bounds.slots_for_exact_recovery(100_000, 20, 1e-2) == 921
    assert bounds.slots_for_exact_recovery(10_000, 20, 0.5) == 566


def test_surplus_budget_reference_value():
    assert bounds.slots_for_surplus_bound(10_000, 20, 0.1, 1.0) == 487


def test_repetition_length_reference_values():
    assert bounds.repetition_length(1.0, 1.0, 0.01, 0.125) == 45
    # doubling the norm bound quadruples the repetitions (up to ceiling)
    assert bounds.repetition_length(2.0, 1.0, 0.01, 0.125) == 180  # ceil(179.365)


def test_channel_use_plan_reference_values():
    plan = bounds.plan_channel_uses(10_000, 20, 1e-2, 1.0, 1.0, 0.125)
    assert plan.slots == 789
    assert plan.slot_error_target == pytest.approx(1e-2 / 789, rel=1e-12)
    assert plan.repetitions == 99
    assert plan.total == 789 * 99 == 78_111
    assert plan.closed_form == pytest.approx(77_447.846495, rel=1e-9)


def test_expected_remaining_single_slot_value():
    # N = 100, k = 2, p = 1/3: removal rate 4/27, one slot leaves 2300/27
    start, one = bounds.expected_remaining(100, 2, 1 / 3, [0, 1])
    assert one == pytest.approx(2300 / 27, rel=1e-12)
    assert start == 100.0


def test_theoretical_error_curve_values():
    start, budget = bounds.theoretical_error_curve(10_000, 20, [0, 789])
    assert start == 1.0
    assert budget == pytest.approx(0.009937738742440671, rel=1e-12)
    assert list(bounds.theoretical_error_curve(0, 5, [100])) == [0.0]


def test_grid_curves_match_their_scalar_formulas():
    # numpy's pow and exp may round differently from Python's ** and
    # math.exp; their vector kernels stay within 4 ulp
    levels = list(range(0, 2600, 13))
    for n, k, p in [(10_000, 20, 1 / 21), (1000, 3, 0.25), (7, 1, 0.9), (10**7, 200, 1e-3)]:
        remaining = bounds.expected_remaining(n, k, p, levels)
        envelope = bounds.theoretical_error_curve(n, k, levels)
        for level, got_remaining, got_envelope in zip(levels, remaining, envelope):
            want = n * (1.0 - p * (1.0 - p) ** k) ** level
            assert abs(got_remaining - want) <= 4 * math.ulp(want)
            want = min(1.0, n * math.exp(-level / (E * (k + 1))))
            assert abs(got_envelope - want) <= 4 * math.ulp(want)


def test_exact_error_curve_reference_value_and_envelope():
    exact = bounds.exact_error_curve(10_000, 20, 1 / 21, [0, 789])
    assert exact[0] == 1.0
    assert exact[1] == pytest.approx(0.00620, abs=5e-6)
    assert exact[1] <= bounds.theoretical_error_curve(10_000, 20, [789])[0]


def test_exact_error_curve_matches_scipy_binomial_form():
    import numpy as np
    from scipy.stats import binom

    n, k, p = 300, 4, 0.2
    levels = [0, 1, 7, 40, 120, 300]
    r = (1 - p) ** k
    got = bounds.exact_error_curve(n, k, p, levels)
    for level, value in zip(levels, got):
        u = np.arange(level + 1)
        with np.errstate(divide="ignore"):  # u = 0: log1p(-1) = -inf
            some_left = -np.expm1(n * np.log1p(-(1 - p) ** u))  # 1 - (1 - q^u)^n
        want = binom.pmf(u, level, r) @ some_left
        assert value == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_exact_end_to_end_failure_reference_values():
    # (N, k, eps) -> the gaussian plan at sigma = P = 1, c = 1/8, p = 1/(k+1)
    for n, k, eps, slots, m, want in ((500, 5, 0.05, 151, 73, 0.014482),
                                      (10**6, 20, 0.01, 1052, 101, 0.0053939)):
        plan = bounds.plan_channel_uses(n, k, eps, 1.0, 1.0, bounds.GAUSSIAN_TAIL_CONSTANT)
        assert (plan.slots, plan.repetitions) == (slots, m)
        got = bounds.exact_end_to_end_failure(n, k, 1 / (k + 1), slots, m, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-4)


def test_exact_end_to_end_failure_matches_scipy_sum():
    import numpy as np
    from scipy.stats import binom, norm

    n, k, p, slots, m, sigma, power = 200, 3, 0.25, 60, 5, 1.5, 2.0
    fp = norm.sf(math.sqrt(m * power) / (2 * sigma))
    a = (1 - p) ** k * (1 - fp)
    j = np.arange(1, k + 1)
    fn = norm.cdf(math.sqrt(m) * (math.sqrt(power) / 2 - j * math.sqrt(power)) / sigma)
    d = binom.pmf(j, k, p) @ fn
    f = np.arange(slots + 1)
    weights = np.array([math.comb(slots, int(x)) for x in f]) * a**f * (1 - a - d) ** (slots - f)
    success = weights @ (1 - (1 - p) ** f) ** n
    got = bounds.exact_end_to_end_failure(n, k, p, slots, m, sigma, power)
    assert got == pytest.approx(1 - success, rel=1e-9)


def test_exact_end_to_end_failure_degenerate_inputs():
    # no inactive node: only an eviction fails; no slot: every inactive node stays
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2))  # noqa: E731
    evict = 2 * 0.3 * 0.7 * phi(2 * (0.5 - 1)) + 0.3**2 * phi(2 * (0.5 - 2))  # m = 4
    assert bounds.exact_end_to_end_failure(0, 2, 0.3, 10, 4, 1.0, 1.0) == pytest.approx(
        1 - (1 - evict) ** 10, rel=1e-12)
    assert bounds.exact_end_to_end_failure(0, 2, 0.3, 0, 4, 1.0, 1.0) == 0.0
    assert bounds.exact_end_to_end_failure(5, 2, 0.3, 0, 4, 1.0, 1.0) == 1.0
    assert bounds.exact_end_to_end_failure(5, 2, 0.0, 9, 4, 1.0, 1.0) == 1.0
    # more noise, more failure; the ideal limit is the exact error curve
    loud, quiet = (bounds.exact_end_to_end_failure(50, 2, 1 / 3, 40, 4, s, 1.0)
                   for s in (2.0, 0.01))
    assert loud > quiet
    assert quiet == pytest.approx(bounds.exact_error_curve(50, 2, 1 / 3, [40])[0],
                                  rel=1e-12)
    for bad in ((5, 0, 0.3, 9, 4, 1.0, 1.0), (5, 2, 1.5, 9, 4, 1.0, 1.0),
                (5, 2, 0.3, 9, 0, 1.0, 1.0), (5, 2, 0.3, 9, 4, 0.0, 1.0),
                (5, 2, 0.3, -1, 4, 1.0, 1.0)):
        with pytest.raises(ValueError):
            bounds.exact_end_to_end_failure(*bad)


def test_exact_error_curve_degenerate_inputs():
    assert list(bounds.exact_error_curve(0, 3, 0.5, [0, 4])) == [0.0, 0.0]
    assert list(bounds.exact_error_curve(5, 3, 0.0, [0, 9])) == [1.0, 1.0]
    assert list(bounds.exact_error_curve(5, 3, 1.0, [0, 9])) == [1.0, 1.0]
    # N = 1, k = 1, p = 1/2: the lone node survives a slot w.p. 3/4
    assert bounds.exact_error_curve(1, 1, 0.5, [4])[0] == pytest.approx(0.75**4)
    for bad in ((-1, 2, 0.5, [1]), (5, 0, 1.0, [1]), (5, 2, 1.5, [1]), (5, 2, 0.5, [-1])):
        with pytest.raises(ValueError):
            bounds.exact_error_curve(*bad)


# --- identities and inequalities ---------------------------------------------

def test_surplus_budget_with_factor_one_over_k_matches_exact_recovery():
    import random
    rng = random.Random(20260816)
    for _ in range(100):
        n = rng.randint(2, 10**6)
        k = rng.randint(1, 400)
        eps = rng.uniform(1e-6, 0.99)
        assert bounds.slots_for_surplus_bound(n, k, eps, 1.0 / k) == \
            bounds.slots_for_exact_recovery(n, k, eps)


def test_curve_at_exact_recovery_budget_is_at_most_eps():
    for n, k, eps in [(10, 1, 0.3), (1000, 4, 0.05), (10_000, 20, 1e-2),
                      (10**6, 50, 1e-4), (37, 2, 0.9)]:
        slots = bounds.slots_for_exact_recovery(n, k, eps)
        assert bounds.theoretical_error_curve(n, k, [slots])[0] <= eps


def test_decay_constant_chain():
    # -1/ln(1 - p(1-p)**k) at p = 1/(k+1) is below 1/(p(1-p)**k) = (k+1)(1+1/k)**k,
    # which itself is below e(k+1).
    for k in list(range(1, 60)) + [200, 1000, 10_000]:
        p = 1.0 / (k + 1)
        rate = p * (1 - p) ** k
        value = -1.0 / math.log1p(-rate)
        middle = (k + 1) * (1 + 1 / k) ** k
        assert value <= middle * (1 + 1e-12)
        assert middle < E * (k + 1)
        assert 1.0 / rate == pytest.approx(middle, rel=1e-9)


def test_closed_form_equals_real_valued_product():
    # the expanded closed form is the real-valued slots budget times the
    # real-valued repetition count at per-slot error eps/slots, pre-ceiling
    for n, k, eps, big_k, power, c in [
        (10_000, 20, 1e-2, 1.0, 1.0, 0.125),
        (500, 5, 0.05, 1.0, 1.0, 0.125),
        (10**6, 3, 1e-3, 2.0, 0.5, 0.125),
        (250, 9, 0.2, 0.7, 3.0, 0.05),
    ]:
        slots_real = E * (k + 1) * math.log(n / eps)
        reps_real = (big_k**2 / power) * (math.log(slots_real / eps) + 1) / c
        closed = bounds.channel_uses_closed_form(n, k, eps, big_k, power, c)
        assert closed == pytest.approx(slots_real * reps_real, rel=1e-9)


def test_integer_plan_stays_within_ceiling_slack_of_closed_form():
    # ceilings on slots and repetitions can push the exact product slightly
    # above the real-valued closed form, but never by more than one extra
    # repetition block plus one extra slot's worth (+ cross terms ~ 2)
    for n, k, eps, big_k, power, c in [
        (10_000, 20, 1e-2, 1.0, 1.0, 0.125),
        (500, 5, 0.05, 1.0, 1.0, 0.125),
        (99, 1, 0.5, 1.0, 2.0, 0.125),
        (10**5, 40, 1e-3, 3.0, 1.0, 0.125),
    ]:
        plan = bounds.plan_channel_uses(n, k, eps, big_k, power, c)
        slack = plan.slots + plan.repetitions + 2
        assert plan.total <= plan.closed_form + slack


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**7), k=st.integers(1, 500),
       eps=st.floats(1e-9, 0.999))
def test_exact_recovery_budget_matches_formula(n, k, eps):
    expected = math.ceil(E * (k + 1) * math.log(n / eps))
    assert bounds.slots_for_exact_recovery(n, k, eps) == max(0, expected)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 10**6), k=st.integers(1, 50),
       p=st.floats(0.0, 1.0), i=st.integers(0, 200))
def test_expected_remaining_monotone_in_slots(n, k, p, i):
    now, later = bounds.expected_remaining(n, k, p, [i, i + 1])
    assert 0.0 <= later <= now <= n or n == 0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10**6), k=st.integers(1, 100),
       eps=st.floats(1e-6, 0.99))
def test_budgets_monotone(n, k, eps):
    # a laxer error target never needs more slots
    lax = min(0.999, eps * 1.5)
    assert bounds.slots_for_exact_recovery(n, k, lax) <= \
        bounds.slots_for_exact_recovery(n, k, eps)
    # more inactive nodes never need fewer slots
    assert bounds.slots_for_exact_recovery(n + 1, k, eps) >= \
        bounds.slots_for_exact_recovery(n, k, eps)


# --- boundary handling and rejection ------------------------------------------

def test_zero_slots_when_nothing_to_do():
    assert bounds.slots_for_exact_recovery(0, 3, 0.1) == 0
    assert bounds.slots_for_surplus_bound(10, 5, 0.9, 100.0) == 0
    plan = bounds.plan_channel_uses(0, 3, 0.1, 1.0, 1.0, 0.125)
    assert plan.total == 0 and plan.repetitions == 0 and plan.closed_form == 0.0
    with pytest.raises(ValueError):  # the channel is checked even with no slot
        bounds.plan_channel_uses(0, 3, 0.1, 1.0, math.inf, 0.125)


def test_planners_stay_finite_where_their_ratio_overflows():
    # 1/delta, N/eps and N/(k*eps*C) overflow a double here although their
    # logs are finite; each budget is the formula with its log expanded
    assert bounds.repetition_length(1.0, 1.0, 4e-309, 0.125) == math.ceil(
        8 * (1 - math.log(4e-309))) == 5689
    assert bounds.slots_for_exact_recovery(100, 2, 1e-310) == math.ceil(
        3 * E * (math.log(100) - math.log(1e-310))) == 5859
    assert bounds.slots_for_surplus_bound(100, 2, 1e-310, 1.0) == 5853
    log_ratio = math.log(100) - math.log(1e-310)
    assert bounds.channel_uses_closed_form(100, 2, 1e-310, 1.0, 1.0, 0.125) == pytest.approx(
        8 * 3 * E * log_ratio * (2 + math.log(3) + math.log(log_ratio) - math.log(1e-310)),
        rel=1e-12)
    plan = bounds.plan_channel_uses(100, 2, 1e-310, 1.0, 1.0, 0.125)
    assert (plan.slots, plan.repetitions, plan.total) == (5859, 5788, 5859 * 5788)
    # a denominator k*eps*C that underflows to 0, or overflows to infinity
    assert bounds.slots_for_surplus_bound(100, 1, 1e-200, 1e-200) == math.ceil(
        2 * E * (math.log(100) + 400 * math.log(10))) == 5033
    assert bounds.slots_for_surplus_bound(100, 2, 0.9, 1e308) == 0


def test_repetition_length_is_monotone_across_the_overflow_of_one_over_delta():
    edge = 1.0 / sys.float_info.max  # 1/delta is finite just above it, not below
    deltas = [edge * 1.5, math.nextafter(edge, 1.0), edge, math.nextafter(edge, 0.0),
              edge / 1.5]
    assert 1.0 / deltas[1] < math.inf and 1.0 / deltas[-1] == math.inf
    # a tiny tail constant magnifies any jump in the log between the two forms
    lengths = [bounds.repetition_length(1.0, 1.0, d, 1e-12) for d in deltas]
    assert lengths == sorted(lengths)
    assert lengths[-1] - lengths[0] == pytest.approx(2e12 * math.log(1.5), rel=1e-6)


def test_repetition_count_past_a_double_raises_overflow_naming_k_and_p():
    # K = 1e200 squares past a double; the count is inf, which no int holds
    message = r"^the repetition count for K = 1e\+200 and P = 1\.0 exceeds a double$"
    with pytest.raises(OverflowError, match=message):
        bounds.repetition_length(1e200, 1.0, 0.01, bounds.GAUSSIAN_TAIL_CONSTANT)
    with pytest.raises(OverflowError, match=message):
        bounds.plan_channel_uses(100, 2, 0.1, 1e200, 1.0, bounds.GAUSSIAN_TAIL_CONSTANT)
    # K*K stays finite but K*K/P does not
    with pytest.raises(OverflowError, match=r"K = 1e\+150 and P = 1e-10 "):
        bounds.repetition_length(1e150, 1e-10, 0.01, 1.0)
    # the real-valued closed form reads inf there
    assert bounds.channel_uses_closed_form(100, 2, 0.1, 1e200, 1.0, 0.125) == math.inf


def test_plan_sizes_repetitions_where_eps_over_slots_underflows():
    # eps/slots rounds to 0 here although ln(slots/eps) is finite
    plan = bounds.plan_channel_uses(100, 2, 5e-324, 1.0, 1.0, 0.125)
    assert plan.slot_error_target == 0.0
    assert plan.repetitions == math.ceil(
        8 * (math.log(plan.slots) - math.log(5e-324) + 1)) == 6034
    assert plan.total == plan.slots * plan.repetitions
    # the budget still shrinks as eps grows across the underflow's edge
    plans = [bounds.plan_channel_uses(100, 2, i * 5e-324, 1.0, 1.0, 0.125)
             for i in range(1, 6000, 7)]
    assert plans[0].slot_error_target == 0.0 < plans[-1].slot_error_target
    totals = [plan.total for plan in plans]
    assert totals == sorted(totals, reverse=True)


def test_budget_shrinks_to_one_slot_near_eps_one():
    assert bounds.slots_for_exact_recovery(1, 1, 1 - 1e-9) == 1


@pytest.mark.parametrize("eps", [0.0, -0.5, 1.0, 1.5])
def test_rejects_eps_outside_open_unit_interval(eps):
    with pytest.raises(ValueError):
        bounds.slots_for_exact_recovery(100, 3, eps)
    with pytest.raises(ValueError):
        bounds.slots_for_surplus_bound(100, 3, eps, 1.0)


def test_rejects_degenerate_slot_error_target():
    with pytest.raises(ValueError):
        bounds.repetition_length(1.0, 1.0, 1.0, 0.125)
    with pytest.raises(ValueError):
        bounds.repetition_length(1.0, 1.0, 0.0, 0.125)
    with pytest.raises(ValueError):
        bounds.repetition_length(0.0, 1.0, 0.5, 0.125)
    with pytest.raises(ValueError):
        bounds.repetition_length(1.0, -1.0, 0.5, 0.125)
    for bad in ((math.inf, 1.0, 0.01, 0.125), (1.0, 1.0, 0.01, math.inf),
                (1.0, math.nan, 0.01, 0.125)):
        with pytest.raises(ValueError):  # reals must be finite
            bounds.repetition_length(*bad)
    # a slot takes at least one repetition, also when K**2/P underflows
    assert bounds.repetition_length(1e-200, 1.0, 0.01, 0.125) == 1


def test_rejects_nonpositive_population_parameters():
    with pytest.raises(ValueError):
        bounds.slots_for_exact_recovery(-1, 3, 0.1)
    with pytest.raises(ValueError):
        bounds.slots_for_exact_recovery(100, 0, 0.1)
    with pytest.raises(ValueError):
        bounds.slots_for_surplus_bound(100, 3, 0.1, 0.0)
    with pytest.raises(ValueError):
        bounds.expected_remaining(100, 3, 1.2, [1])
    with pytest.raises(ValueError):  # k >= 1 for the curves as for the budgets
        bounds.theoretical_error_curve(100, 0, [1])
    with pytest.raises(TypeError):  # ints must not be bools
        bounds.slots_for_exact_recovery(100, True, 0.1)


def test_gaussian_tail_constant_value():
    assert bounds.GAUSSIAN_TAIL_CONSTANT == 0.125
