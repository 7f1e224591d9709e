"""Acceptance gate: nine release criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines as
they complete.  Criterion 1 runs at a scaled 2*10^4 trials by default; set
``GTMAC_FULL_SCALE=1`` to rerun it at the full 1.2*10^5-trial size (slower,
same pass condition).
"""

from __future__ import annotations

import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import scipy.stats

from gtmac import bounds, harness, scheme
from gtmac.channel import NoiseModel, slot_noise_averages
from gtmac.cli import main as cli_main

SEED = 20260816
WORKERS = min(4, os.cpu_count() or 1)


def _verdict(num: int, text: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --- criterion 1: error curve below the analytic envelope --------------------------

def test_criterion_1_error_curve_reproduction():
    n, k = 10_000, 20
    full_scale = os.environ.get("GTMAC_FULL_SCALE", "") not in ("", "0")
    trials = 120_000 if full_scale else 20_000
    started = time.perf_counter()

    slots = harness.run_until_exact_batch(n, k, scheme.optimal_choice_probability(k),
                                          harness.default_slot_cap(n, k), trials, SEED,
                                          workers=WORKERS)
    grid = range(2501)
    curve = harness.build_error_curve(slots, grid, n, k)
    elapsed = time.perf_counter() - started

    problems = []
    for level, observed, bound in zip(curve.slot_grid, curve.observed_frequency,
                                      curve.theoretical_bound):
        if bound > 1.0:
            continue
        se = math.sqrt(observed * (1.0 - observed) / trials)
        if observed > bound + 3.0 * se:
            problems.append(f"l={level}: {observed:.3g} > bound {bound:.3g} + 3SE")

    # tightness spot check where the envelope crosses 1e-2
    tight_level = bounds.slots_for_exact_recovery(n, k, 1e-2)
    tight_bound = bounds.theoretical_error_curve(n, k, [tight_level])[0]
    tight_observed = curve.observed_frequency[grid.index(tight_level)]
    if not tight_observed >= tight_bound / 100.0:
        problems.append(f"loose at l={tight_level}: {tight_observed:.3g} "
                        f"< {tight_bound / 100.0:.3g}")
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.0f}s > 300s")

    # second reference: the exact law P(T > l), whole curve inside the
    # Dvoretzky-Kiefer-Wolfowitz band at level 1e-4
    exact = bounds.exact_error_curve(n, k, 1.0 / (k + 1), grid)
    gap = float(np.max(np.abs(np.asarray(curve.observed_frequency) - exact)))
    band = math.sqrt(math.log(2.0 / 1e-4) / (2.0 * trials))
    if gap > band:
        problems.append(f"observed curve departs from the exact law by {gap:.3g} "
                        f"> DKW band {band:.3g}")

    _verdict(1, "observed error curve within the analytic envelope and the exact law",
             not problems,
             "; ".join(problems) or
             f"trials={trials}, observed(l={tight_level})={tight_observed:.2e} in "
             f"[{tight_bound / 100.0:.1e}, {tight_bound:.1e}], exact-law gap "
             f"{gap:.2e} <= {band:.2e}, {elapsed:.0f}s")


# --- criterion 2: expected surplus identity ------------------------------------------

def test_criterion_2_expected_surplus_matches_formula():
    started = time.perf_counter()
    trace = harness.expectation_trace(1000, 3, 0.25, trials=100_000, horizon=50,
                                      seed_base=SEED)
    elapsed = time.perf_counter() - started

    problems = []
    for i in (1, 5, 20, 50):
        gap = abs(trace.empirical_mean[i] - trace.predicted_mean[i])
        if gap > 3.0 * trace.std_error[i]:
            problems.append(f"i={i}: |{trace.empirical_mean[i]:.4f} - "
                            f"{trace.predicted_mean[i]:.4f}| > 3*{trace.std_error[i]:.2g}")
        if not math.isclose(trace.predicted_mean[i],
                            bounds.expected_remaining(1000, 3, 0.25, [i])[0]):
            problems.append(f"i={i}: prediction column mismatch")
    if elapsed > 60.0:
        problems.append(f"runtime {elapsed:.0f}s > 60s")

    _verdict(2, "mean surplus tracks N(1-pq^k)^i at slots 1/5/20/50",
             not problems, "; ".join(problems) or f"100000 trials, {elapsed:.0f}s")


# --- criterion 3: surplus tail bound at the derived budget ------------------------------

def test_criterion_3_surplus_tail_bound():
    n, k, eps = 10_000, 20, 0.1
    budget = bounds.slots_for_surplus_bound(n, k, eps, 1.0)
    problems = []
    if budget != 487:
        problems.append(f"budget {budget} != 487")

    trials = 10_000
    for final in scheme.surplus_steps(n, k, 1.0 / (k + 1), budget,
                                      np.random.default_rng(SEED), trials):
        pass  # keep the surplus after the last slot
    rate = int((final >= k).sum()) / trials
    se = math.sqrt(rate * (1.0 - rate) / trials)
    if rate > eps + 3.0 * se:
        problems.append(f"P(M_487 >= 20) ~= {rate} > {eps} + 3SE")

    _verdict(3, "surplus exceeds k at the 487-slot budget with frequency <= 0.1",
             not problems, "; ".join(problems) or f"observed rate {rate}")


# --- criterion 4: fast path is distribution-identical to the node-level scheme ----------

def _brute_force_slot_law(n_inactive: int, k: int,
                          p: Fraction) -> dict[tuple[bool, int], Fraction]:
    """Exact single-slot law of (any-active-chosen, removed count), by listing
    every choice pattern of the N+k nodes.  Nodes 0..k-1 are the active ones."""
    law: dict[tuple[bool, int], Fraction] = {}
    for pattern in itertools.product((False, True), repeat=n_inactive + k):
        prob = math.prod(p if chosen else 1 - p for chosen in pattern)
        any_active = any(pattern[:k])
        removed = 0 if any_active else sum(pattern[k:])
        key = (any_active, removed)
        law[key] = law.get(key, Fraction(0)) + prob
    return law


def _analytic_slot_law(n_inactive: int, k: int,
                       p: Fraction) -> dict[tuple[bool, int], Fraction]:
    """The law the fast path samples from: discard with prob 1-q^k, else a
    Binomial(N, p) removal count."""
    q = 1 - p
    law: dict[tuple[bool, int], Fraction] = {(True, 0): 1 - q**k}
    for removed in range(n_inactive + 1):
        law[(False, removed)] = (q**k * math.comb(n_inactive, removed)
                                 * p**removed * q ** (n_inactive - removed))
    return {key: value for key, value in law.items() if value != 0}


def _exact_surplus_law_after(n_inactive: int, k: int, p: Fraction,
                             num_slots: int) -> list[Fraction]:
    """Distribution of the surplus after ``num_slots`` slots, by exact DP."""
    q = 1 - p
    discard = 1 - q**k
    dist = [Fraction(0)] * (n_inactive + 1)
    dist[n_inactive] = Fraction(1)
    for _ in range(num_slots):
        nxt = [Fraction(0)] * (n_inactive + 1)
        for m, mass in enumerate(dist):
            if mass == 0:
                continue
            nxt[m] += mass * discard
            for removed in range(m + 1):
                nxt[m - removed] += (mass * (1 - discard)
                                     * math.comb(m, removed)
                                     * p**removed * q ** (m - removed))
        dist = nxt
    return dist


def test_criterion_4_fast_path_equivalence():
    problems = []

    # single slot: brute force over all 2^(N+k) patterns, exact rational match
    law_checks = 0
    for p in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
        for total in range(1, 7):
            for k in range(0, total + 1):
                n_inactive = total - k
                brute = _brute_force_slot_law(n_inactive, k, p)
                analytic = _analytic_slot_law(n_inactive, k, p)
                law_checks += 1
                if brute != analytic:
                    problems.append(f"single-slot law differs at N={n_inactive}, "
                                    f"k={k}, p={p}")

    # multi slot: 1e6 runs of the production step kernel vs the exact DP distribution
    n_inactive, k, p, num_slots, samples = 4, 2, 0.5, 3, 1_000_000
    exact = _exact_surplus_law_after(n_inactive, k, Fraction(1, 2), num_slots)
    for final in scheme.surplus_steps(n_inactive, k, p, num_slots,
                                      np.random.default_rng(SEED), samples):
        pass  # keep the surplus after the last slot
    observed = np.bincount(final, minlength=n_inactive + 1)
    expected = np.array([float(mass) for mass in exact]) * samples
    result = scipy.stats.chisquare(observed, expected)
    if not result.pvalue > 1e-3:
        problems.append(f"chi-square p-value {result.pvalue:.2e} <= 1e-3")

    _verdict(4, "fast path matches the node-level scheme's exact law",
             not problems,
             "; ".join(problems) or
             f"{law_checks} exact law checks, "
             f"chi-square p={result.pvalue:.3f} at 1e6 samples")


# --- criterion 5: repetition code slot error ----------------------------------------------

def _excursion_rate(model, repetitions: int, slots: int, threshold: float,
                    seed: int) -> float:
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < slots:
        count = min(100_000, slots - done)
        averaged = slot_noise_averages(model, repetitions, count, rng)
        hits += int((np.abs(averaged) >= threshold).sum())
        done += count
    return hits / slots


def test_criterion_5_repetition_code_slot_error():
    power, delta, c = 1.0, 0.01, 0.125
    m = bounds.repetition_length(1.0, power, delta, c)
    problems = []
    if m != 45:
        problems.append(f"repetition length {m} != 45")
    threshold = math.sqrt(power) / 2.0
    slots = 1_000_000

    exact = 2.0 * scipy.stats.norm.sf(math.sqrt(power * m) / 2.0)
    gauss_rate = _excursion_rate(NoiseModel([("gaussian", 1.0)]), m, slots, threshold, SEED)
    se = math.sqrt(exact * (1.0 - exact) / slots)
    if abs(gauss_rate - exact) > 3.0 * se:
        problems.append(f"gaussian rate {gauss_rate} vs exact {exact:.3e} "
                        f"beyond 3SE")
    if not gauss_rate < delta:
        problems.append(f"gaussian rate {gauss_rate} >= delta")

    rad_rate = _excursion_rate(NoiseModel([("rademacher", 1.0)]), m, slots, threshold, SEED + 1)
    if not rad_rate <= delta:
        problems.append(f"rademacher rate {rad_rate} > delta")

    _verdict(5, "45-repetition slot error matches 2Q(sqrt(45)/2) and stays under 0.01",
             not problems,
             "; ".join(problems) or
             f"gaussian {gauss_rate}, exact {exact:.3e}, rademacher {rad_rate}")


# --- criterion 6: end-to-end failure under twice the target -----------------------------------

def test_criterion_6_end_to_end_guarantee():
    started = time.perf_counter()
    plan = bounds.plan_channel_uses(500, 5, 0.05, 1.0, 1.0, bounds.TAIL_CONSTANT)
    summary = harness.run_end_to_end_batch(500, 5, 0.05, NoiseModel([("gaussian", 1.0)]), 1.0,
                                           plan.slots, plan.repetitions, 2000, SEED,
                                           workers=WORKERS)
    elapsed = time.perf_counter() - started

    problems = []
    se = math.sqrt(summary.failure_rate * (1.0 - summary.failure_rate)
                   / summary.trials)
    if summary.failure_rate > summary.two_epsilon + 3.0 * se:
        problems.append(f"failure rate {summary.failure_rate} > "
                        f"{summary.two_epsilon} + 3SE")
    if elapsed > 600.0:
        problems.append(f"runtime {elapsed:.0f}s > 600s")

    # second reference: the exact failure law of the gaussian pipeline,
    # two-sided binomial test at level 1e-4
    exact = bounds.exact_end_to_end_failure(500, 5, scheme.optimal_choice_probability(5),
                                            summary.slots, summary.repetitions, 1.0, 1.0)
    pvalue = scipy.stats.binomtest(summary.failures, summary.trials, exact).pvalue
    if pvalue < 1e-4:
        problems.append(f"{summary.failures}/{summary.trials} failures against the "
                        f"exact law {exact:.4g}: binomial p = {pvalue:.2g} < 1e-4")

    _verdict(6, "noisy-channel recovery fails at most 2*eps of the time, as the exact law says",
             not problems,
             "; ".join(problems) or
             f"{summary.failures}/{summary.trials} failures, exact {exact:.4g} "
             f"(l={summary.slots}, m={summary.repetitions}), {elapsed:.0f}s")


# --- criterion 7: slot budget calculators -----------------------------------------------------

def test_criterion_7_budget_calculators():
    import random

    problems = []
    checks = (
        (bounds.slots_for_exact_recovery(10_000, 20, 1e-2), 789),
        (bounds.slots_for_exact_recovery(100_000, 20, 1e-2), 921),
        (bounds.repetition_length(1.0, 1.0, 0.01, 0.125), 45),
    )
    for got, want in checks:
        if got != want:
            problems.append(f"{got} != {want}")

    rng = random.Random(SEED)
    for _ in range(100):
        n = rng.randrange(1, 10**6)
        k = rng.randrange(1, 200)
        eps = rng.uniform(1e-6, 0.99)
        via_surplus = bounds.slots_for_surplus_bound(n, k, eps, 1.0 / k)
        direct = bounds.slots_for_exact_recovery(n, k, eps)
        if via_surplus != direct:
            problems.append(f"C=1/k mismatch at ({n}, {k}, {eps:.3g}): "
                            f"{via_surplus} != {direct}")

    _verdict(7, "budget calculators hit 789/921/45 and agree at C=1/k",
             not problems, "; ".join(problems) or "3 unit values, 100 random tuples")


# --- criterion 8: decay-constant inequality ---------------------------------------------------

def test_criterion_8_decay_constant_inequality():
    worst_ratio = 0.0
    ok = True
    for k in range(1, 10_001):
        p = 1.0 / (k + 1)
        decay = -1.0 / math.log1p(-p * (1.0 - p) ** k)
        limit = math.e * (k + 1)
        ok = ok and decay < limit
        worst_ratio = max(worst_ratio, decay / limit)
    _verdict(8, "per-slot decay constant stays below e(k+1) for k up to 10^4",
             ok, f"max ratio {worst_ratio:.6f}")


# --- criterion 9: byte-identical reruns -------------------------------------------------------

def test_criterion_9_simulate_determinism(tmp_path, capsys):
    blobs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = cli_main([
            "simulate", "--n-inactive", "300", "--k", "3", "--trials", "300",
            "--seed", str(SEED), "--threads", "2", "--grid-max", "400",
            "--grid-step", "4", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    _verdict(9, "identical simulate invocations produce byte-identical CSVs",
             blobs[0] == blobs[1], f"{len(blobs[0])} bytes each")
