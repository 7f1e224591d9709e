"""Output checks: every batch's CSV and stdout are compared with a reference.

* curve -- the pooled error curve against the exact law of the ideal-oracle
  scheme (COMP under a Bernoulli design):  P(T > l) = 1 - E[(1 - (1-p)^U)^N]
  with U ~ Bin(l, (1-p)^k) the number of useful slots.  The largest gap must
  stay within the Dvoretzky-Kiefer-Wolfowitz band at level ``DKW_ALPHA``.
* trace -- every slot's empirical mean lies within ``TRACE_MAX_Z`` standard
  errors of ``predicted_mean``.
* e2e -- the printed slot and repetition budget equals
  ``gtmac.bounds.plan_channel_uses``, and the pooled failure count is not
  significantly above 2*eps (binomial upper tail below ``BINOMIAL_ALPHA``);
  a hard ``<= 2 eps`` test on a few trials would raise false alarms.

Each ``batch`` call returns the list of problems found in one CLI run; an
empty list means the run passed.  ``pooled`` checks the statistics summed
over all batches of a benchmark run.
"""

from __future__ import annotations

import csv
import math

from workloads import Workload

CURVE_HEADER = ["l", "observed_frequency", "theoretical_bound", "trials"]
TRACE_HEADER = ["slot", "empirical_mean", "std_error", "predicted_mean"]
E2E_HEADER = ["trials", "failures", "failure_rate", "two_epsilon", "l", "m",
              "total_channel_uses"]
DEFAULT_GRID = list(range(0, 2501))  # `gtmac simulate` default --grid-max/--grid-step

GAUSSIAN_TAIL_CONSTANT = 0.125  # the CLI default --c, which the workloads keep
DKW_ALPHA = 1e-4
BINOMIAL_ALPHA = 1e-4
TRACE_MAX_Z = 5.0


class CheckError(Exception):
    pass


def read_csv(path: str, header: list[str]) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != header:
        raise CheckError(f"header {rows[0] if rows else None!r} != {header!r}")
    return rows[1:]


def stdout_values(text: str) -> dict[str, str]:
    """The ``key = value`` lines of a CLI run's stdout, parameter echo excluded."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not line.startswith("#"):
            values[key.strip()] = value.strip()
    return values


def exact_error_curve(n_inactive: int, k: int, p: float, levels: list[int]):
    """P(T > l) for each l in ``levels`` under the ideal oracle (exact law)."""
    import numpy as np
    from scipy.stats import binom

    r = (1.0 - p) ** k
    u = np.arange(max(levels) + 1)
    with np.errstate(divide="ignore"):
        all_cleared = np.exp(n_inactive * np.log1p(-((1.0 - p) ** u)))
    return np.array([1.0 - binom.pmf(u[:l + 1], l, r) @ all_cleared[:l + 1]
                     for l in levels])


class _Checker:
    def __init__(self, workload: Workload):
        self.workload = workload
        self.notes: dict[str, float] = {}

    def run(self, fn, *args) -> list[str]:
        try:
            return fn(*args)
        except CheckError as exc:
            return [str(exc)]
        except (ValueError, IndexError, KeyError) as exc:
            return [f"unparseable output: {exc!r}"]

    def setup(self, stdout: str) -> list[str]:
        return self.run(self._setup, stdout)

    def batch(self, csv_path: str, stdout: str) -> list[str]:
        return self.run(self._batch, csv_path, stdout)

    def pooled(self) -> list[str]:
        return self.run(self._pooled)

    def _setup(self, stdout: str) -> list[str]:
        from gtmac import bounds
        w = self.workload
        got = int(stdout_values(stdout)["slots_exact_recovery"])
        want = bounds.slots_for_exact_recovery(w.n_inactive, w.k, w.eps)
        return [] if got == want else [f"bounds slots {got} != {want}"]

    def _pooled(self) -> list[str]:
        return []


class CurveChecker(_Checker):
    def __init__(self, workload: Workload):
        super().__init__(workload)
        self.exceed = [0] * len(DEFAULT_GRID)
        self.trials = 0

    def _batch(self, csv_path: str, stdout: str) -> list[str]:
        rows = read_csv(csv_path, CURVE_HEADER)
        trials = self.workload.trials
        if [int(r[0]) for r in rows] != DEFAULT_GRID:
            return ["error-curve grid is not 0..2500"]
        if any(int(r[3]) != trials for r in rows):
            return [f"trials column != {trials}"]
        if not stdout_values(stdout).get("trials", "").startswith(f"{trials} "):
            return ["summary line does not report the trial count"]
        for i, r in enumerate(rows):
            self.exceed[i] += round(float(r[1]) * trials)
        self.trials += trials
        return []

    def _pooled(self) -> list[str]:
        if not self.trials:
            return []
        w = self.workload
        exact = exact_error_curve(w.n_inactive, w.k, w.choice_probability(), DEFAULT_GRID)
        gap = max(abs(e / self.trials - x) for e, x in zip(self.exceed, exact))
        band = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * self.trials))
        self.notes.update(curve_max_gap=gap, curve_dkw_band=band)
        if gap > band:
            return [f"error curve departs from the exact law by {gap:.4g} > {band:.4g}"]
        return []


class TraceChecker(_Checker):
    def _batch(self, csv_path: str, stdout: str) -> list[str]:
        rows = read_csv(csv_path, TRACE_HEADER)
        horizon = int(self.workload.flags[self.workload.flags.index("--horizon") + 1])
        if [int(r[0]) for r in rows] != list(range(horizon + 1)):
            return [f"trace slots are not 0..{horizon}"]
        worst = 0.0
        for r in rows:
            mean, se, predicted = float(r[1]), float(r[2]), float(r[3])
            if se > 0:
                worst = max(worst, abs(mean - predicted) / se)
            elif not math.isclose(mean, predicted, rel_tol=1e-9, abs_tol=1e-9):
                return [f"slot {r[0]}: zero spread but mean {mean} != {predicted}"]
        self.notes["trace_max_z"] = max(worst, self.notes.get("trace_max_z", 0.0))
        if worst > TRACE_MAX_Z:
            return [f"surplus trace is {worst:.2f} standard errors from the prediction"]
        if float(stdout_values(stdout)["final_mean_surplus"]) != float(rows[-1][1]):
            return ["final_mean_surplus differs from the CSV"]
        return []


class EndToEndChecker(_Checker):
    def __init__(self, workload: Workload):
        super().__init__(workload)
        from gtmac import bounds
        w = workload
        self.plan = bounds.plan_channel_uses(w.n_inactive, w.k, w.eps, w.big_k,
                                             w.power, GAUSSIAN_TAIL_CONSTANT)
        self.failures = 0
        self.trials = 0

    def _setup(self, stdout: str) -> list[str]:
        values = stdout_values(stdout)
        got = (int(values["slots_exact_recovery"]), int(values["repetitions"]))
        want = (self.plan.slots, self.plan.repetitions)
        return [] if got == want else [f"bounds (l, m) {got} != {want}"]

    def _batch(self, csv_path: str, stdout: str) -> list[str]:
        values = stdout_values(stdout)
        plan, trials = self.plan, self.workload.trials
        printed = (int(values["slots"]), int(values["repetitions"]))
        if printed != (plan.slots, plan.repetitions):
            return [f"printed (l, m) {printed} != plan {(plan.slots, plan.repetitions)}"]
        failures, _, attempted = values["failures"].partition(" / ")
        (row,) = read_csv(csv_path, E2E_HEADER)
        if (int(row[0]), int(row[1]), int(row[4]), int(row[5]), int(row[6])) != (
                trials, int(failures), plan.slots, plan.repetitions, plan.total):
            return [f"summary row {row!r} disagrees with the plan or stdout"]
        if int(attempted) != trials:
            return [f"ran {attempted} trials, asked for {trials}"]
        self.failures += int(failures)
        self.trials += trials
        return []

    def _pooled(self) -> list[str]:
        if not self.trials:
            return []
        from scipy.stats import binom
        two_eps = 2.0 * self.workload.eps
        tail = float(binom.sf(self.failures - 1, self.trials, two_eps))
        self.notes.update(e2e_failure_rate=self.failures / self.trials,
                          e2e_failure_tail=tail)
        if tail < BINOMIAL_ALPHA:
            return [f"{self.failures}/{self.trials} failures is significantly "
                    f"above 2*eps = {two_eps} (tail {tail:.2g})"]
        return []


CHECKERS = {"curve": CurveChecker, "trace": TraceChecker,
            "e2e_wide": EndToEndChecker, "e2e_lowsnr": EndToEndChecker}


def checker_for(workload: Workload) -> _Checker:
    return CHECKERS[workload.name](workload)
