"""The benchmark's workloads: which `gtmac` command each one runs, and why.

Every workload runs a single CLI process per batch with ``--threads 1``.  A
batch's trial count is fixed here, so a faster program fits more batches into
the measuring window but each batch does the same work.  ``nominal_s`` is the
wall time of one batch measured on a 2-core Xeon (Python 3.11, numpy 2.4); the
traced pass uses it to size itself from ``--seconds`` so that its counts depend
only on the seed and the window length, never on how fast the program ran.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "simulate" or "e2e"
    flags: tuple[str, ...]     # workload flags, without seed/trials/out/threads
    trials: int                # trials per CLI batch
    nominal_s: float           # wall time of one batch, see module docstring
    n_inactive: int
    k: int
    eps: float                 # the e2e target; curve/trace plan with 0.01
    big_k: float | None = None  # declared noise norm bound (e2e only)
    power: float | None = None
    p: float | None = None     # choice probability (simulate only)

    def bounds_argv(self) -> list[str]:
        """`gtmac bounds` on this workload's own N, k (plus eps, K, P for e2e)."""
        argv = ["bounds", "--n-inactive", str(self.n_inactive), "--k", str(self.k),
                "--eps", repr(self.eps)]
        if self.big_k is not None:
            argv += ["--big-k", repr(self.big_k), "--power", repr(self.power)]
        return argv

    def batch_argv(self, seed: int, out: str, trials: int | None = None) -> list[str]:
        trials = self.trials if trials is None else trials
        return [self.command, *self.flags, "--trials", str(trials),
                "--seed", str(seed), "--threads", "1", "--out", out]

    def choice_probability(self) -> float:
        return self.p if self.p is not None else 1.0 / (self.k + 1)


WORKLOADS: dict[str, Workload] = {
    # The paper's headline experiment: until-exact error curve on the default
    # 0..2500 grid.  Exercises harness.simulate_until_exact and trial_seed.
    "curve": Workload(
        name="curve", command="simulate",
        flags=("--n-inactive", "10000", "--k", "20"),
        trials=1500, nominal_s=0.9, n_inactive=10_000, k=20, eps=0.01),
    # The same surplus chain through scheme.run_scheme_fast at a fixed
    # horizon; a kernel shared with `curve` must not slow this one.
    "trace": Workload(
        name="trace", command="simulate",
        flags=("--mode", "trace", "--n-inactive", "1000", "--k", "3",
               "--p", "0.25", "--horizon", "50"),
        trials=8000, nominal_s=0.95, n_inactive=1000, k=3, eps=0.01, p=0.25),
    # Node-level scheme at N = 1e5 (l = 921, m = 100): run_scheme dominates
    # and sets the memory peak.
    "e2e_wide": Workload(
        name="e2e_wide", command="e2e",
        flags=("--n-inactive", "100000", "--k", "20", "--eps", "0.01",
               "--sigma", "1", "--power", "1"),
        trials=1, nominal_s=2.3, n_inactive=100_000, k=20, eps=0.01,
        big_k=1.0, power=1.0),
    # Many short node-level trials with a noise schedule (l = 151, m = 4615):
    # exercises per-slot seeding and channel.slot_noise_averages.
    "e2e_lowsnr": Workload(
        name="e2e_lowsnr", command="e2e",
        flags=("--n-inactive", "500", "--k", "5", "--eps", "0.05",
               "--noise", "gaussian=8,uniform=8,rademacher=8", "--power", "1"),
        trials=30, nominal_s=1.1, n_inactive=500, k=5, eps=0.05,
        big_k=8.0, power=1.0),
}


def batch_seed(workload: str, seed: int, index: int) -> int:
    """63-bit `gtmac --seed` of batch ``index``: a pure function of its arguments."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
