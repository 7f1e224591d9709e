#!/usr/bin/env python3
"""Benchmark of the `gtmac` CLI: end-to-end metrics or per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload curve --seed 7 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 7     # one row per workload

``--trace 0`` times CLI processes, one after another, for ``--seconds``
seconds, and scales each wall time by the host's speed at that moment (see
``host_factor``); ``--trace 1`` runs the CLI in this process through
``gtmac.cli.main`` with the layer wrappers of ``tracing.py`` installed.  Both
check every run's output (see ``checks.py``).  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.

The program is run from ``src/`` of the checkout this file sits in; without
it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy can be imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, batch_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7          # `gtmac bounds` runs per benchmark run; setup_s is their median
PROCESS_TIMEOUT_S = 150.0  # a CLI process still running after this is killed
CALIBRATION_NOMINAL_S = 0.06  # calibration() on an unloaded 2-core Xeon, Python 3.11


# --- untraced pass: timed CLI processes ------------------------------------------

@dataclass(frozen=True)
class Batch:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str

    def problems(self) -> list[str]:
        if self.exit_code != 0:
            return [f"exit code {self.exit_code}: {self.stderr.strip()[-300:]}"]
        return []


def spawn(argv: list[str], log: Path) -> Batch:
    """Run ``gtmac <argv>`` and read its peak RSS and CPU time from wait4.

    ``wait4`` reports the usage of this one child; ``RUSAGE_CHILDREN`` would
    give the maximum RSS over every child reaped so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gtmac.cli", *argv],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Batch(exit_code=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
                 stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                 stderr=err_path.read_text(encoding="utf-8", errors="replace"))


def calibration() -> float:
    """Wall time of a fixed mix of the work the CLI does, in seconds.

    Three parts of about 20 ms each on an unloaded host: an interpreted loop,
    numpy scalar draws (the until-exact and trace kernels' idiom) and numpy
    vector draws and sorts (the channel's).  It runs in this process between
    CLI processes, never beside one.
    """
    import numpy as np
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    rng = np.random.default_rng(0)
    for _ in range(20_000):
        if rng.random() < 0.5:
            total += int(rng.binomial(1000, 0.1))
    for _ in range(12):
        a = rng.standard_normal(100_000)
        a.sort()
        total += int(a.sum() > 0)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.

    The calibration must see the CPU the CLI runs on: on a shared VM each
    vCPU slows on its own, and two vCPUs' speeds measured 50 ms apart are
    uncorrelated.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def host_factor(before: float, after: float) -> float:
    """How much slower than nominal the host ran, from the calibrations around a run.

    On a shared 2-vCPU VM the same CLI batch's wall time swings by up to 1.9x
    for stretches of seconds to minutes, and the calibration swings with it;
    a fixed pure-Python loop shows the same swing in CPU time, so the host
    slows the instructions themselves.  Dividing a wall time by this factor
    estimates the time the run would have taken at nominal host speed.  Over
    16 runs of 25 s of the curve workload the median batch rate spread
    (IQR / median) 0.21 unscaled and 0.10 scaled.
    """
    return (before + after) / (2.0 * CALIBRATION_NOMINAL_S)


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def timed_pass(w: Workload, seed: int, seconds: float, tmp: Path) -> dict:
    import checks
    checker = checks.checker_for(w)
    problems: list[str] = []

    # Set-up: the first `gtmac bounds` run compiles bytecode and is not timed.
    # Every run below is bracketed by calibrations: calib[i], calib[i + 1].
    calib = [calibration()]
    setup_raw, setup_scaled, setup_failed = [], [], 0
    for i in range(SETUP_REPEATS + 1):
        run = spawn(w.bounds_argv(), tmp / f"bounds{i}")
        calib.append(calibration())
        found = run.problems() or checker.setup(run.stdout)
        setup_failed += bool(found)
        problems += found
        if i:
            setup_raw.append(run.wall_s)
            setup_scaled.append(run.wall_s / host_factor(calib[-2], calib[-1]))

    batches: list[tuple[Batch, float]] = []  # (batch, host factor around it)
    batch_failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        csv_path = tmp / f"batch{len(batches)}.csv"
        run = spawn(w.batch_argv(batch_seed(w.name, seed, len(batches)), str(csv_path)),
                    csv_path)
        calib.append(calibration())
        found = run.problems() or checker.batch(str(csv_path), run.stdout)
        batch_failed += bool(found)
        problems += found
        batches.append((run, host_factor(calib[-2], calib[-1])))
    pooled = checker.pooled()
    problems += pooled
    if pooled:  # a pooled statistic implicates every batch that fed it
        batch_failed = len(batches)

    ok = [(b, f) for b, f in batches if b.exit_code == 0]
    if not ok:
        raise SystemExit(f"error: no {w.name} batch succeeded: {problems[:3]}")
    attempted = SETUP_REPEATS + 1 + len(batches)
    failed = setup_failed + batch_failed
    rates = [w.trials * f / b.wall_s for b, f in ok]
    raw_rates = [w.trials / b.wall_s for b, _ in ok]
    metrics = {
        "trials_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (statistics.median(b.rss_mb for b, _ in ok), "MB"),
    }
    q1, _, q3 = quartiles(rates)
    report = {
        "error_ratio": (failed / attempted, "ratio"),
        "trials_per_s.q1": (q1, "1/s"),
        "trials_per_s.q3": (q3, "1/s"),
        "trials_per_s.unscaled_median": (statistics.median(raw_rates), "1/s"),
        "setup_s.unscaled_median": (statistics.median(setup_raw), "s"),
        "host_factor.median": (statistics.median(f for _, f in ok), "ratio"),
        "cpu_over_wall": (statistics.median(b.cpu_s / b.wall_s for b, _ in ok), "ratio"),
        "batches": (len(batches), "count"),
        "trials_per_batch": (w.trials, "count"),
        **{k: (v, "") for k, v in checker.notes.items()},
    }
    return finish(metrics, report, problems, attempted, failed)


# --- traced pass: in-process CLI with layer wrappers ------------------------------

def call_cli(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code or 0, buf.getvalue()


def traced_pass(w: Workload, seed: int, seconds: float, tmp: Path) -> dict:
    start = time.perf_counter()
    import gtmac.cli  # first gtmac/numpy import of this process
    import_s = time.perf_counter() - start

    import checks
    from tracing import Recorder
    checker = checks.checker_for(w)
    rec = Recorder()
    problems: list[str] = []
    # Sized from the window and the nominal batch cost, never from measured
    # speed, so every count below repeats exactly for a given seed.
    iterations = max(1, int(seconds // (2.0 * w.nominal_s)))
    # Warm-up: the first run in a process pays one-off costs (lazy imports,
    # the allocator adapting to large arrays) that would bias trace.overhead.
    call_cli(gtmac.cli.main, w.batch_argv(0, str(tmp / "warmup.csv"),
                                          trials=max(1, w.trials // 10)))
    plain_wall = outer_wall = cpu = 0.0
    failed = 0
    for i in range(iterations):
        plain_csv, traced_csv = tmp / f"plain{i}.csv", tmp / f"traced{i}.csv"
        s = batch_seed(w.name, seed, i)
        t0 = time.perf_counter()
        code, _ = call_cli(gtmac.cli.main, w.batch_argv(s, str(plain_csv)))
        plain_wall += time.perf_counter() - t0
        found = [f"untraced exit code {code}"] if code else []

        t0, c0 = time.perf_counter(), time.process_time()
        with rec.installed():
            code, stdout = call_cli(
                lambda argv: rec.span("cli.main", gtmac.cli.main, argv),
                w.batch_argv(s, str(traced_csv)))
        outer_wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if code:
            found.append(f"traced exit code {code}")
        else:
            found += checker.batch(str(traced_csv), stdout)
            if not found and plain_csv.read_bytes() != traced_csv.read_bytes():
                found.append("tracing changed the output")
        failed += 2 if found else 0
        problems += found
    pooled = checker.pooled()
    problems += pooled
    if pooled:
        failed = 2 * iterations

    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    rec.write_spans(str(OUT_ROOT / f"spans-{w.name}-{seed}.csv"))
    metrics, report = layer_metrics(rec, import_s, plain_wall, outer_wall, cpu)
    report["traced_trials"] = (w.trials * iterations, "count")
    report.update({k: (v, "") for k, v in checker.notes.items()})
    return finish(metrics, report, problems, 2 * iterations, failed)


def layer_metrics(rec, import_s: float, plain_wall: float, outer_wall: float,
                  cpu: float) -> tuple[dict, dict]:
    self_s, calls = rec.self_times()
    n = rec.counts
    main_wall = rec.root_seconds()

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    slots = n["harness.simulate_until_exact.slots"]
    draws = n["channel.noise_draws"]
    metrics = {
        "harness.simulate_until_exact.self_s": (self_s["harness.simulate_until_exact"], "s"),
        "harness.simulate_until_exact.slots": (slots, "count"),
        "harness.simulate_until_exact.ns_per_slot":
            (per(self_s["harness.simulate_until_exact"], slots, 1e9), "ns"),
        "harness.trial_seed.calls": (calls["harness.trial_seed"], "count"),
        "harness.trial_seed.self_s": (self_s["harness.trial_seed"], "s"),
        "scheme.run_scheme_fast.calls": (calls["scheme.run_scheme_fast"], "count"),
        "scheme.run_scheme_fast.self_s": (self_s["scheme.run_scheme_fast"], "s"),
        "scheme.run_scheme.calls": (calls["scheme.run_scheme"], "count"),
        "scheme.run_scheme.self_s": (self_s["scheme.run_scheme"], "s"),
        "scheme.run_scheme.node_slots": (n["scheme.run_scheme.node_slots"], "count"),
        "scheme.receiver_update.calls": (calls["scheme.receiver_update"], "count"),
        "scheme.receiver_update.self_s": (self_s["scheme.receiver_update"], "s"),
        "scheme.slot_rng.calls": (calls["scheme.slot_rng"], "count"),
        "scheme.slot_rng.self_s": (self_s["scheme.slot_rng"], "s"),
        "scheme.useful_slot_ratio": (per(n["scheme.useful_slots"], n["scheme.slots"]), "ratio"),
        "channel.decode_block.calls": (calls["channel.decode_block"], "count"),
        "channel.decode_block.self_s": (self_s["channel.decode_block"], "s"),
        "channel.slot_noise_averages.self_s": (self_s["channel.slot_noise_averages"], "s"),
        "channel.noise_draws": (draws, "count"),
        "channel.ns_per_draw": (per(self_s["channel.slot_noise_averages"], draws, 1e9), "ns"),
        "channel.bytes_computed": (8 * draws, "B"),
        "channel.false_positive_slots": (n["channel.false_positive_slots"], "count"),
        "channel.false_negative_slots": (n["channel.false_negative_slots"], "count"),
        "bounds.calls": (calls["bounds"], "count"),
        "bounds.self_s": (self_s["bounds"], "s"),
        "cli.import_s": (import_s, "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "harness.export_csv.self_s": (self_s["harness.export_csv"], "s"),
        "harness.export_csv.bytes": (n["harness.export_csv.bytes"], "B"),
        "harness.run_until_exact_batch.self_s": (self_s["harness.run_until_exact_batch"], "s"),
        "harness.build_error_curve.self_s": (self_s["harness.build_error_curve"], "s"),
        "harness.expectation_trace.self_s": (self_s["harness.expectation_trace"], "s"),
        "harness.run_end_to_end_batch.self_s": (self_s["harness.run_end_to_end_batch"], "s"),
        "harness.end_to_end_trial.self_s": (self_s["harness.end_to_end_trial"], "s"),
        "trace.overhead": (per(main_wall, plain_wall) - 1.0, "ratio"),
        "trace.uncovered_s": (outer_wall - main_wall, "s"),
        "cli.cpu_over_wall": (per(cpu, outer_wall), "ratio"),
    }
    shares = sorted(((s / main_wall if main_wall else 0.0, name)
                     for name, s in self_s.items()), reverse=True)
    report = {f"share.{name}": (share, "of cli.main") for share, name in shares if share > 0}
    report["dominant_layer"] = (shares[0][1] if shares else "none", "")
    report["traced_wall_s"] = (main_wall, "s")
    return metrics, report


# --- output ------------------------------------------------------------------------

def finish(metrics: dict, report: dict, problems: list[str], attempted: int,
           failed: int) -> dict:
    for name, (value, unit) in {**metrics, **report}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:<44} {shown} {unit}".rstrip())
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def environment(args) -> dict:
    import numpy
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_rev": git_rev()}


def git_rev() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repo."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_all(args) -> int:
    """Run every workload in its own benchmark process; print one row each."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        print(proc.stdout, end="")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        print(f"{'workload':<12}{'trials_per_s':<18}{'setup_s':<12}{'peak_rss_mb':<14}error_ratio")
        for name, row in rows.items():
            m = {k: v["value"] for k, v in row["metrics"].items()}
            print(f"{name:<12}{m['trials_per_s']:<12.2f}1/s   {m['setup_s']:<10.4f}s "
                  f"{m['peak_rss_mb']:<11.1f}MB {row['failed'] / row['attempted']:.4f} ratio")
    print(json.dumps(rows))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "gtmac" / "cli.py").is_file():
        print(f"error: {SRC / 'gtmac'} not found; run from a gtmac checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)

    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        run = traced_pass if args.trace else timed_pass
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, Path(tmp))
    # Last, so that numpy is not imported before the traced pass times it.
    print("# env " + json.dumps(environment(args)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
