"""Command-line front end.

Subcommands: ``bounds`` (closed-form budgets), ``simulate`` (Monte Carlo error
curves / expectation traces), ``channel`` (repetition-code slot error), and
``e2e`` (full noisy-channel pipeline).  Every randomized command takes
``--seed``; without one a fresh seed is generated and echoed so the run can
be reproduced.  ``--config FILE`` reads flat ``key = value`` lines (keys match
the long flag names; explicit flags win).  Exit codes: 0 success, 2 bad
usage/parameters, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import secrets
import sys

import numpy as np

from . import bounds as bnd
from . import channel as chan
from . import harness
from ._ranges import check
from .scheme import optimal_choice_probability

_PRESET_REFERENCE = ((10_000, 20), (100_000, 20), (10_000, 30))


def _load_config(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_string("[config]\n" + fh.read())
    return {key.replace("-", "_"): value for key, value in parser.items("config")}


def _resolve(args: argparse.Namespace, conf: dict[str, str], key: str, cast,
             fallback=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in conf:
        raw = conf[key]
        try:
            return cast(raw)
        except ValueError as exc:  # main reports it like a bad flag value: exit 2
            raise ValueError(f"config key {key} = {raw!r}: {exc}") from exc
    return fallback


def _require(parser: argparse.ArgumentParser, value, flag: str):
    if value is None:
        parser.error(f"the following argument is required: {flag}")
    return value


def _parse_noise_spec(spec: str) -> chan.NoiseModel:
    """Parse ``family=scale`` or a comma list of them (a per-step schedule)."""
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty noise spec")
    models = []
    for part in parts:
        if "=" not in part:
            raise ValueError(f"noise spec {part!r} is not family=scale")
        family, _, raw = part.partition("=")
        family = family.strip().lower()
        scale = float(raw)
        if family == "gaussian":
            models.append(chan.gaussian(scale))
        elif family == "uniform":
            models.append(chan.uniform(scale))
        elif family == "rademacher":
            models.append(chan.rademacher(scale))
        else:
            raise ValueError(f"unknown noise family {family!r}")
    return models[0] if len(models) == 1 else chan.schedule(*models)


def _resolve_noise(parser, args, conf) -> chan.NoiseModel:
    sigma = _resolve(args, conf, "sigma", float)
    spec = _resolve(args, conf, "noise", str)
    if sigma is not None and spec is not None:
        parser.error("give either --sigma or --noise, not both")
    if sigma is not None:
        return chan.gaussian(sigma)
    if spec is not None:
        try:
            return _parse_noise_spec(spec)
        except ValueError as exc:
            parser.error(f"--noise: {exc}")
    parser.error("the following argument is required: --sigma or --noise")


def _resolve_seed(args, conf) -> int:
    seed = _resolve(args, conf, "seed", int)
    if seed is None:
        seed = secrets.randbits(63)
    return check("seed", seed)


def _resolve_threads(args, conf) -> int:
    threads = _resolve(args, conf, "threads", int)
    if threads is None:
        threads = os.cpu_count() or 1
    return check("workers", threads)


def _writable(path: str) -> str:
    """Fail before any work if ``path`` cannot be opened for writing.

    Opens in append mode, which keeps an existing file intact; a file this
    creates is removed again, so a run that fails later leaves none behind.
    """
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)
    return path


def _echo(params: dict) -> None:
    print("# effective parameters")
    for key in sorted(params):
        print(f"#   {key} = {params[key]}")


def _format_noise(model: chan.NoiseModel) -> str:
    if model.family == "schedule":
        return ",".join(_format_noise(m) for m in model.members)
    return f"{model.family}={model.scale!r}"


def _cmd_bounds(parser, args, conf) -> int:
    n = _resolve(args, conf, "n_inactive", int)
    k = _resolve(args, conf, "k", int)
    eps = _resolve(args, conf, "eps", float)
    factor = _resolve(args, conf, "surplus_factor", float, 1.0)
    big_k = _resolve(args, conf, "big_k", float)
    power = _resolve(args, conf, "power", float)
    c = _resolve(args, conf, "c", float, bnd.GAUSSIAN_TAIL_CONSTANT)
    delta = _resolve(args, conf, "delta", float)

    have_scheme = n is not None and k is not None and eps is not None
    have_channel = big_k is not None and power is not None
    if not have_scheme and not (have_channel and delta is not None):
        parser.error("need --n-inactive/--k/--eps, or --big-k/--power/--delta")

    params = {"c": c, "surplus_factor": factor}
    for name, value in (("n_inactive", n), ("k", k), ("eps", eps),
                        ("big_k", big_k), ("power", power), ("delta", delta)):
        if value is not None:
            params[name] = value

    lines = []  # computed before the echo, so a bad parameter prints nothing
    if have_scheme:
        lines.append(f"slots_exact_recovery = {bnd.slots_for_exact_recovery(n, k, eps)}")
        lines.append(f"slots_surplus_bound = {bnd.slots_for_surplus_bound(n, k, eps, factor)}")
        if have_channel:
            plan = bnd.plan_channel_uses(n, k, eps, big_k, power, c)
            lines.append(f"slot_error_target = {plan.slot_error_target!r}")
            lines.append(f"repetitions = {plan.repetitions}")
            lines.append(f"total_channel_uses = {plan.total}")
            lines.append(f"closed_form_reference = {plan.closed_form!r}")
    if have_channel and delta is not None:
        lines.append(f"repetition_length = {bnd.repetition_length(big_k, power, delta, c)}")
    _echo(params)
    for line in lines:
        print(line)
    return 0


def _summarize_until_exact(slots) -> str:
    finished = np.sort(slots[slots >= 0])
    count = len(finished)
    if count == 0:
        med = mx = float("nan")
    else:  # statistics.median's result and type: an int, or a float mean of two
        half = count // 2
        med = (int(finished[half]) if count % 2 else
               (int(finished[half - 1]) + int(finished[half])) / 2)
        mx = int(finished[-1])
    return (f"trials = {len(slots)}  median_slots = {med}  max_slots = {mx}"
            f"  censored = {len(slots) - count}")


def _resolve_until_exact(n, k, p, cap, trials) -> tuple[float, int]:
    """``--p`` and ``--slot-cap`` of an (N, k) run, every value checked."""
    p = optimal_choice_probability(k) if p is None else p
    cap = harness.default_slot_cap(n, k) if cap is None else cap
    for key, value in (("n_inactive", n), ("k", k), ("p", p), ("slot_cap", cap),
                       ("trials", trials)):
        check(key, value)
    return p, cap


def _run_until_exact_curve(n, k, p, cap, trials, seed, grid, out, threads) -> None:
    slots = harness.run_until_exact_batch(n, k, p, cap, trials, seed, workers=threads)
    curve = harness.build_error_curve(slots, grid, n, k)
    harness.export_csv(curve, out)
    print(_summarize_until_exact(slots))
    print(f"wrote {out}")


def _cmd_simulate(parser, args, conf) -> int:
    preset = _resolve(args, conf, "preset", str)
    mode = _resolve(args, conf, "mode", str, "until-exact")
    trials = _resolve(args, conf, "trials", int, harness.DEFAULT_TRIALS)
    seed = _resolve_seed(args, conf)
    threads = _resolve_threads(args, conf)
    p = _resolve(args, conf, "p", float)
    cap = _resolve(args, conf, "slot_cap", int)
    grid_max = _resolve(args, conf, "grid_max", int, 2500)
    grid_step = _resolve(args, conf, "grid_step", int, 1)
    grid = harness.default_slot_grid(grid_max, grid_step)

    if preset is not None:
        if preset != "reference":
            parser.error(f"unknown preset {preset!r} (available: reference)")
        runs = [(n, k, *_resolve_until_exact(n, k, p, cap, trials))
                for n, k in _PRESET_REFERENCE]
        out_dir = _resolve(args, conf, "out_dir", str, ".")
        outs = [_writable(os.path.join(out_dir, f"curve_n{n}_k{k}.csv"))
                for n, k in _PRESET_REFERENCE]
        _echo({"preset": preset, "trials": trials, "seed": seed,
               "threads": threads, "out_dir": out_dir,
               "grid_max": grid_max, "grid_step": grid_step})
        for (n, k, p_run, cap_run), out in zip(runs, outs):
            print(f"running n_inactive={n} k={k} ...")
            _run_until_exact_curve(n, k, p_run, cap_run, trials, seed, grid, out, threads)
        return 0

    n = _require(parser, _resolve(args, conf, "n_inactive", int), "--n-inactive")
    k = _require(parser, _resolve(args, conf, "k", int), "--k")
    out = _require(parser, _resolve(args, conf, "out", str), "--out")

    if mode == "until-exact":
        p, cap = _resolve_until_exact(n, k, p, cap, trials)
        _writable(out)
        _echo({"mode": mode, "n_inactive": n, "k": k, "p": p,
               "trials": trials, "seed": seed, "threads": threads,
               "grid_max": grid_max, "grid_step": grid_step,
               "slot_cap": cap, "out": out})
        _run_until_exact_curve(n, k, p, cap, trials, seed, grid, out, threads)
    elif mode == "trace":
        horizon = _require(parser, _resolve(args, conf, "horizon", int), "--horizon")
        p = optimal_choice_probability(k) if p is None else p
        for key, value in (("n_inactive", n), ("k", k), ("p", p),
                           ("trace_trials", trials), ("horizon", horizon)):
            check(key, value)
        _writable(out)
        _echo({"mode": mode, "n_inactive": n, "k": k, "p": p,
               "trials": trials, "seed": seed, "horizon": horizon, "out": out})
        trace = harness.expectation_trace(n, k, p, trials, horizon, seed)
        harness.export_csv(trace, out)
        print(f"final_mean_surplus = {trace.empirical_mean[-1]!r}")
        print(f"wrote {out}")
    else:
        parser.error(f"unknown mode {mode!r} (available: until-exact, trace)")
    return 0


def _cmd_channel(parser, args, conf) -> int:
    noise = _resolve_noise(parser, args, conf)
    power = _require(parser, _resolve(args, conf, "power", float), "--power")
    big_k = _resolve(args, conf, "big_k", float, noise.norm_bound)
    c = _resolve(args, conf, "c", float, bnd.GAUSSIAN_TAIL_CONSTANT)
    delta = _require(parser, _resolve(args, conf, "delta", float), "--delta")
    slots = check("channel_slots", _resolve(args, conf, "slots", int, 100_000))
    reps = _resolve(args, conf, "m", int)
    seed = _resolve_seed(args, conf)
    sized = bnd.repetition_length(big_k, power, delta, c)  # also checks K, P, delta, c
    reps = sized if reps is None else check("repetitions", reps)

    _echo({"noise": _format_noise(noise), "power": power, "big_k": big_k,
           "c": c, "delta": delta, "m": reps, "slots": slots, "seed": seed})

    rng = np.random.default_rng(seed)
    threshold = math.sqrt(power) / 2.0
    excursions = 0
    decoded_true = 0
    done = 0
    batch = 200_000
    while done < slots:
        count = min(batch, slots - done)
        averaged = chan.slot_noise_averages(noise, reps, count, rng,
                                            start_step=done * reps)
        excursions += int((np.abs(averaged) >= threshold).sum())
        decoded_true += int((averaged > threshold).sum())
        done += count
    print(f"empirical_excursion_rate = {excursions / slots!r}")
    print(f"empirical_false_positive_rate = {decoded_true / slots!r}")
    print(f"target_slot_error = {delta!r}")
    print(f"tail_bound = {math.exp(1.0 - c * reps * power / big_k**2)!r}")
    if noise.family == "gaussian" and noise.scale > 0:
        exact = chan.gaussian_slot_error_exact(noise.scale, power, reps)
        print(f"gaussian_exact_excursion = {exact!r}")
    return 0


def _cmd_e2e(parser, args, conf) -> int:
    n = _require(parser, _resolve(args, conf, "n_inactive", int), "--n-inactive")
    k = _require(parser, _resolve(args, conf, "k", int), "--k")
    eps = _require(parser, _resolve(args, conf, "eps", float), "--eps")
    noise = _resolve_noise(parser, args, conf)
    power = _require(parser, _resolve(args, conf, "power", float), "--power")
    big_k = _resolve(args, conf, "big_k", float, noise.norm_bound)
    c = _resolve(args, conf, "c", float, bnd.GAUSSIAN_TAIL_CONSTANT)
    trials = _resolve(args, conf, "trials", int, 2000)
    seed = _resolve_seed(args, conf)
    threads = _resolve_threads(args, conf)
    out = _resolve(args, conf, "out", str)

    if big_k < noise.norm_bound:
        parser.error(f"--big-k {big_k} is below the noise norm bound {noise.norm_bound}")
    for key, value in (("n_inactive", n), ("k", k), ("eps", eps),
                       ("norm_bound", big_k), ("power", power), ("tail_constant", c),
                       ("trials", trials)):
        check(key, value)
    if out is not None:
        _writable(out)

    _echo({"n_inactive": n, "k": k, "eps": eps, "noise": _format_noise(noise),
           "power": power, "big_k": big_k, "c": c, "trials": trials,
           "seed": seed, "threads": threads})

    summary, _ = harness.run_end_to_end_batch(n, k, eps, noise, big_k, power, c,
                                              trials, seed, workers=threads)
    print(f"slots = {summary.slots}")
    print(f"repetitions = {summary.repetitions}")
    print(f"total_channel_uses = {summary.total_channel_uses}")
    print(f"failures = {summary.failures} / {summary.trials}")
    print(f"failure_rate = {summary.failure_rate!r}")
    print(f"conditional_failure_rate = {summary.conditional_failure_rate!r}")
    print(f"two_epsilon = {summary.two_epsilon!r}")
    if out is not None:
        harness.export_csv(summary, out)
        print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtmac",
        description="Group-testing detection of active users over a shared channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; flags override it")
        p.add_argument("--n-inactive", type=int, dest="n_inactive",
                       help="number of inactive nodes N")
        p.add_argument("--k", type=int, help="number of active nodes")
        p.add_argument("--eps", type=float, help="target error probability")
        p.add_argument("--seed", type=int, help="seed base (generated if omitted)")
        p.add_argument("--trials", type=int, help="Monte Carlo trials")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--threads", type=int, help="worker processes")

    def add_channel_flags(p):
        p.add_argument("--sigma", type=float, help="gaussian noise std (shorthand)")
        p.add_argument("--noise", help="family=scale[,family=scale...] "
                                       "(gaussian, uniform, rademacher; list = schedule)")
        p.add_argument("--power", type=float, help="peak power budget P")
        p.add_argument("--big-k", type=float, dest="big_k",
                       help="declared sub-gaussian norm bound K")
        p.add_argument("--c", type=float, help="tail constant (default 1/8)")
        p.add_argument("--delta", type=float, help="per-slot error target")

    p_bounds = sub.add_parser("bounds", help="closed-form budgets, no simulation")
    add_common(p_bounds)
    add_channel_flags(p_bounds)
    p_bounds.add_argument("--surplus-factor", type=float, dest="surplus_factor",
                          help="surplus tolerance C (default 1.0)")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo error curve or surplus trace")
    add_common(p_sim)
    p_sim.add_argument("--mode", choices=("until-exact", "trace"))
    p_sim.add_argument("--p", type=float, help="choice probability (default 1/(k+1))")
    p_sim.add_argument("--slot-cap", type=int, dest="slot_cap")
    p_sim.add_argument("--grid-max", type=int, dest="grid_max")
    p_sim.add_argument("--grid-step", type=int, dest="grid_step")
    p_sim.add_argument("--horizon", type=int, help="trace length in slots")
    p_sim.add_argument("--preset", choices=("reference",),
                       help="run the three reference (N, k) pairs")
    p_sim.add_argument("--out-dir", dest="out_dir", help="directory for preset output")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_chan = sub.add_parser("channel", help="repetition-code slot error simulation")
    add_common(p_chan)
    add_channel_flags(p_chan)
    p_chan.add_argument("--slots", type=int, help="slots to simulate (default 1e5)")
    p_chan.add_argument("--m", type=int, help="override the repetition count")
    p_chan.set_defaults(handler=_cmd_channel)

    p_e2e = sub.add_parser("e2e", help="full pipeline over the noisy channel")
    add_common(p_e2e)
    add_channel_flags(p_e2e)
    p_e2e.set_defaults(handler=_cmd_e2e)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    conf: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            conf = _load_config(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
    try:
        return args.handler(parser, args, conf)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    except OverflowError as exc:  # a finite input too large to compute with
        parser.error(f"parameter out of range: {exc}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
