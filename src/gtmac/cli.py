"""Command-line front end.

Subcommands: ``bounds`` (closed-form budgets), ``simulate`` (Monte Carlo error
curves / expectation traces), ``channel`` (repetition-code slot error), and
``e2e`` (full noisy-channel pipeline).  Every randomized command takes
``--seed``; without one a fresh seed is generated and echoed so the run can
be reproduced.  ``simulate --mode trace`` runs in one process and ignores
``--threads``.  Each flag's range, type and default are declared once, in
``_FLAGS``, and each subcommand takes only the flags its handler reads.
``--config FILE`` reads flat ``key = value`` lines named after the long
flags, and each value becomes its flag's default: flags beat the file, the
file beats the built-in defaults, and a key that names no flag of the
subcommand is ignored.  Exit codes: 0 success, 2 bad usage/parameters (a
flag the subcommand does not take, a malformed config file or a ``[name]``
line in it, or a value its flag cannot parse: ``argument --k: invalid int
value: 'abc'``), 1 runtime failure.  Every flag given, on the command line
or in ``--config``, is range-checked once under its own name before any
output, whether or not the mode reads it: ``--delta must be a real in (0, 1),
got 1.5``.

Start-up is most of a short run's time, so a module that only some runs need
is imported where it is used.  At the top this module imports only what every
command uses: ``argparse``, ``bounds`` and the range checks.  ``bounds`` plans
in pure ``math``, so ``gtmac bounds`` loads neither numpy nor ``harness``,
``channel`` or ``scheme``; the ``simulate``, ``channel`` and ``e2e`` handlers
and the noise-spec helpers import those layers, and numpy, themselves.  Inside
them, the process pool (``harness``), the config parser and the seed
generator load only on the branch that uses them.  The layers' records are
``collections.namedtuple`` classes, which compile no methods from source and
need no ``inspect``: ``gtmac bounds`` loads no ``inspect`` (numpy loads it
for the other commands).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import bounds as bnd
from ._ranges import check

TYPE_CHECKING = False  # importing typing would cost start-up
if TYPE_CHECKING:
    from .channel import NoiseModel

_PRESET_REFERENCE = ((10_000, 20), (100_000, 20), (10_000, 30))


def _load_config(parser: argparse.ArgumentParser, path: str) -> dict[str, str]:
    """The ``key = value`` lines of ``path``; a malformed file exits 2.

    An unreadable file raises ``OSError``.  A ``[name]`` line is malformed:
    the file has no sections.
    """
    import configparser  # only a run with --config pays for it

    reader = configparser.ConfigParser(interpolation=None)  # a % is literal
    reader.SECTCRE = re.compile(r"\[(?P<header>config)\]")  # the one header
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        reader.read_string("[config]\n" + text)
    except configparser.Error as exc:  # a bad line, a [name] line, a key given twice
        # the file's line n is line n + 1 after the prepended section header
        line = (getattr(exc, "lineno", None) or exc.errors[0][0]) - 1
        parser.exit(2, f"gtmac: error: config file {path}, line {line}: "
                       "expected key = value with a key not given before\n")
    return {key.replace("-", "_"): value for key, value in reader.items("config")}


def _require(parser: argparse.ArgumentParser, value, flag: str):
    if value is None:
        parser.error(f"the following argument is required: {flag}")
    return value


def _parse_noise_spec(spec: str) -> NoiseModel:
    """Parse ``family=scale`` or a comma list of them (a per-step schedule)."""
    from . import channel as chan

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


def _resolve_noise(parser, args) -> NoiseModel:
    from . import channel as chan

    if args.sigma is not None and args.noise is not None:
        parser.error("give either --sigma or --noise, not both")
    if args.sigma is not None:
        return chan.gaussian(args.sigma)
    if args.noise is not None:
        try:
            return _parse_noise_spec(args.noise)
        except ValueError as exc:
            parser.error(f"--noise: {exc}")
    parser.error("the following argument is required: --sigma or --noise")


def _resolve_big_k(parser, args, noise: NoiseModel) -> float:
    """``--big-k``, by default the noise's norm bound, and never below that bound.

    A plan sized from an understated bound would miss its error target.
    """
    if args.big_k is None:
        if not noise.norm_bound:
            parser.error("the noise's norm bound is 0, so --big-k > 0 is needed")
        return noise.norm_bound
    if args.big_k < noise.norm_bound:
        parser.error(f"--big-k {args.big_k} is below the noise norm bound {noise.norm_bound}")
    return args.big_k


def _resolve_seed(args) -> int:
    if args.seed is None:
        import secrets  # only an unseeded run draws one

        return secrets.randbits(63)
    return args.seed


def _resolve_threads(args) -> int:
    return (os.cpu_count() or 1) if args.threads is None else args.threads


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


def _format_noise(model: NoiseModel) -> str:
    if model.family == "schedule":
        return ",".join(_format_noise(m) for m in model.members)
    return f"{model.family}={model.scale!r}"


def _cmd_bounds(parser, args) -> int:
    n, k, eps = args.n_inactive, args.k, args.eps
    big_k, power, delta, c = args.big_k, args.power, args.delta, args.c

    have_scheme = n is not None and k is not None and eps is not None
    have_channel = big_k is not None and power is not None
    if not have_scheme and not (have_channel and delta is not None):
        parser.error("need --n-inactive/--k/--eps, or --big-k/--power/--delta")

    lines = []  # computed before the echo, so a bad parameter prints nothing
    if have_scheme:
        lines.append(f"slots_exact_recovery = {bnd.slots_for_exact_recovery(n, k, eps)}")
        lines.append("slots_surplus_bound = "
                     f"{bnd.slots_for_surplus_bound(n, k, eps, args.surplus_factor)}")
        if have_channel:
            plan = bnd.plan_channel_uses(n, k, eps, big_k, power, c)
            lines.append(f"slot_error_target = {plan.slot_error_target!r}")
            lines.append(f"repetitions = {plan.repetitions}")
            lines.append(f"total_channel_uses = {plan.total}")
            lines.append(f"closed_form_reference = {plan.closed_form!r}")
    if have_channel and delta is not None:
        lines.append(f"repetition_length = {bnd.repetition_length(big_k, power, delta, c)}")
    _echo({_dest(flag): value for flag, _, value in _ranged(args)})
    for line in lines:
        print(line)
    return 0


def _summarize_until_exact(slots) -> str:
    import numpy as np

    finished = np.sort(slots[slots >= 0]).tolist()
    if finished:  # the median as statistics.median gives it, without its import
        half, odd = divmod(len(finished), 2)
        med = finished[half] if odd else (finished[half - 1] + finished[half]) / 2
        mx = finished[-1]
    else:
        med = mx = float("nan")
    return (f"trials = {len(slots)}  median_slots = {med}  max_slots = {mx}"
            f"  censored = {len(slots) - len(finished)}")


def _resolve_until_exact(n, k, p, cap) -> tuple[float, int]:
    """``--p`` and ``--slot-cap`` of an (N, k) run, by default derived from k and N."""
    from . import harness
    from .scheme import optimal_choice_probability

    if cap is None:  # derived, so checked here: a huge k puts it past the range
        cap = check("slot_cap", harness.default_slot_cap(n, k), "--slot-cap")
    return (optimal_choice_probability(k) if p is None else p), cap


def _run_until_exact_curve(n, k, p, cap, trials, seed, grid, out, threads) -> None:
    from . import harness

    slots = harness.run_until_exact_batch(n, k, p, cap, trials, seed, workers=threads)
    curve = harness.build_error_curve(slots, grid, n, k)
    harness.export_csv(curve, out)
    print(_summarize_until_exact(slots))
    print(f"wrote {out}")


def _cmd_simulate(parser, args) -> int:
    from . import harness
    from .scheme import optimal_choice_probability

    mode, trials, p = args.mode, args.trials, args.p
    seed = _resolve_seed(args)
    threads = _resolve_threads(args)
    grid = harness.default_slot_grid(args.grid_max, args.grid_step)

    if args.preset is not None:
        if args.preset != "reference":
            parser.error(f"unknown preset {args.preset!r} (available: reference)")
        if mode != "until-exact":
            parser.error("--preset reference runs only --mode until-exact")
        runs = [(n, k, *_resolve_until_exact(n, k, p, args.slot_cap))
                for n, k in _PRESET_REFERENCE]
        outs = [_writable(os.path.join(args.out_dir, f"curve_n{n}_k{k}.csv"))
                for n, k in _PRESET_REFERENCE]
        _echo({"preset": args.preset, "trials": trials, "seed": seed,
               "threads": threads, "out_dir": args.out_dir,
               "grid_max": args.grid_max, "grid_step": args.grid_step})
        for (n, k, p_run, cap_run), out in zip(runs, outs):
            print(f"running n_inactive={n} k={k} ...")
            _run_until_exact_curve(n, k, p_run, cap_run, trials, seed, grid, out, threads)
        return 0

    n = _require(parser, args.n_inactive, "--n-inactive")
    k = _require(parser, args.k, "--k")
    out = _require(parser, args.out, "--out")

    if mode == "until-exact":
        p, cap = _resolve_until_exact(n, k, p, args.slot_cap)
        _writable(out)
        _echo({"mode": mode, "n_inactive": n, "k": k, "p": p,
               "trials": trials, "seed": seed, "threads": threads,
               "grid_max": args.grid_max, "grid_step": args.grid_step,
               "slot_cap": cap, "out": out})
        _run_until_exact_curve(n, k, p, cap, trials, seed, grid, out, threads)
    elif mode == "trace":
        horizon = _require(parser, args.horizon, "--horizon")
        p = optimal_choice_probability(k) if p is None else p
        check("trace_trials", trials, "--trials")
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


def _cmd_channel(parser, args) -> int:
    import numpy as np

    from . import channel as chan

    noise = _resolve_noise(parser, args)
    power = _require(parser, args.power, "--power")
    big_k = _resolve_big_k(parser, args, noise)
    c, slots = args.c, args.slots
    delta = _require(parser, args.delta, "--delta")
    seed = _resolve_seed(args)
    sized = bnd.repetition_length(big_k, power, delta, c)
    reps = sized if args.m is None else args.m

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
    square = big_k**2  # 0 for K below ~1e-162: the bound is then exp(-inf) = 0
    exponent = c * reps * power / square if square else math.inf
    print(f"tail_bound = {math.exp(1.0 - exponent)!r}")
    if noise.family == "gaussian" and noise.scale > 0:
        exact = chan.gaussian_slot_error_exact(noise.scale, power, reps)
        print(f"gaussian_exact_excursion = {exact!r}")
    return 0


def _cmd_e2e(parser, args) -> int:
    from . import harness

    n = _require(parser, args.n_inactive, "--n-inactive")
    k = _require(parser, args.k, "--k")
    eps = _require(parser, args.eps, "--eps")
    noise = _resolve_noise(parser, args)
    power = _require(parser, args.power, "--power")
    big_k = _resolve_big_k(parser, args, noise)
    c, trials, out = args.c, args.trials, args.out
    seed = _resolve_seed(args)
    threads = _resolve_threads(args)
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


# Every flag with the key of its range in ``_ranges`` (None: no numeric range),
# its type and its built-in default, declared once.
_FLAGS = {
    "--config": (None, dict(help="flat key=value file of flag defaults")),
    "--n-inactive": ("n_inactive", dict(type=int, help="number of inactive nodes N")),
    "--k": ("k", dict(type=int, help="number of active nodes")),
    "--eps": ("eps", dict(type=float, help="target error probability")),
    "--seed": ("seed", dict(type=int, help="seed base (generated if omitted)")),
    "--trials": ("trials", dict(type=int, help="Monte Carlo trials (default %(default)s)")),
    "--out": (None, dict(help="output CSV path")),
    "--threads": ("workers", dict(type=int,
                                  help="worker processes (default: the number of CPUs)")),
    "--sigma": ("scale", dict(type=float, help="gaussian noise std (shorthand)")),
    "--noise": (None, dict(help="family=scale[,family=scale...] "
                                "(gaussian, uniform, rademacher; list = schedule)")),
    "--power": ("power", dict(type=float, help="peak power budget P")),
    "--big-k": ("norm_bound", dict(type=float, help="declared sub-gaussian norm bound K "
                                                    "(default: the noise's norm bound)")),
    "--c": ("tail_constant", dict(type=float, default=bnd.GAUSSIAN_TAIL_CONSTANT,
                                  help="tail constant (default %(default)s)")),
    "--delta": ("slot_error", dict(type=float, help="per-slot error target")),
    "--surplus-factor": ("surplus_factor", dict(
        type=float, default=1.0, help="surplus tolerance C (default %(default)s)")),
    "--mode": (None, dict(choices=("until-exact", "trace"), default="until-exact",
                          help="error curve or surplus trace (default %(default)s)")),
    "--p": ("p", dict(type=float, help="choice probability (default 1/(k+1))")),
    "--slot-cap": ("slot_cap", dict(type=int, help="censor a trial after this many slots")),
    "--grid-max": ("max_slot", dict(
        type=int, default=2500, help="last slot of the error-curve grid (default %(default)s)")),
    "--grid-step": ("step", dict(type=int, default=1,
                                 help="error-curve grid stride (default %(default)s)")),
    "--horizon": ("horizon", dict(type=int, help="trace length in slots")),
    "--preset": (None, dict(choices=("reference",),
                            help="run the three reference (N, k) pairs")),
    "--out-dir": (None, dict(default=".",
                             help="directory for preset output (default %(default)s)")),
    "--slots": ("channel_slots", dict(type=int, default=100_000,
                                      help="slots to simulate (default %(default)s)")),
    "--m": ("repetitions", dict(type=int, help="override the repetition count")),
}

# Each subcommand: its summary, handler, own defaults, and the flags it reads.
_COMMANDS = {
    "bounds": ("closed-form budgets, no simulation", _cmd_bounds, {},
               "--config --n-inactive --k --eps --power --big-k --c --delta "
               "--surplus-factor"),
    "simulate": ("Monte Carlo error curve or surplus trace", _cmd_simulate,
                 {"trials": 20_000},
                 "--config --n-inactive --k --seed --trials --out --threads --mode --p "
                 "--slot-cap --grid-max --grid-step --horizon --preset --out-dir"),
    "channel": ("repetition-code slot error simulation", _cmd_channel, {},
                "--config --seed --sigma --noise --power --big-k --c --delta --slots --m"),
    "e2e": ("full pipeline over the noisy channel", _cmd_e2e, {"trials": 2000},
            "--config --n-inactive --k --eps --seed --trials --out --threads "
            "--sigma --noise --power --big-k --c"),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _ranged(args):
    """``(flag, range key, value)`` of each flag of the command that has both."""
    for flag in _COMMANDS[args.command][3].split():
        key, value = _FLAGS[flag][0], getattr(args, _dest(flag))
        if key is not None and value is not None:
            yield flag, key, value


def build_parser(conf: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The ``gtmac`` parser; each ``conf`` value is the default of its flag.

    A subcommand takes only the flags its handler reads, so any other flag
    exits 2.  A config value is a string, which argparse converts with the
    flag's own ``type``.  A key that names no flag of a subcommand is ignored
    there.
    """
    parser = argparse.ArgumentParser(
        prog="gtmac",
        description="Group-testing detection of active users over a shared channel.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, defaults, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag][1])
        p.set_defaults(handler=handler, **defaults)
        dests = {_dest(flag) for flag in flags.split()}
        p.set_defaults(**{key: value for key, value in (conf or {}).items()
                          if key in dests})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:  # parse again, with the config values as flag defaults
        try:
            conf = _load_config(parser, args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        parser = build_parser(conf)
        args = parser.parse_args(argv)
    try:
        for flag, key, value in _ranged(args):  # each given value, before any output
            check(key, value, flag)
        return args.handler(parser, args)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    except OverflowError as exc:  # a finite input too large to compute with
        parser.error(f"parameter out of range: {exc}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
