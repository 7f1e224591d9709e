"""Command-line front end.

Subcommands: ``bounds`` (closed-form budgets), ``simulate`` (Monte Carlo error
curves / expectation traces), ``channel`` (repetition-code slot error), and
``e2e`` (full noisy-channel pipeline).  Every randomized command takes
``--seed``; without one ``main`` draws a fresh 63-bit seed from ``secrets``
before the form runs, and the form echoes it so the run can be reproduced
(``--threads``, likewise, is the CPU count unless given).  Each flag's range,
type and default are declared once, in ``_FLAGS``, and each form of a command
once, in ``_FORMS``: ``simulate`` has three (``--mode until-exact``, ``--mode
trace``, ``--preset reference``), each other command one.  A command takes the
flags its forms read; a flag spelled (in full) on the command line that the
chosen form does not read exits 2.  ``--config FILE`` reads flat ``key =
value`` lines named after the long flags; each value becomes its flag's
default, so flags beat the file and the file beats the built-in defaults, and
a key the form does not read is ignored.  Exit codes: 0 success, 2 bad
usage/parameters (an unread or missing flag, a malformed config file, or a
value its flag cannot parse: ``argument --k: invalid int value: 'abc'``), 1
runtime failure.  Every flag given, on the command line or in ``--config``, is
range-checked once under its own name before any output, whatever the form
reads: ``--delta must be a real in (0, 1), got 1.5``.

This module parses, refuses, echoes and prints; each number it prints comes
from a layer, so it uses neither numpy nor ``math``.  Start-up is most of a
short run's time: at the top it imports only ``argparse``, ``bounds`` (pure
``math``) and the range checks, so ``gtmac bounds`` loads no numpy and no
simulation layer; each other handler imports the layers it runs, and the
process pool, config parser and seed generator load only where used.  The
records are ``collections.namedtuple`` classes, which need no ``inspect``.

Exit is a fixed cost too: CPython runs full collections over the import graph
at exit.  So a process entry (``python -m gtmac.cli`` or the ``gtmac`` script,
both calling ``main()`` without arguments) ends with ``gc.freeze()``, which
moves every tracked object to the permanent generation those collections skip
(the README gives the timings).  Flushes, atexit handlers and the exit code
are unchanged; ``main(argv)`` called in process leaves the gc state alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import re
import shutil
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


def _resolve_noise(parser, args) -> tuple[NoiseModel, float]:
    """The noise model and ``--big-k`` K, by default the noise's largest scale.

    One rule certifies a plan, ``--c`` at most K**2/(8*s**2) for each member's variance
    proxy s: ``--noise uniform=3 --big-k 2`` (s = sqrt(3)) runs at c = 1/8.
    """
    from . import channel as chan

    if args.sigma is not None and args.noise is not None:
        parser.error("give either --sigma or --noise, not both")
    if args.sigma is not None:
        noise = chan.gaussian(args.sigma)
    elif args.noise is not None:
        try:
            noise = chan.NoiseModel.parse(args.noise)
        except ValueError as exc:
            parser.error(f"--noise: {exc}")
    else:
        parser.error("the following argument is required: --sigma or --noise")
    big_k = noise.largest_scale if args.big_k is None else args.big_k
    if not big_k:
        parser.error("the noise's scales are all 0, so --big-k > 0 is needed")
    limit = noise.tail_constant_limit(big_k)
    if args.c > limit:
        parser.error(f"--c {args.c} is above {limit!r}, the largest tail constant "
                     f"K**2/(8*s**2) at --big-k {big_k} for the noise's variance proxies s")
    return noise, big_k


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


def _check_memory(parser, arrays) -> None:
    """Exit 2 unless the ``(bytes, flags)`` arrays a form must hold at once fit.

    Each size is a lower bound on what its flags make the form allocate, and
    the room is the smaller of physical memory and the address-space limit,
    so a run this refuses could not have finished in memory.  The message
    names the flags of the largest array.
    """
    import resource  # only a simulate or e2e run pays for it

    need = sum(size for size, _ in arrays)
    room = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    if limit != resource.RLIM_INFINITY:
        room = min(room, limit)
    if need > room:
        parser.error(f"the arrays of {max(arrays)[1]} take at least {need} bytes, more "
                     f"than the {room} bytes of memory this process can have")


def _echo(params: dict) -> None:
    print("# effective parameters")
    for key in sorted(params):
        print(f"#   {key} = {params[key]}")


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
    _echo({key: value for key, value in vars(args).items() if value is not None})
    for line in lines:
        print(line)
    return 0


def _until_exact_runs(parser, args, pairs) -> tuple:
    """The slot grid and ``(N, k, p, slot cap)`` of each (N, k) pair.

    Exits 2 first if a run cannot hold its results and their sorted copy (8 bytes
    a trial each) beside the grid's tuple and int64 array (8 bytes a point each).
    """
    from . import harness
    from .scheme import optimal_choice_probability

    points = args.grid_max // args.grid_step + 1
    _check_memory(parser, [(16 * args.trials, f"--trials {args.trials}"),
                           (16 * points, f"--grid-max {args.grid_max} and "
                                         f"--grid-step {args.grid_step}")])
    grid = range(0, args.grid_max + 1, args.grid_step)
    # a derived cap is checked here: a huge k puts it past the range
    runs = [(n, k, optimal_choice_probability(k) if args.p is None else args.p,
             check("slot_cap", harness.default_slot_cap(n, k), "--slot-cap")
             if args.slot_cap is None else args.slot_cap) for n, k in pairs]
    return grid, runs


def _run_until_exact_curve(args, grid, run, out) -> None:
    from . import harness

    n, k, p, cap = run
    slots = harness.run_until_exact_batch(n, k, p, cap, args.trials, args.seed,
                                          workers=args.threads)
    curve = harness.build_error_curve(slots, grid, n, k)
    harness.export_csv(curve, out)
    print(f"trials = {curve.trials}  median_slots = {curve.median_slots}  "
          f"max_slots = {curve.max_slots}  censored = {curve.censored}")
    print(f"wrote {out}")


def _cmd_curve(parser, args) -> int:
    grid, [run] = _until_exact_runs(parser, args, [(args.n_inactive, args.k)])
    _writable(args.out)
    _echo({**vars(args), "p": run[2], "slot_cap": run[3]})
    _run_until_exact_curve(args, grid, run, args.out)
    return 0


def _cmd_trace(parser, args) -> int:
    from . import harness
    from .scheme import optimal_choice_probability

    p = optimal_choice_probability(args.k) if args.p is None else args.p
    check("trace_trials", args.trials, "--trials")
    # every seeded block's (2, horizon + 1) sums, and the total they add up to
    blocks = -(-args.trials // harness.TRIAL_BLOCK) + 1
    _check_memory(parser, [(16 * (args.horizon + 1) * blocks,
                            f"--horizon {args.horizon} and --trials {args.trials}")])
    _writable(args.out)
    _echo({**vars(args), "p": p})
    trace = harness.expectation_trace(args.n_inactive, args.k, p, args.trials, args.horizon,
                                      args.seed, workers=args.threads)
    harness.export_csv(trace, args.out)
    print(f"final_mean_surplus = {trace.empirical_mean[-1]!r}")
    print(f"wrote {args.out}")
    return 0


def _cmd_preset(parser, args) -> int:
    grid, runs = _until_exact_runs(parser, args, _PRESET_REFERENCE)
    outs = [_writable(os.path.join(args.out_dir, f"curve_n{n}_k{k}.csv"))
            for n, k in _PRESET_REFERENCE]
    _echo({key: getattr(args, key) for key in
           ("preset", "trials", "seed", "threads", "out_dir", "grid_max", "grid_step")})
    for (n, k, p, cap), out in zip(runs, outs):
        print(f"running n_inactive={n} k={k} p={p} slot_cap={cap} ...")
        _run_until_exact_curve(args, grid, (n, k, p, cap), out)
    return 0


def _cmd_channel(parser, args) -> int:
    from . import channel as chan

    noise, big_k = _resolve_noise(parser, args)
    power, c, delta, slots, seed = args.power, args.c, args.delta, args.slots, args.seed
    # --m is at least 1, so only a run without it plans; a plan gets --m's range
    reps = args.m or check("repetitions", bnd.repetition_length(big_k, power, delta, c),
                           "the repetitions that --big-k, --power, --delta and --c plan")

    _echo({"noise": noise.spec, "power": power, "big_k": big_k,
           "c": c, "delta": delta, "m": reps, "slots": slots, "seed": seed})

    excursions, false_positives = chan.slot_error_rates(noise, power, reps, slots, seed)
    print(f"empirical_excursion_rate = {excursions!r}")
    print(f"empirical_false_positive_rate = {false_positives!r}")
    print(f"target_slot_error = {delta!r}")
    print(f"tail_bound = {bnd.slot_error_bound(big_k, power, reps, c)!r}")
    if noise.largest_scale > 0 and noise == chan.gaussian(noise.largest_scale):
        exact = bnd.gaussian_slot_error_exact(noise.largest_scale, power, reps)
        print(f"gaussian_exact_excursion = {exact!r}")
    return 0


def _cmd_e2e(parser, args) -> int:
    from . import harness

    n, k, eps, power = args.n_inactive, args.k, args.eps, args.power
    noise, big_k = _resolve_noise(parser, args)
    c, trials, out, seed, threads = args.c, args.trials, args.out, args.seed, args.threads
    plan = bnd.plan_channel_uses(n, k, eps, big_k, power, c)
    if plan.repetitions:  # checked as in channel; a plan with no slot has none
        check("repetitions", plan.repetitions, "the repetitions that --n-inactive, --k, "
              "--eps, --big-k, --power and --c plan")
    # each trial's success and failure probability (9 bytes) and the
    # probabilities' concatenated copy; a block of at least one trial, whose
    # noise averages and the float sums its decode compares take 8 bytes a
    # slot each, beside its sender counts
    _check_memory(parser, [(17 * trials, f"--trials {trials}"),
                           (16 * plan.slots, f"--n-inactive {n}, --k {k} and --eps {eps}")])
    if out is not None:
        _writable(out)

    _echo({"n_inactive": n, "k": k, "eps": eps, "noise": noise.spec, "power": power,
           "big_k": big_k, "c": c, "trials": trials, "seed": seed, "threads": threads})

    summary = harness.run_end_to_end_batch(n, k, eps, noise, power, plan.slots,
                                           plan.repetitions, trials, seed, workers=threads)
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
    "--big-k": ("variance_proxy", dict(type=float, help="declared noise variance proxy K "
                                                        "(default: the noise's largest scale)")),
    "--c": ("tail_constant", dict(type=float, default=bnd.TAIL_CONSTANT,
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

# Each form of a command: its handler, its own defaults, the flags it reads
# and the flags it requires.  A one-form command names its form after itself;
# simulate's are named by the flag that selects them.  --config, applied
# before the form is chosen, is every command's first flag.
_FORMS = {
    "bounds": (_cmd_bounds, {}, "--n-inactive --k --eps --power --big-k --c --delta "
               "--surplus-factor", ""),
    "simulate --mode until-exact": (
        _cmd_curve, {"trials": 20_000}, "--n-inactive --k --seed --trials --out --threads "
        "--mode --p --slot-cap --grid-max --grid-step", "--n-inactive --k --out"),
    "simulate --mode trace": (
        _cmd_trace, {"trials": 20_000}, "--n-inactive --k --seed --trials --out --threads "
        "--mode --p --horizon", "--n-inactive --k --out --horizon"),
    "simulate --preset reference": (
        _cmd_preset, {"trials": 20_000}, "--seed --trials --threads --mode --p --slot-cap "
        "--grid-max --grid-step --preset --out-dir", ""),
    "channel": (_cmd_channel, {}, "--seed --sigma --noise --power --big-k --c --delta "
                "--slots --m", "--power --delta"),
    "e2e": (_cmd_e2e, {"trials": 2000}, "--n-inactive --k --eps --seed --trials --out "
            "--threads --sigma --noise --power --big-k --c", "--n-inactive --k --eps --power"),
}


def _command(summary: str, *forms: str) -> tuple[str, tuple[str, ...], dict, str]:
    """A command's summary, its forms, and their defaults and flags, each once."""
    flags = " ".join(["--config", *(_FORMS[form][2] for form in forms)]).split()
    defaults = {key: value for form in forms for key, value in _FORMS[form][1].items()}
    return summary, forms, defaults, " ".join(dict.fromkeys(flags))


_COMMANDS = {
    "bounds": _command("closed-form budgets, no simulation", "bounds"),
    "simulate": _command("Monte Carlo error curve or surplus trace", "simulate --mode until-exact",
                         "simulate --mode trace", "simulate --preset reference"),
    "channel": _command("repetition-code slot error simulation", "channel"),
    "e2e": _command("full pipeline over the noisy channel", "e2e"),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def build_parser(conf: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The ``gtmac`` parser; each ``conf`` value is the default of its flag.

    A subcommand takes the flags its forms read, so any other flag exits 2.
    A config value is a string, which argparse converts with the flag's own
    ``type``.  A key that names no flag of a subcommand is ignored there.
    """
    # argparse measures the terminal for every formatter, one per flag added;
    # measure it once and pass the width argparse would compute
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="gtmac", allow_abbrev=False, formatter_class=formatter,
        description="Group-testing detection of active users over a shared channel.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, defaults, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False, formatter_class=formatter)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag][1])
        dests = {_dest(flag) for flag in flags.split()}
        p.set_defaults(**{**defaults, **{key: value for key, value in (conf or {}).items()
                                         if key in dests}})
    return parser


def _checked_form(parser, args, argv: list[str]) -> str:
    """The form ``args`` select, once every flag with a value is in range, then
    the preset's one mode, the form's required flags, and no flag it does not read."""
    form = args.command
    if form == "simulate":
        form += f" --preset {args.preset}" if args.preset else f" --mode {args.mode}"
    flags = _COMMANDS[args.command][3].split()
    for flag in flags:
        key, value = _FLAGS[flag][0], getattr(args, _dest(flag))
        if key is not None and value is not None:
            check(key, value, flag)
    _, _, reads, requires = _FORMS[form]
    if form == "simulate --preset reference" and args.mode != "until-exact":
        parser.error("--preset reference runs only --mode until-exact")
    for flag in requires.split():
        if getattr(args, _dest(flag)) is None:
            parser.error(f"the following argument is required: {flag}")
    # prefix matching is off, so an option in argv reads --flag or --flag=value
    given = {arg.partition("=")[0] for arg in argv}
    unread = [flag for flag in flags[1:] if flag in given and flag not in reads.split()]
    if unread:
        parser.error(f"{form} does not read {', '.join(unread)}")
    return form


def main(argv: list[str] | None = None) -> int:
    """Run ``gtmac argv`` (by default ``sys.argv[1:]``) and return its exit code.

    Without ``argv`` this is a process entry: once its flags and config are
    read, it ends by freezing the heap, whatever the exit code (see the
    module docstring).  A caller passing ``argv`` keeps its gc state.
    """
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
        form = _checked_form(parser, args, sys.argv[1:] if argv is None else argv)
        handler, _, reads, _ = _FORMS[form]
        reads = reads.split()
        # the handler sees only the flags its form reads, seed and workers decided
        run = argparse.Namespace(**{_dest(flag): getattr(args, _dest(flag)) for flag in reads})
        if "--seed" in reads and run.seed is None:
            import secrets  # only an unseeded run draws one

            run.seed = secrets.randbits(63)
        if "--threads" in reads and run.threads is None:
            run.threads = os.cpu_count() or 1
        return handler(parser, run)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    except OverflowError as exc:  # a finite input too large to compute with
        parser.error(f"parameter out of range: {exc}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
