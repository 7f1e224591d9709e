"""CLI behavior: exit codes, parameter echo, config files, reproducible output."""

from __future__ import annotations

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtmac
from gtmac._ranges import _RANGES
from gtmac.cli import (_COMMANDS, _FLAGS, _FORMS, _parse_noise_spec, _summarize_until_exact,
                       main)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# --- bounds ------------------------------------------------------------------

def test_bounds_reports_reference_budgets(capsys):
    code, out = run_cli(capsys, [
        "bounds", "--n-inactive", "10000", "--k", "20", "--eps", "0.01"])
    assert code == 0
    assert "slots_exact_recovery = 789" in out
    assert "slots_surplus_bound = 487" not in out  # factor defaults to 1.0
    code, out = run_cli(capsys, [
        "bounds", "--n-inactive", "10000", "--k", "20", "--eps", "0.1",
        "--surplus-factor", "1.0"])
    assert "slots_surplus_bound = 487" in out


def test_bounds_channel_only_prints_repetition_length(capsys):
    code, out = run_cli(capsys, [
        "bounds", "--big-k", "1.0", "--power", "1.0", "--delta", "0.01"])
    assert code == 0
    assert "repetition_length = 45" in out


def test_bounds_full_plan(capsys):
    code, out = run_cli(capsys, [
        "bounds", "--n-inactive", "10000", "--k", "20", "--eps", "0.01",
        "--big-k", "1.0", "--power", "1.0"])
    assert code == 0
    assert "repetitions = 99" in out
    assert "total_channel_uses = 78111" in out
    assert "closed_form_reference = 77447.846" in out


@pytest.mark.parametrize("argv, line", [
    (["bounds", "--big-k", "1", "--power", "1", "--delta", "4e-309"],
     "repetition_length = 5689"),
    (["bounds", "--n-inactive", "100", "--k", "2", "--eps", "1e-310", "--big-k", "1",
      "--power", "1"], "total_channel_uses = 33911892"),
    (["channel", "--sigma", "1", "--power", "1", "--delta", "1e-310", "--slots", "10",
      "--seed", "1"], "#   m = 5719"),
    # eps/slots underflows to 0; ln(slots) - ln(eps) sizes the repetitions
    (["bounds", "--n-inactive", "100", "--k", "2", "--eps", "5e-324", "--big-k", "1",
      "--power", "1"], "total_channel_uses = 36861706"),
    # K**2 underflows to 0, so the tail bound exp(1 - c*m*P/K**2) is 0
    (["channel", "--sigma", "1e-200", "--power", "1", "--delta", "0.01", "--slots", "10",
      "--seed", "1"], "tail_bound = 0.0"),
])
def test_tiny_valid_targets_plan_finite_budgets(capsys, argv, line):
    # 1/delta and N/eps overflow a double here; their logs do not
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert line in out.splitlines()


def test_bounds_requires_a_complete_parameter_set(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bounds", "--n-inactive", "100"])
    assert info.value.code == 2


def test_invalid_parameters_exit_2(capsys):
    for argv, named in (
        (["bounds", "--n-inactive", "-5", "--k", "2", "--eps", "0.01"], "--n-inactive"),
        (["bounds", "--n-inactive", "10", "--k", "2", "--eps", "1.5"], "eps"),
        (["bounds", "--big-k", "inf", "--power", "1", "--delta", "0.01"], "--big-k"),
        (["bounds", "--big-k", "1", "--power", "1", "--delta", "0.01", "--c", "inf"],
         "--c"),
        (["bounds", "--big-k", "1e200", "--power", "1", "--delta", "0.01"],
         "out of range"),
        (["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
          "--power", "inf", "--trials", "2", "--seed", "9"], "power"),
        (["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
          "--power", "1", "--trials", "2", "--seed", "-1"], "seed"),
        (["e2e", "--n-inactive", "20", "--k", "0", "--eps", "0.2", "--sigma", "0.5",
          "--power", "1", "--trials", "2", "--seed", "9"], "k must be an int >= 1"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        captured = capsys.readouterr()
        assert named in captured.err, argv
        assert captured.out == "", argv   # nothing is echoed before the check


@pytest.mark.parametrize("argv", [
    ["bounds", "--big-k", "1e200", "--power", "1", "--delta", "0.01"],
    ["bounds", "--n-inactive", "100", "--k", "2", "--eps", "0.1", "--big-k", "1e200",
     "--power", "1"],
    ["channel", "--sigma", "1", "--big-k", "1e200", "--power", "1", "--delta", "0.01",
     "--slots", "10", "--seed", "1"],
])
def test_planner_overflow_names_k_and_p(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "gtmac: error: parameter out of range: "
        "the repetition count for K = 1e+200 and P = 1.0 exceeds a double")
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag, library_name", [
    (["bounds", "--big-k", "1", "--power", "1", "--delta", "1.5"], "--delta", "slot_error"),
    (["bounds", "--big-k", "1", "--power", "1", "--delta", "0.1", "--c", "0"], "--c",
     "tail_constant"),
    (["bounds", "--big-k", "0", "--power", "1", "--delta", "0.1"], "--big-k",
     "norm_bound"),
    (["channel", "--sigma", "1", "--power", "1", "--delta", "0.1", "--m", "0"], "--m",
     "repetitions"),
    (["channel", "--sigma", "-1", "--power", "1", "--delta", "0.1"], "--sigma", "scale"),
    (["simulate", "--n-inactive", "10", "--k", "1", "--out", "x.csv", "--grid-step", "0"],
     "--grid-step", "step"),
    (["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
      "--power", "1", "--threads", "0"], "--threads", "workers"),
])
def test_range_errors_name_the_flag(capsys, argv, flag, library_name):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be" in captured.err
    assert library_name not in captured.err.replace(flag, "")
    assert captured.out == ""


# A small valid run of each command, and of each form of simulate
_VALID_RUNS = {
    "bounds": ["bounds", "--n-inactive", "10", "--k", "1", "--eps", "0.1"],
    "until-exact": ["simulate", "--n-inactive", "10", "--k", "1", "--trials", "2",
                    "--threads", "1", "--grid-max", "10", "--out", "{tmp}/x.csv"],
    "trace": ["simulate", "--mode", "trace", "--n-inactive", "10", "--k", "1",
              "--trials", "2", "--horizon", "5", "--out", "{tmp}/x.csv"],
    "preset": ["simulate", "--preset", "reference", "--trials", "2", "--threads", "1",
               "--grid-max", "10", "--out-dir", "{tmp}"],
    "channel": ["channel", "--sigma", "1", "--power", "1", "--delta", "0.1", "--slots", "10"],
    "e2e": ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
            "--power", "1", "--trials", "2", "--threads", "1", "--out", "{tmp}/x.csv"],
}


def _out_of_range_flags():
    """Each form with each flag of its command that has a range, given a value outside it."""
    for form, argv in _VALID_RUNS.items():
        for flag in _COMMANDS[argv[0]][3].split():
            key = _FLAGS[flag][0]
            if key is not None:
                _, integer, low, *_ = _RANGES[key]
                yield pytest.param(argv, flag, str(low - 1) if integer else "nan",
                                   id=f"{form}{flag}")


@pytest.mark.parametrize("argv, flag, value", _out_of_range_flags())
def test_every_given_flag_is_range_checked_whatever_the_form_reads(
        tmp_path, capsys, argv, flag, value):
    assert {run[0] for run in _VALID_RUNS.values()} == set(_COMMANDS)
    with pytest.raises(SystemExit) as info:
        main([*(arg.format(tmp=tmp_path) for arg in argv), flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# --- simulate -----------------------------------------------------------------

def test_simulate_missing_out_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--n-inactive", "10", "--k", "1", "--trials", "5",
              "--seed", "1"])
    assert info.value.code == 2


def test_simulate_until_exact_is_byte_reproducible(tmp_path, capsys):
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code, text = run_cli(capsys, [
            "simulate", "--n-inactive", "40", "--k", "2", "--trials", "30",
            "--seed", "99", "--threads", "1", "--grid-max", "120",
            "--grid-step", "10", "--out", str(out)])
        assert code == 0
        assert "median_slots" in text
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("form", [
    ["--grid-max", "120", "--grid-step", "10"],
    ["--mode", "trace", "--horizon", "12"],
], ids=["until-exact", "trace"])
def test_simulate_threads_do_not_change_results(tmp_path, capsys, form):
    # 30 trials fill one seeded block; 9000 span three
    for trials in ("30", "9000"):
        blobs, texts = [], []
        for threads, name in (("1", "t1.csv"), ("3", "t3.csv")):
            out = tmp_path / name
            code, text = run_cli(capsys, [
                "simulate", "--n-inactive", "40", "--k", "2", "--trials", trials,
                "--seed", "99", "--threads", threads, *form, "--out", str(out)])
            assert code == 0
            assert f"#   threads = {threads}" in text.splitlines()
            blobs.append(out.read_bytes())
            texts.append([line for line in text.splitlines() if "threads" not in line])
        assert blobs[0] == blobs[1]
        assert texts[0] == texts[1]


def test_e2e_threads_do_not_change_results(tmp_path, capsys):
    blobs, texts = [], []
    for threads, name in (("1", "t1.csv"), ("3", "t3.csv")):
        out = tmp_path / name
        code, text = run_cli(capsys, [
            "e2e", "--n-inactive", "60", "--k", "2", "--eps", "0.2", "--sigma", "0.5",
            "--power", "1", "--trials", "40", "--seed", "98", "--threads", threads,
            "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
        texts.append([line for line in text.splitlines() if "threads" not in line])
    assert blobs[0] == blobs[1]
    assert texts[0] == texts[1]


@pytest.mark.parametrize("slots", [[5, 3, -1, 9], [5, 3, 4, 9], [7, -1, 2], [-1, -1]])
def test_until_exact_summary_keeps_the_median_format(slots):
    import statistics

    finished = [s for s in slots if s >= 0]
    med = statistics.median(finished) if finished else float("nan")
    mx = max(finished) if finished else float("nan")
    assert _summarize_until_exact(np.array(slots)) == (
        f"trials = {len(slots)}  median_slots = {med}  max_slots = {mx}"
        f"  censored = {len(slots) - len(finished)}")


def test_simulate_trace_mode(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, text = run_cli(capsys, [
        "simulate", "--mode", "trace", "--n-inactive", "100", "--k", "2",
        "--p", "0.3333333333333333", "--trials", "200", "--horizon", "4",
        "--seed", "5", "--out", str(out)])
    assert code == 0
    assert "final_mean_surplus" in text
    with open(out, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["slot", "empirical_mean", "std_error", "predicted_mean"]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert float(rows[0][1]) == 100.0


def test_simulate_generates_and_echoes_a_seed(tmp_path, capsys):
    out = tmp_path / "auto.csv"
    code, text = run_cli(capsys, [
        "simulate", "--n-inactive", "10", "--k", "1", "--trials", "5",
        "--threads", "1", "--grid-max", "50", "--grid-step", "10",
        "--out", str(out)])
    assert code == 0
    match = re.search(r"^#   seed = (\d+)$", text, re.MULTILINE)
    assert match is not None
    # replaying the echoed seed reproduces the file exactly
    first = out.read_bytes()
    code, _ = run_cli(capsys, [
        "simulate", "--n-inactive", "10", "--k", "1", "--trials", "5",
        "--threads", "1", "--grid-max", "50", "--grid-step", "10",
        "--seed", match.group(1), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == first


def test_simulate_preset_writes_three_curves(tmp_path, capsys):
    code, text = run_cli(capsys, [
        "simulate", "--preset", "reference", "--trials", "4", "--seed", "3",
        "--threads", "2", "--grid-max", "100", "--grid-step", "50",
        "--out-dir", str(tmp_path)])
    assert code == 0
    for name in ("curve_n10000_k20.csv", "curve_n100000_k20.csv",
                 "curve_n10000_k30.csv"):
        assert (tmp_path / name).is_file(), name
    with open(tmp_path / "curve_n10000_k20.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["l", "observed_frequency", "theoretical_bound", "trials"]
    assert [row[0] for row in rows] == ["0", "50", "100"]
    assert {row[3] for row in rows} == {"4"}


# Each form of simulate, with a valid argv that gives only flags the form reads
_SIMULATE_BASE = {
    "simulate --mode until-exact": [
        "simulate", "--n-inactive", "10", "--k", "1", "--seed", "7", "--threads", "1",
        "--out", "{tmp}/x.csv"],
    "simulate --mode trace": [
        "simulate", "--mode", "trace", "--n-inactive", "10", "--k", "1", "--seed", "7",
        "--threads", "1", "--trials", "10", "--horizon", "5", "--out", "{tmp}/x.csv"],
    "simulate --preset reference": [
        "simulate", "--preset", "reference", "--seed", "7", "--threads", "1",
        "--out-dir", "{tmp}"],
}
_UNTIL_EXACT, _TRACE, _PRESET = _SIMULATE_BASE


@pytest.mark.parametrize("flags", [  # (form, the flag and its bad value)
    (_UNTIL_EXACT, ["--trials", "0"]),
    (_UNTIL_EXACT, ["--p", "1.5"]),
    (_UNTIL_EXACT, ["--slot-cap", "-1"]),
    (_TRACE, ["--trials", "1"]),
    (_TRACE, ["--horizon", "0"]),
    (_PRESET, ["--trials", "0"]),
    (_UNTIL_EXACT, ["--seed", "-1"]),
    (_UNTIL_EXACT, ["--k", "0"]),  # k >= 1, as for bounds and e2e
    (_TRACE, ["--k", "0"]),
])
def test_simulate_checks_inputs_before_printing(tmp_path, capsys, flags):
    form, given = flags
    with pytest.raises(SystemExit) as info:  # of a flag given twice, the last wins
        main([*(arg.format(tmp=tmp_path) for arg in _SIMULATE_BASE[form]), *given])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"error: {given[0]} must be" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# a value each flag can take, for the flags some form of simulate does not read
_VALID_VALUE = {"--n-inactive": "10", "--k": "1", "--out": "{tmp}/y.csv", "--horizon": "5",
                "--slot-cap": "100", "--grid-max": "10", "--grid-step": "2",
                "--preset": "reference", "--out-dir": "{tmp}"}


def _unread_flags():
    """Each form with each flag of its command that the form does not read."""
    for _, forms, _, flags in _COMMANDS.values():
        for form in forms:
            reads = _FORMS[form][2].split()
            for flag in flags.split()[1:]:  # the first, --config, every form reads
                if flag not in reads:
                    yield pytest.param(form, flag, id=f"{form}:{flag}")


@pytest.mark.parametrize("form, flag", _unread_flags())
def test_flag_the_form_does_not_read_exits_2(tmp_path, capsys, form, flag):
    # only simulate has more than one form, so only its forms have cases
    argv = [*_SIMULATE_BASE[form], flag, _VALID_VALUE[flag]]
    with pytest.raises(SystemExit) as info:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--preset", "reference", "--out", "ignored.csv", "--trials", "2",
      "--threads", "1", "--grid-max", "10", "--seed", "1", "--out-dir", "{tmp}"],
     "simulate --preset reference does not read --out"),
    (["simulate", "--mode", "trace", "--n-inactive", "10", "--k", "1", "--horizon", "5",
      "--trials", "4", "--out", "{tmp}/t.csv", "--slot-cap", "10", "--grid-max", "7"],
     "simulate --mode trace does not read --slot-cap, --grid-max"),
    (["simulate", "--n-inactive", "10", "--k", "1", "--out", "{tmp}/x.csv",
      "--out-dir={tmp}"], "simulate --mode until-exact does not read --out-dir"),
    # prefix matching is off: --hor is no --horizon
    (["simulate", "--mode", "trace", "--n-inactive", "10", "--k", "1", "--out", "{tmp}/x.csv",
      "--hor", "5"], "unrecognized arguments: --hor 5"),
])
def test_unread_flag_is_named_with_its_form(tmp_path, capsys, argv, named):
    with pytest.raises(SystemExit) as info:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == f"gtmac: error: {named}"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
    assert not Path("ignored.csv").exists()


def test_config_key_a_form_does_not_read_is_ignored(tmp_path, capsys):
    argv = ["simulate", "--mode", "trace", "--n-inactive", "10", "--k", "1", "--trials", "5",
            "--horizon", "3", "--seed", "4", "--out", str(tmp_path / "t.csv")]
    code, plain = run_cli(capsys, argv)
    assert code == 0
    conf = tmp_path / "run.conf"
    conf.write_text(f"slot-cap = 10\ngrid-max = 7\nout-dir = {tmp_path}/none\n")
    code, configured = run_cli(capsys, [*argv, "--config", str(conf)])
    assert code == 0
    assert configured == plain


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--n-inactive", "10", "--out", "x.csv"], "--k"),
    (["simulate", "--n-inactive", "10", "--k", "1"], "--out"),
    (["simulate", "--mode", "trace", "--n-inactive", "10", "--k", "1", "--out", "x.csv"],
     "--horizon"),
    (["channel", "--sigma", "1", "--delta", "0.1"], "--power"),
    (["e2e", "--n-inactive", "20", "--k", "1", "--sigma", "1", "--power", "1"], "--eps"),
])
def test_required_flag_of_the_form_is_named(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        f"gtmac: error: the following argument is required: {flag}")
    assert captured.out == ""


def test_preset_names_the_p_and_slot_cap_of_each_pair(tmp_path, capsys):
    # every curve the preset writes is censored at its slot cap, so each pair's
    # line names the p and cap it ran with, the defaults resolved
    from gtmac import harness

    base = ["simulate", "--preset", "reference", "--trials", "2", "--threads", "1",
            "--grid-max", "10", "--seed", "1", "--out-dir", str(tmp_path)]
    code, text = run_cli(capsys, [*base, "--p", "0.2", "--slot-cap", "40"])
    assert code == 0
    assert [line for line in text.splitlines() if line.startswith("running")] == [
        "running n_inactive=10000 k=20 p=0.2 slot_cap=40 ...",
        "running n_inactive=100000 k=20 p=0.2 slot_cap=40 ...",
        "running n_inactive=10000 k=30 p=0.2 slot_cap=40 ..."]
    code, text = run_cli(capsys, base)
    assert code == 0
    assert [line for line in text.splitlines() if line.startswith("running")] == [
        f"running n_inactive={n} k={k} p={1 / (k + 1)} "
        f"slot_cap={harness.default_slot_cap(n, k)} ..."
        for n, k in ((10_000, 20), (100_000, 20), (10_000, 30))]


def test_preset_has_no_trace_form(tmp_path, capsys):
    # the reference preset is three until-exact curves; it cannot run a trace
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--preset", "reference", "--mode", "trace", "--horizon", "5",
              "--trials", "4", "--seed", "1", "--threads", "1", "--grid-max", "100",
              "--grid-step", "50", "--out-dir", str(tmp_path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "--preset" in captured.err and "--mode" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_unknown_preset_and_mode(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--preset", "huge"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--mode", "warp", "--n-inactive", "5", "--k", "1",
              "--out", "x.csv"])
    assert info.value.code == 2


# --- config files ----------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("n-inactive = 10000\nk = 20\neps = 0.01\n")
    code, out = run_cli(capsys, ["bounds", "--config", str(conf)])
    assert code == 0
    assert "slots_exact_recovery = 789" in out
    code, out = run_cli(capsys, ["bounds", "--config", str(conf), "--eps", "0.5"])
    assert "slots_exact_recovery = 566" in out
    # a config value beats a built-in default; keys naming no bounds flag
    # (the handler, a simulate-only flag) are ignored
    conf.write_text("n-inactive = 10000\nk = 20\neps = 0.01\nc = 0.25\n"
                    "handler = nothing\nhorizon = abc\n")
    code, out = run_cli(capsys, ["bounds", "--config", str(conf)])
    assert code == 0
    assert "#   c = 0.25" in out
    assert "slots_exact_recovery = 789" in out
    # e2e: trials from the config; a % in a value is literal
    conf.write_text(f"n-inactive = 20\nk = 1\neps = 0.2\nsigma = 0.5\npower = 1\n"
                    f"trials = 3\nseed = 9\nthreads = 1\nout = {tmp_path}/r%1.csv\n")
    code, out = run_cli(capsys, ["e2e", "--config", str(conf)])
    assert code == 0
    assert "#   trials = 3" in out and "failures = " in out and " / 3" in out
    assert (tmp_path / "r%1.csv").is_file()


def test_config_value_that_does_not_parse_exits_2(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    for text, message in (
        ("n-inactive = 100\nk = abc\neps = 0.1\n", "argument --k: invalid int value: 'abc'"),
        ("n-inactive = 100\nk = 2\neps = 10%\n", "argument --eps: invalid float value: '10%'"),
        ("n-inactive = 100\nk\neps = 0.1\n", f"config file {conf}, line 2: "),
        ("n-inactive = 100\nk = 2\nk = 3\neps = 0.1\n", f"config file {conf}, line 3: "),
        # the file has no sections: a [name] line would hide the keys after it
        ("n-inactive = 10000\nk = 20\n[extra]\neps = 0.01\n",
         f"config file {conf}, line 3: "),
        ("n-inactive = 10000\n[config]\nk = 20\neps = 0.01\n",
         f"config file {conf}, line 2: "),
    ):
        conf.write_text(text)
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--config", str(conf)])
        assert info.value.code == 2, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert message in captured.err, text
        if message.startswith("config file"):  # a malformed file: one line, no usage
            assert captured.err.count("\n") == 1, text


def test_missing_config_file_exits_1(capsys):
    assert main(["bounds", "--config", "/nonexistent/run.conf",
                 "--n-inactive", "10", "--k", "1", "--eps", "0.1"]) == 1


# --- help ---------------------------------------------------------------------------

_RUN_FLAGS = ["--seed", "--trials", "--out", "--threads"]
_LINK_FLAGS = ["--power", "--big-k", "--c"]


@pytest.mark.parametrize("command, flags, default", [
    ("bounds", ["--config", "--n-inactive", "--k", "--eps", *_LINK_FLAGS, "--delta",
                "--surplus-factor"], "default 1.0"),
    ("simulate", ["--config", "--n-inactive", "--k", *_RUN_FLAGS, "--mode", "--p",
                  "--slot-cap", "--grid-max", "--grid-step", "--horizon", "--preset",
                  "--out-dir"], "default 2500"),
    ("channel", ["--config", "--seed", "--sigma", "--noise", *_LINK_FLAGS, "--delta",
                 "--slots", "--m"], "default 100000"),
    ("e2e", ["--config", "--n-inactive", "--k", "--eps", *_RUN_FLAGS, "--sigma",
             "--noise", *_LINK_FLAGS], "default 0.125"),
])
def test_help_lists_every_flag(capsys, command, flags, default):
    # the parser holds every default, so a default that cannot be shown fails here
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert command in capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    for flag in flags:
        assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text), flag
    # and no other: a subcommand takes only the flags its handler reads
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text)) == {*flags, "--help"}
    assert default in " ".join(text.split())


@pytest.mark.parametrize("argv", [
    ["channel", "--sigma", "1", "--power", "1", "--delta", "0.01", "--slots", "100",
     "--seed", "1", "--out", "{tmp}/chan.csv", "--trials", "5"],
    ["bounds", "--n-inactive", "10000", "--k", "20", "--eps", "0.01", "--seed", "1",
     "--trials", "5", "--threads", "1", "--out", "{tmp}/bounds.csv"],
    ["simulate", "--n-inactive", "40", "--k", "2", "--eps", "0.1", "--trials", "5",
     "--seed", "1", "--out", "{tmp}/sim.csv"],
    ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
     "--power", "1", "--delta", "0.01", "--trials", "2", "--seed", "9",
     "--out", "{tmp}/e2e.csv"],
])
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert list(tmp_path.iterdir()) == []


# --- channel ----------------------------------------------------------------------

def test_channel_smoke_reports_rates(capsys):
    code, out = run_cli(capsys, [
        "channel", "--sigma", "1.0", "--power", "1.0", "--delta", "0.01",
        "--slots", "2000", "--seed", "7"])
    assert code == 0
    assert "#   m = 45" in out
    assert "empirical_excursion_rate" in out
    assert "gaussian_exact_excursion = 0.0007962301575908114" in out
    rate = float(re.search(r"empirical_excursion_rate = (\S+)", out).group(1))
    assert 0.0 <= rate <= 0.01


@pytest.mark.parametrize("flag", [["--slots", "0"], ["--m", "0"]])
def test_channel_checks_inputs_before_printing(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["channel", "--sigma", "1", "--power", "1", "--delta", "0.01",
              "--seed", "7", *flag])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_channel_m_skips_the_planner_and_a_huge_k_bounds_at_e(capsys):
    # with --m the repetitions are not sized from K, so a K whose plan would
    # overflow still runs; K**2 overflows to inf and the tail bound is e
    code, out = run_cli(capsys, [
        "channel", "--sigma", "1", "--big-k", "1e200", "--power", "1", "--delta", "0.01",
        "--m", "5", "--slots", "10", "--seed", "1"])
    assert code == 0
    assert "#   m = 5" in out
    assert f"tail_bound = {math.e!r}" in out


def test_channel_schedule_spec_and_conflicting_noise_flags(capsys):
    code, out = run_cli(capsys, [
        "channel", "--noise", "uniform=0.5,rademacher=1.0", "--power", "1.0",
        "--delta", "0.05", "--slots", "500", "--seed", "8"])
    assert code == 0
    assert "#   noise = uniform=0.5,rademacher=1.0" in out
    with pytest.raises(SystemExit) as info:
        main(["channel", "--sigma", "1.0", "--noise", "uniform=0.5",
              "--power", "1.0", "--delta", "0.05"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["channel", "--noise", "cauchy=1.0", "--power", "1.0",
              "--delta", "0.05"])
    assert info.value.code == 2


@pytest.mark.parametrize("spec", ["gaussian=1.5", "uniform=0.5,rademacher=1.0,gaussian=2.0",
                                  "rademacher=0.0", "gaussian=1e-300,uniform=0.25"])
def test_noise_echo_parses_back_to_an_equal_model(capsys, spec):
    code, out = run_cli(capsys, ["channel", "--noise", spec, "--big-k", "2", "--power", "1",
                                 "--delta", "0.1", "--slots", "3", "--seed", "1"])
    assert code == 0
    echoed = re.search(r"^#   noise = (\S+)$", out, re.M).group(1)
    assert _parse_noise_spec(echoed) == _parse_noise_spec(spec)


def test_channel_chunks_hold_whole_schedule_periods(capsys, monkeypatch):
    # every chunk but the last is a whole number of 3-member periods, so each
    # one starts at step 0 of the schedule, where slot_noise_averages starts
    from gtmac import channel

    counts = []
    averages = channel.slot_noise_averages

    def spy(model, repetitions, slot_count, rng, *rest, **kwargs):
        counts.append(slot_count)
        return averages(model, repetitions, slot_count, rng, *rest, **kwargs)

    monkeypatch.setattr(channel, "slot_noise_averages", spy)
    code, _ = run_cli(capsys, ["channel", "--noise", "gaussian=1,uniform=1,rademacher=1",
                               "--power", "1", "--delta", "0.1", "--m", "4",
                               "--slots", "450000", "--seed", "1"])
    assert code == 0
    assert counts == [200_001, 200_001, 49_998]


@pytest.mark.parametrize("argv, flags", [
    (["channel", "--sigma", "1", "--power", "1", "--delta", "0.1", "--slots", "3",
      "--seed", "1", "--m", "100000000000000000000"], "--m"),
    (["channel", "--sigma", "1", "--power", "1e-20", "--delta", "0.1", "--slots", "3",
      "--seed", "1"], "--big-k, --power, --delta and --c"),
    (["e2e", "--n-inactive", "10", "--k", "1", "--eps", "0.1", "--sigma", "1",
      "--power", "1e-20", "--trials", "2", "--seed", "1", "--threads", "1"],
     "--n-inactive, --k, --eps, --big-k, --power and --c"),
])
def test_repetitions_past_int64_exit_2_before_any_output(capsys, argv, flags):
    # a slot's noise step counts are int64
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flags in captured.err
    assert f"an int in [1, {2**63 - 1}]" in captured.err


def test_channel_and_e2e_reject_an_understated_norm_bound_alike(capsys):
    # a K below the noise's norm bound would make the printed tail bound wrong
    errors = []
    for argv in (["channel", "--slots", "20000", "--delta", "0.01", "--seed", "1"],
                 ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--trials", "4",
                  "--seed", "9"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--sigma", "2", "--big-k", "1", "--power", "1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err.splitlines()[-1])
    assert errors == ["gtmac: error: --big-k 1.0 is below the noise norm bound 2.0"] * 2


# --- e2e ----------------------------------------------------------------------------

def test_e2e_smoke_and_csv(tmp_path, capsys):
    out = tmp_path / "e2e.csv"
    code, text = run_cli(capsys, [
        "e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2",
        "--sigma", "0.5", "--power", "1.0", "--trials", "8", "--seed", "9",
        "--threads", "1", "--out", str(out)])
    assert code == 0
    assert "failure_rate = " in text
    rate = float(re.search(r"^conditional_failure_rate = (\S+)$", text, re.M).group(1))
    assert 0.0 <= rate <= 1.0
    with open(out, encoding="utf-8", newline="") as fh:
        header, row = csv.reader(fh)
    assert header == ["trials", "failures", "failure_rate", "two_epsilon", "l", "m",
                      "total_channel_uses"]
    fields = dict(zip(header, map(float, row)))
    assert fields["trials"] == 8
    assert fields["total_channel_uses"] == fields["l"] * fields["m"]


def test_e2e_without_inactive_nodes_succeeds_trivially(tmp_path, capsys):
    out = tmp_path / "e2e.csv"
    code, text = run_cli(capsys, [
        "e2e", "--n-inactive", "0", "--k", "3", "--eps", "0.1", "--sigma", "1.0",
        "--power", "1.0", "--trials", "5", "--seed", "4", "--threads", "1",
        "--out", str(out)])
    assert code == 0
    assert "slots = 0\nrepetitions = 0\n" in text
    assert "failures = 0 / 5" in text
    with open(out, encoding="utf-8", newline="") as fh:
        header, row = csv.reader(fh)
    assert header == ["trials", "failures", "failure_rate", "two_epsilon", "l", "m",
                      "total_channel_uses"]
    assert row == ["5", "0", "0.0", "0.2", "0", "0", "0"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-inactive", "40", "--k", "2", "--out", "{missing}/x.csv"],
    ["simulate", "--mode", "trace", "--n-inactive", "40", "--k", "2",
     "--horizon", "5", "--out", "{missing}/x.csv"],
    ["simulate", "--preset", "reference", "--out-dir", "{missing}"],
    ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
     "--power", "1.0", "--out", "{missing}/x.csv"],
])
def test_unwritable_output_fails_before_any_trial(tmp_path, capsys, argv):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    assert main([*argv, "--trials", "40", "--seed", "3", "--threads", "1"]) == 1
    out = capsys.readouterr().out
    assert "trials = " not in out and "failures = " not in out
    assert "final_mean_surplus" not in out


def test_e2e_rejects_understated_norm_bound(capsys):
    with pytest.raises(SystemExit) as info:
        main(["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2",
              "--sigma", "2.0", "--big-k", "1.0", "--power", "1.0",
              "--trials", "4", "--seed", "9"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["channel", "--sigma", "0", "--power", "1", "--delta", "0.1"],
    ["channel", "--noise", "uniform=0,rademacher=0", "--power", "1", "--delta", "0.1"],
    ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0",
     "--power", "1", "--trials", "4", "--seed", "9"],
])
def test_noiseless_channel_without_big_k_names_the_flag(capsys, argv):
    # K defaults to the noise's norm bound, here 0, which no plan can use
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "the noise's norm bound is 0, so --big-k > 0 is needed" in err
    assert "norm_bound" not in err
    assert main([*argv, "--big-k", "1"]) == 0


# --- benchmark tracer ------------------------------------------------------------------

def test_benchmark_tracer_finds_every_layer_it_patches(tmp_path, monkeypatch):
    # perfbench/tracing.py patches names by module attribute; a renamed or
    # deleted name fails here and not only in the benchmark's traced pass
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    from gtmac import harness, scheme
    from gtmac.channel import RepetitionDisjunctionOracle, gaussian

    rec = tracing.Recorder()
    tiny = ["--trials", "20", "--seed", "1", "--threads", "1"]
    budget = 12
    with rec.installed():
        for argv in (
                ["simulate", "--n-inactive", "50", "--k", "2", "--grid-max", "40"],
                ["simulate", "--mode", "trace", "--n-inactive", "50", "--k", "2",
                 "--horizon", "5"],
                ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2",
                 "--sigma", "0.5", "--power", "1"]):
            out = tmp_path / f"{argv[0]}{len(argv)}.csv"
            assert main([*argv, *tiny, "--out", str(out)]) == 0
        # an e2e trial decodes only the active rows; the node-level reference
        # scheme, which the tracer also patches, runs only when called
        oracle = RepetitionDisjunctionOracle(gaussian(0.5), 1.0, 2,
                                             np.random.default_rng(3))
        harness.run_scheme(scheme.Population(8, frozenset({1, 6})),
                           scheme.SchemeConfig(1 / 3, budget, 4), oracle)
    # the run_scheme observer reads every slot outcome of that call
    assert rec.counts["scheme.slots"] == budget
    assert rec.counts["scheme.useful_slots"] > 0
    _, calls = rec.self_times()
    assert {"bounds", "channel.decode_block", "channel.slot_noise_averages",
            "harness.build_error_curve", "harness.end_to_end_trial",
            "harness.expectation_trace", "harness.export_csv",
            "harness.run_end_to_end_batch", "harness.run_until_exact_batch",
            "scheme.receiver_update", "scheme.run_scheme",
            "scheme.slot_rng"} <= set(calls)


# --- packaging ------------------------------------------------------------------------

def run_python(*args: str) -> subprocess.CompletedProcess:
    """A child ``python`` that imports the gtmac under test, installed or not."""
    package_root = str(Path(gtmac.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


def test_module_entry_point_runs_as_script():
    proc = run_python("-m", "gtmac.cli", "bounds", "--n-inactive", "100000",
                      "--k", "20", "--eps", "0.01")
    assert proc.returncode == 0
    assert "slots_exact_recovery = 921" in proc.stdout


_START_UP = """
import sys
import numpy.random
loaded_by_numpy = set(sys.modules)  # numpy.random itself imports secrets
from gtmac.cli import main
assert main(["bounds", "--n-inactive", "100000", "--k", "20", "--eps", "0.01"]) == 0
assert main(["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
             "--power", "1", "--trials", "3", "--seed", "9", "--threads", "1",
             "--out", sys.argv[1]]) == 0
lazy = {"concurrent.futures", "multiprocessing", "statistics", "secrets",
        "configparser"}
print("loaded:", *sorted((set(sys.modules) - loaded_by_numpy) & lazy))
"""


def test_start_up_imports_only_what_the_command_runs(tmp_path):
    # the process pool, config parser and seed generator load on the branch
    # that uses them; a seeded one-worker run without --config takes none
    proc = run_python("-c", _START_UP, str(tmp_path / "e2e.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"


_BOUNDS_START_UP = """
import sys
from gtmac.cli import main
assert main(["bounds", "--n-inactive", "100000", "--k", "20", "--eps", "0.01",
             "--big-k", "1.0", "--power", "1.0"]) == 0
heavy = {"numpy", "gtmac.harness", "gtmac.channel", "gtmac.scheme"}
print("loaded:", *sorted(set(sys.modules) & heavy))
"""


def test_bounds_plans_without_numpy_or_the_simulation_layers():
    # bounds plans in pure math: a fresh process running it loads neither
    # numpy nor the layers that simulate
    proc = run_python("-c", _BOUNDS_START_UP)
    assert proc.returncode == 0, proc.stderr
    assert "total_channel_uses = 92100" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "loaded:"


# argv: the modules to import before counting, the modules to watch, then the command
_LOADS_NONE_OF = """
import sys
_, before, watched, *argv = sys.argv
for name in filter(None, before.split(",")):
    __import__(name)
baseline = set(sys.modules)  # a bare interpreter's modules and those imported above
from gtmac.cli import main
assert main(argv) == 0
print("loaded:", *sorted((set(sys.modules) - baseline) & set(watched.split(","))))
"""


@pytest.mark.parametrize("before, watched, argv", [
    ("", "dataclasses,inspect",
     ["bounds", "--n-inactive", "100000", "--k", "20", "--eps", "0.01", "--big-k", "1.0",
      "--power", "1.0"]),
    # numpy.random imports inspect itself
    ("numpy.random", "dataclasses",
     ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
      "--power", "1", "--trials", "3", "--seed", "9", "--threads", "1"]),
], ids=["bounds", "e2e"])
def test_start_up_builds_its_records_without_dataclasses(before, watched, argv):
    # the records are namedtuples: making a frozen dataclass loads dataclasses,
    # which loads inspect, and builds six methods per class from source
    proc = run_python("-c", _LOADS_NONE_OF, before, watched, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-inactive", "40", "--k", "2", "--trials", "30", "--seed", "9",
     "--threads", "1", "--grid-max", "50", "--out", "{tmp}/curve.csv"],
    ["simulate", "--mode", "trace", "--n-inactive", "40", "--k", "2", "--trials", "30",
     "--seed", "9", "--threads", "1", "--horizon", "5", "--out", "{tmp}/trace.csv"],
], ids=["until-exact", "trace"])
def test_surplus_runs_do_not_load_the_channel(tmp_path, argv):
    # the harness imports gtmac.channel inside end_to_end_trial, the one
    # batch that decodes over the noisy channel
    proc = run_python("-c", _LOADS_NONE_OF, "numpy.random", "gtmac.channel",
                      *[arg.format(tmp=tmp_path) for arg in argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"
