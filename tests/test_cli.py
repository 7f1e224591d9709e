"""CLI behavior: exit codes, parameter echo, config files, reproducible output."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtmac
from gtmac import harness
from gtmac._ranges import _RANGES
from gtmac.channel import NoiseModel
from gtmac.cli import _COMMANDS, _FLAGS, _FORMS, main


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
    # c*m*P and K**2 both overflow (inf/inf is nan), then both underflow (0/0);
    # from logs the exponents are 5e-90 and 5e-200, and the bounds e
    (["channel", "--sigma", "1", "--big-k", "1e200", "--power", "1e10", "--c", "1e300",
      "--delta", "0.01", "--m", "5", "--slots", "10", "--seed", "1"],
     f"tail_bound = {math.e!r}"),
    (["channel", "--sigma", "1e-200", "--big-k", "1e-200", "--power", "1e-300", "--c",
      "1e-300", "--delta", "0.01", "--m", "5", "--slots", "10", "--seed", "1"],
     f"tail_bound = {math.e!r}"),
    # a subnormal excursion, printed as erfc itself: twice the one-sided
    # 0.5*erfc would read 4.348514146179947e-308
    (["channel", "--sigma", "1", "--power", "1", "--delta", "0.01", "--m", "5631",
      "--slots", "10", "--seed", "1"], "gaussian_exact_excursion = 4.3485141461799476e-308"),
    # eps/slots = 2.5e-323 is subnormal; ln(slots/eps) sizes the exact ceiling
    (["bounds", "--n-inactive", "10000", "--k", "20", "--eps", "1e-318", "--big-k", "1",
      "--power", "1"], "repetitions = 5952"),
])
def test_tiny_valid_targets_plan_finite_budgets(capsys, argv, line):
    # 1/delta and N/eps overflow a double here, and the tail bound's terms
    # leave its range; their logs do not
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert line in out.splitlines()


# The whole stdout of `gtmac bounds`: the benchmark workloads' argv (curve,
# trace, e2e_wide, e2e_lowsnr), N = 1e6, no inactive node, eps/slots subnormal
# and underflowing to 0, and a channel-only plan at a subnormal delta.
_BOUNDS_GOLDEN = [
    (['--n-inactive', '10000', '--k', '20', '--eps', '0.01'],
     (
       '# effective parameters\n'
       '#   c = 0.125\n'
       '#   eps = 0.01\n'
       '#   k = 20\n'
       '#   n_inactive = 10000\n'
       '#   surplus_factor = 1.0\n'
       'slots_exact_recovery = 789\n'
       'slots_surplus_bound = 618\n'
     )),
    (['--n-inactive', '1000', '--k', '3', '--eps', '0.01'],
     (
       '# effective parameters\n'
       '#   c = 0.125\n'
       '#   eps = 0.01\n'
       '#   k = 3\n'
       '#   n_inactive = 1000\n'
       '#   surplus_factor = 1.0\n'
       'slots_exact_recovery = 126\n'
       'slots_surplus_bound = 114\n'
     )),
    ([
      '--n-inactive', '100000', '--k', '20', '--eps', '0.01', '--big-k', '1.0',
      '--power', '1.0'],
     (
       '# effective parameters\n'
       '#   big_k = 1.0\n'
       '#   c = 0.125\n'
       '#   eps = 0.01\n'
       '#   k = 20\n'
       '#   n_inactive = 100000\n'
       '#   power = 1.0\n'
       '#   surplus_factor = 1.0\n'
       'slots_exact_recovery = 921\n'
       'slots_surplus_bound = 750\n'
       'slot_error_target = 1.0857763300760044e-05\n'
       'repetitions = 100\n'
       'total_channel_uses = 92100\n'
       'closed_form_reference = 91490.47357391116\n'
     )),
    ([
      '--n-inactive', '500', '--k', '5', '--eps', '0.05', '--big-k', '8.0', '--power',
      '1.0'],
     (
       '# effective parameters\n'
       '#   big_k = 8.0\n'
       '#   c = 0.125\n'
       '#   eps = 0.05\n'
       '#   k = 5\n'
       '#   n_inactive = 500\n'
       '#   power = 1.0\n'
       '#   surplus_factor = 1.0\n'
       'slots_exact_recovery = 151\n'
       'slots_surplus_bound = 124\n'
       'slot_error_target = 0.00033112582781456954\n'
       'repetitions = 4615\n'
       'total_channel_uses = 696865\n'
       'closed_form_reference = 692804.9828427291\n'
     )),
    ([
      '--n-inactive', '1000000', '--k', '20', '--eps', '0.01', '--big-k', '1',
      '--power', '1'],
     (
       '# effective parameters\n'
       '#   big_k = 1.0\n'
       '#   c = 0.125\n'
       '#   eps = 0.01\n'
       '#   k = 20\n'
       '#   n_inactive = 1000000\n'
       '#   power = 1.0\n'
       '#   surplus_factor = 1.0\n'
       'slots_exact_recovery = 1052\n'
       'slots_surplus_bound = 881\n'
       'slot_error_target = 9.505703422053232e-06\n'
       'repetitions = 101\n'
       'total_channel_uses = 106252\n'
       'closed_form_reference = 105683.83361996485\n'
     )),
    ([
      '--n-inactive', '0', '--k', '20', '--eps', '0.01', '--big-k', '1', '--power',
      '1'],
     (
       '# effective parameters\n'
       '#   big_k = 1.0\n'
       '#   c = 0.125\n'
       '#   eps = 0.01\n'
       '#   k = 20\n'
       '#   n_inactive = 0\n'
       '#   power = 1.0\n'
       '#   surplus_factor = 1.0\n'
       'slots_exact_recovery = 0\n'
       'slots_surplus_bound = 0\n'
       'slot_error_target = 0.0\n'
       'repetitions = 0\n'
       'total_channel_uses = 0\n'
       'closed_form_reference = 0.0\n'
     )),
    ([
      '--n-inactive', '100', '--k', '2', '--eps', '1e-310', '--big-k', '1', '--power',
      '1'],
     (
       '# effective parameters\n'
       '#   big_k = 1.0\n'
       '#   c = 0.125\n'
       '#   eps = 1e-310\n'
       '#   k = 2\n'
       '#   n_inactive = 100\n'
       '#   power = 1.0\n'
       '#   surplus_factor = 1.0\n'
       'slots_exact_recovery = 5859\n'
       'slots_surplus_bound = 5853\n'
       'slot_error_target = 1.7067759e-314\n'
       'repetitions = 5788\n'
       'total_channel_uses = 33911892\n'
       'closed_form_reference = 33907888.89468872\n'
     )),
    ([
      '--n-inactive', '100', '--k', '2', '--eps', '5e-324', '--big-k', '1', '--power',
      '1'],
     (
       '# effective parameters\n'
       '#   big_k = 1.0\n'
       '#   c = 0.125\n'
       '#   eps = 5e-324\n'
       '#   k = 2\n'
       '#   n_inactive = 100\n'
       '#   power = 1.0\n'
       '#   surplus_factor = 1.0\n'
       'slots_exact_recovery = 6109\n'
       'slots_surplus_bound = 6103\n'
       'slot_error_target = 0.0\n'
       'repetitions = 6034\n'
       'total_channel_uses = 36861706\n'
       'closed_form_reference = 36853252.12549575\n'
     )),
    (['--big-k', '1', '--power', '1', '--delta', '4e-309'],
     (
       '# effective parameters\n'
       '#   big_k = 1.0\n'
       '#   c = 0.125\n'
       '#   delta = 4e-309\n'
       '#   power = 1.0\n'
       '#   surplus_factor = 1.0\n'
       'repetition_length = 5689\n'
     )),
]


@pytest.mark.parametrize("argv, stdout", _BOUNDS_GOLDEN, ids=['curve', 'trace', 'e2e_wide', 'e2e_lowsnr', 'million', 'no_inactive', 'eps_1e-310', 'eps_5e-324', 'delta_4e-309'])
def test_bounds_stdout_is_pinned(capsys, argv, stdout):
    assert run_cli(capsys, ["bounds", *argv]) == (0, stdout)


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
          "--power", "1", "--trials", "2", "--seed", "9"], "k must be an int in [1, "),
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
     "variance_proxy"),
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


# The form each valid run is of
_FORM_OF_RUN = {"bounds": "bounds", "until-exact": "simulate --mode until-exact",
                "trace": "simulate --mode trace", "preset": "simulate --preset reference",
                "channel": "channel", "e2e": "e2e"}
# Values at the edges of what a flag parses: int64's ends and one past it, 0,
# -1, NaN, the infinities, subnormals, an underscore, a hex literal, and
# Arabic-Indic and fullwidth digits, which int() and float() read as 10 and 7
_EDGE_VALUES = ("0", "-1", str(-2**63), str(2**63), "nan", "inf", "-inf", "5e-324",
                "-5e-324", "1e-310", "1_0", "0x10", "\u0661\u0660", "\uff17")


@st.composite
def _edge_runs(draw):
    """A valid run with one or two of the flags its form reads set to edge values.

    ``--slots`` and ``--trials`` never reach int64's end: ``channel --slots
    9223372036854775807`` is a valid run that would not end.
    """
    run = draw(st.sampled_from(sorted(_VALID_RUNS)))
    reads = [flag for flag in _FORMS[_FORM_OF_RUN[run]][2].split()
             if flag not in ("--out", "--out-dir")]
    argv = list(_VALID_RUNS[run])
    for flag in draw(st.lists(st.sampled_from(reads), min_size=1, max_size=2, unique=True)):
        large = () if flag in ("--slots", "--trials") else (str(2**63 - 1),)
        argv += [flag, draw(st.sampled_from(_EDGE_VALUES + large))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_edge_runs())
def test_edge_values_run_or_exit_2_with_no_output(argv):
    assert set(_FORM_OF_RUN) == set(_VALID_RUNS) and set(_FORM_OF_RUN.values()) == set(_FORMS)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        argv = [arg.format(tmp=tmp) for arg in argv]
        try:
            assert main(argv) == 0, argv
        except SystemExit as exc:
            assert exc.code == 2, (argv, err.getvalue())
            assert out.getvalue() == "", argv
            assert os.listdir(tmp) == [], argv


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

    from gtmac import harness

    finished = [s for s in slots if s >= 0]
    med = statistics.median(finished) if finished else float("nan")
    mx = max(finished) if finished else float("nan")
    curve = harness.build_error_curve(np.bincount(np.array(slots) + 1, minlength=2),
                                      (0, 4), 10, 2)
    summary = (curve.trials, curve.median_slots, curve.max_slots, curve.censored)
    # Python scalars, which print as the summary line always has
    assert [type(value) for value in summary] == [int, type(med), type(mx), int]
    assert (f"trials = {curve.trials}  median_slots = {curve.median_slots}  "
            f"max_slots = {curve.max_slots}  censored = {curve.censored}") == (
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


@pytest.mark.parametrize("flags,level", [
    (["--n-inactive", "10", "--p", "0"], "10.0"),  # nobody is ever chosen
    (["--n-inactive", "10", "--p", "1"], "10.0"),  # every slot is discarded
    (["--n-inactive", "0"], "0.0"),                # nothing to eliminate
], ids=["p0", "p1", "no-inactive"])
def test_simulate_trace_of_a_degenerate_chain_is_constant(tmp_path, capsys, flags, level):
    out = tmp_path / "trace.csv"
    code, text = run_cli(capsys, [
        "simulate", "--mode", "trace", *flags, "--k", "2", "--horizon", "3",
        "--trials", "5", "--seed", "1", "--threads", "1", "--out", str(out)])
    assert code == 0
    assert f"final_mean_surplus = {level}\n" in text
    assert out.read_text(encoding="utf-8") == (
        "slot,empirical_mean,std_error,predicted_mean\n"
        + "".join(f"{slot},{level},0.0,{level}\n" for slot in range(4)))


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-inactive", "10", "--k", "1", "--trials", "5", "--grid-max", "50",
     "--grid-step", "10", "--out", "{tmp}/auto.csv"],
    ["simulate", "--mode", "trace", "--n-inactive", "10", "--k", "1", "--trials", "5",
     "--horizon", "5", "--out", "{tmp}/auto.csv"],
    ["simulate", "--preset", "reference", "--trials", "2", "--grid-max", "10",
     "--out-dir", "{tmp}"],
    ["channel", "--sigma", "1", "--power", "1", "--delta", "0.1", "--slots", "10"],
    ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5", "--power",
     "1", "--trials", "2", "--out", "{tmp}/auto.csv"],
], ids=["until-exact", "trace", "preset", "channel", "e2e"])
def test_simulate_generates_and_echoes_a_seed(tmp_path, capsys, argv):
    # without --seed and --threads a run draws a seed and takes every CPU, and
    # echoes both; replaying the echoed seed reproduces stdout and every file
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, text = run_cli(capsys, argv)
    assert code == 0
    match = re.search(r"^#   seed = (\d+)$", text, re.MULTILINE)
    assert match is not None
    threads = [line for line in text.splitlines() if line.startswith("#   threads = ")]
    assert threads == ([] if argv[0] == "channel" else [f"#   threads = {os.cpu_count() or 1}"])
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    code, replay = run_cli(capsys, [*argv, "--seed", match.group(1)])
    assert code == 0 and replay == text
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


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


def test_build_parser_measures_the_terminal_once(monkeypatch, capsys):
    # argparse measures the terminal for each formatter it makes, one per flag
    # added; the parser is given the width once, and its help pages use it
    import shutil

    from gtmac.cli import build_parser
    measure, calls = shutil.get_terminal_size, []
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *args: calls.append(args) or measure(*args))
    parser = build_parser()
    assert len(calls) == 1
    for argv in ([], *([command] for command in _COMMANDS)):
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--help"])
        assert capsys.readouterr().out
    assert len(calls) == 1


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


def test_channel_prints_the_exact_excursion_its_familys_record_holds(capsys, monkeypatch):
    # the command reads the law off the family's record, not off its name
    from gtmac import channel

    uniform = channel._FAMILIES["uniform"]._replace(excursion=lambda a, power, m: 0.25)
    monkeypatch.setitem(channel._FAMILIES, "uniform", uniform)
    code, out = run_cli(capsys, ["channel", "--noise", "uniform=1", "--power", "1",
                                 "--delta", "0.01", "--slots", "10", "--seed", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "uniform_exact_excursion = 0.25"


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
    assert NoiseModel.parse(echoed) == NoiseModel.parse(spec)


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


_E2E = ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
        "--power", "1", "--trials", "2", "--seed", "1", "--threads", "1"]
_TRACE = ["simulate", "--mode", "trace", "--n-inactive", "10", "--k", "1", "--trials", "2",
          "--horizon", "5", "--seed", "1", "--threads", "1"]


@pytest.mark.parametrize("argv, flag, value", [
    (_E2E, "--n-inactive", 2**63),
    (_E2E, "--k", 2**63),
    (_E2E, "--trials", 2**63),
    (["simulate", "--n-inactive", "10", "--k", "1", "--seed", "1", "--threads", "1"],
     "--trials", 2**63),
    (_TRACE, "--trials", 2**63),
    (_TRACE, "--horizon", 2**63),
    (["channel", "--sigma", "1", "--power", "1", "--delta", "0.1", "--seed", "1"],
     "--slots", 2**64),
    # a grid of two points, 0 and 2**63, whose last level no int64 holds
    (["simulate", "--n-inactive", "10", "--k", "1", "--seed", "1", "--threads", "1",
      "--grid-step", str(2**63)], "--grid-max", 2**63),
], ids=["e2e-n-inactive", "e2e-k", "e2e-trials", "until-exact-trials", "trace-trials",
        "trace-horizon", "channel-slots", "until-exact-grid-max"])
def test_sizes_past_int64_exit_2_before_any_output(tmp_path, capsys, argv, flag, value):
    # each reaches numpy as a size, a grid level or the n of a Bin(n, p) draw,
    # all int64
    out = [] if argv[0] == "channel" else ["--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as info:
        main([*argv, *out, flag, str(value)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be an int in [" in captured.err
    assert f"{2**63 - 1}]" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_e2e_plans_its_channel_uses_once(tmp_path, capsys, monkeypatch):
    # the repetitions check before the echo and the batch run one plan
    from gtmac import bounds

    calls = []
    plan_channel_uses = bounds.plan_channel_uses

    def counted(*args):
        calls.append(args)
        return plan_channel_uses(*args)

    monkeypatch.setattr(bounds, "plan_channel_uses", counted)
    code, out = run_cli(capsys, [*_E2E, "--out", str(tmp_path / "e2e.csv")])
    assert code == 0 and "failures = " in out
    assert len(calls) == 1


def _limit_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


_UNTIL_EXACT = ["simulate", "--n-inactive", "10000", "--k", "20", "--trials", "2", "--seed",
                "1", "--threads", "1"]


@pytest.mark.parametrize("argv, flag", [
    ([*_TRACE, "--horizon", str(10**15)], "--horizon 1000000000000000"),
    ([*_TRACE, "--horizon", str(10**9)], "--horizon 1000000000"),
    ([*_TRACE, "--horizon", str(2 * 10**7)], "--horizon 20000000"),
    ([*_UNTIL_EXACT, "--grid-max", str(10**15)], "--grid-max 1000000000000000"),
    ([*_UNTIL_EXACT, "--grid-max", str(2 * 10**7)], "--grid-max 20000000"),
    (["simulate", "--preset", "reference", "--trials", "2", "--seed", "1", "--threads", "1",
      "--grid-max", str(10**15)], "--grid-max 1000000000000000"),
    (["e2e", "--n-inactive", "10", "--k", "100000000000", "--eps", "0.1", "--sigma", "1",
      "--power", "1", "--trials", "1", "--seed", "1", "--threads", "1"],
     "--n-inactive 10, --k 100000000000 and --eps 0.1"),
], ids=["trace-horizon", "trace-horizon-2GiB", "trace-horizon-2e7-2GiB", "until-exact-grid",
        "until-exact-grid-2e7-2GiB", "preset-grid", "e2e-block"])
def test_arrays_past_memory_exit_2_before_any_output(tmp_path, argv, flag):
    # each form's largest arrays would not fit: 155 PB of trace, 130 PB of
    # curve, 20 TB of one e2e block's 1.25e12 slots, or against the child's
    # 2 GiB of address space 155 GB of trace at 10**9 slots, and 3.1 GB of trace
    # or 2.6 GB of curve at 2e7 slots, which the runs need at their peak
    place = ["--out-dir", str(tmp_path)] if "--preset" in argv else [
        "--out", str(tmp_path / "x.csv")]
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gtmac.cli", *argv, *place],
                          capture_output=True, text=True, timeout=30, cwd=tmp_path,
                          env=_child_env(), preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert time.perf_counter() - started < 10
    assert proc.stdout == ""
    assert f"error: the arrays of {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_until_exact_curve_memory_does_not_grow_with_trials(tmp_path, capsys):
    # a batch adds up one slot histogram per block, and the curve and its
    # summary line are read off their sum: a block's draws, two histograms,
    # the grid and a chunk of CSV text, not 8 bytes a trial (16 MB here)
    import tracemalloc

    trials = 2_000_000
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, [*_UNTIL_EXACT, "--trials", str(trials),
                                     "--out", str(tmp_path / "curve.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and f"trials = {trials}  median_slots = " in out
    assert peak < 2 * 2**20


@pytest.mark.parametrize("argv", [
    [*_UNTIL_EXACT, "--grid-max", str(10**5 - 1)],
    [*_TRACE, "--horizon", str(10**5 - 1)],
], ids=["until-exact", "trace"])
def test_memory_checks_count_two_thirds_of_the_peak_up_to_the_peak(tmp_path, capsys,
                                                                   monkeypatch, argv):
    # the bytes a form's memory check counts for 10**5 grid points or slots
    # against what the run holds at its peak, the curve's or trace's tuples
    # and one chunk of CSV text, under tracemalloc
    import tracemalloc

    from gtmac import cli

    counted = []
    check_memory = cli._check_memory

    def counting(parser, arrays):
        counted.append(sum(size for size, _ in arrays))
        check_memory(parser, arrays)

    monkeypatch.setattr(cli, "_check_memory", counting)
    out = str(tmp_path / "x.csv")
    run_cli(capsys, [*argv[:-1], "10", "--out", out])  # imports and caches, untraced
    tracemalloc.start()
    try:
        code, _ = run_cli(capsys, [*argv, "--out", out])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert counted[-1] <= peak <= 1.5 * counted[-1]


def test_until_exact_runs_pass_the_memory_check_at_any_trial_count():
    # nothing is held per trial, so the largest --trials is a valid run that
    # would not end (as channel --slots is); the check runs no trial
    import argparse

    from gtmac import cli

    args = argparse.Namespace(trials=2**63 - 1, grid_max=2500, grid_step=1, p=None,
                              slot_cap=None)
    grid, runs = cli._until_exact_runs(cli.build_parser(), args, [(10_000, 20)])
    assert grid == range(2501)
    assert runs == [(10_000, 20, 1 / 21, harness.default_slot_cap(10_000, 20))]


class _BatchStarted(Exception):
    pass


@pytest.mark.parametrize("argv, batch", [
    ([*_E2E, "--trials", str(2**63 - 1)], "run_end_to_end_batch"),
    ([*_TRACE, "--trials", str(2**63 - 1)], "expectation_trace"),
], ids=["e2e", "trace"])
def test_trace_and_e2e_pass_the_memory_check_at_any_trial_count(tmp_path, capsys, monkeypatch,
                                                                argv, batch):
    # nothing is held per trial or per block, so the largest --trials passes
    # the memory check, a valid run that would not end; its batch stops here
    def started(*args, **kwargs):
        raise _BatchStarted

    monkeypatch.setattr(harness, batch, started)
    with pytest.raises(_BatchStarted):
        main([*argv, "--out", str(tmp_path / "x.csv")])


def _interrupted():
    raise KeyboardInterrupt


@pytest.mark.parametrize("stop, code, message", [
    (_interrupted, 130, "gtmac: interrupted"),
], ids=["interrupt"])
def test_a_run_stopped_early_exits_with_one_line(tmp_path, capsys, monkeypatch,
                                                 stop, code, message):
    monkeypatch.setattr(harness, "run_until_exact_batch", lambda *args, **kwargs: stop())
    out = tmp_path / "curve.csv"
    assert main([*_UNTIL_EXACT, "--threads", "2", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert "effective parameters" in captured.out and "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


def _die_in_a_worker(*args):
    """An until-exact block that ends its worker process at once, as a kill would."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("a block ran in the parent")
    os._exit(1)


def test_a_worker_that_dies_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # 20000 trials are 3 blocks, which two workers share; the dead one breaks
    # the pool, and the CLI reports it as any OSError, with the pool's message
    monkeypatch.setattr(harness, "_until_exact_block", _die_in_a_worker)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "curve.csv"
    assert main(["simulate", "--n-inactive", "10000", "--k", "20", "--trials", "20000",
                 "--seed", "1", "--threads", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: A process in the process pool")
    assert "effective parameters" in captured.out and "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def _session(sid: int) -> list[str]:
    """The pids of the processes in session ``sid``, as ``pgrep -s`` lists them."""
    return subprocess.run(["pgrep", "-s", str(sid)], capture_output=True, text=True,
                          timeout=30).stdout.split()


@pytest.mark.skipif(shutil.which("pgrep") is None or (os.cpu_count() or 1) < 2,
                    reason="needs pgrep and two CPUs for two workers")
def test_an_interrupt_to_the_parent_stops_a_two_worker_run(tmp_path):
    # 10**9 trials run for about a minute on two workers; SIGINT to the parent
    # alone cancels the ranges not yet started and waits for the running ones
    out = tmp_path / "curve.csv"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "gtmac.cli", "simulate", "--n-inactive", "10000",
         "--k", "20", "--trials", str(10**9), "--seed", "1", "--threads", "2",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(),
        start_new_session=True,
        # a shell's background job ignores SIGINT, and its children would too
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        assert proc.stdout.readline() == "# effective parameters\n"
        deadline = time.monotonic() + 60  # hang guards, not latency bounds
        while len(_session(proc.pid)) < 3:  # the parent and its two workers
            assert time.monotonic() < deadline
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err == "gtmac: interrupted\n"
    assert not out.exists()
    assert _session(proc.pid) == []


def test_an_error_with_no_message_is_named_by_its_type(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(harness, "run_until_exact_batch", out_of_memory)
    assert main([*_UNTIL_EXACT, "--out", str(tmp_path / "curve.csv")]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert list(tmp_path.iterdir()) == []


def test_channel_and_e2e_reject_an_understated_norm_bound_alike(tmp_path, capsys):
    # K = 1 under sigma = 2 proves c up to 1/32, below the default 1/8, so the
    # printed tail bound would be wrong: one message for both commands
    out = tmp_path / "e2e.csv"
    errors = []
    for argv in (["channel", "--slots", "20000", "--delta", "0.01", "--seed", "1"],
                 ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--trials", "4",
                  "--seed", "9", "--out", str(out)]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--sigma", "2", "--big-k", "1", "--power", "1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        errors.append(captured.err.splitlines()[-1])
    assert errors == ["gtmac: error: --c 0.125 is above 0.03125, the largest tail constant "
                      "K**2/(8*s**2) at --big-k 1.0 for the noise's variance proxies s"] * 2


def test_channel_k_below_the_largest_scale_keeps_its_tail_bound(capsys):
    # uniform on [-3, 3] has proxy sqrt(3), so K = 2 proves c up to 1/6 >= 1/8
    code, out = run_cli(capsys, ["channel", "--noise", "uniform=3", "--big-k", "2",
                                 "--power", "1", "--delta", "0.01", "--slots", "20000",
                                 "--seed", "1"])
    assert code == 0
    rates = dict(re.findall(r"^(\w+) = (\S+)$", out, re.M))
    assert float(rates["empirical_excursion_rate"]) <= float(rates["tail_bound"])


def test_e2e_k_below_the_largest_scale_keeps_its_guarantee(capsys):
    # the plan for K = 2 under uniform=3 fails at most 2*eps, up to 3 standard errors
    trials = 2000
    code, out = run_cli(capsys, ["e2e", "--n-inactive", "500", "--k", "5", "--eps", "0.05",
                                 "--noise", "uniform=3", "--big-k", "2", "--power", "1",
                                 "--trials", str(trials), "--seed", "20261020",
                                 "--threads", "1"])
    assert code == 0
    rate = float(re.search(r"^failure_rate = (\S+)$", out, re.M).group(1))
    two_eps = 2 * 0.05
    assert rate <= two_eps + 3 * math.sqrt(two_eps * (1 - two_eps) / trials)


_C_RUNS = {  # each noisy command with its other flags
    "e2e": ["e2e", "--n-inactive", "1000", "--k", "3", "--eps", "0.01", "--power", "1",
            "--trials", "20", "--seed", "1", "--threads", "1"],
    "channel": ["channel", "--power", "1", "--delta", "0.01", "--slots", "1000", "--seed", "1"],
    "channel --m": ["channel", "--power", "1", "--delta", "0.01", "--m", "40", "--slots",
                    "1000", "--seed", "1"],
}


@pytest.mark.parametrize("command", _C_RUNS)
@pytest.mark.parametrize("noise, limit, above", [
    (["--sigma", "1"], "0.125", "0.1250001"),
    (["--noise", "uniform=1"], "0.375", "0.38"),
    (["--noise", "gaussian=0.5,uniform=2,rademacher=1"], "0.375", "0.38"),
    (["--sigma", "1", "--big-k", "2"], "0.5", "0.51"),
], ids=["gaussian", "uniform", "schedule", "big-k"])
def test_a_tail_constant_the_noise_does_not_prove_exits_2(tmp_path, capsys, command,
                                                           noise, limit, above):
    # the plan meets its error target only for c <= K**2/(8*s**2), s each
    # member's variance proxy: sigma, a/sqrt(3) for uniform, a for rademacher
    out = tmp_path / "c.csv"
    argv = [*_C_RUNS[command], *noise, *(["--out", str(out)] if command == "e2e" else [])]
    for c in (above, "1e300"):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--c", c])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines()[-1].startswith(f"gtmac: error: --c {float(c)} is above ")
    code, text = run_cli(capsys, [*argv, "--c", limit])
    assert code == 0 and f"#   c = {float(limit)}" in text


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


# stdout and CSV of the e2e_lowsnr batch and of an N = 1e6 gaussian batch,
# each up to its "wrote" line; a change that keeps the e2e stream must keep
# these bytes
_E2E_GOLDEN = [
    (["--n-inactive", "500", "--k", "5", "--eps", "0.05",
      "--noise", "gaussian=8,uniform=8,rademacher=8", "--power", "1", "--trials", "1500"],
     (
       '# effective parameters\n'
       '#   big_k = 8.0\n'
       '#   c = 0.125\n'
       '#   eps = 0.05\n'
       '#   k = 5\n'
       '#   n_inactive = 500\n'
       '#   noise = gaussian=8.0,uniform=8.0,rademacher=8.0\n'
       '#   power = 1.0\n'
       '#   seed = 7\n'
       '#   threads = 1\n'
       '#   trials = 1500\n'
       'slots = 151\n'
       'repetitions = 4615\n'
       'total_channel_uses = 696865\n'
       'failures = 23 / 1500\n'
       'failure_rate = 0.015333333333333332\n'
       'conditional_failure_rate = 0.014090005972671096\n'
       'two_epsilon = 0.1\n'
     ),
     (
       'trials,failures,failure_rate,two_epsilon,l,m,total_channel_uses\n'
       '1500,23,0.015333333333333332,0.1,151,4615,696865\n'
     )),
    (["--n-inactive", "1000000", "--k", "20", "--eps", "0.01", "--sigma", "1",
      "--power", "1", "--trials", "200"],
     (
       '# effective parameters\n'
       '#   big_k = 1.0\n'
       '#   c = 0.125\n'
       '#   eps = 0.01\n'
       '#   k = 20\n'
       '#   n_inactive = 1000000\n'
       '#   noise = gaussian=1.0\n'
       '#   power = 1.0\n'
       '#   seed = 7\n'
       '#   threads = 1\n'
       '#   trials = 200\n'
       'slots = 1052\n'
       'repetitions = 101\n'
       'total_channel_uses = 106252\n'
       'failures = 2 / 200\n'
       'failure_rate = 0.01\n'
       'conditional_failure_rate = 0.00544722216880637\n'
       'two_epsilon = 0.02\n'
     ),
     (
       'trials,failures,failure_rate,two_epsilon,l,m,total_channel_uses\n'
       '200,2,0.01,0.02,1052,101,106252\n'
     )),
]


@pytest.mark.parametrize("argv, stdout, table", _E2E_GOLDEN, ids=["lowsnr", "million"])
def test_e2e_stdout_and_csv_are_pinned(tmp_path, capsys, argv, stdout, table):
    out = tmp_path / "e2e.csv"
    code, text = run_cli(capsys, ["e2e", *argv, "--seed", "7", "--threads", "1",
                                  "--out", str(out)])
    assert code == 0
    assert text == f"{stdout}wrote {out}\n"
    assert out.read_text(encoding="utf-8") == table


def _refused(name):
    def method(self, *args, **kwargs):
        raise AssertionError(f"{name} called")
    return method


class _E2ERouteGenerator(np.random.Generator):
    """A block stream whose methods off the golden e2e routes raise: their counts
    come from tables, and each trial is decided by one ``random()``."""

    binomial = _refused("binomial")
    standard_gamma = _refused("standard_gamma")
    poisson = _refused("poisson")
    integers = _refused("integers")


@pytest.mark.parametrize("argv, stdout, table", _E2E_GOLDEN, ids=["lowsnr", "million"])
def test_e2e_golden_routes_call_no_binomial(tmp_path, capsys, monkeypatch, argv, stdout,
                                            table):
    monkeypatch.setattr(harness, "_block_rng", lambda seed, b: _E2ERouteGenerator(
        np.random.PCG64(np.random.SeedSequence((seed, b)))))
    test_e2e_stdout_and_csv_are_pinned(tmp_path, capsys, argv, stdout, table)


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


def test_e2e_rejects_understated_norm_bound(tmp_path, capsys):
    out = tmp_path / "e2e.csv"
    with pytest.raises(SystemExit) as info:
        main(["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2",
              "--sigma", "2.0", "--big-k", "1.0", "--power", "1.0",
              "--trials", "4", "--seed", "9", "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines()[-1] == (
        "gtmac: error: --c 0.125 is above 0.03125, the largest tail constant "
        "K**2/(8*s**2) at --big-k 1.0 for the noise's variance proxies s")


@pytest.mark.parametrize("argv", [
    ["channel", "--sigma", "0", "--power", "1", "--delta", "0.1"],
    ["channel", "--noise", "uniform=0,rademacher=0", "--power", "1", "--delta", "0.1"],
    ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0",
     "--power", "1", "--trials", "4", "--seed", "9"],
])
def test_noiseless_channel_without_big_k_names_the_flag(capsys, argv):
    # K defaults to the noise's largest scale, here 0, which no plan can use
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "the noise's scales are all 0, so --big-k > 0 is needed" in err
    assert "variance_proxy" not in err
    assert main([*argv, "--big-k", "1"]) == 0


# --- benchmark tracer ------------------------------------------------------------------

def test_benchmark_tracer_finds_every_layer_it_patches(tmp_path, monkeypatch):
    # perfbench/tracing.py patches names by module attribute; a renamed or
    # deleted name fails here and not only in the benchmark's traced pass
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    from gtmac import harness, scheme
    from gtmac.channel import RepetitionDisjunctionOracle

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
        oracle = RepetitionDisjunctionOracle(NoiseModel([("gaussian", 0.5)]), 1.0, 2,
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

def _child_env() -> dict[str, str]:
    """The environment of a child ``python`` that imports the gtmac under test."""
    package_root = str(Path(gtmac.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A child ``python`` that imports the gtmac under test, installed or not."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=_child_env())


def test_module_entry_point_runs_as_script():
    proc = run_python("-m", "gtmac.cli", "bounds", "--n-inactive", "100000",
                      "--k", "20", "--eps", "0.01")
    assert proc.returncode == 0
    assert "slots_exact_recovery = 921" in proc.stdout


# the benchmark's batches at small trial counts, its bounds run, and an e2e_lowsnr
# batch of 1500 trials: 4 blocks of 434, split between two workers
@pytest.mark.parametrize("name, trials, threads", [
    ("curve", 40, "1"), ("trace", 300, "1"), ("e2e_wide", 1, "1"), ("e2e_lowsnr", 30, "1"),
    ("e2e_lowsnr", 1500, "2"), ("bounds", None, None)])
def test_process_entry_writes_what_main_writes_in_process(tmp_path, capsys, monkeypatch,
                                                          name, trials, threads):
    # the process entry freezes the heap before it exits; its stdout, CSV and
    # exit code are those of the same command run in process
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    out = tmp_path / "batch.csv"
    if name == "bounds":
        argv = WORKLOADS["e2e_wide"].bounds_argv()
    else:
        argv = WORKLOADS[name].batch_argv(7, str(out), trials)
        argv[argv.index("--threads") + 1] = threads
    proc = run_python("-m", "gtmac.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    blob = out.read_bytes() if out.exists() else None
    assert (blob is None) == (name == "bounds")
    out.unlink(missing_ok=True)
    assert run_cli(capsys, argv) == (0, proc.stdout)
    assert (out.read_bytes() if out.exists() else None) == blob


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--preset", "reference", "--out", "ignored.csv", "--trials", "2"], 2),
    (["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma", "0.5",
      "--power", "1", "--trials", "3", "--seed", "9", "--out", "{missing}/e2e.csv"], 1),
], ids=["unread-flag", "unwritable-out"])
def test_process_entry_keeps_the_exit_codes(tmp_path, argv, code):
    proc = run_python("-m", "gtmac.cli",
                      *[arg.format(missing=tmp_path / "missing") for arg in argv])
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr


def test_main_with_argv_leaves_the_gc_state_alone(tmp_path, capsys):
    # pytest's heap and the benchmark tracer's are never frozen
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    run_cli(capsys, ["bounds", "--n-inactive", "100", "--k", "2", "--eps", "0.1"])
    run_cli(capsys, ["e2e", "--n-inactive", "20", "--k", "1", "--eps", "0.2", "--sigma",
                     "0.5", "--power", "1", "--trials", "3", "--seed", "9", "--threads", "1",
                     "--out", str(tmp_path / "e2e.csv")])
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


_AS_MAIN = """
import atexit, gc, runpy, sys
print("before:", gc.get_freeze_count())
atexit.register(lambda: print("at exit:", gc.get_freeze_count() > 0))
sys.argv = ["gtmac", "bounds", "--n-inactive", "100", "--k", "2", "--eps", "0.1"]
runpy.run_module("gtmac.cli", run_name="__main__")
"""


def test_process_entry_freezes_the_heap_before_it_exits():
    proc = run_python("-c", _AS_MAIN)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "before: 0"
    assert any(line.startswith("slots_exact_recovery = ") for line in lines)
    assert lines[-1] == "at exit: True"


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
from gtmac import bounds
print(bounds.gaussian_slot_error_exact(1.0, 1.0, 45), bounds.slot_error_bound(1.0, 1.0, 45, 0.125))
heavy = {"numpy", "gtmac.harness", "gtmac.channel", "gtmac.scheme"}
print("loaded:", *sorted(set(sys.modules) & heavy))
"""


def test_bounds_plans_without_numpy_or_the_simulation_layers():
    # bounds plans in pure math: a fresh process running it loads neither
    # numpy nor the layers that simulate
    proc = run_python("-c", _BOUNDS_START_UP)
    assert proc.returncode == 0, proc.stderr
    assert "total_channel_uses = 92100" in proc.stdout
    # so do the slot laws: the gaussian excursion and the tail bound at m = 45
    assert f"{7.962301575908114e-4!r} {math.exp(1 - 45 / 8)!r}" in proc.stdout.splitlines()
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


def test_channel_command_does_not_load_the_scheme_layer():
    # an oracle is any object with decode_block, so the channel code
    # subclasses nothing of gtmac.scheme and simulates without it
    proc = run_python("-c", _LOADS_NONE_OF, "numpy.random", "gtmac.scheme,gtmac.harness",
                      "channel", "--noise", "gaussian=1,uniform=2", "--power", "1",
                      "--delta", "0.01", "--slots", "100", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "empirical_excursion_rate = " in proc.stdout
    assert proc.stdout.splitlines()[-1] == "loaded:"
