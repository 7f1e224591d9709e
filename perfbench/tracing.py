"""Outside-in tracing of the `gtmac` layers, installed from the benchmark.

``Recorder.installed()`` replaces public functions of ``gtmac.harness``,
``gtmac.scheme``, ``gtmac.channel`` and ``gtmac.bounds`` by module attribute
with wrappers that record a span (name, start, end, parent) per call and
restores the originals on exit.  A name is patched where its caller looks it
up: ``harness`` imports ``run_scheme``, ``run_scheme_fast`` and
``trial_seed`` by name, so those are patched on ``gtmac.harness``;
``run_scheme`` looks up ``slot_rng`` and ``receiver_update`` in
``gtmac.scheme``, ``transmit_block`` looks up ``slot_noise_averages`` in
``gtmac.channel``, and ``decode_block`` is a method of
``RepetitionDisjunctionOracle``.  Nothing in the program changes.

Spans stay in memory until ``write_spans``; a layer's self time is its spans'
durations minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

_HARNESS = ("run_until_exact_batch", "build_error_curve", "expectation_trace",
            "run_end_to_end_batch", "end_to_end_trial", "simulate_until_exact",
            "trial_seed", "export_csv")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, observe=None, flat: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A layer calling into itself (bounds helpers calling each other)
            # is one call of that layer.
            if flat and self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    # --- counters read from arguments and results ---------------------------

    def _until_exact(self, args, kwargs, record) -> None:
        from gtmac import harness
        slots = record.slots_until_exact
        if slots is None:  # censored: every slot up to the cap was simulated
            slots = kwargs.get("slot_cap")
            if slots is None:
                slots = harness.default_slot_cap(args[0], args[1])
        self.counts["harness.simulate_until_exact.slots"] += slots

    def _run_scheme(self, args, _kwargs, result) -> None:
        population, config = args[0], args[1]
        self.counts["scheme.run_scheme.node_slots"] += population.total_nodes * config.slot_budget
        _, outcomes = result
        for slot in outcomes:
            self.counts["scheme.slots"] += 1
            if not slot.any_active_chosen:
                self.counts["scheme.useful_slots"] += 1
                self.counts["channel.false_positive_slots"] += slot.decoded_disjunction
            elif not slot.decoded_disjunction:
                self.counts["channel.false_negative_slots"] += 1

    def _noise(self, args, _kwargs, _result) -> None:
        self.counts["channel.noise_draws"] += args[1] * args[2]

    def _csv(self, args, _kwargs, _result) -> None:
        self.counts["harness.export_csv.bytes"] += os.path.getsize(args[1])

    @contextlib.contextmanager
    def installed(self):
        from gtmac import bounds, channel, harness, scheme

        observers = {"simulate_until_exact": self._until_exact, "export_csv": self._csv}
        patches = [(harness, attr, f"harness.{attr}", observers.get(attr), False)
                   for attr in _HARNESS]
        patches += [
            (harness, "run_scheme", "scheme.run_scheme", self._run_scheme, False),
            (harness, "run_scheme_fast", "scheme.run_scheme_fast", None, False),
            (scheme, "slot_rng", "scheme.slot_rng", None, False),
            (scheme, "receiver_update", "scheme.receiver_update", None, False),
            (channel, "slot_noise_averages", "channel.slot_noise_averages",
             self._noise, False),
            (channel.RepetitionDisjunctionOracle, "decode_block",
             "channel.decode_block", None, False),
        ]
        patches += [(bounds, attr, "bounds", None, True) for attr in bounds.__all__
                    if callable(getattr(bounds, attr))
                    and not isinstance(getattr(bounds, attr), type)]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in patches]
        try:
            for owner, attr, name, observe, flat in patches:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), observe, flat))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # --- derived figures ------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_s[name] += end - start - children
            calls[name] += 1
        return self_s, calls

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
