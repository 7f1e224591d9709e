"""The result and parameter records: field order, construction, immutability, pickling."""

from __future__ import annotations

import pickle

import pytest

from gtmac.bounds import ChannelUsePlan
from gtmac.channel import NoiseModel
from gtmac.harness import EndToEndSummary, ErrorCurve, ExpectationTrace, RunRecord
from gtmac.scheme import Population, SchemeConfig, SlotOutcome

# Each record type with one instance's fields, in the pinned field order.
RECORDS = [
    (ChannelUsePlan, dict(slots=921, slot_error_target=1.0857763300760044e-05,
                          repetitions=100, total=92100, closed_form=91490.47357391116)),
    (NoiseModel, dict(members=(("gaussian", 0.5), ("uniform", 2.0)))),
    (Population, dict(total_nodes=5, active_set=frozenset({1, 3}))),
    (SchemeConfig, dict(choice_probability=0.25, slot_budget=40, master_seed=7)),
    (SlotOutcome, dict(any_active_chosen=True, decoded_disjunction=False)),
    (RunRecord, dict(trial_seed=11, slots_until_exact=None)),
    (ErrorCurve, dict(slot_grid=(0, 1), observed_frequency=(1.0, 0.5),
                      theoretical_bound=(1.0, 0.75), trials=2, censored=1,
                      median_slots=1, max_slots=1)),
    (ExpectationTrace, dict(slots=(0, 1), empirical_mean=(9.0, 6.5),
                            std_error=(0.0, 0.25), predicted_mean=(9.0, 6.75))),
    (EndToEndSummary, dict(trials=8, failures=1, failure_rate=0.125,
                           conditional_failure_rate=0.0625, two_epsilon=0.2, slots=30,
                           repetitions=12, total_channel_uses=360)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_fields_keep_their_order(cls, fields):
    assert cls._fields == tuple(fields)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_builds_from_keywords_and_positions(cls, fields):
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert cls(*fields.values()) == record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_is_immutable(cls, fields):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0  # no instance dict either
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_survives_a_pickle_round_trip(cls, fields):
    # a multi-worker e2e batch pickles its NoiseModel and ChannelUsePlan
    record = cls(**fields)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert copy == record


def test_records_coerce_their_inputs():
    config = SchemeConfig(1, 5, 0)
    assert type(config.choice_probability) is float and config.choice_probability == 1.0
    noise = NoiseModel([("rademacher", 2)])
    assert noise.members == (("rademacher", 2.0),)
    assert type(noise.members) is tuple and type(noise.members[0][1]) is float
    population = Population(4, [0, 2, 2])
    assert type(population.active_set) is frozenset and population.active_set == {0, 2}


@pytest.mark.parametrize("build, error", [
    (lambda: Population(-1, {0}), ValueError),
    (lambda: Population(True, {0}), TypeError),
    (lambda: Population(3, ()), ValueError),
    (lambda: Population(3, {3}), ValueError),
    (lambda: Population(3, 1), TypeError),
    (lambda: SchemeConfig(1.5, 5, 0), ValueError),
    (lambda: SchemeConfig(float("nan"), 5, 0), ValueError),
    (lambda: SchemeConfig("0.5", 5, 0), TypeError),
    (lambda: SchemeConfig(0.5, -1, 0), ValueError),
    (lambda: SchemeConfig(0.5, 5, 2**64), ValueError),
    (lambda: NoiseModel([("laplace", 1.0)]), ValueError),
    (lambda: NoiseModel([("gaussian", -1.0)]), ValueError),
    (lambda: NoiseModel([("gaussian", "1")]), TypeError),
    (lambda: NoiseModel([("uniform", 1.0), ("gaussian", float("nan"))]), ValueError),
    (lambda: NoiseModel(()), ValueError),
    (lambda: NoiseModel([NoiseModel([("gaussian", 1.0)])]), ValueError),
])
def test_records_reject_bad_input(build, error):
    with pytest.raises(error):
        build()
