"""Traces saved by ``bira run --out`` load into the record types and
re-dump byte for byte, and the records table reads back what it wrote.

``p3_failure.json`` is ``p3``'s restoration failure and ``p2_staged.json``
a ``p2`` run whose finishing call took stages, both at the default
parameters and tolerances.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import make_highdim

from bira.core import (
    FAILURE_KINDS,
    RESTORATION_STATUSES,
    RUN_STATUSES,
    PrecisionLevel,
    SchemaError,
)
from bira.qp import SolveCertificate
from bira.solver import bira_run
from bira.trace import (
    RECORD_TABLE,
    RestorationOutcome,
    RunReport,
    read_trace,
    trace_bytes,
)

DATA = Path(__file__).resolve().parent / "data"
SAVED = ["p3_failure.json", "p2_staged.json"]


@pytest.mark.parametrize("name", SAVED)
def test_a_saved_trace_re_dumps_byte_for_byte(name):
    assert trace_bytes(read_trace(DATA / name)) == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", SAVED)
def test_a_saved_trace_loads_each_fact_as_its_one_type(name):
    report = read_trace(DATA / name)
    outcomes = [rec.resta for rec in report.records]
    if report.failure_info is not None:
        outcomes.append(report.failure_info["resta"])
    assert outcomes
    assert all(isinstance(out, RestorationOutcome) for out in outcomes)
    levels = [report.start["y"], report.final_y]
    levels += [y for rec in report.records for y in (rec.y_k, rec.y_R)]
    levels += [out.y_R for out in outcomes]
    assert all(isinstance(y, PrecisionLevel) for y in levels)
    certs = [rec.tangent_cert for rec in report.records]
    certs += [cert for out in outcomes for _, cert in out.trials]
    assert certs
    assert all(isinstance(cert, SolveCertificate) for cert in certs)


def test_the_saved_traces_are_the_cases_they_stand_for():
    failure = read_trace(DATA / "p3_failure.json")
    assert failure.status == "RestorationFailure"
    assert failure.failure_info["kind"] == "possible_infeasibility"
    staged = read_trace(DATA / "p2_staged.json")
    assert staged.status == "Converged"
    assert staged.records[-1].resta.stages > 0


def _round_trips(d):
    """Whether the trace payload ``d`` loads and writes itself back."""
    return RunReport.from_dict(d).to_dict() == d


@pytest.mark.parametrize("status", RUN_STATUSES)
def test_every_run_status_round_trips(status):
    name = ("p3_failure.json" if status == "RestorationFailure"
            else "p2_staged.json")
    d = json.loads((DATA / name).read_text())
    d["status"] = status
    assert _round_trips(d)
    d["status"] = "Bogus"
    with pytest.raises(SchemaError, match="unknown status"):
        RunReport.from_dict(d)


@pytest.mark.parametrize("status", RESTORATION_STATUSES)
def test_every_restoration_status_round_trips(status):
    d = json.loads((DATA / "p3_failure.json").read_text())
    out = d["failure_info"]["resta"]
    out["status"] = status
    assert RestorationOutcome.from_dict(out).to_dict() == out
    out["status"] = "Bogus"
    with pytest.raises(SchemaError, match="unknown restoration status"):
        RestorationOutcome.from_dict(out)


@pytest.mark.parametrize("kind", FAILURE_KINDS)
def test_every_failure_kind_round_trips(kind):
    # a call's status is its failure kind when that is a restoration status
    status = kind if kind in RESTORATION_STATUSES else RESTORATION_STATUSES[0]
    d = json.loads((DATA / "p3_failure.json").read_text())
    d["failure_info"]["kind"] = kind
    d["failure_info"]["resta"]["status"] = status
    assert _round_trips(d)
    d["failure_info"]["kind"] = "Bogus"
    with pytest.raises(SchemaError, match="unknown failure kind"):
        RunReport.from_dict(d)


def test_a_precision_off_the_quadrant_is_a_schema_error():
    d = read_trace(DATA / "p2_staged.json").to_dict()
    d["start"]["y"] = [-0.5, 0.5]
    with pytest.raises(SchemaError, match="start y"):
        RunReport.from_dict(d)


def _columns(table, spec):
    """Every plain column of a written table, nested tables' included."""
    names, nested = spec
    for name in names:
        if name in nested:
            yield from _columns(table[name], nested[name])
        else:
            yield table[name]


def test_a_run_without_records_writes_every_column_empty():
    payload = json.loads((DATA / "p3_failure.json").read_text())
    columns = list(_columns(payload["records"], RECORD_TABLE))
    assert len(columns) > len(RECORD_TABLE[0])
    assert all(column == [] for column in columns)
    assert RunReport.from_dict(payload).records == []


def test_zero_tangent_steps_round_trip_as_null_x_next():
    # every tangent step of this problem snaps to zero, so each record's
    # x_next is its x_R and is written as null
    rep = bira_run(make_highdim())
    assert rep.records
    text = json.dumps(rep.to_dict())
    d = json.loads(text)
    assert d["records"]["x_next"] == [None] * len(rep.records)
    back = RunReport.from_dict(d)
    assert json.dumps(back.to_dict()) == text
    for rec, got in zip(rep.records, back.records):
        assert got.k == rec.k
        np.testing.assert_array_equal(got.x_next, rec.x_R)


def test_an_infinite_tolerance_is_a_schema_error():
    # json.loads reads Infinity, which no run writes
    d = json.loads((DATA / "p2_staged.json").read_text())
    d["tolerances"]["eps_opt"] = math.inf
    with pytest.raises(SchemaError, match="positive and finite"):
        RunReport.from_dict(json.loads(json.dumps(d)))
