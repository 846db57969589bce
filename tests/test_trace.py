"""Traces saved by ``bira run --out`` load into the record types and
re-dump byte for byte, the records table reads back what it wrote, and
every point reads back bit for bit or is refused.

``p3_failure.json`` is ``p3``'s restoration failure and ``p2_staged.json``
a ``p2`` run whose finishing call took stages, both at the default
parameters and tolerances.
"""

import base64
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import make_highdim

from bira.cli import main
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
    read_vector,
    trace_bytes,
    write_vector,
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


@pytest.mark.parametrize("x", [
    np.array([-0.0]),
    np.array([5e-324]),
    np.array([1.7e308]),
    np.random.default_rng(0).standard_normal(100),
], ids=["negative_zero", "subnormal", "near_max", "n_100"])
def test_a_point_round_trips_bit_for_bit(x):
    back = read_vector(write_vector(x), "x", len(x))
    assert back.tobytes() == x.tobytes()
    # a copy, not the read-only view of the decoded bytes
    back[0] = 1.0


def _with_first(n, value):
    """A written point of ``n`` coordinates, the first of them ``value``."""
    x = np.ones(n)
    x[0] = value
    return write_vector(x)


#: Written points a trace refuses, each as a function of the run's n, with
#: the refusal's message after the field's name.
BAD_POINTS = [
    (lambda n: 5, "must be a base64 string of float64 bytes, got int"),
    # schema v11 wrote each point as a list of numbers
    (lambda n: [1.0] * n, "must be a base64 string of float64 bytes, got list"),
    # a decoder that skips characters outside the alphabet reads this one
    (lambda n: "@@@@" + write_vector(np.ones(n)), "is not valid base64"),
    (lambda n: write_vector(np.ones(n)).rstrip("="), "is not valid base64"),
    (lambda n: base64.b64encode(bytes(8 * n - 4)).decode("ascii"),
     "holds .* bytes, not whole float64 coordinates"),
    (lambda n: write_vector(np.ones(n + 1)), "must have .* entries, got"),
    (lambda n: _with_first(n, math.inf), "must be finite"),
    (lambda n: _with_first(n, math.nan), "must be finite"),
]
BAD_POINT_IDS = ["number", "v11_list", "bad_character", "no_padding",
                 "partial_coordinate", "wrong_length", "inf", "nan"]


#: Every point field of a trace: ``(saved trace, edit, the field's name as
#: a refusal gives it)``.
POINT_FIELDS = [
    ("p2_staged.json", lambda d, v: d["start"].update(x=v), "start x"),
    ("p2_staged.json",
     lambda d, v: d["records"]["resta"]["x_R"].__setitem__(1, v),
     "iteration record 1: x_R"),
    ("p2_staged.json", lambda d, v: d["records"]["x_next"].__setitem__(1, v),
     "iteration record 1: x_next"),
    ("p3_failure.json", lambda d, v: d["failure_info"]["resta"].update(x_R=v),
     "failure info: x_R"),
]


@pytest.mark.parametrize("saved,put,field", POINT_FIELDS,
                         ids=["start_x", "x_R", "x_next", "failure_x_R"])
@pytest.mark.parametrize("bad,message", BAD_POINTS, ids=BAD_POINT_IDS)
def test_a_bad_point_is_refused_naming_its_field(tmp_path, capsys, saved, put,
                                                 field, bad, message):
    d = json.loads((DATA / saved).read_text())
    put(d, bad(len(read_vector(d["start"]["x"], "start x"))))
    # the start point sets n, so a start of another length is refused at
    # the first point after it
    if field == "start x" and message.startswith("must have"):
        field = "iteration record 0: x_R"
    with pytest.raises(SchemaError, match=f"^{field} {message}"):
        RunReport.from_dict(d)
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")
    assert "Traceback" not in err
