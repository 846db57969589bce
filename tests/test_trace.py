"""Traces saved by ``bira run --out`` before the run record moved into
:mod:`bira.trace` load into its types and re-dump byte for byte.

``p3_failure.json`` is ``p3``'s restoration failure and ``p2_staged.json``
a ``p2`` run whose finishing call took stages, both at the default
parameters and tolerances.
"""

from pathlib import Path

import pytest

from bira.core import PrecisionLevel, SchemaError
from bira.qp import SolveCertificate
from bira.trace import RestorationOutcome, RunReport, read_trace, trace_bytes

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


def test_a_precision_off_the_quadrant_is_a_schema_error():
    d = read_trace(DATA / "p2_staged.json").to_dict()
    d["start"]["y"] = [-0.5, 0.5]
    with pytest.raises(SchemaError, match="start y"):
        RunReport.from_dict(d)
