"""Traces saved by ``bira run --out`` load into the record types and
re-dump byte for byte, the records table reads back what it wrote, every
point and packed float column reads back bit for bit or is refused, and
no non-finite value loads where a run cannot write one.

``p3_failure.json`` is ``p3``'s restoration failure and ``p2_staged.json``
a ``p2`` run whose finishing call took stages, both at the default
tolerances and at the former defaults ``alpha = 0.1``, ``sigma_min =
1/16`` and ``M = 16``.
"""

import base64
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    TABLES,
    assert_reloads_equal,
    edit_packed,
    first_trial,
    make_highdim,
)

from bira.cli import EXIT_AUDIT, EXIT_BUDGET, main
from bira.diagnostics import audit
from bira.oracle import problem_by_name
from bira.core import (
    FAILURE_KINDS,
    RESTORATION_STATUSES,
    RUN_STATUSES,
    AlgorithmParams,
    PrecisionLevel,
    SchemaError,
)
from bira.qp import SolveCertificate
from bira.solver import bira_run
from bira.trace import (
    CALL_TABLE,
    CERT_FIELDS,
    RECORD_TABLE,
    SQUARE_MAX,
    TRACE_VERSION,
    RestorationOutcome,
    RunReport,
    read_table,
    read_trace,
    read_vector,
    trace_bytes,
    write_table,
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
    outcomes = report.calls
    assert outcomes
    assert all(isinstance(out, RestorationOutcome) for out in outcomes)
    levels = [report.start["y"], report.final_y]
    levels += [y for rec in report.records for y in (rec.y_k, rec.y_R)]
    levels += [out.y_R for out in outcomes]
    assert all(isinstance(y, PrecisionLevel) for y in levels)
    certs = [rec.tangent_cert for rec in report.records if not rec.stopped]
    certs += [cert for out in outcomes for _, cert in out.trials]
    assert certs
    assert all(isinstance(cert, SolveCertificate) for cert in certs)


@pytest.mark.parametrize("name", SAVED)
def test_a_saved_trace_at_a_former_default_audits_clean(name):
    # the audit replays each search's start with the alpha the trace
    # writes, not the default of the reading code
    report = read_trace(DATA / name)
    assert report.params.alpha == 0.1 != AlgorithmParams.defaults().alpha
    problem = problem_by_name(report.problem_name, report.params)
    assert audit(report, problem).ok


def test_the_saved_traces_are_the_cases_they_stand_for():
    failure = read_trace(DATA / "p3_failure.json")
    assert failure.status == "RestorationFailure"
    assert failure.failure_info["kind"] == "possible_infeasibility"
    staged = read_trace(DATA / "p2_staged.json")
    assert staged.status == "Converged"
    eps_opt = staged.tolerances["eps_opt"]
    finishing = [rec for prev, rec in zip(staged.records, staged.records[1:])
                 if prev.stationarity_residual <= eps_opt]
    assert finishing[0].resta.stages > 0


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


@pytest.mark.parametrize("status", RESTORATION_STATUSES)
def test_every_restoration_status_round_trips(status):
    # the failing call writes no status: it is its failure kind when that
    # is a restoration status, and restored otherwise
    kind = status if status in FAILURE_KINDS else FAILURE_KINDS[1]
    d = json.loads((DATA / "p3_failure.json").read_text())
    d["failure_info"]["kind"] = kind
    assert RunReport.from_dict(d).failure_info["resta"].status == status
    assert _round_trips(d)
    # schema v18 wrote the status into the failing call
    d["calls"]["status"] = [status]
    with pytest.raises(SchemaError, match="^calls table fields differ .*"
                       r" unknown \['status'\]"):
        RunReport.from_dict(d)


@pytest.mark.parametrize("kind", FAILURE_KINDS)
def test_every_failure_kind_round_trips(kind):
    # the failing call is the iteration after the last record
    d = json.loads((DATA / "p3_failure.json").read_text())
    d["failure_info"]["kind"] = kind
    back = RunReport.from_dict(d)
    assert back.failure_info["kind"] == kind
    assert list(back.failure_info) == ["kind", "resta"]
    assert len(back.records) == 0
    assert _round_trips(d)


def test_a_failure_after_records_reloads_its_iteration():
    # p2 at r = 0.2 fails in iteration 1, after one record; the report and
    # the trace hold the kind and the call, and the iteration is the
    # record count
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "r": 0.2})
    rep = bira_run(problem_by_name("p2", params), params)
    assert rep.failure_info["kind"] == "precision_outpaced_feasibility"
    assert list(rep.failure_info) == ["kind", "resta"]
    assert len(rep.records) == 1
    d = json.loads(json.dumps(rep.to_dict()))
    assert list(d["failure_info"]) == ["kind"]
    assert len(d["calls"]["z_steps"]) == 2
    assert len(RunReport.from_dict(d).records) == 1
    assert_reloads_equal(rep)


@pytest.mark.parametrize("saved,rows", [
    ("p2_staged.json", "one row per record, 9"),
    ("p3_failure.json", "one row per record and the failing call, 1"),
], ids=["records", "failing_call"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_a_calls_table_of_other_than_one_row_per_call_is_refused(
        tmp_path, capsys, saved, rows, extra):
    d = json.loads((DATA / saved).read_text())
    calls = read_table(d["calls"], CALL_TABLE, "calls")
    calls = calls[:-1] if extra < 0 else calls + calls[-1:]
    d["calls"] = write_table(calls, CALL_TABLE)
    _refused(tmp_path, capsys, d,
             f"calls table must hold {rows}, got {len(calls)}")


@pytest.mark.parametrize("saved", SAVED)
@pytest.mark.parametrize("extra", [-1, 1])
def test_trial_counts_that_do_not_sum_to_the_trials_rows_are_refused(
        tmp_path, capsys, saved, extra):
    d = json.loads((DATA / saved).read_text())
    d["calls"]["trials"][-1] += extra
    total = sum(d["calls"]["trials"])
    _refused(tmp_path, capsys, d, f"calls column 'trials' counts {total}"
             f" trials, but the trials table holds {total - extra} rows")


@pytest.mark.parametrize("field", ["iteration", "resta"])
def test_a_v22_failure_with_its_call_is_refused(tmp_path, capsys, field):
    # schema v18 wrote the failing call's iteration, and schema v22 the
    # call itself, as a one-row table
    d = json.loads((DATA / "p3_failure.json").read_text())
    d["failure_info"][field] = d["calls"] if field == "resta" else 0
    _refused(tmp_path, capsys, d, "failure info fields differ from the"
             rf" schema: missing \[\], unknown \['{field}'\]")


def _columns(table, spec):
    """Every column of a written table that is not a table itself, nested
    tables' included: a list, or the string of a packed column."""
    for name in spec.columns:
        if name in spec.nested:
            yield from _columns(table[name], spec.nested[name])
        else:
            yield table[name]


def test_a_run_without_records_writes_every_column_empty():
    payload = json.loads((DATA / "p3_failure.json").read_text())
    columns = list(_columns(payload["records"], RECORD_TABLE))
    assert len(columns) > len(RECORD_TABLE.columns)
    assert all(column in ([], "") for column in columns)
    assert RunReport.from_dict(payload).records == []


def test_zero_tangent_steps_round_trip_as_null_x_next():
    # every tangent step of this problem snaps to zero, so each record's
    # x_next is its x_R and is written as null; the last record stopped
    # the run, took no step and has no x_next
    rep = bira_run(make_highdim())
    assert len(rep.records) > 1 and rep.records[-1].stopped
    text = json.dumps(rep.to_dict())
    d = json.loads(text)
    assert d["records"]["x_next"] == [None] * len(rep.records)
    back = RunReport.from_dict(d)
    assert json.dumps(back.to_dict()) == text
    assert back.records[-1].x_next is None
    for rec, got in zip(rep.records[:-1], back.records):
        assert got.k == rec.k
        np.testing.assert_array_equal(got.x_next, rec.x_R)
    assert_reloads_equal(rep)


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
    ("p2_staged.json", lambda d, v: d["calls"]["x_R"].__setitem__(1, v),
     "iteration record 1: x_R"),
    ("p2_staged.json", lambda d, v: d["records"]["x_next"].__setitem__(1, v),
     "iteration record 1: x_next"),
    ("p3_failure.json", lambda d, v: d["calls"]["x_R"].__setitem__(-1, v),
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


def test_an_empty_start_point_is_refused(tmp_path, capsys):
    # a run without records takes n from the start point alone
    trace = tmp_path / "t.json"
    assert main(["run", "--problem", "p4", "--budget", "0",
                 "--out", str(trace)]) == EXIT_BUDGET
    d = json.loads(trace.read_text())
    d["start"]["x"] = ""
    with pytest.raises(SchemaError, match="^start x must have at least one"):
        RunReport.from_dict(d)
    trace.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    assert capsys.readouterr().err == (
        "error: start x must have at least one coordinate\n")


def _through_json(report):
    """``(written text, report loaded back from it)``."""
    text = json.dumps(report.to_dict())
    return text, RunReport.from_dict(json.loads(text))


def _bits(certs):
    return [np.array([getattr(c, name) for name in CERT_FIELDS]).tobytes()
            for c in certs]


def test_certificate_columns_round_trip_bit_for_bit():
    # the step norm feeds the next search's start when the trace loads, so
    # it takes the edge value that start can take
    edge = SolveCertificate(1.7e308, 5e-324, -0.0)
    rep = read_trace(DATA / "p2_staged.json")
    rec = rep.records[1]
    trials = ((3, edge), *rec.resta.trials)
    rep.records[1] = dataclasses.replace(
        rec, tangent_cert=edge,
        resta=dataclasses.replace(rec.resta, trials=trials))
    text, back = _through_json(rep)
    assert json.dumps(back.to_dict()) == text
    assert _bits([back.records[1].tangent_cert]) == _bits([edge])
    got = back.records[1].resta.trials
    assert [j for j, _ in got] == [j for j, _ in trials]
    assert _bits(cert for _, cert in got) == _bits(cert for _, cert in trials)


def test_records_with_zero_one_and_many_trials_round_trip():
    rep = read_trace(DATA / "p2_staged.json")
    rec = rep.records[0]
    rep.records[0] = dataclasses.replace(
        rec, resta=dataclasses.replace(rec.resta, trials=()))
    counts = [rec.resta.inner_desc_tests for rec in rep.records]
    assert counts[0] == 0 and 1 in counts and max(counts) > 1
    text, back = _through_json(rep)
    assert json.dumps(back.to_dict()) == text
    assert json.loads(text)["calls"]["trials"] == counts
    for rec, got in zip(rep.records, back.records):
        assert _bits(c for _, c in got.resta.trials) == _bits(
            c for _, c in rec.resta.trials)
        assert got.resta.trials == rec.resta.trials


#: Every certificate table of a trace: ``(saved trace, path to the table,
#: its name in a refusal of a column)``.
CERT_TABLES = [
    ("p2_staged.json", ("records", "tangent_cert"), "records tangent_cert"),
    ("p2_staged.json", ("trials",), "trials"),
    ("p3_failure.json", ("trials",), "trials"),
]
CERT_TABLE_IDS = ["tangent_cert", "trials", "failure_trials"]


def _refused(tmp_path, capsys, d, message):
    """Assert that the trace payload ``d`` is refused with ``message``, in
    process and by ``bira audit``."""
    with pytest.raises(SchemaError, match=f"^{message}"):
        RunReport.from_dict(d)
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    err = capsys.readouterr().err
    assert re.match(f"error: {message}", err), err
    assert "Traceback" not in err


#: Packed columns a trace refuses, each as a function of the column's
#: values, with the refusal's message after the table's name.
BAD_COLUMNS = [
    # schema v12 wrote each column as a list of numbers
    (lambda v: v.tolist(), "column 'step_norm' must be a base64 string of"
     " float64 bytes, got list"),
    (lambda v: "@@@@" + write_vector(v), "column 'step_norm' is not valid"
     " base64"),
    (lambda v: write_vector(v) + "A", "column 'step_norm' is not valid"
     " base64"),
    (lambda v: write_vector(v)[:-4], "column 'step_norm' holds .* bytes,"
     " not whole float64 coordinates"),
    # the doubling counts, or the records, set a column's length
    (lambda v: write_vector(v[:-1]),
     "table columns differ in length: .*'step_norm'"),
]
BAD_COLUMN_IDS = ["v12_list", "bad_character", "bad_length", "partial_value",
                  "one_value_short"]


@pytest.mark.parametrize("saved,path,table", CERT_TABLES, ids=CERT_TABLE_IDS)
@pytest.mark.parametrize("bad,message", BAD_COLUMNS, ids=BAD_COLUMN_IDS)
def test_a_bad_packed_column_is_refused_naming_it(tmp_path, capsys, saved,
                                                  path, table, bad, message):
    d = json.loads((DATA / saved).read_text())
    node = d
    for key in path:
        node = node[key]
    # a stopped record writes a null step norm, the quiet NaN
    node["step_norm"] = bad(read_vector(node["step_norm"], "step_norm",
                                        finite=False))
    _refused(tmp_path, capsys, d, f"{table} {message}")


@pytest.mark.parametrize("saved,path,table", CERT_TABLES, ids=CERT_TABLE_IDS)
def test_the_retired_cauchy_ratio_column_is_refused_naming_it(
        tmp_path, capsys, saved, path, table):
    # schema v20 wrote a Cauchy ratio in every certificate table; an exact
    # solve meets the Cauchy decrease by construction, so no trace writes it
    d = json.loads((DATA / saved).read_text())
    node = d
    for key in path:
        node = node[key]
    node["kappa_phi_ratio"] = node["step_norm"]
    _refused(tmp_path, capsys, d, re.escape(
        f"{table} table fields differ from the schema: missing [],"
        " unknown ['kappa_phi_ratio']"))


#: Non-finite values a run never writes that no column layout rules out,
#: each refused with a message that names its field, and the record for a
#: record's value: ``(edit of the decoded p2 trace, refusal)``.  The walk
#: of the layouts below refuses every other.
NON_FINITE = [
    (lambda t: t["start"].update(f=math.inf),
     "start field 'f' must not be inf"),
    (lambda t: t["start"].update(h=math.inf),
     "start field 'h' must not be inf"),
    # an infinite noise scale made the oracle error bound infinite
    (lambda t: t["constants_basis"]["extras"].update(noise_scale_f=math.inf),
     "extras field 'noise_scale_f' must not be inf"),
    # a NaN is the null of a nullable column, which a record that searched
    # a tangent step does not write
    (lambda t: t["records"]["f_xR_yR"].__setitem__(3, math.nan),
     "iteration record 3 field 'f_xR_yR' must not be nan"),
    *((lambda t, name=name: t["records"]["tangent_cert"][name].__setitem__(
        3, math.nan),
       f"iteration record 3: tangent_cert field '{name}' must not be nan")
      for name in CERT_FIELDS),
]
NON_FINITE_IDS = ["start_f", "start_h", "extras_noise_scale_f",
                  "f_xR_yR_nan", *(f"{name}_nan" for name in CERT_FIELDS)]


@pytest.mark.parametrize("edit,message", NON_FINITE, ids=NON_FINITE_IDS)
def test_a_non_finite_value_is_refused_naming_it(tmp_path, capsys, edit,
                                                 message):
    d = json.loads((DATA / "p2_staged.json").read_text())
    edit_packed(d, edit)
    _refused(tmp_path, capsys, d, message)


#: JSON values that a trace refuses where no table layout rules, each
#: written into the p2 trace: ``(path to the value, value, refusal)``.  An
#: int that no float holds is refused before any check converts it, since
#: float(10**400) raises OverflowError.
BAD_JSON = [
    (("start", "f"), 10**400,
     "start field 'f' must be a number, got int past the float range"),
    (("start", "h"), 10**400,
     "start field 'h' must be a number, got int past the float range"),
    (("start", "y", 0), 10**400, "start y must be a list of two numbers"),
    (("start", "y"), [-0.5, 0.5],
     "start y: precision components must be nonnegative"),
    (("constants_basis", "extras", "noise_scale_f"), 10**400,
     "extras field 'noise_scale_f' must be a number"),
    (("constants_basis", "problem_constants", "L_f"), 10**400,
     "problem constants field 'L_f' must be a number"),
    (("params", "M"), 10**400, "params field 'M' must be a number"),
    (("tolerances", "eps_opt"), 10**400,
     "tolerances field 'eps_opt' must be a number"),
    (("tolerances", "eps_opt"), 0.0, "tolerances must be positive and finite"),
    # json.loads reads Infinity, which no run writes
    (("tolerances", "eps_opt"), math.inf,
     "tolerances must be positive and finite"),
    (("ledger_totals", "h_evals"), 10**400,
     "ledger totals field 'h_evals' must be a nonnegative integer"),
    (("budget",), 10**400, "budget must be a nonnegative integer"),
    (("status",), "Bogus", "unknown status 'Bogus'"),
    (("status",), "RestorationFailure", "failure info must be written"
     " exactly when the status is RestorationFailure"),
    (("failure_info",), {"kind": "insufficient_contraction"}, "failure info"
     " must be written exactly when the status is RestorationFailure"),
    (("records",), 3, "records table must be a JSON object"),
    (("calls", "z_steps"), 3, "calls column 'z_steps' must be a JSON list"),
]


@pytest.mark.parametrize("path,value,message", BAD_JSON, ids=[
    ".".join(map(str, path)) + "=" + ("10**400" if value == 10**400
                                      else repr(value))
    for path, value, _ in BAD_JSON])
def test_a_bad_json_value_is_refused_naming_it(tmp_path, capsys, path, value,
                                               message):
    d = json.loads((DATA / "p2_staged.json").read_text())
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    _refused(tmp_path, capsys, d, re.escape(message))


#: Fields that a trace refuses to lack or to hold, each dropped from the
#: p2 trace where it writes one and added where it does not: ``(path to the
#: field, the name a refusal gives the object or table that holds it)``.
#: Most added ones are fields of former schemas, or fields that follow from
#: written ones.
FIELDS = [
    (("status",), "trace"),
    (("records", "f_xR_yR"), "records table"),
    # a record's position in the table is its k
    (("records", "k"), "records table"),
    (("records", "g_yk"), "records table"),
    (("records", "mu_k"), "records table"),
    (("records", "tangent_cert", "step_norm"), "records tangent_cert table"),
    (("records", "tangent_cert", "kappa_ratio"),
     "records tangent_cert table"),
    (("records", "tangent_cert", "tangent_violation"),
     "records tangent_cert table"),
    (("calls", "z_steps"), "calls table"),
    # a recorded call is restored
    (("calls", "status"), "calls table"),
    (("calls", "inner_desc_tests"), "calls table"),
    (("calls", "sigma_history"), "calls table"),
    (("calls", "certificates"), "calls table"),
    (("calls", "y_R", "g"), "calls y_R table"),
    (("trials", "kappa_ratio"), "trials table"),
    # the solve targets are constants of the analysis
    (("constants_basis", "kappas"), "constants basis"),
    (("constants_basis", "problem_constants", "L_f"), "problem constants"),
    (("constants_basis", "problem_constants", "L_g"), "problem constants"),
    (("params", "bogus"), "params"),
    (("ledger_totals", "h_evals"), "ledger totals"),
    (("start", "f"), "start"),
    (("tolerances", "eps_feas"), "tolerances"),
]


@pytest.mark.parametrize("path,what", FIELDS,
                         ids=[".".join(path) for path, _ in FIELDS])
def test_a_field_off_the_schema_is_refused_naming_it(tmp_path, capsys, path,
                                                     what):
    d = json.loads((DATA / "p2_staged.json").read_text())
    *parents, name = path
    node = d
    for key in parents:
        node = node[key]
    missing, unknown = ([name], []) if name in node else ([], [name])
    if missing:
        del node[name]
    else:
        node[name] = 0
    _refused(tmp_path, capsys, d, re.escape(
        f"{what} fields differ from the schema: missing {missing},"
        f" unknown {unknown}"))


@pytest.mark.parametrize("kind", [7, "trivial", "pdp"])
def test_an_unknown_failure_kind_is_refused(tmp_path, capsys, kind):
    # a call with nothing to restore is restored, and the exact shortcut
    # is gone: neither is a kind
    d = json.loads((DATA / "p3_failure.json").read_text())
    d["failure_info"]["kind"] = kind
    _refused(tmp_path, capsys, d, re.escape(f"unknown failure kind {kind!r}"))


def test_a_trace_that_is_not_an_object_is_refused(tmp_path, capsys):
    d = json.loads((DATA / "p2_staged.json").read_text())
    _refused(tmp_path, capsys, [d], "trace must be a JSON object")


@pytest.mark.parametrize("version", [*range(1, TRACE_VERSION),
                                     TRACE_VERSION + 1, None])
def test_the_version_is_read_before_the_fields(tmp_path, capsys, version):
    # the version decides the schema: a trace of another version, or of
    # none, is refused by its version, though it holds a field of none
    d = json.loads((DATA / "p2_staged.json").read_text())
    d["bogus"] = 0
    if version is None:
        del d["trace_version"]
    else:
        d["trace_version"] = version
    _refused(tmp_path, capsys, d, f"trace version {version} not supported")


def _cells(spec, path=()):
    """``(path, layout, column)`` of every column of a table laid out by
    ``spec`` that is not a nested table, nested tables' included: the path
    of the nested table that holds it."""
    for name in spec.columns:
        if name in spec.nested:
            yield from _cells(spec.nested[name], (*path, name))
        else:
            yield path, spec, name


def _forbidden(spec, name):
    """One value of each rule the layout ``spec`` declares for its column
    ``name`` that breaks it, with the refusal after the field's name:
    ``[(value, refusal)]``."""
    if name in spec.counts:
        # schema v22 wrote each trial's weight, a float, in place of its
        # doubling count
        return [(-1, "must be a nonnegative integer, got -1"),
                (2.0, "must be a nonnegative integer, got 2.0"),
                (True, "must be a nonnegative integer, got True"),
                (10**400, "must be a nonnegative integer, got int past the"
                 " float range")]
    if name not in spec.packed:
        return []
    bad = [(math.inf, "must not be inf"), (-math.inf, "must not be -inf")]
    if name not in spec.nullable:
        bad.append((math.nan, "must not be nan"))
    if name in spec.nonnegative:
        bad.append((-1.0, "must be nonnegative, got -1.0"))
    if name in spec.squared:
        bad.append((1e200, "1e+200 squares past the float range"))
    return bad


#: ``(table, path, layout, column)`` of every column of the three tables
#: of a trace.
CELLS = [(table, path, sub, name) for table, spec in TABLES.items()
         for path, sub, name in _cells(spec)]

#: ``(table, path, column, value, row name, refusal)`` of every forbidden
#: value of every column of the three tables of a trace.
CASES = [(table, path, name, value, sub.row, refusal)
         for table, path, sub, name in CELLS
         for value, refusal in _forbidden(sub, name)]
CALL_CASES = [case for case in CASES if case[0] != "records"]


def _case_ids(cases):
    return [".".join((table, *path, f"{name}="
                      + ("10**400" if value == 10**400 else repr(value))))
            for table, path, name, value, _, _ in cases]


def _edit_column(d, table, path, name, edit):
    """Call ``edit`` on the column ``name``, at ``path`` in the written
    ``table`` of the trace ``d``, as a list, a packed one decoded, and
    write back what it returns."""
    node, spec = d[table], TABLES[table]
    for key in path:
        node, spec = node[key], spec.nested[key]
    if name not in spec.packed:
        node[name] = edit(node[name])
        return
    column = edit(read_vector(node[name], name, finite=False).tolist())
    node[name] = write_vector(column)


def _put(d, table, path, name, k, value):
    """Write ``value`` as the entry of column ``name``, at ``path`` in the
    written ``table`` of the trace ``d``, that belongs to call ``k``: row
    ``k`` of the records or calls table, or the first trial of call ``k``
    in the trials table (the last trial where ``k`` is -1)."""
    if table == "trials" and k >= 0:
        k = first_trial(d, k)

    def edit(column):
        column[k] = value
        return column
    _edit_column(d, table, path, name, edit)


@pytest.mark.parametrize("table,path,name,value,row,refusal", CASES,
                         ids=_case_ids(CASES))
def test_every_record_column_refuses_each_value_its_layout_forbids(
        tmp_path, capsys, table, path, name, value, row, refusal):
    # walks the layouts themselves, so a new column is covered
    d = json.loads((DATA / "p2_staged.json").read_text())
    _put(d, table, path, name, 2, value)
    where = ": ".join(filter(None, ("iteration record 2", row)))
    _refused(tmp_path, capsys, d,
             re.escape(f"{where} field '{name}' {refusal}"))


@pytest.mark.parametrize("table,path,name,value,row,refusal", CALL_CASES,
                         ids=_case_ids(CALL_CASES))
def test_every_field_of_the_failing_call_refuses_each_value_it_forbids(
        tmp_path, capsys, table, path, name, value, row, refusal):
    # the failing call is the last row of the calls table, and its trials
    # the last rows of the trials table
    d = json.loads((DATA / "p3_failure.json").read_text())
    _put(d, table, path, name, -1, value)
    _refused(tmp_path, capsys, d,
             re.escape(f"failure info: {row} field '{name}' {refusal}"))


CELL_IDS = [".".join((table, *path, name)) for table, path, _, name in CELLS]


@pytest.mark.parametrize("table,path,_spec,name", CELLS, ids=CELL_IDS)
def test_a_column_one_entry_short_is_refused_naming_its_table(
        tmp_path, capsys, table, path, _spec, name):
    d = json.loads((DATA / "p2_staged.json").read_text())
    _edit_column(d, table, path, name, lambda column: column[:-1])
    _refused(tmp_path, capsys, d, re.escape(
        f"{' '.join((table, *path))} table columns differ in length: ")
        + f".*'{name}'")


PACKED = [(table, path, name) for table, path, spec, name in CELLS
          if name in spec.packed]


@pytest.mark.parametrize("table,path,name", PACKED,
                         ids=[".".join((table, *path, name))
                              for table, path, name in PACKED])
def test_a_json_number_in_a_packed_column_is_refused(tmp_path, capsys, table,
                                                      path, name):
    # schema v18 wrote the failing call's floats as JSON numbers; p3 writes
    # no record, so each records column is the empty string
    d = json.loads((DATA / "p3_failure.json").read_text())
    node = d[table]
    for key in path:
        node = node[key]
    node[name] = 1.0
    _refused(tmp_path, capsys, d, re.escape(
        f"{' '.join((table, *path))} column '{name}' must be a base64 string"
        " of float64 bytes, got float"))


def _restored_nothing_and_raised_f(t):
    """Record 3 claims a call that left its violation as it was and raised
    the objective by 1: no penalty weight lowers the merit then."""
    calls = t["calls"]
    calls["h_xR_yR"][3] = calls["h_xk_yR"][3]
    t["records"]["f_xR_yR"][3] = t["records"]["f_xk_yR"][3] + 1.0


#: Records whose replayed fields (:data:`~bira.trace.DERIVED`) cannot be
#: rebuilt, or whose values the replay cannot take, each refused with a
#: message that names the record: ``(edit of the decoded p2 trace,
#: refusal)``.  A step norm whose square overflows is refused by its
#: column's ``squared`` rule before any replay.
UNREPLAYABLE = [
    (lambda t: t["records"]["ell_count"].__setitem__(3, 0),
     "iteration record 3 field 'ell_count' is 0, but the run goes on after"
     " it"),
    (lambda t: t["records"]["ell_count"].__setitem__(3, 2000),
     "iteration record 3: ell_count 2000 doubles the tangent weight past"
     " the float range"),
    (_restored_nothing_and_raised_f,
     "iteration record 3: the replayed penalty update finds no weight:"
     " penalty update left no positive weight"),
    # the record that stopped the run claims a search it wrote no value of
    (lambda t: t["records"]["ell_count"].__setitem__(8, 1),
     "iteration record 8 field 'f_xk_yR' must not be nan"),
]
UNREPLAYABLE_IDS = ["ell_count_zero", "ell_count_past_the_float_range",
                    "no_penalty_weight", "stopped_record_claims_a_search"]


@pytest.mark.parametrize("edit,message", UNREPLAYABLE, ids=UNREPLAYABLE_IDS)
def test_a_record_that_cannot_be_replayed_is_refused_naming_it(
        tmp_path, capsys, edit, message):
    d = json.loads((DATA / "p2_staged.json").read_text())
    edit_packed(d, edit)
    _refused(tmp_path, capsys, d, message)


def _moved(d, edit):
    """The trace ``d`` with its list of record rows edited by ``edit``."""
    rows = read_table(d["records"], RECORD_TABLE, "records")
    d["records"] = write_table(edit(rows), RECORD_TABLE)
    return d


def _followed_by_p3s_failure(d):
    """The trace ``d`` ended by p3's failing call, its last call row and
    trials appended to the calls and trials tables."""
    p3 = json.loads((DATA / "p3_failure.json").read_text())
    d.update(status="RestorationFailure", failure_info=p3["failure_info"])
    for table in ("calls", "trials"):
        spec = TABLES[table]
        d[table] = write_table(read_table(d[table], spec, table)
                               + read_table(p3[table], spec, table), spec)


@pytest.mark.parametrize("edit,where", [
    # the stopped record moved to position 3
    (lambda d: _moved(d, lambda rows: rows[:3] + rows[-1:] + rows[3:-1]), 3),
    # a restoration failure after the record that stopped the run
    (_followed_by_p3s_failure, 8),
], ids=["moved_before_the_last_record", "followed_by_a_failure"])
def test_only_the_last_step_of_a_run_may_stop_it(tmp_path, capsys, edit,
                                                 where):
    d = json.loads((DATA / "p2_staged.json").read_text())
    assert d["records"]["ell_count"][-1] == 0
    edit(d)
    _refused(tmp_path, capsys, d, f"iteration record {where} field"
             " 'ell_count' is 0, but the run goes on after it")


def test_a_stopped_run_relabelled_out_of_budget_fails_its_stopping_test(
        tmp_path, capsys):
    # the relabelled trace loads, and its final point is still the last
    # restored point: the stopped record took no step past it
    d = json.loads((DATA / "p2_staged.json").read_text())
    d["status"] = "BudgetExceeded"
    back = RunReport.from_dict(d)
    assert back.final_x.tobytes() == back.records[-1].x_R.tobytes()
    assert "stopping_test" in [c.name for c in audit(back).failures]
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == EXIT_AUDIT
    got = capsys.readouterr()
    assert re.search("^stopping_test +FAIL", got.out, re.M)
    assert "Traceback" not in got.err


#: Tangent certificate values at the edges of the arithmetic of the
#: replayed search start (:func:`~bira.core.tangent_mu_start`), each
#: written into a record of the p2 trace: a step norm whose square
#: underflows to 0, and model decreases at both ends of the float range.
#: Each loads and fails the audit rows that bound it, and, for a decrease
#: far past its bound, the next record's, whose replayed weight it moved:
#: ``(field, value, record, {failing check: iteration of its row})``.
#: The model's floor, -L_f times the step norm, bounds a decrease that no
#: replayed start reads: that of record 7, the last to search a step.
EDGE_CERTIFICATES = [
    ("step_norm", 5e-324, 3,
     {"residual_vs_step": 3, "tangent_model_floor": 3}),
    ("model_decrease", 1e308, 3, {"tangent_model_decrease": 3}),
    ("model_decrease", -1e308, 3,
     {"tangent_model_decrease": 4, "tangent_model_floor": 3}),
    ("model_decrease", -1e308, 7, {"tangent_model_floor": 7}),
]


@pytest.mark.parametrize("field,value,record,failing", EDGE_CERTIFICATES,
                         ids=["step_norm_underflow", "model_decrease_max",
                              "model_decrease_min",
                              "model_decrease_min_of_the_last_search"])
def test_an_edge_certificate_value_loads_and_fails_its_audit(
        tmp_path, capsys, field, value, record, failing):
    d = json.loads((DATA / "p2_staged.json").read_text())
    edit_packed(d, lambda t: t["records"]["tangent_cert"][field]
                .__setitem__(record, value))
    back = RunReport.from_dict(d)
    assert back.records[record + 1].stopped == (record == 7)
    assert getattr(back.records[record].tangent_cert, field) == value
    failed = {c.name: c.detail for c in audit(back).failures}
    assert list(failed) == list(failing)
    for check, where in failing.items():
        assert failed[check].startswith(f"iteration {where}:")
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == EXIT_AUDIT
    assert "Traceback" not in capsys.readouterr().err


def test_the_residual_bound_is_the_largest_square_root_in_range():
    # the column test and the per-record message share SQUARE_MAX: the
    # residual at the bound loads and squares to a finite float, the next
    # float up is refused
    assert math.isfinite(SQUARE_MAX ** 2)
    for val, ok in ((SQUARE_MAX, True),
                    (float(np.nextafter(SQUARE_MAX, math.inf)), False)):
        d = json.loads((DATA / "p2_staged.json").read_text())
        edit_packed(d, lambda t, val=val: t["records"][
            "stationarity_residual"].__setitem__(3, val))
        if ok:
            back = RunReport.from_dict(d)
            assert back.records[3].stationarity_residual == val
        else:
            with pytest.raises(SchemaError, match="squares past"):
                RunReport.from_dict(d)


def test_scalar_columns_round_trip_bit_for_bit():
    # the last record's values, and the value the record before it hands
    # on: none of them feeds a replayed field, since the last record
    # stopped the run
    rep = read_trace(DATA / "p2_staged.json")
    rec = rep.records[-1]
    rep.records[-1] = dataclasses.replace(
        rec, stationarity_residual=-0.0,
        resta=dataclasses.replace(rec.resta, max_step_over_h=5e-324,
                                  y_R=PrecisionLevel(-0.0, 5e-324)))
    rep.records[-2] = dataclasses.replace(rep.records[-2],
                                          f_xnext_ynext=5e-324)
    text, back = _through_json(rep)
    assert json.dumps(back.to_dict()) == text
    got = back.records[-1]
    values = [got.stationarity_residual, back.records[-2].f_xnext_ynext,
              got.resta.max_step_over_h, got.y_R.gf, got.y_R.gh]
    assert np.array(values).tobytes() == np.array(
        [-0.0, 5e-324, 5e-324, -0.0, 5e-324]).tobytes()


#: The bytes of the quiet NaN that writes a null: little-endian float64
#: 0x7ff8000000000000.
NULL_BYTES = bytes(6) + b"\xf8\x7f"


@pytest.mark.parametrize("problem,path", [
    (lambda: problem_by_name("p4"), ("calls", "max_step_over_h")),
], ids=["max_step_over_h"])
def test_a_null_round_trips_as_the_quiet_nan(problem, path):
    rep = bira_run(problem())
    assert rep.records
    text, back = _through_json(rep)
    assert json.dumps(back.to_dict()) == text
    column = json.loads(text)
    for key in path:
        column = column[key]
    assert base64.b64decode(column) == NULL_BYTES * len(rep.records)
    for rec in back.records:
        holder = rec.resta if path[0] == "calls" else rec
        assert getattr(holder, path[-1]) is None


#: The size of each default run's trace: ``(bytes of json.dumps, as the
#: benchmark counts them, bytes of the file bira run --out writes)``.  A
#: change of the schema shows here as a named diff.
TRACE_SIZES = {
    "p1": (3120, 4177),
    "p2": (3373, 4706),
    "p3": (1830, 2453),
    "p4": (1745, 2394),
}


@pytest.mark.parametrize("name", TRACE_SIZES)
def test_a_default_trace_keeps_its_size(name):
    rep = bira_run(problem_by_name(name))
    assert (len(json.dumps(rep.to_dict()).encode("utf-8")),
            len(trace_bytes(rep))) == TRACE_SIZES[name]
