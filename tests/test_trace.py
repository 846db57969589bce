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
from conftest import assert_reloads_equal, edit_packed, make_highdim

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
    CERT_FIELDS,
    OUTCOME_TABLE,
    RECORD_TABLE,
    SQUARE_MAX,
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
    outcomes = [rec.resta for rec in report.records]
    if report.failure_info is not None:
        outcomes.append(report.failure_info["resta"])
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
    d["status"] = "Bogus"
    with pytest.raises(SchemaError, match="unknown status"):
        RunReport.from_dict(d)


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
    d["failure_info"]["resta"]["status"] = [status]
    with pytest.raises(SchemaError, match="^failure info: restoration outcome"
                       r" table fields differ .* unknown \['status'\]"):
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
    d["failure_info"]["kind"] = "Bogus"
    with pytest.raises(SchemaError, match="unknown failure kind"):
        RunReport.from_dict(d)


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
    assert list(d["failure_info"]) == ["kind", "resta"]
    assert len(RunReport.from_dict(d).records) == 1
    assert_reloads_equal(rep)


@pytest.mark.parametrize("rows", [0, 2])
def test_a_failing_call_of_other_than_one_row_is_refused(tmp_path, capsys,
                                                         rows):
    d = json.loads((DATA / "p3_failure.json").read_text())
    out = read_trace(DATA / "p3_failure.json").failure_info["resta"]
    d["failure_info"]["resta"] = write_table([out.row()] * rows,
                                             OUTCOME_TABLE)
    _refused(tmp_path, capsys, d, "failure info: restoration outcome table"
             f" must hold one row, got {rows}")


def test_a_v18_failure_with_its_iteration_is_refused(tmp_path, capsys):
    d = json.loads((DATA / "p3_failure.json").read_text())
    d["failure_info"]["iteration"] = 0
    _refused(tmp_path, capsys, d, "failure info fields differ from the"
             r" schema: missing \[\], unknown \['iteration'\]")


def test_a_precision_off_the_quadrant_is_a_schema_error():
    d = read_trace(DATA / "p2_staged.json").to_dict()
    d["start"]["y"] = [-0.5, 0.5]
    with pytest.raises(SchemaError, match="start y"):
        RunReport.from_dict(d)


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
    ("p3_failure.json",
     lambda d, v: d["failure_info"]["resta"]["x_R"].__setitem__(0, v),
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
    trials = ((0.25, edge), *rec.resta.trials)
    rep.records[1] = dataclasses.replace(
        rec, tangent_cert=edge,
        resta=dataclasses.replace(rec.resta, trials=trials))
    text, back = _through_json(rep)
    assert json.dumps(back.to_dict()) == text
    assert _bits([back.records[1].tangent_cert]) == _bits([edge])
    got = back.records[1].resta.trials
    assert [sigma for sigma, _ in got] == [sigma for sigma, _ in trials]
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
    sigma = json.loads(text)["records"]["resta"]["trials"]["sigma"]
    assert list(map(len, sigma)) == counts
    for rec, got in zip(rep.records, back.records):
        assert _bits(c for _, c in got.resta.trials) == _bits(
            c for _, c in rec.resta.trials)
        assert got.resta.trials == rec.resta.trials


#: Every certificate table of a trace: ``(saved trace, path to the table,
#: its name in a refusal of a column, a function that sets one value of
#: record 1, or of the failing call, in the decoded trace, and that value's
#: name in its refusal)``.
CERT_TABLES = [
    ("p2_staged.json", ("records", "tangent_cert"), "records tangent_cert",
     lambda t, name, v: t["records"]["tangent_cert"][name].__setitem__(1, v),
     "iteration record 1: tangent_cert"),
    ("p2_staged.json", ("records", "resta", "trials"), "records resta trials",
     lambda t, name, v: t["records"]["resta"]["trials"][1][name].__setitem__(
         0, v),
     "iteration record 1: restoration trial"),
    ("p3_failure.json", ("failure_info", "resta", "trials"),
     "failure info: restoration outcome trials",
     lambda t, name, v: t["failure_info"]["resta"]["trials"][name].__setitem__(
         0, v),
     "failure info: restoration trial"),
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
    # the number of sigma entries, or of records, sets a column's length
    (lambda v: write_vector(v[:-1]),
     "table columns differ in length: .*'step_norm'"),
]
BAD_COLUMN_IDS = ["v12_list", "bad_character", "bad_length", "partial_value",
                  "one_value_short"]


@pytest.mark.parametrize("saved,path,table,_put,_where", CERT_TABLES,
                         ids=CERT_TABLE_IDS)
@pytest.mark.parametrize("bad,message", BAD_COLUMNS, ids=BAD_COLUMN_IDS)
def test_a_bad_packed_column_is_refused_naming_it(tmp_path, capsys, saved,
                                                  path, table, _put, _where,
                                                  bad, message):
    d = json.loads((DATA / saved).read_text())
    node = d
    for key in path:
        node = node[key]
    # a stopped record writes a null step norm, the quiet NaN
    node["step_norm"] = bad(read_vector(node["step_norm"], "step_norm",
                                        finite=False))
    _refused(tmp_path, capsys, d, f"{table} {message}")


@pytest.mark.parametrize("saved,path,table,_put,_where", CERT_TABLES,
                         ids=CERT_TABLE_IDS)
def test_the_retired_cauchy_ratio_column_is_refused_naming_it(
        tmp_path, capsys, saved, path, table, _put, _where):
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


#: Values a certificate refuses: ``(field, value)``, NaN and infinity in
#: every field.
BAD_VALUES = [(name, value) for name in CERT_FIELDS
              for value in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("saved,_path,_table,put,where", CERT_TABLES,
                         ids=CERT_TABLE_IDS)
@pytest.mark.parametrize("name,value", BAD_VALUES,
                         ids=[f"{name}_{value}" for name, value in BAD_VALUES])
def test_a_bad_certificate_value_is_refused_naming_it(tmp_path, capsys, saved,
                                                      _path, _table, put,
                                                      where, name, value):
    d = json.loads((DATA / saved).read_text())
    edit_packed(d, lambda t: put(t, name, value))
    _refused(tmp_path, capsys, d,
             f"{where} field '{name}' must not be {value!r}")


#: Non-finite values a run never writes, each refused with a message that
#: names its field, and the record for a record's value: ``(saved trace,
#: edit of the decoded trace, refusal)``.  Each edit audited clean, exit
#: 0, while the record scalars were JSON numbers.
NON_FINITE = [
    ("p2_staged.json",
     lambda t: t["records"]["stationarity_residual"].__setitem__(3, math.inf),
     "iteration record 3 field 'stationarity_residual' must not be inf"),
    ("p2_staged.json",
     lambda t: t["records"]["h_xnext_ynext"].__setitem__(3, math.inf),
     "iteration record 3 field 'h_xnext_ynext' must not be inf"),
    ("p2_staged.json",
     lambda t: t["records"]["resta"]["max_step_over_h"].__setitem__(
         3, math.inf),
     "iteration record 3: restoration outcome field 'max_step_over_h' must"
     " not be inf"),
    ("p2_staged.json", lambda t: t["start"].update(f=math.inf),
     "start field 'f' must not be inf"),
    ("p2_staged.json", lambda t: t["start"].update(h=math.inf),
     "start field 'h' must not be inf"),
    # a NaN is a null only in a nullable column
    ("p2_staged.json",
     lambda t: t["records"]["f_xR_yR"].__setitem__(3, math.nan),
     "iteration record 3 field 'f_xR_yR' must not be nan"),
    ("p2_staged.json",
     lambda t: t["records"]["resta"]["max_step_over_h"].__setitem__(
         3, -math.inf),
     "iteration record 3: restoration outcome field 'max_step_over_h' must"
     " not be -inf"),
    ("p3_failure.json",
     lambda t: t["failure_info"]["resta"]["h_xR_yR"].__setitem__(0, math.inf),
     "failure info: restoration outcome field 'h_xR_yR' must not be inf"),
    # an infinite noise scale made the oracle error bound infinite
    ("p2_staged.json",
     lambda t: t["constants_basis"]["extras"].update(noise_scale_f=math.inf),
     "extras field 'noise_scale_f' must not be inf"),
]
NON_FINITE_IDS = ["stationarity_residual", "h_xnext_ynext", "max_step_over_h",
                  "start_f", "start_h", "f_xR_yR_nan",
                  "max_step_over_h_negative_inf",
                  "failure_h_xR_yR", "extras_noise_scale_f"]


@pytest.mark.parametrize("saved,edit,message", NON_FINITE, ids=NON_FINITE_IDS)
def test_a_non_finite_value_is_refused_naming_it(tmp_path, capsys, saved,
                                                 edit, message):
    d = json.loads((DATA / saved).read_text())
    edit_packed(d, edit)
    _refused(tmp_path, capsys, d, message)


#: The JSON numbers of a trace outside its tables, each written as an int
#: that no float holds: ``(path to the value, refusal)``.
PAST_THE_FLOAT_RANGE = [
    (("start", "f"), "start field 'f' must be a number"),
    (("start", "h"), "start field 'h' must be a number"),
    (("start", "y", 0), "start y must be a list of two numbers"),
    (("constants_basis", "extras", "noise_scale_f"),
     "extras field 'noise_scale_f' must be a number"),
    (("constants_basis", "problem_constants", "L_f"),
     "problem constants field 'L_f' must be a number"),
    (("params", "M"), "params field 'M' must be a number"),
    (("tolerances", "eps_opt"), "tolerances field 'eps_opt' must be a number"),
    (("ledger_totals", "h_evals"),
     "ledger totals field 'h_evals' must be a nonnegative integer"),
    (("budget",), "budget must be a nonnegative integer"),
]


@pytest.mark.parametrize("path,message", PAST_THE_FLOAT_RANGE,
                         ids=[".".join(map(str, path))
                              for path, _ in PAST_THE_FLOAT_RANGE])
def test_an_integer_past_the_float_range_is_refused_naming_it(
        tmp_path, capsys, path, message):
    # float(10**400) raises OverflowError: the trace is refused before any
    # check converts it
    d = json.loads((DATA / "p2_staged.json").read_text())
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 10**400
    _refused(tmp_path, capsys, d, re.escape(message))


def _cells(spec, path=(), grouped=False):
    """``(path, layout, column, grouped)`` of every column of a table laid
    out by ``spec`` that is not a nested table, nested tables' included:
    the path of the nested table that holds it, and whether that table
    is, or lies in, a grouped column."""
    for name in spec.columns:
        if name in spec.nested:
            yield from _cells(spec.nested[name], (*path, name),
                              grouped or name in spec.grouped)
        else:
            yield path, spec, name, grouped


def _forbidden(spec, name):
    """One value of each rule the layout ``spec`` declares for its column
    ``name`` that breaks it, with the refusal after the field's name:
    ``[(value, refusal)]``."""
    if name in spec.counts:
        return [(-1, "must be a nonnegative integer, got -1"),
                (1.5, "must be a nonnegative integer, got 1.5"),
                (10**400, "must be a nonnegative integer, got int past the"
                 " float range")]
    if name not in spec.packed + spec.numbers:
        return []
    bad = [(math.inf, "must not be inf"), (-math.inf, "must not be -inf")]
    if name not in spec.nullable:
        bad.append((math.nan, "must not be nan"))
    if name in spec.nonnegative:
        bad.append((-1.0, "must be nonnegative, got -1.0"))
    if name in spec.squared:
        bad.append((1e200, "1e+200 squares past the float range"))
    if name in spec.numbers:
        bad += [("x", "must be a number, got str"),
                (10**400, "must be a number, got int past the float range")]
    return bad


def _cases(spec):
    """``(path, column, grouped, value, row name, refusal)`` of every
    forbidden value of every column of a table laid out by ``spec``."""
    return [(path, name, grouped, value, sub.row, refusal)
            for path, sub, name, grouped in _cells(spec)
            for value, refusal in _forbidden(sub, name)]


def _case_ids(cases):
    return [".".join((*path, f"{name}="
                      + ("10**400" if value == 10**400 else repr(value))))
            for path, name, _, value, _, _ in cases]


def _put(table, spec, name, k, value, grouped=False):
    """Write ``value`` as row ``k``'s entry of column ``name`` of the
    written table ``table`` laid out by ``spec``; in a ``grouped`` table,
    as the first of record ``k``'s rows."""
    if name not in spec.packed:
        column = table[name][k] if grouped else table[name]
        column[0 if grouped else k] = value
        return
    if grouped:
        plain = next(col for col in spec.columns if col not in spec.packed)
        k = sum(map(len, table[plain][:k]))
    column = read_vector(table[name], name, finite=False)
    column[k] = value
    table[name] = write_vector(column)


def _nested(node, spec, path):
    """The part of ``node``, laid out by ``spec``, at ``path``, and its
    layout."""
    for key in path:
        node, spec = node[key], spec.nested[key]
    return node, spec


RECORD_CASES = _cases(RECORD_TABLE)
LONE_CASES = _cases(OUTCOME_TABLE)


@pytest.mark.parametrize("path,name,grouped,value,row,refusal", RECORD_CASES,
                         ids=_case_ids(RECORD_CASES))
def test_every_record_column_refuses_each_value_its_layout_forbids(
        tmp_path, capsys, path, name, grouped, value, row, refusal):
    # walks RECORD_TABLE itself, so a new column is covered by its layout
    d = json.loads((DATA / "p2_staged.json").read_text())
    _put(*_nested(d["records"], RECORD_TABLE, path), name, 2, value, grouped)
    where = ": ".join(filter(None, ("iteration record 2", row)))
    _refused(tmp_path, capsys, d,
             re.escape(f"{where} field '{name}' {refusal}"))


@pytest.mark.parametrize("path,name,grouped,value,row,refusal", LONE_CASES,
                         ids=_case_ids(LONE_CASES))
def test_every_field_of_the_failing_call_refuses_each_value_it_forbids(
        tmp_path, capsys, path, name, grouped, value, row, refusal):
    # the failing call is the one row of a table of OUTCOME_TABLE's layout
    d = json.loads((DATA / "p3_failure.json").read_text())
    _put(*_nested(d["failure_info"]["resta"], OUTCOME_TABLE, path), name, 0,
         value, grouped)
    _refused(tmp_path, capsys, d,
             re.escape(f"failure info: {row} field '{name}' {refusal}"))


LONE_PACKED = [(path, name) for path, spec, name, grouped
               in _cells(OUTCOME_TABLE) if name in spec.packed and not grouped]


@pytest.mark.parametrize("path,name", LONE_PACKED,
                         ids=[".".join((*path, name))
                              for path, name in LONE_PACKED])
def test_a_json_number_in_a_float_column_of_the_failing_call_is_refused(
        tmp_path, capsys, path, name):
    # schema v18 wrote the failing call's floats as JSON numbers
    d = json.loads((DATA / "p3_failure.json").read_text())
    node, _ = _nested(d["failure_info"]["resta"], OUTCOME_TABLE, path)
    node[name] = 1.0
    table = " ".join(("restoration outcome", *path))
    _refused(tmp_path, capsys, d, re.escape(
        f"failure info: {table} column '{name}' must be a base64 string of"
        " float64 bytes, got float"))


def _restored_nothing_and_raised_f(t):
    """Record 3 claims a call that left its violation as it was and raised
    the objective by 1: no penalty weight lowers the merit then."""
    resta = t["records"]["resta"]
    resta["h_xR_yR"][3] = resta["h_xk_yR"][3]
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
    (lambda t: t["records"]["tangent_cert"]["step_norm"].__setitem__(
        3, 1e300),
     "iteration record 3: tangent_cert field 'step_norm' 1e\\+300 squares"
     " past the float range"),
]
UNREPLAYABLE_IDS = ["ell_count_zero", "ell_count_past_the_float_range",
                    "no_penalty_weight", "step_norm_squared_past_the_range"]


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


@pytest.mark.parametrize("edit,where", [
    # the stopped record moved to position 3
    (lambda d: _moved(d, lambda rows: rows[:3] + rows[-1:] + rows[3:-1]), 3),
    # a restoration failure after the record that stopped the run
    (lambda d: d.update(status="RestorationFailure", failure_info=json.loads(
        (DATA / "p3_failure.json").read_text())["failure_info"]), 8),
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


def test_a_residual_the_audit_cannot_square_is_refused_naming_it(
        tmp_path, capsys):
    # residual_summability squares every stationarity residual
    d = json.loads((DATA / "p2_staged.json").read_text())
    edit_packed(d, lambda t: t["records"]["stationarity_residual"]
                .__setitem__(3, 1e200))
    _refused(tmp_path, capsys, d,
             "iteration record 3 field 'stationarity_residual' 1e\\+200"
             " squares past the float range")


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
    (lambda: problem_by_name("p4"), ("resta", "max_step_over_h")),
], ids=["max_step_over_h"])
def test_a_null_round_trips_as_the_quiet_nan(problem, path):
    rep = bira_run(problem())
    assert rep.records
    text, back = _through_json(rep)
    assert json.dumps(back.to_dict()) == text
    column = json.loads(text)["records"]
    for key in path:
        column = column[key]
    assert base64.b64decode(column) == NULL_BYTES * len(rep.records)
    for rec in back.records:
        holder = rec.resta if path[0] == "resta" else rec
        assert getattr(holder, path[-1]) is None


@pytest.mark.parametrize("saved,edit,where", [
    ("p2_staged.json",
     lambda t: t["records"]["resta"]["y_R"]["gh"].__setitem__(1, -0.5),
     "iteration record 1"),
    ("p3_failure.json",
     lambda t: t["failure_info"]["resta"]["y_R"]["gh"].__setitem__(0, -0.5),
     "failure info"),
], ids=["record", "failure_info"])
def test_a_negative_restored_precision_is_a_schema_error(tmp_path, capsys,
                                                         saved, edit, where):
    # PrecisionLevel raises ContractError; the reader reports it as the
    # schema error it is
    d = json.loads((DATA / saved).read_text())
    edit_packed(d, edit)
    _refused(tmp_path, capsys, d,
             f"{where}: y_R field 'gh' must be nonnegative, got -0.5")


#: The size of each default run's trace: ``(bytes of json.dumps, as the
#: benchmark counts them, bytes of the file bira run --out writes)``.  A
#: change of the schema shows here as a named diff.
TRACE_SIZES = {
    "p1": (3264, 4621),
    "p2": (3466, 5153),
    "p3": (2247, 3212),
    "p4": (1795, 2558),
}


@pytest.mark.parametrize("name", TRACE_SIZES)
def test_a_default_trace_keeps_its_size(name):
    rep = bira_run(problem_by_name(name))
    assert (len(json.dumps(rep.to_dict()).encode("utf-8")),
            len(trace_bytes(rep))) == TRACE_SIZES[name]
