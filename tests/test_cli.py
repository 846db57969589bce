import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import edit_packed, record_row

import bira.cli
import bira.oracle
import bira.solver
from bira.cli import CSV_HEADER, main
from bira.core import RUN_STATUSES, AbnormalTermination, InvariantError
from bira.trace import OUTCOME_TABLE, read_vector, write_table, write_vector

#: Golden outputs: the default ``complexity`` CSV and the ``suite`` stdout.
DATA = Path(__file__).resolve().parent / "data"


def test_run_writes_a_trace_and_exits_clean(tmp_path, capsys):
    trace = tmp_path / "p4.json"
    assert main(["run", "--problem", "p4", "--out", str(trace)]) == 0
    got = capsys.readouterr().out
    assert "p4: Converged after 1 iteration(s)" in got
    payload = json.loads(trace.read_text())
    assert payload["status"] == "Converged"
    assert payload["problem_name"] == "p4"


def test_run_repeats_bitwise(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "--problem", "p1", "--out", str(a)]) == 0
    assert main(["run", "--problem", "p1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_infeasible_problem_exit_code(tmp_path, capsys):
    trace = tmp_path / "p3.json"
    assert main(["run", "--problem", "p3", "--out", str(trace)]) == 2
    assert "RestorationFailure" in capsys.readouterr().out
    assert json.loads(trace.read_text())["failure_info"]["kind"] == (
        "possible_infeasibility")


def test_every_run_status_has_its_exit_code():
    assert set(bira.cli._STATUS_EXIT) == set(RUN_STATUSES)
    assert set(bira.cli.EXPECTED_SUITE.values()) <= set(RUN_STATUSES)


def test_budget_exit_code(capsys):
    assert main(["run", "--problem", "p1", "--budget", "2"]) == 3
    assert "BudgetExceeded" in capsys.readouterr().out


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["run", "--problem", "p4", "--config", str(cfg)]) == 1
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [{"N_acce": 2}, {"beta_PDP": 8},
                                 {"sigma_max": 40}, {"beta_c": 1.0},
                                 # derived from sigma_min
                                 {"alpha_R": 0.0078125},
                                 # run settings are flags only
                                 {"eps_opt": 1e-3}, {"problem": "p1"}],
                         ids=["N_acce", "beta_PDP", "sigma_max", "beta_c",
                              "alpha_R", "eps_opt", "problem"])
def test_a_deleted_parameter_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                              cfg):
    evals = []
    real_h = bira.oracle.InexactProblem.eval_h

    def counting_eval_h(self, x, y):
        evals.append(None)
        return real_h(self, x, y)

    monkeypatch.setattr(bira.oracle.InexactProblem, "eval_h", counting_eval_h)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--problem", "p1", "--config", str(path)]) == 1
    assert next(iter(cfg)) in capsys.readouterr().err
    assert evals == []


@pytest.mark.parametrize("cfg", [
    {"N_prec": True}, {"r": "0.5"}, {"theta_0": None}, {"M": 10**400},
], ids=["N_prec_is_a_bool", "r_is_a_string", "theta_0_is_null",
        "M_past_the_float_range"])
def test_a_parameter_that_is_not_a_number_is_a_usage_error(tmp_path, capsys,
                                                           cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--problem", "p1", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert next(iter(cfg)) in err


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "p1", "--budget", "abc"], ["run", "--bogus"],
    ["run"], [], ["complexity", "--jobs", "two"],
], ids=["budget_abc", "unknown_flag", "run_without_problem", "no_command",
        "jobs_two"])
def test_argparse_usage_errors_exit_1(monkeypatch, capsys, argv):
    # argparse's own exit code, 2, is the restoration-failure code
    monkeypatch.setattr(bira.cli, "bira_run", _no_solve)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: bira")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: bira" in capsys.readouterr().out


def _no_solve(*args, **kwargs):
    raise AssertionError("a usage error must end the command before a solve")


def test_no_precision_refinement_is_a_usage_error(tmp_path, capsys):
    # the restoration caps are multiples of N_prec: at 0 the first descent
    # test aborted the run (exit 5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N_prec": 0}))
    assert main(["run", "--problem", "p1", "--config", str(cfg)]) == 1
    assert "N_prec" in capsys.readouterr().err


def test_uncovered_regularization_exits_before_any_evaluation(
        tmp_path, monkeypatch, capsys):
    # p4's only restoration call starts feasible at exact precision and
    # takes no z-step, so no curvature factor is ever built: the pairing
    # must be refused at configuration time
    evals = []
    real_h = bira.oracle.InexactProblem.eval_h

    def counting_eval_h(self, x, y):
        evals.append(None)
        return real_h(self, x, y)

    monkeypatch.setattr(bira.oracle.InexactProblem, "eval_h", counting_eval_h)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 1}))
    assert main(["run", "--problem", "p4", "--config", str(cfg)]) == 1
    assert "M * sigma_min must be >= 1" in capsys.readouterr().err
    assert evals == []


@pytest.mark.parametrize("cfg,named", [
    # alpha_R * r_feas**2 underflows to 0; at sigma_min = 2**-335 and
    # M = 2**335 the steps per level stay finite, and their product with
    # the trials per step overflows
    ({"r_feas": 1e-300}, "restoration_steps_per_level"),
    ({"sigma_min": 2.0**-335, "M": 2.0**335}, "restoration_iter_cap"),
], ids=["r_feas", "sigma_min"])
def test_a_config_the_constants_chain_cannot_take_is_a_usage_error(
        tmp_path, capsys, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--problem", "p1", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: derived constant {named} is not finite")
    assert "Traceback" not in err


def test_malformed_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["run", "--problem", "p4", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err != ""


def test_unknown_problem_is_a_usage_error(capsys):
    assert main(["run", "--problem", "nope"]) == 1
    assert "nope" in capsys.readouterr().err


def test_audit_accepts_an_untouched_trace(tmp_path, capsys):
    trace = tmp_path / "t.json"
    main(["run", "--problem", "p1", "--out", str(trace)])
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 0
    assert "audit: ok" in capsys.readouterr().out


def test_audit_flags_a_tampered_trace(tmp_path, capsys):
    trace = tmp_path / "t.json"
    main(["run", "--problem", "p1", "--out", str(trace)])
    payload = json.loads(trace.read_text())
    # the accepted point claims an objective 10 above the one it started at
    edit_packed(payload,
                lambda t: t["records"]["f_xnext_ynext"].__setitem__(0, 10.0))
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 4
    got = capsys.readouterr().out
    assert "audit: FAILED" in got
    assert "penalty_merit_decrease" in got


def test_audit_checks_a_registered_problem_s_values_against_it(
        tmp_path, capsys, p1_trace):
    # record 2's objective at its restored point, 1e-3 off: the penalty
    # update replays it, so only the problem's exact value can tell
    payload = json.loads(p1_trace)
    edit_packed(payload, lambda t: t["records"]["f_xR_yR"].__setitem__(
        2, t["records"]["f_xR_yR"][2] + 1e-3))
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 4
    got = capsys.readouterr().out
    assert "oracle_f_error_bound        FAIL  (iteration 2: " in got
    # a problem the command line does not build is audited from the trace
    # alone, which lists no oracle error row
    payload["problem_name"] = "unregistered"
    trace.write_text(json.dumps(payload))
    assert main(["audit", str(trace)]) == 0
    assert "oracle_" not in capsys.readouterr().out


def test_audit_of_a_huge_stage_count_ends(tmp_path):
    # the precision replay stops at the call's stage cap, which the claim
    # fails; a run in a child process turns a replay of 2**64 stages into
    # a timeout rather than a hung suite
    payload = json.loads((DATA / "p2_staged.json").read_text())
    payload["records"]["resta"]["stages"][3] = 2**64
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    src = str(Path(bira.cli.__file__).resolve().parents[1])
    got = subprocess.run([sys.executable, "-m", "bira.cli", "audit",
                          str(trace)], capture_output=True, text=True,
                         timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert got.returncode == 4
    assert "restoration_inner_caps      FAIL  (iteration 3: " in got.stdout


def _failure(trace, kind="insufficient_contraction"):
    """A failure info whose failing call is record 0's restoration call,
    written as a failure info writes it: the one row of an outcome
    table."""
    return {"kind": kind, "resta": write_table(
        [record_row(trace, 0)["resta"]], OUTCOME_TABLE)}


@pytest.mark.parametrize("edit", [
    lambda trace: trace["records"].update(g_yk=[0.0]),
    lambda trace: trace["records"].pop("f_xR_yR"),
    lambda trace: trace.pop("status"),
    lambda trace: trace["records"]["resta"].pop("z_steps"),
    lambda trace: trace["constants_basis"].update(
        kappas={"kappa": 1e3, "kappa_T": 1e9}),
    lambda trace: trace["constants_basis"]["problem_constants"].pop("L_f"),
    lambda trace: trace["constants_basis"]["problem_constants"].update(
        L_g=1.0),
    lambda trace: trace["params"].update(bogus=1.0),
    lambda trace: trace["constants_basis"]["problem_constants"].update(
        L_f="abc"),
    # record 0's x_k and h_xk_yk are written once, in the start block
    lambda trace: trace["start"].update(x="abc"),
    lambda trace: trace["start"].update(h="abc"),
    lambda trace: trace.update(records=3),
    lambda trace: trace["records"].update(f_xR_yR=0.5),
    lambda trace: trace["ledger_totals"].pop("h_evals"),
    lambda trace: trace["start"].pop("f"),
    lambda trace: trace.update(status="Bogus"),
    lambda trace: trace.update(status="RestorationFailure"),
    # p4 converges, so a failure record needs a restoration outcome copied
    # from its one iteration
    lambda trace: trace.update(failure_info=_failure(trace)),
    lambda trace: trace.update(status="RestorationFailure",
                               failure_info=_failure(trace, kind=7)),
    lambda trace: trace["tolerances"].update(eps_opt=0.0),
    lambda trace: trace["tolerances"].update(eps_opt=float("inf")),
    lambda trace: trace["tolerances"].pop("eps_feas"),
    # every recorded call is restored, so the records write no status
    lambda trace: trace["records"]["resta"].update(status=["pdp"]),
    lambda trace: trace["records"]["resta"].update(status=["bogus"]),
    lambda trace: trace["records"]["resta"].update(
        status=["possible_infeasibility"]),
], ids=["unknown_field", "missing_field", "missing_status",
        "resta_missing_z_steps", "basis_with_kappas",
        "constants_missing_L_f", "constants_unknown_field",
        "params_unknown_field", "constants_L_f_is_a_string",
        "x_k_is_a_string", "h_xk_yk_is_a_string", "records_is_a_number",
        "column_is_a_number",
        "ledger_totals_missing_h_evals", "start_missing_f", "unknown_status",
        "failure_without_info", "info_without_failure",
        "unknown_failure_kind", "zero_tolerance", "infinite_tolerance",
        "tolerances_missing_eps_feas",
        "resta_status_pdp", "unknown_resta_status",
        "record_resta_possible_infeasibility"])
def test_audit_rejects_records_off_the_schema(tmp_path, capsys, edit):
    trace = tmp_path / "t.json"
    main(["run", "--problem", "p4", "--out", str(trace)])
    payload = json.loads(trace.read_text())
    edit(payload)
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def p1_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("p1") / "t.json"
    assert main(["run", "--problem", "p1", "--out", str(trace)]) == 0
    return trace.read_text()


def _set(table, k, value):
    """Set entry ``k`` of every column of a written table to ``value``; a
    packed column has no entry to index, so it is replaced by ``value``."""
    for name, column in table.items():
        if isinstance(column, dict):
            _set(column, k, value)
        elif isinstance(column, str):
            table[name] = value
        else:
            column[k] = value


def _resta(trace, k, **values):
    """Set record ``k``'s restoration outcome fields to ``values``."""
    for name, value in values.items():
        trace["records"]["resta"][name][k] = value


def _first(point):
    """The written point ``point`` cut to its first coordinate."""
    return write_vector(read_vector(point, "point")[:1])


def _add_column(table, name, value):
    """Add a column ``name`` holding ``value`` in every entry."""
    table[name] = [value] * len(next(iter(table.values())))


def _add_packed(table, name):
    """Add a packed column ``name`` of the length of the table's packed
    ``step_norm``."""
    table[name] = table["step_norm"]


@pytest.mark.parametrize("edit", [
    lambda trace: _set(trace["records"], 1, 5),
    lambda trace: trace["records"]["tangent_cert"].pop("step_norm"),
    # y_R's packed columns are its components, so a third is a column
    lambda trace: trace["records"]["resta"]["y_R"].update(
        g=trace["records"]["resta"]["y_R"]["gh"]),
    lambda trace: trace["start"].update(y=[0.5]),
    # a one-entry point broadcasts against every other point of the run
    lambda trace: _resta(trace, 1,
                         x_R=_first(trace["records"]["resta"]["x_R"][1])),
    lambda trace: trace["start"].update(x=_first(trace["start"]["x"])),
    lambda trace: trace.update(budget=-1),
    lambda trace: trace.update(budget=2.5),
    # a packed float column is one string
    lambda trace: trace["records"].update(f_xR_yR=True),
    # the tangent weight follows from ell_count, so schema v14's column is
    # not written
    lambda trace: trace["records"].update(mu_k=True),
    # a count stays a JSON number, and JSON true is not one
    lambda trace: trace["records"]["ell_count"].__setitem__(1, True),
    # an int field of the schema is a count
    lambda trace: trace["records"]["ell_count"].__setitem__(1, 1.5),
    lambda trace: _resta(trace, 1, refinements=-1),
    lambda trace: trace["records"]["ledger_delta"]["h_evals"].__setitem__(
        1, 2.0),
    # the per-trial records and the derived certificate fields of schema
    # v9 and before, and the status of schema v14 and before
    lambda trace: _add_column(trace["records"]["resta"], "status", "trivial"),
    lambda trace: _add_column(trace["records"]["resta"], "inner_desc_tests",
                              0),
    lambda trace: _add_column(trace["records"]["resta"], "sigma_history",
                              [0.25]),
    lambda trace: _add_column(trace["records"]["resta"], "certificates", {}),
    lambda trace: _add_packed(trace["records"]["resta"]["trials"],
                              "kappa_ratio"),
    # the Cauchy ratio of schema v20 and before: an exact solve meets it
    # by construction, so no trace writes it
    lambda trace: _add_packed(trace["records"]["resta"]["trials"],
                              "kappa_phi_ratio"),
    lambda trace: _add_packed(trace["records"]["tangent_cert"], "kappa_ratio"),
    lambda trace: _add_packed(trace["records"]["tangent_cert"],
                              "tangent_violation"),
    # one trial's sigma dropped
    lambda trace: trace["records"]["resta"]["trials"]["sigma"][1].pop(),
    lambda trace: trace["start"].update(y=[-0.5, 0.5]),
    lambda trace: edit_packed(
        trace, lambda t: t["records"]["resta"]["y_R"]["gh"].__setitem__(
            1, math.nan)),
    # a packed column holds float64 bytes, so text stands for the column
    lambda trace: trace["records"]["tangent_cert"].update(step_norm="0.5"),
    lambda trace: edit_packed(
        trace, lambda t: t["records"]["tangent_cert"]["step_norm"].__setitem__(
            1, math.nan)),
], ids=["record_is_a_number", "tangent_cert_missing_step_norm",
        "y_R_of_three_entries", "start_y_of_one_entry", "x_R_of_one_entry",
        "start_x_of_one_entry", "negative_budget",
        "fractional_budget", "f_xR_yR_is_a_bool", "mu_k_is_a_bool",
        "ell_count_is_a_bool",
        "fractional_ell_count",
        "negative_refinements", "fractional_ledger_count",
        "resta_status_trivial", "resta_with_inner_desc_tests",
        "resta_with_sigma_history", "resta_with_certificates",
        "trials_with_kappa_ratio", "trials_with_kappa_phi_ratio",
        "tangent_cert_with_kappa_ratio",
        "tangent_cert_with_tangent_violation", "trials_missing_a_sigma",
        "negative_start_y", "y_R_is_nan", "tangent_cert_step_norm_is_text",
        "tangent_cert_step_norm_is_nan"])
def test_audit_rejects_a_malformed_trace(tmp_path, capsys, p1_trace, edit,
                                         request):
    payload = json.loads(p1_trace)
    edit(payload)
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # a bad value inside a record's nested parts names the record, and a
    # packed column, which holds every record's values, names its table
    prefix = {
        "negative_refinements": "error: iteration record 1: ",
        "fractional_ledger_count": "error: iteration record 1: ",
        "tangent_cert_step_norm_is_text":
            "error: records tangent_cert column 'step_norm' ",
        "tangent_cert_step_norm_is_nan":
            "error: iteration record 1: tangent_cert field 'step_norm' ",
        "y_R_of_three_entries":
            "error: records resta y_R table fields differ from the schema",
        "ell_count_is_a_bool": "error: iteration record 1 field 'ell_count' ",
        "f_xR_yR_is_a_bool": "error: records column 'f_xR_yR' must be a"
            " base64 string of float64 bytes, got bool",
        "mu_k_is_a_bool": "error: records table fields differ from the"
            " schema: missing [], unknown ['mu_k']",
        "y_R_is_nan":
            "error: iteration record 1: y_R field 'gh' must not be nan\n",
        "trials_with_kappa_phi_ratio":
            "error: records resta trials table fields differ from the"
            " schema: missing [], unknown ['kappa_phi_ratio']\n",
    }.get(request.node.callspec.id, "error:")
    assert err.startswith(prefix), err


@pytest.mark.parametrize("edit,table", [
    (lambda trace: edit_packed(trace,
                               lambda t: t["records"]["f_xR_yR"].pop()),
     "records"),
    (lambda trace: edit_packed(
        trace, lambda t: t["records"]["f_xk_yR"].append(0.5)),
     "records"),
    (lambda trace: trace["records"]["resta"]["z_steps"].pop(),
     "records resta"),
    (lambda trace: edit_packed(
        trace,
        lambda t: t["records"]["tangent_cert"]["step_norm"].append(0.0)),
     "records tangent_cert"),
    (lambda trace: trace["records"]["ledger_delta"]["h_evals"].pop(),
     "records ledger_delta"),
    (lambda trace: trace["records"]["resta"]["ledger_delta"][
        "f_evals"].append(0), "records resta ledger_delta"),
    # the trials of every record are one table, packed over all of them
    (lambda trace: edit_packed(
        trace, lambda t: t["records"]["resta"]["trials"][1][
            "step_norm"].append(0.0)),
     "records resta trials"),
], ids=["records_short", "records_long", "resta_short", "tangent_cert_long",
        "ledger_delta_short", "resta_ledger_delta_long", "trials_long"])
def test_audit_rejects_columns_of_unequal_length(tmp_path, capsys, p1_trace,
                                                 edit, table):
    payload = json.loads(p1_trace)
    edit(payload)
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {table} table columns differ in length: ")


def test_audit_rejects_a_k_column(tmp_path, capsys, p1_trace):
    # a record's k is its position in the table, so k is not written
    payload = json.loads(p1_trace)
    payload["records"]["k"] = list(range(len(
        payload["records"]["ell_count"])))
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    assert capsys.readouterr().err == (
        "error: records table fields differ from the schema: missing [],"
        " unknown ['k']\n")


def test_audit_rejects_a_trace_that_is_not_an_object(tmp_path, capsys):
    trace = tmp_path / "t.json"
    main(["run", "--problem", "p4", "--out", str(trace)])
    trace.write_text(json.dumps([json.loads(trace.read_text())]))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("edit,message", [
    # a schema-v3 trace still carries the dropped curvature_mode field
    (lambda trace: trace.update(trace_version=3, curvature_mode="zero"),
     "trace version 3 not supported"),
    # a schema-v4 trace still writes the chain fields and the final point
    (lambda trace: trace.update(trace_version=4, final_x=[0.0, 0.0]),
     "trace version 4 not supported"),
    # a schema-v5 trace still writes each record's y_next
    (lambda trace: [trace.update(trace_version=5),
                    trace["records"].update(y_next=[[0.0, 0.0]])],
     "trace version 5 not supported"),
    # a schema-v7 trace still writes the two constants of the analysis
    (lambda trace: [trace.update(trace_version=7),
                    trace["params"].update(sigma_max=40.0, beta_c=1.0)],
     "trace version 7 not supported"),
    # a schema-v8 trace writes no stage count in its restoration outcomes
    (lambda trace: [trace.update(trace_version=8),
                    trace["records"]["resta"].pop("stages")],
     "trace version 8 not supported"),
    # a schema-v9 trace writes three per-trial records, not one table
    (lambda trace: [trace.update(trace_version=9),
                    trace["records"]["resta"].update(
                        inner_desc_tests=[0], sigma_history=[[]],
                        certificates=[{}])],
     "trace version 9 not supported"),
    # a schema-v10 trace writes one object per record, labelled k
    (lambda trace: trace.update(trace_version=10, records=[
        {"k": 0, **record_row(trace, 0)}]),
     "trace version 10 not supported"),
    # a schema-v11 trace writes each point as a list of numbers
    (lambda trace: trace.update(trace_version=11, start={
        **trace["start"], "x": read_vector(trace["start"]["x"], "x").tolist()}),
     "trace version 11 not supported"),
    # a schema-v12 trace writes each certificate column as a list of numbers
    (lambda trace: [trace.update(trace_version=12),
                    trace["records"]["tangent_cert"].update(step_norm=[0.0])],
     "trace version 12 not supported"),
    # a schema-v13 trace writes each record scalar as a JSON number
    (lambda trace: [trace.update(trace_version=13),
                    trace["records"].update(mu_k=[0.5])],
     "trace version 13 not supported"),
    # a schema-v14 trace writes each record's tangent weight and oracle
    # errors, and each recorded call's status
    (lambda trace: [trace.update(trace_version=14),
                    trace["records"].update(mu_k=write_vector([0.5])),
                    trace["records"]["resta"].update(status=["restored"])],
     "trace version 14 not supported"),
    # a schema-v15 trace writes the same fields, but its tangent weights
    # replay by the halving rule, not the one each step predicts
    (lambda trace: trace.update(trace_version=15),
     "trace version 15 not supported"),
    # a schema-v19 trace writes the restoration's descent constant alpha_R
    # in its params
    (lambda trace: [trace.update(trace_version=19),
                    trace["params"].update(alpha_R=0.0078125)],
     "trace version 19 not supported"),
    # a schema-v20 trace writes each trial's Cauchy ratio
    (lambda trace: [trace.update(trace_version=20),
                    _add_packed(trace["records"]["resta"]["trials"],
                                "kappa_phi_ratio"),
                    _add_packed(trace["records"]["tangent_cert"],
                                "kappa_phi_ratio")],
     "trace version 20 not supported"),
    (lambda trace: trace.clear(), "trace version None not supported"),
], ids=["version_3", "version_4", "version_5", "version_7", "version_8",
        "version_9", "version_10", "version_11", "version_12",
        "version_13", "version_14", "version_15", "version_19",
        "version_20", "empty_object"])
def test_audit_checks_the_version_before_the_fields(tmp_path, capsys, edit,
                                                     message):
    trace = tmp_path / "t.json"
    main(["run", "--problem", "p4", "--out", str(trace)])
    payload = json.loads(trace.read_text())
    edit(payload)
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("part,name,value,message", [
    ("extras", "gamma", 0, "extra gamma must lie in (0, 1)"),
    ("extras", "gamma", 1, "extra gamma must lie in (0, 1)"),
    ("extras", "beta", -1, "extra beta must be >= 0"),
    ("extras", "k_R", -1, "extra k_R must be >= 0"),
    ("problem_constants", "L_c", 1e308,
     "derived constant sigma_sufficient is not finite"),
    ("problem_constants", "L_f", 1e308,
     "derived constant restored_value_factor is not finite"),
    ("problem_constants", "C_h", 1e308,
     "derived constant step_per_infeasibility is not finite"),
], ids=["gamma_0", "gamma_1", "beta_negative", "k_R_negative", "L_c_huge",
        "L_f_huge", "C_h_huge"])
def test_audit_refuses_a_constants_basis_the_chain_cannot_take(
        tmp_path, capsys, p1_trace, part, name, value, message):
    payload = json.loads(p1_trace)
    payload["constants_basis"][part][name] = value
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_audit_missing_file_is_an_io_error(tmp_path):
    assert main(["audit", str(tmp_path / "absent.json")]) == 1


def test_suite_runs_everything_and_audits(capsys):
    assert main(["suite"]) == 0
    got = capsys.readouterr().out
    for name in ("p1", "p2", "p3", "p4"):
        assert f"{name}:" in got
    assert "[ok]" in got
    assert "[FAIL]" not in got


def test_suite_prints_its_golden_output(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / "suite.txt").read_bytes()


def test_default_complexity_writes_its_golden_csv(tmp_path, capsys):
    out = tmp_path / "complexity.csv"
    assert main(["complexity", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "complexity.csv").read_bytes()
    # p1 stops in 4 records at every eps_opt: the fit is flat, and its
    # slope a rounding below zero prints without a sign
    assert ("fitted slope of log(work) against log(1/eps_opt): 0.000\n"
            in capsys.readouterr().out)


def test_complexity_sweep_writes_the_csv(tmp_path, capsys):
    out = tmp_path / "cx.csv"
    code = main(["complexity", "--problem", "p1", "--out", str(out),
                 "--eps-opt-grid", "1e-1,3e-2,1e-2", "--jobs", "1"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.endswith("Converged")
    assert "fitted slope" in capsys.readouterr().out


@pytest.mark.parametrize("grid", ["1e-1,abc", "1e-1,3e-2,3e-2",
                                  "1e-1,3e-2,-1e-2", "1e-1,3e-2,nan"],
                         ids=["not_a_number", "two_distinct", "negative",
                              "nan"])
def test_complexity_refuses_a_bad_grid_before_any_solve(
        tmp_path, monkeypatch, capsys, grid):
    monkeypatch.setattr(bira.cli, "bira_run", _no_solve)
    out = tmp_path / "cx.csv"
    assert main(["complexity", "--out", str(out),
                 "--eps-opt-grid", grid]) == 1
    assert "--eps-opt-grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_complexity_refuses_a_worker_count_below_one(
        tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setattr(bira.cli, "bira_run", _no_solve)
    out = tmp_path / "cx.csv"
    assert main(["complexity", "--out", str(out), "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


class _InProcessPool:
    """A stand-in for ProcessPoolExecutor that records the workers asked
    for and maps in this process, so the test starts no process."""

    asked = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_complexity_asks_for_at_most_one_worker_per_tolerance(
        tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "asked", [])
    out = tmp_path / "cx.csv"
    assert main(["complexity", "--problem", "p1", "--out", str(out),
                 "--eps-opt-grid", "1e-1,3e-2,1e-2", "--jobs", "64"]) == 0
    assert _InProcessPool.asked == [3]
    assert len(out.read_text().splitlines()) == 4


def test_complexity_csv_is_the_same_from_a_process_pool(tmp_path):
    csvs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"cx{jobs}.csv"
        assert main(["complexity", "--problem", "p1", "--out", str(out),
                     "--eps-opt-grid", "1e-1,3e-2,1e-2",
                     "--jobs", jobs]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("argv", [
    ["--eps-feas", "0"], ["--eps-opt=-1e-4"], ["--budget", "-1"],
])
def test_bad_run_inputs_are_usage_errors(argv, capsys):
    assert main(["run", "--problem", "p4", *argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_infinite_tolerances_are_a_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["run", "--problem", "p1", "--eps-opt", "inf",
                 "--eps-feas", "inf", "--eps-prec", "inf",
                 "--out", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not trace.exists()


def _fail_third_resta(monkeypatch, exc):
    """Make the solver's third restoration call raise ``exc``."""
    real_resta = bira.solver.resta
    calls = []

    def resta_failing_on_the_third_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise exc
        return real_resta(*args, **kwargs)

    monkeypatch.setattr(bira.solver, "resta", resta_failing_on_the_third_call)


@pytest.mark.parametrize("exc", [
    AbnormalTermination("restoration trial cap exceeded"),
    InvariantError("penalty update left no positive weight"),
])
def test_complexity_sweep_reports_abnormal_runs(tmp_path, monkeypatch, exc):
    _fail_third_resta(monkeypatch, exc)
    out = tmp_path / "cx.csv"
    assert main(["complexity", "--problem", "p1", "--out", str(out),
                 "--eps-opt-grid", "1e-1,3e-2,1e-2", "--jobs", "1"]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["status"] == type(exc).__name__
    assert int(rows[0]["h_evals"]) > 0
    # two iterations finished before the third restoration call failed
    assert rows[0]["iterations"] == "2"
    assert [row["status"] for row in rows[1:]] == ["Converged"] * 2


def test_non_finite_oracle_output_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(bira.oracle.SyntheticProblem, "_f",
                        lambda self, x, y: float("nan"))
    assert main(["run", "--problem", "p4"]) == 1
    assert "eval_f of p4 returned a non-finite value" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["run", "--problem", "p1"], ["suite"]])
@pytest.mark.parametrize("exc", [
    AbnormalTermination("restoration trial cap exceeded",
                        {"trials": 7}),
    InvariantError("penalty update left no positive weight"),
])
def test_run_and_suite_report_abnormal_runs(monkeypatch, capsys, exc, argv):
    _fail_third_resta(monkeypatch, exc)
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {type(exc).__name__}: {exc} (")
    assert "iteration=2" in err
