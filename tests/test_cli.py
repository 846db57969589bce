import csv
import json

import pytest

import bira.oracle
import bira.solver
from bira.cli import CSV_HEADER, main
from bira.core import AbnormalTermination, InvariantError


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


def test_budget_exit_code(capsys):
    assert main(["run", "--problem", "p1", "--budget", "2"]) == 3
    assert "BudgetExceeded" in capsys.readouterr().out


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["run", "--problem", "p4", "--config", str(cfg)]) == 1
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [{"N_acce": 2}, {"beta_PDP": 8},
                                 {"sigma_max": 40}, {"beta_c": 1.0}],
                         ids=["N_acce", "beta_PDP", "sigma_max", "beta_c"])
def test_a_deleted_parameter_is_a_usage_error(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--problem", "p1", "--config", str(path)]) == 1
    assert next(iter(cfg)) in capsys.readouterr().err


def test_no_precision_refinement_is_a_usage_error(tmp_path, capsys):
    # the restoration caps are multiples of N_prec: at 0 the first descent
    # test aborted the run (exit 5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N_prec": 0}))
    assert main(["run", "--problem", "p1", "--config", str(cfg)]) == 1
    assert "N_prec" in capsys.readouterr().err


def test_uncovered_regularization_exits_before_any_evaluation(
        tmp_path, monkeypatch, capsys):
    # p4's only restoration is trivial, so no curvature factor is ever
    # built: the pairing must be refused at configuration time
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
    main(["run", "--problem", "p4", "--out", str(trace)])
    payload = json.loads(trace.read_text())
    payload["records"][0]["theta_after"] = 0.6
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 4
    got = capsys.readouterr().out
    assert "audit: FAILED" in got
    assert "theta_monotone" in got


def _failure(trace, kind="insufficient_contraction", iteration=1):
    return {"kind": kind, "iteration": iteration,
            "resta": trace["records"][0]["resta"]}


@pytest.mark.parametrize("edit", [
    lambda trace: trace["records"][0].update(g_yk=0.0),
    lambda trace: trace["records"][0].pop("theta_after"),
    lambda trace: trace.pop("status"),
    lambda trace: trace["records"][0]["resta"].pop("z_steps"),
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
    lambda trace: trace["ledger_totals"].pop("h_evals"),
    lambda trace: trace["start"].pop("f"),
    lambda trace: trace.update(status="Bogus"),
    lambda trace: trace.update(status="RestorationFailure"),
    # p4 converges, so a failure record needs a restoration outcome copied
    # from its one iteration
    lambda trace: trace.update(failure_info=_failure(trace)),
    lambda trace: trace.update(status="RestorationFailure",
                               failure_info=_failure(trace, kind=7)),
    lambda trace: trace.update(status="RestorationFailure",
                               failure_info=_failure(trace, iteration="x")),
    lambda trace: trace.update(status="RestorationFailure",
                               failure_info=_failure(trace, iteration=-1)),
    lambda trace: trace.update(status="RestorationFailure",
                               failure_info=_failure(trace, iteration=1.0)),
    lambda trace: trace["tolerances"].update(eps_opt=0.0),
    lambda trace: trace["tolerances"].pop("eps_feas"),
    # p4's one record holds a trivial restoration call
    lambda trace: trace["records"][0]["resta"].update(status="pdp"),
    lambda trace: trace["records"][0]["resta"].update(status="bogus"),
    lambda trace: trace["records"][0]["resta"].update(
        status="possible_infeasibility"),
    lambda trace: trace.update(status="RestorationFailure",
                               failure_info=_failure(
                                   trace, kind="possible_infeasibility")),
    lambda trace: trace.update(status="RestorationFailure", failure_info={
        **_failure(trace), "resta": {**trace["records"][0]["resta"],
                                     "status": "possible_infeasibility"}}),
], ids=["unknown_field", "missing_field", "missing_status",
        "resta_missing_z_steps", "basis_with_kappas",
        "constants_missing_L_f", "constants_unknown_field",
        "params_unknown_field", "constants_L_f_is_a_string",
        "x_k_is_a_string", "h_xk_yk_is_a_string", "records_is_a_number",
        "ledger_totals_missing_h_evals", "start_missing_f", "unknown_status",
        "failure_without_info", "info_without_failure",
        "unknown_failure_kind", "failure_iteration_is_a_string",
        "negative_failure_iteration", "failure_iteration_is_a_float",
        "zero_tolerance", "tolerances_missing_eps_feas", "resta_status_pdp",
        "unknown_resta_status", "record_resta_possible_infeasibility",
        "infeasibility_kind_without_infeasible_resta",
        "infeasible_resta_with_another_kind"])
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


def _resta(trace, k):
    return trace["records"][k]["resta"]


@pytest.mark.parametrize("edit", [
    lambda trace: trace["records"].__setitem__(1, 5),
    lambda trace: trace["records"][1]["tangent_cert"].pop("step_norm"),
    lambda trace: _resta(trace, 1).update(y_R=[0.1, 0.1, 0.1]),
    lambda trace: trace["start"].update(y=[0.5]),
    # a one-entry point broadcasts against every other point of the run
    lambda trace: _resta(trace, 1).update(x_R=_resta(trace, 1)["x_R"][:1]),
    lambda trace: trace["start"].update(x=trace["start"]["x"][:1]),
    lambda trace: trace["records"][1].update(k=7),
    lambda trace: trace.update(budget=-1),
    lambda trace: trace.update(budget=2.5),
    lambda trace: trace["records"][1].update(mu_k=True),
    # an int field of the schema is a count
    lambda trace: trace["records"][1].update(ell_count=1.5),
    lambda trace: _resta(trace, 1).update(refinements=-1),
    lambda trace: trace["records"][1]["ledger_delta"].update(h_evals=2.0),
], ids=["record_is_a_number", "tangent_cert_missing_step_norm",
        "y_R_of_three_entries", "start_y_of_one_entry", "x_R_of_one_entry",
        "start_x_of_one_entry", "record_1_labelled_7", "negative_budget",
        "fractional_budget", "mu_k_is_a_bool", "fractional_ell_count",
        "negative_refinements", "fractional_ledger_count"])
def test_audit_rejects_a_malformed_trace(tmp_path, capsys, p1_trace, edit):
    payload = json.loads(p1_trace)
    edit(payload)
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error:")


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
                    trace["records"][0].update(y_next=[0.0, 0.0])],
     "trace version 5 not supported"),
    # a schema-v7 trace still writes the two constants of the analysis
    (lambda trace: [trace.update(trace_version=7),
                    trace["params"].update(sigma_max=40.0, beta_c=1.0)],
     "trace version 7 not supported"),
    (lambda trace: trace.clear(), "trace version None not supported"),
], ids=["version_3", "version_4", "version_5", "version_7",
        "empty_object"])
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


def test_audit_missing_file_is_an_io_error(tmp_path):
    assert main(["audit", str(tmp_path / "absent.json")]) == 1


def test_suite_runs_everything_and_audits(capsys):
    assert main(["suite"]) == 0
    got = capsys.readouterr().out
    for name in ("p1", "p2", "p3", "p4"):
        assert f"{name}:" in got
    assert "[ok]" in got
    assert "[FAIL]" not in got


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


@pytest.mark.parametrize("argv", [
    ["--eps-feas", "0"], ["--eps-opt=-1e-4"], ["--budget", "-1"],
])
def test_bad_run_inputs_are_usage_errors(argv, capsys):
    assert main(["run", "--problem", "p4", *argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


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
    AbnormalTermination("restoration descent-test cap exceeded"),
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
    AbnormalTermination("restoration descent-test cap exceeded",
                        {"desc_tests": 7}),
    InvariantError("penalty update left no positive weight"),
])
def test_run_and_suite_report_abnormal_runs(monkeypatch, capsys, exc, argv):
    _fail_third_resta(monkeypatch, exc)
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {type(exc).__name__}: {exc} (")
    assert "iteration=2" in err
