import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import edit_packed

import bira.cli
import bira.oracle
import bira.solver
from bira.cli import CSV_HEADER, main
from bira.core import RUN_STATUSES, AbnormalTermination, InvariantError

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
                                 # constants of the analysis
                                 {"mu_min": 1e-3}, {"mu_max": 1e3},
                                 {"mu_init": 1.0}, {"theta_0": 0.5},
                                 # the precision schedule, core.N_PREC
                                 {"N_prec": 2}, {"eps_prec_bar": 0.0},
                                 # run settings are flags only
                                 {"eps_opt": 1e-3}, {"problem": "p1"}],
                         ids=["N_acce", "beta_PDP", "sigma_max", "beta_c",
                              "alpha_R", "mu_min", "mu_max", "mu_init",
                              "theta_0", "N_prec", "eps_prec_bar", "eps_opt",
                              "problem"])
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
    {"alpha": True}, {"r": "0.5"}, {"r_feas": None}, {"M": 10**400},
], ids=["alpha_is_a_bool", "r_is_a_string", "r_feas_is_null",
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


@pytest.mark.parametrize("cfg", [{}, {"sigma_min": 0.0625, "M": 16}],
                         ids=["defaults", "former_restoration_defaults"])
def test_audit_accepts_an_untouched_trace(tmp_path, capsys, cfg):
    trace = tmp_path / "t.json"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--problem", "p1", "--config", str(config),
                 "--out", str(trace)]) == 0
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
    payload["calls"]["stages"][3] = 2**64
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    src = str(Path(bira.cli.__file__).resolve().parents[1])
    got = subprocess.run([sys.executable, "-m", "bira.cli", "audit",
                          str(trace)], capture_output=True, text=True,
                         timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert got.returncode == 4
    assert "restoration_inner_caps      FAIL  (iteration 3: " in got.stdout


@pytest.fixture(scope="module")
def p1_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("p1") / "t.json"
    assert main(["run", "--problem", "p1", "--out", str(trace)]) == 0
    return trace.read_text()


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


def test_audit_replays_h_xk_yR_at_the_default_beta_where_the_trace_has_none(
        tmp_path, capsys, p1_trace):
    # the bound of h_xk_yk at beta = 0 is h_xk_yk itself, above the
    # recorded bound: a failing check, not a KeyError
    payload = json.loads(p1_trace)
    del payload["constants_basis"]["extras"]["beta"]
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 4
    out, err = capsys.readouterr()
    assert "restoration_tests           FAIL  (iteration 0: " in out
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
