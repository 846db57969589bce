import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import bira.solver
from bira.core import (
    AlgorithmParams,
    BoxPolytope,
    ConfigurationError,
    InvariantError,
    PrecisionLevel,
    SchemaError,
    merit_allowance,
    merit_phi,
)
from bira.diagnostics import audit, constants
from bira.oracle import (
    SyntheticProblem,
    make_p1,
    make_p2,
    make_p3,
    make_p4,
    make_suite,
)
from bira.restoration import RestorationOutcome
from bira.solver import (
    RunReport,
    bira_run,
    restoration_failure,
    update_penalty,
)


def test_penalty_moves_to_the_largest_workable_weight():
    # f rises by 5 while the violation drops by 6 at unchanged precision:
    # the boundary weight solves 11*theta = 4.5
    got = update_penalty(0.5, 5.0, 0.0, 6.0, 0.0, 0.25, 0.25, 0.5)
    assert 0.0 < got <= 9.0 / 22.0
    assert 9.0 / 22.0 - got <= 1e-15

    allowance = 0.5 * (1.0 - 0.5) * (6.0 - 0.0)
    lhs = merit_phi(5.0, 0.0, 0.25, got)
    rhs = merit_phi(0.0, 6.0, 0.25, got) - allowance
    assert lhs <= rhs
    # the old weight genuinely failed the same inequality
    assert merit_phi(5.0, 0.0, 0.25, 0.5) > merit_phi(0.0, 6.0, 0.25, 0.5) - allowance


def test_penalty_update_clears_the_rounding_of_a_dominant_objective():
    # f = 0.524 dominates the merit, so its rounding exceeds the gap that
    # eight ULPs of theta open; a relative shrink clears it
    args = (0.4358628680963604, 0.523991184127489, 0.5239908205927833,
            4.580903257891855e-06, 1.9785941962742685e-06,
            6.103515625e-06, 3.0517578125e-06, 0.5)
    theta_k, f_R, f_k, h_k, h_R, g_k, g_R, r = args
    got = update_penalty(*args)
    allowance = merit_allowance(h_k, h_R, g_k, g_R, r)
    assert merit_phi(f_R, h_R, g_R, got) <= merit_phi(f_k, h_k, g_R, got) + (
        allowance)
    dh, df = h_R - h_k, f_R - f_k
    theta_eq = (allowance - dh) / (df - dh)
    assert got <= theta_eq
    assert theta_eq - got <= 1e-9 * theta_eq


def test_penalty_kept_when_the_decrease_already_suffices():
    assert update_penalty(0.5, -1.0, 0.0, 6.0, 0.0, 0.25, 0.25, 0.5) == 0.5


def test_penalty_raises_when_no_positive_weight_works():
    # precision improved far more than the violation did, so the required
    # decrease exceeds what any weight can deliver
    with pytest.raises(InvariantError):
        update_penalty(0.5, 0.0, 0.0, 6.0, 5.9, 6.0, 0.0, 0.5)


@pytest.mark.parametrize("args,expect", [
    ((1.0, 0.6, 0.25, 0.125, 0.5), (True, "insufficient_contraction")),
    ((1.0, 0.5, 1.2, 0.0, 0.5), (True, "precision_outpaced_feasibility")),
    ((1.0, 0.4, 0.25, 0.125, 0.5), (False, None)),
])
def test_restoration_failure_classifier(args, expect):
    h_xk_yR, h_xR_yR, g_yk, g_yR, r = args
    assert restoration_failure(h_xk_yR, h_xR_yR, g_yk, g_yR, r) == expect


def test_start_at_the_solution_converges_in_one_cheap_iteration():
    rep = bira_run(make_p4())
    assert rep.status == "Converged"
    assert len(rep.records) == 1
    rec = rep.records[0]
    assert rec.k == 0
    assert rec.resta.status == "trivial"
    assert rec.ell_count == 1
    assert rec.step_norm == 0.0
    assert rec.stationarity_residual <= 1e-12
    assert rec.theta_after == rec.theta_before == 0.5
    # zero step at unchanged precision reuses every value measured at the
    # start: restoration hands its h vector to the tangent phase
    assert rep.ledger_totals == {
        "f_evals": 1, "gradf_evals": 1, "h_evals": 1, "gradh_evals": 1,
    }
    assert rep.final_y == (0.0, 0.0)


def test_p1_converges_and_the_audit_agrees():
    rep = bira_run(make_p1())
    assert rep.status == "Converged"
    res = audit(rep)
    assert res.ok, [c for c in res.checks if c.status == "fail"]
    tol = rep.tolerances
    last = rep.records[-1]
    assert last.h_xR_yR <= tol["eps_feas"]
    assert last.stationarity_residual <= tol["eps_opt"]
    thetas = [r.theta_after for r in rep.records]
    assert all(b <= a for a, b in zip(thetas, thetas[1:]))


@pytest.mark.parametrize("factory,ledger", [
    (make_p1, {"f_evals": 61, "gradf_evals": 20,
               "h_evals": 167, "gradh_evals": 40}),
    (make_p2, {"f_evals": 42, "gradf_evals": 14,
               "h_evals": 62, "gradh_evals": 28}),
], ids=["p1", "p2"])
def test_suite_ledgers_at_the_default_parameters(factory, ledger):
    # restoration takes almost all h evaluations; at sigma_min = 0.25 a p1
    # restoration call takes 6 z-steps on the one Jacobian it evaluates,
    # so grad h is evaluated once per call plus once per tangent step, and
    # a tangent trial that fails its descent test is not measured for h.
    # The tangent search starts at a weight the previous step predicted
    # to pass, so every first trial is accepted: one f per iteration, plus
    # f at (x_k, y_R) and at (x_R, y_R), plus the start
    rep = bira_run(factory())
    assert rep.status == "Converged"
    assert rep.ledger_totals == ledger
    assert all(rec.ell_count == 1 for rec in rep.records)


def _objective_along_the_normal():
    """f = (a.x)^2 / 2 subject to a.x = 1: the gradient of f stays in the
    range of J^T, so at inexact precision only noise is left after the
    tangent projection and every tangent step snaps to zero."""
    n = 4
    a = np.ones(n) / 2.0
    p1 = make_p1()
    return SyntheticProblem(
        "normal", BoxPolytope(-10.0 * np.ones(n), 10.0 * np.ones(n)),
        objective=lambda x: 0.5 * float(a @ x) ** 2,
        objective_grad=lambda x: float(a @ x) * a,
        constraint=lambda x: np.array([float(a @ x) - 1.0]),
        constraint_jac=lambda x: a[None, :],
        m=1, x0=np.array([2.0, 1.0, 0.0, 1.0]), y0=PrecisionLevel(0.5, 0.5),
        problem_constants=p1.constants(),
        noise_scale_f=p1.noise_scale_f, noise_scale_h=p1.noise_scale_h,
    )


@pytest.mark.parametrize("factory", [
    make_p1, make_p2, make_p3, make_p4, _objective_along_the_normal,
], ids=["p1", "p2", "p3", "p4", "zero_steps"])
def test_nothing_is_measured_twice(factory):
    # shadow the eval_* methods, as the benchmark's counter does, and log
    # every (kind, x, y) the run asks for
    problem = factory()
    seen = []
    for kind in ("eval_f", "eval_grad_f", "eval_h", "eval_grad_h"):
        def logged(x, y, kind=kind, method=getattr(problem, kind)):
            seen.append((kind, np.asarray(x, dtype=float).tobytes(),
                         y.as_tuple()))
            return method(x, y)
        setattr(problem, kind, logged)
    rep = bira_run(problem)
    assert sum(rep.ledger_totals.values()) == len(seen)
    assert len(set(seen)) == len(seen)
    if factory is _objective_along_the_normal:
        assert rep.status == "Converged"
        assert len(rep.records) > 1
        assert all(rec.step_norm == 0.0 for rec in rep.records)
        assert all(rec.g_yR > 0.0 for rec in rep.records)


def test_a_run_counts_only_its_own_evaluations():
    problem = make_p1()
    first = bira_run(problem)
    second = bira_run(problem)
    assert problem.ledger.snapshot() == {
        key: 2 * n for key, n in first.ledger_totals.items()}
    assert second.ledger_totals == first.ledger_totals


@pytest.mark.parametrize("M,sigma_min", [(2.0, 0.5), (4.0, 0.25)])
def test_p2_converges_when_restoration_outpaces_r(M, sigma_min):
    # p2's restoration contracts by about 0.44 per call; refined by r alone,
    # g fell behind the violation and the run was declared infeasible
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "M": M, "sigma_min": sigma_min,
    })
    rep = bira_run(make_p2(params), params)
    assert rep.status == "Converged"
    res = audit(rep)
    assert res.ok, res.failures
    assert any(rec.resta.contraction < params.r for rec in rep.records)
    # each call refines at the contraction the previous call achieved, and
    # at r**2 too once the previous record met the optimality test
    for prev, rec in zip(rep.records, rep.records[1:]):
        rho = min(params.r, prev.resta.contraction)
        if prev.stationarity_residual <= rep.tolerances["eps_opt"]:
            rho = min(rho, params.r**2)
        assert rec.y_R == (rho * rec.y_k[0], rho * rec.y_k[1])


def _params(**kw):
    return AlgorithmParams.from_dict({**AlgorithmParams.defaults().to_dict(),
                                      **kw})


def test_zero_steps_converge_at_a_looser_curvature_cap():
    # every deep call keeps the violation above g/(2r): restored below it,
    # the next call's precision gain outpaced its feasibility gain
    params = _params(M=2.0, sigma_min=0.5)
    rep = bira_run(_objective_along_the_normal(), params)
    assert rep.status == "Converged"
    assert audit(rep).ok


def test_p2_converges_when_the_stall_test_is_loose():
    # at r_feas = 0.2 the stall test fires past r on a deep call; the call
    # returns what it restored instead of refining to the exact level
    params = _params(r_feas=0.2)
    rep = bira_run(make_p2(params), params)
    assert rep.status == "Converged"
    assert audit(rep).ok


def test_a_zero_z_step_is_a_stall():
    # at h ~ 4e-15 sigma doubles until the trial z-step rounds to nothing;
    # that zero step passes the descent test, and repeated it ran toward
    # the certified cap of about 1.6e8 descent tests.  As a stall it ends
    # the call at the exact level instead
    params = _params(alpha=0.3)
    rep = bira_run(make_p1(params), params, eps_feas=1e-8, eps_prec=1e-8,
                   eps_opt=1e-6)
    assert rep.status == "RestorationFailure"
    assert rep.failure_info["kind"] == "possible_infeasibility"
    assert rep.failure_info["iteration"] == 48
    assert rep.failure_info["resta"]["inner_desc_tests"] < 100
    assert audit(rep).ok


def _highdim():
    path = Path(__file__).resolve().parent.parent / "bench" / "synth.py"
    spec = importlib.util.spec_from_file_location("synth", path)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.make_synthetic("highdim0", 100, 5, 1)


@pytest.mark.parametrize("factory,deep", [
    (make_p1, lambda k, n: k == n - 1),
    (_highdim, lambda k, n: k >= 1),
], ids=["p1", "highdim"])
def test_a_deep_call_follows_a_record_that_met_eps_opt(monkeypatch, factory,
                                                       deep):
    targets = []
    real = bira.solver.resta

    def spy(*args, **kwargs):
        targets.append(kwargs["target"])
        return real(*args, **kwargs)

    monkeypatch.setattr(bira.solver, "resta", spy)
    rep = bira_run(factory())
    assert rep.status == "Converged"
    r = rep.params.r
    n = len(rep.records)
    assert targets == [r * r if deep(k, n) else r for k in range(n)]
    for prev, target in zip(rep.records, targets[1:]):
        met = prev.stationarity_residual <= rep.tolerances["eps_opt"]
        assert target == (r * r if met else r)


@pytest.mark.parametrize("factory", [make_p1, _highdim],
                         ids=["p1", "highdim"])
def test_a_restoration_call_keeps_its_one_jacobian(factory):
    # every z-step passes its first trial, so no call refreshes grad h
    # after its first z-step
    rep = bira_run(factory())
    assert rep.status == "Converged"
    assert [rec.resta.status for rec in rep.records] == (
        ["restored"] * len(rep.records))
    assert all(rec.resta.ledger_delta["gradh_evals"] == 1
               for rec in rep.records)


def test_no_z_step_takes_more_than_the_certified_trials():
    # a z-step's trials start at sigma_min and double; a kept Jacobian's
    # failed first trial is followed by trials on a fresh one from
    # 2 sigma_min, so sigma_min opens every z-step
    params = AlgorithmParams.defaults()
    for problem in make_suite(params):
        rep = bira_run(problem, params)
        cap = max(2, constants(problem.constants(),
                               params).sigma_trials_per_step)
        calls = [rec.resta for rec in rep.records]
        if rep.failure_info is not None:
            calls.append(RestorationOutcome.from_dict(
                rep.failure_info["resta"]))
        for out in calls:
            trials = []
            for sigma in out.sigma_history:
                if sigma == params.sigma_min:
                    trials.append(0)
                trials[-1] += 1
            assert max(trials, default=0) <= cap, problem.name


def test_regularization_weight_tracks_the_doubling_schedule():
    # each search starts at half the previous weight only when the
    # previous accepted step predicts that half passes its descent test
    params = AlgorithmParams.defaults()
    rep = bira_run(make_p1())
    prev = None
    predictions = set()
    for rec in rep.records:
        if prev is None:
            start = params.mu_init
        else:
            decrease = prev.f_xR_yR - prev.f_xnext_ynext
            halve = decrease >= (prev.mu_k + params.alpha) * prev.step_norm**2
            predictions.add(halve)
            mu = prev.mu_k / 2.0 if halve else prev.mu_k
            start = min(max(mu, params.mu_min), params.mu_max)
        assert rec.mu_k == start * 2.0 ** (rec.ell_count - 1)
        prev = rec
    # p1 halves from mu_init = 1 to 0.125, then holds it
    assert predictions == {True, False}


def test_budget_exhaustion_is_reported_not_raised():
    rep = bira_run(make_p1(), budget=3)
    assert rep.status == "BudgetExceeded"
    assert len(rep.records) == 3
    assert rep.final_x is not None


def test_infeasible_problem_reports_the_restoration_verdict():
    rep = bira_run(make_p3(), budget=50)
    assert rep.status == "RestorationFailure"
    assert rep.records == []
    assert rep.failure_info["kind"] == "possible_infeasibility"
    assert rep.failure_info["iteration"] == 0
    assert rep.failure_info["resta"]["status"] == "possible_infeasibility"
    np.testing.assert_allclose(
        rep.final_x, rep.failure_info["resta"]["x_R"], atol=0)


def test_trace_round_trip_and_version_guard():
    rep = bira_run(make_p4())
    payload = rep.to_dict()
    back = RunReport.from_dict(payload)
    assert back.status == rep.status
    assert len(back.records) == len(rep.records)
    assert back.final_y == rep.final_y
    assert back.ledger_totals == rep.ledger_totals

    for version in (1, 2, 3, 4, 5, 6, 7, 999):
        bad = json.loads(json.dumps(payload))
        bad["trace_version"] = version
        with pytest.raises(SchemaError):
            RunReport.from_dict(bad)


def test_to_dict_copies_the_constants_basis():
    rep = bira_run(make_p4())
    before = audit(rep).checks
    d = rep.to_dict()
    d["constants_basis"]["problem_constants"]["provenance"] = "estimated"
    d["constants_basis"]["extras"]["beta"] = 1.0
    assert audit(rep).checks == before
    assert rep.constants_basis["extras"]["beta"] < 1.0


def test_restoration_certificates_are_stored_as_columns():
    rec = bira_run(make_p1()).to_dict()["records"][0]["resta"]
    columns = rec["certificates"]
    assert list(columns) == [
        "model_decrease", "stationarity_residual", "step_norm",
        "kappa_ratio", "kappa_phi_ratio",
    ]
    assert rec["inner_desc_tests"] == len(rec["sigma_history"]) > 0
    for column in columns.values():
        assert len(column) == rec["inner_desc_tests"]

    missing = {k: v for k, v in columns.items() if k != "kappa_phi_ratio"}
    ragged = {**columns, "kappa_phi_ratio": columns["kappa_phi_ratio"][:-1]}
    for bad in (missing, ragged, [dict(zip(columns, row))
                                  for row in zip(*columns.values())]):
        with pytest.raises(SchemaError):
            RestorationOutcome.from_dict({**rec, "certificates": bad})


def test_failure_report_round_trips_byte_identical():
    rep = bira_run(make_p3(), budget=50)
    assert rep.failure_info["resta"]["certificates"]["step_norm"]
    text = json.dumps(rep.to_dict())
    back = RunReport.from_dict(json.loads(text))
    assert json.dumps(back.to_dict()) == text


@pytest.mark.parametrize("run", [
    lambda: bira_run(make_p1()),
    lambda: bira_run(make_p1(), budget=3),
    lambda: bira_run(make_p4(), budget=0),
], ids=["converged", "budget_exceeded", "budget_zero"])
def test_trace_round_trips_byte_identical(run):
    rep = run()
    text = json.dumps(rep.to_dict())
    back = RunReport.from_dict(json.loads(text))
    assert json.dumps(back.to_dict()) == text
    assert back.start["f"] == rep.start["f"]
    np.testing.assert_array_equal(back.final_x, rep.final_x)
    assert back.final_y == rep.final_y


def test_a_run_without_records_keeps_its_start():
    rep = bira_run(make_p4(), budget=0)
    assert rep.status == "BudgetExceeded"
    assert rep.records == []
    d = rep.to_dict()
    assert d["start"] == {"x": list(make_p4().x0),
                          "y": list(make_p4().y0.as_tuple()),
                          "f": rep.start["f"], "h": rep.start["h"]}
    assert rep.final_x.tolist() == d["start"]["x"]
    assert rep.final_y == tuple(d["start"]["y"])
    assert rep.ledger_totals == {
        "f_evals": 1, "gradf_evals": 0, "h_evals": 1, "gradh_evals": 0}
    assert audit(rep).ok


@pytest.mark.parametrize("edit", [
    lambda d: d["records"][6].update(x_k=d["records"][5]["x_next"]),
    lambda d: d["records"][0].update(ledger_after=d["ledger_totals"]),
    lambda d: d.update(final_x=d["start"]["x"]),
    lambda d: d["records"][0].update(y_next=d["records"][0]["resta"]["y_R"]),
], ids=["x_k", "ledger_after", "final_x", "y_next"])
def test_a_trace_writes_each_value_once(edit):
    d = json.loads(json.dumps(bira_run(make_p1()).to_dict()))
    edit(d)
    with pytest.raises(SchemaError, match="unknown"):
        RunReport.from_dict(d)


def test_x_next_is_written_only_when_the_step_moved():
    # schema v7: a zero step leaves x_next equal to x_R, which the trace
    # already writes in the restoration outcome
    moved = bira_run(make_p1()).to_dict()
    assert all("x_next" in rec for rec in moved["records"])
    rep = bira_run(_objective_along_the_normal())
    d = json.loads(json.dumps(rep.to_dict()))
    assert not any("x_next" in rec for rec in d["records"])
    back = RunReport.from_dict(d)
    for rec, got in zip(rep.records, back.records):
        assert got.x_next.tobytes() == rec.x_next.tobytes()
        assert got.x_next.tobytes() == rec.x_R.tobytes()
    assert back.final_x.tobytes() == rep.final_x.tobytes()
    d["trace_version"] = 6
    with pytest.raises(SchemaError, match="trace version 6 not supported"):
        RunReport.from_dict(d)


def test_derived_record_fields_match_the_solver():
    rep = bira_run(make_p1())
    back = RunReport.from_dict(json.loads(json.dumps(rep.to_dict())))
    fresh = make_p1()
    assert len(back.records) == len(rep.records)
    for rec, got in zip(rep.records, back.records):
        y_R = rec.resta.y_R
        assert rec.x_R is rec.resta.x_R
        assert rec.y_R == rec.resta.y_R.as_tuple()
        assert (rec.h_xk_yR, rec.h_xR_yR) == (rec.resta.h_xk_yR,
                                              rec.resta.h_xR_yR)
        assert rec.g_yk == PrecisionLevel(*rec.y_k).g
        assert rec.g_yR == rec.resta.y_R.g
        # deterministic oracles: re-measuring reproduces the solver's
        # values, and the tangent phase measured at the restored precision
        assert rec.f_xk_yR == fresh.eval_f(rec.x_k, y_R)
        assert rec.h_xk_yR == float(np.linalg.norm(fresh.eval_h(rec.x_k, y_R)))
        assert rec.f_xnext_ynext == fresh.eval_f(rec.x_next, y_R)
        assert rec.h_xnext_ynext == float(
            np.linalg.norm(fresh.eval_h(rec.x_next, y_R)))
        assert rec.step_norm == float(np.linalg.norm(rec.x_next - rec.x_R))
        # the reloaded chain fields are the solver's, bit for bit
        assert got.x_k.tobytes() == rec.x_k.tobytes()
        assert (got.y_k, got.f_xk_yk, got.h_xk_yk, got.theta_before) == (
            rec.y_k, rec.f_xk_yk, rec.h_xk_yk, rec.theta_before)
    assert back.final_x.tobytes() == rep.final_x.tobytes()
    assert back.final_y == rep.final_y


@pytest.mark.parametrize("kwargs", [
    {"eps_feas": 0.0}, {"eps_prec": -1e-6}, {"eps_opt": float("nan")},
    {"budget": -1},
])
def test_bad_run_inputs_are_configuration_errors(kwargs):
    with pytest.raises(ConfigurationError):
        bira_run(make_p4(), **kwargs)


def test_repeated_runs_are_bitwise_identical():
    a = json.dumps(bira_run(make_p1()).to_dict(), sort_keys=True)
    b = json.dumps(bira_run(make_p1()).to_dict(), sort_keys=True)
    assert a == b
