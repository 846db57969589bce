import dataclasses
import json

import numpy as np
import pytest
from conftest import (
    EDGE_RESTORATION,
    assert_reloads_equal,
    assert_stops_at_its_restored_point,
    load_bench_run,
    load_synth,
    make_highdim,
    make_unit_row,
)

import bira.diagnostics
import bira.qp
import bira.solver
from bira.cli import EXPECTED_SUITE
from bira.core import (
    FAILURE_KINDS,
    MU_INIT,
    MU_MIN,
    STARTUP_EVALS,
    TANGENT_MU_MARGIN,
    AlgorithmParams,
    BoxPolytope,
    ConfigurationError,
    InvariantError,
    PrecisionLevel,
    SchemaError,
    held,
    merit_allowance,
    merit_phi,
    outer_reference,
    reference_value,
)
from bira.diagnostics import audit, constants
from bira.oracle import (
    InexactProblem,
    SyntheticProblem,
    _calibrated_constants,
    make_p1,
    make_p2,
    make_p3,
    make_p4,
    problem_by_name,
)
from bira import restoration
from bira.restoration import resta
from bira.solver import bira_run, restoration_failure, update_penalty
from bira.trace import RunReport, read_vector, write_vector


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
    (("restored", 1.0, 0.6, 0.25, 0.125, 0.5), "insufficient_contraction"),
    (("restored", 1.0, 0.5, 1.2, 0.0, 0.5), "precision_outpaced_feasibility"),
    (("restored", 1.0, 0.4, 0.25, 0.125, 0.5), None),
    # a stalled call's kind is its status, whatever the tests say
    (("possible_infeasibility", 1.0, 0.4, 0.25, 0.125, 0.5),
     "possible_infeasibility"),
    (("possible_infeasibility", 1.0, 0.6, 0.25, 0.125, 0.5),
     "possible_infeasibility"),
])
def test_restoration_failure_classifier(args, expect):
    assert restoration_failure(*args) == expect
    assert expect is None or expect in FAILURE_KINDS


def test_start_at_the_solution_converges_in_one_cheap_iteration():
    rep = bira_run(make_p4())
    assert rep.status == "Converged"
    assert len(rep.records) == 1
    rec = rep.records[0]
    assert rec.k == 0
    # feasible at exact precision: the call returns its input unmeasured
    assert rec.resta.status == "restored"
    np.testing.assert_array_equal(rec.x_R, rec.x_k)
    assert rec.y_R == rec.y_k
    # the record meets the stopping test, so it searches no tangent step
    assert rec.stopped and rec.ell_count == 0
    assert rec.step_norm == 0.0 and rec.tangent_cert is None
    assert rec.stationarity_residual <= 1e-12
    assert rec.theta_after == rec.theta_before == 0.5
    # the stopping test needs only the gradients at the restored point,
    # which is the start: every other value is the start's
    assert rep.ledger_totals == {
        "f_evals": 1, "gradf_evals": 1, "h_evals": 1, "gradh_evals": 1,
    }
    assert rep.final_y == PrecisionLevel(0.0, 0.0)


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
    (make_p1, {"f_evals": 6, "gradf_evals": 4,
               "h_evals": 17, "gradh_evals": 5}),
    (make_p2, {"f_evals": 13, "gradf_evals": 7,
               "h_evals": 15, "gradh_evals": 8}),
], ids=["p1", "p2"])
def test_suite_ledgers_at_the_default_parameters(factory, ledger):
    # restoration takes almost all h evaluations; at sigma_min = 1/64 a
    # z-step on p1's row contracts by 1/3, so a p1 call without a goal
    # takes 1 z-step, and every call after the first keeps the Jacobian the
    # tangent phase measured, so grad h is evaluated once per iteration
    # plus once for the first call, and a tangent trial that fails its
    # descent test is not measured for h.  A call measures h at its
    # trials and at no other point: each first trial passes against the
    # bound of the outer point's value, so the outer point is not measured.
    # The tangent search starts at a weight the previous step predicted
    # to pass, so every first trial is accepted: one f per iteration, plus
    # f at (x_R, y_R) where the point or the precision moved, plus the
    # start; f at (x_k, y_R) is the bound of its value at y_k.  The call
    # after the record that met eps_opt is a finishing call and ends the
    # run: p1's takes 8 stages, p2's meets both tolerances at its first
    # z-step.
    # The last record stops at its restored point: it measures no f, and
    # h only in its restoration call
    rep = bira_run(factory())
    assert rep.status == "Converged"
    assert rep.ledger_totals == ledger
    assert [rec.ell_count for rec in rep.records] == (
        [1] * (rep.iterations - 1) + [0])


@pytest.mark.parametrize("factory", [
    make_p1, make_p2, make_p3, make_p4, make_unit_row,
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
    if factory is make_unit_row:
        assert rep.status == "Converged"
        assert len(rep.records) > 1
        assert all(rec.step_norm == 0.0 for rec in rep.records)
        assert all(rec.g_yR > 0.0 for rec in rep.records)


@pytest.mark.parametrize("name", [name for name, status
                                  in EXPECTED_SUITE.items()
                                  if status == "Converged"] + ["p1_pdp"])
def test_a_suite_run_stops_at_its_restored_point(name):
    assert_stops_at_its_restored_point(bira_run(problem_by_name(name)))


@pytest.mark.parametrize("workload", ["paper", "highdim", "active"])
def test_a_workload_run_stops_at_its_restored_point(monkeypatch, workload):
    # the benchmark's own problem lists at seed 1
    run = load_bench_run(monkeypatch)
    for problem, status in run.build_problems(run.import_package(), workload,
                                              1):
        report = bira_run(problem)
        assert report.status == status
        if status == "Converged":
            assert_stops_at_its_restored_point(report)


def test_every_active_run_finishes_in_its_third_record(monkeypatch):
    # record 1 meets eps_opt on each of the four active problems at seed 1,
    # and record 2's finishing call meets both tolerances within its stage
    # cap.  A cap without the stages for the least contraction c_min
    # stopped active1's finishing call at ||h|| = 1.08e-6, above eps_feas,
    # and that run paid a fourth record
    run = load_bench_run(monkeypatch)
    for problem, _ in run.build_problems(run.import_package(), "active", 1):
        report = bira_run(problem)
        assert report.status == "Converged"
        assert report.iterations == 3
        assert report.records[1].stationarity_residual <= 1e-4


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
    # each call refines at the contraction the previous call achieved; the
    # finishing call, after the record that met the optimality test, at
    # r**2 too, and by r**2 once more per stage
    for prev, rec in zip(rep.records, rep.records[1:]):
        rho = min(params.r, prev.resta.contraction)
        if prev.stationarity_residual <= rep.tolerances["eps_opt"]:
            rho = min(rho, params.r**2)
        else:
            assert rec.resta.stages == 0
        y_R = (rho * rec.y_k.gf, rho * rec.y_k.gh)
        for _ in range(rec.resta.stages):
            y_R = (params.r**2 * y_R[0], params.r**2 * y_R[1])
        assert rec.y_R == PrecisionLevel(*y_R)


def _params(**kw):
    return AlgorithmParams.from_dict({**AlgorithmParams.defaults().to_dict(),
                                      **kw})


def test_zero_steps_converge_at_a_looser_curvature_cap():
    # a z-step contracts the unit row by 1/2: the finishing call takes 17
    # of its 18 at its first level, and stages ahead of the last, which
    # meets both tolerances on the floor g/(2r)
    params = _params(M=2.0, sigma_min=0.5)
    rep = bira_run(make_unit_row(), params)
    assert rep.status == "Converged"
    out = rep.calls[-1]
    assert (out.z_steps, out.stages) == (18, 8)
    assert out.h_xR_yR >= out.y_R.g / (2 * params.r)
    assert audit(rep).ok


def test_p2_converges_when_the_stall_test_is_loose():
    # at r_feas = 0.2 the stall test can fire past r on a finishing call;
    # the call returns what it restored instead of refining to the exact
    # level
    params = _params(r_feas=0.2)
    rep = bira_run(make_p2(params), params)
    assert rep.status == "Converged"
    assert audit(rep).ok


def test_a_fixed_coordinate_leaves_the_others_free():
    # f = |x - (0, 1, 2)|^2 / 2 subject to x_0 = 0 and x_1 = 1 on
    # [0, 0] x [-5, 5]^2, from the feasible (0, 1, -3) at exact precision:
    # the two rows pin x_0 and x_1, and x_2 moves to 2.  Its constants are
    # its own, over its box, where |x - (0, 1, 2)|^2 <= 85
    target = np.array([0.0, 1.0, 2.0])
    _, pc = _calibrated_constants(AlgorithmParams.defaults(), 0.0, C_f=42.5,
                                  L_f=np.sqrt(85.0), C_h=6.0, G_h=1.0)
    problem = SyntheticProblem(
        "fixed_coordinate",
        BoxPolytope(np.array([0.0, -5.0, -5.0]), np.array([0.0, 5.0, 5.0])),
        objective=lambda x: 0.5 * float((x - target) @ (x - target)),
        objective_grad=lambda x: x - target,
        constraint=lambda x: np.array([x[0], x[1] - 1.0]),
        constraint_jac=lambda x: np.eye(3)[:2],
        m=2, x0=np.array([0.0, 1.0, -3.0]), y0=PrecisionLevel(0.0, 0.0),
        problem_constants=pc)
    rep = bira_run(problem)
    assert rep.status == "Converged"
    assert len(rep.records) == 3
    np.testing.assert_allclose(rep.final_x, target, atol=1e-8)
    assert audit(rep, problem).ok


def test_a_zero_z_step_is_a_stall(monkeypatch):
    # p1 at exact precision a few ULPs off its solution: h is one rounding
    # unit, within the rounding of J z, so the stall test fires before any
    # trial.  Without that test no trial lowers h, and sigma doubles until
    # the trial z-step rounds to nothing.  That zero step passes the ratio
    # test and, repeated, would run toward the certified cap of trials; a
    # cap of 1000 makes such a regression fail fast.  Either stall, on a
    # fresh J at the exact level, ends the call
    problem = make_p1()
    x = problem.known_solution + np.array([-3, 4, 2, -6, -1]) * np.spacing(
        problem.known_solution)
    y = PrecisionLevel(0.0, 0.0)
    h = problem.eval_h(x, y)
    assert abs(h[0]) == 2.0**-53
    for trials in ((), tuple(range(7))):
        out = resta(problem, x, y, AlgorithmParams(), h_xk_yk=h,
                    inner_cap=1000)
        assert out.status == "possible_infeasibility"
        assert out.z_steps == 0
        assert tuple(j for j, _ in out.trials) == trials
        assert out.x_R.tobytes() == x.tobytes()
        assert out.h_xR_yR == abs(h[0])
        monkeypatch.setattr(restoration, "_ROUNDING", 0.0)
    assert out.trials[-1][1].step_norm == 0.0


def test_a_call_that_meets_the_tolerances_by_r_is_held():
    # p1 at alpha = 1/2: from record 14 on every call starts within r of
    # both tolerances while the optimality comparison lags, and is held: it
    # returns its input with no level, trial or evaluation, skips the
    # failure tests, and keeps the contraction before it.  Without the
    # hold each call must still contract h by r, down to the rounding
    # floor, where the run ends possible_infeasibility
    params = _params(alpha=0.5)
    rep = bira_run(make_p1(params), params)
    assert rep.status == "Converged"
    assert len(rep.records) == 47
    tol = rep.tolerances
    kept = [rec for rec in rep.records
            if held(rec.h_xk_yk, rec.y_k.g, params.r, tol)]
    assert [rec.k for rec in kept] == list(range(14, 47))
    for rec in kept:
        out = rec.resta
        assert (out.refinements, out.stages, out.z_steps, out.trials) == (
            0, 0, 0, ())
        assert out.x_R.tobytes() == rec.x_k.tobytes()
        assert out.y_R == rec.y_k and out.h_xR_yR == rec.h_xk_yk
        assert not any(out.ledger_delta.values())
    assert not any(rec.resta.refinements == 0 for rec in rep.records[:14])
    assert audit(rep, make_p1(params)).ok
    assert_reloads_equal(rep)


def _run_p1_at_the_edge():
    # at the defaults p1's last record meets every tolerance before any
    # call has a goal
    params = _params(**EDGE_RESTORATION)
    return bira_run(make_p1(params), params)


@pytest.mark.parametrize("run,finishing", [
    (_run_p1_at_the_edge, lambda k, n: k == n - 1),
    (lambda: bira_run(make_highdim()), lambda k, n: k >= 1),
], ids=["p1", "highdim"])
def test_a_finishing_call_follows_a_record_that_met_eps_opt(
        monkeypatch, run, finishing):
    goals = []
    real = bira.solver.resta

    def spy(*args, **kwargs):
        goals.append(kwargs["goal"])
        return real(*args, **kwargs)

    monkeypatch.setattr(bira.solver, "resta", spy)
    rep = run()
    assert rep.status == "Converged"
    tol = rep.tolerances
    n = len(rep.records)
    assert goals == [(tol["eps_feas"], tol["eps_prec"]) if finishing(k, n)
                     else None for k in range(n)]


def test_highdim_finishes_in_its_second_record():
    # record 0 meets eps_opt, so call 1 restores to the tolerances: it keeps
    # the Jacobian the tangent phase handed it through every z-step and
    # stage, and the run stops after it
    rep = bira_run(make_highdim())
    assert rep.status == "Converged"
    assert len(rep.records) == 2
    assert rep.records[0].stationarity_residual <= rep.tolerances["eps_opt"]
    last = rep.records[1].resta
    assert last.stages > 0
    assert last.ledger_delta["gradh_evals"] == 0
    assert audit(rep).ok


def _goal_on_every_call(residual, tolerances):
    """:func:`~bira.core.finishing_goal` that hands every call after the
    first the stopping tolerances as its goal, whatever the residual: a
    finishing call whose record does not meet the optimality test."""
    if residual is None:
        return None
    return tolerances["eps_feas"], tolerances["eps_prec"]


@pytest.mark.parametrize("make,ks,stages", [
    (make_p2, [1, 2], [8, 0]),
    (make_p1, [1], [9]),
], ids=["p2", "p1"])
def test_a_finishing_call_that_does_not_stop_the_run_keeps_the_floor(
        monkeypatch, make, ks, stages):
    # every call after the first is a finishing call, in the run and in its
    # audit, while the stopping test still asks for eps_opt: the calls
    # before the last do not stop the run.  Each hands on ||h|| >= g/(2r),
    # and the next call passes the precision test
    for module in (bira.solver, bira.diagnostics):
        monkeypatch.setattr(module, "finishing_goal", _goal_on_every_call)
    params = AlgorithmParams()
    rep = bira_run(make(params), params)
    assert rep.status == "Converged"
    handed_on = rep.records[1:-1]
    assert [rec.k for rec in handed_on] == ks
    assert [rec.resta.stages for rec in handed_on] == stages
    for rec in handed_on:
        assert rec.h_xR_yR >= rec.g_yR / (2.0 * params.r)
    assert audit(rep).ok


def test_the_unit_row_at_r_0_7_finishes_in_its_second_record():
    # record 0 meets eps_opt, and a z-step on the row (||J||**2 = 1)
    # contracts by 1/33 at sigma_min = 1/64, so record 1's finishing call
    # meets both tolerances within its stage cap and the run stops there
    params = AlgorithmParams(r=0.7)
    rep = bira_run(make_unit_row(params), params)
    assert rep.status == "Converged"
    assert len(rep.records) == 2
    last = rep.records[1]
    assert last.resta.stages == 10
    assert last.h_xR_yR <= rep.tolerances["eps_feas"]
    assert audit(rep).ok


def test_p2_steps_on_without_zigzag():
    # each search starts no lower than the Newton weight, so no step
    # passes the minimizer along it: from record 2 on, consecutive tangent
    # steps point the same way and the stationarity residual falls at
    # every record; the one finishing call is the last record's
    rep = bira_run(make_p2())
    assert rep.status == "Converged"
    records = rep.records[2:]
    residuals = [rec.stationarity_residual for rec in records]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    steps = [rec.x_next - rec.x_R for rec in records if not rec.stopped]
    assert len(steps) == len(records) - 1
    assert all(s @ t > 0.0 for s, t in zip(steps, steps[1:]))
    assert [rec.k for rec in rep.records if rec.resta.stages > 0] == [0]
    assert audit(rep).ok


@pytest.mark.parametrize("factory", [make_p1, make_p4, make_highdim],
                         ids=["p1", "p4", "highdim"])
def test_one_tangent_projection_per_trial_and_one_shared(monkeypatch,
                                                         factory):
    # an iteration projects once for the stopping test and once per
    # trial's residual
    calls = []
    for module in (bira.solver, bira.qp):
        real = module.project_tangent

        def spy(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "project_tangent", spy)
    rep = bira_run(factory())
    assert len(calls) == sum(rec.ell_count + 1 for rec in rep.records)


@pytest.mark.parametrize("factory", [make_p1, make_highdim],
                         ids=["p1", "highdim"])
def test_a_restoration_call_keeps_its_one_jacobian(factory):
    # every z-step passes its first trial, so no call refreshes grad h:
    # the first call evaluates it once, every later call keeps the one the
    # tangent phase handed it, and each iteration spends that one
    rep = bira_run(factory())
    assert rep.status == "Converged"
    assert [rec.resta.status for rec in rep.records] == (
        ["restored"] * len(rep.records))
    assert [rec.resta.ledger_delta["gradh_evals"] for rec in rep.records] == (
        [1] + [0] * (len(rep.records) - 1))
    assert [rec.ledger_delta["gradh_evals"] for rec in rep.records] == (
        [2] + [1] * (len(rep.records) - 1))


def test_no_z_step_takes_more_than_the_certified_trials():
    # a z-step's trials start at sigma_min and double; a kept Jacobian's
    # failed first trial is followed by trials on a fresh one from
    # 2 sigma_min, so sigma_min opens every z-step
    params = AlgorithmParams.defaults()
    for name in EXPECTED_SUITE:
        problem = problem_by_name(name, params)
        rep = bira_run(problem, params)
        cap = max(2, constants(problem.constants(),
                               params).sigma_trials_per_step)
        for out in rep.calls:
            trials = []
            for j, _ in out.trials:
                if j == 0:
                    trials.append(0)
                trials[-1] += 1
            assert max(trials, default=0) <= cap, problem.name


def test_regularization_weight_tracks_the_doubling_schedule():
    # each search starts where the previous accepted step predicts the
    # descent test passes, and doubles once per rejected trial.  p1 has no
    # active bound, so every step is unclipped: -g.s, read off the record
    # as mu ||s||^2 - model_decrease, is 2 mu ||s||^2, and the trial at
    # weight m is (mu/m) s.  f is quadratic, so with b the half curvature
    # of f along s the descent test holds iff 2 m >= alpha + b, and the
    # next search starts 10% above that edge, never above mu.  At
    # alpha = 0.1 that edge lies above the Newton weight b = 1/20, so the
    # floor at b never binds
    params = AlgorithmParams(alpha=0.1)
    rep = bira_run(make_p1(params), params)
    # the last record stopped the run and searched nothing
    assert rep.records[-1].stopped and rep.records[-1].mu_k is None
    searched = rep.records[:-1]
    assert searched[0].mu_k == MU_INIT
    for prev, rec in zip(searched, searched[1:]):
        mu, s2 = prev.mu_k, prev.step_norm**2
        minus_gs = mu * s2 - prev.tangent_cert.model_decrease
        assert minus_gs == pytest.approx(2.0 * mu * s2, rel=1e-6)
        b = (minus_gs - (prev.f_xR_yR - prev.f_xnext_ynext)) / s2
        start = min(max(1.1 * (params.alpha + b) / 2.0, MU_MIN), mu)
        assert rec.mu_k == pytest.approx(start * 2.0 ** (rec.ell_count - 1),
                                         rel=1e-12)
        # every first trial passes
        assert rec.ell_count == 1
    # p1's f is ||x - x_f||^2 / 20, so b is 1/20 along every step
    assert searched[-1].mu_k == pytest.approx(1.1 * (0.1 + 0.05) / 2.0)


def test_p1_searches_start_at_the_newton_weight_and_pass():
    # at the default alpha, p1's half curvature b = 1/20 along every step
    # lies above 1.1 (alpha + b)/2, so each search after the first starts
    # on the floor of tangent_mu_start, at the minimizer of f along the
    # step, and its first trial passes.  One such step solves p1's
    # quadratic on a line: record 2 meets eps_opt, and record 3 stops
    params = AlgorithmParams.defaults()
    problem = make_p1()
    rep = bira_run(problem)
    assert rep.status == "Converged" and rep.iterations == 4
    assert audit(rep, problem).ok
    searched = rep.records[:-1]
    assert [rec.ell_count for rec in searched] == [1, 1, 1]
    for prev, rec in zip(searched, searched[1:]):
        mu, s2 = prev.mu_k, prev.step_norm**2
        a = mu * s2 - prev.tangent_cert.model_decrease
        b = (a - (prev.f_xR_yR - prev.f_xnext_ynext)) / s2
        assert b == pytest.approx(0.05)
        assert TANGENT_MU_MARGIN * (params.alpha + b) / 2.0 < b
        assert rec.mu_k == min(b, mu)


def test_the_default_alpha_keeps_the_newton_floor_binding():
    # the floor b binds where TANGENT_MU_MARGIN (alpha + b)/2 < b, that is
    # alpha < (0.9/1.1) b.  b is 1/20 on p1, f = ||x - x_f||^2 / 20, and
    # w/2 on the synthetic family, f = w/2 ||x - c||^2
    alpha = AlgorithmParams.defaults().alpha
    for b in (0.05, load_synth().OBJECTIVE_WEIGHT / 2.0):
        assert alpha < (2.0 / TANGENT_MU_MARGIN - 1.0) * b


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
    assert rep.failure_info["resta"].status == "possible_infeasibility"
    np.testing.assert_allclose(
        rep.final_x, rep.failure_info["resta"].x_R, atol=0)


def test_trace_round_trip_and_version_guard():
    rep = bira_run(make_p4())
    payload = rep.to_dict()
    back = RunReport.from_dict(payload)
    assert back.status == rep.status
    assert len(back.records) == len(rep.records)
    assert back.final_y == rep.final_y
    assert back.ledger_totals == rep.ledger_totals

    for version in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                    16, 17, 18, 19, 20, 21, 22, 23, 999):
        bad = json.loads(json.dumps(payload))
        bad["trace_version"] = version
        with pytest.raises(SchemaError):
            RunReport.from_dict(bad)


def test_to_dict_copies_the_constants_basis():
    rep = bira_run(make_p4())
    before = audit(rep).checks
    d = rep.to_dict()
    d["constants_basis"]["problem_constants"]["provenance"] = "estimated"
    d["constants_basis"]["beta"] = 1.0
    assert audit(rep).checks == before
    assert rep.constants_basis["beta"] < 1.0


def test_restoration_certificates_are_stored_as_columns():
    # one table of trials: each trial's doubling count, and the measured
    # fields of its certificate, each field one packed column; record 0's
    # call holds the first of them
    rep = bira_run(make_p1())
    out = rep.records[0].resta
    d = rep.to_dict()
    columns = d["trials"]
    assert list(columns) == [
        "doublings", "model_decrease", "stationarity_residual", "step_norm",
    ]
    n = out.inner_desc_tests
    assert n > 0 and d["calls"]["trials"][0] == n
    assert columns["doublings"][:n] == [j for j, _ in out.trials]
    for name in list(columns)[1:]:
        got = read_vector(columns[name], name)[:n]
        want = np.array([getattr(cert, name) for _, cert in out.trials])
        assert got.tobytes() == want.tobytes()
    assert "inner_desc_tests" not in d["calls"]

    missing = {k: v for k, v in columns.items() if k != "step_norm"}
    ragged = {**columns, "doublings": columns["doublings"][:-1]}
    # the rows of schema v9, one object per trial
    rows = [{"doublings": j, **dataclasses.asdict(cert)}
            for j, cert in out.trials]
    for bad in (missing, ragged, rows):
        with pytest.raises(SchemaError, match="^trials table"):
            RunReport.from_dict({**d, "trials": bad})


def test_failure_report_round_trips_byte_identical():
    rep = bira_run(make_p3(), budget=50)
    assert rep.failure_info["resta"].trials
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
    assert d["start"] == {"x": write_vector(make_p4().x0),
                          "y": list(make_p4().y0.as_tuple()),
                          "f": rep.start["f"], "h": rep.start["h"]}
    assert write_vector(rep.final_x) == d["start"]["x"]
    assert rep.final_y == PrecisionLevel(*d["start"]["y"])
    assert rep.ledger_totals == {
        "f_evals": 1, "gradf_evals": 0, "h_evals": 1, "gradh_evals": 0}
    # the start-up charge the audit and the theory chain read
    assert rep.ledger_totals == STARTUP_EVALS
    assert audit(rep).ok


@pytest.mark.parametrize("edit", [
    lambda d: d["records"].update(x_k=[None] + d["records"]["x_next"][:-1]),
    lambda d: d["records"].update(
        ledger_after=[d["ledger_totals"]] * len(d["records"]["ell_count"])),
    lambda d: d.update(final_x=d["start"]["x"]),
    lambda d: d["records"].update(y_next=d["calls"]["y_R"]),
], ids=["x_k", "ledger_after", "final_x", "y_next"])
def test_a_trace_writes_each_value_once(edit):
    d = json.loads(json.dumps(bira_run(make_p1()).to_dict()))
    edit(d)
    with pytest.raises(SchemaError, match="unknown"):
        RunReport.from_dict(d)


def test_x_next_is_written_only_when_the_step_moved():
    # a zero step leaves x_next equal to x_R, which the trace already
    # writes in the restoration outcome, so its x_next entry is null, and
    # so is that of the record that stopped the run, which took no step
    moved = bira_run(make_p2()).to_dict()
    assert moved["records"]["x_next"][-1] is None
    assert None not in moved["records"]["x_next"][:-1]
    rep = bira_run(make_unit_row())
    d = json.loads(json.dumps(rep.to_dict()))
    assert d["records"]["x_next"] == [None] * len(rep.records)
    back = RunReport.from_dict(d)
    assert rep.records[-1].stopped and back.records[-1].x_next is None
    for rec, got in zip(rep.records[:-1], back.records):
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
        assert rec.y_R is rec.resta.y_R
        assert (rec.h_xk_yR, rec.h_xR_yR) == (rec.resta.h_xk_yR,
                                              rec.resta.h_xR_yR)
        assert rec.g_yk == max(rec.y_k.gf, rec.y_k.gh)
        assert rec.g_yR == rec.resta.y_R.g
        # deterministic oracles: re-measuring reproduces the solver's
        # values, and the tangent phase measured at the restored precision;
        # h_xk_yR and f_xk_yR are the bounds at y_R of the values at y_k,
        # below their measurements
        beta = fresh.extras()["beta"]
        assert rec.h_xk_yR == outer_reference(rec.h_xk_yk, rec.y_k, y_R,
                                              beta)
        assert rec.h_xk_yR <= float(
            np.linalg.norm(fresh.eval_h(rec.x_k, y_R)))
        if rec.stopped:
            assert rec.k == len(rep.records) - 1
            assert got.mu_k is rec.mu_k is None
            assert got.f_xk_yR is rec.f_xk_yR is None
            assert got.theta_after == rec.theta_after == rec.theta_before
        else:
            assert rec.f_xk_yR == reference_value(rec.f_xk_yk, rec.y_k, y_R,
                                                  beta)
            assert rec.f_xk_yR <= fresh.eval_f(rec.x_k, y_R)
            assert rec.f_xnext_ynext == fresh.eval_f(rec.x_next, y_R)
            assert rec.h_xnext_ynext == float(
                np.linalg.norm(fresh.eval_h(rec.x_next, y_R)))
            assert rec.step_norm == float(np.linalg.norm(rec.x_next
                                                         - rec.x_R))
            assert np.array([got.mu_k, got.f_xk_yR,
                             got.theta_after]).tobytes() == np.array(
                [rec.mu_k, rec.f_xk_yR, rec.theta_after]).tobytes()
        # the reloaded chain and replayed fields are the solver's, bit for
        # bit
        assert got.x_k.tobytes() == rec.x_k.tobytes()
        assert (got.y_k, got.f_xk_yk, got.h_xk_yk, got.theta_before) == (
            rec.y_k, rec.f_xk_yk, rec.h_xk_yk, rec.theta_before)
    assert back.final_x.tobytes() == rep.final_x.tobytes()
    assert back.final_y == rep.final_y


@pytest.mark.parametrize("kwargs", [
    {"eps_feas": 0.0}, {"eps_prec": -1e-6}, {"eps_opt": float("nan")},
    {"budget": -1}, {"eps_opt": float("inf")},
])
def test_bad_run_inputs_are_configuration_errors(kwargs):
    with pytest.raises(ConfigurationError):
        bira_run(make_p4(), **kwargs)


class _NoStart(InexactProblem):
    """Every hook of a problem, but no start point or precision."""

    constants_calls = 0

    def __init__(self):
        super().__init__("nostart", BoxPolytope(-np.ones(2), np.ones(2)), 1)

    def _f(self, x, y):
        return float(x @ x)

    def _grad_f(self, x, y):
        return 2.0 * x

    def _h(self, x, y):
        return np.array([x.sum()])

    def _grad_h(self, x, y):
        return np.ones((1, 2))

    def constants(self):
        self.constants_calls += 1
        return make_p4().constants()


@pytest.mark.parametrize("start", [{}, {"x0": np.zeros(2)},
                                   {"y0": PrecisionLevel(0.5, 0.5)}],
                         ids=["neither", "no_y0", "no_x0"])
def test_a_problem_without_a_start_is_a_configuration_error(start):
    problem = _NoStart()
    vars(problem).update(start)
    missing = "x0" if "x0" not in start else "y0"
    with pytest.raises(ConfigurationError,
                       match=f"problem nostart sets no start {missing}"):
        bira_run(problem)
    # refused before the constants chain and before any evaluation
    assert problem.constants_calls == 0
    assert problem.ledger.snapshot() == dict.fromkeys(STARTUP_EVALS, 0)


def test_a_run_makes_no_exact_evaluation():
    # exact values are the audit's, given the problem: a problem whose
    # exact_f and exact_h raise solves as before
    def refuse(x):
        raise AssertionError("bira_run called an exact oracle")

    problem = make_p1()
    problem.exact_f = problem.exact_h = refuse
    got = bira_run(problem).to_dict()
    assert json.dumps(got) == json.dumps(bira_run(make_p1()).to_dict())


def test_repeated_runs_are_bitwise_identical():
    a = json.dumps(bira_run(make_p1()).to_dict(), sort_keys=True)
    b = json.dumps(bira_run(make_p1()).to_dict(), sort_keys=True)
    assert a == b
