import json
import math

import pytest

from bira.core import (
    DEFAULT_KAPPAS,
    AlgorithmParams,
    InsufficientDataError,
    ProblemConstants,
    SchemaError,
)
from bira.diagnostics import (
    FALLBACK_INNER_CAP,
    SIGMA_MAX,
    audit,
    complexity_fit,
    constants,
    iteration_bounds,
    leq,
    restoration_inner_cap,
)
from bira.oracle import make_p4, problem_by_name
from bira.solver import RunReport, bira_run


def _pc(**kw):
    base = dict(L_f=1.0, L_h=1.0, L_c=1.0, C_f=1.0, C_h=1.0, C_g=1.0)
    base.update(kw)
    return ProblemConstants(**base)


def test_sigma_sufficient_worked_example():
    # twice (curvature bound + half the scaled-model cap + descent margin)
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "M": 1.0, "alpha_R": 0.5,
        "sigma_min": 1.0,
    })
    tc = constants(_pc(L_c=1.0), params)
    assert tc.sigma_sufficient == pytest.approx(4.0)


def test_sigma_trial_count_worked_example():
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(),
        "M": 1.0, "alpha_R": 0.5, "sigma_min": 1.0,
    })
    tc = constants(_pc(L_c=1.0), params)
    assert tc.sigma_sufficient == pytest.approx(4.0)
    # doubling from 1 passes through 1, 2, 4
    assert tc.sigma_trials_per_step == 3


def test_a_z_step_is_certified_two_trials_when_sigma_min_suffices():
    # sigma_sufficient = 2 (1e-3 + 1/2 + 0.1) = 1.202 <= sigma_min = 4: the
    # first trial passes on a fresh Jacobian, but one on a kept Jacobian
    # may fail and be followed by a trial at 8 on a fresh one
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(),
        "M": 1.0, "alpha_R": 0.1, "sigma_min": 4.0,
    })
    tc = constants(_pc(L_c=1e-3), params)
    assert tc.sigma_sufficient <= params.sigma_min
    assert tc.sigma_trials_per_step == 2


def test_sigma_cap_takes_the_larger_of_cap_and_max():
    tc = constants(_pc(L_c=100.0), AlgorithmParams.defaults())
    assert tc.sigma_cap == 10.0 * tc.sigma_sufficient > SIGMA_MAX
    # sigma_sufficient = 2 (1e-3 + 1/2 + 0.1) = 1.202: the fixed floor wins
    small = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "M": 1.0, "sigma_min": 1.0,
        "alpha_R": 0.1,
    })
    tc_small = constants(_pc(L_c=1e-3), small)
    assert 10.0 * tc_small.sigma_sufficient < SIGMA_MAX
    assert tc_small.sigma_cap == SIGMA_MAX


def test_penalty_floor_branches():
    wide = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "theta_0": 0.99,
    })
    tc = constants(_pc(), wide)
    r = wide.r
    expect = 1.0 / ((2.0 / (1.0 + r))
                    * (1.0 * tc.restored_distance_factor / (1.0 - r) + 1.0))
    assert tc.penalty_floor == pytest.approx(expect)
    assert tc.penalty_floor < 0.99

    # a starting weight below the analytic floor becomes the floor itself
    tiny = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "theta_0": expect / 2.0,
    })
    tc2 = constants(_pc(), tiny)
    assert tc2.penalty_floor == pytest.approx(expect / 2.0)


def test_mu_cap_grows_with_precision_carry_allowance():
    base = AlgorithmParams.defaults()
    tc = constants(_pc(), base)
    assert tc.mu_cap == max(10.0 * tc.mu_sufficient, base.mu_max)


def test_beta_bar_formula():
    params = AlgorithmParams.defaults()
    tc = constants(_pc(), params, extras={"gamma": 0.25})
    r = params.r
    expect = tc.penalty_floor * (1.0 - 0.25) * (1.0 - r) ** 2 / 2.0
    assert tc.beta_bar == pytest.approx(expect)


def test_restoration_step_cap_recomputed():
    params = AlgorithmParams.defaults()
    tc = constants(_pc(L_c=2.0), params)
    g = tc.restoration_grad_bound
    expect = (g * g * (1.0 - params.r**4)
              / (2.0 * params.alpha_R * params.r_feas**2) + 1.0)
    assert tc.restoration_steps_per_level == pytest.approx(expect)


def test_iteration_bounds_floors():
    params = AlgorithmParams.defaults()
    tc = constants(_pc(), params)
    nb = iteration_bounds(tc, 1e-3, 1e-3, 1e-3)
    cf = tc.infeasibility_sum_bound
    assert nb.h_above_tol_iters == math.floor(params.r * cf / 1e-3)
    assert nb.g_above_tol_iters == math.floor(cf / 1e-3)
    assert nb.infeasible_iters == math.floor(params.r * cf / 1e-3)
    assert nb.optimality_iters == math.floor(
        tc.residual_square_sum_bound / 1e-6
    )
    assert nb.total_iters == (nb.infeasible_iters + nb.g_above_tol_iters
                              + nb.optimality_iters + 1)
    with pytest.raises(ValueError):
        iteration_bounds(tc, 0.0, 1e-3, 1e-3)


def test_inner_cap_falls_back_without_analytic_constants():
    params = AlgorithmParams.defaults()
    tc = constants(_pc(), params)
    assert restoration_inner_cap(tc) == math.ceil(
        10.0 * tc.restoration_iter_cap
    )
    est = constants(_pc(provenance="estimated"), params)
    assert restoration_inner_cap(est) == FALLBACK_INNER_CAP


def test_leq_uses_relative_slack():
    assert leq(1.0, 1.0)
    assert leq(1.0 + 5e-10, 1.0)
    assert not leq(1.0 + 5e-9, 1.0)
    assert leq(1e12 + 1.0, 1e12)
    # no absolute floor: tiny bounds are compared at their own scale
    assert not leq(1.1e-10, 1e-10)
    assert leq(1.0 + 1e-12, 1.0)
    assert leq(0.0, 0.0)
    assert not leq(1e-300, 0.0)


def test_complexity_fit_recovers_power_law():
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    work = [7.0 / e**2 for e in eps]
    slope, intercept = complexity_fit(eps, work)
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert intercept == pytest.approx(math.log(7.0), abs=1e-9)
    with pytest.raises(InsufficientDataError):
        complexity_fit([1e-1, 1e-2], [10.0, 100.0])
    with pytest.raises(InsufficientDataError):
        complexity_fit([1e-1, 1e-1, 1e-1], [1.0, 1.0, 1.0])


def _fresh_report():
    return bira_run(make_p4())


def _tc_of(report):
    basis = report.constants_basis
    pc = ProblemConstants.from_dict(basis["problem_constants"])
    return constants(pc, report.params, extras=basis["extras"])


def test_audit_passes_on_clean_run():
    rep = _fresh_report()
    res = audit(rep, tc=_tc_of(rep))
    assert res.ok
    assert res.failures == []
    assert any("PASS" in line for line in res.lines())


def test_audit_catches_tampered_penalty():
    rep = _fresh_report()
    d = rep.to_dict()
    d["records"][0]["theta_after"] = 0.6
    bad = RunReport.from_dict(d)
    res = audit(bad, tc=_tc_of(bad))
    assert not res.ok
    assert "theta_monotone" in [c.name for c in res.failures]


def test_audit_catches_tampered_sigma_history():
    rep = _fresh_report()
    d = rep.to_dict()
    d["records"][0]["resta"]["sigma_history"] = [1e12]
    bad = RunReport.from_dict(d)
    res = audit(bad, tc=_tc_of(bad))
    assert "sigma_cap" in [c.name for c in res.failures]


def test_audit_skips_bound_checks_on_estimated_constants():
    rep = _fresh_report()
    d = rep.to_dict()
    d["constants_basis"]["problem_constants"]["provenance"] = "estimated"
    est = RunReport.from_dict(d)
    res = audit(est, tc=_tc_of(est))
    assert res.ok
    by_name = {c.name: c.status for c in res.checks}
    assert by_name["sigma_cap"] == "skipped"
    assert by_name["infeasibility_summability"] == "skipped"
    assert by_name["theta_monotone"] == "pass"
    assert by_name["restoration_f_free"] == "pass"


#: The audit's checks, in report order, and those it skips on estimated
#: problem constants.
CHECKS = (
    "theta_monotone", "theta_lower_bound", "penalty_merit_decrease",
    "sigma_cap", "mu_cap", "restored_distance", "restored_value_drift",
    "infeasibility_summability", "step_summability", "residual_vs_step",
    "residual_summability", "ledger_caps", "restoration_f_free",
    "restoration_model_decrease", "restoration_solve_accuracy",
    "tangent_model_decrease", "tangent_solve_accuracy",
    "oracle_f_error_bound", "oracle_h_error_bound", "noise_within_budget",
    "restoration_inner_caps", "step_per_infeasibility",
    "precision_refinement", "restoration_tests", "ledger_totals",
    "stopping_test",
)
ANALYTIC_ONLY = {
    "theta_lower_bound", "sigma_cap", "mu_cap", "restored_distance",
    "restored_value_drift", "infeasibility_summability", "step_summability",
    "residual_vs_step", "residual_summability", "ledger_caps",
    "noise_within_budget", "step_per_infeasibility",
}
# p3 stops in its first restoration, before any oracle error is recorded
NO_EXACT_VALUES = {"p3": {"oracle_f_error_bound", "oracle_h_error_bound"}}


@pytest.fixture(scope="module")
def suite_runs():
    return {name: bira_run(problem_by_name(name))
            for name in ("p1", "p1_pdp", "p2", "p3", "p4")}


def _trace(report):
    # a trace as saved: to_dict shares the constants basis with the report
    return json.loads(json.dumps(report.to_dict()))


def _verdicts(report):
    return [(c.name, c.status) for c in audit(report).checks]


def _expected(name, skipped=frozenset()):
    skipped = skipped | NO_EXACT_VALUES.get(name, set())
    return [(c, "skipped" if c in skipped else "pass") for c in CHECKS]


@pytest.mark.parametrize("name", ["p1", "p1_pdp", "p2", "p3", "p4"])
def test_audit_verdicts_of_the_suite_runs(suite_runs, name):
    assert _verdicts(suite_runs[name]) == _expected(name)


@pytest.mark.parametrize("name", ["p1", "p1_pdp", "p2", "p3", "p4"])
def test_audit_verdicts_on_estimated_constants(suite_runs, name):
    d = _trace(suite_runs[name])
    d["constants_basis"]["problem_constants"]["provenance"] = "estimated"
    assert _verdicts(RunReport.from_dict(d)) == _expected(name, ANALYTIC_ONLY)


#: One edit per check to a value recorded in a p1 trace: ``(check, path,
#: new value as a function of the trace and the derived constants)``.
#: Record 0 starts from the trace's ``start`` block and ``theta_0``.  Most
#: edits go ten times past their bound; the chain's bounds on p1 reach 1e8
#: to 1e42, so some edits are that large.
TAMPERS = [
    ("theta_monotone", ("records", 0, "theta_after"),
     lambda t, tc: t["params"]["theta_0"] + 1e-3),
    ("theta_lower_bound", ("records", 0, "theta_after"),
     lambda t, tc: tc.penalty_floor / 100.0),
    # the first step lowered the merit by about 1.8 at theta = 0.5
    ("penalty_merit_decrease", ("records", 0, "f_xnext_ynext"),
     lambda t, tc: t["records"][0]["f_xnext_ynext"] + 10.0),
    ("sigma_cap", ("records", 0, "resta", "sigma_history", 0),
     lambda t, tc: 10.0 * tc.sigma_cap),
    ("mu_cap", ("records", 0, "mu_k"), lambda t, tc: 10.0 * tc.mu_cap),
    ("restored_distance", ("records", 0, "resta", "x_R", 0),
     lambda t, tc: t["records"][0]["resta"]["x_R"][0] + 10.0
     * tc.restored_distance_factor * (t["start"]["h"] + max(t["start"]["y"]))),
    ("restored_value_drift", ("records", 0, "f_xR_yR"),
     lambda t, tc: t["records"][0]["f_xk_yR"] + 10.0
     * tc.restored_value_factor * (t["start"]["h"] + max(t["start"]["y"]))),
    ("infeasibility_summability", ("records", 0, "resta", "h_xk_yR"),
     lambda t, tc: 10.0 * tc.infeasibility_sum_bound),
    ("step_summability", ("records", 0, "tangent_cert", "step_norm"),
     lambda t, tc: 10.0 * math.sqrt(tc.step_square_sum_bound)),
    ("residual_vs_step", ("records", 0, "stationarity_residual"),
     lambda t, tc: 10.0 * tc.residual_step_factor
     * t["records"][0]["tangent_cert"]["step_norm"]),
    ("residual_summability", ("records", 0, "stationarity_residual"),
     lambda t, tc: 10.0 * math.sqrt(tc.residual_square_sum_bound)),
    ("ledger_caps", ("records", 0, "ledger_delta", "gradh_evals"),
     lambda t, tc: math.floor(tc.gradh_evals_per_iter) + 1),
    ("restoration_f_free", ("records", 0, "resta", "ledger_delta", "f_evals"),
     lambda t, tc: 1),
    ("restoration_model_decrease",
     ("records", 0, "resta", "certificates", "model_decrease", 0),
     lambda t, tc: 1e-9),
    ("restoration_solve_accuracy",
     ("records", 0, "resta", "certificates", "kappa_ratio", 0),
     lambda t, tc: 10.0 * DEFAULT_KAPPAS["kappa_R"]),
    ("tangent_model_decrease", ("records", 0, "tangent_cert", "model_decrease"),
     lambda t, tc: 1e-9),
    ("tangent_solve_accuracy",
     ("records", 0, "tangent_cert", "stationarity_residual"),
     lambda t, tc: 10.0 * DEFAULT_KAPPAS["kappa"]
     * t["records"][0]["tangent_cert"]["step_norm"]),
    ("oracle_f_error_bound", ("records", 0, "oracle_f_error"),
     lambda t, tc: 10.0 * tc.extras["noise_scale_f"] * t["start"]["y"][0]),
    ("oracle_h_error_bound", ("records", 0, "oracle_h_error"),
     lambda t, tc: 10.0 * tc.extras["noise_scale_h"] * t["start"]["y"][1]),
    # ten percent past the budget, far beyond leq's 1e-9 relative slack
    ("noise_within_budget", ("constants_basis", "extras", "beta"),
     lambda t, tc: 1.1 * tc.beta_bar),
    ("restoration_inner_caps",
     ("records", 0, "resta", "inner_desc_tests"),
     lambda t, tc: restoration_inner_cap(tc) + 1),
    ("step_per_infeasibility", ("records", 0, "resta", "max_step_over_h"),
     lambda t, tc: 10.0 * tc.step_per_infeasibility),
    # a restored call that claims to have left the precision unrefined
    ("precision_refinement", ("records", 0, "resta", "y_R", 0),
     lambda t, tc: t["start"]["y"][0]),
    # a restored call relabelled as one that had nothing to restore
    ("precision_refinement", ("records", 0, "resta", "status"),
     lambda t, tc: "trivial"),
    # the last call is deep (record 18 met eps_opt), so it refined at
    # r**2, not r
    ("precision_refinement", ("records", 19, "resta", "y_R", 0),
     lambda t, tc: t["params"]["r"] * t["records"][18]["resta"]["y_R"][0]),
    # a call that claims to have contracted nothing
    ("restoration_tests", ("records", 5, "resta", "h_xR_yR"),
     lambda t, tc: t["records"][5]["resta"]["h_xk_yR"]),
    # a run that claims to have evaluated nothing
    ("ledger_totals", ("ledger_totals",),
     lambda t, tc: dict.fromkeys(t["ledger_totals"], 0)),
    # a converged run relabelled as out of budget, far short of its budget
    ("stopping_test", ("status",), lambda t, tc: "BudgetExceeded"),
]


#: A case's id is its check, suffixed with the edited field for a check's
#: second case.
TAMPER_IDS = []
for _name, _path, _ in TAMPERS:
    TAMPER_IDS.append(_name if _name not in TAMPER_IDS
                      else f"{_name}_{_path[-1]}")


def test_every_check_has_a_tampering_case():
    assert {name for name, _, _ in TAMPERS} == set(CHECKS)


@pytest.mark.parametrize("check,path,value", TAMPERS, ids=TAMPER_IDS)
def test_audit_catches_one_tampered_value(suite_runs, check, path, value):
    rep = suite_runs["p1"]
    assert audit(rep).ok
    d = _trace(rep)
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(d, _tc_of(rep))
    bad = RunReport.from_dict(d)
    failed = {c.name: c.detail for c in audit(bad).failures}
    assert check in failed
    # the failing row is the edited record's, or a whole-run row
    edited = path[1] if path[0] == "records" else 0
    assert failed[check].split(":")[0] in (f"iteration {edited}",
                                           "whole run")


def _failures(trace):
    return {c.name: c.detail
            for c in audit(RunReport.from_dict(trace)).failures}


def test_a_truncated_trace_fails_the_ledger_totals(suite_runs):
    # the ten dropped iterations are still in the totals, and the last
    # record left does not meet the stopping test the status claims
    d = _trace(suite_runs["p1"])
    d["records"] = d["records"][:-10]
    failed = _failures(d)
    assert list(failed) == ["ledger_totals", "stopping_test"]
    assert failed["ledger_totals"].startswith("whole run: ")
    last = len(d["records"]) - 1
    assert failed["stopping_test"].startswith(f"iteration {last}: ")


@pytest.mark.parametrize("run", [
    lambda: bira_run(problem_by_name("p1"), budget=3),
    lambda: bira_run(problem_by_name("p4"), budget=0),
    lambda: bira_run(problem_by_name("p3")),
], ids=["budget_exceeded", "budget_zero", "restoration_failure"])
def test_the_stopping_test_agrees_with_every_status(run):
    rep = run()
    assert {c.name: c.status for c in audit(rep).checks}["stopping_test"] == (
        "pass")


@pytest.mark.parametrize("edit,where", [
    # the last iteration's residual no longer meets the tolerance
    (lambda d: d["tolerances"].update(eps_opt=1e-9), "iteration 19"),
    # a run that met the test at record 19 cannot have run out of budget
    (lambda d: d.update(status="BudgetExceeded", budget=20), "iteration 19"),
    # a converged run stopped at the first record that met the test
    (lambda d: d["records"].append({**d["records"][-1], "k": 20}),
     "iteration 19"),
    (lambda d: d.update(records=[]), "whole run"),
], ids=["eps_opt", "budget_exceeded_at_its_budget", "record_after_stopping",
        "converged_without_records"])
def test_the_status_is_replayed(suite_runs, edit, where):
    d = _trace(suite_runs["p1"])
    assert len(d["records"]) == 20
    edit(d)
    failed = _failures(d)
    assert failed["stopping_test"].startswith(where + ":")


@pytest.mark.parametrize("edit", [
    # restoration failed in the iteration after the last record
    lambda d: d["failure_info"].update(iteration=1),
    lambda d: d.update(status="BudgetExceeded", failure_info=None),
], ids=["failure_iteration", "relabelled_budget_exceeded"])
def test_a_relabelled_restoration_failure_is_caught(suite_runs, edit):
    d = _trace(suite_runs["p3"])
    edit(d)
    assert "stopping_test" in _failures(d)


def test_a_restored_call_relabelled_trivial_is_caught(suite_runs):
    # a trivial call returns its input, so setting y_R back to the
    # unrefined y_k does not excuse the label
    d = _trace(suite_runs["p1"])
    rec = d["records"][3]["resta"]
    rec["status"] = "trivial"
    rec["y_R"] = d["records"][2]["resta"]["y_R"]
    assert _failures(d) == {"precision_refinement":
                            "iteration 3: 3.009e-01 exceeds 0.000e+00"}


def test_a_trivial_call_passes_the_refinement_check(suite_runs):
    # p4 starts feasible at exact precision: its one call is trivial
    rep = suite_runs["p4"]
    assert [rec.resta.status for rec in rep.records] == ["trivial"]
    by_name = {c.name: c for c in audit(rep).checks}
    assert by_name["precision_refinement"].status == "pass"
    assert by_name["precision_refinement"].detail == (
        "iteration 0: 0.000e+00 within 0.000e+00")


def test_the_failing_restoration_test_is_replayed():
    # p2 at r = 0.25 ends in a call whose precision gain outpaced its
    # feasibility gain; the call did contract by r
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "r": 0.25})
    rep = bira_run(problem_by_name("p2", params), params)
    assert rep.failure_info["kind"] == "precision_outpaced_feasibility"
    assert rep.failure_info["iteration"] == 3
    by_name = {c.name: c.status for c in audit(rep).checks}
    assert by_name["restoration_tests"] == "pass"
    d = _trace(rep)
    d["failure_info"]["kind"] = "insufficient_contraction"
    assert _failures(d)["restoration_tests"].startswith(
        f"iteration {rep.failure_info['iteration']}:")


def test_restoration_ray_ratio_is_audited(suite_runs):
    # a restoration solve far short of its projected steepest-descent ray
    d = _trace(suite_runs["p1"])
    d["records"][0]["resta"]["certificates"]["kappa_phi_ratio"][0] = 1e6
    assert _failures(d) == {"restoration_solve_accuracy":
                            "iteration 0: 1.000e+06 exceeds 1.000e+01"}


def test_a_trace_cannot_loosen_the_solve_targets(suite_runs):
    d = _trace(suite_runs["p1"])
    cert = d["records"][0]["tangent_cert"]
    cert["stationarity_residual"] = 100.0 * cert["step_norm"]
    assert list(_failures(d)) == ["tangent_solve_accuracy"]
    # targets loose enough to excuse that residual are not part of a trace
    d["constants_basis"]["kappas"] = {"kappa": 1e3, "kappa_T": 1e9}
    with pytest.raises(SchemaError, match="constants basis"):
        RunReport.from_dict(d)
