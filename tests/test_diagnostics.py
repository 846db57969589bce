import dataclasses
import json
import math

import pytest
from conftest import (
    TABLES,
    call_row,
    edit_packed,
    first_trial,
    load_synth,
    make_unit_row,
    record_row,
)

from bira.core import (
    ACCEPTANCE_RATIO,
    DEFAULT_KAPPAS,
    LEDGER_FIELDS,
    MU_INIT,
    MU_MAX,
    N_PREC,
    STARTUP_EVALS,
    THETA_0,
    AlgorithmParams,
    InsufficientDataError,
    ProblemConstants,
    SchemaError,
)
from bira.diagnostics import (
    FALLBACK_INNER_CAP,
    GAMMA,
    SIGMA_MAX,
    audit,
    complexity_fit,
    constants,
    iteration_bounds,
    leq,
    restoration_inner_cap,
    restoration_stage_cap,
)
from bira.oracle import make_p4, problem_by_name
from bira.solver import bira_run
from bira.trace import RunReport, read_vector, write_vector


def _pc(**kw):
    base = dict(L_f=1.0, L_h=1.0, L_c=1.0, C_f=1.0, C_h=1.0, C_g=1.0)
    base.update(kw)
    return ProblemConstants(**base)


def test_sigma_sufficient_worked_example():
    # twice (curvature bound + half the scaled-model cap + descent margin),
    # where the descent margin is 2 eta sigma_min = 1/2
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "M": 1.0, "sigma_min": 1.0,
    })
    tc = constants(_pc(L_c=1.0), params)
    assert tc.alpha_R == 0.5
    assert tc.sigma_sufficient == pytest.approx(4.0)


def test_sigma_trial_count_worked_example():
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "M": 1.0, "sigma_min": 1.0,
    })
    tc = constants(_pc(L_c=1.0), params)
    assert tc.sigma_sufficient == pytest.approx(4.0)
    # doubling from 1 passes through 1, 2, 4
    assert tc.sigma_trials_per_step == 3


def test_a_z_step_is_certified_two_trials_when_one_doubling_suffices():
    # sigma_sufficient = 2 (1e-3 + 1/2 + 2) = 5.002 <= 2 sigma_min = 8: the
    # second trial passes on a fresh Jacobian, and a trial on a kept
    # Jacobian that fails is followed by the trial at 8 on a fresh one, so
    # the count is 2 either way
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "M": 1.0, "sigma_min": 4.0,
    })
    tc = constants(_pc(L_c=1e-3), params)
    assert tc.sigma_sufficient <= 2.0 * params.sigma_min
    assert tc.sigma_trials_per_step == 2


def test_sigma_cap_takes_the_larger_of_cap_and_max():
    tc = constants(_pc(L_c=100.0), AlgorithmParams.defaults())
    assert tc.sigma_cap == 10.0 * tc.sigma_sufficient > SIGMA_MAX
    # sigma_sufficient = 2 (1e-3 + 1/2 + 1/2) = 2.002: the fixed floor wins
    small = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "M": 1.0, "sigma_min": 1.0,
    })
    tc_small = constants(_pc(L_c=1e-3), small)
    assert 10.0 * tc_small.sigma_sufficient < SIGMA_MAX
    assert tc_small.sigma_cap == SIGMA_MAX


def test_penalty_floor_branches():
    params = AlgorithmParams.defaults()
    tc = constants(_pc(), params)
    r = params.r
    expect = 1.0 / ((2.0 / (1.0 + r))
                    * (1.0 * tc.restored_distance_factor / (1.0 - r) + 1.0))
    assert tc.penalty_floor == pytest.approx(expect)
    assert tc.penalty_floor < THETA_0

    # with no Lipschitz constant on f the analytic floor is (1 + r)/2 =
    # 0.75, above the starting weight, which becomes the floor itself
    tc2 = constants(_pc(L_f=0.0), params)
    assert (1.0 + r) / 2.0 > THETA_0
    assert tc2.penalty_floor == THETA_0


def test_restored_distance_factor_worked_example():
    # sqrt(N / (2 alpha_R)) over the trials N of a call, times the noise's
    # rise 1 + beta (2 - r**2) / (1 - r**2), which is 7/3 at r = 1/2; the
    # ratio test certifies alpha_R = 2 eta sigma_min, 1/128 at the defaults
    params = AlgorithmParams.defaults()
    tc = constants(_pc(), params, extras={"beta": 0.03})
    n = restoration_inner_cap(tc)
    assert params.r == 0.5
    assert tc.alpha_R == 2.0 * ACCEPTANCE_RATIO * params.sigma_min == 1 / 128
    assert tc.restored_distance_factor == pytest.approx(
        math.sqrt(n / (2.0 * tc.alpha_R)) * (1.0 + 0.03 * 7.0 / 3.0))


def test_mu_cap_grows_with_precision_carry_allowance():
    base = AlgorithmParams.defaults()
    tc = constants(_pc(), base)
    assert tc.mu_cap == max(10.0 * tc.mu_sufficient, MU_MAX)


def test_beta_bar_formula():
    params = AlgorithmParams.defaults()
    tc = constants(_pc(), params)
    r = params.r
    expect = tc.penalty_floor * (1.0 - GAMMA) * (1.0 - r) ** 2 / 2.0
    assert tc.beta_bar == pytest.approx(expect)


@pytest.mark.parametrize("extras", [
    {"gamma": 0.25}, {"gamma": 2.0}, {"k_R": 4.0}, {"k_R": -1.0},
    {"n_pdp": 2, "noise_scale_f": 1.0}])
def test_the_chain_reads_only_beta_of_its_extras(extras):
    # beta is the one extra the analysis takes; gamma is the constant
    # GAMMA, and no other key moves a derived quantity or is refused
    params = AlgorithmParams.defaults()
    assert (constants(_pc(), params, extras={**extras, "beta": 0.03})
            == constants(_pc(), params, extras={"beta": 0.03}))
    assert constants(_pc(), params, extras=extras) == constants(_pc(), params)


def test_restoration_step_cap_recomputed():
    params = AlgorithmParams.defaults()
    tc = constants(_pc(L_c=2.0), params)
    g = tc.restoration_grad_bound
    expect = (g * g * (1.0 - params.r**4)
              / (2.0 * tc.alpha_R * params.r_feas**2) + 1.0)
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
    assert tuple(nb.max_evals) == LEDGER_FIELDS
    for key, cap in tc.evals_per_iter.items():
        assert nb.max_evals[key] == nb.total_iters * cap + STARTUP_EVALS[key]
    for eps in ((0.0, 1e-3, 1e-3), (math.inf, 1e-3, 1e-3),
                (1e-3, math.inf, 1e-3), (1e-3, 1e-3, math.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            iteration_bounds(tc, *eps)


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
    # an overflowed sum gets no slack, which would be infinite too
    assert not leq(math.inf, 1e300)
    assert leq(math.inf, math.inf)


def test_a_sum_of_squares_that_overflows_fails_its_bound(suite_runs):
    # two residuals whose squares are finite but whose sum is not
    d = _trace(suite_runs["p2"])

    def edit(t):
        t["records"]["stationarity_residual"][2:4] = [1.3e154] * 2
    edit_packed(d, edit)
    failed = _failures(d)
    assert failed["residual_summability"].startswith("whole run: inf exceeds")


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


def test_audit_passes_on_clean_run():
    rep = _fresh_report()
    res = audit(rep)
    assert res.ok
    assert res.failures == []
    assert any("PASS" in line for line in res.lines())


def test_audit_catches_tampered_penalty():
    # the penalty weight is replayed from the values it was chosen by: p4's
    # first call restored nothing, so an objective raised by 10 at its
    # restored point leaves no positive weight.  Below p4's residual of one
    # rounding error the record searches a tangent step instead of stopping
    rep = bira_run(make_p4(), eps_opt=1e-300, budget=1)
    assert not rep.records[0].stopped
    d = rep.to_dict()
    edit_packed(d, lambda t: t["records"]["f_xR_yR"].__setitem__(
        0, t["records"]["f_xR_yR"][0] + 10.0))
    with pytest.raises(SchemaError, match="^iteration record 0: the replayed"
                       " penalty update finds no weight"):
        RunReport.from_dict(d)


def _claim_trials(doublings):
    """An edit of a decoded trace that appends zero-step trials with the
    doubling counts ``doublings`` to record 0's call."""
    def edit(t):
        end = t["calls"]["trials"][0]
        for name, column in t["trials"].items():
            column[end:end] = (list(doublings) if name == "doublings"
                               else [0.0] * len(doublings))
        t["calls"]["trials"][0] += len(doublings)
    return edit


def test_audit_catches_a_trial_sigma_past_the_cap():
    rep = _fresh_report()
    d = rep.to_dict()
    # p4's call took no trial: claim one at sigma = 2**-6 * 2**50, about
    # 1.8e13
    edit_packed(d, _claim_trials([50]))
    bad = RunReport.from_dict(d)
    res = audit(bad)
    assert "sigma_cap" in [c.name for c in res.failures]


def test_a_doubling_count_past_the_float_range_fails_the_sigma_cap():
    # sigma_min * 2**2000 overflows: the audit reads it as infinite
    d = _fresh_report().to_dict()
    edit_packed(d, _claim_trials([2000]))
    failed = _failures(d)
    assert failed["sigma_cap"].startswith("iteration 0: inf exceeds")


def test_the_z_step_verdict_reports_its_nearest_count(suite_runs):
    # every call's first trial sits on the ladder's bound, j = 0; in a
    # check of their own those rows leave z_step_trials' detail to the
    # count of trials nearest sigma_trials_per_step
    rep = suite_runs["p1"]
    p1 = problem_by_name("p1")
    cap = constants(p1.constants(), rep.params,
                    extras=p1.extras()).sigma_trials_per_step
    details = {c.name: c.detail for c in audit(rep, p1).checks}
    assert details["z_step_trials"] == f"iteration 0: {1:.3e} within {cap:.3e}"
    assert details["doubling_ladder"] == (
        "iteration 0: 0.000e+00 within 0.000e+00")


def test_audit_catches_trials_past_the_cap():
    # the analytic cap is far too large to write out, so the constants are
    # marked estimated and the fallback cap applies: p4's call claims one
    # trial more than the cap, each a zero-step trial at sigma_min
    rep = _fresh_report()
    d = rep.to_dict()
    d["constants_basis"]["problem_constants"]["provenance"] = "estimated"
    edit_packed(d, _claim_trials([0] * (FALLBACK_INNER_CAP + 1)))
    bad = RunReport.from_dict(d)
    assert bad.records[0].resta.inner_desc_tests == FALLBACK_INNER_CAP + 1
    failed = {c.name: c.detail for c in audit(bad).failures}
    assert failed["restoration_inner_caps"].startswith("iteration 0:")


def test_audit_skips_bound_checks_on_estimated_constants():
    rep = _fresh_report()
    d = rep.to_dict()
    d["constants_basis"]["problem_constants"]["provenance"] = "estimated"
    est = RunReport.from_dict(d)
    res = audit(est)
    assert res.ok
    by_name = {c.name: c.status for c in res.checks}
    assert by_name["sigma_cap"] == "skipped"
    assert by_name["infeasibility_summability"] == "skipped"
    assert by_name["penalty_merit_decrease"] == "pass"
    assert by_name["restoration_f_free"] == "pass"


#: The audit's checks given the problem, in report order, and those it
#: skips on estimated problem constants; from the trace alone it lists no
#: GIVEN_PROBLEM check.
CHECKS = (
    "theta_lower_bound", "penalty_merit_decrease",
    "sigma_cap", "z_step_trials", "doubling_ladder", "mu_cap",
    "restored_distance", "restored_value_drift",
    "infeasibility_summability", "step_summability",
    "residual_vs_step", "residual_summability", "ledger_caps",
    "restoration_f_free",
    "restoration_model_decrease", "restoration_solve_accuracy",
    "tangent_model_decrease", "tangent_model_floor", "tangent_solve_accuracy",
    "constants_basis", "oracle_f_error_bound", "oracle_h_error_bound",
    "noise_within_budget",
    "restoration_inner_caps", "step_per_infeasibility",
    "precision_refinement", "restoration_tests", "tangent_search",
    "ledger_totals", "stopping_test",
)
ANALYTIC_ONLY = {
    "theta_lower_bound", "sigma_cap", "z_step_trials", "mu_cap",
    "restored_distance", "restored_value_drift", "infeasibility_summability",
    "step_summability", "residual_vs_step", "residual_summability",
    "ledger_caps", "noise_within_budget", "step_per_infeasibility",
    "tangent_model_floor",
}
ORACLE = ("oracle_f_error_bound", "oracle_h_error_bound")
GIVEN_PROBLEM = ("constants_basis", *ORACLE)


@pytest.fixture(scope="module")
def suite_runs():
    return {name: bira_run(problem_by_name(name))
            for name in ("p1", "p1_pdp", "p2", "p3", "p4")}


def _trace(report):
    # a trace as saved: to_dict shares the constants basis with the report
    return json.loads(json.dumps(report.to_dict()))


def _verdicts(report, problem=None):
    return [(c.name, c.status) for c in audit(report, problem).checks]


def _expected(skipped=frozenset(), given_problem=True):
    return [(c, "skipped" if c in skipped else "pass") for c in CHECKS
            if given_problem or c not in GIVEN_PROBLEM]


@pytest.mark.parametrize("name", ["p1", "p1_pdp", "p2", "p3", "p4"])
def test_audit_verdicts_of_the_suite_runs(suite_runs, name):
    assert _verdicts(suite_runs[name], problem_by_name(name)) == _expected()


@pytest.mark.parametrize("name", ["p1", "p1_pdp", "p2", "p3", "p4"])
def test_audit_verdicts_on_estimated_constants(suite_runs, name):
    # from the trace alone, as the benchmark audits: no check is skipped
    # but the analytic bounds
    d = _trace(suite_runs[name])
    assert _verdicts(RunReport.from_dict(d)) == _expected(given_problem=False)
    d["constants_basis"]["problem_constants"]["provenance"] = "estimated"
    assert _verdicts(RunReport.from_dict(d)) == _expected(
        ANALYTIC_ONLY, given_problem=False)


def test_a_problem_without_exact_values_skips_the_oracle_checks(suite_runs):
    problem = problem_by_name("p1")
    problem.exact_f = problem.exact_h = lambda x: None
    by_name = dict(_verdicts(suite_runs["p1"], problem))
    assert [by_name[name] for name in ORACLE] == ["skipped", "skipped"]


def test_every_measured_value_is_checked_against_the_problem(suite_runs):
    # p3 records nothing, but measured f and h at its start and h at both
    # ends of its failing call
    rep = suite_runs["p3"]
    checks = {c.name: c for c in audit(rep, problem_by_name("p3")).checks}
    assert [checks[name].status for name in ORACLE] == ["pass", "pass"]
    d = _trace(rep)
    edit_packed(d, lambda t: t["calls"]["h_xR_yR"].__setitem__(
        -1, t["calls"]["h_xR_yR"][-1] + 1e-3))
    failed = {c.name: c.detail for c in audit(
        RunReport.from_dict(d), problem_by_name("p3")).failures}
    assert list(failed) == ["oracle_h_error_bound"]
    assert failed["oracle_h_error_bound"].startswith("iteration 0: 1.000e-03")


def _shifted(point, shift):
    """The written point ``point`` with ``shift`` added to its first
    coordinate."""
    x = read_vector(point, "point")
    x[0] += shift
    return write_vector(x)


def _cut(trace, keep):
    """The trace with its records, and their calls, cut to ``keep``."""
    rep = RunReport.from_dict(trace)
    rep.records = rep.records[:keep]
    return rep.to_dict()


def _tolerances_met_at(trace, k):
    """The trace's tolerances, scaled up just enough that record ``k``
    meets the stopping test."""
    rec = RunReport.from_dict(trace).records[k]
    tol = trace["tolerances"]
    scale = (1.0 + 1e-9) * max(rec.h_xR_yR / tol["eps_feas"],
                               rec.g_yR / tol["eps_prec"],
                               rec.stationarity_residual / tol["eps_opt"])
    return {name: scale * val for name, val in tol.items()}


def _locate(trace, path):
    """``(container, key)`` of the value at ``path``, in a trace whose
    packed columns :func:`edit_packed` decoded.  A path ``(table, k,
    *fields)`` names the value of record k in the records table, of its
    call in the calls table, and of its call's first trial in the trials
    table: a table nests its fields' tables, and entry k of the first
    column on the way holds the rest of the path."""
    if path[0] not in TABLES:
        node = trace
        for key in path[:-1]:
            node = node[key]
        return node, path[-1]
    k, *fields = path[1:]
    if path[0] == "trials":
        k = first_trial(trace, k)
    node = trace[path[0]]
    while isinstance(node[fields[0]], dict):
        node = node[fields.pop(0)]
    keys = [fields[0], k, *fields[1:]]
    for key in keys[:-1]:
        node = node[key]
    return node, keys[-1]


#: One edit per check to a value recorded in a p1 trace: ``(check, path,
#: new value as a function of the trace and the derived constants)``.  A
#: new value that is a function is an edit of the decoded trace, for a
#: claim that needs more than the value at ``path``.
#: Record 0 starts from the trace's ``start`` block and ``THETA_0``.  Most
#: edits go ten times past their bound; the chain's bounds on p1 reach 1e8
#: to 1e42, so some edits are that large.  A field the trace does not write
#: (:data:`~bira.trace.DERIVED`) is edited through the field it follows
#: from.
TAMPERS = [
    # a restored objective so far above the current one that the replayed
    # penalty weight falls a hundred times below its floor
    ("theta_lower_bound", ("records", 0, "f_xR_yR"),
     lambda t, tc: RunReport.from_dict(t).records[0].f_xk_yR
     + 100.0 / tc.penalty_floor),
    # the first step lowered the merit by about 1.8 at theta = 0.5
    ("penalty_merit_decrease", ("records", 0, "f_xnext_ynext"),
     lambda t, tc: record_row(t, 0)["f_xnext_ynext"] + 10.0),
    # record 0's first trial at ten times the cap, written as the doublings
    # from sigma_min that reach it
    ("sigma_cap", ("trials", 0, "doublings"),
     lambda t, tc: math.ceil(math.log2(
         10.0 * tc.sigma_cap / t["params"]["sigma_min"]))),
    # record 0's call claims one more z-step, its trials climbing the
    # ladder one doubling at a time, one trial past the count
    ("z_step_trials", ("calls", 0, "trials"),
     lambda t, tc: _claim_trials(range(tc.sigma_trials_per_step + 1))),
    # record 0's first trial two doublings up: a call's first trial is at
    # sigma_min
    ("doubling_ladder", ("trials", 0, "doublings"), lambda t, tc: 2),
    # a search that doubled MU_INIT past ten times the cap
    ("mu_cap", ("records", 0, "ell_count"),
     lambda t, tc: math.ceil(math.log2(10.0 * tc.mu_cap / MU_INIT)) + 1),
    ("restored_distance", ("calls", 0, "x_R"),
     lambda t, tc: _shifted(call_row(t, 0)["x_R"], 10.0
     * tc.restored_distance_factor * (t["start"]["h"] + max(t["start"]["y"])))),
    ("restored_value_drift", ("records", 0, "f_xR_yR"),
     lambda t, tc: RunReport.from_dict(t).records[0].f_xk_yR + 10.0
     * tc.restored_value_factor * (t["start"]["h"] + max(t["start"]["y"]))),
    ("infeasibility_summability", ("calls", 0, "h_xk_yR"),
     lambda t, tc: 10.0 * tc.infeasibility_sum_bound),
    ("step_summability", ("records", 0, "tangent_cert", "step_norm"),
     lambda t, tc: 10.0 * math.sqrt(tc.step_square_sum_bound)),
    ("residual_vs_step", ("records", 0, "stationarity_residual"),
     lambda t, tc: 10.0 * tc.residual_step_factor
     * record_row(t, 0)["tangent_cert"]["step_norm"]),
    ("residual_summability", ("records", 0, "stationarity_residual"),
     lambda t, tc: 10.0 * math.sqrt(tc.residual_square_sum_bound)),
    ("ledger_caps", ("records", 0, "ledger_delta", "gradh_evals"),
     lambda t, tc: math.floor(tc.evals_per_iter["gradh_evals"]) + 1),
    ("restoration_f_free", ("calls", 0, "ledger_delta", "f_evals"),
     lambda t, tc: 1),
    ("restoration_model_decrease", ("trials", 0, "model_decrease"),
     lambda t, tc: 1e-9),
    # a residual far past kappa_R times its step
    ("restoration_solve_accuracy", ("trials", 3, "stationarity_residual"),
     lambda t, tc: 1e3),
    ("tangent_model_decrease", ("records", 0, "tangent_cert", "model_decrease"),
     lambda t, tc: 1e-9),
    # halfway to 0: still a decrease, but less than the -mu ||s||^2 a
    # projected step guarantees
    ("tangent_model_decrease", ("records", 1, "tangent_cert", "model_decrease"),
     lambda t, tc: 0.5 * record_row(t, 1)["tangent_cert"]["model_decrease"]),
    # record 1, the last whose step moved (record 2's is zero): ten times
    # past the floor -L_f ||s||
    ("tangent_model_floor", ("records", 1, "tangent_cert", "model_decrease"),
     lambda t, tc: -10.0 * t["constants_basis"]["problem_constants"]["L_f"]
     * record_row(t, 1)["tangent_cert"]["step_norm"]),
    ("tangent_solve_accuracy",
     ("records", 0, "tangent_cert", "stationarity_residual"),
     lambda t, tc: 10.0 * DEFAULT_KAPPAS["kappa"]
     * record_row(t, 0)["tangent_cert"]["step_norm"]),
    # a problem constant a thousandth off the problem's own
    ("constants_basis", ("constants_basis", "problem_constants", "L_h"),
     lambda t, tc: 1.001 * t["constants_basis"]["problem_constants"]["L_h"]),
    # the start's values ten noise bounds off the problem's exact ones
    ("oracle_f_error_bound", ("start", "f"),
     lambda t, tc: t["start"]["f"]
     + 10.0 * problem_by_name("p1").noise_scale_f * t["start"]["y"][0]),
    ("oracle_h_error_bound", ("start", "h"),
     lambda t, tc: t["start"]["h"]
     + 10.0 * problem_by_name("p1").noise_scale_h * t["start"]["y"][1]),
    # ten percent past the budget, far beyond leq's 1e-9 relative slack
    ("noise_within_budget", ("constants_basis", "beta"),
     lambda t, tc: 1.1 * tc.beta_bar),
    # a call that claims a refinement past N_PREC + 1
    ("restoration_inner_caps", ("calls", 0, "refinements"),
     lambda t, tc: N_PREC + 2),
    # a call without a goal claims a stage past its cap
    ("restoration_inner_caps", ("calls", 0, "stages"),
     lambda t, tc: restoration_stage_cap(
         AlgorithmParams.from_dict(t["params"]), 0.0, None) + 1),
    # a call that claims more z-steps than it had passing trials
    ("restoration_inner_caps", ("calls", 0, "z_steps"),
     lambda t, tc: 10**6),
    ("step_per_infeasibility", ("calls", 0, "max_step_over_h"),
     lambda t, tc: 10.0 * tc.step_per_infeasibility),
    # a restored call that claims to have left the precision unrefined
    ("precision_refinement", ("calls", 0, "y_R", "gf"),
     lambda t, tc: t["start"]["y"][0]),
    # record 0's call contracted by about 1/3, below r, so record 1's
    # call refined at that ratio, not at r
    ("precision_refinement", ("calls", 1, "y_R", "gf"),
     lambda t, tc: t["params"]["r"] * call_row(t, 0)["y_R"]["gf"]),
    # the last call, a finishing one, claims a stage more than it took, so
    # its precision is not the one replayed
    ("precision_refinement", ("calls", 3, "stages"),
     lambda t, tc: call_row(t, 3)["stages"] + 1),
    # a call that claims to have contracted nothing
    ("restoration_tests", ("calls", 2, "h_xR_yR"),
     lambda t, tc: call_row(t, 2)["h_xk_yR"]),
    # a reference a thousandth off the bound of h_xk_yk it replays
    ("restoration_tests", ("calls", 2, "h_xk_yR"),
     lambda t, tc: 1.001 * call_row(t, 2)["h_xk_yR"]),
    # an accepted tangent step ten times longer than its decrease allows
    ("tangent_search", ("records", 1, "tangent_cert", "step_norm"),
     lambda t, tc: 10.0 * record_row(t, 1)["tangent_cert"]["step_norm"]),
    # a search that claims four rejected trials it did not evaluate
    ("tangent_search", ("records", 1, "ell_count"), lambda t, tc: 5),
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


#: Each case audited given the problem, and, where its check does not need
#: the problem, from the trace alone.
TAMPER_RUNS = [pytest.param(*case, given, id=name + suffix)
               for case, name in zip(TAMPERS, TAMPER_IDS)
               for given, suffix in ((True, ""), (False, "-trace_alone"))
               if given or case[0] not in GIVEN_PROBLEM]


@pytest.mark.parametrize("check,path,value,given", TAMPER_RUNS)
def test_audit_catches_one_tampered_value(suite_runs, check, path, value,
                                          given):
    rep = suite_runs["p1"]
    assert audit(rep).ok
    d = _trace(rep)
    p1 = problem_by_name("p1")
    tc = constants(p1.constants(), rep.params, extras=p1.extras())
    new = value(d, tc)

    def put(t):
        if callable(new):
            new(t)
            return
        node, key = _locate(t, path)
        node[key] = new
    edit_packed(d, put)
    bad = RunReport.from_dict(d)
    failed = {c.name: c.detail
              for c in audit(bad, p1 if given else None).failures}
    assert check in failed
    # the failing row is the edited record's, a whole-run row, or the
    # edited field's
    edited = path[1] if path[0] in TABLES else 0
    assert failed[check].split(":")[0] in (
        f"iteration {edited}", "whole run", ".".join(map(str, path[1:])))
    if check == "z_step_trials":  # the claimed z-step, one trial past
        cap = tc.sigma_trials_per_step
        assert failed[check] == (
            f"iteration 0: {cap + 1:.3e} exceeds {cap:.3e}")


def _failures(trace):
    return {c.name: c.detail
            for c in audit(RunReport.from_dict(trace)).failures}


def _set(column, value, table="calls"):
    """An edit that writes ``value`` into the last entry of ``column`` of
    a decoded ``table``, a path through its nested tables: the failing
    call's, the last row of the calls table, or its last trial's."""
    *path, name = column.split(".")

    def edit(t):
        node = t[table]
        for key in path:
            node = node[key]
        node[name][-1] = value
    return edit


#: One edit of each restoration value of p3's failing call, the only call
#: of its run, which starts at exact precision and ends in a possible
#: infeasibility: ``(edit of the decoded trace, checks that fail)``.  The
#: trials climb from sigma_min to 1, six doublings; the last one edited to
#: 40 doublings passes the cap on sigma and leaves the ladder, though its
#: z-step keeps its count of trials.
FAILING_CALL_TAMPERS = {
    "refinements": (_set("refinements", 50),
                    ["restoration_inner_caps", "precision_refinement"]),
    "stages": (_set("stages", 40), ["restoration_inner_caps"]),
    "trial_sigma": (_set("doublings", 40, "trials"),
                    ["sigma_cap", "doubling_ladder"]),
    "trial_residuals": (lambda t: t["trials"].update(
        stationarity_residual=[1e3] * len(t["trials"]["doublings"])),
        ["restoration_solve_accuracy"]),
    "trial_model_decrease": (_set("model_decrease", 1.0, "trials"),
                             ["restoration_model_decrease"]),
    "y_R.gf": (_set("y_R.gf", 0.1), ["precision_refinement"]),
    "max_step_over_h": (_set("max_step_over_h", 1e6),
                        ["step_per_infeasibility"]),
    "f_evals": (_set("ledger_delta.f_evals", 3),
                ["restoration_f_free", "ledger_totals"]),
}


@pytest.mark.parametrize("edit,checks", FAILING_CALL_TAMPERS.values(),
                         ids=FAILING_CALL_TAMPERS)
def test_every_restoration_check_reads_the_failing_call(suite_runs, edit,
                                                       checks):
    rep = suite_runs["p3"]
    assert not rep.records and audit(rep).ok
    d = _trace(rep)
    edit_packed(d, edit)
    failed = _failures(d)
    assert list(failed) == checks
    for check in checks:
        assert failed[check].split(":")[0] in ("iteration 0", "whole run")


def test_a_truncated_trace_fails_the_ledger_totals(suite_runs):
    # the two dropped iterations are still in the totals, and the last
    # record left does not meet the stopping test the status claims
    d = _cut(_trace(suite_runs["p1"]), -2)
    failed = _failures(d)
    assert list(failed) == ["ledger_totals", "stopping_test"]
    assert failed["ledger_totals"].startswith("whole run: ")
    last = len(d["records"]["ell_count"]) - 1
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
    # the last iteration's residual, 8e-10, no longer meets the tolerance
    (lambda d: d["tolerances"].update(eps_opt=1e-10), "iteration 3"),
    # a run that met the test at record 3 cannot have run out of budget
    (lambda d: d.update(status="BudgetExceeded", budget=4), "iteration 3"),
    # a converged run stopped at the first record that met the test: at
    # tolerances record 2 meets, record 3 came after stopping
    (lambda d: d["tolerances"].update(_tolerances_met_at(d, 2)),
     "iteration 2"),
    (lambda d: d.update(_cut(d, 0)),
     "whole run"),
    # four records cannot fit a budget of three iterations
    (lambda d: d.update(budget=3), "whole run"),
], ids=["eps_opt", "budget_exceeded_at_its_budget", "record_after_stopping",
        "converged_without_records", "budget_below_its_records"])
def test_the_status_is_replayed(suite_runs, edit, where):
    d = _trace(suite_runs["p1"])
    assert len(d["records"]["ell_count"]) == 4
    edit(d)
    failed = _failures(d)
    assert failed["stopping_test"].startswith(where + ":")


@pytest.mark.parametrize("edit", [
    lambda rep: vars(rep).update(status="BudgetExceeded", failure_info=None),
    # at budget 0 the run makes no call, so its failing call cannot be
    lambda rep: vars(rep).update(budget=0),
], ids=["relabelled_budget_exceeded", "failing_call_past_the_budget"])
def test_a_relabelled_restoration_failure_is_caught(suite_runs, edit):
    rep = RunReport.from_dict(_trace(suite_runs["p3"]))
    edit(rep)
    assert "stopping_test" in [c.name for c in audit(rep).failures]


def test_a_stage_dropped_from_a_call_without_a_goal_is_caught():
    # the unit row's first call stages twice below its floor; a trace that
    # drops a stage claims a precision the replay does not reach
    problem = make_unit_row()
    rep = bira_run(problem)
    assert rep.records[0].resta.stages == 2
    assert audit(rep, problem).ok
    d = _trace(rep)
    d["calls"]["stages"][0] = 1
    assert _failures(d) == {
        "precision_refinement": "iteration 0: 6.250e-02 exceeds 1.562e-02"}


def _held_run():
    # p1 at alpha = 1/2 holds every call from record 14 on
    params = AlgorithmParams(alpha=0.5)
    rep = bira_run(problem_by_name("p1", params), params)
    assert rep.records[20].resta.refinements == 0
    assert audit(rep).ok
    return _trace(rep)


def _edit_record(k, *path):
    def edit(d, value):
        def put(t):
            node = t["calls"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]][k] = value(node[path[-1]][k])
        edit_packed(d, put)
    return edit


@pytest.mark.parametrize("edit,value,refused", [
    # a held call claims a level it did not refine at
    (_edit_record(20, "refinements"), lambda v: 1, False),
    (_edit_record(20, "stages"), lambda v: 1, False),
    # or a precision it did not keep: the replayed f_xk_yR falls by the
    # allowance to that level below f_xR_yR, the value at y_k, and no
    # penalty weight lowers the merit then
    (_edit_record(20, "y_R", "gh"), lambda v: v / 2, True),
    (_edit_record(20, "y_R", "gf"), lambda v: v / 2, True),
], ids=["refinements", "stages", "gh", "gf"])
def test_a_held_call_is_replayed(edit, value, refused):
    d = _held_run()
    edit(d, value)
    if refused:
        with pytest.raises(SchemaError, match="^iteration record 20: the"
                           " replayed penalty update finds no weight"):
            RunReport.from_dict(d)
        return
    failed = _failures(d)
    assert "precision_refinement" in failed
    assert failed["precision_refinement"].startswith("iteration 20:")


def test_a_failing_call_that_the_replay_holds_is_caught(suite_runs):
    # tolerances that p3's start meets by r: the replay holds its one
    # call, which returns its input and cannot end the run
    d = _trace(suite_runs["p3"])
    d["tolerances"].update(eps_feas=1e3, eps_prec=1e3)
    failed = _failures(d)
    assert failed["restoration_tests"].startswith("iteration 0:")
    assert failed["precision_refinement"].startswith("iteration 0:")


def test_a_stage_count_past_its_cap_is_replayed_to_the_cap(suite_runs):
    # a replay of 2**64 stages would not end; it stops at the call's cap,
    # which the claim fails, and the precision it claims is not reached
    rep = RunReport.from_dict(_trace(suite_runs["p2"]))
    rec = rep.records[3]
    rep.records[3] = dataclasses.replace(
        rec, resta=dataclasses.replace(rec.resta, stages=2**64))
    failed = {c.name: c.detail for c in audit(rep).failures}
    assert list(failed) == ["restoration_inner_caps", "precision_refinement"]
    assert failed["restoration_inner_caps"].startswith(
        "iteration 3: 1.845e+19 exceeds")
    assert failed["precision_refinement"].startswith("iteration 3:")


def test_an_unmeasured_call_passes_the_refinement_check(suite_runs):
    # p4 starts feasible at exact precision: its one call returns its
    # input, restored, with no evaluation, and refined 0 to 0
    rep = suite_runs["p4"]
    assert [rec.resta.status for rec in rep.records] == ["restored"]
    (rec,) = rep.records
    assert not any(rec.resta.ledger_delta.values())
    assert (rec.x_R == rec.x_k).all() and rec.y_R == rec.y_k
    by_name = {c.name: c for c in audit(rep).checks}
    assert by_name["precision_refinement"].status == "pass"
    assert by_name["precision_refinement"].detail == (
        "iteration 0: 0.000e+00 within 0.000e+00")


def test_the_failing_restoration_test_is_replayed():
    # p2 at r = 0.2 ends in a call whose precision gain outpaced its
    # feasibility gain; the call did contract by r
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "r": 0.2})
    rep = bira_run(problem_by_name("p2", params), params)
    assert rep.failure_info["kind"] == "precision_outpaced_feasibility"
    assert len(rep.records) == 1
    by_name = {c.name: c.status for c in audit(rep).checks}
    assert by_name["restoration_tests"] == "pass"
    d = _trace(rep)
    d["failure_info"]["kind"] = "insufficient_contraction"
    assert _failures(d)["restoration_tests"].startswith(
        f"iteration {len(rep.records)}:")


#: Edits of the problem constants that no bound notices: each field a
#: thousandth off, and the provenance relabelled, which skips every
#: analytic bound.
BASIS_EDITS = [
    *((key, lambda v: 1.001 * v) for key in ("L_h", "C_f", "C_h", "C_g")),
    ("provenance", lambda v: "estimated"),
]


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_the_constants_basis_is_the_problems_own(suite_runs, name):
    # from the trace alone each edit audits clean; given the problem, the
    # basis is compared with the one bira_run wrote, field by field
    rep, problem = suite_runs[name], problem_by_name(name)
    for key, edit in BASIS_EDITS:
        d = _trace(rep)
        written = d["constants_basis"]["problem_constants"]
        written[key] = edit(written[key])
        bad = RunReport.from_dict(d)
        assert audit(bad).ok
        failed = {c.name: c.detail for c in audit(bad, problem).failures}
        assert list(failed) == ["constants_basis"]
        assert failed["constants_basis"].startswith(
            f"problem_constants.{key}: ")


def test_a_synthetic_basis_holds_the_problem_constants_and_beta():
    # a synthetic draw names gamma, k_R and n_pdp among its extras; its
    # trace writes none of them
    problem = load_synth().make_synthetic("syn", 10, 2, 1)
    assert {"gamma", "k_R", "n_pdp"} <= set(problem.extras())
    basis = bira_run(problem).to_dict()["constants_basis"]
    assert basis == {"problem_constants": problem.constants().to_dict(),
                     "beta": problem.extras()["beta"]}


def test_a_trace_cannot_loosen_the_solve_targets(suite_runs):
    d = _trace(suite_runs["p1"])

    def edit(t):
        cert = t["records"]["tangent_cert"]
        cert["stationarity_residual"][0] = 100.0 * cert["step_norm"][0]
    edit_packed(d, edit)
    assert list(_failures(d)) == ["tangent_solve_accuracy"]
    # targets loose enough to excuse that residual are not part of a trace
    d["constants_basis"]["kappas"] = {"kappa": 1e3, "kappa_T": 1e9}
    with pytest.raises(SchemaError, match="constants basis"):
        RunReport.from_dict(d)
