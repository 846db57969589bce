from dataclasses import asdict, replace

import numpy as np
import pytest
from conftest import (
    EDGE_RESTORATION,
    load_synth,
    make_face_row,
    make_highdim,
    make_unit_row,
)

from bira import restoration, solver
from bira.cli import EXPECTED_SUITE
from bira.core import (
    LEDGER_FIELDS,
    N_PREC,
    STARTUP_EVALS,
    AbnormalTermination,
    AlgorithmParams,
    BoxPolytope,
    PrecisionLevel,
    outer_reference,
    reference_norm,
    restoration_tests,
)
from bira.oracle import (
    SyntheticProblem,
    make_p1,
    make_p2,
    make_p3,
    problem_by_name,
)
from bira.diagnostics import restoration_stage_cap
from bira.restoration import resta
from bira.solver import bira_run, restoration_failure
from bira.trace import (
    CALL_TABLE,
    TRIAL_TABLE,
    RestorationOutcome,
    read_table,
    write_table,
)


def test_a_feasible_exact_start_is_restored_unmeasured():
    # at ||h|| + g = 0 the refinement returns the level it was given and r
    # is met before any z-step: the call returns its input, restored, and
    # evaluates nothing
    p = make_p1()
    x = p.known_solution
    y = PrecisionLevel(0.0, 0.0)
    h0 = p.eval_h(x, y)
    assert not h0.any()
    before = p.ledger.snapshot()
    out = resta(p, x, y, AlgorithmParams.defaults(), h_xk_yk=h0)
    assert out.status == "restored"
    assert out.refinements == 1
    assert out.z_steps == 0 and out.trials == ()
    np.testing.assert_array_equal(out.x_R, x)
    assert out.y_R == y
    assert out.h_xR_yR == 0.0
    assert p.ledger.snapshot() == before
    assert all(v == 0 for v in out.ledger_delta.values())


def _doublings(out):
    """Each trial's doubling count j: its weight is sigma_min * 2**j."""
    return tuple(j for j, _ in out.trials)


def test_p1_z_steps_follow_the_closed_form_contraction():
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), **EDGE_RESTORATION})
    p = make_p1(params)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "restored"
    assert out.refinements == 1
    assert out.y_R == PrecisionLevel(0.25, 0.25)

    # one gradient step per z-step at the floor regularization weight:
    # measured violation contracts by 2*sigma/(2*sigma + |J|^2) each step,
    # and on a linear row the Gauss-Newton model is exact, so the ratio
    # test passes at every weight and the first trial at 0.25 passes
    norm_J_sq = 0.0625
    assert params.sigma_min == 0.25
    factor = (2 * params.sigma_min) / (2 * params.sigma_min + norm_J_sq)
    expected_steps = int(np.ceil(np.log(params.r) / np.log(factor)))
    assert expected_steps == 6
    assert out.z_steps == expected_steps
    assert out.inner_desc_tests == expected_steps
    assert _doublings(out) == (0,) * expected_steps

    steps = [cert.step_norm for _, cert in out.trials]
    ratios = np.array(steps[1:]) / np.array(steps[:-1])
    np.testing.assert_allclose(ratios, factor, atol=1e-6)

    assert out.h_xR_yR <= params.r * out.h_xk_yR
    assert restoration_failure(
        out.status, out.h_xk_yR, out.h_xR_yR, p.y0.g, out.y_R.g, params.r
    ) is None


def test_p1_floor_of_one_eighth_takes_every_first_trial():
    # at (sigma_min, M) = (1/8, 8) the ratio test passes every first trial
    # on p1's linear row: each z-step contracts h by (1/4) / (1/4 + 1/16)
    # = 4/5 on one trial and the kept Jacobian, so r = 1/2 takes 4 z-steps
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), **EDGE_RESTORATION,
        "M": 8.0, "sigma_min": 0.125,
    })
    p = make_p1(params)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "restored"
    assert out.z_steps == out.inner_desc_tests == 4
    assert _doublings(out) == (0,) * out.z_steps
    steps = [cert.step_norm for _, cert in out.trials]
    np.testing.assert_allclose(np.array(steps[1:]) / np.array(steps[:-1]),
                               0.8, atol=1e-6)
    # one h per trial: every first trial passes against the bound of x_k's
    # value at y_k, so x_k is not measured
    assert out.ledger_delta["h_evals"] == out.inner_desc_tests
    assert out.ledger_delta["gradh_evals"] == 1
    rep = bira_run(p, params)
    assert rep.status == "Converged"
    assert rep.ledger_totals == {"f_evals": 10, "gradf_evals": 4,
                                 "h_evals": 70, "gradh_evals": 5}


def test_a_z_step_on_p1s_row_contracts_by_a_third():
    # p1's row has ||J||**2 = 1/16: at sigma_min = 1/64 a z-step contracts
    # h by (1/32) / (1/32 + 1/16) = 1/3, past r = 1/2, so the first call
    # meets r at its first z-step, on one trial
    params = AlgorithmParams.defaults()
    p = make_p1(params)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert (out.status, out.z_steps, out.inner_desc_tests) == (
        "restored", 1, 1)
    two_sigma = 2.0 * params.sigma_min
    assert two_sigma / (two_sigma + 0.0625) == pytest.approx(1 / 3)
    assert out.contraction == pytest.approx(1 / 3, rel=1e-9)


def _linear_row(norm_J_sq):
    """h(x) = a.x - 1 with ||a||**2 = ``norm_J_sq``, exact, from x = 0."""
    a = np.array([np.sqrt(norm_J_sq), 0.0])
    return SyntheticProblem(
        "row", BoxPolytope(-10.0 * np.ones(2), 10.0 * np.ones(2)),
        objective=lambda x: 0.0, objective_grad=lambda x: np.zeros(2),
        constraint=lambda x: np.array([float(a @ x) - 1.0]),
        constraint_jac=lambda x: a[None, :],
        m=1, x0=np.zeros(2), y0=PrecisionLevel(0.0, 0.0),
        problem_constants=make_p1().constants(),
    )


@pytest.mark.parametrize("exponent", range(-8, 5))
def test_every_first_trial_passes_on_a_linear_row(exponent):
    # the Gauss-Newton model of a linear row is exact, so the ratio test
    # passes at every weight: each z-step takes one trial and contracts
    # h by 2 sigma_min / (2 sigma_min + ||J||**2).  On the weakest rows the
    # stall test ends the call before r; the z-steps it took still do
    params = AlgorithmParams.defaults()
    norm_J_sq = 2.0**exponent
    assert norm_J_sq <= params.M
    p = _linear_row(norm_J_sq)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.z_steps >= 1
    assert out.inner_desc_tests == out.z_steps
    assert _doublings(out) == (0,) * out.z_steps
    two_sigma = 2.0 * params.sigma_min
    factor = two_sigma / (two_sigma + norm_J_sq)
    # a step is the violation times ||J|| / (||J||**2 + 2 sigma)
    steps = np.array([cert.step_norm for _, cert in out.trials])
    expected = (np.sqrt(norm_J_sq) / (norm_J_sq + two_sigma)
                * factor ** np.arange(out.z_steps))
    np.testing.assert_allclose(steps, expected, rtol=1e-12)
    assert out.h_xR_yR == pytest.approx(factor ** out.z_steps, rel=1e-12)


def test_a_wrong_handed_jacobian_costs_one_trial():
    # the handed J counts as kept: its failed first trial, which failed
    # against the bound of x_k's value at y_k, measures x_k and takes a
    # fresh J at the same z, and the doubling goes on there at 2 sigma_min.
    # On p1's row that z-step contracts by r itself, which misses r times
    # h_ref, the bound, below the measured value by the allowance: one
    # more z-step at sigma_min meets r
    p = make_p1()
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    plain = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    J = p.eval_grad_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0, jacobian=-J)
    assert out.status == "restored"
    assert out.refinements == 1
    assert _doublings(out) == (0, 1, 0)
    assert out.inner_desc_tests == out.z_steps + 1 == 3
    # the z-step that took two trials refreshes J at the next z
    assert out.ledger_delta["gradh_evals"] == 2
    # the two trials more, and x_k
    assert out.ledger_delta["h_evals"] == plain.ledger_delta["h_evals"] + 3


def test_a_handed_zero_jacobian_is_not_a_stall():
    # its projected gradient is 0, so the stall test fires on the kept J,
    # and a fresh one is taken first: the call is the one that was handed
    # nothing
    p = make_p1()
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    plain = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    J = np.zeros((p.m, p.dim))
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0, jacobian=J)
    assert out.status == "restored"
    assert out.row() == plain.row()
    assert out.ledger_delta["gradh_evals"] == 1


def test_a_handed_jacobian_serves_the_first_level_only():
    # a level after a refinement restarts from the outer point at a new
    # precision, on a fresh J
    p = _p3_like_with_coarse_start()
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(),
        "M": 1.0, "sigma_min": 1.0,
    })
    h0 = p.eval_h(p.x0, p.y0)
    plain = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    J = p.eval_grad_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0, jacobian=J)
    assert out.refinements == plain.refinements == 3
    assert _doublings(out) == _doublings(plain)
    assert (out.ledger_delta["gradh_evals"],
            plain.ledger_delta["gradh_evals"]) == (8, 9)


def _refine_targets(p):
    targets = []
    inner_refine = p.refine

    def spying_refine(y, gf_target, gh_target):
        targets.append((gf_target, gh_target))
        return inner_refine(y, gf_target, gh_target)

    p.refine = spying_refine
    return targets


@pytest.mark.parametrize("contraction,ratio", [
    (None, 0.5), (0.75, 0.5), (0.3, 0.3), (0.0, 0.0),
])
def test_precision_is_refined_at_the_previous_contraction(contraction, ratio):
    # min(r, c): r caps the ratio, a faster contraction tightens it, and a
    # contraction of 0 asks for exact evaluations
    p = make_p1()
    params = AlgorithmParams.defaults()
    targets = _refine_targets(p)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0,
                contraction=contraction)
    assert out.status == "restored"
    assert targets == [(ratio * 0.5, ratio * 0.5)]
    assert out.y_R == PrecisionLevel(ratio * 0.5, ratio * 0.5)
    assert out.contraction == out.h_xR_yR / out.h_xk_yR <= params.r


def test_contraction_of_nothing_to_contract_is_zero():
    p = make_p1()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, AlgorithmParams.defaults(), h_xk_yk=h0)
    assert out.contraction > 0.0
    assert replace(out, h_xk_yR=0.0, h_xR_yR=0.0).contraction == 0.0


def test_restoration_never_touches_the_objective():
    params = AlgorithmParams.defaults()
    for p in map(problem_by_name, EXPECTED_SUITE):
        h0 = p.eval_h(p.x0, p.y0)
        try:
            out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
        except AbnormalTermination:
            continue
        assert out.ledger_delta["f_evals"] == 0
        assert out.ledger_delta["gradf_evals"] == 0


def test_p3_detects_likely_infeasibility():
    p = make_p3()
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "possible_infeasibility"
    assert out.refinements == 1
    # the kept Jacobian's first trial of the second z-step fails, so that
    # step goes on at 1/32 on a fresh one and passes at 1; it needed seven
    # trials, so the stall is declared on a third, fresh Jacobian at the
    # next z.  The trials at 1/32 and 1/16 end on the same bound, x_1 = 1,
    # so the second is not measured
    assert _doublings(out) == (0, 0, 1, 2, 3, 4, 5, 6)
    assert out.ledger_delta["h_evals"] == 7
    assert out.ledger_delta["gradh_evals"] == 3
    rep = bira_run(make_p3(), params)
    assert rep.failure_info["kind"] == "possible_infeasibility"
    assert rep.ledger_totals == {"f_evals": 1, "gradf_evals": 0,
                                 "h_evals": 8, "gradh_evals": 3}
    # descent drove the first coordinate toward the infeasible stall
    assert abs(out.x_R[0]) < 0.1
    assert out.x_R[1] == p.x0[1]
    assert out.h_xR_yR > 0.9


def test_the_ratio_test_rejects_p3s_zigzag(monkeypatch):
    # the trial at sigma = 1/2 of p3's second z-step, from x_1 = -0.21 to
    # 0.16, lowers h, but by less than a quarter of what its Gauss-Newton
    # model predicts: the ratio test rejects it, and the trial at 1 ends
    # near the stall at x_1 = 0.  At a ratio of 0, where any fall of h
    # passes, that trial is accepted, and the z-steps zigzag across
    # x_1 = 0 at every weight up to 1/2
    p = make_p3()
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.z_steps == 2 and _doublings(out)[-2:] == (5, 6)
    monkeypatch.setattr(restoration, "ACCEPTANCE_RATIO", 0.0)
    zigzag = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert _doublings(zigzag)[6:8] == (5, 0)
    assert zigzag.z_steps > 10
    assert zigzag.ledger_delta["h_evals"] > 5 * out.ledger_delta["h_evals"]


def _p3_like_with_coarse_start():
    box = BoxPolytope(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    return SyntheticProblem(
        "p3_coarse", box,
        objective=lambda x: (x[0] + 2.0 * x[1]) / 10.0,
        objective_grad=lambda x: np.array([0.1, 0.2]),
        constraint=lambda x: np.array([x[0] ** 2 + 1.0]),
        constraint_jac=lambda x: np.array([[2.0 * x[0], 0.0]]),
        m=1, x0=np.array([0.8, 0.3]), y0=PrecisionLevel(0.3, 0.3),
        problem_constants=make_p3().constants(),
    )


def test_refinement_cascade_honors_the_level_schedule():
    p = _p3_like_with_coarse_start()
    # at (M, sigma_min) = (1, 1) restoration stalls slowly enough to reach
    # the exact constraints of its third level
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(),
        "M": 1.0, "sigma_min": 1.0,
    })
    targets = _refine_targets(p)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "possible_infeasibility"
    assert out.refinements == 3
    # objective-precision target stays anchored at the outer level while
    # constraint precision halves for N_PREC levels, then turns exact
    assert N_PREC == 2
    assert targets == [(0.15, 0.15), (0.15, 0.075), (0.15, 0.0)]
    assert out.y_R == PrecisionLevel(0.15, 0.0)


def test_a_refine_that_ignores_its_targets_hits_the_refinement_cap():
    # refinement N_PREC + 1 asks for exact constraints, where a stall ends
    # the call; only an oracle whose refine returns its input stalls past
    # it
    p = _p3_like_with_coarse_start()
    p.refine = lambda y, gf_target, gh_target: y
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    with pytest.raises(AbnormalTermination, match="refinement cap") as err:
        resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert err.value.summary["refinements"] == N_PREC + 2


GOAL = (1e-6, 1e-6)


def test_a_finishing_call_bounds_h_xk_at_the_returned_precision():
    # past r the call refines in stages of r**2 until it meets the goal;
    # the violation at x_k is not measured: h_xk_yR is the bound at y_R of
    # its value at y_k, below the value measured there
    p = make_p1()
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0, goal=GOAL)
    assert out.status == "restored"
    assert out.refinements == 1 and out.stages > 0
    assert out.y_R == PrecisionLevel(*[0.25 * 0.5 * 0.25**out.stages] * 2)
    assert out.h_xR_yR <= GOAL[0] and out.y_R.g <= GOAL[1]
    beta = p.extras()["beta"]
    assert out.h_xk_yR == reference_norm(float(np.linalg.norm(h0)), p.y0,
                                         out.y_R, beta)
    assert 0.0 < out.h_xk_yR < float(np.linalg.norm(p.eval_h(p.x0, out.y_R)))
    # one h per trial: a stage measures nothing, and the last trial
    # measured z at y_R
    assert out.ledger_delta["h_evals"] == out.inner_desc_tests
    assert out.ledger_delta["gradh_evals"] == 1


def _log_h(monkeypatch, problem):
    """Log ``problem``'s ``eval_h`` calls as ``(x bytes, level)`` pairs
    into the list ``log[0]`` while it is not ``None``; return ``log`` and
    the unlogged method."""
    real = problem.eval_h
    log = [None]

    def logged(x, y):
        if log[0] is not None:
            log[0].append((np.asarray(x, dtype=float).tobytes(), y))
        return real(x, y)

    monkeypatch.setattr(problem, "eval_h", logged, raising=False)
    return log, real


def _assert_measured_once(out, calls, eval_h):
    # a point is measured a second time only where it is x_R measured
    # again at y_R, the call's last measurement, just before the return
    assert len(set(calls)) == len(calls)
    seen = set()
    for i, (x, y) in enumerate(calls):
        if x in seen:
            assert (x, y, i) == (out.x_R.tobytes(), out.y_R, len(calls) - 1)
        seen.add(x)
    # every returned violation was measured at y_R
    assert out.h_xR_yR == float(np.linalg.norm(eval_h(out.x_R, out.y_R)))


@pytest.mark.parametrize("factory", [make_p1, make_p2, make_highdim],
                         ids=["p1", "p2", "highdim0"])
def test_a_call_measures_each_point_once(monkeypatch, factory):
    # a stage refines w and measures nothing: the trial after it tests
    # against the value of the coarser level, less the error allowance,
    # and a value of a coarser level is measured again only on its way out.
    # x_k is measured only where a trial, a stall or an exit decides on it
    problem = factory()
    log, eval_h = _log_h(monkeypatch, problem)
    real_resta = solver.resta
    calls = []

    def logged_resta(p, x_k, y_k, params, **kwargs):
        log[0] = []
        out = real_resta(p, x_k, y_k, params, **kwargs)
        calls.append((x_k.copy(), out, log[0]))
        log[0] = None
        return out

    monkeypatch.setattr(solver, "resta", logged_resta)
    rep = bira_run(problem)
    assert rep.status == "Converged"
    assert sum(out.stages for _, out, _ in calls) > 0
    for _, out, measured in calls:
        _assert_measured_once(out, measured, eval_h)


def test_a_stale_violation_is_measured_again_on_return(monkeypatch):
    # one z-step from near the solution meets eps_feas; the call then
    # stages until g meets eps_prec, and the violation it holds is of the
    # level before those stages: it measures z at y_R before it returns.
    # x_k is never measured: its trial passed against the bound
    p = make_p1()
    params = AlgorithmParams.defaults()
    x = p.known_solution + 1e-6
    h0 = p.eval_h(x, p.y0)
    log, eval_h = _log_h(monkeypatch, p)
    log[0] = []
    out = resta(p, x, p.y0, params, h_xk_yk=h0, goal=GOAL)
    assert (out.status, out.z_steps, out.stages) == ("restored", 1, 9)
    assert out.h_xR_yR <= GOAL[0] and out.y_R.g <= GOAL[1]
    x_R = out.x_R.tobytes()
    assert [(pt, y == out.y_R) for pt, y in log[0]] == [
        (x_R, False), (x_R, True)]
    _assert_measured_once(out, log[0], eval_h)


def _call_blocks(report, log):
    """Each restoration call's share of ``log``, every h measurement of
    the run in order: a call measures first in its iteration, and the
    start-up h comes before the first call."""
    blocks, start = [], STARTUP_EVALS["h_evals"]
    for out, rec in zip(report.calls, [*report.records, None]):
        blocks.append(log[start:start + out.ledger_delta["h_evals"]])
        if rec is not None:
            start += rec.ledger_delta["h_evals"] - (
                STARTUP_EVALS["h_evals"] if rec.k == 0 else 0)
    return blocks


def test_p1s_finishing_call_measures_at_its_first_level(monkeypatch):
    # the finishing call's z-steps are measured at the level it starts
    # on, ten of its eleven trials, down to ||h|| = 1.25e-6.  The next
    # z-step is predicted to meet eps_feas, so eight stages, which measure
    # nothing, take g to min(eps_prec, 2 r pred) ahead of it, and its
    # trial is the call's measurement at y_R: the same stages, z-steps and
    # y_R as when each z-step was measured at the level the floor needed
    p = make_p1()
    log, _ = _log_h(monkeypatch, p)
    log[0] = []
    rep = bira_run(p)
    assert rep.status == "Converged"
    out = rep.calls[-1]
    assert (out.stages, out.z_steps, out.inner_desc_tests) == (8, 11, 11)
    levels = [y for _, y in _call_blocks(rep, log[0])[-1]]
    first = levels[0]
    assert levels == [first] * 10 + [out.y_R]
    r2 = rep.params.r ** 2
    assert out.y_R == PrecisionLevel(r2**8 * first.gf, r2**8 * first.gh)
    assert out.y_R.g == pytest.approx(1.0596381296960883e-07, rel=1e-12)


def test_a_finishing_call_stages_where_the_error_allowance_outgrows_a_z_step(
        monkeypatch):
    # p1 at (M, sigma_min) = (2, 1/2) with tolerances 1e-8: a z-step
    # contracts by about 0.94, and p1's beta is 5.9e-7, so at the first
    # level the error allowance (beta / 2) g grows past r**2 times what the
    # next z-step gains while that z-step is predicted to stay above
    # eps_feas.  There the call stages, at three levels in turn, and the
    # finer level takes the z-steps after each.  Without those stages the
    # z-steps taken on the coarse level's noise had to be redone at the
    # finer one, and the run measured h 327 times
    params = AlgorithmParams(M=2.0, sigma_min=0.5)
    p = make_p1(params)
    log, eval_h = _log_h(monkeypatch, p)
    log[0] = []
    rep = bira_run(p, params, eps_feas=1e-8, eps_prec=1e-8, eps_opt=1e-6)
    assert rep.status == "Converged"
    assert rep.ledger_totals["h_evals"] == 320
    out = rep.calls[-1]
    trials = [(y, float(np.linalg.norm(eval_h(np.frombuffer(x), y))))
              for x, y in _call_blocks(rep, log[0])[-1]]
    assert len(trials) == out.z_steps == out.inner_desc_tests
    # a stage between two trials, the z-step before it predicted not to
    # meet eps_feas: neither the goal nor the z-step ahead of it asked
    beta, r, eps_feas = p.extras()["beta"], params.r, 1e-8
    allowance = []
    for (_, h_last), (y, h), (y_next, _) in zip(trials, trials[1:],
                                                trials[2:]):
        pred = (h / h_last) * h
        if y_next != y and pred > eps_feas:
            assert 0.5 * beta * y.g > r * r * (h - pred)
            allowance.append(y)
    assert allowance == [trials[0][0]] + [
        PrecisionLevel(r**(2 * s) * trials[0][0].gf,
                       r**(2 * s) * trials[0][0].gh) for s in (1, 2)]


def test_a_finishing_call_that_stalls_below_its_floor_stages_to_it(
        monkeypatch):
    # draw 203 of the synthetic sweep (tests/test_sweep.py), rows of scale
    # 0.05 on which the stall test fires on a feasible problem.  Its
    # finishing call stalls past r at ||h|| = 4.6e-6, above eps_feas but
    # far below the floor g / (2 r) of the level it measured at.  It
    # stages to the floor, measures z once at y_R, and hands on ||h|| >=
    # g / (2 r) with its goal open; the next call declares
    # possible_infeasibility, as the sweep pins
    p = load_synth().make_synthetic("syn5", 5, 2, 93255, base=935782,
                                    row_scale=0.05, n_active=3)
    log, _ = _log_h(monkeypatch, p)
    log[0] = []
    rep = bira_run(p)
    assert (rep.status, rep.failure_info["kind"]) == (
        "RestorationFailure", "possible_infeasibility")
    out, r = rep.calls[1], rep.params.r
    assert (out.status, out.stages, out.z_steps) == ("restored", 5, 8)
    assert out.h_xR_yR > rep.tolerances["eps_feas"]
    assert out.y_R.g / (2 * r) <= out.h_xR_yR < out.y_R.g / (2 * r**3)
    measured = _call_blocks(rep, log[0])[1]
    first = measured[0][1]
    assert [y for _, y in measured] == [first] * 8 + [out.y_R]
    assert measured[-2][0] == measured[-1][0] == out.x_R.tobytes()


class _BiasedRow(SyntheticProblem):
    """The row ``x_1 + x_2 = 1`` measured ``(beta / 2) gh`` low at every
    level, the largest error its ``beta`` admits, all on one side."""

    BETA = 2e-3

    def _h(self, x, y):
        return super()._h(x, y) - 0.5 * self.BETA * y.gh


def make_biased_row(x0):
    a = np.array([1.0, 1.0])
    return _BiasedRow(
        "biased_row", BoxPolytope(-10.0 * np.ones(2), 10.0 * np.ones(2)),
        objective=lambda x: 0.0, objective_grad=lambda x: np.zeros(2),
        constraint=lambda x: np.array([float(a @ x) - 1.0]),
        constraint_jac=lambda x: a[None, :], m=1, x0=np.array(x0),
        y0=PrecisionLevel(0.5, 0.5), problem_constants=make_p1().constants(),
        extra_overrides={"beta": _BiasedRow.BETA})


@pytest.mark.parametrize("x0,stages,z_steps", [
    ((1.001, 0.0), 12, 4), ((1.0001, 0.0), 12, 3)], ids=["trial", "goal"])
def test_a_stale_violation_that_cannot_decide_is_measured(x0, stages,
                                                          z_steps):
    # the first z-step lands where the coarse level reads h near 0, but
    # after the stages the finer level reads it higher by up to beta g.
    # At x0 = (1.001, 0) the call stages ahead of the z-step predicted to
    # meet eps_feas, and that z-step's first trial fails
    # against the stale value less the allowance: z is measured at w and
    # the trial passes on that (without it no trial can pass, and sigma
    # doubles to the runaway).  At x0 = (1.0001, 0) the stale value meets
    # eps_feas: measured at w, it does not, and the call restores on
    # instead of ending above the goal
    p = make_biased_row(x0)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, AlgorithmParams.defaults(), h_xk_yk=h0,
                goal=GOAL)
    assert (out.status, out.stages, out.z_steps) == ("restored", stages,
                                                     z_steps)
    assert out.inner_desc_tests == z_steps
    # x_k twice, one per trial, and z once more at a finer level
    assert out.ledger_delta["h_evals"] == z_steps + 3
    assert out.h_xR_yR <= GOAL[0] and out.y_R.g <= GOAL[1]
    assert out.h_xR_yR == float(np.linalg.norm(p.eval_h(out.x_R, out.y_R)))


def test_a_violation_at_the_rounding_level_is_a_stall(monkeypatch):
    # from x_k = (1.00001, 0) at g = 0.1 the row reads h_xk_yk = 9e-5, less
    # than the allowance (beta / 2) (0.1 + 0.01) of the level the
    # contraction 0.1 refines to: the bound is 0, so the level measures x_k
    # at w, and reads 6.6e-17, the rounding of 1.00001 - 1 less the bias.
    # No trial can lower a violation within the rounding of J z: the stall
    # test takes it, and the level refines, where sigma once doubled to
    # the runaway.  At g_h = 1e-3 x_k reads 9e-6, and one z-step restores
    # it; the outer test then ends the run on the precision it took
    p = make_biased_row((1.00001, 0.0))
    y_k = PrecisionLevel(0.1, 0.1)
    h0 = p.eval_h(p.x0, y_k)
    log, eval_h = _log_h(monkeypatch, p)
    log[0] = []
    params = AlgorithmParams.defaults()
    out = resta(p, p.x0, y_k, params, h_xk_yk=h0, contraction=0.1)
    assert (out.status, out.refinements, out.z_steps) == ("restored", 2, 1)
    assert _doublings(out) == (0,)
    assert out.ledger_delta["gradh_evals"] == 2
    # x_k at each level, then the trial
    x_k, first = p.x0.tobytes(), log[0][0][1]
    assert [(pt, y) for pt, y in log[0]] == [
        (x_k, first), (x_k, out.y_R), (out.x_R.tobytes(), out.y_R)]
    assert first.g == pytest.approx(0.01) and out.y_R.gh == pytest.approx(
        1e-3)
    assert float(np.linalg.norm(eval_h(p.x0, first))) < 1e-16
    # no bound at y_R: h_xk_yR is x_k measured there
    assert outer_reference(float(np.linalg.norm(h0)), y_k, out.y_R,
                           _BiasedRow.BETA) is None
    assert out.h_xk_yR == float(np.linalg.norm(eval_h(p.x0, out.y_R)))
    assert restoration_failure(out.status, out.h_xk_yR, out.h_xR_yR, y_k.g,
                               out.y_R.g, params.r) == (
        "precision_outpaced_feasibility")


def test_a_call_without_a_goal_ends_on_a_measured_violation(monkeypatch):
    # from x_1 = 1.001 at g = 1e-3 the one z-step lands below the floor
    # the next call's test needs, so the call stages three times on the
    # value of the first level.  That value does not end the call: z is
    # measured at y_R, the stage tests decide again on it, and the
    # outcome passes both restoration tests on the values it returns
    p = make_biased_row((1.001, 0.0))
    y_k = PrecisionLevel(1e-3, 1e-3)
    h0 = p.eval_h(p.x0, y_k)
    log, eval_h = _log_h(monkeypatch, p)
    log[0] = []
    params = AlgorithmParams.defaults()
    out = resta(p, p.x0, y_k, params, h_xk_yk=h0)
    assert (out.status, out.stages, out.z_steps) == ("restored", 3, 1)
    x_R = out.x_R.tobytes()
    assert [(pt, y == out.y_R) for pt, y in log[0]] == [
        (x_R, False), (x_R, True)]
    _assert_measured_once(out, log[0], eval_h)
    for _, lhs, rhs in restoration_tests(out.h_xk_yR, out.h_xR_yR, y_k.g,
                                         out.y_R.g, params.r):
        assert lhs <= rhs


def test_a_refine_that_ignores_its_targets_hits_the_stage_cap():
    # near the solution the violation goal holds once r is met, and the
    # precision goal is never met, so the call stages until the cap; an
    # oracle that meets its targets reaches eps_prec within the cap
    p = make_p1()
    p.refine = lambda y, gf_target, gh_target: y
    params = AlgorithmParams.defaults()
    x = p.known_solution + 1e-6
    h0 = p.eval_h(x, p.y0)
    assert float(np.linalg.norm(h0)) < GOAL[0]
    cap = restoration_stage_cap(params, params.r**2 * p.y0.g, GOAL)
    assert cap == 17
    with pytest.raises(AbnormalTermination, match="stage cap") as err:
        resta(p, x, p.y0, params, h_xk_yk=h0, goal=GOAL)
    assert err.value.summary["stages"] == cap + 1


def test_a_floor_that_outruns_the_stage_cap_ends_the_call_above_it():
    # |J|^2 lies 1e-6 below M + 2 sigma_min = 64.03125, where the scaled
    # Gauss-Newton step is exact: the first z-step contracts h by about
    # 1e-6, far more than r**2, and the next z-step, predicted to meet
    # eps_feas at 3e-12, asks for g <= 2 r pred, more stages than the
    # cap; the call stops at the cap with the violation goal open and the
    # floor kept, as a call without a goal would, instead of raising
    a = np.full(4, np.sqrt(64.03125 * (1.0 - 1e-6) / 4.0))
    p = SyntheticProblem(
        "steep_row", BoxPolytope(-10.0 * np.ones(4), 10.0 * np.ones(4)),
        objective=lambda x: 0.0, objective_grad=lambda x: np.zeros(4),
        constraint=lambda x: np.array([float(a @ x) - 1.0]),
        constraint_jac=lambda x: a[None, :],
        m=1, x0=np.array([1.0, 0.0, 0.0, 0.0]), y0=PrecisionLevel(0.5, 0.5),
        problem_constants=make_p1().constants(),
    )
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0, goal=GOAL)
    assert out.status == "restored"
    assert out.stages == restoration_stage_cap(
        params, params.r**2 * p.y0.g, GOAL)
    assert out.h_xR_yR > GOAL[0]
    assert out.h_xR_yR >= out.y_R.g / (2 * params.r)


def test_a_call_without_a_goal_stages_up_to_its_floor():
    # at the defaults one z-step contracts the unit row by 1/33, far below
    # the ratio r = 1/2 the first call refines g by; returned there, ||h||
    # would lie below (1 - c) g / (2 r), the floor the next call's
    # precision test needs.  Two stages refine g by r**4 more, one would
    # not be enough, and this call's own test still holds
    params = AlgorithmParams.defaults()
    p = make_unit_row()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert (out.status, out.z_steps, out.stages) == ("restored", 1, 2)
    r = params.r
    assert out.contraction == pytest.approx(1 / 33, rel=1e-6)
    assert out.y_R == PrecisionLevel(r**5 * p.y0.gf, r**5 * p.y0.gh)
    assert out.h_xR_yR >= (1 - out.contraction) * out.y_R.g / (2 * r)
    assert out.h_xR_yR < (1 - out.contraction) * r**3 * p.y0.g / (2 * r)
    assert restoration_failure(out.status, out.h_xk_yR, out.h_xR_yR,
                               p.y0.g, out.y_R.g, r) is None


@pytest.mark.parametrize("point,cap", [({}, 7), (EDGE_RESTORATION, 3)],
                         ids=["defaults", "edge"])
def test_the_stage_cap_of_a_call_without_a_goal(point, cap):
    # the stages that make up the least contraction of a call that meets
    # r on a linear row, r (2 sigma_min / (2 sigma_min + M)), against
    # the precision ratio r
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), **point})
    r = params.r
    gap = (1 - r) * 2 * params.sigma_min / (2 * params.sigma_min + params.M)
    assert restoration_stage_cap(params, 1.0, None) == cap
    assert r ** (2 * cap) <= gap < r ** (2 * cap - 2)


def test_pdp_shortcut_rejected_at_default_radius():
    # the shortcut is gone: p1_pdp is p1 under a second name, so its call
    # restores and costs what the call on p1 costs
    params = AlgorithmParams.defaults()
    p = problem_by_name("p1_pdp", params)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "restored"
    p1 = make_p1(params)
    assert (p1.noise_scale_f, p1.noise_scale_h) == (p.noise_scale_f,
                                                    p.noise_scale_h)
    plain = resta(p1, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.ledger_delta == plain.ledger_delta
    assert np.array_equal(out.x_R, plain.x_R) and out.y_R == plain.y_R


def test_tiny_inner_cap_terminates_abnormally():
    p = make_p3()
    h0 = p.eval_h(p.x0, p.y0)
    with pytest.raises(AbnormalTermination) as err:
        resta(p, p.x0, p.y0, AlgorithmParams.defaults(),
              h_xk_yk=h0, inner_cap=1)
    assert err.value.args[0] == "restoration trial cap exceeded"
    assert err.value.summary["trials"] == 1


def test_outcome_round_trip():
    p = make_p1()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, AlgorithmParams.defaults(), h_xk_yk=h0)
    # its row of the calls table, and its rows of the trials table
    (row,) = read_table(write_table([out.row()], CALL_TABLE), CALL_TABLE,
                        "calls")
    trials = [{"doublings": j, **asdict(cert)} for j, cert in out.trials]
    trials = read_table(write_table(trials, TRIAL_TABLE), TRIAL_TABLE,
                        "trials")
    back = RestorationOutcome.from_row(row, trials)
    np.testing.assert_array_equal(back.x_R, out.x_R)
    assert back.y_R == out.y_R
    assert back.status == out.status
    assert back.trials == out.trials
    assert back.inner_desc_tests == out.inner_desc_tests > 0
    assert back.ledger_delta == out.ledger_delta


def test_refinement_cascade_keeps_the_tied_ratio():
    # every level of one call refines by min(r, contraction), not only the
    # first
    p = _p3_like_with_coarse_start()
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(),
        "M": 1.0, "sigma_min": 1.0,
    })
    targets = _refine_targets(p)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0, contraction=0.25)
    assert out.status == "possible_infeasibility"
    assert targets == [(0.075, 0.075), (0.075, 0.01875), (0.075, 0.0)]
    assert out.y_R == PrecisionLevel(0.075, 0.0)


def _ledger(report):
    return tuple(report.ledger_totals[key] for key in LEDGER_FIELDS)


def test_a_face_without_descent_is_left_at_no_cost():
    # a = (1, 1, 0): the face of x0 holds x_1 and x_2, and the row has
    # no component on x_3, so the face's projected gradient is at noise
    # level.  The face stalls on the fresh J, and the call goes on from
    # there on the box with no more Jacobian: the run is the one restoring
    # on the whole box, 4 records
    params = AlgorithmParams.defaults()
    p = make_face_row((1.0, 1.0, 0.0))
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "restored"
    assert out.ledger_delta["gradh_evals"] == 1
    rep = bira_run(make_face_row((1.0, 1.0, 0.0)), params)
    assert (rep.status, rep.iterations, _ledger(rep)) == (
        "Converged", 4, (9, 4, 9, 5))


def test_a_slow_face_is_left_when_it_stalls():
    # a = (1, 1, 0.1): the face's projected gradient is a tenth of the
    # box's.  The face's z-steps drive x_3 to its bound 5 before the face
    # stalls, far from the solution (1.98, 1, 0.198): the run pays 1 more
    # h evaluation and one more Jacobian than restoring on the whole box
    # (9, 4, 9, 5), though the tangent steps, each at the minimizer
    # along it, keep its 4 records
    rep = bira_run(make_face_row((1.0, 1.0, 0.1)), AlgorithmParams.defaults())
    assert (rep.status, rep.iterations, _ledger(rep)) == (
        "Converged", 4, (9, 4, 10, 6))


def test_a_call_that_restores_on_the_face_keeps_its_held_coordinates():
    # a = (1, 1, 1): the face's projected gradient (on x_3) does not
    # stall, so the call restores on the face, and its x_R keeps x_1 = 0
    # and x_2 = 1 bit for bit
    params = AlgorithmParams.defaults()
    p = make_face_row((1.0, 1.0, 1.0))
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "restored" and out.refinements == 1
    assert out.x_R[:2].tobytes() == p.x0[:2].tobytes()
    assert out.x_R[2] > p.x0[2]
    assert out.h_xR_yR <= params.r * out.h_xk_yR


def test_a_held_bound_off_the_solution_costs_a_record():
    # the same row: x_1 = 0 is held but not active at the solution (1, 1,
    # 1), so the first restored point moves x_3 alone, to 11/6, past the
    # solution.  At alpha = 0.1 the tangent steps then take one record
    # more than restoring on the whole box (9 records); at the
    # default alpha each step ends at the minimizer along it, and both
    # runs take 4 records.  From record 4 on each call starts within r of
    # both tolerances and is held; without the hold each must still
    # contract h by r, and the run ends precision_outpaced_feasibility
    params = AlgorithmParams(alpha=0.1)
    rep = bira_run(make_face_row((1.0, 1.0, 1.0), params), params)
    assert (rep.status, rep.iterations, _ledger(rep)) == (
        "Converged", 10, (18, 10, 15, 11))


def test_an_infeasible_row_on_a_held_bound_ends_on_the_box():
    # a = (0, 1, 0.01), a.x = 3, is infeasible for x_2 <= 1.  The row
    # pushes x_2 into its held bound, so the face and the box have the
    # same projected gradient, below r_feas ||h||: each level stalls on
    # the face, leaves it on the same fresh J and stalls on the box,
    # where it refines and, at g_h = 0, declares possible_infeasibility
    # at iteration 0, as restoring on the whole box does
    params = AlgorithmParams.defaults()
    p = make_face_row((0.0, 1.0, 0.01))
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "possible_infeasibility"
    assert out.refinements == out.ledger_delta["gradh_evals"] == 3
    assert out.z_steps == 0
    rep = bira_run(make_face_row((0.0, 1.0, 0.01)), params)
    assert rep.failure_info["kind"] == "possible_infeasibility"
    assert (rep.iterations, _ledger(rep)) == (0, (1, 0, 4, 3))
