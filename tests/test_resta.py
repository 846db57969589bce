from dataclasses import replace

import numpy as np
import pytest

from bira.core import (
    AbnormalTermination,
    AlgorithmParams,
    BoxPolytope,
    PrecisionLevel,
)
from bira.oracle import (
    SyntheticProblem,
    make_p1,
    make_p3,
    make_suite,
    problem_by_name,
)
from bira.restoration import RestorationOutcome, resta
from bira.solver import bira_run, restoration_failure


def test_trivial_when_already_feasible_and_exact():
    p = make_p1()
    x = p.known_solution
    y = PrecisionLevel(0.0, 0.0)
    h0 = p.eval_h(x, y)
    assert not h0.any()
    before = p.ledger.snapshot()
    out = resta(p, x, y, AlgorithmParams.defaults(), h_xk_yk=h0)
    assert out.status == "trivial"
    np.testing.assert_array_equal(out.x_R, x)
    assert out.y_R == y
    assert out.h_xR_yR == 0.0
    assert p.ledger.snapshot() == before
    assert all(v == 0 for v in out.ledger_delta.values())


def test_p1_z_steps_follow_the_closed_form_contraction():
    p = make_p1()
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "restored"
    assert out.refinements == 1
    assert out.y_R == PrecisionLevel(0.25, 0.25)

    # one gradient step per z-step at the floor regularization weight:
    # measured violation contracts by 2*sigma/(2*sigma + |J|^2) each step,
    # and on a linear row the descent test accepts weight sigma iff
    # |J|^2 + 4*sigma >= 2*alpha_R, so the first trial at 0.25 passes
    norm_J_sq = 0.0625
    assert params.sigma_min == 0.25
    assert norm_J_sq + 4 * params.sigma_min >= 2 * params.alpha_R
    factor = (2 * params.sigma_min) / (2 * params.sigma_min + norm_J_sq)
    expected_steps = int(np.ceil(np.log(params.r) / np.log(factor)))
    assert expected_steps == 6
    assert out.z_steps == expected_steps
    assert out.inner_desc_tests == expected_steps
    assert all(s == params.sigma_min for s in out.sigma_history)

    steps = [c["step_norm"] for c in out.certificates]
    ratios = np.array(steps[1:]) / np.array(steps[:-1])
    np.testing.assert_allclose(ratios, factor, atol=1e-6)

    assert out.h_xR_yR <= params.r * out.h_xk_yR
    failed, kind = restoration_failure(
        out.h_xk_yR, out.h_xR_yR, p.y0.g, out.y_R.g, params.r
    )
    assert not failed and kind is None


def test_p1_floor_of_one_eighth_rejects_first_trials():
    # |J|^2 + 4/8 < 2*alpha_R: every z-step pays a rejected trial at 1/8
    # before the doubled weight 1/4 passes, and then contracts as above
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), "M": 8.0, "sigma_min": 0.125,
    })
    assert 0.0625 + 4 * params.sigma_min < 2 * params.alpha_R
    p = make_p1(params)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "restored"
    assert out.z_steps == 6
    assert out.inner_desc_tests == 2 * out.z_steps
    assert out.sigma_history == (0.125, 0.25) * out.z_steps
    assert out.ledger_delta["h_evals"] == 1 + out.inner_desc_tests
    # a step that needed two trials refreshes the Jacobian for the next
    assert out.ledger_delta["gradh_evals"] == out.z_steps
    # so a kept Jacobian costs a whole run no h evaluation
    rep = bira_run(p, params)
    assert rep.status == "Converged"
    assert rep.ledger_totals["h_evals"] == 293


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
    for p in make_suite():
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
    # step goes on at 0.5 on a fresh one; it needed three trials, so the
    # stall is declared on a third, fresh Jacobian at the next z
    assert out.sigma_history == (0.25, 0.25, 0.5, 1.0)
    assert out.ledger_delta["gradh_evals"] == 3
    rep = bira_run(make_p3(), params)
    assert rep.failure_info["kind"] == "possible_infeasibility"
    assert rep.ledger_totals == {"f_evals": 1, "gradf_evals": 0,
                                 "h_evals": 5, "gradh_evals": 3}
    # descent drove the first coordinate toward the infeasible stall
    assert abs(out.x_R[0]) < 0.1
    assert out.x_R[1] == p.x0[1]
    assert out.h_xR_yR > 0.9


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
        infeasible=True,
    )


def test_refinement_cascade_honors_the_level_schedule():
    p = _p3_like_with_coarse_start()
    # at (M, sigma_min) = (1, 1) restoration stalls slowly enough to reach
    # the eps_prec_bar clamp on its third level
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(),
        "eps_prec_bar": 0.05, "N_prec": 2, "M": 1.0, "sigma_min": 1.0,
    })
    targets = _refine_targets(p)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert out.status == "possible_infeasibility"
    assert out.refinements == 3
    # objective-precision target stays anchored at the outer level while
    # constraint precision halves, then clamps into the certified band
    assert targets == [(0.15, 0.15), (0.15, 0.075), (0.15, 0.0375)]
    assert out.y_R == PrecisionLevel(0.15, 0.0375)


def test_a_refine_that_ignores_its_targets_hits_the_refinement_cap():
    # refinement N_prec + 1 takes the constraint precision to eps_prec_bar,
    # where a stall ends the call; only an oracle whose refine returns its
    # input stalls past it
    p = _p3_like_with_coarse_start()
    p.refine = lambda y, gf_target, gh_target: y
    params = AlgorithmParams.defaults()
    h0 = p.eval_h(p.x0, p.y0)
    with pytest.raises(AbnormalTermination, match="refinement cap") as err:
        resta(p, p.x0, p.y0, params, h_xk_yk=h0)
    assert err.value.summary["refinements"] == params.N_prec + 2


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
    p = make_p1()
    h0 = p.eval_h(p.x0, p.y0)
    with pytest.raises(AbnormalTermination) as err:
        resta(p, p.x0, p.y0, AlgorithmParams.defaults(),
              h_xk_yk=h0, inner_cap=3)
    assert err.value.summary["desc_tests"] == 3


def test_outcome_round_trip():
    p = make_p1()
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, AlgorithmParams.defaults(), h_xk_yk=h0)
    back = RestorationOutcome.from_dict(out.to_dict())
    np.testing.assert_array_equal(back.x_R, out.x_R)
    assert back.y_R == out.y_R
    assert back.status == out.status
    assert back.sigma_history == out.sigma_history
    assert back.certificates == out.certificates
    assert back.ledger_delta == out.ledger_delta


def test_refinement_cascade_keeps_the_tied_ratio():
    # every level of one call refines by min(r, contraction), not only the
    # first
    p = _p3_like_with_coarse_start()
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(),
        "eps_prec_bar": 0.05, "N_prec": 2, "M": 1.0, "sigma_min": 1.0,
    })
    targets = _refine_targets(p)
    h0 = p.eval_h(p.x0, p.y0)
    out = resta(p, p.x0, p.y0, params, h_xk_yk=h0, contraction=0.25)
    assert out.status == "possible_infeasibility"
    assert targets == [(0.075, 0.075), (0.075, 0.01875)]
    assert out.y_R == PrecisionLevel(0.075, 0.01875)
