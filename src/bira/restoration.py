"""Restoration: drive constraint violation and imprecision down together.

Given the current point and precision, this phase returns a point whose
measured violation has contracted by the ratio ``r`` and a precision level
refined by ``min(r, c)``, where ``c`` is the contraction the previous
restored call achieved (r on the first call), or else declares that the
problem looks locally infeasible: the projected gradient of the violation
measure is small relative to the violation itself even at the tightest
precision the schedule allows.  A finishing call, the one after a record
that met the optimality test, refines by at most ``r**2`` and goes on past
``r`` in stages, each refining the precision by ``r**2`` in place, until
the violation and the precision meet the stopping tolerances.  A call
without a goal stages too, where the violation it restored lies below the
floor the next call's precision test needs (see :func:`resta`).

The inner loop is a regularized Gauss-Newton descent on half the squared
violation norm, restarted from the outer point at each precision level
and kept in place across the stages of a finishing call.  A trial z-step
``d`` at weight sigma is accepted on one test, the Levenberg-Marquardt
ratio test (Moré 1978; Nocedal & Wright §10.3), ``c(z) - c(z + d) >= eta
pred`` with ``c = ||h||**2 / 2`` and ``eta =``
:data:`~bira.core.ACCEPTANCE_RATIO`, where ``pred = sigma ||d||**2 -
model_decrease`` is the fall of the unregularized Gauss-Newton model
``||h + J d||**2 / 2``.  The test is scale free: on a linear row
the model is exact and every trial passes it, so sigma stays at a small
``sigma_min`` and a z-step contracts at nearly the Gauss-Newton rate; on
a curved row it rejects a step whose fall lags its model.  The ratio
test at eta certifies the descent constant ``2 eta sigma_min``: the
restoration QP is solved exactly, so ``pred >= 2 sigma ||d||**2``, and
every bound the constants chain derives from sufficient decrease holds.
Each level starts on the face of the box that the outer point lies on,
the box with every bound the point sits at held fixed, and leaves it for
the whole box, for the rest of the level, once the face's projected
gradient is small next to the box's or the face stalls, as box-constrained
active-set methods do (Moré & Toraldo 1991; GENCAN, Birgin & Martínez
2002).  So a restoration does not undo the bounds the last tangent step
reached unless the violation needs it, and a stall that ends a level
always rests on the whole box.
It keeps the Jacobian of a level's first z-step, and the curvature factor
built from it, across z-steps (a chord method) until a trial on the kept
Jacobian fails its ratio test, a z-step needs more than one trial, or
the stall test fires; only then is the Jacobian evaluated again.  The first
level starts on the Jacobian the outer loop's tangent phase measured at the
previous restored point, when it hands one over; it counts as kept, never
as fresh, because it is stale by the tangent step and by the precision, so
the same three rules replace it.  Two comparisons are deliberately shared
with the outer algorithm's failure test: the success test here compares
violation norms with the same float expression the outer test uses, so
success here can never be contradicted there by rounding.
"""

import numpy as np

from .core import (
    ACCEPTANCE_RATIO,
    LEDGER_FIELDS,
    AbnormalTermination,
    BoxPolytope,
    PrecisionLevel,
    constraint_ssq,
    goal_met,
    precision_ratio,
)
from .diagnostics import (
    restoration_inner_cap,
    restoration_refine_cap,
    restoration_stage_cap,
)
from .geometry import project_box
from .qp import build_B, solve_restoration_qp
from .trace import RestorationOutcome

_SIGMA_RUNAWAY = 1e9

#: A level leaves the face of ``x_k`` for the whole box once the face's
#: projected gradient of the violation measure is at most this fraction
#: of the box's: the bounds the face holds then carry the larger part of
#: the descent, and z-steps on the face would be short (GENCAN, Birgin &
#: Martínez 2002, leaves a face on the same comparison).  With the rule
#: off, every workload run (``paper``, ``highdim`` and ``active`` at seeds
#: 1, 4 and 7) and every grid run writes the same trace.  On ``active`` at
#: seed 1 the evaluations (f, grad f, h, grad h) and records are (24, 12,
#: 69, 16, 12) at 1/2 and with the rule off, (27, 13, 73, 17, 13) at 0.9
#: and (54, 21, 73, 25, 21) at 0.99.  On the row ``(1, 1, 0.1)`` of
#: ``tests/test_resta.py``, whose face descends slowly until a bound
#: stops it, both runs take 4 records, and the run without the rule pays
#: one more h and one more grad h evaluation.
FACE_RELEASE_RATIO = 0.5


def face_of(box, x):
    """The face of ``box`` that ``x`` lies on: every coordinate where
    ``x`` sits exactly at a bound is held there.  ``box`` itself when
    ``x`` is on no bound."""
    held = (x == box.lower) | (x == box.upper)
    if not held.any():
        return box
    return BoxPolytope(np.where(held, x, box.lower),
                       np.where(held, x, box.upper))


def hold(x_k, y_k: PrecisionLevel, h_xk_yk):
    """The outcome of a held call (:func:`~bira.core.held`): its input
    ``(x_k, y_k)`` with violation vector ``h_xk_yk``, restored with no
    level, trial or evaluation."""
    h = float(np.linalg.norm(h_xk_yk))
    return RestorationOutcome(
        x_R=np.array(x_k, dtype=float), y_R=y_k, status="restored",
        h_xR_yR=h, h_xk_yR=h, refinements=0, stages=0, z_steps=0, trials=(),
        max_step_over_h=None, ledger_delta=dict.fromkeys(LEDGER_FIELDS, 0),
        h_vec=h_xk_yk)


def resta(problem, x_k, y_k: PrecisionLevel, params, *, h_xk_yk,
          inner_cap=None, contraction=None, goal=None, jacobian=None):
    """Run the restoration phase from ``(x_k, y_k)``.

    ``h_xk_yk`` is the already-measured violation vector at the outer
    point; the phase does not re-evaluate it when a refinement returns the
    level it was given.  So a call whose input has ``||h|| + g = 0``
    refines to that level, meets r at once and returns its input as
    ``restored`` with no evaluation.  ``inner_cap`` bounds
    the number of trials across all precision levels; exceeding it,
    the refinement cap or the stage cap raises
    :class:`AbnormalTermination`.

    ``contraction`` is :attr:`RestorationOutcome.contraction` of the
    previous restored call (``None`` on the first).  Every refinement of
    this call uses the ratio :func:`~bira.core.precision_ratio`,
    ``min(r, contraction)``, so g shrinks at least as fast as the violation
    did and the ratio ``q = ||h|| / g`` that the outer failure test reads
    holds steady (see :func:`bira.solver.restoration_failure`).  A
    contraction of 0 asks for exact evaluations: both targets are 0.

    ``goal`` is ``None``, or, on a finishing call, the stopping tolerances
    ``(eps_feas, eps_prec)`` (:func:`~bira.core.finishing_goal`), which
    ``bira_run`` hands over once a record met the optimality test.  A call
    without a goal returns ``restored`` as soon as ``||h(z)|| <= r h_ref``,
    unless ``||h(z)||`` lies below its floor (below).  A finishing call refines at a ratio of at most ``r**2`` and, past
    ``r h_ref``, keeps z and works in stages until ``||h(z)|| <= eps_feas``
    and ``g <= eps_prec`` (:func:`~bira.core.goal_met`, the stopping test's
    own comparisons):

    - a stage refines both precision components by ``r**2`` in place,
      re-measures ``h(z, w)`` and goes on with the kept Jacobian.  It is
      taken where ``||h(z)||`` meets ``eps_feas`` but g does not meet
      ``eps_prec``, and where the floor guard fires: the next z-step,
      predicted to contract by as much as the last one did, would take
      ``||h||`` below ``g / (2 r)``.  Stages are not refinements;
      :func:`~bira.diagnostics.restoration_stage_cap` bounds them.  A
      z-step can contract by far more than ``r**2`` (on a linear row by
      ``|1 - ||J||**2 / (||G||**2 + 2 sigma)|``, near 0 where ``||J||**2``
      is near ``M + 2 sigma``, below the least contraction the cap counts
      for), so the floor can ask for more stages than the cap: there the
      call returns ``restored`` above the floor with the goal still open,
      as a call without a goal would.  A stage the
      violation goal asks for past the cap means ``refine`` missed its
      targets, and raises;
    - past r the stall test compares the projected gradient with
      ``r_feas ||h(z)||``, not with ``r_feas h_ref``, and a stall returns
      ``restored`` (r is met) with the goal still open;
    - on return, ``h(x_k, w)`` is measured once more for ``h_xk_yR`` if a
      stage refined w.

    The floor is what keeps q balanced.  A finishing call that contracts
    by ``c`` below its precision ratio lowers q by ``c / rho``, and the
    next call needs ``(1 - c') q >= ((1 - r) / (2 r)) (1 - rho')``.  For
    every contraction ``c' <= r`` that holds once ``q >= 1 / (2 r)``, which
    is ``||h|| >= g_R / (2 r)``; a stage lowers the floor with g instead of
    ending the call, so a call that does not end the run still hands that
    balance on.

    A call without a goal has a floor too.  The next call refines at
    ``rho' = min(r, c)``, so it passes that test for every ``c' <= r`` once
    ``q >= (1 - rho') / (2 r)``.  The z-step that meets r can contract by
    far more than this call's ratio (the unit row ``(1/2, 1/2, 1/2,
    1/2)`` by 1/33 at the defaults, against ``r = 1/2``).  So where
    ``||h(z)||`` lies below ``(1 - min(r, c)) g / (2 r)``, with ``c =
    ||h(z)|| / h_ref``, the call stages as a finishing call does, while
    the stage cap lasts and while this call's own test ``((1 - r) / (2 r))
    (g_yk - r**2 g) <= h_ref - ||h(z)||`` still holds after the stage.  A
    stage that would fail this call's test is not taken: the call returns
    below its floor, and the next call's test decides.

    A trial is accepted where it passes the ratio test of the module
    docstring, on the measured violation.  A bound can clip two trials of
    one z-step to the same point; the second then has the first one's
    step, model fall and verdict, and fails without an evaluation.

    Each level evaluates ``J = grad h(z, w)`` (or, on the first level,
    takes the handed ``jacobian``, below) and its :func:`build_B` factor
    at its first z-step and keeps both across z-steps and stages.  The
    ratio test on the measured violation still decides every trial, so a
    stale J can cost a trial but cannot let a step through that fails
    it.  J is evaluated again at the current z only when

    - (i) a trial on the kept J fails its test: the stall test is
      redone on the fresh J, and the sigma doubling goes on from that
      trial, so a z-step takes at most ``max(2, sigma_trials_per_step)``
      trials (:func:`bira.diagnostics.constants`);
    - (ii) the stall test fires on the kept J: a stale J can show a small
      projected gradient, or a zero step, where a fresh one would still
      descend, so a stall, and with it a refinement or
      ``possible_infeasibility``, is declared on a fresh J only;
    - (iii) the accepted z-step needed more than its first trial: the
      next first trial on the kept J would likely fail too, and cost a
      trial before the refresh.

    Each level starts on the face of ``x_k`` (:func:`face_of`): the box
    with every coordinate where ``x_k`` sits exactly at a bound held
    there.  The restoration QP and the stall test use the face, and a
    face is a box, so every certificate holds as on the box.
    A level leaves the face, and works on the whole box for the rest of
    the level, where

    - the face's projected gradient ``pg_resid`` is at most
      :data:`FACE_RELEASE_RATIO` times the box's, both measured at the
      same z and J: the held bounds carry the larger part of the descent;
    - or the face's stall test fires on a fresh J: the face has no more
      descent to give.

    Leaving the face keeps J, its freshness and sigma, so it costs no
    evaluation.  A stall ends a level (a refinement,
    ``possible_infeasibility`` or, past r, the return) only on the whole
    box.  Where ``x_k`` is on no bound the face is ``problem.box`` itself,
    and the call is the plain call on the box.

    ``jacobian`` is the Jacobian the tangent phase measured at the
    previous restored point and precision (``None`` on the first call).
    The first level starts on it in place of a fresh J at ``x_k``, so an
    outer iteration measures grad h once.  It is kept, never fresh: it
    lags z by the tangent step and w by this call's refinement, so the
    rules above refresh it, and a stall is never declared on it.  A level
    after a refinement starts on a fresh J.

    The phase never evaluates the objective or its gradient.
    """
    cap = restoration_inner_cap(None) if inner_cap is None else int(inner_cap)
    refine_cap = restoration_refine_cap(params)
    box = problem.box
    x_k = np.asarray(x_k, dtype=float)
    face = face_of(box, x_k)
    led0 = problem.ledger.snapshot()

    table = []  # one (sigma, certificate) pair per trial
    z_steps = 0
    refinements = 0
    stages = 0
    max_ratio = None

    def finish(status, x_R, y_R, h_xR_vec, h_xk_ref):
        return RestorationOutcome(
            x_R=np.array(x_R, dtype=float),
            y_R=y_R,
            status=status,
            h_xR_yR=float(np.linalg.norm(h_xR_vec)),
            h_xk_yR=float(h_xk_ref),
            refinements=refinements,
            stages=stages,
            z_steps=z_steps,
            trials=tuple(table),
            max_step_over_h=max_ratio,
            ledger_delta=problem.ledger.delta(led0),
            h_vec=h_xR_vec,
        )

    r = params.r
    rho = precision_ratio(r, contraction, goal is not None)
    stage_cap = restoration_stage_cap(params, rho * y_k.g, goal)
    w = y_k
    h_ref_vec = h_xk_yk
    while True:
        refinements += 1
        if refinements > refine_cap:
            raise AbnormalTermination(
                "restoration refinement cap exceeded",
                {"refinements": refinements, "trials": len(table)},
            )
        gf_t = rho * y_k.gf
        if refinements <= params.N_prec:
            gh_t = rho * w.gh
        else:
            gh_t = min(params.eps_prec_bar, rho * w.gh)
        w_prev, w = w, problem.refine(w, gf_t, gh_t)
        if w != w_prev:  # an unchanged level keeps its measurement at x_k
            h_ref_vec = problem.eval_h(x_k, w)
        h_ref = float(np.linalg.norm(h_ref_vec))
        w_ref = w  # the precision h_ref was measured at
        z = x_k.copy()
        h_z_vec = h_ref_vec
        h_z = h_ref
        h_last = None  # the violation before the level's latest z-step
        past_r = False  # r was met at this level: a stall then returns
        # the kept Jacobian, the handed one on the first level only; None
        # asks for a fresh one at z
        J = jacobian if refinements == 1 else None
        G = None
        # J was evaluated at the current z and w; a stage refines w only
        # at the level's start or after a z-step, where it is clear
        fresh = False
        region = face  # the face of x_k until the level leaves it
        sigma = params.sigma_min
        trials = 0  # trials of the current z-step

        while True:
            met_r = h_z <= r * h_ref
            past_r = past_r or met_r
            if met_r and goal is None:
                # without a goal, refine in place while ||h|| lies below
                # the floor (1 - min(r, c)) g / (2 r) the next call's
                # precision test needs, and while this call's own test
                # still holds after the stage
                stage = (
                    stages < stage_cap and 0.0 < h_z
                    and h_z < (1.0 - min(r, h_z / h_ref)) * w.g / (2.0 * r)
                    and ((1.0 - r) / (2.0 * r)) * (y_k.g - r * r * w.g)
                    <= h_ref - h_z)
                if not stage:
                    break
            elif met_r and goal_met(h_z, w.g, goal):
                break
            else:
                # past r on a finishing call: refine in place where the
                # violation goal is met, or where the next z-step is
                # predicted to cross the floor g/(2r)
                stage = met_r and (h_z <= goal[0] or (
                    h_last is not None
                    and (h_z / h_last) * h_z < w.g / (2.0 * r)))
                if stage and h_z > goal[0] and stages == stage_cap:
                    break  # no stage left to lower the floor: stop above it
            if stage:
                stages += 1
                if stages > stage_cap:
                    raise AbnormalTermination(
                        "restoration stage cap exceeded",
                        {"stages": stages, "trials": len(table)},
                    )
                w_prev, w = w, problem.refine(w, r * r * w.gf, r * r * w.gh)
                if w != w_prev:
                    h_z_vec = problem.eval_h(z, w)
                    h_z = float(np.linalg.norm(h_z_vec))
                continue
            if J is None:
                J, G, fresh = problem.eval_grad_h(z, w), None, True
            grad_c = J.T @ h_z_vec
            pg_resid = float(np.linalg.norm(
                project_box(z - grad_c, region) - z))
            if region is not box:
                box_resid = float(np.linalg.norm(
                    project_box(z - grad_c, box) - z))
                if pg_resid <= FACE_RELEASE_RATIO * box_resid:
                    region, pg_resid = box, box_resid
            # a stall: the projected gradient is small, relative to h_ref
            # or, past r, to h(z), or the accepted z-step left z where it
            # was (a zero step passes the ratio test without lowering h,
            # and would repeat until the cap)
            stalled = pg_resid <= params.r_feas * (h_z if past_r else h_ref)
            if not stalled:
                if G is None:
                    G = build_B(J, params.M)
                c_z = constraint_ssq(h_z_vec)
                z_failed = None
                while True:
                    if len(table) >= cap:
                        raise AbnormalTermination(
                            "restoration trial cap exceeded",
                            {"refinements": refinements,
                             "trials": len(table)},
                        )
                    z_trial, cert = solve_restoration_qp(grad_c, G, sigma, z,
                                                         region)
                    table.append((sigma, cert))
                    trials += 1
                    # a bound can clip a trial to the point the one before
                    # failed at: it fails as that one did, unmeasured
                    passed = False
                    if not np.array_equal(z_trial, z_failed):
                        h_trial_vec = problem.eval_h(z_trial, w)
                        step = float(np.linalg.norm(z_trial - z))
                        pred = sigma * step**2 - cert.model_decrease
                        passed = (c_z - constraint_ssq(h_trial_vec)
                                  >= ACCEPTANCE_RATIO * pred)
                    if passed:
                        break
                    z_failed = z_trial
                    sigma *= 2.0
                    if sigma > _SIGMA_RUNAWAY:
                        raise AbnormalTermination(
                            "restoration regularization runaway",
                            {"sigma": sigma, "trials": len(table)},
                        )
                    if not fresh:
                        break
                if not passed:  # a kept J failed: go on at 2 sigma on a fresh J
                    J = None
                    continue
                stalled = np.array_equal(z_trial, z)
            if stalled:
                if not fresh:  # a stall is declared on a fresh J only
                    J = None
                    continue
                if region is not box:  # and on the whole box only
                    region = box
                    continue
                if past_r:  # stalled past r: r is met, so keep it
                    break
                if w.gh <= params.eps_prec_bar:
                    return finish("possible_infeasibility", z, w, h_z_vec,
                                  h_ref)
                break  # refine precision and restart from the outer point

            z_steps += 1
            # h_ref > 0: a level whose h_ref is 0 is restored before its
            # first z-step
            ratio = step / h_ref
            max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
            h_last = h_z
            z = z_trial
            h_z_vec = h_trial_vec
            h_z = float(np.linalg.norm(h_z_vec))
            fresh = False
            if trials > 1:  # the step needed more than its first trial
                J = None
            sigma = params.sigma_min
            trials = 0
        if past_r:
            if w != w_ref:  # a stage refined w: h(x_k) at the returned w
                h_ref = float(np.linalg.norm(problem.eval_h(x_k, w)))
            return finish("restored", z, w, h_z_vec, h_ref)
