"""Restoration: drive constraint violation and imprecision down together.

Given the current point and precision, this phase returns a point whose
measured violation has contracted by the ratio ``r`` and a precision level
refined by ``min(r, c)``, where ``c`` is the contraction the previous
restored call achieved (r on the first call), or else declares that the
problem looks locally infeasible: the projected gradient of the violation
measure is small relative to the violation itself even where the
constraints are evaluated exactly, the last level of the schedule
(:func:`~bira.core.level_targets`).  A finishing call, the one after a
record that met the optimality test, refines by at most ``r**2`` and goes
on past ``r`` until the violation and the precision meet the stopping
tolerances.  Its z-steps are measured at the level it starts on; it refines
in stages, each refining the precision by ``r**2`` in place and measuring
nothing, only where a test needs the finer level: the violation goal is
met, the next z-step is predicted to meet it, or the level's error
allowance is no longer small against what a z-step gains.  A call without a
goal stages too, where the violation it restored lies below the floor the
next call's precision test needs (see :func:`resta`).

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
No level measures the outer point up front, and a stage measures
nothing: the inexact-evaluation model (Krejić & Martínez 2016) puts each
measurement within ``(beta / 2) g`` of the exact value, so a value of a
coarser level less ``(beta / 2) (g + g')`` bounds the value at the
refined level from below (:func:`~bira.core.reference_norm`,
:func:`reference_ssq`), and a trial that passes the test against that
bound passes it at the refined level.  The bound of the outer loop's
``h(x_k, y_k)`` is each level's reference and the call's ``h_xk_yR``.  A
point is measured at the refined level only where a trial fails against
the bound, where a stall would end the level, and where the call would
end on a value of a coarser level.
Each level starts on the face of the box that the outer point lies on,
the box with every bound the point sits at held fixed, and leaves it for
the whole box, for the rest of the level, once the face stalls, as
box-constrained active-set methods do (Moré & Toraldo 1991; GENCAN,
Birgin & Martínez 2002).  So a restoration does not undo the bounds the
last tangent step reached unless the violation needs it, and a stall that
ends a level always rests on the whole box.
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

import math

import numpy as np

from .core import (
    ACCEPTANCE_RATIO,
    LEDGER_FIELDS,
    AbnormalTermination,
    BoxPolytope,
    PrecisionLevel,
    constraint_ssq,
    goal_met,
    level_targets,
    outer_reference,
    precision_ratio,
    reference_norm,
    restoration_tests,
    stage_targets,
)
from .diagnostics import (
    RESTORATION_REFINE_CAP,
    oracle_beta,
    restoration_inner_cap,
    restoration_stage_cap,
)
from .geometry import project_box
from .qp import build_B, solve_restoration_qp
from .trace import RestorationOutcome

_SIGMA_RUNAWAY = 1e9
# a violation within this much of ||J|| ||z||, the rounding of J z, is a
# stall (see :func:`resta`)
_ROUNDING = float(np.finfo(float).eps)


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


def reference_ssq(h_vec, w_h, w, beta):
    """The reference of a ratio test at level ``w``: a lower bound of half
    the squared violation ``c`` at ``w`` of a point whose violation
    ``h_vec`` was measured at level ``w_h``, half the square of
    :func:`~bira.core.reference_norm`.  Where ``w_h == w`` or ``beta = 0``
    it is ``c`` of ``h_vec`` itself.
    """
    if w_h == w or beta == 0.0:
        return constraint_ssq(h_vec)
    low = reference_norm(float(np.linalg.norm(h_vec)), w_h, w, beta)
    return 0.5 * low * low


def resta(problem, x_k, y_k: PrecisionLevel, params, *, h_xk_yk,
          inner_cap=None, contraction=None, goal=None, jacobian=None):
    """Run the restoration phase from ``(x_k, y_k)``.

    ``h_xk_yk`` is the already-measured violation vector at the outer
    point, and the call bounds ``x_k``'s violation from it instead of
    measuring it again: at level w, ``h_ref`` is the bound
    ``max(0, ||h_xk_yk|| - (beta / 2) (g_yk + g_w))`` of
    :func:`~bira.core.outer_reference` (``||h_xk_yk||`` itself where
    ``w = y_k``), the reference of every r test, stage test and stall test
    of the level, and ``h_xk_yR`` of the outcome at ``w = y_R``.  Only
    where that bound is 0 at a refined level, an allowance that swallows
    the value, is ``x_k`` measured at w as the reference, at the level's
    start and once more on return if a stage refined w and left no bound.
    Each level's z starts at ``x_k`` holding ``h_xk_yk`` as a value of
    level ``y_k``, so ``x_k`` is measured at w only where a trial, a stall
    or an exit decides on it, as any held value is (below).  So a call
    whose input has ``||h|| + g = 0`` refines to that level, meets r at
    once and returns its input as ``restored`` with no evaluation.
    ``inner_cap`` bounds the number of trials across all precision levels;
    exceeding it, the refinement cap or the stage cap raises
    :class:`AbnormalTermination`.

    A stall refines to the next level of
    :func:`~bira.core.level_targets`, and at its last, exact constraints
    (``gh = 0``), declares ``possible_infeasibility`` instead.

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
    unless ``||h(z)||`` lies below its floor (below).  A finishing call
    refines at a ratio of at most ``r**2`` and, past ``r h_ref``, keeps z
    and works in stages until ``||h(z)|| <= eps_feas`` and ``g <=
    eps_prec`` (:func:`~bira.core.goal_met`, the stopping test's own
    comparisons):

    - a stage refines both precision components by ``r**2`` in place,
      measures nothing and goes on with the kept Jacobian and with
      ``h(z)`` of the level it was measured at, ``w_h``.  Stages are not
      refinements; :func:`~bira.diagnostics.restoration_stage_cap` bounds
      them.  With ``pred = (||h(z)|| / h_last) ||h(z)||``, the violation
      the next z-step is predicted to leave if it contracts by as much as
      the last one did, a stage is taken

      - (i) where ``||h(z)|| <= eps_feas`` but ``g > eps_prec``;
      - (ii) ahead of the z-step predicted to meet the violation goal:
        while ``pred <= eps_feas`` and ``g > min(eps_prec, 2 r pred)``.
        That z-step's trial is then measured at ``y_R`` and is the call's
        exit measurement, and ``pred >= g / (2 r)`` puts the violation it
        leaves on the floor (below), up to the prediction;
      - (iii) where the level's error allowance is no longer small against
        what the next z-step gains: ``(beta / 2) g > r**2 (||h(z)|| -
        pred)``.  There a z-step decided on the coarse level's noise may
        have to be redone at the finer one.

      Elsewhere the z-steps are measured at the level the call is on,
      however far ``||h||`` falls below ``g / (2 r)`` on the way.  Past a
      z-step whose contraction factor is at least ``c_min``, ``pred >
      c_min eps_feas``, so arm (ii) stops by ``min(eps_prec, 2 r c_min
      eps_feas)``, within the cap.  A z-step can contract by far more (on
      a linear row by ``|1 - ||J||**2 / (||G||**2 + 2 sigma)|``, near 0
      where ``||J||**2`` is near ``M + 2 sigma``), and one that contracts
      by a factor near 1 gains little, so arm (ii) or (iii) can ask for
      more stages than the cap: there the call returns ``restored`` with
      the goal still open, where the cap's count has taken ``g / (2 r)``
      below ``eps_feas`` and so below ``||h||``.  A stage arm (i) asks for
      past the cap means ``refine`` missed its targets, and raises;
    - past r the stall test compares the projected gradient with
      ``r_feas ||h(z)||``, not with ``r_feas h_ref``, and a stall returns
      ``restored`` (r is met) with the goal still open.  Where ``||h(z)||``
      then lies below ``g / (2 r)`` the call stages first, while the stage
      cap lasts, and z is measured at the refined level and decides again;
    - a stage takes ``h_ref`` to the bound at the refined w, which only
      rises as w is refined, so ``h_xk_yR`` is the bound at ``y_R``
      (where that bound is still 0, ``h_ref`` keeps its measurement).

    The floor is what keeps q balanced.  A finishing call that contracts
    by ``c`` below its precision ratio lowers q by ``c / rho``, and the
    next call needs ``(1 - c') q >= ((1 - r) / (2 r)) (1 - rho')``.  For
    every contraction ``c' <= r`` that holds once ``q >= 1 / (2 r)``, which
    is ``||h|| >= g_R / (2 r)``.  A finishing call that returns with its
    goal open, at the stage cap or on a stall, hands that balance on; one
    that meets its goal does as well where its last z-step contracted as
    arm (ii) predicted.  The floor protects only the next call's test, so
    no z-step before the last needs the precision it asks for.

    A call without a goal has a floor too.  The next call refines at
    ``rho' = min(r, c)``, so it passes that test for every ``c' <= r`` once
    ``q >= (1 - rho') / (2 r)``.  The z-step that meets r can contract by
    far more than this call's ratio (the unit row ``(1/2, 1/2, 1/2,
    1/2)`` by 1/33 at the defaults, against ``r = 1/2``).  So where
    ``||h(z)||`` lies below ``(1 - min(r, c)) g / (2 r)``, with ``c =
    ||h(z)|| / h_ref``, the call stages as a finishing call does, while
    the stage cap lasts and while this call's own
    :func:`~bira.core.restoration_tests` still hold after the stage, at
    ``g_yR = r**2 g``.  A stage that would fail this call's test is not
    taken: the call returns below its floor, and the next call's test
    decides.

    A trial is accepted where it passes the ratio test of the module
    docstring, on the measured violation.  Where z holds a value of a
    coarser level ``w_h``, x_k's value at ``y_k`` at a level's start or
    z's after a stage, the reference ``c(z)`` is the lower bound
    :func:`reference_ssq` draws from it with the problem's error scale
    ``beta`` (:func:`~bira.diagnostics.oracle_beta`): a trial
    that passes on it passes at w, and a trial that fails on it is decided on
    ``h(z, w)``, measured then and kept for the rest of the level.  The
    prediction ``pred``, the stage tests, the stall test and the restoration
    QP read the held value: they predict, and the ratio test decides.  No
    value of a coarser level ends a level or the call: where, on such a
    value, the goal is met, no further stage is taken, or a stall would
    refine, declare ``possible_infeasibility`` or return past r, z is
    measured at w and every test decides again, so ``h_xR_yR`` is always
    a value measured at ``y_R``.  With ``beta = 0``
    the bound is ``c(z)`` of the held value.  A bound can clip two trials
    of one z-step to the same point; the second then has the first one's
    step, model fall and verdict, and fails without an evaluation.

    The stall test also fires where ``||h(z)||`` lies within the rounding
    of ``J z``, ``eps ||J|| ||z||``: no step can lower a violation that
    size, so the ratio test would reject every trial until sigma runs
    away.  The level then refines, or declares ``possible_infeasibility``
    at the tightest precision, as on any stall; a finer level measures the
    violation afresh.

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
    the level, once the face's stall test fires on a fresh J: the face has
    no more descent to give.  Leaving the face keeps J, its freshness and
    sigma, so it costs no evaluation.  A stall ends a level (a refinement,
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
    box = problem.box
    x_k = np.asarray(x_k, dtype=float)
    face = face_of(box, x_k)
    led0 = problem.ledger.snapshot()

    table = []  # one (j, certificate) pair per trial, sigma_min * 2**j
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

    # the problem's error scale, the constants chain's: an evaluation at
    # precision measure g lies within (beta / 2) g of the exact value
    beta = oracle_beta(problem.extras())
    h_xk = float(np.linalg.norm(h_xk_yk))

    def measured(x, w):  # h(x, w) with its level and norm
        h_vec = problem.eval_h(x, w)
        return h_vec, w, float(np.linalg.norm(h_vec))

    r = params.r
    rho = precision_ratio(r, contraction, goal is not None)
    stage_cap = restoration_stage_cap(params, rho * y_k.g, goal)
    w = y_k
    while True:
        refinements += 1
        if refinements > RESTORATION_REFINE_CAP:
            raise AbnormalTermination(
                "restoration refinement cap exceeded",
                {"refinements": refinements, "trials": len(table)},
            )
        w = problem.refine(w, *level_targets(y_k, w, rho, refinements))
        z = x_k.copy()
        # z holds the value at y_k the outer loop measured; w_h is the
        # precision h_z_vec was measured at, and a stage refines w
        h_z_vec, w_h, h_z = h_xk_yk, y_k, h_xk
        h_ref = outer_reference(h_xk, y_k, w, beta)
        w_xk = None  # the level of x_k's measurement where h_ref is one
        if h_ref is None:  # no bound at w: x_k measured there
            h_z_vec, w_h, h_z = measured(x_k, w)
            h_ref, w_xk = h_z, w
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
        j = 0  # the doublings of sigma from sigma_min
        trials = 0  # trials of the current z-step

        stalled_r = False  # past r, the stall test fired on the whole box
        while True:
            met_r = h_z <= r * h_ref
            past_r = past_r or met_r
            stage = False
            if stalled_r:
                # a finishing call that ends with its goal open hands on
                # the floor g/(2r): below it, stage to it first
                stage = (goal is not None and stages < stage_cap
                         and not goal_met(h_z, w.g, goal)
                         and h_z < w.g / (2.0 * r))
                stop = not stage
            elif met_r and goal is None:
                # without a goal, refine in place while ||h|| lies below
                # the floor (1 - min(r, c)) g / (2 r) the next call's
                # precision test needs, and while this call's own
                # restoration tests, met_r among them, still hold after the
                # stage
                stage = (
                    stages < stage_cap and 0.0 < h_z
                    and h_z < (1.0 - min(r, h_z / h_ref)) * w.g / (2.0 * r)
                    and all(lhs <= rhs for _, lhs, rhs in restoration_tests(
                        h_ref, h_z, y_k.g, r * r * w.g, r)))
                stop = not stage
            elif met_r and goal_met(h_z, w.g, goal):
                stop = True
            else:
                # past r on a finishing call: refine in place where (i)
                # the violation goal is met, (ii) ahead of the z-step
                # predicted to meet it, or (iii) where the level's error
                # allowance is no longer small against what the next
                # z-step gains
                pred = None if h_last is None else (h_z / h_last) * h_z
                stage = met_r and (h_z <= goal[0] or pred is not None and (
                    pred <= goal[0] and w.g > min(goal[1], 2.0 * r * pred)
                    or 0.5 * beta * w.g > r * r * (h_z - pred)))
                # no stage left: the cap took g/(2r) below eps_feas, so
                # the call stops above the floor
                stop = stage and h_z > goal[0] and stages == stage_cap
            if stop:
                if w_h == w:
                    break
                # a value of a coarser level ends nothing: measure z at w,
                # and the tests above and the stall test decide again
                h_z_vec, w_h, h_z = measured(z, w)
                continue
            if stage:
                stages += 1
                if stages > stage_cap:
                    raise AbnormalTermination(
                        "restoration stage cap exceeded",
                        {"stages": stages, "trials": len(table)},
                    )
                w = problem.refine(w, *stage_targets(w, r))
                bound = outer_reference(h_xk, y_k, w, beta)
                if bound is not None:
                    h_ref = bound
                continue
            if J is None:
                J, G, fresh = problem.eval_grad_h(z, w), None, True
            grad_c = J.T @ h_z_vec
            pg_resid = float(np.linalg.norm(
                project_box(z - grad_c, region) - z))
            # a stall: the projected gradient is small, relative to h_ref
            # or, past r, to h(z), or h(z) lies within the rounding of J z,
            # where no step can lower it, or the accepted z-step left z
            # where it was (a zero step passes the ratio test without
            # lowering h, and would repeat until the cap)
            stalled = (
                pg_resid <= params.r_feas * (h_z if past_r else h_ref)
                or h_z <= _ROUNDING * np.linalg.norm(J) * np.linalg.norm(z))
            if not stalled:
                if G is None:
                    G = build_B(J, params.M)
                # a held value of a coarser level w_h gives its bound
                c_z = reference_ssq(h_z_vec, w_h, w, beta)
                z_failed = None
                while True:
                    if len(table) >= cap:
                        raise AbnormalTermination(
                            "restoration trial cap exceeded",
                            {"refinements": refinements,
                             "trials": len(table)},
                        )
                    sigma = math.ldexp(params.sigma_min, j)
                    z_trial, cert = solve_restoration_qp(grad_c, G, sigma, z,
                                                         region)
                    table.append((j, cert))
                    trials += 1
                    # a bound can clip a trial to the point the one before
                    # failed at: it fails as that one did, unmeasured
                    passed = False
                    if not np.array_equal(z_trial, z_failed):
                        h_trial_vec = problem.eval_h(z_trial, w)
                        pred = sigma * cert.step_norm**2 - cert.model_decrease
                        c_trial = constraint_ssq(h_trial_vec)
                        passed = c_z - c_trial >= ACCEPTANCE_RATIO * pred
                        if not passed and w_h != w:
                            # failed against the bound: decide on z
                            # measured at w
                            h_z_vec, w_h, h_z = measured(z, w)
                            c_z = constraint_ssq(h_z_vec)
                            passed = c_z - c_trial >= ACCEPTANCE_RATIO * pred
                    if passed:
                        break
                    z_failed = z_trial
                    j += 1
                    sigma = math.ldexp(params.sigma_min, j)
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
                if w_h != w:  # and on a value measured at w only
                    h_z_vec, w_h, h_z = measured(z, w)
                    continue
                if past_r:  # stalled past r: r is met, so keep it
                    stalled_r = True
                    continue
                if w.gh == 0.0:  # a stall at exact constraints
                    return finish("possible_infeasibility", z, w, h_z_vec,
                                  h_ref)
                break  # refine precision and restart from the outer point

            z_steps += 1
            # h_ref > 0: a level whose h_ref is 0 is restored before its
            # first z-step
            ratio = cert.step_norm / h_ref
            max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
            h_last = h_z
            z = z_trial
            h_z_vec, w_h = h_trial_vec, w
            h_z = float(np.linalg.norm(h_z_vec))
            fresh = False
            if trials > 1:  # the step needed more than its first trial
                J = None
            j = 0
            trials = 0
        if past_r:
            if outer_reference(h_xk, y_k, w, beta) is None and w != w_xk:
                # no bound at the returned w: h(x_k) measured there
                h_ref = float(np.linalg.norm(problem.eval_h(x_k, w)))
            return finish("restored", z, w, h_z_vec, h_ref)
