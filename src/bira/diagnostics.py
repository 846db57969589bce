"""Worst-case constants, iteration bounds, and post-run trace audits.

The convergence theory turns a problem's smoothness and boundedness
constants plus the solver parameters into a chain of derived quantities:
caps on regularization weights, bounds on restoration work, a floor for
the penalty weight, summability bounds for infeasibility and step sizes,
and finally iteration counts as functions of the stopping tolerances.
:func:`constants` computes that chain.  :func:`audit` replays a recorded
run against it, checking every invariant the theory promises, and reports
pass/fail/skipped per check.  Bound checks that would be meaningless with
estimated problem constants are reported as skipped, never as passes.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ACCEPTANCE_RATIO,
    CERT_FLOOR,
    DEFAULT_KAPPAS,
    LEDGER_FIELDS,
    MU_MAX,
    MU_MIN,
    STARTUP_EVALS,
    THETA_0,
    AlgorithmParams,
    ConfigurationError,
    InsufficientDataError,
    ProblemConstants,
    descent_test,
    finishing_goal,
    held,
    merit_allowance,
    merit_test,
    outer_reference,
    precision_ratio,
    restoration_tests,
    stopping_test,
    valid_tolerance,
)

DEFAULT_EXTRAS = {"beta": 0.0, "gamma": 0.5, "k_R": 0.0}

#: Fixed constant of the analysis, like the accuracy targets
#: :data:`~bira.core.DEFAULT_KAPPAS`: ``SIGMA_MAX`` floors the certified cap
#: on the restoration weight sigma.  No solver loop reads it.
SIGMA_MAX = 40.0

#: Fallback cap on restoration trials when no certified bound exists.
FALLBACK_INNER_CAP = 100_000


@dataclass(frozen=True)
class TheoreticalConstants:
    """Derived worst-case quantities; all are certified only when
    ``analytic`` is true.

    ``alpha_R`` is the descent constant of restoration, ``2 eta
    sigma_min`` with ``eta =`` :data:`~bira.core.ACCEPTANCE_RATIO`: the
    ratio test at eta certifies it.  :func:`~bira.restoration.resta`
    accepts a z-step ``d`` only where ``c(z) - c(z + d) >= eta pred``,
    with ``c = ||h||**2 / 2`` and ``pred`` the fall of the Gauss-Newton
    model, and the exact restoration QP gives ``pred >= 2 sigma ||d||**2
    >= 2 sigma_min ||d||**2``, so every accepted z-step lowers ``c`` by at
    least ``alpha_R ||d||**2`` (1/128 at the defaults).  Nor does the
    ratio test add trials past ``sigma_sufficient``: ``L_c`` bounds the
    curvature of ``c``, so ``c(z + d) <= c(z) - pred + (L_c / 2)
    ||d||**2``, and the test holds once ``2 (1 - eta) sigma >= L_c / 2``,
    which ``sigma_sufficient >= 2 L_c`` meets for every ``eta <= 7/8``.

    ``restored_distance_factor`` bounds ``||x_R - x_k||`` by a multiple of
    ``h_xk_yk + g_yk``.  Every level of a call restarts at ``x_k``, so
    only the z-steps ``d`` of the last level lead to ``x_R``.  Each
    accepted one lowers half the squared violation at the current
    precision by at least ``alpha_R ||d||**2``, so ``2 alpha_R sum
    ||d||**2`` is at most what the squared violation falls over the
    level.  After a stage the ratio test reads the violation of the level
    before, less the allowance below, a lower bound of the violation at
    the refined ``w'``, so the fall still holds at ``w'`` whether or not
    ``h(z, w')`` is measured (see :func:`~bira.restoration.reference_ssq`).
    The level starts at ``s``, the value ``h_xk_yk`` it holds or ``x_k``
    measured at ``w``, within ``(beta / 2) (g_yk + w.g)`` of it, and only
    a measurement after a stage can raise it: the violation of ``z`` at
    ``w'`` lies within ``delta = err(w_h) + err(w')`` of the one held,
    measured at the coarser ``w_h``, where ``err(w) <= (beta / 2) w.g``
    bounds an evaluation's error, and each level is the ``w_h`` or the
    ``w'`` of at most two such measurements.  With ``e_j`` the violation
    that ends segment ``j`` and ``D = sum delta_j``, the fall sums to at most
    ``s**2 + sum delta_j (2 e_j + delta_j) <= (s + D)**2``, because
    ``e_j <= s + sum_{i<j} delta_i``.
    The level's precision and each stage's are at most ``g_yk`` and
    ``r**2`` times the one before, so ``s <= h_xk_yk + beta g_yk`` and
    ``D <= beta g_yk / (1 - r**2)``, and ``s + D <= (1 + beta (2 - r**2) /
    (1 - r**2)) (h_xk_yk + g_yk)``.  A call takes at most
    :func:`restoration_inner_cap` trials, so at most that many z-steps
    ``N``, and Cauchy-Schwarz gives ``||x_R - x_k|| <= sum ||d|| <= sqrt(N
    sum ||d||**2)``: the factor is ``sqrt(N / (2 alpha_R)) (1 + beta (2 -
    r**2) / (1 - r**2))``.  It does not depend on the tolerances.
    """

    alpha_R: float
    sigma_sufficient: float
    sigma_cap: float
    restoration_grad_bound: float
    #: z-steps of one precision level.  A z-step the stall test lets
    #: through (projected gradient above ``r_feas h_ref``) is longer than
    #: ``r_feas h_ref / restoration_grad_bound``, so it lowers half the
    #: squared violation by more than ``alpha_R`` times that squared, and
    #: a level ends by ``r**2 h_ref``.  Past r a finishing call takes its
    #: z-steps at one level until a stage, and those are counted with their
    #: own violation in place of ``h_ref``: past r the stall test compares
    #: with ``r_feas ||h(z)||``, so every z-step lowers ``||h||**2`` by at
    #: least the fraction ``2 alpha_R r_feas**2 /
    #: restoration_grad_bound**2`` of itself, and each run of this many
    #: z-steps takes ``||h||`` down by at least the factor ``exp(-(1 -
    #: r**4) / 2)``.  Such a call stages only once the goal is met, is
    #: predicted to be met by the next z-step or the error allowance
    #: outgrows a z-step's gain, so between stages it may take this count
    #: up to ``2 ln(r h_ref / eps_feas) / (1 - r**4)`` times over (38 at
    #: ``r h_ref = 1/2``, ``eps_feas = 1e-8`` and ``r = 1/2``), against
    #: the ``10 N_prec sigma_trials_per_step`` such counts
    #: :func:`restoration_inner_cap` holds (260 for ``p1`` at the
    #: defaults).  A level that starts on the face
    #: of ``x_k`` and leaves it for the box once the face stalls
    #: (:func:`bira.restoration.resta`) has a face segment and a box
    #: segment.  A face is a box, and its stall test compares the face's
    #: projected gradient with the same bound, so each z-step of either
    #: segment lowers half the squared violation by the same least amount,
    #: and the two segments share the level's fall: the count holds for
    #: the level as a whole, and with it ``restoration_iter_cap``,
    #: :func:`restoration_inner_cap` and ``restored_distance_factor``.
    #: ``restoration_iter_cap`` counts the ``N_prec`` precision levels; the
    #: stages of a call are capped apart (:func:`restoration_stage_cap`).
    restoration_steps_per_level: float
    step_per_infeasibility: float
    #: Trials of one z-step: the sigma doublings from ``sigma_min``
    #: to ``sigma_sufficient``, and at least 2, because a trial on a kept
    #: Jacobian that fails is followed by trials on a fresh one from
    #: ``2 sigma_min``.  A stage keeps the Jacobian and changes only the
    #: precision, so the z-steps of a stage level are counted the same way.
    sigma_trials_per_step: int
    restoration_iter_cap: float
    restored_distance_factor: float
    restored_value_factor: float
    penalty_floor: float
    alpha_effective: float
    mu_sufficient: float
    tangent_attempt_cap: int
    mu_cap: float
    penalty_ratio_bound: float
    infeasibility_sum_bound: float
    step_square_sum_bound: float
    residual_step_factor: float
    residual_square_sum_bound: float
    beta_bar: float
    r: float
    analytic: bool
    extras: dict = field(default_factory=dict)

    @property
    def evals_per_iter(self):
        """Cap on the evaluations of one iteration, keyed by
        :data:`~bira.core.LEDGER_FIELDS`, start-up evaluations aside."""
        rest, tang = self.restoration_iter_cap, self.tangent_attempt_cap
        return {"f_evals": tang + 3, "gradf_evals": 2,
                "h_evals": rest + tang + 1, "gradh_evals": rest + 2}


#: The quantities :func:`constants` derives, in the order it computes them.
_DERIVED = tuple(name for name in TheoreticalConstants.__dataclass_fields__
                 if name not in ("r", "analytic", "extras"))


def constants(problem_constants: ProblemConstants, params: AlgorithmParams,
              *, extras=None):
    """Compute the full derived-constant chain, at the solve targets
    :data:`~bira.core.DEFAULT_KAPPAS`.

    The restored distance factor, which sets the penalty floor and with it
    the noise budget ``beta_bar``, comes from the descent constant the
    restoration's ratio test certifies and its cap on trials (see
    :class:`TheoreticalConstants`), so it does not depend on the
    tolerances.

    ``extras`` may override ``beta`` (oracle error scale), ``gamma``
    (merit decrease fraction) and ``k_R`` (projection-map drift bound).
    Other keys are not read; they are kept in ``extras`` of the result.
    :class:`ConfigurationError` refuses an extra out of its range
    (``beta >= 0``, ``0 < gamma < 1``, ``k_R >= 0``), and names the first
    derived quantity that is not finite, overflowing or dividing by zero on
    the way included.
    """
    pc = problem_constants
    p = params
    kap = DEFAULT_KAPPAS
    ext = dict(DEFAULT_EXTRAS)
    ext.update(extras or {})
    beta = float(ext["beta"])
    gamma = float(ext["gamma"])
    k_R = float(ext["k_R"])
    if not beta >= 0.0:
        raise ConfigurationError(f"extra beta must be >= 0, got {beta}")
    if not 0.0 < gamma < 1.0:
        raise ConfigurationError(
            f"extra gamma must lie in (0, 1), got {gamma}")
    if not k_R >= 0.0:
        raise ConfigurationError(f"extra k_R must be >= 0, got {k_R}")

    with contextlib.suppress(ArithmeticError):
        alpha_R = 2.0 * ACCEPTANCE_RATIO * p.sigma_min
        sigma_sufficient = 2.0 * (pc.L_c + p.M / 2.0 + alpha_R)
        sigma_cap = max(10.0 * sigma_sufficient, SIGMA_MAX)
        restoration_grad_bound = pc.L_c + p.M + kap["kappa_R"] + sigma_cap
        restoration_steps_per_level = (
            restoration_grad_bound**2 * (1.0 - p.r**4)
            / (2.0 * alpha_R * p.r_feas**2)
            + 1.0
        )
        step_per_infeasibility = kap["kappa_phi"] * p.M * pc.C_h
        # a trial on a kept Jacobian that fails is followed by trials on a
        # fresh one from 2 sigma_min, so a z-step may take two trials even
        # when sigma_min is already sufficient
        sigma_trials_per_step = max(2, math.floor(
            math.log2(sigma_sufficient) - math.log2(p.sigma_min)) + 1)
        restoration_iter_cap = (
            restoration_steps_per_level * sigma_trials_per_step + 1.0
        ) * p.N_prec
        restored_distance_factor = math.sqrt(
            _inner_cap(restoration_iter_cap) / (2.0 * alpha_R)) * (
            1.0 + beta * (2.0 - p.r**2) / (1.0 - p.r**2))
        restored_value_factor = pc.L_f * restored_distance_factor + beta
        penalty_floor = min(
            THETA_0,
            1.0
            / (
                (2.0 / (1.0 + p.r))
                * (pc.L_f * restored_distance_factor / (1.0 - p.r) + 1.0)
            ),
        )
        alpha_effective = max(
            p.alpha,
            ((1.0 - penalty_floor) / penalty_floor)
            * (kap["kappa_T"] + pc.L_h),
        )
        mu_sufficient = p.M + alpha_effective + pc.L_f
        tangent_attempt_cap = (
            max(math.floor(math.log2(mu_sufficient) - math.log2(MU_MIN)), 0)
            + 1
        )
        mu_cap = max(10.0 * mu_sufficient, MU_MAX)
        penalty_ratio_bound = pc.C_h / penalty_floor
        infeasibility_sum_bound = (2.0 / (gamma * (1.0 - p.r) ** 2)) * (
            k_R * (2.0 * pc.C_f + pc.C_h) + penalty_ratio_bound + pc.C_h
            + pc.C_g)
        step_square_sum_bound = (1.0 / p.alpha) * (
            (restored_value_factor + beta) * infeasibility_sum_bound
            + 2.0 * pc.C_f)
        residual_step_factor = p.M + kap["kappa"] + 2.0 * mu_cap + 2.0
        residual_square_sum_bound = (residual_step_factor**2
                                     * step_square_sum_bound)
        beta_bar = penalty_floor * (1.0 - gamma) * (1.0 - p.r) ** 2 / 2.0
    # the chain computes the quantities in the order of _DERIVED, so the
    # first one missing or not finite is where it broke down
    derived = locals()
    for name in _DERIVED:
        if name not in derived or not math.isfinite(derived[name]):
            raise ConfigurationError(
                f"derived constant {name} is not finite: the problem"
                " constants, parameters or extras are out of range")
    return TheoreticalConstants(
        **{name: derived[name] for name in _DERIVED},
        r=p.r, analytic=pc.analytic, extras=ext)


@dataclass(frozen=True)
class IterationBounds:
    """Worst-case iteration and evaluation counts for given tolerances;
    ``max_evals`` is keyed by :data:`~bira.core.LEDGER_FIELDS`."""

    h_above_tol_iters: int
    g_above_tol_iters: int
    infeasible_iters: int
    optimality_iters: int
    total_iters: int
    max_evals: dict


def iteration_bounds(tc: TheoreticalConstants, eps_feas, eps_prec, eps_opt):
    """Iteration-count bounds from the summability constants; a tolerance
    that is not positive and finite raises :class:`ValueError`."""
    for name, val in (("eps_feas", eps_feas), ("eps_prec", eps_prec),
                      ("eps_opt", eps_opt)):
        if not valid_tolerance(val):
            raise ValueError(f"{name} must be positive and finite")
    cf = tc.infeasibility_sum_bound
    h_above = math.floor(tc.r * cf / eps_feas)
    g_above = math.floor(cf / eps_prec)
    infeasible = math.floor(max(tc.r * cf / eps_feas, tc.r * cf / eps_prec))
    optimality = math.floor(tc.residual_square_sum_bound / eps_opt**2)
    # every iteration past the stopping one trips at least one of the counts
    total = infeasible + g_above + optimality + 1
    return IterationBounds(
        h_above_tol_iters=h_above,
        g_above_tol_iters=g_above,
        infeasible_iters=infeasible,
        optimality_iters=optimality,
        total_iters=total,
        max_evals={key: total * cap + STARTUP_EVALS[key]
                   for key, cap in tc.evals_per_iter.items()},
    )


def _inner_cap(restoration_iter_cap):
    return math.ceil(10.0 * restoration_iter_cap)


def restoration_inner_cap(tc: TheoreticalConstants | None):
    """Cap on restoration trials: certified when analytic."""
    if tc is not None and tc.analytic:
        return _inner_cap(tc.restoration_iter_cap)
    return FALLBACK_INNER_CAP


def restoration_refine_cap(params: AlgorithmParams):
    """Cap on the precision refinements of one restoration call.

    Refinement ``N_prec + 1`` takes the constraint precision to at most
    ``eps_prec_bar``, where a stall ends the call instead of refining, so
    an oracle whose ``refine`` meets its targets never exceeds the cap.
    """
    return params.N_prec + 1


def restoration_stage_cap(params: AlgorithmParams, g, goal):
    """Cap on the stages of one restoration call whose first level refined
    the precision measure to ``g``; ``goal`` is the call's
    :func:`~bira.core.finishing_goal`.

    A stage refines both components by ``r**2``.  Both branches count the
    stages ``s`` that take ``r**(2 s)`` down to ``(1 - r) c_min``, where
    ``c_min = 2 sigma_min / (2 sigma_min + M)`` is the least contraction of
    a damped z-step on a linear row with ``||J||**2 <= M``.

    A call without a goal stages only once r is met, while ``||h||`` lies
    below its floor ``(1 - min(r, c)) g / (2 r)``.  Handed ``q = ||h|| / g
    >= (1 - rho) / (2 r)`` by the call before, it leaves ``q c / rho``, and
    ``s`` stages restore the floor once ``r**(2 s) <= c (1 - r) / r``.  The
    call ends at the z-step that meets r, so ``c >= r c_min``, and the
    count above is its cap.

    On a finishing call the cap adds to that count the stages that take g
    down to ``min(eps_prec, 2 r eps_feas)``, plus one: there the precision
    goal holds and the floor ``g / (2 r)`` lies below ``eps_feas``.  While
    the violation goal is open, ``||h|| > eps_feas``,
    :func:`~bira.restoration.resta` stages ahead of the z-step predicted
    to meet it until ``g <= min(eps_prec, 2 r pred)``, where ``pred = c
    ||h||`` for the last z-step's contraction factor ``c``.  Where ``c >=
    c_min``, ``pred > c_min eps_feas``, and the ``s`` stages more take g
    below ``r**(2 s) min(eps_prec, 2 r eps_feas) <= min(eps_prec, 2 r
    c_min eps_feas)``.  Every stage lowers g by ``r**2``, whatever asked
    for it (the goal, the predicted z-step, the level's error allowance or
    a stall below the floor), so the count holds in any order.  Where a
    z-step's factor falls below ``c_min`` (a row with ``||J||**2`` above
    M, where :func:`~bira.qp.build_B` scales the curvature), or the error
    allowance asks for more, ``resta`` ends the call at the cap, where
    ``g / (2 r)`` lies below ``eps_feas`` and so below ``||h||``; only a
    ``refine`` that misses its targets can take it past.  Without the
    ``s`` stages a finishing call whose z-steps contract by a factor far
    below ``r**2`` reached the cap just above ``eps_feas``, and its run
    paid one more record (``active1`` of the benchmark at seed 1, whose
    finishing call stopped at ``||h|| = 1.08e-6`` when a stage was taken
    ahead of every z-step predicted to cross the floor).
    """
    r = params.r
    gap = (1.0 - r) * 2.0 * params.sigma_min / (
        2.0 * params.sigma_min + params.M)
    stages = 0
    while r ** (2 * stages) > gap:
        stages += 1
    if goal is None:
        return stages
    floor = min(goal[1], 2.0 * r * goal[0])
    stages += 1
    while g > floor:
        g *= r * r
        stages += 1
    return stages


def leq(lhs, rhs):
    """Comparison with a 1e-9 slack relative to the operands, for audit
    bounds that carry rounding.  There is no absolute floor: bounds such as
    the noise budget or the penalty floor are far below 1e-9.  An infinite
    ``lhs``, a sum of squares that overflowed, gets no slack, which would
    be infinite too."""
    if math.isinf(lhs):
        return lhs <= rhs
    return lhs <= rhs + 1e-9 * max(abs(lhs), abs(rhs))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def lines(self):
        width = max(len(c.name) for c in self.checks)
        out = []
        for c in self.checks:
            line = f"{c.name.ljust(width)}  {c.status.upper()}"
            if c.detail:
                line += f"  ({c.detail})"
            out.append(line)
        return out


#: Gates: a check is skipped, never passed, when its gate holds (``None``
#: never does).  ANALYTIC bounds are certified only for analytic problem
#: constants; an EXACT check with no rows had no exact values to compare:
#: the problem has none, or no noise scale to bound its errors by.
ANALYTIC = "problem constants are estimates"
EXACT = "no exact values to compare"


def _tol(k, observed, bound):
    """Row for ``observed <= bound`` with the relative slack of :func:`leq`."""
    return k, leq(observed, bound), observed, bound


def _exact(k, observed, bound):
    """Row for ``observed <= bound`` compared exactly."""
    return k, observed <= bound, observed, bound


def _summed(terms, bound):
    """The one whole-run row (iteration ``None``) of a summability check."""
    yield _tol(None, sum(terms), bound)


def _verdict(name, gate, rows, analytic):
    """Decide one check from its rows ``(where, ok, observed, bound)``.

    The first failing row fails the check and is its detail; otherwise the
    check passes with the row closest to its bound as the detail.  A check
    with no rows passes, unless its gate is EXACT.
    """
    def text(row, verb):
        where = row[0]  # an iteration, None or a field name
        if where is None:
            where = "whole run"
        elif not isinstance(where, str):
            where = f"iteration {where}"
        return f"{where}: {row[2]:.3e} {verb} {row[3]:.3e}"

    if gate == ANALYTIC and not analytic:
        return CheckResult(name, "skipped", gate)
    closest = None
    for row in rows:
        if not row[1]:
            return CheckResult(name, "fail", text(row, "exceeds"))
        if closest is None or row[3] - row[2] < closest[3] - closest[2]:
            closest = row
    if closest is not None:
        return CheckResult(name, "pass", text(closest, "within"))
    if gate == EXACT:
        return CheckResult(name, "skipped", gate)
    return CheckResult(name, "pass")


def _merit_row(rec, r):
    # the accepted step keeps the merit within the restoration's allowance
    allowance = merit_allowance(rec.h_xk_yR, rec.h_xR_yR, rec.g_yk,
                                rec.g_yR, r)
    return _tol(rec.k, *merit_test(
        rec.f_xnext_ynext, rec.h_xnext_ynext, rec.f_xk_yR, rec.h_xk_yR,
        rec.g_yR, rec.theta_after, allowance))


def _calls(report):
    """Every restoration call of the run as ``(k, x_k, y_k, h_xk_yk,
    outcome, rho, stage_cap, held)``: its iteration, start and outcome,
    the precision ratio ``bira_run`` handed it, which follows the previous
    call's contraction and the goal a record that met the optimality test
    sets, its :func:`restoration_stage_cap`, and whether
    :func:`~bira.core.held` kept its input, and with it the contraction
    before it.  One call per record, then the failing call of a
    ``RestorationFailure``, which starts where the last record's step
    ended (at the start block if none did)."""
    params, start, recs = report.params, report.start, report.records
    x_k, y_k, h_xk_yk = start["x"], start["y"], start["h"]
    contraction = residual = None
    for k, out in enumerate(report.calls):
        goal = finishing_goal(residual, report.tolerances)
        rho = precision_ratio(params.r, contraction, goal is not None)
        kept = held(h_xk_yk, y_k.g, params.r, report.tolerances)
        yield (k, x_k, y_k, h_xk_yk, out, rho,
               restoration_stage_cap(params, rho * y_k.g, goal), kept)
        if k < len(recs):
            rec = recs[k]
            x_k, y_k, h_xk_yk = rec.x_next, rec.y_R, rec.h_xnext_ynext
            residual = rec.stationarity_residual
            if not kept:
                contraction = out.contraction


def _z_step_trial_rows(outs, cap):
    """Each z-step of every call ``(k, outcome)`` took at most ``cap``
    trials.  A call's trials split into z-steps where j is back at 0 (see
    :func:`_ladder_rows`)."""
    for k, out in outs:
        trials = 0
        for j, _ in out.trials:
            if j == 0 and trials:
                yield _exact(k, trials, cap)
                trials = 0
            trials += 1
        if trials:
            yield _exact(k, trials, cap)


def _ladder_rows(outs):
    """Every trial of every call ``(k, outcome)`` climbed the doubling
    ladder: a call's first trial is at ``sigma_min``, j = 0 doublings up,
    and each later one at most one doubling above the trial before it (a
    failed trial doubles sigma; a z-step that moved, or a new level,
    resets it to ``sigma_min``; a zero step or leaving the face keeps
    it)."""
    for k, out in outs:
        prev = -1
        for j, _ in out.trials:
            yield _exact(k, j, prev + 1)
            prev = j


def _sigma(sigma_min, j):
    """The weight ``sigma_min * 2**j`` of a trial j doublings up; ``inf``
    past the float range."""
    try:
        return math.ldexp(sigma_min, j)
    except OverflowError:
        return math.inf


def _refinement_rows(calls, r):
    """Each of the :func:`_calls` refined both precision components by at
    least the ratio ``bira_run`` handed it, times ``r**2`` per stage.
    Every level refines the objective precision from the call's input, so
    it is replayed exactly, and a stage more or less than recorded fails,
    on a call with a goal or without one.  The replay stops at the call's
    stage cap, which a claim of more stages fails in
    ``restoration_inner_caps``.  A held call has no level and no stage,
    and returns its input precision exactly; any other call counts its
    first level before it refines, so it has at least one."""
    for k, _, y_k, _, out, rho, stage_cap, kept in calls:
        if kept:
            yield _exact(k, out.refinements + out.stages, 0)
            yield _exact(k, y_k.gh, out.y_R.gh)
            rho, stage_cap = 1.0, 0
        bound_f, bound_h = rho * y_k.gf, rho * y_k.gh
        for _ in range(min(out.stages, stage_cap)):
            bound_f, bound_h = r * r * bound_f, r * r * bound_h
        yield _exact(k, out.y_R.gf, bound_f)
        yield _exact(k, out.y_R.gh, bound_h)
        yield _exact(k, bound_f, out.y_R.gf)
        if not kept:
            yield _exact(k, 1, out.refinements)


def _restoration_test_rows(report, calls, beta):
    """Both restoration failure tests, recomputed from each of the
    :func:`_calls`: every recorded call passed them, and a call that ended
    the run with one of their kinds failed that test and passed the ones
    before it.  A held call skips them, so it cannot end a run.  Their
    reference ``h_xk_yR`` is replayed exactly: the bound
    :func:`~bira.core.outer_reference` draws at the run's error scale
    ``beta`` from the value at ``y_k``, where it gives one; elsewhere the
    call measured it, and the oracle rows check it."""
    for k, _, y_k, h_xk_yk, out, _, _, kept in calls:
        ref = outer_reference(h_xk_yk, y_k, out.y_R, beta)
        if ref is not None:
            # equal: neither side exceeds the other
            yield _exact(k, out.h_xk_yR, ref)
            yield _exact(k, ref, out.h_xk_yR)
        kind = None if k < len(report.records) else report.failure_info["kind"]
        if kept:
            yield _exact(k, kind is not None, False)
            continue
        if kind == "possible_infeasibility":
            return
        for test, lhs, rhs in restoration_tests(out.h_xk_yR, out.h_xR_yR,
                                                y_k.g, out.y_R.g,
                                                report.params.r):
            if test == kind:
                # a lower bound: the test failed
                yield k, not lhs <= rhs, rhs, lhs
                return
            yield _exact(k, lhs, rhs)


def _tangent_search_rows(report):
    """The tangent search replayed from each record: the accepted trial
    passed the descent test, and the record's f-evaluations are those its
    search and the values before it took.  That is one per trial but a
    zero step, which takes f from the penalty update; one for f at the
    restored precision and one at the restored point, each where it
    differs from the current one; and the start-up evaluation in record
    0.  A record that stopped the run measured no f but the start-up one.
    The weights ``mu_k`` follow from ``ell_count``
    (:data:`~bira.trace.DERIVED`), so the f-evaluations are what tie the
    count of trials to the run.

    The record's h and grad h counts past its restoration call's are the
    search's too: one grad h, the tangent region's Jacobian at ``(x_R,
    y_R)``, a stopped record's too, and one h per trial that passed the
    descent test and moved, so at least one where the accepted trial moved
    and at most ``ell_count`` less a zero accepted step, the start-up h
    aside.  These tie each call's h and grad h counts to its record's."""
    alpha = report.params.alpha
    for rec in report.records:
        spent = STARTUP_EVALS["f_evals"] if rec.k == 0 else 0
        h_least = h_most = 0
        if not rec.stopped:
            yield _exact(rec.k, *descent_test(rec.f_xnext_ynext, rec.f_xR_yR,
                                              alpha, rec.step_norm))
            moved = rec.step_norm != 0.0
            spent += ((rec.y_R != rec.y_k)
                      + (not np.array_equal(rec.x_R, rec.x_k))
                      + rec.ell_count - (not moved))
            h_least, h_most = int(moved), rec.ell_count - (not moved)
        f_evals = rec.ledger_delta["f_evals"]
        # equal: neither side exceeds the other
        yield _exact(rec.k, f_evals, spent)
        yield _exact(rec.k, spent, f_evals)
        led, call = rec.ledger_delta, rec.resta.ledger_delta
        h_evals = led["h_evals"] - call["h_evals"] - (
            STARTUP_EVALS["h_evals"] if rec.k == 0 else 0)
        gradh_evals = led["gradh_evals"] - call["gradh_evals"]
        yield _exact(rec.k, h_least, h_evals)
        yield _exact(rec.k, h_evals, h_most)
        yield _exact(rec.k, gradh_evals, 1)
        yield _exact(rec.k, 1, gradh_evals)


def _measurements(report, calls, beta):
    """Each value the run measured, with the point and precision it was
    measured at: ``(iteration, x, y, f, h)``, ``f`` ``None`` where only
    the violation norm ``h`` was measured, ``h`` ``None`` where only f
    was.  The start is charged to iteration 0, and a record's current
    values are the previous record's accepted ones, so each value appears
    once.  A record that stopped the run, and the failing call, measured
    only their restoration's violations.  A call's ``h_xk_yR`` is a
    measurement only where :func:`~bira.core.outer_reference` gives no
    bound."""
    start = report.start
    yield 0, start["x"], start["y"], start["f"], start["h"]
    # the failing call has no record
    for (k, x_k, y_k, h_xk_yk, out, *_), rec in zip(
            calls, [*report.records, None]):
        f_k, f_R = (rec.f_xk_yR, rec.f_xR_yR) if rec else (None, None)
        bound = outer_reference(h_xk_yk, y_k, out.y_R, beta)
        yield k, x_k, out.y_R, f_k, out.h_xk_yR if bound is None else None
        yield k, out.x_R, out.y_R, f_R, out.h_xR_yR
        if rec and not rec.stopped:
            yield (k, rec.x_next, rec.y_R, rec.f_xnext_ynext,
                   rec.h_xnext_ynext)


def _oracle_error_rows(report, calls, problem, beta):
    """``(f rows, h rows)``: every value the run measured against
    ``problem``'s exact one, within the noise scale times the precision
    component it was measured at, plus a rounding term: at the calibrated
    scale the noise bound can sit below one ULP of the value.  A violation
    norm is compared by the triangle inequality, ``| ||h|| - ||h_exact|| |
    <= ||h - h_exact||``.  A kind has no rows when the problem has no
    exact values or no noise scale of that kind."""
    extras = problem.extras()
    ns_f = extras.get("noise_scale_f")
    ns_h = extras.get("noise_scale_h")
    f_rows, h_rows = [], []
    for k, x, y, f, h in _measurements(report, calls, beta):
        exact = None if f is None or ns_f is None else problem.exact_f(x)
        if exact is not None:
            f_rows.append(_exact(k, abs(f - exact),
                                 ns_f * y.gf + 1e-15 * (1.0 + abs(f))))
        exact = None if h is None or ns_h is None else problem.exact_h(x)
        if exact is not None:
            h_rows.append(_exact(k, abs(h - float(np.linalg.norm(exact))),
                                 ns_h * y.gh + 1e-15 * (1.0 + h)))
    return f_rows, h_rows


def _basis_rows(basis, problem):
    """The trace's constants basis against ``problem``'s own: each field
    of ``problem_constants`` against :meth:`problem.constants`, the
    provenance as 1 where analytic, and each of ``extras`` against
    :data:`DEFAULT_EXTRAS` updated by :meth:`problem.extras`, as
    ``bira_run`` writes them.  Each pair is equal, neither side exceeding
    the other, and each row is named by its field; a field one side lacks
    reads NaN, which no comparison passes."""
    def value(val):
        if val is None:
            return math.nan
        return float(val == "analytic") if isinstance(val, str) else val

    for part, own in (("problem_constants", problem.constants().to_dict()),
                      ("extras", {**DEFAULT_EXTRAS, **problem.extras()})):
        written = basis[part]
        for key in dict.fromkeys([*own, *written]):
            a, b = value(written.get(key)), value(own.get(key))
            yield _exact(f"{part}.{key}", a, b)
            yield _exact(f"{part}.{key}", b, a)


def _ledger_rows(rec, tc):
    # the start-up evaluations are charged to the first iteration
    caps = tc.evals_per_iter
    if rec.k == 0:
        caps = {key: cap + STARTUP_EVALS[key] for key, cap in caps.items()}
    return [_exact(rec.k, rec.ledger_delta[key], cap)
            for key, cap in caps.items()]


def _ledger_total_rows(report):
    # the records' deltas and the failing restoration call's add up to the
    # run's totals; the start-up evaluations are in record 0's delta, or in
    # no record's when the run stopped before finishing one
    deltas = [rec.ledger_delta for rec in report.records]
    if not report.records:
        deltas.append(STARTUP_EVALS)
    if report.failure_info is not None:
        deltas.append(report.calls[-1].ledger_delta)
    for key in LEDGER_FIELDS:
        spent = sum(d[key] for d in deltas)
        total = report.ledger_totals[key]
        # equal: neither side exceeds the other
        yield _exact(None, spent, total)
        yield _exact(None, total, spent)


def _stopping_rows(report):
    """Replay the stopping test of ``bira_run`` against the status.

    Every run spent at most ``budget`` iterations: its records, and the
    failing call of a restoration failure, which is the iteration after
    its last record.  A converged run meets the test at its last record
    and nowhere before, and a run out of budget wrote ``budget`` records;
    neither it nor a restoration failure meets the test at any record.  A
    record that must meet it is the row (largest ratio of a stopping
    measure to its tolerance, 1); one that must not is the lower bound (1,
    that ratio).  The verdict is the solver's own comparison,
    :func:`~bira.core.stopping_test`.
    """
    tol = report.tolerances
    recs = report.records
    n = len(recs)
    yield _exact(None, n + (report.failure_info is not None), report.budget)
    if report.status == "Converged":
        yield _exact(None, 1, n)
    elif report.status == "BudgetExceeded":
        yield _exact(None, report.budget, n)
    for i, rec in enumerate(recs):
        met = stopping_test(rec.h_xR_yR, rec.g_yR, rec.stationarity_residual,
                            tol)
        ratio = max(rec.h_xR_yR / tol["eps_feas"], rec.g_yR / tol["eps_prec"],
                    rec.stationarity_residual / tol["eps_opt"])
        if report.status == "Converged" and i == n - 1:
            yield rec.k, met, ratio, 1.0
        else:
            yield rec.k, not met, 1.0, ratio


def audit(report, problem=None):
    """Check a recorded run against every auditable invariant.

    ``report`` needs ``status``, ``records``, ``failure_info``, ``start``,
    ``params``, ``constants_basis``, ``ledger_totals``, ``tolerances`` and
    ``budget``.  The constants chain is recomputed from the report's own
    constants basis; the solve targets are always
    :data:`~bira.core.DEFAULT_KAPPAS`.  Given the ``problem`` the run
    solved, the audit also lists ``constants_basis``, which compares that
    basis with the problem's own (:func:`_basis_rows`), and
    ``oracle_f_error_bound`` and ``oracle_h_error_bound``, which compare
    every measured value with the problem's exact one
    (:func:`_oracle_error_rows`); from the trace alone it lists none of
    them.  Each check is a name, a gate and a lazy stream of rows
    ``(where, ok, observed, bound)``, where ``where`` is an iteration,
    ``None`` for the whole run, or the name of a field; :func:`_verdict`
    decides every one of them.

    The audit reads a run through three walks.  Every restoration check
    reads every restoration call, the failing one included
    (:func:`_calls`); the tangent and penalty checks read the records
    that searched a tangent step, which the record that stopped a run did
    not (:attr:`~bira.trace.IterationRecord.stopped`); the other checks
    read all records.  ``tangent_model_floor``
    bounds each tangent model from below: with no tangent curvature it is
    ``g.s + mu ||s||**2 >= -||g|| ||s||``, and the problem constant ``L_f``
    bounds the norm of the measured gradient g, noise included.  Every
    built-in problem and the benchmark's synthetic ones add to the exact
    gradient's bound the noise's gradient bound at the starting
    precision, which a run only refines
    (:func:`~bira.oracle._calibrated_constants`), so ``L_f ||s||`` bounds
    ``-model_decrease``.  It is the one lower bound on the model decrease
    of the last record that searched, which no replayed start reads.
    """
    params = report.params
    basis = report.constants_basis
    pc = ProblemConstants.from_dict(basis["problem_constants"])
    tc = constants(pc, params, extras=basis["extras"])
    kap = DEFAULT_KAPPAS
    recs = report.records
    searched = [rec for rec in recs if not rec.stopped]
    calls = list(_calls(report))
    outs = [(k, out) for k, _, _, _, out, *_ in calls]
    rtrials = [(k, j, cert) for k, out in outs for j, cert in out.trials]
    tcerts = [(rec.k, rec.tangent_cert) for rec in searched]
    inner_cap = restoration_inner_cap(tc)
    refine_cap = restoration_refine_cap(params)
    oracle = [] if problem is None else [
        ("constants_basis", None, _basis_rows(basis, problem))] + [
        (name, EXACT, rows) for name, rows in zip(
            ("oracle_f_error_bound", "oracle_h_error_bound"),
            _oracle_error_rows(report, calls, problem, tc.extras["beta"]))]
    # a lower bound is a row with the floor as observed and the value as bound
    table = [
        ("theta_lower_bound", ANALYTIC, (
            _tol(rec.k, tc.penalty_floor, rec.theta_after)
            for rec in searched)),
        ("penalty_merit_decrease", None, (
            _merit_row(rec, params.r) for rec in searched)),
        ("sigma_cap", ANALYTIC, (
            _tol(k, _sigma(params.sigma_min, j), tc.sigma_cap)
            for k, j, _ in rtrials)),
        ("z_step_trials", ANALYTIC, _z_step_trial_rows(
            outs, tc.sigma_trials_per_step)),
        ("doubling_ladder", None, _ladder_rows(outs)),
        ("mu_cap", ANALYTIC, (
            _tol(rec.k, rec.mu_k, tc.mu_cap) for rec in searched)),
        ("restored_distance", ANALYTIC, (
            _tol(k, float(np.linalg.norm(out.x_R - x_k)),
                 tc.restored_distance_factor * (h_xk_yk + y_k.g))
            for k, x_k, y_k, h_xk_yk, out, *_ in calls)),
        ("restored_value_drift", ANALYTIC, (
            _tol(rec.k, abs(rec.f_xR_yR - rec.f_xk_yR),
                 tc.restored_value_factor * (rec.h_xk_yk + rec.g_yk))
            for rec in searched)),
        # violation at the current point at restored precision, bounded
        ("infeasibility_summability", ANALYTIC, _summed(
            (rec.h_xk_yR + rec.g_yk for rec in recs),
            tc.infeasibility_sum_bound)),
        ("step_summability", ANALYTIC, _summed(
            (rec.step_norm**2 for rec in recs), tc.step_square_sum_bound)),
        # zero steps are snapped; the outer stopping test covers them
        ("residual_vs_step", ANALYTIC, (
            _tol(rec.k, rec.stationarity_residual,
                 tc.residual_step_factor * rec.step_norm) for rec in recs
            if rec.step_norm != 0.0)),
        ("residual_summability", ANALYTIC, _summed(
            (rec.stationarity_residual**2 for rec in recs),
            tc.residual_square_sum_bound)),
        ("ledger_caps", ANALYTIC, (
            row for rec in recs
            for row in _ledger_rows(rec, tc))),
        ("restoration_f_free", None, (
            _exact(k, abs(out.ledger_delta[key]), 0)
            for k, out in outs for key in ("f_evals", "gradf_evals"))),
        ("restoration_model_decrease", None, (
            _exact(k, c.model_decrease, CERT_FLOOR) for k, _, c in rtrials)),
        # the residual within its step budget
        ("restoration_solve_accuracy", None, (
            _exact(k, c.stationarity_residual,
                   kap["kappa_R"] * c.step_norm + CERT_FLOOR)
            for k, _, c in rtrials)),
        # with no tangent curvature the model at the projected step s is at
        # most -mu ||s||^2 (:func:`~bira.core.tangent_mu_start` reads it)
        ("tangent_model_decrease", None, (
            _exact(rec.k, rec.tangent_cert.model_decrease,
                   CERT_FLOOR - rec.mu_k * rec.step_norm**2)
            for rec in searched)),
        # the model at s is at least -L_f ||s|| (see above)
        ("tangent_model_floor", ANALYTIC, (
            _tol(k, -c.model_decrease, pc.L_f * c.step_norm)
            for k, c in tcerts)),
        # the residual within both step budgets; zero steps and residuals
        # at the floor are exempt
        ("tangent_solve_accuracy", None, (
            row for k, c in tcerts if c.step_norm != 0.0
            and c.stationarity_residual > CERT_FLOOR for row in (
                _exact(k, c.stationarity_residual,
                       kap["kappa_T"] * c.step_norm ** 2 + CERT_FLOOR),
                _exact(k, c.stationarity_residual,
                       kap["kappa"] * c.step_norm + CERT_FLOOR)))),
        *oracle,
        ("noise_within_budget", ANALYTIC, [
            _tol(None, tc.extras["beta"], tc.beta_bar)]),
        # each z-step is a passing trial
        ("restoration_inner_caps", None, (
            row for k, _, _, _, out, _, stage_cap, _ in calls for row in (
                _exact(k, out.inner_desc_tests, inner_cap),
                _exact(k, out.refinements, refine_cap),
                _exact(k, out.stages, stage_cap),
                _exact(k, out.z_steps, out.inner_desc_tests)))),
        ("step_per_infeasibility", ANALYTIC, (
            _tol(k, out.max_step_over_h, tc.step_per_infeasibility)
            for k, out in outs if out.max_step_over_h is not None)),
        ("precision_refinement", None, _refinement_rows(calls, params.r)),
        ("restoration_tests", None,
         _restoration_test_rows(report, calls, tc.extras["beta"])),
        ("tangent_search", None, _tangent_search_rows(report)),
        ("ledger_totals", None, _ledger_total_rows(report)),
        ("stopping_test", None, _stopping_rows(report)),
    ]
    return AuditReport(tuple(_verdict(name, gate, rows, tc.analytic)
                             for name, gate, rows in table))


def tolerance_grid(eps_values):
    """The tolerances of a :func:`complexity_fit` as an array.

    :class:`InsufficientDataError` unless they are positive, finite and
    hold at least three distinct values, so a sweep can be refused before
    it runs.
    """
    eps = np.asarray(eps_values, dtype=float)
    if not all(map(valid_tolerance, eps)):
        raise InsufficientDataError("tolerances must be positive and finite")
    if np.unique(eps).size < 3:
        raise InsufficientDataError("need at least three distinct tolerances")
    return eps


def complexity_fit(eps_values, work_counts):
    """Log-log slope of work against 1/eps.

    Returns ``(slope, intercept)`` of ``log(work) ~ slope*log(1/eps) + b``,
    over a :func:`tolerance_grid`.
    """
    eps = tolerance_grid(eps_values)
    work = np.asarray(work_counts, dtype=float)
    if eps.size != work.size:
        raise InsufficientDataError("tolerance and work arrays differ in length")
    if np.any(work <= 0.0):
        raise InsufficientDataError("work counts must be positive")
    slope, intercept = np.polyfit(np.log(1.0 / eps), np.log(work), 1)
    return float(slope), float(intercept)
