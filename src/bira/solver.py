"""Outer loop: restore, test for a stop, update the penalty weight, take a
tangent step.

Each iteration runs the restoration phase and applies the two restoration
failure tests.  It then measures the gradients of f and h at the restored
point and projects the steepest-descent step onto the tangent region,
which is all the stopping test needs: a record that meets it ends the run
at its restored point ``x_R``, the answer a ``Converged`` run returns,
and searches no tangent step (its ``ell_count`` is 0).  The penalty weight
only makes the merit function fall along a tangent step, so only an
iteration that goes on measures f at the restored point, rebalances the
weight so the merit function is guaranteed to decrease by a fixed
fraction of the restoration gain, and searches over the regularization
weight for a tangent step passing both acceptance tests.
Oracle values are functions of the point and the precision, so measuring
the gradients before f leaves every value a record measures as it was.
The tangent phase works at the restored precision ``y_R`` throughout: its
gradient, tangent region and merit reference are measured there once, and
the accepted point hands ``y_R`` on as the next iteration's precision.
Once a record meets the optimality test, the next restoration call is a
finishing call: it is handed the feasibility and precision tolerances as
its goal (:func:`~bira.core.finishing_goal`), so the iteration after it
can stop.  Everything measurable about the
iteration is written into an :class:`~bira.trace.IterationRecord`; a
finished run returns a :class:`~bira.trace.RunReport` that serializes
losslessly, so audits can replay it without touching the problem again;
only the oracle error rows of :func:`~bira.diagnostics.audit` need it.

The search doubles the weight mu from a start that the previous accepted
step predicts will pass the descent test.  With no tangent curvature the
model decrease at mu is ``g.s + mu |s|^2``, so the certificate gives
``a = -g.s``, and ``D = f_xR_yR - f_next`` gives ``b = (a - D)/|s|^2``,
half the curvature of f along s.  When no bound cut the step,
``a = 2 mu |s|^2`` and the trial at weight m is ``(mu/m) s``; if f is
quadratic along that ray it passes iff ``2 m >= alpha + b``, and the next
search starts a margin above that edge, but no lower than b, never above
mu (Nocedal & Wright §3.5, initial step length; Moré & Thuente 1994).
The trial at b ends at the minimizer of f's quadratic along s, and it
passes whenever ``b >= alpha``; the floor binds only where
``b > 1.1 alpha/0.9``.  After a clipped or zero step it starts at
mu/2 if ``D >= (mu + alpha) |s|^2``, the test of the half along 2s, else
at mu.  At the default ``alpha = 0.02`` the floor binds on ``p1``, where
``b = 1/20``: each search from record 1 on starts at b and passes at
its first trial, one step reaches the minimizer of p1's quadratic on its
line, and the run stops in 4 records (12 at ``alpha = 0.1``, where the
weight settles at the margin, 0.0825).  On ``p2``, whose curved
constraint makes b exceed the margin, the floor stops the steps
overshooting: consecutive steps no longer point in opposite directions,
and the stationarity residual falls at every record from record 2 on.
The rule is written once, in :func:`~bira.core.tangent_mu_start`, which
the trace reader replays to rebuild each record's ``mu_k``.

No oracle value is measured twice.  The value and violation measured for
the accepted point of one iteration are the current-point measurements of
the next (restoration takes the violation vector, not only its norm);
restoration does not measure the current point's violation again at the
restored precision, but bounds it from below by the value at ``y_k`` less
the error allowance (:func:`~bira.core.outer_reference`), and that bound
is the ``h_xk_yR`` every later test reads (see
:func:`restoration_failure`); f at the current point is not measured at
the restored precision either, but bounded the same way from its value
at ``y_k`` (:func:`~bira.core.reference_value`), and that bound is the
``f_xk_yR`` the penalty update and the merit test read; a zero tangent
step takes f from the penalty update and the violation
vector from the restoration outcome; and the gradient used by the tangent
model is the one the stopping test projects.  The constraint Jacobian is
measured once per iteration, for the tangent region, and handed to the
next restoration call as its first kept Jacobian (see
:func:`~bira.restoration.resta`), which measures its own only when that
one fails a trial or stalls.  The per-iteration ledger deltas in the
records are the proof.
"""

import numpy as np

from .core import (
    FAILURE_KINDS,
    MU_INIT,
    THETA_0,
    AbnormalTermination,
    AlgorithmParams,
    ConfigurationError,
    InvariantError,
    descent_test,
    finishing_goal,
    held,
    merit_allowance,
    merit_test,
    reference_value,
    restoration_tests,
    stopping_test,
    tangent_mu_start,
    update_penalty,
    valid_tolerance,
)
from .diagnostics import constants as derived_constants
from .diagnostics import restoration_inner_cap
from .geometry import TangentSet, project_tangent
from .qp import build_H, solve_tangent_qp
from .restoration import hold, resta
from .trace import IterationRecord, RunReport


def restoration_failure(status, h_xk_yR, h_xR_yR, g_yk, g_yR, r):
    """The failure kind of a restoration outcome with ``status``, or
    ``None`` when the run goes on.

    ``possible_infeasibility`` is its own kind; a restored outcome fails
    with the first of the two declare-failure tests it does not pass.  The
    first rejects insufficient contraction of the violation; the second
    rejects a precision gain that outpaces the feasibility gain by more
    than the fixed ratio.

    What the second test protects.  Write ``dh = h_xk_yR - h_xR_yR`` and
    ``dg = g_yk - g_yR``.  :func:`~bira.core.update_penalty` needs a weight
    theta with
    ``theta (f_xR_yR - f_xk_yR) <= (1 - theta) dh - ((1 - r)/2)(dh + dg)``.
    When ``dh >= ((1 - r)/(2 r)) dg`` the right side is at least
    ``((1 - r)/2 - theta) dh``, so every theta up to
    ``((1 - r)/2) dh / (|f_xR_yR - f_xk_yR| + dh)`` works.  The first test
    makes ``dh >= (1 - r) h_xk_yR``, the restored distance bounds the change
    in f by a multiple of ``h_xk_yk + g_yk``, and this test bounds
    ``g_yk = dg / (1 - rho)`` by a multiple of ``dh``, where
    ``rho = g_yR / g_yk <= r``.  So the weight stays above a floor fixed by
    the constants chain (``penalty_floor``, audited by
    ``theta_lower_bound``).  Without the test a call that refines precision
    but barely moves the violation would drive theta to zero.

    Why the tied precision ratio cannot trip it.  With ``q = h_xk_yR /
    g_yk`` and ``c = h_xR_yR / h_xk_yR`` the test reads
    ``(1 - c) q >= ((1 - r)/(2 r)) (1 - rho)``.  The tangent step stays on
    the linearized constraints, so the next call starts near ``h = c
    h_xk_yR`` at ``g = rho g_yk``: each call multiplies q by ``c / rho``.
    At a fixed ``rho = r`` a restoration faster than r shrinks q every call
    until the test trips (``p2`` at ``(M, sigma_min) = (4, 1/4)``: q from
    1.84 to 0.46 in nine iterations at c near 0.44; tied, it settles at
    1.73).  :func:`~bira.restoration.resta` refines at
    ``rho = min(r, c_prev)``, the contraction the previous restored call
    achieved, so the factors telescope: after call k, q is ``q_0 c_k / r``.
    It depends on the latest contraction only, and at a steady contraction c
    the test holds at every call once ``q_0 >= (1 - r)/(2 c)``, which at
    ``c = r`` is the test of the first call.  A contraction of 0 asks the
    next call for exact evaluations (both targets 0, ``rho = 0``); that test
    then needs ``dh >= ((1 - r)/(2 r)) g_yk`` from a point restored
    exactly, which holds only if the tangent step reopened that much
    violation.  On a linear row a damped z-step contracts the violation by
    ``2 sigma / (2 sigma + ||J||^2) > 0``, so there only a box bound
    restores exactly.

    The balance at a finishing call.  Once a record met the optimality
    test the next call refines at ``rho = min(r, c_prev, r**2)``, which may
    be below ``c_prev``, and past ``r`` it refines by ``r**2`` once more per
    stage: q grows by ``c_prev / rho`` and by ``r**-2`` per stage, and only
    the call's own contraction c can lower it.  Its z-steps are measured at
    the level it starts on, where ``||h||`` may fall far below ``g / (2
    r)``: only the violation it returns is handed on.  Ahead of the z-step
    predicted to meet ``eps_feas`` it stages to ``g <= 2 r pred``, so
    that z-step leaves ``q >= 1 / (2 r)`` (up to the prediction); a call
    that returns with its goal open hands on the same, at the stage cap,
    where ``g / (2 r)`` lies below ``eps_feas``, and on a stall, where it
    stages to the floor first (see :func:`~bira.restoration.resta`).  From
    there the next call passes this test for every contraction ``c' <=
    r``: ``(1 - c') q >= (1 - r)/(2 r) >= ((1 - r)/(2 r)) (1 - rho')``.  A
    finishing call that meets its goal passes the stopping test's
    feasibility and precision comparisons, so the run goes on after it
    only while the optimality test is open.  The zero-step problem of the
    tests at ``(M, sigma_min) = (2, 0.5)`` measures 17 of its finishing
    call's 18 z-steps at the call's first level, and the last one, after
    8 stages, meets both tolerances at ``q = 1``.

    The balance at a call without a goal.  The contraction of the z-step
    that meets r is not known when the call picks its ratio, and can be far
    below it (the unit row of the tests: 1/33 against ``rho = r = 1/2`` at
    the defaults), so q falls by ``c / rho``.  Such a call stages below
    ``(1 - min(r, c)) g / (2 r)``, the floor the next call's test needs at
    ``rho' = min(r, c)``, unless the stage would fail its own test (see
    :func:`~bira.restoration.resta`).

    Tests on bounds of ``h_xk_yR`` and ``f_xk_yR``.  A call returns as
    ``h_xk_yR`` a lower bound of the violation at ``x_k`` at ``y_R``: the
    value at ``y_k`` less the error allowance
    (:func:`~bira.core.outer_reference`; a measurement only where that
    bound is 0).  :func:`bira_run` takes ``f_xk_yR`` the same way, as the
    value at ``y_k`` less the allowance
    (:func:`~bira.core.reference_value`), and never measures it; f may
    have either sign, so that bound is never clamped.  Each test that
    reads them stays sound on the bounds, in its order.  Both tests here
    only get harder to pass as ``h_xk_yR`` falls: ``r h_xk_yR`` and
    ``h_xk_yR - h_xR_yR`` both fall with it.  The merit test's right side,
    ``theta f_xk_yR + (1 - theta)(h_xk_yR + g) + ((1 - r)/2)(h_xR_yR -
    h_xk_yR - dg)``, rises in ``h_xk_yR`` with slope ``(1 + r)/2 - theta >
    0``, as ``theta <= THETA_0 = 1/2``, and in ``f_xk_yR`` with slope
    ``theta > 0``; the penalty update's ``df = f_xR_yR - f_xk_yR`` rises
    as ``f_xk_yR`` falls, so it asks for a smaller weight.  The problem's
    ``beta`` is ``2 max(noise_scale_f, noise_scale_h)``, so an f error of
    at most ``noise_scale_f gf`` is within ``(beta / 2) g`` as a violation
    error is.  So wherever ``beta`` bounds the errors, each measured value
    lies above its bound, and a weight of
    :func:`~bira.core.update_penalty` and a tangent step that pass the
    merit test on the bounds pass it on the measured values too.

    The hold.  A call whose input already meets the feasibility and
    precision tolerances by r, ``||h_k|| <= r eps_feas`` and ``g_k <= r
    eps_prec`` (:func:`~bira.core.held`), is held: :func:`bira_run`
    returns its input as a restored outcome, ``x_R = x_k`` and ``y_R =
    y_k`` with no trial and no evaluation, skips both tests and keeps the
    contraction of the last call before it.  A held call has ``dh = dg =
    0``, so its merit allowance is 0; ``f_xR_yR = f_xk_yR``, so the merit
    inequality holds with equality at every theta and the weight stays.
    Nothing is lost by skipping the tests: the stopping test's
    feasibility and precision comparisons already hold at ``x_k``, and
    the tangent step goes on from there.  Without the hold every call
    must contract the violation by r, so a run whose optimality test lags
    drives h and g to the rounding floor, where no z-step contracts: ``p1``
    at ``alpha = 1/2`` ended ``possible_infeasibility``, and at ``alpha =
    0.3`` with tolerances 1e-8 ``precision_outpaced_feasibility``, both
    feasible.
    """
    if status in FAILURE_KINDS:
        return status
    for kind, lhs, rhs in restoration_tests(h_xk_yR, h_xR_yR, g_yk, g_yR, r):
        if not lhs <= rhs:
            return kind
    return None


def bira_run(problem, params=None, *, eps_feas=1e-6, eps_prec=1e-6,
             eps_opt=1e-4, budget=500):
    """Solve ``problem``, an :class:`~bira.oracle.InexactProblem` that sets
    ``x0`` and ``y0``, to the given tolerances.

    Stops with status ``Converged`` when, at a restored point, the
    restored violation, the restored precision measure and the
    projected-gradient residual on the tangent region are all within
    tolerance (:func:`~bira.core.stopping_test`); that record takes no
    tangent step.  ``RestorationFailure`` reports the kind
    :func:`restoration_failure` gives: likely local infeasibility, or a
    restoration outcome failing its contraction tests; ``BudgetExceeded``
    reports running out of iterations.  A restoration call whose input
    already meets ``eps_feas`` and ``eps_prec`` by the ratio r is held
    (see :func:`restoration_failure`).  The run evaluates ``problem`` only
    through its ledgered oracle; it never calls ``exact_f`` or ``exact_h``.

    A tolerance that is not positive and finite, a negative budget or a
    problem that sets no ``x0`` or ``y0`` raises :class:`ConfigurationError`
    before any evaluation.  An :class:`AbnormalTermination` or
    :class:`InvariantError` raised inside an iteration propagates with the
    outer iteration index added to its summary as ``iteration``.
    """
    params = params or AlgorithmParams.defaults()
    tolerances = {"eps_feas": eps_feas, "eps_prec": eps_prec,
                  "eps_opt": eps_opt}
    for name, val in tolerances.items():
        if not valid_tolerance(val):
            raise ConfigurationError(
                f"{name} must be positive and finite, got {val}")
    if budget < 0:
        raise ConfigurationError(f"budget must be nonnegative, got {budget}")
    for name in ("x0", "y0"):
        if getattr(problem, name) is None:
            raise ConfigurationError(
                f"problem {problem.name} sets no start {name}")

    led_run = problem.ledger.snapshot()
    pc = problem.constants()
    tc = derived_constants(pc, params, extras=problem.extras())
    inner_cap = restoration_inner_cap(tc)
    basis = {"problem_constants": pc.to_dict(), "beta": tc.beta}

    def finish(status, failure=None):
        return RunReport(
            status=status,
            problem_name=problem.name,
            records=records,
            failure_info=failure,
            start=start,
            params=params,
            tolerances=tolerances,
            constants_basis=basis,
            ledger_totals=problem.ledger.delta(led_run),
            budget=budget,
        )

    records = []
    theta = THETA_0
    x = np.asarray(problem.x0, dtype=float).copy()
    y = problem.y0
    mu_start = MU_INIT
    contraction = None
    jacobian = None

    h_vec = problem.eval_h(x, y)
    f_val = problem.eval_f(x, y)
    h_norm = float(np.linalg.norm(h_vec))
    start = {"x": x.copy(), "y": y, "f": f_val, "h": h_norm}

    try:
        for k in range(budget):
            led_iter = problem.ledger.snapshot()

            # finish in one call once the optimality comparison has held
            goal = finishing_goal(
                records[-1].stationarity_residual if records else None,
                tolerances)
            if held(h_norm, y.g, params.r, tolerances):
                # the input meets the tolerances by r: it is kept, with
                # the contraction before it
                out = hold(x, y, h_vec)
            else:
                out = resta(problem, x, y, params, h_xk_yk=h_vec,
                            inner_cap=inner_cap, contraction=contraction,
                            goal=goal, jacobian=jacobian)
                kind = restoration_failure(out.status, out.h_xk_yR,
                                           out.h_xR_yR, y.g, out.y_R.g,
                                           params.r)
                if kind is not None:
                    return finish(
                        "RestorationFailure",
                        failure={"kind": kind, "resta": out},
                    )
                contraction = out.contraction
            y_R = out.y_R
            g_k, g_R = y.g, y_R.g
            x_R = out.x_R
            # the tangent model and region at y_R, and the stopping test's
            # residual
            grad_f = problem.eval_grad_f(x_R, y_R)
            region = TangentSet(problem.box, problem.eval_grad_h(x_R, y_R),
                                x_R)
            residual = float(np.linalg.norm(
                project_tangent(x_R - grad_f, region) - x_R))

            if stopping_test(out.h_xR_yR, g_R, residual, tolerances):
                # the run returns x_R, so it takes no tangent step and
                # needs no penalty weight for one
                records.append(IterationRecord(
                    k=k, x_k=x.copy(), x_next=None, y_k=y,
                    theta_before=theta, theta_after=theta, mu_k=None,
                    ell_count=0, h_xk_yk=h_norm, h_xnext_ynext=None,
                    f_xk_yk=f_val, f_xk_yR=None, f_xR_yR=None,
                    f_xnext_ynext=None, stationarity_residual=residual,
                    resta=out, tangent_cert=None,
                    ledger_delta=problem.ledger.delta(led_iter),
                ))
                return finish("Converged")

            # f at x_k at y_R is bounded from its value at y_k, not
            # measured; only a held call returns (x_k, y_k) itself
            f_xk_yR = reference_value(f_val, y, y_R, tc.beta)
            if y_R == y and np.array_equal(x_R, x):
                f_xR_yR = f_val
            else:
                f_xR_yR = problem.eval_f(x_R, y_R)

            theta_next = update_penalty(
                theta, f_xR_yR, f_xk_yR, out.h_xk_yR, out.h_xR_yR,
                g_k, g_R, params.r,
            )

            allowance = merit_allowance(
                out.h_xk_yR, out.h_xR_yR, g_k, g_R, params.r
            )
            G = build_H(x_R)
            mu = mu_start
            attempts = 0
            # mu doubles on every rejected trial, so the runaway ends the
            # search
            while True:
                attempts += 1
                x_next, cert = solve_tangent_qp(grad_f, G, mu, x_R, region)
                s_norm = cert.step_norm

                # a zero step stays at (x_R, y_R), which restoration and
                # the penalty update already measured
                stayed = s_norm == 0.0
                f_next = f_xR_yR if stayed else problem.eval_f(x_next, y_R)
                # h decides only the merit test, so a trial that fails the
                # descent test is not measured
                lhs, rhs = descent_test(f_next, f_xR_yR, params.alpha, s_norm)
                if lhs <= rhs:
                    h_next_vec = (out.h_vec if stayed
                                  else problem.eval_h(x_next, y_R))
                    h_next = float(np.linalg.norm(h_next_vec))
                    lhs, rhs = merit_test(f_next, h_next, f_xk_yR,
                                          out.h_xk_yR, g_R, theta_next,
                                          allowance)
                    if lhs <= rhs:
                        break
                mu *= 2.0
                if mu > 1e2 * tc.mu_cap:
                    raise InvariantError(
                        f"regularization runaway at iteration {k}"
                    )

            records.append(IterationRecord(
                k=k,
                x_k=x.copy(),
                x_next=np.asarray(x_next, dtype=float).copy(),
                y_k=y,
                theta_before=theta,
                theta_after=theta_next,
                mu_k=mu,
                ell_count=attempts,
                h_xk_yk=h_norm,
                h_xnext_ynext=h_next,
                f_xk_yk=f_val,
                f_xk_yR=f_xk_yR,
                f_xR_yR=f_xR_yR,
                f_xnext_ynext=f_next,
                stationarity_residual=residual,
                resta=out,
                tangent_cert=cert,
                ledger_delta=problem.ledger.delta(led_iter),
            ))
            theta = theta_next

            x = np.asarray(x_next, dtype=float)
            y = y_R
            f_val = f_next
            h_vec = h_next_vec
            h_norm = h_next
            jacobian = region.A
            mu_start = tangent_mu_start(params, mu, f_xR_yR, f_next, s_norm,
                                        cert.model_decrease)
    except (AbnormalTermination, InvariantError) as exc:
        exc.summary["iteration"] = k
        raise

    return finish("BudgetExceeded")
