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

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_KAPPAS,
    LEDGER_FIELDS,
    AlgorithmParams,
    InsufficientDataError,
    ProblemConstants,
    merit_allowance,
    merit_test,
    precision_ratio,
    restoration_target,
    restoration_tests,
)

DEFAULT_EXTRAS = {"beta": 0.0, "gamma": 0.5, "k_R": 0.0}

#: Fixed constants of the analysis, like the accuracy targets
#: :data:`~bira.core.DEFAULT_KAPPAS`: ``SIGMA_MAX`` floors the certified cap
#: on the restoration weight sigma, and ``BETA_C`` is the constant term of
#: the restored distance factor.  No solver loop reads either.
SIGMA_MAX = 40.0
BETA_C = 1.0

#: Fallback cap on restoration descent tests when no certified bound exists.
FALLBACK_INNER_CAP = 100_000


@dataclass(frozen=True)
class TheoreticalConstants:
    """Derived worst-case quantities; all are certified only when
    ``analytic`` is true."""

    sigma_sufficient: float
    sigma_cap: float
    restoration_grad_bound: float
    restoration_steps_per_level: float
    step_per_infeasibility: float
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
    def h_evals_per_iter(self):
        return self.restoration_iter_cap + self.tangent_attempt_cap + 1

    @property
    def gradh_evals_per_iter(self):
        return self.restoration_iter_cap + 2

    @property
    def f_evals_per_iter(self):
        return self.tangent_attempt_cap + 3

    @property
    def gradf_evals_per_iter(self):
        return 2


def constants(problem_constants: ProblemConstants, params: AlgorithmParams,
              *, extras=None):
    """Compute the full derived-constant chain, at the solve targets
    :data:`~bira.core.DEFAULT_KAPPAS`.

    ``extras`` may override ``beta`` (oracle error scale), ``gamma``
    (merit decrease fraction) and ``k_R`` (projection-map drift bound).
    Other keys are not read; they are kept in ``extras`` of the result.
    """
    pc = problem_constants
    p = params
    kap = DEFAULT_KAPPAS
    ext = dict(DEFAULT_EXTRAS)
    ext.update(extras or {})
    beta = float(ext["beta"])
    gamma = float(ext["gamma"])
    k_R = float(ext["k_R"])

    sigma_sufficient = 2.0 * (pc.L_c + p.M / 2.0 + p.alpha_R)
    sigma_cap = max(10.0 * sigma_sufficient, SIGMA_MAX)
    restoration_grad_bound = pc.L_c + p.M + kap["kappa_R"] + sigma_cap
    restoration_steps_per_level = (
        restoration_grad_bound**2 * (1.0 - p.r**4)
        / (2.0 * p.alpha_R * p.r_feas**2)
        + 1.0
    )
    step_per_infeasibility = kap["kappa_phi"] * p.M * pc.C_h
    # a trial on a kept Jacobian that fails is followed by trials on a
    # fresh one from 2 sigma_min, so a z-step may take two trials even
    # when sigma_min is already sufficient
    sigma_trials_per_step = max(
        2, math.floor(math.log2(sigma_sufficient) - math.log2(p.sigma_min)) + 1
    )
    restoration_iter_cap = (
        restoration_steps_per_level * sigma_trials_per_step + 1.0
    ) * p.N_prec
    restored_distance_factor = (
        BETA_C + restoration_iter_cap * step_per_infeasibility
    )
    restored_value_factor = pc.L_f * restored_distance_factor + beta
    penalty_floor = min(
        p.theta_0,
        1.0
        / (
            (2.0 / (1.0 + p.r))
            * (pc.L_f * restored_distance_factor / (1.0 - p.r) + 1.0)
        ),
    )
    alpha_effective = max(
        p.alpha,
        ((1.0 - penalty_floor) / penalty_floor) * (kap["kappa_T"] + pc.L_h),
    )
    mu_sufficient = p.M + alpha_effective + pc.L_f
    tangent_attempt_cap = (
        max(math.floor(math.log2(mu_sufficient) - math.log2(p.mu_min)), 0)
        + 1
    )
    mu_cap = max(10.0 * mu_sufficient, p.mu_max)
    penalty_ratio_bound = pc.C_h / penalty_floor
    infeasibility_sum_bound = (
        2.0 / (gamma * (1.0 - p.r) ** 2)
    ) * (k_R * (2.0 * pc.C_f + pc.C_h) + penalty_ratio_bound + pc.C_h + pc.C_g)
    step_square_sum_bound = (1.0 / p.alpha) * (
        (restored_value_factor + beta) * infeasibility_sum_bound + 2.0 * pc.C_f
    )
    residual_step_factor = p.M + kap["kappa"] + 2.0 * mu_cap + 2.0
    residual_square_sum_bound = residual_step_factor**2 * step_square_sum_bound
    beta_bar = penalty_floor * (1.0 - gamma) * (1.0 - p.r) ** 2 / 2.0

    return TheoreticalConstants(
        sigma_sufficient=sigma_sufficient,
        sigma_cap=sigma_cap,
        restoration_grad_bound=restoration_grad_bound,
        restoration_steps_per_level=restoration_steps_per_level,
        step_per_infeasibility=step_per_infeasibility,
        sigma_trials_per_step=sigma_trials_per_step,
        restoration_iter_cap=restoration_iter_cap,
        restored_distance_factor=restored_distance_factor,
        restored_value_factor=restored_value_factor,
        penalty_floor=penalty_floor,
        alpha_effective=alpha_effective,
        mu_sufficient=mu_sufficient,
        tangent_attempt_cap=tangent_attempt_cap,
        mu_cap=mu_cap,
        penalty_ratio_bound=penalty_ratio_bound,
        infeasibility_sum_bound=infeasibility_sum_bound,
        step_square_sum_bound=step_square_sum_bound,
        residual_step_factor=residual_step_factor,
        residual_square_sum_bound=residual_square_sum_bound,
        beta_bar=beta_bar,
        r=p.r,
        analytic=pc.analytic,
        extras=ext,
    )


@dataclass(frozen=True)
class IterationBounds:
    """Worst-case iteration and evaluation counts for given tolerances."""

    h_above_tol_iters: int
    g_above_tol_iters: int
    infeasible_iters: int
    optimality_iters: int
    total_iters: int
    max_h_evals: float
    max_gradh_evals: float
    max_f_evals: float
    max_gradf_evals: float


def iteration_bounds(tc: TheoreticalConstants, eps_feas, eps_prec, eps_opt):
    """Iteration-count bounds from the summability constants."""
    for name, val in (("eps_feas", eps_feas), ("eps_prec", eps_prec),
                      ("eps_opt", eps_opt)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive")
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
        max_h_evals=total * tc.h_evals_per_iter + 1,
        max_gradh_evals=total * tc.gradh_evals_per_iter,
        max_f_evals=total * tc.f_evals_per_iter + 1,
        max_gradf_evals=total * tc.gradf_evals_per_iter,
    )


def restoration_inner_cap(tc: TheoreticalConstants | None):
    """Cap on restoration descent tests: certified when analytic."""
    if tc is not None and tc.analytic:
        return int(math.ceil(10.0 * tc.restoration_iter_cap))
    return FALLBACK_INNER_CAP


def restoration_refine_cap(params: AlgorithmParams):
    """Cap on the precision refinements of one restoration call.

    Refinement ``N_prec + 1`` takes the constraint precision to at most
    ``eps_prec_bar``, where a stall ends the call instead of refining, so
    an oracle whose ``refine`` meets its targets never exceeds the cap.
    """
    return params.N_prec + 1


def leq(lhs, rhs):
    """Comparison with a 1e-9 slack relative to the operands, for audit
    bounds that carry rounding.  There is no absolute floor: bounds such as
    the noise budget or the penalty floor are far below 1e-9."""
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
#: constants; an EXACT check with no rows had no exact values to compare.
ANALYTIC = "problem constants are estimates"
EXACT = "no exact values recorded"
_CERT_FLOOR = 1e-12  # rounding floor of the certificate checks


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
    """Decide one check from its rows ``(iteration, ok, observed, bound)``.

    The first failing row fails the check and is its detail; otherwise the
    check passes with the row closest to its bound as the detail.  A check
    with no rows passes, unless its gate is EXACT.
    """
    def text(row, verb):
        where = "whole run" if row[0] is None else f"iteration {row[0]}"
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


def _refinement_rows(report):
    """A call that restored refined both precision components by at least
    the ratio ``bira_run`` asked for, replayed from the records: r, the
    previous restored call's contraction, and r**2 after a record that met
    the optimality test.  A trivial call had nothing to restore and
    returned its input."""
    r = report.params.r
    contraction = None
    met_opt = False
    for rec in report.records:
        if rec.resta.status != "trivial":
            rho = precision_ratio(r, contraction,
                                  restoration_target(r, met_opt))
            yield from (_exact(rec.k, rec.y_R[i], rho * rec.y_k[i])
                        for i in (0, 1))
            contraction = rec.resta.contraction
        else:
            yield from (
                _exact(rec.k, rec.h_xk_yk + rec.g_yk, 0.0),
                _exact(rec.k, _moved(rec.x_R, rec.x_k), 0.0),
                _exact(rec.k, _moved(rec.y_R, rec.y_k), 0.0))
        met_opt = rec.stationarity_residual <= report.tolerances["eps_opt"]


def _moved(new, old):
    return float(np.max(np.abs(np.subtract(new, old)), initial=0.0))


def _restoration_test_rows(report):
    """Both restoration failure tests, recomputed from each record's
    outcome: every recorded call passed them, and a call that ended the run
    with one of their kinds failed that test and passed the ones before
    it."""
    r = report.params.r
    y_k = report.start["y"]
    for rec in report.records:
        for _, lhs, rhs in restoration_tests(rec.h_xk_yR, rec.h_xR_yR,
                                             rec.g_yk, rec.g_yR, r):
            yield _exact(rec.k, lhs, rhs)
        y_k = rec.y_R
    failure = report.failure_info
    if failure is None or failure["kind"] == "possible_infeasibility":
        return
    out = failure["resta"]
    for kind, lhs, rhs in restoration_tests(out["h_xk_yR"], out["h_xR_yR"],
                                            max(y_k), max(out["y_R"]), r):
        if kind == failure["kind"]:
            # a lower bound: the test failed
            yield failure["iteration"], not lhs <= rhs, rhs, lhs
            return
        yield _exact(failure["iteration"], lhs, rhs)


def _ledger_rows(rec, tc):
    # startup measurements are charged to the first iteration
    first = 1 if rec.k == 0 else 0
    caps = {"h_evals": tc.h_evals_per_iter + first,
            "gradh_evals": tc.gradh_evals_per_iter,
            "f_evals": tc.f_evals_per_iter + first,
            "gradf_evals": tc.gradf_evals_per_iter}
    return [_exact(rec.k, rec.ledger_delta[key], cap)
            for key, cap in caps.items()]


def _ledger_total_rows(report):
    # the records' deltas and the failing restoration call's add up to the
    # run's totals; the start-up f and h are charged to record 0, and to
    # no record when the run stopped before finishing one
    deltas = [rec.ledger_delta for rec in report.records]
    if not report.records:
        deltas.append({"f_evals": 1, "gradf_evals": 0, "h_evals": 1,
                       "gradh_evals": 0})
    if report.failure_info is not None:
        deltas.append(report.failure_info["resta"]["ledger_delta"])
    for key in LEDGER_FIELDS:
        spent = sum(d[key] for d in deltas)
        total = report.ledger_totals[key]
        # equal: neither side exceeds the other
        yield _exact(None, spent, total)
        yield _exact(None, total, spent)


def _stopping_rows(report):
    """Replay the stopping test of ``bira_run`` against the status.

    A converged run meets the test at its last record and nowhere before;
    a run out of budget wrote ``budget`` records, and a restoration failure
    stopped in the iteration after its last record, neither meeting the
    test.  A record that must meet it is the row (largest ratio of a
    stopping measure to its tolerance, 1); one that must not is the lower
    bound (1, that ratio).  The verdict is the exact comparison the solver
    made.
    """
    tol = report.tolerances
    recs = report.records
    n = len(recs)
    if report.status == "Converged":
        yield _exact(None, 1, n)
    else:
        stop = (report.budget if report.status == "BudgetExceeded"
                else report.failure_info["iteration"])
        # equal: neither side exceeds the other
        yield _exact(None, n, stop)
        yield _exact(None, stop, n)
    for i, rec in enumerate(recs):
        measures = ((rec.h_xR_yR, tol["eps_feas"]),
                    (rec.g_yR, tol["eps_prec"]),
                    (rec.stationarity_residual, tol["eps_opt"]))
        met = all(val <= eps for val, eps in measures)
        ratio = max(val / eps for val, eps in measures)
        if report.status == "Converged" and i == n - 1:
            yield rec.k, met, ratio, 1.0
        else:
            yield rec.k, not met, 1.0, ratio


def audit(report, tc=None):
    """Check a recorded run against every auditable invariant.

    ``report`` needs ``status``, ``records``, ``failure_info``, ``params``,
    ``constants_basis``, ``ledger_totals``, ``tolerances`` and ``budget``.
    ``tc`` defaults to the chain recomputed from the report's own constants
    basis; the solve targets are always :data:`~bira.core.DEFAULT_KAPPAS`.
    Each check is a name, a gate and a lazy stream of rows ``(iteration,
    ok, observed, bound)``; :func:`_verdict` decides every one of them.
    """
    params = report.params
    if tc is None:
        basis = report.constants_basis
        tc = constants(ProblemConstants.from_dict(basis["problem_constants"]),
                       params, extras=basis["extras"])
    kap = DEFAULT_KAPPAS
    recs = report.records
    rcerts = [(rec.k, c) for rec in recs for c in rec.resta.certificates]
    tcerts = [(rec.k, rec.tangent_cert) for rec in recs
              if rec.tangent_cert is not None]
    ns_f = tc.extras.get("noise_scale_f")
    ns_h = tc.extras.get("noise_scale_h")
    inner_cap = restoration_inner_cap(tc)
    refine_cap = restoration_refine_cap(params)
    # a lower bound is a row with the floor as observed and the value as bound
    table = [
        ("theta_monotone", None, (row for rec in recs for row in (
            _exact(rec.k, rec.theta_after, rec.theta_before + 1e-15),
            (rec.k, 0.0 < rec.theta_after, 0.0, rec.theta_after)))),
        ("theta_lower_bound", ANALYTIC, (
            _tol(rec.k, tc.penalty_floor, rec.theta_after) for rec in recs)),
        ("penalty_merit_decrease", None, (
            _merit_row(rec, params.r) for rec in recs)),
        ("sigma_cap", ANALYTIC, (
            _tol(rec.k, s, tc.sigma_cap)
            for rec in recs for s in rec.resta.sigma_history)),
        ("mu_cap", ANALYTIC, (
            _tol(rec.k, rec.mu_k, tc.mu_cap) for rec in recs)),
        ("restored_distance", ANALYTIC, (
            _tol(rec.k, float(np.linalg.norm(rec.x_R - rec.x_k)),
                 tc.restored_distance_factor * (rec.h_xk_yk + rec.g_yk))
            for rec in recs)),
        ("restored_value_drift", ANALYTIC, (
            _tol(rec.k, abs(rec.f_xR_yR - rec.f_xk_yR),
                 tc.restored_value_factor * (rec.h_xk_yk + rec.g_yk))
            for rec in recs)),
        # violation at the current point measured at restored precision
        ("infeasibility_summability", ANALYTIC, _summed(
            (rec.h_xk_yR + rec.g_yk for rec in recs),
            tc.infeasibility_sum_bound)),
        ("step_summability", ANALYTIC, _summed(
            (rec.step_norm**2 for rec in recs), tc.step_square_sum_bound)),
        # zero steps are snapped; the outer stopping test covers them
        ("residual_vs_step", ANALYTIC, (
            _tol(rec.k, rec.stationarity_residual,
                 tc.residual_step_factor * rec.step_norm) for rec in recs
            if rec.step_norm != 0.0 and rec.stationarity_residual is not None)),
        ("residual_summability", ANALYTIC, _summed(
            (rec.stationarity_residual**2 for rec in recs
             if rec.stationarity_residual is not None),
            tc.residual_square_sum_bound)),
        ("ledger_caps", ANALYTIC, (
            row for rec in recs
            for row in _ledger_rows(rec, tc))),
        ("restoration_f_free", None, (
            _exact(rec.k, abs(rec.resta.ledger_delta[key]), 0)
            for rec in recs for key in ("f_evals", "gradf_evals"))),
        ("restoration_model_decrease", None, (
            _exact(k, c["model_decrease"], _CERT_FLOOR) for k, c in rcerts)),
        # the residual within its step budget, and the ray ratio
        ("restoration_solve_accuracy", None, (
            row for k, c in rcerts for row in (
                _exact(k, c["kappa_ratio"], kap["kappa_R"]),
                _exact(k, c["kappa_phi_ratio"], kap["kappa_phi"])))),
        ("tangent_model_decrease", None, (
            _exact(k, c["model_decrease"], _CERT_FLOOR) for k, c in tcerts)),
        # the residual within both step budgets, and the ray ratio; zero
        # steps and residuals at the floor are exempt
        ("tangent_solve_accuracy", None, (
            row for k, c in tcerts if c["step_norm"] != 0.0
            and c["stationarity_residual"] > _CERT_FLOOR for row in (
                _exact(k, c["stationarity_residual"],
                       kap["kappa_T"] * c["step_norm"] ** 2 + _CERT_FLOOR),
                _exact(k, c["stationarity_residual"],
                       kap["kappa"] * c["step_norm"] + _CERT_FLOOR),
                _exact(k, c["kappa_phi_ratio"], kap["kappa_phi"])))),
        ("oracle_f_error_bound", EXACT, (
            _exact(rec.k, rec.oracle_f_error,
                   ns_f * rec.y_k[0] + 1e-15 * (1.0 + abs(rec.f_xk_yk)))
            for rec in recs
            if rec.oracle_f_error is not None and ns_f is not None)),
        ("oracle_h_error_bound", EXACT, (
            _exact(rec.k, rec.oracle_h_error,
                   ns_h * rec.y_k[1] + 1e-15 * (1.0 + rec.h_xk_yk))
            for rec in recs
            if rec.oracle_h_error is not None and ns_h is not None)),
        ("noise_within_budget", ANALYTIC, [
            _tol(None, tc.extras["beta"], tc.beta_bar)]),
        ("restoration_inner_caps", None, (row for rec in recs for row in (
            _exact(rec.k, rec.resta.inner_desc_tests, inner_cap),
            _exact(rec.k, rec.resta.refinements, refine_cap)))),
        ("step_per_infeasibility", ANALYTIC, (
            _tol(rec.k, rec.resta.max_step_over_h, tc.step_per_infeasibility)
            for rec in recs if rec.resta.max_step_over_h is not None)),
        ("precision_refinement", None, _refinement_rows(report)),
        ("restoration_tests", None, _restoration_test_rows(report)),
        ("ledger_totals", None, _ledger_total_rows(report)),
        ("stopping_test", None, _stopping_rows(report)),
    ]
    return AuditReport(tuple(_verdict(name, gate, rows, tc.analytic)
                             for name, gate, rows in table))


def complexity_fit(eps_values, work_counts):
    """Log-log slope of work against 1/eps.

    Returns ``(slope, intercept)`` of ``log(work) ~ slope*log(1/eps) + b``.
    Needs at least three distinct tolerance values.
    """
    eps = np.asarray(eps_values, dtype=float)
    work = np.asarray(work_counts, dtype=float)
    if eps.size != work.size:
        raise InsufficientDataError("tolerance and work arrays differ in length")
    if np.unique(eps).size < 3:
        raise InsufficientDataError("need at least three distinct tolerances")
    if np.any(eps <= 0.0) or np.any(work <= 0.0):
        raise InsufficientDataError("tolerances and work counts must be positive")
    slope, intercept = np.polyfit(np.log(1.0 / eps), np.log(work), 1)
    return float(slope), float(intercept)
