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
    AlgorithmParams,
    InsufficientDataError,
    ProblemConstants,
    merit_allowance,
    merit_phi,
)

DEFAULT_EXTRAS = {"beta": 0.0, "gamma": 0.5, "k_R": 0.0, "n_pdp": 2}

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
    restoration_eval_cap: float
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
    analytic: bool
    kappas: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def h_evals_per_iter(self):
        return self.restoration_eval_cap + self.tangent_attempt_cap + 1

    @property
    def gradh_evals_per_iter(self):
        return self.restoration_eval_cap + 2

    @property
    def f_evals_per_iter(self):
        return self.tangent_attempt_cap + 3

    @property
    def gradf_evals_per_iter(self):
        return 2

    def to_dict(self):
        d = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
        }
        d["kappas"] = dict(self.kappas)
        d["extras"] = dict(self.extras)
        return d


def constants(problem_constants: ProblemConstants, params: AlgorithmParams,
              kappas=None, extras=None):
    """Compute the full derived-constant chain.

    ``extras`` may override ``beta`` (oracle error scale), ``gamma``
    (merit decrease fraction), ``k_R`` (projection-map drift bound), and
    ``n_pdp`` (evaluations charged to the shortcut feasibility test).
    """
    pc = problem_constants
    p = params
    kap = dict(DEFAULT_KAPPAS)
    kap.update(kappas or {})
    ext = dict(DEFAULT_EXTRAS)
    ext.update(extras or {})
    ext["r"] = p.r
    beta = float(ext["beta"])
    gamma = float(ext["gamma"])
    k_R = float(ext["k_R"])
    n_pdp = float(ext["n_pdp"])

    sigma_sufficient = 2.0 * (pc.L_c + p.M / 2.0 + p.alpha_R)
    sigma_cap = max(10.0 * sigma_sufficient, p.sigma_max)
    restoration_grad_bound = pc.L_c + p.M + kap["kappa_R"] + sigma_cap
    restoration_steps_per_level = (
        restoration_grad_bound**2 * (1.0 - p.r**2)
        / (2.0 * p.alpha_R * p.r_feas**2)
        + 1.0
    )
    step_per_infeasibility = kap["kappa_phi"] * p.M * pc.C_h
    sigma_trials_per_step = max(
        1, math.floor(math.log2(sigma_sufficient) - math.log2(p.sigma_min)) + 1
    )
    restoration_iter_cap = (
        restoration_steps_per_level * sigma_trials_per_step + 1.0
    ) * p.N_prec
    restoration_eval_cap = restoration_iter_cap + n_pdp
    restored_distance_factor = max(
        p.beta_PDP, p.beta_c + restoration_iter_cap * step_per_infeasibility
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
        max(math.floor(math.log2(mu_sufficient) - math.log2(p.mu_min)),
            p.N_acce)
        + 1
    )
    mu_cap = max(10.0 * mu_sufficient, 10.0**p.N_acce * p.mu_max)
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
        restoration_eval_cap=restoration_eval_cap,
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
        analytic=pc.analytic,
        kappas=kap,
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

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def iteration_bounds(tc: TheoreticalConstants, eps_feas, eps_prec, eps_opt):
    """Iteration-count bounds from the summability constants."""
    for name, val in (("eps_feas", eps_feas), ("eps_prec", eps_prec),
                      ("eps_opt", eps_opt)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive")
    cf = tc.infeasibility_sum_bound
    h_above = math.floor(tc_r(tc) * cf / eps_feas)
    g_above = math.floor(cf / eps_prec)
    infeasible = math.floor(
        max(tc_r(tc) * cf / eps_feas, tc_r(tc) * cf / eps_prec)
    )
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


def tc_r(tc: TheoreticalConstants):
    # the contraction ratio is echoed into extras by constants()
    return float(tc.extras["r"])


def restoration_inner_cap(tc: TheoreticalConstants | None):
    """Cap on restoration descent tests: certified when analytic."""
    if tc is not None and tc.analytic:
        return int(math.ceil(10.0 * tc.restoration_iter_cap))
    return FALLBACK_INNER_CAP


def restoration_refine_cap(params: AlgorithmParams):
    """Cap on the precision refinements of one restoration call."""
    return 10 * (params.N_prec + 2) + 100


def leq(lhs, rhs):
    """Tolerant comparison used by every audit inequality."""
    return lhs <= rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs))


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


def _params_of(report):
    p = report.params
    if isinstance(p, AlgorithmParams):
        return p
    return AlgorithmParams.from_dict(p)


def audit(report, tc=None):
    """Check a recorded run against every auditable invariant.

    ``report`` is duck-typed: it needs ``records``, ``params``, and
    ``constants_basis``.  ``tc`` defaults to the chain recomputed from the
    report's own constants basis.
    """
    params = _params_of(report)
    basis = report.constants_basis
    pc = ProblemConstants.from_dict(basis["problem_constants"])
    if tc is None:
        extras = dict(basis.get("extras", {}))
        extras.setdefault("r", params.r)
        tc = constants(pc, params, kappas=basis.get("kappas"), extras=extras)
    kap = tc.kappas
    analytic = tc.analytic
    records = list(report.records)
    checks = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    def add_gated(name, fn):
        # bound checks against the chain are only certified for analytic
        # problem constants; otherwise report skipped, never a hollow pass
        if not analytic:
            checks.append(
                CheckResult(name, "skipped", "problem constants are estimates")
            )
            return
        ok, detail = fn()
        add(name, ok, detail)

    thetas = [rec.theta_after for rec in records]

    def check_theta_monotone():
        ok = all(
            0.0 < rec.theta_after <= rec.theta_before + 1e-15
            for rec in records
        )
        return ok, ""

    add("theta_monotone", *check_theta_monotone())

    add_gated(
        "theta_lower_bound",
        lambda: (
            all(leq(tc.penalty_floor, t) for t in thetas),
            f"floor {tc.penalty_floor:.3e}",
        ),
    )

    def check_merit():
        worst = -math.inf
        for rec in records:
            lhs = merit_phi(
                rec.f_xnext_ynext, rec.h_xnext_ynext, rec.g_ynext,
                rec.theta_after,
            )
            allowance = merit_allowance(
                rec.h_xk_yR, rec.h_xR_yR, rec.g_yk, rec.g_yR, params.r
            )
            rhs = merit_phi(
                rec.f_xk_ynext, rec.h_xk_ynext, rec.g_ynext, rec.theta_after
            ) + allowance
            worst = max(worst, lhs - rhs)
            if not leq(lhs, rhs):
                return False, f"iteration {rec.k}: excess {lhs - rhs:.3e}"
        return True, f"worst excess {worst:.3e}" if records else ""

    add("penalty_merit_decrease", *check_merit())

    def all_sigmas():
        for rec in records:
            if rec.resta is not None:
                for s in rec.resta.sigma_history:
                    yield rec.k, s

    def check_sigma():
        for k, s in all_sigmas():
            if not leq(s, tc.sigma_cap):
                return False, f"iteration {k}: sigma {s:.3e} > cap"
        return True, f"cap {tc.sigma_cap:.3e}"

    add_gated("sigma_cap", check_sigma)

    def check_mu():
        for rec in records:
            if not leq(rec.mu_k, tc.mu_cap):
                return False, f"iteration {rec.k}: mu {rec.mu_k:.3e} > cap"
        return True, f"cap {tc.mu_cap:.3e}"

    add_gated("mu_cap", check_mu)

    def check_restored_distance():
        for rec in records:
            dist = float(np.linalg.norm(np.asarray(rec.x_R) - np.asarray(rec.x_k)))
            bound = tc.restored_distance_factor * (rec.h_xk_yk + rec.g_yk)
            if not leq(dist, bound):
                return False, f"iteration {rec.k}: {dist:.3e} > {bound:.3e}"
        return True, ""

    add_gated("restored_distance", check_restored_distance)

    def check_restored_value():
        for rec in records:
            drift = abs(rec.f_xR_yR - rec.f_xk_yR)
            bound = tc.restored_value_factor * (rec.h_xk_yk + rec.g_yk)
            if not leq(drift, bound):
                return False, f"iteration {rec.k}: {drift:.3e} > {bound:.3e}"
        return True, ""

    add_gated("restored_value_drift", check_restored_value)

    def check_infeas_sum():
        # violation at the current point measured at restored precision
        total = sum(rec.h_xk_yR + rec.g_yk for rec in records)
        return (
            leq(total, tc.infeasibility_sum_bound),
            f"sum {total:.3e} vs {tc.infeasibility_sum_bound:.3e}",
        )

    add_gated("infeasibility_summability", check_infeas_sum)

    def check_step_sum():
        total = sum(rec.step_norm**2 for rec in records)
        return (
            leq(total, tc.step_square_sum_bound),
            f"sum {total:.3e} vs {tc.step_square_sum_bound:.3e}",
        )

    add_gated("step_summability", check_step_sum)

    def check_resid_vs_step():
        # zero steps are snapped; the outer stopping test covers them
        for rec in records:
            if rec.step_norm == 0.0 or rec.stationarity_residual is None:
                continue
            bound = tc.residual_step_factor * rec.step_norm
            if not leq(rec.stationarity_residual, bound):
                return (
                    False,
                    f"iteration {rec.k}: {rec.stationarity_residual:.3e}"
                    f" > {bound:.3e}",
                )
        return True, ""

    add_gated("residual_vs_step", check_resid_vs_step)

    def check_resid_sum():
        total = sum(
            rec.stationarity_residual**2
            for rec in records
            if rec.stationarity_residual is not None
        )
        return (
            leq(total, tc.residual_square_sum_bound),
            f"sum {total:.3e} vs {tc.residual_square_sum_bound:.3e}",
        )

    add_gated("residual_summability", check_resid_sum)

    mode = getattr(report, "curvature_mode", "zero")

    def check_ledger_caps():
        for rec in records:
            d = rec.ledger_delta
            # startup measurements are charged to the first iteration
            extra_h = 1 if rec.k == 0 else 0
            extra_f = 1 if rec.k == 0 else 0
            gradf_cap = tc.gradf_evals_per_iter
            if mode == "fd":
                # central differences: 2n gradient calls per level tried
                n = len(np.asarray(rec.x_k))
                gradf_cap += 2 * n * min(rec.ell_count, 2)
            caps = {
                "h_evals": tc.h_evals_per_iter + extra_h,
                "gradh_evals": tc.gradh_evals_per_iter,
                "f_evals": tc.f_evals_per_iter + extra_f,
                "gradf_evals": gradf_cap,
            }
            for key, cap in caps.items():
                if d[key] > cap:
                    return False, f"iteration {rec.k}: {d[key]} {key} > {cap}"
        return True, ""

    add_gated("ledger_caps", check_ledger_caps)

    def check_resta_f_free():
        for rec in records:
            if rec.resta is None:
                continue
            d = rec.resta.ledger_delta
            if d["f_evals"] != 0 or d["gradf_evals"] != 0:
                return False, f"iteration {rec.k}: restoration touched f"
        return True, ""

    add("restoration_f_free", *check_resta_f_free())

    def restoration_certs():
        for rec in records:
            if rec.resta is None:
                continue
            for cert in rec.resta.certificates:
                yield rec.k, cert

    def check_a2():
        for k, cert in restoration_certs():
            if cert["model_decrease"] > 1e-12:
                return False, f"iteration {k}: model increased"
        return True, ""

    add("restoration_model_decrease", *check_a2())

    def check_a3():
        for k, cert in restoration_certs():
            if cert["kappa_ratio"] > kap["kappa_R"]:
                return False, f"iteration {k}: ratio {cert['kappa_ratio']:.3e}"
        return True, ""

    add("restoration_solve_accuracy", *check_a3())

    def tangent_certs():
        for rec in records:
            if rec.tangent_cert is not None:
                yield rec.k, rec.tangent_cert

    def check_a7():
        for k, cert in tangent_certs():
            if cert["model_decrease"] > 1e-12:
                return False, f"iteration {k}: model increased"
        return True, ""

    add("tangent_model_decrease", *check_a7())

    def check_a9():
        floor = 1e-12
        for k, cert in tangent_certs():
            if cert["step_norm"] == 0.0:
                continue
            resid = cert["stationarity_residual"]
            if resid <= floor:
                continue
            if resid > kap["kappa_T"] * cert["step_norm"] ** 2 + floor:
                return False, f"iteration {k}: residual {resid:.3e}"
            if resid > kap["kappa"] * cert["step_norm"] + floor:
                return False, f"iteration {k}: residual {resid:.3e}"
            if cert["kappa_phi_ratio"] > kap["kappa_phi"]:
                return False, f"iteration {k}: ray ratio"
        return True, ""

    add("tangent_solve_accuracy", *check_a9())

    def check_oracle_f():
        ns = tc.extras.get("noise_scale_f")
        seen = False
        for rec in records:
            if rec.oracle_f_error is None or ns is None:
                continue
            seen = True
            gf = rec.y_k[0]
            bound = ns * gf + 1e-15 * (1.0 + abs(rec.f_xk_yk))
            if rec.oracle_f_error > bound:
                return "fail", f"iteration {rec.k}: error {rec.oracle_f_error:.3e}"
        if not seen:
            return "skipped", "no exact values recorded"
        return "pass", ""

    status, detail = check_oracle_f()
    checks.append(CheckResult("oracle_f_error_bound", status, detail))

    def check_oracle_h():
        ns = tc.extras.get("noise_scale_h")
        seen = False
        for rec in records:
            if rec.oracle_h_error is None or ns is None:
                continue
            seen = True
            gh = rec.y_k[1]
            bound = ns * gh + 1e-15 * (1.0 + rec.h_xk_yk)
            if rec.oracle_h_error > bound:
                return "fail", f"iteration {rec.k}: error {rec.oracle_h_error:.3e}"
        if not seen:
            return "skipped", "no exact values recorded"
        return "pass", ""

    status, detail = check_oracle_h()
    checks.append(CheckResult("oracle_h_error_bound", status, detail))

    def check_noise_budget():
        beta = tc.extras.get("beta")
        if beta is None:
            return False, "no oracle error scale recorded"
        return (
            leq(beta, tc.beta_bar),
            f"beta {beta:.3e} vs budget {tc.beta_bar:.3e}",
        )

    add_gated("noise_within_budget", check_noise_budget)

    def check_resta_inner():
        cap = restoration_inner_cap(tc if analytic else None)
        ref_cap = restoration_refine_cap(params)
        for rec in records:
            if rec.resta is None:
                continue
            if rec.resta.inner_desc_tests > cap:
                return False, f"iteration {rec.k}: {rec.resta.inner_desc_tests}"
            if rec.resta.refinements > ref_cap:
                return False, f"iteration {rec.k}: {rec.resta.refinements} refinements"
        return True, f"cap {cap}"

    add("restoration_inner_caps", *check_resta_inner())

    def check_step_per_h():
        for rec in records:
            if rec.resta is None:
                continue
            ratio = rec.resta.max_step_over_h
            if ratio is not None and not leq(ratio, tc.step_per_infeasibility):
                return False, f"iteration {rec.k}: ratio {ratio:.3e}"
        return True, f"bound {tc.step_per_infeasibility:.3e}"

    add_gated("step_per_infeasibility", check_step_per_h)

    return AuditReport(tuple(checks))


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
