"""Acceptance battery.

Ten end-to-end guarantees, one test each, run with ``pytest -v`` so every
criterion reports a single pass/fail line.  Tolerances are pinned here and
nowhere else; the helper fixtures share solver runs between criteria so the
battery stays fast.
"""

import math

import numpy as np
import pytest

from conftest import kkt_min_quadratic_box_line

from bira.core import (
    CERT_FLOOR,
    DEFAULT_KAPPAS,
    THETA_0,
    AlgorithmParams,
    BoxPolytope,
    PrecisionLevel,
    merit_phi,
)
from bira.diagnostics import complexity_fit, constants, iteration_bounds
from bira.geometry import TangentSet, project_box, project_tangent
from bira.oracle import make_p1, make_p2, make_p3, make_p4, problem_by_name
from bira.qp import solve_restoration_qp, solve_tangent_qp
from bira.solver import bira_run

FEAS_TOL = 1e-6
PREC_TOL = 1e-6
OPT_TOL = 1e-4
SOLUTION_TOL = 1e-3
BUDGET = 500
INFEAS_BUDGET = 50
PENALTY_REL_SLACK = 1e-9
COUNT_EPS = 1e-3
SLOPE_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SLOPE_LIMIT = 2.1
FD_STEP = 1e-5
FD_TOL = 1e-6
FD_POINTS = 100
GRID_POINTS = 10_000
GRID_VALUE_TOL = 1e-3
CERT_RECOMPUTE_TOL = 1e-12


@pytest.fixture(scope="module")
def feasible_runs():
    runs = {}
    for factory in (make_p1, make_p2, make_p4):
        problem = factory()
        report = bira_run(problem, eps_feas=FEAS_TOL, eps_prec=PREC_TOL,
                          eps_opt=OPT_TOL, budget=BUDGET)
        tc = constants(factory().constants(), AlgorithmParams.defaults())
        runs[problem.name] = (report, tc)
    return runs


@pytest.fixture(scope="module")
def infeasible_run():
    return bira_run(make_p3(), budget=INFEAS_BUDGET)


def test_criterion_01_convergence_to_tolerance(feasible_runs):
    for name in ("p1", "p2"):
        report, _ = feasible_runs[name]
        assert report.status == "Converged", name
        assert report.iterations <= BUDGET
        last = report.records[-1]
        assert last.h_xR_yR <= FEAS_TOL
        assert last.g_yR <= PREC_TOL
        assert last.stationarity_residual <= OPT_TOL

    a = np.ones(5) / np.sqrt(5.0)
    x_f = np.array([1.0, 2.0, -1.0, 0.5, -2.0])
    p1 = make_p1()
    x_star, _ = kkt_min_quadratic_box_line(
        x_f, 20.0, a, np.float64(a @ x_f + 2.0), p1.box.lower, p1.box.upper
    )
    gap = float(np.linalg.norm(feasible_runs["p1"][0].final_x - x_star))
    assert gap <= SOLUTION_TOL


def test_criterion_02_infeasibility_detected(infeasible_run):
    report = infeasible_run
    assert report.status == "RestorationFailure"
    assert len(report.records) <= INFEAS_BUDGET
    assert report.failure_info["resta"].status == "possible_infeasibility"


def test_criterion_03_penalty_invariants(feasible_runs):
    for name, (report, tc) in feasible_runs.items():
        r = report.params.r
        thetas = [THETA_0]
        # the record that stopped the run updated no weight
        for rec in (rec for rec in report.records if not rec.stopped):
            assert rec.theta_after <= thetas[-1] + 0.0, name
            thetas.append(rec.theta_after)
            assert rec.theta_after >= tc.penalty_floor, name

            lhs = (merit_phi(rec.f_xR_yR, rec.h_xR_yR, rec.g_yR,
                             rec.theta_after)
                   - merit_phi(rec.f_xk_yR, rec.h_xk_yR, rec.g_yR,
                               rec.theta_after))
            rhs = 0.5 * (1.0 - r) * (rec.h_xR_yR - rec.h_xk_yR
                                     + rec.g_yR - rec.g_yk)
            slack = PENALTY_REL_SLACK * max(1.0, abs(lhs), abs(rhs))
            assert lhs <= rhs + slack, (name, rec.k)


def test_criterion_04_regularization_caps(feasible_runs, infeasible_run):
    # a trial's weight is sigma_min doubled j times
    violations = 0
    for name, (report, tc) in feasible_runs.items():
        sigma_min = report.params.sigma_min
        for out in report.calls:
            if any(math.ldexp(sigma_min, j) > tc.sigma_cap
                   for j, _ in out.trials):
                violations += 1
        for rec in report.records:
            if not rec.stopped and rec.mu_k > tc.mu_cap:
                violations += 1
    params = AlgorithmParams.defaults()
    p3_tc = constants(make_p3().constants(), params)
    for out in infeasible_run.calls:
        for j, _ in out.trials:
            if math.ldexp(params.sigma_min, j) > p3_tc.sigma_cap:
                violations += 1
    assert violations == 0


def test_criterion_05_summable_infeasibility_and_steps(feasible_runs):
    for name, (report, tc) in feasible_runs.items():
        infeas = sum(rec.h_xk_yR + rec.g_yk for rec in report.records)
        steps = sum(rec.step_norm ** 2 for rec in report.records)
        assert infeas <= tc.infeasibility_sum_bound, name
        assert steps <= tc.step_square_sum_bound, name


def test_criterion_06_iteration_count_bounds():
    problem = make_p1()
    report = bira_run(problem, eps_feas=COUNT_EPS, eps_prec=COUNT_EPS,
                      eps_opt=COUNT_EPS, budget=BUDGET)
    assert report.status == "Converged"
    tc = constants(make_p1().constants(), AlgorithmParams.defaults())
    nb = iteration_bounds(tc, COUNT_EPS, COUNT_EPS, COUNT_EPS)

    recs = report.records
    n_h = sum(1 for rec in recs if rec.h_xR_yR > COUNT_EPS)
    n_g = sum(1 for rec in recs if rec.g_yk > COUNT_EPS)
    n_inf = sum(1 for rec in recs
                if rec.h_xR_yR > COUNT_EPS or rec.g_yR > COUNT_EPS)
    n_opt = sum(1 for rec in recs
                if rec.stationarity_residual > COUNT_EPS)

    assert n_h <= nb.h_above_tol_iters
    assert n_g <= nb.g_above_tol_iters
    assert n_inf <= nb.infeasible_iters
    assert n_opt <= nb.optimality_iters
    assert len(recs) <= nb.total_iters


def test_criterion_07_work_grows_at_most_quadratically():
    # on p2, whose tangent phase takes more than one step, work grows as
    # eps_opt falls (30, 30, 42, 47 and 47 evaluations): a flat sweep, as
    # on p1, which stops in 4 records at every eps_opt, shows nothing
    works = []
    for eps in SLOPE_GRID:
        report = bira_run(make_p2(), eps_feas=COUNT_EPS, eps_prec=COUNT_EPS,
                          eps_opt=eps, budget=2000)
        assert report.status == "Converged", eps
        works.append(float(sum(report.ledger_totals.values())))
    assert works[-1] > works[0]
    slope, _ = complexity_fit(SLOPE_GRID, works)
    assert slope <= SLOPE_LIMIT


def test_criterion_08_per_iteration_evaluation_caps(feasible_runs):
    for name, (report, tc) in feasible_runs.items():
        n_rest = tc.restoration_iter_cap
        n_reg = tc.tangent_attempt_cap
        for rec in report.records:
            d = rec.ledger_delta
            startup = 1 if rec.k == 0 else 0
            assert d["h_evals"] <= n_rest + n_reg + 1 + startup, (name, rec.k)
            assert d["gradh_evals"] <= n_rest + 2, (name, rec.k)
            assert d["f_evals"] <= n_reg + 3 + startup, (name, rec.k)
            assert d["gradf_evals"] <= 2, (name, rec.k)
            assert rec.resta.ledger_delta["f_evals"] == 0, (name, rec.k)
            assert rec.resta.ledger_delta["gradf_evals"] == 0, (name, rec.k)


def test_criterion_09_oracle_soundness():
    rng = np.random.default_rng(2026)
    step = FD_STEP
    exact = PrecisionLevel(0.0, 0.0)
    levels = [PrecisionLevel(0.5, 0.5), PrecisionLevel(0.3, 0.1),
              PrecisionLevel(0.02, 0.9)]
    for pname in ("p1", "p2", "p3", "p4", "p1_pdp"):
        p = problem_by_name(pname)
        lo = p.box.lower + 2 * step
        hi = p.box.upper - 2 * step
        y = p.y0 if p.y0.g > 0 else exact
        for _ in range(FD_POINTS):
            x = lo + (hi - lo) * rng.random(p.dim)

            g = p.eval_grad_f(x, y)
            jac = p.eval_grad_h(x, y)
            for i in range(p.dim):
                e = np.zeros(p.dim)
                e[i] = step
                df = (p.eval_f(x + e, y) - p.eval_f(x - e, y)) / (2 * step)
                assert abs(df - g[i]) <= FD_TOL, pname
                dh = (p.eval_h(x + e, y) - p.eval_h(x - e, y)) / (2 * step)
                np.testing.assert_allclose(dh, jac[:, i], atol=FD_TOL)

            if p.exact_f(x) is not None:
                assert p.eval_f(x, exact) == p.exact_f(x), pname
                np.testing.assert_array_equal(p.eval_h(x, exact),
                                              p.exact_h(x))
                for lvl in levels:
                    # the rounding term of the audit's oracle_f_error_bound:
                    # at the calibrated scale the noise bound can sit below
                    # one ULP of f
                    f_exact = p.exact_f(x)
                    err = abs(p.eval_f(x, lvl) - f_exact)
                    assert err <= (p.noise_scale_f * lvl.gf
                                   + 1e-15 * (1.0 + abs(f_exact))), pname


def _quadratic_on_grid(points, center, grad, Q):
    s = points - center
    return s @ grad + 0.5 * np.einsum("ij,jk,ik->i", s, Q, s)


def test_criterion_10_qp_layer_matches_dense_grids():
    rng = np.random.default_rng(404)
    box = BoxPolytope(np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    side = int(math.isqrt(GRID_POINTS))

    for _ in range(10):
        raw = rng.standard_normal((2, 2))
        g_mat = raw.T * math.sqrt(min(1.0, 4.0 / np.linalg.norm(raw @ raw.T, 2)))
        b_mat = g_mat.T @ g_mat
        sigma = float(rng.uniform(4.0, 8.0))
        center = box.clip(rng.uniform(-0.5, 0.5, 2))
        grad = 2.0 * rng.standard_normal(2)

        z, cert = solve_restoration_qp(grad, g_mat, sigma, center, box)
        # the comparison of the audit's restoration_solve_accuracy
        assert (cert.stationarity_residual
                <= DEFAULT_KAPPAS["kappa_R"] * cert.step_norm + CERT_FLOOR)
        q_mat = b_mat + 2.0 * sigma * np.eye(2)
        axes = [np.linspace(box.lower[i], box.upper[i], side)
                for i in range(2)]
        xx, yy = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        grid_min = float(np.min(_quadratic_on_grid(pts, center, grad, q_mat)))
        assert cert.model_decrease <= grid_min + 1e-9
        assert grid_min - cert.model_decrease <= GRID_VALUE_TOL

        s = z - center
        md = float(grad @ s + 0.5 * s @ q_mat @ s)
        assert abs(md - cert.model_decrease) <= CERT_RECOMPUTE_TOL
        assert md <= 0.0
        assert abs(float(np.linalg.norm(s)) - cert.step_norm) <= (
            CERT_RECOMPUTE_TOL)
        gz = grad + q_mat @ s
        resid = float(np.linalg.norm(project_box(z - gz, box) - z))
        assert abs(resid - cert.stationarity_residual) <= CERT_RECOMPUTE_TOL

    for _ in range(10):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        center = rng.uniform(-0.2, 0.2, 2)
        region = TangentSet(box, u[None, :], center)
        grad = rng.standard_normal(2)
        mu = float(rng.uniform(0.5, 2.0))
        raw = rng.standard_normal((2, 2))
        g_mat = raw.T * math.sqrt(min(1.0, 1.0 / np.linalg.norm(raw @ raw.T, 2)))
        h_mat = g_mat.T @ g_mat

        x, cert = solve_tangent_qp(grad, g_mat, mu, center, region)
        # the comparisons of the audit's tangent_solve_accuracy, with its
        # 1e-12 rounding floor
        resid, step = cert.stationarity_residual, cert.step_norm
        assert resid <= DEFAULT_KAPPAS["kappa_T"] * step**2 + 1e-12
        assert resid <= DEFAULT_KAPPAS["kappa"] * step + 1e-12
        q_mat = h_mat + 2.0 * mu * np.eye(2)

        v = np.array([-u[1], u[0]])
        t_lo, t_hi = -np.inf, np.inf
        for i in range(2):
            a = (box.lower[i] - center[i]) / v[i]
            b = (box.upper[i] - center[i]) / v[i]
            t_lo = max(t_lo, min(a, b))
            t_hi = min(t_hi, max(a, b))
        ts = np.linspace(t_lo, t_hi, GRID_POINTS)
        pts = center + ts[:, None] * v
        grid_min = float(np.min(_quadratic_on_grid(pts, center, grad, q_mat)))
        assert cert.model_decrease <= grid_min + 1e-9
        assert grid_min - cert.model_decrease <= GRID_VALUE_TOL

        s = x - center
        md = float(grad @ s + 0.5 * s @ q_mat @ s)
        assert abs(md - cert.model_decrease) <= CERT_RECOMPUTE_TOL
        assert md <= 0.0
        assert abs(float(np.linalg.norm(s)) - cert.step_norm) <= (
            CERT_RECOMPUTE_TOL)
        assert float(np.linalg.norm(u @ s)) <= 1e-10
        gz = grad + q_mat @ s
        proj = project_tangent(x - gz, region)
        resid = float(np.linalg.norm(proj - x))
        assert abs(resid - cert.stationarity_residual) <= CERT_RECOMPUTE_TOL
