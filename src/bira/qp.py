"""Regularized quadratic subproblems for the restoration and tangent phases.

Both phases minimize a strongly convex quadratic model over a convex region
(a box, or a box cut by the tangent affine set) by projected gradient
iterations driven well below the accuracy the outer algorithm needs.  Both
projections are exact, so each iterate is feasible and the only error in a
solve is that of stopping the iteration.  Each solve returns a
:class:`SolveCertificate` recording the realized model decrease,
stationarity residual, and the ratios the outer theory budgets for, so
audits can verify the subproblem contracts after the fact.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .core import ConfigurationError, as_point
from .geometry import BoxPolytope, TangentSet, project_box, project_tangent

_RESID_TOL = 1e-11
_SNAP_REL = 1e-8
_CERT_FLOOR = 1e-12


@dataclass(frozen=True)
class HessianModel:
    """Curvature matrix for the tangent model plus its norm-bound status."""

    matrix: np.ndarray
    norm_bound_ok: bool


@dataclass(frozen=True)
class SolveCertificate:
    """Post-hoc evidence about one subproblem solve.

    ``kappa_ratio`` is the stationarity residual divided by its budgeted
    reference (step norm for restoration solves, squared step norm for
    tangent solves); ``kappa_phi_ratio`` compares the best single-ray
    decrease against the achieved one.  ``flagged`` means some target was
    missed.  Zero steps carry a zero ratio; the outer stopping test covers
    them.
    """

    model_decrease: float
    stationarity_residual: float
    step_norm: float
    tangent_violation: float
    kappa_ratio: float
    kappa_phi_ratio: float
    flagged: bool

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def build_B(J, M, sigma_min):
    """Gauss-Newton curvature ``J^T J`` scaled so its 2-norm is at most M.

    The restoration analysis needs ``M * sigma_min >= 1``; violating that
    is a configuration error, not a runtime condition.
    """
    if M * sigma_min < 1.0:
        raise ConfigurationError(
            f"M * sigma_min must be >= 1, got {M} * {sigma_min}"
        )
    J = np.atleast_2d(np.asarray(J, dtype=float))
    B = J.T @ J
    nrm = float(np.linalg.norm(B, 2)) if B.size else 0.0
    if nrm > M:
        B = B * (M / nrm)
    return B


def build_H(problem, x_R, y, M, ledger=None, mode="zero"):
    """Curvature model for the tangent phase at the restored point.

    ``mode="zero"`` returns the zero matrix (the default in the outer
    solver: it keeps the per-iteration gradient budget intact).
    ``mode="fd"`` builds a central-difference Hessian of the inexact
    objective; the extra gradient evaluations are charged to ``ledger``
    like any other, so budget audits will see them.
    """
    x_R = as_point(x_R)
    n = x_R.size
    if mode == "zero":
        return HessianModel(np.zeros((n, n)), True)
    if mode != "fd":
        raise ConfigurationError(f"unknown curvature mode {mode!r}")
    step = 1e-5 * (1.0 + float(np.linalg.norm(x_R)))
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        gp = problem.eval_grad_f(x_R + e, y)
        gm = problem.eval_grad_f(x_R - e, y)
        H[:, j] = (gp - gm) / (2.0 * step)
    H = 0.5 * (H + H.T)
    nrm = float(np.linalg.norm(H, 2))
    ok = nrm <= M
    if not ok:
        H = H * (M / nrm)
    return HessianModel(H, ok)


def _projected_quadratic_min(g0, Q, center, project, max_iter, lip):
    """Projected gradient on ``m(x) = g0.(x-c) + 0.5 (x-c).Q.(x-c)``.

    ``project`` maps a point onto a region that contains the center.
    Returns the best iterate by model value together with the model
    value and stationarity residual there.
    """

    def model(x):
        d = x - center
        return float(g0 @ d + 0.5 * d @ (Q @ d))

    def grad(x):
        return g0 + Q @ (x - center)

    t = 1.0 / lip
    x, best_x, best_val = center, center, 0.0
    for _ in range(max_iter):
        x_next = project(x - t * grad(x))
        val = model(x_next)
        if val < best_val:
            best_x, best_val = x_next, val
        move = float(np.linalg.norm(x_next - x))
        x = x_next
        if move <= _RESID_TOL * (1.0 + float(np.linalg.norm(g0))):
            break
    resid = float(np.linalg.norm(project(best_x - grad(best_x)) - best_x))
    return best_x, best_val, resid


def _cauchy_decrease(g0, Q, center, project):
    """Best model value along the projected steepest-descent ray."""
    target = project(center - g0)
    d = target - center
    gd = float(g0 @ d)
    dQd = float(d @ (Q @ d))
    if gd >= 0.0 or np.linalg.norm(d) == 0.0:
        return 0.0
    t = 1.0 if dQd <= 0.0 else min(1.0, -gd / dQd)
    return t * gd + 0.5 * t * t * dQd


def _phi_ratio(cauchy_val, achieved_val):
    # both values are <= 0; ratio > 1 means the solve fell short of the ray
    if achieved_val >= -_CERT_FLOOR:
        return 1.0 if cauchy_val >= -_CERT_FLOOR else float("inf")
    return cauchy_val / achieved_val


def solve_restoration_qp(grad_c, B, sigma, z_center, box: BoxPolytope,
                         kappas, max_iter=500):
    """Minimize the regularized Gauss-Newton model over the box.

    Returns ``(z_trial, certificate)``.  The model decrease is guaranteed
    nonpositive: the center is always a fallback iterate.
    """
    z_center = as_point(z_center, box.dim)
    g0 = as_point(grad_c, box.dim)
    Q = B + 2.0 * sigma * np.eye(box.dim)
    lip = float(np.linalg.norm(Q, 2))

    def project(p):
        return project_box(p, box)

    z, val, resid = _projected_quadratic_min(
        g0, Q, z_center, project, max_iter, lip
    )
    step = float(np.linalg.norm(z - z_center))
    floor = _CERT_FLOOR * (1.0 + float(np.linalg.norm(g0)))
    ratio = 0.0 if resid <= floor else (resid / step if step > 0.0 else float("inf"))
    phi = _phi_ratio(_cauchy_decrease(g0, Q, z_center, project), val)
    flagged = ratio > kappas["kappa_R"] or phi > kappas["kappa_phi"]
    cert = SolveCertificate(
        model_decrease=val,
        stationarity_residual=resid,
        step_norm=step,
        tangent_violation=0.0,
        kappa_ratio=ratio,
        kappa_phi_ratio=phi,
        flagged=bool(flagged),
    )
    return z, cert


def solve_tangent_qp(grad_f, H, mu, x_R, region: TangentSet, kappas,
                     max_iter=500):
    """Minimize the regularized objective model over the tangent region.

    Returns ``(x_new, certificate)`` with ``x_new = x_R + s``.  Steps
    smaller than a resolution threshold are snapped to zero: such a step
    carries no usable certificate ratio and the outer stopping test is the
    authority on whether the point is good enough.
    """
    x_R = as_point(x_R, region.box.dim)
    g0 = as_point(grad_f, region.box.dim)
    Q = H + 2.0 * mu * np.eye(region.box.dim)
    lip = float(np.linalg.norm(Q, 2))

    def project(p):
        return project_tangent(p, region)

    x, val, resid = _projected_quadratic_min(
        g0, Q, x_R, project, max_iter, lip
    )
    s = x - x_R
    step = float(np.linalg.norm(s))
    if step <= _SNAP_REL * (1.0 + float(np.linalg.norm(x_R))):
        cert = SolveCertificate(
            model_decrease=0.0,
            stationarity_residual=resid,
            step_norm=0.0,
            tangent_violation=0.0,
            kappa_ratio=0.0,
            kappa_phi_ratio=1.0,
            flagged=False,
        )
        return x_R.copy(), cert

    floor = _CERT_FLOOR * (1.0 + float(np.linalg.norm(g0)))
    if resid <= floor:
        ratio = 0.0
    else:
        ratio = resid / step**2
    phi = _phi_ratio(_cauchy_decrease(g0, Q, x_R, project), val)
    tangent_violation = float(np.linalg.norm(region.A @ s))
    flagged = (
        ratio > kappas["kappa_T"]
        or (resid > floor and resid > kappas["kappa"] * step)
        or phi > kappas["kappa_phi"]
    )
    cert = SolveCertificate(
        model_decrease=val,
        stationarity_residual=resid,
        step_norm=step,
        tangent_violation=tangent_violation,
        kappa_ratio=ratio,
        kappa_phi_ratio=phi,
        flagged=bool(flagged),
    )
    return x, cert
