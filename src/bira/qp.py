"""Regularized quadratic subproblems for the restoration and tangent phases.

Both phases minimize ``g.d + (tau/2) ||d||^2 + 0.5 ||G d||^2`` over the box,
or over the box cut by the tangent set ``{A d = 0}``.  The minimizer is the
projection of ``(center - g/tau, 0)`` onto the lifted set ``{(z, v) : z in
box, A (z - center) = 0, v = G (z - center) / sqrt(tau)}``, which
:func:`~bira.geometry.project_polyhedron` computes exactly, so a solve has
no iteration, tolerance or cap.  Each solve returns a
:class:`SolveCertificate` recording the realized model decrease,
stationarity residual, step norm and Cauchy ratio, so audits can verify
the subproblem contracts after the fact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import CERT_FLOOR, as_point
from .geometry import (
    BoxPolytope,
    TangentSet,
    project_box,
    project_polyhedron,
    project_tangent,
)

_SNAP_REL = 1e-8


@dataclass(frozen=True)
class SolveCertificate:
    """Post-hoc evidence about one subproblem solve, measured values only.

    ``stationarity_residual`` is the projected-gradient residual of the
    model at the solution, and ``kappa_phi_ratio`` compares the best
    single-ray decrease against the achieved one.  The audit compares the
    residual with its step budgets (``kappa_R`` times the step norm for
    restoration solves; ``kappa_T`` times its square and ``kappa`` times
    it for tangent solves) and the ratio with ``kappa_phi``, all fixed
    targets of :data:`~bira.core.DEFAULT_KAPPAS`.
    """

    model_decrease: float
    stationarity_residual: float
    step_norm: float
    kappa_phi_ratio: float


def build_B(J, M):
    """Factor ``G`` of the Gauss-Newton curvature ``B = G^T G``: the
    Jacobian scaled so that ``||B||_2 = ||J J^T||_2`` is at most M.

    The norm comes from the m-by-m Gram matrix, so no n-by-n matrix is
    formed.  The pairing ``M * sigma_min >= 1`` that the restoration
    analysis needs is checked once, when :class:`~bira.core.AlgorithmParams`
    is built.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    nrm = float(np.linalg.eigvalsh(J @ J.T)[-1])
    if nrm > M:
        J = J * math.sqrt(M / nrm)
    return J


def build_H(x_R):
    """Factor ``G`` of the tangent curvature ``H = G^T G``: the empty
    factor, so ``H = 0``.

    The analysis asks only ``||H|| <= M``, and zero curvature keeps the
    per-iteration gradient budget intact.
    """
    return np.zeros((0, np.asarray(x_R).size))


def _solve(g0, G, tau, center, lower, upper, A, project, cauchy_target):
    """Exact minimizer of ``g0.d + (tau/2)||d||^2 + 0.5||G d||^2`` over
    ``{center + d in [lower, upper], A d = 0}``, with its model value,
    stationarity residual, step norm and Cauchy ratio.
    ``project`` maps onto the feasible set, and ``cauchy_target`` is
    ``project(center - g0)``, the end of the projected steepest-descent
    ray."""

    def curv(d):
        return tau * d + G.T @ (G @ d)

    k = G.shape[0]
    lifted = np.vstack([np.hstack([A, np.zeros((A.shape[0], k))]),
                        np.hstack([G / math.sqrt(tau), -np.eye(k)])])
    pad = np.full(k, np.inf)
    x = project_polyhedron(
        np.concatenate([center - g0 / tau, np.zeros(k)]),
        np.concatenate([lower, -pad]), np.concatenate([upper, pad]),
        lifted, np.concatenate([center, np.zeros(k)]),
    )[:center.size]
    d = x - center
    Qd = curv(d)
    val = float(g0 @ d + 0.5 * d @ Qd)
    resid = float(np.linalg.norm(project(x - (g0 + Qd)) - x))
    phi = _phi_ratio(_cauchy_decrease(g0, curv, center, cauchy_target), val)
    return x, val, resid, float(np.linalg.norm(d)), phi


def _cauchy_decrease(g0, curv, center, target):
    """Best model value along the projected steepest-descent ray from
    ``center`` to ``target``."""
    d = target - center
    gd = float(g0 @ d)
    dQd = float(d @ curv(d))
    if gd >= 0.0 or np.linalg.norm(d) == 0.0:
        return 0.0
    t = 1.0 if dQd <= 0.0 else min(1.0, -gd / dQd)
    return t * gd + 0.5 * t * t * dQd


def _phi_ratio(cauchy_val, achieved_val):
    # both values are <= 0; ratio > 1 means the solve fell short of the ray
    if achieved_val >= -CERT_FLOOR:
        return 1.0 if cauchy_val >= -CERT_FLOOR else float("inf")
    return cauchy_val / achieved_val


def solve_restoration_qp(grad_c, G, sigma, z_center, box: BoxPolytope,
                         cauchy_target):
    """Minimize the regularized Gauss-Newton model
    ``g.d + 0.5 d.(G^T G + 2 sigma I).d`` over the box.

    ``G`` is the factor returned by :func:`build_B`, and ``cauchy_target``
    is ``project_box(z_center - grad_c, box)``, the end of the projected
    steepest-descent ray: it does not depend on sigma, so ``resta``
    projects it once per z-step, for its stall test.  Returns
    ``(z_trial, certificate)``.
    """
    z_center = as_point(z_center, box.dim)
    g0 = as_point(grad_c, box.dim)
    G = np.atleast_2d(np.asarray(G, dtype=float))

    def project(p):
        return project_box(p, box)

    z, val, resid, step, phi = _solve(
        g0, G, 2.0 * sigma, z_center, box.lower, box.upper,
        np.zeros((0, box.dim)), project, cauchy_target,
    )
    return z, SolveCertificate(val, resid, step, phi)


def solve_tangent_qp(grad_f, G, mu, x_R, region: TangentSet, cauchy_target):
    """Minimize ``g.s + 0.5 s.(G^T G + 2 mu I).s`` over the tangent region.

    ``G`` is the factor returned by :func:`build_H`, and ``cauchy_target``
    is ``project_tangent(x_R - grad_f, region)``, the end of the projected
    steepest-descent ray: it does not depend on mu, so ``bira_run``
    projects it once per tangent region, and its stopping test reads the
    same projection.  Returns ``(x_R + s,
    certificate)``.  Steps below a resolution threshold are snapped to
    zero: they carry no step budget for the residual, and the outer
    stopping test is the authority on whether the point is good enough.
    """
    x_R = as_point(x_R, region.box.dim)
    g0 = as_point(grad_f, region.box.dim)
    G = np.atleast_2d(np.asarray(G, dtype=float))

    def project(p):
        return project_tangent(p, region)

    x, val, resid, step, phi = _solve(
        g0, G, 2.0 * mu, x_R, region.box.lower, region.box.upper, region.A,
        project, as_point(cauchy_target, region.box.dim),
    )
    if step <= _SNAP_REL * (1.0 + float(np.linalg.norm(x_R))):
        x, val, step, phi = x_R.copy(), 0.0, 0.0, 1.0
    return x, SolveCertificate(val, resid, step, phi)
