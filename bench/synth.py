"""Seeded synthetic problem family for the benchmark.

Built only on the package's public :class:`~bira.SyntheticProblem` and
:class:`~bira.ProblemConstants`, so the solver sees an ordinary problem
object.  Each instance is generated around a designated solution ``x_star``
with a designated set of active bounds:

* ``m - 1`` orthonormal linear rows scaled by ``row_scale`` and one sphere
  row, all through ``x_star``.  The sphere's normal at ``x_star`` is
  orthogonal to the linear rows, so ``J J^T`` at the solution has the same
  spectrum for every seed, and so has the restoration work;
* a separable quadratic objective ``w/2 ||x - c||^2`` on ``[-1, 1]^n``
  whose centre ``c`` is placed so that ``x_star`` satisfies the KKT
  conditions with strictly positive multipliers on its ``n_active`` box
  bounds.  With active bounds ``c`` lies outside the box;
* a start at a fixed distance from ``x_star`` along the constraint
  normals, so every seed starts equally infeasible;
* every smoothness and boundedness constant in closed form, with
  ``||A||_2 = 1`` by construction, so the audit's gated checks run
  instead of being skipped.

Each instance is drawn in two steps: a ``base`` seed draws the geometry,
and the run's seed relabels the coordinates by a signed permutation.  The
box is symmetric, so every relabelling is the same problem; a seed changes
the numbers the solver sees but not how hard they are.

The Lagrangian Hessian at ``x_star`` is ``(w + lambda_sphere / (2 rho)) I``
with a nonnegative sphere multiplier, so ``x_star`` is a strict local
minimizer and serves as the reference solution.  The oracle noise scale
is half the error budget that the package's constants chain allows, as
for the registered problems.
"""

import math

import numpy as np

from bira import AlgorithmParams, PrecisionLevel, ProblemConstants
from bira import BoxPolytope, SyntheticProblem
from bira import constants as derived_constants
from bira.oracle import NOISE_FREQ_F, NOISE_FREQ_H

HALF_WIDTH = 1.0
OBJECTIVE_WEIGHT = 0.1
START_OFFSET = 0.5
MULTIPLIER = 0.075
SPHERE_RADIUS = 2.0
Y0 = PrecisionLevel(0.05, 0.05)
EXTRAS = {"gamma": 0.5, "k_R": 0.0, "n_pdp": 2}


def _calibrate_noise(pc_for):
    """Fixed point of: noise scale -> half the budget the chain allows."""
    params = AlgorithmParams.defaults()
    ns = 0.0
    for _ in range(60):
        ext = dict(EXTRAS, beta=max(2.0 * ns, 1e-12))
        ns_new = derived_constants(pc_for(ns), params, extras=ext).beta_bar / 2
        if ns > 0.0 and abs(ns_new - ns) <= 1e-12 * ns:
            return ns_new
        ns = ns_new
    return ns


def make_synthetic(name, n, m, seed, *, base=0, row_scale=0.25, n_active=0):
    """One instance of the family; identical arguments give identical problems.

    ``m`` counts all constraint rows, the sphere row included.  ``base``
    draws the geometry; ``seed`` draws a signed permutation of the
    coordinates, which maps the box onto itself, and the oracle noise.  The
    instances of one base are one problem up to relabelling, so their work
    differs only through rounding and noise.
    """
    if not (1 <= m < n and 0 <= n_active <= n - m):
        raise ValueError("need 1 <= m < n and n_active <= n - m")
    rng = np.random.default_rng(base)
    hw = HALF_WIDTH
    w = OBJECTIVE_WEIGHT
    rho = SPHERE_RADIUS
    box = BoxPolytope(-hw * np.ones(n), hw * np.ones(n))

    x_star = rng.uniform(-0.3 * hw, 0.3 * hw, n)
    active = rng.choice(n, n_active, replace=False)
    side = rng.choice([-1.0, 1.0], n_active)
    x_star[active] = side * hw

    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    A, u = Q[:, :m - 1].T, Q[:, m - 1]
    b = A @ x_star
    s = x_star + rho * u
    J_star = np.vstack([row_scale * A, -0.5 * u[None, :]])

    # KKT at x_star: w (x_star - c) + J^T lam + side * eta = 0 on the box
    lam = MULTIPLIER * np.ones(m)
    lam[:m - 1] *= rng.choice([-1.0, 1.0], m - 1)
    eta = np.zeros(n)
    eta[active] = side * MULTIPLIER
    c = x_star + (J_star.T @ lam + eta) / w

    # outward from the sphere, so its row starts with the same violation
    d = Q @ np.append(rng.choice([-1.0, 1.0], m - 1), -1.0)
    x0 = box.clip(x_star + START_OFFSET * d / np.linalg.norm(d))

    relabel = np.random.default_rng(seed)
    perm = relabel.permutation(n)
    sign = relabel.choice([-1.0, 1.0], n)
    x_star, x0, c, s = (sign * v[perm] for v in (x_star, x0, c, s))
    A = A[:, perm] * sign

    def objective(x):
        dx = x - c
        return 0.5 * w * float(dx @ dx)

    def objective_grad(x):
        return w * (x - c)

    def constraint(x):
        ds = x - s
        return np.concatenate([
            row_scale * (A @ x - b),
            [(float(ds @ ds) - rho * rho) / (4.0 * rho)],
        ])

    def constraint_jac(x):
        return np.vstack([row_scale * A, ((x - s) / (2.0 * rho))[None, :]])

    # suprema over the box, attained at vertices
    far_c = float(np.linalg.norm(np.maximum(np.abs(-hw - c), np.abs(hw - c))))
    far_s = float(np.linalg.norm(np.maximum(np.abs(-hw - s), np.abs(hw - s))))
    lin_sup = hw * np.abs(A).sum(axis=1) + np.abs(b)
    sph_sup = max(far_s**2, rho**2) / (4.0 * rho)
    h_sup = math.sqrt(row_scale**2 * float(lin_sup @ lin_sup) + sph_sup**2)
    a_norm = 1.0 if m > 1 else 0.0
    g0 = Y0.g

    def pc_for(ns):
        f_noise = max(sum(NOISE_FREQ_F), sum(NOISE_FREQ_F) ** 2)
        G_h = (math.hypot(row_scale * a_norm, far_s / (2.0 * rho))
               + ns * g0 * sum(NOISE_FREQ_H))
        LJ = 1.0 / (2.0 * rho) + ns * g0 * sum(NOISE_FREQ_H) ** 2
        C_h = h_sup + ns * g0
        return ProblemConstants(
            L_f=max(w * far_c, w) + ns * g0 * f_noise,
            L_h=max(G_h, LJ), L_c=G_h**2 + C_h * LJ,
            C_f=0.5 * w * far_c**2 + ns * g0, C_h=C_h, C_g=max(1.0, g0),
            provenance="analytic",
        )

    ns = _calibrate_noise(pc_for)
    return SyntheticProblem(
        name, box, objective, objective_grad, constraint, constraint_jac,
        m, x0, Y0, pc_for(ns), noise_scale_f=ns, noise_scale_h=ns,
        noise_seed=int(relabel.integers(2**31)), known_solution=x_star,
        extra_overrides=EXTRAS,
    )
