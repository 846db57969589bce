import itertools

import numpy as np
import pytest

from bira.core import CERT_FLOOR, DEFAULT_KAPPAS, BoxPolytope
from bira.geometry import TangentSet, project_box, project_tangent
from bira.qp import (
    build_B,
    build_H,
    solve_restoration_qp,
    solve_tangent_qp,
)


def _assert_restoration_targets_met(cert):
    # the comparison of the audit's restoration_solve_accuracy check
    assert (cert.stationarity_residual
            <= DEFAULT_KAPPAS["kappa_R"] * cert.step_norm + CERT_FLOOR)


def _assert_tangent_targets_met(cert):
    # the comparisons of the audit's tangent_solve_accuracy check, with
    # its rounding floor
    resid, step = cert.stationarity_residual, cert.step_norm
    assert resid <= DEFAULT_KAPPAS["kappa_T"] * step**2 + CERT_FLOOR
    assert resid <= DEFAULT_KAPPAS["kappa"] * step + CERT_FLOOR


def _assert_no_worse_than_the_segment(model_decrease, g, Q, d):
    """The solve's value of the model ``g.s + 0.5 s.Q.s`` is at most its
    least value at ``s = t d`` over ``0 <= t <= 1``, the best point of the
    projected steepest-descent segment: the Cauchy-type decrease an
    inexact solve would certify, which an exact minimizer over a convex
    set holding the segment meets."""
    gd, dQd = float(g @ d), float(d @ Q @ d)
    if dQd > 0.0:
        t = min(max(-gd / dQd, 0.0), 1.0)
    else:
        t = 1.0 if gd < 0.0 else 0.0
    best = t * gd + 0.5 * t * t * dQd
    assert model_decrease <= best + 1e-12 * (1.0 + abs(best))


def test_build_B_scales_to_norm_cap():
    J = np.array([[2.0, 0.0]])
    G = build_B(J, 1.0)
    B = G.T @ G
    assert np.linalg.norm(B, 2) == pytest.approx(1.0)
    np.testing.assert_allclose(B, [[1.0, 0.0], [0.0, 0.0]])
    # already under the cap: left alone
    J2 = np.array([[0.5, 0.0]])
    G2 = build_B(J2, 1.0)
    np.testing.assert_allclose(G2.T @ G2, J2.T @ J2)


def test_restoration_qp_closed_form_1d():
    box = BoxPolytope(np.array([-10.0]), np.array([10.0]))
    z, cert = solve_restoration_qp(
        np.array([1.0]), np.array([[0.0]]), 0.5, np.array([0.0]), box,
    )
    # min of s + 0.5*(2*sigma)*s^2 is at s = -1/(2*sigma)
    np.testing.assert_allclose(z, [-1.0], atol=1e-9)
    assert cert.model_decrease == pytest.approx(-0.5, abs=1e-9)
    _assert_restoration_targets_met(cert)


def test_restoration_qp_respects_box():
    box = BoxPolytope(np.array([-0.3]), np.array([10.0]))
    z, cert = solve_restoration_qp(
        np.array([1.0]), np.array([[0.0]]), 0.5, np.array([0.0]), box,
    )
    np.testing.assert_allclose(z, [-0.3], atol=1e-12)
    assert cert.model_decrease == pytest.approx(-0.3 + 0.5 * 0.09, abs=1e-12)
    # at the bound the projected step stalls, so the residual is zero
    assert cert.stationarity_residual <= 1e-9


def test_tangent_qp_closed_form_on_a_line():
    box = BoxPolytope(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    center = np.array([0.5, -0.5])
    region = TangentSet(box, np.array([[1.0, 1.0]]), center)
    x, cert = solve_tangent_qp(
        np.array([1.0, 0.0]), build_H(center), 0.5, center, region,
    )
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-8)
    assert cert.step_norm == pytest.approx(np.sqrt(0.5), abs=1e-8)
    assert cert.model_decrease == pytest.approx(-0.25, abs=1e-8)
    assert float(np.linalg.norm(region.A @ (x - center))) <= 1e-9
    _assert_tangent_targets_met(cert)


def test_tangent_qp_small_step_against_an_active_bound():
    # the gradient holds x_0 at its upper bound while the step slides
    # about 1e-7 along the plane; an inexact projection leaves a residual
    # far above kappa_T * ||s||^2 there
    box = BoxPolytope(-np.ones(3), np.ones(3))
    center = np.array([1.0, 0.2, -0.5])
    region = TangentSet(box, np.array([[1.0, 1.0, 1.0]]), center)
    x, cert = solve_tangent_qp(
        np.array([-1.0, 3e-7, 0.0]), build_H(center), 1.0, center, region,
    )
    np.testing.assert_allclose(x - center, [0.0, -7.5e-8, 7.5e-8],
                               rtol=0, atol=1e-15)
    assert cert.step_norm == pytest.approx(7.5e-8 * np.sqrt(2.0))
    _assert_tangent_targets_met(cert)


def test_tangent_qp_snaps_tiny_steps_to_center():
    box = BoxPolytope(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    center = np.array([0.1, -0.1])
    region = TangentSet(box, np.array([[1.0, 1.0]]), center)
    x, cert = solve_tangent_qp(
        np.zeros(2), build_H(center), 1.0, center, region,
    )
    np.testing.assert_array_equal(x, center)
    assert cert.step_norm == 0.0
    assert cert.model_decrease == 0.0
    _assert_tangent_targets_met(cert)


def test_restoration_certificates_recompute_exactly_seeded():
    # on boxes and on faces of them, which fix some coordinates at a bound
    rng = np.random.default_rng(5)
    on_face = clipped = 0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        lo = -1.0 - rng.random(n)
        hi = 1.0 + rng.random(n)
        fixed = rng.random(n) < 0.3
        lo[fixed] = hi[fixed] = np.where(rng.random(n) < 0.5, lo, hi)[fixed]
        box = BoxPolytope(lo, hi)
        g = 2.0 ** rng.uniform(-2.0, 5.0) * rng.standard_normal(n)
        R = rng.standard_normal((n, n))
        G = R.T / np.sqrt(n)
        B = G.T @ G
        sigma = float(rng.uniform(0.2, 4.0))
        center = box.clip(rng.uniform(lo, hi))
        z, cert = solve_restoration_qp(g, G, sigma, center, box)
        s = z - center
        Q = B + 2.0 * sigma * np.eye(n)
        md = float(g @ s + 0.5 * s @ Q @ s)
        assert abs(md - cert.model_decrease) <= 1e-12
        assert abs(float(np.linalg.norm(s)) - cert.step_norm) <= 1e-12
        gz = g + Q @ s
        resid = float(np.linalg.norm(project_box(z - gz, box) - z))
        assert abs(resid - cert.stationarity_residual) <= 1e-12
        assert md <= 0.0
        _assert_restoration_targets_met(cert)
        _assert_no_worse_than_the_segment(
            cert.model_decrease, g, Q,
            project_box(center - g, box) - center)
        on_face += bool(fixed.any())
        clipped += bool(np.any(~fixed & ((z == lo) | (z == hi))))
    assert on_face >= 15 and clipped >= 15


def test_tangent_certificates_recompute_exactly_seeded():
    # the center sits at a bound of some coordinates, so the tangent set
    # has bounds the step can be held at
    rng = np.random.default_rng(11)
    checked = active = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        lo = -2.0 * np.ones(n)
        hi = 2.0 * np.ones(n)
        box = BoxPolytope(lo, hi)
        A = rng.standard_normal((1, n))
        center = box.clip(rng.uniform(-1.0, 1.0, n))
        at_bound = rng.random(n) < 0.4
        center[at_bound] = rng.choice([-2.0, 2.0], int(at_bound.sum()))
        region = TangentSet(box, A, center)
        g = rng.standard_normal(n)
        mu = float(rng.uniform(0.2, 2.0))
        x, cert = solve_tangent_qp(g, build_H(center), mu, center, region)
        if cert.step_norm == 0.0:
            np.testing.assert_array_equal(x, center)
            continue
        checked += 1
        s = x - center
        md = float(g @ s + mu * s @ s)
        assert abs(md - cert.model_decrease) <= 1e-12
        assert md <= 0.0
        assert abs(float(np.linalg.norm(s)) - cert.step_norm) <= 1e-12
        assert float(np.linalg.norm(A @ s)) <= 1e-12
        gx = g + 2.0 * mu * s
        resid = float(np.linalg.norm(project_tangent(x - gx, region) - x))
        assert abs(resid - cert.stationarity_residual) <= 1e-12
        _assert_tangent_targets_met(cert)
        _assert_no_worse_than_the_segment(
            cert.model_decrease, g, 2.0 * mu * np.eye(n),
            project_tangent(center - g, region) - center)
        active += bool(np.any((x == lo) | (x == hi)))
    assert checked >= 30 and active >= 15


def test_build_H_zero_mode_is_free():
    # the empty factor: H = G^T G is the zero matrix, with no evaluation
    G = build_H(np.array([0.5, -1.0, 2.0]))
    assert G.shape == (0, 3)
    np.testing.assert_array_equal(G.T @ G, np.zeros((3, 3)))


def _box_qp_by_enumeration(g, Q, center, lower, upper):
    """Minimizer of ``g.d + 0.5 d.Q.d`` over ``lower <= center + d <= upper``
    by solving the KKT system of every lower/free/upper pattern and keeping
    the best feasible candidate.  Independent of the package on purpose."""
    n = g.size
    best_val, best_z = np.inf, None
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        d = np.zeros(n)
        fixed = np.array(pattern) != 0
        d[fixed] = np.where(np.array(pattern) < 0, lower, upper)[fixed] - (
            center[fixed])
        free = ~fixed
        if free.any():
            rhs = -(g[free] + Q[np.ix_(free, fixed)] @ d[fixed])
            d[free] = np.linalg.solve(Q[np.ix_(free, free)], rhs)
        z = center + d
        if np.any(z < lower - 1e-12) or np.any(z > upper + 1e-12):
            continue
        val = float(g @ d + 0.5 * d @ Q @ d)
        if val < best_val:
            best_val, best_z = val, z
    return best_z


def test_restoration_qp_matches_exhaustive_kkt_reference():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            lo = -1.0 - rng.random(n)
            hi = 1.0 + rng.random(n)
            box = BoxPolytope(lo, hi)
            G = 2.0 * rng.standard_normal((2, n))
            sigma = float(rng.uniform(0.1, 2.0))
            center = rng.uniform(lo, hi)
            g = 4.0 * rng.standard_normal(n)
            z, cert = solve_restoration_qp(g, G, sigma, center, box)
            Q = G.T @ G + 2.0 * sigma * np.eye(n)
            ref = _box_qp_by_enumeration(g, Q, center, lo, hi)
            np.testing.assert_allclose(z, ref, rtol=0, atol=1e-12)
            _assert_restoration_targets_met(cert)


def test_a_restoration_solve_on_a_face_holds_its_fixed_coordinates():
    # a face of the box fixes some coordinates (lower == upper); their
    # multipliers may take either sign, so the solve equals the solve
    # with those coordinates left out, and meets its targets
    rng = np.random.default_rng(0)
    for _ in range(500):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        center = rng.uniform(-1.0, 1.0, n)
        fixed = rng.random(n) < 0.4
        fixed[-1] = False
        center[fixed] = rng.choice([-1.0, 1.0], int(fixed.sum()))
        face = BoxPolytope(np.where(fixed, center, -1.0),
                           np.where(fixed, center, 1.0))
        G, grad = rng.normal(size=(m, n)), 3.0 * rng.normal(size=n)
        z, cert = solve_restoration_qp(grad, G, 0.25, center, face)
        free = ~fixed
        z_free, _ = solve_restoration_qp(
            grad[free], G[:, free], 0.25, center[free],
            BoxPolytope(-np.ones(free.sum()), np.ones(free.sum())))
        np.testing.assert_array_equal(z[fixed], center[fixed])
        np.testing.assert_allclose(z[free], z_free, atol=1e-12)
        _assert_restoration_targets_met(cert)


def test_the_restoration_model_falls_by_twice_sigma_the_squared_step():
    # the exact minimizer d of g.d + 0.5 d.(B + 2 sigma I).d over a box
    # that holds 0 has (g + (B + 2 sigma I) d).d <= 0, so the fall of the
    # unregularized model, pred = sigma ||d||**2 - model_decrease, is at
    # least 2 sigma ||d||**2: the ratio test at eta certifies the descent
    # constant 2 eta sigma_min.  Faces fix some coordinates, and a large
    # gradient at a small sigma clips the step at a bound
    rng = np.random.default_rng(3)
    clipped = 0
    on_face = 0
    for _ in range(400):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        center = rng.uniform(-1.0, 1.0, n)
        fixed = rng.random(n) < 0.3
        center[fixed] = rng.choice([-1.0, 1.0], int(fixed.sum()))
        box = BoxPolytope(np.where(fixed, center, -1.0),
                          np.where(fixed, center, 1.0))
        G = build_B(2.0 ** rng.uniform(-4.0, 4.0) * rng.normal(size=(m, n)),
                    64.0)
        grad = 2.0 ** rng.uniform(-4.0, 4.0) * rng.normal(size=n)
        sigma = 2.0 ** float(rng.integers(-6, 4))
        z, cert = solve_restoration_qp(grad, G, sigma, center, box)
        two_sigma_d2 = 2.0 * sigma * cert.step_norm**2
        pred = sigma * cert.step_norm**2 - cert.model_decrease
        assert pred >= two_sigma_d2 - 1e-12 * (pred + two_sigma_d2)
        clipped += bool(np.any(~fixed & ((z == -1.0) | (z == 1.0))))
        on_face += bool(fixed.any())
    assert clipped >= 100 and on_face >= 100
