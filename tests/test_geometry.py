import numpy as np
import pytest
from conftest import kkt_min_quadratic_box_line

from bira.core import BoxPolytope
from bira.geometry import (
    TangentSet,
    project_affine,
    project_box,
    project_tangent,
)


def _in_region(x, region, tol=1e-8):
    """Membership in the box and the tangent affine set, with a tolerance
    scaled by ``1 + ||x||``."""
    slack = tol * (1.0 + float(np.linalg.norm(x)))
    in_box = (np.all(x >= region.box.lower - slack)
              and np.all(x <= region.box.upper + slack))
    return bool(in_box and np.linalg.norm(region.A @ (x - region.center))
                <= slack)


def test_project_box_componentwise():
    box = BoxPolytope(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(
        project_box(np.array([2.0, -3.0]), box), [1.0, -1.0]
    )
    np.testing.assert_array_equal(
        project_box(np.array([0.5, 0.0]), box), [0.5, 0.0]
    )


def test_project_affine_hand_case():
    A = np.array([[1.0, 1.0]])
    x = project_affine(np.array([1.0, 1.0]), A, np.array([0.0]))
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-12)
    # two independent rows in R^3 pin a line
    A2 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x2 = project_affine(np.array([3.0, 4.0, 5.0]), A2, np.array([1.0, 2.0]))
    np.testing.assert_allclose(x2, [1.0, 2.0, 5.0], atol=1e-12)


def test_project_tangent_interior_matches_affine():
    box = BoxPolytope(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    region = TangentSet(box, np.array([[1.0, 1.0]]), np.array([0.5, 0.5]))
    x = project_tangent(np.array([2.0, 2.0]), region)
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)


def test_project_tangent_corner_case():
    # segment from (0,1) to (1,0); nearest point to (2,-1) is the endpoint
    box = BoxPolytope(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    region = TangentSet(box, np.array([[1.0, 1.0]]), np.array([0.5, 0.5]))
    x = project_tangent(np.array([2.0, -1.0]), region)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)
    assert _in_region(x, region)


def test_project_tangent_with_a_fixed_coordinate():
    # the row pins the fixed coordinate, which leaves the free one
    # unconstrained: the projection moves it, although the row has full
    # rank over all the columns
    box = BoxPolytope(np.array([0.0, -1.0]), np.array([0.0, 1.0]))
    region = TangentSet(box, np.array([[1.0, 0.0]]), np.zeros(2))
    x = project_tangent(np.array([0.0, 0.5]), region)
    np.testing.assert_array_equal(x, [0.0, 0.5])


@pytest.mark.parametrize("seed", range(4))
def test_project_tangent_with_fixed_coordinates_seeded(seed):
    # the coordinates with lower == upper stay put, and the rest is the
    # projection onto the row restricted to them, or the box alone where
    # the row has no entry on them: the case a rank test over every
    # column took for a pinned point
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        lower, upper = -1.0 - rng.random(n), 1.0 + rng.random(n)
        fixed = rng.random(n) < 0.4
        fixed[rng.integers(n)] = True
        free = ~fixed
        lower[fixed] = upper[fixed] = rng.uniform(-1.0, 1.0, fixed.sum())
        a = rng.standard_normal(n)
        if rng.random() < 0.5:
            a[free] = 0.0
        center = rng.uniform(lower, upper)
        region = TangentSet(BoxPolytope(lower, upper), a[None, :], center)
        z = rng.standard_normal(n) * 3.0
        want = center.copy()
        if a[free].any():
            want[free], _ = kkt_min_quadratic_box_line(
                z[free], 1.0, a[free], float(a[free] @ center[free]),
                lower[free], upper[free])
        else:
            want[free] = np.clip(z[free], lower[free], upper[free])
        np.testing.assert_allclose(project_tangent(z, region), want,
                                   atol=1e-9)


@pytest.mark.parametrize("direction, z, solution", [
    # the line leaves the cube through an edge: two bounds active
    ([1.0, 1.0, 0.0], [3.0, 3.0, 0.5], [1.0, 1.0, 0.5]),
    ([1.0, 1.0, 0.0], [4.0, 2.0, 0.5], [1.0, 1.0, 0.5]),
    # ... and through a vertex: all three active
    ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0]),
])
def test_project_tangent_degenerate_line(direction, z, solution):
    # m = n - 1 rows leave a line, which can hold at most one bound in the
    # working set, while more bounds than that are active at the solution
    box = BoxPolytope(np.zeros(3), np.ones(3))
    A = np.linalg.svd(np.array([direction]))[2][1:]
    region = TangentSet(box, A, np.full(3, 0.5))
    x = project_tangent(np.array(z), region)
    np.testing.assert_allclose(x, solution, atol=1e-12)
    assert np.all(x >= box.lower) and np.all(x <= box.upper)
    np.testing.assert_allclose(project_tangent(x, region), x, atol=1e-12)


def test_project_tangent_of_the_center_is_the_center():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        box, A, region = _random_instance(rng, n)
        # a center on the boundary, as restored points often are
        on_box = TangentSet(box, A, box.clip(region.center * 3.0))
        for reg in (region, on_box):
            x = project_tangent(reg.center, reg)
            assert x.tobytes() == reg.center.tobytes()


def _random_instance(rng, n):
    lower = -1.0 - rng.random(n)
    upper = 1.0 + rng.random(n)
    box = BoxPolytope(lower, upper)
    m = rng.integers(1, n)
    A = rng.standard_normal((m, n))
    center = box.clip(rng.uniform(lower, upper))
    return box, A, TangentSet(box, A, center)


def test_project_tangent_properties_seeded():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        box, A, region = _random_instance(rng, n)
        z = rng.standard_normal(n) * 3.0
        x = project_tangent(z, region)
        # the box holds exactly and the affine rows up to rounding
        assert np.all(x >= box.lower)
        assert np.all(x <= box.upper)
        rhs = A @ region.center
        assert np.linalg.norm(A @ x - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))
        # idempotence
        assert np.linalg.norm(project_tangent(x, region) - x) <= 1e-12
        # no feasible candidate beats the projection
        null = np.linalg.svd(A)[2][A.shape[0]:].T
        d_best = np.linalg.norm(z - x)
        for _ in range(20):
            w = region.center + null @ rng.standard_normal(null.shape[1])
            if not _in_region(w, region, tol=1e-10):
                continue
            assert d_best <= np.linalg.norm(z - w) + 1e-7


def test_project_tangent_nonexpansive_seeded():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        box, A, region = _random_instance(rng, n)
        z1 = rng.standard_normal(n) * 2.0
        z2 = rng.standard_normal(n) * 2.0
        x1 = project_tangent(z1, region)
        x2 = project_tangent(z2, region)
        assert (np.linalg.norm(x1 - x2)
                <= np.linalg.norm(z1 - z2) + 1e-7)
