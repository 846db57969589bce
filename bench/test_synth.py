"""Checks of the benchmark's synthetic family and its cost model.

Run from the root of the checkout::

    python3 -m pytest bench/test_synth.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bira import AlgorithmParams, PrecisionLevel  # noqa: E402
from run import SYNTHETIC, build_problems, eval_cost, import_package  # noqa: E402
from synth import make_synthetic  # noqa: E402

SHAPES = sorted({shape for shapes in SYNTHETIC.values() for shape in shapes})
SEEDS = (0, 1, 2)


CASES = {
    f"n{n}-m{m}-k{n_active}-seed{seed}": (n, m, seed, row_scale, n_active)
    for n, m, row_scale, n_active in SHAPES for seed in SEEDS
}


@pytest.fixture(params=sorted(CASES))
def problem(request):
    n, m, seed, row_scale, n_active = CASES[request.param]
    return make_synthetic(request.param, n, m, seed + 100, base=seed,
                          row_scale=row_scale, n_active=n_active)


def test_sampled_values_stay_within_the_stated_constants(problem):
    pc = problem.constants()
    rng = np.random.default_rng(7)
    lo, hi = problem.box.lower, problem.box.upper
    corners = [np.where(rng.random(problem.dim) < 0.5, lo, hi)
               for _ in range(20)]
    points = [rng.uniform(lo, hi) for _ in range(200)] + corners
    for y in (problem.y0, PrecisionLevel(0.0, 0.0)):
        for x in points:
            assert abs(problem.eval_f(x, y)) <= pc.C_f
            assert np.linalg.norm(problem.eval_grad_f(x, y)) <= pc.L_f
            assert np.linalg.norm(problem.eval_h(x, y)) <= pc.C_h
            assert np.linalg.norm(problem.eval_grad_h(x, y), 2) <= pc.L_h
    assert pc.analytic


def test_reference_solution_is_a_kkt_point(problem):
    x = problem.known_solution
    assert problem.box.contains(x, tol=0.0)
    assert np.linalg.norm(problem.exact_h(x)) <= 1e-12
    exact = PrecisionLevel(0.0, 0.0)
    J = problem.eval_grad_h(x, exact)
    g = problem.eval_grad_f(x, exact)
    at_bound = np.isclose(np.abs(x), 1.0, rtol=0.0, atol=1e-15)
    # the gradient is a combination of the constraint normals plus outward
    # normals of the active bounds, with positive bound multipliers
    basis = np.hstack([J.T, np.eye(problem.dim)[:, at_bound]])
    coef, *_ = np.linalg.lstsq(basis, -g, rcond=None)
    assert np.linalg.norm(basis @ coef + g) <= 1e-12
    eta = coef[problem.m:] * np.sign(x[at_bound])
    assert np.all(eta > 0.0)


def test_start_avoids_the_known_restoration_pitfalls(problem):
    params = AlgorithmParams.defaults()
    h0 = np.linalg.norm(problem.eval_h(problem.x0, problem.y0))
    # a start precision above twice the violation trips the
    # precision-outpaced-feasibility test at once
    assert problem.y0.g <= 2.0 * h0
    # a Jacobian whose smallest singular value is below r_feas makes
    # restoration declare possible infeasibility
    sv = np.linalg.svd(problem.eval_grad_h(problem.known_solution,
                                           PrecisionLevel(0.0, 0.0)),
                       compute_uv=False)
    assert sv.min() >= params.r_feas


def test_seed_relabels_the_coordinates_of_one_base_problem():
    a = make_synthetic("a", 30, 5, 3, n_active=2)
    b = make_synthetic("b", 30, 5, 3, n_active=2)
    c = make_synthetic("c", 30, 5, 4, n_active=2)
    assert np.array_equal(a.x0, b.x0)
    assert a.eval_f(a.x0, a.y0) == b.eval_f(b.x0, b.y0)
    assert not np.array_equal(a.x0, c.x0)
    exact = PrecisionLevel(0.0, 0.0)
    for p in (a, c):
        assert np.isclose(p.eval_f(p.x0, exact), a.eval_f(a.x0, exact))
        assert np.allclose(np.sort(np.abs(p.x0)), np.sort(np.abs(a.x0)))
        assert np.allclose(p.eval_h(p.x0, exact), a.eval_h(a.x0, exact))


def test_workload_lists_repeat_for_a_seed():
    pkg = import_package()
    for workload in ("paper", *SYNTHETIC):
        one = build_problems(pkg, workload, 5)
        two = build_problems(pkg, workload, 5)
        assert [p.name for p, _ in one] == [p.name for p, _ in two]
        assert all(np.array_equal(p.x0, q.x0)
                   for (p, _), (q, _) in zip(one, two))


@pytest.mark.parametrize("gamma, cost", [
    (0.0, 41.0), (1.0, 1.0), (2.0, 1.0), (0.5, 2.0), (2.0**-50, 41.0),
])
def test_precision_weighted_cost(gamma, cost):
    assert eval_cost(gamma) == cost
