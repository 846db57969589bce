import itertools

import numpy as np
import pytest

from conftest import (
    kkt_min_quadratic_box_line,
    load_synth,
    make_face_row,
    make_highdim,
    make_unit_row,
)

from bira.cli import EXPECTED_SUITE
from bira.core import (
    AlgorithmParams,
    BoxPolytope,
    ContractError,
    DomainError,
    PrecisionLevel,
    ProblemConstants,
)
from bira.diagnostics import audit, constants
from bira.oracle import (
    PROBLEM_NAMES,
    SyntheticProblem,
    make_p1,
    make_p2,
    make_p4,
    problem_by_name,
)
from bira.solver import bira_run

# independently enumerated constrained minimizer of the offset-slice problem
P1_SOLUTION = np.array([
    1.8944271909999157,
    2.8944271909999157,
    -0.10557280900008414,
    1.3944271909999157,
    -1.1055728090000843,
])


def test_p1_solution_matches_kkt_enumeration():
    p = make_p1()
    a = np.ones(5) / np.sqrt(5.0)
    x_f = np.array([1.0, 2.0, -1.0, 0.5, -2.0])
    b = float(a @ x_f + 2.0)
    x_star, val = kkt_min_quadratic_box_line(
        x_f, 20.0, a, b, p.box.lower, p.box.upper
    )
    np.testing.assert_allclose(x_star, P1_SOLUTION, atol=1e-12)
    assert val == pytest.approx(0.2, abs=1e-12)
    np.testing.assert_allclose(p.known_solution, P1_SOLUTION, atol=1e-12)
    # the enumerated point satisfies the constraint as the problem sees it
    np.testing.assert_allclose(p.exact_h(x_star), [0.0], atol=1e-13)


def test_registry_knows_every_factory():
    for name in ("p1", "p2", "p3", "p4", "p1_pdp"):
        p = problem_by_name(name)
        assert p.name == name
        assert p.dim >= 2
    with pytest.raises(ContractError) as err:
        problem_by_name("p99")
    assert "p1" in str(err.value)


def _interior_points(rng, problem, count, margin=1e-3):
    lo = problem.box.lower + margin
    hi = problem.box.upper - margin
    return [lo + (hi - lo) * rng.random(problem.dim) for _ in range(count)]


def test_gradients_match_central_differences():
    rng = np.random.default_rng(17)
    step = 1e-5
    for p in map(problem_by_name, EXPECTED_SUITE):
        y = p.y0 if p.y0.g > 0 else PrecisionLevel(0.0, 0.0)
        for x in _interior_points(rng, p, 20, margin=2 * step):
            g = p.eval_grad_f(x, y)
            J = p.eval_grad_h(x, y)
            for i in range(p.dim):
                e = np.zeros(p.dim)
                e[i] = step
                df = (p.eval_f(x + e, y) - p.eval_f(x - e, y)) / (2 * step)
                assert abs(df - g[i]) <= 1e-6
                dh = (p.eval_h(x + e, y) - p.eval_h(x - e, y)) / (2 * step)
                np.testing.assert_allclose(dh, J[:, i], atol=1e-6)


def test_zero_precision_is_bitwise_exact():
    rng = np.random.default_rng(23)
    y0 = PrecisionLevel(0.0, 0.0)
    for p in map(problem_by_name, EXPECTED_SUITE):
        if p.exact_f(p.x0) is None:
            continue
        for x in _interior_points(rng, p, 25):
            assert p.eval_f(x, y0) == p.exact_f(x)
            np.testing.assert_array_equal(p.eval_h(x, y0), p.exact_h(x))


def test_noise_respects_advertised_bound():
    rng = np.random.default_rng(29)
    levels = [PrecisionLevel(0.5, 0.5), PrecisionLevel(0.07, 0.3),
              PrecisionLevel(1.0, 0.0)]
    for p in map(problem_by_name, EXPECTED_SUITE):
        if p.exact_f(p.x0) is None:
            continue
        ns_f = p.extras().get("noise_scale_f", 0.0)
        ns_h = p.extras().get("noise_scale_h", 0.0)
        for y in levels:
            for x in _interior_points(rng, p, 30):
                assert abs(p.eval_f(x, y) - p.exact_f(x)) <= ns_f * y.gf
                err = np.linalg.norm(p.eval_h(x, y) - p.exact_h(x))
                assert err <= ns_h * y.gh


def test_noise_is_actually_injected():
    rng = np.random.default_rng(31)
    p = make_p1()
    y = PrecisionLevel(0.5, 0.5)
    seen = max(
        abs(p.eval_f(x, y) - p.exact_f(x))
        for x in _interior_points(rng, p, 50)
    )
    assert seen > 0.0
    # and well above bare float rounding of the exact value
    assert seen > 1e-13


def test_ledger_counts_every_call():
    p = make_p1()
    x, y = p.x0, p.y0
    assert p.ledger.snapshot() == {
        "f_evals": 0, "gradf_evals": 0, "h_evals": 0, "gradh_evals": 0,
    }
    p.eval_f(x, y)
    p.eval_h(x, y)
    p.eval_h(x, y)
    p.eval_grad_f(x, y)
    p.eval_grad_h(x, y)
    assert p.ledger.snapshot() == {
        "f_evals": 1, "gradf_evals": 1, "h_evals": 2, "gradh_evals": 1,
    }
    before = p.ledger.snapshot()
    p.exact_f(x)
    p.exact_h(x)
    p.refine(y, 0.25, 0.25)
    assert p.ledger.snapshot() == before
    delta = p.ledger.delta(before)
    assert all(v == 0 for v in delta.values())


def test_refine_contract():
    p = make_p1()
    y = PrecisionLevel(0.5, 0.5)
    z = p.refine(y, 0.25, 0.1)
    assert z == PrecisionLevel(0.25, 0.1)
    with pytest.raises(ContractError):
        p.refine(y, 0.6, 0.5)  # cannot get coarser
    with pytest.raises(ContractError):
        p.refine(y, 0.25, 0.51)


def test_domain_error_outside_box():
    p = make_p2()
    outside = p.box.upper + 1.0
    with pytest.raises(DomainError):
        p.eval_f(outside, p.y0)
    with pytest.raises(DomainError):
        p.eval_grad_h(outside, p.y0)


def test_constraint_shape_contract():
    box = BoxPolytope(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    pc = ProblemConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    bad = SyntheticProblem(
        "bad", box,
        objective=lambda x: 0.0,
        objective_grad=lambda x: np.zeros(2),
        constraint=lambda x: np.zeros(3),  # wrong length on purpose
        constraint_jac=lambda x: np.zeros((1, 2)),
        m=1, x0=np.zeros(2), y0=PrecisionLevel(0.0, 0.0),
        problem_constants=pc,
    )
    with pytest.raises(ContractError):
        bad.eval_h(np.zeros(2), PrecisionLevel(0.0, 0.0))


NON_FINITE = {
    "objective": lambda x: float("nan"),
    "objective_grad": lambda x: np.array([0.0, np.nan]),
    "constraint": lambda x: np.array([np.inf]),
    "constraint_jac": lambda x: np.array([[-np.inf, 0.0]]),
}


@pytest.mark.parametrize("hook, oracle", [
    ("objective", "eval_f"), ("objective_grad", "eval_grad_f"),
    ("constraint", "eval_h"), ("constraint_jac", "eval_grad_h"),
])
def test_non_finite_oracle_output_is_a_contract_error(hook, oracle):
    box = BoxPolytope(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    pc = ProblemConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    hooks = {
        "objective": lambda x: 0.0,
        "objective_grad": lambda x: np.zeros(2),
        "constraint": lambda x: np.zeros(1),
        "constraint_jac": lambda x: np.zeros((1, 2)),
        hook: NON_FINITE[hook],
    }
    bad = SyntheticProblem(
        "bad", box, **hooks, m=1, x0=np.zeros(2),
        y0=PrecisionLevel(0.0, 0.0), problem_constants=pc,
    )
    with pytest.raises(ContractError, match=f"{oracle} of bad"):
        getattr(bad, oracle)(np.zeros(2), PrecisionLevel(0.0, 0.0))
    with pytest.raises(ContractError, match=f"{oracle} of bad"):
        bira_run(bad)


def test_calibrated_noise_stays_within_budget():
    params = AlgorithmParams.defaults()
    for factory in (make_p1, make_p2, make_p4):
        p = factory(params)
        extras = p.extras()
        tc = constants(p.constants(), params, extras=extras)
        assert extras["beta"] <= tc.beta_bar * (1.0 + 1e-9)
        assert extras["beta"] > 0.0


#: Noise scales that the restored-distance factor ``1 +
#: restoration_iter_cap * step_per_infeasibility`` certified at
#: ``(sigma_min, M) = (1/4, 4)`` with a descent constant of 1/2.  The
#: factor from the descent constant the ratio test certifies is far
#: tighter, so the calibration at the defaults must certify at least as
#: much noise.
NOISE_FLOORS = {"p1": 1.178e-12, "p1_pdp": 1.178e-12, "p2": 4.183e-13,
                "p4": 1.178e-12}
SYNTHETIC_NOISE_FLOOR = 1.2e-14
#: ``(base, n, m, row_scale, n_active)`` of the benchmark's synthetic
#: problems and of the grid's
SYNTHETIC = [(0, 100, 5, 0.25, 0), (1, 100, 20, 0.25, 0),
             *((base, 50, 20, 1.0, 4) for base in range(4)),
             (2, 30, 6, 0.5, 3)]


def test_calibrated_noise_scales_keep_their_floors():
    for name, floor in NOISE_FLOORS.items():
        p = problem_by_name(name)
        assert min(p.noise_scale_f, p.noise_scale_h) >= floor, name
    synth = load_synth()
    for base, n, m, row_scale, n_active in SYNTHETIC:
        p = synth.make_synthetic("syn", n, m, 1, base=base,
                                 row_scale=row_scale, n_active=n_active)
        assert min(p.noise_scale_f, p.noise_scale_h) >= (
            SYNTHETIC_NOISE_FLOOR), (base, n, m)


def test_recorded_error_scale_is_twice_the_noise_scale():
    # no floor: an exact problem records zero
    for name in ("p1", "p1_pdp", "p2", "p3", "p4"):
        p = problem_by_name(name)
        assert p.extras()["beta"] == 2.0 * max(p.noise_scale_f,
                                                p.noise_scale_h)
    assert problem_by_name("p3").extras()["beta"] == 0.0


def _tiny_budget_problem(noise_scale):
    """A 2-d problem whose declared constants (valid, but loose) put the
    noise budget below 5e-13."""
    x_f = np.array([0.5, -0.25])
    a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    pc = ProblemConstants(L_f=1e6, L_h=1.0, L_c=1.0, C_f=1.0, C_h=100.0,
                          C_g=1.0)
    return SyntheticProblem(
        "tiny_budget", BoxPolytope(-np.ones(2), np.ones(2)),
        lambda x: float((x - x_f) @ (x - x_f)) / 20.0,
        lambda x: (x - x_f) / 10.0,
        lambda x: np.array([0.25 * (float(a @ x) - 0.5)]),
        lambda x: (0.25 * a)[None, :],
        1, np.array([-0.5, -0.5]), PrecisionLevel(0.05, 0.05), pc,
        noise_scale_f=noise_scale, noise_scale_h=noise_scale,
    )


def _noise_verdict(problem):
    rep = bira_run(problem)
    assert rep.status == "Converged"
    return {c.name: c.status for c in audit(rep).checks}["noise_within_budget"]


def test_noise_within_budget_on_a_budget_below_1e_12():
    params = AlgorithmParams.defaults()
    p = _tiny_budget_problem(0.0)
    budget = constants(p.constants(), params, extras=p.extras()).beta_bar
    assert budget < 5e-13
    # beta = budget / 2 is recorded as it is, although below 1e-12
    assert _noise_verdict(_tiny_budget_problem(budget / 4.0)) == "pass"
    assert _noise_verdict(_tiny_budget_problem(budget)) == "fail"


def test_p1_pdp_is_p1_under_a_second_name():
    twin, p1 = bira_run(problem_by_name("p1_pdp")), bira_run(make_p1())
    assert twin.problem_name == "p1_pdp"
    assert twin.status == p1.status
    assert twin.ledger_totals == p1.ledger_totals
    assert np.array_equal(twin.final_x, p1.final_x)
    assert twin.constants_basis == p1.constants_basis


def _samples(box, rng):
    """Points of ``box``: every corner, or 64 seeded ones past six
    coordinates, then 64 seeded points inside it."""
    n = len(box.lower)
    signs = (np.array(list(itertools.product((0, 1), repeat=n))) if n <= 6
             else rng.integers(0, 2, size=(64, n)))
    corners = np.where(signs, box.upper, box.lower)
    inside = box.lower + rng.random((64, n)) * (box.upper - box.lower)
    return np.vstack([corners, inside])


#: The rows ``a`` of the face-row problems the tests run.
FACE_ROWS = [(1.0, 1.0, 0.0), (1.0, 1.0, 0.1), (1.0, 1.0, 1.0),
             (0.0, 1.0, 0.01)]


@pytest.mark.parametrize("make", [
    *(lambda name=name: problem_by_name(name) for name in PROBLEM_NAMES),
    make_unit_row, make_highdim,
    *(lambda a=a: make_face_row(a) for a in FACE_ROWS),
], ids=[*PROBLEM_NAMES, "unit_row", "highdim",
        *("face_row=" + ",".join(map(str, a)) for a in FACE_ROWS)])
def test_a_problem_keeps_within_its_analytic_constants(make):
    # a sample is not a proof, but a constant that does not bound the
    # problem on its box shows at a corner or between two sampled points;
    # the noise is largest at the start precision, which runs only refine
    problem = make()
    pc, y = problem.constants(), problem.y0
    x = _samples(problem.box, np.random.default_rng(0))
    f = np.array([problem.eval_f(p, y) for p in x])
    g = np.array([problem.eval_grad_f(p, y) for p in x])
    h = np.array([problem.eval_h(p, y) for p in x])
    J = np.array([problem.eval_grad_h(p, y) for p in x])
    slack = 1.0 + 1e-9
    assert np.abs(f).max() <= pc.C_f * slack
    assert np.linalg.norm(g, axis=1).max() <= pc.L_f * slack
    assert np.linalg.norm(h, axis=1).max() <= pc.C_h * slack
    assert np.linalg.norm(J, ord=2, axis=(1, 2)).max() <= pc.L_h * slack
    # Lipschitz constants, on consecutive pairs of the sample: of grad f,
    # of h and of its Jacobian, and of J^T h, the gradient of ||h||^2 / 2
    dist = np.linalg.norm(np.diff(x, axis=0), axis=1) * slack
    grad_c = np.einsum("kmn,km->kn", J, h)
    for values, bound in ((g, pc.L_f), (h, pc.L_h), (grad_c, pc.L_c)):
        step = np.linalg.norm(np.diff(values, axis=0), axis=1)
        assert (step <= bound * dist).all()
    step = np.linalg.norm(np.diff(J, axis=0), ord=2, axis=(1, 2))
    assert (step <= pc.L_h * dist).all()
