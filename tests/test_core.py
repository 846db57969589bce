import numpy as np
import pytest

from bira.core import (
    MU_INIT,
    MU_MAX,
    MU_MIN,
    THETA_0,
    AlgorithmParams,
    BoxPolytope,
    ConfigurationError,
    ContractError,
    PrecisionLevel,
    ProblemConstants,
    as_point,
    constraint_ssq,
    descent_test,
    finishing_goal,
    held,
    merit_phi,
    stopping_test,
    tangent_mu_start,
)
from bira.geometry import TangentSet
from bira.qp import build_H, solve_tangent_qp


def test_as_point_accepts_lists_and_pins_dtype():
    x = as_point([1, 2, 3])
    assert x.dtype == np.float64
    assert x.shape == (3,)


def test_as_point_rejects_bad_input():
    with pytest.raises(ContractError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ContractError):
        as_point([1.0, np.nan])
    with pytest.raises(ContractError):
        as_point([1.0, np.inf])
    with pytest.raises(ContractError):
        as_point([1.0, 2.0], dim=3)


def test_box_contains_and_clip():
    box = BoxPolytope(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert box.dim == 2
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([2.0, 1.0]))
    clipped = box.clip(np.array([5.0, -5.0]))
    np.testing.assert_array_equal(clipped, [1.0, 0.0])
    # boundary points count as members
    assert box.contains(np.array([1.0, 2.0]))


def test_box_rejects_inverted_bounds():
    with pytest.raises(ConfigurationError):
        BoxPolytope(np.array([1.0]), np.array([0.0]))


def test_precision_level_basic():
    y = PrecisionLevel(0.25, 0.5)
    assert y.g == 0.5
    assert y.as_tuple() == (0.25, 0.5)
    assert PrecisionLevel(0.0, 0.0).g == 0.0
    with pytest.raises(ContractError):
        PrecisionLevel(-0.1, 0.0)
    with pytest.raises(ContractError):
        PrecisionLevel(0.1, np.inf)


def test_merit_phi_is_the_weighted_sum():
    val = merit_phi(2.0, 3.0, 1.0, 0.25)
    assert val == 0.25 * 2.0 + 0.75 * (3.0 + 1.0)
    with pytest.raises(ContractError):
        merit_phi(1.0, 1.0, 1.0, 1.5)
    with pytest.raises(ContractError):
        merit_phi(1.0, -1.0, 0.0, 0.5)


def test_constraint_ssq():
    h = np.array([3.0, 4.0])
    assert constraint_ssq(h) == pytest.approx(12.5)


def test_descent_test_asks_alpha_times_the_squared_step():
    # lhs <= rhs holds iff the value fell by at least alpha * step**2
    assert descent_test(1.5, 2.0, 0.5, 1.0) == (1.5, 1.5)
    lhs, rhs = descent_test(1.6, 2.0, 0.5, 1.0)
    assert not lhs <= rhs


def test_params_defaults_round_trip():
    p = AlgorithmParams.defaults()
    q = AlgorithmParams.from_dict(p.to_dict())
    assert p == q
    assert 0.0 < p.r_feas < p.r < 1.0
    assert MU_MIN <= MU_INIT <= MU_MAX
    assert 0.0 < THETA_0 < 1.0


def test_params_validation():
    base = AlgorithmParams.defaults().to_dict()
    for key, bad in [
        ("r", 1.0),
        ("r", 0.0),
        ("r_feas", 0.6),
        ("M", 0.5),
        ("alpha", 0.0),
        # not numbers; a bool is refused too, as the audit's schema does
        ("alpha", True),
        ("r", "0.5"),
        ("r_feas", None),
    ]:
        cfg = dict(base)
        cfg[key] = bad
        with pytest.raises(ConfigurationError):
            AlgorithmParams.from_dict(cfg)


@pytest.mark.parametrize("cfg", [
    {"N_acce": 2},
    {**AlgorithmParams.defaults().to_dict(), "beta_PDP": 8.0},
    {**AlgorithmParams.defaults().to_dict(), "sigma_max": 40.0},
    {"beta_c": 1.0},
], ids=["N_acce", "beta_PDP", "sigma_max", "beta_c"])
def test_params_refuse_unknown_keys(cfg):
    # the keys of the deleted lookahead and shortcut paths, and of the two
    # constants of the analysis that no run reads, are unknown now
    unknown = (set(cfg) - set(AlgorithmParams.defaults().to_dict())).pop()
    with pytest.raises(ConfigurationError, match=unknown):
        AlgorithmParams.from_dict(cfg)


@pytest.mark.parametrize("M,sigma_min", [(1.0, 0.25), (2.0, 0.25),
                                         (8.0, 0.1)])
def test_params_reject_uncovered_regularization(M, sigma_min):
    # the restoration analysis needs M * sigma_min >= 1; checked once, at
    # construction, whether or not a run ever builds the curvature factor
    cfg = {**AlgorithmParams.defaults().to_dict(), "M": M,
           "sigma_min": sigma_min}
    with pytest.raises(ConfigurationError, match="M \\* sigma_min"):
        AlgorithmParams.from_dict(cfg)


@pytest.mark.parametrize("M,sigma_min", [(1.0, 1.0), (2.0, 0.5),
                                         (4.0, 0.25), (8.0, 0.125)])
def test_params_accept_the_edge_of_the_guard(M, sigma_min):
    p = AlgorithmParams.from_dict({**AlgorithmParams.defaults().to_dict(),
                                   "M": M, "sigma_min": sigma_min})
    assert p.M * p.sigma_min == 1.0


def test_problem_constants_provenance():
    pc = ProblemConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert pc.analytic
    est = ProblemConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                           provenance="estimated")
    assert not est.analytic
    assert ProblemConstants.from_dict(est.to_dict()) == est
    # one word for all six fields: a per-field map is refused
    with pytest.raises(ConfigurationError):
        ProblemConstants(
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
            provenance={"L_f": "analytic", "L_h": "analytic",
                        "L_c": "analytic", "C_f": "estimated",
                        "C_h": "analytic", "C_g": "analytic"},
        )
    with pytest.raises(ConfigurationError):
        ProblemConstants(1.0, 1.0, 1.0, 1.0, 1.0, 0.5)


TOL = {"eps_feas": 1e-6, "eps_prec": 1e-5, "eps_opt": 1e-4}


def test_a_finishing_goal_opens_once_the_optimality_comparison_holds():
    assert finishing_goal(None, TOL) is None
    assert finishing_goal(2e-4, TOL) is None
    assert finishing_goal(1e-4, TOL) == (1e-6, 1e-5)


@pytest.mark.parametrize("h_norm,g,residual,met", [
    (1e-6, 1e-5, 1e-4, True),
    (2e-6, 1e-5, 1e-4, False),
    (1e-6, 2e-5, 1e-4, False),
    (1e-6, 1e-5, 2e-4, False),
], ids=["all_met", "violation_open", "precision_open", "optimality_open"])
def test_the_stopping_test_needs_all_three_comparisons(h_norm, g, residual,
                                                       met):
    assert stopping_test(h_norm, g, residual, TOL) is met


@pytest.mark.parametrize("h_norm,g,kept", [
    (5e-7, 5e-6, True),
    (0.0, 0.0, True),
    (6e-7, 5e-6, False),
    (5e-7, 6e-6, False),
], ids=["both_met_by_r", "exact", "violation_open", "precision_open"])
def test_a_call_is_held_where_its_input_meets_the_tolerances_by_r(
        h_norm, g, kept):
    # r = 1/2 of eps_feas = 1e-6 and eps_prec = 1e-5; eps_opt plays no part
    assert held(h_norm, g, 0.5, TOL) is kept


def _tangent_step(mu, box_upper=10.0, curvature=0.3):
    """The tangent step at weight ``mu`` of ``f(x) = c.x + curvature
    ||x||^2`` from ``x_R = 0``, on the plane ``x_0 + x_1 + x_2 = 0`` cut by
    the box ``[-10, box_upper]^3``: ``(D, certificate, f)``, ``D`` the
    decrease of f along the step."""
    c = np.array([1.0, -2.0, 0.5])

    def f(x):
        return float(c @ x + curvature * (x @ x))

    x_R = np.zeros(3)
    region = TangentSet(BoxPolytope(-10.0 * np.ones(3),
                                    box_upper * np.ones(3)),
                        np.ones((1, 3)), x_R)
    x_next, cert = solve_tangent_qp(c, build_H(x_R), mu, x_R, region)
    return f(x_R) - f(x_next), cert, f


def _doubling_start(params, mu, decrease, step_norm):
    """The start after a clipped or zero step, restated: ``mu/2`` if the
    step predicts the half passes the descent test, else ``mu``."""
    halve = decrease >= (mu + params.alpha) * step_norm**2
    return min(max(mu / 2.0 if halve else mu, MU_MIN), MU_MAX)


@pytest.mark.parametrize("curvature,params,newton", [
    (0.05, {"alpha": 0.1}, False),
    (0.3, {}, True),
], ids=["margin", "newton_weight"])
def test_an_unclipped_step_predicts_the_weight_that_passes(curvature, params,
                                                           newton):
    # f is quadratic with half curvature b along every direction, so a
    # trial at weight m passes the descent test iff 2 m >= alpha + b; the
    # rule starts 10% above that edge, but no lower than b, where the step
    # ends at the minimizer of f along it: the floor binds for
    # b > 1.1 alpha/0.9, ~0.024 at the default alpha = 0.02 and ~0.12 at
    # alpha = 0.1, and b >= alpha passes there
    params = AlgorithmParams(**params)
    decrease, cert, f = _tangent_step(2.0, curvature=curvature)
    start = tangent_mu_start(params, 2.0, 0.0, -decrease, cert.step_norm,
                             cert.model_decrease)
    margin = 1.1 * (params.alpha + curvature) / 2.0
    assert start == pytest.approx(curvature if newton else margin)
    assert (margin < curvature) is newton
    decrease, cert, _ = _tangent_step(start, curvature=curvature)
    lhs, rhs = descent_test(-decrease, 0.0, params.alpha, cert.step_norm)
    assert lhs <= rhs
    if newton:
        # a start at b decreases f more than one on either side of it
        for m in (0.9 * start, 1.1 * start):
            assert _tangent_step(m, curvature=curvature)[0] < decrease
    # the rule never starts above the weight that passed
    below = 0.95 * start
    decrease, cert, _ = _tangent_step(below, curvature=curvature)
    assert tangent_mu_start(params, below, 0.0, -decrease, cert.step_norm,
                            cert.model_decrease) == below


def test_a_concave_direction_starts_at_mu_min():
    # with alpha + b <= 0 every weight passes the descent test
    params = AlgorithmParams.defaults()
    decrease, cert, _ = _tangent_step(2.0, curvature=-0.2)
    assert tangent_mu_start(params, 2.0, 0.0, -decrease, cert.step_norm,
                            cert.model_decrease) == MU_MIN


@pytest.mark.parametrize("mu", [0.5, 4.0])
def test_a_clipped_step_keeps_the_doubling_rule(mu):
    # the bound x <= 0.1 cuts the step, so -g.s exceeds 2 mu ||s||^2 and
    # the start is the doubling rule's, bit for bit: the step's own
    # decrease predicts the half passes, half of (mu + alpha) ||s||^2 does
    # not
    params = AlgorithmParams.defaults()
    decrease, cert, _ = _tangent_step(mu, box_upper=0.1)
    s2 = cert.step_norm**2
    assert mu * s2 - cert.model_decrease > 2.0 * mu * s2 * (1.0 + 1e-3)
    for d, want in ((decrease, mu / 2.0), ((mu + params.alpha) * s2 / 2.0, mu)):
        start = tangent_mu_start(params, mu, 0.0, -d, cert.step_norm,
                                 cert.model_decrease)
        assert start == _doubling_start(params, mu, d, cert.step_norm) == want


@pytest.mark.parametrize("step_norm", [0.0, 5e-324])
def test_a_zero_or_underflowing_step_keeps_the_doubling_rule(step_norm):
    # a zero step, or one whose square underflows to 0: no curvature can
    # be read off it, and a decrease of 0 predicts the half passes
    params = AlgorithmParams.defaults()
    for decrease in (0.0, -1e-3):
        assert tangent_mu_start(params, 0.5, 1.0, 1.0 - decrease, step_norm,
                                0.0) == _doubling_start(params, 0.5,
                                                        decrease, step_norm)
    assert tangent_mu_start(params, 0.5, 1.0, 1.0, step_norm, 0.0) == 0.25
