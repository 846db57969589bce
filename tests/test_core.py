import numpy as np
import pytest

from bira.core import (
    AlgorithmParams,
    BoxPolytope,
    ConfigurationError,
    ContractError,
    InvariantError,
    PenaltyState,
    PrecisionLevel,
    ProblemConstants,
    as_point,
    constraint_ssq,
    infeasibility,
    merit_phi,
)


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


def test_constraint_ssq_and_infeasibility():
    h = np.array([3.0, 4.0])
    assert constraint_ssq(h) == pytest.approx(12.5)
    assert infeasibility(5.0, 0.5) == 5.5
    assert infeasibility(0.0, 0.0) == 0.0


def test_params_defaults_round_trip():
    p = AlgorithmParams.defaults()
    q = AlgorithmParams.from_dict(p.to_dict())
    assert p == q
    assert 0.0 < p.r_feas < p.r < 1.0
    assert p.mu_min <= p.mu_init <= p.mu_max


def test_params_validation():
    base = AlgorithmParams.defaults().to_dict()
    for key, bad in [
        ("r", 1.0),
        ("r", 0.0),
        ("r_feas", 0.6),
        ("M", 0.5),
        ("sigma_max", 1e-9),
        ("mu_init", 1e9),
        ("theta_0", 0.0),
        ("eps_prec_bar", -1.0),
        ("N_prec", -1),
        ("alpha", 0.0),
    ]:
        cfg = dict(base)
        cfg[key] = bad
        with pytest.raises(ConfigurationError):
            AlgorithmParams.from_dict(cfg)


@pytest.mark.parametrize("cfg", [
    {"N_acce": 2},
    {**AlgorithmParams.defaults().to_dict(), "beta_PDP": 8.0},
], ids=["N_acce", "beta_PDP"])
def test_params_refuse_unknown_keys(cfg):
    # the keys of the deleted lookahead and shortcut paths are unknown now
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
    mixed = ProblemConstants(
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        provenance={"L_f": "analytic", "L_h": "analytic", "L_c": "analytic",
                    "C_f": "estimated", "C_h": "analytic", "C_g": "analytic"},
    )
    assert not mixed.analytic
    back = ProblemConstants.from_dict(mixed.to_dict())
    assert back == mixed
    with pytest.raises(ConfigurationError):
        ProblemConstants(1.0, 1.0, 1.0, 1.0, 1.0, 0.5)


def test_penalty_state_only_shrinks():
    st = PenaltyState(0.5)
    assert st.theta == 0.5
    st.push(0.5)
    assert st.theta == 0.5
    st.push(0.3)
    assert st.theta == 0.3
    with pytest.raises(InvariantError):
        st.push(0.31)
    with pytest.raises(InvariantError):
        st.push(0.0)
