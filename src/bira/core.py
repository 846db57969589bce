"""Shared value types and scalar measures for the inexact-restoration solver.

Decision points are plain 1-D float64 numpy arrays throughout the package;
:func:`as_point` validates one at API boundaries.  Precision levels live in
the nonnegative quadrant: ``gf`` bounds the objective evaluation error scale
and ``gh`` the constraint one, and the scalar precision measure is their max.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np


#: The largest magnitude a float holds.
FLOAT_MAX = float(np.finfo(float).max)


class ConfigurationError(ValueError):
    """Invalid parameter or configuration input."""


class ContractError(ValueError):
    """A caller violated an operation precondition."""


class DomainError(ValueError):
    """A point lies outside the problem's box domain."""


class _AbortedRun(RuntimeError):
    """A run stopped by an exception; ``summary`` says where and why."""

    def __init__(self, message, summary=None):
        super().__init__(message)
        self.summary = summary or {}


class InvariantError(_AbortedRun):
    """An internal guarantee failed; indicates a broken assumption."""


class AbnormalTermination(_AbortedRun):
    """An algorithm phase hit a safety cap without reaching an exit test."""


class InsufficientDataError(ValueError):
    """Not enough data for the requested estimate."""


class SchemaError(ValueError):
    """A serialized trace or config does not match the expected schema."""


#: The evaluation kinds an :class:`~bira.oracle.EvaluationLedger` counts:
#: the keys of every ledger snapshot, delta and total in a trace.
LEDGER_FIELDS = ("f_evals", "gradf_evals", "h_evals", "gradh_evals")

#: How :func:`~bira.solver.bira_run` ends, and how a restoration call ends.
RUN_STATUSES = ("Converged", "RestorationFailure", "BudgetExceeded")
RESTORATION_STATUSES = ("restored", "possible_infeasibility")

#: Why a run ends in ``RestorationFailure``: its restoration call found
#: possible infeasibility, or the outcome failed a :func:`restoration_tests`.
FAILURE_KINDS = (RESTORATION_STATUSES[1], "insufficient_contraction",
                 "precision_outpaced_feasibility")

#: The evaluations :func:`~bira.solver.bira_run` makes before iteration 0,
#: one f and one h at the start point, by ledger kind.  They are charged to
#: record 0, and to no record when the run stops before finishing one.
STARTUP_EVALS = {"f_evals": 1, "gradf_evals": 0, "h_evals": 1,
                 "gradh_evals": 0}


#: Accuracy targets of the two subproblem solves: constants of the
#: analysis, read by the constants chain and by the audit.  The solves are
#: exact up to rounding, so their residuals sit far inside ``kappa_R``,
#: ``kappa_T`` and ``kappa``.  ``kappa_phi``, the Cauchy-decrease factor
#: of an inexact solve, is met by construction: an exact minimizer is
#: never worse than any point of the projected steepest-descent segment.
#: No trace writes it and no audit row compares with it; the constants
#: chain reads it for ``step_per_infeasibility``.
DEFAULT_KAPPAS = {
    "kappa_R": 10.0,
    "kappa_T": 10.0,
    "kappa": 10.0,
    "kappa_phi": 10.0,
}

#: Rounding floor of the subproblem certificates: a model decrease or a
#: residual this close to zero counts as zero.
CERT_FLOOR = 1e-12


def as_point(x, dim=None):
    """Validate and return ``x`` as a finite 1-D float64 array.

    Parameters
    ----------
    x : array_like
        Candidate decision point.
    dim : int, optional
        Required length.

    Raises
    ------
    ContractError
        If ``x`` is not 1-D, not finite, or has the wrong length.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ContractError(f"decision point must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise ContractError(f"decision point has length {arr.size}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("decision point has non-finite coordinates")
    return arr


@dataclass(frozen=True)
class BoxPolytope:
    """Axis-aligned box ``{x : lower <= x <= upper}``, both bounds finite."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise ConfigurationError("box bounds must be matching 1-D arrays")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigurationError("box bounds must be finite")
        if np.any(lo > hi):
            raise ConfigurationError("box has lower > upper in some coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.size

    def contains(self, x, tol=1e-8):
        """Membership test with tolerance scaled by ``1 + ||x||``."""
        x = np.asarray(x, dtype=float)
        slack = tol * (1.0 + float(np.linalg.norm(x)))
        return bool(
            np.all(x >= self.lower - slack) and np.all(x <= self.upper + slack)
        )

    def clip(self, z):
        return np.clip(np.asarray(z, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class PrecisionLevel:
    """Precision pair ``(gf, gh)``; both components nonnegative and finite."""

    gf: float
    gh: float

    def __post_init__(self):
        gf = float(self.gf)
        gh = float(self.gh)
        if not (math.isfinite(gf) and math.isfinite(gh)):
            raise ContractError("precision components must be finite")
        if gf < 0.0 or gh < 0.0:
            raise ContractError("precision components must be nonnegative")
        object.__setattr__(self, "gf", gf)
        object.__setattr__(self, "gh", gh)

    @property
    def g(self):
        return max(self.gf, self.gh)

    def as_tuple(self):
        return (self.gf, self.gh)


def merit_phi(f_val, h_norm, g_val, theta):
    """Penalty merit value ``theta*f + (1-theta)*(||h|| + g)``.

    ``theta`` must lie in [0, 1]; ``h_norm`` and ``g_val`` must be
    nonnegative.
    """
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ContractError(f"theta must lie in [0, 1], got {theta}")
    if h_norm < 0.0 or g_val < 0.0:
        raise ContractError("h_norm and g_val must be nonnegative")
    return theta * float(f_val) + (1.0 - theta) * (float(h_norm) + float(g_val))


def merit_allowance(h_xk_yR, h_xR_yR, g_yk, g_yR, r):
    """Merit slack earned by restoration: ``(1-r)/2`` times its change in
    violation plus precision measure."""
    return 0.5 * (1.0 - r) * (h_xR_yR - h_xk_yR + g_yR - g_yk)


def merit_test(f_new, h_new, f_ref, h_ref, g, theta, allowance):
    """The merit test at weight ``theta`` as ``(lhs, rhs)``, which holds iff
    ``lhs <= rhs``: the merit at ``(f_new, h_new)`` is at most the merit at
    ``(f_ref, h_ref)`` plus ``allowance`` (see :func:`merit_allowance`),
    both at precision measure ``g``."""
    return (merit_phi(f_new, h_new, g, theta),
            merit_phi(f_ref, h_ref, g, theta) + allowance)


def descent_test(new, ref, alpha, step):
    """The sufficient-decrease test of a trial as ``(lhs, rhs)``, which
    holds iff ``lhs <= rhs``: the value fell from ``ref`` to ``new`` by at
    least ``alpha`` times the squared step norm.  The tangent search
    applies it to f, and the audit's ``tangent_search`` replays it."""
    return new, ref - alpha * step**2


#: The Levenberg-Marquardt acceptance ratio eta of restoration (Moré 1978;
#: Nocedal & Wright §10.3; see :mod:`bira.restoration`).  The ratio test
#: at eta certifies the descent constant ``2 eta sigma_min``
#: (:class:`bira.diagnostics.TheoreticalConstants`).  On ``p3`` it rejects
#: the trials that zigzag across the stall at ``x_1 = 0``: at 0, where any
#: fall of h passes, that run pays 228 h and 49 grad h evaluations, at 1/4
#: 8 and 3.  At 1/2 every workload count is the same as at 1/4.
ACCEPTANCE_RATIO = 0.25


def update_penalty(theta_k, f_xR_yR, f_xk_yR, h_xk_yR, h_xR_yR, g_yk, g_yR, r):
    """Largest penalty weight (capped by the current one) for which the
    restored point improves the merit by the guaranteed fraction.

    Raises :class:`InvariantError` if no weight in ``(0, theta_k]`` works;
    the restoration failure tests make that impossible for outcomes they
    let through.
    """
    dh = h_xR_yR - h_xk_yR
    df = f_xR_yR - f_xk_yR
    allowance = merit_allowance(h_xk_yR, h_xR_yR, g_yk, g_yR, r)

    def holds(th):
        lhs, rhs = merit_test(f_xR_yR, h_xR_yR, f_xk_yR, h_xk_yR, g_yR, th,
                              allowance)
        return lhs <= rhs

    if holds(theta_k):
        return theta_k
    denom = df - dh
    if denom <= 0.0:
        raise InvariantError(
            "penalty update has nonpositive curvature; restoration tests"
            " should have rejected this outcome"
        )
    theta_eq = min((allowance - dh) / denom, theta_k)
    if not theta_eq > 0.0:
        raise InvariantError("penalty update left no positive weight")
    # the rounding of merit_phi scales with |f| + ||h|| + g, not with the
    # gap denom * theta that a shrink of theta opens, so a few ULPs may not
    # clear it: shrink by a doubling relative step, up to 1e-9
    shrink = 0.0
    while shrink <= 1e-9:
        theta_new = theta_eq * (1.0 - shrink)
        if holds(theta_new):
            return theta_new
        shrink = max(2.0 * shrink, 2.0**-52)
    raise InvariantError("penalty update failed to verify within a relative"
                         " shrink of 1e-9")


#: Factor on the weight an unclipped step predicts: a trial at exactly
#: ``(alpha + b)/2`` meets the descent test with equality when f is
#: quadratic along the step, so the rounding of f and any change of the
#: curvature along the longer step decide it.  The factor leaves the test
#: a slack of ``(factor - 1)(alpha + b) ||s'||^2``.  It decides the start
#: only where the floor at the Newton weight does not bind, where
#: ``b <= factor alpha/(2 - factor)``, 0.024 at the default
#: ``alpha = 0.02``: the floor sets every unclipped start on ``p1``
#: (``b = 1/20``, as on the synthetic family) and on ``p2``.  On the five
#: paper problems the f-evaluations are 47 at factors 1, 1.05, 1.1 and
#: 1.25, and 59 at 1.5 (1,235, 1,188, 1,200, 1,221 and 1,380 over the 108
#: runs of the grid, whose ``alpha = 0.3`` set leaves ``p1`` to the
#: margin): at 1 the first trials fail on the edge, and above 1.1 the
#: steps get shorter.  1.1 doubles the slack of 1.05 for no more
#: f-evaluations there, and 12 more over the grid.
TANGENT_MU_MARGIN = 1.1

#: Fixed constants of the analysis, like :data:`ACCEPTANCE_RATIO`.  Every
#: tangent search starts in ``[MU_MIN, MU_MAX]`` (:func:`tangent_mu_start`),
#: the first at ``MU_INIT``, and the penalty weight starts at ``THETA_0``.
#: The constants chain (:func:`bira.diagnostics.constants`) reads
#: ``MU_MIN`` in the cap on a search's trials, ``MU_MAX`` in the cap on mu
#: and ``THETA_0`` in the penalty floor.
MU_MIN = 1e-3
MU_MAX = 1e3
MU_INIT = 1.0
THETA_0 = 0.5

#: Relative rounding of the unclipped-step test ``a = 2 mu ||s||^2``.  A
#: bound that cuts the step opens a gap ``2 mu w.s >= 0``, with ``w`` the
#: projection residual; without one the gap is rounding of ``g.s`` and of
#: the projection, about ``eps (||g|| / ||P g||)^2`` relative, which stays
#: below 1e-6 while the tangent gradient is above 1e-5 of the full one.
#: Measured at seed 1: unclipped gaps up to 1.1e-8 (``p1``'s last
#: record), clipped ones from 3.2e-2 (``active``).  An unclipped step the
#: test misses gets the rule of a clipped one.
UNCLIPPED_RTOL = 1e-6


def tangent_mu_start(params, mu, f_xR_yR, f_next, step_norm, model_decrease):
    """Weight the next tangent search starts at, from the accepted trial
    at weight ``mu``, its decrease ``D = f_xR_yR - f_next``, its step norm
    and its model decrease (derived in :mod:`bira.solver`).

    With no tangent curvature, ``a = mu ||s||^2 - model_decrease`` is
    ``-g.s``, and ``a = 2 mu ||s||^2`` (to :data:`UNCLIPPED_RTOL`) exactly
    when no bound cut the step.  Then the trial at weight m is
    ``(mu/m) s``, and with ``b = (a - D)/||s||^2``, half the curvature of f
    along s, it passes the descent test iff ``2 m >= alpha + b``: the start
    is :data:`TANGENT_MU_MARGIN` times ``(alpha + b)/2``, but no lower than
    the Newton weight b, clamped to ``[MU_MIN, mu]`` (:data:`MU_MIN` where
    ``alpha + b <= 0``).  The trial at b ends at the minimizer of f's
    quadratic along s, so the floor keeps a search from starting past the
    one-dimensional minimizer it has measured (the safeguarded initial
    step of Nocedal & Wright §3.5 and Moré & Thuente 1994); it binds only
    where ``b > 1.1 alpha/0.9 > alpha``, and a start at b passes the
    descent test whenever ``b >= alpha``, since then ``2 b >= alpha + b``.
    After a clipped step, a zero step or one whose square underflows, the
    start is ``mu/2`` if the step predicts the half passes,
    ``D >= (mu + alpha) ||s||^2``, else ``mu``.  Either start is clamped
    to ``[MU_MIN, MU_MAX]``.
    """
    s2 = step_norm**2
    mu_s2 = mu * s2
    a = mu_s2 - model_decrease
    if s2 > 0.0 and abs(a - 2.0 * mu_s2) <= UNCLIPPED_RTOL * 2.0 * mu_s2:
        b = (a - (f_xR_yR - f_next)) / s2
        start = min(max(TANGENT_MU_MARGIN * (params.alpha + b) / 2.0, b), mu)
    else:
        halve = f_xR_yR - f_next >= (mu + params.alpha) * s2
        start = mu / 2.0 if halve else mu
    return min(max(start, MU_MIN), MU_MAX)


def valid_tolerance(val):
    """Whether ``val`` can be a stopping tolerance: positive and finite."""
    return 0.0 < val < math.inf


def finishing_goal(residual, tolerances):
    """Goal ``(eps_feas, eps_prec)`` of a finishing restoration call, the
    one after a record whose stationarity residual ``residual`` met the
    stopping test's optimality comparison, ``residual <= eps_opt``;
    ``None`` for any other call, and for the first (``residual`` is
    ``None``).  Past ``r`` a finishing call refines in stages until
    :func:`goal_met` holds (see :func:`bira.restoration.resta`)."""
    if residual is None or not residual <= tolerances["eps_opt"]:
        return None
    return tolerances["eps_feas"], tolerances["eps_prec"]


def goal_met(h_norm, g, goal):
    """The stopping test's comparisons of violation and precision with the
    tolerances ``goal = (eps_feas, eps_prec)``."""
    return h_norm <= goal[0] and g <= goal[1]


def held(h_norm, g, r, tolerances):
    """Whether a restoration call holds its input: the violation
    ``h_norm`` and the precision measure ``g`` it starts from already meet
    the feasibility and precision tolerances by the ratio ``r``, so it
    returns that input, refines nothing and skips the failure tests (see
    :func:`bira.solver.restoration_failure`)."""
    return (h_norm <= r * tolerances["eps_feas"]
            and g <= r * tolerances["eps_prec"])


def stopping_test(h_norm, g, residual, tolerances):
    """The stopping test of a record with restored violation ``h_norm``,
    precision measure ``g`` and stationarity residual ``residual``: the
    record opens a :func:`finishing_goal` and meets it."""
    goal = finishing_goal(residual, tolerances)
    return goal is not None and goal_met(h_norm, g, goal)


def precision_ratio(r, contraction, finishing):
    """Ratio each precision level of a restoration call refines by:
    ``min(r, contraction)``, and at most ``r**2`` on a finishing call;
    ``contraction`` is the previous restored call's (``None`` on the first
    call).  A finishing call's stages refine by ``r**2`` on top."""
    rho = r if contraction is None else min(r, contraction)
    return min(rho, r * r) if finishing else rho


#: Precision levels of a restoration call at its ratio (:func:`level_targets`).
N_PREC = 2


def level_targets(y_k, w, rho, level):
    """Targets ``(gf, gh)`` of level ``level`` (from 1) of a restoration
    call from ``y_k`` at ratio ``rho``, after level ``w`` (``y_k`` before
    level 1): gf is ``rho`` times ``y_k``'s, and gh ``rho`` times ``w``'s
    up to level :data:`N_PREC`, then 0, exact constraints.
    :func:`~bira.restoration.resta` refines by it and the audit replays
    it."""
    return rho * y_k.gf, (rho * w.gh if level <= N_PREC else 0.0)


def stage_targets(w, r):
    """Targets ``(gf, gh)`` of a stage at level ``w``: ``r**2`` times
    each."""
    return r * r * w.gf, r * r * w.gh


def restoration_tests(h_xk_yR, h_xR_yR, g_yk, g_yR, r):
    """The two comparisons a restoration outcome must pass, each as
    ``(kind, lhs, rhs)`` that holds iff ``lhs <= rhs``: the violation
    contracted by ``r``, and the precision gain did not outpace the
    feasibility gain (see :func:`bira.solver.restoration_failure`)."""
    return (
        (FAILURE_KINDS[1], h_xR_yR, r * h_xk_yR),
        (FAILURE_KINDS[2],
         ((1.0 - r) / (2.0 * r)) * (g_yk - g_yR), h_xk_yR - h_xR_yR),
    )


def reference_norm(h_norm, w_h, w, beta):
    """A lower bound at level ``w`` of the violation norm of a point
    measured as ``h_norm`` at level ``w_h``: ``max(0, h_norm - delta)``.

    Each measurement lies within ``(beta / 2) g`` of the exact value
    (Krejić & Martínez 2016), so two levels' measurements of one point lie
    at most ``delta = (beta / 2) (w_h.g + w.g)`` apart; ``delta = 0``
    where ``w_h == w``.  :func:`~bira.restoration.resta` returns the bound
    of the outer point's value at ``y_k`` as ``h_xk_yR``, and the audit's
    ``restoration_tests`` replays it."""
    delta = 0.0 if w_h == w else 0.5 * beta * (w_h.g + w.g)
    return max(0.0, h_norm - delta)


def outer_reference(h_xk, y_k, w, beta):
    """``h_xk_yR`` of a restoration call from ``(x_k, y_k)`` that returns
    level ``w``: :func:`reference_norm` of the outer point's violation norm
    ``h_xk`` measured at ``y_k``, or ``None`` where that bound is 0 at a
    level other than ``y_k``.  There the allowance swallows the value, and
    the call measures ``h(x_k, w)`` instead."""
    h = reference_norm(h_xk, y_k, w, beta)
    return None if h == 0.0 and w != y_k else h


def constraint_ssq(h_vec):
    """Half squared norm of the constraint residual vector."""
    h = np.asarray(h_vec, dtype=float)
    return 0.5 * float(np.dot(h, h))


def past_float_range(val):
    """Whether ``val`` is an int that no float holds: JSON digits such as
    ``10**400`` load as one, and converting it raises ``OverflowError``."""
    return type(val) is int and not -FLOAT_MAX <= val <= FLOAT_MAX


def is_number(val):
    """Whether ``val`` is an int or a float that float arithmetic takes;
    JSON true and false load as bool, which Python counts as an int, so a
    bool is not a number, and neither is an int past the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and not past_float_range(val))


def type_name(val):
    """The name a refusal gives the type of ``val``, which is not a
    number: an int is one past the float range."""
    return ("int past the float range" if past_float_range(val)
            else type(val).__name__)


_PARAM_POSITIVE = (
    "alpha",
    "sigma_min",
)


@dataclass(frozen=True)
class AlgorithmParams:
    """Solver parameters; validated once at construction.

    The attribute names double as the flat keys of the CLI config format.
    ``sigma_min`` is the floor of the restoration regularization weight and
    ``M`` the cap on the Gauss-Newton curvature ``||J J^T||``; the
    restoration analysis needs ``M * sigma_min >= 1``, checked here, and
    the defaults ``(sigma_min, M) = (1/64, 64)`` sit on that edge.  A
    restoration trial is accepted on the ratio test of
    :mod:`bira.restoration` alone; the ratio test at ``eta`` certifies the
    descent constant ``2 eta sigma_min`` (1/128 at the defaults), which is
    derived, not a parameter (:data:`ACCEPTANCE_RATIO`).  A z-step at
    weight sigma contracts a linear violation by ``2 sigma / (2 sigma +
    ||J||^2)``, and on a linear row the Gauss-Newton model is exact, so
    the first trial at sigma_min passes whatever the scale of the row.
    On ``p1`` (``||J||^2 = 1/16``) a z-step contracts by 1/3, and a
    restoration call takes 1 z-step (2 at sigma_min = 1/16, where a
    z-step contracts by 2/3; 6 at 1/4; 23 at 1).  ``p1`` then pays 30 h
    evaluations.  A small descent constant raises
    ``restored_distance_factor`` (see :func:`bira.diagnostics.constants`)
    and so lowers the noise budget ``beta_bar``, to which every registered
    problem calibrates its noise: 6.5e-10 on ``p1``.

    ``alpha`` is the tangent descent constant.  A trial at the Newton
    weight b, half of f's curvature along the step, ends at the minimizer
    of f along it, and the search starts there only where
    ``b > 1.1 alpha/0.9`` (see :func:`tangent_mu_start`); the sufficient
    decrease constant is small so that this step is accepted (Nocedal &
    Wright §3.1).  ``p1`` and the synthetic family have ``b = 1/20``: at
    ``alpha = 0.1`` their searches start at the margin instead, and
    ``p1`` takes 12 records; at 0.02 one step from record 1 reaches the
    minimizer and ``p1`` stops in 4.  On the five paper problems the
    counts are the same for every alpha in [0.001, 0.04] (f 39, grad f
    16, h 92, grad h 22, 16 records), and rise from 0.045 on (f 53 at
    0.045, 59 at 0.05, 89 at 0.1); 0.02 keeps a factor 2 below
    ``0.9/1.1 * 1/20``.  Of the derived constants (see
    :func:`bira.diagnostics.constants`) ``step_square_sum_bound``, and
    the residual bound built on it, grow as ``1/alpha``: on ``p1`` it is
    1.7e19 at 0.02 (3.4e18 at 0.1), against an observed sum of squared
    steps of 8.1 (3.6 at 0.1).  ``alpha_effective``, ``mu_cap``,
    ``beta_bar`` and so the calibrated noise do not move.

    The range and start of the tangent weight and the first penalty weight
    are constants of the analysis, not parameters: :data:`MU_MIN`,
    :data:`MU_MAX`, :data:`MU_INIT` and :data:`THETA_0`.
    """

    r: float = 0.5
    r_feas: float = 0.05
    alpha: float = 0.02
    M: float = 64.0
    sigma_min: float = 0.015625

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not is_number(val):
                raise ConfigurationError(f"parameter {f.name} must be a"
                                         f" number, got {type_name(val)}")
            if not math.isfinite(val):
                raise ConfigurationError(f"parameter {f.name} must be finite")
            object.__setattr__(self, f.name, float(val))
        for name in _PARAM_POSITIVE:
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"parameter {name} must be positive")
        if not 0.0 < self.r < 1.0:
            raise ConfigurationError("r must lie in (0, 1)")
        if not 0.0 < self.r_feas < self.r:
            raise ConfigurationError("r_feas must lie in (0, r)")
        if self.M < 1.0:
            raise ConfigurationError("M must be >= 1")
        if self.M * self.sigma_min < 1.0:
            raise ConfigurationError(
                f"M * sigma_min must be >= 1, got {self.M} * {self.sigma_min}"
            )

    @classmethod
    def defaults(cls):
        return cls()

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Build from a flat dict; :class:`ConfigurationError` names every
        key that is not a parameter."""
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"unknown algorithm parameters: {sorted(unknown)}")
        return cls(**d)


_CONSTANT_FIELDS = ("L_f", "L_h", "L_c", "C_f", "C_h", "C_g")


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness and boundedness constants of a problem.

    ``provenance`` says whether the values are analytic or sampled
    estimates: ``"analytic"`` or ``"estimated"``.
    """

    L_f: float
    L_h: float
    L_c: float
    C_f: float
    C_h: float
    C_g: float
    provenance: str = "analytic"

    def __post_init__(self):
        for name in _CONSTANT_FIELDS:
            val = float(getattr(self, name))
            if not (math.isfinite(val) and val >= 0.0):
                raise ConfigurationError(f"constant {name} must be finite and >= 0")
            object.__setattr__(self, name, val)
        if self.C_g < 1.0:
            raise ConfigurationError("C_g must be >= 1")
        if self.provenance not in ("analytic", "estimated"):
            raise ConfigurationError(f"bad provenance {self.provenance!r}")

    @property
    def analytic(self):
        return self.provenance == "analytic"

    def to_dict(self):
        d = {name: getattr(self, name) for name in _CONSTANT_FIELDS}
        d["provenance"] = self.provenance
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**d)
