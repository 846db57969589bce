"""Shared value types and scalar measures for the inexact-restoration solver.

Decision points are plain 1-D float64 numpy arrays throughout the package;
:func:`as_point` validates one at API boundaries.  Precision levels live in
the nonnegative quadrant: ``gf`` bounds the objective evaluation error scale
and ``gh`` the constraint one, and the scalar precision measure is their max.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np


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


def check_fields(payload, fields, what):
    """Raise :class:`SchemaError` unless ``payload`` has exactly ``fields``."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{what} must be a JSON object")
    if set(payload) != set(fields):
        raise SchemaError(
            f"{what} fields differ from the schema:"
            f" missing {sorted(set(fields) - set(payload))},"
            f" unknown {sorted(set(payload) - set(fields))}"
        )


def check_numbers(payload, what, names=None, optional=(), counts=()):
    """Raise :class:`SchemaError` unless ``payload`` is a JSON object whose
    ``names`` fields (all by default) hold numbers; a field in ``optional``
    may also be ``None``, and one in ``counts`` must be a nonnegative
    integer."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for name in payload if names is None else names:
        val = payload[name]
        if name in counts:
            check_count(val, f"{what} field {name!r}")
        elif not (_is_number(val) or (val is None and name in optional)):
            raise SchemaError(f"{what} field {name!r} must be a number,"
                              f" got {type(val).__name__}")


def check_ledger(payload, what):
    """Raise :class:`SchemaError` unless ``payload`` counts every
    evaluation kind of :data:`LEDGER_FIELDS`, and only those."""
    check_fields(payload, LEDGER_FIELDS, what)
    check_numbers(payload, what, counts=LEDGER_FIELDS)


def number_fields(cls):
    """``(names, optional, counts)`` of the fields of dataclass ``cls``
    annotated as numbers, for :func:`check_numbers`: the ``int`` fields
    are counts."""
    types = {name: f.type for name, f in cls.__dataclass_fields__.items()}
    return ([name for name, t in types.items()
             if t in (int, float, float | None)],
            [name for name, t in types.items() if t == float | None],
            [name for name, t in types.items() if t is int])


def number_list(values, what, length=None):
    """Return ``values`` unchanged; :class:`SchemaError` unless it is a
    JSON list of numbers, with ``length`` entries when that is given."""
    if not (isinstance(values, list) and all(map(_is_number, values))):
        raise SchemaError(f"{what} must be a list of numbers")
    if length is not None and len(values) != length:
        raise SchemaError(f"{what} must have {length} entries,"
                          f" got {len(values)}")
    return values


def check_count(val, what):
    """Raise :class:`SchemaError` unless ``val`` is a nonnegative integer."""
    if not (type(val) is int and val >= 0):
        raise SchemaError(f"{what} must be a nonnegative integer,"
                          f" got {val!r}")


def _is_number(val):
    # JSON true and false load as bool, which Python counts as an int
    return isinstance(val, (int, float)) and not isinstance(val, bool)


#: Accuracy targets of the two subproblem solves: constants of the
#: analysis, read by the constants chain and by the audit.  The solves are
#: exact up to rounding, so their certificates sit far inside them.
DEFAULT_KAPPAS = {
    "kappa_R": 10.0,
    "kappa_T": 10.0,
    "kappa": 10.0,
    "kappa_phi": 10.0,
}


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


def restoration_target(r, met_opt):
    """Fraction of its reference violation a restoration call restores to:
    ``r``, or ``r**2`` once the previous record met the optimality test."""
    return r * r if met_opt else r


def precision_ratio(r, contraction, target):
    """Ratio a restoration call refines both precision components by:
    ``min(r, contraction, target)``, where ``contraction`` is the previous
    restored call's (``None`` on the first call) and ``target`` this call's
    :func:`restoration_target`."""
    if contraction is None:
        return min(r, target)
    return min(r, contraction, target)


def restoration_tests(h_xk_yR, h_xR_yR, g_yk, g_yR, r):
    """The two comparisons a restoration outcome must pass, each as
    ``(kind, lhs, rhs)`` that holds iff ``lhs <= rhs``: the violation
    contracted by ``r``, and the precision gain did not outpace the
    feasibility gain (see :func:`bira.solver.restoration_failure`)."""
    return (
        ("insufficient_contraction", h_xR_yR, r * h_xk_yR),
        ("precision_outpaced_feasibility",
         ((1.0 - r) / (2.0 * r)) * (g_yk - g_yR), h_xk_yR - h_xR_yR),
    )


def constraint_ssq(h_vec):
    """Half squared norm of the constraint residual vector."""
    h = np.asarray(h_vec, dtype=float)
    return 0.5 * float(np.dot(h, h))


def infeasibility(h_norm, g_val):
    """Combined infeasibility-plus-imprecision measure ``||h|| + g``."""
    if h_norm < 0.0 or g_val < 0.0:
        raise ContractError("h_norm and g_val must be nonnegative")
    return float(h_norm) + float(g_val)


_PARAM_POSITIVE = (
    "alpha_R",
    "alpha",
    "sigma_min",
    "mu_min",
)


@dataclass(frozen=True)
class AlgorithmParams:
    """Solver parameters; validated once at construction.

    The attribute names double as the flat keys of the CLI config format.
    ``sigma_min`` is the floor of the restoration regularization weight and
    ``M`` the cap on the Gauss-Newton curvature ``||J J^T||``; the
    restoration analysis needs ``M * sigma_min >= 1``, checked here.  The
    defaults ``(M, sigma_min) = (4, 0.25)`` sit on that edge.  A z-step at
    weight sigma contracts a linear violation by
    ``2 sigma / (2 sigma + ||J||^2)``, and on a linear row the restoration
    descent test accepts that step iff ``||J||^2 + 4 sigma >= 2 alpha_R``.
    On ``p1`` (``||J||^2 = 1/16``) that is sigma >= 0.234, so 0.25 is the
    smallest power-of-two floor whose first trial passes, and a restoration
    call takes 6 z-steps (23 at sigma_min = 1).  A floor of 1/8 fails the
    test and pays a second trial per z-step.
    """

    r: float = 0.5
    r_feas: float = 0.05
    alpha: float = 0.1
    alpha_R: float = 0.5
    M: float = 4.0
    sigma_min: float = 0.25
    mu_min: float = 1e-3
    mu_max: float = 1e3
    mu_init: float = 1.0
    theta_0: float = 0.5
    eps_prec_bar: float = 0.0
    N_prec: int = 2

    def __post_init__(self):
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
        if self.mu_max < self.mu_min:
            raise ConfigurationError("mu_max must be >= mu_min")
        if not self.mu_min <= self.mu_init <= self.mu_max:
            raise ConfigurationError("mu_init must lie in [mu_min, mu_max]")
        if not 0.0 < self.theta_0 < 1.0:
            raise ConfigurationError("theta_0 must lie in (0, 1)")
        if self.eps_prec_bar < 0.0:
            raise ConfigurationError("eps_prec_bar must be nonnegative")
        # restoration_iter_cap is a multiple of N_prec, so 0 would leave a
        # restoration call no descent test at all
        if not (isinstance(self.N_prec, int) and self.N_prec >= 1):
            raise ConfigurationError("N_prec must be a positive integer")
        for f in fields(self):
            if f.type is float:
                val = float(getattr(self, f.name))
                if not math.isfinite(val):
                    raise ConfigurationError(
                        f"parameter {f.name} must be finite")
                object.__setattr__(self, f.name, val)

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
