"""Inexact evaluation oracles and the benchmark problem family.

A problem exposes its objective and constraints only through evaluations
at a requested precision pair ``y = (gf, gh)``: the returned values may be
off by an error whose scale is proportional to the corresponding
component.  Every evaluation is charged to a ledger so complexity audits
can count work after the fact.  Refinement (tightening ``y``) is free;
evaluating at the tighter level is what costs.

The synthetic problems used in tests and benchmarks add a smooth
deterministic perturbation (a product of two sines of linear forms) whose
magnitude and derivatives have closed-form bounds, so every smoothness
constant reported by :meth:`SyntheticProblem.constants` is analytic, and
the perturbation scale itself is calibrated against the error budget the
convergence theory allows.
"""

import math
from abc import ABC, abstractmethod

import numpy as np

from .core import (
    LEDGER_FIELDS,
    AlgorithmParams,
    BoxPolytope,
    ContractError,
    DomainError,
    PrecisionLevel,
    ProblemConstants,
    as_point,
)
from .diagnostics import constants as derived_constants


class EvaluationLedger:
    """Counts of oracle evaluations by kind, one attribute per
    :data:`~bira.core.LEDGER_FIELDS` entry."""

    def __init__(self):
        self.reset()

    def snapshot(self):
        return {name: getattr(self, name) for name in LEDGER_FIELDS}

    def delta(self, since):
        return {name: getattr(self, name) - since[name]
                for name in LEDGER_FIELDS}

    def reset(self):
        for name in LEDGER_FIELDS:
            setattr(self, name, 0)


class InexactProblem(ABC):
    """Base class for problems evaluated through a precision-controlled oracle.

    Subclasses implement the underscore hooks and set the start of a run,
    the point ``x0`` and the :class:`PrecisionLevel` ``y0``; the public
    ``eval_*`` wrappers validate the point, charge the ledger, dispatch,
    and raise :class:`ContractError` on a result of the wrong shape or with
    a non-finite entry.  The wrappers are the only sanctioned way to
    evaluate: everything that goes through them is counted.
    """

    x0 = None
    y0 = None

    def __init__(self, name, box: BoxPolytope, m):
        self.name = name
        self.box = box
        self.m = int(m)
        self.ledger = EvaluationLedger()

    @property
    def dim(self):
        return self.box.dim

    def _check(self, x):
        x = as_point(x, self.dim)
        if not self.box.contains(x):
            raise DomainError(f"point outside the box domain of {self.name}")
        return x

    def _result(self, oracle, out, shape):
        out = np.asarray(out, dtype=float)
        if out.shape != shape:
            raise ContractError(
                f"{oracle} of {self.name} returned shape {out.shape}"
            )
        if not np.isfinite(out).all():
            raise ContractError(
                f"{oracle} of {self.name} returned a non-finite value"
            )
        return out

    def eval_f(self, x, y: PrecisionLevel):
        x = self._check(x)
        self.ledger.f_evals += 1
        return float(self._result("eval_f", self._f(x, y), ()))

    def eval_grad_f(self, x, y: PrecisionLevel):
        x = self._check(x)
        self.ledger.gradf_evals += 1
        return self._result("eval_grad_f", self._grad_f(x, y), (self.dim,))

    def eval_h(self, x, y: PrecisionLevel):
        x = self._check(x)
        self.ledger.h_evals += 1
        return self._result("eval_h", self._h(x, y), (self.m,))

    def eval_grad_h(self, x, y: PrecisionLevel):
        x = self._check(x)
        self.ledger.gradh_evals += 1
        return self._result("eval_grad_h", np.atleast_2d(self._grad_h(x, y)),
                            (self.m, self.dim))

    def refine(self, y: PrecisionLevel, gf_target, gh_target):
        """Return the precision level of both targets exactly, the level
        the audit's ``precision_refinement`` replays.

        Targets must not exceed the current components; precision never
        degrades over a run.
        """
        if gf_target > y.gf or gh_target > y.gh:
            raise ContractError("refinement target exceeds current precision")
        return PrecisionLevel(float(gf_target), float(gh_target))

    @abstractmethod
    def _f(self, x, y):
        ...

    @abstractmethod
    def _grad_f(self, x, y):
        ...

    @abstractmethod
    def _h(self, x, y):
        ...

    @abstractmethod
    def _grad_h(self, x, y):
        ...

    @abstractmethod
    def constants(self) -> ProblemConstants:
        ...

    def exact_f(self, x):
        """Exact objective value at ``x``; ``None`` when there is none."""
        return None

    def exact_h(self, x):
        """Exact constraint vector at ``x``; ``None`` when there is none."""
        return None

    def extras(self):
        """Constants-chain extras for this problem (see diagnostics)."""
        return {}


class _SineNoise:
    """Product of two sines of linear forms: bounded, smooth, deterministic.

    ``value`` lies in [-1/div, 1/div]; the gradient norm is at most
    ``(w1 + w2)/div`` and the Hessian norm at most ``(w1 + w2)**2/div``.
    """

    def __init__(self, n, rng, w1, w2, div=1.0):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        self.u = u / np.linalg.norm(u)
        self.v = v / np.linalg.norm(v)
        self.w1 = float(w1)
        self.w2 = float(w2)
        self.p1 = float(rng.uniform(0.0, 2.0 * np.pi))
        self.p2 = float(rng.uniform(0.0, 2.0 * np.pi))
        self.div = float(div)

    def value(self, x):
        s1 = math.sin(self.w1 * float(self.u @ x) + self.p1)
        s2 = math.sin(self.w2 * float(self.v @ x) + self.p2)
        return s1 * s2 / self.div

    def grad(self, x):
        a1 = self.w1 * float(self.u @ x) + self.p1
        a2 = self.w2 * float(self.v @ x) + self.p2
        return (
            self.w1 * math.cos(a1) * math.sin(a2) * self.u
            + self.w2 * math.sin(a1) * math.cos(a2) * self.v
        ) / self.div


class SyntheticProblem(InexactProblem):
    """Closed-form problem with a calibrated sine perturbation.

    The perturbation enters multiplied by the matching precision
    component, so evaluations at a zero component are exact; refinement
    hits requested targets exactly.
    """

    def __init__(self, name, box, objective, objective_grad, constraint,
                 constraint_jac, m, x0, y0, problem_constants, *,
                 noise_scale_f=0.0, noise_scale_h=0.0, noise_seed=0,
                 known_solution=None, extra_overrides=None):
        super().__init__(name, box, m)
        self._objective = objective
        self._objective_grad = objective_grad
        self._constraint = constraint
        self._constraint_jac = constraint_jac
        self.x0 = as_point(x0, self.dim)
        self.y0 = y0
        self._pc = problem_constants
        self.noise_scale_f = float(noise_scale_f)
        self.noise_scale_h = float(noise_scale_h)
        self.known_solution = (
            None if known_solution is None else as_point(known_solution, self.dim)
        )
        self._extra_overrides = dict(extra_overrides or {})
        rng = np.random.default_rng(noise_seed)
        self._nf = _SineNoise(self.dim, rng, NOISE_FREQ_F[0], NOISE_FREQ_F[1])
        self._nh = [
            _SineNoise(self.dim, rng, NOISE_FREQ_H[0], NOISE_FREQ_H[1],
                       div=math.sqrt(m))
            for _ in range(m)
        ]

    def _f(self, x, y):
        val = self._objective(x)
        if self.noise_scale_f and y.gf:
            val += self.noise_scale_f * y.gf * self._nf.value(x)
        return val

    def _grad_f(self, x, y):
        g = np.asarray(self._objective_grad(x), dtype=float)
        if self.noise_scale_f and y.gf:
            g = g + self.noise_scale_f * y.gf * self._nf.grad(x)
        return g

    def _h(self, x, y):
        h = np.atleast_1d(np.asarray(self._constraint(x), dtype=float))
        if self.noise_scale_h and y.gh:
            h = h + self.noise_scale_h * y.gh * np.array(
                [nz.value(x) for nz in self._nh]
            )
        return h

    def _grad_h(self, x, y):
        J = np.atleast_2d(np.asarray(self._constraint_jac(x), dtype=float))
        if self.noise_scale_h and y.gh:
            J = J + self.noise_scale_h * y.gh * np.array(
                [nz.grad(x) for nz in self._nh]
            )
        return J

    def constants(self):
        return self._pc

    def exact_f(self, x):
        return float(self._objective(as_point(x, self.dim)))

    def exact_h(self, x):
        x = as_point(x, self.dim)
        return np.atleast_1d(np.asarray(self._constraint(x), dtype=float))

    def extras(self):
        out = {
            "beta": 2.0 * max(self.noise_scale_f, self.noise_scale_h),
            "noise_scale_f": self.noise_scale_f,
            "noise_scale_h": self.noise_scale_h,
        }
        out.update(self._extra_overrides)
        return out


NOISE_FREQ_F = (3.0, 5.0)
NOISE_FREQ_H = (2.0, 7.0)


def _calibrate_noise(pc_for, params):
    """Fixed point of: scale -> ``beta_bar / 2``, the largest scale the
    chain's error budget allows.

    The error bound recorded as ``beta`` is twice the scale, so at the
    fixed point ``beta`` equals ``beta_bar`` up to the 1e-12 tolerance of
    the iteration: the audit's ``noise_within_budget`` row has no margin
    and passes through the relative slack of ``leq``.  The budget depends
    on the smoothness constants, which themselves grow with the scale, so
    iterate; the map is decreasing and the effect of the scale on the
    constants is tiny, giving fast convergence.
    """
    ns = 0.0
    for _ in range(60):
        tc = derived_constants(pc_for(ns), params, extras={"beta": 2.0 * ns})
        ns_new = tc.beta_bar / 2.0
        if ns > 0.0 and abs(ns_new - ns) <= 1e-12 * ns:
            return ns_new
        ns = ns_new
    return ns


def _calibrated_constants(params, g0, *, C_f, L_f, C_h, G_h, LJ=0.0):
    """``(scale, constants)`` of a problem whose exact parts have the
    bounds given, once the sine noise of :func:`_calibrate_noise`'s scale
    at precision ``g0`` is added.

    ``C_f`` bounds the exact ``|f|``, ``L_f`` its gradient norm and the
    gradient's Lipschitz constant, ``C_h`` the exact violation, ``G_h`` the
    constraint Jacobian and ``LJ`` the Jacobian's Lipschitz constant.  The
    noise adds ``scale * g0`` times the :class:`_SineNoise` bounds to each.
    """
    f_noise = max(sum(NOISE_FREQ_F), sum(NOISE_FREQ_F) ** 2)

    def pc_for(ns):
        err = ns * g0
        grad_h = G_h + err * sum(NOISE_FREQ_H)
        lip_J = LJ + err * sum(NOISE_FREQ_H) ** 2
        sup_h = C_h + err
        return ProblemConstants(
            L_f=L_f + err * f_noise, L_h=max(grad_h, lip_J),
            L_c=grad_h**2 + sup_h * lip_J, C_f=C_f + err, C_h=sup_h,
            C_g=max(1.0, g0), provenance="analytic",
        )

    ns = _calibrate_noise(pc_for, params)
    return ns, pc_for(ns)


def _p1_family(name, y0, *, at_solution=False, params=None):
    """Quadratic objective, one scaled linear constraint, dimension 5; the
    start is off the constraint, or at the solution if ``at_solution``."""
    params = params or AlgorithmParams.defaults()
    n = 5
    box = BoxPolytope(-10.0 * np.ones(n), 10.0 * np.ones(n))
    x_f = np.array([1.0, 2.0, -1.0, 0.5, -2.0])
    a = np.ones(n) / math.sqrt(n)
    scale = 0.25

    # the constraint plane lies two units from x_f along its unit normal a,
    # so the plane's nearest point to x_f minimizes f on it
    x_sol = x_f + 2.0 * a
    b = float(a @ x_sol)

    def objective(x):
        d = x - x_f
        return float(d @ d) / 20.0

    def objective_grad(x):
        return (x - x_f) / 10.0

    def constraint(x):
        return np.array([scale * (float(a @ x) - b)])

    def constraint_jac(x):
        return (scale * a)[None, :]

    coord_span = np.maximum(10.0 - x_f, x_f + 10.0)
    sup_dist = float(np.linalg.norm(coord_span))
    sup_lin = 10.0 * math.sqrt(n) + abs(b)
    ns, pc = _calibrated_constants(
        params, y0.g, C_f=sup_dist**2 / 20.0, L_f=max(sup_dist / 10.0, 0.1),
        C_h=scale * sup_lin, G_h=scale)

    tang = np.array([1.0, -1.0, 0.0, 0.0, 0.0]) / math.sqrt(2.0)
    x0 = x_sol.copy() if at_solution else x_f + 10.0 * a + 3.0 * tang

    return SyntheticProblem(
        name, box, objective, objective_grad, constraint, constraint_jac,
        1, x0, y0, pc,
        noise_scale_f=ns, noise_scale_h=ns, noise_seed=11,
        known_solution=x_sol,
    )


def make_p1(params=None):
    """Feasible start two units off the constraint, quadratic objective."""
    return _p1_family("p1", PrecisionLevel(0.5, 0.5), params=params)


def make_p4(params=None):
    """Starts exactly at the solution with exact precision: converges at once."""
    return _p1_family("p4", PrecisionLevel(0.0, 0.0), at_solution=True,
                      params=params)


def make_p2(params=None):
    """Scaled valley objective on the quarter-scaled unit circle."""
    params = params or AlgorithmParams.defaults()
    box = BoxPolytope(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    y0 = PrecisionLevel(0.5, 0.5)

    def objective(x):
        return (100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2) / 1000.0

    def objective_grad(x):
        d = x[1] - x[0] ** 2
        return np.array([
            (-400.0 * x[0] * d - 2.0 * (1.0 - x[0])) / 1000.0,
            200.0 * d / 1000.0,
        ])

    def constraint(x):
        return np.array([(x[0] ** 2 + x[1] ** 2 - 1.0) / 4.0])

    def constraint_jac(x):
        return np.array([[x[0] / 2.0, x[1] / 2.0]])

    ns, pc = _calibrated_constants(params, y0.g, C_f=3.609, L_f=5.75,
                                   C_h=1.75, G_h=math.sqrt(2.0), LJ=0.5)
    return SyntheticProblem(
        "p2", box, objective, objective_grad, constraint, constraint_jac,
        1, np.array([-1.8, 1.2]), y0, pc,
        noise_scale_f=ns, noise_scale_h=ns, noise_seed=23,
        known_solution=None,
    )


def make_p3(params=None):
    """Linear objective subject to an unsatisfiable constraint: the
    restoration phase must detect and report the infeasibility."""
    box = BoxPolytope(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

    def objective(x):
        return (x[0] + 2.0 * x[1]) / 10.0

    def objective_grad(x):
        return np.array([0.1, 0.2])

    def constraint(x):
        return np.array([x[0] ** 2 + 1.0])

    def constraint_jac(x):
        return np.array([[2.0 * x[0], 0.0]])

    pc = ProblemConstants(
        L_f=math.sqrt(0.05), L_h=2.0, L_c=8.0, C_f=0.3, C_h=2.0, C_g=1.0,
        provenance="analytic",
    )
    return SyntheticProblem(
        "p3", box, objective, objective_grad, constraint, constraint_jac,
        1, np.array([0.8, 0.3]), PrecisionLevel(0.0, 0.0), pc,
        noise_scale_f=0.0, noise_scale_h=0.0, noise_seed=31,
        known_solution=None,
    )


_REGISTRY = {
    "p1": make_p1,
    "p2": make_p2,
    "p3": make_p3,
    "p4": make_p4,
    # p1 under a second name, until the benchmark's problem list drops it
    "p1_pdp": lambda params=None: _p1_family(
        "p1_pdp", PrecisionLevel(0.5, 0.5), params=params),
}


#: The names :func:`problem_by_name` builds.
PROBLEM_NAMES = tuple(_REGISTRY)


def problem_by_name(name, params=None):
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ContractError(
            f"unknown problem {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return factory(params=params)
