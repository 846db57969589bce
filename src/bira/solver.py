"""Outer loop: restore, update the penalty weight, take a tangent step.

Each iteration runs the restoration phase, applies the two restoration
failure tests, rebalances the penalty weight so the merit function is
guaranteed to decrease by a fixed fraction of the restoration gain, and
then searches over the regularization weight for a tangent step passing
both acceptance tests.  The tangent phase works at the restored precision
``y_R`` throughout: its gradient, tangent region and merit reference are
measured there once, and the accepted point hands ``y_R`` on as the next
iteration's precision.  Everything measurable about the iteration is
written into an :class:`IterationRecord`; a finished run returns a
:class:`RunReport` that serializes losslessly, so audits can replay it
without touching the problem again.

The search doubles the weight mu from a start that the previous accepted
step chose: half its weight if that step predicts the half will pass the
descent test, its weight otherwise.  With no tangent curvature the trial
at mu is ``s = -Pg/(2 mu)``, so ``g.s = -2 mu |s|^2`` and the trial at
mu/2 is 2s; if f is quadratic along that ray, the decrease at mu/2 is
``4 D - 4 mu |s|^2`` with ``D = f_xR_yR - f_next`` the decrease at mu, and
it meets ``alpha |2s|^2`` iff ``D >= (mu + alpha) |s|^2``.  Like
Levenberg-Marquardt damping, the weight falls only when the accepted step
earns it; halving it unconditionally paid a rejected first trial on most
iterations of ``p1`` and ``p2``.

No oracle value is measured twice.  The value and violation measured for
the accepted point of one iteration are the current-point measurements of
the next (restoration takes the violation vector, not only its norm); a
zero tangent step takes f from the penalty update and the violation
vector from the restoration outcome; and the gradient used by the tangent
model is the one the stopping test projects.  The per-iteration ledger
deltas in the records are the proof.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .core import (
    AbnormalTermination,
    AlgorithmParams,
    ConfigurationError,
    InvariantError,
    ProblemConstants,
    SchemaError,
    check_count,
    check_fields,
    check_ledger,
    check_numbers,
    merit_allowance,
    merit_test,
    number_fields,
    number_list,
    restoration_target,
    restoration_tests,
)
from .diagnostics import constants as derived_constants
from .diagnostics import restoration_inner_cap
from .geometry import TangentSet, project_tangent
from .qp import SolveCertificate, build_H, solve_tangent_qp
from .restoration import RestorationOutcome, resta

TRACE_VERSION = 8


def restoration_failure(h_xk_yR, h_xR_yR, g_yk, g_yR, r):
    """The two declare-failure tests applied to a restoration outcome.

    Returns ``(failed, kind)``.  The first test rejects insufficient
    contraction of the violation; the second rejects a precision gain
    that outpaces the feasibility gain by more than the fixed ratio.

    What the second test protects.  Write ``dh = h_xk_yR - h_xR_yR`` and
    ``dg = g_yk - g_yR``.  :func:`update_penalty` needs a weight theta with
    ``theta (f_xR_yR - f_xk_yR) <= (1 - theta) dh - ((1 - r)/2)(dh + dg)``.
    When ``dh >= ((1 - r)/(2 r)) dg`` the right side is at least
    ``((1 - r)/2 - theta) dh``, so every theta up to
    ``((1 - r)/2) dh / (|f_xR_yR - f_xk_yR| + dh)`` works.  The first test
    makes ``dh >= (1 - r) h_xk_yR``, the restored distance bounds the change
    in f by a multiple of ``h_xk_yk + g_yk``, and this test bounds
    ``g_yk = dg / (1 - rho)`` by a multiple of ``dh``, where
    ``rho = g_yR / g_yk <= r``.  So the weight stays above a floor fixed by
    the constants chain (``penalty_floor``, audited by
    ``theta_lower_bound``).  Without the test a call that refines precision
    but barely moves the violation would drive theta to zero.

    Why the tied precision ratio cannot trip it.  With ``q = h_xk_yR /
    g_yk`` and ``c = h_xR_yR / h_xk_yR`` the test reads
    ``(1 - c) q >= ((1 - r)/(2 r)) (1 - rho)``.  The tangent step stays on
    the linearized constraints, so the next call starts near ``h = c
    h_xk_yR`` at ``g = rho g_yk``: each call multiplies q by ``c / rho``.
    At a fixed ``rho = r`` a restoration faster than r shrinks q every call
    until the test trips (``p2`` at ``(M, sigma_min) = (4, 0.25)``: q
    from 1.84 to 0.46 in nine iterations at c near 0.44; tied, it settles
    at 1.73).  :func:`~bira.restoration.resta` refines at
    ``rho = min(r, c_prev)``, the contraction the previous restored call
    achieved, so the factors telescope: after call k, q is ``q_0 c_k / r``.
    It depends on the latest contraction only, and at a steady contraction c
    the test holds at every call once ``q_0 >= (1 - r)/(2 c)``, which at
    ``c = r`` is the test of the first call.  A contraction of 0 asks the
    next call for exact evaluations (both targets 0, ``rho = 0``); that test
    then needs ``dh >= ((1 - r)/(2 r)) g_yk`` from a point restored
    exactly, which holds only if the tangent step reopened that much
    violation.  On a linear row a damped z-step contracts the violation by
    ``2 sigma / (2 sigma + ||J||^2) > 0``, so there only a box bound
    restores exactly.

    The balance at a deep call.  Once a record met the optimality test the
    next call restores toward ``r**2`` and refines at
    ``rho = min(r, c_prev, r**2)``, which may be below ``c_prev``: q then
    grows by ``c_prev / rho`` and only the call's own contraction c can
    lower it, by ``c / rho``.  The call stops before a z-step predicted to
    take ``||h||`` below ``g_yR / (2 r)``, so it hands on
    ``q >= 1 / (2 r)``, and from there the next call passes this test for
    every contraction ``c' <= r``: ``(1 - c') q >= (1 - r)/(2 r)
    >= ((1 - r)/(2 r)) (1 - rho')``.  Restored past that floor, the
    zero-step problem of the tests at ``(M, sigma_min) = (2, 0.5)`` fails
    the test at the next call.
    """
    for kind, lhs, rhs in restoration_tests(h_xk_yR, h_xR_yR, g_yk, g_yR, r):
        if not lhs <= rhs:
            return True, kind
    return False, None


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


#: Fields of record k + 1 that repeat the hand-off of record k, each with
#: the field it repeats: iteration k + 1 starts from the point, precision,
#: values and weight that iteration k accepted.  A trace does not write
#: them; :meth:`RunReport.from_dict` rebuilds them from the previous
#: record, or from the run's ``start`` block for record 0.
CHAIN = {
    "x_k": "x_next",
    "y_k": "y_R",
    "f_xk_yk": "f_xnext_ynext",
    "h_xk_yk": "h_xnext_ynext",
    "theta_before": "theta_after",
}


@dataclass(frozen=True)
class IterationRecord:
    """Everything one outer iteration measured, decided, and spent.

    Fields hold measured facts only; values that follow from them
    (``x_R``, ``y_R`` and the violations of the restoration outcome, the
    ``g_*`` precision measures and ``step_norm``) are read-only
    properties.  The tangent phase works at the restored precision, so
    the ``*_xnext_ynext`` values are measured at ``y_R``, the precision the
    next iteration starts from.  The :data:`CHAIN` fields are
    kept in memory but written once, by the record or start block they
    repeat, and ``x_next`` is written only when it differs bitwise from
    ``x_R`` (a tangent step that snapped to zero repeats it).
    """

    k: int
    x_k: np.ndarray
    x_next: np.ndarray
    y_k: tuple
    theta_before: float
    theta_after: float
    mu_k: float
    ell_count: int
    h_xk_yk: float
    h_xnext_ynext: float
    f_xk_yk: float
    f_xk_yR: float
    f_xR_yR: float
    f_xnext_ynext: float
    stationarity_residual: float
    resta: RestorationOutcome
    tangent_cert: dict
    oracle_f_error: float | None
    oracle_h_error: float | None
    ledger_delta: dict

    @property
    def x_R(self):
        return self.resta.x_R

    @property
    def y_R(self):
        return self.resta.y_R.as_tuple()

    @property
    def h_xk_yR(self):
        return self.resta.h_xk_yR

    @property
    def h_xR_yR(self):
        return self.resta.h_xR_yR

    @property
    def g_yk(self):
        return max(self.y_k)

    @property
    def g_yR(self):
        return max(self.y_R)

    @property
    def step_norm(self):
        return self.tangent_cert["step_norm"]

    def to_dict(self):
        d = {}
        for name in _WRITTEN:
            val = getattr(self, name)
            if name == "x_next" and val.tobytes() == self.x_R.tobytes():
                continue  # a zero step: from_dict reads x_next as x_R
            if isinstance(val, np.ndarray):
                val = val.tolist()
            elif isinstance(val, RestorationOutcome):
                val = val.to_dict()
            elif isinstance(val, dict):
                val = dict(val)
            d[name] = val
        return d

    @classmethod
    def from_dict(cls, d, chain):
        """Rebuild a record from its written fields and the :data:`CHAIN`
        fields ``chain`` handed to it."""
        what = "iteration record"
        if not isinstance(d, dict):
            raise SchemaError(f"{what} must be a JSON object")
        check_fields(d, _WRITTEN if "x_next" in d else _WRITTEN_AT_X_R, what)
        names, optional, counts = number_fields(cls)
        check_numbers(d, what, [n for n in names if n in _WRITTEN], optional,
                      counts)
        check_fields(d["tangent_cert"], SolveCertificate.__dataclass_fields__,
                     "tangent_cert")
        check_numbers(d["tangent_cert"], "tangent_cert")
        check_ledger(d["ledger_delta"], "ledger_delta")
        kw = dict(d, **chain)
        n = len(chain["x_k"])
        kw["resta"] = RestorationOutcome.from_dict(d["resta"], n)
        kw["x_next"] = (np.asarray(number_list(d["x_next"], "x_next", n),
                                   dtype=float)
                        if "x_next" in d else kw["resta"].x_R)
        # a call that found possible infeasibility ends the run unrecorded
        if kw["resta"].status not in ("trivial", "restored"):
            raise SchemaError("an iteration record cannot hold restoration"
                              f" status {kw['resta'].status!r}")
        return cls(**kw)


_WRITTEN = tuple(name for name in IterationRecord.__dataclass_fields__
                 if name not in CHAIN)
# the fields of a record whose tangent step stayed at x_R
_WRITTEN_AT_X_R = tuple(name for name in _WRITTEN if name != "x_next")


@dataclass
class RunReport:
    """Complete, replayable account of one solver run.

    ``start`` holds the point, precision, objective value and violation
    norm measured before the first iteration; the final point is chosen
    from the records by the status.
    """

    status: str
    problem_name: str
    records: list
    failure_info: dict | None
    start: dict
    params: AlgorithmParams
    tolerances: dict
    constants_basis: dict
    ledger_totals: dict
    budget: int
    trace_version: int = TRACE_VERSION

    @property
    def iterations(self):
        return len(self.records)

    def _final(self):
        if (self.failure_info is not None
                and self.failure_info["kind"] == "possible_infeasibility"):
            out = self.failure_info["resta"]
            return np.asarray(out["x_R"], dtype=float), tuple(out["y_R"])
        if not self.records:
            return self.start["x"], self.start["y"]
        last = self.records[-1]
        if self.status == "Converged":
            return last.x_R, last.y_R
        # out of budget, or a restoration outcome failed its tests: the
        # run stops at the point the last iteration accepted
        return last.x_next, last.y_R

    @property
    def final_x(self):
        return self._final()[0]

    @property
    def final_y(self):
        return self._final()[1]

    def to_dict(self):
        return {
            "status": self.status,
            "problem_name": self.problem_name,
            "records": [rec.to_dict() for rec in self.records],
            "failure_info": copy.deepcopy(self.failure_info),
            "start": {"x": self.start["x"].tolist(),
                      "y": list(self.start["y"]),
                      "f": self.start["f"], "h": self.start["h"]},
            "params": self.params.to_dict(),
            "tolerances": dict(self.tolerances),
            "constants_basis": copy.deepcopy(self.constants_basis),
            "ledger_totals": dict(self.ledger_totals),
            "budget": self.budget,
            "trace_version": self.trace_version,
        }

    @classmethod
    def from_dict(cls, d):
        # the version decides the schema, so it is read before the fields
        if not isinstance(d, dict):
            raise SchemaError("trace must be a JSON object")
        version = d.get("trace_version")
        if version != TRACE_VERSION:
            raise SchemaError(f"trace version {version!r} not supported")
        check_fields(d, cls.__dataclass_fields__, "trace")
        basis = d["constants_basis"]
        check_fields(basis, ("problem_constants", "extras"),
                     "constants basis")
        check_fields(basis["problem_constants"],
                     ProblemConstants.__dataclass_fields__, "problem constants")
        check_numbers(basis["problem_constants"], "problem constants",
                      *number_fields(ProblemConstants))
        check_numbers(basis["extras"], "extras")
        check_fields(d["params"], AlgorithmParams.__dataclass_fields__,
                     "params")
        check_numbers(d["params"], "params")
        check_count(d["budget"], "budget")
        check_fields(d["tolerances"], ("eps_feas", "eps_prec", "eps_opt"),
                     "tolerances")
        check_numbers(d["tolerances"], "tolerances")
        if not all(tol > 0.0 for tol in d["tolerances"].values()):
            raise SchemaError("tolerances must be positive")
        check_ledger(d["ledger_totals"], "ledger totals")
        status = d["status"]
        if status not in ("Converged", "BudgetExceeded", "RestorationFailure"):
            raise SchemaError(f"unknown status {status!r}")
        failure = d["failure_info"]
        if (failure is None) == (status == "RestorationFailure"):
            raise SchemaError("failure info must be written exactly when the"
                              " status is RestorationFailure")
        start = d["start"]
        check_fields(start, ("x", "y", "f", "h"), "start")
        check_numbers(start, "start", ("f", "h"))
        # every point of the run has the start point's length
        n = len(number_list(start["x"], "start x"))
        if failure is not None:
            check_fields(failure, ("kind", "iteration", "resta"),
                         "failure info")
            # the resta status and the two kinds of restoration_failure
            if failure["kind"] not in ("possible_infeasibility",
                                       "insufficient_contraction",
                                       "precision_outpaced_feasibility"):
                raise SchemaError(
                    f"unknown failure kind {failure['kind']!r}")
            check_count(failure["iteration"], "failure iteration")
            out = RestorationOutcome.from_dict(failure["resta"], n)
            if ((out.status == "possible_infeasibility")
                    != (failure["kind"] == "possible_infeasibility")):
                raise SchemaError(
                    f"failure kind {failure['kind']!r} does not match"
                    f" restoration status {out.status!r}")
        if not isinstance(d["records"], list):
            raise SchemaError("trace records must be a JSON list")
        kw = dict(d)
        kw["start"] = {
            "x": np.asarray(start["x"], dtype=float),
            "y": tuple(number_list(start["y"], "start y", 2)),
            "f": start["f"], "h": start["h"],
        }
        kw["params"] = AlgorithmParams.from_dict(d["params"])
        chain = {"x_k": kw["start"]["x"], "y_k": kw["start"]["y"],
                 "f_xk_yk": start["f"], "h_xk_yk": start["h"],
                 "theta_before": float(kw["params"].theta_0)}
        kw["records"] = []
        for i, rec in enumerate(d["records"]):
            rec = IterationRecord.from_dict(rec, chain)
            if rec.k != i:
                raise SchemaError(f"record {i} is labelled k = {rec.k!r}")
            kw["records"].append(rec)
            chain = {name: getattr(rec, src) for name, src in CHAIN.items()}
        kw["tolerances"] = dict(d["tolerances"])
        kw["ledger_totals"] = dict(d["ledger_totals"])
        return cls(**kw)


def _oracle_errors(problem, x, f_meas, h_vec_meas):
    # bira_run takes any object with the oracle interface, exact or not
    f_exact = getattr(problem, "exact_f", lambda x: None)(x)
    h_exact = getattr(problem, "exact_h", lambda x: None)(x)
    if f_exact is None or h_exact is None:
        return None, None
    return (
        abs(f_meas - f_exact),
        float(np.linalg.norm(h_vec_meas - h_exact)),
    )


def bira_run(problem, params=None, *, eps_feas=1e-6, eps_prec=1e-6,
             eps_opt=1e-4, budget=500):
    """Solve ``problem`` to the given tolerances.

    Stops with status ``Converged`` when, at an accepted iteration, the
    restored violation, the restored and carried precision measures, and
    the projected-gradient residual on the tangent region are all within
    tolerance.  ``RestorationFailure`` reports likely local
    infeasibility (or a restoration outcome failing its contraction
    tests); ``BudgetExceeded`` reports running out of iterations.

    A non-positive tolerance or a negative budget raises
    :class:`ConfigurationError`.  An :class:`AbnormalTermination` or
    :class:`InvariantError` raised inside an iteration propagates with the
    outer iteration index added to its summary as ``iteration``.
    """
    params = params or AlgorithmParams.defaults()
    for name, val in (("eps_feas", eps_feas), ("eps_prec", eps_prec),
                      ("eps_opt", eps_opt)):
        if not val > 0.0:
            raise ConfigurationError(f"{name} must be positive, got {val}")
    if budget < 0:
        raise ConfigurationError(f"budget must be nonnegative, got {budget}")

    led_run = problem.ledger.snapshot()
    pc = problem.constants()
    extras = dict(getattr(problem, "extras", dict)() or {})
    tc = derived_constants(pc, params, extras=extras)
    inner_cap = restoration_inner_cap(tc)
    basis = {"problem_constants": pc.to_dict(), "extras": tc.extras}
    tolerances = {"eps_feas": eps_feas, "eps_prec": eps_prec,
                  "eps_opt": eps_opt}

    def finish(status, failure=None):
        return RunReport(
            status=status,
            problem_name=getattr(problem, "name", "unnamed"),
            records=records,
            failure_info=failure,
            start=start,
            params=params,
            tolerances=tolerances,
            constants_basis=basis,
            ledger_totals=problem.ledger.delta(led_run),
            budget=budget,
        )

    records = []
    theta = params.theta_0
    x = np.asarray(problem.x0, dtype=float).copy()
    y = problem.y0
    mu_start = params.mu_init
    contraction = None

    led_iter = problem.ledger.snapshot()
    h_vec = problem.eval_h(x, y)
    f_val = problem.eval_f(x, y)
    h_norm = float(np.linalg.norm(h_vec))
    start = {"x": x.copy(), "y": y.as_tuple(), "f": f_val, "h": h_norm}

    try:
        for k in range(budget):
            if k > 0:
                led_iter = problem.ledger.snapshot()

            # restore deeper once the optimality comparison has held
            target = restoration_target(
                params.r,
                bool(records) and records[-1].stationarity_residual <= eps_opt)
            out = resta(problem, x, y, params, h_xk_yk=h_vec,
                        inner_cap=inner_cap, contraction=contraction,
                        target=target)
            if out.status == "possible_infeasibility":
                return finish(
                    "RestorationFailure",
                    failure={
                        "kind": "possible_infeasibility",
                        "iteration": k,
                        "resta": out.to_dict(),
                    },
                )

            y_R = out.y_R
            g_k, g_R = y.g, y_R.g
            failed, kind = restoration_failure(
                out.h_xk_yR, out.h_xR_yR, g_k, g_R, params.r
            )
            if failed:
                return finish(
                    "RestorationFailure",
                    failure={"kind": kind, "iteration": k,
                             "resta": out.to_dict()},
                )

            if out.status != "trivial":  # a trivial call contracted nothing
                contraction = out.contraction
            x_R = out.x_R
            same_point = bool(np.array_equal(x_R, x))
            same_prec = y_R == y
            if same_prec:
                f_xk_yR = f_val
            else:
                f_xk_yR = problem.eval_f(x, y_R)
            if same_point:
                f_xR_yR = f_xk_yR
            else:
                f_xR_yR = problem.eval_f(x_R, y_R)

            theta_next = update_penalty(
                theta, f_xR_yR, f_xk_yR, out.h_xk_yR, out.h_xR_yR,
                g_k, g_R, params.r,
            )

            allowance = merit_allowance(
                out.h_xk_yR, out.h_xR_yR, g_k, g_R, params.r
            )

            # the tangent model, region and merit reference, all at y_R
            grad_f = problem.eval_grad_f(x_R, y_R)
            region = TangentSet(problem.box, problem.eval_grad_h(x_R, y_R),
                                x_R)
            G = build_H(x_R)
            mu = mu_start
            attempts = 0
            # mu doubles on every rejected trial, so the runaway ends the
            # search
            while True:
                attempts += 1
                x_next, cert = solve_tangent_qp(grad_f, G, mu, x_R, region)
                s_norm = cert.step_norm

                # a zero step stays at (x_R, y_R), which restoration and
                # the penalty update already measured
                stayed = s_norm == 0.0
                f_next = f_xR_yR if stayed else problem.eval_f(x_next, y_R)
                # h decides only the merit test, so a trial that fails the
                # descent test is not measured
                if f_next <= f_xR_yR - params.alpha * s_norm**2:
                    h_next_vec = (out.h_vec if stayed
                                  else problem.eval_h(x_next, y_R))
                    h_next = float(np.linalg.norm(h_next_vec))
                    lhs, rhs = merit_test(f_next, h_next, f_xk_yR,
                                          out.h_xk_yR, g_R, theta_next,
                                          allowance)
                    if lhs <= rhs:
                        break
                mu *= 2.0
                if mu > 1e2 * tc.mu_cap:
                    raise InvariantError(
                        f"regularization runaway at iteration {k}"
                    )

            proj = project_tangent(x_R - grad_f, region)
            residual = float(np.linalg.norm(proj - x_R))

            oracle_f_err, oracle_h_err = _oracle_errors(
                problem, x, f_val, h_vec)

            records.append(IterationRecord(
                k=k,
                x_k=x.copy(),
                x_next=np.asarray(x_next, dtype=float).copy(),
                y_k=y.as_tuple(),
                theta_before=theta,
                theta_after=theta_next,
                mu_k=mu,
                ell_count=attempts,
                h_xk_yk=h_norm,
                h_xnext_ynext=h_next,
                f_xk_yk=f_val,
                f_xk_yR=f_xk_yR,
                f_xR_yR=f_xR_yR,
                f_xnext_ynext=f_next,
                stationarity_residual=residual,
                resta=out,
                tangent_cert=cert.to_dict(),
                oracle_f_error=oracle_f_err,
                oracle_h_error=oracle_h_err,
                ledger_delta=problem.ledger.delta(led_iter),
            ))
            theta = theta_next

            if (out.h_xR_yR <= eps_feas and g_R <= eps_prec
                    and residual <= eps_opt):
                return finish("Converged")

            x = np.asarray(x_next, dtype=float)
            y = y_R
            f_val = f_next
            h_vec = h_next_vec
            h_norm = h_next
            # start at mu/2 only if the accepted step predicts it passes
            # the descent test (derived in the module docstring)
            halve = f_xR_yR - f_next >= (mu + params.alpha) * s_norm**2
            mu_start = min(max(mu / 2.0 if halve else mu, params.mu_min),
                           params.mu_max)
    except (AbnormalTermination, InvariantError) as exc:
        exc.summary["iteration"] = k
        raise

    return finish("BudgetExceeded")
