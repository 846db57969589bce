"""Restoration: drive constraint violation and imprecision down together.

Given the current point and precision, this phase returns a point whose
measured violation has contracted by the ratio ``r`` (toward ``r**2`` on a
deep call, see :func:`resta`) and a precision level refined by
``min(r, c, target)``, where ``c`` is the contraction the previous
restored call achieved (r on the first call), or else declares that the
problem looks locally infeasible: the projected gradient of the violation
measure is small relative to the violation itself even at the tightest
precision the schedule allows.

The inner loop is a regularized Gauss-Newton descent on half the squared
violation norm, restarted from the outer point at each precision level.
It keeps the Jacobian of a level's first z-step, and the curvature factor
built from it, across z-steps (a chord method) until a trial on the kept
Jacobian fails its descent test, a z-step needs more than one trial, or
the stall test fires; only then is the Jacobian evaluated again.  Two
comparisons are deliberately shared with the outer algorithm's failure
test: the success test here compares violation norms with the
same float expression the outer test uses, so success here can never be
contradicted there by rounding.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    AbnormalTermination,
    PrecisionLevel,
    SchemaError,
    check_fields,
    check_ledger,
    check_numbers,
    constraint_ssq,
    infeasibility,
    number_fields,
    number_list,
    precision_ratio,
)
from .diagnostics import restoration_inner_cap, restoration_refine_cap
from .geometry import project_box
from .qp import build_B, solve_restoration_qp

_SIGMA_RUNAWAY = 1e9

#: The ways a restoration call ends.
STATUSES = ("trivial", "restored", "possible_infeasibility")

#: The measured fields of a restoration QP certificate.  The restoration
#: QP has no affine part, so its tangent violation is always zero and is
#: not recorded.
CERT_FIELDS = (
    "model_decrease",
    "stationarity_residual",
    "step_norm",
    "kappa_ratio",
    "kappa_phi_ratio",
)


@dataclass(frozen=True)
class RestorationOutcome:
    """What one restoration call did and produced.

    ``status`` is one of :data:`STATUSES`: ``trivial`` (nothing to do:
    the returned point and precision are the given ones), ``restored``, or
    ``possible_infeasibility``.  ``h_xk_yR`` is the violation at the
    outer point re-measured at the returned precision; the outer failure
    tests consume it directly instead of re-evaluating.  The outcome is the
    only place a trace writes ``y_R``, ``h_xk_yR`` and ``h_xR_yR``; an
    iteration record reads them from here.  ``h_vec`` is the violation
    vector whose norm is ``h_xR_yR``, kept in memory so a zero tangent step
    need not measure it again; a trace does not write it.
    """

    x_R: np.ndarray
    y_R: PrecisionLevel
    status: str
    h_xR_yR: float
    h_xk_yR: float
    refinements: int
    z_steps: int
    inner_desc_tests: int
    sigma_history: tuple
    certificates: tuple
    max_step_over_h: float | None
    ledger_delta: dict
    h_vec: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def contraction(self):
        """Achieved ratio ``h_xR_yR / h_xk_yR``; 0 when there was no
        violation to contract."""
        return self.h_xR_yR / self.h_xk_yR if self.h_xk_yR > 0.0 else 0.0

    def to_dict(self):
        return {
            "x_R": np.asarray(self.x_R).tolist(),
            "y_R": list(self.y_R.as_tuple()),
            "status": self.status,
            "h_xR_yR": self.h_xR_yR,
            "h_xk_yR": self.h_xk_yR,
            "refinements": self.refinements,
            "z_steps": self.z_steps,
            "inner_desc_tests": self.inner_desc_tests,
            "sigma_history": list(self.sigma_history),
            "certificates": {
                name: [c[name] for c in self.certificates]
                for name in CERT_FIELDS
            },
            "max_step_over_h": self.max_step_over_h,
            "ledger_delta": dict(self.ledger_delta),
        }

    @classmethod
    def from_dict(cls, d, n=None):
        """Rebuild an outcome; ``n``, when given, is the length ``x_R``
        must have."""
        what = "restoration outcome"
        check_fields(d, _WRITTEN, what)
        check_numbers(d, what, *number_fields(cls))
        if d["status"] not in STATUSES:
            raise SchemaError(f"unknown restoration status {d['status']!r}")
        check_ledger(d["ledger_delta"], "restoration ledger")
        kw = dict(d)
        kw["x_R"] = np.asarray(number_list(d["x_R"], "x_R", n), dtype=float)
        kw["y_R"] = PrecisionLevel(*number_list(d["y_R"], "y_R", 2))
        kw["sigma_history"] = tuple(number_list(d["sigma_history"],
                                                "sigma_history"))
        kw["certificates"] = _cert_rows(d["certificates"])
        kw["ledger_delta"] = dict(d["ledger_delta"])
        return cls(**kw)


_WRITTEN = tuple(name for name in RestorationOutcome.__dataclass_fields__
                 if name != "h_vec")


def _cert_rows(columns):
    """Transpose certificate columns back into one dict per descent test."""
    check_fields(columns, CERT_FIELDS, "restoration certificate columns")
    for name in CERT_FIELDS:
        number_list(columns[name], f"certificate column {name}")
    lengths = {len(columns[name]) for name in CERT_FIELDS}
    if len(lengths) > 1:
        raise SchemaError("restoration certificate columns differ in length")
    return tuple(
        dict(zip(CERT_FIELDS, row))
        for row in zip(*(columns[name] for name in CERT_FIELDS))
    )


def resta(problem, x_k, y_k: PrecisionLevel, params, *, h_xk_yk,
          inner_cap=None, contraction=None, target=None):
    """Run the restoration phase from ``(x_k, y_k)``.

    ``h_xk_yk`` is the already-measured violation vector at the outer
    point; the phase does not re-evaluate it, neither on a trivial call nor
    when a refinement returns the level it was given.  ``inner_cap`` bounds
    the number of descent tests across all precision levels; exceeding it,
    or the refinement cap, raises :class:`AbnormalTermination`.

    ``contraction`` is :attr:`RestorationOutcome.contraction` of the
    previous restored call (``None`` on the first).  Every refinement of
    this call uses the ratio ``min(r, contraction, target)``, so g shrinks
    at least as fast as the violation did and the ratio ``q = ||h|| / g``
    that the outer failure test reads holds steady
    (see :func:`bira.solver.restoration_failure`).  A contraction of 0 asks
    for exact evaluations: both targets are 0.

    ``target`` is the fraction of the reference violation ``h_ref`` the
    call restores to: ``r`` by default, ``r**2`` on a deep call, which
    ``bira_run`` asks for once a record met the optimality test.  A deep
    call refines at a ratio of at most ``r**2`` and then keeps taking
    z-steps past ``r h_ref``; it returns ``restored`` (``r`` is met) as
    soon as either guard fires:

    - the stall test (projected gradient at most ``r_feas h_ref``, or an
      accepted z-step that left z unchanged), which past ``r`` neither
      refines nor restarts;
    - the floor: the next z-step, predicted to contract by as much as the
      last one did, would take ``||h||`` below ``g_R / (2 r)``.

    The floor is what keeps q balanced.  A deep call that contracts by
    ``c`` below its refinement ratio lowers q by ``c / rho``, and the next
    call needs ``(1 - c') q >= ((1 - r) / (2 r)) (1 - rho')``.  For every
    contraction ``c' <= r`` that holds once ``q >= 1 / (2 r)``, which is
    ``||h|| >= g_R / (2 r)``.

    Each level evaluates ``J = grad h(z, w)`` and its :func:`build_B`
    factor at its first z-step and keeps both across z-steps.  The descent
    test on the measured violation still decides every trial, so a stale
    J can cost a trial but cannot let a step through that fails the test.
    J is evaluated again at the current z only when

    - (i) a trial on the kept J fails its descent test: the stall test is
      redone on the fresh J, and the sigma doubling goes on from that
      trial, so a z-step takes at most ``max(2, sigma_trials_per_step)``
      trials (:func:`bira.diagnostics.constants`);
    - (ii) the stall test fires on the kept J: a stale J can show a small
      projected gradient, or a zero step, where a fresh one would still
      descend, so a stall, and with it a refinement or
      ``possible_infeasibility``, is declared on a fresh J only;
    - (iii) the accepted z-step needed more than its first trial: the
      next first trial on the kept J would likely fail too, and cost a
      trial before the refresh.

    The phase never evaluates the objective or its gradient.
    """
    cap = restoration_inner_cap(None) if inner_cap is None else int(inner_cap)
    refine_cap = restoration_refine_cap(params)
    box = problem.box
    x_k = np.asarray(x_k, dtype=float)
    led0 = problem.ledger.snapshot()

    sigma_hist = []
    certs = []
    desc_tests = 0
    z_steps = 0
    refinements = 0
    max_ratio = None

    def finish(status, x_R, y_R, h_xR_vec, h_xk_ref):
        return RestorationOutcome(
            x_R=np.array(x_R, dtype=float),
            y_R=y_R,
            status=status,
            h_xR_yR=float(np.linalg.norm(h_xR_vec)),
            h_xk_yR=float(h_xk_ref),
            refinements=refinements,
            z_steps=z_steps,
            inner_desc_tests=desc_tests,
            sigma_history=tuple(sigma_hist),
            certificates=tuple(certs),
            max_step_over_h=max_ratio,
            ledger_delta=problem.ledger.delta(led0),
            h_vec=h_xR_vec,
        )

    h_xk_yk_norm = float(np.linalg.norm(h_xk_yk))
    if infeasibility(h_xk_yk_norm, y_k.g) == 0.0:
        return finish("trivial", x_k, y_k, h_xk_yk, h_xk_yk_norm)

    r = params.r
    target = r if target is None else target
    rho = precision_ratio(r, contraction, target)
    w = y_k
    h_ref_vec = h_xk_yk
    while True:
        refinements += 1
        if refinements > refine_cap:
            raise AbnormalTermination(
                "restoration refinement cap exceeded",
                {"refinements": refinements, "desc_tests": desc_tests},
            )
        gf_t = rho * y_k.gf
        if refinements <= params.N_prec:
            gh_t = rho * w.gh
        else:
            gh_t = min(params.eps_prec_bar, rho * w.gh)
        w_prev, w = w, problem.refine(w, gf_t, gh_t)
        if w != w_prev:  # an unchanged level keeps its measurement at x_k
            h_ref_vec = problem.eval_h(x_k, w)
        h_ref = float(np.linalg.norm(h_ref_vec))
        z = x_k.copy()
        h_z_vec = h_ref_vec
        h_z = h_ref
        h_last = None  # the violation before the level's latest z-step
        J = None  # the kept Jacobian; None asks for a fresh one at z
        sigma = params.sigma_min
        trials = 0  # descent tests of the current z-step

        while True:
            if h_z <= target * h_ref:
                return finish("restored", z, w, h_z_vec, h_ref)
            # past r only on a deep call: stop where the next z-step is
            # predicted to cross the floor g/(2r)
            past_r = h_z <= r * h_ref
            if past_r and (h_z / h_last) * h_z < w.g / (2.0 * r):
                return finish("restored", z, w, h_z_vec, h_ref)
            fresh = J is None
            if fresh:
                J, G = problem.eval_grad_h(z, w), None
            grad_c = J.T @ h_z_vec
            pg_resid = float(
                np.linalg.norm(project_box(z - grad_c, box) - z)
            )
            # a stall: the projected gradient is small, or the accepted
            # z-step left z where it was (a zero step passes the descent
            # test without lowering h, and would repeat until the cap)
            stalled = pg_resid <= params.r_feas * h_ref
            if not stalled:
                if G is None:
                    G = build_B(J, params.M)
                c_z = constraint_ssq(h_z_vec)
                while True:
                    if desc_tests >= cap:
                        raise AbnormalTermination(
                            "restoration descent-test cap exceeded",
                            {"refinements": refinements,
                             "desc_tests": desc_tests},
                        )
                    sigma_hist.append(sigma)
                    z_trial, cert = solve_restoration_qp(grad_c, G, sigma, z,
                                                         box)
                    certs.append({name: getattr(cert, name)
                                  for name in CERT_FIELDS})
                    h_trial_vec = problem.eval_h(z_trial, w)
                    c_trial = constraint_ssq(h_trial_vec)
                    desc_tests += 1
                    trials += 1
                    step = float(np.linalg.norm(z_trial - z))
                    passed = c_trial <= c_z - params.alpha_R * step**2
                    if passed:
                        break
                    sigma *= 2.0
                    if sigma > _SIGMA_RUNAWAY:
                        raise AbnormalTermination(
                            "restoration regularization runaway",
                            {"sigma": sigma, "desc_tests": desc_tests},
                        )
                    if not fresh:
                        break
                if not passed:  # a kept J failed: go on at 2 sigma on a fresh J
                    J = None
                    continue
                stalled = np.array_equal(z_trial, z)
            if stalled:
                if not fresh:  # a stall is declared on a fresh J only
                    J = None
                    continue
                if past_r:  # stalled past r: r is met, so keep it
                    return finish("restored", z, w, h_z_vec, h_ref)
                if w.gh <= params.eps_prec_bar:
                    return finish("possible_infeasibility", z, w, h_z_vec,
                                  h_ref)
                break  # refine precision and restart from the outer point

            z_steps += 1
            # h_ref > 0: a level whose h_ref is 0 is restored before its
            # first z-step
            ratio = step / h_ref
            max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
            h_last = h_z
            z = z_trial
            h_z_vec = h_trial_vec
            h_z = float(np.linalg.norm(h_z_vec))
            if trials > 1:  # the step needed more than its first trial
                J = None
            sigma = params.sigma_min
            trials = 0
