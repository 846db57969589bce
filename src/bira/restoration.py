"""Restoration: drive constraint violation and imprecision down together.

Given the current point and precision, this phase returns a point whose
measured violation has contracted by the ratio ``r`` and a precision level
refined by ``min(r, c)``, where ``c`` is the contraction the previous
restored call achieved (r on the first call), or else declares that the
problem looks locally infeasible: the projected gradient of the violation
measure is small relative to the violation itself even at the tightest
precision the schedule allows.

The inner loop is a regularized Gauss-Newton descent on half the squared
violation norm, restarted from the outer point at each precision level.
Two comparisons are deliberately shared with the outer algorithm's
failure test: the success test here compares violation norms with the
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
    def from_dict(cls, d):
        what = "restoration outcome"
        check_fields(d, _WRITTEN, what)
        check_numbers(d, what, *number_fields(cls))
        if d["status"] not in STATUSES:
            raise SchemaError(f"unknown restoration status {d['status']!r}")
        check_ledger(d["ledger_delta"], "restoration ledger")
        kw = dict(d)
        kw["x_R"] = np.asarray(number_list(d["x_R"], "x_R"), dtype=float)
        kw["y_R"] = PrecisionLevel(*number_list(d["y_R"], "y_R"))
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


def _step_ratio(step, denom):
    if denom > 0.0:
        return step / denom
    return 0.0 if step <= 1e-15 else float("inf")


def resta(problem, x_k, y_k: PrecisionLevel, params, *, h_xk_yk,
          inner_cap=None, contraction=None):
    """Run the restoration phase from ``(x_k, y_k)``.

    ``h_xk_yk`` is the already-measured violation vector at the outer
    point; the phase does not re-evaluate it, neither on a trivial call nor
    when a refinement returns the level it was given.  ``inner_cap`` bounds
    the number of descent tests across all precision levels; exceeding it,
    or the refinement cap, raises :class:`AbnormalTermination`.

    ``contraction`` is :attr:`RestorationOutcome.contraction` of the
    previous restored call (``None`` on the first).  Every refinement of
    this call uses the ratio
    ``min(r, contraction)``, so g shrinks as fast as the violation did and
    the ratio of the two that the outer failure test reads holds steady
    (see :func:`bira.solver.restoration_failure`).  A contraction of 0 asks
    for exact evaluations: both targets are 0.

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

    rho = params.r if contraction is None else min(params.r, contraction)
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

        while True:
            if h_z <= params.r * h_ref:
                return finish("restored", z, w, h_z_vec, h_ref)
            J = problem.eval_grad_h(z, w)
            grad_c = J.T @ h_z_vec
            pg_resid = float(
                np.linalg.norm(project_box(z - grad_c, box) - z)
            )
            if pg_resid <= params.r_feas * h_ref:
                if w.gh <= params.eps_prec_bar:
                    return finish("possible_infeasibility", z, w, h_z_vec,
                                  h_ref)
                break  # refine precision and restart from the outer point

            G = build_B(J, params.M)
            sigma = params.sigma_min
            c_z = constraint_ssq(h_z_vec)
            while True:
                if desc_tests >= cap:
                    raise AbnormalTermination(
                        "restoration descent-test cap exceeded",
                        {"refinements": refinements, "desc_tests": desc_tests},
                    )
                sigma_hist.append(sigma)
                z_trial, cert = solve_restoration_qp(grad_c, G, sigma, z, box)
                certs.append({name: getattr(cert, name)
                              for name in CERT_FIELDS})
                h_trial_vec = problem.eval_h(z_trial, w)
                c_trial = constraint_ssq(h_trial_vec)
                desc_tests += 1
                step = float(np.linalg.norm(z_trial - z))
                if c_trial <= c_z - params.alpha_R * step**2:
                    break
                sigma *= 2.0
                if sigma > _SIGMA_RUNAWAY:
                    raise AbnormalTermination(
                        "restoration regularization runaway",
                        {"sigma": sigma, "desc_tests": desc_tests},
                    )
            z_steps += 1
            ratio = _step_ratio(step, h_ref)
            max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
            z = z_trial
            h_z_vec = h_trial_vec
            h_z = float(np.linalg.norm(h_z_vec))
