"""Projections onto boxes, affine sets, and their intersection.

The optimization phase works inside a moving region: the box intersected
with the affine set tangent to the linearized constraints at the restored
point.  Projection onto a box (bounds may be infinite) cut by an affine set
through a known feasible point is a small convex quadratic program, solved
exactly by a primal active-set method started at that point: each pass is
one affine projection on the coordinates not held at a bound.  The QP layer
solves both of its subproblems with the same routine.
"""

from dataclasses import dataclass

import numpy as np

from .core import BoxPolytope, ContractError, InvariantError, as_point


def project_box(x, box: BoxPolytope):
    """Euclidean projection onto an axis-aligned box."""
    return box.clip(as_point(x, box.dim))


def project_affine(z, A, rhs):
    """Euclidean projection onto ``{x : A x = rhs}``.

    Uses a least-squares solve of ``A A^T lam = A z - rhs``, which handles
    rank-deficient rows; if the system is inconsistent the projection onto
    the closest consistent set is returned.
    """
    z = np.asarray(z, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if A.shape[0] != rhs.size:
        raise ContractError("affine system shape mismatch")
    gram = A @ A.T
    lam, *_ = np.linalg.lstsq(gram, A @ z - rhs, rcond=None)
    return z - A.T @ lam


@dataclass(frozen=True)
class TangentSet:
    """Box intersected with the tangent affine set ``{x : A (x - center) = 0}``.

    Rows of ``A`` are the constraint gradients at the restored point.
    """

    box: BoxPolytope
    A: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        center = as_point(self.center, self.box.dim)
        if A.shape[1] != self.box.dim:
            raise ContractError("tangent matrix column count != box dimension")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "center", center)


def project_polyhedron(z, lower, upper, A, center):
    """Euclidean projection of ``z`` onto ``{x : lower <= x <= upper,
    A (x - center) = 0}``, exact up to rounding.

    Bounds may be infinite, and equal: a coordinate with ``lower ==
    upper`` is held from the start and never released.  ``center`` must
    belong to the set.  Primal
    active-set method (Nocedal & Wright, *Numerical Optimization*, 16.5)
    from the center: each pass projects ``z`` onto the affine set with the
    held bounds fixed.  A step that would cross a bound stops at the first
    one and holds it; a full step releases the held bound whose multiplier
    has the wrong sign, or returns if none has.  More than ``10 (n + 1)``
    passes raise :class:`InvariantError`.
    """
    x = np.array(center, dtype=float)
    fixed = lower == upper  # held from the start, with a multiplier of
    held = fixed.copy()     # either sign, so never released
    released = None
    for _ in range(10 * (z.size + 1)):
        free = ~held
        A_free = A[:, free]
        y = x.copy()
        # with no more free coordinates than independent rows on them, the
        # held bounds pin the point and a projection would only add rounding
        if (free.sum() > A.shape[0]
                or free.sum() > np.linalg.matrix_rank(A_free)):
            y[free] = project_affine(z[free], A_free, A_free @ x[free])
        p = y - x
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(y < lower, (lower - x) / p,
                         np.where(y > upper, (upper - x) / p, np.inf))
        j = int(np.argmin(t))
        if t[j] < np.inf:
            if released is not None and t[released] == 0.0:
                # releasing it bought no step: its multiplier was rounding
                return x
            x = np.clip(x + t[j] * p, lower, upper)
            x[j] = lower[j] if y[j] < lower[j] else upper[j]
            held[j] = True
            released = None
            continue
        x = y
        if not held.any():
            return x
        lam, *_ = np.linalg.lstsq(A_free @ A_free.T, A_free @ (z - x)[free],
                                  rcond=None)
        nu = (x - z + A.T @ lam) * np.where(x == lower, 1.0, -1.0)
        nu[free | fixed] = np.inf
        i = int(np.argmin(nu))
        if nu[i] >= 0.0:
            return x
        held[i] = False
        released = i
    raise InvariantError("polyhedral projection did not settle")


def project_tangent(z, region: TangentSet):
    """Euclidean projection of ``z`` onto ``region``, exact up to rounding."""
    box = region.box
    return project_polyhedron(as_point(z, box.dim), box.lower, box.upper,
                              region.A, region.center)

