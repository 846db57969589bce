import dataclasses
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from bira.core import (
    LEDGER_FIELDS,
    AlgorithmParams,
    BoxPolytope,
    PrecisionLevel,
)
from bira.oracle import SyntheticProblem, _calibrated_constants
from bira.trace import (
    CALL_TABLE,
    RECORD_TABLE,
    TRIAL_TABLE,
    RunReport,
    read_table,
    read_vector,
    write_vector,
)

#: The tables of a written trace and their layouts.
TABLES = {"records": RECORD_TABLE, "calls": CALL_TABLE, "trials": TRIAL_TABLE}

#: The restoration parameters ``(sigma_min, M) = (1/4, 4)``, on the edge
#: ``M sigma_min = 1`` that :class:`AlgorithmParams` admits: the derived
#: descent constant is ``2 eta sigma_min = 1/8``, and a z-step on p1's row
#: (``||J||**2 = 1/16``) contracts by 8/9.  A test that pins a run at that
#: point passes them.
EDGE_RESTORATION = {"sigma_min": 0.25, "M": 4.0}


def kkt_min_quadratic_box_line(x_f, div, a, b, lower, upper):
    """Brute-force KKT enumeration for a separable quadratic on a slice.

    Minimizes ``sum((x - x_f)^2) / div`` subject to ``a @ x = b`` and the
    bounds, by trying every lower/free/upper activity pattern and keeping
    the best KKT-consistent candidate.  Independent of the package under
    test on purpose.
    """
    n = len(x_f)
    best_val, best_x = None, None
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        fixed = {i: (lower[i] if s < 0 else upper[i])
                 for i, s in enumerate(pattern) if s}
        free = [i for i in range(n) if pattern[i] == 0]
        if not free:
            x = np.array([fixed[i] for i in range(n)])
            if abs(a @ x - b) > 1e-9:
                continue
            lam = 0.0
        else:
            rhs = b - sum(a[i] * v for i, v in fixed.items())
            af = a[free]
            denom = float(af @ af)
            if denom == 0.0:
                continue
            lam = (af @ x_f[free] - rhs) * (2.0 / div) / denom
            x = np.empty(n)
            for i in range(n):
                if i in fixed:
                    x[i] = fixed[i]
                else:
                    x[i] = x_f[i] - lam * a[i] * div / 2.0
            if any(x[i] < lower[i] - 1e-12 or x[i] > upper[i] + 1e-12
                   for i in free):
                continue
        ok = True
        for i, s in enumerate(pattern):
            g = 2.0 * (x[i] - x_f[i]) / div + lam * a[i]
            if (s > 0 and g > 1e-12) or (s < 0 and g < -1e-12):
                ok = False
                break
        if not ok:
            continue
        val = float(np.sum((x - x_f) ** 2) / div)
        if best_val is None or val < best_val:
            best_val, best_x = val, x
    return best_x, best_val


def record_row(trace, k):
    """Record ``k`` of a written trace as one row: entry ``k`` of every
    column, a nested table's gathered into one object, and every packed
    value decoded; its restoration call is row ``k`` of the calls table
    (:func:`call_row`)."""
    return read_table(trace["records"], RECORD_TABLE, "records")[k]


def call_row(trace, k):
    """Row ``k`` of a written trace's calls table, read as
    :func:`record_row` reads a record: record ``k``'s restoration call, or
    the failing call where ``k`` is the record count."""
    return read_table(trace["calls"], CALL_TABLE, "calls")[k]


def first_trial(trace, k):
    """The row of the trials table that holds the first trial of call
    ``k``: the trials of the calls before it."""
    return sum(trace["calls"]["trials"][:k])


def _unpack(table, spec):
    for name in spec.columns:
        if name in spec.nested:
            _unpack(table[name], spec.nested[name])
        elif name in spec.packed:
            table[name] = read_vector(table[name], name, finite=False).tolist()


def _pack(table, spec):
    for name in spec.columns:
        if name in spec.nested:
            _pack(table[name], spec.nested[name])
        elif name in spec.packed:
            table[name] = write_vector(table[name])


def edit_packed(d, edit):
    """Call ``edit(d)`` on the written trace ``d`` with every packed column
    of its three tables decoded into a list of floats (a null of a
    nullable column is NaN), and pack the columns again afterwards, so an
    edit of a packed value, or of a column's length, keeps its intent."""
    for name, spec in TABLES.items():
        _unpack(d[name], spec)
    edit(d)
    for name, spec in TABLES.items():
        _pack(d[name], spec)


def _same(a, b):
    """Whether ``a`` and ``b`` are equal field for field, every float and
    array bit for bit; a dataclass field that does not take part in its
    equality is skipped."""
    if isinstance(a, np.ndarray) or isinstance(a, float):
        a, b = np.asarray(a), np.asarray(b)
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a) if f.compare)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[key], b[key]) for key in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(_same, a, b)))
    return type(a) is type(b) and a == b


def assert_reloads_equal(report):
    """Assert that ``report`` loads back from its written JSON trace equal
    to itself, field for field: the fields a trace does not write
    included, and every float bit for bit."""
    text = json.dumps(report.to_dict())
    back = RunReport.from_dict(json.loads(text))
    assert _same(back, report), report.problem_name
    assert json.dumps(back.to_dict()) == text


def assert_stops_at_its_restored_point(report):
    """Assert that the converged run ``report`` stopped at its last
    record's restored point: that record alone searched no tangent step,
    and it spent past its restoration call only the gradients at x_R."""
    assert report.status == "Converged"
    *searched, last = report.records
    assert all(rec.ell_count > 0 for rec in searched)
    assert last.stopped and last.ell_count == 0
    spent = {key: last.ledger_delta[key] - last.resta.ledger_delta[key]
             for key in LEDGER_FIELDS}
    assert spent == {"f_evals": 0, "gradf_evals": 1, "h_evals": 0,
                     "gradh_evals": 1}
    assert report.final_x.tobytes() == last.x_R.tobytes()


def load_bench_run(monkeypatch):
    """The benchmark's runner script, ``bench/run.py``, as a module.
    Importing it pins BLAS threads and extends ``sys.path``; ``monkeypatch``
    undoes both."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def load_synth():
    """The benchmark's synthetic problem family, ``bench/synth.py``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "synth.py"
    spec = importlib.util.spec_from_file_location("synth", path)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth


def make_highdim():
    """The benchmark's first ``highdim`` problem: n = 100, m = 5, seed 1."""
    return load_synth().make_synthetic("highdim0", 100, 5, 1)


def make_unit_row(params=None):
    """f = (a.x)^2 / 2 subject to a.x = 1 with the unit row a = (1/2, 1/2,
    1/2, 1/2): the gradient of f stays in the range of J^T, so at inexact
    precision only noise is left after the tangent projection and every
    tangent step snaps to zero.

    Its constants are its own, over its box [-10, 10]^4, where a.x lies in
    [-20, 20] and ||a|| = 1: |f| <= 200; ||grad f|| = |a.x| <= 20, and grad
    f is 1-Lipschitz (its Hessian a a^T has norm 1); |h| <= 21; and
    ||grad h|| = 1, with a constant Jacobian.  Its noise is calibrated to
    them at ``params``."""
    n = 4
    a = np.ones(n) / 2.0
    y0 = PrecisionLevel(0.5, 0.5)
    ns, pc = _calibrated_constants(params or AlgorithmParams.defaults(),
                                   y0.g, C_f=200.0, L_f=20.0, C_h=21.0,
                                   G_h=1.0)
    return SyntheticProblem(
        "unit_row", BoxPolytope(-10.0 * np.ones(n), 10.0 * np.ones(n)),
        objective=lambda x: 0.5 * float(a @ x) ** 2,
        objective_grad=lambda x: float(a @ x) * a,
        constraint=lambda x: np.array([float(a @ x) - 1.0]),
        constraint_jac=lambda x: a[None, :],
        m=1, x0=np.array([2.0, 1.0, 0.0, 1.0]), y0=y0,
        problem_constants=pc, noise_scale_f=ns, noise_scale_h=ns,
    )


def make_face_row(a, params=None):
    """f = 0.05 ||x||^2 subject to a.x = 3 on [0, 5] x [-1, 1] x [-5, 5]
    from x0 = (0, 1, 1/2), on its first two bounds.

    Its constants are its own, over its box, where ||x||^2 <= 51: |f| <=
    2.55; ||grad f|| = 0.1 ||x|| <= 0.1 sqrt(51), and grad f is
    0.1-Lipschitz; |h| is largest at a corner; and ||grad h|| = ||a||,
    with a constant Jacobian.  Its noise is calibrated to them at
    ``params``."""
    a = np.asarray(a, dtype=float)
    box = BoxPolytope(np.array([0.0, -1.0, -5.0]), np.array([5.0, 1.0, 5.0]))
    ends = np.stack([a * box.lower, a * box.upper])
    y0 = PrecisionLevel(0.5, 0.5)
    ns, pc = _calibrated_constants(
        params or AlgorithmParams.defaults(), y0.g, C_f=2.55,
        L_f=0.1 * np.sqrt(51.0),
        C_h=max(3.0 - ends.min(axis=0).sum(), ends.max(axis=0).sum() - 3.0),
        G_h=float(np.linalg.norm(a)))
    return SyntheticProblem(
        "face_row", box,
        objective=lambda x: 0.05 * float(x @ x),
        objective_grad=lambda x: 0.1 * x,
        constraint=lambda x: np.array([float(a @ x) - 3.0]),
        constraint_jac=lambda x: a[None, :],
        m=1, x0=np.array([0.0, 1.0, 0.5]), y0=y0,
        problem_constants=pc, noise_scale_f=ns, noise_scale_h=ns,
    )
