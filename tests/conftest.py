import importlib.util
import itertools
from pathlib import Path

import numpy as np


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


def table_row(table, i):
    """Row ``i`` of a table as a trace writes it: entry ``i`` of every
    column, with a nested table's entries gathered into one object."""
    return {name: table_row(column, i) if isinstance(column, dict)
            else column[i] for name, column in table.items()}


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
