"""A seeded sweep of the benchmark's synthetic family (``bench/synth.py``).

Every draw is feasible by construction, with a known KKT solution, so a
``RestorationFailure`` is a false declaration.  The draws are listed here,
not generated by the code under test: ``numpy``'s generator at seed 2026
draws n, m, ``row_scale``, the active bounds (0 to 3, at most n - m), the
geometry seed ``base`` and the relabelling ``seed``, in that order.  The
pins are the status of every draw, every audit verdict given the problem,
the distance of each converged draw to its known solution, how often
each rarely reached path fires, and the evaluation totals.  A known false
declaration is a row of :data:`FALSE_INFEASIBLE`, not a skip: mending one
is an edit of the table.
"""

from collections import Counter

import numpy as np
import pytest
from conftest import load_synth

from bira.core import LEDGER_FIELDS
from bira.diagnostics import audit
from bira.solver import bira_run

SEED = 2026
DRAWS = 240


def draws():
    """``(n, m, row_scale, n_active, base, seed)`` of every draw."""
    rng = np.random.default_rng(SEED)
    for _ in range(DRAWS):
        n = int(rng.choice([5, 10, 20]))
        m = int(rng.choice([1, 2, 4]))
        row_scale = float(rng.choice([0.05, 0.25, 1.0, 4.0]))
        n_active = min(int(rng.integers(0, 4)), n - m)
        base = int(rng.integers(0, 10**6))
        seed = int(rng.integers(0, 10**6))
        yield n, m, row_scale, n_active, base, seed


#: The draws a run declares possibly infeasible, by index, with the
#: iteration of the declaration: rows small enough, ``row_scale`` 0.05 but
#: for draw 50, that the stall test, which is not scale free, fires on a
#: feasible problem.  Every other draw converges.
FALSE_INFEASIBLE = {
    11: 2, 18: 2, 27: 1, 30: 1, 34: 2, 43: 2, 48: 1, 50: 5, 60: 1, 80: 1,
    85: 1, 91: 1, 108: 2, 109: 2, 117: 1, 130: 2, 131: 2, 135: 2, 137: 2,
    146: 2, 154: 1, 174: 2, 178: 1, 183: 2, 189: 1, 200: 2, 201: 2, 202: 1,
    203: 2, 209: 1, 211: 2, 212: 1, 213: 2, 218: 1, 219: 1, 224: 2, 237: 1,
}

#: How far a converged run may end from the known solution: the
#: benchmark's reference tolerance (``REFERENCE_TOL`` of ``bench/run.py``).
REFERENCE_TOL = 5e-3

#: How many restoration calls double sigma past ``sigma_min`` and refine
#: more than once, and how many records take a second tangent trial:
#: paths the workloads and the grid never reach.  The 37 refinements are
#: the false declarations, each of which takes all 3 precision levels and
#: declares at gh = 0.
RARE_PATHS = {"sigma_doubled": 0, "refined_again": 37, "second_tangent": 1}

#: The evaluations of the whole sweep, by ledger kind.
LEDGER_TOTALS = {"f_evals": 779, "gradf_evals": 585, "h_evals": 3301,
                 "gradh_evals": 1013}


@pytest.fixture(scope="module")
def sweep():
    """``(report, audit, distance to the known solution)`` of every draw,
    in draw order."""
    synth = load_synth()
    runs = []
    for n, m, row_scale, n_active, base, seed in draws():
        problem = synth.make_synthetic(f"syn{n}", n, m, seed, base=base,
                                       row_scale=row_scale, n_active=n_active)
        report = bira_run(problem)
        runs.append((report, audit(report, problem), float(
            np.linalg.norm(report.final_x - problem.known_solution))))
    return runs


def test_every_draw_ends_as_pinned(sweep):
    ends = {i: (report.status, report.failure_info
                and report.failure_info["kind"], report.iterations)
            for i, (report, *_) in enumerate(sweep)}
    declared = {i: end for i, end in ends.items() if end[0] != "Converged"}
    assert declared == {
        i: ("RestorationFailure", "possible_infeasibility", k)
        for i, k in FALSE_INFEASIBLE.items()}
    assert Counter(end[0] for end in ends.values()) == {
        "Converged": 203, "RestorationFailure": 37}


def test_every_draw_passes_every_audit_check(sweep):
    verdicts = Counter(check.status for _, result, _ in sweep
                       for check in result.checks)
    assert set(verdicts) == {"pass"}


def test_every_converged_draw_ends_at_its_known_solution(sweep):
    assert all(distance <= REFERENCE_TOL for report, _, distance in sweep
               if report.status == "Converged")


def test_the_rarely_reached_paths_fire_as_pinned(sweep):
    calls = [out for report, *_ in sweep for out in report.calls]
    assert {
        "sigma_doubled": sum(any(j > 0 for j, _ in out.trials)
                             for out in calls),
        "refined_again": sum(out.refinements > 1 for out in calls),
        "second_tangent": sum(rec.ell_count > 1 for report, *_ in sweep
                              for rec in report.records),
    } == RARE_PATHS


def test_the_sweep_totals(sweep):
    assert {key: sum(report.ledger_totals[key] for report, *_ in sweep)
            for key in LEDGER_FIELDS} == LEDGER_TOTALS
