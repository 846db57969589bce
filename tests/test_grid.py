"""The robustness grid, pinned.

Every registered problem, the unit-row problem of ``conftest`` and one
synthetic problem run at nine parameter sets and two tolerance sets,
budget 200: 108 runs.  A parameter set applies on top of the defaults;
``edge`` is the restoration point ``(sigma_min, M) = (1/4, 4)``.  Each
run is pinned by its status, failure kind, iteration count and the names
of its failing audit checks, audited against its problem, and the grid by
its ledger totals.  Every run reloads from its trace equal to itself.  A
pinned failure is a row of the table, not a skip, so a change that moves
any run on any parameter set shows here, row by row.
"""

from collections import Counter

import pytest
from conftest import (
    EDGE_RESTORATION,
    assert_reloads_equal,
    assert_stops_at_its_restored_point,
    load_synth,
    make_unit_row,
)

from bira.core import LEDGER_FIELDS, AlgorithmParams
from bira.diagnostics import audit
from bira.oracle import problem_by_name
from bira.solver import bira_run

PARAMS = {
    "defaults": {},
    "edge": EDGE_RESTORATION,
    "alpha=0.3": {"alpha": 0.3},
    "M=2,sigma_min=0.5": {"M": 2.0, "sigma_min": 0.5},
    "M=8,sigma_min=0.125": {"M": 8.0, "sigma_min": 0.125},
    "r=0.7": {"r": 0.7},
    "r=0.3": {"r": 0.3},
    "r_feas=0.2": {"r_feas": 0.2},
    "sigma_min=1": {"sigma_min": 1.0},
}
TOLERANCES = {
    "default": {},
    "tight": {"eps_feas": 1e-8, "eps_prec": 1e-8, "eps_opt": 1e-6},
}
BUDGET = 200

CONV, FAIL = "Converged", "RestorationFailure"
INFEAS = "possible_infeasibility"

#: Per parameter set, one row per run: the problem, the tolerance set, the
#: status, the failure kind and the number of iteration records.  p3 is
#: infeasible, and every other run converges.
GRID = {
    "defaults": [
        ("p1", "default", CONV, None, 4),
        ("p1", "tight", CONV, None, 4),
        ("p2", "default", CONV, None, 7),
        ("p2", "tight", CONV, None, 9),
        ("p3", "default", FAIL, INFEAS, 0),
        ("p3", "tight", FAIL, INFEAS, 0),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
    "edge": [
        ("p1", "default", CONV, None, 4),
        ("p1", "tight", CONV, None, 4),
        ("p2", "default", CONV, None, 11),
        ("p2", "tight", CONV, None, 17),
        ("p3", "default", FAIL, INFEAS, 0),
        ("p3", "tight", FAIL, INFEAS, 0),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
    "alpha=0.3": [
        ("p1", "default", CONV, None, 29),
        ("p1", "tight", CONV, None, 44),
        ("p2", "default", CONV, None, 7),
        ("p2", "tight", CONV, None, 9),
        ("p3", "default", FAIL, INFEAS, 0),
        ("p3", "tight", FAIL, INFEAS, 0),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
    "M=2,sigma_min=0.5": [
        ("p1", "default", CONV, None, 4),
        ("p1", "tight", CONV, None, 4),
        ("p2", "default", CONV, None, 12),
        ("p2", "tight", CONV, None, 17),
        ("p3", "default", FAIL, INFEAS, 0),
        ("p3", "tight", FAIL, INFEAS, 0),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
    "M=8,sigma_min=0.125": [
        ("p1", "default", CONV, None, 4),
        ("p1", "tight", CONV, None, 4),
        ("p2", "default", CONV, None, 12),
        ("p2", "tight", CONV, None, 19),
        ("p3", "default", FAIL, INFEAS, 0),
        ("p3", "tight", FAIL, INFEAS, 0),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
    "r=0.7": [
        ("p1", "default", CONV, None, 4),
        ("p1", "tight", CONV, None, 4),
        ("p2", "default", CONV, None, 7),
        ("p2", "tight", CONV, None, 9),
        ("p3", "default", FAIL, INFEAS, 1),
        ("p3", "tight", FAIL, INFEAS, 1),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
    "r=0.3": [
        ("p1", "default", CONV, None, 4),
        ("p1", "tight", CONV, None, 4),
        ("p2", "default", CONV, None, 7),
        ("p2", "tight", CONV, None, 9),
        ("p3", "default", FAIL, INFEAS, 0),
        ("p3", "tight", FAIL, INFEAS, 0),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
    "r_feas=0.2": [
        ("p1", "default", CONV, None, 4),
        ("p1", "tight", CONV, None, 4),
        ("p2", "default", CONV, None, 7),
        ("p2", "tight", CONV, None, 9),
        ("p3", "default", FAIL, INFEAS, 0),
        ("p3", "tight", FAIL, INFEAS, 0),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
    "sigma_min=1": [
        ("p1", "default", CONV, None, 4),
        ("p1", "tight", CONV, None, 4),
        ("p2", "default", CONV, None, 13),
        ("p2", "tight", CONV, None, 19),
        ("p3", "default", FAIL, INFEAS, 0),
        ("p3", "tight", FAIL, INFEAS, 0),
        ("p4", "default", CONV, None, 1),
        ("p4", "tight", CONV, None, 1),
        ("syn", "default", CONV, None, 3),
        ("syn", "tight", CONV, None, 3),
        ("unit_row", "default", CONV, None, 2),
        ("unit_row", "tight", CONV, None, 2),
    ],
}

#: The failing audit checks of a run; every other run audits clean.
#: ``bench/synth.py`` calibrates its noise at the default parameters, so at
#: r = 0.7 the synthetic problem's noise exceeds the budget of the run's
#: own parameters.
FAILING = {
    ("r=0.7", "syn", "default"): ["noise_within_budget"],
    ("r=0.7", "syn", "tight"): ["noise_within_budget"],
}

LEDGER_TOTALS = {"f_evals": 740, "gradf_evals": 447, "h_evals": 4460,
                 "gradh_evals": 575}

ROWS = [(label, *row) for label, rows in GRID.items() for row in rows]


@pytest.fixture(scope="module")
def grid():
    """Every run of the grid, ``(report, audit)`` by ``(parameter set,
    problem, tolerance set)``."""
    synth = load_synth()
    runs = {}
    for label, name, tol, *_ in ROWS:
        params = AlgorithmParams(**PARAMS[label])
        if name == "syn":
            problem = synth.make_synthetic("syn", 30, 6, 5, base=2,
                                           row_scale=0.5, n_active=3)
        elif name == "unit_row":
            problem = make_unit_row(params)
        else:
            problem = problem_by_name(name, params)
        report = bira_run(problem, params, budget=BUDGET, **TOLERANCES[tol])
        runs[label, name, tol] = report, audit(report, problem)
    return runs


@pytest.mark.parametrize("label,name,tol,status,kind,iterations", ROWS,
                         ids=["-".join(row[:3]) for row in ROWS])
def test_grid_run(grid, label, name, tol, status, kind, iterations):
    report, result = grid[label, name, tol]
    failure = report.failure_info
    assert report.status == status
    assert (failure and failure["kind"]) == kind
    assert report.iterations == iterations
    assert ([check.name for check in result.failures]
            == FAILING.get((label, name, tol), []))
    assert_reloads_equal(report)
    if status == CONV:
        assert_stops_at_its_restored_point(report)


def test_grid_totals(grid):
    reports = [report for report, _ in grid.values()]
    assert Counter(report.status for report in reports) == {CONV: 90,
                                                            FAIL: 18}
    assert {key: sum(report.ledger_totals[key] for report in reports)
            for key in LEDGER_FIELDS} == LEDGER_TOTALS
