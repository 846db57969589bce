"""Every value a fresh trace writes, edited once, and what ``bira audit``
makes of it.

A default-parameter run of ``p2``, which converges, and of ``p3``, which
ends in a restoration failure, each write a trace.  Each edit changes one
written value of it:

- each float, each coordinate of a point and each entry of a packed
  column, times 1.001
- each integer plus 1, and minus 1 where it is positive
- ``status`` set to each other run status, and the failure kind to each
  other kind and to the retired ``trivial`` and ``pdp``

Each edited trace is loaded and audited given its problem, built at the
trace's parameters, as ``bira audit`` does.  Its outcome is one of:

- ``no-op``: the edit wrote the trace it started from (0 or a null, the
  quiet NaN, times 1.001)
- ``refused``: loading raised :class:`~bira.core.SchemaError` (exit 1)
- the names of the checks that fail, in audit order (exit 4)
- ``clean``: the audit passed.  Each clean count is a known gap, an edit
  that neither the schema nor any check catches; closing one is an edit
  of :data:`OUTCOMES`.

These are plain edits.  ``TAMPERS`` in ``test_diagnostics.py`` goes past
each bound instead, to show that every check can fail and reads the
failing call.
"""

import collections
import copy
import json

import pytest

from bira.core import FAILURE_KINDS, RUN_STATUSES, SchemaError
from bira.diagnostics import audit
from bira.oracle import problem_by_name
from bira.solver import bira_run
from bira.trace import RunReport, read_vector, write_vector

#: The written strings that no edit changes: names, not labels a run
#: decides or packed floats.
TEXT = {("problem_name",), ("constants_basis", "problem_constants",
                            "provenance")}

#: The retired failure kinds: a call with nothing to restore is restored,
#: and the exact shortcut is gone.
RETIRED_KINDS = ("trivial", "pdp")


def _edits(node, path=()):
    """``(column, path, new value)`` of every edit of the written value
    ``node`` at ``path``; the column is the path without its list
    indices."""
    column = ".".join(key for key in path if isinstance(key, str))
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _edits(val, (*path, key))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _edits(val, (*path, i))
    elif node is None or path in TEXT:
        return
    elif isinstance(node, int):
        yield column, path, node + 1
        if node > 0:
            yield column, path, node - 1
    elif isinstance(node, float):
        yield column, path, node * 1.001
    elif path in (("status",), ("failure_info", "kind")):
        labels = (RUN_STATUSES if path == ("status",)
                  else (*FAILURE_KINDS, *RETIRED_KINDS))
        for label in labels:
            if label != node:
                yield column, path, label
    else:
        values = read_vector(node, column, finite=False)
        for i in range(len(values)):
            edited = values.copy()
            edited[i] *= 1.001
            yield column, path, write_vector(edited)


def _outcome(d):
    """What ``bira audit`` makes of the trace ``d``."""
    try:
        report = RunReport.from_dict(d)
    except SchemaError:
        return "refused"
    problem = problem_by_name(report.problem_name, report.params)
    failed = [c.name for c in audit(report, problem).failures]
    return " ".join(failed) if failed else "clean"


#: Per run, per column, how many of its edits end in each outcome.
OUTCOMES = {
    "p2": {
        "status": {"refused": 1, "stopping_test": 1},
        "records.x_next": {"oracle_f_error_bound oracle_h_error_bound": 12},
        "records.ell_count": {
            "refused": 7,
            "tangent_model_decrease tangent_search": 6},
        "records.h_xnext_ynext": {
            "no-op": 1,
            "oracle_h_error_bound restoration_tests": 6},
        "records.f_xk_yR": {"no-op": 1, "oracle_f_error_bound": 6},
        "records.f_xR_yR": {"no-op": 1, "oracle_f_error_bound": 6},
        "records.f_xnext_ynext": {
            "no-op": 1,
            "tangent_model_decrease oracle_f_error_bound": 4,
            "oracle_f_error_bound tangent_search": 2},
        "records.stationarity_residual": {"clean": 7},
        "records.tangent_cert.model_decrease": {
            "no-op": 1,
            "tangent_model_decrease": 3,
            "clean": 3},
        "records.tangent_cert.stationarity_residual": {"no-op": 4, "clean": 3},
        "records.tangent_cert.step_norm": {
            "no-op": 1,
            "tangent_model_decrease": 5,
            "clean": 1},
        "records.ledger_delta.f_evals": {"tangent_search ledger_totals": 13},
        "records.ledger_delta.gradf_evals": {"ledger_totals": 14},
        "records.ledger_delta.h_evals": {"tangent_search ledger_totals": 14},
        "records.ledger_delta.gradh_evals": {
            "tangent_search ledger_totals": 14},
        "start.x": {"oracle_f_error_bound oracle_h_error_bound": 2},
        "start.y": {
            "precision_refinement restoration_tests": 1,
            "restoration_tests": 1},
        "start.f": {"oracle_f_error_bound": 1},
        "start.h": {"oracle_h_error_bound restoration_tests": 1},
        "params.r": {
            "constants_basis noise_within_budget precision_refinement": 1},
        "params.r_feas": {"constants_basis": 1},
        "params.alpha": {"clean": 1},
        "params.M": {"constants_basis noise_within_budget": 1},
        "params.sigma_min": {"constants_basis": 1},
        "params.eps_prec_bar": {"no-op": 1},
        "params.N_prec": {
            "constants_basis oracle_f_error_bound oracle_h_error_bound "
            "noise_within_budget": 1,
            "constants_basis": 1},
        "tolerances.eps_feas": {"clean": 1},
        "tolerances.eps_prec": {"clean": 1},
        "tolerances.eps_opt": {"clean": 1},
        "constants_basis.problem_constants.L_f": {
            "constants_basis noise_within_budget": 1},
        "constants_basis.problem_constants.L_h": {"constants_basis": 1},
        "constants_basis.problem_constants.L_c": {
            "constants_basis noise_within_budget": 1},
        "constants_basis.problem_constants.C_f": {"constants_basis": 1},
        "constants_basis.problem_constants.C_h": {"constants_basis": 1},
        "constants_basis.problem_constants.C_g": {"constants_basis": 1},
        "constants_basis.extras.beta": {
            "constants_basis noise_within_budget restoration_tests": 1},
        "constants_basis.extras.gamma": {
            "constants_basis noise_within_budget": 1},
        "constants_basis.extras.k_R": {"no-op": 1},
        "constants_basis.extras.noise_scale_f": {"constants_basis": 1},
        "constants_basis.extras.noise_scale_h": {"constants_basis": 1},
        "ledger_totals.f_evals": {"ledger_totals": 2},
        "ledger_totals.gradf_evals": {"ledger_totals": 2},
        "ledger_totals.h_evals": {"ledger_totals": 2},
        "ledger_totals.gradh_evals": {"ledger_totals": 2},
        "budget": {"clean": 2},
        "trace_version": {"refused": 2},
        "calls.x_R": {
            "oracle_f_error_bound oracle_h_error_bound": 12,
            "oracle_h_error_bound": 2},
        "calls.y_R.gf": {"precision_refinement restoration_tests": 7},
        "calls.y_R.gh": {"precision_refinement restoration_tests": 7},
        "calls.h_xR_yR": {
            "oracle_h_error_bound precision_refinement": 6,
            "oracle_h_error_bound": 1},
        "calls.h_xk_yR": {
            "precision_refinement restoration_tests": 6,
            "restoration_tests": 1},
        "calls.refinements": {"precision_refinement": 7, "clean": 7},
        "calls.stages": {"precision_refinement": 8},
        "calls.z_steps": {"restoration_inner_caps": 7, "clean": 7},
        "calls.trials": {"refused": 14},
        "calls.max_step_over_h": {"clean": 7},
        "calls.ledger_delta.f_evals": {"restoration_f_free": 7},
        "calls.ledger_delta.gradf_evals": {"restoration_f_free": 7},
        "calls.ledger_delta.h_evals": {"tangent_search": 14},
        "calls.ledger_delta.gradh_evals": {"tangent_search": 8},
        "trials.doublings": {"doubling_ladder": 7},
        "trials.model_decrease": {"clean": 7},
        "trials.stationarity_residual": {"no-op": 5, "clean": 2},
        "trials.step_norm": {"clean": 7},
    },
    "p3": {
        "status": {"refused": 2},
        "failure_info.kind": {
            "refused": 2,
            "restoration_tests": 1,
            "clean": 1},
        "start.x": {
            "oracle_f_error_bound oracle_h_error_bound": 1,
            "oracle_f_error_bound": 1},
        "start.y": {"no-op": 2},
        "start.f": {"oracle_f_error_bound": 1},
        "start.h": {"oracle_h_error_bound restoration_tests": 1},
        "params.r": {"clean": 1},
        "params.r_feas": {"clean": 1},
        "params.alpha": {"clean": 1},
        "params.M": {"clean": 1},
        "params.sigma_min": {"clean": 1},
        "params.eps_prec_bar": {"no-op": 1},
        "params.N_prec": {"clean": 2},
        "tolerances.eps_feas": {"clean": 1},
        "tolerances.eps_prec": {"clean": 1},
        "tolerances.eps_opt": {"clean": 1},
        "constants_basis.problem_constants.L_f": {"constants_basis": 1},
        "constants_basis.problem_constants.L_h": {"constants_basis": 1},
        "constants_basis.problem_constants.L_c": {"constants_basis": 1},
        "constants_basis.problem_constants.C_f": {"constants_basis": 1},
        "constants_basis.problem_constants.C_h": {"constants_basis": 1},
        "constants_basis.problem_constants.C_g": {"constants_basis": 1},
        "constants_basis.extras.beta": {"no-op": 1},
        "constants_basis.extras.gamma": {"constants_basis": 1},
        "constants_basis.extras.k_R": {"no-op": 1},
        "constants_basis.extras.noise_scale_f": {"no-op": 1},
        "constants_basis.extras.noise_scale_h": {"no-op": 1},
        "ledger_totals.f_evals": {"ledger_totals": 2},
        "ledger_totals.gradf_evals": {"ledger_totals": 1},
        "ledger_totals.h_evals": {"ledger_totals": 2},
        "ledger_totals.gradh_evals": {"ledger_totals": 2},
        "budget": {"clean": 2},
        "trace_version": {"refused": 2},
        "calls.x_R": {"oracle_h_error_bound": 1, "clean": 1},
        "calls.y_R.gf": {"no-op": 1},
        "calls.y_R.gh": {"no-op": 1},
        "calls.h_xR_yR": {"oracle_h_error_bound": 1},
        "calls.h_xk_yR": {"restoration_tests": 1},
        "calls.refinements": {"precision_refinement": 1, "clean": 1},
        "calls.stages": {"clean": 1},
        "calls.z_steps": {"clean": 2},
        "calls.trials": {"refused": 2},
        "calls.max_step_over_h": {"clean": 1},
        "calls.ledger_delta.f_evals": {"restoration_f_free ledger_totals": 1},
        "calls.ledger_delta.gradf_evals": {
            "restoration_f_free ledger_totals": 1},
        "calls.ledger_delta.h_evals": {"ledger_totals": 2},
        "calls.ledger_delta.gradh_evals": {"ledger_totals": 2},
        "trials.doublings": {"doubling_ladder": 12, "clean": 2},
        "trials.model_decrease": {"clean": 8},
        "trials.stationarity_residual": {"no-op": 5, "clean": 3},
        "trials.step_norm": {"clean": 8},
    },
}


@pytest.mark.parametrize("name", OUTCOMES)
def test_each_edit_of_a_fresh_trace_ends_as_pinned(name):
    d = json.loads(json.dumps(bira_run(problem_by_name(name)).to_dict()))
    got = collections.defaultdict(collections.Counter)
    for column, path, value in _edits(d):
        edited = copy.deepcopy(d)
        node = edited
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        got[column]["no-op" if edited == d else _outcome(edited)] += 1
    assert got == OUTCOMES[name]
