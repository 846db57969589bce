"""Command line front end.

Subcommands:

``run``
    Solve one named problem, optionally writing a replayable JSON trace.
    Exit code 0 on convergence, 2 on restoration failure, 3 on budget
    exhaustion, 5 on an abnormal termination (a safety cap or a broken
    internal guarantee; ``run`` and ``suite`` print its summary).

``audit``
    Re-check a saved trace against every recorded invariant and the
    worst-case constants it was run under.  A trace of a registered
    problem is also checked against that problem, rebuilt with the trace's
    parameters: every measured value within its oracle error bound.  Exit
    0 when clean, 4 when any check fails.

``suite``
    Run the built-in problem collection, audit each run, and compare
    against the expected outcomes.  Exit 0 when everything matches,
    4 otherwise.

``complexity``
    Sweep the optimality tolerance, record evaluation counts to CSV,
    and print the fitted log-log slope of work against 1/tolerance.

A ``--config`` file is a flat JSON object of algorithm parameters: its
keys are the field names of :class:`~bira.core.AlgorithmParams`, and any
other key is rejected.  Run settings (problem, tolerances, budget, output
path, workers, tolerance grid) are flags only.  A usage error, from the
flags or the config, exits 1.  All output files are deterministic: same
inputs, same bytes.
"""

import argparse
import csv
import json
import sys

from .core import (
    LEDGER_FIELDS,
    AlgorithmParams,
    AbnormalTermination,
    ConfigurationError,
    ContractError,
    InvariantError,
    SchemaError,
)
from .diagnostics import audit, complexity_fit, tolerance_grid
# not called here: bench/run.py's traced run patches it by this name
from .diagnostics import constants as derived_constants  # noqa: F401
from .oracle import PROBLEM_NAMES, problem_by_name
from .solver import bira_run
from .trace import read_trace, trace_bytes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESTORATION = 2
EXIT_BUDGET = 3
EXIT_AUDIT = 4
EXIT_ABNORMAL = 5

_STATUS_EXIT = {
    "Converged": EXIT_OK,
    "RestorationFailure": EXIT_RESTORATION,
    "BudgetExceeded": EXIT_BUDGET,
}

#: The problems ``suite`` runs, in run order, each with its expected status.
EXPECTED_SUITE = {
    "p1": "Converged",
    "p2": "Converged",
    "p3": "RestorationFailure",
    "p4": "Converged",
}

CSV_HEADER = ("eps_opt", *LEDGER_FIELDS, "iterations", "status")

# the flags of run and suite that bira_run takes; an absent one keeps
# bira_run's default
_RUN_FLAGS = ("eps_feas", "eps_prec", "eps_opt", "budget")


def load_params(path):
    """The algorithm parameters of a ``--config`` file, the defaults for
    none."""
    if path is None:
        return AlgorithmParams.defaults()
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    return AlgorithmParams.from_dict(raw)


def _given_flags(args):
    return {name: getattr(args, name) for name in _RUN_FLAGS
            if getattr(args, name) is not None}


def cmd_run(args):
    params = load_params(args.config)
    problem = problem_by_name(args.problem, params)
    report = bira_run(problem, params, **_given_flags(args))

    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(trace_bytes(report))
    print(f"{report.problem_name}: {report.status} after "
          f"{report.iterations} iteration(s)")
    print(f"  final point: {report.final_x.tolist()}")
    print(f"  final precision: {list(report.final_y.as_tuple())}")
    print(f"  evaluations: {report.ledger_totals}")
    if report.failure_info is not None:
        print(f"  failure: {report.failure_info['kind']}"
              f" at iteration {report.iterations}")
    return _STATUS_EXIT[report.status]


def cmd_audit(args):
    report = read_trace(args.trace)
    problem = (problem_by_name(report.problem_name, report.params)
               if report.problem_name in PROBLEM_NAMES else None)
    result = audit(report, problem)
    for line in result.lines():
        print(line)
    print(f"audit: {'ok' if result.ok else 'FAILED'} "
          f"({len(result.failures)} failing check(s))")
    return EXIT_OK if result.ok else EXIT_AUDIT


def cmd_suite(args):
    params = load_params(args.config)
    settings = _given_flags(args)
    bad = 0
    for name, expected in EXPECTED_SUITE.items():
        problem = problem_by_name(name, params)
        report = bira_run(problem, params, **settings)
        result = audit(report, problem)
        status_ok = report.status == expected
        audit_ok = result.ok
        mark = "ok" if (status_ok and audit_ok) else "FAIL"
        print(f"{report.problem_name}: {report.status} in "
              f"{report.iterations} iteration(s), audit "
              f"{'clean' if audit_ok else 'violations'} [{mark}]")
        if not status_ok:
            print(f"  expected status {expected}")
            bad += 1
        if not audit_ok:
            for check in result.failures:
                print(f"  audit failure: {check.name}: {check.detail}")
            bad += 1
    return EXIT_OK if bad == 0 else EXIT_AUDIT


def _sweep_one(task):
    name, params, eps_opt, budget = task
    problem = problem_by_name(name, params)
    try:
        report = bira_run(problem, params, eps_feas=1e-3, eps_prec=1e-3,
                          eps_opt=eps_opt, budget=budget)
        totals = report.ledger_totals
        status = report.status
        iters = report.iterations
    except (AbnormalTermination, InvariantError) as exc:
        totals = problem.ledger.snapshot()
        status = type(exc).__name__
        iters = exc.summary["iteration"]
    return {"eps_opt": repr(eps_opt), **totals, "iterations": iters,
            "status": status}


def cmd_complexity(args):
    params = load_params(args.config)
    tasks = [(args.problem, params, eps, args.budget)
             for eps in args.eps_opt_grid]
    # a worker past one per tolerance would have nothing to run
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        # imported here: it pulls in multiprocessing, which nothing else
        # needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

    work = [sum(row[key] for key in LEDGER_FIELDS) for row in rows]
    for row, w in zip(rows, work):
        print(f"eps_opt={row['eps_opt']}: {w} evaluations,"
              f" {row['iterations']} iteration(s), {row['status']}")
    slope, _ = complexity_fit(args.eps_opt_grid, work)
    # a flat sweep fits a slope a rounding below zero: adding 0.0 to the
    # rounded -0.0 prints it as 0.000
    slope = round(slope, 3) + 0.0
    print(f"fitted slope of log(work) against log(1/eps_opt): {slope:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _tolerance_grid(text):
    """The ``--eps-opt-grid`` flag: comma separated tolerances, refused
    by :func:`~bira.diagnostics.tolerance_grid`'s rule before any solve."""
    try:
        grid = [float(tok) for tok in text.split(",")]
        tolerance_grid(grid)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return grid


def _jobs(text):
    """The ``--jobs`` flag: a worker count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the restoration-failure code here
    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _add_run_flags(parser):
    parser.add_argument("--config", help="JSON object of algorithm parameters")
    parser.add_argument("--eps-feas", dest="eps_feas", type=float)
    parser.add_argument("--eps-prec", dest="eps_prec", type=float)
    parser.add_argument("--eps-opt", dest="eps_opt", type=float)
    parser.add_argument("--budget", type=int)


def build_parser():
    parser = _Parser(
        prog="bira",
        description="inexact-restoration solver and run auditor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem")
    p_run.add_argument("--problem", required=True,
                       help="problem name (p1..p4; p1_pdp is p1 renamed)")
    p_run.add_argument("--out", help="write a JSON trace here")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="re-check a saved trace")
    p_audit.add_argument("trace", help="trace JSON written by run")
    p_audit.set_defaults(func=cmd_audit)

    p_suite = sub.add_parser("suite", help="run the built-in collection")
    _add_run_flags(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_cx = sub.add_parser("complexity",
                          help="evaluation counts across tolerances")
    p_cx.add_argument("--problem", default="p1",
                      help="problem name (default %(default)s)")
    p_cx.add_argument("--config", help="JSON object of algorithm parameters")
    p_cx.add_argument("--out", default="complexity.csv",
                      help="CSV output path (default %(default)s)")
    p_cx.add_argument("--eps-opt-grid", dest="eps_opt_grid",
                      type=_tolerance_grid, default="1e-1,3e-2,1e-2,3e-3,1e-3",
                      help="comma separated tolerances (default %(default)s)")
    p_cx.add_argument("--budget", type=int, default=2000,
                      help="iteration budget per run (default %(default)s)")
    p_cx.add_argument("--jobs", type=_jobs, default=1,
                      help="parallel workers, at most one per tolerance"
                      " (default %(default)s)")
    p_cx.set_defaults(func=cmd_complexity)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigurationError, ContractError, SchemaError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AbnormalTermination, InvariantError) as exc:
        where = ", ".join(f"{k}={v}" for k, v in exc.summary.items())
        print(f"error: {type(exc).__name__}: {exc} ({where})", file=sys.stderr)
        return EXIT_ABNORMAL


if __name__ == "__main__":
    sys.exit(main())
