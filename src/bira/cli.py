"""Command line front end.

Subcommands:

``run``
    Solve one named problem, optionally writing a replayable JSON trace.
    Exit code 0 on convergence, 2 on restoration failure, 3 on budget
    exhaustion, 5 on an abnormal termination (a safety cap or a broken
    internal guarantee; ``run`` and ``suite`` print its summary).

``audit``
    Re-check a saved trace against every recorded invariant and the
    worst-case constants it was run under.  Exit 0 when clean, 4 when
    any check fails.

``suite``
    Run the built-in problem collection, audit each run, and compare
    against the expected outcomes.  Exit 0 when everything matches,
    4 otherwise.

``complexity``
    Sweep the optimality tolerance, record evaluation counts to CSV,
    and print the fitted log-log slope of work against 1/tolerance.

Config files are flat JSON whose keys are the algorithm parameter names
plus ``problem``, ``eps_feas``, ``eps_prec``, ``eps_opt``, ``budget``,
``out``, ``jobs``, and ``eps_opt_grid``.  Unknown keys are rejected.
Command line flags override config values.  All output files are
deterministic: same inputs, same bytes.
"""

import argparse
import csv
import json
import sys
from dataclasses import fields as dataclass_fields

from .core import (
    AlgorithmParams,
    AbnormalTermination,
    ConfigurationError,
    ContractError,
    InvariantError,
    SchemaError,
)
from .diagnostics import audit, complexity_fit
# not called here: bench/run.py's traced run patches it by this name
from .diagnostics import constants as derived_constants  # noqa: F401
from .oracle import make_suite, problem_by_name
from .solver import RunReport, bira_run

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

EXPECTED_SUITE = {
    "p1": "Converged",
    "p2": "Converged",
    "p3": "RestorationFailure",
    "p4": "Converged",
}

_PARAM_KEYS = tuple(f.name for f in dataclass_fields(AlgorithmParams))
_RUN_KEYS = ("problem", "eps_feas", "eps_prec", "eps_opt", "budget", "out",
             "jobs", "eps_opt_grid")
CONFIG_KEYS = frozenset(_PARAM_KEYS) | frozenset(_RUN_KEYS)

CSV_HEADER = ("eps_opt", "f_evals", "gradf_evals", "h_evals", "gradh_evals",
              "iterations", "status")


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"unknown config key: {key!r}")
    return raw


def split_config(cfg):
    """Partition a flat config into algorithm params and run settings."""
    param_part = {k: v for k, v in cfg.items() if k in _PARAM_KEYS}
    run_part = {k: v for k, v in cfg.items() if k in _RUN_KEYS}
    params = AlgorithmParams.from_dict({
        **AlgorithmParams.defaults().to_dict(), **param_part,
    })
    return params, run_part


def trace_bytes(report):
    return (json.dumps(report.to_dict(), sort_keys=True, indent=2)
            + "\n").encode("utf-8")


def _run_settings(args, run_part):
    def pick(name, default):
        val = getattr(args, name, None)
        if val is not None:
            return val
        return run_part.get(name, default)

    return {
        "eps_feas": float(pick("eps_feas", 1e-6)),
        "eps_prec": float(pick("eps_prec", 1e-6)),
        "eps_opt": float(pick("eps_opt", 1e-4)),
        "budget": int(pick("budget", 500)),
    }


def cmd_run(args):
    cfg = load_config(args.config) if args.config else {}
    params, run_part = split_config(cfg)
    name = args.problem or run_part.get("problem")
    if not name:
        raise ConfigurationError("no problem named (flag or config)")
    settings = _run_settings(args, run_part)
    problem = problem_by_name(name, params)
    report = bira_run(problem, params, **settings)

    out_path = args.out or run_part.get("out")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(trace_bytes(report))
    print(f"{report.problem_name}: {report.status} after "
          f"{report.iterations} iteration(s)")
    print(f"  final point: {report.final_x.tolist()}")
    print(f"  final precision: {list(report.final_y)}")
    print(f"  evaluations: {report.ledger_totals}")
    if report.failure_info is not None:
        print(f"  failure: {report.failure_info['kind']}"
              f" at iteration {report.failure_info['iteration']}")
    return _STATUS_EXIT[report.status]


def cmd_audit(args):
    with open(args.trace, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    report = RunReport.from_dict(payload)
    result = audit(report)
    for line in result.lines():
        print(line)
    print(f"audit: {'ok' if result.ok else 'FAILED'} "
          f"({len(result.failures)} failing check(s))")
    return EXIT_OK if result.ok else EXIT_AUDIT


def cmd_suite(args):
    cfg = load_config(args.config) if args.config else {}
    params, run_part = split_config(cfg)
    settings = _run_settings(args, run_part)
    bad = 0
    for problem in make_suite(params):
        report = bira_run(problem, params, **settings)
        result = audit(report)
        expected = EXPECTED_SUITE.get(report.problem_name)
        status_ok = expected is None or report.status == expected
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
    name, params_dict, eps_opt, budget = task
    params = AlgorithmParams.from_dict(params_dict)
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
    return {
        "eps_opt": repr(eps_opt),
        "f_evals": totals["f_evals"],
        "gradf_evals": totals["gradf_evals"],
        "h_evals": totals["h_evals"],
        "gradh_evals": totals["gradh_evals"],
        "iterations": iters,
        "status": status,
    }


def cmd_complexity(args):
    cfg = load_config(args.config) if args.config else {}
    params, run_part = split_config(cfg)
    name = args.problem or run_part.get("problem") or "p1"
    grid_raw = args.eps_opt_grid or run_part.get("eps_opt_grid")
    if grid_raw is None:
        grid = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    elif isinstance(grid_raw, str):
        grid = [float(tok) for tok in grid_raw.split(",") if tok.strip()]
    else:
        grid = [float(v) for v in grid_raw]
    if not grid or any(not v > 0.0 for v in grid):
        raise ConfigurationError("eps_opt_grid must be positive values")
    budget = int(args.budget if args.budget is not None
                 else run_part.get("budget", 2000))
    jobs = int(args.jobs if args.jobs is not None
               else run_part.get("jobs", 1))

    tasks = [(name, params.to_dict(), eps, budget) for eps in grid]
    if jobs > 1:
        # imported here: it pulls in multiprocessing, which nothing else
        # needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]

    out_path = args.out or run_part.get("out") or "complexity.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

    work = [row["f_evals"] + row["gradf_evals"] + row["h_evals"]
            + row["gradh_evals"] for row in rows]
    for row, w in zip(rows, work):
        print(f"eps_opt={row['eps_opt']}: {w} evaluations,"
              f" {row['iterations']} iteration(s), {row['status']}")
    slope, _ = complexity_fit(grid, work)
    print(f"fitted slope of log(work) against log(1/eps_opt): {slope:.3f}")
    print(f"wrote {out_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bira",
        description="inexact-restoration solver and run auditor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem")
    p_run.add_argument("--problem",
                       help="problem name (p1..p4; p1_pdp is p1 renamed)")
    p_run.add_argument("--config", help="flat JSON config file")
    p_run.add_argument("--out", help="write a JSON trace here")
    p_run.add_argument("--eps-feas", dest="eps_feas", type=float)
    p_run.add_argument("--eps-prec", dest="eps_prec", type=float)
    p_run.add_argument("--eps-opt", dest="eps_opt", type=float)
    p_run.add_argument("--budget", type=int)
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="re-check a saved trace")
    p_audit.add_argument("trace", help="trace JSON written by run")
    p_audit.set_defaults(func=cmd_audit)

    p_suite = sub.add_parser("suite", help="run the built-in collection")
    p_suite.add_argument("--config", help="flat JSON config file")
    p_suite.add_argument("--eps-feas", dest="eps_feas", type=float)
    p_suite.add_argument("--eps-prec", dest="eps_prec", type=float)
    p_suite.add_argument("--eps-opt", dest="eps_opt", type=float)
    p_suite.add_argument("--budget", type=int)
    p_suite.set_defaults(func=cmd_suite)

    p_cx = sub.add_parser("complexity",
                          help="evaluation counts across tolerances")
    p_cx.add_argument("--problem", help="problem name (default p1)")
    p_cx.add_argument("--config", help="flat JSON config file")
    p_cx.add_argument("--out", help="CSV output path")
    p_cx.add_argument("--eps-opt-grid", dest="eps_opt_grid",
                      help="comma separated tolerances")
    p_cx.add_argument("--budget", type=int)
    p_cx.add_argument("--jobs", type=int, help="parallel workers")
    p_cx.set_defaults(func=cmd_complexity)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ContractError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AbnormalTermination, InvariantError) as exc:
        where = ", ".join(f"{k}={v}" for k, v in exc.summary.items())
        print(f"error: {type(exc).__name__}: {exc} ({where})", file=sys.stderr)
        return EXIT_ABNORMAL


if __name__ == "__main__":
    sys.exit(main())
