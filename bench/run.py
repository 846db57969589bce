"""Benchmark of the bira solver: oracle work and wall time, end to end and
per layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload paper --seed 1 --seconds 35 --trace 0

Each workload is a closed loop: one client in one process, BLAS and OpenMP
pinned to one thread.  The client solves a fixed list of problems in order;
for each it runs ``bira_run``, then ``audit``, then a trace round trip
(``to_dict`` -> JSON -> ``from_dict``), and it ends the loop with one
command of the ``bira`` command line.  One loop is a *pass*.  Passes repeat
until ``--seconds`` is used up (at least three are run).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under timing shims (see ``spans.py``), checks
that both give the same counts, and prints the per-layer metrics together
with the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the environment and the raw samples.
Spans of the traced passes are written to ``.bench_out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
# audits, trace round trips and trace audits on the command line take
# milliseconds; each is timed this many times back to back and the fastest
# call kept
REPEATS = 5
# (1 + L/w) * eps_opt bounds the distance to the minimizer of a w-strongly
# convex model with an L-Lipschitz gradient; w = L = 0.1 on every problem
# with a reference solution, so this allows about four times that bound
REFERENCE_TOL = 5e-3

PAPER = ("p1", "p1_pdp", "p2", "p3", "p4")
PAPER_STATUS = {"p3": "RestorationFailure"}
# one (n, m, row_scale, active bounds) per problem of a pass; a problem's
# position in the list is its base seed
SYNTHETIC = {
    "highdim": [(100, 5, 0.25, 0), (100, 20, 0.25, 0)],
    "active": [(50, 20, 1.0, 4)] * 4,
}
WORKLOADS = ("paper",) + tuple(SYNTHETIC)

ORACLE_SPANS = ["oracle." + k for k in (
    "eval_f", "eval_grad_f", "eval_h", "eval_grad_h", "refine")]
EVAL_KINDS = {
    "eval_f": ("f_evals", "gf"),
    "eval_grad_f": ("gradf_evals", "gf"),
    "eval_h": ("h_evals", "gh"),
    "eval_grad_h": ("gradh_evals", "gh"),
}


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bira" / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import bira
    from bira import cli, diagnostics, geometry, oracle, qp, restoration, solver
    import synth

    if Path(bira.__file__).resolve().parent != SRC / "bira":
        sys.exit(f"bench: imported bira from {bira.__file__}, not {SRC}")
    return {
        "bira": bira, "cli": cli, "diagnostics": diagnostics,
        "geometry": geometry, "oracle": oracle, "qp": qp,
        "restoration": restoration, "solver": solver, "synth": synth,
        "plain_to_dict": solver.RunReport.to_dict,
    }


def build_problems(pkg, workload, seed):
    """The workload's fixed problem list: ``[(problem, expected_status)]``."""
    import numpy as np

    if workload == "paper":
        order = np.random.default_rng(seed).permutation(len(PAPER))
        return [
            (pkg["oracle"].problem_by_name(PAPER[i]),
             PAPER_STATUS.get(PAPER[i], "Converged"))
            for i in order
        ]
    problems = []
    for i, (n, m, row_scale, n_active) in enumerate(SYNTHETIC[workload]):
        sub = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        problems.append((pkg["synth"].make_synthetic(
            f"{workload}{i}_n{n}_m{m}", n, m, sub, base=i,
            row_scale=row_scale, n_active=n_active), "Converged"))
    return problems


def eval_cost(gamma):
    """Precision-weighted cost of one evaluation at precision ``gamma``."""
    if gamma <= 0.0:
        return 41.0
    return 1.0 + min(40.0, max(0.0, math.log2(1.0 / gamma)))


class EvalCounter:
    """Counts one problem's evaluations by kind and by precision-weighted
    cost, through instance attributes that shadow the ``eval_*`` methods."""

    def __init__(self, problem):
        for method, (key, component) in EVAL_KINDS.items():
            setattr(problem, method,
                    self._counted(problem, method, key, component))
        self.reset()

    def reset(self):
        self.counts = {key: 0 for key, _ in EVAL_KINDS.values()}
        self.weighted = 0.0

    def _counted(self, problem, method, key, component):
        cls = type(problem)

        def counted(x, y):
            self.counts[key] += 1
            self.weighted += eval_cost(getattr(y, component))
            # looked up on each call, so class-level timing shims apply
            return getattr(cls, method)(problem, x, y)

        return counted


def check_solve(pkg, problem, expected, report, audit_result, text, back,
                counter):
    """``(wrong, flagged)``: reasons the solve's output is wrong, and audit
    checks that failed or were skipped on a run with records."""
    import numpy as np

    flagged = [f"audit {c.name} {c.status}: {c.detail}"
               for c in audit_result.checks
               if c.status == "fail"
               or (c.status == "skipped" and report.iterations > 0)]
    bad = []
    if report.status != expected:
        bad.append(f"status {report.status}, expected {expected}")
    if counter.counts != dict(report.ledger_totals):
        bad.append(f"counted {counter.counts} != ledger {report.ledger_totals}")
    # the unshimmed method, so the check adds no span
    if json.dumps(pkg["plain_to_dict"](back)) != text:
        bad.append("trace round trip is lossy")
    x = np.asarray(report.final_x)
    if report.status == "Converged":
        if not problem.box.contains(x):
            bad.append("final point outside the box")
        tol = (report.tolerances["eps_feas"]
               + problem.noise_scale_h * report.tolerances["eps_prec"])
        h = float(np.linalg.norm(problem.exact_h(x)))
        if h > tol:
            bad.append(f"exact violation {h:.3e} > {tol:.3e}")
        if problem.known_solution is not None:
            dist = float(np.linalg.norm(x - problem.known_solution))
            if dist > REFERENCE_TOL:
                bad.append(f"distance to reference solution {dist:.3e}")
    elif report.status == "RestorationFailure":
        kind = report.failure_info["kind"]
        if kind != "possible_infeasibility":
            bad.append(f"restoration failure {kind}")
    return bad, flagged


def solve(pkg, problem, expected, counter, tracer):
    """One request: solve, audit, round-trip the trace.  Returns a dict."""
    AbnormalTermination = pkg["bira"].AbnormalTermination
    InvariantError = pkg["bira"].InvariantError
    solver, diagnostics = pkg["solver"], pkg["diagnostics"]
    problem.ledger.reset()
    counter.reset()
    t0 = time.perf_counter()
    try:
        report = solver.bira_run(problem)
    except (InvariantError, AbnormalTermination) as exc:
        return {"name": problem.name, "error": type(exc).__name__,
                "detail": str(exc), "solve_s": time.perf_counter() - t0}
    solve_s = time.perf_counter() - t0
    json_span = json if tracer is None else SimpleNamespace(
        dumps=tracer.wrap(json.dumps, "trace.json"),
        loads=tracer.wrap(json.loads, "trace.json"))

    def round_trip():
        text = json_span.dumps(report.to_dict())
        return text, solver.RunReport.from_dict(json_span.loads(text))

    audit_result, audit_s = repeated(lambda: diagnostics.audit(report))
    (text, back), trace_io_s = repeated(round_trip)
    bad, flagged = check_solve(pkg, problem, expected, report, audit_result,
                               text, back, counter)
    return {
        "name": problem.name, "status": report.status, "bad": bad,
        "flagged": flagged, "audit_ok": audit_result.ok,
        "solve_s": solve_s, "audit_s": audit_s, "trace_io_s": trace_io_s,
        "iterations": report.iterations,
        "evals": dict(report.ledger_totals), "weighted": counter.weighted,
        "trace_bytes": len(text.encode("utf-8")),
        "checks_fail": sum(c.status == "fail" for c in audit_result.checks),
        "checks_skipped": sum(c.status == "skipped"
                              for c in audit_result.checks),
        "text": text,
    }


def repeated(fn, times=REPEATS):
    """``(last result, fewest seconds)`` of ``times`` calls of ``fn``."""
    seconds = []
    for _ in range(times):
        t0 = time.perf_counter()
        out = fn()
        seconds.append(time.perf_counter() - t0)
    return out, min(seconds)


def cli_command(pkg, workload, solves):
    """The pass's command-line call: ``(argv, output file, exit code)``.

    The command line builds only the registered problems, so the synthetic
    workloads audit the saved trace of their first solve instead of
    sweeping; the exit code must agree with the in-process audit.
    """
    OUT.mkdir(exist_ok=True)
    if workload == "paper":
        out = OUT / f"sweep-{os.getpid()}.csv"
        return ["complexity", "--problem", "p1", "--jobs", "1",
                "--out", str(out)], out, pkg["cli"].EXIT_OK
    first = next((s for s in solves if "text" in s), None)
    out = OUT / f"trace-{os.getpid()}.json"
    if first is None:  # every solve raised: the empty trace is a usage error
        out.write_text("{}", encoding="utf-8")
        return ["audit", str(out)], out, pkg["cli"].EXIT_USAGE
    out.write_text(first["text"], encoding="utf-8")
    code = pkg["cli"].EXIT_OK if first["audit_ok"] else pkg["cli"].EXIT_AUDIT
    return ["audit", str(out)], out, code


def run_pass(pkg, workload, problems, counters, tracer=None):
    t0 = time.perf_counter()
    solves = [solve(pkg, p, expected, counters[i], tracer)
              for i, (p, expected) in enumerate(problems)]
    argv, out, expected_code = cli_command(pkg, workload, solves)

    def call_cli():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            return pkg["cli"].main(argv), buf.getvalue()

    # the sweep is long enough to time once
    (code, printed), cli_s = repeated(call_cli,
                                      1 if workload == "paper" else REPEATS)
    cli_out = out.read_text(encoding="utf-8") if workload == "paper" \
        else printed
    out.unlink()
    for s in solves:
        s.pop("text", None)
    return {"pass_s": time.perf_counter() - t0, "cli_s": cli_s,
            "cli_code": code,
            "cli_ok": code == expected_code, "cli_output": cli_out,
            "solves": solves}


def signature(p):
    """Everything about a pass that must repeat exactly."""
    return json.dumps({
        "cli": [p["cli_code"], p["cli_output"]],
        "solves": [{k: s.get(k) for k in (
            "name", "status", "error", "bad", "flagged", "iterations", "evals",
            "weighted", "trace_bytes", "checks_fail", "checks_skipped")} for s in p["solves"]],
    }, sort_keys=True)


def pass_failures(p):
    """The pass's failed solves, each with its reasons."""
    out = []
    for s in p["solves"]:
        if "error" in s:
            out.append(f"{s['name']}: {s['error']}: {s['detail']}")
        elif s["bad"] or s["flagged"]:
            out.append(f"{s['name']}: {'; '.join(s['bad'] + s['flagged'])}")
    return out


def loop(seconds, step):
    """Run ``step(i)`` until ``seconds`` would be exceeded by one more call
    of the last call's length; at least ``MIN_PASSES`` times."""
    results = []
    t0 = time.perf_counter()
    last = 0.0
    while (len(results) < MIN_PASSES
           or time.perf_counter() - t0 + last <= seconds):
        ts = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - ts
    return results


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ranked = sorted(values)
    return {"value": ranked[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def measure_setup(workload, seed):
    """Seconds a fresh process takes to import the package and build the
    workload's problems."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup_probe(workload, seed):
    t0 = time.perf_counter()
    pkg = import_package()
    build_problems(pkg, workload, seed)
    print(repr(time.perf_counter() - t0))


def environment(seed):
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bira").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def fastest(passes, key):
    """Each solve's fastest ``key`` over the run, summed over the list."""
    return sum(min(s[key] for s in solve_i if key in s)
               for solve_i in zip(*(p["solves"] for p in passes))
               if any(key in s for s in solve_i))


def wall_times(passes):
    """Wall times of the run; reported, not gated (see README.md)."""
    return {
        "pass_s.p50": median([p["pass_s"] for p in passes]),
        "solve_s": fastest(passes, "solve_s"),
        "audit_s": fastest(passes, "audit_s"),
        "trace_io_s": fastest(passes, "trace_io_s"),
        "cli_s": min(p["cli_s"] for p in passes),
        "pass_s.tail": tail([p["pass_s"] for p in passes]),
    }


def end_to_end(passes, setup_s):
    solved = [s for s in passes[0]["solves"] if "error" not in s]

    def total(key):
        return sum(s[key] for s in solved)

    evals = {k: sum(s["evals"][k] for s in solved)
             for k in ("f_evals", "gradf_evals", "h_evals", "gradh_evals")}
    return {
        "setup_s": metric(setup_s, "s"),
        "trace_bytes": metric(total("trace_bytes"), "bytes"),
        "evals.f": metric(evals["f_evals"], "count"),
        "evals.gradf": metric(evals["gradf_evals"], "count"),
        "evals.h": metric(evals["h_evals"], "count"),
        "evals.gradh": metric(evals["gradh_evals"], "count"),
        "evals.weighted": metric(total("weighted"), "cost"),
        "iterations": metric(total("iterations"), "count"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def shim_sites(pkg):
    """``(span name, [(owner, attribute)])`` for every public entry point,
    patched where its caller looks it up."""
    oracle, qp, geometry = pkg["oracle"], pkg["qp"], pkg["geometry"]
    restoration, solver = pkg["restoration"], pkg["solver"]
    diagnostics, cli, synth = pkg["diagnostics"], pkg["cli"], pkg["synth"]
    base = oracle.InexactProblem
    return [
        ("oracle.eval_f", [(base, "eval_f")]),
        ("oracle.eval_grad_f", [(base, "eval_grad_f")]),
        ("oracle.eval_h", [(base, "eval_h")]),
        ("oracle.eval_grad_h", [(base, "eval_grad_h")]),
        ("oracle.refine", [(base, "refine")]),
        ("core.as_point", [(geometry, "as_point"), (qp, "as_point"),
                           (oracle, "as_point")]),
        ("qp.build_B", [(restoration, "build_B")]),
        ("qp.solve_restoration_qp",
         [(restoration, "solve_restoration_qp")]),
        ("qp.project_box", [(qp, "project_box")]),
        ("qp.solve_tangent_qp", [(solver, "solve_tangent_qp")]),
        ("qp.build_H", [(solver, "build_H")]),
        ("restoration.resta", [(solver, "resta")]),
        ("geometry.project_tangent", [(qp, "project_tangent"),
                                      (solver, "project_tangent")]),
        ("geometry.project_affine", [(geometry, "project_affine")]),
        ("solver.bira_run", [(solver, "bira_run"), (cli, "bira_run")]),
        ("solver.update_penalty", [(solver, "update_penalty")]),
        ("solver.to_dict", [(solver.RunReport, "to_dict")]),
        ("solver.from_dict", [(solver.RunReport, "from_dict")]),
        ("diagnostics.audit", [(diagnostics, "audit"), (cli, "audit")]),
        ("diagnostics.constants", [
            (diagnostics, "constants"), (solver, "derived_constants"),
            (oracle, "derived_constants"), (cli, "derived_constants"),
            (synth, "derived_constants")]),
        ("cli.main", [(cli, "main")]),
    ]


class RestaTally:
    """Counts at the restoration boundary, read from each outcome."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.desc_tests = self.gn_steps = self.refinements = 0
        self.exits = dict.fromkeys(RESTA_EXITS, 0)

    def __call__(self, out):
        self.desc_tests += out.inner_desc_tests
        self.gn_steps += out.z_steps
        self.refinements += out.refinements
        self.exits[out.status] += 1


def traced(pkg, tracer, tally, fn):
    """Call ``fn`` with every shim installed."""
    for name, sites in shim_sites(pkg):
        tracer.install(name, sites,
                       tally if name == "restoration.resta" else None)
    try:
        return fn()
    finally:
        tracer.uninstall()


def per_layer(pkg, workload, seed, seconds, problems, counters):
    """Per-layer metrics from passes that alternate untraced and traced."""
    from spans import Tracer

    tally = RestaTally()
    setup_tracer = Tracer()
    traced(pkg, setup_tracer, tally,
           lambda: build_problems(pkg, workload, seed))
    setup = setup_tracer.summary()

    tracer = Tracer()
    layers = []

    def step(i):
        if i % 2 == 0:
            return run_pass(pkg, workload, problems, counters), None
        tally.reset()
        lo = len(tracer)
        p = traced(pkg, tracer, tally,
                   lambda: run_pass(pkg, workload, problems, counters, tracer))
        layers.append(layer_values(
            tracer.summary(lo, groups={"oracle": ORACLE_SPANS}), tally, p))
        return p, lo

    runs = loop(seconds, step)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")
    plain = [p for p, lo in runs if lo is None]
    traced_passes = [p for p, lo in runs if lo is not None]
    overhead = (median([p["pass_s"] for p in traced_passes])
                / median([p["pass_s"] for p in plain]) - 1.0)

    values = {k: median([layer[k] for layer in layers]) for k in layers[0]}
    const = setup.get("diagnostics.constants", {})
    values["diagnostics.constants.calls"] = const.get("calls", 0)
    values["diagnostics.constants.self_s"] = const.get("self_s", 0.0)
    values["trace.overhead"] = overhead
    metrics = {name: metric(values[name], unit_of(name)) for name in PER_LAYER}
    return metrics, plain + traced_passes, {
        "traced_passes": len(traced_passes), "untraced_passes": len(plain),
        "spans_per_pass": values["trace.spans"],
    }


# span name -> the span statistics reported for it, per pass
SPAN_METRICS = {
    "oracle": ("self_s", "call_us.p50"),
    **{name: ("calls",) for name in ORACLE_SPANS},
    "core.as_point": ("calls", "self_s"),
    "qp.build_B": ("calls", "self_s", "call_us.p50"),
    "qp.solve_restoration_qp": ("calls", "self_s", "call_us.p50"),
    "qp.solve_tangent_qp": ("calls", "self_s"),
    "qp.build_H": ("calls",),
    "restoration.resta": ("calls", "self_s"),
    "geometry.project_tangent": ("calls", "self_s", "call_us.p50"),
    "geometry.project_affine": ("calls", "self_s"),
    "solver.bira_run": ("self_s",),
    "solver.update_penalty": ("calls",),
    "solver.to_dict": ("self_s",),
    "solver.from_dict": ("self_s",),
    "trace.json": ("self_s",),
    "diagnostics.audit": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
RESTA_EXITS = ("trivial", "restored", "pdp", "possible_infeasibility")
PER_LAYER = (
    [f"{name}.{field}" for name, fields in SPAN_METRICS.items()
     for field in fields]
    + [f"restoration.exit.{status}" for status in RESTA_EXITS]
    + ["restoration.desc_tests", "restoration.gn_steps",
       "restoration.accept_ratio", "restoration.refinements",
       "qp.pg_iters_per_solve", "geometry.sweeps_per_projection",
       "solver.tangent_attempts", "solver.tangent_accept_ratio",
       "solver.invariant_errors", "diagnostics.checks.fail",
       "diagnostics.checks.skipped", "diagnostics.constants.calls",
       "diagnostics.constants.self_s", "trace.spans", "trace.overhead"]
)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".p50"):
        return "us"
    if name.endswith(("ratio", "per_solve", "per_projection", "overhead")):
        return "ratio"
    return "count"


def layer_values(summary, tally, p):
    """Per-layer values of one traced pass."""
    def s(name, field):
        return summary.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    v = {f"{name}.{field}": s(name, field)
         for name, fields in SPAN_METRICS.items() for field in fields}
    v.update({f"restoration.exit.{k}": tally.exits[k] for k in RESTA_EXITS})
    tangent_qps = s("qp.solve_tangent_qp", "calls")
    v.update({
        "restoration.desc_tests": tally.desc_tests,
        "restoration.gn_steps": tally.gn_steps,
        "restoration.accept_ratio": ratio(tally.gn_steps, tally.desc_tests),
        "restoration.refinements": tally.refinements,
        "qp.pg_iters_per_solve": ratio(s("qp.project_box", "calls"),
                                       s("qp.solve_restoration_qp", "calls")),
        "geometry.sweeps_per_projection": ratio(
            s("geometry.project_affine", "calls"),
            s("geometry.project_tangent", "calls")),
        "solver.tangent_attempts": tangent_qps,
        # every update_penalty call is followed by one accepted step
        "solver.tangent_accept_ratio": ratio(
            s("solver.update_penalty", "calls"), tangent_qps),
        "solver.invariant_errors": sum(
            x.get("error") == "InvariantError" for x in p["solves"]),
        "diagnostics.checks.fail": sum(
            x.get("checks_fail", 0) for x in p["solves"]),
        "diagnostics.checks.skipped": sum(
            x.get("checks_skipped", 0) for x in p["solves"]),
        "trace.spans": sum(x["calls"] for name, x in summary.items()
                           if name != "oracle"),
    })
    return v


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    pkg = import_package()
    env = environment(args.seed)
    problems = build_problems(pkg, args.workload, args.seed)
    counters = [EvalCounter(p) for p, _ in problems]

    if args.trace:
        metrics, passes, extra = per_layer(pkg, args.workload, args.seed,
                                           args.seconds, problems, counters)
    else:
        setups = []

        def step(i):
            p = run_pass(pkg, args.workload, problems, counters)
            # one set-up after each pass: the samples spread over the run
            setups.append(measure_setup(args.workload, args.seed))
            return p

        passes = loop(args.seconds, step)
        metrics = end_to_end(passes, median(setups))
        extra = {"setup_s": setups}

    signatures = {signature(p) for p in passes}
    failures = sorted({f for p in passes for f in pass_failures(p)})
    cli_ok = all(p["cli_ok"] for p in passes)
    solves = [s for p in passes for s in p["solves"]]
    failed = sum(1 for s in solves
                 if "error" in s or s["bad"] or s["flagged"])
    # a raised error or a flagged audit is a failed operation; a wrong
    # output, a count that does not repeat or a wrong CLI verdict is an
    # incorrect result
    correct = (not any(s.get("bad") for s in solves)
               and len(signatures) == 1 and cli_ok)
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "env": env,
        "passes": len(passes), "pass_s": [p["pass_s"] for p in passes],
        "wall": wall_times(passes), "failures": failures,
        "passes_identical": len(signatures) == 1, "cli_ok": cli_ok,
        "fail_frac": failed / len(solves), **extra,
    }))
    print(json.dumps({"correct": correct, "attempted": len(solves),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
