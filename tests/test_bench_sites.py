"""The benchmark's traced run patches package attributes by name; each must
exist, so a rename fails here rather than in ``bench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_every_benchmark_span_site_resolves(monkeypatch):
    # importing the script pins BLAS threads and extends sys.path; undo both
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    missing = [
        f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
        for span, sites in run.shim_sites(run.import_package())
        for owner, attr in sites
        if attr not in (owner.__dict__ if isinstance(owner, type)
                        else vars(owner))
    ]
    assert missing == []
