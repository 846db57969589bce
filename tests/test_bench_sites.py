"""The benchmark's traced run patches package attributes by name; each must
exist, so a rename fails here rather than in ``bench/run.py --trace 1``."""

from conftest import load_bench_run


def test_every_benchmark_span_site_resolves(monkeypatch):
    run = load_bench_run(monkeypatch)
    missing = [
        f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
        for span, sites in run.shim_sites(run.import_package())
        for owner, attr in sites
        if attr not in (owner.__dict__ if isinstance(owner, type)
                        else vars(owner))
    ]
    assert missing == []
