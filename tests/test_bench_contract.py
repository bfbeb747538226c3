"""The benchmark's view of the package: every layer function it traces exists.

``bench/run.py --trace 1`` wraps named functions of ``lmsbound`` to read its
per-layer metrics.  Renaming or removing one of them would otherwise show
only when the traced benchmark runs; here it fails the test suite.  The test
only reads ``bench/``.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_runner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_runner", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    runner = load_bench_runner(monkeypatch)
    tracer = importlib.import_module("spans").Tracer()
    try:
        assert runner.install_tracer(tracer, Counter()) > 0
    finally:
        tracer.restore()
    assert not tracer.spans
