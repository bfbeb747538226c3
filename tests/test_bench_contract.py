"""The benchmark's view of the package: what it traces and calls exists.

``bench/run.py --trace 1`` wraps named functions of ``lmsbound`` to read its
per-layer metrics, and ``bench/workloads.py`` calls the package directly.
Renaming or removing a traced function, or changing a signature so that a
benchmark call no longer binds, would otherwise show only when the
benchmark runs; here it fails the test suite.  The tests only read
``bench/``.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
PROGRAM_MODULES = ("bounds", "cli", "lmi", "moments", "presets", "report",
                   "simulate")


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


def workload_calls() -> set[tuple[str, str, int, tuple[str, ...]]]:
    """(module, name, positional count, keywords) of each package call in
    ``bench/workloads.py`` whose arguments are spelled out."""
    calls = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in PROGRAM_MODULES
                and not any(isinstance(arg, ast.Starred) for arg in node.args)
                and all(kw.arg is not None for kw in node.keywords)):
            calls.add((node.func.value.id, node.func.attr, len(node.args),
                       tuple(kw.arg for kw in node.keywords)))
    return calls


def test_workload_calls_bind():
    calls = workload_calls()
    assert {
        ("report", "supgain_results", 1, ("models",)),
        ("report", "classification_annotations", 1,
         ("names", "models", "master_seed")),
        ("bounds", "protocol_gain", 1, ()),
        ("bounds", "max_chi_search", 3, ()),
        ("bounds", "finite_k_bound", 7, ()),
        ("lmi", "check_certificate", 3, ()),
    } <= calls
    unbound = []
    for module, name, positional, keywords in sorted(calls):
        target = getattr(importlib.import_module(f"lmsbound.{module}"), name)
        try:
            inspect.signature(target).bind(*[None] * positional,
                                           **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{module}.{name}: {exc}")
    assert not unbound
