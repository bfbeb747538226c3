"""Benchmark for lmsbound, run from a plain source checkout.

    python3 bench/run.py --workload certify_bench5 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One run measures one workload (see ``workloads.py``) in its own process.
With ``--trace 0`` it reports the end-to-end metrics: the set-up time (the
median over several fresh interpreters that import ``lmsbound`` and build
the workload's moment models), the median pass time, the median task
latency, models per second, the share of output checks passed and the peak
resident memory.  With ``--trace 1`` it runs untraced passes, then wraps the
package's layer functions (``spans.py``) and runs traced passes, and reports
the per-layer metrics in ``LAYERS`` per traced pass, plus the tracing
overhead.  Spans are written to ``.bench_out/``.  All times are reference
seconds (``speed.py``).

``--workload all`` runs every workload, untraced and traced, each in its own
process, and prints every metric by name.  Every run prints human-readable
lines and, last, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` with no
install; BLAS and OpenMP are pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

BLAS_THREADS = 1
SETUP_REPEATS = 5
CHILD_TIMEOUT = 60

CERTIFY = ("certify_bench5", "certify_highdim")
MC = ("mc_classify", "mc_ensemble")
WORKLOAD_NAMES = CERTIFY + MC

# Per-layer metric: (unit, better, end-to-end metrics it should move, the
# workloads on which it does work and must therefore read nonzero).
LAYERS = {
    "linalg.eigh.calls": ("count", "lower", "wall_s models_per_s", CERTIFY),
    "linalg.eigh.s": ("s", "lower", "wall_s models_per_s", CERTIFY),
    "moments.fourth_moment.calls": ("count", "lower", "wall_s", CERTIFY),
    "moments.fourth_moment.s": ("s", "lower", "wall_s", CERTIFY),
    "moments.empirical_moment_model.s": ("s", "lower", "setup_s", ("certify_highdim",)),
    "lmi.solve_feasibility.calls": ("count", "lower", "wall_s task_p50_s", ("certify_bench5",)),
    "lmi.solve_feasibility.s": ("s", "lower", "wall_s task_p50_s", ("certify_bench5",)),
    "lmi.solve_feasibility.self_s": ("s", "lower", "wall_s task_p50_s", ("certify_bench5",)),
    "lmi.drift_matrix.calls": ("count", "lower", "wall_s", ("certify_bench5",)),
    "lmi.mean_square_map_matrix.calls": ("count", "lower", "wall_s", ("certify_highdim",)),
    "lmi.mean_square_map_matrix.s": ("s", "lower", "wall_s", ("certify_highdim",)),
    "lmi.check_certificate.calls": ("count", "higher", "checks_ok_ratio", CERTIFY),
    "lmi.check_certificate.s": ("s", "lower", "checks_ok_ratio", CERTIFY),
    "bounds.sup_gain.calls": ("count", "lower", "wall_s task_p50_s", CERTIFY),
    "bounds.sup_gain.s": ("s", "lower", "wall_s task_p50_s", CERTIFY),
    "bounds.max_chi_search.calls": ("count", "lower", "wall_s task_p50_s", ("certify_bench5",)),
    "bounds.max_chi_search.s": ("s", "lower", "wall_s task_p50_s", ("certify_bench5",)),
    "bounds.probes_per_search": ("probes/search", "lower", "wall_s", ("certify_bench5",)),
    "simulate.run_lms.calls": ("count", "lower", "wall_s", MC),
    "simulate.run_lms.s": ("s", "lower", "wall_s", MC),
    "simulate.rep_steps_per_s": ("1/s", "higher", "wall_s task_p50_s", MC),
    "simulate.draws_s": ("s", "lower", "wall_s", MC),
    "simulate.generators_s": ("s", "lower", "wall_s", MC),
    "simulate.update_s": ("s", "lower", "wall_s", MC),
    "simulate.diverged_ratio": ("ratio", "lower", "wall_s", ("mc_classify",)),
    "report.supgain_results.s": ("s", "lower", "wall_s", ("certify_bench5",)),
    "report.build_errorbound_table.s": ("s", "lower", "wall_s", ("certify_bench5",)),
    "report.classification_annotations.s": ("s", "lower", "wall_s", ("mc_classify",)),
    "cli.supgain.s": ("s", "lower", "task_p50_s", ("certify_bench5",)),
    "cli.errorbound.s": ("s", "lower", "task_p50_s", ("certify_bench5",)),
    "cli.report.s": ("s", "lower", "task_p50_s", ("certify_bench5",)),
    "cli.self_s": ("s", "lower", "task_p50_s", ("certify_bench5",)),
    "trace.overhead_s": ("s", "lower", "", ()),
    "trace.spans": ("count", "lower", "", ()),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "models_per_s": "1/s",
    "checks_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The program could not be imported or its inputs could not be built."""


def _pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _require_sources() -> None:
    for path in (SRC / "lmsbound" / "__init__.py", ACCEPTANCE):
        if not path.is_file():
            raise SetupError(f"missing {path.relative_to(ROOT)}; run from a source checkout")


def _import_program():
    sys.path.insert(0, str(SRC))
    import workloads
    import lmsbound
    if Path(lmsbound.__file__).resolve().parent != SRC / "lmsbound":
        raise SetupError(f"lmsbound was imported from {lmsbound.__file__}, not {SRC}")
    return workloads


def _load_reference():
    import importlib.util
    spec = importlib.util.spec_from_file_location("bench_acceptance_reference", ACCEPTANCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# numpy is imported before the clock starts, to run the speed kernel around
# the timed region; everything lmsbound and the workload import is inside it.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
before = [speed.timed_kernel() for _ in range(8)][3:]
start = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]))
elapsed = time.perf_counter() - start
after = [speed.timed_kernel() for _ in range(5)]
print(repr(elapsed / speed.interval_slowdown(before, after)))
"""


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up reference seconds of fresh interpreters: import lmsbound, build the models."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_passes(wl, inputs, state, budget: float, ref, checks_type, probe,
               tracer=None):
    """Passes over the task list until the next one would overrun ``budget``.

    Returns pass and task times in reference seconds, and the checks.
    """
    tracer = tracer or Tracer()
    walls: list[float] = []
    latencies: list[float] = []
    checks = checks_type()
    begin = time.perf_counter()
    last_pass = 0.0
    while not walls or time.perf_counter() - begin + last_pass <= budget:
        tasks = wl.tasks(inputs, state, tracer.span)
        outputs, errors = [], []
        pass_start = time.perf_counter()
        for label, fn in tasks:
            tracer.task = len(latencies)
            start = time.perf_counter()
            try:
                outputs.append(fn())
            except Exception as exc:  # a task that raises is a failed check
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
            latencies.append((start, time.perf_counter()))
        pass_end = time.perf_counter()
        last_pass = pass_end - pass_start
        walls.append((pass_start, pass_end))
        tracer.task = None
        active, tracer.active = tracer.active, False
        for message in errors:
            checks.expect(False, message)
        if not errors:
            wl.check(inputs, state, outputs, ref, checks)
        tracer.active = active
    return ([probe.seconds(*w) for w in walls], [probe.seconds(*t) for t in latencies],
            checks)


def install_tracer(tracer, counters: dict) -> int:
    """Wrap every layer function the per-layer metrics are read from.

    Returns the number of bindings replaced.
    """
    from lmsbound import bounds, linalg, lmi, moments, report, simulate

    def on_search(args, kwargs, result):
        kind = args[1] if len(args) > 1 else kwargs.get("kind")
        if kind in bounds.CERTIFICATE_KINDS:
            counters["searches"] += 1

    def on_chi_search(args, kwargs, result):
        counters["searches"] += 1

    def on_run_lms(args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        counters["replications"] += config.replications
        counters["rep_steps"] += config.replications * config.k_max
        counters["diverged"] += result.diverged_count

    targets = [
        (linalg, "eigh", "linalg.eigh", None),
        (moments.MomentModel, "fourth_moment", "moments.fourth_moment", None),
        (moments, "empirical_moment_model", "moments.empirical_moment_model", None),
        (lmi, "solve_feasibility", "lmi.solve_feasibility", None),
        (lmi, "drift_matrix", "lmi.drift_matrix", None),
        (lmi, "mean_square_map_matrix", "lmi.mean_square_map_matrix", None),
        (lmi, "check_certificate", "lmi.check_certificate", None),
        (bounds, "sup_gain", "bounds.sup_gain", on_search),
        (bounds, "max_chi_search", "bounds.max_chi_search", on_chi_search),
        (simulate, "run_lms", "simulate.run_lms", on_run_lms),
        (simulate, "_draw_chunk", "simulate._draw_chunk", None),
        (simulate, "_make_generators", "simulate._make_generators", None),
        (report, "supgain_results", "report.supgain_results", None),
        (report, "build_errorbound_table", "report.build_errorbound_table", None),
        (report, "classification_annotations", "report.classification_annotations", None),
    ]
    return sum(tracer.install(owner, attr, name, hook)
               for owner, attr, name, hook in targets)


def layer_metrics(totals: dict, build_totals: dict, counters: dict, passes: int,
                  overhead_s: float, spans: int) -> dict[str, float]:
    """Per-layer metrics per traced pass; the model build is measured apart."""
    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    run_lms_s = seconds("simulate.run_lms")
    draws = seconds("simulate._draw_chunk")
    generators = seconds("simulate._make_generators")
    out = {}
    for name in ("linalg.eigh", "moments.fourth_moment", "lmi.solve_feasibility",
                 "lmi.mean_square_map_matrix", "lmi.check_certificate",
                 "bounds.sup_gain", "bounds.max_chi_search", "simulate.run_lms"):
        out[name + ".calls"] = calls(name) / passes
        out[name + ".s"] = seconds(name) / passes
    out["lmi.drift_matrix.calls"] = calls("lmi.drift_matrix") / passes
    out["lmi.solve_feasibility.self_s"] = self_seconds("lmi.solve_feasibility") / passes
    out["moments.empirical_moment_model.s"] = build_totals.get(
        "moments.empirical_moment_model", [0, 0.0, 0.0])[1]
    out["bounds.probes_per_search"] = (calls("lmi.solve_feasibility") / counters["searches"]
                                       if counters["searches"] else 0.0)
    out["simulate.rep_steps_per_s"] = counters["rep_steps"] / run_lms_s if run_lms_s else 0.0
    out["simulate.draws_s"] = draws / passes
    out["simulate.generators_s"] = generators / passes
    out["simulate.update_s"] = (run_lms_s - draws - generators) / passes
    out["simulate.diverged_ratio"] = (counters["diverged"] / counters["replications"]
                                      if counters["replications"] else 0.0)
    for name in ("report.supgain_results", "report.build_errorbound_table",
                 "report.classification_annotations"):
        out[name + ".s"] = seconds(name) / passes
    for command in ("supgain", "errorbound", "report"):
        out[f"cli.{command}.s"] = seconds("cli." + command) / passes
    out["cli.self_s"] = sum(self_seconds("cli." + c)
                            for c in ("supgain", "errorbound", "report")) / passes
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = spans / passes
    return {metric: out[metric] for metric in LAYERS}


def run_untraced(wl, inputs, state, seconds: float, ref, checks_type, setup):
    """End-to-end metrics, in reference seconds."""
    with SpeedProbe(wl.kernel) as probe:
        walls, latencies, checks = run_passes(wl, inputs, state, seconds, ref,
                                              checks_type, probe)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "task_p50_s": statistics.median(latencies),
        "models_per_s": wl.models / wall,
        "checks_ok_ratio": 1.0 - len(checks.failures) / checks.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"setup_samples": len(setup), "passes": len(walls),
            "task_samples": len(latencies)}
    return metrics, checks, info


def run_traced(name: str, wl, inputs, state, seconds: float, ref, checks_type,
               seed: int, out_dir: Path):
    """Per-layer metrics: untraced passes, then traced passes, reference seconds."""
    tracer = Tracer()
    counters = {"searches": 0, "replications": 0, "rep_steps": 0, "diverged": 0}
    with SpeedProbe(wl.kernel) as probe:
        walls, _, checks = run_passes(wl, inputs, state, seconds / 2, ref,
                                      checks_type, probe)
        bindings = install_tracer(tracer, counters)
        tracer.active = True
        try:
            wl.build(seed)
            build_spans = len(tracer.spans)
            traced_walls, _, traced_checks = run_passes(
                wl, inputs, state, seconds / 2, ref, checks_type, probe, tracer)
        finally:
            tracer.active = False
            tracer.restore()
    tracer.write(out_dir / f"spans-{name}-seed{seed}.csv")
    metrics = layer_metrics(
        tracer.totals(probe.seconds, build_spans),
        tracer.totals(probe.seconds, 0, build_spans), counters,
        len(traced_walls), statistics.median(traced_walls) - statistics.median(walls),
        len(tracer.spans) - build_spans)
    checks.attempted += traced_checks.attempted
    checks.failures += traced_checks.failures
    for metric, (_, _, _, nonzero_on) in LAYERS.items():
        if name in nonzero_on:
            checks.expect(metrics[metric] > 0, f"layer metric {metric} reads 0 on {name}")
    info = {"untraced_passes": len(walls), "traced_passes": len(traced_walls),
            "wrapped_bindings": bindings}
    return metrics, checks, info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _require_sources()
    setup = [] if trace else measure_setup(name, seed)
    workloads = _import_program()
    ref = _load_reference()
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed)
    state = wl.prepare(inputs, seed)
    if trace:
        metrics, checks, extra = run_traced(name, wl, inputs, state, seconds, ref,
                                            workloads.Checks, seed, workloads.OUT)
        units = {metric: spec[0] for metric, spec in LAYERS.items()}
    else:
        metrics, checks, extra = run_untraced(wl, inputs, state, seconds, ref,
                                              workloads.Checks, setup)
        units = END_TO_END
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), **extra}
    return {"info": info, "failures": checks.failures,
            "correct": not checks.failures, "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def print_result(result: dict) -> None:
    info = result["info"]
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for message in result["failures"]:
        print(f"FAILED CHECK: {message}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    _require_sources()
    summary = {}
    code = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                code = proc.returncode
                continue
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    if code == 0:
        print(json.dumps(summary, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_threads()
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
