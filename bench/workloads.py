"""Benchmark workloads: inputs made from a seed, task lists and output checks.

Each workload is a closed loop with one caller: a pass runs its tasks one
after another, and the checks read the outputs after the pass, outside the
timed region.  Importing this module imports ``lmsbound`` (and with it numpy
and click), which is part of what ``setup_s`` measures.

Reference values and tolerances come from the acceptance gate
(``tests/test_acceptance.py``, passed in as ``ref``); the closed-form sups
used for ``certify_highdim`` are computed here with numpy alone and share
no code with ``lmsbound``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from click.testing import CliRunner

from lmsbound import bounds, cli, lmi, moments, presets, report, simulate
from lmsbound.bounds import CriterionKind

# Run outputs (span files, report directories), git-ignored.
OUT = Path(__file__).resolve().parent.parent / ".bench_out"

GAUSSIAN_NAMES = ("1A", "1B", "1C", "1D")
ALL_NAMES = GAUSSIAN_NAMES + ("reed",)

# Fixed spectra for certify_highdim.  The seed only draws a rotation of each
# law, so every seed poses a problem of the same difficulty: the searches
# make the same probes and polish steps, and only the Jacobi sweep counts
# vary with the rotation (by up to about 10% of a model's time).  With these
# spectra the three models cost about 1, 2 and 3 s, so the median task is
# always the same model.
_HIGHDIM_SPECTRUM_SEED = 4
_HIGHDIM_ROWS = 20_000
_ENSEMBLE_LAWS = 20
_ENSEMBLE_REPLICATIONS = 100


class Checks:
    """Counts output checks attempted and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


class Workload(NamedTuple):
    build: Callable      # seed -> inputs (the moment models); timed as set-up
    prepare: Callable    # (inputs, seed) -> state, untimed
    tasks: Callable      # (inputs, state, span) -> [(label, fn)]
    check: Callable      # (inputs, state, outputs, ref, checks) -> None
    models: int          # moment models fully processed per pass
    kernel: str          # speed.KERNELS entry with the same mix of work


# --- certify_bench5: the CLI on the bundled benchmarks ----------------------

def _build_bench5(seed: int):
    return {name: presets.benchmark_model(name) for name in ALL_NAMES}


def _invoke(args: list[str], span) -> dict:
    with span("cli." + args[0]):
        result = CliRunner().invoke(cli.main, args)
    return {"args": args, "exit_code": result.exit_code,
            "exception": result.exception, "stdout": result.stdout}


def _report_task(span) -> dict:
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="report-", dir=OUT)
    try:
        out = _invoke(["report", "--skip-simulation", "--out-dir", out_dir], span)
        out["files"] = {name: (Path(out_dir) / name).read_text()
                        for name in ("table3.csv", "table4.csv")
                        if (Path(out_dir) / name).exists()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


def _tasks_bench5(inputs, state, span):
    tasks = []
    for name in ALL_NAMES:
        for command in ("supgain", "errorbound"):
            args = [command, "--model", name, "--format", "jsonl"]
            tasks.append((f"{command} {name}",
                          lambda args=args: _invoke(args, span)))
    tasks.append(("report", lambda: _report_task(span)))
    return tasks


def _json_cell(cell: dict):
    if cell.get("infinite"):
        return math.inf
    if cell.get("value") is not None:
        return float(cell["value"])
    return cell.get("text", "")


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse_jsonl(stdout: str) -> dict[tuple[str, str], object]:
    out = {}
    for line in stdout.splitlines():
        record = json.loads(line)
        for column, cell in record["cells"].items():
            out[(record["row"], column)] = _json_cell(cell)
    return out


def _parse_csv(text: str) -> dict[tuple[str, str], object]:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0][1:]
    return {(row[0], column): _csv_cell(value)
            for row in rows[1:] for column, value in zip(header, row[1:])}


def _is_number(value) -> bool:
    return isinstance(value, float)


def _check_sup(checks: Checks, ref, where: str, name: str, kind: str, got) -> None:
    if kind == "theorem1" and name == "reed":
        checks.expect(got == "skipped", f"{where}: theorem1/reed should be skipped, got {got!r}")
        return
    reference, tol = {
        "theorem1": (ref.REFERENCE_SUP_FREE, ref.TOL_SUP_FREE),
        "corollary2": (ref.REFERENCE_SUP_IDENTITY, ref.TOL_SUP_IDENTITY),
        "widrow_lambda_max": (ref.REFERENCE_SUP_WIDROW_LMAX, ref.TOL_SUP_LITERATURE),
        "widrow_trace": (ref.REFERENCE_SUP_WIDROW_TRACE, ref.TOL_SUP_LITERATURE),
        "zhu_criterion": (ref.REFERENCE_SUP_ZHU, ref.TOL_SUP_LITERATURE),
    }[kind]
    want = reference[name]
    checks.expect(_is_number(got) and ref._close(got, want, tol),
                  f"{where}: {kind}/{name} sup {got!r} vs {want}")


def _check_bound(checks: Checks, ref, where: str, name: str, row: str, got,
                 flags: str) -> None:
    if row == "theorem1" and name == "reed":
        checks.expect(got == "skipped", f"{where}: theorem1/reed bound should be skipped")
        return
    if name == "reed":
        checks.expect(_is_number(got) and got > 0,
                      f"{where}: {row}/reed bound {got!r} is not positive")
        return
    ok = _is_number(got)
    if row == "corollary2":
        want = ref.REFERENCE_BOUND_IDENTITY[name]
        ok = ok and ref._close(got, want, ref.REL_TOL_BOUND * want)
    elif row == "zhu_criterion":
        want = ref.REFERENCE_BOUND_ZHU[name]
        ok = ok and ref._close(got, want, ref.REL_TOL_BOUND_ZHU * want)
    elif name == "1A":
        want = ref.REFERENCE_BOUND_FREE[name]
        ok = ok and ref._close(got, want, ref.REL_TOL_BOUND * want)
    elif name == "1D":
        lo, hi = want = ref.RANGE_DEGENERATE_BOUND
        ok = ok and lo <= got <= hi and "theorem1 tolerance-limited" in flags
    else:
        want = ref.REFERENCE_BOUND_FREE[name]
        ok = ok and ref._within_factor(got, want, ref.FACTOR_BOUND_FREE)
    checks.expect(ok, f"{where}: {row}/{name} bound {got!r} vs {want}")


def _check_bench5(inputs, state, outputs, ref, checks: Checks) -> None:
    kinds = [kind.value for kind in CriterionKind]
    for out in outputs:
        where = " ".join(out["args"][:3])
        checks.expect(out["exit_code"] == 0 and out["exception"] is None,
                      f"{where}: exit code {out['exit_code']} ({out['exception']!r})")
        if out["exit_code"] != 0:
            continue
        command = out["args"][0]
        if command == "report":
            table3 = _parse_csv(out["files"].get("table3.csv", "row\n"))
            table4 = _parse_csv(out["files"].get("table4.csv", "row\n"))
            for name in ALL_NAMES:
                for kind in kinds:
                    _check_sup(checks, ref, "table3.csv", name, kind,
                               table3.get((kind, name)))
            for name in GAUSSIAN_NAMES:
                flags = str(table4.get(("flags", name), ""))
                for row in ("theorem1", "corollary2", "zhu_criterion"):
                    _check_bound(checks, ref, "table4.csv", name, row,
                                 table4.get((row, name)), flags)
            continue
        name = out["args"][2]
        cells = _parse_jsonl(out["stdout"])
        if command == "supgain":
            for kind in kinds:
                _check_sup(checks, ref, where, name, kind, cells.get((kind, "sup_gain")))
            if name == "1D":
                for kind in ("theorem1", "corollary2"):
                    checks.expect("tolerance-limited" in str(cells.get((kind, "flags"))),
                                  f"{where}: {kind}/1D should be tolerance-limited")
        else:
            flags = str(cells.get(("flags", "value"), ""))
            for row in ("theorem1", "corollary2", "zhu_criterion"):
                _check_bound(checks, ref, where, name, row, cells.get((row, "value")), flags)


# --- certify_highdim: eigensolves on larger T-matrices ----------------------

def _rotation(rng: np.random.Generator, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _highdim_laws(seed: int) -> list[tuple[str, str, np.ndarray]]:
    """(label, kind, data): two Gaussian covariances and one row matrix."""
    spectra = np.random.default_rng(_HIGHDIM_SPECTRUM_SEED)
    base = {m: spectra.standard_normal((m, m)) for m in (4, 5, 6)}
    rows = spectra.uniform(-math.sqrt(3.0), math.sqrt(3.0), (_HIGHDIM_ROWS, 5))
    rng = np.random.default_rng(seed)
    laws = []
    for m in (4, 6):
        a = _rotation(rng, m) @ base[m]
        laws.append((f"gaussian{m}", "gaussian", a @ a.T / m + 0.1 * np.eye(m)))
    a = _rotation(rng, 5) @ base[5]
    laws.append(("empirical5", "empirical", rows @ (a / math.sqrt(5.0)).T))
    return laws


def _build_highdim(seed: int):
    models = []
    for label, kind, data in _highdim_laws(seed):
        model = (moments.gaussian_moment_model(data) if kind == "gaussian"
                 else moments.empirical_moment_model(data))
        models.append((label, kind, data, model))
    return models


def _sym_basis(m: int) -> list[np.ndarray]:
    basis = []
    for i in range(m):
        for j in range(i, m):
            b = np.zeros((m, m))
            b[i, j] = b[j, i] = 1.0 if i == j else math.sqrt(0.5)
            basis.append(b)
    return basis


def _top_relative_eigenvalue(a: np.ndarray, b: np.ndarray) -> float:
    """lambda_max(B^-1/2 A B^-1/2) for symmetric A and positive definite B."""
    c_inv = np.linalg.inv(np.linalg.cholesky(b))
    return float(np.linalg.eigvalsh(c_inv @ a @ c_inv.T)[-1])


def reference_sups(kind: str, data: np.ndarray) -> dict[str, float]:
    """Closed-form sups from the law itself, with numpy.linalg only.

    corollary2: 2/lambda_max(S^-1/2 M4 S^-1/2);
    theorem1:   1/lambda_max(L^-1/2 F L^-1/2), with L(P) = SP + PS and F the
    fourth-moment operator, both as matrices on the symmetric basis.
    """
    if kind == "gaussian":
        s = data
        m = s.shape[0]
        basis = _sym_basis(m)

        def fourth(p):
            return 2.0 * s @ p @ s + s * float(np.trace(p @ s))
        f_hat = np.array([[float(np.sum(bj * fourth(bk))) for bk in basis]
                          for bj in basis])
        m4 = fourth(np.eye(m))
    else:
        n, m = data.shape
        s = data.T @ data / n
        basis = _sym_basis(m)
        features = np.stack([np.einsum("ni,ij,nj->n", data, b, data) for b in basis], 1)
        f_hat = features.T @ features / n
        m4 = (data * np.sum(data * data, 1)[:, None]).T @ data / n
    l_hat = np.array([[float(np.sum(bj * (s @ bk + bk @ s))) for bk in basis]
                      for bj in basis])
    eig = np.linalg.eigvalsh(s)
    return {
        "theorem1": 1.0 / _top_relative_eigenvalue((f_hat + f_hat.T) / 2, l_hat),
        "corollary2": 2.0 / _top_relative_eigenvalue(m4, s),
        "widrow_lambda_max": 2.0 / eig[-1],
        "widrow_trace": 2.0 / float(np.trace(s)),
        "zhu_criterion": 2.0 * eig[0] / eig[-1] ** 2,
    }


def _prepare_highdim(inputs, seed: int):
    return [reference_sups(kind, data) for _, kind, data, _ in inputs]


def _tasks_highdim(inputs, state, span):
    def certify(model):
        return {kind.value: bounds.sup_gain(model, kind) for kind in CriterionKind}
    return [(label, lambda model=model: certify(model))
            for label, _, _, model in inputs]


def _check_highdim(inputs, state, outputs, ref, checks: Checks) -> None:
    tols = {"theorem1": ref.TOL_SUP_FREE, "corollary2": ref.TOL_SUP_IDENTITY}
    for (label, _, _, model), closed, results in zip(inputs, state, outputs):
        for kind, want in closed.items():
            got = results[kind].sup_gain
            checks.expect(abs(got - want) <= tols.get(kind, ref.TOL_SUP_LITERATURE),
                          f"{label}: {kind} sup {got:.6f} vs closed form {want:.6f}")
        t1, c2 = results["theorem1"], results["corollary2"]
        checks.expect(t1.sup_gain >= c2.sup_gain - ref.TOL_SUP_FREE,
                      f"{label}: theorem1 sup {t1.sup_gain:.6f} below "
                      f"corollary2 sup {c2.sup_gain:.6f}")
        for kind, result in (("theorem1", t1), ("corollary2", c2)):
            cert = result.certificate
            eps = (lmi.RELAXED_TOL_DEFAULT if cert is not None and cert.tolerance_limited
                   else lmi.EPS_FEAS_DEFAULT)
            ok = cert is not None and lmi.check_certificate(model, cert, eps)[0]
            checks.expect(ok, f"{label}: {kind} certificate failed check_certificate")


# --- mc_classify: Monte Carlo verdicts on 1A-1D at the full protocol ---------

def _build_classify(seed: int):
    return {name: presets.benchmark_model(name) for name in GAUSSIAN_NAMES}


def _prepare_classify(inputs, seed: int):
    return {"seed": seed,
            "results": report.supgain_results(GAUSSIAN_NAMES, models=inputs)}


def _tasks_classify(inputs, state, span):
    # One task per model: batching the gains of one model into fewer
    # simulations keeps this latency comparable, where a per-run_lms
    # latency would not.
    def classify(name):
        return report.classification_annotations(
            state["results"], names=(name,), models=inputs,
            master_seed=state["seed"])
    return [(name, lambda name=name: classify(name)) for name in GAUSSIAN_NAMES]


def _check_classify(inputs, state, outputs, ref, checks: Checks) -> None:
    letters = {}
    for out in outputs:
        letters.update(out)
    for key, want in ref.EXPECTED_LETTERS.items():
        got = letters.get(key, "missing")
        checks.expect(got == want, f"{key[0]}/{key[1].value}: verdict {got} vs {want}")
    extra = set(letters) - set(ref.EXPECTED_LETTERS)
    checks.expect(not extra, f"unexpected verdicts {sorted(extra)}")


# --- mc_ensemble: single-gain simulations of random laws ---------------------

def _build_ensemble(seed: int):
    rng = np.random.default_rng(seed)
    laws = []
    for index in range(_ENSEMBLE_LAWS):
        m = 2 + index % 2
        a = rng.standard_normal((m, m))
        model = moments.gaussian_moment_model(
            moments.GaussianSpec(a @ a.T + 0.1 * np.eye(m)))
        laws.append((model, rng.standard_normal(m),
                     _ENSEMBLE_LAWS * seed + index))
    return laws


def _tasks_ensemble(inputs, state, span):
    c2 = CriterionKind.COROLLARY2

    def certify_and_simulate(model, theta_star, master_seed):
        gain = bounds.protocol_gain(bounds.sup_gain(model, c2).sup_gain)
        chi = bounds.max_chi_search(model, c2, gain).chi
        eye = np.eye(model.dim)
        bound = bounds.finite_k_bound(
            gain, chi, eye, model.second_moment, presets.SIGMA_EPS,
            bounds.initial_v(eye, theta_star), presets.K_MAX)
        sim = simulate.run_lms(simulate.SimConfig(
            model=model, theta_star=theta_star, gain=gain,
            sigma_eps=presets.SIGMA_EPS, k_max=presets.K_MAX,
            replications=_ENSEMBLE_REPLICATIONS, master_seed=master_seed))
        return sim.terminal_mse, bound
    return [(f"law{index}", lambda law=law: certify_and_simulate(*law))
            for index, law in enumerate(inputs)]


def _check_ensemble(inputs, state, outputs, ref, checks: Checks) -> None:
    for index, (mse, bound) in enumerate(outputs):
        checks.expect(mse <= bound,
                      f"law{index}: simulated {mse:.4g} exceeds bound {bound:.4g}")


def _no_state(inputs, seed):
    return None


WORKLOADS = {
    "certify_bench5": Workload(_build_bench5, _no_state, _tasks_bench5,
                               _check_bench5, len(ALL_NAMES), "scalar"),
    "certify_highdim": Workload(_build_highdim, _prepare_highdim, _tasks_highdim,
                                _check_highdim, 3, "scalar"),
    "mc_classify": Workload(_build_classify, _prepare_classify, _tasks_classify,
                            _check_classify, len(GAUSSIAN_NAMES), "vector"),
    "mc_ensemble": Workload(_build_ensemble, _no_state, _tasks_ensemble,
                            _check_ensemble, _ENSEMBLE_LAWS, "scalar"),
}
