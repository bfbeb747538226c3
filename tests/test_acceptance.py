"""Acceptance gate: reference values every release must reproduce.

Each test covers one acceptance criterion and emits a single PASS/FAIL line
(`pytest -v` shows one line per criterion; the printed verdict carries the
sub-check detail on failure).  Tolerances are pinned at module level.
"""

import time

import numpy as np
import pytest

from lmsbound import lmi, presets, report
from lmsbound.bounds import (
    CriterionKind,
    asymptotic_bound,
    finite_k_bound,
    initial_v,
    max_chi_search,
    protocol_gain,
    sup_gain,
)
from lmsbound.moments import GaussianSpec, gaussian_moment_model
from lmsbound.simulate import SimConfig, batch_ls, recursive_ls, run_error_recursion, run_lms
from lmsbound.moments import DataMatrix

GAUSSIAN_NAMES = ("1A", "1B", "1C", "1D")
ALL_NAMES = ("1A", "1B", "1C", "1D", "reed")

# --- pinned tolerances ------------------------------------------------------
TOL_SUP_IDENTITY = 1e-3        # identity-certificate sup gains
TOL_SUP_LITERATURE = 1e-3      # closed-form literature criteria
TOL_SUP_ZHU_1C = 2e-4          # quoted 0.4443 vs analytic 2*0.5/1.5^2
TOL_SUP_FREE = 5e-3            # free-matrix sup gains (bisection-limited)
REL_TOL_BOUND = 0.01           # asymptotic bounds, identity and free routes
REL_TOL_BOUND_ZHU = 0.02       # asymptotic bounds at the zhu rate
FACTOR_BOUND_FREE = 2.0        # free-route bounds quoted at coarse precision
FACTOR_TERMINAL = 2.0          # replication-averaged terminal squared errors
RANGE_DEGENERATE_BOUND = (1e2, 1e3)   # perfectly correlated case, free route
TOL_LSQ = 1e-3                 # recursive vs batch least squares
MC_SIGMA = 3.0                 # Monte Carlo fourth-moment cross-check
BUDGET_IDENTITY_SUPS = 1.0     # seconds
BUDGET_FREE_SUPS = 60.0        # seconds
BUDGET_IDENTITY_BOUNDS = 1.0   # seconds
BUDGET_CLASSIFICATION = 600.0  # seconds

# --- reference values -------------------------------------------------------
REFERENCE_SUP_IDENTITY = {
    "1A": 0.5000, "1B": 0.1538, "1C": 0.4000, "1D": 0.3333, "reed": 0.0716}
REFERENCE_SUP_FREE = {"1A": 0.5000, "1B": 0.1610, "1C": 0.4227, "1D": 0.3333}
REFERENCE_SUP_WIDROW_LMAX = {
    "1A": 2.0000, "1B": 0.5000, "1C": 1.3333, "1D": 1.0000, "reed": 0.1169}
REFERENCE_SUP_WIDROW_TRACE = {
    "1A": 1.0000, "1B": 0.4000, "1C": 1.0000, "1D": 1.0000, "reed": 0.1066}
REFERENCE_SUP_ZHU = {
    "1A": 2.0000, "1B": 0.1250, "1C": 0.4444, "1D": 0.0, "reed": 0.0007}
REFERENCE_BOUND_IDENTITY = {
    "1A": 25.0, "1B": 1.01, "1C": 10.66, "1D": float("inf")}
REFERENCE_BOUND_ZHU = {
    "1A": 0.0050, "1B": 0.0038, "1C": 0.0080, "1D": float("inf")}
REFERENCE_BOUND_FREE = {"1A": 25.0, "1B": 0.049, "1C": 0.11}
REFERENCE_TERMINAL = {"1A": 0.072, "1B": 0.0071, "1C": 0.025, "1D": 0.11}

T1, C2 = CriterionKind.THEOREM1, CriterionKind.COROLLARY2
WLM, WTR, ZHU = (CriterionKind.WIDROW_LAMBDA_MAX, CriterionKind.WIDROW_TRACE,
                 CriterionKind.ZHU)

# Monte Carlo verdicts expected for every (benchmark, criterion) working gain:
# C below the bounded threshold, N above the diverged threshold, - inapplicable.
EXPECTED_LETTERS = {}
for _n in GAUSSIAN_NAMES:
    EXPECTED_LETTERS[(_n, T1)] = "C"
    EXPECTED_LETTERS[(_n, C2)] = "C"
    EXPECTED_LETTERS[(_n, WLM)] = "N"
    EXPECTED_LETTERS[(_n, WTR)] = "N"
EXPECTED_LETTERS.update({("1A", ZHU): "N", ("1B", ZHU): "C",
                         ("1C", ZHU): "C", ("1D", ZHU): "-"})


def _verdict(label, failures):
    print(f"{'FAIL' if failures else 'PASS'}: {label}")
    assert not failures, "; ".join(failures)


def _close(got, want, tol):
    if np.isinf(want):
        return np.isinf(got) and got > 0
    return abs(got - want) <= tol


def _within_factor(got, want, factor):
    return want / factor <= got <= want * factor


@pytest.fixture(scope="module")
def models():
    return {name: presets.benchmark_model(name) for name in ALL_NAMES}


@pytest.fixture(scope="module")
def sup_results(models):
    return report.supgain_results(ALL_NAMES, models=models)


@pytest.fixture(scope="module")
def classification(sup_results, models):
    t0 = time.perf_counter()
    letters = report.classification_annotations(
        sup_results, names=GAUSSIAN_NAMES, models=models)
    return letters, time.perf_counter() - t0


@pytest.fixture(scope="module")
def protocol_sims(models):
    """Terminal replication averages at the identity-certificate working gains."""
    out = {}
    for name in GAUSSIAN_NAMES:
        model = models[name]
        gain = protocol_gain(sup_gain(model, C2).sup_gain)
        out[name] = run_lms(SimConfig(
            model=model, theta_star=presets.THETA_STAR, gain=gain,
            sigma_eps=presets.SIGMA_EPS, k_max=presets.K_MAX,
            replications=presets.REPLICATIONS,
            master_seed=presets.DEFAULT_MASTER_SEED,
            init=presets.protocol_init(presets.DEFAULT_MASTER_SEED)))
    return out


@pytest.fixture(scope="module")
def bound_table(models, sup_results):
    return report.build_errorbound_table(models=models, results=sup_results)


def test_identity_certificate_sup_gains(models):
    failures = []
    t0 = time.perf_counter()
    results = {name: sup_gain(models[name], C2) for name in ALL_NAMES}
    elapsed = time.perf_counter() - t0
    for name, want in REFERENCE_SUP_IDENTITY.items():
        got = results[name].sup_gain
        if not _close(got, want, TOL_SUP_IDENTITY):
            failures.append(f"{name}: sup {got:.6f} vs {want}")
    if not results["1D"].tolerance_limited:
        failures.append("degenerate case should be tolerance-limited")
    strict = sup_gain(models["1D"], C2, mode="strict")
    if not strict.strictly_infeasible:
        failures.append("degenerate case should be strictly infeasible "
                        "under the strict slack test")
    if elapsed > BUDGET_IDENTITY_SUPS:
        failures.append(f"took {elapsed:.2f}s > {BUDGET_IDENTITY_SUPS}s")
    _verdict("identity-certificate sup gains match reference values", failures)


def test_literature_criterion_sup_gains(models):
    failures = []
    table = ((WLM, REFERENCE_SUP_WIDROW_LMAX),
             (WTR, REFERENCE_SUP_WIDROW_TRACE),
             (ZHU, REFERENCE_SUP_ZHU))
    for kind, reference in table:
        for name, want in reference.items():
            result = sup_gain(models[name], kind)
            if not _close(result.sup_gain, want, TOL_SUP_LITERATURE):
                failures.append(
                    f"{kind.value}/{name}: {result.sup_gain:.6f} vs {want}")
    got = sup_gain(models["1C"], ZHU).sup_gain
    if not _close(got, 2.0 * 0.5 / 1.5**2, TOL_SUP_ZHU_1C):
        failures.append(f"zhu_criterion/1C: {got:.6f} off the analytic value")
    if not sup_gain(models["1D"], ZHU).inapplicable:
        failures.append("zhu should be inapplicable on the singular "
                        "second moment")
    _verdict("literature criterion sup gains match reference values", failures)


def test_free_matrix_sup_gains(models, sup_results):
    failures = []
    t0 = time.perf_counter()
    results = {name: sup_gain(models[name], T1) for name in GAUSSIAN_NAMES}
    elapsed = time.perf_counter() - t0
    for name, want in REFERENCE_SUP_FREE.items():
        got = results[name].sup_gain
        if not _close(got, want, TOL_SUP_FREE):
            failures.append(f"{name}: sup {got:.6f} vs {want}")
        pinned = sup_gain(models[name], C2).sup_gain
        if got < pinned - TOL_SUP_FREE:
            failures.append(f"{name}: free certificate {got:.6f} fell below "
                            f"the identity certificate {pinned:.6f}")
    if not results["1D"].tolerance_limited:
        failures.append("degenerate case should be tolerance-limited")
    if sup_results[("reed", T1)] is not None:
        failures.append("printed-moments model must skip the free route")
    cell = report.build_supgain_table(
        ALL_NAMES, results=sup_results).row("theorem1")[ALL_NAMES.index("reed")]
    if cell.text != "skipped" or not cell.note:
        failures.append("skip must be reported explicitly with a reason")
    if elapsed > BUDGET_FREE_SUPS:
        failures.append(f"took {elapsed:.2f}s > {BUDGET_FREE_SUPS}s")
    _verdict("free-matrix sup gains match reference values", failures)


def test_identity_route_error_bounds(models):
    failures = []
    t0 = time.perf_counter()
    for name in GAUSSIAN_NAMES:
        model = models[name]
        gain = protocol_gain(sup_gain(model, C2).sup_gain)
        chi = max_chi_search(model, C2, gain).chi
        got = asymptotic_bound(C2, gain, chi, None, model.second_moment,
                               presets.SIGMA_EPS)
        want = REFERENCE_BOUND_IDENTITY[name]
        if not _close(got, want, REL_TOL_BOUND * want):
            failures.append(f"{name}: bound {got:.4f} vs {want}")
        got = asymptotic_bound(ZHU, gain, None, None, model.second_moment,
                               presets.SIGMA_EPS)
        want = REFERENCE_BOUND_ZHU[name]
        if not _close(got, want, REL_TOL_BOUND_ZHU * want):
            failures.append(f"{name}: zhu-rate bound {got:.6f} vs {want}")
    elapsed = time.perf_counter() - t0
    if elapsed > BUDGET_IDENTITY_BOUNDS:
        failures.append(f"took {elapsed:.2f}s > {BUDGET_IDENTITY_BOUNDS}s")
    _verdict("identity-route error bounds match reference values", failures)


def test_free_matrix_error_bounds(bound_table):
    failures = []
    row = dict(zip(GAUSSIAN_NAMES, bound_table.row("theorem1")))
    flags = dict(zip(GAUSSIAN_NAMES, bound_table.row("flags")))
    got = row["1A"].value
    want = REFERENCE_BOUND_FREE["1A"]
    if not _close(got, want, REL_TOL_BOUND * want):
        failures.append(f"1A: bound {got:.4f} vs {want}")
    for name in ("1B", "1C"):
        got = row[name].value
        if not _within_factor(got, REFERENCE_BOUND_FREE[name],
                              FACTOR_BOUND_FREE):
            failures.append(f"{name}: bound {got:.6f} not within factor "
                            f"{FACTOR_BOUND_FREE} of {REFERENCE_BOUND_FREE[name]}")
    lo, hi = RANGE_DEGENERATE_BOUND
    got = row["1D"].value
    if got is None or not lo <= got <= hi:
        failures.append(f"1D: bound {got} outside [{lo:g}, {hi:g}]")
    if "theorem1 tolerance-limited" not in flags["1D"].text:
        failures.append("1D: missing tolerance-limited flag")
    _verdict("free-matrix error bounds match reference values", failures)


def test_monte_carlo_classifications(classification):
    failures = []
    letters, elapsed = classification
    for key, want in EXPECTED_LETTERS.items():
        got = letters.get(key, "missing")
        if got != want:
            failures.append(f"{key[0]}/{key[1].value}: {got} vs {want}")
    extra = set(letters) - set(EXPECTED_LETTERS)
    if extra:
        failures.append(f"unexpected entries {sorted(extra)}")
    if elapsed > BUDGET_CLASSIFICATION:
        failures.append(f"took {elapsed:.1f}s > {BUDGET_CLASSIFICATION}s")
    _verdict("Monte Carlo classifications match the reference annotations",
             failures)


def test_simulation_dominated_by_finite_k_bound(models, protocol_sims):
    failures = []
    # Benchmarks: free-matrix certificate, shared protocol start.
    init = presets.protocol_init(presets.DEFAULT_MASTER_SEED)
    for name in GAUSSIAN_NAMES:
        model = models[name]
        sim = protocol_sims[name]
        search = max_chi_search(model, T1, sim.gain)
        v0 = initial_v(search.p_matrix, presets.THETA_STAR, init)
        bound = finite_k_bound(sim.gain, search.chi, search.p_matrix,
                               model.second_moment, presets.SIGMA_EPS,
                               v0, presets.K_MAX)
        if not sim.terminal_mse <= bound:
            failures.append(f"{name}: simulated {sim.terminal_mse:.4f} "
                            f"exceeds bound {bound:.4f}")
        if not _within_factor(sim.terminal_mse, REFERENCE_TERMINAL[name],
                              FACTOR_TERMINAL):
            failures.append(
                f"{name}: terminal {sim.terminal_mse:.6f} not within factor "
                f"{FACTOR_TERMINAL} of {REFERENCE_TERMINAL[name]}")
    # Random ensemble: identity certificate, engine-default random start.
    rng = np.random.default_rng(20240815)
    for index in range(20):
        m = 2 + index % 2
        a_mat = rng.standard_normal((m, m))
        model = gaussian_moment_model(
            GaussianSpec(a_mat @ a_mat.T + 0.1 * np.eye(m)))
        theta_star = rng.standard_normal(m)
        gain = protocol_gain(sup_gain(model, C2).sup_gain)
        chi = max_chi_search(model, C2, gain).chi
        eye = np.eye(m)
        v0 = initial_v(eye, theta_star)
        bound = finite_k_bound(gain, chi, eye, model.second_moment,
                               presets.SIGMA_EPS, v0, presets.K_MAX)
        sim = run_lms(SimConfig(
            model=model, theta_star=theta_star, gain=gain,
            sigma_eps=presets.SIGMA_EPS, k_max=presets.K_MAX,
            replications=100, master_seed=index))
        if not sim.terminal_mse <= bound:
            failures.append(f"ensemble[{index}] (dim {m}): simulated "
                            f"{sim.terminal_mse:.4f} exceeds bound {bound:.4f}")
    _verdict("simulated terminal errors stay below the finite-step bounds",
             failures)


def test_cross_validation_consistency(models):
    failures = []
    # Fourth-moment operator versus direct Monte Carlo, entrywise.
    draws = 1_000_000
    rng = np.random.default_rng(2024)
    for name in GAUSSIAN_NAMES:
        model = models[name]
        m = model.dim
        p = rng.standard_normal((m, m))
        p = (p + p.T) / 2.0
        factor = np.linalg.cholesky(model.sampling_cov + 1e-15 * np.eye(m))
        h = rng.standard_normal((draws, m)) @ factor.T
        w = np.einsum("ni,ij,nj->n", h, p, h)
        mc_mean = (h * w[:, None]).T @ h / draws
        mc_sq = ((h * w[:, None]) ** 2).T @ (h ** 2) / draws
        se = np.sqrt(np.maximum(mc_sq - mc_mean ** 2, 0.0) / draws)
        gap = np.abs(mc_mean - model.fourth_moment(p))
        if not np.all(gap <= MC_SIGMA * se + 1e-12):
            worst = float(np.max(gap - MC_SIGMA * se))
            failures.append(f"{name}: fourth moment off by {worst:.3g} "
                            f"beyond {MC_SIGMA} standard errors")
    # Filter recursion and error recursion agree bit for bit at theta* = 0.
    config = dict(model=models["1C"], theta_star=np.zeros(2), gain=0.1,
                  sigma_eps=0.1, k_max=300, replications=20, master_seed=3)
    direct = run_lms(SimConfig(**config))
    errors = run_error_recursion(SimConfig(**config))
    if not np.array_equal(direct.per_replication, errors.per_replication):
        failures.append("filter and error recursions disagree at theta* = 0")
    # Identity-restricted feasibility agrees with the closed-form sign test.
    rng = np.random.default_rng(7)
    for name in GAUSSIAN_NAMES:
        model = models[name]
        checked = 0
        while checked < 50:
            a = float(rng.uniform(0.01, 1.5))
            chi = float(rng.uniform(1e-4, min(2.0 / a - 1e-4, 2.0)))
            q = a * model.m4 - 2.0 * model.second_moment + chi * np.eye(2)
            margin = float(np.linalg.eigvalsh(q)[-1])
            if abs(margin + lmi.STRICT_MARGIN) < 1e-9:
                continue
            predicted = margin <= -lmi.STRICT_MARGIN
            certified = lmi.identity_certificate(model, a, chi, mode="strict") is not None
            if certified != predicted:
                failures.append(f"{name}: solver and closed form disagree "
                                f"at gain {a:.4f}, rate {chi:.4f}")
                break
            checked += 1
    _verdict("independent cross-checks agree (fourth moments, recursions, "
             "feasibility)", failures)


def test_recursive_and_batch_least_squares_agree():
    failures = []
    rng = np.random.default_rng(11)
    for trial in range(5):
        n, m = 200, 3
        rows = rng.standard_normal((n, m))
        theta = rng.standard_normal(m)
        responses = rows @ theta + 0.05 * rng.standard_normal(n)
        data = DataMatrix(rows=rows, responses=responses)
        gap = float(np.linalg.norm(recursive_ls(data) - batch_ls(data)))
        if gap > TOL_LSQ:
            failures.append(f"trial {trial}: estimates differ by {gap:.2e}")
    _verdict("recursive and batch least squares agree", failures)
