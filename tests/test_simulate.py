"""Tests for the Monte Carlo LMS engine and least-squares baselines."""

import contextlib
import errno
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lmsbound import linalg, presets, simulate
from lmsbound.moments import (DataMatrix, GaussianSpec, explicit_moment_model,
                              gaussian_moment_model)
from lmsbound.simulate import (
    DIVERGENCE_GUARD,
    RankDeficient,
    SimBatch,
    SimConfig,
    batch_ls,
    classify,
    recursive_ls,
    run_error_recursion,
    run_lms,
    sampling_factor,
)

THETA = np.array([1.0, 1.0])


def config(name="1A", **kw):
    base = dict(model=presets.benchmark_model(name), theta_star=THETA,
                gain=0.1, sigma_eps=0.1, k_max=200, replications=8,
                master_seed=11)
    base.update(kw)
    return SimConfig(**base)


class TestClassify:
    def test_thresholds(self):
        assert classify(9.99) == "bounded"
        assert classify(10.0) == "indeterminate"
        assert classify(1e8) == "indeterminate"
        assert classify(1.0001e8) == "diverged"
        assert classify(0.0) == "bounded"


class TestSamplingFactor:
    @pytest.mark.parametrize("cov", [
        np.eye(2), np.diag([1.0, 4.0]), np.array([[1.0, 0.5], [0.5, 1.0]])])
    def test_positive_definite_uses_cholesky(self, cov):
        b = sampling_factor(cov)
        assert np.allclose(b @ b.T, cov, atol=1e-12)
        assert np.allclose(b, np.tril(b), atol=1e-14)

    def test_singular_covariance(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = sampling_factor(cov)
        assert np.allclose(b @ b.T, cov, atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(linalg.InvalidMatrix, match="negative eigenvalue"):
            sampling_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_accepts_what_the_model_accepts(self):
        # One PSD rule: an eigenvalue down to -1e-9 max(1, ||C||_F) is noise,
        # so every Gaussian model that builds can be sampled.
        model = gaussian_moment_model(np.diag([1.0, 1, 1, 1, -1.5e-9]))
        res = run_lms(SimConfig(model=model, theta_star=np.ones(5), gain=0.1,
                                k_max=50, replications=4))
        assert res.classification == "bounded"


class TestConfigValidation:
    def test_requires_samplable_model(self):
        printed = explicit_moment_model(np.eye(2), 4.0 * np.eye(2))
        with pytest.raises(ValueError, match="not samplable"):
            config(model=printed)

    def test_theta_star_shape(self):
        with pytest.raises(ValueError, match="theta_star"):
            config(theta_star=np.array([1.0, 1.0, 1.0]))

    def test_gain_sign(self):
        with pytest.raises(ValueError, match="gain"):
            config(gain=-0.1)
        config(gain=0.0)   # a frozen filter is a valid experiment

    def test_sigma_sign(self):
        with pytest.raises(ValueError, match="sigma_eps"):
            config(sigma_eps=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_inputs(self, bad):
        with pytest.raises(ValueError, match="sigma_eps"):
            config(sigma_eps=bad)
        with pytest.raises(ValueError, match="theta_star"):
            config(theta_star=np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="init"):
            config(init=np.array([0.0, bad]))

    def test_protocol_sizes(self):
        with pytest.raises(ValueError, match="k_max and replications"):
            config(k_max=0)
        with pytest.raises(ValueError, match="k_max and replications"):
            config(replications=0)

    @pytest.mark.parametrize("name", ["k_max", "replications"])
    @pytest.mark.parametrize("bad", [10.5, 2.5, 10.0, True])
    def test_protocol_sizes_are_integers(self, name, bad):
        with pytest.raises(ValueError, match="must be integers"):
            config(**{name: bad})

    def test_numpy_integer_sizes(self):
        res = run_lms(config(k_max=np.int64(5), replications=np.int32(3)))
        assert res.k_max == 5 and len(res.per_replication) == 3

    def test_init_law(self):
        with pytest.raises(ValueError, match="unknown init law"):
            config(init="zeros-ish")
        with pytest.raises(ValueError, match="wrong shape"):
            config(init=np.zeros(3))


class TestDeterminism:
    def test_identical_reruns(self):
        a = run_lms(config())
        b = run_lms(config())
        assert np.array_equal(a.per_replication, b.per_replication)
        assert a.terminal_mse == b.terminal_mse

    def test_replication_streams_are_count_invariant(self):
        small = run_lms(config(replications=4))
        large = run_lms(config(replications=8))
        assert np.array_equal(large.per_replication[:4], small.per_replication)

    def test_seed_changes_output(self):
        a = run_lms(config(master_seed=1))
        b = run_lms(config(master_seed=2))
        assert not np.array_equal(a.per_replication, b.per_replication)


class TestFrozenFilter:
    def test_zero_gain_keeps_fixed_init(self):
        start = np.array([3.0, -1.0])
        res = run_lms(config(gain=0.0, init=start, k_max=50))
        expected = float(np.sum((start - THETA) ** 2))
        assert np.all(res.per_replication == expected)

    def test_zero_gain_random_init_matches_law(self):
        # E||theta0 - theta*||^2 = m + ||theta*||^2 = 4 for the default law
        res = run_lms(config(gain=0.0, replications=4000, k_max=1))
        assert res.terminal_mse == pytest.approx(4.0, rel=0.1)


class TestErrorRecursionEquivalence:
    def test_bit_identity_at_zero_parameter(self):
        cfg_a = config(theta_star=np.zeros(2), k_max=300)
        cfg_b = config(theta_star=np.zeros(2), k_max=300)
        a = run_lms(cfg_a)
        b = run_error_recursion(cfg_b)
        assert np.array_equal(a.per_replication, b.per_replication)

    def test_rounding_level_agreement_otherwise(self):
        a = run_lms(config(k_max=300))
        b = run_error_recursion(config(k_max=300))
        assert np.allclose(a.per_replication, b.per_replication,
                           rtol=1e-10, atol=1e-12)


def reference_run_lms(config, horizons=()):
    """The single-gain LMS loop as it stood before gains were batched.

    Kept verbatim (list-and-stack draws, freeze bookkeeping on every step)
    as the reference the batched kernel must match bit for bit.  Returns,
    for each step in ``horizons`` and for ``k_max``, the state a run with
    that ``k_max`` ends in: the squared norms, the number of frozen
    replications and the step on which the last one froze (None if not yet).
    The loop ends once every replication has frozen, as no later step
    changes the state.
    """
    m = config.model.dim
    factor = simulate.sampling_factor(config.model.sampling_cov)
    gens = simulate._make_generators(config.master_seed, config.replications)
    theta = simulate._initial_estimates(config, gens)
    theta_star = config.theta_star
    a, sigma = config.gain, config.sigma_eps

    err = theta - theta_star
    sq = np.einsum("ri,ri->r", err, err)
    active = (sq <= DIVERGENCE_GUARD).astype(float)
    settled_at = None
    states = {}

    step = 0
    while step < config.k_max and settled_at is None:
        length = min(simulate._CHUNK_STEPS, config.k_max - step)
        draws = np.stack([g.standard_normal((length, m + 1)) for g in gens])
        for i in range(length):
            h = draws[:, i, :m] @ factor.T
            eps = sigma * draws[:, i, m]
            z = np.einsum("ri,i->r", h, theta_star) + eps
            resid = np.einsum("ri,ri->r", h, theta) - z
            theta = theta - (a * resid * active)[:, None] * h
            err = theta - theta_star
            sq_new = np.einsum("ri,ri->r", err, err)
            ok = np.isfinite(sq_new) & (sq_new <= DIVERGENCE_GUARD)
            was_active = active.astype(bool)
            frozen = np.where(np.isfinite(sq_new), np.maximum(sq_new, sq), 1e18)
            sq = np.where(was_active & ok, sq_new,
                          np.where(was_active, frozen, sq))
            active = active * ok.astype(float)
            step += 1
            if not active.any():
                settled_at = step
            if step in horizons:
                states[step] = sq, int(np.sum(~active.astype(bool))), settled_at
            if settled_at is not None:
                break
    for horizon in (*horizons, config.k_max):
        states.setdefault(horizon, (sq, int(np.sum(~active.astype(bool))), settled_at))
    return states


def _assert_state(result, state):
    """``result`` ends in the reference loop's ``state``, bit for bit."""
    sq, diverged, settled_at = state
    assert np.array_equal(result.per_replication, sq)
    assert result.diverged_count == diverged
    assert result.settled_step == settled_at


def gaussian_law(cov):
    return gaussian_moment_model(GaussianSpec(np.array(cov, dtype=float)))


M1_MODEL = gaussian_law([[1.5]])
M3_MODEL = gaussian_law([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.6]])
M4_MODEL = gaussian_law(np.diag([1.2, 0.8, 0.5, 0.3]) + 0.1 * np.ones((4, 4)))
M5_MODEL = gaussian_law(np.diag([1.0, 0.7, 0.5, 0.3, 0.2])
                        + 0.05 * np.ones((5, 5)))
M7_MODEL = gaussian_law(np.diag(np.linspace(1.0, 0.2, 7)) + 0.05 * np.ones((7, 7)))
# A law drawn the way the mc_ensemble benchmark draws its m = 3 laws.
_ENSEMBLE_A = np.random.default_rng(5).standard_normal((3, 3))
ENSEMBLE_MODEL = gaussian_law(_ENSEMBLE_A @ _ENSEMBLE_A.T + 0.1 * np.eye(3))
# Fixed so that the run spans many chunks whatever the chunk length.
LONG_RUN = 4103


class TestBatchedKernel:
    # Each batch mixes gains that stay bounded, gains whose replications
    # freeze at different steps, and a gain that freezes within a few steps;
    # it runs to horizons before and after those freezes, to the first two
    # chunk boundaries (one in each draw slot) and one step after each.
    # R = 1 and R = 2 cover the one- and two-row regressor products, which
    # BLAS treats apart.
    @pytest.mark.parametrize("model, theta_star, init, gains, reps", [
        (presets.benchmark_model("1B"), np.array([1.0, 1.0]), "standard_normal",
         [0.05, 0.16, 0.3, 0.45, 0.9], 12),
        (presets.benchmark_model("1A"), np.zeros(2), np.array([0.5, -2.0]),
         [0.1, 0.49, 0.8, 1.9, 1e200], 12),
        (M3_MODEL, np.zeros(3), "standard_normal", [0.2, 0.9, 1.3, 4.0], 12),
        (M3_MODEL, np.array([1.0, -0.5, 2.0]), np.array([0.0, 1.0, 0.0]),
         [0.0, 0.5, 1.2, 3.0], 12),
        (presets.benchmark_model("1C"), np.array([1.0, 1.0]), np.array([0.5, -2.0]),
         [0.05, 0.3, 0.9], 1),
        (presets.benchmark_model("1C"), np.array([1.0, -1.0]), "standard_normal",
         [0.1, 0.6, 2.0], 2),
        (M3_MODEL, np.array([1.0, -0.5, 2.0]), "standard_normal",
         [0.2, 1.3, 4.0], 1),
        (M3_MODEL, np.array([1.0, -0.5, 2.0]), "standard_normal",
         [0.2, 1.3, 4.0], 2),
        (M1_MODEL, np.array([2.0]), "standard_normal", [0.1, 0.4, 1.0, 3.0], 12),
        (M5_MODEL, np.linspace(-1.0, 1.0, 5), "standard_normal",
         [0.05, 0.3, 0.8, 2.0], 12),
        (presets.benchmark_model("1D"), np.array([1.0, 1.0]), "standard_normal",
         [0.1, 0.3, 0.6, 2.0], 12),
        # m = 4 and m = 7 have two and three additions in each lane.
        (M4_MODEL, np.array([1.0, -0.5, 0.25, 2.0]), "standard_normal",
         [0.05, 0.4, 0.6, 1.0, 3.0], 1),
        (M4_MODEL, np.array([1.0, -0.5, 0.25, 2.0]), "standard_normal",
         [0.05, 0.4, 0.6, 1.0, 3.0], 12),
        (M7_MODEL, np.linspace(-1.0, 1.0, 7), "standard_normal",
         [0.05, 0.2, 0.4, 0.8, 3.0], 1),
        (M7_MODEL, np.linspace(-1.0, 1.0, 7), "standard_normal",
         [0.05, 0.2, 0.4, 0.8, 3.0], 12),
        (ENSEMBLE_MODEL, np.array([0.3, -1.2, 0.8]), "standard_normal", [0.1296], 100),
        # As the report runs 1B: its five working gains on the shared start
        # at 1000 replications (the BLAS path of the full protocol).  0.4999
        # and 0.3999 freeze their first replications between horizons 5 and
        # 60 and settle on steps 369 and 1506; the other three stay live.
        (presets.benchmark_model("1B"), np.array([1.0, 1.0]),
         presets.protocol_init(7, 2), [0.1609, 0.1537, 0.4999, 0.3999, 0.1249],
         1000),
    ], ids=["m2-random-init", "m2-fixed-init-zero-star", "m3-random-init-zero-star",
            "m3-fixed-init", "m2-one-replication", "m2-two-replications",
            "m3-one-replication", "m3-two-replications", "m1", "m5",
            "m2-singular-1D", "m4-one-replication", "m4", "m7-one-replication", "m7",
            "m3-ensemble-law", "m2-1B-working-gains-1000"])
    def test_each_gain_matches_reference_loop(self, model, theta_star, init,
                                              gains, reps):
        chunk = simulate._CHUNK_STEPS
        horizons = (1, 5, 60, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, LONG_RUN)
        base = dict(model=model, theta_star=theta_star, sigma_eps=0.1,
                    replications=reps, master_seed=7, init=init)
        # One reference loop per gain, read at every horizon.
        with np.errstate(over="ignore", invalid="ignore"):
            references = [reference_run_lms(
                SimConfig(gain=gain, k_max=LONG_RUN, **base), horizons)
                for gain in gains]
        for k_max in horizons:
            batch = run_lms(SimConfig(gain=gains[0], k_max=k_max, **base),
                            gains=gains)
            assert isinstance(batch, SimBatch) and len(batch) == len(gains)
            assert batch.diverged_count == sum(r.diverged_count for r in batch)
            for gain, result, states in zip(gains, batch, references):
                assert result.gain == gain and result.k_max == k_max
                _assert_state(result, states[k_max])
        settled = [states[LONG_RUN][2] for states in references]
        if len(gains) > 1:
            # The batch covers a gain that settles between two horizons and
            # a gain that never settles.
            assert any(s is not None and horizons[0] < s < horizons[-1]
                       for s in settled)
        assert None in settled

    def test_single_gain_call_returns_one_result(self):
        cfg = config(k_max=300)
        alone = run_lms(cfg)
        (batched,) = run_lms(cfg, gains=[cfg.gain])
        _assert_same(alone, batched)

    def test_drawing_stops_once_every_gain_settles(self, monkeypatch):
        calls = []
        draw = simulate._draw_chunk

        def counting(*args):
            calls.append(args)
            return draw(*args)
        monkeypatch.setattr(simulate, "_draw_chunk", counting)
        k_max = 3 * simulate._CHUNK_STEPS
        batch = run_lms(config(k_max=k_max), gains=[2.0, 5.0])
        assert batch.diverged_count == 2 * 8
        assert len(calls) < math.ceil(k_max / simulate._CHUNK_STEPS)
        # A settled gain ends as a run that stops on the step it settled on.
        for result in batch:
            (early,) = run_lms(config(k_max=result.settled_step), gains=[result.gain])
            _assert_same(result, early)

    def test_error_recursion_batch_matches_lms_at_zero_parameter(self):
        # 1C's correlated factor makes h inexact; R = 1 is the one-row product.
        for name, reps in (("1A", 8), ("1C", 1)):
            cfg = config(name, theta_star=np.zeros(2), k_max=LONG_RUN,
                         replications=reps)
            gains = [0.1, 0.45, 1.0, 2.5]
            direct = run_lms(cfg, gains=gains)
            errors = run_error_recursion(cfg, gains=gains)
            for a, b in zip(direct, errors):
                assert np.array_equal(a.per_replication, b.per_replication)
                assert a.diverged_count == b.diverged_count
                assert a.settled_step == b.settled_step

    def test_start_beyond_guard_settles_on_step_one(self):
        cfg = config(init=np.array([1e7, 0.0]), k_max=300)
        references = [reference_run_lms(replace(cfg, gain=gain), horizons=(1,))
                      for gain in [0.1, 5.0]]
        for k_max in (1, 300):
            batch = run_lms(replace(cfg, k_max=k_max), gains=[0.1, 5.0])
            for result, states in zip(batch, references):
                _assert_state(result, states[k_max])
                assert result.diverged_count == 8
                assert result.settled_step == 1
        # A start whose squared norm overflows keeps the overflow value.
        (result,) = run_lms(replace(cfg, init=np.array([1e160, 0.0])), gains=[0.1])
        assert np.all(result.per_replication == 1e18)
        assert result.settled_step == 1

    def test_error_recursion_matches_lms_with_frozen_rows(self):
        # 1B at 1000 replications: 0.4999 and 0.3999 freeze row by row from
        # steps 13 and 14 on, and 0.4999 settles on step 385 (parked rows,
        # horizons around the freezes); 0.1537 stays live.
        cfg = config("1B", theta_star=np.zeros(2), replications=1000,
                     init=np.array([0.4, -1.1]))
        gains = [0.1537, 0.4999, 0.3999]
        chunk = simulate._CHUNK_STEPS
        for k_max in (1, 10, 40, chunk, chunk + 1, 2 * chunk, 300, 400, 521):
            direct = run_lms(replace(cfg, k_max=k_max), gains=gains)
            errors = run_error_recursion(replace(cfg, k_max=k_max), gains=gains)
            for a, b in zip(direct, errors):
                _assert_same(a, b)
        assert 0 < direct[1].diverged_count and 0 < direct[2].diverged_count

    def test_gains_are_validated(self):
        with pytest.raises(ValueError, match="gain"):
            run_lms(config(), gains=[0.1, -0.2])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(simulate.__file__)))


def _source_env(base=None):
    """``base`` (by default this environment) with lmsbound imported from source."""
    return dict(os.environ if base is None else base, PYTHONPATH=SRC)


def _assert_same(a, b):
    assert np.array_equal(a.per_replication, b.per_replication)
    assert a.settled_step == b.settled_step
    assert a.diverged_count == b.diverged_count
    assert a.terminal_mse == b.terminal_mse
    assert a.terminal_se == b.terminal_se


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no os.sched_setaffinity")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="draws inline without os.fork")
class TestDrawHelper:
    def test_reaped_after_a_run(self):
        run_lms(config(k_max=3 * simulate._CHUNK_STEPS + 5))
        _no_child_left()

    def test_reaped_after_an_early_exit(self):
        k_max = 20 * simulate._CHUNK_STEPS
        batch = run_lms(config(k_max=k_max, replications=200), gains=[2.0, 5.0])
        assert all(r.settled_step < k_max for r in batch)
        _no_child_left()

    def test_reaped_when_a_step_raises(self, monkeypatch):
        # The run raises on the first step of its second chunk, with the
        # helper drawing the third.
        cfg = config(k_max=5 * simulate._CHUNK_STEPS)
        stepped = []
        steps = simulate._steps

        def failing_steps(state, hs, *args):
            if sum(stepped) == simulate._CHUNK_STEPS:
                raise FloatingPointError("injected")
            stepped.append(len(hs))
            return steps(state, hs, *args)
        monkeypatch.setattr(simulate, "_steps", failing_steps)
        with pytest.raises(FloatingPointError, match="injected"):
            run_lms(cfg)
        assert sum(stepped) == simulate._CHUNK_STEPS
        _no_child_left()

    def test_parent_raises_when_the_helper_fails(self, monkeypatch):
        # The helper raises while drawing its third chunk; the run would
        # otherwise step for many minutes.
        parent = os.getpid()
        fill = simulate._Streams.fill

        def failing_fill(streams, index):
            if os.getpid() != parent and index == 2:
                raise FloatingPointError("injected")
            fill(streams, index)
        monkeypatch.setattr(simulate._Streams, "fill", failing_fill)
        with _deadline(30), pytest.raises(RuntimeError, match="helper process ended"):
            run_lms(config(k_max=10**8))
        _no_child_left()

    def test_helper_exits_when_its_request_pipe_closes(self):
        gens = simulate._make_generators(3, 4)
        with simulate._Streams(gens, 10 * simulate._CHUNK_STEPS,
                               simulate._CHUNK_STEPS, 2) as streams:
            simulate._draw_chunk(streams)
            # Point the request descriptor at /dev/null: the helper then
            # sees EOF, as when its parent dies.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, streams.request)
            os.close(null)
            deadline = time.monotonic() + 30
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            while (info := os.waitid(os.P_PID, streams.pid, flags)) is None:
                assert time.monotonic() < deadline, "helper still running"
                time.sleep(0.01)
            assert (info.si_code, info.si_status) == (os.CLD_EXITED, 0)
        _no_child_left()

    def test_inline_draws_without_fork_are_identical(self, monkeypatch):
        cfg = config("1B")
        gains = [0.1, 0.45, 0.9]
        horizons = (1, simulate._CHUNK_STEPS, 300, 3 * simulate._CHUNK_STEPS + 7)
        forked = [run_lms(replace(cfg, k_max=k), gains=gains) for k in horizons]
        monkeypatch.delattr(os, "fork")
        with simulate._Streams(simulate._make_generators(0, 1), 5, 5, 1) as streams:
            assert streams.pid is None
        for k, batch in zip(horizons, forked):
            for a, b in zip(batch, run_lms(replace(cfg, k_max=k), gains=gains)):
                _assert_same(a, b)

    @needs_affinity
    def test_helper_runs_off_the_parents_cpu(self, monkeypatch):
        parent = os.sched_getaffinity(0)
        if len(parent) < 2 or not os.path.exists("/proc/thread-self/stat"):
            pytest.skip("needs two CPUs and /proc/thread-self")
        assert simulate._running_cpu() in parent
        at_fork = []
        running_cpu = simulate._running_cpu

        def recorded():
            at_fork.append(running_cpu())
            return at_fork[-1]
        monkeypatch.setattr(simulate, "_running_cpu", recorded)
        chunk = simulate._CHUNK_STEPS
        with simulate._Streams(simulate._make_generators(3, 4), 10 * chunk,
                               chunk, 2) as streams:
            # The helper pins itself before it fills chunk 0.
            simulate._draw_chunk(streams)
            helper = os.sched_getaffinity(streams.pid)
            # The conftest check for child processes still sees it.
            assert os.waitpid(streams.pid, os.WNOHANG) == (0, 0)
        assert len(at_fork) == 1 and helper == parent - set(at_fork)
        assert os.sched_getaffinity(0) == parent
        _no_child_left()

    @needs_affinity
    def test_parent_affinity_is_kept(self, monkeypatch):
        parent = os.sched_getaffinity(0)
        run_lms(config(k_max=3 * simulate._CHUNK_STEPS + 5))
        assert os.sched_getaffinity(0) == parent

        def failing_steps(*args):
            raise FloatingPointError("injected")
        monkeypatch.setattr(simulate, "_steps", failing_steps)
        with pytest.raises(FloatingPointError, match="injected"):
            run_lms(config(k_max=3 * simulate._CHUNK_STEPS))
        assert os.sched_getaffinity(0) == parent
        _no_child_left()

    @needs_affinity
    @pytest.mark.parametrize("case", ["one-cpu", "no-sched-setaffinity",
                                      "unreadable-proc", "setaffinity-fails"])
    def test_helper_left_unpinned(self, monkeypatch, case):
        cfg = config("1B", k_max=3 * simulate._CHUNK_STEPS + 7)
        gains = [0.1, 0.45, 0.9]
        pinned = run_lms(cfg, gains=gains)
        getaffinity = os.sched_getaffinity
        parent = getaffinity(0)

        def fails(*args, **kwargs):
            raise PermissionError(errno.EPERM, "injected")
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(parent)})
        elif case == "no-sched-setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity")
        elif case == "unreadable-proc":
            monkeypatch.setattr(simulate, "open", fails, raising=False)
        else:
            monkeypatch.setattr(os, "sched_setaffinity", fails)
        chunk = simulate._CHUNK_STEPS
        with simulate._Streams(simulate._make_generators(3, 4), 10 * chunk,
                               chunk, 2) as streams:
            simulate._draw_chunk(streams)
            assert getaffinity(streams.pid) == parent
        for a, b in zip(pinned, run_lms(cfg, gains=gains)):
            _assert_same(a, b)
        assert getaffinity(0) == parent
        _no_child_left()


BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="draws inline without os.fork")
class TestForkSafety:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    @pytest.mark.parametrize("pinned", [True, False],
                             ids=["one-blas-thread", "default-blas-threads"])
    def test_forked_run_in_a_process_running_blas_threads(self, monkeypatch, tmp_path,
                                                         pinned):
        script = """
import sys
import numpy as np
from lmsbound import presets, simulate
a = np.random.default_rng(0).standard_normal((400, 400))
a @ a    # starts the BLAS thread pool, if there is one, before the fork
with open("/proc/self/status") as status:
    print([line.split()[1] for line in status if line.startswith("Threads:")][0])
batch = simulate.run_lms(simulate.SimConfig(
    model=presets.benchmark_model("1C"), theta_star=np.ones(2), gain=0.1,
    k_max=600, replications=1000, master_seed=4), gains=[0.1, 0.3, 0.45])
np.save(sys.argv[1], np.stack([r.per_replication for r in batch]))
"""
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        if pinned:
            env.update(dict.fromkeys(BLAS_VARIABLES, "1"))
        out = tmp_path / "rows.npy"
        proc = subprocess.run([sys.executable, "-c", script, str(out)],
                              env=_source_env(env), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        threads = int(proc.stdout.split()[0])
        if not pinned and (os.cpu_count() or 1) > 1:
            assert threads > 1, "the BLAS thread pool did not start"
        monkeypatch.delattr(os, "fork")
        alone = run_lms(SimConfig(
            model=presets.benchmark_model("1C"), theta_star=np.ones(2), gain=0.1,
            k_max=600, replications=1000, master_seed=4), gains=[0.1, 0.3, 0.45])
        assert np.array_equal(np.load(out),
                              np.stack([r.per_replication for r in alone]))

    def test_fork_warning_of_a_threaded_process_is_ignored(self, monkeypatch):
        # Python >= 3.12 warns in the parent after forking a threaded process.
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                              "use of fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid
        cfg = config("1B", k_max=300)
        gains = [0.1, 0.45, 0.9]
        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forked = run_lms(cfg, gains=gains)
        _no_child_left()
        monkeypatch.delattr(os, "fork")
        for a, b in zip(forked, run_lms(cfg, gains=gains)):
            _assert_same(a, b)


SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                           np.inf, -np.inf, np.nan, 1e300, -3e299, 1e-300, 1e308,
                           -1e-308, 1.3e154, -1.5, 1.0 + 2.0**-52])


def _special_rows(m, rng):
    """m-vectors over values that stress a dot product's rounding: every one
    for m <= 2, 40 000 drawn at random beyond."""
    if m > 2:
        return rng.choice(SPECIAL_VALUES, size=(40_000, m))
    grid = np.meshgrid(*([SPECIAL_VALUES] * m), indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def _reductions(a, b):
    """Each row reduction the kernel replaced, on (n, m) rows a and b:
    (subscripts, x, y) with einsum's operands, x * y broadcasting."""
    n, m = a.shape
    half = n // 2 * 2
    g_a = a[:half].reshape(2, -1, m)                        # (G, R, m)
    g_b = b[:half].reshape(2, -1, m)
    return [("gri,ri->gr", g_a, g_b[0]),                    # residuals
            ("gri,gri->gr", g_a, g_b),                      # squared norms
            ("ri,i->r", a, b[n // 3]),                      # measurements
            ("ri,ri->r", a, b)]                             # initial norms


class TestRowDot:
    # The two-lane reduction must reproduce np.einsum for every input the
    # kernel can meet, overflow and NaN included, on each reduction it
    # replaced; it first differs at m = 8, which nothing simulates.
    @staticmethod
    def assert_equals_einsum(a, b):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for subscripts, x, y in _reductions(a, b):
                products = np.ascontiguousarray(np.moveaxis(x * y, -1, 0))
                assert np.array_equal(simulate._component_sum(products),
                                      np.einsum(subscripts, x, y), equal_nan=True)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_equals_einsum_on_special_values(self, m):
        rng = np.random.default_rng(m)
        rows = _special_rows(m, rng)
        if m > 2:
            self.assert_equals_einsum(rows, rng.permutation(rows))
        else:   # every pair of rows
            self.assert_equals_einsum(np.repeat(rows, len(rows), axis=0),
                                      np.tile(rows, (len(rows), 1)))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_equals_einsum_on_random_magnitudes(self, m):
        rng = np.random.default_rng(m)

        def draw(n):
            return (rng.standard_normal((n, m))
                    * 10.0 ** rng.integers(-300, 300, size=(n, m)))
        for n in (1, 3, 7, 16, 257, 2000):
            self.assert_equals_einsum(draw(n), draw(n))


class TestTimesRows:
    # One component-major step gives the bits of the row-major update
    # theta - (scale * (h . theta - z))[..., None] * h, for one gain and for
    # several.
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", [(1, 50), (3, 500)], ids=["one_gain", "gains"])
    def test_equals_broadcast_product(self, m, shape):
        rng = np.random.default_rng(m)

        def draw(*dims):
            return (rng.standard_normal(dims)
                    * 10.0 ** rng.integers(-100, 100, size=dims))
        theta, h, z = draw(*shape, m), draw(shape[1], m), draw(shape[1])
        scale = rng.choice([0.0, 0.3, 1.7], size=shape)
        theta[0, :3, 0] = [np.inf, np.nan, -0.0]
        h[3:5, 0] = [0.0, -0.0]
        history = np.empty((1, m) + shape)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            expected = theta - (scale * (np.einsum("gri,ri->gr", theta, h) - z)
                                )[..., None] * h
            last = simulate._steps(np.moveaxis(theta, -1, 0).copy(),
                                   h.T[None, :, None], z[None, None], scale, history)
        assert np.array_equal(np.moveaxis(last, 0, -1), expected, equal_nan=True)
        assert np.array_equal(last, history[0], equal_nan=True)


def _unfrozen_norms(config):
    """Every replication's squared error norm after each step, with no guard:
    the reference loop's arithmetic, (k_max, R)."""
    m = config.model.dim
    factor = simulate.sampling_factor(config.model.sampling_cov)
    gens = simulate._make_generators(config.master_seed, config.replications)
    theta = simulate._initial_estimates(config, gens)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        while len(out) < config.k_max:
            length = min(simulate._CHUNK_STEPS, config.k_max - len(out))
            draws = np.stack([g.standard_normal((length, m + 1)) for g in gens])
            for i in range(length):
                h = draws[:, i, :m] @ factor.T
                z = (np.einsum("ri,i->r", h, config.theta_star)
                     + config.sigma_eps * draws[:, i, m])
                resid = np.einsum("ri,ri->r", h, theta) - z
                theta = theta - (config.gain * resid)[:, None] * h
                err = theta - config.theta_star
                out.append(np.einsum("ri,ri->r", err, err))
    return np.array(out)


class TestBlockGuard:
    # The guard reads a block's squared norms at its end.  A replication that
    # crosses the guard and falls back below it within one block must still
    # freeze at the value and step of its first crossing.  The start sits just
    # below the guard, so at these gains many replications cross and fall
    # back; G * R gives the shortest block, and the shorter horizons end
    # blocks of the full run in their middle.
    def test_first_crossing_within_a_block_freezes(self):
        gains = [0.3, 0.5, 0.7, 5.0]
        reps, k_max = 2048, 300
        chunk = simulate._CHUNK_STEPS
        horizons = (3, 13, 100, chunk + 5, 299, k_max)
        block = simulate._block_steps(1, len(gains), reps)
        assert block == 8
        base = dict(model=M1_MODEL, theta_star=np.array([0.5]), sigma_eps=0.1,
                    replications=reps, master_seed=3, init=np.array([9.9e5]))
        # The block ends of the full run: each block is at most `block` steps
        # and ends at every chunk end and at k_max.
        stops = [chunk, 2 * chunk, k_max]
        ends, step = set(), 0
        while step < k_max:
            step = min(step + block, next(s for s in stops if s > step))
            ends.add(step)
        batches = [run_lms(SimConfig(gain=gains[0], k_max=k, **base), gains=gains)
                   for k in horizons]
        settled = []
        for j, gain in enumerate(gains):
            cfg = SimConfig(gain=gain, k_max=k_max, **base)
            states = reference_run_lms(cfg, horizons)
            norms = _unfrozen_norms(cfg)
            crossing = ~(norms <= DIVERGENCE_GUARD)
            first = np.argmax(crossing, axis=0)   # index of the first crossing
            falls_back = [r for r in np.flatnonzero(crossing.any(axis=0))
                          if first[r] + 1 not in ends and first[r] + 1 < k_max
                          and norms[first[r] + 1, r] <= DIVERGENCE_GUARD]
            if gain < 1:
                assert len(falls_back) > 10
            for k, batch in zip(horizons, batches):
                _assert_state(batch[j], states[k])
            settled.append(states[k_max][2])
        # The largest gain settles within a block, off its end.
        assert settled[-1] is not None and settled[-1] not in ends
        assert settled[0] is None


class TestBlockLength:
    # Each guard block forms its regressors and measurements from the
    # chunk's draws at the block's offset.  At 1 and 7 steps blocks start
    # at every offset of a chunk; 100 does not divide the chunk, so blocks
    # of 100 and 28 steps alternate.  The three largest gains settle, some
    # in the middle of a block of each length, and the horizons lie past
    # one and two chunk ends.
    @staticmethod
    def block_ends(block, k_max):
        """The steps on which a run's blocks end: every ``block`` steps from
        each chunk start, at each chunk end and at ``k_max``."""
        chunk = simulate._CHUNK_STEPS
        return {min(start + i, k_max) for start in range(0, k_max, chunk)
                for i in [*range(block, chunk, block), chunk]}

    @pytest.mark.parametrize("reps", [1, 2, 12])
    def test_bits_do_not_depend_on_the_block_length(self, monkeypatch, reps):
        gains = [0.05, 0.45, 0.9, 1.6, 3.0]
        chunk = simulate._CHUNK_STEPS
        horizons = (chunk + 3, 2 * chunk + 37)
        base = dict(model=presets.benchmark_model("1B"), theta_star=THETA,
                    sigma_eps=0.1, replications=reps, master_seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            references = [reference_run_lms(
                SimConfig(gain=gain, k_max=horizons[-1], **base), horizons)
                for gain in gains]
        settled = [states[horizons[-1]][2] for states in references]
        assert settled[0] is None
        for block in (7, 100):
            ends = self.block_ends(block, horizons[-1])
            assert any(s is not None and s not in ends for s in settled)
        runs = {k: run_lms(SimConfig(gain=gains[0], k_max=k, **base), gains=gains)
                for k in horizons}
        for block in (1, 7, 100):
            monkeypatch.setattr(simulate, "_block_steps", lambda *args: block)
            for k in horizons:
                batch = run_lms(SimConfig(gain=gains[0], k_max=k, **base), gains=gains)
                for result, default, states in zip(batch, runs[k], references):
                    _assert_same(result, default)
                    _assert_state(result, states[k])


class TestKernelMemory:
    # The kernel forms its regressors and measurements per guard block, so
    # its buffers scale with the block, not the chunk.  The draw slots are
    # ``mmap`` memory, which tracemalloc does not see; the peak is what the
    # parent allocates through numpy.
    @staticmethod
    def traced_peak(config, gains=None):
        tracemalloc.start()
        try:
            run_lms(config, gains=gains)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_batch_peak_at_a_thousand_replications(self):
        # As the report runs 1B: its five working gains, 8-step blocks.
        gains = [0.1609, 0.1537, 0.4999, 0.3999, 0.1249]
        cfg = config("1B", gain=gains[0], k_max=2 * simulate._CHUNK_STEPS + 5,
                     replications=1000, master_seed=7, init=presets.protocol_init(7, 2))
        # Chunk-sized buffers peak at about 8.7 MiB, block-sized ones at 2.2.
        assert self.traced_peak(cfg, gains) < 4 * 2**20

    def test_single_gain_peak_with_whole_chunk_blocks(self):
        # At R = 100 a block spans the whole chunk; its history stays small.
        cfg = config("1B", k_max=2 * simulate._CHUNK_STEPS + 5, replications=100)
        assert simulate._block_steps(2, 1, 100) == simulate._CHUNK_STEPS
        assert self.traced_peak(cfg) < 1.5 * 2**20


class TestDivergenceGuard:
    def test_all_replications_diverge_without_crash(self):
        res = run_lms(config(gain=5.0, k_max=2000, replications=6))
        assert res.diverged_count == 6
        assert res.classification == "diverged"
        assert np.all(np.isfinite(res.per_replication))
        assert res.terminal_mse > 1e8

    def test_stable_gain_has_no_divergence(self):
        res = run_lms(config(gain=0.1, k_max=500))
        assert res.diverged_count == 0
        assert res.classification == "bounded"


class TestCheckpoints:
    def test_checkpoints_decay_toward_floor(self):
        first = run_lms(config(gain=0.1, k_max=1, replications=64))
        last = run_lms(config(gain=0.1, k_max=2000, replications=64))
        assert last.terminal_mse < first.terminal_mse


class TestFrozenComponent:
    def test_perfectly_correlated_case_keeps_orthogonal_error(self):
        # Regressors are multiples of (1, 1), so the (1, -1) error
        # component never moves; with sigma_eps = 0 and init (2, 0) the
        # live component starts at zero and the terminal error is exactly
        # the frozen part: ||(1, -1)||^2 = 2.
        res = run_lms(config("1D", gain=0.2, sigma_eps=0.0,
                             init=np.array([2.0, 0.0]), k_max=500))
        assert np.all(res.per_replication == 2.0)


def synthetic_regression(seed, n=200, m=4):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m))
    truth = rng.standard_normal(m)
    z = rows @ truth + 0.05 * rng.standard_normal(n)
    return DataMatrix(rows, z)


class TestLeastSquares:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_numpy_lstsq(self, seed):
        data = synthetic_regression(seed)
        theta = batch_ls(data)
        oracle, *_ = np.linalg.lstsq(data.rows, data.responses, rcond=None)
        assert np.allclose(theta, oracle, atol=1e-10)

    def test_underdetermined_rejected(self):
        data = DataMatrix(np.ones((2, 3)), np.ones(2))
        with pytest.raises(RankDeficient):
            batch_ls(data)

    def test_collinear_columns_rejected(self):
        rows = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
        data = DataMatrix(rows, np.arange(10.0))
        with pytest.raises(RankDeficient):
            batch_ls(data)

    def test_needs_responses(self):
        with pytest.raises(ValueError, match="response"):
            batch_ls(DataMatrix(np.eye(3)))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_recursive_matches_batch_with_diffuse_prior(self, seed):
        data = synthetic_regression(seed)
        batch = batch_ls(data)
        recursive = recursive_ls(data)
        assert float(np.linalg.norm(recursive - batch)) <= 1e-3

    def test_recursive_prior_scale_controls_agreement(self):
        data = synthetic_regression(5)
        batch = batch_ls(data)
        tight = recursive_ls(data, p0_scale=1e2)
        diffuse = recursive_ls(data, p0_scale=1e8)
        assert (np.linalg.norm(diffuse - batch)
                < np.linalg.norm(tight - batch))


class TestResultStatistics:
    def test_terminal_se_definition(self):
        res = run_lms(config(k_max=50))
        per = res.per_replication
        assert res.terminal_se == pytest.approx(
            float(np.std(per, ddof=1)) / np.sqrt(len(per)), rel=1e-12)

    def test_single_replication_has_zero_se(self):
        res = run_lms(config(replications=1, k_max=50))
        assert res.terminal_se == 0.0

    def test_result_echoes_protocol(self):
        res = run_lms(config(master_seed=99, k_max=50))
        assert res.master_seed == 99
        assert res.k_max == 50
        assert res.replications == 8
        assert res.gain == 0.1


class TestSharedProtocolInit:
    def test_deterministic_in_master_seed(self):
        a = presets.protocol_init(42)
        b = presets.protocol_init(42)
        c = presets.protocol_init(43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (2,)

    def test_does_not_collide_with_replication_streams(self):
        # replication streams use spawn_key=(r,); the shared draw reserves
        # the largest 32-bit index
        shared = presets.protocol_init(7, dim=2)
        rep0 = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(7, spawn_key=(0,)))).standard_normal(2)
        assert not np.array_equal(shared, rep0)
