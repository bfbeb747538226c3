"""Tests for the Monte Carlo LMS engine and least-squares baselines."""

import math

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
    replay_lms,
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

    def test_protocol_sizes(self):
        with pytest.raises(ValueError, match="k_max and replications"):
            config(k_max=0)
        with pytest.raises(ValueError, match="k_max and replications"):
            config(replications=0)

    def test_init_law(self):
        with pytest.raises(ValueError, match="unknown init law"):
            config(init="zeros-ish")
        with pytest.raises(ValueError, match="wrong shape"):
            config(init=np.zeros(3))

    def test_checkpoints_in_range(self):
        with pytest.raises(ValueError, match="checkpoints"):
            config(checkpoints=(0,))
        with pytest.raises(ValueError, match="checkpoints"):
            config(checkpoints=(201,))
        cfg = config(checkpoints=(50, 10, 50))
        assert cfg.checkpoints == (10, 50)


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


def reference_run_lms(config):
    """The single-gain LMS loop as it stood before gains were batched.

    Kept verbatim (list-and-stack draws, freeze bookkeeping on every step)
    as the reference the batched kernel must match bit for bit.  Also
    returns the step on which the last replication froze (None if never).
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
    checkpoint_mse = {}
    settled_at = None

    step = 0
    while step < config.k_max:
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
            if step in config.checkpoints:
                checkpoint_mse[step] = float(np.mean(sq))
            if settled_at is None and not active.any():
                settled_at = step
    return sq, int(np.sum(~active.astype(bool))), checkpoint_mse, settled_at


M3_MODEL = gaussian_moment_model(GaussianSpec(np.array(
    [[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.6]])))
LONG_RUN = 2 * simulate._CHUNK_STEPS + 7


class TestBatchedKernel:
    # Each batch mixes gains that stay bounded, gains whose replications
    # freeze at different steps, and a gain that freezes within a few steps;
    # the checkpoints fall before and after those freezes and across chunks.
    @pytest.mark.parametrize("model, theta_star, init, gains", [
        (presets.benchmark_model("1B"), np.array([1.0, 1.0]), "standard_normal",
         [0.05, 0.16, 0.3, 0.45, 0.9]),
        (presets.benchmark_model("1A"), np.zeros(2), np.array([0.5, -2.0]),
         [0.1, 0.49, 0.8, 1.9, 1e200]),
        (M3_MODEL, np.zeros(3), "standard_normal", [0.2, 0.9, 1.3, 4.0]),
        (M3_MODEL, np.array([1.0, -0.5, 2.0]), np.array([0.0, 1.0, 0.0]),
         [0.0, 0.5, 1.2, 3.0]),
    ], ids=["m2-random-init", "m2-fixed-init-zero-star", "m3-random-init-zero-star",
            "m3-fixed-init"])
    def test_each_gain_matches_reference_loop(self, model, theta_star, init, gains):
        checkpoints = (1, 5, 60, simulate._CHUNK_STEPS, 3000, LONG_RUN)
        base = dict(model=model, theta_star=theta_star, sigma_eps=0.1,
                    k_max=LONG_RUN, replications=12, master_seed=7, init=init,
                    checkpoints=checkpoints)
        batch = run_lms(SimConfig(gain=gains[0], **base), gains=gains)
        assert isinstance(batch, SimBatch) and len(batch) == len(gains)
        settled = []
        for gain, result in zip(gains, batch):
            with np.errstate(over="ignore", invalid="ignore"):
                sq, diverged, checkpoint_mse, settled_at = reference_run_lms(
                    SimConfig(gain=gain, **base))
            assert result.gain == gain
            assert np.array_equal(result.per_replication, sq)
            assert result.diverged_count == diverged
            assert result.checkpoint_mse == checkpoint_mse
            settled.append(settled_at)
        assert batch.diverged_count == sum(r.diverged_count for r in batch)
        # The batch covers a gain that settles between two checkpoints and
        # a gain that never settles.
        assert any(s is not None and checkpoints[0] < s < checkpoints[-1]
                   for s in settled)
        assert None in settled

    def test_single_gain_call_returns_one_result(self):
        cfg = config(k_max=300)
        alone = run_lms(cfg)
        (batched,) = run_lms(cfg, gains=[cfg.gain])
        assert np.array_equal(alone.per_replication, batched.per_replication)
        assert alone.checkpoint_mse == batched.checkpoint_mse

    def test_drawing_stops_once_every_gain_settles(self, monkeypatch):
        calls = []
        draw = simulate._draw_chunk

        def counting(*args):
            calls.append(args[2])
            return draw(*args)
        monkeypatch.setattr(simulate, "_draw_chunk", counting)
        k_max = 3 * simulate._CHUNK_STEPS
        batch = run_lms(config(k_max=k_max, checkpoints=(k_max,)), gains=[2.0, 5.0])
        assert batch.diverged_count == 2 * 8
        assert len(calls) < math.ceil(k_max / simulate._CHUNK_STEPS)
        for result in batch:
            assert result.checkpoint_mse[k_max] == result.terminal_mse

    def test_error_recursion_batch_matches_lms_at_zero_parameter(self):
        cfg = config(theta_star=np.zeros(2), k_max=LONG_RUN)
        gains = [0.1, 0.45, 1.0, 2.5]
        direct = run_lms(cfg, gains=gains)
        errors = run_error_recursion(cfg, gains=gains)
        for a, b in zip(direct, errors):
            assert np.array_equal(a.per_replication, b.per_replication)
            assert a.diverged_count == b.diverged_count

    def test_gains_are_validated(self):
        with pytest.raises(ValueError, match="gain"):
            run_lms(config(), gains=[0.1, -0.2])


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
    def test_checkpoint_steps_recorded(self):
        res = run_lms(config(checkpoints=(1, 100, 200)))
        assert sorted(res.checkpoint_mse) == [1, 100, 200]
        assert res.checkpoint_mse[200] == pytest.approx(res.terminal_mse)

    def test_checkpoints_decay_toward_floor(self):
        res = run_lms(config(gain=0.1, k_max=2000, replications=64,
                             checkpoints=(1, 2000)))
        assert res.checkpoint_mse[2000] < res.checkpoint_mse[1]


class TestFrozenComponent:
    def test_perfectly_correlated_case_keeps_orthogonal_error(self):
        # Regressors are multiples of (1, 1), so the (1, -1) error
        # component never moves; with sigma_eps = 0 and init (2, 0) the
        # live component starts at zero and the terminal error is exactly
        # the frozen part: ||(1, -1)||^2 = 2.
        res = run_lms(config("1D", gain=0.2, sigma_eps=0.0,
                             init=np.array([2.0, 0.0]), k_max=500))
        assert np.all(res.per_replication == 2.0)


class TestReplay:
    def test_hand_example(self):
        data = DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]),
                          np.array([1.0, 1.0]))
        theta = replay_lms(data, gain=0.5)
        assert np.array_equal(theta, np.array([0.5, 0.5]))

    def test_needs_responses(self):
        data = DataMatrix(np.eye(2))
        with pytest.raises(ValueError, match="response"):
            replay_lms(data, gain=0.1)

    def test_theta0_shape(self):
        data = DataMatrix(np.eye(2), np.ones(2))
        with pytest.raises(ValueError, match="theta0"):
            replay_lms(data, gain=0.1, theta0=np.zeros(3))


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
