"""Seeded Monte Carlo engine for the LMS recursion, plus least-squares baselines.

Streams
-------
Replication ``r`` draws from a counter-based Philox generator seeded with
``SeedSequence(master_seed, spawn_key=(r,))``, so its stream depends only on
(master_seed, r): adding replications or re-running a single replication
reproduces the same numbers.  Per replication the draw order is fixed: the
initial estimate (m standard normals, when the init law is random), then per
step m standard normals for the regressor and one for the measurement noise.
Each run draws chunks of steps in place into one reused (R, chunk, m+1)
buffer.  Replications are reduced in index order; the engine is
single-process and fully deterministic.

Shared streams across gains
---------------------------
Since the streams do not depend on the gain, ``run_lms(config, gains=...)``
steps any number of gains over one draw of them: the state is a (G, R, m)
array, the regressor and noise of a step are computed once for every gain,
and each gain's result is bit-identical to running that gain alone.  A
replication whose squared error norm exceeds 1e12 is frozen (short-
circuited) to avoid overflow, keeping that first value beyond the guard
(1e18 if it overflowed); the freeze threshold sits far above the 1e8
divergence classification line so no borderline run is misclassified.  The
freeze bookkeeping runs only on steps where some replication is frozen or
freezes.  A gain whose replications are all frozen leaves the batch on that
step, its later checkpoints take its frozen mean, and drawing stops once no
gain is left.

Recursions
----------
``run_lms`` propagates the estimate theta_k with synthesized measurements
z_k = h_k . theta* + eps_k;  ``run_error_recursion`` propagates the error
e_k = theta_k - theta* directly.  The two recursions are algebraically
identical; they share the stepping kernel and keep separate update lines on
purpose, as a cross-check of the stream plumbing: with theta* = 0 they
perform the same floating-point operations and agree bit for bit; with a
nonzero theta* they agree to rounding error.

Regressors are sampled through the Cholesky factor when the covariance is
positive definite and through the eigendecomposition otherwise, which
handles exactly singular covariances without any jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .moments import DataMatrix, MomentModel

DIVERGENCE_GUARD = 1e12
BOUNDED_THRESHOLD = 10.0
DIVERGED_THRESHOLD = 1e8
_CHUNK_STEPS = 2048


class RankDeficient(ValueError):
    """The normal equations are singular (fewer independent rows than columns)."""


def classify(terminal_mse: float) -> str:
    """Map a terminal mean-squared error to its stability verdict."""
    if terminal_mse < BOUNDED_THRESHOLD:
        return "bounded"
    if terminal_mse > DIVERGED_THRESHOLD:
        return "diverged"
    return "indeterminate"


def sampling_factor(covariance: np.ndarray) -> np.ndarray:
    """Matrix B with B B^T = covariance, for sampling h = B g.

    Positive definite covariances use the Cholesky factor; singular ones
    fall back to V sqrt(max(Lambda, 0)) from the eigendecomposition, which
    is exact for rank-deficient laws.
    """
    cov = linalg.symmetrize(covariance)
    try:
        return linalg.cholesky(cov)
    except linalg.NotPositiveDefinite:
        values, vectors = linalg.eigh(cov)
        scale = max(1.0, float(values[-1]))
        if values[0] < -1e-9 * scale:
            raise linalg.InvalidMatrix(
                f"covariance has a negative eigenvalue ({values[0]:.3g})")
        return vectors * np.sqrt(np.maximum(values, 0.0))


@dataclass
class SimConfig:
    """One Monte Carlo experiment: model, true parameter, gain and protocol sizes."""

    model: MomentModel
    theta_star: np.ndarray
    gain: float
    sigma_eps: float = 0.1
    k_max: int = 10_000
    replications: int = 1000
    master_seed: int = 0
    init: Union[str, np.ndarray] = "standard_normal"
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self):
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        if self.model.sampling_cov is None:
            raise ValueError("model is not samplable (no Gaussian covariance attached)")
        if self.theta_star.shape != (self.model.dim,):
            raise ValueError(
                f"theta_star has shape {self.theta_star.shape}, model dim is {self.model.dim}")
        if not (self.gain >= 0 and np.isfinite(self.gain)):
            raise ValueError(f"gain must be nonnegative, got {self.gain}")
        if self.sigma_eps < 0:
            raise ValueError("sigma_eps must be nonnegative")
        if self.k_max < 1 or self.replications < 1:
            raise ValueError("k_max and replications must be at least 1")
        if not isinstance(self.init, str):
            self.init = np.asarray(self.init, dtype=float)
            if self.init.shape != (self.model.dim,):
                raise ValueError("fixed init vector has the wrong shape")
        elif self.init != "standard_normal":
            raise ValueError(f"unknown init law {self.init!r}")
        self.checkpoints = tuple(sorted(set(int(k) for k in self.checkpoints)))
        if self.checkpoints and (self.checkpoints[0] < 1
                                 or self.checkpoints[-1] > self.k_max):
            raise ValueError("checkpoints must lie in [1, k_max]")


@dataclass
class SimResult:
    terminal_mse: float
    terminal_se: float
    classification: str
    per_replication: np.ndarray = field(repr=False)
    diverged_count: int
    checkpoint_mse: dict[int, float]
    master_seed: int
    k_max: int
    replications: int
    gain: float

    def replication_classifications(self) -> list[str]:
        return [classify(float(v)) for v in self.per_replication]


def _make_generators(master_seed: int, replications: int) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.Philox(
            np.random.SeedSequence(master_seed, spawn_key=(r,))))
        for r in range(replications)
    ]


def _initial_estimates(config: SimConfig,
                       gens: list[np.random.Generator]) -> np.ndarray:
    m = config.model.dim
    if isinstance(config.init, str):
        return np.stack([g.standard_normal(m) for g in gens])
    return np.tile(config.init, (config.replications, 1))


def _draw_chunk(gens: list[np.random.Generator], buf: np.ndarray,
                length: int) -> np.ndarray:
    """Fill ``buf[r, :length]`` with replication r's next standard normals.

    ``buf`` has shape (R, chunk, m+1); the last column is the noise draw.
    Each stream is consumed exactly as by drawing a fresh (length, m+1) array.
    """
    for r, g in enumerate(gens):
        g.standard_normal(out=buf[r, :length])
    return buf


def _finalize(config: SimConfig, sq: np.ndarray, live: np.ndarray,
              checkpoint_mse: dict[int, float]) -> SimResult:
    per_rep = sq.copy()
    mse = float(np.mean(per_rep))
    se = float(np.std(per_rep, ddof=1) / np.sqrt(len(per_rep))) if len(per_rep) > 1 else 0.0
    return SimResult(
        terminal_mse=mse,
        terminal_se=se,
        classification=classify(mse),
        per_replication=per_rep,
        diverged_count=int(np.sum(~live)),
        checkpoint_mse=checkpoint_mse,
        master_seed=config.master_seed,
        k_max=config.k_max,
        replications=config.replications,
        gain=config.gain,
    )


class SimBatch(list):
    """One ``SimResult`` per gain of a batched run, in the order of the gains."""

    @property
    def diverged_count(self) -> int:
        """Diverged replications summed over every gain of the batch."""
        return sum(result.diverged_count for result in self)


def _per_component(values: np.ndarray, m: int) -> np.ndarray:
    """(G, R) values repeated m times along a new last axis.

    Multiplying the result by an (R, m) array runs as one loop over R*m
    elements, where broadcasting ``values[..., None]`` loops over m per row.
    """
    return np.repeat(values, m, axis=-1).reshape(*values.shape, m)


def _simulate(config: SimConfig, gains: Optional[Sequence[float]],
              origin: np.ndarray,
              step: Callable[..., tuple[np.ndarray, np.ndarray]]
              ) -> Union[SimResult, SimBatch]:
    """Step every gain over one draw of the replication streams.

    The state of each gain starts at theta_0 - ``origin``.
    ``step(state, h, eps, scale)`` updates the (G, R, m) state with the
    (R, m) regressors h and the (R,) noise draws eps, multiplying each
    (G, R) residual by ``scale`` (the gain, times 0 on frozen
    replications), and returns the new state and its squared error norms.
    ``gains=None`` runs ``config.gain`` alone and returns its ``SimResult``.
    """
    configs = ([config] if gains is None
               else [replace(config, gain=float(g)) for g in gains])
    m, sigma, k_max = config.model.dim, config.sigma_eps, config.k_max
    factor_t = sampling_factor(config.model.sampling_cov).T
    gens = _make_generators(config.master_seed, config.replications)
    theta0 = _initial_estimates(config, gens)
    err0 = theta0 - config.theta_star

    state = np.repeat((theta0 - origin)[None], len(configs), axis=0)
    sq = np.repeat(np.einsum("ri,ri->r", err0, err0)[None], len(configs), axis=0)
    live = sq <= DIVERGENCE_GUARD
    gain = np.array([c.gain for c in configs])[:, None]
    scale = gain * live
    order = np.arange(len(configs))  # batch index of each gain still in the state
    finals: list[Optional[tuple[np.ndarray, np.ndarray]]] = [None] * len(configs)
    checkpoints = set(config.checkpoints)
    checkpoint_mse: list[dict[int, float]] = [{} for _ in configs]
    buf = np.empty((config.replications, min(_CHUNK_STEPS, k_max), m + 1))

    step_no = 0
    while step_no < k_max and len(order):
        length = min(buf.shape[1], k_max - step_no)
        draws = _draw_chunk(gens, buf, length)
        for i in range(length):
            h = draws[:, i, :m] @ factor_t
            state, sq_new = step(state, h, sigma * draws[:, i, m], scale)
            step_no += 1
            ok = sq_new <= DIVERGENCE_GUARD
            # A frozen row no longer moves and never reads ok again, so
            # ok.all() means that every row is live and stays live.
            if ok.all():
                sq = sq_new
            else:
                np.copyto(sq, sq_new, where=live)
                np.copyto(sq, 1e18, where=~np.isfinite(sq))
                live &= ok
                keep = live.any(axis=1)
                if not keep.all():
                    for j in np.flatnonzero(~keep):
                        finals[order[j]] = sq[j], live[j]
                    state, sq, live = state[keep], sq[keep], live[keep]
                    gain, order = gain[keep], order[keep]
                scale = gain * live
            if step_no in checkpoints:
                for j, index in enumerate(order):
                    checkpoint_mse[index][step_no] = float(np.mean(sq[j]))
            if not len(order):
                break

    for j, index in enumerate(order):
        finals[index] = sq[j], live[j]
    results = SimBatch()
    for index, cfg in enumerate(configs):
        row, row_live = finals[index]
        frozen_mse = float(np.mean(row))
        results.append(_finalize(cfg, row, row_live, {
            k: checkpoint_mse[index].get(k, frozen_mse) for k in config.checkpoints}))
    return results[0] if gains is None else results


def run_lms(config: SimConfig,
            gains: Optional[Sequence[float]] = None) -> Union[SimResult, SimBatch]:
    """Monte Carlo LMS runs propagating the estimate against synthesized data.

    With ``gains``, every gain runs on the same streams in one batch and one
    ``SimResult`` per gain comes back (``config.gain`` is then unused); each
    is bit-identical to a run of that gain alone.
    """
    m, theta_star = config.model.dim, config.theta_star
    star_rows = np.tile(theta_star, (config.replications, 1))

    def step(theta, h, eps, scale):
        z = np.einsum("ri,i->r", h, theta_star) + eps
        resid = np.einsum("gri,ri->gr", theta, h) - z
        theta = theta - _per_component(scale * resid, m) * h
        err = theta - star_rows
        return theta, np.einsum("gri,gri->gr", err, err)
    return _simulate(config, gains, np.zeros(m), step)


def run_error_recursion(config: SimConfig,
                        gains: Optional[Sequence[float]] = None
                        ) -> Union[SimResult, SimBatch]:
    """Monte Carlo runs propagating the estimation error directly.

    Consumes streams identical to ``run_lms`` and must agree with it:
    bit for bit when theta* = 0, to rounding error otherwise.
    """
    m = config.model.dim

    def step(theta_err, h, eps, scale):
        resid = np.einsum("gri,ri->gr", theta_err, h) - eps
        theta_err = theta_err - _per_component(scale * resid, m) * h
        return theta_err, np.einsum("gri,gri->gr", theta_err, theta_err)
    return _simulate(config, gains, config.theta_star, step)


def replay_lms(data: DataMatrix, gain: float,
               theta0: Optional[np.ndarray] = None) -> np.ndarray:
    """Run the LMS recursion once over recorded rows and responses, in order."""
    if data.responses is None:
        raise ValueError("replay needs a response column")
    m = data.dim
    theta = np.zeros(m) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.shape != (m,):
        raise ValueError(f"theta0 has shape {theta.shape}, data dim is {m}")
    for h, z in zip(data.rows, data.responses):
        theta = theta - gain * (float(h @ theta) - float(z)) * h
    return theta


def batch_ls(data: DataMatrix) -> np.ndarray:
    """Least squares through the normal equations, with an orthogonality audit."""
    if data.responses is None:
        raise ValueError("least squares needs a response column")
    h, z = data.rows, data.responses
    n, m = h.shape
    if n < m:
        raise RankDeficient(f"{n} rows cannot determine {m} coefficients")
    gram = h.T @ h
    rhs = h.T @ z
    values, _ = linalg.eigh(gram)
    if values[0] <= m * np.finfo(float).eps * max(float(values[-1]), 1.0):
        raise RankDeficient(
            "normal equations are singular (Gram eigenvalues "
            f"{values[0]:.3g} .. {values[-1]:.3g})")
    try:
        theta = linalg.solve_spd(gram, rhs)
    except linalg.NotPositiveDefinite as exc:
        raise RankDeficient(f"normal equations are singular: {exc}") from exc
    residual_proj = h.T @ (z - h @ theta)
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if not float(np.linalg.norm(residual_proj)) <= 1e-8 * scale:
        raise ArithmeticError(
            "normal-equation solve failed the residual orthogonality check")
    return theta


def recursive_ls(data: DataMatrix, theta0: Optional[np.ndarray] = None,
                 p0_scale: float = 1e6) -> np.ndarray:
    """Recursive least squares with a diffuse prior P0 = p0_scale * I.

    Converges to the batch solution as the prior diffuses; the gain vector
    is K = P h / (1 + h^T P h) per row, unit measurement weight.
    """
    if data.responses is None:
        raise ValueError("least squares needs a response column")
    m = data.dim
    theta = np.zeros(m) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    p = p0_scale * np.eye(m)
    for h, z in zip(data.rows, data.responses):
        ph = p @ h
        k = ph / (1.0 + float(h @ ph))
        theta = theta + k * (float(z) - float(h @ theta))
        p = p - np.outer(k, ph)
        p = (p + p.T) / 2.0
    return theta
