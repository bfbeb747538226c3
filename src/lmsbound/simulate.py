"""Seeded Monte Carlo engine for the LMS recursion, plus least-squares baselines.

Streams
-------
Replication ``r`` draws from a counter-based Philox generator seeded with
``SeedSequence(master_seed, spawn_key=(r,))``, so its stream depends only on
(master_seed, r): adding replications or re-running a single replication
reproduces the same numbers.  Per replication the draw order is fixed: the
initial estimate (m standard normals, when the init law is random), then per
step m standard normals for the regressor and one for the measurement noise.
Replications are reduced in index order, and every result is fully
deterministic: it does not depend on the chunk length or on which process
draws the streams.

Chunks and the draw helper
--------------------------
Each run draws ``_CHUNK_STEPS`` (128) steps at a time.  Chunk c goes into
slot c % 2 of a replication-major (2, R, chunk, m+1) buffer of shared
memory (``mmap``), 3 MB per slot at R = 1000 and m = 2.  Once the parent
has drawn the initial estimates, it forks one helper process, which owns
the generators from then on.  The helper fills chunk 0 at once and each
later chunk on a one-byte request token, works out each chunk's length
itself, and answers with a one-byte ready token.  ``_draw_chunk`` waits
for chunk c and at once asks for chunk c + 1, which the helper draws into
the other slot while the parent steps chunk c: the draws overlap the
update loop.  When the run ends, exits early or raises, the parent closes
its pipe ends, kills the helper with SIGKILL and reaps it.  The helper
only fills and signals, and ends with ``os._exit``; it also ends on EOF,
so a helper whose parent died ends within one chunk.  It calls no BLAS
routine and takes no lock that another thread of the parent may hold, so
forking a parent that runs BLAS threads is safe.  Python 3.12 and later
warn with a ``DeprecationWarning`` on any fork of a threaded process; the
fork ignores that one warning, as a warning turned into an error there
would lose the pid of a helper already running.  Where ``os.fork`` does
not exist, ``_draw_chunk`` calls the same fill function inline.

The work that does not depend on the state is done once per chunk,
step-major: the (chunk, R, m) regressors as a stack of the per-step
(R, m) @ (m, m) products, the (chunk, R) noise, and for ``run_lms`` the
measurements z.  The step loop then reads one contiguous (R, m) and (R,)
slice per step and updates the state in place.  The products stay per
step on purpose: one (chunk, m) @ (m, m) product per replication takes
another BLAS path when R = 1 and differs from the per-step product in the
last bits.

Shared streams across gains
---------------------------
Since the streams do not depend on the gain, ``run_lms(config, gains=...)``
steps any number of gains over one draw of them: the state is a (G, R, m)
array, the regressor and noise of a step are computed once for every gain,
and each gain's result is bit-identical to running that gain alone.  A
replication whose squared error norm exceeds 1e12 is frozen (short-
circuited) to avoid overflow, keeping that first value beyond the guard
(1e18 if it overflowed); the freeze threshold sits far above the 1e8
divergence classification line so no borderline run is misclassified.  A
gain whose replications are all frozen leaves the batch on that step (its
``settled_step``), its later checkpoints take its frozen mean, and drawing
stops once no gain is left.

A frozen replication's value is kept in a separate (G, R) array, and its
state is parked at zero error (theta* - origin) with scale 0, so from then
on its squared norm reads exactly 0.  A step whose largest squared norm is
within the guard therefore has no replication that crossed it, and the
freeze bookkeeping runs only on the steps where a live replication does.
The kept values are merged back in at checkpoints and at the end.

Exact row reductions
--------------------
The per-step dot products over the m components (the residuals, the
squared norms and ``run_lms``'s measurements) go through ``_row_dot``.  For
m <= 2 it multiplies elementwise and adds the component columns, which is
bit-identical to ``np.einsum``: a sum of two rounded products is rounded
once, and IEEE addition is commutative, so every summation order gives the
same value.  The one possible difference is the sign of an exact zero,
which ``+``, ``-`` and ``*`` cannot turn into a different value.  For
m >= 3 the order matters, and numpy's SIMD einsum sums m = 3 as
(p0 + p2) + p1, which an explicit order does not reproduce; so ``_row_dot``
calls ``np.einsum`` there, as before.

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

import os
import signal
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .moments import DataMatrix, MomentModel

DIVERGENCE_GUARD = 1e12
BOUNDED_THRESHOLD = 10.0
DIVERGED_THRESHOLD = 1e8
_CHUNK_STEPS = 128


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
        if not np.all(np.isfinite(self.theta_star)):
            raise ValueError(f"theta_star must be finite, got {self.theta_star}")
        if not (self.gain >= 0 and np.isfinite(self.gain)):
            raise ValueError(f"gain must be nonnegative, got {self.gain}")
        if not (self.sigma_eps >= 0 and np.isfinite(self.sigma_eps)):
            raise ValueError(
                f"sigma_eps must be finite and nonnegative, got {self.sigma_eps}")
        if self.k_max < 1 or self.replications < 1:
            raise ValueError("k_max and replications must be at least 1")
        if not isinstance(self.init, str):
            self.init = np.asarray(self.init, dtype=float)
            if self.init.shape != (self.model.dim,):
                raise ValueError("fixed init vector has the wrong shape")
            if not np.all(np.isfinite(self.init)):
                raise ValueError(f"fixed init vector must be finite, got {self.init}")
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
    settled_step: Optional[int] = None  # step on which the last replication froze

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


class _Streams:
    """The replication streams, chunk by chunk, in a two-slot shared buffer.

    Entering forks the helper process that owns ``gens`` (see "Chunks and
    the draw helper" above); leaving closes the pipes and kills and reaps
    the helper.  Without ``os.fork`` there is no helper.
    """

    def __init__(self, gens: list[np.random.Generator], k_max: int,
                 chunk: int, m: int):
        # Imported here, not with the module: loading the extension moved
        # the harness's setup_s (fresh-interpreter import and model build)
        # by about 7%.
        import mmap
        self.gens, self.k_max, self.chunk = gens, k_max, chunk
        shape = (2, len(gens), chunk, m + 1)
        self.slots = np.frombuffer(
            mmap.mmap(-1, 8 * int(np.prod(shape)))).reshape(shape)
        self.drawn = 0          # chunks handed out by _draw_chunk
        self.pid: Optional[int] = None
        self.fds: list[int] = []

    def fill(self, index: int) -> None:
        """Draw chunk ``index`` into its slot.

        Replication r's rows get its next standard normals, the last column
        being the noise draw; each stream is consumed exactly as by drawing
        a fresh (length, m+1) array.
        """
        length = min(self.chunk, self.k_max - index * self.chunk)
        for r, g in enumerate(self.gens):
            g.standard_normal(out=self.slots[index % 2, r, :length])

    def __enter__(self) -> "_Streams":
        if hasattr(os, "fork"):
            try:
                self._fork()
            except BaseException:
                self.__exit__()
                raise
        return self

    def _fork(self) -> None:
        self.fds += os.pipe()   # requests, parent to helper
        self.fds += os.pipe()   # ready tokens, helper to parent
        request_in, self.request, self.ready, ready_out = self.fds
        with warnings.catch_warnings():
            # Python >= 3.12 warns after forking a threaded process, such as
            # one with an OpenBLAS pool, which is safe here; raised as an
            # error it would lose the pid of a helper already running.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)",
                DeprecationWarning)
            self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self.request)
                os.close(self.ready)
                index = 0
                while True:
                    self.fill(index)
                    os.write(ready_out, b"\0")
                    if not os.read(request_in, 1):
                        break
                    index += 1
            finally:
                os._exit(0)
        # The parent keeps only its own ends, so a helper that dies
        # reads as EOF on ``ready``.
        self.fds = [self.request, self.ready]
        os.close(request_in)
        os.close(ready_out)

    def __exit__(self, *exc) -> None:
        while self.fds:
            os.close(self.fds.pop())
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _draw_chunk(streams: _Streams) -> np.ndarray:
    """The next chunk's (R, chunk, m+1) slot, once it is filled.

    With a helper this waits for its token, then asks at once for the chunk
    after, which the helper draws into the other slot meanwhile.
    """
    index = streams.drawn
    streams.drawn += 1
    if streams.pid is None:
        streams.fill(index)
    else:
        if not os.read(streams.ready, 1):
            raise RuntimeError("the Monte Carlo draw helper process ended early")
        if streams.drawn * streams.chunk < streams.k_max:
            os.write(streams.request, b"\0")
    return streams.slots[index % 2]


def _finalize(config: SimConfig, sq: np.ndarray, live: np.ndarray,
              checkpoint_mse: dict[int, float],
              settled_step: Optional[int]) -> SimResult:
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
        settled_step=settled_step,
    )


class SimBatch(list):
    """One ``SimResult`` per gain of a batched run, in the order of the gains."""

    @property
    def diverged_count(self) -> int:
        """Diverged replications summed over every gain of the batch."""
        return sum(result.diverged_count for result in self)


def _row_dot(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` for a sum of ``a * b`` over the last axis.

    For m <= 2 the product's component columns are added, which gives the
    same values (see "Exact row reductions" above) at half the cost.
    """
    m = a.shape[-1]
    if m > 2:
        return np.einsum(subscripts, a, b)
    p = a * b
    return p[..., 0] + p[..., 1] if m == 2 else p[..., 0]


def _times_rows(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``values[..., None] * h``: each (G, R) value times its row of the (R, m) h.

    The values are copied into each component column and multiplied in
    place, which gives the same products in a few long loops, where
    broadcasting ``values[..., None]`` runs an inner loop of m per row.
    """
    out = np.empty(values.shape + h.shape[-1:])
    for i in range(h.shape[-1]):
        out[..., i] = values
    out *= h
    return out


# A diverging replication may overflow before the guard freezes it.
@np.errstate(over="ignore", invalid="ignore")
def _simulate(config: SimConfig, gains: Optional[Sequence[float]],
              origin: np.ndarray,
              measure: Callable[[np.ndarray, np.ndarray], np.ndarray],
              step: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                             np.ndarray]
              ) -> Union[SimResult, SimBatch]:
    """Step every gain over one draw of the replication streams.

    The state of each gain starts at theta_0 - ``origin``.  Per chunk of L
    steps, ``measure(hs, noise)`` maps the (L, R, m) regressors and the
    (L, R) noise to the (L, R) measurements the recursion compares against.
    ``step(state, h, z, scale)`` updates the (G, R, m) state in place with
    one step's (R, m) regressors h and (R,) measurements z, multiplying
    each (G, R) residual by ``scale`` (the gain, times 0 on frozen
    replications), and returns the new squared error norms.  A frozen
    replication's state is parked at theta* - ``origin``, where its squared
    error norm is 0.
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
    sq = np.repeat(_row_dot("ri,ri->r", err0, err0)[None], len(configs), axis=0)
    live = sq <= DIVERGENCE_GUARD
    # The value each frozen row keeps; its state is parked at zero error.
    frozen = np.where(np.isfinite(sq), sq, 1e18)
    parked = config.theta_star - origin
    np.copyto(state, parked, where=~live[..., None])
    gain = np.array([c.gain for c in configs])[:, None]
    scale = gain * live
    order = np.arange(len(configs))  # batch index of each gain still in the state
    # Per gain: final squared norms, live mask and the step it settled on.
    finals: list[Optional[tuple[np.ndarray, np.ndarray, Optional[int]]]] = (
        [None] * len(configs))
    checkpoints = set(config.checkpoints)
    checkpoint_mse: list[dict[int, float]] = [{} for _ in configs]
    chunk = min(_CHUNK_STEPS, k_max)
    # A gain frozen from the start leaves the batch on step 1.
    sweep = not live.all()

    step_no = 0
    with _Streams(gens, k_max, chunk, m) as streams:
        while step_no < k_max and len(order):
            length = min(chunk, k_max - step_no)
            draws = _draw_chunk(streams)
            # One stacked (R, m) @ (m, m) product per step, as the per-step
            # loop computes it: a (length, m) @ (m, m) product per
            # replication takes another BLAS path at R = 1 and differs in
            # the last bits.
            hs = np.matmul(draws[:, :length, :m].transpose(1, 0, 2), factor_t)
            zs = measure(hs, sigma * np.ascontiguousarray(draws[:, :length, m].T))
            for i in range(length):
                sq = step(state, hs[i], zs[i], scale)
                step_no += 1
                # Parked rows read 0, so a maximum within the guard means
                # that no live row crossed it; NaN fails the comparison and
                # freezes.
                if sweep or not sq.max() <= DIVERGENCE_GUARD:
                    sweep = False
                    crossed = ~(sq <= DIVERGENCE_GUARD)
                    np.copyto(frozen, np.where(np.isfinite(sq), sq, 1e18),
                              where=crossed)
                    np.copyto(state, parked, where=crossed[..., None])
                    live &= ~crossed
                    keep = live.any(axis=1)
                    if not keep.all():
                        for j in np.flatnonzero(~keep):
                            finals[order[j]] = frozen[j], live[j], step_no
                        state, sq, live, frozen = (
                            state[keep], sq[keep], live[keep], frozen[keep])
                        gain, order = gain[keep], order[keep]
                    scale = gain * live
                if step_no in checkpoints:
                    merged = np.where(live, sq, frozen)
                    for j, index in enumerate(order):
                        checkpoint_mse[index][step_no] = float(
                            np.mean(merged[j]))
                if not len(order):
                    break

    merged = np.where(live, sq, frozen)
    for j, index in enumerate(order):
        finals[index] = merged[j], live[j], None
    results = SimBatch()
    for index, cfg in enumerate(configs):
        row, row_live, settled_step = finals[index]
        frozen_mse = float(np.mean(row))
        results.append(_finalize(cfg, row, row_live, {
            k: checkpoint_mse[index].get(k, frozen_mse) for k in config.checkpoints},
            settled_step))
    return results[0] if gains is None else results


def run_lms(config: SimConfig,
            gains: Optional[Sequence[float]] = None) -> Union[SimResult, SimBatch]:
    """Monte Carlo LMS runs propagating the estimate against synthesized data.

    With ``gains``, every gain runs on the same streams in one batch and one
    ``SimResult`` per gain comes back (``config.gain`` is then unused); each
    is bit-identical to a run of that gain alone.
    """
    m = config.model.dim
    # theta* once per replication: a product with it then loops over whole
    # rows, where broadcasting the (m,) vector loops over m per row.
    star_rows = np.tile(config.theta_star, (config.replications, 1))

    def measure(hs, noise):
        return _row_dot("lri,ri->lr", hs, star_rows) + noise

    def step(theta, h, z, scale):
        resid = _row_dot("gri,ri->gr", theta, h)
        resid -= z
        resid *= scale
        theta -= _times_rows(resid, h)
        err = theta - star_rows
        return _row_dot("gri,gri->gr", err, err)
    return _simulate(config, gains, np.zeros(m), measure, step)


def run_error_recursion(config: SimConfig,
                        gains: Optional[Sequence[float]] = None
                        ) -> Union[SimResult, SimBatch]:
    """Monte Carlo runs propagating the estimation error directly.

    Consumes streams identical to ``run_lms`` and must agree with it:
    bit for bit when theta* = 0, to rounding error otherwise.
    """
    def step(theta_err, h, eps, scale):
        resid = _row_dot("gri,ri->gr", theta_err, h)
        resid -= eps
        resid *= scale
        theta_err -= _times_rows(resid, h)
        return _row_dot("gri,gri->gr", theta_err, theta_err)
    return _simulate(config, gains, config.theta_star,
                     lambda hs, noise: noise, step)


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
