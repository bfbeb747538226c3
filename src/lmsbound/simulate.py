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
deterministic: it does not depend on the chunk length, on where guard
blocks end or on which process draws the streams.  So the values a run
reaches at step c are those of the same run with ``k_max = c``.

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
update loop.  That needs the helper on another core.  Left to the
scheduler, the woken helper may run on the parent's core, so each request
stalls the parent for a whole fill; so where ``os.sched_setaffinity``
exists and the parent may run on two or more CPUs, the helper restricts
itself, before it fills chunk 0, to those CPUs less the one the parent runs
on at the fork (``_helper_cpus``).  One fixed CPU for every helper would
not do: a parent running there stalls as before.  The parent's own
affinity is never changed, and where ``/proc`` cannot be read, the set has
one CPU or the call fails, the helper runs where the scheduler puts it.

When the run ends, exits early or raises, the parent closes its pipe
ends, kills the helper with SIGKILL and reaps it.  The helper
only fills and signals, and ends with ``os._exit``; it also ends on EOF,
so a helper whose parent died ends within one chunk.  It calls no BLAS
routine and takes no lock that another thread of the parent may hold, so
forking a parent that runs BLAS threads is safe.  Python 3.12 and later
warn with a ``DeprecationWarning`` on any fork of a threaded process; the
fork ignores that one warning, as a warning turned into an error there
would lose the pid of a helper already running.  Where ``os.fork`` does
not exist, ``_draw_chunk`` calls the same fill function inline.

The work that does not depend on the state is done once per guard block,
from the block's steps of the chunk's slot: the regressors as a stack of
the per-step (R, m) @ (m, m) products, the noise and the measurements z.
So the formed values are still in the cache when the block steps through
them.  The products stay per step on purpose: one (block, m) @ (m, m)
product per replication takes another BLAS path when R = 1 and differs
from the per-step product in the last bits.  The regressors are then
copied once into a component-major (block, m, 1, R) buffer, so that a step
reads one contiguous (m, 1, R) slice.  The block's buffers are allocated
once per run and reused; the (m, block, 1, R) products h_i (theta* -
origin)_i are formed in the memory of the (block, R, m) regressor rows,
which are dead once copied.  The step loop takes its per-step views of
the regressors and measurements once per run, those of the history and
of the lanes of ``_component_sum`` once per block.

Component-major state and one update line
-----------------------------------------
The state is held component-major, as an (m, G, R) array: m components, G
gains, R replications.  Component i of every gain and replication is then
one contiguous (G, R) plane, and a step is a few whole-array numpy calls,
whatever m is: the products of the state with the regressor (one call),
their sum over the components (m - 1 calls), the residual minus z and
times the scale (two calls), the residual times the regressor (one call)
and the new state (one call), so m + 4 calls in all.  ``run_lms`` and
``run_error_recursion`` share this one update line (``_steps``) and one
measurement line, and differ only in ``origin`` (see "Recursions").

Shared streams across gains
---------------------------
Since the streams do not depend on the gain, ``run_lms(config, gains=...)``
steps any number of gains over one draw of them, and each gain's result is
bit-identical to running that gain alone.  A replication whose squared
error norm exceeds 1e12 is frozen (short-circuited) to avoid overflow,
keeping its first value beyond the guard (1e18 if it overflowed); the
freeze threshold sits far above the 1e8 divergence classification line so
no borderline run is misclassified.  A gain whose replications are all
frozen leaves the batch on that step (its ``settled_step``), and drawing
stops once no gain is left.

The per-block guard
-------------------
Each step writes its new state into slot j of a history buffer of
up to ``_block_steps`` steps (a chunk, fewer when m * G * R is large); a block
also ends at each chunk end and at ``k_max``.  The guard reads the block's
squared error norms at its end, in a few calls over the whole block.  A
frozen replication's value is kept in a separate (G, R) array, and its
state is parked at zero error (theta* - origin) with scale 0, so from then
on its squared norm reads exactly 0.  A block whose largest norm is within
the guard therefore has no replication that crossed it.  Otherwise (NaN
included) each crossing replication is frozen at the value and step of its
first crossing within the block and parked, and the gains left without a
live replication leave the batch.  This gives the bits of a guard read on
every step: replications never interact, and a frozen replication's later
trajectory, which the block went on stepping, is discarded.  The kept
values are merged back in at the end.

Exact row reductions
--------------------
Every dot product over the m components (the residuals, the squared norms,
the measurements and the initial norms) goes through
``_component_sum``.  It adds the even components left to right and the
odd components left to right, then adds the two lanes: ((p0 + p2) + p4)
+ (p1 + p3) at m = 5.  That is the order of numpy's SIMD ``np.einsum``: it
gives the same bits as einsum for m = 1 to 7, on every input including
overflow, NaN and subnormals (numpy 2.4).  From m = 8 einsum's order
differs, so with eight or more components the kernel's sums can differ
from einsum's in the last bits; no bundled model, test or benchmark
simulates m >= 8.

Recursions
----------
Both recursions hold state = theta_k - origin, measure
z_k = h_k . (theta* - origin) + eps_k and differ only in ``origin``:
``run_lms`` propagates the estimate theta_k (origin 0, so z_k =
h_k . theta* + eps_k), and ``run_error_recursion`` propagates the error
e_k = theta_k - theta* directly (origin theta*, so z_k = eps_k, since the
products with a zero offset add zeros).  The two recursions are
algebraically identical and step through the same measurement and update
lines; the squared norm is |state - (theta* - origin)|^2 in both.
With theta* = 0 they perform the same floating-point operations and agree
bit for bit; with a nonzero theta* they agree to rounding error, which
cross-checks the stream plumbing.

Regressors are sampled through the Cholesky factor when the covariance is
positive definite and through the eigendecomposition otherwise, which
handles exactly singular covariances without any jitter.
"""

from __future__ import annotations

import contextlib
import os
import signal
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import linalg, presets
from .moments import DataMatrix, MomentModel, _psd_floor

DIVERGENCE_GUARD = 1e12
BOUNDED_THRESHOLD = 10.0
DIVERGED_THRESHOLD = 1e8
_CHUNK_STEPS = 128
_BLOCK_VALUES = 1 << 16


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
    is exact for rank-deficient laws that are PSD by the rule of ``moments``.
    """
    cov = linalg.symmetrize(covariance)
    try:
        return linalg.cholesky(cov)
    except linalg.NotPositiveDefinite:
        values, vectors = linalg.eigh(cov)
        if values[0] < _psd_floor(cov):
            raise linalg.InvalidMatrix(
                f"covariance has a negative eigenvalue ({values[0]:.3g})")
        return vectors * np.sqrt(np.maximum(values, 0.0))


@dataclass
class SimConfig:
    """One Monte Carlo experiment: model, true parameter, gain and protocol sizes."""

    model: MomentModel
    theta_star: np.ndarray
    gain: float
    sigma_eps: float = presets.SIGMA_EPS
    k_max: int = presets.K_MAX
    replications: int = presets.REPLICATIONS
    master_seed: int = 0
    init: Union[str, np.ndarray] = "standard_normal"

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
            raise ValueError(
                f"gain must be finite and nonnegative, got {self.gain}")
        if not (self.sigma_eps >= 0 and np.isfinite(self.sigma_eps)):
            raise ValueError(
                f"sigma_eps must be finite and nonnegative, got {self.sigma_eps}")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   and v >= 1 for v in (self.k_max, self.replications)):
            raise ValueError("k_max and replications must be integers of at least 1")
        if not isinstance(self.init, str):
            self.init = np.asarray(self.init, dtype=float)
            if self.init.shape != (self.model.dim,):
                raise ValueError("fixed init vector has the wrong shape")
            if not np.all(np.isfinite(self.init)):
                raise ValueError(f"fixed init vector must be finite, got {self.init}")
        elif self.init != "standard_normal":
            raise ValueError(f"unknown init law {self.init!r}")


@dataclass
class SimResult:
    terminal_mse: float
    terminal_se: float
    classification: str
    per_replication: np.ndarray = field(repr=False)
    diverged_count: int
    master_seed: int
    k_max: int
    replications: int
    gain: float
    settled_step: Optional[int] = None  # step on which the last replication froze


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


def _running_cpu() -> int:
    """The CPU this thread is running on: field 39 of its ``stat`` line."""
    with open("/proc/thread-self/stat") as stat:
        # Fields 3 on follow the parenthesized command name.
        return int(stat.read().rsplit(")", 1)[1].split()[36])


def _helper_cpus() -> Optional[set[int]]:
    """The CPUs the draw helper may run on: the caller's own set less the
    CPU the caller is running on, or None to leave the helper unpinned."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpus = os.sched_getaffinity(0)
        return cpus - {_running_cpu()} if len(cpus) > 1 else None
    except (OSError, ValueError, IndexError):
        return None


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
        self.fillers: Optional[list] = None

    def fill(self, index: int) -> None:
        """Draw chunk ``index`` into its slot.

        Replication r's rows get its next standard normals, the last column
        being the noise draw; each stream is consumed exactly as by drawing
        a fresh (length, m+1) array.  The first fill binds each stream's
        ``standard_normal`` and takes per-slot views of its rows.
        """
        if self.fillers is None:
            self.fillers = [list(zip([g.standard_normal for g in self.gens], slot))
                            for slot in self.slots]
        length = min(self.chunk, self.k_max - index * self.chunk)
        for normal, rows in self.fillers[index % 2]:
            normal(out=rows[:length])

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
        cpus = _helper_cpus()
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
                if cpus:
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, cpus)
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


def _lane_adds(p: np.ndarray, out: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """``_component_sum``'s additions as (a, b, sum) views of ``p`` and ``out``,
    in order; none when there is one component."""
    adds = [(p[i % 2], p[i], p[i % 2]) for i in range(2, len(p))]
    return adds + [(p[0], p[1], out)] if len(p) > 1 else adds


def _component_sum(p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The sum of ``p`` over its first (component) axis, in two lanes.

    The even components are added left to right, the odd ones likewise, and
    the two lanes last (see "Exact row reductions" above).  The lanes
    accumulate in ``p[0]`` and ``p[1]``, which are overwritten; the sum goes
    into ``out``, by default ``p[0]``.
    """
    if out is None:
        out = p[0]
    if len(p) == 1:
        np.copyto(out, p[0])
    for a, b, total in _lane_adds(p, out):
        np.add(a, b, out=total)
    return out


def _steps(state: np.ndarray, hs: np.ndarray, zs: np.ndarray, scale: np.ndarray,
           history: np.ndarray) -> np.ndarray:
    """Step the (m, G, R) state through the (n, m, 1, R) regressors and
    (n, 1, R) measurements, writing step j's state into ``history[j]``.

    Each step is ``state - (scale * (h . state - z)) * h``, with the dot
    product over the m components in ``_component_sum``'s order; returns
    the last state.  The (G, R) ``scale`` has the residual's shape, so its
    product does not broadcast.
    """
    products = np.empty(state.shape)
    # With one component the dot product is the product itself.
    resid = products[0] if len(products) == 1 else np.empty(state.shape[1:])
    adds = _lane_adds(products, resid)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    # ``out`` goes by position, which numpy parses faster than a keyword.
    for h, z, new in zip(hs, zs, history):
        multiply(state, h, products)
        for a, b, total in adds:
            add(a, b, total)
        subtract(resid, z, resid)
        multiply(resid, scale, resid)
        multiply(resid, h, products)
        state = subtract(state, products, new)
    return state


def _block_steps(m: int, gains: int, replications: int) -> int:
    """Steps per guard block: a chunk, or fewer once a step's state is large.

    A block's history then holds at most ``_BLOCK_VALUES`` values, and a
    block is never shorter than 8 steps.
    """
    return min(_CHUNK_STEPS, max(8, _BLOCK_VALUES // (m * gains * replications)))


# A diverging replication may overflow before the guard freezes it.
@np.errstate(over="ignore", invalid="ignore")
def _simulate(config: SimConfig, gains: Optional[Sequence[float]],
              origin: np.ndarray) -> Union[SimResult, SimBatch]:
    """Step every gain over one draw of the replication streams.

    The state of each gain starts at theta_0 - ``origin`` and is held
    component-major, as an (m, G, R) array.  Per guard block the
    measurements are z = h . (theta* - origin) + eps.  Every step then computes
    ``state - gain * (h . state - z) * h``, and the guard reads the squared
    error norms ``|state - (theta* - origin)|^2`` once per block (see "The
    per-block guard" above).  ``gains=None`` runs ``config.gain`` alone and
    returns its ``SimResult``.
    """
    m, sigma, k_max = config.model.dim, config.sigma_eps, config.k_max
    reps = config.replications
    chunk = min(_CHUNK_STEPS, k_max)
    configs = ([config] if gains is None
               else [replace(config, gain=float(g)) for g in gains])
    factor_t = sampling_factor(config.model.sampling_cov).T
    gens = _make_generators(config.master_seed, reps)
    theta0 = _initial_estimates(config, gens)

    parked = (config.theta_star - origin)[:, None, None]
    state = np.repeat((theta0 - origin).T[:, None], len(configs), axis=1)
    gain = np.array([c.gain for c in configs])[:, None]
    live = np.ones(state.shape[1:], dtype=bool)
    frozen = np.zeros(state.shape[1:])  # the value each frozen row keeps
    order = np.arange(len(configs))  # batch index of each gain still in the state
    # Per gain: final squared norms, live mask and the step it settled on.
    finals: list[Optional[tuple[np.ndarray, np.ndarray, Optional[int]]]] = (
        [None] * len(configs))

    def norms(states: np.ndarray) -> np.ndarray:
        """Squared error norms of (..., m, G, R) states, which are overwritten."""
        states -= parked
        states *= states
        return _component_sum(states.swapaxes(-3, 0))

    def freeze(sqs: np.ndarray, before: int) -> None:
        """Freeze each row at its first crossing among the (n, G, R) norms of
        steps before + 1 .. before + n; let every gain left without a live
        row leave the batch."""
        nonlocal state, live, frozen, gain, order, history
        crossing = ~(sqs <= DIVERGENCE_GUARD)  # NaN fails the comparison
        first = crossing.argmax(axis=0)
        crossed = crossing.any(axis=0)
        value = np.take_along_axis(sqs, first[None], axis=0)[0]
        np.copyto(frozen, np.where(np.isfinite(value), value, 1e18), where=crossed)
        np.copyto(state, parked, where=crossed)
        live &= ~crossed
        keep = live.any(axis=1)
        if not keep.all():
            settled = before + 1 + np.where(crossed, first, 0).max(axis=1)
            for j in np.flatnonzero(~keep):
                finals[order[j]] = frozen[j], live[j], int(settled[j])
            state, live, frozen = state[:, keep], live[keep], frozen[keep]
            gain, order, history = gain[keep], order[keep], history[:, :, keep]

    block = min(chunk, _block_steps(m, len(configs), reps))
    history = np.empty((block,) + state.shape)
    # A start beyond the guard freezes at once; a gain frozen from the start
    # leaves the batch on step 1.
    freeze(norms(state.copy())[None], 0)
    scale = gain * live
    # The block's buffers.  The products h_i (theta* - origin)_i are formed
    # component-major in the memory of the (block, R, m) regressor rows,
    # which are dead once copied into ``hs``.
    products = np.empty((m, block, 1, reps))
    h_rows = products.reshape(block, reps, m)
    hs = np.empty((block, m, 1, reps))
    noise = np.empty((block, 1, reps))
    h_steps, z_steps = list(hs), list(noise)

    step_no = 0
    with _Streams(gens, k_max, chunk, m) as streams:
        while step_no < k_max and len(order):
            length = min(chunk, k_max - step_no)
            draws = _draw_chunk(streams)
            start, end = step_no, step_no + length
            while step_no < end and len(order):
                n = min(block, end - step_no)
                i = step_no - start
                # One (R, m) @ (m, m) product per step, stacked (see "Chunks
                # and the draw helper" above), then copied component-major.
                np.matmul(draws[:, i:i + n, :m].transpose(1, 0, 2), factor_t,
                          out=h_rows[:n])
                np.copyto(hs[:n], h_rows[:n].transpose(0, 2, 1)[:, :, None])
                zs = np.multiply(draws[:, i:i + n, m].T[:, None], sigma,
                                 out=noise[:n])
                zs += _component_sum(np.multiply(
                    hs[:n].swapaxes(0, 1), parked[..., None], out=products[:, :n]))
                np.copyto(state, _steps(state, h_steps[:n], z_steps[:n], scale,
                                        list(history[:n])))
                sqs = norms(history[:n])
                # Parked rows read 0, so a maximum within the guard means
                # that no live row crossed it.
                if not sqs.max() <= DIVERGENCE_GUARD:
                    freeze(sqs, step_no)
                    scale = gain * live
                step_no += n

    merged = np.where(live, norms(state.copy()), frozen)
    for j, index in enumerate(order):
        finals[index] = merged[j], live[j], None
    results = SimBatch(_finalize(cfg, *finals[index])
                       for index, cfg in enumerate(configs))
    return results[0] if gains is None else results


def run_lms(config: SimConfig,
            gains: Optional[Sequence[float]] = None) -> Union[SimResult, SimBatch]:
    """Monte Carlo LMS runs propagating the estimate against synthesized data.

    With ``gains``, every gain runs on the same streams in one batch and one
    ``SimResult`` per gain comes back (``config.gain`` is then unused); each
    is bit-identical to a run of that gain alone.
    """
    return _simulate(config, gains, np.zeros(config.model.dim))


def run_error_recursion(config: SimConfig,
                        gains: Optional[Sequence[float]] = None
                        ) -> Union[SimResult, SimBatch]:
    """Monte Carlo runs propagating the estimation error directly.

    Consumes streams identical to ``run_lms`` and must agree with it:
    bit for bit when theta* = 0, to rounding error otherwise.
    """
    return _simulate(config, gains, config.theta_star)


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
    values, vectors = linalg.eigh(gram)
    if values[0] <= m * np.finfo(float).eps * max(float(values[-1]), 1.0):
        raise RankDeficient(
            "normal equations are singular (Gram eigenvalues "
            f"{values[0]:.3g} .. {values[-1]:.3g})")
    theta = vectors @ ((vectors.T @ rhs) / values)
    residual_proj = h.T @ (z - h @ theta)
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if not float(np.linalg.norm(residual_proj)) <= 1e-8 * scale:
        raise ArithmeticError(
            "normal-equation solve failed the residual orthogonality check")
    return theta


def recursive_ls(data: DataMatrix, p0_scale: float = 1e6) -> np.ndarray:
    """Recursive least squares from theta = 0 with a diffuse prior P0 = p0_scale * I.

    Converges to the batch solution as the prior diffuses; the gain vector
    is K = P h / (1 + h^T P h) per row, unit measurement weight.
    """
    if data.responses is None:
        raise ValueError("least squares needs a response column")
    m = data.dim
    theta = np.zeros(m)
    p = p0_scale * np.eye(m)
    for h, z in zip(data.rows, data.responses):
        ph = p @ h
        k = ph / (1.0 + float(h @ ph))
        theta = theta + k * (float(z) - float(h @ theta))
        p = p - np.outer(k, ph)
        p = (p + p.T) / 2.0
    return theta
