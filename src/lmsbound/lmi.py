"""Feasibility of the mean-square drift inequality and gain certificates.

For gain a and rate chi the question is whether some P > 0 satisfies

    a F(P) - P S - S P <= -chi P,        S = E[h h^T],

equivalently T(P) <= (1 - a*chi) P for the one-step mean-square map

    T(P) = E[(I - a h h^T) P (I - a h h^T)] = P - a(S P + P S) + a^2 F(P).

T is linear, positive (it averages congruences) and self-adjoint in the
trace inner product, so on the d = m(m+1)/2 dimensional space of symmetric
matrices it is a d x d symmetric matrix.  By the Collatz-Wielandt
characterization of positive maps, a positive definite P with
T(P) <= gamma P exists iff the spectral radius rho(T) is at most gamma, and
the top eigenvector of T is the natural certificate.  That turns each
feasibility probe into one small eigendecomposition, decided exactly and
deterministically.

Certificates are still verified from scratch: ``check_certificate``
recomputes the slack lambda_max(a F(P) - P S - S P + chi P) with the
in-house eigensolver and shares no state with the search.

Degenerate laws (singular S with regressors confined to a subspace) admit
no strictly feasible point: T keeps a frozen unit eigenvalue along the
untouched subspace.  The relaxed mode accepts certificates whose slack is
within ``relaxed_tol`` of zero and marks them ``tolerance_limited``, which
reproduces what interior-point SDP solvers silently do on such problems.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .linalg import NonConvergence
from .moments import MomentModel

logger = logging.getLogger(__name__)

EPS_FEAS_DEFAULT = 1e-8
RELAXED_TOL_DEFAULT = 1e-5
STRICT_MARGIN = 1e-9
TRACE_CAP_FACTOR = 1e6
_POLISH_ITERS = 300


@dataclass(frozen=True)
class LmiProblem:
    """One feasibility probe: model, gain a > 0, rate 0 < chi < 2/a."""

    model: MomentModel
    gain: float
    rate: float
    eps_feas: float = EPS_FEAS_DEFAULT
    mode: str = "strict"              # "strict" | "relaxed"
    relaxed_tol: float = RELAXED_TOL_DEFAULT
    p_restriction: str = "free"       # "free" | "identity"

    def __post_init__(self):
        if not (self.gain > 0 and np.isfinite(self.gain)):
            raise ValueError(f"gain must be positive and finite, got {self.gain}")
        if not (0.0 < self.rate < 2.0 / self.gain):
            raise ValueError(
                f"rate must lie in (0, 2/gain) = (0, {2.0 / self.gain:.6g}), "
                f"got {self.rate}")
        if self.mode not in ("strict", "relaxed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.p_restriction not in ("free", "identity"):
            raise ValueError(f"unknown p_restriction {self.p_restriction!r}")


@dataclass
class GainCertificate:
    """A verified (a, chi, P) triple with its achieved slack.

    ``slack`` is lambda_max(a F(P) - P S - S P + chi P); negative means the
    drift inequality holds strictly.  ``tolerance_limited`` marks
    certificates accepted only under the relaxed slack tolerance.
    """

    gain: float
    rate: float
    p_matrix: np.ndarray
    slack: float
    p_min_eigenvalue: float
    tolerance_limited: bool = False


@dataclass
class FeasibilityOutcome:
    feasible: bool
    certificate: Optional[GainCertificate]
    best_slack: float
    spectral_margin: float   # (1 - a*chi) - rho(T); positive means feasible in theory
    tolerance_limited: bool = False


def sym_basis(m: int) -> list[np.ndarray]:
    """Orthonormal basis of symmetric m x m matrices under <A,B> = tr(AB)."""
    basis = []
    for i in range(m):
        b = np.zeros((m, m))
        b[i, i] = 1.0
        basis.append(b)
    root_half = 1.0 / np.sqrt(2.0)
    for i in range(m):
        for j in range(i + 1, m):
            b = np.zeros((m, m))
            b[i, j] = b[j, i] = root_half
            basis.append(b)
    return basis


def drift_matrix(model: MomentModel, gain: float, rate: float, p: np.ndarray) -> np.ndarray:
    """Q(P) = a F(P) - P S - S P + chi P, the matrix whose max eigenvalue is the slack."""
    s = model.second_moment
    P = linalg.symmetrize(p)
    return linalg.symmetrize(
        gain * model.fourth_moment(P) - P @ s - s @ P + rate * P)


def check_certificate(model: MomentModel, cert: GainCertificate,
                      eps_feas: float = EPS_FEAS_DEFAULT) -> tuple[bool, dict]:
    """Re-verify a certificate from scratch.

    Recomputes the slack and the positivity of P with the in-house
    eigensolver only.  Returns (ok, diagnostics); ok requires
    slack <= eps_feas and P strictly positive definite.
    """
    q = drift_matrix(model, cert.gain, cert.rate, cert.p_matrix)
    q_values, _ = linalg.eigh(q)
    p_values, _ = linalg.eigh(linalg.symmetrize(cert.p_matrix))
    slack = float(q_values[-1])
    p_min = float(p_values[0])
    ok = slack <= eps_feas and p_min > 0.0
    return ok, {"slack": slack, "p_min_eigenvalue": p_min, "eps_feas": eps_feas}


def mean_square_map_matrix(model: MomentModel, gain: float) -> np.ndarray:
    """Matrix of T(P) = P - a(SP + PS) + a^2 F(P) on the orthonormal symmetric basis."""
    m = model.dim
    s = model.second_moment
    basis = sym_basis(m)
    d = len(basis)
    out = np.zeros((d, d))
    for k, b in enumerate(basis):
        tb = b - gain * (s @ b + b @ s) + gain * gain * model.fourth_moment(b)
        for j in range(d):
            out[j, k] = float(np.sum(tb * basis[j]))
    return (out + out.T) / 2.0


def mean_square_radius(model: MomentModel, gain: float) -> tuple[float, np.ndarray]:
    """Spectral radius of T and the matrix form of its top eigenvector."""
    t_hat = mean_square_map_matrix(model, gain)
    values, vectors = linalg.eigh(t_hat)
    rho = float(values[-1])
    basis = sym_basis(model.dim)
    p_hat = sum(c * b for c, b in zip(vectors[:, -1], basis))
    p_hat = linalg.symmetrize(p_hat)
    if np.trace(p_hat) < 0:
        p_hat = -p_hat
    return rho, p_hat


def _normalize_cert_p(p: np.ndarray, trace_cap: float) -> Optional[np.ndarray]:
    """Rescale into the cone {P >= I} and enforce the trace cap.

    The drift inequality is homogeneous in P, so dividing by the smallest
    eigenvalue preserves the slack sign while pinning lambda_min at 1.
    Matrices that are not strictly positive are rejected (None): the caller
    regularizes with a ridge and retries.  The trace cap blends extreme
    certificates toward the identity, trading slack for conditioning.
    """
    values, _ = linalg.eigh(linalg.symmetrize(p))
    if values[0] <= 0:
        return None
    out = p / values[0]
    tr = float(np.trace(out))
    if tr > trace_cap:
        m = out.shape[0]
        alpha = (trace_cap - m) / max(tr - m, np.finfo(float).tiny)
        out = np.eye(m) + alpha * (out - np.eye(m))
        logger.debug("trace cap %.3g active while normalizing a certificate", trace_cap)
    return linalg.symmetrize(out)


def _slack_of(model: MomentModel, gain: float, rate: float, p: np.ndarray) -> float:
    values, _ = linalg.eigh(drift_matrix(model, gain, rate, p))
    return float(values[-1])


def _polish(model: MomentModel, gain: float, rate: float, p0: np.ndarray,
            trace_cap: float, iters: int = _POLISH_ITERS) -> np.ndarray:
    """Projected gradient descent on a smoothed max-eigenvalue of Q(P).

    Uses the softmax smoothing mu*log tr exp(Q/mu); the gradient pulls back
    through the self-adjoint fourth-moment operator.  Projection onto
    {P >= I} clips eigenvalues at 1.  Deterministic and budget-bounded; the
    result is only ever accepted after an exact slack evaluation.
    """
    s = model.second_moment
    p = _normalize_cert_p(p0, trace_cap)
    if p is None:
        p = np.eye(model.dim)
    best_p = p
    best_slack = _slack_of(model, gain, rate, p)
    step = 0.5
    for _ in range(iters):
        q = drift_matrix(model, gain, rate, p)
        values, vectors = linalg.eigh(q)
        mu = max(1e-12, abs(best_slack) * 0.1)
        w = np.exp((values - values[-1]) / mu)
        w /= w.sum()
        weight = linalg.symmetrize((vectors * w) @ vectors.T)
        grad = linalg.symmetrize(
            gain * model.fourth_moment(weight)
            - (s @ weight + weight @ s) + rate * weight)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-14:
            break
        trial = _normalize_cert_p(p - (step / gnorm) * grad, trace_cap)
        if trial is None:
            step /= 2
            continue
        trial_slack = _slack_of(model, gain, rate, trial)
        if trial_slack < best_slack - 1e-15:
            best_slack, best_p, p = trial_slack, trial, trial
            step = min(step * 1.3, 4.0)
        else:
            p = trial if trial_slack < best_slack * 1.001 else p
            step /= 2
            if step < 1e-9:
                break
    return best_p


def solve_feasibility(problem: LmiProblem) -> FeasibilityOutcome:
    """Decide the drift inequality for (a, chi) and build a certificate.

    The decision comes from the spectral radius of the mean-square map;
    candidate certificates are the (regularized) top eigenvector of that map
    and the identity, polished by projected gradient if they under-perform
    the spectral prediction.  Every returned certificate passes
    ``check_certificate`` at the problem's ``eps_feas``.
    """
    model, a, chi = problem.model, problem.gain, problem.rate
    m = model.dim
    trace_cap = TRACE_CAP_FACTOR * m
    identity = np.eye(m)

    if problem.p_restriction == "identity" or not model.supports_general_p:
        candidates = [identity]
        gamma_gap = np.nan
    else:
        rho, p_hat = mean_square_radius(model, a)
        gamma_gap = (1.0 - a * chi) - rho
        candidates = [identity]
        scale = max(float(linalg.eigh(p_hat).values[-1]), 1.0)
        for tau in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1, 1.0):
            cand = _normalize_cert_p(p_hat + tau * scale * identity, trace_cap)
            if cand is not None:
                candidates.append(cand)

    best_p, best_slack = None, np.inf
    for cand in candidates:
        slack = _slack_of(model, a, chi, cand)
        if slack < best_slack:
            best_p, best_slack = cand, slack

    target = -STRICT_MARGIN if problem.mode == "strict" else problem.relaxed_tol
    may_improve = problem.p_restriction == "free" and model.supports_general_p
    if may_improve and best_slack > target:
        polished = _polish(model, a, chi, best_p, trace_cap)
        slack = _slack_of(model, a, chi, polished)
        if slack < best_slack:
            best_p, best_slack = polished, slack

    strict_ok = best_slack <= -STRICT_MARGIN
    relaxed_ok = best_slack <= problem.relaxed_tol
    feasible = strict_ok if problem.mode == "strict" else (strict_ok or relaxed_ok)
    tolerance_limited = feasible and not strict_ok

    certificate = None
    if feasible:
        p_values, _ = linalg.eigh(best_p)
        certificate = GainCertificate(
            gain=a, rate=chi, p_matrix=best_p, slack=best_slack,
            p_min_eigenvalue=float(p_values[0]),
            tolerance_limited=tolerance_limited)
        ok, diag = check_certificate(model, certificate, problem.eps_feas
                                     if problem.mode == "strict" else problem.relaxed_tol)
        if not ok:
            raise NonConvergence(
                f"certificate failed independent verification: {diag}")
    return FeasibilityOutcome(
        feasible=feasible,
        certificate=certificate,
        best_slack=best_slack,
        spectral_margin=float(gamma_gap),
        tolerance_limited=tolerance_limited,
    )
