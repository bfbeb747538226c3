"""Feasibility of the mean-square drift inequality and gain certificates.

For gain a and rate chi the question is whether some P > 0 satisfies

    a F(P) - P S - S P <= -chi P,        S = E[h h^T],

equivalently T(P) <= (1 - a*chi) P for the one-step mean-square map

    T(P) = E[(I - a h h^T) P (I - a h h^T)] = P - a(S P + P S) + a^2 F(P).

On the d = m(m+1)/2 dimensional space of symmetric matrices, with the
orthonormal basis ``sym_basis`` as the rows of K, L(P) = S P + P S and F
are the PSD matrices L^ = K (S kron I + I kron S) K^T and F^ kept on the
model, and T^ = I - a L^ + a^2 F^ (``mean_square_map_matrix``) is exactly
the identity on L^'s null space, the frozen directions.  T is a positive
map, so a positive definite P with T(P) < gamma P exists iff rho(T) < gamma
(Collatz-Wielandt), and one eigendecomposition T^ = V diag(lambda) V^T on
L^'s range (``mean_square_map``, the one place T^ is decomposed) decides it
and yields a certificate in closed form: with e the coordinates of I on
the range and I_0 its part on the frozen directions,

    P = I_0 + R / lambda_min(R),   R = sum_i c_i V_i,
    c_i = gamma e_i / (gamma - lambda_i)  if lambda_i < gamma,  c_i = e_i  otherwise,

with lambda_min(R) on S's range, and R the resolvent gamma (gamma - T)^{-1} I
>= I there when every eigenvalue contracts.  T(P) - gamma P is then
-gamma I / lambda_min(R) on the contracting part and a*chi*I_0 on the
frozen directions, and P is no worse conditioned than R.

Two functions return a checked ``GainCertificate`` for (a, chi), or None:
``identity_certificate`` fixes P = I (corollary 2), and
``solve_feasibility`` lets P be free (theorem 1).  The latter keeps the
identity when it certifies strictly, since it gives the tighter error
bound, and then never forms T^; otherwise the resolvent replaces it when it
does better.  Both use LAPACK (``numpy.linalg``) and never evaluate F(P):
the identity slack is ``pencil_max_eigenvalue``, and the resolvent's drift
matrix Q(P) = (T(P) - gamma P)/a is read off ``mean_square_map``.

Certificates are verified from scratch: ``check_certificate`` forms Q(P)
from the law (F(P), never F^) and proves eps I - Q(P) and P positive
definite by a shifted Cholesky that shares no state with the search.  Each
certificate is checked at the tolerance it claims.

Degenerate laws (singular S with regressors confined to a subspace) admit
no strictly feasible point: T is the identity on the frozen directions.
The relaxed mode accepts certificates whose slack is within
``RELAXED_TOL_DEFAULT`` of zero and marks them ``tolerance_limited``, which
reproduces what interior-point SDP solvers silently do on such problems.
``grade`` is the one place a slack is graded under a mode, and the one
place an unknown mode is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .linalg import NonConvergence
from .moments import MomentModel, UnsupportedOperator, sym_basis

EPS_FEAS_DEFAULT = 1e-8
RELAXED_TOL_DEFAULT = 1e-5
STRICT_MARGIN = 1e-9


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


def drift_matrix(model: MomentModel, gain: float, rate: float, p: np.ndarray) -> np.ndarray:
    """Q(P) = a F(P) - P S - S P + chi P, the matrix whose max eigenvalue is the slack."""
    s = model.second_moment
    P = linalg.symmetrize(p)
    return linalg.symmetrize(
        gain * model.fourth_moment(P) - P @ s - s @ P + rate * P)


def check_certificate(model: MomentModel, cert: GainCertificate,
                      eps_feas: float = EPS_FEAS_DEFAULT) -> tuple[bool, dict]:
    """Re-verify a certificate from scratch.

    ok proves eps_feas I - Q(P) and P positive definite
    (``linalg.proves_positive_definite``, no call into ``numpy.linalg``).
    The diagnostics add the slack lambda_max(Q(P)) and lambda_min(P) from
    ``linalg.eigh``, and the drift check's shift as ``rounding``.
    """
    q = drift_matrix(model, cert.gain, cert.rate, cert.p_matrix)
    drift_ok, rounding = linalg.proves_positive_definite(eps_feas * np.eye(len(q)) - q)
    ok = drift_ok and linalg.proves_positive_definite(cert.p_matrix)[0]
    return ok, {"slack": float(linalg.eigh(q).values[-1]),
                "p_min_eigenvalue": float(linalg.eigh(cert.p_matrix).values[0]),
                "eps_feas": eps_feas, "rounding": rounding}


def pencil_max_eigenvalue(model: MomentModel, gain: float, rate: float = 0.0) -> float:
    """lambda_max(a*M4 - 2*S + chi*I), the slack of P = I in both certificate
    routes; at chi = 0 it is negative iff P = I certifies gain a (some chi > 0)."""
    return float(np.linalg.eigvalsh(
        gain * model.m4 - 2.0 * model.second_moment + rate * np.eye(model.dim))[-1])


def mean_square_map_matrix(model: MomentModel, gain: float) -> np.ndarray:
    """Matrix of T(P) = P - a(SP + PS) + a^2 F(P) on the orthonormal symmetric basis."""
    if model.f_hat is None:
        raise UnsupportedOperator("a printed-moments model has no F^")
    return np.eye(len(model.l_hat)) - gain * model.l_hat + gain * gain * model.f_hat


def mean_square_map(model: MomentModel, gain: float) -> linalg.EigenDecomp:
    """Eigenpairs of T^ on L^'s range, vectors as d-vectors on ``sym_basis``;
    on L^'s null space, the frozen directions, T^ is exactly the identity."""
    t_hat, w = mean_square_map_matrix(model, gain), model.l_hat_range.vectors
    values, vectors = np.linalg.eigh(w.T @ t_hat @ w)
    return linalg.EigenDecomp(values, w @ vectors)


def _resolvent(model: MomentModel, gain: float,
               rate: float) -> tuple[Optional[np.ndarray], float]:
    """The closed-form certificate of the module docstring and its slack.

    (None, inf) when R is not positive definite on S's range, which happens
    only if some eigenvalue of T^ on L^'s range reaches gamma.
    """
    m, gamma, w = model.dim, 1.0 - gain * rate, model.second_moment_range.vectors
    values, vectors = mean_square_map(model, gain)
    k = sym_basis(m).reshape(-1, m * m)
    e = vectors[:m].sum(axis=0)   # the first m basis elements sum to I
    frozen = np.eye(m) - (vectors @ e @ k).reshape(m, m)   # I's part on L^'s null space
    c = np.divide(gamma * e, gamma - values, out=e.copy(), where=values < gamma)
    p = (vectors @ c @ k).reshape(m, m)
    p_min = float(np.linalg.eigvalsh(w.T @ p @ w)[0])
    if p_min <= 0:
        return None, np.inf
    q = (vectors @ ((values - gamma) * c) @ k).reshape(m, m) + (1.0 - gamma) * p_min * frozen
    return p / p_min + frozen, float(np.linalg.eigvalsh(q)[-1]) / (gain * p_min)


def grade(slack: float, mode: str) -> int:
    """How a certificate's slack fares under ``mode``: 0 strict (slack at most
    -STRICT_MARGIN), 1 tolerance-limited ("relaxed" only, slack at most
    RELAXED_TOL_DEFAULT), 2 refused.  Raises ValueError for an unknown mode."""
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"unknown mode {mode!r}")
    if slack <= -STRICT_MARGIN:
        return 0
    return 1 if mode == "relaxed" and slack <= RELAXED_TOL_DEFAULT else 2


def _certify(model: MomentModel, gain: float, rate: float, mode: str,
             alternative: Optional[Callable] = None) -> Optional[GainCertificate]:
    """The checked certificate for (a, chi): P = I, or ``alternative``'s P.

    ``alternative(model, gain, rate)`` gives a (P, slack) pair and is asked
    only when the identity does not certify strictly; its P replaces the
    identity when it ``grade``s better.  None when neither certifies under
    the mode.  The certificate passes ``check_certificate`` at the tolerance
    it claims: ``RELAXED_TOL_DEFAULT`` if tolerance-limited, else ``EPS_FEAS_DEFAULT``.
    """
    if not (gain > 0 and np.isfinite(gain)):
        raise ValueError(f"gain must be positive and finite, got {gain}")
    if not (0.0 < rate < 2.0 / gain):
        raise ValueError(f"rate must lie in (0, 2/gain) = (0, {2.0 / gain:.6g}), "
                         f"got {rate}")

    p, slack = np.eye(model.dim), pencil_max_eigenvalue(model, gain, rate)
    if alternative is not None and grade(slack, mode) > 0:
        p_alt, slack_alt = alternative(model, gain, rate)
        if grade(slack_alt, mode) < grade(slack, mode):
            p, slack = p_alt, slack_alt
    if grade(slack, mode) == 2:
        return None
    certificate = GainCertificate(
        gain=gain, rate=rate, p_matrix=p, slack=slack,
        p_min_eigenvalue=float(np.linalg.eigvalsh(p)[0]),
        tolerance_limited=grade(slack, mode) == 1)
    ok, diag = check_certificate(model, certificate, RELAXED_TOL_DEFAULT
                                 if certificate.tolerance_limited else EPS_FEAS_DEFAULT)
    if not ok:
        raise NonConvergence(f"certificate failed independent verification: {diag}")
    return certificate


def identity_certificate(model: MomentModel, gain: float, rate: float,
                         mode: str = "strict") -> Optional[GainCertificate]:
    """Corollary 2: the checked certificate with P = I for (a, chi), or None."""
    return _certify(model, gain, rate, mode)


def solve_feasibility(model: MomentModel, gain: float, rate: float,
                      mode: str = "strict") -> Optional[GainCertificate]:
    """Theorem 1: a checked certificate with free P > 0 for (a, chi), or None.

    The identity is kept when it certifies strictly; otherwise T^ is
    eigendecomposed once and the resolvent certificate replaces the
    identity when it does better.  Raises ``UnsupportedOperator`` for a
    printed-moments model that the identity does not certify strictly.
    """
    return _certify(model, gain, rate, mode, _resolvent)
