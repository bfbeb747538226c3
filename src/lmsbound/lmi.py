"""Feasibility of the mean-square drift inequality and gain certificates.

For gain a and rate chi the question is whether some P > 0 satisfies

    a F(P) - P S - S P <= -chi P,        S = E[h h^T],

equivalently T(P) <= (1 - a*chi) P for the one-step mean-square map

    T(P) = E[(I - a h h^T) P (I - a h h^T)] = P - a(S P + P S) + a^2 F(P).

On the d = m(m+1)/2 dimensional space of symmetric matrices, with the
orthonormal basis ``sym_basis`` as the rows of K, L(P) = S P + P S and F
are d x d symmetric positive semidefinite matrices (``operator_matrices``):
L^ = K (S kron I + I kron S) K^T, and F^, the Gram matrix built with the
model.  T^ = I - a L^ + a^2 F^.  T is a positive map, so a positive
definite P with T(P) < gamma P exists iff rho(T) < gamma
(Collatz-Wielandt), and one eigendecomposition of T^ = V diag(lambda) V^T
both decides the inequality and yields a certificate in closed form: with
e the coordinates of I,

    P = sum_i c_i V_i,   c_i = gamma e_i / (gamma - lambda_i)  if lambda_i < gamma,
                         c_i = e_i                             otherwise,

which is the resolvent P = gamma (gamma - T)^{-1} I >= I when every
eigenvalue contracts, and gives T(P) - gamma P = -gamma I on the contracting
part and a*chi*I on the frozen directions.  The identity is tried first and
kept when it certifies, since it gives the tighter error bound whenever it
is admissible.  The search uses LAPACK (``numpy.linalg``) and never
evaluates F(P): the identity slack is lambda_max(a M4 - 2 S + chi I), and
the resolvent's drift matrix Q(P) = (T(P) - gamma P)/a is read off the same
eigendecomposition.

Certificates are verified from scratch: ``check_certificate`` recomputes the
slack lambda_max(a F(P) - P S - S P + chi P) from the law (F(P), never F^)
with the in-house Jacobi eigensolver and shares no state with the search.

Degenerate laws (singular S with regressors confined to a subspace) admit
no strictly feasible point: T keeps a frozen unit eigenvalue along the
untouched subspace.  The relaxed mode accepts certificates whose slack is
within ``relaxed_tol`` of zero and marks them ``tolerance_limited``, which
reproduces what interior-point SDP solvers silently do on such problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .linalg import NonConvergence
from .moments import MomentModel, UnsupportedOperator, sym_basis

EPS_FEAS_DEFAULT = 1e-8
RELAXED_TOL_DEFAULT = 1e-5
STRICT_MARGIN = 1e-9


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


def operator_matrices(model: MomentModel) -> tuple[np.ndarray, np.ndarray]:
    """(L^, F^): L(P) = SP + PS and F on ``sym_basis``; F^ is the model's own."""
    if model.f_hat is None:
        raise UnsupportedOperator("a printed-moments model has no F^")
    s, eye = model.second_moment, np.eye(model.dim)
    k = sym_basis(model.dim).reshape(-1, s.size)
    return k @ (np.kron(s, eye) + np.kron(eye, s)) @ k.T, model.f_hat


def mean_square_map_matrix(model: MomentModel, gain: float) -> np.ndarray:
    """Matrix of T(P) = P - a(SP + PS) + a^2 F(P) on the orthonormal symmetric basis."""
    l_hat, f_hat = operator_matrices(model)
    return np.eye(len(l_hat)) - gain * l_hat + gain * gain * f_hat


def _resolvent(values: np.ndarray, vectors: np.ndarray, gamma: float,
               gain: float, m: int) -> tuple[Optional[np.ndarray], float]:
    """The closed-form certificate of the module docstring and its slack.

    P is scaled to lambda_min = 1.  (None, inf) when it is not positive
    definite, which happens only if some eigenvalue of T^ other than a
    frozen one reaches gamma.
    """
    k = sym_basis(m).reshape(-1, m * m)
    e = vectors[:m].sum(axis=0)   # the first m basis elements sum to I
    c = np.divide(gamma * e, gamma - values, out=e.copy(), where=values < gamma)
    p = (vectors @ c @ k).reshape(m, m)
    p_min = float(np.linalg.eigvalsh(p)[0])
    if p_min <= 0:
        return None, np.inf
    q = (vectors @ ((values - gamma) * c) @ k).reshape(m, m) / (gain * p_min)
    return p / p_min, float(np.linalg.eigvalsh(q)[-1])


def solve_feasibility(problem: LmiProblem) -> FeasibilityOutcome:
    """Decide the drift inequality for (a, chi) and build a certificate.

    The identity is kept when it certifies at the mode's slack target;
    otherwise the resolvent certificate read off one eigendecomposition of
    T^ replaces it if it does better (strict where the identity is only
    tolerance-limited, feasible where the identity fails).  Every returned
    certificate passes ``check_certificate`` at the problem's tolerance.
    """
    model, a, chi = problem.model, problem.gain, problem.rate
    m = model.dim
    relaxed = problem.mode == "relaxed"

    def grade(slack: float) -> int:
        if slack <= -STRICT_MARGIN:
            return 0
        return 1 if relaxed and slack <= problem.relaxed_tol else 2

    best_p = np.eye(m)
    best_slack = float(np.linalg.eigvalsh(
        a * model.m4 - 2.0 * model.second_moment + chi * best_p)[-1])
    gamma_gap = np.nan
    if problem.p_restriction == "free" and model.supports_general_p:
        gamma = 1.0 - a * chi
        values, vectors = np.linalg.eigh(mean_square_map_matrix(model, a))
        gamma_gap = gamma - values[-1]
        if grade(best_slack) > 0:
            p, slack = _resolvent(values, vectors, gamma, a, m)
            if grade(slack) < grade(best_slack):
                best_p, best_slack = p, slack

    feasible = grade(best_slack) < 2
    tolerance_limited = grade(best_slack) == 1
    certificate = None
    if feasible:
        certificate = GainCertificate(
            gain=a, rate=chi, p_matrix=best_p, slack=best_slack,
            p_min_eigenvalue=float(np.linalg.eigvalsh(best_p)[0]),
            tolerance_limited=tolerance_limited)
        ok, diag = check_certificate(model, certificate, problem.relaxed_tol
                                     if relaxed else problem.eps_feas)
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
