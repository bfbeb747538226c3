"""Step-size criteria, sup-gain searches and mean-squared-error bounds.

Five criteria are covered.  Two are certificate producing:

* ``theorem1``   - the drift inequality over free P > 0 (LMI path);
* ``corollary2`` - the same inequality restricted to P = I, which reduces to
  the matrix pencil test lambda_max(a*M4 - 2*S) < 0.

Both sups are generalized eigenvalue problems on the ranges the model keeps
(F^ on L^'s, M4 on S's), and the theorem1 rate at a fixed gain is read off
rho(T^) on L^'s range from ``lmi.mean_square_map``, so every certificate
number comes from one small LAPACK eigendecomposition, with no search.  The
certificate itself comes from ``lmi.identity_certificate`` (corollary2) or
``lmi.solve_feasibility`` (theorem1), checked before it is returned.

Three are classical literature rules, read off the model's spectrum of S:
``widrow_lambda_max`` (2/lambda_max), ``widrow_trace`` (2/tr) and
``zhu_criterion`` (2*lambda_min/lambda_max^2, inapplicable for singular S).
Singularity is read from the model's ranges or ``moments.range_mask``; the
model has already rejected a zero S and an M4 that vanishes on S's range,
and ``lmi.grade`` decides what a slack is worth under each mode.

The error bounds mirror the certificates: one term, a*sigma_eps^2*tr(P S)/
(chi*lambda_min(P)), bounds the steady state for any certificate (a, chi, P)
(corollary2 is P = I, zhu is P = I with chi = 2*lambda_min(S)), and the
finite-horizon bound interpolates geometrically to it from the initial
error energy.  A rate of chi = 0 (degenerate laws under the relaxed mode)
yields an infinite bound, reported as such rather than raising.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, presets
from .lmi import (GainCertificate, NonConvergence, RELAXED_TOL_DEFAULT,
                  STRICT_MARGIN, grade, identity_certificate, mean_square_map,
                  pencil_max_eigenvalue, solve_feasibility)
from .moments import MomentModel, UnsupportedOperator, range_mask

TOL_A = 1e-5     # sup certificates are built at the gain sup*(1 - TOL_A)
TOL_CHI = 1e-9   # their rate; with STRICT_MARGIN, the theorem1 rate back-off


class GainTooLarge(ValueError):
    """The requested gain is beyond the feasible range of the criterion."""


class InvalidRate(ValueError):
    """a*chi outside (0, 2); the geometric contraction factor is invalid."""


class CriterionKind(enum.Enum):
    """The five criteria, declared in the order of every table's rows."""
    THEOREM1 = "theorem1"
    COROLLARY2 = "corollary2"
    WIDROW_LAMBDA_MAX = "widrow_lambda_max"
    WIDROW_TRACE = "widrow_trace"
    ZHU = "zhu_criterion"

    @classmethod
    def from_name(cls, name: str) -> "CriterionKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown criterion {name!r}; "
                         f"expected one of {[k.value for k in cls]}")


CERTIFICATE_KINDS = (CriterionKind.THEOREM1, CriterionKind.COROLLARY2)


@dataclass
class SupGainResult:
    kind: CriterionKind
    sup_gain: float
    certificate: Optional[GainCertificate] = None
    inapplicable: bool = False
    strictly_infeasible: bool = False
    note: str = ""

    @property
    def tolerance_limited(self) -> bool:
        return self.certificate is not None and self.certificate.tolerance_limited


@dataclass
class ChiSearchResult:
    chi: float
    p_matrix: np.ndarray
    certificate: Optional[GainCertificate]
    tolerance_limited: bool = False


def protocol_gain(sup_gain: float, xi: float = presets.XI) -> float:
    """Working gain derived from a published sup: quote at 4 decimals, back off xi.

    Reported sup gains are quoted at 4-decimal precision, and downstream
    selections subtract xi from the quoted value so that printed tables and
    reruns agree exactly.
    """
    a = round(sup_gain, 4) - xi
    if not np.isfinite(a):
        raise ValueError(f"gain must be positive and finite, got {a}")
    if a <= 0:
        raise GainTooLarge(f"sup gain {sup_gain} leaves no positive working gain")
    return a


def sup_gain(model: MomentModel, kind: CriterionKind,
             mode: str = "relaxed") -> SupGainResult:
    """Supremum gain admitted by a criterion, with certificate where one exists.

    The certificate criteria are generalized eigenvalue problems, read off
    in closed form on the range of the right-hand side:
    theorem1 = 1/lambda_max(W^T F^ W) with W = V Lambda^{-1/2} from L^,
    corollary2 = 2/lambda_max(W^T M4 W) with W from S.  ``mode`` applies to
    these: "strict" reports a singular second moment (which leaves a
    frozen direction and no strictly feasible point) as strictly
    infeasible; "relaxed" (default) reads the sup on the range and certifies
    it with slack within ``RELAXED_TOL_DEFAULT``, flagged tolerance-limited.
    The certificate is built at the gain sup*(1 - TOL_A); where none passes
    the mode's slack test there, the sup is returned with a note saying so.
    """
    strict = grade(0.0, mode) == 2   # a zero slack fails; rejects an unknown mode
    lam = model.second_moment_eigenvalues

    if kind is CriterionKind.WIDROW_LAMBDA_MAX:
        return SupGainResult(kind, 2.0 / float(lam[-1]))
    if kind is CriterionKind.WIDROW_TRACE:
        return SupGainResult(kind, 2.0 / float(np.trace(model.second_moment)))
    if kind is CriterionKind.ZHU:
        if len(model.second_moment_range.values) < model.dim:
            return SupGainResult(
                kind, 0.0, inapplicable=True,
                note="second moment is singular; criterion gives a zero gain")
        return SupGainResult(kind, 2.0 * float(lam[0]) / float(lam[-1])**2)

    if kind is CriterionKind.COROLLARY2:
        scale, lhs, (values, vectors) = 2.0, model.m4, model.second_moment_range
    elif kind is CriterionKind.THEOREM1:
        if model.f_hat is None:
            raise UnsupportedOperator("a printed-moments model has no F^")
        scale, lhs, (values, vectors) = 1.0, model.f_hat, model.l_hat_range
    else:
        raise ValueError(f"unhandled criterion {kind}")

    if len(values) < len(lhs) and strict:
        return SupGainResult(
            kind, 0.0, strictly_infeasible=True,
            note="no feasible gain: the drift inequality has no strictly "
                 "feasible point (singular second moment)")
    w = vectors / np.sqrt(values)
    sup = scale / float(np.linalg.eigvalsh(w.T @ lhs @ w)[-1])

    a_cert = sup * (1.0 - TOL_A)
    if kind is CriterionKind.COROLLARY2:
        chi = max(-pencil_max_eigenvalue(model, a_cert) / 2.0, TOL_CHI)
        cert = identity_certificate(model, a_cert, chi, mode)
    else:
        cert = solve_feasibility(model, a_cert, TOL_CHI, mode)
    if cert is None:
        return SupGainResult(kind, sup, note=f"no certificate passed the {mode} "
                                             f"slack test at sup*(1 - {TOL_A:g})")
    return SupGainResult(kind, sup, certificate=cert)


def max_chi_search(model: MomentModel, kind: CriterionKind, gain: float,
                   mode: str = "relaxed") -> ChiSearchResult:
    """Largest certified rate chi at a fixed gain, with the certifying P.

    For corollary2 the rate is the closed-form -lambda_max(a*M4 - 2*S),
    clipped at zero under the relaxed mode (degenerate laws certify only a
    vanishing rate, flagged tolerance-limited).  For theorem1 it is
    (1 - rho(T^))/a on the range of L^, backed off by TOL_CHI +
    STRICT_MARGIN so that the certificate clears the strict slack test;
    a singular second moment has no strictly feasible rate, and the relaxed
    mode caps its rate just below ``RELAXED_TOL_DEFAULT``, the slack it
    leaves on the frozen directions.
    """
    if not (gain > 0 and np.isfinite(gain)):
        raise GainTooLarge(f"gain must be positive and finite, got {gain}")
    strict = grade(0.0, mode) == 2   # a zero slack fails; rejects an unknown mode

    if kind is CriterionKind.COROLLARY2:
        phi = pencil_max_eigenvalue(model, gain)
        level = grade(phi, mode)
        if level == 2:
            raise GainTooLarge(f"gain {gain} is " + (
                "not strictly feasible for corollary2" if strict else
                "beyond the corollary2 range") + f" (pencil eigenvalue {phi:.3g})")
        return ChiSearchResult(max(0.0, -phi), np.eye(model.dim), None,
                               tolerance_limited=level == 1)

    if kind is not CriterionKind.THEOREM1:
        raise ValueError(f"max chi is defined for certificate criteria, not {kind}")

    values, vectors = decomposition = mean_square_map(model, gain)
    frozen = len(values) < len(vectors)
    if frozen and strict:
        raise GainTooLarge(
            f"gain {gain} has no strictly feasible rate: the second moment "
            f"is singular")
    rho = float(values[-1])
    chi = (1.0 - rho) / gain - (TOL_CHI + STRICT_MARGIN)
    if frozen:
        chi = min(chi, RELAXED_TOL_DEFAULT * (1.0 - 1e-6))
    if chi <= 0:
        raise GainTooLarge(
            f"gain {gain} is infeasible for the drift inequality even at "
            f"vanishing rate (spectral radius {rho:.6g})")
    cert = solve_feasibility(model, gain, chi, mode, decomposition)
    if cert is None:
        raise NonConvergence(f"no certificate at gain {gain} and rate {chi:.6g}")
    return ChiSearchResult(chi, cert.p_matrix, cert,
                           tolerance_limited=cert.tolerance_limited)


def _steady_state(gain: float, chi: float, p_matrix: Optional[np.ndarray],
                  second_moment: np.ndarray, sigma_eps: float) -> tuple[float, float]:
    """a*sigma^2*tr(P S)/(chi*lambda_min(P)), +inf where the denominator is not
    positive, and lambda_min(P); P = None is I, with lambda_min 1 and no eigensolve."""
    if not (sigma_eps >= 0 and np.isfinite(sigma_eps)):
        raise ValueError(f"sigma_eps must be finite and nonnegative, got {sigma_eps}")
    s = linalg.symmetrize(second_moment)
    p_min, trace = 1.0, float(np.trace(s))
    if p_matrix is not None:
        p = linalg.symmetrize(p_matrix)
        p_min, trace = float(linalg.eigh(p).values[0]), float(np.trace(p @ s))
    denom = chi * p_min
    bound = gain * (sigma_eps * sigma_eps) * trace / denom if denom > 0 else float("inf")
    return bound, p_min


def asymptotic_bound(kind: CriterionKind, gain: float, chi: Optional[float],
                     p_matrix: Optional[np.ndarray], second_moment: np.ndarray,
                     sigma_eps: float) -> float:
    """Steady-state upper bound on E||theta_err||^2 for a certified gain: the
    paper's a*sigma^2*tr(P S)/(chi*lambda_min(P)) for theorem1, at P = I for
    corollary2, and at P = I, chi = 2*lambda_min(S) for zhu; +inf when chi = 0
    (certificate criteria) or S is singular (zhu)."""
    if kind is CriterionKind.ZHU:
        lam = linalg.eigh(linalg.symmetrize(second_moment)).values
        chi = 2.0 * float(lam[0]) if range_mask(lam).all() else 0.0
    elif kind not in CERTIFICATE_KINDS:
        raise ValueError(f"no error bound is defined for criterion {kind}")
    elif chi is None or (kind is CriterionKind.THEOREM1 and p_matrix is None):
        raise ValueError(f"{kind.value} bound needs chi"
                         + (" and P" if kind is CriterionKind.THEOREM1 else ""))
    p = p_matrix if kind is CriterionKind.THEOREM1 else None
    return _steady_state(gain, chi, p, second_moment, sigma_eps)[0]


def finite_k_bound(gain: float, chi: float, p_matrix: np.ndarray,
                   second_moment: np.ndarray, sigma_eps: float,
                   initial_v: float, k: int) -> float:
    """Upper bound on E||theta_err_k||^2 after k steps from a certificate.

    Geometric interpolation between the initial Lyapunov energy and the
    asymptotic bound, with contraction factor (1 - a*chi) per step.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    rate = gain * chi
    if not 0.0 < rate < 2.0:
        raise InvalidRate(f"a*chi must lie in (0, 2), got {rate:.6g}")
    steady, p_min = _steady_state(gain, chi, p_matrix, second_moment, sigma_eps)
    if p_min <= 0:
        raise ValueError("P must be positive definite")
    contraction = (1.0 - rate) ** k
    return contraction * initial_v / p_min + (1.0 - contraction) * steady


def initial_error_second_moment(theta_star: np.ndarray,
                                init: str | np.ndarray = "standard_normal") -> np.ndarray:
    """E[e0 e0^T] for the initial estimation error e0 = theta0_hat - theta_star.

    With the standard-normal initial estimate this is I + theta* theta*^T;
    with a fixed initial vector it is the rank-one outer product.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    m = theta_star.shape[0]
    if isinstance(init, str):
        if init != "standard_normal":
            raise ValueError(f"unknown init law {init!r}")
        return np.eye(m) + np.outer(theta_star, theta_star)
    theta0 = np.asarray(init, dtype=float)
    err = theta0 - theta_star
    return np.outer(err, err)


def initial_v(p_matrix: np.ndarray, theta_star: np.ndarray,
              init: str | np.ndarray = "standard_normal") -> float:
    """Initial Lyapunov energy tr(P E[e0 e0^T]) under the simulation protocol."""
    m0 = initial_error_second_moment(theta_star, init)
    return float(np.trace(linalg.symmetrize(p_matrix) @ m0))
