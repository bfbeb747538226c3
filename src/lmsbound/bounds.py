"""Step-size criteria, sup-gain searches and mean-squared-error bounds.

Five criteria are covered.  Two are certificate producing:

* ``theorem1``   - the drift inequality over free P > 0 (LMI path);
* ``corollary2`` - the same inequality restricted to P = I, which reduces to
  the matrix pencil test lambda_max(a*M4 - 2*S) < 0.

Both sups are generalized eigenvalue problems of the mean-square operator
(``lmi.operator_matrices``) and the theorem1 rate at a fixed gain is read
off the spectral radius of the mean-square map, so every certificate number
comes from one small LAPACK eigendecomposition, with no search.  The
certificate itself comes from ``lmi.identity_certificate`` (corollary2) or
``lmi.solve_feasibility`` (theorem1), checked before it is returned.

Three are classical literature rules, read off the model's spectrum of S:
``widrow_lambda_max`` (2/lambda_max), ``widrow_trace`` (2/tr) and
``zhu_criterion`` (2*lambda_min/lambda_max^2, inapplicable for singular S).

The error bounds mirror the certificates: given (a, chi, P) the asymptotic
mean-squared error is bounded by a*sigma_eps^2*tr(P S)/(chi*lambda_min(P))
and the finite-horizon bound interpolates geometrically from the initial
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
                  STRICT_MARGIN, identity_certificate, mean_square_map_matrix,
                  operator_matrices, solve_feasibility)
from .moments import MomentModel

TOL_A = 1e-5     # sup certificates are built at the gain sup*(1 - TOL_A)
TOL_CHI = 1e-9   # their rate; with STRICT_MARGIN, the theorem1 rate back-off
_SINGULAR_TOL = 1e-9


class GainTooLarge(ValueError):
    """The requested gain is beyond the feasible range of the criterion."""


class InvalidRate(ValueError):
    """a*chi outside (0, 2); the geometric contraction factor is invalid."""


class CriterionKind(enum.Enum):
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
    tolerance_limited: bool = False
    strictly_infeasible: bool = False
    note: str = ""


@dataclass
class ChiSearchResult:
    chi: float
    p_matrix: np.ndarray
    certificate: Optional[GainCertificate]
    tolerance_limited: bool = False


def pencil_max_eigenvalue(model: MomentModel, gain: float) -> float:
    """lambda_max(a*M4 - 2*S): negative iff P = I certifies gain a (some chi > 0)."""
    return float(np.linalg.eigvalsh(gain * model.m4 - 2.0 * model.second_moment)[-1])


def _singular(values: np.ndarray) -> bool:
    """Whether S with ascending eigenvalues ``values`` is singular (Zhu sup and bound)."""
    return values[0] <= _SINGULAR_TOL * max(1.0, values[-1])


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


def _range(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Eigenpairs of a PSD matrix on its range, and whether the matrix is singular."""
    values, vectors = np.linalg.eigh(mat)
    keep = values > _SINGULAR_TOL * max(float(values[-1]), 0.0)
    return values[keep], vectors[:, keep], not keep.all()


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
    The certificate is built at the gain sup*(1 - TOL_A).
    """
    lam, trace = model.second_moment_eigenvalues, float(np.trace(model.second_moment))

    if kind is CriterionKind.WIDROW_LAMBDA_MAX:
        if lam[-1] <= 0:
            return SupGainResult(kind, 0.0, inapplicable=True, note="zero second moment")
        return SupGainResult(kind, 2.0 / float(lam[-1]))
    if kind is CriterionKind.WIDROW_TRACE:
        if trace <= 0:
            return SupGainResult(kind, 0.0, inapplicable=True, note="zero second moment")
        return SupGainResult(kind, 2.0 / trace)
    if kind is CriterionKind.ZHU:
        if _singular(lam):
            return SupGainResult(
                kind, 0.0, inapplicable=True,
                note="second moment is singular; criterion gives a zero gain")
        return SupGainResult(kind, 2.0 * float(lam[0]) / float(lam[-1])**2)

    if kind is CriterionKind.COROLLARY2:
        scale, lhs, rhs = 2.0, model.m4, model.second_moment
    elif kind is CriterionKind.THEOREM1:
        # Raises UnsupportedOperator for printed-moments models.
        scale, (rhs, lhs) = 1.0, operator_matrices(model)
    else:
        raise ValueError(f"unhandled criterion {kind}")

    values, vectors, singular = _range(rhs)
    if values.size == 0 or (singular and mode == "strict"):
        return SupGainResult(
            kind, 0.0, strictly_infeasible=True,
            note="no feasible gain: the drift inequality has no strictly "
                 "feasible point (singular second moment)" if mode == "strict"
            else "no feasible gain found")
    w = vectors / np.sqrt(values)
    sup = scale / float(np.linalg.eigvalsh(w.T @ lhs @ w)[-1])

    a_cert = sup * (1.0 - TOL_A)
    if kind is CriterionKind.COROLLARY2:
        chi = max(-pencil_max_eigenvalue(model, a_cert) / 2.0, TOL_CHI)
        cert = identity_certificate(model, a_cert, chi, mode)
    else:
        cert = solve_feasibility(model, a_cert, TOL_CHI, mode)
    return SupGainResult(kind, sup, certificate=cert,
                         tolerance_limited=cert is not None and cert.tolerance_limited)


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
    identity = np.eye(model.dim)

    if kind is CriterionKind.COROLLARY2:
        phi = pencil_max_eigenvalue(model, gain)
        if mode == "strict":
            if phi >= -STRICT_MARGIN:
                raise GainTooLarge(
                    f"gain {gain} is not strictly feasible for corollary2 "
                    f"(pencil eigenvalue {phi:.3g})")
            return ChiSearchResult(-phi, identity, None)
        if phi > RELAXED_TOL_DEFAULT:
            raise GainTooLarge(
                f"gain {gain} is beyond the corollary2 range "
                f"(pencil eigenvalue {phi:.3g})")
        chi = max(0.0, -phi)
        return ChiSearchResult(chi, identity, None,
                               tolerance_limited=chi <= STRICT_MARGIN)

    if kind is not CriterionKind.THEOREM1:
        raise ValueError(f"max chi is defined for certificate criteria, not {kind}")

    _, vectors, singular = _range(operator_matrices(model)[0])
    if singular and mode == "strict":
        raise GainTooLarge(
            f"gain {gain} has no strictly feasible rate: the second moment "
            f"is singular")
    t_hat = mean_square_map_matrix(model, gain)
    rho = float(np.linalg.eigvalsh(vectors.T @ t_hat @ vectors)[-1])
    chi = (1.0 - rho) / gain - (TOL_CHI + STRICT_MARGIN)
    if singular:
        chi = min(chi, RELAXED_TOL_DEFAULT * (1.0 - 1e-6))
    if chi <= 0:
        raise GainTooLarge(
            f"gain {gain} is infeasible for the drift inequality even at "
            f"vanishing rate (spectral radius {rho:.6g})")
    cert = solve_feasibility(model, gain, chi, mode)
    if cert is None:
        raise NonConvergence(f"no certificate at gain {gain} and rate {chi:.6g}")
    return ChiSearchResult(chi, cert.p_matrix, cert,
                           tolerance_limited=cert.tolerance_limited)


def _check_noise_level(sigma_eps: float) -> None:
    if not (sigma_eps >= 0 and np.isfinite(sigma_eps)):
        raise ValueError(f"sigma_eps must be finite and nonnegative, got {sigma_eps}")


def asymptotic_bound(kind: CriterionKind, gain: float, chi: Optional[float],
                     p_matrix: Optional[np.ndarray], second_moment: np.ndarray,
                     sigma_eps: float) -> float:
    """Steady-state upper bound on E||theta_err||^2 for a certified gain.

    theorem1:   a*sigma^2*tr(P S)/(chi*lambda_min(P))
    corollary2: (a/chi)*sigma^2*tr(S)
    zhu:        a*sigma^2*tr(S)/(2*lambda_min(S))

    Returns +inf when the relevant denominator vanishes (chi = 0 for the
    certificate criteria, singular S for zhu).
    """
    _check_noise_level(sigma_eps)
    s = linalg.symmetrize(second_moment)
    noise = sigma_eps * sigma_eps
    if kind is CriterionKind.THEOREM1:
        if chi is None or p_matrix is None:
            raise ValueError("theorem1 bound needs chi and P")
        p = linalg.symmetrize(p_matrix)
        p_min = float(linalg.eigh(p).values[0])
        denom = chi * p_min
        if denom <= 0:
            return float("inf")
        return gain * noise * float(np.trace(p @ s)) / denom
    if kind is CriterionKind.COROLLARY2:
        if chi is None:
            raise ValueError("corollary2 bound needs chi")
        if chi <= 0:
            return float("inf")
        return (gain / chi) * noise * float(np.trace(s))
    if kind is CriterionKind.ZHU:
        lam = linalg.eigh(s).values
        if _singular(lam):
            return float("inf")
        return gain * noise * float(np.trace(s)) / (2.0 * float(lam[0]))
    raise ValueError(f"no error bound is defined for criterion {kind}")


def finite_k_bound(gain: float, chi: float, p_matrix: np.ndarray,
                   second_moment: np.ndarray, sigma_eps: float,
                   initial_v: float, k: int) -> float:
    """Upper bound on E||theta_err_k||^2 after k steps from a certificate.

    Geometric interpolation between the initial Lyapunov energy and the
    asymptotic bound, with contraction factor (1 - a*chi) per step.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    _check_noise_level(sigma_eps)
    rate = gain * chi
    if not 0.0 < rate < 2.0:
        raise InvalidRate(f"a*chi must lie in (0, 2), got {rate:.6g}")
    p = linalg.symmetrize(p_matrix)
    p_min = float(linalg.eigh(p).values[0])
    if p_min <= 0:
        raise ValueError("P must be positive definite")
    s = linalg.symmetrize(second_moment)
    contraction = (1.0 - rate) ** k
    inject = gain * sigma_eps * sigma_eps * float(np.trace(p @ s))
    return (contraction * initial_v / p_min
            + (1.0 - contraction) * inject / (chi * p_min))


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
