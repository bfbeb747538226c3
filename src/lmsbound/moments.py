"""Regressor moment models: second moments and the fourth-moment operator.

A moment model packages what the stability analysis consumes: the second
moment S = E[h h^T], the linear operator F(P) = E[(h^T P h) h h^T], and
``f_hat``, the matrix F^ of F on the orthonormal symmetric basis
``sym_basis`` B_1..B_d (d = m(m+1)/2).  With c_i = h^T B_i h,
<B_i, F(B_j)> = E[c_i c_j], so F^ = E[c c^T] is a positive semidefinite
Gram matrix, built once with the model, in any dimension.  Next to it the
model keeps ``l_hat``, the matrix L^ = K (S kron I + I kron S) K^T of
L(P) = S P + P S on the same basis.

For zero-mean Gaussian regressors (Isserlis' theorem, symmetric P)
F(P) = 2 S P S + S tr(P S) and F^ = 2 K (S kron S) K^T + k k^T, where K
stacks the vec(B_i) as rows and k = K vec(S).  An empirical model reduces
its rows H in a fixed chunk order with compensated (Kahan) summation, so
the result is repeatable to the bit: S and F^ = C^T C / n in one pass, and
each F(P) = (H o w)^T H / n with w = rowsum((H P) o H) in another.  An
explicit model carries printed matrices S and M4 = F(I) only: F^ and L^ are
None and F(P) raises UnsupportedOperator unless P = I.  A law whose M4 or
F^ overflows float64 is an input error (InvalidCovariance), raised before
any warning is printed.

The certificate search reads S, M4 and F^ only; the certificate check
evaluates F(P) from the law and never reads F^.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg

_PSD_TOL = 1e-9
# Rows per summation chunk; bounds the (chunk, m^2) feature array of the F^ pass.
_CHUNK = 4096


class InvalidCovariance(ValueError):
    """Covariance is not symmetric PSD, or scalar parameters are out of range."""


class DimMismatch(ValueError):
    """Matrix/vector dimensions disagree."""


class EmptyData(ValueError):
    """A data matrix with zero rows was supplied."""


class UnsupportedOperator(RuntimeError):
    """The model cannot evaluate F(P) for this P (printed-moments model)."""


@dataclass(frozen=True)
class GaussianSpec:
    """Zero-mean Gaussian regressor law, defined by its covariance."""

    covariance: np.ndarray

    def __post_init__(self):
        cov = linalg.symmetrize(self.covariance)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(cov))
        # tr(M4) = 2 ||S||_F^2 + tr(S)^2, so M4 overflows when the norm does.
        _require_finite({"M4": norm})
        _psd_spectrum(cov, "covariance")
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    @classmethod
    def from_two_dim(cls, sigma1: float, sigma2: float, rho: float) -> "GaussianSpec":
        """Bivariate spec from marginal standard deviations and correlation."""
        if sigma1 <= 0 or sigma2 <= 0:
            raise InvalidCovariance("standard deviations must be positive")
        if not -1.0 <= rho <= 1.0:
            raise InvalidCovariance(f"correlation must lie in [-1, 1], got {rho}")
        c = rho * sigma1 * sigma2
        return cls(np.array([[sigma1**2, c], [c, sigma2**2]]))


@dataclass
class DataMatrix:
    """Regressor rows (n, m) with an optional response column of length n."""

    rows: np.ndarray
    responses: Optional[np.ndarray] = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DimMismatch(f"expected a 2-d row matrix, got ndim={rows.ndim}")
        if rows.shape[0] == 0:
            raise EmptyData("data matrix has no rows")
        if not np.all(np.isfinite(rows)):
            raise InvalidCovariance("data rows contain non-finite values")
        self.rows = rows
        if self.responses is not None:
            resp = np.asarray(self.responses, dtype=float)
            if resp.shape != (rows.shape[0],):
                raise DimMismatch(
                    f"responses length {resp.shape} does not match {rows.shape[0]} rows")
            self.responses = resp

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass
class MomentModel:
    """Second moment plus fourth-moment operator for one regressor law.

    ``fourth_operator``, ``f_hat`` and ``l_hat`` are None for printed-moments
    models; ``sampling_cov`` is set when the law can be sampled (Gaussian
    specs).  ``second_moment_eigenvalues``, ascending, are solved once by the
    PSD check.
    """

    second_moment: np.ndarray
    m4: np.ndarray
    fourth_operator: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False)
    sampling_cov: Optional[np.ndarray] = field(default=None, repr=False)
    f_hat: Optional[np.ndarray] = field(default=None, repr=False)
    second_moment_eigenvalues: np.ndarray = field(init=False, repr=False)
    l_hat: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        s = linalg.symmetrize(self.second_moment)
        m4 = linalg.symmetrize(self.m4)
        if s.shape != m4.shape:
            raise DimMismatch(
                f"second moment {s.shape} and fourth moment {m4.shape} disagree")
        self.second_moment = s
        self.second_moment_eigenvalues = _psd_spectrum(s, "second moment")
        self.m4 = m4
        if self.f_hat is not None:
            self.f_hat = linalg.symmetrize(self.f_hat)
            eye = np.eye(self.dim)
            k = sym_basis(self.dim).reshape(-1, s.size)
            self.l_hat = k @ (np.kron(s, eye) + np.kron(eye, s)) @ k.T

    @property
    def dim(self) -> int:
        return self.second_moment.shape[0]

    @property
    def supports_general_p(self) -> bool:
        return self.fourth_operator is not None

    def fourth_moment(self, p) -> np.ndarray:
        """Evaluate F(P) = E[h h^T P h h^T] for symmetric P."""
        P = linalg.symmetrize(p)
        if P.shape != self.second_moment.shape:
            raise DimMismatch(
                f"P has shape {P.shape}, model dimension is {self.dim}")
        if self.fourth_operator is not None:
            return self.fourth_operator(P)
        if np.allclose(P, np.eye(self.dim), rtol=0.0, atol=1e-12):
            return self.m4.copy()
        raise UnsupportedOperator(
            "this model carries printed moment matrices only; "
            "F(P) is available solely at P = I")


@functools.lru_cache(maxsize=None)
def sym_basis(m: int) -> np.ndarray:
    """Orthonormal basis of symmetric m x m matrices under <A,B> = tr(AB).

    A read-only (d, m, m) array, built once per m: the diagonal units, then
    (E_ij + E_ji)/sqrt(2) for i < j.  Reshaped to (d, m*m) it is K.
    """
    pairs = [(i, i) for i in range(m)] + [
        (i, j) for i in range(m) for j in range(i + 1, m)]
    basis = np.zeros((len(pairs), m, m))
    for n, (i, j) in enumerate(pairs):
        basis[n, i, j] = basis[n, j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
    basis.setflags(write=False)
    return basis


def _psd_spectrum(matrix: np.ndarray, what: str) -> np.ndarray:
    """Ascending eigenvalues of a matrix that must be PSD to within _PSD_TOL
    max(1, ||matrix||_F); ``linalg.eigh`` rejects an overflowing norm first."""
    values = linalg.eigh(matrix).values
    if values[0] < -_PSD_TOL * max(1.0, float(np.linalg.norm(matrix))):
        raise InvalidCovariance(f"{what} is not PSD (min eigenvalue {values[0]:.3g})")
    return values


def _require_finite(fourth_moments: dict) -> None:
    """Raise InvalidCovariance naming the first fourth moment that overflowed."""
    for name, value in fourth_moments.items():
        if not np.all(np.isfinite(value)):
            raise InvalidCovariance(
                f"the fourth moment {name} overflows float64; rescale the regressors")


def _wick_operator(cov: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    def apply(P: np.ndarray) -> np.ndarray:
        return 2.0 * cov @ P @ cov + cov * float(np.trace(P @ cov))
    return apply


def gaussian_moment_model(spec: GaussianSpec | np.ndarray) -> MomentModel:
    """Moment model for zero-mean Gaussian regressors with the given covariance."""
    if not isinstance(spec, GaussianSpec):
        spec = GaussianSpec(np.asarray(spec, dtype=float))
    cov = spec.covariance
    op = _wick_operator(cov)
    k = sym_basis(spec.dim).reshape(-1, cov.size)
    with np.errstate(over="ignore", invalid="ignore"):
        k_s = k @ cov.ravel()
        m4 = op(np.eye(spec.dim))
        f_hat = 2.0 * k @ np.kron(cov, cov) @ k.T + np.outer(k_s, k_s)
    _require_finite({"M4": m4, "F^": f_hat})
    return MomentModel(second_moment=cov, m4=m4, fourth_operator=op,
                       sampling_cov=cov, f_hat=f_hat)


def explicit_moment_model(second_moment, m4) -> MomentModel:
    """Moment model from printed matrices S and M4 = F(I); F limited to P = I."""
    model = MomentModel(
        second_moment=np.asarray(second_moment, dtype=float),
        m4=np.asarray(m4, dtype=float),
    )
    _psd_spectrum(model.m4, "fourth moment matrix")
    return model


def _kahan_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> None:
    """One compensated-summation step, in place on (total, comp)."""
    y = term - comp
    t = total + y
    comp[...] = (t - total) - y
    total[...] = t


def empirical_moment_model(data: DataMatrix | np.ndarray) -> MomentModel:
    """Moment model averaged over data rows, reduced as the module docstring says."""
    if not isinstance(data, DataMatrix):
        data = DataMatrix(np.asarray(data, dtype=float))
    rows = data.rows
    n, m = rows.shape
    k = sym_basis(m).reshape(-1, m * m)

    def apply(P: np.ndarray) -> np.ndarray:
        out, comp = np.zeros((m, m)), np.zeros((m, m))
        for start in range(0, n, _CHUNK):
            h = rows[start:start + _CHUNK]
            w = np.einsum("ij,ij->i", h @ P, h)
            _kahan_add(out, comp, (h * w[:, None]).T @ h)
        return out / n

    second, comp2 = np.zeros((m, m)), np.zeros((m, m))
    f_hat, comp4 = np.zeros((len(k), len(k))), np.zeros((len(k), len(k)))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _CHUNK):
            h = rows[start:start + _CHUNK]
            c = (h[:, :, None] * h[:, None, :]).reshape(len(h), m * m) @ k.T
            _kahan_add(second, comp2, h.T @ h)
            _kahan_add(f_hat, comp4, c.T @ c)
        m4 = apply(np.eye(m))
    _require_finite({"M4": m4, "F^": f_hat})
    return MomentModel(second_moment=second / n, m4=m4, fourth_operator=apply,
                       f_hat=f_hat / n)
