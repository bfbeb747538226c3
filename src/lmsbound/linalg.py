"""Dense symmetric-matrix primitives: Jacobi eigendecomposition, Cholesky, PSD tests.

Everything here is self-contained (no LAPACK calls).  The certificate
searches in ``lmi`` and ``bounds`` use LAPACK through ``numpy.linalg``,
while ``lmi.check_certificate`` uses only this module, so the re-check of a
certificate shares no eigensolver with the search that produced it.
Matrices are plain float64 numpy arrays; symmetric inputs are re-symmetrized
at the boundary and validated for finiteness.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class InvalidMatrix(ValueError):
    """Input is not a finite square real matrix."""


class NotPositiveDefinite(ValueError):
    """Cholesky pivot failed; ``index`` is the offending pivot position."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"pivot {index} is not positive (got {value:.6g})")


class NonConvergence(RuntimeError):
    """The solver exhausted its iteration budget without a decision."""


class EigenDecomp(NamedTuple):
    values: np.ndarray   # ascending
    vectors: np.ndarray  # columns, orthonormal


def symmetrize(a) -> np.ndarray:
    """Validate a square real matrix and return its symmetric part (A + A^T)/2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return (a + a.T) / 2.0


# Off-diagonal mass below this fraction of ||A||_F counts as diagonal.
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 64


def eigh(a) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvector columns.  Sweeps run until the off-diagonal Frobenius mass
    drops below 1e-12 * ||A||_F.  Deterministic: identical input bytes give
    identical output bytes.
    """
    A = symmetrize(a).copy()
    n = A.shape[0]
    V = np.eye(n)
    if n == 1:
        return EigenDecomp(A[0, :1].copy(), V)

    norm_a = float(np.linalg.norm(A))
    tol = _JACOBI_TOL * max(norm_a, np.finfo(float).tiny)

    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol / (n * n):
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = A[q, p] = 0.0
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        raise NonConvergence("Jacobi sweeps did not converge")

    values = np.diag(A).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = V[:, order]
    # Fix each eigenvector's sign by its largest-magnitude component.
    for j in range(n):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return EigenDecomp(values, vectors)


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor of A.

    Raises NotPositiveDefinite (with the failing pivot index) when A is not
    positive definite.
    """
    A = symmetrize(a)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - np.dot(L[j, :j], L[j, :j])
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise NotPositiveDefinite(j, float(pivot))
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def is_psd(a, tol: float) -> tuple[bool, float]:
    """Whether the symmetric part of ``a`` is PSD within ``tol``.

    Returns (flag, margin) where margin is the smallest eigenvalue; the flag
    is True when margin >= -tol.  The tolerance is caller-supplied on purpose:
    covariance validation and LMI slack checks need different strictness.
    """
    values, _ = eigh(a)
    margin = float(values[0])
    return margin >= -tol, margin
