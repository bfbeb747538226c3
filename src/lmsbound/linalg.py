"""Dense symmetric-matrix primitives: Jacobi eigendecomposition, Cholesky, PSD tests.

Everything here is self-contained (no LAPACK calls).  The certificate
searches in ``lmi`` and ``bounds`` use LAPACK through ``numpy.linalg``,
while ``lmi.check_certificate`` uses only this module, so the re-check of a
certificate shares no eigensolver with the search that produced it.
Matrices are plain float64 numpy arrays; symmetric inputs are re-symmetrized
at the boundary and validated for finiteness.

``eigh`` rotates Python lists of floats, not numpy rows: its matrices are
m x m (S, M4, P, Q(P), covariances, Gram matrices), where one numpy call on
a length-m row costs more than the m products it forms.  Each rotation does
the element operations of the numpy row-and-column formulation in the same
order (rows, then columns, then the zeroed pair, then the eigenvectors), so
the results are the same to the bit, with one code path for every n.  Both
hypot values come from ``np.hypot``, because ``math.hypot`` rounds
hypot(1, x) differently on about one argument in a thousand, and each sweep
stops on numpy's Frobenius norm of the off-diagonal part, so every stop
decision is numpy's.
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
    drops below 1e-12 * ||A||_F, so a matrix whose sum of squares overflows
    float64 raises ``InvalidMatrix``.  Deterministic: identical input bytes
    give identical output bytes.
    """
    A = symmetrize(a).copy()
    n = A.shape[0]
    if n == 1:
        return EigenDecomp(A[0, :1].copy(), np.eye(1))

    with np.errstate(over="ignore"):
        norm_a = float(np.linalg.norm(A))
    if not np.isfinite(norm_a):
        raise InvalidMatrix("the sum of squares overflows float64; rescale the input")
    tol = _JACOBI_TOL * max(norm_a, np.finfo(float).tiny)
    skip = tol / (n * n)
    rows = A.tolist()
    vt = np.eye(n).tolist()   # vt[j] is eigenvector column j

    for _ in range(_JACOBI_MAX_SWEEPS):
        if np.linalg.norm(A - np.diag(np.diag(A))) <= tol:
            break
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if abs(apq) <= skip:
                    continue
                row_q = rows[q]
                theta = (row_q[q] - row_p[p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    sign = 1.0 if theta > 0.0 else -1.0
                    t = sign / (abs(theta) + float(np.hypot(1.0, theta)))
                c = 1.0 / float(np.hypot(1.0, t))
                s = t * c
                for j in range(n):
                    x, y = row_p[j], row_q[j]
                    row_p[j] = c * x - s * y
                    row_q[j] = s * x + c * y
                for row in rows:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                row_p[q] = row_q[p] = 0.0
                v_p, v_q = vt[p], vt[q]
                for j in range(n):
                    x, y = v_p[j], v_q[j]
                    v_p[j] = c * x - s * y
                    v_q[j] = s * x + c * y
        A = np.array(rows)
    else:
        raise NonConvergence("Jacobi sweeps did not converge")

    # Stable ascending order; each eigenvector's largest-magnitude component
    # (the first, on ties) is made positive.
    order = sorted(range(n), key=lambda j: rows[j][j])
    vectors = []
    for j in order:
        v = vt[j]
        k = max(range(n), key=lambda i: abs(v[i]))
        vectors.append(v if v[k] >= 0.0 else [-x for x in v])
    return EigenDecomp(np.array([rows[j][j] for j in order]), np.array(vectors).T)


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
