"""Dense symmetric-matrix primitives: eigendecomposition, Cholesky, proof of definiteness.

``eigh`` is one LAPACK call with a sign rule, so its vectors do not depend on
the sign LAPACK returns.  ``cholesky`` is an in-house column loop whose bits
Gaussian sampling reads.  ``proves_positive_definite`` factors a matrix
shifted down by a bound on its rounding error (Rump, BIT 46, 2006) in its
own row loop on Python floats, which reads only the signs of the pivots, so
that ``lmi.check_certificate`` decides with no call into ``numpy.linalg``
and shares nothing with the LAPACK searches.  Matrices are float64 numpy
arrays; symmetric inputs are re-symmetrized and validated for finiteness.
"""

from __future__ import annotations

import math
import operator
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
    """An eigensolve did not converge, or a certificate failed its re-check."""


class EigenDecomp(NamedTuple):
    values: np.ndarray   # ascending
    vectors: np.ndarray  # columns, orthonormal


def symmetrize(a) -> np.ndarray:
    """Validate a square real matrix and return its symmetric part (A + A^T)/2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = a + a.T
    if np.isfinite(s).all():
        return s / 2.0
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return a / 2.0 + a.T / 2.0   # finite entries whose sum overflows


def eigh(a) -> EigenDecomp:
    """Ascending eigenvalues and orthonormal eigenvector columns, by LAPACK.

    Each vector's largest-magnitude component (the first, on ties) is
    positive.  A matrix whose sum of squares overflows float64 raises
    ``InvalidMatrix``; a LAPACK failure raises ``NonConvergence``.
    """
    A = symmetrize(a)
    # Summed in Python floats, which overflow to inf without a numpy warning.
    if sum(x * x for x in A.ravel().tolist()) == math.inf:
        raise InvalidMatrix("the sum of squares overflows float64; rescale the input")
    try:
        values, vectors = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"the eigensolver did not converge ({exc})") from exc
    lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(len(A))]
    np.negative(vectors, out=vectors, where=lead < 0.0)
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


def proves_positive_definite(a) -> tuple[bool, float]:
    """(proved, shift): whether a float Cholesky of fl(A - shift I) completes.

    A float Cholesky of an n x n matrix B that completes factors B + E with
    ||E||_2 <= (n + 1) u tr(B) / (1 - 2(n + 1) u), u = 2^-53, in any order of
    summation (Rump, BIT 46, 2006).  shift = 2(n + 2) u tr(A) + n 2^-1022 also
    covers the rounding of the shifted diagonal, of a diagonal formed as a
    difference, of the trace and the shift, and underflow, so a success proves
    A positive definite.  The factor runs row by row on Python floats; a
    pivot not positive and finite fails, a trace not so gives (False, inf).
    """
    rows = symmetrize(a).tolist()
    n = len(rows)
    try:
        trace = math.fsum(row[i] for i, row in enumerate(rows))
    except OverflowError:   # finite diagonal entries whose sum overflows
        return False, math.inf
    if not 0.0 < trace < math.inf:
        return False, math.inf
    shift = 2.0 * (n + 2) * 2.0 ** -53 * trace + n * 2.0 ** -1022
    factor: list[list[float]] = []
    for i, row in enumerate(rows):
        li: list[float] = []
        for j, lj in enumerate(factor):   # map stops at len(li) == j
            li.append((row[j] - sum(map(operator.mul, li, lj))) / lj[j])
        pivot = (row[i] - shift) - sum(map(operator.mul, li, li))
        if not 0.0 < pivot < math.inf:
            return False, shift
        li.append(math.sqrt(pivot))
        factor.append(li)
    return True, shift
