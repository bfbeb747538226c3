import numpy as np
import pytest

from lmsbound import linalg


def random_symmetric(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    return (a + a.T) / 2.0


def random_spd(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


class TestSymmetrize:
    def test_averages_transpose(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(linalg.symmetrize(a),
                                   [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(linalg.InvalidMatrix):
            linalg.symmetrize(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(linalg.InvalidMatrix):
            linalg.symmetrize(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestEigh:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_numpy(self, m, seed):
        a = random_symmetric(m, seed)
        got = linalg.eigh(a)
        expect = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(got.values, expect, atol=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_eigenpairs_satisfy_definition(self, m):
        a = random_symmetric(m, seed=7 + m)
        values, vectors = linalg.eigh(a)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-9)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(m), atol=1e-10)

    def test_values_ascending(self):
        values, _ = linalg.eigh(random_symmetric(6, seed=3))
        assert np.all(np.diff(values) >= 0)

    def test_diagonal_input(self):
        values, vectors = linalg.eigh(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(values, [-1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(vectors),
                                   np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_repeated_eigenvalues(self):
        # lambda = 1 twice, lambda = 4 once, along known directions
        v = np.ones((3, 3)) + np.eye(3)
        values, vectors = linalg.eigh(v)
        np.testing.assert_allclose(values, [1.0, 1.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(v @ vectors, vectors * values, atol=1e-12)

    def test_rank_one(self):
        u = np.array([1.0, -1.0])
        values, vectors = linalg.eigh(np.outer(u, u))
        np.testing.assert_allclose(values, [0.0, 2.0], atol=1e-14)

    def test_overflowing_norm_raises(self):
        # ||A||_F overflows float64 although every entry is finite; the
        # sweeps' stop test would pass before any rotation.
        with pytest.raises(linalg.InvalidMatrix, match="sum of squares overflows"):
            linalg.eigh([[1e200, 5e199], [5e199, 1e200]])
        values, _ = linalg.eigh([[1e150, 5e149], [5e149, 1e150]])
        np.testing.assert_allclose(values, [5e149, 1.5e150], rtol=1e-12)


def reference_eigh(a):
    """``linalg.eigh`` as it stood with numpy row and column rotations.

    Kept verbatim as the reference the float rotations must match bit for bit.
    """
    A = linalg.symmetrize(a).copy()
    n = A.shape[0]
    V = np.eye(n)
    if n == 1:
        return linalg.EigenDecomp(A[0, :1].copy(), V)

    norm_a = float(np.linalg.norm(A))
    tol = linalg._JACOBI_TOL * max(norm_a, np.finfo(float).tiny)

    for _ in range(linalg._JACOBI_MAX_SWEEPS):
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
        raise linalg.NonConvergence("Jacobi sweeps did not converge")

    values = np.diag(A).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = V[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return linalg.EigenDecomp(values, vectors)


def matrix_kinds(n, seed):
    """Named test matrices of size n: every kind the solver must agree on."""
    rng = np.random.default_rng([n, seed])
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    psd = b @ b.T
    u = rng.standard_normal(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    signed_zeros = (a + a.T) / 2.0
    signed_zeros[rng.random((n, n)) < 0.3] = -0.0
    signed_zeros[rng.random((n, n)) < 0.2] = 0.0
    return {
        "symmetric": (a + a.T) / 2.0,
        "non_symmetric": a,
        "psd": psd,
        "psd_1e-12": psd * 1e-12,
        "psd_1e12": psd * 1e12,
        "diagonal": np.diag(rng.standard_normal(n)),
        "repeated": q @ np.diag(rng.integers(0, 3, n).astype(float)) @ q.T,
        "zero": np.zeros((n, n)),
        "negative_definite": -psd - np.eye(n),
        "rank_one": np.outer(u, u),
        "signed_zeros": signed_zeros,
        "ones_plus_identity": np.ones((n, n)) + np.eye(n),
    }


class TestEighBits:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_numpy_rotations_bit_for_bit(self, n):
        for seed in range(3):
            for kind, a in matrix_kinds(n, seed).items():
                for got, want in zip(linalg.eigh(a), reference_eigh(a)):
                    assert np.array_equal(got, want), (kind, seed)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_zero_sweeps_raise(self, monkeypatch):
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(linalg.NonConvergence):
            linalg.eigh(random_symmetric(3, seed=0))


class TestCholesky:
    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_factorizes(self, m):
        a = random_spd(m, seed=m)
        ell = linalg.cholesky(a)
        assert np.allclose(ell, np.tril(ell))
        np.testing.assert_allclose(ell @ ell.T, a, atol=1e-10)

    def test_indefinite_reports_pivot(self):
        a = np.diag([1.0, -2.0, 3.0])
        with pytest.raises(linalg.NotPositiveDefinite) as info:
            linalg.cholesky(a)
        assert info.value.index == 1
        assert info.value.value < 0


class TestIsPsd:
    def test_positive(self):
        ok, margin = linalg.is_psd(np.eye(3), tol=0.0)
        assert ok and margin == pytest.approx(1.0)

    def test_negative(self):
        ok, margin = linalg.is_psd(np.diag([1.0, -0.5]), tol=1e-9)
        assert not ok and margin == pytest.approx(-0.5)

    def test_tolerance_admits_noise(self):
        ok, _ = linalg.is_psd(np.diag([1.0, -1e-14]), tol=1e-12)
        assert ok
