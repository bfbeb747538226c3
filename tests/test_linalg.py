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
