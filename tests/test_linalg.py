from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmsbound import linalg, moments
from lmsbound.moments import InvalidCovariance


def random_symmetric(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    return (a + a.T) / 2.0


def random_spd(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


def matrix_kinds(n, seed):
    """Named test matrices of size n: every kind the eigensolver must handle."""
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
        # ||A||_F overflows float64 although every entry is finite.
        with pytest.raises(linalg.InvalidMatrix, match="sum of squares overflows"):
            linalg.eigh([[1e200, 5e199], [5e199, 1e200]])
        values, _ = linalg.eigh([[1e150, 5e149], [5e149, 1e150]])
        np.testing.assert_allclose(values, [5e149, 1.5e150], rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_lapack_result_with_sign_rule(self, n):
        # LAPACK's values bit for bit, LAPACK's vectors up to sign, and each
        # vector's largest-magnitude component positive.
        for seed in range(3):
            for kind, a in matrix_kinds(n, seed).items():
                values, vectors = linalg.eigh(a)
                want_values, want_vectors = np.linalg.eigh(linalg.symmetrize(a))
                assert np.array_equal(values, want_values), (kind, seed)
                assert np.array_equal(np.abs(vectors), np.abs(want_vectors)), (kind, seed)
                lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
                assert np.all(lead > 0), (kind, seed)

    @pytest.mark.parametrize("a", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                                   [[2.0, -1.0], [-1.0, 2.0]]])
    def test_sign_rule_takes_the_first_on_ties(self, a):
        # Every eigenvector is (1, 1)/sqrt(2) or (1, -1)/sqrt(2), whose two
        # components tie in magnitude: the first is made positive.
        _, vectors = linalg.eigh(a)
        assert np.array_equal(np.abs(vectors[0]), np.abs(vectors[1]))
        assert np.all(vectors[0] > 0)
        np.testing.assert_allclose(np.abs(vectors), np.sqrt(0.5), rtol=1e-15)

    def test_lapack_failure_is_non_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("injected LAPACK failure")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(linalg.NonConvergence, match="did not converge"):
            linalg.eigh(np.eye(2))


class TestIsPsd:
    """The PSD-within-tolerance decision that moments makes on the ascending
    spectrum from linalg.eigh, for covariances, S and a printed M4."""

    def test_positive(self):
        values = moments._psd_spectrum(np.eye(3), "covariance")
        assert values[0] == pytest.approx(1.0)

    def test_negative(self):
        with pytest.raises(InvalidCovariance, match=r"covariance is not PSD .*-0\.5"):
            moments._psd_spectrum(np.diag([1.0, -0.5]), "covariance")

    def test_tolerance_admits_noise(self):
        values = moments._psd_spectrum(np.diag([1.0, -1e-14]), "covariance").values
        assert values[0] == -1e-14


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


def exactly_positive_definite(a, shift=Fraction(0)) -> bool:
    """Whether the float matrix a - shift I is positive definite, decided by
    an LDL^T elimination in exact rational arithmetic."""
    n = len(a)
    rows = [[Fraction(float(a[i][j])) - (shift if i == j else 0) for j in range(n)]
            for i in range(n)]
    for k in range(n):
        pivot = rows[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            for j in range(k + 1, n):
                rows[i][j] -= factor * rows[k][j]
    return True


# lambda_min / lambda_max of a drawn spectrum: negative (indefinite), zero,
# or positive from far below rounding up to 1e-6.
RATIOS = st.one_of(st.floats(-18, -6).map(lambda e: 10.0 ** e),
                   st.floats(-18, -12).map(lambda e: -(10.0 ** e)),
                   st.just(0.0))


class TestProvesPositiveDefinite:
    """The shifted Cholesky never proves a matrix that is not positive
    definite, and proves every one whose lambda_min exceeds 1e-8 tr."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), ratio=RATIOS,
           scale=st.integers(-6, 6))
    def test_spectra_at_the_edge(self, n, seed, ratio, scale):
        rng = np.random.default_rng(seed)
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = 10.0 ** scale * np.concatenate(
            [[ratio], 10.0 ** rng.uniform(-3.0, 0.0, n - 2), [1.0]])
        a = (v * spectrum) @ v.T
        a = (a + a.T) / 2.0
        proved, shift = linalg.proves_positive_definite(a)
        assert 0 < shift < np.inf
        if proved:
            assert exactly_positive_definite(a)
        trace = sum(Fraction(float(x)) for x in np.diag(a))
        if exactly_positive_definite(a, Fraction(1, 10**8) * trace):
            assert proved

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(n=st.integers(2, 6), data=st.data())
    def test_exactly_singular_is_refused(self, n, data):
        rank = data.draw(st.integers(1, n - 1))
        factor = np.array(data.draw(st.lists(
            st.integers(-5, 5), min_size=n * rank, max_size=n * rank)), dtype=float)
        scale = 2.0 ** data.draw(st.integers(-60, 60))
        a = scale * (factor.reshape(n, rank) @ factor.reshape(n, rank).T)
        assert not exactly_positive_definite(a)
        assert not linalg.proves_positive_definite(a)[0]

    @pytest.mark.parametrize("a", [np.zeros((3, 3)), -np.eye(2), np.diag([1.0, -1.0])])
    def test_nonpositive_trace_is_refused(self, a):
        assert linalg.proves_positive_definite(a) == (False, np.inf)

    def test_identity_is_proved(self):
        assert linalg.proves_positive_definite(np.eye(4)) == (
            True, 12 * 2.0 ** -53 * 4 + 4 * 2.0 ** -1022)
