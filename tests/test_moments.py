import pickle

import numpy as np
import pytest

from lmsbound import bounds, moments, presets
from lmsbound.moments import (DataMatrix, DimMismatch, EmptyData, GaussianSpec,
                              InvalidCovariance, UnsupportedOperator,
                              empirical_moment_model, explicit_moment_model,
                              gaussian_moment_model)


class TestGaussianSpec:
    def test_from_two_dim(self):
        spec = GaussianSpec.from_two_dim(1.0, 2.0, 0.5)
        np.testing.assert_allclose(spec.covariance, [[1.0, 1.0], [1.0, 4.0]])
        assert spec.dim == 2

    @pytest.mark.parametrize("s1,s2,rho", [(0.0, 1.0, 0.0), (1.0, -1.0, 0.0),
                                           (1.0, 1.0, 1.5), (1.0, 1.0, -1.01)])
    def test_rejects_bad_parameters(self, s1, s2, rho):
        with pytest.raises(ValueError):
            GaussianSpec.from_two_dim(s1, s2, rho)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(InvalidCovariance):
            GaussianSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_accepts_singular_covariance(self):
        spec = GaussianSpec.from_two_dim(1.0, 1.0, 1.0)
        np.testing.assert_allclose(spec.covariance, np.ones((2, 2)))


class TestGaussianFourthMoment:
    """F(P) = E[h h^T P h h^T] = 2 S P S + S tr(P S) for Gaussian h."""

    def test_anisotropic_diagonal(self):
        model = gaussian_moment_model(GaussianSpec.from_two_dim(1.0, 2.0, 0.0))
        np.testing.assert_allclose(model.m4, np.diag([7.0, 52.0]))

    def test_correlated(self):
        model = gaussian_moment_model(GaussianSpec.from_two_dim(1.0, 1.0, 0.5))
        np.testing.assert_allclose(model.m4, [[4.5, 3.0], [3.0, 4.5]])

    def test_general_p(self):
        model = gaussian_moment_model(GaussianSpec.from_two_dim(1.0, 2.0, 0.0))
        p = np.array([[2.0, 1.0], [1.0, 3.0]])
        s = model.second_moment
        expect = 2.0 * s @ p @ s + s * np.trace(p @ s)
        np.testing.assert_allclose(model.fourth_moment(p), expect)

    def test_operator_is_linear(self):
        model = gaussian_moment_model(GaussianSpec.from_two_dim(1.5, 0.7, -0.3))
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 2)); a = a + a.T
        b = rng.standard_normal((2, 2)); b = b + b.T
        np.testing.assert_allclose(
            model.fourth_moment(2.0 * a - 3.0 * b),
            2.0 * model.fourth_moment(a) - 3.0 * model.fourth_moment(b),
            atol=1e-12)

    def test_output_symmetric(self):
        model = gaussian_moment_model(GaussianSpec.from_two_dim(1.0, 2.0, 0.4))
        f = model.fourth_moment(np.array([[1.0, 0.2], [0.2, 0.5]]))
        np.testing.assert_allclose(f, f.T)

    def test_monte_carlo_agreement(self):
        # modest sample; the tight version lives in the acceptance suite
        spec = GaussianSpec.from_two_dim(1.0, 2.0, 0.5)
        model = gaussian_moment_model(spec)
        rng = np.random.default_rng(11)
        h = rng.multivariate_normal(np.zeros(2), spec.covariance, size=200_000)
        p = np.array([[1.0, 0.3], [0.3, 2.0]])
        hp = np.einsum("ni,ij,nj->n", h, p, h)
        estimate = np.einsum("n,ni,nj->ij", hp, h, h) / h.shape[0]
        np.testing.assert_allclose(model.fourth_moment(p), estimate,
                                   rtol=0.05, atol=0.05)

    def test_from_covariance_array(self):
        cov = np.array([[2.0, 0.0], [0.0, 1.0]])
        model = gaussian_moment_model(cov)
        np.testing.assert_allclose(model.second_moment, cov)
        assert model.sampling_cov is not None


class TestExplicitModel:
    def test_identity_evaluation_only(self):
        s = np.diag([1.0, 2.0])
        m4 = np.diag([7.0, 13.0])
        model = explicit_moment_model(s, m4)
        np.testing.assert_allclose(model.fourth_moment(np.eye(2)), m4)
        with pytest.raises(UnsupportedOperator):
            model.fourth_moment(np.diag([1.0, 2.0]))
        assert not model.supports_general_p

    def test_symmetrizes_printed_asymmetry(self):
        s = np.array([[5.0, 2.122], [2.121, 4.0]])
        model = explicit_moment_model(s, np.eye(2) * 10.0)
        assert model.second_moment[0, 1] == pytest.approx(2.1215)
        assert model.second_moment[1, 0] == pytest.approx(2.1215)

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            explicit_moment_model(np.eye(2), np.eye(3))

    def test_rejects_non_psd_moments(self):
        with pytest.raises(InvalidCovariance):
            explicit_moment_model(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(InvalidCovariance):
            explicit_moment_model(np.eye(2), np.diag([1.0, -1.0]))

    def test_constructor_rejects_non_psd_fourth_moment(self):
        # The printed-moments rule is the model's own, not only its builder's.
        with pytest.raises(InvalidCovariance, match="fourth moment matrix is not PSD"):
            moments.MomentModel(second_moment=np.eye(2),
                                m4=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestDataMatrix:
    def test_basic(self):
        d = DataMatrix(np.arange(6.0).reshape(3, 2))
        assert d.n == 3 and d.dim == 2 and d.responses is None

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(EmptyData):
            DataMatrix(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, np.inf]]))

    def test_response_length_checked(self):
        with pytest.raises(ValueError):
            DataMatrix(np.ones((3, 2)), responses=np.ones(2))

    def test_rejects_a_vector(self):
        with pytest.raises(DimMismatch, match="2-d row matrix"):
            DataMatrix(np.zeros(3))


class TestEmpiricalModel:
    def test_second_moment_is_mean_outer_product(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((500, 3))
        model = empirical_moment_model(rows)
        np.testing.assert_allclose(model.second_moment,
                                   rows.T @ rows / 500.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_fourth_operator_matches_direct_tensor(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.standard_normal((200, dim))
        model = empirical_moment_model(rows)
        p = rng.standard_normal((dim, dim))
        p = (p + p.T) / 2.0
        hp = np.einsum("ni,ij,nj->n", rows, p, rows)
        expect = np.einsum("n,ni,nj->ij", hp, rows, rows) / 200.0
        np.testing.assert_allclose(model.fourth_moment(p), expect, atol=1e-10)
        assert model.supports_general_p

    def test_m4_equals_operator_at_identity(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((128, 4))
        model = empirical_moment_model(rows)
        np.testing.assert_allclose(model.m4,
                                   model.fourth_moment(np.eye(4)), atol=1e-10)

    def test_accepts_data_matrix(self):
        d = DataMatrix(np.eye(3))
        model = empirical_moment_model(d)
        np.testing.assert_allclose(model.second_moment, np.eye(3) / 3.0)


class TestFourthMomentGram:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_empirical_matches_wick_within_standard_errors(self, dim):
        # F^ = E[c c^T] with c_i = h^T B_i h: the sample Gram matrix of
        # Gaussian draws must agree with the closed form entry by entry.
        rng = np.random.default_rng(60 + dim)
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T / dim + 0.2 * np.eye(dim)
        rows = rng.multivariate_normal(np.zeros(dim), cov, size=200_000)
        c = np.einsum("ni,kij,nj->nk", rows, moments.sym_basis(dim), rows)
        se = np.array([[np.std(ci * cj, ddof=1) for cj in c.T] for ci in c.T])
        se /= np.sqrt(len(rows))
        gap = (empirical_moment_model(rows).f_hat
               - gaussian_moment_model(cov).f_hat)
        assert np.abs(gap / se).max() < 5.0


class TestMomentModelValidation:
    def test_dim_property(self):
        assert gaussian_moment_model(np.eye(4)).dim == 4

    # A zero S, and an M4 that is zero on S's range, are moments of no law:
    # every law has u'M4u >= E(u'h)^4/|u|^2 > 0 on the range.
    @pytest.mark.parametrize("build", [
        lambda: gaussian_moment_model(np.zeros((2, 2))),
        lambda: empirical_moment_model(np.zeros((3, 2))),
        lambda: explicit_moment_model(np.zeros((2, 2)), np.eye(2)),
    ], ids=["gaussian", "empirical", "explicit"])
    def test_rejects_zero_second_moment(self, build):
        with pytest.raises(InvalidCovariance, match="second moment is zero"):
            build()

    @pytest.mark.parametrize("s, m4", [
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        (np.full((2, 2), 0.5), np.array([[1.0, -1.0], [-1.0, 1.0]])),
    ], ids=["axis", "diagonal"])
    def test_rejects_fourth_moment_off_the_range(self, s, m4):
        with pytest.raises(InvalidCovariance, match="zero on the range"):
            explicit_moment_model(s, m4)

    def test_wrong_p_shape(self):
        model = gaussian_moment_model(np.eye(2))
        with pytest.raises(DimMismatch):
            model.fourth_moment(np.eye(3))


ROWS = np.random.default_rng(4).standard_normal((300, 3))


class TestLaw:
    """A model keeps the law it was built from, and is plain picklable data."""

    def test_gaussian_keeps_its_spec(self):
        spec = GaussianSpec.from_two_dim(1.0, 2.0, 0.5)
        model = gaussian_moment_model(spec)
        assert model.law is spec
        assert model.sampling_cov is spec.covariance
        assert model.supports_general_p
        built = gaussian_moment_model(np.diag([2.0, 1.0]))
        assert isinstance(built.law, GaussianSpec)
        assert np.array_equal(built.sampling_cov, np.diag([2.0, 1.0]))

    def test_empirical_keeps_its_rows(self):
        data = DataMatrix(ROWS, np.arange(300.0))
        assert empirical_moment_model(data).law is data
        model = empirical_moment_model(ROWS)
        assert isinstance(model.law, DataMatrix)
        assert np.array_equal(model.law.rows, ROWS)
        assert model.sampling_cov is None
        assert model.supports_general_p

    def test_printed_has_no_law(self):
        model = presets.benchmark_model("reed")
        assert model.law is None
        assert model.sampling_cov is None
        assert not model.supports_general_p

    @pytest.mark.parametrize("build", [
        lambda: presets.benchmark_model("1C"),
        lambda: empirical_moment_model(ROWS),
        lambda: presets.benchmark_model("reed"),
    ], ids=["gaussian", "empirical", "printed"])
    def test_pickle_round_trip(self, build):
        model = build()
        copy = pickle.loads(pickle.dumps(model))
        kind = bounds.CriterionKind.COROLLARY2
        assert (bounds.sup_gain(copy, kind).sup_gain
                == bounds.sup_gain(model, kind).sup_gain)
        eye = np.eye(model.dim)
        assert np.array_equal(copy.fourth_moment(eye), model.fourth_moment(eye))
