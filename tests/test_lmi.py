"""Tests for the drift-inequality feasibility solver and its certificates."""

import dataclasses

import numpy as np
import pytest

from lmsbound import bounds, linalg, lmi, presets
from lmsbound.moments import empirical_moment_model, gaussian_moment_model


def gaussian(s1, s2, rho):
    return gaussian_moment_model(np.array([[s1, rho], [rho, s2]], dtype=float))


class TestSymBasis:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_count(self, m):
        assert len(lmi.sym_basis(m)) == m * (m + 1) // 2

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_orthonormal(self, m):
        basis = lmi.sym_basis(m)
        gram = np.array([[np.sum(a * b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_symmetric_elements(self, m):
        for b in lmi.sym_basis(m):
            assert np.array_equal(b, b.T)

    def test_spans_symmetric_matrices(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3))
        sym = (a + a.T) / 2.0
        basis = lmi.sym_basis(3)
        coords = [np.sum(sym * b) for b in basis]
        recon = sum(c * b for c, b in zip(coords, basis))
        assert np.allclose(recon, sym, atol=1e-14)


class TestDriftMatrix:
    def test_identity_p_closed_form(self):
        model = presets.benchmark_model("1B")
        a, chi = 0.1, 0.05
        q = lmi.drift_matrix(model, a, chi, np.eye(2))
        expected = a * model.m4 - 2.0 * model.second_moment + chi * np.eye(2)
        assert np.allclose(q, expected, atol=1e-14)

    def test_symmetry_for_general_p(self):
        model = presets.benchmark_model("1C")
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 2))
        p = g @ g.T + 0.1 * np.eye(2)
        q = lmi.drift_matrix(model, 0.2, 0.01, p)
        assert np.array_equal(q, q.T)

    def test_linear_in_gain_injection(self):
        # Q(P) at chi=rate splits as a*F(P) - (PS + SP) + rate*P.
        model = presets.benchmark_model("1A")
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        q1 = lmi.drift_matrix(model, 0.1, 0.2, p)
        q2 = lmi.drift_matrix(model, 0.1, 0.7, p)
        assert np.allclose(q2 - q1, 0.5 * p, atol=1e-13)


def reference_operator_matrices(model):
    """(L^, F^) with d calls to F: K @ [F(B_j)], the construction F^ replaced."""
    s = model.second_moment
    basis = lmi.sym_basis(model.dim)
    coords = np.array([b.ravel() for b in basis])
    l_hat = coords @ np.array([(s @ b + b @ s).ravel() for b in basis]).T
    f_hat = coords @ np.array([model.fourth_moment(b).ravel() for b in basis]).T
    return l_hat, f_hat


def random_law(kind, m):
    if kind == "1D":
        return presets.benchmark_model("1D")
    rng = np.random.default_rng(40 + m)
    a = rng.standard_normal((m, m))
    if kind == "gaussian":
        return gaussian_moment_model(a @ a.T / m + 0.1 * np.eye(m))
    rows = rng.standard_t(5, (300, m)) @ a.T
    if kind == "empirical-singular":
        rows[:, -1] = rows[:, 0]
    return empirical_moment_model(rows)


class TestOperatorMatrices:
    @pytest.mark.parametrize("kind,m", [("1D", 2)] + [
        (kind, m) for kind in ("gaussian", "empirical", "empirical-singular")
        for m in range(1, 10)])
    def test_matches_d_call_reference(self, kind, m):
        model = random_law(kind, m)
        for got, want in zip(lmi.operator_matrices(model),
                             reference_operator_matrices(model)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["gaussian", "empirical", "empirical-singular"])
    def test_f_hat_is_symmetric_psd(self, kind):
        f_hat = lmi.operator_matrices(random_law(kind, 4))[1]
        assert np.array_equal(f_hat, f_hat.T)
        values = np.linalg.eigvalsh(f_hat)
        assert values[0] >= -1e-12 * values[-1]


class TestMeanSquareMap:
    def test_matrix_is_symmetric(self):
        model = presets.benchmark_model("1C")
        t_hat = lmi.mean_square_map_matrix(model, 0.3)
        assert np.allclose(t_hat, t_hat.T, atol=1e-14)

    def test_zero_gain_is_identity_map(self):
        model = presets.benchmark_model("1B")
        t_hat = lmi.mean_square_map_matrix(model, 0.0)
        assert np.allclose(t_hat, np.eye(3), atol=1e-14)

    def test_dimension_of_representation(self):
        model = presets.benchmark_model("reed")
        t_hat_dim = model.dim * (model.dim + 1) // 2
        # reed carries no general fourth-moment operator, so build the map
        # for a Gaussian model of the same size instead.
        g = gaussian_moment_model(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert lmi.mean_square_map_matrix(g, 0.1).shape == (t_hat_dim, t_hat_dim)

    def test_radius_matches_numpy_oracle(self):
        model = presets.benchmark_model("1C")
        for a in (0.05, 0.2, 0.4):
            t_hat = lmi.mean_square_map_matrix(model, a)
            values, vectors = linalg.eigh(t_hat)
            assert values[-1] == pytest.approx(np.linalg.eigvalsh(t_hat)[-1], abs=1e-10)
            p_hat = sum(c * b for c, b in zip(vectors[:, -1], lmi.sym_basis(2)))
            assert np.allclose(p_hat, p_hat.T, atol=1e-14)

    def test_radius_eigenvector_is_fixed_direction(self):
        model = presets.benchmark_model("1B")
        a = 0.1
        values, vectors = linalg.eigh(lmi.mean_square_map_matrix(model, a))
        rho = values[-1]
        p_hat = sum(c * b for c, b in zip(vectors[:, -1], lmi.sym_basis(2)))
        s = model.second_moment
        image = p_hat - a * (s @ p_hat + p_hat @ s) + a * a * model.fourth_moment(p_hat)
        assert np.allclose(image, rho * p_hat, atol=1e-9)


class TestProblemValidation:
    def test_rejects_nonpositive_gain(self):
        model = presets.benchmark_model("1A")
        with pytest.raises(ValueError, match="gain"):
            lmi.LmiProblem(model, 0.0, 0.1)
        with pytest.raises(ValueError, match="gain"):
            lmi.LmiProblem(model, -0.5, 0.1)

    def test_rejects_rate_outside_window(self):
        model = presets.benchmark_model("1A")
        with pytest.raises(ValueError, match="rate"):
            lmi.LmiProblem(model, 0.5, 0.0)
        with pytest.raises(ValueError, match="rate"):
            lmi.LmiProblem(model, 0.5, 4.0)   # 2/gain = 4 is excluded

    def test_rejects_unknown_mode_and_restriction(self):
        model = presets.benchmark_model("1A")
        with pytest.raises(ValueError, match="mode"):
            lmi.LmiProblem(model, 0.1, 0.1, mode="loose")
        with pytest.raises(ValueError, match="p_restriction"):
            lmi.LmiProblem(model, 0.1, 0.1, p_restriction="diagonal")


class TestSolveFeasibility:
    def test_easy_gain_is_strictly_feasible(self):
        model = presets.benchmark_model("1A")
        out = lmi.solve_feasibility(lmi.LmiProblem(model, 0.1, 1e-4, mode="strict"))
        assert out.feasible
        assert not out.tolerance_limited
        assert out.best_slack <= -lmi.STRICT_MARGIN
        cert = out.certificate
        assert cert is not None
        ok, diag = lmi.check_certificate(model, cert)
        assert ok, diag

    def test_free_p_beats_identity_restriction(self):
        # At this gain the identity matrix is no longer a certificate but a
        # shaped P still is: the two routes must disagree.
        model = presets.benchmark_model("1B")
        a, chi = 0.158, 1e-4
        free = lmi.solve_feasibility(lmi.LmiProblem(model, a, chi, mode="strict"))
        pinned = lmi.solve_feasibility(
            lmi.LmiProblem(model, a, chi, mode="strict", p_restriction="identity"))
        assert free.feasible
        assert not pinned.feasible
        assert free.best_slack <= -lmi.STRICT_MARGIN
        assert pinned.best_slack > 0

    def test_infeasible_gain_reports_positive_slack(self):
        model = presets.benchmark_model("1A")
        out = lmi.solve_feasibility(lmi.LmiProblem(model, 1.5, 1e-4, mode="strict"))
        assert not out.feasible
        assert out.certificate is None
        assert out.best_slack > 0

    def test_singular_law_needs_relaxed_mode(self):
        # A perfectly correlated regressor freezes one direction: no strictly
        # feasible P exists, but the relaxed run certifies the boundary.
        model = presets.benchmark_model("1D")
        strict = lmi.solve_feasibility(lmi.LmiProblem(model, 0.2, 1e-6, mode="strict"))
        assert not strict.feasible
        relaxed = lmi.solve_feasibility(lmi.LmiProblem(model, 0.2, 1e-6, mode="relaxed"))
        assert relaxed.feasible
        assert relaxed.tolerance_limited
        assert relaxed.certificate is not None
        assert relaxed.certificate.tolerance_limited

    def test_certificate_p_is_positive_definite(self):
        model = presets.benchmark_model("1C")
        out = lmi.solve_feasibility(lmi.LmiProblem(model, 0.3, 1e-4, mode="strict"))
        assert out.feasible
        assert out.certificate.p_min_eigenvalue > 0
        values = np.linalg.eigvalsh(out.certificate.p_matrix)
        assert values[0] > 0

    def test_spectral_margin_sign_tracks_feasibility(self):
        model = presets.benchmark_model("1B")
        good = lmi.solve_feasibility(lmi.LmiProblem(model, 0.10, 1e-4))
        bad = lmi.solve_feasibility(lmi.LmiProblem(model, 0.30, 1e-4))
        assert good.spectral_margin > 0
        assert bad.spectral_margin < 0
        assert good.feasible and not bad.feasible

    def test_identity_restriction_matches_pencil_sign(self):
        # Identity-restricted feasibility must agree with the closed-form
        # sign of lambda_max(a*M4 - 2*S) + chi across a grid.
        model = presets.benchmark_model("1C")
        for a in (0.05, 0.15, 0.3, 0.39, 0.45):
            for chi in (1e-5, 1e-3, 0.05):
                if not chi < 2.0 / a:
                    continue
                q = a * model.m4 - 2.0 * model.second_moment + chi * np.eye(2)
                predicted = np.linalg.eigvalsh(q)[-1] <= -lmi.STRICT_MARGIN
                out = lmi.solve_feasibility(lmi.LmiProblem(
                    model, a, chi, mode="strict", p_restriction="identity"))
                assert out.feasible == predicted, (a, chi)


class TestCheckCertificate:
    @pytest.mark.parametrize("kind", ["gaussian", "empirical"])
    def test_rejects_search_on_a_wrong_f_hat(self, kind):
        # The search reads only F^ and the check only the law, so a model
        # whose F^ is halved yields a theorem1 certificate the check refuses.
        model = (presets.benchmark_model("1B") if kind == "gaussian"
                 else random_law("empirical", 3))
        assert bounds.sup_gain(model, bounds.CriterionKind.THEOREM1).certificate
        mutant = dataclasses.replace(model, f_hat=0.5 * model.f_hat)
        with pytest.raises(linalg.NonConvergence, match="verification"):
            bounds.sup_gain(mutant, bounds.CriterionKind.THEOREM1)

    def test_rejects_positive_slack(self):
        model = presets.benchmark_model("1A")
        cert = lmi.GainCertificate(
            gain=1.5, rate=0.1, p_matrix=np.eye(2), slack=0.0,
            p_min_eigenvalue=1.0)
        ok, diag = lmi.check_certificate(model, cert)
        assert not ok
        assert diag["slack"] > 0

    def test_rejects_indefinite_p(self):
        model = presets.benchmark_model("1A")
        cert = lmi.GainCertificate(
            gain=0.1, rate=0.01, p_matrix=np.diag([1.0, -1.0]), slack=0.0,
            p_min_eigenvalue=-1.0)
        ok, diag = lmi.check_certificate(model, cert)
        assert not ok
        assert diag["p_min_eigenvalue"] < 0

    def test_accepts_valid_certificate(self):
        model = presets.benchmark_model("1A")
        cert = lmi.GainCertificate(
            gain=0.1, rate=0.01, p_matrix=np.eye(2), slack=0.0,
            p_min_eigenvalue=1.0)
        ok, diag = lmi.check_certificate(model, cert)
        assert ok
        assert diag["slack"] <= lmi.EPS_FEAS_DEFAULT
