"""Tests for the drift-inequality feasibility solver and its certificates."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
        for got, want in zip((model.l_hat, model.f_hat),
                             reference_operator_matrices(model)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["gaussian", "empirical", "empirical-singular"])
    def test_f_hat_is_symmetric_psd(self, kind):
        f_hat = random_law(kind, 4).f_hat
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


@st.composite
def laws_with_null_space(draw):
    """A Gaussian or 200-row empirical law, m = 1-5, full or low rank, and an
    orthonormal basis of its second moment's null space."""
    m = draw(st.integers(1, 5))
    spectrum = draw(arrays(float, m, elements=st.floats(0.2, 5.0)))
    spectrum[:draw(st.integers(0, m - 1))] = 0.0
    q, _ = np.linalg.qr(draw(arrays(float, (m, m), elements=st.floats(-1.0, 1.0)))
                        + 3.0 * np.eye(m))
    if draw(st.booleans()):
        law = gaussian_moment_model((q * spectrum) @ q.T)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        law = empirical_moment_model(rng.standard_normal((200, m)) * spectrum @ q.T)
    return law, q[:, spectrum == 0.0]


class TestMeanSquareMapSpectrum:
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(laws_with_null_space(), st.floats(0.01, 0.5))
    def test_eigenpairs_on_the_range_of_l_hat(self, law_and_null, gain):
        law, null = law_and_null
        t_hat = lmi.mean_square_map_matrix(law, gain)
        values, vectors = lmi.mean_square_map(law, gain)
        d, f = len(t_hat), null.shape[1]
        assert vectors.shape == (d, d - f * (f + 1) // 2)
        assert np.abs(t_hat @ vectors - vectors * values).max() <= 1e-12 * max(
            1.0, np.abs(t_hat).max())
        assert np.allclose(vectors.T @ vectors, np.eye(len(values)), atol=1e-12)
        # L^'s null space: the symmetric matrices on S's null space.
        k = lmi.sym_basis(law.dim).reshape(d, -1)
        frozen = [k @ (np.outer(u, v) + np.outer(v, u)).ravel()
                  for i, u in enumerate(null.T) for v in null.T[i:]]
        if frozen:
            assert np.abs(np.array(frozen) @ vectors).max() <= 1e-9
        # The top value is the spectral radius on the range, as an eigvalsh of
        # T^ restricted to L^'s range gives it.
        l_values, l_vectors = np.linalg.eigh(law.l_hat)
        w = l_vectors[:, l_values > 1e-9 * l_values[-1]]
        assert values[-1] == pytest.approx(np.linalg.eigvalsh(w.T @ t_hat @ w)[-1],
                                           abs=1e-12)


class TestProblemValidation:
    def test_rejects_nonpositive_gain(self):
        model = presets.benchmark_model("1A")
        for certify in (lmi.identity_certificate, lmi.solve_feasibility):
            for gain in (0.0, -0.5, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="gain must be positive"):
                    certify(model, gain, 0.1)

    def test_rejects_rate_outside_window(self):
        model = presets.benchmark_model("1A")
        for certify in (lmi.identity_certificate, lmi.solve_feasibility):
            with pytest.raises(ValueError, match="rate"):
                certify(model, 0.5, 0.0)
            with pytest.raises(ValueError, match=r"rate must lie in \(0, 2/gain\)"):
                certify(model, 0.5, 4.0)   # 2/gain = 4 is excluded

    def test_rejects_unknown_mode(self):
        model = presets.benchmark_model("1A")
        for certify in (lmi.identity_certificate, lmi.solve_feasibility):
            with pytest.raises(ValueError, match="mode"):
                certify(model, 0.1, 0.1, mode="loose")


class TestGrade:
    @pytest.mark.parametrize("slack, strict, relaxed", [
        (-1.0, 0, 0), (-lmi.STRICT_MARGIN, 0, 0), (-lmi.STRICT_MARGIN / 2, 2, 1),
        (0.0, 2, 1), (lmi.RELAXED_TOL_DEFAULT, 2, 1), (2 * lmi.RELAXED_TOL_DEFAULT, 2, 2),
        (float("inf"), 2, 2)])
    def test_levels(self, slack, strict, relaxed):
        assert lmi.grade(slack, "strict") == strict
        assert lmi.grade(slack, "relaxed") == relaxed


def identity_slack(model, a, chi):
    q = a * model.m4 - 2.0 * model.second_moment + chi * np.eye(model.dim)
    return float(np.linalg.eigvalsh(q)[-1])


class TestSolveFeasibility:
    def test_easy_gain_is_strictly_feasible(self):
        model = presets.benchmark_model("1A")
        cert = lmi.solve_feasibility(model, 0.1, 1e-4, mode="strict")
        assert cert is not None
        assert not cert.tolerance_limited
        assert cert.slack <= -lmi.STRICT_MARGIN
        ok, diag = lmi.check_certificate(model, cert)
        assert ok, diag

    def test_free_p_beats_identity_restriction(self):
        # At this gain the identity matrix is no longer a certificate but a
        # shaped P still is: the two routes must disagree.
        model = presets.benchmark_model("1B")
        a, chi = 0.158, 1e-4
        free = lmi.solve_feasibility(model, a, chi, mode="strict")
        assert free is not None
        assert free.slack <= -lmi.STRICT_MARGIN
        assert lmi.identity_certificate(model, a, chi, mode="strict") is None
        assert identity_slack(model, a, chi) > 0

    def test_infeasible_gain_has_no_certificate(self):
        model = presets.benchmark_model("1A")
        assert lmi.solve_feasibility(model, 1.5, 1e-4, mode="strict") is None
        assert lmi.solve_feasibility(model, 1.5, 1e-4, mode="relaxed") is None
        assert identity_slack(model, 1.5, 1e-4) > 0

    def test_singular_law_needs_relaxed_mode(self):
        # A perfectly correlated regressor freezes one direction: no strictly
        # feasible P exists, but the relaxed run certifies the boundary.
        model = presets.benchmark_model("1D")
        assert lmi.solve_feasibility(model, 0.2, 1e-6, mode="strict") is None
        relaxed = lmi.solve_feasibility(model, 0.2, 1e-6, mode="relaxed")
        assert relaxed is not None
        assert relaxed.tolerance_limited

    def test_certificate_p_is_positive_definite(self):
        model = presets.benchmark_model("1C")
        cert = lmi.solve_feasibility(model, 0.3, 1e-4, mode="strict")
        assert cert is not None
        assert cert.p_min_eigenvalue > 0
        assert np.linalg.eigvalsh(cert.p_matrix)[0] > 0

    def test_identity_kept_when_it_certifies_strictly(self, monkeypatch):
        # At 1A's theorem1 sup certificate point the identity certifies
        # strictly, so T^ (d x d, d = 3) is never eigendecomposed.
        model = presets.benchmark_model("1A")
        a = bounds.sup_gain(model, bounds.CriterionKind.THEOREM1).sup_gain
        eigh = np.linalg.eigh

        def small_only(mat, *args, **kwargs):
            if len(mat) == 3:
                raise AssertionError("T^ eigendecomposed")
            return eigh(mat, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", small_only)
        cert = lmi.solve_feasibility(model, a * (1.0 - bounds.TOL_A),
                                     bounds.TOL_CHI, mode="relaxed")
        assert cert is not None and not cert.tolerance_limited
        assert np.array_equal(cert.p_matrix, np.eye(2))

    def test_certificate_checked_at_the_tolerance_it_claims(self, monkeypatch):
        # The identity slack at 1A, a = 0.5, chi = 1e-6 is 4a - 2 + chi = +1e-6:
        # tolerance-limited.  A resolvent that wrongly claims P = I with slack
        # -1 grades as strict, so it is checked at EPS_FEAS_DEFAULT and refused.
        model = presets.benchmark_model("1A")
        assert identity_slack(model, 0.5, 1e-6) == pytest.approx(1e-6, rel=1e-6)
        monkeypatch.setattr(lmi, "_resolvent", lambda *args: (np.eye(2), -1.0))
        with pytest.raises(linalg.NonConvergence, match="verification"):
            lmi.solve_feasibility(model, 0.5, 1e-6, mode="relaxed")

    def test_identity_restriction_matches_pencil_sign(self):
        # Identity-restricted feasibility must agree with the closed-form
        # sign of lambda_max(a*M4 - 2*S) + chi across a grid.
        model = presets.benchmark_model("1C")
        for a in (0.05, 0.15, 0.3, 0.39, 0.45):
            for chi in (1e-5, 1e-3, 0.05):
                if not chi < 2.0 / a:
                    continue
                predicted = identity_slack(model, a, chi) <= -lmi.STRICT_MARGIN
                cert = lmi.identity_certificate(model, a, chi, mode="strict")
                assert (cert is not None) == predicted, (a, chi)


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


def test_check_decides_without_numpy_linalg(monkeypatch):
    # ok comes from the shifted Cholesky alone: with every numpy.linalg
    # routine and the sampling factor linalg.cholesky failing, and
    # linalg.eigh reporting a zero spectrum, the check still refuses a gain
    # beyond the sup and accepts one below it.
    model = presets.benchmark_model("1A")
    refused = lmi.GainCertificate(gain=1.5, rate=0.1, p_matrix=np.eye(2),
                                  slack=0.0, p_min_eigenvalue=1.0)
    accepted = dataclasses.replace(refused, gain=0.1, rate=0.01)

    def fail(*args, **kwargs):
        raise AssertionError("numpy.linalg called")
    for name in ("eigh", "eigvalsh", "cholesky", "norm", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, fail)
    monkeypatch.setattr(linalg, "eigh", lambda a: linalg.EigenDecomp(
        np.zeros(len(a)), np.eye(len(a))))
    monkeypatch.setattr(linalg, "cholesky", fail)
    assert lmi.check_certificate(model, refused)[0] is False
    ok, diag = lmi.check_certificate(model, accepted)
    assert ok is True
    assert 0 < diag["rounding"] < 1e-12
