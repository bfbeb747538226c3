"""Tests for criterion sup gains, certified rates, and error bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lmsbound import bounds, lmi, presets
from lmsbound.bounds import (
    CERTIFICATE_KINDS,
    CriterionKind,
    GainTooLarge,
    InvalidRate,
    asymptotic_bound,
    finite_k_bound,
    initial_error_second_moment,
    initial_v,
    max_chi_search,
    pencil_max_eigenvalue,
    protocol_gain,
    sup_gain,
)
from lmsbound.moments import (GaussianSpec, UnsupportedOperator,
                              empirical_moment_model, explicit_moment_model,
                              gaussian_moment_model)

K = CriterionKind

# (sigma1, sigma2, rho) with lambda(S) = 5.0e-10 and 0.020: nonsingular by a
# relative rule, yet no certificate passes the strict slack test at its sups.
NEAR_SINGULAR = (0.1, 0.1, 0.99999995)


def model(name):
    return presets.benchmark_model(name)


class TestCriterionKind:
    @pytest.mark.parametrize("kind", list(K))
    def test_name_round_trip(self, kind):
        assert K.from_name(kind.value) is kind

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            K.from_name("widrow")


class TestModes:
    # Every entry that takes a mode grades through lmi.grade, which rejects an
    # unknown one, even where the mode would not change the answer.
    @pytest.mark.parametrize("call", [
        *[lambda mode, kind=kind: sup_gain(model("1A"), kind, mode=mode) for kind in K],
        *[lambda mode, kind=kind: max_chi_search(model("1D"), kind, 0.3, mode=mode)
          for kind in CERTIFICATE_KINDS],
        lambda mode: lmi.identity_certificate(model("1A"), 0.1, 0.1, mode=mode),
        lambda mode: lmi.solve_feasibility(model("1A"), 0.1, 0.1, mode=mode),
    ], ids=[*(f"sup_gain-{kind.value}" for kind in K),
            *(f"max_chi_search-{kind.value}" for kind in CERTIFICATE_KINDS),
            "identity_certificate", "solve_feasibility"])
    def test_unknown_mode_is_rejected(self, call):
        call("relaxed")
        with pytest.raises(ValueError, match="unknown mode 'strct'"):
            call("strct")


class TestLiteratureSups:
    # closed forms: 2/lambda_max, 2/trace, 2*lambda_min/lambda_max^2
    @pytest.mark.parametrize("name,expected", [
        ("1A", 2.0), ("1B", 0.5), ("1C", 2.0 / 1.5), ("1D", 1.0)])
    def test_widrow_lambda_max(self, name, expected):
        assert sup_gain(model(name), K.WIDROW_LAMBDA_MAX).sup_gain == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("name,expected", [
        ("1A", 1.0), ("1B", 0.4), ("1C", 1.0), ("1D", 1.0)])
    def test_widrow_trace(self, name, expected):
        assert sup_gain(model(name), K.WIDROW_TRACE).sup_gain == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("name,expected", [
        ("1A", 2.0), ("1B", 0.125), ("1C", 2.0 * 0.5 / 1.5**2)])
    def test_zhu(self, name, expected):
        assert sup_gain(model(name), K.ZHU).sup_gain == pytest.approx(
            expected, abs=1e-12)

    def test_zhu_singular_second_moment_is_inapplicable(self):
        res = sup_gain(model("1D"), K.ZHU)
        assert res.inapplicable
        assert res.sup_gain == 0.0

    def test_printed_matrix_model_values(self):
        reed = model("reed")
        assert sup_gain(reed, K.WIDROW_LAMBDA_MAX).sup_gain == pytest.approx(
            0.1169, abs=1e-4)
        assert sup_gain(reed, K.WIDROW_TRACE).sup_gain == pytest.approx(
            0.1066, abs=1e-4)
        assert sup_gain(reed, K.ZHU).sup_gain == pytest.approx(0.0007, abs=1e-4)

    def test_read_the_model_spectrum_without_an_eigensolver(self, monkeypatch):
        models = {name: model(name) for name in presets.BENCHMARK_NAMES}

        def fail(*args, **kwargs):
            raise AssertionError("a literature criterion called an eigensolver")
        for target in ("lmsbound.bounds.linalg.eigh", "numpy.linalg.eigh",
                       "numpy.linalg.eigvalsh"):
            monkeypatch.setattr(target, fail)
        pinned = {
            K.WIDROW_LAMBDA_MAX: {"1A": 2.0, "1B": 0.5, "1C": 2.0 / 1.5,
                                  "1D": 1.0, "reed": 0.1169},
            K.WIDROW_TRACE: {"1A": 1.0, "1B": 0.4, "1C": 1.0, "1D": 1.0,
                             "reed": 0.1066},
            K.ZHU: {"1A": 2.0, "1B": 0.125, "1C": 2.0 * 0.5 / 1.5**2,
                    "1D": 0.0, "reed": 0.0007},
        }
        for kind, values in pinned.items():
            for name, want in values.items():
                tol = 1e-4 if name == "reed" else 1e-12
                assert sup_gain(models[name], kind).sup_gain == pytest.approx(
                    want, abs=tol), (kind, name)

    # The first and the last law are singular relative to tr(S) but not to
    # lambda_max(S), so a tr(S) rule in the bound alone would give a
    # positive Zhu sup with an infinite Zhu bound.
    @pytest.mark.parametrize("diagonal", [
        (1.0, 1.0, 1.5e-9), (1.0, 1.0, 0.5e-9), (1.0, 2e-9), (3.0, 3.0, 3.0, 2.5e-9),
        (0.5, 0.5, 0.5, 0.5, 1.2e-9)])
    def test_zhu_sup_and_bound_agree_on_singularity(self, diagonal):
        law = gaussian_moment_model(np.diag(diagonal))
        res = sup_gain(law, K.ZHU)
        gain = res.sup_gain if res.sup_gain > 0 else 0.1
        bound = asymptotic_bound(K.ZHU, gain, None, None, law.second_moment, 0.1)
        assert res.inapplicable == np.isinf(bound)

    @pytest.mark.parametrize("law", [
        NEAR_SINGULAR, presets.GAUSSIAN_CASES["1D"], presets.GAUSSIAN_CASES["1B"]])
    def test_zhu_and_strict_corollary2_agree_on_singularity_at_any_scale(self, law):
        cov = GaussianSpec.from_two_dim(*law).covariance
        for k in range(-20, 21):
            scaled = gaussian_moment_model(cov * 2.0**k)
            pinned = sup_gain(scaled, K.COROLLARY2, mode="strict")
            assert sup_gain(scaled, K.ZHU).inapplicable == pinned.strictly_infeasible, k


class TestIdentityCertificateSup:
    # sup over {a : lambda_max(a*M4 - 2*S) < 0}; exact values by hand
    @pytest.mark.parametrize("name,expected", [
        ("1A", 0.5), ("1B", 2.0 / 13.0), ("1C", 0.4)])
    def test_gaussian_cases(self, name, expected):
        res = sup_gain(model(name), K.COROLLARY2)
        assert res.sup_gain == pytest.approx(expected, abs=1e-5)
        assert not res.tolerance_limited
        assert res.certificate is not None

    def test_degenerate_case_relaxed(self):
        res = sup_gain(model("1D"), K.COROLLARY2, mode="relaxed")
        assert res.sup_gain == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert res.tolerance_limited

    def test_degenerate_case_strict(self):
        res = sup_gain(model("1D"), K.COROLLARY2, mode="strict")
        assert res.strictly_infeasible
        assert res.sup_gain == 0.0
        assert "no feasible gain" in res.note

    def test_printed_matrix_model(self):
        res = sup_gain(model("reed"), K.COROLLARY2)
        assert res.sup_gain == pytest.approx(0.0716, abs=1e-4)
        # cross-check against the generalized-eigenvalue closed form
        reed = model("reed")
        mu = np.max(np.real(np.linalg.eigvals(
            np.linalg.solve(reed.second_moment, reed.m4))))
        assert res.sup_gain == pytest.approx(2.0 / mu, abs=1e-4)

    def test_pencil_sign_change_at_sup(self):
        m = model("1B")
        assert pencil_max_eigenvalue(m, 2.0 / 13.0 - 1e-6) < 0
        assert pencil_max_eigenvalue(m, 2.0 / 13.0 + 1e-6) > 0


class TestFreeCertificateSup:
    # hand-derived optima of the free-matrix drift inequality
    @pytest.mark.parametrize("name,expected", [
        ("1A", 0.5),
        ("1B", (15.0 - np.sqrt(97.0)) / 32.0),
        ("1C", 1.0 - 1.0 / np.sqrt(3.0))])
    def test_gaussian_cases(self, name, expected):
        res = sup_gain(model(name), K.THEOREM1)
        assert res.sup_gain == pytest.approx(expected, abs=5e-4)
        assert not res.tolerance_limited

    def test_free_matrix_dominates_identity(self):
        for name in ("1A", "1B", "1C"):
            free = sup_gain(model(name), K.THEOREM1).sup_gain
            pinned = sup_gain(model(name), K.COROLLARY2).sup_gain
            assert free >= pinned - 1e-5

    def test_degenerate_case_relaxed(self):
        res = sup_gain(model("1D"), K.THEOREM1, mode="relaxed")
        assert res.sup_gain == pytest.approx(1.0 / 3.0, abs=5e-3)
        assert res.tolerance_limited

    def test_needs_fourth_moment_operator(self):
        m = explicit_moment_model(np.eye(2), 4.0 * np.eye(2))
        with pytest.raises(UnsupportedOperator):
            sup_gain(m, K.THEOREM1)

    def test_searches_read_the_operator_matrices_off_the_model(self, monkeypatch):
        models = {name: model(name) for name in ("1A", "1B", "1C")}

        def fail(*args, **kwargs):
            raise AssertionError("L^ was rebuilt after the model")
        monkeypatch.setattr("numpy.kron", fail)
        for name, expected in [("1A", 0.5), ("1B", (15.0 - np.sqrt(97.0)) / 32.0),
                               ("1C", 1.0 - 1.0 / np.sqrt(3.0))]:
            assert sup_gain(models[name], K.THEOREM1).sup_gain == pytest.approx(
                expected, abs=5e-4), name
        for name, a, expected, tol in [("1A", 0.4999, 0.0004, 5e-5),
                                       ("1B", 0.1537, 0.313857, 2e-3),
                                       ("1C", 0.3999, 0.140049, 2e-3)]:
            assert max_chi_search(models[name], K.THEOREM1, a).chi == pytest.approx(
                expected, abs=tol), name


class TestAnalyticSups:
    @pytest.mark.parametrize("name,kind,expected", [
        ("1A", K.THEOREM1, 0.5), ("1A", K.COROLLARY2, 0.5),
        ("1B", K.THEOREM1, (15.0 - np.sqrt(97.0)) / 32.0),
        ("1B", K.COROLLARY2, 2.0 / 13.0),
        ("1C", K.THEOREM1, 1.0 - 1.0 / np.sqrt(3.0)), ("1C", K.COROLLARY2, 0.4),
        ("1D", K.THEOREM1, 1.0 / 3.0), ("1D", K.COROLLARY2, 1.0 / 3.0)])
    def test_closed_form_is_exact(self, name, kind, expected):
        assert sup_gain(model(name), kind).sup_gain == pytest.approx(expected, abs=1e-12)


def _wick_map(cov, a):
    """T(a) on all m x m matrices, vectorized: I - a(I x S + S x I) + a^2 F."""
    m = len(cov)
    eye, vec = np.eye(m), cov.reshape(-1, 1)
    fourth = 2.0 * np.kron(cov, cov) + vec @ vec.T
    return np.eye(m * m) - a * (np.kron(eye, cov) + np.kron(cov, eye)) + a * a * fourth


def _bisect(feasible, hi):
    lo = 0.0
    while feasible(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            return lo
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)


@st.composite
def covariances(draw):
    """Gaussian covariances Q diag(spectrum) Q^T, m = 1-4, full or low rank."""
    m = draw(st.integers(1, 4))
    spectrum = draw(arrays(float, m, elements=st.floats(0.2, 5.0)))
    spectrum[:draw(st.integers(0, m - 1))] = 0.0
    q, _ = np.linalg.qr(draw(arrays(float, (m, m), elements=st.floats(-1.0, 1.0))))
    return (q * spectrum) @ q.T, bool((spectrum == 0.0).any())


class TestClosedFormAgainstBisection:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(covariances())
    def test_random_gaussian_laws(self, law):
        cov, singular = law
        gauss = gaussian_moment_model(cov)
        scale = float(np.trace(cov))
        free = sup_gain(gauss, K.THEOREM1)
        pinned = sup_gain(gauss, K.COROLLARY2)

        # References: rho(T(a)) <= 1 and lambda_max(a M4 - 2S) <= 0, with M4
        # from Wick's theorem; the round-off allowance admits the frozen unit
        # eigenvalue and the zero pencil eigenvalue of a singular covariance.
        m4 = 2.0 * cov @ cov + scale * cov
        ref_free = _bisect(
            lambda a: np.linalg.eigvalsh(_wick_map(cov, a))[-1] <= 1.0 + 1e-12,
            2.0 / scale)
        ref_pinned = _bisect(
            lambda a: np.linalg.eigvalsh(a * m4 - 2.0 * cov)[-1] <= 1e-12 * scale,
            2.0 / scale)
        assert free.sup_gain == pytest.approx(ref_free, rel=1e-9)
        assert pinned.sup_gain == pytest.approx(ref_pinned, rel=1e-9)
        assert free.sup_gain >= pinned.sup_gain * (1.0 - 1e-12)

        for res in (free, pinned):
            assert res.tolerance_limited == singular
            eps = lmi.RELAXED_TOL_DEFAULT if singular else lmi.EPS_FEAS_DEFAULT
            ok, diag = lmi.check_certificate(gauss, res.certificate, eps)
            assert ok, diag
        chi = max_chi_search(gauss, K.THEOREM1, pinned.sup_gain / 2.0)
        assert lmi.check_certificate(gauss, chi.certificate, lmi.RELAXED_TOL_DEFAULT)[0]
        assert chi.tolerance_limited == singular

        for res, certify in ((free, lmi.solve_feasibility),
                             (pinned, lmi.identity_certificate)):
            assert certify(gauss, res.sup_gain * (1.0 + 1e-6), bounds.TOL_CHI,
                           mode="strict") is None


@st.composite
def spectra(draw):
    """Gaussian covariances V diag(spectrum) V^T, m = 1-7, full or low rank."""
    m = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectrum = np.exp(rng.uniform(np.log(0.1), np.log(10.0), m))
    spectrum[:draw(st.integers(0, m - 1))] = 0.0
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    cov = (v * spectrum) @ v.T
    return (cov + cov.T) / 2.0


def _feuer_weinstein_sup(lam):
    """The root of sum(a lam_i / (1 - a lam_i)) = 2 on (0, 1/lam_max)."""
    return _bisect(
        lambda a: a * lam[-1] < 1.0 and (a * lam / (1.0 - a * lam)).sum() <= 2.0,
        1.0 / lam[-1])


def _diagonal_map_radius(lam, a):
    """lambda_max of M = diag(1 - 2a lam + 2a^2 lam^2) + a^2 lam lam', the
    mean-square map on matrices diagonal in S's eigenbasis: the largest mu
    above max(diag) with a^2 sum(lam_i^2 / (mu - d_i)) = 1."""
    d = 1.0 - 2.0 * a * lam + 2.0 * a * a * lam * lam
    return _bisect(
        lambda mu: mu <= d.max() or a * a * (lam * lam / (mu - d)).sum() >= 1.0,
        d.max() + a * a * (lam * lam).sum())


class TestFeuerWeinsteinOracle:
    """Theorem 1 on Gaussian laws against the classical condition (Feuer &
    Weinstein, IEEE Trans. ASSP 33, 1985), from eigvalsh(S) and bisections
    alone: the sup is the root of sum(a lam_i / (1 - a lam_i)) = 2 over
    the range eigenvalues, and rho(T^) on L^'s range is lambda_max(M).  On
    a singular law the modes that mix S's range and null space add
    1 - a lam_min+ to the spectrum."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(spectra(), st.floats(0.05, 1.5))
    @example(model("1A").law.covariance, 0.9)
    @example(model("1B").law.covariance, 0.9)
    @example(model("1C").law.covariance, 0.9)
    @example(model("1D").law.covariance, 0.9)
    def test_random_gaussian_laws(self, cov, fraction):
        spectrum = np.linalg.eigvalsh(cov)
        lam = spectrum[spectrum > 1e-9 * spectrum[-1]]
        sup = _feuer_weinstein_sup(lam)
        law = gaussian_moment_model(cov)
        assert sup_gain(law, K.THEOREM1).sup_gain == pytest.approx(sup, rel=1e-12)

        a = fraction * sup
        top = _diagonal_map_radius(lam, a)
        if len(lam) < len(cov):
            top = max(top, 1.0 - a * lam[0])
        assert lmi.mean_square_map(law, a).values[-1] == pytest.approx(top, abs=1e-12)


class TestUncertifiedSup:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0),
           st.one_of(st.floats(-1.0, 1.0), st.floats(0.9999999, 1.0)))
    @example(*NEAR_SINGULAR)
    def test_certified_infeasible_or_noted(self, sigma1, sigma2, rho):
        law = gaussian_moment_model(GaussianSpec.from_two_dim(sigma1, sigma2, rho))
        for mode in ("strict", "relaxed"):
            for kind in CERTIFICATE_KINDS:
                res = sup_gain(law, kind, mode)
                certified = res.certificate is not None
                assert certified or res.strictly_infeasible or res.note, (kind, mode)

    def test_note_names_the_slack_test(self):
        res = sup_gain(gaussian_moment_model(GaussianSpec.from_two_dim(*NEAR_SINGULAR)),
                       K.COROLLARY2, mode="strict")
        assert res.certificate is None and not res.strictly_infeasible
        assert res.note == "no certificate passed the strict slack test at sup*(1 - 1e-05)"


class TestProtocolGain:
    def test_rounds_then_subtracts(self):
        assert protocol_gain(0.5) == pytest.approx(0.4999, abs=1e-12)
        assert protocol_gain(0.153846) == pytest.approx(0.1537, abs=1e-12)
        assert protocol_gain(2.0 * 0.5 / 1.5**2) == pytest.approx(0.4443, abs=1e-12)
        assert protocol_gain(0.160971) == pytest.approx(0.1609, abs=1e-12)

    def test_custom_offset(self):
        assert protocol_gain(0.5, xi=1e-2) == pytest.approx(0.49, abs=1e-12)

    def test_zero_gain_rejected(self):
        with pytest.raises(GainTooLarge):
            protocol_gain(1e-5)

    @pytest.mark.parametrize("sup, xi", [
        (0.5, float("nan")), (float("nan"), 1e-4), (float("inf"), 1e-4),
        (0.5, -float("inf"))])
    def test_non_finite_gain_rejected(self, sup, xi):
        with pytest.raises(ValueError, match="gain must be positive and finite"):
            protocol_gain(sup, xi)


class TestMaxChi:
    def test_identity_rate_closed_form(self):
        # chi = -lambda_max(a*M4 - 2*S) at the working gain
        cases = [("1A", 0.4999, 0.0004), ("1B", 0.1537, 0.0076),
                 ("1C", 0.3999, 0.00075)]
        for name, a, expected in cases:
            res = max_chi_search(model(name), K.COROLLARY2, a)
            assert res.chi == pytest.approx(expected, abs=1e-10)
            assert not res.tolerance_limited
            assert np.array_equal(res.p_matrix, np.eye(2))

    def test_identity_rate_degenerate(self):
        res = max_chi_search(model("1D"), K.COROLLARY2, 0.3332)
        assert res.chi == 0.0
        assert res.tolerance_limited
        with pytest.raises(GainTooLarge):
            max_chi_search(model("1D"), K.COROLLARY2, 0.3332, mode="strict")

    def test_identity_rate_beyond_range(self):
        with pytest.raises(GainTooLarge):
            max_chi_search(model("1A"), K.COROLLARY2, 0.6)

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(GainTooLarge):
            max_chi_search(model("1A"), K.THEOREM1, 0.0)

    @pytest.mark.parametrize("kind", [K.THEOREM1, K.COROLLARY2])
    @pytest.mark.parametrize("gain", [float("nan"), float("inf")])
    def test_rejects_non_finite_gain(self, kind, gain):
        with pytest.raises(GainTooLarge, match="gain must be positive and finite"):
            max_chi_search(model("1B"), kind, gain)

    def test_rejects_literature_kinds(self):
        with pytest.raises(ValueError, match="certificate criteria"):
            max_chi_search(model("1A"), K.WIDROW_TRACE, 0.1)

    def test_free_rate_values(self):
        cases = [("1A", 0.4999, 0.0004, 5e-5),
                 ("1B", 0.1537, 0.313857, 2e-3),
                 ("1C", 0.3999, 0.140049, 2e-3)]
        for name, a, expected, tol in cases:
            res = max_chi_search(model(name), K.THEOREM1, a)
            assert res.chi == pytest.approx(expected, abs=tol), name
            assert not res.tolerance_limited
            assert res.certificate is not None

    def test_free_rate_beats_identity_rate(self):
        for name, a in [("1B", 0.1537), ("1C", 0.3999)]:
            free = max_chi_search(model(name), K.THEOREM1, a).chi
            pinned = max_chi_search(model(name), K.COROLLARY2, a).chi
            assert free > pinned

    def test_free_rate_degenerate_is_floor(self):
        res = max_chi_search(model("1D"), K.THEOREM1, 0.3332)
        assert res.chi == pytest.approx(1e-5, abs=1e-6)
        assert res.tolerance_limited

    def test_free_rate_singular_strict(self):
        with pytest.raises(GainTooLarge, match="no strictly feasible rate"):
            max_chi_search(model("1D"), K.THEOREM1, 0.3, mode="strict")

    def test_free_rate_beyond_range(self):
        with pytest.raises(GainTooLarge, match=r"spectral radius 1\.24"):
            max_chi_search(model("1A"), K.THEOREM1, 0.6)

    def test_free_rate_needs_the_law(self):
        with pytest.raises(UnsupportedOperator):
            max_chi_search(model("reed"), K.THEOREM1, 0.1)


def rank_deficient_laws(count, seed):
    """Seeded Gaussian and 400-row empirical laws, m = 2-6, rank 1 to m - 1,
    scaled to tr S = m."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        m = 2 + n % 5
        basis = rng.standard_normal((int(rng.integers(1, m)), m))
        if n % 2:
            rows = rng.standard_normal((400, len(basis))) @ basis
            yield empirical_moment_model(rows * np.sqrt(m / np.trace(rows.T @ rows / 400)))
        else:
            cov = basis.T @ basis
            yield gaussian_moment_model(cov * (m / np.trace(cov)))


class TestFrozenDirections:
    """Singular laws: the mean-square map is the identity on L^'s null space,
    and the relaxed theorem1 certificates carry the rate there as slack."""

    def test_duplicated_column_certifies_at_the_rate_cap(self):
        rows = np.random.default_rng(4).standard_normal((200, 5))
        rows[:, 4] = rows[:, 0]
        law = empirical_moment_model(rows)
        res = max_chi_search(law, K.THEOREM1, 0.2152)
        assert res.chi == pytest.approx(9.99999e-06, rel=1e-12)
        assert res.tolerance_limited
        assert res.certificate.slack == pytest.approx(9.99999e-06, rel=1e-6)
        assert lmi.check_certificate(law, res.certificate, lmi.RELAXED_TOL_DEFAULT)[0]

    def test_singular_gaussian_sup_is_flagged(self):
        a = np.random.default_rng(4).standard_normal((6, 5))
        law = gaussian_moment_model(a @ a.T)
        res = sup_gain(law, K.THEOREM1)
        assert res.tolerance_limited
        # The slack is the rate TOL_CHI on the frozen directions.
        assert res.certificate.slack == pytest.approx(bounds.TOL_CHI, rel=1e-3)
        assert sup_gain(law, K.THEOREM1, mode="strict").strictly_infeasible
        assert sup_gain(law, K.COROLLARY2).tolerance_limited

    def test_relaxed_rate_at_protocol_gain_is_always_flagged(self):
        for n, law in enumerate(rank_deficient_laws(300, seed=0)):
            gain = protocol_gain(sup_gain(law, K.THEOREM1).sup_gain)
            assert max_chi_search(law, K.THEOREM1, gain).tolerance_limited, n


class TestAsymptoticBound:
    def test_identity_certificate_values(self):
        # (a/chi) * sigma^2 * tr(S)
        s = model("1A").second_moment
        assert asymptotic_bound(K.COROLLARY2, 0.4999, 0.0004, None, s, 0.1) \
            == pytest.approx(24.995, rel=1e-9)
        s = model("1B").second_moment
        assert asymptotic_bound(K.COROLLARY2, 0.1537, 0.0076, None, s, 0.1) \
            == pytest.approx(0.1537 * 0.01 * 5.0 / 0.0076, rel=1e-12)

    def test_identity_certificate_zero_rate_is_infinite(self):
        s = model("1D").second_moment
        assert asymptotic_bound(K.COROLLARY2, 0.3332, 0.0, None, s, 0.1) \
            == float("inf")

    def test_zhu_values(self):
        s = model("1A").second_moment
        assert asymptotic_bound(K.ZHU, 0.4999, None, None, s, 0.1) \
            == pytest.approx(0.004999, rel=1e-12)
        s = model("1B").second_moment
        assert asymptotic_bound(K.ZHU, 0.1537, None, None, s, 0.1) \
            == pytest.approx(0.0038425, rel=1e-12)

    def test_zhu_singular_is_infinite(self):
        s = model("1D").second_moment
        assert asymptotic_bound(K.ZHU, 0.3332, None, None, s, 0.1) \
            == float("inf")

    def test_free_certificate_identity_p_matches_identity_route(self):
        # with P = I the free-matrix bound reduces to the identity bound
        s = model("1B").second_moment
        free = asymptotic_bound(K.THEOREM1, 0.1537, 0.0076, np.eye(2), s, 0.1)
        pinned = asymptotic_bound(K.COROLLARY2, 0.1537, 0.0076, None, s, 0.1)
        assert free == pytest.approx(pinned, rel=1e-12)

    def test_free_certificate_requires_arguments(self):
        s = model("1A").second_moment
        with pytest.raises(ValueError, match="chi and P"):
            asymptotic_bound(K.THEOREM1, 0.1, None, None, s, 0.1)
        with pytest.raises(ValueError, match="corollary2"):
            asymptotic_bound(K.COROLLARY2, 0.1, None, None, s, 0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_non_finite_noise_rejected(self, sigma):
        s = model("1A").second_moment
        with pytest.raises(ValueError, match="sigma_eps"):
            asymptotic_bound(K.ZHU, 0.1, None, None, s, sigma)
        with pytest.raises(ValueError, match="sigma_eps"):
            finite_k_bound(0.1, 1.0, np.eye(2), s, sigma, 3.0, 1)

    def test_widrow_kinds_have_no_bound(self):
        s = model("1A").second_moment
        for kind in (K.WIDROW_LAMBDA_MAX, K.WIDROW_TRACE):
            with pytest.raises(ValueError, match="no error bound"):
                asymptotic_bound(kind, 0.1, None, None, s, 0.1)


class TestFiniteKBound:
    def test_hand_value(self):
        # contraction 0.9; inject a*sigma^2*tr(P S) = 0.002
        val = finite_k_bound(0.1, 1.0, np.eye(2), np.eye(2), 0.1, 3.0, 1)
        assert val == pytest.approx(2.7002, abs=1e-12)

    def test_k_zero_is_initial_energy_over_min_eig(self):
        p = np.diag([2.0, 5.0])
        val = finite_k_bound(0.1, 1.0, p, np.eye(2), 0.1, 3.0, 0)
        assert val == pytest.approx(1.5, abs=1e-12)

    def test_limit_matches_asymptotic_identity_bound(self):
        s = model("1B").second_moment
        val = finite_k_bound(0.1537, 0.0076, np.eye(2), s, 0.1, 5.0, 10**7)
        expected = asymptotic_bound(K.COROLLARY2, 0.1537, 0.0076, None, s, 0.1)
        assert val == pytest.approx(expected, rel=1e-4)

    def test_monotone_decreasing_when_start_above_floor(self):
        s = model("1B").second_moment
        vals = [finite_k_bound(0.1537, 0.0076, np.eye(2), s, 0.1, 5.0, k)
                for k in (0, 10, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid_rate(self):
        with pytest.raises(InvalidRate):
            finite_k_bound(0.1, 25.0, np.eye(2), np.eye(2), 0.1, 3.0, 1)
        with pytest.raises(InvalidRate):
            finite_k_bound(0.1, 0.0, np.eye(2), np.eye(2), 0.1, 3.0, 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            finite_k_bound(0.1, 1.0, np.eye(2), np.eye(2), 0.1, 3.0, -1)
        with pytest.raises(ValueError, match="positive definite"):
            finite_k_bound(0.1, 1.0, np.diag([1.0, -1.0]), np.eye(2), 0.1, 3.0, 1)


class TestInitialEnergy:
    def test_random_start_law(self):
        theta = np.array([1.0, 1.0])
        m0 = initial_error_second_moment(theta)
        assert np.allclose(m0, np.eye(2) + np.ones((2, 2)), atol=1e-14)

    def test_fixed_start(self):
        theta = np.array([1.0, 1.0])
        m0 = initial_error_second_moment(theta, init=np.array([0.0, 0.0]))
        assert np.allclose(m0, np.ones((2, 2)), atol=1e-14)

    def test_unknown_law(self):
        with pytest.raises(ValueError, match="unknown init law"):
            initial_error_second_moment(np.array([1.0]), init="uniform")

    def test_initial_v_is_trace_form(self):
        theta = np.array([1.0, 1.0])
        p = np.diag([2.0, 3.0])
        # tr(P (I + theta theta^T)) = (2+3) + (2+3)
        assert initial_v(p, theta) == pytest.approx(10.0, abs=1e-12)
        assert initial_v(p, theta, init=np.zeros(2)) == pytest.approx(
            5.0, abs=1e-12)
