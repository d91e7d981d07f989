"""PCA, the two principal statistics, and their control limits."""

import math

import numpy as np
import pytest

from oracles import assert_pca_equivalent, oracle_f_upper, oracle_normal_upper
from oracles import jacobi_eigh as oracle_jacobi_eigh
from sensorprep import spectra
from sensorprep.anomaly import tq_screen
from sensorprep.ingest import SensorDataset, Standardization, standardize, synth_generate
from sensorprep.spectra import (
    PcaModel,
    fit_pca,
    fit_pca_model,
    jacobi_eigh,
    model_from_dict,
    model_to_dict,
    q_statistic,
    q_threshold,
    select_k,
    t2_statistic,
    t2_threshold,
)

# Hand evaluation of the printed threshold formula for discarded spectrum
# [1, 1] at alpha = 0.05: theta = (2, 2, 2), h0 = 1 - 8/12 = 1/3,
# bracket = C/3 - 1/9 + 1, Q = 2 * bracket**3, frozen with the quadrature
# oracle's critical value.
Q_LIMIT_TWO_UNIT_EIGENVALUES = 5.93686994573095


def random_correlation(rng, n, m_extra=30):
    x = rng.standard_normal((n + m_extra, n))
    return np.corrcoef(x, rowvar=False)


def identity_model(n, k, eigenvalues=None, q_limit=1.0, t2_limit=1.0, alpha=0.05):
    """Model with axis-aligned components for hand-worked statistic checks."""
    lam = np.asarray(eigenvalues, dtype=float) if eigenvalues is not None else np.ones(n)
    std = Standardization(np.zeros(n), np.ones(n))
    return PcaModel(std, lam, np.eye(n), k, q_limit, t2_limit, alpha)


def standardized_model(lam, vec, k, m, alpha=0.05):
    """Model over already standardized rows, with both analytic limits for m training rows."""
    n = lam.shape[0]
    q_lim = math.inf if k == n else q_threshold(lam, k, alpha)
    return PcaModel(Standardization(np.zeros(n), np.ones(n)), lam, vec, k, q_lim, t2_threshold(k, m, alpha), alpha)


class TestJacobi:
    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 21))
            c = random_correlation(rng, n)
            lam, vec = jacobi_eigh(c)
            ref = np.linalg.eigvalsh(c)[::-1]
            np.testing.assert_allclose(lam, ref, atol=1e-10)
            assert np.abs(c @ vec - vec * lam).max() < 1e-8
            assert abs(lam.sum() - np.trace(c)) < 1e-9

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(3)
        c = random_correlation(rng, 12)
        _, vec = jacobi_eigh(c)
        assert np.abs(vec.T @ vec - np.eye(12)).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            jacobi_eigh(np.ones((2, 3)))

    def test_repeated_eigenvalues(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 3))
        identical_columns = np.corrcoef(x[:, [0, 0, 1, 1, 1, 2]], rowvar=False)
        for c in (np.eye(6), identical_columns):
            lam, vec = jacobi_eigh(c)
            assert np.abs(vec.T @ vec - np.eye(6)).max() < 1e-10
            assert (np.diff(lam) <= 0.0).all()
            assert abs(lam.sum() - np.trace(c)) < 1e-9
            assert np.abs(c @ vec - vec * lam).max() < 1e-8

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = random_correlation(rng, int(rng.integers(2, 21)))
            lam, vec = jacobi_eigh(c)
            peaks = vec[np.argmax(np.abs(vec), axis=0), np.arange(vec.shape[1])]
            assert (peaks > 0.0).all()
            again_lam, again_vec = jacobi_eigh(c.copy())
            assert (lam.tobytes(), vec.tobytes()) == (again_lam.tobytes(), again_vec.tobytes())


class TestAgainstJacobiOracle:
    """The solver in use against cyclic Jacobi rotations, under the float-output policy."""

    def test_random_correlation_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 21))
            c = random_correlation(rng, n)
            lam, vec = jacobi_eigh(c)
            ref_lam, ref_vec = oracle_jacobi_eigh(c)
            k = int(np.argmax(ref_lam[:-1] - ref_lam[1:])) + 1  # widest spectral gap
            rows = rng.standard_normal((200, n)) * 2.0
            assert_pca_equivalent(
                standardized_model(lam, vec, k, n + 30), standardized_model(ref_lam, ref_vec, k, n + 30), rows
            )

    def test_one_latent_drift_spectrum(self, monkeypatch):
        # One latent over 40 channels leaves 39 near-equal noise
        # eigenvalues, whose basis each solver picks differently.
        data = synth_generate(7, 1500, 40, "correlated-drift", latents=1)
        train = SensorDataset(data.values[:1000], data.node_ids)
        rows = data.values[1000:].copy()
        rows[::10] += 0.10 * train.values.mean(axis=0)
        model = fit_pca_model(train, 0.85, 0.05)
        monkeypatch.setattr(spectra, "jacobi_eigh", oracle_jacobi_eigh)
        reference = fit_pca_model(train, 0.85, 0.05)
        assert model.eigenvalues[model.k - 1] > 10.0 * model.eigenvalues[model.k]
        assert 0 < sum(tq_screen(row, model)[2] for row in rows) < len(rows)
        assert_pca_equivalent(model, reference, rows)


class TestFitPca:
    def test_identical_columns_give_eigenvalues_two_and_zero(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(50)
        data = SensorDataset(np.column_stack([col, col]), ("a", "b"))
        xbar, _ = standardize(data)
        lam, _ = fit_pca(xbar)
        np.testing.assert_allclose(lam, [2.0, 0.0], atol=1e-9)

    def test_independent_columns_near_identity_spectrum(self):
        rng = np.random.default_rng(6)
        data = SensorDataset(rng.standard_normal((5000, 4)), tuple("abcd"))
        xbar, _ = standardize(data)
        lam, _ = fit_pca(xbar)
        np.testing.assert_allclose(lam, np.ones(4), atol=0.15)

    def test_trace_identity_small_matrix(self):
        rng = np.random.default_rng(8)
        data = SensorDataset(rng.standard_normal((5, 3)), tuple("abc"))
        xbar, _ = standardize(data)
        lam, _ = fit_pca(xbar)
        corr = xbar.T @ xbar / 4
        assert abs(lam.sum() - np.trace(corr)) < 1e-9

    def test_requires_more_samples_than_nodes(self):
        with pytest.raises(ValueError, match="more samples"):
            fit_pca(np.zeros((3, 3)))

    def test_eigen_residual_invariant(self):
        rng = np.random.default_rng(9)
        data = SensorDataset(rng.standard_normal((120, 10)) + 3, tuple("abcdefghij"))
        xbar, _ = standardize(data)
        lam, vec = fit_pca(xbar)
        corr = xbar.T @ xbar / 119
        assert np.abs(corr @ vec - vec * lam).max() < 1e-8


class TestSelectK:
    def test_single_dominant(self):
        assert select_k(np.array([3.0, 0.0, 0.0]), 0.85) == 1

    def test_exact_boundary(self):
        assert select_k(np.array([1.0, 1.0, 1.0, 1.0]), 0.75) == 3

    def test_hand_worked(self):
        # cumulative fractions 0.8333, 0.9667
        assert select_k(np.array([2.5, 0.4, 0.1]), 0.85) == 2

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            select_k(np.zeros(3), 0.85)


class TestQStatistic:
    def test_full_rank_projector_zeroes_q(self):
        rng = np.random.default_rng(10)
        c = random_correlation(rng, 6)
        lam, vec = jacobi_eigh(c)
        model = PcaModel(Standardization(np.zeros(6), np.ones(6)), lam, vec, 6, 1.0, 1.0, 0.05)
        for _ in range(100):
            x = rng.standard_normal(6) * 3
            assert q_statistic(x, model) < 1e-12

    def test_in_span_gives_zero(self):
        model = identity_model(3, k=2)
        assert q_statistic(np.array([5.0, -2.0, 0.0]), model) < 1e-25

    def test_hand_worked_residual(self):
        model = identity_model(2, k=1)
        assert q_statistic(np.array([3.0, 4.0]), model) == pytest.approx(16.0, abs=1e-12)

    def test_matches_reconstruction_sum(self):
        # Direct per-node squared reconstruction error is the oracle.
        rng = np.random.default_rng(11)
        c = random_correlation(rng, 5)
        lam, vec = jacobi_eigh(c)
        model = PcaModel(Standardization(np.zeros(5), np.ones(5)), lam, vec, 2, 1.0, 1.0, 0.05)
        x = rng.standard_normal(5)
        scores = vec[:, :2].T @ x
        recon = vec[:, :2] @ scores
        assert q_statistic(x, model) == pytest.approx(np.sum((x - recon) ** 2), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        c = random_correlation(rng, 4)
        lam, vec = jacobi_eigh(c)
        model = PcaModel(Standardization(np.zeros(4), np.ones(4)), lam, vec, 2, 1.0, 1.0, 0.05)
        assert all(q_statistic(rng.standard_normal(4), model) >= 0 for _ in range(50))


class TestQThreshold:
    def test_frozen_hand_computation(self):
        assert q_threshold(np.array([5.0, 1.0, 1.0]), 1, 0.05) == pytest.approx(
            Q_LIMIT_TWO_UNIT_EIGENVALUES, abs=1e-9
        )

    def test_uses_oracle_critical_value(self):
        lam = np.array([4.0, 0.5, 0.3, 0.2])
        k = 1
        tail = lam[k:]
        t1, t2_, t3 = tail.sum(), (tail**2).sum(), (tail**3).sum()
        h0 = 1 - 2 * t1 * t3 / (3 * t2_**2)
        c = oracle_normal_upper(0.05)
        expected = t1 * abs(c * math.sqrt(2 * t2_ * h0 * h0) / t1 + t2_ * h0 * (h0 - 1) / t1**2 + 1) ** (1 / h0)
        assert q_threshold(lam, k, 0.05) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(13)
        lam = np.sort(rng.exponential(1.0, size=8))[::-1]
        k = select_k(lam, 0.85)
        vals = [q_threshold(lam, k, a) for a in (0.01, 0.05, 0.10)]
        assert vals[0] > vals[1] > vals[2]

    def test_negative_h0_limit_lies_in_upper_tail(self):
        # One dominant discarded eigenvalue over many small ones gives h0 < 0.
        lam = np.array([10.0, 1.0] + [0.02] * 50)
        tail = lam[1:]
        t1, t2_, t3 = tail.sum(), (tail**2).sum(), (tail**3).sum()
        assert 1 - 2 * t1 * t3 / (3 * t2_**2) < 0
        vals = [q_threshold(lam, 1, a) for a in (0.01, 0.05, 0.10)]
        assert vals[0] > vals[1] > vals[2] > t1  # t1 is the mean of Q
        # Q of a Gaussian row is sum(tail * z^2): the limit cuts off about alpha of it.
        q = (np.random.default_rng(3).standard_normal((100_000, tail.size)) ** 2) @ tail
        assert 0.025 < (q > vals[1]).mean() < 0.1

    @staticmethod
    def exceedance(seed, noise, alpha=0.05, n=20, rows=400_000):
        """Share of rows whose Q exceeds the limit set from a known 3-factor correlation spectrum.

        A Gaussian row with that correlation has Q = sum(tail * z^2) over the discarded
        eigenvalues, so Q is drawn directly, with no fit.
        """
        rng = np.random.default_rng(seed)
        loadings = rng.standard_normal((3, n))
        cov = loadings.T @ loadings + noise**2 * np.eye(n)
        scale = 1.0 / np.sqrt(np.diag(cov))
        lam = np.linalg.eigvalsh(cov * np.outer(scale, scale))[::-1]
        k = select_k(lam, 0.85)
        limit, tail = q_threshold(lam, k, alpha), lam[k:]
        draws = (rng.standard_normal((50_000, n - k)) ** 2 @ tail for _ in range(rows // 50_000))
        hits = sum(int((q > limit).sum()) for q in draws)
        return hits / rows, 4 * math.sqrt(alpha * (1 - alpha) / rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_exceedance_rate_on_a_known_spectrum(self, seed):
        # Node noise sd 1.0 leaves a discarded spectrum with h0 of about 0.27.
        rate, tolerance = self.exceedance(seed, noise=1.0)
        assert abs(rate - 0.05) < tolerance, rate

    @pytest.mark.xfail(strict=True, reason="the Jackson-Mudholkar limit under-flags when h0 is near 0 (ROADMAP item 4)")
    @pytest.mark.parametrize("seed", range(3))
    def test_exceedance_rate_when_h0_is_near_zero(self, seed):
        # Node noise sd 0.3, as in TestCalibration and the benchmark's data, gives h0 within 0.05
        # of 0; there the limit sits about 3% above the true quantile and flags about 0.043.
        rate, tolerance = self.exceedance(seed, noise=0.3)
        assert abs(rate - 0.05) < tolerance, rate

    def test_zero_tail_disables_test(self):
        assert q_threshold(np.array([2.0, 0.0]), 1, 0.05) == math.inf

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ValueError):
            q_threshold(np.array([1.0, 1.0]), 2, 0.05)


class TestT2Statistic:
    def test_origin_is_zero(self):
        model = identity_model(3, k=2, eigenvalues=[2.0, 1.0, 0.5])
        assert t2_statistic(np.zeros(3), model) == 0.0

    def test_orthogonal_to_span_is_zero(self):
        model = identity_model(3, k=1, eigenvalues=[2.0, 1.0, 0.5])
        assert t2_statistic(np.array([0.0, 3.0, -4.0]), model) == 0.0

    def test_hand_worked_score(self):
        model = identity_model(2, k=1, eigenvalues=[4.0, 0.5])
        assert t2_statistic(np.array([2.0, 9.0]), model) == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(14)
        c = random_correlation(rng, 5)
        lam, vec = jacobi_eigh(c)
        model = PcaModel(Standardization(np.zeros(5), np.ones(5)), lam, vec, 3, 1.0, 1.0, 0.05)
        x = rng.standard_normal(5)
        pk = vec[:, :3]
        expected = x @ pk @ np.diag(1 / lam[:3]) @ pk.T @ x
        assert t2_statistic(x, model) == pytest.approx(expected, abs=1e-12)

    def test_full_rank_is_mahalanobis(self):
        rng = np.random.default_rng(15)
        c = random_correlation(rng, 4)
        lam, vec = jacobi_eigh(c)
        model = PcaModel(Standardization(np.zeros(4), np.ones(4)), lam, vec, 4, 1.0, 1.0, 0.05)
        x = rng.standard_normal(4)
        scores = vec.T @ x
        assert t2_statistic(x, model) == pytest.approx(np.sum(scores**2 / lam), abs=1e-12)

    def test_rejects_zero_eigenvalue(self):
        model = identity_model(2, k=2, eigenvalues=[1.0, 0.0])
        with pytest.raises(ValueError, match="strictly positive"):
            t2_statistic(np.array([1.0, 1.0]), model)


class TestT2Threshold:
    def test_definitional_decomposition(self):
        from sensorprep.quantiles import f_quantile

        assert t2_threshold(3, 50, 0.05) == pytest.approx(
            3 * 49 / 47 * f_quantile(3, 49, 0.05), rel=1e-12
        )

    def test_f_reference_values(self):
        assert t2_threshold(1, 101, 0.05) == pytest.approx(oracle_f_upper(1, 100, 0.05), rel=1e-6)
        assert oracle_f_upper(2, 10, 0.05) == pytest.approx(4.10282, abs=1e-3)

    def test_monotone_in_alpha(self):
        vals = [t2_threshold(4, 120, a) for a in (0.01, 0.05, 0.10)]
        assert vals[0] > vals[1] > vals[2]

    def test_rejects_m_not_greater_than_k(self):
        with pytest.raises(ValueError):
            t2_threshold(5, 5, 0.05)


class TestPcaModel:
    def test_projector_idempotent(self):
        rng = np.random.default_rng(16)
        c = random_correlation(rng, 7)
        lam, vec = jacobi_eigh(c)
        pk = vec[:, :3]
        proj = pk @ pk.T
        assert np.abs(proj @ proj - proj).max() < 1e-10

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PcaModel(
                Standardization(np.zeros(2), np.ones(2)),
                np.array([1.0, 1.0]),
                np.array([[1.0, 0.1], [0.0, 1.0]]),
                1,
                1.0,
                1.0,
                0.05,
            )

    def test_rejects_unsorted_eigenvalues(self):
        with pytest.raises(ValueError, match="descending"):
            PcaModel(
                Standardization(np.zeros(2), np.ones(2)),
                np.array([1.0, 2.0]),
                np.eye(2),
                1,
                1.0,
                1.0,
                0.05,
            )

    def test_clamps_tiny_negative_eigenvalue(self):
        model = identity_model(2, k=1, eigenvalues=[1.0, -5e-10])
        assert model.eigenvalues[1] == 0.0

    def test_serialization_roundtrip_exact(self):
        rng = np.random.default_rng(17)
        data = SensorDataset(rng.standard_normal((80, 5)) * 2 + 30, tuple("abcde"))
        model = fit_pca_model(data, 0.85, 0.05)
        back = model_from_dict(model_to_dict(model))
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
        np.testing.assert_array_equal(back.eigenvectors, model.eigenvectors)
        np.testing.assert_array_equal(back.standardization.means, model.standardization.means)
        assert (back.k, back.q_limit, back.t2_limit, back.alpha) == (
            model.k,
            model.q_limit,
            model.t2_limit,
            model.alpha,
        )


class TestFitPcaModel:
    def test_whole_pipeline_limits_positive(self):
        rng = np.random.default_rng(18)
        data = SensorDataset(rng.standard_normal((100, 6)) + 10, tuple("abcdef"))
        model = fit_pca_model(data, 0.85, 0.05)
        assert 1 <= model.k <= 6
        assert model.q_limit > 0 and model.t2_limit > 0
