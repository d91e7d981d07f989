"""Unit tests for dataset loading, synthesis, standardization, discretization,
and error injection."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_standardization
from sensorprep.ingest import (
    DiscretizationScheme,
    SensorDataset,
    Standardization,
    StateMatrix,
    discretize,
    discretize_row,
    fit_discretization,
    inject_errors,
    load_csv,
    standardize,
    synth_generate,
    write_csv,
)


def make_dataset(values, ids=None, timestamps=None):
    values = np.asarray(values, dtype=float)
    ids = ids or tuple(f"n{i}" for i in range(values.shape[1]))
    return SensorDataset(values, ids, timestamps)


class TestSensorDataset:
    def test_shape_and_ids(self):
        data = make_dataset([[1, 2], [3, 4], [5, 6]])
        assert data.m == 3 and data.n == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_dataset([[1, np.nan], [3, 4]])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_dataset([[1, 2], [3, 4]], ids=("a", "a"))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="2 samples"):
            make_dataset([[1, 2]])

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_dataset([[1, 2], [3, 4]], timestamps=(5, 5))


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        data = load_csv(path)
        assert data.m == 3 and data.n == 2
        assert data.node_ids == ("a", "b")
        assert data.timestamps is None
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4], [5, 6]])

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,NaN\n5,6\n")
        with pytest.raises(ValueError, match=r"row 2, column 'b'"):
            load_csv(path)

    def test_timestamp_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,a\n0,1\n60,2\n120,3\n")
        data = load_csv(path)
        assert data.timestamps == (0, 60, 120)
        assert data.node_ids == ("a",)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\nx,4\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: could not convert string 'x' to float64")):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path)

    def test_roundtrip_exact(self, tmp_path):
        data = synth_generate(3, 40, 4, "correlated-drift")
        path = tmp_path / "rt.csv"
        write_csv(data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, data.values)
        assert back.node_ids == data.node_ids


class TestStandardize:
    def test_single_column(self):
        xbar, std = standardize(make_dataset([[1], [2], [3]]))
        assert abs(xbar.mean()) < 1e-12
        assert abs(xbar.var(ddof=1) - 1) < 1e-12
        np.testing.assert_allclose(std.means, [2.0])
        np.testing.assert_allclose(std.variances, [1.0])

    def test_constant_column_names_node(self):
        with pytest.raises(ValueError, match="'n1'"):
            standardize(make_dataset([[1, 5], [2, 5], [3, 5]]))

    def test_affine_columns_standardize_identically(self):
        # Both columns are affine images of [0, 1, 2], so their standardized
        # forms coincide elementwise.
        xbar, _ = standardize(make_dataset([[0, 10], [2, 20], [4, 30]]))
        np.testing.assert_allclose(xbar[:, 0], xbar[:, 1], atol=1e-12)

    def test_rowwise_application_matches_matrix_form(self):
        data = synth_generate(11, 60, 5, "correlated-drift")
        xbar, std = standardize(data)
        rowwise = np.array([apply_standardization(r, std) for r in data.values])
        np.testing.assert_array_equal(rowwise, xbar)

    def test_columns_unit_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(3, 200))
            n = int(rng.integers(1, 10))
            data = make_dataset(rng.standard_normal((m, n)) * 5 + 7)
            xbar, _ = standardize(data)
            assert np.abs(xbar.mean(axis=0)).max() < 1e-9
            assert np.abs(xbar.var(axis=0, ddof=1) - 1).max() < 1e-9


class TestApplyStandardization:
    def test_training_means_map_to_origin(self):
        std = Standardization(np.array([3.0, -1.0]), np.array([2.0, 5.0]))
        np.testing.assert_array_equal(apply_standardization(std.means, std), [0.0, 0.0])

    def test_single_value(self):
        std = Standardization(np.array([0.0]), np.array([4.0]))
        np.testing.assert_allclose(apply_standardization(np.array([2.0]), std), [1.0])

    def test_two_nodes(self):
        std = Standardization(np.array([1.0, 1.0]), np.array([1.0, 4.0]))
        np.testing.assert_allclose(apply_standardization(np.array([3.0, 5.0]), std), [2.0, 2.0])

    def test_length_mismatch(self):
        std = Standardization(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="shape"):
            apply_standardization(np.array([1.0, 2.0]), std)


class TestDiscretization:
    def test_equal_width_edges(self):
        scheme = fit_discretization(make_dataset([[0], [1], [2], [3]]), 3)
        np.testing.assert_allclose(scheme.edges[0], [1.0, 2.0])

    def test_two_bins(self):
        scheme = fit_discretization(make_dataset([[0], [1]]), 2)
        np.testing.assert_allclose(scheme.edges[0], [0.5])

    def test_hand_worked_column(self):
        data = make_dataset([[0], [1], [2], [9]])
        scheme = fit_discretization(data, 3)
        np.testing.assert_allclose(scheme.edges[0], [3.0, 6.0])
        states = discretize(data, scheme)
        np.testing.assert_array_equal(states.states[:, 0], [1, 1, 1, 3])

    def test_boundary_goes_to_higher_bin(self):
        scheme = DiscretizationScheme((np.array([1.0, 2.0]),), 3)
        assert discretize_row(np.array([1.0]), scheme)[0] == 2
        assert discretize_row(np.array([2.0]), scheme)[0] == 3

    def test_out_of_range_clamps(self):
        scheme = DiscretizationScheme((np.array([1.0, 2.0]),), 3)
        assert discretize_row(np.array([-100.0]), scheme)[0] == 1
        assert discretize_row(np.array([100.0]), scheme)[0] == 3

    def test_rediscretize_identical(self):
        data = synth_generate(5, 80, 4, "copy-child")
        scheme = fit_discretization(data, 3)
        first = discretize(data, scheme)
        second = discretize(data, scheme)
        np.testing.assert_array_equal(first.states, second.states)

    def test_degenerate_column(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_discretization(make_dataset([[1, 0], [1, 1]]), 3)

    def test_k_too_small(self):
        with pytest.raises(ValueError, match=">= 2"):
            fit_discretization(make_dataset([[0], [1]]), 1)

    def test_node_count_mismatch(self):
        scheme = DiscretizationScheme((np.array([0.5]),), 2)
        with pytest.raises(ValueError, match="nodes"):
            discretize(make_dataset([[0, 1], [1, 0]]), scheme)

    @pytest.mark.parametrize("k", [1, 0])
    def test_state_matrix_needs_two_states(self, k):
        with pytest.raises(ValueError, match=f"state_count must be >= 2, got {k}"):
            StateMatrix(np.ones((3, 2), dtype=np.int64), k)

    @pytest.mark.parametrize(
        ("edges", "k", "message"),
        [
            (np.zeros((2, 0)), 1, "state_count must be >= 2, got 1"),
            (np.zeros((2, 0)), 0, "state_count must be >= 2, got 0"),
            ([[0.5, 1.0], [0.5, 1.0]], 2, r"expected an n x 1 edge matrix, got shape \(2, 2\)"),
            ([0.5, 1.0], 3, r"expected an n x 2 edge matrix, got shape \(2,\)"),
            ([[0.5], [np.nan]], 2, "node 1: edges must be finite and strictly increasing"),
            ([[0.5, 1.0], [np.nan, 1.0]], 3, "node 1: edges must be finite and strictly increasing"),
            ([[0.5, 1.0], [1.0, 1.0]], 3, "node 1: edges must be finite and strictly increasing"),
        ],
        ids=["k1", "k0", "wide", "flat", "nan-k2", "nan-k3", "tie"],
    )
    def test_scheme_rejects(self, edges, k, message):
        with pytest.raises(ValueError, match=message):
            DiscretizationScheme(edges, k)

    def test_scheme_holds_the_fitted_edge_matrix(self):
        scheme = fit_discretization(make_dataset([[0, 0], [3, 9]]), 3)
        assert scheme.edges.tolist() == [[1.0, 2.0], [3.0, 6.0]] and scheme.n == 2


class TestInjectErrors:
    def test_zero_pct_is_identity(self):
        data = make_dataset([[1, 2], [3, 4], [5, 6]])
        out = inject_errors(data, [1], 0.0, np.array([10.0, 20.0]))
        np.testing.assert_array_equal(out.values, data.values)

    def test_hand_value(self):
        data = make_dataset([[7.0], [7.0]])
        out = inject_errors(data, [0], 0.10, np.array([10.0]))
        assert out.values[0, 0] == 8.0
        assert out.values[1, 0] == 7.0

    def test_empty_rows_rejected(self):
        data = make_dataset([[1], [2]])
        with pytest.raises(ValueError, match="no rows"):
            inject_errors(data, [], 0.1, np.array([1.0]))

    def test_out_of_range_rejected(self):
        data = make_dataset([[1], [2]])
        with pytest.raises(ValueError, match="out of range"):
            inject_errors(data, [2], 0.1, np.array([1.0]))

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.sets(st.integers(min_value=0, max_value=9), min_size=1),
        pct=st.floats(min_value=0.01, max_value=0.5),
    )
    def test_changes_exactly_selected_cells(self, rows, pct):
        rng = np.random.default_rng(42)
        data = make_dataset(rng.uniform(1, 5, size=(10, 3)))
        means = rng.uniform(1, 5, size=3)
        out = inject_errors(data, rows, pct, means)
        delta = out.values - data.values
        changed = np.nonzero(np.abs(delta) > 0)[0]
        assert set(changed) == set(rows)
        for r in rows:
            np.testing.assert_allclose(delta[r], means * pct, rtol=1e-12)
        untouched = [r for r in range(10) if r not in rows]
        assert np.all(delta[untouched] == 0.0)


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(9, 50, 4, "correlated-drift")
        b = synth_generate(9, 50, 4, "correlated-drift")
        np.testing.assert_array_equal(a.values, b.values)

    def test_exact_copy_child(self):
        data = synth_generate(2, 100, 3, "copy-child", copies={1: 0}, flip=0.0, child_noise=0.0)
        np.testing.assert_array_equal(data.values[:, 1], data.values[:, 0])

    def test_lagged_copy_is_exact_shift(self):
        data = synth_generate(2, 100, 3, "lagged-copy", copies={1: 0})
        np.testing.assert_array_equal(data.values[1:, 1], data.values[:-1, 0])

    def test_correlated_drift_low_rank(self):
        # With two latent signals the top-2 correlation eigenvalues carry
        # at least 85% of total variance; numpy's eigensolver is the oracle.
        data = synth_generate(1, 500, 15, "correlated-drift", latents=2)
        corr = np.corrcoef(data.values, rowvar=False)
        lam = np.sort(np.linalg.eigvalsh(corr))[::-1]
        assert lam[:2].sum() / lam.sum() >= 0.85

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            synth_generate(1, 10, 2, "nope")
