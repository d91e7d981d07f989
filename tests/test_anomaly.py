"""Two-stage detection: screening, state prediction, and localization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_standardization,
    brute_nb_posterior,
    random_transition_network,
    scalar_tqbayes_detect,
    trivial_scheme,
)
from sensorprep.anomaly import (
    nb_predict_state,
    report_from_dict,
    report_to_dict,
    tq_screen,
    tqbayes_detect,
    write_report_csv,
)
from sensorprep.bayesnet import Cpt, Dag, TransitionNetwork, learn_transition
from sensorprep.ingest import SensorDataset, Standardization, discretize, fit_discretization, synth_generate
from sensorprep.spectra import PcaModel, fit_pca_model, q_statistic, t2_statistic


def single_parent_tn(counts, prior=None):
    """Two-node network where node 1 has transition parent node 0."""
    counts = np.asarray(counts)
    k = counts.shape[1]
    cpts = (Cpt(0, (), np.full((1, k), 10)), Cpt(1, (0,), counts))
    priors = np.full((2, k), 1.0 / k) if prior is None else np.array([np.full(k, 1.0 / k), prior])
    return TransitionNetwork(Dag(2, ((), (0,))), cpts, priors)


def t2_model(n, t2_limit):
    """Identity PCA model keeping all n components: Q is 0 and T2 is the squared norm."""
    return PcaModel(Standardization(np.zeros(n), np.ones(n)), np.ones(n), np.eye(n), n, np.inf, t2_limit, 0.05)


def assert_reports_equal(ours, theirs):
    assert (ours.q_limit, ours.t2_limit) == (theirs.q_limit, theirs.t2_limit)
    for table in ("rows", "verdicts"):
        a, b = getattr(ours, table), getattr(theirs, table)
        assert a.dtype == b.dtype and a.shape == b.shape, table
        for name in a.dtype.names:
            assert np.array_equal(a[name], b[name]), (table, name)


class TestTqScreen:
    def test_training_mean_row_not_flagged(self):
        data = synth_generate(1, 200, 5, "correlated-drift")
        model = fit_pca_model(data, 0.85, 0.05)
        q, t2, flagged = tq_screen(data.values.mean(axis=0), model)
        assert q == 0.0 and t2 == 0.0 and not flagged

    def test_clean_false_flag_rate(self):
        # 1000 clean rows from the training process stay under the test
        # level plus a three-sigma binomial margin.
        data = synth_generate(2, 1400, 10, "correlated-drift")
        train = SensorDataset(data.values[:400], data.node_ids)
        model = fit_pca_model(train, 0.85, 0.05)
        flags = sum(tq_screen(row, model)[2] for row in data.values[400:])
        bound = 0.05 + 3 * np.sqrt(0.05 * 0.95 / 1000)
        assert flags / 1000 < bound

    def test_ten_percent_injection_all_flagged(self):
        data = synth_generate(3, 600, 15, "correlated-drift")
        train = SensorDataset(data.values[:400], data.node_ids)
        model = fit_pca_model(train, 0.85, 0.05)
        means = train.values.mean(axis=0)
        for row in data.values[400:450]:
            assert tq_screen(row + means * 0.10, model)[2]

    def test_dimension_mismatch(self):
        data = synth_generate(1, 100, 4, "correlated-drift")
        model = fit_pca_model(data)
        with pytest.raises(ValueError, match="shape"):
            tq_screen(np.zeros(3), model)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        extra=st.integers(1, 40),
        ratio=st.floats(0.05, 1.0),
        alpha=st.floats(0.001, 0.5),
        shift=st.floats(0.0, 5.0),
    )
    def test_equals_the_reference_statistics(self, seed, n, extra, ratio, alpha, shift):
        # Bit-for-bit equality with q_statistic and t2_statistic of the standardized row.
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 10.0, n)
        mix = rng.standard_normal((n, n))
        train = rng.uniform(-50, 50, n) + (rng.standard_normal((n + extra, n)) @ mix) * scale
        model = fit_pca_model(SensorDataset(train, [f"n{j}" for j in range(n)]), ratio, alpha)
        rows = train[: min(len(train), 5)] + shift * scale * rng.standard_normal((min(len(train), 5), n))
        for row in [*rows, model.standardization.means, rows[0].tolist()]:
            xbar = apply_standardization(row, model.standardization)
            q, t2 = q_statistic(xbar, model), t2_statistic(xbar, model)
            assert tq_screen(row, model) == (q, t2, q > model.q_limit or t2 > model.t2_limit)

    def test_nonpositive_retained_eigenvalue_raises_on_every_call(self):
        model = PcaModel(Standardization(np.zeros(2), np.ones(2)), [1.0, 0.0], np.eye(2), 2, np.inf, 1.0, 0.05)
        for _ in range(2):
            with pytest.raises(ValueError, match="all retained eigenvalues must be strictly positive"):
                tq_screen(np.ones(2), model)

    @pytest.mark.parametrize("row", [np.zeros(3), np.zeros(5), np.zeros((1, 4)), 1.0])
    def test_wrong_shape_message_is_apply_standardization_s(self, row):
        model = fit_pca_model(synth_generate(1, 100, 4, "correlated-drift"))
        with pytest.raises(ValueError) as reference:
            apply_standardization(row, model.standardization)
        with pytest.raises(ValueError) as got:
            tq_screen(row, model)
        assert str(got.value) == str(reference.value)


class TestCalibration:
    """Each chart flags about alpha of clean i.i.d. rows; their OR flags about 1-(1-alpha)^2."""

    ALPHA = 0.05
    TEST_ROWS = 4000

    @staticmethod
    def tolerance(p, rows):
        return 4 * np.sqrt(p * (1 - p) / rows)

    # Seeds 2 and 7 give a discarded spectrum with h0 < 0 (see q_threshold).
    @pytest.mark.parametrize("seed", range(8))
    def test_flag_rates_on_iid_three_factor_data(self, seed):
        n, factors = 20, 3
        rng = np.random.default_rng(seed)
        loadings = rng.standard_normal((factors, n))

        def draw(rows):
            return 10.0 + rng.standard_normal((rows, factors)) @ loadings + 0.3 * rng.standard_normal((rows, n))

        model = fit_pca_model(SensorDataset(draw(2000), [f"n{j}" for j in range(n)]), 0.85, self.ALPHA)
        screens = np.array([tq_screen(row, model) for row in draw(self.TEST_ROWS)])
        q_flags = screens[:, 0] > model.q_limit
        t2_flags = screens[:, 1] > model.t2_limit
        single = self.tolerance(self.ALPHA, self.TEST_ROWS)
        assert abs(q_flags.mean() - self.ALPHA) < single
        assert abs(t2_flags.mean() - self.ALPHA) < single
        combined = 1 - (1 - self.ALPHA) ** 2
        either = (q_flags | t2_flags).mean()
        assert abs(either - combined) < self.tolerance(combined, self.TEST_ROWS)
        assert either - self.ALPHA > single
        np.testing.assert_array_equal(screens[:, 2].astype(bool), q_flags | t2_flags)


class TestNbPredictState:
    def test_identity_cpt_copies_parent_state(self):
        tn = single_parent_tn(np.array([[20, 0], [0, 20]]))
        # node 1's parent is node 0, which was in state 2 at t-1
        predicted, posterior = nb_predict_state(1, np.array([2, 1]), tn)
        assert predicted == 2
        np.testing.assert_allclose(posterior, [0.0, 1.0])

    def test_uniform_everything_ties_to_state_one(self):
        tn = single_parent_tn(np.array([[10, 10], [10, 10]]))
        predicted, posterior = nb_predict_state(1, np.array([2, 1]), tn)
        assert predicted == 1
        np.testing.assert_allclose(posterior, [0.5, 0.5])

    def test_two_parent_hand_computation(self):
        # Factors [0.9, 0.1] and [0.8, 0.2] with prior [0.5, 0.5] give
        # unnormalized scores 0.36 and 0.01.
        counts = np.array([[8, 1], [1, 0], [0, 1], [5, 5]])
        k = 2
        cpts = (
            Cpt(0, (), np.array([[5, 5]])),
            Cpt(1, (), np.array([[5, 5]])),
            Cpt(2, (0, 1), counts),
        )
        tn = TransitionNetwork(Dag(3, ((), (), (0, 1))), cpts, np.full((3, k), 0.5))
        predicted, posterior = nb_predict_state(2, np.array([1, 1, 1]), tn)
        assert predicted == 1
        np.testing.assert_allclose(posterior, [36 / 37, 1 / 37], atol=1e-12)

    def test_parentless_falls_back_to_prior(self):
        tn = single_parent_tn(np.array([[1, 1], [1, 1]]), prior=np.array([0.5, 0.5]))
        predicted, posterior = nb_predict_state(0, np.array([2, 2]), tn)
        assert predicted == 1
        np.testing.assert_allclose(posterior, [0.5, 0.5])

    def test_matches_bruteforce_on_random_networks(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            tn = random_transition_network(rng)
            k = tn.cpts[0].state_count
            prev = rng.integers(1, k + 1, size=tn.dag.n)
            for node in range(tn.dag.n):
                _, posterior = nb_predict_state(node, prev, tn)
                np.testing.assert_allclose(posterior, brute_nb_posterior(node, prev, tn), atol=1e-12)
                assert posterior.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def fitted():
    data = synth_generate(1, 600, 6, "copy-child", copies={1: 0})
    train = SensorDataset(data.values[:400], data.node_ids)
    test = SensorDataset(data.values[400:], data.node_ids)
    model = fit_pca_model(train, 0.85, 0.05)
    scheme = fit_discretization(train, 3)
    tn = learn_transition(discretize(train, scheme), 3)
    return train, test, model, scheme, tn


class TestTqBayesDetect:
    def test_no_flags_no_verdicts(self, fitted):
        train, test, model, scheme, tn = fitted
        quiet = SensorDataset(np.tile(train.values.mean(axis=0), (5, 1)), test.node_ids)
        report = tqbayes_detect(quiet, model, tn, scheme, train.values[-1])
        assert report.flagged_rows() == []
        assert len(report.verdicts) == 0

    def test_single_corrupted_node_localized(self, fitted):
        train, test, model, scheme, tn = fitted
        child = 1
        sd = train.values[:, child].std(ddof=1)
        clean_states = discretize(test, scheme).states
        row = next(
            r for r in range(2, test.m)
            if clean_states[r, child] == 1 and clean_states[r - 1, 0] == 1 and clean_states[r - 1, child] == 1
        )
        vals = test.values.copy()
        vals[row, child] += 3.0 * sd
        report = tqbayes_detect(SensorDataset(vals, test.node_ids), model, tn, scheme, train.values[-1])
        assert row in report.flagged_rows()
        marked = {v.node for v in report.verdicts if v.row == row and v.abnormal}
        assert child in marked
        # Only nodes whose observed state moved can be accused.
        corrupted_states = discretize(SensorDataset(vals, test.node_ids), scheme).states
        moved = {j for j in range(test.n) if corrupted_states[row, j] != clean_states[row, j]}
        assert marked <= moved | {0, 1}

    def test_stage_two_only_on_flagged_rows(self, fitted):
        train, test, model, scheme, tn = fitted
        report = tqbayes_detect(test, model, tn, scheme, train.values[-1])
        flagged = set(report.flagged_rows())
        assert {v.row for v in report.verdicts} <= flagged

    def test_uninferable_nodes_never_abnormal(self, fitted):
        train, test, model, scheme, tn = fitted
        report = tqbayes_detect(test, model, tn, scheme, train.values[-1])
        for v in report.verdicts:
            if v.uninferable:
                assert not v.abnormal
            if v.abnormal:
                assert v.predicted != v.observed

    def test_sub_bin_errors_invisible_to_stage_two(self):
        # Shifts below half a bin width cannot move any state, so stage two
        # stays silent even when every row is force-flagged.
        data = synth_generate(4, 200, 3, "lagged-copy", copies={1: 0})
        train = SensorDataset(data.values[:120], data.node_ids)
        test = SensorDataset(data.values[120:], data.node_ids)
        scheme = fit_discretization(train, 3)
        tn = learn_transition(discretize(train, scheme), 3)
        model = fit_pca_model(train, 0.85, 0.05)
        flag_all = PcaModel(
            model.standardization, model.eigenvalues, model.eigenvectors, model.k, -1.0, -1.0, model.alpha
        )
        widths = np.array([(e[1] - e[0]) for e in scheme.edges])
        shift = 0.3 * widths.min()
        clean = discretize(test, scheme).states
        shifted = SensorDataset(test.values + shift, test.node_ids)
        # Precondition for the property: no state actually moved.
        np.testing.assert_array_equal(discretize(shifted, scheme).states, clean)
        report = tqbayes_detect(shifted, flag_all, tn, scheme, train.values[-1])
        assert len(report.flagged_rows()) == test.m
        assert all(not v.abnormal for v in report.verdicts)

    def test_deterministic_reports(self, fitted):
        train, test, model, scheme, tn = fitted
        a = tqbayes_detect(test, model, tn, scheme, train.values[-1])
        b = tqbayes_detect(test, model, tn, scheme, train.values[-1])
        assert report_to_dict(a) == report_to_dict(b)

    def test_report_roundtrip_and_csv(self, fitted, tmp_path):
        train, test, model, scheme, tn = fitted
        report = tqbayes_detect(test, model, tn, scheme, train.values[-1])
        assert_reports_equal(report_from_dict(report_to_dict(report)), report)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        header = path.read_text().splitlines()[0]
        assert header == "row,q,t2,flagged,node,observed,predicted,abnormal"

    def test_schema_mismatch_rejected(self, fitted):
        train, test, model, scheme, tn = fitted
        narrow = SensorDataset(test.values[:, :5], test.node_ids[:5])
        with pytest.raises(ValueError, match="disagree"):
            tqbayes_detect(narrow, model, tn, scheme, train.values[-1])


@st.composite
def detection_cases(draw):
    """Random network, readings near integer levels 1..K, and a flag pattern."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "sparse", "uniform"]))
    parent_sets = []
    cpts = []
    for node in range(n):
        others = [j for j in range(n) if j != node]
        count = draw(st.integers(0, min(3, len(others))))
        parents = tuple(int(p) for p in rng.permutation(others)[:count])
        counts = np.zeros((k ** count, k), dtype=np.int64)
        if kind == "random":
            counts = rng.integers(0, 30, size=counts.shape)
        elif kind == "sparse":  # mostly empty rows and disjoint supports
            counts = rng.integers(1, 5, size=counts.shape) * (rng.random(counts.shape) < 0.25)
        parent_sets.append(parents)
        cpts.append(Cpt(node, parents, counts))
    priors = np.full((n, k), 1.0 / k)
    if kind != "uniform":
        priors = rng.random((n, k)) + 0.05
        priors /= priors.sum(axis=1, keepdims=True)
    tn = TransitionNetwork(Dag(n, tuple(parent_sets)), tuple(cpts), priors)

    levels = rng.integers(1, k + 1, size=(m + 1, n)) + rng.uniform(-0.4, 0.4, size=(m + 1, n))
    test = SensorDataset(levels[1:], [f"n{j}" for j in range(n)])
    flags = draw(st.sampled_from(["all", "none", "some"]))
    if flags == "all":
        limit = -1.0
    elif flags == "none":
        limit = np.inf
    else:
        limit = float(np.quantile((test.values**2).sum(axis=1), draw(st.floats(0.0, 1.0))))
    return test, t2_model(n, limit), tn, trivial_scheme(n, k), levels[0]


class TestBatchedStageTwo:
    """tqbayes_detect against one nb_predict_state call per (flagged row, node)."""

    @settings(max_examples=200, deadline=None)
    @given(detection_cases())
    def test_matches_per_row_oracle(self, case):
        assert_reports_equal(tqbayes_detect(*case), scalar_tqbayes_detect(*case))

    def test_disjoint_supports_fall_back_to_prior(self):
        # Node 2 has parents (0, 1). Parent 0 in state 1 only ever saw child
        # state 1, parent 1 in state 2 only child state 2: their product is
        # zero everywhere, so the prediction is the prior's argmax.
        k = 2
        counts = np.array([[5, 0], [0, 0], [0, 0], [0, 5]])
        flat = np.full((1, k), 10)
        cpts = (
            Cpt(0, (), flat),
            Cpt(1, (), flat),
            Cpt(2, (0, 1), counts),
        )
        priors = np.array([[0.5, 0.5], [0.5, 0.5], [0.3, 0.7]])
        tn = TransitionNetwork(Dag(3, ((), (), (0, 1))), cpts, priors)
        # Every test row is flagged. Rows 0 and 2 follow parent states (1, 2)
        # and (2, 1), both disjoint; row 1 follows (1, 1), which predicts 1.
        # Without the fallback, 0/0 would make the argmax state 1.
        values = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        last_train_row = np.array([1.0, 2.0, 2.0])
        case = (SensorDataset(values, ["a", "b", "c"]), t2_model(3, -1.0), tn, trivial_scheme(3, k), last_train_row)
        report = tqbayes_detect(*case)
        assert_reports_equal(report, scalar_tqbayes_detect(*case))
        node2 = report.verdicts[report.verdicts.node == 2]
        assert node2.row.tolist() == [0, 1, 2]
        assert node2.predicted.tolist() == [2, 1, 2]
        assert node2.abnormal.tolist() == [True, False, True]
