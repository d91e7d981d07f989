"""Two-stage detection: screening, state prediction, and localization."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    apply_standardization,
    assert_screens_equivalent,
    brute_nb_posterior,
    random_transition_network,
    read_report,
    scalar_tq_screen,
    scalar_tqbayes_detect,
    screen_bounds,
    trivial_scheme,
)
from sensorprep import artifacts
from sensorprep.anomaly import (
    ROW_DTYPE,
    DetectionReport,
    _screen,
    nb_predict_state,
    report_to_dict,
    tq_screen,
    tqbayes_detect,
    write_report_csv,
)
from sensorprep.bayesnet import Dag, TransitionNetwork, learn_transition
from sensorprep.ingest import (
    SensorDataset,
    Standardization,
    discretize,
    discretize_row,
    fit_discretization,
    synth_generate,
)
from sensorprep.spectra import PcaModel, fit_pca_model, q_statistic, t2_statistic


def single_parent_tn(counts, prior=None):
    """Two-node network where node 1 has transition parent node 0."""
    counts = np.asarray(counts)
    k = counts.shape[1]
    priors = np.full((2, k), 1.0 / k) if prior is None else np.array([np.full(k, 1.0 / k), prior])
    return TransitionNetwork(Dag(2, ((), (0,))), (np.full((1, k), 10), counts), priors)


def t2_model(n, t2_limit):
    """Identity PCA model keeping all n components: Q is 0 and T2 is the squared norm."""
    return PcaModel(Standardization(np.zeros(n), np.ones(n)), np.ones(n), np.eye(n), n, np.inf, t2_limit, 0.05)


def assert_reports_equal(ours, theirs):
    assert (ours.q_limit, ours.t2_limit) == (theirs.q_limit, theirs.t2_limit)
    assert ours.rows.dtype == theirs.rows.dtype and ours.rows.shape == theirs.rows.shape
    for name in ours.rows.dtype.names:
        assert np.array_equal(ours.rows[name], theirs.rows[name]), name
    for name in ("observed", "predicted", "uninferable"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


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


def detect_rows(rows, model):
    """The report rows of `tqbayes_detect` over raw rows (at least 2), under a parentless network."""
    n, k = model.n, 2
    tn = TransitionNetwork(Dag(n, ((),) * n), (np.ones((1, k), dtype=np.int64),) * n, np.full((n, k), 1.0 / k))
    test, scheme = SensorDataset(rows, [f"n{j}" for j in range(n)]), trivial_scheme(n, k)
    return tqbayes_detect(test, model, tn, scheme, discretize_row(rows[0], scheme)).rows


@st.composite
def screening_cases(draw):
    """A PCA model over a random orthonormal basis and spectrum, and 1 to 300 raw rows, some of them at the
    training mean or inside the retained subspace, where q or t2 is a cancellation near zero."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    spectrum = np.sort(rng.uniform(1e-3, 10.0, n) ** draw(st.sampled_from([1, 3])))[::-1]
    std = Standardization(rng.uniform(-50.0, 50.0, n), rng.uniform(0.01, 100.0, n))
    z = rng.standard_normal((m, n)) * draw(st.floats(0.0, 5.0))
    z[rng.random(m) < 0.1] = 0.0
    inside = rng.random(m) < 0.1
    z[inside] = rng.standard_normal((inside.sum(), k)) @ basis[:, :k].T
    rows = std.means + np.sqrt(std.variances) * z
    # Limits at quantiles of the oracle's statistics flag some rows, and none or all at the extremes.
    free = PcaModel(std, spectrum, basis, k, np.inf, np.inf, 0.05)
    stats = np.array([scalar_tq_screen(row, free)[:2] for row in rows])
    limits = [float(np.quantile(column, draw(st.floats(0.0, 1.0)))) for column in stats.T]
    return PcaModel(std, spectrum, basis, k, *limits, 0.05), rows


class TestBatchedStageOne:
    """Stage one screens the whole test matrix in one projection; per row it agrees with the one-row formula."""

    @settings(max_examples=200, deadline=None)
    @given(screening_cases())
    def test_matches_per_row_oracle(self, case):
        model, rows = case
        got = _screen(rows, model)
        want = tuple(map(np.array, zip(*(scalar_tq_screen(row, model) for row in rows))))
        assert_screens_equivalent(got, want, screen_bounds(rows, model), (model.q_limit, model.t2_limit))
        if len(rows) >= 2:  # a dataset holds at least 2 samples
            report = detect_rows(rows, model)
            for name, column in zip(("row", "q", "t2", "flagged"), (np.arange(len(rows)), *got)):
                np.testing.assert_array_equal(report[name], column)

    @settings(max_examples=100, deadline=None)
    @given(screening_cases())
    def test_one_row_alone_matches_it_inside_a_batch(self, case):
        model, rows = case
        alone = tuple(map(np.array, zip(*(tq_screen(row, model) for row in rows))))
        limits = (model.q_limit, model.t2_limit)
        assert_screens_equivalent(alone, _screen(rows, model), screen_bounds(rows, model), limits)

    def test_statistic_equal_to_its_limit_is_not_flagged(self):
        # Identity bases make every statistic exact: row (1, 3) keeps score 1 and leaves residual 3, so q = 9;
        # row (3, 4) kept whole has t2 = 9 + 16 = 25.
        q_model = PcaModel(Standardization(np.zeros(2), np.ones(2)), [2.0, 1.0], np.eye(2), 1, 9.0, np.inf, 0.05)
        for model, row, limit in ((q_model, [1.0, 3.0], 9.0), (t2_model(2, 25.0), [3.0, 4.0], 25.0)):
            rows = np.array([row, np.array(row) * 1.001])
            assert tq_screen(rows[0], model)[2] is False
            report = detect_rows(rows, model)
            assert limit in (report.q[0], report.t2[0])
            assert report.flagged.tolist() == [False, True]


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
        tables = (np.array([[5, 5]]), np.array([[5, 5]]), counts)
        tn = TransitionNetwork(Dag(3, ((), (), (0, 1))), tables, np.full((3, k), 0.5))
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
            k = tn.counts[0].shape[1]
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
        report = tqbayes_detect(quiet, model, tn, scheme, discretize_row(train.values[-1], scheme))
        assert report.flagged_rows() == []
        assert report.observed.shape == report.predicted.shape == (0, test.n)

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
        last_states = discretize_row(train.values[-1], scheme)
        report = tqbayes_detect(SensorDataset(vals, test.node_ids), model, tn, scheme, last_states)
        assert row in report.flagged_rows()
        marked = set(np.flatnonzero(report.abnormal[report.flagged_rows().index(row)]).tolist())
        assert child in marked
        # Only nodes whose observed state moved can be accused.
        corrupted_states = discretize(SensorDataset(vals, test.node_ids), scheme).states
        moved = {j for j in range(test.n) if corrupted_states[row, j] != clean_states[row, j]}
        assert marked <= moved | {0, 1}

    def test_stage_two_only_on_flagged_rows(self, fitted):
        train, test, model, scheme, tn = fitted
        report = tqbayes_detect(test, model, tn, scheme, discretize_row(train.values[-1], scheme))
        assert report.observed.shape == report.predicted.shape == (len(report.flagged_rows()), test.n)

    def test_uninferable_nodes_never_abnormal(self, fitted):
        train, test, model, scheme, tn = fitted
        report = tqbayes_detect(test, model, tn, scheme, discretize_row(train.values[-1], scheme))
        differ = report.predicted != report.observed
        assert differ[:, report.uninferable].any()  # the prior's guess misses somewhere, yet is never an accusation
        assert not report.abnormal[:, report.uninferable].any()
        assert np.array_equal(report.abnormal[:, ~report.uninferable], differ[:, ~report.uninferable])

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
        report = tqbayes_detect(shifted, flag_all, tn, scheme, discretize_row(train.values[-1], scheme))
        assert len(report.flagged_rows()) == test.m
        assert not report.abnormal.any()

    def test_deterministic_reports(self, fitted):
        train, test, model, scheme, tn = fitted
        a = tqbayes_detect(test, model, tn, scheme, discretize_row(train.values[-1], scheme))
        b = tqbayes_detect(test, model, tn, scheme, discretize_row(train.values[-1], scheme))
        assert report_to_dict(a) == report_to_dict(b)

    def test_report_roundtrip_and_csv(self, fitted, tmp_path):
        train, test, model, scheme, tn = fitted
        report = tqbayes_detect(test, model, tn, scheme, discretize_row(train.values[-1], scheme))
        artifacts.write(tmp_path / "report.json", "detection_report", test.node_ids, report_to_dict(report))
        assert_reports_equal(read_report(tmp_path / "report.json", test.node_ids), report)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        header = path.read_text().splitlines()[0]
        assert header == "row,q,t2,flagged,node,observed,predicted,abnormal"

    def test_schema_mismatch_rejected(self, fitted):
        train, test, model, scheme, tn = fitted
        narrow = SensorDataset(test.values[:, :5], test.node_ids[:5])
        with pytest.raises(ValueError, match="disagree"):
            tqbayes_detect(narrow, model, tn, scheme, discretize_row(train.values[-1], scheme))


def screening_rows(flagged):
    """`ROW_DTYPE` records of rows 0..m-1 with the given flags."""
    m = len(flagged)
    return np.rec.fromarrays([np.arange(m), np.linspace(0.5, 9.0, m), np.linspace(0.25, 4.0, m), flagged],
                             dtype=ROW_DTYPE)


@st.composite
def detection_reports(draw):
    """Node ids and a report as `tqbayes_detect` builds one: any rows flagged (none or all of them among the draws),
    each node's state at each flagged row, and any nodes uninferable (all or none among the draws)."""
    n, m, k = draw(st.integers(1, 6)), draw(st.integers(2, 20)), draw(st.integers(2, 4))
    patterns = {"none": lambda size: [False] * size, "all": lambda size: [True] * size,
                "some": lambda size: draw(st.lists(st.booleans(), min_size=size, max_size=size))}
    flagged = patterns[draw(st.sampled_from(list(patterns)))](m)
    uninferable = np.array(patterns[draw(st.sampled_from(list(patterns)))](n), dtype=bool)
    statistics = st.lists(st.floats(0.0, 1e6), min_size=m, max_size=m)
    rows = np.rec.fromarrays([np.arange(m), draw(statistics), draw(statistics), flagged], dtype=ROW_DTYPE)
    states = st.lists(st.integers(1, k), min_size=sum(flagged) * n, max_size=sum(flagged) * n).map(
        lambda cells: np.array(cells, dtype=np.int64).reshape(sum(flagged), n))
    q_limit = draw(st.sampled_from([np.inf, 2.5]))
    return [f"n{j}" for j in range(n)], DetectionReport(q_limit, 3.5, rows, draw(states), draw(states), uninferable)


# Two of three nodes uninferable and no row flagged: the file holds no flags, so both read back as inferable.
NO_FLAGS = (["a", "b", "c"], DetectionReport(2.5, 3.5, screening_rows([False] * 4), np.zeros((0, 3), np.int64),
                                             np.zeros((0, 3), np.int64), np.array([True, False, True])))


class TestReportFile:
    @settings(max_examples=150, deadline=None)
    @given(detection_reports())
    @example(case=NO_FLAGS)
    def test_round_trip(self, tmp_path_factory, case):
        # The file stores the rows, the observed and predicted states and, if a row is flagged, one flag per node.
        # The report read back writes the same CSV.
        node_ids, report = case
        d = tmp_path_factory.mktemp("report")
        artifacts.write(d / "detection_report.json", "detection_report", node_ids, report_to_dict(report))
        back = read_report(d / "detection_report.json", node_ids)
        assert_reports_equal(back, replace(report, uninferable=report.uninferable & report.rows.flagged.any()))
        write_report_csv(report, d / "written.csv")
        write_report_csv(back, d / "read.csv")
        assert (d / "read.csv").read_bytes() == (d / "written.csv").read_bytes()

    def test_states_of_another_shape_rejected(self):
        # One row of three nodes is flagged, so both state matrices are 1 x 3.
        rows, uninferable = screening_rows([False, True]), np.zeros(3, dtype=bool)
        states = np.array([[1, 2, 3]])
        report = DetectionReport(2.5, 3.5, rows, states, states[:, ::-1], uninferable)
        assert report_to_dict(report)["verdicts"] == [[1, 2, 3], [3, 2, 1]]
        assert report.abnormal.tolist() == [[True, False, True]]
        message = re.escape("observed and predicted states must have shape (flagged rows, nodes) = (1, 3), got ")
        for observed, predicted in ((states.ravel(), states), (states, states.T), (states[:, :2], states[:, :2]),
                                    (np.vstack([states, states]), states)):
            with pytest.raises(ValueError, match=message):
                DetectionReport(2.5, 3.5, rows, observed, predicted, uninferable)


@st.composite
def detection_cases(draw):
    """Random network, readings near integer levels 1..K, and a flag pattern."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "sparse", "uniform"]))
    parent_sets = []
    tables = []
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
        tables.append(counts)
    priors = np.full((n, k), 1.0 / k)
    if kind != "uniform":
        priors = rng.random((n, k)) + 0.05
        priors /= priors.sum(axis=1, keepdims=True)
    tn = TransitionNetwork(Dag(n, tuple(parent_sets)), tuple(tables), priors)

    levels = rng.integers(1, k + 1, size=(m + 1, n)) + rng.uniform(-0.4, 0.4, size=(m + 1, n))
    test = SensorDataset(levels[1:], [f"n{j}" for j in range(n)])
    flags = draw(st.sampled_from(["all", "none", "some"]))
    if flags == "all":
        limit = -1.0
    elif flags == "none":
        limit = np.inf
    else:
        limit = float(np.quantile((test.values**2).sum(axis=1), draw(st.floats(0.0, 1.0))))
    scheme = trivial_scheme(n, k)
    return test, t2_model(n, limit), tn, scheme, discretize_row(levels[0], scheme)


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
        priors = np.array([[0.5, 0.5], [0.5, 0.5], [0.3, 0.7]])
        tn = TransitionNetwork(Dag(3, ((), (), (0, 1))), (flat, flat, counts), priors)
        # Every test row is flagged. Rows 0 and 2 follow parent states (1, 2)
        # and (2, 1), both disjoint; row 1 follows (1, 1), which predicts 1.
        # Without the fallback, 0/0 would make the argmax state 1.
        values = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        last_states = np.array([1, 2, 2])
        case = (SensorDataset(values, ["a", "b", "c"]), t2_model(3, -1.0), tn, trivial_scheme(3, k), last_states)
        report = tqbayes_detect(*case)
        assert_reports_equal(report, scalar_tqbayes_detect(*case))
        assert report.flagged_rows() == [0, 1, 2]
        assert report.predicted[:, 2].tolist() == [2, 1, 2]
        assert report.abnormal[:, 2].tolist() == [True, False, True]
