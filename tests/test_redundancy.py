"""Static and real-time redundancy detection plus weighted recovery."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_soft_posterior,
    make_cpt,
    random_transition_network,
    scalar_rsdrda_schedule,
    scalar_static_recovery,
    states_from_grid,
    trivial_scheme,
)
from sensorprep import bayesnet, redundancy
from sensorprep.bayesnet import Dag, StaticNetwork, learn_transition
from sensorprep.ingest import SensorDataset, discretize, fit_discretization, synth_generate
from sensorprep.metrics import rmse
from sensorprep.redundancy import (
    recover,
    rsdrda_infer,
    rsdrda_schedule,
    ssdrda,
    static_recovery,
)


def one_node_family(table_counts, k=None):
    """Dag 0 -> 1 with an explicit count table for node 1."""
    counts = np.asarray(table_counts)
    k = k or counts.shape[1]
    return Dag(2, ((), (0,))), (np.full((1, k), 10), counts)


class TestSsdrda:
    def test_identity_cpt_redundant(self):
        report = ssdrda(StaticNetwork(*one_node_family(np.array([[30, 0], [0, 30]]))), tau=0.95)
        assert report.redundant[1]
        assert report.criterion[1] == 1.0
        assert report.witness[1] == [1.0, 1.0]

    def test_uniform_cpt_not_redundant(self):
        report = ssdrda(StaticNetwork(*one_node_family(np.array([[10, 10, 10], [10, 10, 10], [10, 10, 10]]))), 0.95)
        assert not report.redundant[1]
        assert report.criterion[1] == pytest.approx(1 / 3)

    def test_parentless_never_redundant(self):
        report = ssdrda(StaticNetwork(*one_node_family(np.array([[30, 0], [0, 30]]))), tau=0.5)
        assert not report.redundant[0]
        assert (report.criterion[0], report.witness[0]) == (0.0, [])

    def test_flip_noise_straddles_tau(self):
        # Criterion recomputed from raw counts is the oracle.
        rng = np.random.default_rng(30)
        m = 5000
        parent = rng.integers(1, 3, size=m)
        flip = rng.random(m) < 0.05
        child = np.where(flip, 3 - parent, parent)
        states = states_from_grid(np.column_stack([parent, child]), 2)
        counts = make_cpt(states, 1, [0], 0)[0]
        net = StaticNetwork(Dag(2, ((), (0,))), (make_cpt(states, 0, [], 0)[0], counts))
        expected = np.mean([row.max() / row.sum() for row in counts])
        report_09 = ssdrda(net, tau=0.90)
        report_097 = ssdrda(net, tau=0.97)
        assert report_09.criterion[1] == pytest.approx(expected, abs=1e-12)
        assert report_09.redundant[1]
        assert not report_097.redundant[1]

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(31)
        data = synth_generate(7, 400, 5, "copy-child", copies={1: 0, 3: 2})
        scheme = fit_discretization(data, 3)
        from sensorprep.bayesnet import learn_static
        from sensorprep.ingest import discretize

        net = learn_static(discretize(data, scheme), 2)
        previous = None
        for tau in (0.8, 0.9, 0.95, 0.99):
            current = set(ssdrda(net, tau).redundant_nodes())
            if previous is not None:
                assert current <= previous
            previous = current

    def test_rejects_bad_tau(self):
        net = StaticNetwork(*one_node_family(np.array([[1, 1], [1, 1]])))
        with pytest.raises(ValueError, match="tau"):
            ssdrda(net, tau=0.0)


class TestRsdrdaInfer:
    def test_point_mass_identity_propagates(self):
        dag, counts = one_node_family(np.array([[30, 0], [0, 30]]))
        tn_priors = np.full((2, 2), 0.5)
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, counts, tn_priors)
        posterior = rsdrda_infer(1, tn, [np.array([0.0, 1.0])])
        np.testing.assert_array_equal(posterior, [0.0, 1.0])

    def test_uniform_in_uniform_out(self):
        dag, counts = one_node_family(np.array([[5, 5], [5, 5]]))
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, counts, np.full((2, 2), 0.5))
        posterior = rsdrda_infer(1, tn, [np.array([0.5, 0.5])])
        np.testing.assert_allclose(posterior, [0.5, 0.5])

    def test_hand_worked_mixture(self):
        # 0.7*0.9 + 0.3*0.2 = 0.69
        dag, counts = one_node_family(np.array([[9, 1], [2, 8]]))
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, counts, np.full((2, 2), 0.5))
        posterior = rsdrda_infer(1, tn, [np.array([0.7, 0.3])])
        np.testing.assert_allclose(posterior, [0.69, 0.31], atol=1e-12)

    def test_point_mass_returns_exact_cpt_row(self):
        # Rows that sum to exactly 1.0 survive normalization bit for bit.
        table = np.array([[0.25, 0.75], [0.5, 0.5]])
        counts = np.array([[1, 3], [2, 2]])
        dag = Dag(2, ((), (0,)))
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, (np.array([[5, 5]]), counts), np.full((2, 2), 0.5))
        np.testing.assert_array_equal(rsdrda_infer(1, tn, [np.array([1.0, 0.0])]), table[0])
        np.testing.assert_array_equal(rsdrda_infer(1, tn, [np.array([0.0, 1.0])]), table[1])

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 60:
            tn = random_transition_network(rng)
            k = tn.counts[0].shape[1]
            for node in range(tn.dag.n):
                parents = tn.dag.parents[node]
                if not parents:
                    continue
                evidence = []
                for _ in parents:
                    ev = rng.random(k) + 0.05
                    evidence.append(ev / ev.sum())
                posterior = rsdrda_infer(node, tn, evidence)
                np.testing.assert_allclose(posterior, brute_soft_posterior(node, tn, evidence), atol=1e-12)
                assert posterior.sum() == pytest.approx(1.0, abs=1e-12)
                assert (posterior >= 0).all() and (posterior <= 1).all()
                checked += 1

    def test_rejects_parentless(self):
        dag, counts = one_node_family(np.array([[1, 1], [1, 1]]))
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, counts, np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="no transition parents"):
            rsdrda_infer(0, tn, [])


class TestRecover:
    def test_single_parent_exact(self):
        assert recover([12.34], [5.0]) == 12.34

    def test_equal_weights_mean(self):
        assert recover([10.0, 20.0], [2.0, 2.0]) == pytest.approx(15.0)

    def test_hand_worked_weighting(self):
        assert recover([10.0, 20.0], [1.0, 3.0]) == pytest.approx(12.5)

    def test_zero_distance_short_circuits(self):
        assert recover([10.0, 20.0], [3.0, 0.0]) == 20.0

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            values = rng.uniform(-10, 10, size=n)
            dists = rng.uniform(0.1, 5.0, size=n)
            out = recover(values, dists)
            assert values.min() - 1e-12 <= out <= values.max() + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            recover([], [])
        with pytest.raises(ValueError, match="nonnegative"):
            recover([1.0], [-1.0])


class TestRsdrdaSchedule:
    def test_lagged_copy_child_sleeps(self):
        data = synth_generate(1, 300, 4, "lagged-copy", copies={1: 0})
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95, scheme=fit_discretization(data))
        assert report.sleeping_fraction(1) == 1.0
        # i.i.d. drivers and fillers never sleep
        for node in (0, 2, 3):
            assert report.sleeping_fraction(node) == 0.0

    def test_exact_copy_recovery_rmse_zero(self):
        data = synth_generate(2, 200, 3, "lagged-copy", copies={1: 0})
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95, scheme=fit_discretization(data))
        pairs = [(data.values[r.t, r.node], r.estimate) for r in report.recoveries if r.node == 1]
        assert pairs
        assert rmse([a for a, _ in pairs], [e for _, e in pairs]) == 0.0

    def test_iid_noise_nobody_sleeps(self):
        rng = np.random.default_rng(34)
        data = SensorDataset(rng.integers(0, 3, size=(200, 4)).astype(float), tuple("abcd"))
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95, scheme=fit_discretization(data))
        assert all(not e.sleeping for e in report.entries)

    def test_sleeping_implies_confident_posterior(self):
        data = synth_generate(3, 300, 4, "lagged-copy", copies={1: 0}, noise_frac=0.1)
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95, scheme=fit_discretization(data))
        assert np.isnan(report.entries.max_posterior).any()  # the parentless branch is exercised
        for e in report.entries:
            if e.sleeping:
                assert e.max_posterior >= 0.95
            if np.isnan(e.max_posterior):
                assert not e.sleeping

    def test_one_search_learns_every_slice(self, monkeypatch):
        # Three slices, one stacked search of their 60-row training windows;
        # no per-slice network and no per-family count.
        data = synth_generate(3, 300, 4, "lagged-copy", copies={1: 0}, noise_frac=0.1)
        searches = []

        def spy(windows, k, max_parents, lag):
            searches.append((windows.shape, k, max_parents, lag))
            return bayesnet._stacked_search(windows, k, max_parents, lag)

        def forbidden(*args, **kwargs):
            raise AssertionError("rsdrda_schedule must not learn or count one slice at a time")

        monkeypatch.setattr(redundancy, "_stacked_search", spy)
        for name in ("learn_transition", "count_states", "k2_search"):
            monkeypatch.setattr(bayesnet, name, forbidden)
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95, scheme=fit_discretization(data))
        assert searches == [((3, 60, 4), 3, 3, 1)]
        assert report.sleeping_fraction(1) > 0.5

    def test_validation_errors(self):
        data = synth_generate(4, 50, 3, "lagged-copy")
        scheme = fit_discretization(data)
        with pytest.raises(ValueError, match="shorter than one slice"):
            rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95, scheme=scheme)
        with pytest.raises(ValueError, match="too short"):
            rsdrda_schedule(data, slice_len=10, train_frac=0.1, tau=0.95, scheme=scheme)
        with pytest.raises(ValueError, match="train_frac"):
            rsdrda_schedule(data, slice_len=10, train_frac=1.5, tau=0.95, scheme=scheme)
        for slice_len in (0, -100):
            with pytest.raises(ValueError, match="slice_len must be >= 1"):
                rsdrda_schedule(data, slice_len=slice_len, train_frac=0.6, tau=0.95, scheme=scheme)


@st.composite
def schedule_cases(draw):
    """Persistent level data (levels 1..k plus in-bin noise) with constant
    columns, exact copies, lagged copies and lagged medians of several columns,
    binned on the levels by a fixed scheme."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 6))
    slice_len, train_frac = draw(st.sampled_from([(100, 0.6), (40, 0.75), (20, 0.8), (7, 0.3)]))
    m = slice_len * draw(st.integers(1, 3)) + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(1, k + 1, size=(m, n)).astype(float)
    stay = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.6, 0.85]))
    for t in range(1, m):
        levels[t, stay[t]] = levels[t - 1, stay[t]]
    values = levels + rng.uniform(-0.4, 0.4, size=(m, n))
    for j in range(n):
        kind = draw(st.sampled_from(["lagged-copy", "lagged-median", "copy", "constant", "levels", "random"]))
        if kind == "levels":
            values[:, j] = levels[:, j]
        elif kind == "constant":
            values[:, j] = draw(st.integers(1, k))
        elif kind == "lagged-median" and j > 1:
            # The (rounded-up) median of two or three levels at t-1 plants
            # families of several parents.
            sources = draw(st.permutations(range(j)))[: draw(st.integers(2, 3))]
            values[:, j] = np.roll(np.ceil(np.median(np.round(values[:, sources]), axis=1)), 1)
        elif kind in ("copy", "lagged-copy") and j > 0:
            values[:, j] = values[:, draw(st.integers(0, j - 1))]
            if kind == "lagged-copy":
                values[:, j] = np.roll(values[:, j], 1)
    data = SensorDataset(values, [f"n{j}" for j in range(n)])
    tau = draw(st.sampled_from([0.5, 0.8, 0.95, 1.0]))
    return data, slice_len, train_frac, tau, trivial_scheme(n, k), draw(st.sampled_from([2, 3, 1, 0]))


class TestStepParallelSchedule:
    """The stacked per-step update against one rsdrda_infer call per (step, node)."""

    @settings(max_examples=300, deadline=None)
    @given(schedule_cases())
    def test_matches_scalar_oracle(self, case):
        ours = rsdrda_schedule(*case)
        theirs = scalar_rsdrda_schedule(*case)
        assert ours.entries.tobytes() == theirs.entries.tobytes()
        assert ours.recoveries.tobytes() == theirs.recoveries.tobytes()

    def test_groups_of_one_two_and_three_parents(self):
        # Nodes 3, 4 and 5 follow one, two and three i.i.d. drivers at t-1
        # with 3% flips, so each step stacks three parent-count groups and
        # sleeping parents pass on posteriors that are not point masses.
        rng = np.random.default_rng(0)
        levels = rng.integers(1, 3, size=(400, 6)).astype(float)
        levels[:, 3] = np.roll(levels[:, 2], 1)
        levels[:, 4] = np.roll(np.maximum(levels[:, 0], levels[:, 1]), 1)
        levels[:, 5] = np.roll(np.median(levels[:, :3], axis=1), 1)
        flip = rng.random((400, 3)) < 0.03
        levels[:, 3:][flip] = 3 - levels[:, 3:][flip]
        data = SensorDataset(levels + rng.uniform(-0.4, 0.4, size=levels.shape), [f"n{j}" for j in range(6)])
        case = (data, 100, 0.6, 0.9, trivial_scheme(6, 2), 3)
        first = learn_transition(discretize(SensorDataset(data.values[:60], data.node_ids), case[4]), 3)
        assert {len(ps) for ps in first.dag.parents} == {0, 1, 2, 3}
        ours = rsdrda_schedule(*case)
        theirs = scalar_rsdrda_schedule(*case)
        posteriors = ours.entries.max_posterior
        assert ours.entries.sleeping.any() and ((posteriors > 0.9) & (posteriors < 1.0)).any()
        assert ours.entries.tobytes() == theirs.entries.tobytes()
        assert ours.recoveries.tobytes() == theirs.recoveries.tobytes()


class TestSliceIndependence:
    """Each slice learns from its own training window and starts with every
    node awake, so no slice reads another: the property that lets
    rsdrda_schedule step all slices at once. The scheme is fixed, so it
    does not depend on the data either."""

    @settings(max_examples=100, deadline=None)
    @given(schedule_cases())
    def test_whole_run_is_the_single_slice_runs_concatenated(self, case):
        data, slice_len, *rest = case
        parts = []
        for start in range(0, data.m - slice_len + 1, slice_len):
            alone = SensorDataset(data.values[start : start + slice_len], data.node_ids)
            part = rsdrda_schedule(alone, slice_len, *rest)
            part.entries.t += start
            part.recoveries.t += start
            parts.append(part)
        whole = rsdrda_schedule(*case)
        assert whole.entries.tobytes() == np.concatenate([p.entries for p in parts]).tobytes()
        assert whole.recoveries.tobytes() == np.concatenate([p.recoveries for p in parts]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(schedule_cases(), st.data())
    def test_a_later_value_leaves_earlier_slices_unchanged(self, case, draw):
        data, slice_len, *rest = case
        assume(data.m > slice_len)
        row = draw.draw(st.integers(slice_len, data.m - 1), label="row")
        values = data.values.copy()
        values[row, draw.draw(st.integers(0, data.n - 1), label="node")] = draw.draw(st.floats(-1.0, 6.0))
        before = rsdrda_schedule(*case)
        after = rsdrda_schedule(SensorDataset(values, data.node_ids), slice_len, *rest)
        first = row // slice_len * slice_len  # the first step of the changed slice
        for a, b in ((before.entries, after.entries), (before.recoveries, after.recoveries)):
            assert a[a.t < first].tobytes() == b[b.t < first].tobytes()


class TestStaticRecovery:
    def test_exact_copy_zero_error(self):
        data = synth_generate(5, 150, 3, "copy-child", copies={1: 0}, flip=0.0, child_noise=0.0)
        entries = static_recovery(data, Dag(3, ((), (0,), ())), [1])
        assert len(entries) == 150
        assert all(r.estimate == data.values[r.t, r.node] for r in entries)

    def test_matches_per_reading_recover(self):
        # Node 1 copies node 0 (zero dissimilarity, listed second among its
        # parents), node 3 has one parent, node 4 three weighted ones, and
        # node 5 is constant like both its parents 2 and 6 (two zeros: the
        # first wins). Row 7 gives node 4 only -0.0 readings: the weighted
        # sum starts from +0.0, as recover's does.
        rng = np.random.default_rng(8)
        values = rng.normal(size=(120, 7))
        values[7, [0, 3]] = -0.0
        values[:, 1] = values[:, 0]
        values[:, 2] = -0.0
        values[:, 5] = 3.0
        values[:, 6] = 7.0
        data = SensorDataset(values, [f"n{j}" for j in range(7)])
        dag = Dag(7, ((), (3, 0, 2), (), (1,), (0, 3, 2), (2, 6), ()))
        ours = static_recovery(data, dag, [1, 3, 4, 5])
        theirs = scalar_static_recovery(data, dag, [1, 3, 4, 5])
        assert ours.dtype == theirs.dtype and len(ours) == 4 * 120
        for name in ours.dtype.names:
            assert np.array_equal(ours[name], theirs[name]), name
        assert np.array_equal(np.signbit(ours.estimate), np.signbit(theirs.estimate))
        assert np.array_equal(ours.estimate[ours.node == 1], values[:, 0])
        assert np.array_equal(ours.estimate[ours.node == 5], values[:, 2])
        assert len(static_recovery(data, dag, [])) == 0

    def test_requires_parents(self):
        data = synth_generate(6, 50, 2, "copy-child")
        with pytest.raises(ValueError, match="no parents"):
            static_recovery(data, Dag(2, ((), ())), [0])
