"""Static and real-time redundancy detection plus weighted recovery."""

import numpy as np
import pytest

from oracles import brute_soft_posterior, random_transition_network, scalar_static_recovery, states_from_grid
from sensorprep.bayesnet import Cpt, Dag, estimate_cpt, make_cpt
from sensorprep.ingest import SensorDataset, fit_discretization, synth_generate
from sensorprep.metrics import rmse
from sensorprep.redundancy import (
    recover,
    rsdrda_infer,
    rsdrda_schedule,
    ssdrda,
    static_recovery,
)


def one_node_family(table_counts, k=None):
    """Dag 0 -> 1 with an explicit CPT for node 1."""
    counts = np.asarray(table_counts)
    k = k or counts.shape[1]
    parent_counts = np.full((1, k), 10)
    cpts = (
        Cpt(0, (), estimate_cpt(parent_counts), parent_counts),
        Cpt(1, (0,), estimate_cpt(counts), counts),
    )
    return Dag(2, ((), (0,))), cpts


class TestSsdrda:
    def test_identity_cpt_redundant(self):
        dag, cpts = one_node_family(np.array([[30, 0], [0, 30]]))
        report = ssdrda(dag, cpts, tau=0.95)
        node = report.nodes[1]
        assert node.redundant
        assert node.criterion == 1.0
        assert node.witness == (1.0, 1.0)

    def test_uniform_cpt_not_redundant(self):
        dag, cpts = one_node_family(np.array([[10, 10, 10], [10, 10, 10], [10, 10, 10]]))
        report = ssdrda(dag, cpts, tau=0.95)
        assert not report.nodes[1].redundant
        assert report.nodes[1].criterion == pytest.approx(1 / 3)

    def test_parentless_never_redundant(self):
        dag, cpts = one_node_family(np.array([[30, 0], [0, 30]]))
        assert not ssdrda(dag, cpts, tau=0.5).nodes[0].redundant

    def test_flip_noise_straddles_tau(self):
        # Criterion recomputed from raw counts is the oracle.
        rng = np.random.default_rng(30)
        m = 5000
        parent = rng.integers(1, 3, size=m)
        flip = rng.random(m) < 0.05
        child = np.where(flip, 3 - parent, parent)
        states = states_from_grid(np.column_stack([parent, child]), 2)
        dag = Dag(2, ((), (0,)))
        cpts = (make_cpt(states, 0, [], 0), make_cpt(states, 1, [0], 0))
        counts = cpts[1].counts
        expected = np.mean([row.max() / row.sum() for row in counts])
        report_09 = ssdrda(dag, cpts, tau=0.90)
        report_097 = ssdrda(dag, cpts, tau=0.97)
        assert report_09.nodes[1].criterion == pytest.approx(expected, abs=1e-12)
        assert report_09.nodes[1].redundant
        assert not report_097.nodes[1].redundant

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(31)
        data = synth_generate(7, 400, 5, "copy-child", copies={1: 0, 3: 2})
        scheme = fit_discretization(data, 3)
        from sensorprep.bayesnet import learn_static
        from sensorprep.ingest import discretize

        net = learn_static(discretize(data, scheme), 2)
        previous = None
        for tau in (0.8, 0.9, 0.95, 0.99):
            current = set(ssdrda(net.dag, net.cpts, tau).redundant_nodes())
            if previous is not None:
                assert current <= previous
            previous = current

    def test_rejects_bad_tau(self):
        dag, cpts = one_node_family(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValueError, match="tau"):
            ssdrda(dag, cpts, tau=0.0)


class TestRsdrdaInfer:
    def test_point_mass_identity_propagates(self):
        dag, cpts = one_node_family(np.array([[30, 0], [0, 30]]))
        tn_priors = np.full((2, 2), 0.5)
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, cpts, tn_priors)
        posterior = rsdrda_infer(1, tn, [np.array([0.0, 1.0])])
        np.testing.assert_array_equal(posterior, [0.0, 1.0])

    def test_uniform_in_uniform_out(self):
        dag, cpts = one_node_family(np.array([[5, 5], [5, 5]]))
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, cpts, np.full((2, 2), 0.5))
        posterior = rsdrda_infer(1, tn, [np.array([0.5, 0.5])])
        np.testing.assert_allclose(posterior, [0.5, 0.5])

    def test_hand_worked_mixture(self):
        # 0.7*0.9 + 0.3*0.2 = 0.69
        dag, cpts = one_node_family(np.array([[9, 1], [2, 8]]))
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, cpts, np.full((2, 2), 0.5))
        posterior = rsdrda_infer(1, tn, [np.array([0.7, 0.3])])
        np.testing.assert_allclose(posterior, [0.69, 0.31], atol=1e-12)

    def test_point_mass_returns_exact_cpt_row(self):
        # Rows that sum to exactly 1.0 survive normalization bit for bit.
        table = np.array([[0.25, 0.75], [0.5, 0.5]])
        counts = np.array([[1, 3], [2, 2]])
        dag = Dag(2, ((), (0,)))
        cpts = (Cpt(0, (), np.array([[0.5, 0.5]]), np.array([[5, 5]])), Cpt(1, (0,), table, counts))
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, cpts, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(rsdrda_infer(1, tn, [np.array([1.0, 0.0])]), table[0])
        np.testing.assert_array_equal(rsdrda_infer(1, tn, [np.array([0.0, 1.0])]), table[1])

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 60:
            tn = random_transition_network(rng)
            k = tn.cpts[0].state_count
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
        dag, cpts = one_node_family(np.array([[1, 1], [1, 1]]))
        from sensorprep.bayesnet import TransitionNetwork

        tn = TransitionNetwork(dag, cpts, np.full((2, 2), 0.5))
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
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95)
        assert report.sleeping_fraction(1) == 1.0
        # i.i.d. drivers and fillers never sleep
        for node in (0, 2, 3):
            assert report.sleeping_fraction(node) == 0.0

    def test_exact_copy_recovery_rmse_zero(self):
        data = synth_generate(2, 200, 3, "lagged-copy", copies={1: 0})
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95)
        pairs = [(r.actual, r.estimate) for r in report.recoveries if r.node == 1]
        assert pairs
        assert rmse([a for a, _ in pairs], [e for _, e in pairs]) == 0.0

    def test_iid_noise_nobody_sleeps(self):
        rng = np.random.default_rng(34)
        data = SensorDataset(rng.integers(0, 3, size=(200, 4)).astype(float), tuple("abcd"))
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95)
        assert all(not e.sleeping for e in report.entries)

    def test_sleeping_implies_confident_posterior(self):
        data = synth_generate(3, 300, 4, "lagged-copy", copies={1: 0}, noise_frac=0.1)
        report = rsdrda_schedule(data, slice_len=100, train_frac=0.6, tau=0.95)
        assert np.isnan(report.entries.max_posterior).any()  # the parentless branch is exercised
        for e in report.entries:
            if e.sleeping:
                assert e.max_posterior >= 0.95
            if np.isnan(e.max_posterior):
                assert not e.sleeping

    def test_validation_errors(self):
        data = synth_generate(4, 50, 3, "lagged-copy")
        with pytest.raises(ValueError, match="shorter than one slice"):
            rsdrda_schedule(data, slice_len=100)
        with pytest.raises(ValueError, match="too short"):
            rsdrda_schedule(data, slice_len=10, train_frac=0.1)
        with pytest.raises(ValueError, match="train_frac"):
            rsdrda_schedule(data, slice_len=10, train_frac=1.5)


class TestStaticRecovery:
    def test_exact_copy_zero_error(self):
        data = synth_generate(5, 150, 3, "copy-child", copies={1: 0}, flip=0.0, child_noise=0.0)
        entries = static_recovery(data, Dag(3, ((), (0,), ())), [1])
        assert len(entries) == 150
        assert all(r.estimate == r.actual for r in entries)

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
