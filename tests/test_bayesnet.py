"""Counting, CPT estimation, scoring, greedy search, and cycle repair."""

import json
import math
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    digit_parent_marginal,
    exhaustive_argmax,
    make_cpt,
    penalized_total,
    scalar_greedy_parents,
    scalar_k2_search,
    states_from_grid,
    trivial_scheme,
)
from sensorprep import bayesnet
from sensorprep.bayesnet import (
    Dag,
    StaticNetwork,
    TransitionNetwork,
    _depth_counts,
    _logliks,
    _penalized_scores,
    _picks,
    _stacked_search,
    check_cpt_cells,
    count_states,
    estimate_cpt,
    family_score,
    fitted_score,
    k2_search,
    learn_static,
    learn_transition,
    network_to_dict,
    parent_marginal,
    parent_marginals,
    penalized_family_score,
    repair_cycles,
    static_from_dict,
    transition_from_dict,
)
from sensorprep.ingest import SensorDataset, discretize, fit_discretization, synth_generate
from sensorprep.redundancy import rsdrda_schedule, ssdrda


def chain_states(seed, m=5000, flip=0.05):
    """Three binary columns: x2 copies x1, x3 copies x2, each with flip noise."""
    rng = np.random.default_rng(seed)
    x1 = rng.integers(1, 3, size=m)

    def noisy(src):
        out = src.copy()
        mask = rng.random(m) < flip
        out[mask] = 3 - out[mask]
        return out

    x2 = noisy(x1)
    x3 = noisy(x2)
    return states_from_grid(np.column_stack([x1, x2, x3]), 2)


@st.composite
def digraphs(draw):
    """Digraphs on 2 to 12 nodes with parents in any order: either acyclic
    (every edge runs forward in a drawn node order) or arbitrary edges plus
    a cycle through 2..n drawn nodes."""
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, unique=True, max_size=3 * n))
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        rank = {node: i for i, node in enumerate(order)}
        edges = [(p, c) for p, c in edges if rank[p] < rank[c]]
    else:
        ring = order[: draw(st.integers(2, n))]
        edges = list(dict.fromkeys(edges + list(zip(ring, ring[1:] + ring[:1]))))
    return Dag(n, tuple(tuple(p for p, c in edges if c == node) for node in range(n)))


class TestDag:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="own parent"):
            Dag(2, ((0,), ()))

    def test_cycle_detection(self):
        assert not Dag(2, ((1,), (0,))).is_acyclic()
        assert Dag(3, ((), (0,), (1,))).is_acyclic()

    def test_find_cycle_returns_edges(self):
        cyc = Dag(3, ((2,), (0,), (1,))).find_cycle()
        assert cyc is not None and len(cyc) == 3

    def test_long_chain_and_ring(self):
        n = 5000  # deeper than the default recursion limit
        assert Dag(n, ((),) + tuple((i,) for i in range(n - 1))).is_acyclic()
        ring = Dag(n, ((n - 1,),) + tuple((i,) for i in range(n - 1)))
        assert ring.find_cycle() == [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]

    def test_edges_listing(self):
        assert Dag(3, ((), (0,), (0, 1))).edges() == [(0, 1), (0, 2), (1, 2)]

    @settings(max_examples=500, deadline=None)
    @given(digraphs())
    def test_find_cycle_matches_the_dfs_oracle(self, dag):
        assert dag.find_cycle() == oracles.find_cycle(dag)


class TestCountStates:
    def test_parentless_tally(self):
        states = states_from_grid(np.array([[1], [1], [2]]), 2)
        np.testing.assert_array_equal(count_states(states, 0, [], lag=0), [[2, 1]])

    def test_copy_child_diagonal(self):
        rng = np.random.default_rng(1)
        col = rng.integers(1, 4, size=200)
        states = states_from_grid(np.column_stack([col, col]), 3)
        counts = count_states(states, 1, [0], lag=0)
        assert counts.sum() == 200
        assert np.all(counts[~np.eye(3, dtype=bool)] == 0)

    def test_lagged_tally_hand_worked(self):
        # child_t = parent_{t-1}: tally over t = 2..4 gives 1->1 twice, 2->2 once.
        parent = np.array([1, 2, 1, 2])
        child = np.array([1, 1, 2, 1])
        states = states_from_grid(np.column_stack([parent, child]), 2)
        counts = count_states(states, 1, [0], lag=1)
        np.testing.assert_array_equal(counts, [[2, 0], [0, 1]])

    def test_mixed_radix_order_first_parent_most_significant(self):
        # parents (a, b) with K=2: configuration rows must be
        # (a=1,b=1), (a=1,b=2), (a=2,b=1), (a=2,b=2).
        a = np.array([1, 1, 2, 2])
        b = np.array([1, 2, 1, 2])
        c = np.array([1, 2, 1, 2])
        states = states_from_grid(np.column_stack([a, b, c]), 2)
        counts = count_states(states, 2, [0, 1], lag=0)
        np.testing.assert_array_equal(counts, [[1, 0], [0, 1], [1, 0], [0, 1]])

    def test_rejects_same_slice_self_parent(self):
        states = states_from_grid(np.array([[1], [2]]), 2)
        with pytest.raises(ValueError, match="own same-slice parent"):
            count_states(states, 0, [0], lag=0)

    def test_allows_lagged_self_parent(self):
        states = states_from_grid(np.array([[1], [1], [2]]), 2)
        counts = count_states(states, 0, [0], lag=1)
        assert counts.sum() == 2


class TestEstimateCpt:
    def test_simple_ratio(self):
        np.testing.assert_allclose(estimate_cpt(np.array([[3, 1]])), [[0.75, 0.25]])

    def test_empty_row_smooths_to_uniform(self):
        np.testing.assert_allclose(estimate_cpt(np.array([[0, 0]])), [[0.5, 0.5]])

    def test_no_smoothing_on_observed_rows(self):
        np.testing.assert_allclose(estimate_cpt(np.array([[9, 0, 1]])), [[0.9, 0.0, 0.1]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            estimate_cpt(np.array([[-1, 2]]))

    def test_cpt_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        grid = rng.integers(1, 4, size=(300, 3))
        states = states_from_grid(grid, 3)
        counts, table = make_cpt(states, 0, [1, 2], lag=0)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
        assert table.shape == counts.shape == (9, 3)

    def test_cpt_table_is_estimated_from_counts(self):
        # A network holds counts only; the table its readers use is estimate_cpt of them.
        counts = np.array([[3, 1], [0, 0]])
        dag = Dag(2, ((), (0,)))
        net = StaticNetwork(dag, (np.array([[1, 1]]), counts))
        assert ssdrda(net, 0.9).witness[1] == estimate_cpt(counts).max(axis=1).tolist() == [0.75, 0.5]
        with pytest.raises(ValueError, match=r"node 1 needs 2\^1 = 2 configuration rows, got 1"):
            StaticNetwork(dag, (np.array([[1, 1]]), counts[:1]))
        with pytest.raises(ValueError, match="node 1: counts must be nonnegative"):
            StaticNetwork(dag, (np.array([[1, 1]]), -counts))


class TestScore:
    def test_deterministic_copy_contributes_zero(self):
        rng = np.random.default_rng(3)
        col = rng.integers(1, 3, size=100)
        states = states_from_grid(np.column_stack([col, col]), 2)
        assert family_score(states, 1, [0], lag=0) == 0.0

    def test_iid_binary_column_near_m_log2(self):
        rng = np.random.default_rng(4)
        m = 4000
        col = rng.integers(1, 3, size=m)
        states = states_from_grid(col.reshape(-1, 1), 2)
        got = family_score(states, 0, [], lag=0)
        counts = np.bincount(col - 1, minlength=2)
        exact = sum(c * math.log(c / m) for c in counts if c)
        assert got == pytest.approx(exact, abs=1e-9)
        assert got / m == pytest.approx(-math.log(2), abs=0.01)

    def test_adding_parent_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(10, 60))
            n = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            states = states_from_grid(rng.integers(1, k + 1, size=(m, n)), k)
            node = int(rng.integers(n))
            parent = int((node + 1) % n)
            assert family_score(states, node, [parent], 0) >= family_score(states, node, [], 0) - 1e-9

    def test_decomposability(self):
        rng = np.random.default_rng(6)
        states = states_from_grid(rng.integers(1, 3, size=(200, 3)), 2)
        dag = Dag(3, ((), (0,), (0, 1)))
        total = oracles.score(states, dag, lag=0)
        parts = sum(family_score(states, i, dag.parents[i], 0) for i in range(3))
        assert total == pytest.approx(parts, abs=1e-12)


class TestK2Search:
    def test_independent_columns_give_empty_graph(self):
        rng = np.random.default_rng(7)
        states = states_from_grid(rng.integers(1, 4, size=(5000, 5)), 3)
        assert k2_search(states, max_parents=3, lag=0).edges() == []

    def test_chain_recovery_matches_exhaustive_oracle(self):
        states = chain_states(seed=0)
        greedy = k2_search(states, max_parents=1, lag=0)
        best_score, best_dags = exhaustive_argmax(states)
        assert penalized_total(states, greedy) == pytest.approx(best_score, abs=1e-9)
        assert any(greedy.parents == d.parents for d in best_dags)
        skeleton = {frozenset(e) for e in greedy.edges()}
        assert skeleton == {frozenset({0, 1}), frozenset({1, 2})}

    def test_max_parents_zero(self):
        states = chain_states(seed=1, m=500)
        assert k2_search(states, max_parents=0, lag=0).edges() == []

    def test_greedy_never_below_empty_graph(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            states = states_from_grid(rng.integers(1, 3, size=(200, 4)), 2)
            dag = k2_search(states, max_parents=2, lag=0)
            empty = sum(penalized_family_score(states, i, [], 0) for i in range(4))
            assert penalized_total(states, dag) >= empty - 1e-9

    def test_greedy_near_optimal_on_random_three_node_instances(self):
        # Greedy may be suboptimal, but on small instances it should reach
        # the exhaustive optimum in at least 90 of 100 random draws.
        rng = np.random.default_rng(88)
        hits = 0
        for _ in range(100):
            base = rng.integers(1, 3, size=(300, 3))
            if rng.random() < 0.5:
                mask = rng.random(300) < rng.uniform(0.05, 0.4)
                base[:, 2] = np.where(mask, 3 - base[:, 0], base[:, 0])
            states = states_from_grid(base, 2)
            greedy = k2_search(states, max_parents=2, lag=0)
            best_score, _ = exhaustive_argmax(states)
            if abs(penalized_total(states, greedy) - best_score) <= 1e-9:
                hits += 1
        assert hits >= 90


@st.composite
def search_cases(draw):
    """Small state matrices with constant columns and planted (lagged) copies."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(1, k + 1, size=(m, n))
    for j in range(n):
        kind = draw(st.sampled_from(["random", "constant", "copy", "lagged-copy", "noisy-copy"]))
        if kind == "constant":
            grid[:, j] = draw(st.integers(1, k))
        elif kind != "random" and j > 0:
            col = grid[:, draw(st.integers(0, j - 1))].copy()
            if kind == "lagged-copy":
                col = np.roll(col, 1)
            elif kind == "noisy-copy":
                flip = rng.random(m) < 0.2
                col[flip] = rng.integers(1, k + 1, size=int(flip.sum()))
            grid[:, j] = col
    return states_from_grid(grid, k)


class TestBatchedSearch:
    """The one-product-per-depth search against the per-candidate oracle."""

    @settings(max_examples=150, deadline=None)
    @given(search_cases(), st.sampled_from([0, 1]), st.sampled_from([8, 64]), st.data())
    def test_matches_scalar_oracle(self, states, lag, block, data):
        max_parents = data.draw(st.integers(0, 5 if states.state_count == 2 else 3))
        expected = scalar_k2_search(states, max_parents, lag)
        assert k2_search(states, max_parents, lag) == expected
        # Tiny blocks split both the node chunks and the row blocks.
        with patch.object(bayesnet, "_BLOCK", block):
            assert k2_search(states, max_parents, lag) == expected

    @settings(max_examples=150, deadline=None)
    @given(search_cases(), st.sampled_from([0, 1]), st.sampled_from([8, 64, bayesnet._BLOCK]), st.data())
    def test_trial_scores_equal_family_scores(self, states, lag, block, data):
        n, k = states.n, states.state_count
        depth = data.draw(st.integers(0, min(2, n - 2)))
        nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        grid = states.states - 1
        parent_rows, child_rows = (grid, grid) if lag == 0 else (grid[:-1], grid[1:])
        chosen = {}
        bases = np.zeros((parent_rows.shape[0], len(nodes)), dtype=np.int64)
        for i, node in enumerate(nodes):
            chosen[node] = data.draw(st.permutations([c for c in range(n) if c != node]))[:depth]
            for p in chosen[node]:
                bases[:, i] = bases[:, i] * k + parent_rows[:, p]
        with patch.object(bayesnet, "_BLOCK", block):
            counts = _depth_counts(parent_rows, child_rows, bases, nodes, depth + 1, k)
        trials = _penalized_scores(counts, states.m).tolist()
        for i, node in enumerate(nodes):
            for cand in range(n):
                if cand == node or cand in chosen[node]:
                    continue
                family = chosen[node] + [cand]
                reference = oracles.penalized_family_score(states, node, family, lag)
                assert trials[i * n + cand] == reference == penalized_family_score(states, node, family, lag)
                assert np.array_equal(counts[i * n + cand], count_states(states, node, family, lag))


@st.composite
def search_stacks(draw):
    """Stacks of S = 1..4 same-shape windows with constant columns and
    exact, lagged, noisy and relabeled copies. A relabeled copy permutes
    another column's states, so its trial scores tie that column's up to
    the order of summation: ties far inside the 1e-12 margin."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(1, k + 1, size=(draw(st.integers(1, 4)), m, n))
    for j in range(n):
        kind = draw(st.sampled_from(["random", "constant", "copy", "lagged-copy", "noisy-copy", "relabeled"]))
        if kind == "constant":
            grid[:, :, j] = draw(st.integers(1, k))
        elif kind != "random" and j > 0:
            col = grid[:, :, draw(st.integers(0, j - 1))].copy()
            if kind == "lagged-copy":
                col = np.roll(col, 1, axis=1)
            elif kind == "noisy-copy":
                flip = rng.random(col.shape) < 0.2
                col[flip] = rng.integers(1, k + 1, size=int(flip.sum()))
            elif kind == "relabeled":
                col = rng.permutation(k)[col - 1] + 1
            grid[:, :, j] = col
    return grid, k


def scan_pick(gains):
    """The sequential scan: ascending, a candidate wins when its gain beats the best so far by more than 1e-12."""
    best_gain, best = 0.0, -1
    for cand, gain in enumerate(gains):
        if gain > best_gain + 1e-12:
            best_gain, best = gain, cand
    return best


def no_pruning(current, d, k, m):
    return np.zeros(len(current), dtype=bool)


class TestStackedSearch:
    """One search over a stack of windows against one scalar search per window."""

    @settings(max_examples=150, deadline=None)
    @given(search_stacks(), st.sampled_from([0, 1]), st.sampled_from([8, 64, bayesnet._BLOCK]), st.data())
    def test_each_window_matches_the_scalar_oracle(self, stack, lag, block, data):
        windows, k = stack
        s_count, _, n = windows.shape
        max_parents = data.draw(st.integers(0, 5 if k == 2 else 3))
        with patch.object(bayesnet, "_BLOCK", block):
            parent_sets, groups = _stacked_search(windows, k, max_parents, lag)
        tables = {}
        for p, (families, stack_) in groups.items():
            assert all(len(parent_sets[f]) == p for f in families.tolist())
            tables.update(zip(families.tolist(), stack_))
        assert sorted(tables) == list(range(s_count * n))
        for s, window in enumerate(windows):
            states = states_from_grid(window, k)
            searched = parent_sets[s * n : (s + 1) * n]
            assert tuple(map(tuple, searched)) == scalar_greedy_parents(states, max_parents, lag)
            for j, parents in enumerate(searched):
                assert np.array_equal(tables[s * n + j], count_states(states, j, parents, lag))

    @pytest.mark.parametrize(
        ("gains", "pick"),
        [
            ([1.0, 1.0 + 0.6e-12, 1.0 + 1.2e-12], 2),
            ([1.0, 1.0 + 0.6e-12], 0),
            ([-math.inf, 1.0 + 0.6e-12, 1.0], 1),
            ([0.6e-12, 1.0e-12, -math.inf], -1),
            ([-math.inf, 1.1e-12], 1),
            ([-math.inf, -math.inf], -1),
        ],
    )
    def test_picks_hand_worked(self, gains, pick):
        assert scan_pick(gains) == pick
        assert _picks(np.array([gains])).tolist() == [pick]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_picks_match_the_scan_on_near_ties(self, data):
        # Gains a few half-margins apart around 0, the margin itself and
        # larger values, among masked and arbitrary candidates.
        n = data.draw(st.integers(2, 8))
        base = data.draw(st.sampled_from([0.0, 1e-12, 2e-12, 1.0, 1e3]))
        near = st.integers(-6, 6).map(lambda j: base + j * 0.5e-12)
        cell = st.one_of(near, near, st.just(-math.inf), st.floats(-5, 5))
        rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=6))
        assert _picks(np.array(rows)).tolist() == [scan_pick(row) for row in rows]

    @settings(max_examples=100, deadline=None)
    @given(search_stacks(), st.sampled_from([0, 1]), st.data())
    def test_pruning_never_changes_a_network(self, stack, lag, data):
        windows, k = stack
        max_parents = data.draw(st.integers(0, 5 if k == 2 else 3))
        parent_sets, groups = _stacked_search(windows, k, max_parents, lag)
        with patch.object(bayesnet, "_hopeless", no_pruning):
            unpruned_sets, unpruned = _stacked_search(windows, k, max_parents, lag)
        assert parent_sets == unpruned_sets and sorted(groups) == sorted(unpruned)
        for p, (families, counts) in groups.items():
            assert np.array_equal(families, unpruned[p][0]) and np.array_equal(counts, unpruned[p][1])

    def test_pruning_skips_most_of_depth_2_on_realtime_data(self):
        # Ten 60-row training windows of lagged copies with 10% noise, as RSDRDA learns them.
        data = synth_generate(43, 1000, 40, "lagged-copy", copies={2 * i + 1: 2 * i for i in range(10)}, noise_frac=0.1)
        windows = discretize(data, fit_discretization(data)).states.reshape(10, 100, 40)[:, :60]

        def depth_2_families(hopeless):
            counted = []

            def spy(parent_rows, child_rows, bases, nodes, d, k):
                counted.append(len(nodes) if d == 2 else 0)
                return _depth_counts(parent_rows, child_rows, bases, nodes, d, k)

            with patch.object(bayesnet, "_depth_counts", spy), patch.object(bayesnet, "_hopeless", hopeless):
                return _stacked_search(windows, 3, 3, 1)[0], sum(counted)

        pruned_sets, pruned = depth_2_families(bayesnet._hopeless)
        unpruned_sets, unpruned = depth_2_families(no_pruning)
        assert pruned_sets == unpruned_sets
        assert 0 < pruned < unpruned / 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 5), st.integers(0, 3), st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 40, 5000])
    )
    def test_loglik_kernel_equals_the_per_cell_terms(self, k, p, c, seed, top):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, top + 1, size=(c, k**p, k))
        counts[rng.random(counts.shape) < 0.3] = 0  # empty cells
        counts[rng.random(counts.shape[:2]) < 0.3] = 0  # all-zero rows
        expected = np.sum(oracles.loglik_terms(counts).reshape(c, -1), axis=1)
        assert _logliks(counts).tobytes() == expected.tobytes()
        assert _logliks(counts).tolist() == [float(np.sum(oracles.loglik_terms(t))) for t in counts]


def assert_counts_reused(net, states, lag):
    """Every count table is count_states of its family, the network's JSON
    equals that of counts made by make_cpt, and the score from the kept
    counts equals the recounted score bit for bit."""
    for i, counts in enumerate(net.counts):
        assert np.array_equal(counts, count_states(states, i, net.dag.parents[i], lag))
    assert fitted_score(net) == oracles.score(states, net.dag, lag)
    recounted = replace(net, counts=tuple(make_cpt(states, i, ps, lag)[0] for i, ps in enumerate(net.dag.parents)))
    assert json.dumps(network_to_dict(net), sort_keys=True) == json.dumps(network_to_dict(recounted), sort_keys=True)


class TestReusedFamilyCounts:
    """learn_static and learn_transition hold the search's own count tables."""

    @settings(max_examples=150, deadline=None)
    @given(search_cases(), st.sampled_from([8, 64]), st.data())
    def test_counts_equal_recount(self, states, block, data):
        max_parents = data.draw(st.integers(0, 5 if states.state_count == 2 else 3))
        for blocking in (nullcontext(), patch.object(bayesnet, "_BLOCK", block)):
            with blocking:
                assert_counts_reused(learn_static(states, max_parents), states, 0)
                assert_counts_reused(learn_transition(states, max_parents), states, 1)

    def test_family_changed_by_cycle_repair(self, monkeypatch):
        # x1 and x2 copy each other, so each picks the other and repair
        # drops one edge of the two-cycle.
        repairs = []

        def spy(dag, states):
            repaired = repair_cycles(dag, states)
            repairs.append((dag, repaired))
            return repaired

        monkeypatch.setattr(bayesnet, "repair_cycles", spy)
        states = chain_states(seed=4)
        net = learn_static(states, max_parents=2)
        [(searched, repaired)] = repairs
        assert len(repaired.edges()) < len(searched.edges())
        assert net.dag == repaired
        assert_counts_reused(net, states, 0)


class TestCptCellCap:
    @pytest.mark.parametrize("k, max_parents", [(3, 3), (4, 5), (2, 11), (64, 1), (1, 10**9)])
    def test_at_or_under_cap_accepted(self, k, max_parents):
        check_cpt_cells(k, max_parents)

    @pytest.mark.parametrize("k, max_parents", [(4, 6), (2, 12), (65, 1), (64, 5), (2, 10**9)])
    def test_over_cap_rejected(self, k, max_parents):
        with pytest.raises(ValueError, match="MAX_CPT_CELLS"):
            check_cpt_cells(k, max_parents)

    def test_search_rejects_before_allocating(self):
        states = states_from_grid(np.tile(np.arange(1, 65), (2, 1)).T, 64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="k_states=64 with max_parents=5"):
                k2_search(states, max_parents=5, lag=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("k, max_parents", [(64, 1), (2, 11), (4, 5)])
    def test_learning_memory_bounded(self, k, max_parents, monkeypatch):
        # Noisy copies of one latent column, so that at small K nodes search
        # several parents deep. A full rows x n*K one-hot of the candidates
        # alone would take 20 MB at K=64. The bound is off, so every family
        # counts every depth it reaches: at K=64 it would stop them all before
        # the first parent.
        rng = np.random.default_rng(15)
        latent = rng.integers(1, k + 1, size=2000)
        grid = np.where(rng.random((2000, 40)) < 0.3, rng.integers(1, k + 1, size=(2000, 40)), latent[:, None])
        states = states_from_grid(grid, k)
        data = SensorDataset(grid.astype(float), [f"n{j}" for j in range(40)])
        counted = []

        def spy(*args):
            counted.append(1)
            return _depth_counts(*args)

        monkeypatch.setattr(bayesnet, "_hopeless", no_pruning)
        monkeypatch.setattr(bayesnet, "_depth_counts", spy)
        calls = []
        tracemalloc.start()
        try:
            for learn in (
                lambda: learn_static(states, max_parents),
                lambda: learn_transition(states, max_parents),
                # Ten slices of 200 rows, each learned from its first 100.
                lambda: rsdrda_schedule(data, 200, 0.5, 0.95, trivial_scheme(40, k), max_parents),
            ):
                counted.clear()
                learn()
                calls.append(len(counted))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert min(calls) > 0


def on_a_cycle(dag, node):
    """Whether a path of parent -> child edges leads from node back to itself."""
    reached, frontier = set(), [node]
    while frontier:
        current = frontier.pop()
        for child in range(dag.n):
            if current in dag.parents[child] and child not in reached:
                reached.add(child)
                frontier.append(child)
    return node in reached


class TestRepairCycles:
    def test_acyclic_input_unchanged(self):
        states = chain_states(seed=2, m=300)
        dag = Dag(3, ((), (0,), (1,)))
        assert repair_cycles(dag, states).parents == dag.parents

    def test_symmetric_two_cycle_tie_breaks_lexicographically(self):
        # A symmetric joint count matrix makes both deletion losses exactly
        # equal, so the (child, parent) = (0, 1) edge goes first.
        grid = np.array([[1, 1], [1, 2], [2, 1], [2, 2]] * 25)
        states = states_from_grid(grid, 2)
        repaired = repair_cycles(Dag(2, ((1,), (0,))), states)
        assert repaired.parents == ((), (0,))

    def test_weaker_edge_of_two_cycle_removed(self):
        # Brute-force evaluation of both candidate deletions is the oracle.
        states = chain_states(seed=3)
        dag = Dag(3, ((1,), (0, 2), ()))
        loss_remove_1_to_0 = penalized_family_score(states, 0, [1], 0) - penalized_family_score(states, 0, [], 0)
        loss_remove_0_to_1 = penalized_family_score(states, 1, [0, 2], 0) - penalized_family_score(states, 1, [2], 0)
        repaired = repair_cycles(dag, states)
        assert repaired.is_acyclic()
        if loss_remove_0_to_1 < loss_remove_1_to_0:
            assert repaired.parents == ((1,), (2,), ())
        else:
            assert repaired.parents == ((), (0, 2), ())

    def test_three_cycle_single_removal(self):
        rng = np.random.default_rng(9)
        states = states_from_grid(rng.integers(1, 3, size=(400, 3)), 2)
        dag = Dag(3, ((2,), (0,), (1,)))
        repaired = repair_cycles(dag, states)
        assert repaired.is_acyclic()
        assert len(repaired.edges()) == 2

    def test_each_family_counted_once(self, monkeypatch):
        # Every node has all three others as parents, so the repair takes
        # several passes over cycles that share families. Each child is
        # counted at most once, always with its full parent set, and the
        # repair removes the same edges as one that counts every family.
        rng = np.random.default_rng(12)
        states = states_from_grid(rng.integers(1, 3, size=(300, 4)), 2)
        dag = Dag(4, tuple(tuple(p for p in range(4) if p != c) for c in range(4)))
        counted = []

        def spy(states, node, parents, lag=0):
            counted.append((node, tuple(parents)))
            return count_states(states, node, parents, lag)

        monkeypatch.setattr(bayesnet, "count_states", spy)
        repaired = repair_cycles(dag, states)
        assert repaired.is_acyclic()
        assert 0 < len(counted) == len({node for node, _ in counted}) <= dag.n
        assert all(parents == dag.parents[node] for node, parents in counted)
        assert repaired == oracles.repair_cycles(dag, states)

    @settings(max_examples=100, deadline=None)
    @given(search_cases(), st.data())
    def test_search_counts_only_children_on_cycles(self, states, data):
        # learn_static counts nothing itself: repair_cycles counts each child
        # on a cycle of the searched graph once, with its searched parents,
        # and the repaired families' tables are that count summed out.
        max_parents = data.draw(st.integers(0, 3))
        searched, counted = [], []

        def repair_spy(dag, states):
            searched.append(dag)
            return repair_cycles(dag, states)

        def count_spy(states, node, parents, lag=0):
            counted.append((node, tuple(parents)))
            return count_states(states, node, parents, lag)

        with patch.object(bayesnet, "repair_cycles", repair_spy), patch.object(bayesnet, "count_states", count_spy):
            net = learn_static(states, max_parents)
        [dag] = searched
        assert len(counted) == len({node for node, _ in counted})
        assert all(parents == dag.parents[node] and on_a_cycle(dag, node) for node, parents in counted)
        assert net.dag == oracles.repair_cycles(dag, states)
        assert_counts_reused(net, states, 0)


class TestLearnTransition:
    def test_lagged_copy_identity_cpt(self):
        rng = np.random.default_rng(10)
        driver = rng.integers(1, 4, size=501)
        grid = np.column_stack([driver[1:], driver[:-1]])
        states = states_from_grid(grid, 3)
        tn = learn_transition(states, max_parents=2)
        assert tn.dag.parents[1] == (0,)
        np.testing.assert_allclose(estimate_cpt(tn.counts[1]), np.eye(3), atol=1e-12)

    def test_iid_columns_no_transition_parents(self):
        rng = np.random.default_rng(11)
        states = states_from_grid(rng.integers(1, 4, size=(3000, 4)), 3)
        tn = learn_transition(states, max_parents=3)
        assert tn.dag.edges() == []

    def test_priors_are_marginal_frequencies(self):
        states = states_from_grid(np.array([[1, 1], [1, 2], [2, 1], [2, 2]]), 2)
        tn = learn_transition(states, max_parents=1)
        np.testing.assert_allclose(tn.priors, [[0.5, 0.5], [0.5, 0.5]])

    def test_priors_sum_to_one(self):
        rng = np.random.default_rng(12)
        states = states_from_grid(rng.integers(1, 4, size=(100, 3)), 3)
        tn = learn_transition(states)
        np.testing.assert_allclose(tn.priors.sum(axis=1), 1.0, atol=1e-12)


class TestParentMarginal:
    def test_marginalizes_by_counts(self):
        # counts rows in (a, b) mixed-radix order; marginal over b for a=1
        # sums rows 0 and 1.
        counts = np.array([[8, 1], [1, 0], [0, 1], [5, 5]])
        np.testing.assert_allclose(parent_marginal(counts, 2, 0, 1), [0.9, 0.1])
        np.testing.assert_allclose(parent_marginal(counts, 2, 1, 1), [0.8, 0.2])

    def test_unseen_slice_is_uniform(self):
        counts = np.array([[3, 1], [0, 0]])
        np.testing.assert_allclose(parent_marginal(counts, 1, 0, 2), [0.5, 0.5])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 2**32 - 1), st.booleans())
    def test_table_matches_per_slice_digit_sums(self, k, p, seed, sparse):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 40, size=(k**p, k))
        if sparse:  # empty configuration rows and never-observed slices
            counts *= rng.random(counts.shape) < 0.2
        table = parent_marginals(counts, p)
        assert table.shape == (p, k, k)
        for position in range(p):
            for state in range(1, k + 1):
                expected = digit_parent_marginal(counts, p, position, state)
                assert np.array_equal(table[position, state - 1], expected)
                assert np.array_equal(parent_marginal(counts, p, position, state), expected)

    def test_rejects_position_and_state_out_of_range(self):
        counts = np.array([[3, 1], [0, 0]])
        with pytest.raises(ValueError, match="position"):
            parent_marginal(counts, 1, 1, 1)
        with pytest.raises(ValueError, match="outside"):
            parent_marginal(counts, 1, 0, 3)


class TestOneStateCount:
    @pytest.mark.parametrize(
        "build",
        [
            lambda dag, counts: bayesnet.StaticNetwork(dag, counts),
            lambda dag, counts: bayesnet.TransitionNetwork(dag, counts, np.full((2, 3), 1 / 3)),
        ],
        ids=["static", "transition"],
    )
    def test_mixed_state_counts_rejected(self, build):
        # The first table has K=3, the second K=4: a check that reads only
        # counts[0] would take the network for a K=3 one.
        dag = Dag(2, ((), (0,)))
        with pytest.raises(ValueError, match="node 1 has 4 states, node 0 has 3: one network needs one K"):
            build(dag, (np.ones((1, 3), int), np.ones((4, 4), int)))
        build(dag, (np.ones((1, 3), int), np.ones((3, 3), int)))


class TestCountTablesMatchTheDag:
    """Each network checks its count tables against its own DAG, and every error names the node."""

    BUILDS = [
        pytest.param(lambda dag, counts: StaticNetwork(dag, counts), id="static"),
        pytest.param(lambda dag, counts: TransitionNetwork(dag, counts, np.full((dag.n, 3), 1 / 3)), id="transition"),
    ]

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize(
        ("counts", "message"),
        [
            # Node 0 has parent 1, so its table needs 3 rows; the tables are in the wrong node order.
            ((np.ones((1, 3)), 5 * np.eye(3)), r"node 0 needs 3\^1 = 3 configuration rows, got 1"),
            ((np.ones((3, 3)), np.ones((3, 3))), r"node 1 needs 3\^0 = 1 configuration rows, got 3"),
            ((np.ones((3, 3)), np.array([[1, -1, 1]])), "node 1: counts must be nonnegative"),
            ((np.ones((3, 3)), np.ones((1, 4))), "node 1 has 4 states, node 0 has 3: one network needs one K"),
            ((np.ones(3), np.ones((1, 3))), r"node 0: count table must be 2-D, got shape \(3,\)"),
            ((np.ones((3, 3)),), "need one count table per node: 2 nodes, 1 tables"),
        ],
        ids=["rows-node-0", "rows-node-1", "negative", "mixed-K", "not-2-D", "one-per-node"],
    )
    def test_rejected_naming_the_node(self, build, counts, message):
        with pytest.raises(ValueError, match=message):
            build(Dag(2, ((1,), ())), counts)

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize(
        "row",
        [[2.7, 1, 1], [math.nan, 1, 1], [math.inf, 1, 1], [True] * 3, ["1"] * 3, [2**63, 1, 1], [1e19, 1, 1]],
        ids=["fraction", "nan", "inf", "bool", "str", "2**63", "1e19"],
    )
    def test_non_integral_counts_rejected(self, build, row):
        # A count beyond int64 would wrap to a negative one when cast.
        with pytest.raises(ValueError, match=r"node 1: counts must be whole numbers below 2\*\*63"):
            build(Dag(2, ((1,), ())), (5 * np.eye(3), np.array([row])))

    def test_static_from_dict_rejects_a_fraction_and_loads_whole_floats(self):
        doc = {"parents": [[], [0]], "counts": [[[2.7, 1, 1]], np.eye(3).tolist()]}
        with pytest.raises(ValueError, match="node 0: counts must be whole numbers"):
            static_from_dict(doc)
        doc["counts"][0] = [[2.0, 1.0, 1.0]]
        net = static_from_dict(doc)
        assert [c.dtype for c in net.counts] == [np.int64, np.int64]
        assert net.counts[0].tolist() == [[2, 1, 1]] and net.counts[1].tolist() == np.eye(3, dtype=int).tolist()

    @pytest.mark.parametrize("build", BUILDS)
    def test_int64_tables_are_held_without_a_copy(self, build):
        counts = (5 * np.eye(3, dtype=np.int64), np.ones((1, 3), dtype=np.int64))
        net = build(Dag(2, ((1,), ())), counts)
        assert isinstance(net.counts, tuple) and all(held is given for held, given in zip(net.counts, counts))

    def test_node_0_with_a_deterministic_table_is_redundant(self):
        # Node 0 copies node 1, so node 0 is redundant and parentless node 1 is not.
        net = StaticNetwork(Dag(2, ((1,), ())), (5 * np.eye(3, dtype=np.int64), np.ones((1, 3), dtype=np.int64)))
        report = ssdrda(net, 0.95)
        assert report.redundant.tolist() == [True, False] and report.redundant_nodes() == [0]
        assert report.criterion.tolist() == [1.0, 0.0] and report.witness == ([1.0, 1.0, 1.0], [])


class TestSerialization:
    def test_static_roundtrip(self):
        rng = np.random.default_rng(13)
        states = states_from_grid(rng.integers(1, 3, size=(300, 3)), 2)
        net = learn_static(states, max_parents=2)
        back = static_from_dict(network_to_dict(net))
        assert back.dag.parents == net.dag.parents
        for orig, copy in zip(net.counts, back.counts):
            np.testing.assert_array_equal(estimate_cpt(orig), estimate_cpt(copy))
            np.testing.assert_array_equal(orig, copy)

    def test_transition_roundtrip(self):
        rng = np.random.default_rng(14)
        states = states_from_grid(rng.integers(1, 3, size=(300, 3)), 2)
        tn = learn_transition(states, max_parents=2)
        back = transition_from_dict(network_to_dict(tn))
        assert back.dag.parents == tn.dag.parents
        np.testing.assert_array_equal(back.priors, tn.priors)

    def test_files_with_tables_load_equal(self):
        # Files written when each CPT table was stored beside its counts
        # still load: the tables key is ignored and every table, estimated
        # from the counts again, equals the stored one bit for bit.
        rng = np.random.default_rng(15)
        grid = rng.integers(1, 4, size=(200, 5))
        grid[:, 0] = rng.integers(1, 3, size=200)  # node 0 never in state 3: a uniform row below
        grid[:, 1] = grid[:, 0]  # node 1 copies node 0
        grid[1:, 2] = grid[:-1, 0]  # node 2 copies node 0 one step late
        states = states_from_grid(grid, 3)
        for net, from_dict, body in (
            (learn_static(states), static_from_dict, ["counts", "parents"]),
            (learn_transition(states), transition_from_dict, ["counts", "parents", "priors"]),
        ):
            doc = network_to_dict(net)
            assert sorted(doc) == body
            stored = json.loads(json.dumps({**doc, "tables": [estimate_cpt(c).tolist() for c in net.counts]}))
            back = from_dict(stored)
            assert any((c.sum(axis=1) == 0).any() for c in back.counts)
            for table, counts in zip(stored["tables"], back.counts):
                assert estimate_cpt(counts).tobytes() == np.array(table).tobytes()
