"""Bayesian-network learning over discretized sensor streams.

Covers same-slice (static) networks and two-slice transition networks:
state counting, conditional probability table estimation, log-likelihood
scoring, greedy per-node parent search, and cycle repair for the static
case. Parent configurations are enumerated in mixed-radix order with the
first listed parent most significant.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import StateMatrix

__all__ = [
    "Dag",
    "StaticNetwork",
    "TransitionNetwork",
    "count_states",
    "estimate_cpt",
    "fitted_score",
    "family_score",
    "penalized_family_score",
    "k2_search",
    "MAX_CPT_CELLS",
    "check_cpt_cells",
    "repair_cycles",
    "learn_static",
    "learn_transition",
    "parent_marginal",
    "parent_marginals",
    "network_to_dict",
    "static_from_dict",
    "transition_from_dict",
]

# Cap on K^max_parents * K, the cells of one CPT at the largest parent set.
MAX_CPT_CELLS = 4096

# Cap on the cells of each one-hot block and each count stack that structure
# search builds; a stack still holds at least one node's n * MAX_CPT_CELLS.
_BLOCK = 1 << 18


@dataclass(frozen=True)
class Dag:
    """Directed graph over n nodes stored as per-node ordered parent tuples.

    Static networks must be acyclic (is_acyclic). Transition networks
    reuse the same structure with edges meaning "parent at t-1 -> child at
    t"; the unrolled two-slice graph is bipartite and cannot cycle, so the
    intra-slice view is allowed to look cyclic there.
    """

    n: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.parents) != self.n:
            raise ValueError(f"expected {self.n} parent sets, got {len(self.parents)}")
        parents = tuple(tuple(int(p) for p in ps) for ps in self.parents)
        object.__setattr__(self, "parents", parents)
        for i, ps in enumerate(parents):
            if len(set(ps)) != len(ps):
                raise ValueError(f"node {i} has duplicate parents")
            for p in ps:
                if not 0 <= p < self.n:
                    raise ValueError(f"node {i}: parent index {p} out of range")
                if p == i:
                    raise ValueError(f"node {i} cannot be its own parent")

    def edges(self) -> list[tuple[int, int]]:
        """All (parent, child) pairs."""
        return [(p, c) for c in range(self.n) for p in self.parents[c]]

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self) -> list[tuple[int, int]] | None:
        """First directed cycle as (parent, child) edges in traversal order, or None.

        graphlib's depth-first cycle search visits nodes, and each node's
        successors, in the order they were added: here ascending, so roots
        and every node's children are visited in ascending order. Which
        cycle comes back relies on that order; a test holds it to the
        hand-written search kept as `oracles.find_cycle` in the test suite.
        """
        sorter = graphlib.TopologicalSorter({node: () for node in range(self.n)})
        for child in range(self.n):
            sorter.add(child, *self.parents[child])
        try:
            sorter.prepare()
        except graphlib.CycleError as err:
            return list(itertools.pairwise(err.args[1]))
        return None


def _checked_counts(dag: Dag, counts: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One H x K int64 count table per node of dag, H = K^|parents|, one K across the network."""
    tables = [np.asarray(c) for c in counts]
    if len(tables) != dag.n:
        raise ValueError(f"need one count table per node: {dag.n} nodes, {len(tables)} tables")
    for i, (table, parents) in enumerate(zip(tables, dag.parents)):
        whole = table.dtype.kind in "iuf" and np.all(np.isfinite(table) & (table == np.trunc(table)) & (table < 2**63))
        if not whole:
            raise ValueError(f"node {i}: counts must be whole numbers below 2**63")
        if table.ndim != 2:
            raise ValueError(f"node {i}: count table must be 2-D, got shape {table.shape}")
        k = tables[0].shape[1]
        h = k ** len(parents)
        if table.shape[1] != k:
            raise ValueError(f"node {i} has {table.shape[1]} states, node 0 has {k}: one network needs one K")
        if table.shape[0] != h:
            raise ValueError(f"node {i} needs {k}^{len(parents)} = {h} configuration rows, got {table.shape[0]}")
        if (table < 0).any():
            raise ValueError(f"node {i}: counts must be nonnegative")
        tables[i] = table.astype(np.int64, copy=False)
    return tuple(tables)


@dataclass(frozen=True)
class StaticNetwork:
    """Acyclic same-slice network: structure plus one count table per node, all over K states.

    counts[i] is node i's `count_states` table given dag.parents[i]; `estimate_cpt` makes its CPT."""

    dag: Dag
    counts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.dag.is_acyclic():
            raise ValueError("graph contains a directed cycle")
        object.__setattr__(self, "counts", _checked_counts(self.dag, self.counts))


@dataclass(frozen=True)
class TransitionNetwork:
    """Two-slice network: per-node parents at t-1, one transition count table
    per node over K states, and single-slice marginal state priors."""

    dag: Dag
    counts: tuple[np.ndarray, ...]
    priors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _checked_counts(self.dag, self.counts))
        object.__setattr__(self, "priors", np.array(self.priors, dtype=float))
        if self.priors.shape != (self.dag.n, self.counts[0].shape[1]):
            raise ValueError(f"priors must be {self.dag.n} x {self.counts[0].shape[1]}")
        if np.abs(self.priors.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("every prior must sum to 1")


def count_states(states: StateMatrix, node: int, parents: Sequence[int], lag: int = 0) -> np.ndarray:
    """Tally node-state occurrences per parent configuration.

    lag=0 counts same-row co-occurrences; lag=1 counts the node's state at
    row t against the parents' states at row t-1 (t = 2..m). Returns an
    H x K integer matrix, H = K^|parents|.
    """
    parents = [int(p) for p in parents]
    k = states.state_count
    n = states.n
    if not 0 <= node < n:
        raise ValueError(f"node index {node} out of range")
    for p in parents:
        if not 0 <= p < n:
            raise ValueError(f"parent index {p} out of range")
    if lag not in (0, 1):
        raise ValueError(f"lag must be 0 or 1, got {lag}")
    if lag == 0 and node in parents:
        raise ValueError(f"node {node} cannot be its own same-slice parent")
    if lag == 1 and states.m < 2:
        raise ValueError("need at least 2 rows for transition counts")

    grid = states.states - 1
    parent_rows, child_rows = (grid, grid) if lag == 0 else (grid[:-1], grid[1:])
    # Mixed-radix configuration index, first parent most significant.
    config = parent_rows[:, parents] @ k ** np.arange(len(parents) - 1, -1, -1)
    return _family_counts(config[None], child_rows[None, :, node], len(parents), k)[0]


def estimate_cpt(counts: np.ndarray) -> np.ndarray:
    """Row-normalize counts into conditional probabilities.

    Rows observed at least once use the raw maximum-likelihood ratios; rows
    with zero total become uniform so downstream inference stays total.
    """
    counts = np.asarray(counts)
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    totals = counts.sum(axis=-1, keepdims=True).astype(float)
    return np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 1.0 / counts.shape[-1])


def family_score(states: StateMatrix, node: int, parents: Sequence[int], lag: int = 0) -> float:
    """Maximum-likelihood log score of one node given its parents: sum of N log(theta), empty cells 0."""
    return float(_logliks(count_states(states, node, parents, lag)[None])[0])


def _logliks(counts: np.ndarray) -> np.ndarray:
    """Sum of N log(theta) over each H x K block of a c x H x K count stack, 0 for empty cells.

    Row totals are K explicit float adds, exact for counts; an empty cell's
    ratio is 0 / total + 1, whose log is 0. Each block's H*K cells are summed
    as one contiguous row, in numpy's pairwise order, as `np.sum` of one table.
    """
    c, h, k = counts.shape
    cells = counts.astype(np.float64).reshape(c, h * k)
    totals = sum(cells[:, j::k] for j in range(k))
    ratio = cells / np.repeat(np.maximum(totals, 1.0), k, axis=1)
    ratio += cells == 0
    np.log(ratio, out=ratio)
    ratio *= cells
    return np.sum(ratio, axis=1)


def penalized_family_score(states: StateMatrix, node: int, parents: Sequence[int], lag: int = 0) -> float:
    """Family log-likelihood minus a BIC penalty of (free parameters / 2) log m.

    The raw likelihood never decreases when parents are added, so greedy
    search without a node ordering needs the penalty to stop. This is
    `_penalized_scores`, the score of structure search, of one count table.
    """
    return float(_penalized_scores(count_states(states, node, parents, lag)[None], states.m)[0])


def fitted_score(net: StaticNetwork | TransitionNetwork) -> float:
    """Network log-likelihood, the sum of `family_score` over its nodes, from the count tables it holds."""
    return sum(float(_logliks(counts[None])[0]) for counts in net.counts)


def check_cpt_cells(k_states: int, max_parents: int) -> None:
    """Reject a state count and parent cap whose CPTs exceed MAX_CPT_CELLS cells.

    The exponent is clipped before the power is taken: any k_states >= 2
    raised to MAX_CPT_CELLS.bit_length() already exceeds the cap, so huge
    max_parents values are rejected without building a huge integer.
    """
    exponent = min(max_parents + 1, MAX_CPT_CELLS.bit_length())
    if k_states**exponent > MAX_CPT_CELLS:
        raise ValueError(
            f"k_states={k_states} with max_parents={max_parents} needs k_states**(max_parents + 1) "
            f"CPT cells per node, more than MAX_CPT_CELLS={MAX_CPT_CELLS}"
        )


def _one_hot(values: np.ndarray, width: int) -> np.ndarray:
    """float32 one-hot of an r x c array of values in [0, width), as r x (c * width)."""
    r, c = values.shape
    out = np.zeros((r, c * width), dtype=np.float32)
    out.reshape(-1)[values + np.arange(c) * width + (np.arange(r) * (c * width))[:, None]] = 1
    return out


def _depth_counts(
    parent_rows: np.ndarray, child_rows: np.ndarray, bases: np.ndarray, nodes: list[int], d: int, k: int
) -> np.ndarray:
    """count_states table of every (node, candidate) family with d parents.

    parent_rows and child_rows hold lag-shifted 0-based states, bases the
    configuration index of each node's d - 1 chosen parents. Block i * n + j
    of the (len(nodes) * n, K^d, K) stack counts nodes[i] given its chosen
    parents then candidate j. The float32 one-hot product of each row block
    is exact, as a block has far fewer than 2^24 rows.
    """
    rows, n = parent_rows.shape
    cols = len(nodes) * k**d
    total = np.zeros((cols, n * k), dtype=np.int64)
    step = max(1, _BLOCK // max(cols, n * k))
    for lo in range(0, rows, step):
        o = _one_hot(bases[lo : lo + step] * k + child_rows[lo : lo + step, nodes], k**d)
        total += (o.T @ _one_hot(parent_rows[lo : lo + step], k)).astype(np.int64)
    # (node, chosen configuration, child, candidate, candidate state) ->
    # (node, candidate, chosen configuration, candidate state, child)
    return total.reshape(len(nodes), k ** (d - 1), k, n, k).transpose(0, 3, 1, 4, 2).reshape(-1, k**d, k)


def _penalized_scores(counts: np.ndarray, m: int) -> np.ndarray:
    """penalized_family_score of each H x K block of a c x H x K count stack."""
    c, h, k = counts.shape
    free = h * (k - 1)
    return _logliks(counts) - 0.5 * free * math.log(m)


def k2_search(states: StateMatrix, max_parents: int = 3, lag: int = 0) -> Dag:
    """Greedy per-node parent selection maximizing the penalized score.

    Each node independently adds the other node that most improves its
    penalized family score, by more than 1e-12 (ties: the lowest index),
    until none does or max_parents is reached. The per-node search can make
    cycles in the same-slice case, so lag=0 results pass through
    repair_cycles. This is `_stacked_search` of one window; it rejects
    k_states/max_parents pairs over MAX_CPT_CELLS before counting.
    """
    return _searched_network(states, max_parents, lag)[0]


def _stacked_search(windows: np.ndarray, k: int, max_parents: int, lag: int) -> tuple[list[list[int]], dict]:
    """k2_search, short of cycle repair, of every window of an S x m x n stack of 1-based states.

    Family s * n + j is node j of window s. Families advance one parent
    depth at a time: at depth d those that cannot gain a parent stop
    (`_hopeless`), every candidate of the others is counted by one exact
    one-hot product per window and chunk of nodes (`_depth_counts`, at most
    _BLOCK cells per block), and `_picks` chooses from the (families x n)
    gain matrix. Returns every family's parents and, per parent count p,
    (the families with p parents, their count_states tables as one stack).
    """
    if max_parents < 0:
        raise ValueError(f"max_parents must be >= 0, got {max_parents}")
    s_count, m, n = windows.shape
    if lag not in (0, 1) or m < 1 + lag:
        raise ValueError(f"need lag 0 or 1 and more than lag rows, got lag {lag} with {m} rows")
    check_cpt_cells(k, max_parents)
    grid = windows - 1
    parent_rows, child_rows = (grid, grid) if lag == 0 else (grid[:, :-1], grid[:, 1:])
    children = child_rows.transpose(0, 2, 1).reshape(s_count * n, -1)  # row f: family f's child states
    bases = np.zeros(children.shape, dtype=np.int64)  # row f: family f's chosen parents' configuration index
    parent_sets: list[list[int]] = [[] for _ in range(s_count * n)]
    searching = np.arange(s_count * n)
    current = _penalized_scores(_family_counts(bases, children, 0, k), m)
    taken = np.arange(n) == (searching % n)[:, None]  # self and chosen parents: never candidates
    for d in range(1, min(max_parents, n - 1) + 1):
        searching = searching[~_hopeless(current[searching], d, k, m)]
        if not searching.size:
            break
        slices, nodes = np.divmod(searching, n)
        trials = np.empty((searching.size, n))
        chunk = max(1, _BLOCK // (n * k ** (d + 1)))
        for s in sorted(set(slices.tolist())):
            window = np.flatnonzero(slices == s)
            for part in (window[a : a + chunk] for a in range(0, window.size, chunk)):
                counts = _depth_counts(parent_rows[s], child_rows[s], bases[searching[part]].T, nodes[part], d, k)
                trials[part] = _penalized_scores(counts, m).reshape(part.size, n)
        gains = np.where(taken[searching], -math.inf, trials - current[searching, None])
        best = _picks(gains)
        picked = np.flatnonzero(best >= 0)
        searching, best = searching[picked], best[picked]
        current[searching] += gains[picked, best]
        taken[searching, best] = True
        bases[searching] = bases[searching] * k + parent_rows[searching // n, :, best]
        for family, parent in zip(searching.tolist(), best.tolist()):
            parent_sets[family].append(parent)
    sizes = np.array([len(ps) for ps in parent_sets])
    # Not np.unique: its first call imports numpy.ma, about 1 MB that no other learn step needs.
    groups = {p: np.flatnonzero(sizes == p) for p in sorted(set(sizes.tolist()))}
    return parent_sets, {p: (fam, _family_counts(bases[fam], children[fam], p, k)) for p, fam in groups.items()}


def _family_counts(configs: np.ndarray, children: np.ndarray, p: int, k: int) -> np.ndarray:
    """count_states tables, as one F x K^p x K stack, of F families with p parents, from each family's
    row of parent configuration indices (configs, F x rows) and child states (children, F x rows)."""
    cells = k ** (p + 1)
    index = configs * k + children + (np.arange(len(configs)) * cells)[:, None]
    return np.bincount(index.ravel(), minlength=len(configs) * cells).reshape(len(configs), k**p, k)


def _hopeless(current: np.ndarray, d: int, k: int, m: int) -> np.ndarray:
    """Which family scores no parent at depth d can raise by more than 1e-12: no log-likelihood
    exceeds 0, so no trial beats minus the penalty (after de Campos & Ji 2011)."""
    return -(0.5 * (k**d * (k - 1)) * math.log(m)) - current <= 1e-12


def _picks(gains: np.ndarray) -> np.ndarray:
    """The candidate the sequential scan picks in each row of a gain matrix (masked: -inf), -1 for none.

    The scan takes, in ascending order, each candidate whose gain beats the
    best so far, from 0, by more than 1e-12. It ends on a top gain that
    beats 0 and the runner-up by that margin, so there argmax is its pick.
    """
    best = gains.argmax(axis=1)
    top = gains[np.arange(len(gains)), best]
    runner_up = np.partition(gains, gains.shape[1] - 2, axis=1)[:, -2]
    for r in np.flatnonzero((top > 1e-12) & ~(top > runner_up + 1e-12)).tolist():
        best_gain = 0.0
        for cand, gain in enumerate(gains[r].tolist()):  # ascending, so equal gains keep the lowest index
            if gain > best_gain + 1e-12:
                best_gain, best[r] = gain, cand
    return np.where(top > 1e-12, best, -1)


def _searched_network(states: StateMatrix, max_parents: int, lag: int) -> tuple[Dag, list[np.ndarray]]:
    """k2_search's network plus each family's count_states table. A family
    that repair_cycles reduced sums its searched table over the dropped axes."""
    parent_sets, groups = _stacked_search(states.states[None], states.state_count, max_parents, lag)
    tables = {f: table for families, stack in groups.values() for f, table in zip(families.tolist(), stack)}
    counts = [tables[node] for node in range(states.n)]
    dag = Dag(states.n, tuple(map(tuple, parent_sets)))
    if lag == 0:
        dag = repair_cycles(dag, states)
        counts = [_summed_out(c, ps, kept) for c, ps, kept in zip(counts, parent_sets, dag.parents)]
    return dag, counts


def _summed_out(counts: np.ndarray, parents: Sequence[int], kept: Sequence[int]) -> np.ndarray:
    """A family's count table reduced to `kept`, a subsequence of its parents, by summing out the others."""
    k = counts.shape[1]
    dropped = tuple(i for i, p in enumerate(parents) if p not in kept)
    return counts.reshape((k,) * len(parents) + (k,)).sum(axis=dropped).reshape(-1, k) if dropped else counts


def repair_cycles(dag: Dag, states: StateMatrix) -> Dag:
    """Delete edges until the graph is acyclic, losing as little score as possible.

    While a cycle exists, the edge on it whose removal costs the least
    penalized score is dropped; exact ties remove the lexicographically
    smallest (child, parent) pair. Each child on a cycle is counted once,
    with its full parent set, and each family is scored once from that count.
    """
    counted = functools.cache(lambda child: count_states(states, child, dag.parents[child], lag=0))
    family = functools.cache(
        lambda child, ps: _penalized_scores(_summed_out(counted(child), dag.parents[child], ps)[None], states.m)[0]
    )
    parents = [list(ps) for ps in dag.parents]
    while True:
        current = Dag(dag.n, tuple(tuple(ps) for ps in parents))
        cycle = current.find_cycle()
        if cycle is None:
            return current
        _, child, parent = min(  # (score lost by dropping the edge, child, parent)
            (family(c, tuple(parents[c])) - family(c, tuple(q for q in parents[c] if q != p)), c, p) for p, c in cycle
        )
        parents[child] = [p for p in parents[child] if p != parent]


def learn_static(states: StateMatrix, max_parents: int = 3) -> StaticNetwork:
    """Greedy structure search plus each family's counts for the same-slice network."""
    return StaticNetwork(*_searched_network(states, max_parents, lag=0))


def learn_transition(states: StateMatrix, max_parents: int = 3) -> TransitionNetwork:
    """Learn the two-slice network: cross-slice parents, transition counts, priors.

    Cross-slice edges cannot form cycles in the unrolled graph, so no
    repair pass is needed. Priors are single-slice marginal state
    frequencies.
    """
    dag, counts = _searched_network(states, max_parents, lag=1)
    grid = states.states.T - 1
    priors = _family_counts(np.zeros_like(grid), grid, 0, states.state_count)[:, 0] / states.m
    return TransitionNetwork(dag, counts, priors)


def parent_marginals(counts: np.ndarray, parent_count: int) -> np.ndarray:
    """Every single-parent conditional of a K^p x K count table, p = parent_count, as a (p, K, K) table.

    Entry [position, s - 1] is P(node | parent at `position` in state s),
    count-weighted: the joint counts, viewed as a (K,)*p + (K,) array, are
    summed over the other parents' axes, then normalized by `estimate_cpt`,
    so a slice that was never observed is uniform.
    """
    p, k = parent_count, counts.shape[1]
    sums = np.array([_summed_out(counts, range(p), [position]) for position in range(p)], dtype=np.int64)
    return estimate_cpt(sums.reshape(p * k, k)).reshape(p, k, k)


def parent_marginal(counts: np.ndarray, parent_count: int, position: int, parent_state: int) -> np.ndarray:
    """Single-parent conditional P(node | one parent), marginalizing the others.

    One row of `parent_marginals`: the parent at `position` in
    `parent_state` (1-based).
    """
    if not 0 <= position < parent_count:
        raise ValueError(f"parent position {position} out of range")
    k = counts.shape[1]
    if not 1 <= parent_state <= k:
        raise ValueError(f"parent state {parent_state} outside 1..{k}")
    return parent_marginals(counts, parent_count)[position, parent_state - 1]


def network_to_dict(net: StaticNetwork | TransitionNetwork) -> dict:
    """The `static_network` or `transition_network` artifact body: parent lists and count tables.

    Tables are not stored; they are estimated from the counts where they are read.
    """
    doc = {"parents": [list(ps) for ps in net.dag.parents], "counts": [c.tolist() for c in net.counts]}
    if isinstance(net, TransitionNetwork):
        doc["priors"] = net.priors.tolist()
    return doc


def _dag_from_dict(doc: dict) -> Dag:
    return Dag(len(doc["parents"]), tuple(tuple(ps) for ps in doc["parents"]))


def static_from_dict(doc: dict) -> StaticNetwork:
    return StaticNetwork(_dag_from_dict(doc), doc["counts"])


def transition_from_dict(doc: dict) -> TransitionNetwork:
    return TransitionNetwork(_dag_from_dict(doc), doc["counts"], np.array(doc["priors"]))
