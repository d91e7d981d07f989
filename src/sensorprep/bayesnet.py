"""Bayesian-network learning over discretized sensor streams.

Covers same-slice (static) networks and two-slice transition networks:
state counting, conditional probability table estimation, log-likelihood
scoring, greedy per-node parent search, and cycle repair for the static
case. Parent configurations are enumerated in mixed-radix order with the
first listed parent most significant.
"""

from __future__ import annotations

import functools
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
    "score",
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

    Static networks must be acyclic (check_acyclic). Transition networks
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

    def check_acyclic(self) -> None:
        if not self.is_acyclic():
            raise ValueError("graph contains a directed cycle")

    def find_cycle(self) -> list[tuple[int, int]] | None:
        """First directed cycle found by DFS in ascending node order.

        Returned as (parent, child) edges in traversal order, or None.
        """
        children: list[list[int]] = [[] for _ in range(self.n)]
        for c in range(self.n):
            for p in self.parents[c]:
                children[p].append(c)
        for ch in children:
            ch.sort()

        color = [0] * self.n  # 0 unvisited, 1 on stack, 2 done
        for root in range(self.n):
            if color[root]:
                continue
            # Iterative DFS, so long chains cannot hit the recursion limit:
            # `stack` is the current path, `pending` each path node's
            # children still to visit.
            color[root] = 1
            stack = [root]
            pending = [iter(children[root])]
            while stack:
                for child in pending[-1]:
                    if color[child] == 1:
                        cyc = stack[stack.index(child) :] + [child]
                        return list(zip(cyc, cyc[1:]))
                    if color[child] == 0:
                        color[child] = 1
                        stack.append(child)
                        pending.append(iter(children[child]))
                        break
                else:
                    color[stack.pop()] = 2
                    pending.pop()
        return None


def _checked_counts(dag: Dag, counts: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One H x K int64 count table per node of dag, H = K^|parents|, one K across the network."""
    tables = tuple(np.asarray(c, dtype=np.int64) for c in counts)
    if len(tables) != dag.n:
        raise ValueError(f"need one count table per node: {dag.n} nodes, {len(tables)} tables")
    for i, (table, parents) in enumerate(zip(tables, dag.parents)):
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
    return tables


@dataclass(frozen=True)
class StaticNetwork:
    """Acyclic same-slice network: structure plus one count table per node, all over K states.

    counts[i] is node i's `count_states` table given dag.parents[i]; `estimate_cpt` makes its CPT."""

    dag: Dag
    counts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.dag.check_acyclic()
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
    h = k ** len(parents)
    return np.bincount(config * k + child_rows[:, node], minlength=h * k).reshape(h, k)


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
    """Maximum-likelihood log score of one node given its parents.

    Sum of N log(theta) over all cells, with empty cells contributing zero.
    """
    return float(np.sum(_loglik_terms(count_states(states, node, parents, lag))))


def _loglik_terms(counts: np.ndarray) -> np.ndarray:
    """N log(theta) of every cell of a count table (or stack of tables), 0 for empty cells."""
    totals = counts.sum(axis=-1, keepdims=True)
    mask = counts > 0
    ratio = np.where(mask, counts / np.where(totals > 0, totals, 1), 1.0)
    return np.where(mask, counts * np.log(ratio), 0.0)


def penalized_family_score(states: StateMatrix, node: int, parents: Sequence[int], lag: int = 0) -> float:
    """Family log-likelihood minus a BIC penalty of (free parameters / 2) log m.

    The raw likelihood never decreases when parents are added, so greedy
    search without a node ordering needs the penalty to stop. This is
    `_penalized_scores`, the score of structure search, of one count table.
    """
    return float(_penalized_scores(count_states(states, node, parents, lag)[None], states.m)[0])


def score(states: StateMatrix, dag: Dag, lag: int = 0) -> float:
    """Network log-likelihood: the sum of per-family scores (decomposable)."""
    return sum(family_score(states, i, dag.parents[i], lag) for i in range(dag.n))


def fitted_score(net: StaticNetwork | TransitionNetwork) -> float:
    """`score` of a learned network on its training states, from the count tables it holds."""
    return sum(float(np.sum(_loglik_terms(counts))) for counts in net.counts)


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
    # Each block's H*K cells are summed as one contiguous row, which keeps
    # numpy's pairwise summation order and so family_score's sum bit for bit.
    loglik = np.sum(_loglik_terms(counts).reshape(c, h * k), axis=1)
    free = h * (k - 1)
    return loglik - 0.5 * free * math.log(m)


def k2_search(states: StateMatrix, max_parents: int = 3, lag: int = 0) -> Dag:
    """Greedy per-node parent selection maximizing the penalized score.

    Each node independently adds the single other node that most improves
    its penalized family score until no candidate improves it or
    max_parents is reached. Ties break toward the lowest node index. The
    unconstrained per-node search can create cycles in the same-slice case,
    so lag=0 results pass through repair_cycles.

    Every still-searching node advances one parent depth at a time; the
    counts of all its candidates at depth d come from one exact float32
    one-hot product per chunk of nodes (_depth_counts), which costs K^(d+1)
    multiply-adds per (row, node, candidate) and holds at most _BLOCK cells
    per block. Every trial score equals penalized_family_score bit for bit.
    Rejects k_states/max_parents pairs over MAX_CPT_CELLS before counting.
    """
    return _searched_network(states, max_parents, lag)[0]


def _searched_network(states: StateMatrix, max_parents: int, lag: int) -> tuple[Dag, list[np.ndarray]]:
    """k2_search's network plus each family's count table, the counts that
    scored the family (its count_states table); only a family that
    repair_cycles changed is counted again."""
    if max_parents < 0:
        raise ValueError(f"max_parents must be >= 0, got {max_parents}")
    if lag not in (0, 1) or states.m < 1 + lag:
        raise ValueError(f"need lag 0 or 1 and more than lag rows, got lag {lag} with {states.m} rows")
    k = states.state_count
    check_cpt_cells(k, max_parents)
    m, n = states.m, states.n
    grid = states.states - 1
    parent_rows, child_rows = (grid, grid) if lag == 0 else (grid[:-1], grid[1:])
    empty = np.bincount((child_rows + np.arange(n) * k).ravel(), minlength=n * k).reshape(n, 1, k)
    family_counts = list(empty)
    current = _penalized_scores(empty, m).tolist()
    parent_sets: list[list[int]] = [[] for _ in range(n)]
    bases = np.zeros(parent_rows.shape, dtype=np.int64)  # each node's chosen parents' configuration index
    searching = list(range(n))
    for d in range(1, min(max_parents, n - 1) + 1):
        chunk = max(1, _BLOCK // (n * k ** (d + 1)))
        chunks, searching = [searching[lo : lo + chunk] for lo in range(0, len(searching), chunk)], []
        for nodes in chunks:
            counts = _depth_counts(parent_rows, child_rows, bases[:, nodes], nodes, d, k)
            for i, trials in enumerate(_penalized_scores(counts, m).reshape(len(nodes), n).tolist()):
                node, chosen = nodes[i], parent_sets[nodes[i]]
                best_gain, best = 0.0, -1
                for cand, trial in enumerate(trials):  # ascending, so equal gains keep the lowest index
                    if cand != node and cand not in chosen and trial - current[node] > best_gain + 1e-12:
                        best_gain, best = trial - current[node], cand
                if best >= 0:
                    chosen.append(best)
                    current[node] += best_gain
                    bases[:, node] = bases[:, node] * k + parent_rows[:, best]
                    family_counts[node] = counts[i * n + best].copy()
                    searching.append(node)
    dag = Dag(n, tuple(tuple(ps) for ps in parent_sets))
    if lag == 0:
        dag = repair_cycles(dag, states)
        for node, (searched, kept) in enumerate(zip(parent_sets, dag.parents)):
            if kept != tuple(searched):
                family_counts[node] = count_states(states, node, kept, lag)
    return dag, family_counts


def repair_cycles(dag: Dag, states: StateMatrix) -> Dag:
    """Delete edges until the graph is acyclic, losing as little score as possible.

    While a cycle exists, the edge on it whose removal costs the least
    penalized score is dropped; exact ties remove the lexicographically
    smallest (child, parent) pair. Each family is scored once per call.
    """
    family = functools.cache(lambda child, ps: penalized_family_score(states, child, ps, lag=0))
    parents = [list(ps) for ps in dag.parents]
    while True:
        current = Dag(dag.n, tuple(tuple(ps) for ps in parents))
        cycle = current.find_cycle()
        if cycle is None:
            return current
        best: tuple[float, int, int] | None = None
        for parent, child in cycle:
            reduced = tuple(p for p in parents[child] if p != parent)
            loss = family(child, tuple(parents[child])) - family(child, reduced)
            key = (loss, child, parent)
            if best is None or key < best:
                best = key
        _, child, parent = best
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
    if states.m < 2:
        raise ValueError("need at least 2 rows to learn transitions")
    dag, counts = _searched_network(states, max_parents, lag=1)
    k = states.state_count
    flat = (states.states - 1 + np.arange(states.n) * k).ravel()
    priors = np.bincount(flat, minlength=states.n * k).reshape(states.n, k) / states.m
    return TransitionNetwork(dag, counts, priors)


def parent_marginals(counts: np.ndarray, parent_count: int) -> np.ndarray:
    """Every single-parent conditional of a K^p x K count table, p = parent_count, as a (p, K, K) table.

    Entry [position, s - 1] is P(node | parent at `position` in state s),
    count-weighted: the joint counts, viewed as a (K,)*p + (K,) array, are
    summed over the other parents' axes, then normalized by `estimate_cpt`,
    so a slice that was never observed is uniform.
    """
    p, k = parent_count, counts.shape[1]
    joint = counts.reshape((k,) * p + (k,))
    sums = np.empty((p, k, k), dtype=np.int64)
    for position in range(p):
        sums[position] = joint.sum(axis=tuple(a for a in range(p) if a != position))
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
