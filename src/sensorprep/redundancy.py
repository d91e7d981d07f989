"""Redundant-node detection and recovery of redundant readings.

Static mode (SSDRDA) inspects the learned same-slice network: a node whose
state is near-determined by its parents across parent configurations is
redundant. Real-time mode (RSDRDA) re-learns a transition network per time
slice and puts a node to sleep whenever its state can be inferred
confidently from the previous step, propagating inferred posteriors as
soft evidence for parents that are themselves asleep. Sleeping readings
are reconstructed as a similarity-weighted mean of parent readings. A
report keeps the rule of each rebuilt family, not the rebuilt readings:
`rebuild` applies the rules to the data again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import artifacts
from .bayesnet import Dag, StaticNetwork, TransitionNetwork, _stacked_search, estimate_cpt
from .ingest import DiscretizationScheme, SensorDataset, discretize
from .ingest import _distinct_cells, _label_cells, _number_cells, _write_columns

__all__ = [
    "RecoveryRules",
    "StaticRedundancyReport",
    "SCHEDULE_DTYPE",
    "RECOVERY_DTYPE",
    "RealtimeRedundancyReport",
    "ssdrda",
    "rsdrda_infer",
    "rsdrda_schedule",
    "recover",
    "rebuild",
    "static_rules",
    "static_recovery",
    "static_report_to_dict",
    "recoveries_from_dict",
    "realtime_report_to_dict",
    "write_static_csv",
    "write_realtime_csv",
    "write_recovery_csv",
]


# One sleep/wake record per (inference step, node); max_posterior is NaN for
# parentless nodes, which never sleep.
SCHEDULE_DTYPE = np.dtype(
    [("t", np.int64), ("node", np.int64), ("sleeping", np.bool_), ("max_posterior", np.float64)]
)
# The schedule columns a report stores: `_schedule_steps` rebuilds `t` and `node` from its header.
_STORED_DTYPE = artifacts.SCHEMA["redundancy_realtime"]["entries"][0]
# One recovered reading per (step, sleeping or redundant node). The reading it
# replaces is the input's `values[t, node]`, so a report never copies it.
RECOVERY_DTYPE = np.dtype([("t", np.int64), ("node", np.int64), ("estimate", np.float64)])


@dataclass(frozen=True)
class RecoveryRules:
    """One rule per rebuilt family: rule i rebuilds a reading of `node[i]` as `recover` of the readings of
    `parents[i]` under `dissimilarities[i]`. A static rule rebuilds rows 0..rows-1 of its node, each from the same
    row. A realtime rule rebuilds its node's sleeping readings in slice `slice[i]`, from the parents one step
    earlier."""

    node: list[int]
    parents: list[list[int]]
    dissimilarities: list[list[float]]
    slice: list[int] | None = None
    rows: int | None = None


@dataclass(frozen=True)
class StaticRedundancyReport:
    """SSDRDA's verdict on every node, indexed by node: `redundant` and
    `criterion` arrays, and each node's `witness`, the row maxima of its table
    per parent configuration (empty for a parentless node)."""

    tau: float
    redundant: np.ndarray  # bool
    criterion: np.ndarray  # float64
    witness: tuple[list[float], ...]
    rules: RecoveryRules

    def redundant_nodes(self) -> list[int]:
        return np.flatnonzero(self.redundant).tolist()

    def recoveries(self, data: SensorDataset) -> np.recarray:
        """Every reading of the redundant nodes, rebuilt from `data`."""
        return rebuild(self.rules, data)


@dataclass(frozen=True)
class RealtimeRedundancyReport:
    tau: float
    slice_len: int
    train_frac: float
    entries: np.recarray  # SCHEDULE_DTYPE
    rules: RecoveryRules

    def recoveries(self, data: SensorDataset) -> np.recarray:
        """The sleeping readings, rebuilt from `data`, the dataset the schedule was made from."""
        return rebuild(self.rules, data, self.entries.sleeping, self.slice_len, self.train_frac)


def ssdrda(net: StaticNetwork, tau: float = 0.95) -> StaticRedundancyReport:
    """Static redundancy detection over a learned same-slice network.

    A node is redundant when the mean over parent configurations of the
    most likely state's conditional mass reaches tau; parentless nodes have
    criterion 0 and are never redundant.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    witness = tuple(estimate_cpt(c).max(axis=1).tolist() if ps else [] for c, ps in zip(net.counts, net.dag.parents))
    criterion = np.array([np.mean(w) if w else 0.0 for w in witness])
    return StaticRedundancyReport(tau, criterion >= tau, criterion, witness, RecoveryRules([], [], [], rows=0))


def rsdrda_infer(node: int, tn: TransitionNetwork, parent_evidence: Sequence[np.ndarray]) -> np.ndarray:
    """Posterior over a node's states given soft evidence on its parents.

    Sums the transition table over every joint parent configuration,
    weighting each configuration by the product of the per-parent evidence
    distributions, then normalizes: `rsdrda_schedule`'s update on one family.
    """
    parents = tn.dag.parents[node]
    if not parents:
        raise ValueError(f"node {node} has no transition parents")
    if len(parent_evidence) != len(parents):
        raise ValueError(f"expected {len(parents)} evidence vectors, got {len(parent_evidence)}")
    table = estimate_cpt(tn.counts[node])
    evidence = [np.asarray(ev, dtype=float) for ev in parent_evidence]
    for ev in evidence:
        if ev.shape != table.shape[1:]:
            raise ValueError(f"evidence vector has shape {ev.shape}, expected {table.shape[1:]}")
    return _soft_posteriors(table[None], [ev[None] for ev in evidence])[0]


def _soft_posteriors(tables: np.ndarray, evidence: Sequence[np.ndarray]) -> np.ndarray:
    """Posteriors of g families of d parents: their g x K^d x K tables weighted by the
    joint parent weights that the g x K evidence rows of each parent position make."""
    weights = np.ones((len(tables), 1))
    for rows in evidence:
        weights = (weights[:, :, None] * rows[:, None, :]).reshape(len(tables), -1)
    posterior = (weights[:, None, :] @ tables)[:, 0]
    total = posterior.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise ArithmeticError("evidence assigns zero mass to every configuration")
    return posterior / total


def recover(parent_values: Sequence[float], dissimilarities: Sequence[float]) -> float:
    """Weighted mean of parent readings, weights inverse to dissimilarity.

    A zero dissimilarity short-circuits to that parent's value (first such
    parent wins); a single parent is returned unchanged regardless of its
    weight. This is `_recover_columns` on one row.
    """
    values = [float(v) for v in parent_values]
    dists = [float(d) for d in dissimilarities]
    if not values:
        raise ValueError("need at least one parent value")
    if len(values) != len(dists):
        raise ValueError("values and dissimilarities must align")
    if any(d < 0 for d in dists):
        raise ValueError("dissimilarities must be nonnegative")
    return float(_recover_columns(np.array([values]), np.array([dists]))[0])


def static_rules(data: SensorDataset, dag: Dag, redundant_nodes: Sequence[int]) -> RecoveryRules:
    """The rule of each redundant node: its same-time parents, weighted by the inverse
    of the RMS distance between standardized columns of the full dataset."""
    nodes = [int(node) for node in redundant_nodes]
    parents = [list(dag.parents[node]) for node in nodes]
    for node, ps in zip(nodes, parents):
        if not ps:
            raise ValueError(f"node {node} has no parents to recover from")
    z = _standardized(data.values.T)
    dists = [_dissimilarities(z[node], z[ps]).tolist() for node, ps in zip(nodes, parents)]
    return RecoveryRules(nodes, parents, dists, rows=data.m)


def static_recovery(data: SensorDataset, dag: Dag, redundant_nodes: Sequence[int]) -> np.recarray:
    """Every reading of each redundant node, rebuilt from its same-time parents under `static_rules`."""
    return rebuild(static_rules(data, dag, redundant_nodes), data)


def rebuild(
    rules: RecoveryRules, data: SensorDataset, sleeping: np.ndarray | None = None, slice_len: int = 0,
    train_frac: float = 0.0,
) -> np.recarray:
    """The readings that `rules` rebuild from `data`, as `RECOVERY_DTYPE` records.

    Static rules (`sleeping` None) rebuild rows 0..`rules.rows`-1 of each
    rule's node, rule by rule. Realtime rules rebuild the readings that a
    schedule's `sleeping` column marks, in its order: the schedule of
    `slice_len` and `train_frac` that `rsdrda_schedule` makes over `data`'s
    nodes. Each is rebuilt under its node's rule in its slice, from the
    parents' readings one step earlier. Errors name the report field at fault.
    """
    node = np.array(rules.node, dtype=np.int64)
    if sleeping is None:
        if rules.rows > data.m:
            raise ValueError(f"rule_rows must be at most the data's {data.m} rows, got {rules.rows}")
        t, rule, lag = np.tile(np.arange(rules.rows), len(node)), np.repeat(np.arange(len(node)), rules.rows), 0
    else:
        t, nodes = _schedule_steps(slice_len, train_frac, data.n, len(sleeping))
        if len(t) and (t[0] < 1 or t[-1] >= data.m):
            raise ValueError(f"entries of slice_len {slice_len} span rows {t[0]}..{t[-1]}, outside the data's rows "
                             f"1..{data.m - 1}")
        # Each (slice, node) holds the index of its one rule, or -1.
        table, rule_slice = np.full((len(t) and t[-1] // slice_len + 1, data.n), -1), np.array(rules.slice, np.int64)
        outside = rule_slice[(rule_slice < 0) | (rule_slice >= len(table))]
        if outside.size:
            raise ValueError(f"rule_slice must lie in the schedule's slices 0..{len(table) - 1}, got {outside[0]}")
        table[rule_slice, node] = np.arange(len(node))
        if (table[rule_slice, node] != np.arange(len(node))).any():
            raise ValueError("rule_slice and rule_node must name each (slice, node) once")
        t, nodes, lag = t[sleeping], nodes[sleeping], 1
        rule = table[t // slice_len, nodes]
        if (rule < 0).any():
            i = int(np.argmax(rule < 0))
            raise ValueError(f"entries put node {nodes[i]} to sleep at row {t[i]}, but no rule_slice and rule_node "
                             "rebuild it")
    # The rules with p parents are one group: their readings are one r x p stack.
    sizes = np.array([len(ps) for ps in rules.parents], dtype=np.int64)
    if (sizes == 0).any():
        raise ValueError(f"rule_parents give rule {int(np.argmax(sizes == 0))} no parents")
    estimates = np.empty(len(t))
    for p in set(sizes.tolist()):
        group = np.flatnonzero(sizes == p)
        parents = np.array([rules.parents[i] for i in group.tolist()], dtype=np.int64).reshape(-1, p)
        dists = np.array([rules.dissimilarities[i] for i in group.tolist()], dtype=np.float64).reshape(-1, p)
        at = np.flatnonzero(sizes[rule] == p)
        row = np.searchsorted(group, rule[at])  # each reading's rule, as a row of the group
        estimates[at] = _recover_columns(data.values[(t[at] - lag)[:, None], parents[row]], dists[row])
    return np.rec.fromarrays([t, node[rule], estimates], dtype=RECOVERY_DTYPE)


def _recover_columns(columns: np.ndarray, dissimilarities: np.ndarray) -> np.ndarray:
    """`recover` on each row of an r x p array of parent readings, given the row's p dissimilarities.

    Each output is elementwise arithmetic on its own row, so it does not
    depend on which rows share a call. The weighted sum accumulates from
    zero, parent by parent.
    """
    if columns.shape[1] == 1:
        return columns[:, 0]
    zero = dissimilarities == 0.0
    weights = 1.0 / np.where(zero, 1.0, dissimilarities)
    total, weight_sum = 0.0, 0
    for j in range(columns.shape[1]):
        total = total + weights[:, j] * columns[:, j]
        weight_sum = weight_sum + weights[:, j]
    short = zero.any(axis=1)  # the first parent at zero distance wins
    return np.where(short, columns[np.arange(len(columns)), zero.argmax(axis=1)], total / weight_sum)


def _standardized(columns: np.ndarray) -> np.ndarray:
    """Each row (readings along the last axis) minus its mean over its sample
    sd, constant rows as zeros. A contiguous copy sums every row in the same
    pairwise order as a one-column reduction, so the values are bit-identical."""
    z = np.ascontiguousarray(columns)
    sd = z.std(axis=-1, ddof=1, keepdims=True)
    return np.where(sd > 0, (z - z.mean(axis=-1, keepdims=True)) / np.where(sd > 0, sd, 1.0), 0.0)


def _dissimilarities(node_rows: np.ndarray, parent_rows: np.ndarray) -> np.ndarray:
    """RMS distance between each standardized node row (..., L) and each of its parents' rows (..., p, L)."""
    return np.sqrt(np.mean((node_rows[..., None, :] - parent_rows) ** 2, axis=-1))


def rsdrda_schedule(
    data: SensorDataset,
    slice_len: int,
    train_frac: float,
    tau: float,
    scheme: DiscretizationScheme,
    max_parents: int = 3,
) -> RealtimeRedundancyReport:
    """Per-slice cycle of collecting, learning, and working-state inference.

    Each full slice spends its first train_frac portion with every node
    waking, learns a transition network from that window, then walks the
    remaining steps: a node sleeps at step t when the posterior inferred
    from its parents' evidence at t-1 concentrates at least tau on one
    state. Waking parents contribute point-mass evidence at their observed
    state; sleeping parents contribute the posterior inferred for them.
    Each (slice, node) that sleeps at least once gets a recovery rule: its
    parents, with dissimilarities over the slice's training window. Its
    sleeping readings are rebuilt from parent readings at t-1 (`rebuild`)
    and never fed back into later training. Trailing rows that do not fill
    a slice are skipped.

    One `_stacked_search` learns every slice's network. A step reads only
    the evidence of step t-1, and each slice starts from its own window with
    every node awake, so every (slice, node) updates at once: the families
    with d parents, across all slices, are one group, updated by one
    `_soft_posteriors` call per step.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must lie in (0, 1), got {train_frac}")
    if slice_len < 1:
        raise ValueError(f"slice_len must be >= 1, got {slice_len}")
    if slice_len > data.m:
        raise ValueError(f"data has {data.m} rows, shorter than one slice of {slice_len}")
    train_len = _train_len(slice_len, train_frac)
    if train_len < 2:
        raise ValueError(f"training portion of {train_len} samples is too short")
    if train_len >= slice_len:
        raise ValueError("training portion leaves no inference steps")
    states = discretize(data, scheme)
    point_mass = np.eye(scheme.state_count)
    starts = np.arange(0, data.m - slice_len + 1, slice_len)
    training = starts[:, None] + np.arange(train_len)  # each slice's training rows
    parent_sets, searched = _stacked_search(states.states[training], scheme.state_count, max_parents, lag=1)
    groups = [  # (slices, nodes, parents, tables) of the families with p > 0 parents
        (*np.divmod(families, data.n), np.array([parent_sets[f] for f in families.tolist()]), estimate_cpt(counts))
        for p, (families, counts) in sorted(searched.items()) if p
    ]

    # Indexed by (slice, inference step, node); NaN marks a node without parents.
    max_post = np.full((len(starts), slice_len - train_len, data.n), math.nan)
    # Evidence at each slice's last training step: everything is awake.
    evidence = point_mass[states.states[starts + train_len - 1] - 1]
    for step in range(slice_len - train_len):
        next_evidence = point_mass[states.states[starts + train_len + step] - 1]
        for slices, nodes, parents, tables in groups:
            posterior = _soft_posteriors(tables, [evidence[slices, column] for column in parents.T])
            max_post[slices, step, nodes] = posterior.max(axis=1)
            asleep = max_post[slices, step, nodes] >= tau
            next_evidence[slices[asleep], nodes[asleep]] = posterior[asleep]
        evidence = next_evidence

    # The rule of each family that slept, in (slice, node) order.
    asleep = max_post >= tau
    slept = asleep.any(axis=1)
    z = _standardized(data.values[training].transpose(0, 2, 1))
    found = []
    for slices, nodes, parents, _ in groups:
        keep = slept[slices, nodes]
        slices, nodes, parents = slices[keep], nodes[keep], parents[keep]
        dists = _dissimilarities(z[slices, nodes], z[slices[:, None], parents])
        found += zip(slices.tolist(), nodes.tolist(), parents.tolist(), dists.tolist())
    rule_slice, rule_node, rule_parents, rule_dists = map(list, zip(*sorted(found))) if found else ([],) * 4

    t, node = _schedule_steps(slice_len, train_frac, data.n, max_post.size)
    entries = np.rec.fromarrays([t, node, asleep.ravel(), max_post.ravel()], dtype=SCHEDULE_DTYPE)
    rules = RecoveryRules(rule_node, rule_parents, rule_dists, rule_slice)
    return RealtimeRedundancyReport(tau, slice_len, train_frac, entries, rules)


def _train_len(slice_len: int, train_frac: float) -> int:
    return int(round(slice_len * train_frac))


def _schedule_steps(slice_len: int, train_frac: float, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `t` and `node` columns of a schedule of `count` entries over `n` nodes: every node at each inference
    step of each full slice, in (slice, step, node) order. A count that is not a whole number of slices is a
    ValueError."""
    train_len = _train_len(slice_len, train_frac)
    per_slice = max(slice_len - train_len, 0) * n
    slices, rest = divmod(count, per_slice) if per_slice else (0, count)
    if rest:
        raise ValueError(f"{count} entries are not a whole number of slices of {per_slice // n} steps x {n} nodes "
                         f"(slice_len {slice_len}, train_frac {train_frac})")
    steps = np.arange(train_len, slice_len if slices else train_len)  # at most `count` steps
    return np.repeat(np.add.outer(np.arange(slices) * slice_len, steps), n), np.tile(np.arange(n), slices * len(steps))


def _rule_fields(rules: RecoveryRules) -> dict:
    extent = {"rule_rows": rules.rows} if rules.slice is None else {"rule_slice": rules.slice}
    return {"rule_node": rules.node, "rule_parents": rules.parents, "rule_dissimilarities": rules.dissimilarities,
            **extent}


def static_report_to_dict(report: StaticRedundancyReport) -> dict:
    """The `redundancy_static` artifact body: per-node lists indexed by node, and the recovery rules."""
    return {
        "tau": float(report.tau),
        "redundant": report.redundant.tolist(),
        "criterion": report.criterion.tolist(),
        "witness": list(report.witness),
        **_rule_fields(report.rules),
    }


def realtime_report_to_dict(report: RealtimeRedundancyReport) -> dict:
    """The `redundancy_realtime` artifact body: the schedule's `sleeping` and `max_posterior` columns, whose `t` and
    `node` follow from `slice_len`, `train_frac` and the node ids, and the recovery rules."""
    return {
        "tau": float(report.tau),
        "slice_len": int(report.slice_len),
        "train_frac": float(report.train_frac),
        "entries": artifacts.columns(report.entries[list(_STORED_DTYPE.names)]),
        **_rule_fields(report.rules),
    }


def recoveries_from_dict(doc: artifacts.Document, data: SensorDataset) -> np.recarray:
    """The readings that a read `redundancy_static` or `redundancy_realtime` document's rules rebuild from `data`.
    `rebuild`'s errors leave as ArtifactErrors naming the file."""
    with doc:
        if doc["kind"] == "redundancy_static":
            return rebuild(RecoveryRules(doc["rule_node"], doc["rule_parents"], doc["rule_dissimilarities"],
                                         rows=doc["rule_rows"]), data)
        rules = RecoveryRules(doc["rule_node"], doc["rule_parents"], doc["rule_dissimilarities"], doc["rule_slice"])
        return rebuild(rules, data, doc["entries"].sleeping, doc["slice_len"], doc["train_frac"])


def write_static_csv(report: StaticRedundancyReport, node_ids: Sequence[str], path: str | Path) -> None:
    _write_columns(
        path,
        ["node", "redundant", "criterion"],
        [
            _label_cells(node_ids, np.arange(len(report.redundant))),
            _distinct_cells(report.redundant),
            _number_cells(report.criterion),
        ],
    )


def write_realtime_csv(report: RealtimeRedundancyReport, node_ids: Sequence[str], path: str | Path) -> None:
    entries = report.entries
    _write_columns(
        path,
        ["t", "node", "state", "max_posterior"],
        [
            _distinct_cells(entries.t),
            _label_cells(node_ids, entries.node),
            _label_cells(("waking", "sleeping"), entries.sleeping),
            _distinct_cells(entries.max_posterior, np.isnan(entries.max_posterior)),
        ],
    )


def write_recovery_csv(recoveries: np.recarray, data: SensorDataset, path: str | Path) -> None:
    """Each recovery beside the reading it replaces, `actual`, which is read from `data`."""
    _write_columns(
        path,
        ["t", "node", "estimate", "actual"],
        [
            _distinct_cells(recoveries.t),
            _label_cells(data.node_ids, recoveries.node),
            _number_cells(recoveries.estimate),
            _number_cells(data.values[recoveries.t, recoveries.node]),
        ],
    )
