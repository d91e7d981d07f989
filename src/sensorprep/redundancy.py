"""Redundant-node detection and recovery of redundant readings.

Static mode (SSDRDA) inspects the learned same-slice network: a node whose
state is near-determined by its parents across parent configurations is
redundant. Real-time mode (RSDRDA) re-learns a transition network per time
slice and puts a node to sleep whenever its state can be inferred
confidently from the previous step, propagating inferred posteriors as
soft evidence for parents that are themselves asleep. Sleeping readings
are reconstructed as a similarity-weighted mean of parent readings.
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
from .ingest import _indexed_cells, _label_cells, _number_cells, _write_columns

__all__ = [
    "StaticRedundancyReport",
    "SCHEDULE_DTYPE",
    "RECOVERY_DTYPE",
    "RealtimeRedundancyReport",
    "ssdrda",
    "rsdrda_infer",
    "rsdrda_schedule",
    "recover",
    "static_recovery",
    "static_report_to_dict",
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
# One recovered reading per (step, sleeping or redundant node). The reading it
# replaces is the input's `values[t, node]`, so a report never copies it.
RECOVERY_DTYPE = np.dtype([("t", np.int64), ("node", np.int64), ("estimate", np.float64)])


@dataclass(frozen=True)
class StaticRedundancyReport:
    """SSDRDA's verdict on every node, indexed by node: `redundant` and
    `criterion` arrays, and each node's `witness`, the row maxima of its table
    per parent configuration (empty for a parentless node)."""

    tau: float
    redundant: np.ndarray  # bool
    criterion: np.ndarray  # float64
    witness: tuple[list[float], ...]
    recoveries: np.recarray  # RECOVERY_DTYPE

    def redundant_nodes(self) -> list[int]:
        return np.flatnonzero(self.redundant).tolist()


@dataclass(frozen=True)
class RealtimeRedundancyReport:
    tau: float
    slice_len: int
    train_frac: float
    entries: np.recarray  # SCHEDULE_DTYPE
    recoveries: np.recarray  # RECOVERY_DTYPE

    def sleeping_fraction(self, node: int) -> float:
        sleeping = self.entries.sleeping[self.entries.node == node]
        return float(sleeping.mean()) if sleeping.size else 0.0


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
    return StaticRedundancyReport(tau, criterion >= tau, criterion, witness, np.recarray(0, dtype=RECOVERY_DTYPE))


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
    return float(_recover_columns(np.array([[values]]), np.array([dists]))[0, 0])


def static_recovery(data: SensorDataset, dag: Dag, redundant_nodes: Sequence[int]) -> np.recarray:
    """Reconstruct every reading of each redundant node from its same-time parents.

    Weights follow the inverse of the RMS distance between standardized
    columns of the full dataset. Returns a `RECOVERY_DTYPE` record array.
    """
    nodes = np.array([int(node) for node in redundant_nodes], dtype=np.int64)
    estimates = np.empty((len(nodes), data.m))
    z = _standardized(data.values.T)
    for i, node in enumerate(nodes.tolist()):
        parents = list(dag.parents[node])
        if not parents:
            raise ValueError(f"node {node} has no parents to recover from")
        estimates[i] = _recover_columns(data.values[None, :, parents], _dissimilarities(z[node], z[parents])[None])[0]
    t = np.tile(np.arange(data.m), len(nodes))
    return np.rec.fromarrays([t, np.repeat(nodes, data.m), estimates.ravel()], dtype=RECOVERY_DTYPE)


def _recover_columns(columns: np.ndarray, dissimilarities: np.ndarray) -> np.ndarray:
    """`recover` for every row of each g x r x p stack of parent readings, given its g x p dissimilarities.

    The weights are fixed per (group, parent), so one of the three cases
    applies to all r rows of a group. The weighted sum accumulates from
    zero, parent by parent.
    """
    if columns.shape[-1] == 1:
        return columns[..., 0]
    zero = dissimilarities == 0.0
    weights = 1.0 / np.where(zero, 1.0, dissimilarities)
    total, weight_sum = 0.0, 0
    for j in range(columns.shape[-1]):
        total = total + weights[:, j, None] * columns[..., j]
        weight_sum = weight_sum + weights[:, j]
    short = zero.any(axis=1)  # the first parent at zero distance wins
    return np.where(short[:, None], columns[np.arange(len(zero)), :, zero.argmax(axis=1)], total / weight_sum[:, None])


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
    Sleeping readings are recovered from parent readings at t-1 and never
    fed back into later training. Trailing rows that do not fill a slice
    are skipped.

    One `_stacked_search` learns every slice's network. A step reads only
    the evidence of step t-1, and each slice starts from its own window with
    every node awake, so every (slice, node) updates at once: the families
    with d parents, across all slices, are one group, updated by one
    `_soft_posteriors` call per step and recovered in one pass.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must lie in (0, 1), got {train_frac}")
    if slice_len < 1:
        raise ValueError(f"slice_len must be >= 1, got {slice_len}")
    if slice_len > data.m:
        raise ValueError(f"data has {data.m} rows, shorter than one slice of {slice_len}")
    train_len = int(round(slice_len * train_frac))
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
    estimates = np.empty(max_post.shape)
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

    # Recover each node's readings from its parents at t-1; only the sleeping ones are read.
    z = _standardized(data.values[training].transpose(0, 2, 1))
    for slices, nodes, parents, _ in groups:
        previous = (starts[slices] + train_len - 1)[:, None, None] + np.arange(slice_len - train_len)[:, None]
        dists = _dissimilarities(z[slices, nodes], z[slices[:, None], parents])
        estimates[slices, :, nodes] = _recover_columns(data.values[previous, parents[:, None, :]], dists)

    t = np.repeat(np.add.outer(starts, np.arange(train_len, slice_len)), data.n)
    node = np.tile(np.arange(data.n), len(t) // data.n)
    asleep = (max_post >= tau).ravel()
    entries = np.rec.fromarrays([t, node, asleep, max_post.ravel()], dtype=SCHEDULE_DTYPE)
    recoveries = np.rec.fromarrays([t[asleep], node[asleep], estimates.ravel()[asleep]], dtype=RECOVERY_DTYPE)
    return RealtimeRedundancyReport(tau, slice_len, train_frac, entries, recoveries)


def static_report_to_dict(report: StaticRedundancyReport) -> dict:
    """The `redundancy_static` artifact body: per-node lists indexed by node, recoveries as columns."""
    return {
        "tau": float(report.tau),
        "redundant": report.redundant.tolist(),
        "criterion": report.criterion.tolist(),
        "witness": list(report.witness),
        "recoveries": artifacts.columns(report.recoveries),
    }


def realtime_report_to_dict(report: RealtimeRedundancyReport) -> dict:
    """The `redundancy_realtime` artifact body: schedule entries and recoveries as columns."""
    return {
        "tau": float(report.tau),
        "slice_len": int(report.slice_len),
        "train_frac": float(report.train_frac),
        "entries": artifacts.columns(report.entries),
        "recoveries": artifacts.columns(report.recoveries),
    }


def write_static_csv(report: StaticRedundancyReport, node_ids: Sequence[str], path: str | Path) -> None:
    _write_columns(
        path,
        ["node", "redundant", "criterion"],
        [
            _label_cells(node_ids, np.arange(len(report.redundant))),
            _number_cells(report.redundant.astype(np.int64)),
            _number_cells(report.criterion),
        ],
    )


def write_realtime_csv(report: RealtimeRedundancyReport, node_ids: Sequence[str], path: str | Path) -> None:
    entries = report.entries
    steps, step = np.unique(entries.t, return_inverse=True)  # t repeats on every node's line: format it once
    _write_columns(
        path,
        ["t", "node", "state", "max_posterior"],
        [
            _indexed_cells(list(_number_cells(steps)), step),
            _label_cells(node_ids, entries.node),
            _label_cells(("waking", "sleeping"), entries.sleeping),
            _number_cells(entries.max_posterior, np.isnan(entries.max_posterior)),
        ],
    )


def write_recovery_csv(recoveries: np.recarray, data: SensorDataset, path: str | Path) -> None:
    """Each recovery beside the reading it replaces, `actual`, which is read from `data`."""
    _write_columns(
        path,
        ["t", "node", "estimate", "actual"],
        [
            _number_cells(recoveries.t),
            _label_cells(data.node_ids, recoveries.node),
            _number_cells(recoveries.estimate),
            _number_cells(data.values[recoveries.t, recoveries.node]),
        ],
    )
