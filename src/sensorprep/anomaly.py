"""Two-stage anomaly detection over sensor streams.

Stage one screens each sample with the Q and T-squared statistics in an OR
combination; stage two localizes flagged samples to nodes by predicting
each node's discrete state from its transition parents at the previous
step and comparing against the observed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .bayesnet import TransitionNetwork, parent_marginal, parent_marginals
from .ingest import (
    DiscretizationScheme,
    SensorDataset,
    _number_cells,
    _write_columns,
    apply_standardization,
    discretize,
)
from .spectra import PcaModel, limit_from_json, limit_to_json, q_statistic, t2_statistic

__all__ = [
    "ROW_DTYPE",
    "VERDICT_DTYPE",
    "DetectionReport",
    "tq_screen",
    "nb_predict_state",
    "tqbayes_detect",
    "report_to_dict",
    "report_from_dict",
    "write_report_csv",
]

# One record per screened test row.
ROW_DTYPE = np.dtype([("row", np.int64), ("q", np.float64), ("t2", np.float64), ("flagged", np.bool_)])
# One record per (flagged row, node).
VERDICT_DTYPE = np.dtype(
    [
        ("row", np.int64),
        ("node", np.int64),
        ("observed", np.int64),
        ("predicted", np.int64),
        ("abnormal", np.bool_),
        ("uninferable", np.bool_),
    ]
)


@dataclass(frozen=True)
class DetectionReport:
    """Screening values for every test row plus node verdicts for flagged rows.

    `rows` and `verdicts` are record arrays (`ROW_DTYPE`, `VERDICT_DTYPE`)
    whose fields are columns, e.g. `report.rows.q`.
    """

    q_limit: float
    t2_limit: float
    rows: np.recarray
    verdicts: np.recarray

    def flagged_rows(self) -> list[int]:
        return self.rows.row[self.rows.flagged].tolist()

    def abnormal_cells(self) -> list[tuple[int, int]]:
        hit = self.verdicts[self.verdicts.abnormal]
        return list(zip(hit.row.tolist(), hit.node.tolist()))


def tq_screen(row: np.ndarray, model: PcaModel) -> tuple[float, float, bool]:
    """Standardize one raw sample and test it against both control limits.

    Returns (q, t2, flagged) with flagged true when either statistic
    exceeds its limit.
    """
    xbar = apply_standardization(np.asarray(row, dtype=float), model.standardization)
    q = q_statistic(xbar, model)
    t2 = t2_statistic(xbar, model)
    return q, t2, q > model.q_limit or t2 > model.t2_limit


def nb_predict_state(node: int, prev_states: np.ndarray, tn: TransitionNetwork) -> tuple[int, np.ndarray]:
    """Predict a node's state from its parents' states at the previous step.

    Multiplies single-parent conditionals (count-weighted marginals of the
    joint transition table) with the node's prior, then normalizes. A node
    with no transition parents falls back to its prior; callers report such
    nodes as uninferable. Returns (predicted state, posterior), where the
    argmax breaks ties toward the lowest state.
    """
    prev_states = np.asarray(prev_states, dtype=np.int64)
    if prev_states.shape != (tn.dag.n,):
        raise ValueError(f"previous states have shape {prev_states.shape}, expected ({tn.dag.n},)")
    parents = tn.dag.parents[node]
    prior = tn.priors[node]
    if not parents:
        posterior = prior / prior.sum()
        return int(np.argmax(posterior)) + 1, posterior
    cpt = tn.cpts[node]
    unnorm = prior.copy()
    for position, parent in enumerate(parents):
        unnorm = unnorm * parent_marginal(cpt, position, int(prev_states[parent]))
    total = unnorm.sum()
    if total <= 0.0:
        # Parents with disjoint supports: no state is jointly possible, so
        # fall back to the prior alone.
        posterior = prior / prior.sum()
    else:
        posterior = unnorm / total
    return int(np.argmax(posterior)) + 1, posterior


def tqbayes_detect(
    test: SensorDataset,
    model: PcaModel,
    tn: TransitionNetwork,
    scheme: DiscretizationScheme,
    last_train_row: np.ndarray,
) -> DetectionReport:
    """Run the full two-stage detector over a test set.

    Every row is screened one at a time. Stage two then runs over all
    flagged rows at once: each inferable node is marked abnormal when the
    state predicted from its parents' previous states disagrees with the
    observed one. The first test row uses the supplied last training row as
    its predecessor; later rows use the observed previous test row even if
    it was itself corrupted.
    """
    k = tn.cpts[0].state_count
    if test.n != model.n or test.n != tn.dag.n or test.n != scheme.n or scheme.state_count != k:
        raise ValueError(
            f"artifact shapes disagree: data n={test.n}, model n={model.n}, "
            f"network n={tn.dag.n}, scheme n={scheme.n}, network K={k}, scheme K={scheme.state_count}"
        )
    last_train_row = np.asarray(last_train_row, dtype=float)
    if last_train_row.shape != (test.n,):
        raise ValueError(f"last training row has shape {last_train_row.shape}, expected ({test.n},)")

    rows = np.rec.fromrecords(
        [(r, *tq_screen(values, model)) for r, values in enumerate(test.values)], dtype=ROW_DTYPE
    )
    flagged = np.flatnonzero(rows.flagged)
    # Row 0 of `states` is the last training row, so test row r sits at r + 1.
    states = discretize(SensorDataset(np.vstack([last_train_row, test.values]), test.node_ids), scheme).states
    prev, observed = states[flagged], states[flagged + 1]
    predicted = np.column_stack([_predict_states(node, prev, tn) for node in range(test.n)])

    verdicts = np.recarray(observed.size, dtype=VERDICT_DTYPE)
    verdicts.row = np.repeat(flagged, test.n)
    verdicts.node = np.tile(np.arange(test.n), len(flagged))
    verdicts.observed = observed.ravel()
    verdicts.predicted = predicted.ravel()
    verdicts.uninferable = np.tile([not ps for ps in tn.dag.parents], len(flagged))
    verdicts.abnormal = ~verdicts.uninferable & (verdicts.predicted != verdicts.observed)
    return DetectionReport(model.q_limit, model.t2_limit, rows, verdicts)


def _predict_states(node: int, prev: np.ndarray, tn: TransitionNetwork) -> np.ndarray:
    """`nb_predict_state`'s prediction for every row of previous states at once.

    Multiplies the same single-parent conditionals onto the prior in the
    same parent order, so each posterior, and its argmax, is bit-identical.
    """
    prior = tn.priors[node]
    fallback = np.argmax(prior / prior.sum()) + 1
    parents = tn.dag.parents[node]
    if not parents:
        return np.full(len(prev), fallback)
    marginals = parent_marginals(tn.cpts[node])
    unnorm = prior
    for position, parent in enumerate(parents):
        unnorm = unnorm * marginals[position, prev[:, parent] - 1]
    total = unnorm.sum(axis=1)
    # Parents with disjoint supports leave a zero row: fall back to the prior.
    inferable = total > 0.0
    posterior = unnorm / np.where(inferable, total, 1.0)[:, None]
    return np.where(inferable, np.argmax(posterior, axis=1) + 1, fallback)


def report_to_dict(report: DetectionReport) -> dict:
    """The `detection_report` artifact body: both record arrays as columns."""
    return {
        "q_limit": limit_to_json(report.q_limit),
        "t2_limit": float(report.t2_limit),
        "rows": artifacts.columns(report.rows),
        "verdicts": artifacts.columns(report.verdicts),
    }


def report_from_dict(doc: dict) -> DetectionReport:
    rows, verdicts = artifacts.records(doc["rows"], ROW_DTYPE), artifacts.records(doc["verdicts"], VERDICT_DTYPE)
    return DetectionReport(limit_from_json(doc["q_limit"]), doc["t2_limit"], rows, verdicts)


def write_report_csv(report: DetectionReport, path: str | Path) -> None:
    """Flat per-row / per-(row, node) layout for external plotting.

    Unflagged rows emit a single line with empty node columns; flagged rows
    emit one line per verdict naming them, in verdict order. Uninferable
    nodes leave `predicted` empty.
    """
    rows, verdicts = report.rows, report.verdicts[np.argsort(report.verdicts.row, kind="stable")]
    first = np.searchsorted(verdicts.row, rows.row, side="left")
    count = np.searchsorted(verdicts.row, rows.row, side="right") - first
    # An unflagged row gets one line, from a blank record appended after the verdicts.
    first = np.where(rows.flagged, first, len(verdicts))
    count = np.where(rows.flagged, count, 1)
    screen = np.repeat(np.arange(len(rows)), count)
    position = first[screen] + np.arange(len(screen)) - np.repeat(np.cumsum(count) - count, count)
    line = np.concatenate([verdicts, np.zeros(1, VERDICT_DTYPE)])[position]
    blank = ~rows.flagged[screen]
    _write_columns(
        path,
        ["row", "q", "t2", "flagged", "node", "observed", "predicted", "abnormal"],
        [
            _number_cells(rows.row[screen]),
            _number_cells(rows.q[screen]),
            _number_cells(rows.t2[screen]),
            _number_cells((~blank).astype(np.int64)),
            _number_cells(line["node"], blank),
            _number_cells(line["observed"], blank),
            _number_cells(line["predicted"], blank | line["uninferable"]),
            _number_cells(line["abnormal"].astype(np.int64), blank),
        ],
    )
