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
from .bayesnet import TransitionNetwork, parent_marginals
from .ingest import DiscretizationScheme, SensorDataset, _indexed_cells, _number_cells, _write_columns, discretize
from .spectra import PcaModel, limit_from_json, limit_to_json

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
    exceeds its limit. Both equal, bit for bit, `q_statistic` and `t2_statistic` of the standardized row.
    """
    row = np.asarray(row, dtype=float)
    if row.shape != (model.standardization.n,):
        raise ValueError(f"row has shape {row.shape}, expected ({model.standardization.n},)")
    means, scale, pk, lam = model.screening
    xbar = (row - means) / scale
    scores = pk.T @ xbar
    residual = xbar - pk @ scores
    q, t2 = float(residual @ residual), float(np.sum(scores * scores / lam))
    return q, t2, q > model.q_limit or t2 > model.t2_limit


def nb_predict_state(node: int, prev_states: np.ndarray, tn: TransitionNetwork) -> tuple[int, np.ndarray]:
    """Predict a node's state from its parents' states at the previous step.

    Multiplies single-parent conditionals (count-weighted marginals of the
    joint transition table) with the node's prior, then normalizes. A node
    with no transition parents falls back to its prior; callers report such
    nodes as uninferable. Returns (predicted state, posterior), where the
    argmax breaks ties toward the lowest state. It runs stage two's kernel on one row.
    """
    prev_states = np.asarray(prev_states, dtype=np.int64)
    if prev_states.shape != (tn.dag.n,):
        raise ValueError(f"previous states have shape {prev_states.shape}, expected ({tn.dag.n},)")
    k = tn.cpts[node].state_count
    for parent in tn.dag.parents[node]:
        # The kernel's table lookup would wrap a state of 0 round to K instead of failing.
        if not 1 <= prev_states[parent] <= k:
            raise ValueError(f"parent state {prev_states[parent]} outside 1..{k}")
    predicted, posteriors = _predict_states(node, prev_states[None], tn)
    return int(predicted[0]), posteriors[0]


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
    predicted = np.column_stack([_predict_states(node, prev, tn)[0] for node in range(test.n)])

    verdicts = np.recarray(observed.size, dtype=VERDICT_DTYPE)
    verdicts.row = np.repeat(flagged, test.n)
    verdicts.node = np.tile(np.arange(test.n), len(flagged))
    verdicts.observed = observed.ravel()
    verdicts.predicted = predicted.ravel()
    verdicts.uninferable = np.tile([not ps for ps in tn.dag.parents], len(flagged))
    verdicts.abnormal = ~verdicts.uninferable & (verdicts.predicted != verdicts.observed)
    return DetectionReport(model.q_limit, model.t2_limit, rows, verdicts)


def _predict_states(node: int, prev: np.ndarray, tn: TransitionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """`nb_predict_state`'s predicted states and posteriors for every row of previous states at once."""
    prior = tn.priors[node]
    marginals = parent_marginals(tn.cpts[node])
    unnorm = np.tile(prior, (len(prev), 1))
    for position, parent in enumerate(tn.dag.parents[node]):
        unnorm = unnorm * marginals[position, prev[:, parent] - 1]
    total = unnorm.sum(axis=1)
    # Parents with disjoint supports leave a zero row: fall back to the prior.
    inferable = total > 0.0
    posterior = np.where(inferable[:, None], unnorm / np.where(inferable, total, 1.0)[:, None], prior / prior.sum())
    return np.argmax(posterior, axis=1) + 1, posterior


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
    # The screening cells of a row repeat on each of its lines, so each is formatted once per row.
    row_cells = [list(_number_cells(column)) for column in (rows.row, rows.q, rows.t2, rows.flagged.astype(np.int64))]
    _write_columns(
        path,
        ["row", "q", "t2", "flagged", "node", "observed", "predicted", "abnormal"],
        [
            *(_indexed_cells(cells, screen) for cells in row_cells),
            _number_cells(line["node"], blank),
            _number_cells(line["observed"], blank),
            _number_cells(line["predicted"], blank | line["uninferable"]),
            _number_cells(line["abnormal"].astype(np.int64), blank),
        ],
    )
