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
from .ingest import DiscretizationScheme, SensorDataset, StateMatrix, discretize
from .ingest import _distinct_cells, _indexed_cells, _number_cells, _write_columns
from .spectra import PcaModel, _one_row, _statistics, limit_to_json

__all__ = [
    "ROW_DTYPE",
    "DetectionReport",
    "tq_screen",
    "nb_predict_state",
    "tqbayes_detect",
    "report_to_dict",
    "report_from_dict",
    "write_report_csv",
]

# One record per screened test row, as a `detection_report` stores it.
ROW_DTYPE = artifacts.SCHEMA["detection_report"]["rows"][0]


@dataclass(frozen=True)
class DetectionReport:
    """Screening values for every test row plus each node's states at the f flagged rows.

    `rows` is a `ROW_DTYPE` record array whose fields are columns, e.g. `report.rows.q`. `observed` and `predicted`
    are the f x n state matrices of the flagged rows, in row order, and `uninferable` flags each node without
    transition parents; any other shape is a ValueError.
    """

    q_limit: float
    t2_limit: float
    rows: np.recarray
    observed: np.ndarray
    predicted: np.ndarray
    uninferable: np.ndarray

    def __post_init__(self) -> None:
        shape = (int(self.rows.flagged.sum()), len(self.uninferable))
        if self.observed.shape != shape or self.predicted.shape != shape:
            raise ValueError(f"observed and predicted states must have shape (flagged rows, nodes) = {shape}, "
                             f"got {self.observed.shape} and {self.predicted.shape}")

    @property
    def abnormal(self) -> np.ndarray:
        """The f x n verdicts: an inferable node whose predicted state differs from its observed one."""
        return ~self.uninferable & (self.predicted != self.observed)

    def flagged_rows(self) -> list[int]:
        return self.rows.row[self.rows.flagged].tolist()


def tq_screen(row: np.ndarray, model: PcaModel) -> tuple[float, float, bool]:
    """Standardize one raw sample and test it against both control limits: stage one's kernel on one row.

    Returns (q, t2, flagged) with flagged true when either statistic
    exceeds its limit. Both equal, bit for bit, `q_statistic` and `t2_statistic` of the standardized row.
    """
    q, t2, flagged = _screen(_one_row(row, model.standardization.n), model)
    return float(q[0]), float(t2[0]), bool(flagged[0])


def _screen(values: np.ndarray, model: PcaModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage one over the m x n matrix of raw samples at once: each row's q, t2 and whether either exceeds its limit."""
    means, scale, _, _ = model.screening
    z = values - means
    z /= scale
    q, t2 = _statistics(z, model)
    return q, t2, (q > model.q_limit) | (t2 > model.t2_limit)


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
    k = tn.counts[node].shape[1]
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
    last_states: np.ndarray,
) -> DetectionReport:
    """Run the full two-stage detector over a test set.

    Stage one screens every row at once. Stage two then runs over all
    flagged rows at once: each inferable node is marked abnormal when the
    state predicted from its parents' previous states disagrees with the
    observed one. Test row 0 follows the states `last_states` (the last
    training row's, which `learn` stores); later rows follow the observed
    previous test row even if it was itself corrupted.
    """
    k = tn.counts[0].shape[1]
    if test.n != model.n or test.n != tn.dag.n or test.n != scheme.n or scheme.state_count != k:
        raise ValueError(
            f"artifact shapes disagree: data n={test.n}, model n={model.n}, "
            f"network n={tn.dag.n}, scheme n={scheme.n}, network K={k}, scheme K={scheme.state_count}"
        )

    rows = np.rec.fromarrays([np.arange(test.m), *_screen(test.values, model)], dtype=ROW_DTYPE)
    flagged = np.flatnonzero(rows.flagged)
    # Row 0 of `states` is the last training row, so test row r sits at r + 1.
    states = StateMatrix(np.vstack([last_states, discretize(test, scheme).states]), k).states
    prev = states[flagged]
    predicted = np.column_stack([_predict_states(node, prev, tn)[0] for node in range(test.n)])
    uninferable = np.array([not ps for ps in tn.dag.parents])
    return DetectionReport(model.q_limit, model.t2_limit, rows, states[flagged + 1], predicted, uninferable)


def _predict_states(node: int, prev: np.ndarray, tn: TransitionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """`nb_predict_state`'s predicted states and posteriors for every row of previous states at once."""
    prior = tn.priors[node]
    marginals = parent_marginals(tn.counts[node], len(tn.dag.parents[node]))
    unnorm = np.tile(prior, (len(prev), 1))
    for position, parent in enumerate(tn.dag.parents[node]):
        unnorm = unnorm * marginals[position, prev[:, parent] - 1]
    total = unnorm.sum(axis=1)
    # Parents with disjoint supports leave a zero row: fall back to the prior.
    inferable = total > 0.0
    posterior = np.where(inferable[:, None], unnorm / np.where(inferable, total, 1.0)[:, None], prior / prior.sum())
    return np.argmax(posterior, axis=1) + 1, posterior


def report_to_dict(report: DetectionReport) -> dict:
    """The `detection_report` artifact body: the rows, the observed and predicted states flattened row by row as the
    `verdicts` columns, and each node's `uninferable` flag (none if no row is flagged)."""
    return {
        "q_limit": limit_to_json(report.q_limit),
        "t2_limit": float(report.t2_limit),
        "rows": artifacts.columns(report.rows),
        "verdicts": [report.observed.ravel().tolist(), report.predicted.ravel().tolist()],
        "uninferable": report.uninferable.tolist() if len(report.observed) else [],
    }


def report_from_dict(doc: artifacts.Document) -> DetectionReport:
    """The report of a read `detection_report` document. Where no row is flagged the file holds no `uninferable`
    flags, and every node reads as inferable."""
    rows, verdicts, uninferable = doc["rows"], doc["verdicts"], doc["uninferable"]
    shape = (int(rows.flagged.sum()), len(doc["node_ids"]))
    uninferable = uninferable if shape[0] else np.zeros(shape[1], dtype=bool)
    return DetectionReport(doc["q_limit"], doc["t2_limit"], rows, verdicts.observed.reshape(shape),
                           verdicts.predicted.reshape(shape), uninferable)


def write_report_csv(report: DetectionReport, path: str | Path) -> None:
    """Flat per-row / per-(row, node) layout for external plotting.

    Unflagged rows emit a single line with empty node columns; flagged rows emit one line per node, in node order.
    Uninferable nodes leave `predicted` empty.
    """
    rows, (f, n) = report.rows, report.observed.shape
    screen = np.repeat(np.arange(len(rows)), np.where(rows.flagged, n, 1))
    blank = ~rows.flagged[screen]
    # The lines of flagged rows take the flattened cells in turn; an unflagged row's line, a padding cell after them.
    cell = np.where(blank, f * n, np.cumsum(~blank) - 1)
    node, observed, predicted, abnormal, uninferable = (np.append(c, np.zeros(1, c.dtype))[cell] for c in (
        np.tile(np.arange(n), f), report.observed, report.predicted, report.abnormal, np.tile(report.uninferable, f)))
    # The screening cells of a row repeat on each of its lines, so each is formatted once per row.
    row_cells = [list(_number_cells(column)) for column in (rows.row, rows.q, rows.t2, rows.flagged.astype(np.int64))]
    _write_columns(
        path,
        ["row", "q", "t2", "flagged", "node", "observed", "predicted", "abnormal"],
        [
            *(_indexed_cells(cells, screen) for cells in row_cells),
            _distinct_cells(node, blank),
            _distinct_cells(observed, blank),
            _distinct_cells(predicted, blank | uninferable),
            _distinct_cells(abnormal, blank),
        ],
    )
