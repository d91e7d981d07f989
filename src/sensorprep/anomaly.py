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
    "VERDICT_DTYPE",
    "DetectionReport",
    "tq_screen",
    "nb_predict_state",
    "tqbayes_detect",
    "verdict_records",
    "report_to_dict",
    "write_report_csv",
]

# One record per screened test row, as a `detection_report` stores it.
ROW_DTYPE = artifacts.SCHEMA["detection_report"]["rows"][0]
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
# The verdict columns that a `detection_report` file stores; `verdict_records` rebuilds the others.
_STORED_DTYPE = artifacts.SCHEMA["detection_report"]["verdicts"][0]


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
    prev, observed = states[flagged], states[flagged + 1].ravel()
    predicted = np.column_stack([_predict_states(node, prev, tn)[0] for node in range(test.n)]).ravel()
    uninferable = np.array([not ps for ps in tn.dag.parents])
    verdicts = verdict_records(flagged, observed, predicted, uninferable)
    return DetectionReport(model.q_limit, model.t2_limit, rows, verdicts)


def verdict_records(flagged: np.ndarray, observed: np.ndarray, predicted: np.ndarray, uninferable: np.ndarray
                    ) -> np.recarray:
    """The verdicts of the `flagged` rows, row by row and node by node, from their `observed` and `predicted` states
    and each node's `uninferable` flag: abnormal where an inferable node's two states differ."""
    n, uninferable = len(uninferable), np.tile(uninferable, len(flagged))
    cells = [np.repeat(flagged, n), np.tile(np.arange(n), len(flagged)), observed, predicted]
    return np.rec.fromarrays([*cells, ~uninferable & (predicted != observed), uninferable], dtype=VERDICT_DTYPE)


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
    """The `detection_report` artifact body: the rows, and of the verdicts what `verdict_records` cannot rebuild, the
    `observed` and `predicted` columns and each node's `uninferable` flag (none if none flagged). Verdicts that are
    not `tqbayes_detect`'s, one per flagged row and node in that order, are a ValueError."""
    verdicts, flagged = report.verdicts, report.rows.row[report.rows.flagged]
    n = len(verdicts) // len(flagged) if len(flagged) else 0
    uninferable = verdicts.uninferable[:n]
    if len(verdicts) != len(flagged) * n or not np.array_equal(
        verdict_records(flagged, verdicts.observed, verdicts.predicted, uninferable), verdicts
    ):
        raise ValueError("verdicts must be one per flagged row and node, in row then node order")
    return {
        "q_limit": limit_to_json(report.q_limit),
        "t2_limit": float(report.t2_limit),
        "rows": artifacts.columns(report.rows),
        "verdicts": artifacts.columns(verdicts[list(_STORED_DTYPE.names)]),
        "uninferable": uninferable.tolist(),
    }


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
            _distinct_cells(line["node"], blank),
            _distinct_cells(line["observed"], blank),
            _distinct_cells(line["predicted"], blank | line["uninferable"]),
            _distinct_cells(line["abnormal"], blank),
        ],
    )
