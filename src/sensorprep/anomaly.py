"""Two-stage anomaly detection over sensor streams.

Stage one screens each sample with the Q and T-squared statistics in an OR
combination; stage two localizes flagged samples to nodes by predicting
each node's discrete state from its transition parents at the previous
step and comparing against the observed state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bayesnet import TransitionNetwork, parent_marginal
from .ingest import DiscretizationScheme, SensorDataset, apply_standardization, discretize_row
from .spectra import PcaModel, limit_from_json, limit_to_json, q_statistic, t2_statistic

__all__ = [
    "RowScreen",
    "NodeVerdict",
    "DetectionReport",
    "tq_screen",
    "nb_predict_state",
    "tqbayes_detect",
    "report_to_dict",
    "report_from_dict",
    "write_report_csv",
]


@dataclass(frozen=True)
class RowScreen:
    row: int
    q: float
    t2: float
    flagged: bool


@dataclass(frozen=True)
class NodeVerdict:
    row: int
    node: int
    observed: int
    predicted: int
    abnormal: bool
    uninferable: bool


@dataclass(frozen=True)
class DetectionReport:
    """Screening values for every test row plus node verdicts for flagged rows."""

    q_limit: float
    t2_limit: float
    rows: tuple[RowScreen, ...]
    verdicts: tuple[NodeVerdict, ...]

    def flagged_rows(self) -> list[int]:
        return [r.row for r in self.rows if r.flagged]

    def abnormal_cells(self) -> list[tuple[int, int]]:
        return [(v.row, v.node) for v in self.verdicts if v.abnormal]


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

    Every row is screened; flagged rows are discretized together with their
    predecessor and each inferable node is marked abnormal when its
    predicted state disagrees with the observed one. The first test row
    uses the supplied last training row as its predecessor; later rows use
    the observed previous test row even if it was itself corrupted.
    """
    if test.n != model.n or test.n != tn.dag.n or test.n != scheme.n:
        raise ValueError(
            f"artifact shapes disagree: data n={test.n}, model n={model.n}, "
            f"network n={tn.dag.n}, scheme n={scheme.n}"
        )
    last_train_row = np.asarray(last_train_row, dtype=float)
    if last_train_row.shape != (test.n,):
        raise ValueError(f"last training row has shape {last_train_row.shape}, expected ({test.n},)")

    rows: list[RowScreen] = []
    verdicts: list[NodeVerdict] = []
    for r in range(test.m):
        q, t2, flagged = tq_screen(test.values[r], model)
        rows.append(RowScreen(r, q, t2, flagged))
        if not flagged:
            continue
        prev_raw = last_train_row if r == 0 else test.values[r - 1]
        prev_states = discretize_row(prev_raw, scheme)
        observed = discretize_row(test.values[r], scheme)
        for node in range(test.n):
            predicted, _ = nb_predict_state(node, prev_states, tn)
            uninferable = not tn.dag.parents[node]
            abnormal = (not uninferable) and predicted != int(observed[node])
            verdicts.append(NodeVerdict(r, node, int(observed[node]), predicted, abnormal, uninferable))
    return DetectionReport(model.q_limit, model.t2_limit, tuple(rows), tuple(verdicts))


def report_to_dict(report: DetectionReport) -> dict:
    return {
        "q_limit": limit_to_json(report.q_limit),
        "t2_limit": float(report.t2_limit),
        "rows": [
            {"row": s.row, "q": float(s.q), "t2": float(s.t2), "flagged": s.flagged}
            for s in report.rows
        ],
        "verdicts": [
            {
                "row": v.row,
                "node": v.node,
                "observed": v.observed,
                "predicted": v.predicted,
                "abnormal": v.abnormal,
                "uninferable": v.uninferable,
            }
            for v in report.verdicts
        ],
    }


def report_from_dict(doc: dict) -> DetectionReport:
    rows = tuple(RowScreen(s["row"], s["q"], s["t2"], s["flagged"]) for s in doc["rows"])
    verdicts = tuple(
        NodeVerdict(v["row"], v["node"], v["observed"], v["predicted"], v["abnormal"], v["uninferable"])
        for v in doc["verdicts"]
    )
    return DetectionReport(limit_from_json(doc["q_limit"]), doc["t2_limit"], rows, verdicts)


def write_report_csv(report: DetectionReport, path: str | Path) -> None:
    """Flat per-row / per-(row, node) layout for external plotting.

    Unflagged rows emit a single line with empty node columns; flagged rows
    emit one line per node. Uninferable nodes leave `predicted` empty.
    """
    by_row: dict[int, list[NodeVerdict]] = {}
    for v in report.verdicts:
        by_row.setdefault(v.row, []).append(v)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "q", "t2", "flagged", "node", "observed", "predicted", "abnormal"])
        for s in report.rows:
            if not s.flagged:
                writer.writerow([s.row, repr(s.q), repr(s.t2), int(s.flagged), "", "", "", ""])
                continue
            for v in by_row.get(s.row, []):
                writer.writerow(
                    [
                        s.row,
                        repr(s.q),
                        repr(s.t2),
                        int(s.flagged),
                        v.node,
                        v.observed,
                        "" if v.uninferable else v.predicted,
                        int(v.abnormal),
                    ]
                )
