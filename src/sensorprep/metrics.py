"""Evaluation primitives: precision/recall against injected ground truth
and RMSE of recovered redundant readings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

__all__ = ["ConfusionCounts", "precision_recall", "rmse", "per_node_rmse", "mean_rmse"]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def precision_recall(
    truth: Iterable[Hashable],
    predicted: Iterable[Hashable],
    universe: Iterable[Hashable],
) -> tuple[float, float, ConfusionCounts]:
    """Precision and recall of a predicted positive set against ground truth.

    Empty denominators get a defined value so perfect-on-empty runs do not
    fail: with no predictions, precision is 1.0 when the truth set is also
    empty and 0.0 otherwise; recall mirrors this when the truth set is
    empty. A `range` universe is used as it is: it answers membership of an
    integer from its bounds, without a set of every cell.
    """
    truth = set(truth)
    predicted = set(predicted)
    universe = universe if isinstance(universe, range) else set(universe)
    if not all(map(universe.__contains__, truth)):
        raise ValueError("truth set is not a subset of the decision universe")
    if not all(map(universe.__contains__, predicted)):
        raise ValueError("predicted set is not a subset of the decision universe")
    tp = len(truth & predicted)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    tn = len(universe) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else (0.0 if truth else 1.0)
    recall = tp / (tp + fn) if tp + fn else (0.0 if predicted else 1.0)
    return precision, recall, ConfusionCounts(tp, fp, fn, tn)


def rmse(actual: Sequence[float], estimated: Sequence[float]) -> float:
    """Root mean squared difference between paired readings."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(estimated, dtype=float)
    if a.size == 0:
        raise ValueError("rmse of empty input")
    if a.shape != e.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {e.shape}")
    return float(np.sqrt(np.mean((a - e) ** 2)))


def per_node_rmse(recoveries: np.recarray, values: np.ndarray) -> dict[int, float]:
    """`rmse` of each node's recoveries (`redundancy.RECOVERY_DTYPE`) against `values[t, node]`, by ascending node."""
    for what, index, size in (("row", recoveries.t, len(values)), ("node", recoveries.node, values.shape[1])):
        outside = index[(index < 0) | (index >= size)]
        if outside.size:
            raise ValueError(f"recovery at {what} {outside[0]} is outside the data's {what}s 0..{size - 1}")
    nodes, actual = recoveries.node, values[recoveries.t, recoveries.node]
    # Not np.unique: its first call imports numpy.ma, which no other step of a realtime run needs.
    present = np.flatnonzero(np.bincount(nodes, minlength=values.shape[1])).tolist()
    return {j: rmse(actual[nodes == j], recoveries.estimate[nodes == j]) for j in present}


def mean_rmse(per_node_rmse: Sequence[float]) -> float:
    """Arithmetic mean of per-node RMSE values over the redundant nodes."""
    values = [float(v) for v in per_node_rmse]
    if not values:
        raise ValueError("mean_rmse of empty input")
    return sum(values) / len(values)
