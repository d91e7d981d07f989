"""Tracing of sensorprep's public functions from outside the package.

A `Tracer` replaces each traced function with a wrapper that records one
span per call: name, start, end, parent span and run id. The wrapper is
bound wherever the original was bound, so calls through the defining
module, through names copied by `from ... import` (such as
`anomaly.parent_marginal`) and through the `sensorprep` package all pass
through it. Spans stay in memory in flat arrays and are written once, at
the end of the benchmark.

Self time of a span is its duration minus the time its direct child spans
cover. Calls nest strictly on one thread, so children never overlap and
that cover is the sum of their durations.
"""

from __future__ import annotations

import inspect
import os
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions traced per module, in the order their metrics are listed.
TRACED = {
    "ingest": ("load_csv", "discretize", "discretize_row", "write_csv"),
    "quantiles": ("f_quantile",),
    "spectra": ("jacobi_eigh", "fit_pca_model", "q_statistic", "t2_statistic"),
    "bayesnet": (
        "count_states",
        "family_score",
        "penalized_family_score",
        "k2_search",
        "repair_cycles",
        "learn_static",
        "learn_transition",
        "network_to_dict",
        "parent_marginal",
    ),
    "anomaly": ("tq_screen", "nb_predict_state", "tqbayes_detect", "report_to_dict", "write_report_csv"),
    "redundancy": (
        "rsdrda_schedule",
        "rsdrda_infer",
        "recover",
        "realtime_report_to_dict",
        "write_realtime_csv",
        "ssdrda",
        "static_recovery",
        "static_report_to_dict",
        "write_static_csv",
        "write_recovery_csv",
    ),
    "metrics": ("precision_recall", "rmse"),
}


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _load_csv_bytes(tracer, fn, args, kwargs, result):
    tracer.count("ingest.load_csv.bytes", os.path.getsize(_argument(fn, args, kwargs, "path")))


def _repair_cycles_edges(tracer, fn, args, kwargs, result):
    before = len(_argument(fn, args, kwargs, "dag").edges())
    tracer.count("bayesnet.repair_cycles.edges_removed", before - len(result.edges()))


def _tq_screen_flags(tracer, fn, args, kwargs, result):
    tracer.count("anomaly.screened", 1)
    tracer.count("anomaly.flagged", int(result[2]))


def _schedule_sleep(tracer, fn, args, kwargs, result):
    tracer.count("redundancy.entries", len(result.entries))
    tracer.count("redundancy.sleeping", sum(e.sleeping for e in result.entries))


def _universe_size(tracer, fn, args, kwargs, result):
    tracer.count("metrics.precision_recall.universe_size", len(_argument(fn, args, kwargs, "universe")))


# Counters recorded after a call returns, keyed by traced function.
HOOKS = {
    "ingest.load_csv": _load_csv_bytes,
    "bayesnet.repair_cycles": _repair_cycles_edges,
    "anomaly.tq_screen": _tq_screen_flags,
    "redundancy.rsdrda_schedule": _schedule_sleep,
    "metrics.precision_recall": _universe_size,
}


class Tracer:
    """In-memory span recorder that patches the traced functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float) -> None:
        self.counters[(self.run_id, key)] += amount

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Bind a tracing wrapper in place of every traced function, wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "sensorprep" or name.startswith("sensorprep.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"sensorprep.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _arrays(self):
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.run, dtype=np.int64),
            np.array(self.start),
            np.array(self.end),
        )

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span duration and self time (duration minus direct children's durations)."""
        _, parent, _, start, end = self._arrays()
        duration = end - start
        covered = np.zeros_like(duration)
        child = parent >= 0
        np.add.at(covered, parent[child], duration[child])
        return duration, duration - covered

    def totals(self, run_id: int) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per span name within one run."""
        name_id, _, run, _, _ = self._arrays()
        _, self_time = self.self_times()
        mine = run == run_id
        calls = np.bincount(name_id[mine], minlength=len(self.names))
        busy = np.bincount(name_id[mine], weights=self_time[mine], minlength=len(self.names))
        return {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(self.names)}

    def spans_in(self, run_id: int) -> int:
        return int(np.count_nonzero(np.array(self.run, dtype=np.int64) == run_id))

    def save(self, path) -> None:
        """Write every span as columnar arrays (names indexed by `name_id`)."""
        name_id, parent, run, start, end = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent, run=run, start=start, end=end
        )
