"""Benchmark workloads.

Each workload turns a seed into inputs through the CLI (`setup`), names the
CLI steps it times (`steps`), and reads quality numbers and output checks
back from the files those steps wrote (`quality`). The checks here read the
outputs with the standard library only, independently of sensorprep.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Size:
    nodes: int
    rows: int  # rows generated in total
    train: int = 0  # leading rows used for training, where the workload splits
    pairs: int = 0  # planted copy pairs: child 2i+1 copies parent 2i


def _copies(pairs: int) -> str:
    return "copies=" + json.dumps({str(2 * i + 1): 2 * i for i in range(pairs)})


def _node_id(j: int) -> str:
    return f"node{j:02d}"


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _mean_rmse(path: Path) -> float | None:
    """Mean over nodes of each node's recovery RMSE, as `sensorprep evaluate` defines it."""
    squares: dict[str, list[float]] = defaultdict(list)
    for row in _read_rows(path):
        squares[row["node"]].append((float(row["estimate"]) - float(row["actual"])) ** 2)
    if not squares:
        return None
    return sum(math.sqrt(sum(v) / len(v)) for v in squares.values()) / len(squares)


class Workload:
    name: str
    why: str
    full: Size
    tiny: Size
    stage: str  # CLI command whose rows per second the workload reports
    rate_metric: str  # the reported name of that throughput
    truth_metric: str  # the quality number that is the workload's recall of planted truth

    def setup(self, seed: int, d: Path, size: Size) -> list[list[str]]:
        raise NotImplementedError

    def steps(self, inputs: Path, out: Path, size: Size) -> list[list[str]]:
        raise NotImplementedError

    def stage_rows(self, size: Size) -> int:
        return size.rows

    def quality(self, out: Path, size: Size) -> tuple[dict[str, float], list[tuple[str, bool, str]]]:
        raise NotImplementedError


class DetectStream(Workload):
    name = "detect-stream"
    why = (
        "Q/T2 screening plus localization, 1k train/2.5k test rows, ~10% flagged; stresses ingest, spectra, "
        "anomaly, bayesnet search at moderate m, metrics; bypasses redundancy"
    )
    full = Size(nodes=40, rows=3500, train=1000)
    tiny = Size(nodes=8, rows=500, train=200)
    stage = "detect"
    rate_metric = "detect_rows_per_s"
    truth_metric = "row_recall"

    @staticmethod
    def injected(size: Size) -> list[int]:
        """Every 10th row of the back half of the test set."""
        test = size.rows - size.train
        return list(range(test // 2, test, 10))

    def setup(self, seed, d, size):
        rows = ",".join(str(r) for r in self.injected(size))
        return [
            ["synth", "--profile", "correlated-drift", "--seed", str(seed), "--rows", str(size.rows),
             "--cols", str(size.nodes), "--param", "latents=1", "--split", str(size.train),
             "--out-train", str(d / "train.csv"), "--out-test", str(d / "test.csv")],
            ["inject", "--train", str(d / "train.csv"), "--data", str(d / "test.csv"), "--rows-list", rows,
             "--pct", "0.10", "--out", str(d / "test_bad.csv"), "--sidecar", str(d / "truth.json")],
        ]

    def steps(self, inputs, out, size):
        return [
            ["learn", "--train", str(inputs / "train.csv"), "--out-dir", str(out)],
            ["detect", "--train", str(inputs / "train.csv"), "--data", str(inputs / "test_bad.csv"),
             "--artifacts", str(out), "--out-dir", str(out)],
            ["evaluate", "--report", str(out / "detection_report.json"), "--truth", str(inputs / "truth.json"),
             "--out", str(out / "metrics.json")],
        ]

    def stage_rows(self, size):
        return size.rows - size.train

    def quality(self, out, size):
        test = size.rows - size.train
        injected = set(self.injected(size))
        flagged = {int(r["row"]) for r in _read_rows(out / "detection_report.csv") if r["flagged"] == "1"}
        hits = len(flagged & injected)
        row_precision = hits / len(flagged) if flagged else 0.0
        row_recall = hits / len(injected)
        evaluated = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        rows, cells = evaluated["row_level"], evaluated["node_level"]
        quality = {
            "row_precision": rows["precision"],
            "row_recall": rows["recall"],
            "node_precision": cells["precision"],
            "node_recall": cells["recall"],
            "clean_flag_rate": len(flagged - injected) / (test - len(injected)),
        }
        checks = [
            ("detect-stream row_recall == 1.0", row_recall == 1.0, f"row_recall={row_recall}"),
            (
                "evaluate row precision/recall match the detection report",
                (rows["precision"], rows["recall"]) == (row_precision, row_recall),
                f"evaluate={rows['precision']},{rows['recall']} report={row_precision},{row_recall}",
            ),
        ]
        return quality, checks


class RealtimeSlices(Workload):
    name = "realtime-slices"
    why = (
        "RSDRDA over ten 100-row slices: ~22k small lag-1 count_states calls, inference, recovery, big schedule "
        "encode; stresses bayesnet per-call cost, redundancy; bypasses spectra, anomaly"
    )
    full = Size(nodes=40, rows=1000, pairs=10)
    tiny = Size(nodes=8, rows=400, pairs=2)
    stage = "redundancy-realtime"
    rate_metric = "realtime_rows_per_s"
    truth_metric = "sleep_fraction_planted"
    slice_len = 100

    def setup(self, seed, d, size):
        return [
            ["synth", "--profile", "lagged-copy", "--seed", str(seed), "--rows", str(size.rows),
             "--cols", str(size.nodes), "--param", _copies(size.pairs), "--param", "noise_frac=0.1",
             "--out", str(d / "data.csv")],
        ]

    def steps(self, inputs, out, size):
        return [
            ["redundancy-realtime", "--data", str(inputs / "data.csv"), "--slice-len", str(self.slice_len),
             "--out-dir", str(out)],
        ]

    def stage_rows(self, size):
        return size.rows // self.slice_len * self.slice_len

    def quality(self, out, size):
        children = {_node_id(2 * i + 1) for i in range(size.pairs)}
        entries = _read_rows(out / "redundancy_realtime.csv")
        planted = [e for e in entries if e["node"] in children]
        sleeping = sum(e["state"] == "sleeping" for e in entries)
        planted_sleeping = sum(e["state"] == "sleeping" for e in planted)
        quality = {
            "sleep_fraction": sleeping / len(entries),
            "sleep_fraction_planted": planted_sleeping / len(planted) if planted else 0.0,
        }
        rmse = _mean_rmse(out / "recovery_realtime.csv")
        if rmse is not None:
            quality["recovery_rmse"] = rmse
        checks = [
            (
                "realtime-slices planted-copy sleep fraction >= 0.95",
                quality["sleep_fraction_planted"] >= 0.95,
                f"sleep_fraction_planted={quality['sleep_fraction_planted']}",
            ),
            ("realtime-slices recovered readings present", rmse is not None, ""),
        ]
        return quality, checks


class LearnStatic(Workload):
    name = "learn-static"
    why = (
        "Static network on 4k rows: few lag-0 counts on large m, cycle repair, Jacobi n=40, SSDRDA with "
        "40k recoveries, big CSV/JSON reads and writes; bypasses anomaly, RSDRDA"
    )
    full = Size(nodes=40, rows=4000, pairs=10)
    tiny = Size(nodes=8, rows=600, pairs=2)
    stage = "redundancy-static"
    rate_metric = "static_rows_per_s"
    truth_metric = "static_pair_recall"

    def setup(self, seed, d, size):
        return [
            ["synth", "--profile", "copy-child", "--seed", str(seed), "--rows", str(size.rows),
             "--cols", str(size.nodes), "--param", _copies(size.pairs), "--param", "flip=0.02",
             "--out", str(d / "data.csv")],
        ]

    def steps(self, inputs, out, size):
        data = str(inputs / "data.csv")
        return [
            ["learn", "--train", data, "--out-dir", str(out)],
            ["redundancy-static", "--data", data, "--artifacts", str(out), "--out-dir", str(out)],
        ]

    def quality(self, out, size):
        redundant = {r["node"] for r in _read_rows(out / "redundancy_static.csv") if r["redundant"] == "1"}
        found = sum(_node_id(2 * i) in redundant or _node_id(2 * i + 1) in redundant for i in range(size.pairs))
        quality = {"static_pair_recall": found / size.pairs}
        rmse = _mean_rmse(out / "recovery_static.csv")
        if rmse is not None:
            quality["recovery_rmse"] = rmse
        checks = [
            (
                "learn-static static_pair_recall == 1.0",
                quality["static_pair_recall"] == 1.0,
                f"static_pair_recall={quality['static_pair_recall']}",
            ),
            ("learn-static recovered readings present", rmse is not None, ""),
        ]
        return quality, checks


WORKLOADS = {w.name: w for w in (DetectStream(), RealtimeSlices(), LearnStatic())}
