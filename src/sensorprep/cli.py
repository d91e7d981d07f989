"""Command-line pipeline: learn artifacts, inject errors, detect anomalies,
find redundant nodes, and evaluate against ground truth.

Configuration comes from an optional JSON document plus flag overrides,
checked against each field's type and range before any file is read.
Every command is deterministic given the same config and seed. Artifacts
and reports are versioned JSON documents (see `artifacts`) whose node ids
are checked against the data on every load. Errors leave as
machine-readable JSON on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import anomaly, artifacts, bayesnet, ingest, metrics, redundancy, spectra

ENV_OUT_DIR = "SENSORPREP_OUT_DIR"


@dataclass(frozen=True)
class RunConfig:
    """Pipeline parameters with the documented defaults."""

    train_csv: str | None = None
    data_csv: str | None = None
    profile: str | None = None
    profile_params: dict | None = None
    seed: int = 0
    rows: int = 300
    cols: int = 6
    alpha_warning: float = 0.05
    contribution_ratio: float = 0.85
    k_states: int = 3
    max_parents: int = 3
    tau: float = 0.95
    slice_len: int = 100
    train_frac: float = 0.6
    error_rows: int = 50
    error_pct: float = 0.10
    out_dir: str = "."

    def __post_init__(self) -> None:
        for f in fields(self):  # f.type is the annotation's text, as annotations are postponed
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if f.type == "dict | None" and not isinstance(value, (dict, type(None))):
                raise ValueError(f"{f.name} must be a JSON object, got {value!r}")
        for name in ("alpha_warning", "train_frac"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        for name in ("contribution_ratio", "tau"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        for name in ("rows", "cols", "slice_len", "error_rows"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.k_states < 2:
            raise ValueError(f"k_states must be >= 2, got {self.k_states}")
        if self.max_parents < 0:
            raise ValueError("max_parents must be >= 0")
        bayesnet.check_cpt_cells(self.k_states, self.max_parents)
        if self.error_pct < 0:
            raise ValueError("error_pct must be >= 0")


def _scheme_to_dict(scheme: ingest.DiscretizationScheme) -> dict:
    return {"state_count": int(scheme.state_count), "edges": [e.tolist() for e in scheme.edges]}


def _scheme_from_dict(doc: dict) -> ingest.DiscretizationScheme:
    return ingest.DiscretizationScheme(tuple(np.array(e) for e in doc["edges"]), int(doc["state_count"]))


def cmd_synth(cfg: RunConfig, out: str, split: int | None, out_train: str | None, out_test: str | None) -> dict:
    data = ingest.synth_generate(cfg.seed, cfg.rows, cfg.cols, cfg.profile or "correlated-drift", **(cfg.profile_params or {}))
    written = []
    if split is not None:
        if not 2 <= split <= data.m - 2:
            raise ValueError(f"split must leave at least 2 rows on each side, got {split}")
        if not (out_train and out_test):
            raise ValueError("--split requires --out-train and --out-test")
        train = ingest.SensorDataset(data.values[:split], data.node_ids)
        test = ingest.SensorDataset(data.values[split:], data.node_ids)
        ingest.write_csv(train, out_train)
        ingest.write_csv(test, out_test)
        written = [out_train, out_test]
    else:
        ingest.write_csv(data, out)
        written = [out]
    return {"rows": data.m, "cols": data.n, "written": written}


def cmd_learn(cfg: RunConfig) -> dict:
    if not cfg.train_csv:
        raise ValueError("learn needs --train")
    train = ingest.load_csv(cfg.train_csv)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = spectra.fit_pca_model(train, cfg.contribution_ratio, cfg.alpha_warning)
    scheme = ingest.fit_discretization(train, cfg.k_states)
    states = ingest.discretize(train, scheme)
    static = bayesnet.learn_static(states, cfg.max_parents)
    transition = bayesnet.learn_transition(states, cfg.max_parents)

    for kind, body in (
        ("pca_model", spectra.model_to_dict(model)),
        ("scheme", _scheme_to_dict(scheme)),
        ("static_network", bayesnet.network_to_dict(static)),
        ("transition_network", bayesnet.network_to_dict(transition)),
    ):
        artifacts.write(out_dir / f"{kind}.json", kind, train.node_ids, body)

    return {
        "k": model.k,
        "q_limit": spectra.limit_to_json(model.q_limit),
        "t2_limit": model.t2_limit,
        "static_edges": len(static.dag.edges()),
        "transition_edges": len(transition.dag.edges()),
        "score": bayesnet.fitted_score(static) + bayesnet.fitted_score(transition),
        "out_dir": str(out_dir),
    }


def cmd_inject(cfg: RunConfig, out: str, sidecar: str, rows_list: str | None) -> dict:
    if not cfg.train_csv or not cfg.data_csv:
        raise ValueError("inject needs --train (for the means) and --data (rows to corrupt)")
    train = ingest.load_csv(cfg.train_csv)
    data = ingest.load_csv(cfg.data_csv)
    artifacts.check_node_ids(train.node_ids, data.node_ids, "inject", "training CSV")
    if rows_list:
        rows = sorted({int(tok) for tok in rows_list.split(",") if tok.strip()})
    else:
        rows = list(range(data.m - cfg.error_rows, data.m))
    means = train.values.mean(axis=0)
    corrupted = ingest.inject_errors(data, rows, cfg.error_pct, means)
    ingest.write_csv(corrupted, out)
    truth = {"rows": rows, "pct": cfg.error_pct, "delta_per_node": (means * cfg.error_pct).tolist()}
    artifacts.write_json(sidecar, {**truth, "node_ids": list(data.node_ids), "test_rows": data.m})
    return {"corrupted_rows": len(rows), "out": out, "sidecar": sidecar}


def cmd_detect(cfg: RunConfig, artifact_dir: str) -> dict:
    if not cfg.train_csv or not cfg.data_csv:
        raise ValueError("detect needs --train (predecessor of the first test row) and --data")
    art = Path(artifact_dir)
    train = ingest.load_csv(cfg.train_csv)
    test = ingest.load_csv(cfg.data_csv)
    artifacts.check_node_ids(train.node_ids, test.node_ids, "detect --train", "training CSV")
    model = spectra.model_from_dict(artifacts.read(art / "pca_model.json", "pca_model", test.node_ids))
    scheme = _scheme_from_dict(artifacts.read(art / "scheme.json", "scheme", test.node_ids))
    tn_doc = artifacts.read(art / "transition_network.json", "transition_network", test.node_ids)
    tn = bayesnet.transition_from_dict(tn_doc)

    report = anomaly.tqbayes_detect(test, model, tn, scheme, train.values[-1])
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = anomaly.report_to_dict(report)
    artifacts.write(out_dir / "detection_report.json", "detection_report", test.node_ids, body)
    anomaly.write_report_csv(report, out_dir / "detection_report.csv")
    return {
        "rows": test.m,
        "flagged": len(report.flagged_rows()),
        "abnormal_cells": len(report.abnormal_cells()),
        "out_dir": str(out_dir),
    }


def cmd_redundancy_static(cfg: RunConfig, artifact_dir: str) -> dict:
    if not cfg.data_csv:
        raise ValueError("redundancy-static needs --data")
    data = ingest.load_csv(cfg.data_csv)
    net_doc = artifacts.read(Path(artifact_dir) / "static_network.json", "static_network", data.node_ids)
    net = bayesnet.static_from_dict(net_doc)

    report = redundancy.ssdrda(net.dag, net.cpts, cfg.tau)
    report = replace(report, recoveries=redundancy.static_recovery(data, net.dag, report.redundant_nodes()))

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = redundancy.static_report_to_dict(report)
    artifacts.write(out_dir / "redundancy_static.json", "redundancy_static", data.node_ids, body)
    redundancy.write_static_csv(report, data.node_ids, out_dir / "redundancy_static.csv")
    redundancy.write_recovery_csv(report.recoveries, data.node_ids, out_dir / "recovery_static.csv")
    return {
        "redundant_nodes": [data.node_ids[i] for i in report.redundant_nodes()],
        "out_dir": str(out_dir),
    }


def cmd_redundancy_realtime(cfg: RunConfig) -> dict:
    if not cfg.data_csv:
        raise ValueError("redundancy-realtime needs --data")
    data = ingest.load_csv(cfg.data_csv)
    scheme = ingest.fit_discretization(data, cfg.k_states)
    report = redundancy.rsdrda_schedule(data, cfg.slice_len, cfg.train_frac, cfg.tau, scheme, cfg.max_parents)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = redundancy.realtime_report_to_dict(report)
    artifacts.write(out_dir / "redundancy_realtime.json", "redundancy_realtime", data.node_ids, body)
    redundancy.write_realtime_csv(report, data.node_ids, out_dir / "redundancy_realtime.csv")
    redundancy.write_recovery_csv(report.recoveries, data.node_ids, out_dir / "recovery_realtime.csv")
    per_node = metrics.per_node_rmse(report.recoveries)
    return {
        "inference_entries": len(report.entries),
        "sleeping_entries": int(report.entries.sleeping.sum()),
        "sleeping_nodes": [data.node_ids[i] for i in per_node],
        "recovered_readings": len(report.recoveries),
        "recovery_rmse": metrics.mean_rmse(list(per_node.values())) if per_node else None,
        "out_dir": str(out_dir),
    }


def cmd_evaluate(report_path: str, truth_path: str, out: str | None, redundancy_path: str | None) -> dict:
    truth_doc = json.loads(Path(truth_path).read_text(encoding="utf-8"))
    report = anomaly.report_from_dict(artifacts.read(report_path, "detection_report", truth_doc["node_ids"]))
    truth_rows = set(int(r) for r in truth_doc["rows"])
    n = len(truth_doc["node_ids"])
    test_rows = int(truth_doc["test_rows"])

    rows = metrics.precision_recall(truth_rows, report.flagged_rows(), range(test_rows))

    # Cell (r, j) is the integer r * n + j, so the universe is a range.
    hit = report.verdicts[report.verdicts.abnormal]
    outside = hit.node[(hit.node < 0) | (hit.node >= n)]
    if outside.size:
        raise ValueError(f"report names node {outside[0]}, outside the truth file's {n} nodes")
    truth_cells = [r * n + j for r in truth_rows for j in range(n)]
    predicted_cells = (hit.row * n + hit.node).tolist()
    cells = metrics.precision_recall(truth_cells, predicted_cells, range(test_rows * n))

    doc = {
        level: {"precision": precision, "recall": recall, **asdict(counts)}
        for level, (precision, recall, counts) in (("row_level", rows), ("node_level", cells))
    }
    if redundancy_path:
        red_doc = artifacts.read(redundancy_path, ("redundancy_static", "redundancy_realtime"), None)
        per_node = metrics.per_node_rmse(artifacts.records(red_doc["recoveries"], redundancy.RECOVERY_DTYPE))
        doc["recovery"] = {
            "per_node_rmse": {str(node): value for node, value in per_node.items()},
            "mean_rmse": metrics.mean_rmse(list(per_node.values())) if per_node else None,
        }
    if out:
        artifacts.write_json(out, doc)
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sensorprep", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out-dir", help=f"output directory (default: ${ENV_OUT_DIR} or '.')")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--profile", help="correlated-drift | copy-child | lagged-copy")
    p.add_argument("--seed", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE", help="profile parameter (JSON value)")
    p.add_argument("--out", default="synth.csv")
    p.add_argument("--split", type=int, help="write the first N rows and the rest separately")
    p.add_argument("--out-train")
    p.add_argument("--out-test")
    p.set_defaults(func=lambda cfg, a: cmd_synth(cfg, a.out, a.split, a.out_train, a.out_test))

    p = sub.add_parser("learn", help="fit the PCA model and both networks")
    p.add_argument("--train", dest="train_csv")
    p.add_argument("--alpha", dest="alpha_warning", type=float)
    p.add_argument("--contribution-ratio", dest="contribution_ratio", type=float)
    p.add_argument("--k-states", dest="k_states", type=int)
    p.add_argument("--max-parents", dest="max_parents", type=int)
    add_common(p)
    p.set_defaults(func=lambda cfg, a: cmd_learn(cfg))

    p = sub.add_parser("inject", help="corrupt rows of a test set per the error model")
    p.add_argument("--train", dest="train_csv", required=True)
    p.add_argument("--data", dest="data_csv", required=True)
    p.add_argument("--last-rows", dest="error_rows", type=int)
    p.add_argument("--rows-list", help="explicit comma-separated row indices")
    p.add_argument("--pct", dest="error_pct", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", required=True)
    p.set_defaults(func=lambda cfg, a: cmd_inject(cfg, a.out, a.sidecar, a.rows_list))

    p = sub.add_parser("detect", help="run the two-stage detector")
    p.add_argument("--train", dest="train_csv", required=True)
    p.add_argument("--data", dest="data_csv", required=True)
    p.add_argument("--artifacts", required=True)
    add_common(p)
    p.set_defaults(func=lambda cfg, a: cmd_detect(cfg, a.artifacts))

    p = sub.add_parser("redundancy-static", help="static redundant-node detection")
    p.add_argument("--data", dest="data_csv", required=True)
    p.add_argument("--artifacts", required=True)
    p.add_argument("--tau", type=float)
    add_common(p)
    p.set_defaults(func=lambda cfg, a: cmd_redundancy_static(cfg, a.artifacts))

    p = sub.add_parser("redundancy-realtime", help="sleep/wake scheduling over time slices")
    p.add_argument("--data", dest="data_csv", required=True)
    p.add_argument("--slice-len", dest="slice_len", type=int)
    p.add_argument("--train-frac", dest="train_frac", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--k-states", dest="k_states", type=int)
    p.add_argument("--max-parents", dest="max_parents", type=int)
    add_common(p)
    p.set_defaults(func=lambda cfg, a: cmd_redundancy_realtime(cfg))

    p = sub.add_parser("evaluate", help="precision/recall and recovery RMSE")
    p.add_argument("--report", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--redundancy")
    p.add_argument("--out")
    p.set_defaults(func=lambda cfg, a: cmd_evaluate(a.report, a.truth, a.out, a.redundancy))

    return parser


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"--config must hold a JSON object of config keys, got {type(doc).__name__}")
        values.update(doc)
    field_names = {f.name for f in fields(RunConfig)}
    unknown = set(values) - field_names
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in field_names:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if "out_dir" not in values or values["out_dir"] is None:
        values["out_dir"] = os.environ.get(ENV_OUT_DIR, ".")
    config = RunConfig(**values)
    params = _parse_params(getattr(args, "param", []) or [])
    return replace(config, profile_params={**(config.profile_params or {}), **params}) if params else config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        summary = args.func(_merge_config(args), args)
        text = json.dumps(summary, sort_keys=True, allow_nan=False)
    except Exception as exc:  # deliberate catch-all: the CLI contract is JSON errors
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}, sort_keys=True), file=sys.stderr)
        return 1
    print(text)
    return 0


def entry_point() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
