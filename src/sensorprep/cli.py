"""Command-line pipeline: learn artifacts, inject errors, detect anomalies,
find redundant nodes, and evaluate against ground truth.

Configuration comes from an optional JSON document plus flag overrides;
every command is deterministic given the same config and seed, artifacts
are compact JSON with sorted keys, and errors leave as machine-readable
JSON on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import anomaly, bayesnet, ingest, metrics, redundancy, spectra

ENV_OUT_DIR = "SENSORPREP_OUT_DIR"

_ARTIFACTS = {
    "model": "pca_model.json",
    "static": "static_network.json",
    "transition": "transition_network.json",
    "scheme": "scheme.json",
    "train": "train.csv",
}


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
    alpha_alarm: float = 0.01
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
        for name, value in (
            ("alpha_warning", self.alpha_warning),
            ("alpha_alarm", self.alpha_alarm),
            ("train_frac", self.train_frac),
        ):
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        for name, value in (("contribution_ratio", self.contribution_ratio), ("tau", self.tau)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        if self.alpha_alarm > self.alpha_warning:
            raise ValueError("alpha_alarm must not exceed alpha_warning")
        for name, value in (
            ("rows", self.rows),
            ("cols", self.cols),
            ("k_states", self.k_states),
            ("slice_len", self.slice_len),
            ("error_rows", self.error_rows),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.max_parents < 0:
            raise ValueError("max_parents must be >= 0")
        bayesnet.check_cpt_cells(self.k_states, self.max_parents)
        if self.error_pct < 0:
            raise ValueError("error_pct must be >= 0")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _scheme_to_dict(scheme: ingest.DiscretizationScheme) -> dict:
    return {
        "node_ids": list(scheme.node_ids) if scheme.node_ids else None,
        "state_count": int(scheme.state_count),
        "edges": [[float(v) for v in e] for e in scheme.edges],
    }


def _scheme_from_dict(doc: dict) -> ingest.DiscretizationScheme:
    return ingest.DiscretizationScheme(
        tuple(np.array(e) for e in doc["edges"]),
        int(doc["state_count"]),
        tuple(doc["node_ids"]) if doc.get("node_ids") else None,
    )


def _resolve_training(cfg: RunConfig) -> ingest.SensorDataset:
    if cfg.train_csv:
        return ingest.load_csv(cfg.train_csv)
    if cfg.profile:
        return ingest.synth_generate(cfg.seed, cfg.rows, cfg.cols, cfg.profile, **(cfg.profile_params or {}))
    raise ValueError("no training data: provide train_csv or a synthetic profile")


def _check_node_ids(expected, got, what: str) -> None:
    expected = tuple(expected)
    got = tuple(got)
    if expected != got:
        for e, g in zip(expected, got):
            if e != g:
                raise ValueError(f"{what}: node id mismatch, artifact has {e!r} but data has {g!r}")
        raise ValueError(f"{what}: artifact covers {len(expected)} nodes but data has {len(got)}")


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
    train = _resolve_training(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = spectra.fit_pca_model(train, cfg.contribution_ratio, cfg.alpha_warning)
    scheme = ingest.fit_discretization(train, cfg.k_states)
    states = ingest.discretize(train, scheme)
    static = bayesnet.learn_static(states, cfg.max_parents)
    transition = bayesnet.learn_transition(states, cfg.max_parents)

    _write_json(out_dir / _ARTIFACTS["model"], spectra.model_to_dict(model, train.node_ids))
    _write_json(out_dir / _ARTIFACTS["scheme"], _scheme_to_dict(scheme))
    _write_json(out_dir / _ARTIFACTS["static"], bayesnet.network_to_dict(static, train.node_ids))
    _write_json(out_dir / _ARTIFACTS["transition"], bayesnet.network_to_dict(transition, train.node_ids))
    if not cfg.train_csv:
        ingest.write_csv(train, out_dir / _ARTIFACTS["train"])

    total_score = bayesnet.score(states, static.dag, lag=0) + bayesnet.score(states, transition.dag, lag=1)
    return {
        "k": model.k,
        "q_limit": spectra.limit_to_json(model.q_limit),
        "t2_limit": model.t2_limit,
        "q_limit_alarm": spectra.limit_to_json(
            math.inf if model.k == train.n else spectra.q_threshold(model.eigenvalues, model.k, cfg.alpha_alarm)
        ),
        "t2_limit_alarm": spectra.t2_threshold(model.k, train.m, cfg.alpha_alarm),
        "static_edges": len(static.dag.edges()),
        "transition_edges": len(transition.dag.edges()),
        "score": total_score,
        "out_dir": str(out_dir),
    }


def cmd_inject(cfg: RunConfig, out: str, sidecar: str, rows_list: str | None) -> dict:
    if not cfg.train_csv or not cfg.data_csv:
        raise ValueError("inject needs --train (for the means) and --data (rows to corrupt)")
    train = ingest.load_csv(cfg.train_csv)
    data = ingest.load_csv(cfg.data_csv)
    _check_node_ids(train.node_ids, data.node_ids, "inject")
    if rows_list:
        rows = sorted({int(tok) for tok in rows_list.split(",") if tok.strip()})
    else:
        rows = list(range(data.m - cfg.error_rows, data.m))
    means = train.values.mean(axis=0)
    corrupted = ingest.inject_errors(data, rows, cfg.error_pct, means)
    ingest.write_csv(corrupted, out)
    deltas = [float(v) for v in means * cfg.error_pct]
    _write_json(
        Path(sidecar),
        {
            "rows": rows,
            "pct": cfg.error_pct,
            "delta_per_node": deltas,
            "node_ids": list(data.node_ids),
            "test_rows": data.m,
        },
    )
    return {"corrupted_rows": len(rows), "out": out, "sidecar": sidecar}


def cmd_detect(cfg: RunConfig, artifacts: str) -> dict:
    if not cfg.train_csv or not cfg.data_csv:
        raise ValueError("detect needs --train (predecessor of the first test row) and --data")
    art = Path(artifacts)
    train = ingest.load_csv(cfg.train_csv)
    test = ingest.load_csv(cfg.data_csv)
    _check_node_ids(train.node_ids, test.node_ids, "detect --train")
    model_doc = _read_json(art / _ARTIFACTS["model"])
    scheme = _scheme_from_dict(_read_json(art / _ARTIFACTS["scheme"]))
    tn_doc = _read_json(art / _ARTIFACTS["transition"])
    artifact_ids = {"model": model_doc.get("node_ids"), "scheme": scheme.node_ids, "transition": tn_doc["node_ids"]}
    for name, ids in artifact_ids.items():
        if ids:
            _check_node_ids(ids, test.node_ids, f"detect {_ARTIFACTS[name]}")
    model = spectra.model_from_dict(model_doc)
    tn = bayesnet.transition_from_dict(tn_doc)

    report = anomaly.tqbayes_detect(test, model, tn, scheme, train.values[-1])
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "detection_report.json", anomaly.report_to_dict(report))
    anomaly.write_report_csv(report, out_dir / "detection_report.csv")
    return {
        "rows": test.m,
        "flagged": len(report.flagged_rows()),
        "abnormal_cells": len(report.abnormal_cells()),
        "out_dir": str(out_dir),
    }


def cmd_redundancy_static(cfg: RunConfig, artifacts: str) -> dict:
    if not cfg.data_csv:
        raise ValueError("redundancy-static needs --data")
    art = Path(artifacts)
    data = ingest.load_csv(cfg.data_csv)
    net_doc = _read_json(art / _ARTIFACTS["static"])
    _check_node_ids(net_doc["node_ids"], data.node_ids, "redundancy-static")
    net = bayesnet.static_from_dict(net_doc)

    report = redundancy.ssdrda(net.dag, net.cpts, cfg.tau)
    report = replace(report, recoveries=redundancy.static_recovery(data, net.dag, report.redundant_nodes()))

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "redundancy_static.json", redundancy.static_report_to_dict(report, data.node_ids))
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
    report = redundancy.rsdrda_schedule(
        data, cfg.slice_len, cfg.train_frac, cfg.tau, scheme, cfg.max_parents
    )
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "redundancy_realtime.json", redundancy.realtime_report_to_dict(report, data.node_ids))
    redundancy.write_realtime_csv(report, data.node_ids, out_dir / "redundancy_realtime.csv")
    redundancy.write_recovery_csv(report.recoveries, data.node_ids, out_dir / "recovery_realtime.csv")
    sleeping = np.unique(report.entries.node[report.entries.sleeping]).tolist()
    return {
        "inference_entries": len(report.entries),
        "sleeping_nodes": [data.node_ids[i] for i in sleeping],
        "out_dir": str(out_dir),
    }


def cmd_evaluate(report_path: str, truth_path: str, out: str | None, redundancy_path: str | None) -> dict:
    report = anomaly.report_from_dict(_read_json(Path(report_path)))
    truth_doc = _read_json(Path(truth_path))
    truth_rows = set(int(r) for r in truth_doc["rows"])
    n = len(truth_doc["node_ids"])
    test_rows = int(truth_doc["test_rows"])

    row_p, row_r, row_counts = metrics.precision_recall(truth_rows, report.flagged_rows(), range(test_rows))

    # Cell (r, j) is the integer r * n + j, so the universe is a range.
    hit = report.verdicts[report.verdicts.abnormal]
    outside = hit.node[(hit.node < 0) | (hit.node >= n)]
    if outside.size:
        raise ValueError(f"report names node {outside[0]}, outside the truth file's {n} nodes")
    truth_cells = [r * n + j for r in truth_rows for j in range(n)]
    predicted_cells = (hit.row * n + hit.node).tolist()
    cell_p, cell_r, cell_counts = metrics.precision_recall(truth_cells, predicted_cells, range(test_rows * n))

    doc = {
        "row_level": {
            "precision": row_p,
            "recall": row_r,
            "tp": row_counts.tp,
            "fp": row_counts.fp,
            "fn": row_counts.fn,
            "tn": row_counts.tn,
        },
        "node_level": {
            "precision": cell_p,
            "recall": cell_r,
            "tp": cell_counts.tp,
            "fp": cell_counts.fp,
            "fn": cell_counts.fn,
            "tn": cell_counts.tn,
        },
    }
    if redundancy_path:
        red_doc = _read_json(Path(redundancy_path))
        by_node: dict[int, list[tuple[float, float]]] = {}
        for r in red_doc.get("recoveries", []):
            by_node.setdefault(int(r["node"]), []).append((r["actual"], r["estimate"]))
        per_node = {
            str(node): metrics.rmse([a for a, _ in pairs], [e for _, e in pairs])
            for node, pairs in sorted(by_node.items())
        }
        doc["recovery"] = {
            "per_node_rmse": per_node,
            "mean_rmse": metrics.mean_rmse(list(per_node.values())) if per_node else None,
        }
    if out:
        _write_json(Path(out), doc)
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
    p.add_argument("--profile")
    p.add_argument("--seed", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--alpha", dest="alpha_warning", type=float)
    p.add_argument("--alpha-alarm", dest="alpha_alarm", type=float)
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
        values.update(_read_json(Path(args.config)))
    field_names = {f.name for f in fields(RunConfig)}
    unknown = set(values) - field_names
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in field_names:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    params = _parse_params(getattr(args, "param", []) or [])
    if params:
        values["profile_params"] = {**(values.get("profile_params") or {}), **params}
    if "out_dir" not in values or values["out_dir"] is None:
        values["out_dir"] = os.environ.get(ENV_OUT_DIR, ".")
    return RunConfig(**values)


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
