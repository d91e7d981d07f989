"""Command-line pipeline: learn artifacts, inject errors, detect anomalies,
find redundant nodes, and evaluate against ground truth.

Each subcommand takes its values from its own flags alone, and every
optional flag has a default. Out-of-range values are rejected before any
file is read. Every command is deterministic given the same flags.
Artifacts and reports are versioned JSON documents (see `artifacts`) whose
node ids are checked against the data on every load. A missing or
unparseable flag is an argparse usage error with exit code 2; every other
error leaves as machine-readable JSON on stderr with exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import anomaly, artifacts, bayesnet, ingest, metrics, redundancy, spectra

# (dest, test, rule) of every range-checked flag; a command checks the flags it has.
_RANGES = (
    ("alpha_warning", lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    ("train_frac", lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    ("contribution_ratio", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    ("tau", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    *((dest, lambda v: v > 0, "be positive") for dest in ("rows", "cols", "slice_len", "last_rows")),
    ("k_states", lambda v: v >= 2, "be >= 2"),
    ("max_parents", lambda v: v >= 0, "be >= 0"),
    ("pct", lambda v: v >= 0, "be >= 0"),
)


def _check_ranges(args: argparse.Namespace) -> None:
    for dest, test, rule in _RANGES:
        value = getattr(args, dest, None)
        if value is not None and not test(value):
            raise ValueError(f"{dest} must {rule}, got {value}")
    if hasattr(args, "max_parents"):
        bayesnet.check_cpt_cells(args.k_states, args.max_parents)


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


def cmd_synth(args: argparse.Namespace) -> dict:
    if args.split is not None and args.out is not None:
        raise ValueError("--out does not combine with --split, which writes --out-train and --out-test")
    for flag, value in (("--out-train", args.out_train), ("--out-test", args.out_test)):
        if args.split is None and value is not None:
            raise ValueError(f"{flag} needs --split; without it synth writes --out")
    params = _parse_params(args.param)
    ingest._profile_generator(args.profile, params)  # a key such as `m` would collide with synth_generate's own
    data = ingest.synth_generate(args.seed, args.rows, args.cols, args.profile, **params)
    if args.split is not None:
        if not 2 <= args.split <= data.m - 2:
            raise ValueError(f"split must leave at least 2 rows on each side, got {args.split}")
        if not (args.out_train and args.out_test):
            raise ValueError("--split requires --out-train and --out-test")
        if Path(args.out_train).resolve() == Path(args.out_test).resolve():
            raise ValueError(f"--out-train and --out-test name one file, {args.out_test!r}; --split writes two")
        train = ingest.SensorDataset(data.values[: args.split], data.node_ids)
        test = ingest.SensorDataset(data.values[args.split :], data.node_ids)
        ingest.write_csv(train, args.out_train)
        ingest.write_csv(test, args.out_test)
        written = [args.out_train, args.out_test]
    else:
        written = [args.out or "synth.csv"]
        ingest.write_csv(data, written[0])
    return {"rows": data.m, "cols": data.n, "written": written}


def cmd_learn(args: argparse.Namespace) -> dict:
    out_dir = Path(args.out_dir)
    train = ingest.load_csv(args.train, args.csv_sources)
    model = spectra.fit_pca_model(train, args.contribution_ratio, args.alpha_warning)
    scheme = ingest.fit_discretization(train, args.k_states)
    states = ingest.discretize(train, scheme)
    static, transition = bayesnet.learn_networks(states, args.max_parents)

    for kind, body in (
        ("pca_model", spectra.model_to_dict(model)),
        ("scheme", {"state_count": scheme.state_count, "edges": scheme.edges.tolist()}),
        ("static_network", bayesnet.network_to_dict(static)),
        ("transition_network", {**bayesnet.network_to_dict(transition), "last_states": states.states[-1].tolist()}),
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


def cmd_inject(args: argparse.Namespace) -> dict:
    if args.rows_list is not None and args.last_rows is not None:
        raise ValueError("--rows-list does not combine with --last-rows, which corrupts trailing rows instead")
    if Path(args.out).resolve() == Path(args.sidecar).resolve():
        raise ValueError(f"--out and --sidecar name one file, {args.sidecar!r}; inject writes two")
    listed = set()
    for tok in filter(str.strip, (args.rows_list or "").split(",")):
        try:
            listed.add(int(tok))
        except ValueError:
            raise ValueError(f"--rows-list takes comma-separated integers, got {tok.strip()!r}") from None
    if args.rows_list is not None and not listed:
        raise ValueError(f"--rows-list names no row, got {args.rows_list!r}")
    train = ingest.load_csv(args.train, args.csv_sources)
    data = ingest.load_csv(args.data, args.csv_sources)
    artifacts.check_node_ids(train.node_ids, data.node_ids, "inject", "training CSV")
    if listed:
        rows = sorted(listed)
        outside = [r for r in rows if not 0 <= r < data.m]
        if outside:
            raise ValueError(f"rows_list index {outside[0]} is outside the test set's rows 0..{data.m - 1}")
    else:
        last_rows = 50 if args.last_rows is None else args.last_rows
        if last_rows > data.m:
            raise ValueError(f"last_rows must be at most the test set's {data.m} rows, got {last_rows}")
        rows = list(range(data.m - last_rows, data.m))
    means = train.values.mean(axis=0)
    corrupted = ingest.inject_errors(data, rows, args.pct, means)
    ingest.write_csv(corrupted, args.out)
    truth = {"rows": rows, "pct": args.pct, "delta_per_node": (means * args.pct).tolist()}
    artifacts.write_json(args.sidecar, {**truth, "node_ids": list(data.node_ids), "test_rows": data.m})
    return {"corrupted_rows": len(rows), "out": args.out, "sidecar": args.sidecar}


def cmd_detect(args: argparse.Namespace) -> dict:
    art = Path(args.artifacts)
    train_ids = ingest.load_node_ids(args.train)  # `learn` stored the one training row `detect` needs
    test = ingest.load_csv(args.data, args.csv_sources)
    artifacts.check_node_ids(train_ids, test.node_ids, "detect --train", "training CSV")
    # Each artifact is its constructor applied to the fields `artifacts.read` checked and converted.
    with artifacts.read(art / "pca_model.json", "pca_model", test.node_ids) as doc:
        std = ingest.Standardization(doc["means"], doc["variances"])
        model = spectra.PcaModel(std, doc["eigenvalues"], doc["eigenvectors"], doc["k"], doc["q_limit"],
                                 doc["t2_limit"], doc["alpha"])
    with artifacts.read(art / "scheme.json", "scheme", test.node_ids) as doc:
        scheme = ingest.DiscretizationScheme(doc["edges"], doc["state_count"])
    with artifacts.read(art / "transition_network.json", "transition_network", test.node_ids) as doc:
        tn = bayesnet.TransitionNetwork(bayesnet.Dag(test.n, doc["parents"]), doc["counts"], doc["priors"])
        last_states = doc["last_states"]
    if scheme.state_count != (k := tn.counts[0].shape[1]):  # two files, each of which fits `artifacts.SCHEMA`
        raise artifacts.ArtifactError(f"{art / 'scheme.json'} has state_count {scheme.state_count} but "
                                      f"{art / 'transition_network.json'} counts K={k} states; "
                                      "re-run `sensorprep learn`")

    report = anomaly.tqbayes_detect(test, model, tn, scheme, last_states)
    out_dir = Path(args.out_dir)
    body = anomaly.report_to_dict(report)
    artifacts.write(out_dir / "detection_report.json", "detection_report", test.node_ids, body)
    anomaly.write_report_csv(report, out_dir / "detection_report.csv")
    q_fired, t2_fired = report.rows.q > report.q_limit, report.rows.t2 > report.t2_limit
    by_chart = {"q_only": q_fired & ~t2_fired, "t2_only": t2_fired & ~q_fired, "both": q_fired & t2_fired}
    return {
        "rows": test.m,
        "flagged": int(report.rows.flagged.sum()),
        "flagged_by_chart": {chart: int(fired.sum()) for chart, fired in by_chart.items()},
        "abnormal_cells": int(report.abnormal.sum()),
        "out_dir": str(out_dir),
    }


def cmd_redundancy_static(args: argparse.Namespace) -> dict:
    data = ingest.load_csv(args.data, args.csv_sources)
    with artifacts.read(Path(args.artifacts) / "static_network.json", "static_network", data.node_ids) as doc:
        net = bayesnet.StaticNetwork(bayesnet.Dag(data.n, doc["parents"]), doc["counts"])

    report = redundancy.ssdrda(net, args.tau)
    report = replace(report, rules=redundancy.static_rules(data, net.dag, report.redundant_nodes()))

    out_dir = Path(args.out_dir)
    body = redundancy.static_report_to_dict(report)
    artifacts.write(out_dir / "redundancy_static.json", "redundancy_static", data.node_ids, body)
    redundancy.write_static_csv(report, data.node_ids, out_dir / "redundancy_static.csv")
    recoveries = report.recoveries(data)
    redundancy.write_recovery_csv(recoveries, data, out_dir / "recovery_static.csv")
    per_node = metrics.per_node_rmse(recoveries, data.values)
    return {
        "redundant_nodes": [data.node_ids[i] for i in report.redundant_nodes()],
        "recovered_readings": len(recoveries),
        "recovery_rmse": metrics.mean_rmse(list(per_node.values())) if per_node else None,
        "out_dir": str(out_dir),
    }


def cmd_redundancy_realtime(args: argparse.Namespace) -> dict:
    data = ingest.load_csv(args.data, args.csv_sources)
    scheme = ingest.fit_discretization(data, args.k_states)
    report = redundancy.rsdrda_schedule(data, args.slice_len, args.train_frac, args.tau, scheme, args.max_parents)
    out_dir = Path(args.out_dir)
    body = redundancy.realtime_report_to_dict(report)
    artifacts.write(out_dir / "redundancy_realtime.json", "redundancy_realtime", data.node_ids, body)
    redundancy.write_realtime_csv(report, data.node_ids, out_dir / "redundancy_realtime.csv")
    recoveries = report.recoveries(data)
    redundancy.write_recovery_csv(recoveries, data, out_dir / "recovery_realtime.csv")
    per_node = metrics.per_node_rmse(recoveries, data.values)
    return {
        "inference_entries": len(report.entries),
        "sleeping_entries": int(report.entries.sleeping.sum()),
        "sleeping_nodes": [data.node_ids[i] for i in per_node],
        "recovered_readings": len(recoveries),
        "recovery_rmse": metrics.mean_rmse(list(per_node.values())) if per_node else None,
        "out_dir": str(out_dir),
    }


# (key, test, rule) of every truth sidecar key that `evaluate` reads.
_TRUTH_KEYS = (
    ("rows", lambda v: isinstance(v, list) and all(type(r) is int for r in v), "a list of integers"),
    ("node_ids", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings"),
    ("test_rows", lambda v: type(v) is int and v >= 0, "a nonnegative integer"),
)


def _read_truth(path: str) -> dict:
    """The truth sidecar that `inject` writes, with every key that `evaluate` reads checked."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    for key, test, rule in _TRUTH_KEYS:
        if not (isinstance(doc, dict) and key in doc and test(doc[key])):
            raise ValueError(f"{path}: truth file needs {key!r} as {rule}")
    outside = [r for r in doc["rows"] if not 0 <= r < doc["test_rows"]]
    if outside:
        raise ValueError(f"{path}: truth file row {outside[0]} is outside the test rows 0..{doc['test_rows'] - 1}")
    return doc


def cmd_evaluate(args: argparse.Namespace) -> dict:
    if (args.redundancy is None) != (args.data is None):
        raise ValueError("--redundancy and --data go together: --data is the CSV the redundancy report was made from")
    truth_doc = _read_truth(args.truth)
    node_ids = truth_doc["node_ids"]
    report_doc = artifacts.read(args.report, "detection_report", node_ids)
    report = anomaly.report_from_dict(report_doc)
    truth_rows = set(truth_doc["rows"])
    n = len(node_ids)
    test_rows = truth_doc["test_rows"]
    screened = report.rows.row.tolist()
    if screened != list(range(test_rows)):
        row = next((r for i, r in enumerate(screened) if r != i or r >= test_rows), len(screened))
        report_doc.fail("rows", f"must screen rows 0..{test_rows - 1} of {args.truth}, got row {row}")

    rows = metrics.precision_recall(truth_rows, report.flagged_rows(), range(test_rows))

    # Cell (r, j) is the integer r * n + j, so the universe is a range.
    at, node = report.abnormal.nonzero()
    truth_cells = [r * n + j for r in truth_rows for j in range(n)]
    predicted_cells = (report.rows.row[report.rows.flagged][at] * n + node).tolist()
    cells = metrics.precision_recall(truth_cells, predicted_cells, range(test_rows * n))

    doc = {
        level: {"precision": precision, "recall": recall, **asdict(counts)}
        for level, (precision, recall, counts) in (("row_level", rows), ("node_level", cells))
    }
    if args.redundancy is not None:
        data = ingest.load_csv(args.data, args.csv_sources)
        artifacts.check_node_ids(node_ids, data.node_ids, "evaluate --data", f"truth file {args.truth}")
        red_doc = artifacts.read(args.redundancy, ("redundancy_static", "redundancy_realtime"), node_ids)
        per_node = metrics.per_node_rmse(redundancy.recoveries_from_dict(red_doc, data), data.values)
        doc["recovery"] = {
            "per_node_rmse": {str(node): value for node, value in per_node.items()},
            "mean_rmse": metrics.mean_rmse(list(per_node.values())) if per_node else None,
        }
    if args.out:
        artifacts.write_json(args.out, doc)
    return doc


# Built once per process, which may run many commands through `main`. Parsing leaves the parser as it was:
# argparse copies the `--param` list before it appends to it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sensorprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_network(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k-states", type=int, default=3, help="discretization states per node")
        p.add_argument("--max-parents", type=int, default=3, help="parent cap of the structure search")

    def add_out_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out-dir", default=".", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--profile", default="correlated-drift", help="correlated-drift | copy-child | lagged-copy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=300)
    p.add_argument("--cols", type=int, default=6)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE", help="profile parameter (JSON value)")
    p.add_argument("--out", help="output CSV without --split (default synth.csv)")
    p.add_argument("--split", type=int, help="write the first N rows and the rest separately")
    p.add_argument("--out-train")
    p.add_argument("--out-test")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("learn", help="fit the PCA model and both networks")
    p.add_argument("--train", required=True)
    p.add_argument("--alpha", dest="alpha_warning", type=float, default=0.05, help="test level of both limits")
    p.add_argument("--contribution-ratio", type=float, default=0.85, help="eigenvalue share that picks k")
    add_network(p)
    add_out_dir(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("inject", help="corrupt rows of a test set per the error model")
    p.add_argument("--train", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--last-rows", type=int, help="corrupt this many trailing rows (default 50 without --rows-list)")
    p.add_argument("--rows-list", help="explicit comma-separated row indices")
    p.add_argument("--pct", type=float, default=0.10, help="error as a fraction of the training means")
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("detect", help="run the two-stage detector")
    p.add_argument("--train", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--artifacts", required=True)
    add_out_dir(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("redundancy-static", help="static redundant-node detection")
    p.add_argument("--data", required=True)
    p.add_argument("--artifacts", required=True)
    p.add_argument("--tau", type=float, default=0.95, help="redundancy confidence threshold")
    add_out_dir(p)
    p.set_defaults(func=cmd_redundancy_static)

    p = sub.add_parser("redundancy-realtime", help="sleep/wake scheduling over time slices")
    p.add_argument("--data", required=True)
    p.add_argument("--slice-len", type=int, default=100)
    p.add_argument("--train-frac", type=float, default=0.6, help="training share of each slice")
    p.add_argument("--tau", type=float, default=0.95, help="redundancy confidence threshold")
    add_network(p)
    add_out_dir(p)
    p.set_defaults(func=cmd_redundancy_realtime)

    p = sub.add_parser("evaluate", help="precision/recall and recovery RMSE")
    p.add_argument("--report", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--redundancy", help="redundancy report whose rules to score on --data")
    p.add_argument("--data", help="the CSV the --redundancy report was made from")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        args.csv_sources = {}  # whether each CSV a command loads was read from its table or its text
        summary = args.func(args)
        text = json.dumps({**summary, "csv_sources": args.csv_sources} if args.csv_sources else summary,
                          sort_keys=True, allow_nan=False)
    except Exception as exc:  # deliberate catch-all: the CLI contract is JSON errors
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}, sort_keys=True), file=sys.stderr)
        return 1
    print(text)
    return 0


def entry_point() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
