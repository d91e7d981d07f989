"""End-to-end command-line pipeline tests."""

import csv
import importlib.util
import json
import math
import os
import re
import shlex
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import oracles
from sensorprep import artifacts, bayesnet, redundancy
from sensorprep.anomaly import ROW_DTYPE, DetectionReport, report_to_dict
from sensorprep.bayesnet import estimate_cpt, learn_transition
from sensorprep.cli import _build_parser, main
from sensorprep.ingest import (
    SensorDataset,
    discretize,
    discretize_row,
    fit_discretization,
    load_csv,
    synth_generate,
    write_csv,
)


ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """perfbench's workload module, which reads outputs with the standard library only."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_full_pipeline(base, capsys, seed=1):
    """synth -> learn -> inject -> detect -> redundancy -> evaluate."""
    art = base / "artifacts"
    outputs = {}

    code, out, err = run(capsys, [
        "synth", "--profile", "correlated-drift", "--seed", str(seed),
        "--rows", "360", "--cols", "8",
        "--split", "240",
        "--out-train", str(base / "train.csv"), "--out-test", str(base / "test.csv"),
    ])
    assert code == 0, err
    outputs["synth"] = json.loads(out)

    code, out, err = run(capsys, [
        "learn", "--train", str(base / "train.csv"), "--out-dir", str(art),
    ])
    assert code == 0, err
    outputs["learn"] = json.loads(out)

    code, out, err = run(capsys, [
        "inject", "--train", str(base / "train.csv"), "--data", str(base / "test.csv"),
        "--last-rows", "30", "--pct", "0.10",
        "--out", str(base / "test_bad.csv"), "--sidecar", str(base / "truth.json"),
    ])
    assert code == 0, err

    code, out, err = run(capsys, [
        "detect", "--train", str(base / "train.csv"), "--data", str(base / "test_bad.csv"),
        "--artifacts", str(art), "--out-dir", str(art),
    ])
    assert code == 0, err
    outputs["detect"] = json.loads(out)

    code, out, err = run(capsys, [
        "redundancy-static", "--data", str(base / "train.csv"),
        "--artifacts", str(art), "--out-dir", str(art),
    ])
    assert code == 0, err

    code, out, err = run(capsys, [
        "redundancy-realtime", "--data", str(base / "train.csv"),
        "--slice-len", "80", "--out-dir", str(art),
    ])
    assert code == 0, err
    outputs["redundancy-realtime"] = json.loads(out)

    code, out, err = run(capsys, [
        "evaluate", "--report", str(art / "detection_report.json"),
        "--truth", str(base / "truth.json"),
        "--redundancy", str(art / "redundancy_realtime.json"), "--data", str(base / "train.csv"),
        "--out", str(art / "metrics.json"),
    ])
    assert code == 0, err
    outputs["evaluate"] = json.loads(out)
    return art, outputs


def assert_recovery_csv_is_rebuilt(report, csv_path, data):
    """The recovery CSV beside `report` holds, line by line, the readings that the report's rules rebuild from
    `data`, each beside the reading it replaces. Returns those readings."""
    kind = report.stem
    recoveries = redundancy.recoveries_from_dict(artifacts.read(report, kind, data.node_ids), data)
    with csv_path.open(newline="") as fh:
        lines = list(csv.DictReader(fh))
    assert list(lines[0]) == ["t", "node", "estimate", "actual"]
    assert len(lines) == len(recoveries) > 0
    for line, (t, node, estimate) in zip(lines, recoveries.tolist()):
        assert (int(line["t"]), line["node"], float(line["estimate"])) == (t, data.node_ids[node], estimate)
        assert float(line["actual"]) == data.values[t, node]
    return recoveries


def stored_readings(doc):
    """A redundancy report as this format version stored it before recovery rules: the rebuilt readings instead."""
    for key in ("rule_node", "rule_parents", "rule_dissimilarities", "rule_rows", "rule_slice"):
        doc.pop(key, None)
    doc["recoveries"] = [[0], [1], [0.5]]


def flag_two_rows(doc, verdicts=16, uninferable=8):
    """A detection report of 8 nodes edited to flag test rows 0 and 1 alone, with `verdicts` stored verdicts and
    `uninferable` flags."""
    flagged = doc["rows"][ROW_DTYPE.names.index("flagged")]
    flagged[:] = [True, True] + [False] * (len(flagged) - 2)
    doc["verdicts"] = [[1] * verdicts, [1] * verdicts]
    doc["uninferable"] = [False] * uninferable


def reading_command(base, art, name):
    """The command that reads `art / name` of a `run_full_pipeline(base, ...)` run, writing into `base / "out"`."""
    data, out = ["--data", str(base / "train.csv")], ["--out-dir", str(base / "out")]
    if name == "static_network.json":
        return ["redundancy-static", *data, "--artifacts", str(art), *out]
    if name in ("pca_model.json", "scheme.json", "transition_network.json"):
        return ["detect", "--train", str(base / "train.csv"), "--data", str(base / "test_bad.csv"), "--artifacts",
                str(art), *out]
    redundancy = art / (name if name.startswith("redundancy") else "redundancy_realtime.json")
    return ["evaluate", "--report", str(art / "detection_report.json"), "--truth", str(base / "truth.json"),
            "--redundancy", str(redundancy), *data]


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        art, outputs = run_full_pipeline(tmp_path, capsys)
        for name in (
            "pca_model.json",
            "scheme.json",
            "static_network.json",
            "transition_network.json",
            "detection_report.json",
            "detection_report.csv",
            "redundancy_static.json",
            "redundancy_realtime.json",
            "recovery_realtime.csv",
            "metrics.json",
        ):
            assert (art / name).exists(), name
        assert outputs["learn"]["k"] >= 1
        # The summary's score comes from the counts the search kept; it equals a full recount.
        train = load_csv(tmp_path / "train.csv")
        states = discretize(train, fit_discretization(train, 3))
        static = oracles.read_network(art / "static_network.json", "static_network", train.node_ids)
        transition = oracles.read_network(art / "transition_network.json", "transition_network", train.node_ids)
        assert outputs["learn"]["score"] == oracles.score(states, static.dag, 0) + oracles.score(states, transition.dag, 1)
        row_metrics = outputs["evaluate"]["row_level"]
        assert row_metrics["recall"] == 1.0
        assert row_metrics["tp"] == 30

    def test_detect_summary_counts_the_charts_that_fired(self, tmp_path, capsys):
        art, outputs = run_full_pipeline(tmp_path, capsys)
        summary = outputs["detect"]
        by_chart = summary["flagged_by_chart"]
        assert sorted(by_chart) == ["both", "q_only", "t2_only"]
        assert sum(by_chart.values()) == summary["flagged"] > 0
        doc = json.loads((art / "detection_report.json").read_text())
        _, q, t2, _ = doc["rows"]
        q_fired, t2_fired = np.array(q) > doc["q_limit"], np.array(t2) > doc["t2_limit"]
        assert by_chart == {
            "q_only": int((q_fired & ~t2_fired).sum()),
            "t2_only": int((t2_fired & ~q_fired).sum()),
            "both": int((q_fired & t2_fired).sum()),
        }

    def test_realtime_summary_reports_the_trade_off(self, tmp_path, capsys):
        art, outputs = run_full_pipeline(tmp_path, capsys)
        summary = outputs["redundancy-realtime"]
        assert sorted(summary) == [
            "csv_sources",
            "inference_entries",
            "out_dir",
            "recovered_readings",
            "recovery_rmse",
            "sleeping_entries",
            "sleeping_nodes",
        ]
        doc = json.loads((art / "redundancy_realtime.json").read_text())
        # The report stores the schedule's `sleeping` and `max_posterior` columns; `t` and `node` follow from
        # `slice_len`, `train_frac` and the node ids.
        sleeping, _ = doc["entries"]
        assert summary["csv_sources"] == {str(tmp_path / "train.csv"): "table"}  # the table `synth` saved beside it
        assert summary["inference_entries"] == len(sleeping) == 3 * 32 * 8
        assert summary["sleeping_entries"] == sum(sleeping) > 0
        # The report keeps one rule per (slice, node) that slept, not the readings they rebuild.
        assert "recoveries" not in doc and 0 < len(doc["rule_node"]) < summary["sleeping_entries"]
        train = load_csv(tmp_path / "train.csv")
        recoveries = assert_recovery_csv_is_rebuilt(art / "redundancy_realtime.json", art / "recovery_realtime.csv", train)
        assert summary["recovered_readings"] == len(recoveries) == summary["sleeping_entries"]
        # One number three ways: the summary, `evaluate --data` and perfbench's formula over the CSV,
        # which sums the same squares in another order.
        assert summary["recovery_rmse"] == outputs["evaluate"]["recovery"]["mean_rmse"]
        perfbench_rmse = load_workloads()._mean_rmse(art / "recovery_realtime.csv")
        assert summary["recovery_rmse"] == pytest.approx(perfbench_rmse, rel=1e-12, abs=0)

    def test_static_recovery_rmse_from_rules(self, tmp_path, capsys):
        # Static recovery on copy-child data: `evaluate --data` rebuilds the readings from the report's rules and
        # scores them as perfbench's formula scores the recovery CSV.
        art, _ = run_full_pipeline(tmp_path, capsys, seed=1)
        data, out = tmp_path / "copies.csv", tmp_path / "static"
        for argv in (
            ["synth", "--profile", "copy-child", "--seed", "1", "--rows", "400", "--cols", "8",
             "--param", 'copies={"1":0,"3":2,"5":4}', "--param", "flip=0.02", "--out", str(data)],
            ["learn", "--train", str(data), "--out-dir", str(out)],
            ["redundancy-static", "--data", str(data), "--artifacts", str(out), "--out-dir", str(out)],
        ):
            code, _, err = run(capsys, argv)
            assert code == 0, err
        doc = json.loads((out / "redundancy_static.json").read_text())
        assert "recoveries" not in doc and len(doc["rule_node"]) == sum(doc["redundant"]) >= 3
        recoveries = assert_recovery_csv_is_rebuilt(out / "redundancy_static.json", out / "recovery_static.csv",
                                                    load_csv(data))
        assert len(recoveries) == 400 * len(doc["rule_node"])
        code, stdout, err = run(capsys, [
            "evaluate", "--report", str(art / "detection_report.json"), "--truth", str(tmp_path / "truth.json"),
            "--redundancy", str(out / "redundancy_static.json"), "--data", str(data),
        ])
        assert code == 0, err
        mean_rmse = json.loads(stdout)["recovery"]["mean_rmse"]
        assert mean_rmse == pytest.approx(load_workloads()._mean_rmse(out / "recovery_static.csv"), rel=1e-12, abs=0)
        # The rules rebuild the report's 400 rows, which a shorter CSV does not have.
        code, stdout, err = run(capsys, [
            "evaluate", "--report", str(art / "detection_report.json"), "--truth", str(tmp_path / "truth.json"),
            "--redundancy", str(out / "redundancy_static.json"), "--data", str(tmp_path / "test.csv"),
        ])
        assert code == 1 and stdout == ""
        assert json.loads(err) == {
            "error": f"{out / 'redundancy_static.json'}: rule_rows must be at most the data's 120 rows, got 400",
            "type": "ArtifactError",
        }

    def test_realtime_summary_without_recoveries(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        write_csv(SensorDataset(rng.normal(size=(200, 3)), ["a", "b", "c"]), tmp_path / "noise.csv")
        code, out, err = run(capsys, [
            "redundancy-realtime", "--data", str(tmp_path / "noise.csv"), "--out-dir", str(tmp_path),
        ])
        assert code == 0, err
        summary = json.loads(out)
        assert (summary["sleeping_entries"], summary["recovered_readings"]) == (0, 0)
        assert summary["recovery_rmse"] is None and summary["sleeping_nodes"] == []

    def test_sidecar_matches_truth_universe(self, tmp_path, capsys):
        art, _ = run_full_pipeline(tmp_path, capsys, seed=2)
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["rows"] == list(range(90, 120))
        rows = dict(zip(ROW_DTYPE.names, json.loads((art / "detection_report.json").read_text())["rows"]))
        flagged = {r for r, f in zip(rows["row"], rows["flagged"]) if f}
        metrics_doc = json.loads((art / "metrics.json").read_text())
        assert metrics_doc["row_level"]["tp"] == len(flagged & set(truth["rows"]))

    def test_inject_rows_list_counts_each_row_once(self, tmp_path, capsys):
        code, out, err = run(capsys, [
            "synth", "--profile", "correlated-drift", "--seed", "3", "--rows", "60", "--cols", "3",
            "--split", "40", "--out-train", str(tmp_path / "train.csv"), "--out-test", str(tmp_path / "test.csv"),
        ])
        assert code == 0, err
        code, out, err = run(capsys, [
            "inject", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test.csv"),
            "--rows-list", "5,3,3,5", "--out", str(tmp_path / "bad.csv"), "--sidecar", str(tmp_path / "truth.json"),
        ])
        assert code == 0, err
        assert json.loads(out)["corrupted_rows"] == 2
        assert json.loads((tmp_path / "truth.json").read_text())["rows"] == [3, 5]
        changed = (load_csv(tmp_path / "bad.csv").values != load_csv(tmp_path / "test.csv").values).any(axis=1)
        assert np.flatnonzero(changed).tolist() == [3, 5]

    def test_evaluate_rejects_nodes_outside_truth(self, tmp_path, capsys):
        # Cells are encoded as row * n + node, so a node index >= n would
        # alias a cell of the next row instead of failing. A verdict's node
        # is its place among the n of its row, so the report's header, which
        # matches the truth file, leaves room for no other node: one more
        # verdict than n per flagged row is an error, not node n.
        art, _ = run_full_pipeline(tmp_path, capsys, seed=2)
        n = len(json.loads((tmp_path / "truth.json").read_text())["node_ids"])
        doc = json.loads((art / "detection_report.json").read_text())
        flagged = sum(doc["rows"][ROW_DTYPE.names.index("flagged")])
        assert len(doc["verdicts"][0]) == flagged * n and len(doc["uninferable"]) == n
        for column in doc["verdicts"]:
            column.append(1)
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["evaluate", "--report", str(bad), "--truth", str(tmp_path / "truth.json")])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{bad}: field 'verdicts' must have shape (n * rows.flagged.sum()) = ({flagged * n},), "
                     f"got ({flagged * n + 1},)",
            "type": "ArtifactError",
        }

    @pytest.mark.parametrize(
        ("narrow", "message"),
        [
            (lambda ids: ids[::-1], "node id mismatch, .*detection_report.json has 'node00' but data has 'node07'"),
            (lambda ids: ids[:3], "detection_report.json covers 8 nodes but data has 3"),
        ],
        ids=["reversed", "first-3"],
    )
    def test_evaluate_rejects_truth_with_other_node_ids(self, tmp_path, capsys, narrow, message):
        art, _ = run_full_pipeline(tmp_path, capsys, seed=2)
        truth = json.loads((tmp_path / "truth.json").read_text())
        truth["node_ids"] = narrow(truth["node_ids"])
        other = tmp_path / "other_truth.json"
        other.write_text(json.dumps(truth))
        code, out, err = run(capsys, [
            "evaluate", "--report", str(art / "detection_report.json"), "--truth", str(other),
        ])
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["type"] == "ArtifactError" and re.search(message, error["error"]), error

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_detect_rejects_non_finite_json(self, tmp_path, capsys, literal):
        # json.loads alone accepts these literals; write_json never writes them.
        art, _ = run_full_pipeline(tmp_path, capsys, seed=3)
        path = art / "transition_network.json"
        doc = json.loads(path.read_text())
        doc["priors"][0][0] = float(literal)
        path.write_text(json.dumps(doc))
        assert literal in path.read_text()
        code, out, err = run(capsys, [
            "detect", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test_bad.csv"),
            "--artifacts", str(art), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{path}: {literal} is not JSON; an artifact holds only finite numbers", "type": "ArtifactError",
        }

    @pytest.mark.parametrize(
        ("name", "edit", "message"),
        [
            pytest.param("pca_model.json", lambda d: d.pop("k"),
                         "pca_model has no field 'k'; re-run `sensorprep learn`", id="missing-k"),
            pytest.param("scheme.json", lambda d: d.pop("edges"),
                         "scheme has no field 'edges'; re-run `sensorprep learn`", id="missing-edges"),
            pytest.param("static_network.json", lambda d: d.pop("counts"),
                         "static_network has no field 'counts'; re-run `sensorprep learn`", id="missing-counts"),
            pytest.param("transition_network.json", lambda d: d.pop("priors"),
                         "transition_network has no field 'priors'; re-run `sensorprep learn`", id="missing-priors"),
            pytest.param("detection_report.json", lambda d: d.pop("verdicts"),
                         "detection_report has no field 'verdicts'; re-run `sensorprep detect`", id="missing-verdicts"),
            pytest.param("redundancy_static.json", stored_readings,
                         "redundancy_static has no field 'rule_node'; re-run `sensorprep redundancy-static`",
                         id="missing-static-recoveries"),
            pytest.param("redundancy_realtime.json", stored_readings,
                         "redundancy_realtime has no field 'rule_node'; re-run `sensorprep redundancy-realtime`",
                         id="missing-realtime-recoveries"),
            pytest.param("redundancy_realtime.json", lambda d: d.pop("rule_slice"),
                         "redundancy_realtime has no field 'rule_slice'; re-run `sensorprep redundancy-realtime`",
                         id="missing-rule-slice"),
            # The rest used to load, truncated (1.7 -> 1) or coerced ("1" -> 1, 1 -> True).
            pytest.param("pca_model.json", lambda d: d.update(k=1.7), "field 'k' must hold integers, got 1.7", id="k"),
            pytest.param("scheme.json", lambda d: d.update(state_count=3.9),
                         "field 'state_count' must hold integers, got 3.9", id="state_count"),
            pytest.param("transition_network.json", lambda d: d["parents"].__setitem__(0, [1.5]),
                         "field 'parents' must hold integers, got 1.5", id="parent-fraction"),
            pytest.param("transition_network.json", lambda d: d["parents"].__setitem__(0, ["1"]),
                         "field 'parents' must hold integers, got '1'", id="parent-string"),
            pytest.param("static_network.json", lambda d: d["parents"].__setitem__(0, [True]),
                         "field 'parents' must hold integers, got True", id="parent-bool"),
            pytest.param("redundancy_realtime.json", lambda d: d["entries"][0].__setitem__(0, 1),
                         "field 'entries' column 'sleeping' must hold booleans, got 1", id="entries-sleeping"),
            pytest.param("redundancy_static.json", lambda d: d.update(rule_node=["1"]),
                         "field 'rule_node' must hold integers, got '1'", id="recovery-node"),
            pytest.param("redundancy_realtime.json", lambda d: d.update(slice_len=80.0),
                         "field 'slice_len' must hold integers, got 80.0", id="slice-len-float"),
            pytest.param("detection_report.json", lambda d: d["rows"][0].__setitem__(0, 0.5),
                         "field 'rows' column 'row' must hold integers, got 0.5", id="report-row"),
            pytest.param("detection_report.json", lambda d: d["uninferable"].__setitem__(0, 1),
                         "field 'uninferable' must hold booleans, got 1", id="verdict-flag"),
            # true read back as state 1 (row 1), and `evaluate` ran.
            pytest.param("detection_report.json", lambda d: d["verdicts"][0].__setitem__(0, True),
                         "field 'verdicts' column 'observed' must hold integers, got True", id="observed-true"),
            pytest.param("detection_report.json", lambda d: d["rows"][0].__setitem__(1, True),
                         "field 'rows' column 'row' must hold integers, got True", id="report-row-true"),
            # These loaded, converted ("0.05" -> 0.05, true -> 1.0), or ended in a bare TypeError.
            pytest.param("pca_model.json", lambda d: d["means"].__setitem__(0, "1"),
                         "field 'means' must hold numbers, got '1'", id="means-string"),
            pytest.param("pca_model.json", lambda d: d.update(alpha="0.05"),
                         "field 'alpha' must hold numbers, got '0.05'", id="alpha-string"),
            pytest.param("pca_model.json", lambda d: d.update(t2_limit=True),
                         "field 't2_limit' must hold numbers, got True", id="t2-limit-bool"),
            pytest.param("pca_model.json", lambda d: d.update(q_limit="inf"),
                         "field 'q_limit' must hold numbers or null, got 'inf'", id="q-limit-string"),
            pytest.param("scheme.json", lambda d: d["edges"][0].__setitem__(0, "1.0"),
                         "field 'edges' must hold numbers, got '1.0'", id="edge-string"),
            pytest.param("transition_network.json", lambda d: d["priors"][0].__setitem__(0, False),
                         "field 'priors' must hold numbers, got False", id="prior-bool"),
            pytest.param("transition_network.json", lambda d: d.update(parents=5),
                         "field 'parents' must hold lists, got 5", id="parents-scalar"),
            pytest.param("static_network.json", lambda d: d.update(counts=5),
                         "field 'counts' must hold lists, got 5", id="counts-scalar"),
            pytest.param("static_network.json", lambda d: d["counts"].__setitem__(0, [1, 2]),
                         "field 'counts' must hold lists, got 1", id="counts-flat"),
            pytest.param("scheme.json", lambda d: d.update(edges=5),
                         "field 'edges' must hold lists, got 5", id="edges-scalar"),
            pytest.param("detection_report.json", lambda d: d.update(t2_limit="3.8"),
                         "field 't2_limit' must hold numbers, got '3.8'", id="report-t2-limit"),
            pytest.param("detection_report.json", lambda d: d["rows"][1].__setitem__(0, "1.5"),
                         "field 'rows' column 'q' must hold numbers or null, got '1.5'", id="report-q"),
            pytest.param("redundancy_realtime.json", lambda d: d["rule_dissimilarities"][0].__setitem__(0, True),
                         "field 'rule_dissimilarities' must hold numbers, got True", id="rule-dissimilarity-bool"),
            pytest.param("detection_report.json", lambda d: d.update(verdicts=5),
                         "field 'verdicts' must hold 2 columns of equal length: observed, predicted",
                         id="verdicts-scalar"),
            # The report stores 2 verdict columns and one uninferable flag per node, and rebuilds the rest.
            pytest.param("detection_report.json", lambda d: d.update(verdicts=d["verdicts"] * 3),
                         "field 'verdicts' must hold 2 columns of equal length: observed, predicted",
                         id="verdicts-six-columns"),
            pytest.param("detection_report.json", lambda d: flag_two_rows(d, verdicts=15),
                         "field 'verdicts' must have shape (n * rows.flagged.sum()) = (16,), got (15,)",
                         id="verdicts-short"),
            pytest.param("detection_report.json", lambda d: flag_two_rows(d, uninferable=7),
                         "field 'uninferable' must have shape (n * rows.flagged.any()) = (8,), got (7,)",
                         id="uninferable-short"),
            pytest.param("detection_report.json", lambda d: d.pop("uninferable"),
                         "detection_report has no field 'uninferable'; re-run `sensorprep detect`",
                         id="missing-uninferable"),
            pytest.param("detection_report.json", lambda d: d.update(uninferable=False),
                         "field 'uninferable' must hold lists, got False", id="uninferable-scalar"),
            # `detect` reads the last training row's states from the network, not from `--train`.
            pytest.param("transition_network.json", lambda d: d.pop("last_states"),
                         "transition_network has no field 'last_states'; re-run `sensorprep learn`",
                         id="missing-last-states"),
            pytest.param("transition_network.json", lambda d: d["last_states"].__setitem__(0, 1.5),
                         "field 'last_states' must hold integers, got 1.5", id="last-states-fraction"),
            pytest.param("transition_network.json", lambda d: d.update(last_states=[2] * 7 + [0]),
                         "field 'last_states' must lie in [1, K] = [1, 3], got 0",
                         id="last-states-zero"),
            pytest.param("transition_network.json", lambda d: d.update(last_states=[2] * 7 + [4]),
                         "field 'last_states' must lie in [1, K] = [1, 3], got 4",
                         id="last-states-above-k"),
            pytest.param("transition_network.json", lambda d: d.update(last_states=[2] * 7),
                         "field 'last_states' must have shape (n) = (8,), got (7,)",
                         id="last-states-short"),
            # A ragged list ended in numpy's "inhomogeneous shape" ValueError, which named no file or field.
            pytest.param("scheme.json", lambda d: d["edges"].__setitem__(1, [0.5]),
                         "field 'edges' must hold lists of one length, got lengths [1, 2]", id="edges-ragged"),
            pytest.param("pca_model.json", lambda d: d["eigenvectors"][2].pop(),
                         "field 'eigenvectors' must hold lists of one length, got lengths [7, 8]",
                         id="eigenvectors-ragged"),
            pytest.param("transition_network.json", lambda d: d["counts"][0][0].pop(),
                         "field 'counts' must hold lists of one length, got lengths [2, 3]", id="count-row-short"),
            # Rules that cannot rebuild a reading of the report's nodes.
            pytest.param("redundancy_static.json",
                         lambda d: d.update(rule_node=[1, 2], rule_parents=[[0]], rule_dissimilarities=[[0.5]]),
                         "field 'rule_parents' must have shape (len(rule_node)) = (2,), got (1,)",
                         id="rule-fields-unequal"),
            pytest.param("redundancy_realtime.json", lambda d: d["rule_node"].__setitem__(0, 8),
                         "field 'rule_node' must lie in [0, n - 1] = [0, 7], got 8", id="rule-node-outside"),
            pytest.param("redundancy_static.json",
                         lambda d: d.update(rule_node=[1], rule_parents=[[-1]], rule_dissimilarities=[[0.5]]),
                         "field 'rule_parents' must lie in [0, n - 1] = [0, 7], got -1", id="rule-parent-outside"),
            pytest.param("redundancy_realtime.json",
                         lambda d: (d["rule_parents"].__setitem__(0, []), d["rule_dissimilarities"].__setitem__(0, [])),
                         "rule_parents give rule 0 no parents", id="rule-without-parents"),
            pytest.param("redundancy_static.json",
                         lambda d: d.update(rule_node=[1], rule_parents=[[0, 2]], rule_dissimilarities=[[0.5]]),
                         "field 'rule_dissimilarities' item 0 must have shape (len(rule_parents[i])) = (2,), got (1,)",
                         id="rule-lengths-differ"),
            pytest.param("redundancy_realtime.json", lambda d: d["rule_dissimilarities"][0].__setitem__(0, -0.5),
                         "field 'rule_dissimilarities' must lie in [0, inf), got -0.5",
                         id="rule-dissimilarity-negative"),
            pytest.param("redundancy_realtime.json", lambda d: d.update(slice_len=0),
                         "field 'slice_len' must lie in [1, inf), got 0", id="slice-len-zero"),
            pytest.param("redundancy_static.json", lambda d: d.update(rule_rows=-1),
                         "field 'rule_rows' must lie in [0, inf), got -1", id="rule-rows-negative"),
            pytest.param("redundancy_static.json", lambda d: d.update(rule_rows=2.0),
                         "field 'rule_rows' must hold integers, got 2.0", id="rule-rows-float"),
            pytest.param("redundancy_realtime.json", lambda d: d.update(train_frac="0.6"),
                         "field 'train_frac' must hold numbers, got '0.6'", id="train-frac-string"),
            pytest.param("redundancy_realtime.json", lambda d: d.update(train_frac=1e300),
                         "field 'train_frac' must lie in (0, 1), got 1e+300", id="train-frac-outside"),
            # `t` and `node` of the schedule follow from its length: 3 slices of 32 steps x 8 nodes.
            pytest.param("redundancy_realtime.json", lambda d: [column.pop() for column in d["entries"]],
                         "767 entries are not a whole number of slices of 32 steps x 8 nodes (slice_len 80, "
                         "train_frac 0.6)",
                         id="entries-part-slice"),
            pytest.param("redundancy_realtime.json", lambda d: d.update(train_frac=0.5),
                         "768 entries are not a whole number of slices of 40 steps x 8 nodes (slice_len 80, "
                         "train_frac 0.5)",
                         id="entries-other-train-frac"),
            pytest.param("redundancy_realtime.json", lambda d: d.update(slice_len=10**15),
                         "768 entries are not a whole number of slices of 400000000000000 steps x 8 nodes "
                         "(slice_len 1000000000000000, train_frac 0.6)", id="entries-huge-slice"),
            pytest.param("redundancy_realtime.json",
                         lambda d: d.update(entries=[list(range(768)), [i % 8 for i in range(768)], *d["entries"]]),
                         "field 'entries' must hold 2 columns of equal length: sleeping, max_posterior",
                         id="entries-four-columns"),
            # 3 slices of 400 - 368 = 32 steps fit the entries, but not the 240 rows of the data.
            pytest.param("redundancy_realtime.json", lambda d: d.update(slice_len=400, train_frac=0.92),
                         "entries of slice_len 400 span rows 368..1199, outside the data's rows 1..239",
                         id="slice-len-over-rows"),
            # These ended in a bare OverflowError.
            pytest.param("redundancy_realtime.json", lambda d: d.update(slice_len=10**400),
                         f"field 'slice_len' must hold integers within int64, got {10**400}", id="slice-len-huge"),
            pytest.param("redundancy_realtime.json", lambda d: d["rule_slice"].__setitem__(0, 2**63),
                         f"field 'rule_slice' must hold integers within int64, got {2**63}", id="rule-slice-huge"),
        ],
    )
    def test_malformed_artifact_field_names_file_and_field(self, tmp_path, capsys, name, edit, message):
        art, _ = run_full_pipeline(tmp_path, capsys, seed=3)
        path = art / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, reading_command(tmp_path, art, name))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{path}: {message}", "type": "ArtifactError"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(("scheme_k", "network_k"), [(4, 3), (3, 4)])
    def test_detect_rejects_state_count_mismatch(self, tmp_path, capsys, scheme_k, network_k):
        art, _ = run_full_pipeline(tmp_path, capsys, seed=3)
        art4 = tmp_path / "artifacts4"
        code, out, err = run(capsys, [
            "learn", "--train", str(tmp_path / "train.csv"), "--k-states", "4", "--out-dir", str(art4),
        ])
        assert code == 0, err
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        by_k = {3: art, 4: art4}
        for name, source in (("pca_model.json", art), ("scheme.json", by_k[scheme_k]),
                             ("transition_network.json", by_k[network_k])):
            (mixed / name).write_bytes((source / name).read_bytes())
        code, out, err = run(capsys, [
            "detect", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test_bad.csv"),
            "--artifacts", str(mixed), "--out-dir", str(mixed),
        ])
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["type"] == "ArtifactError"
        assert error["error"] == (f"{mixed / 'scheme.json'} has state_count {scheme_k} but "
                                  f"{mixed / 'transition_network.json'} counts K={network_k} states; "
                                  "re-run `sensorprep learn`")
        assert not (mixed / "detection_report.json").exists()

    def test_failed_learn_leaves_no_out_dir(self, tmp_path, capsys):
        train = tmp_path / "flat.csv"
        train.write_text("a,b\n1,5\n2,5\n3,5\n")
        code, out, err = run(capsys, ["learn", "--train", str(train), "--out-dir", str(tmp_path / "art")])
        assert code == 1 and out == ""
        assert "zero variance" in json.loads(err)["error"]
        assert not (tmp_path / "art").exists()

    def test_error_of_the_worker_search_leaves_as_json(self, tmp_path, capsys, monkeypatch):
        # learn runs the transition search on a worker thread; its error reaches main's JSON error path, and
        # the thread is joined.
        code, out, err = run(capsys, ["synth", "--seed", "3", "--rows", "120", "--cols", "4",
                                      "--out", str(tmp_path / "train.csv")])
        assert code == 0, err
        searched = bayesnet._searched_network

        def failing(states, max_parents, lag):
            if lag == 1:
                raise MemoryError("no room for the transition search")
            return searched(states, max_parents, lag)

        monkeypatch.setattr(bayesnet, "_searched_network", failing)
        threads = threading.active_count()
        code, out, err = run(capsys, ["learn", "--train", str(tmp_path / "train.csv"),
                                      "--out-dir", str(tmp_path / "art")])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "no room for the transition search", "type": "MemoryError"}
        assert threading.active_count() == threads
        assert not (tmp_path / "art").exists()

    def test_learn_needs_train(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--out-dir", str(tmp_path / "art")])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "the following arguments are required: --train" in captured.err
        assert not (tmp_path / "art").exists()

    def test_evaluate_rejects_redundancy_report_with_other_node_ids(self, tmp_path, capsys):
        # A recovery's node is an index into its report's node ids, so the
        # report must cover the truth file's nodes.
        art, _ = run_full_pipeline(tmp_path, capsys, seed=2)
        narrow = tmp_path / "narrow.csv"
        train = load_csv(tmp_path / "train.csv")
        write_csv(SensorDataset(train.values[:, :3], train.node_ids[:3]), narrow)
        code, out, err = run(capsys, [
            "redundancy-realtime", "--data", str(narrow), "--slice-len", "80", "--out-dir", str(tmp_path / "narrow"),
        ])
        assert code == 0, err
        code, out, err = run(capsys, [
            "evaluate", "--report", str(art / "detection_report.json"), "--truth", str(tmp_path / "truth.json"),
            "--redundancy", str(tmp_path / "narrow" / "redundancy_realtime.json"),
            "--data", str(tmp_path / "train.csv"),
        ])
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["type"] == "ArtifactError"
        assert "redundancy_realtime.json covers 3 nodes but data has 8" in error["error"]

    def test_static_network_tables_are_derived_from_counts(self, tmp_path, capsys):
        # A network file that still carries CPT tables, one of them edited,
        # gives the same redundancy verdicts as the counts alone.
        data = tmp_path / "data.csv"
        code, out, err = run(capsys, [
            "synth", "--profile", "copy-child", "--seed", "4", "--rows", "600", "--cols", "6",
            "--param", 'copies={"1":0,"3":2}', "--param", "flip=0.2", "--out", str(data),
        ])
        assert code == 0, err
        art = tmp_path / "art"
        assert run(capsys, ["learn", "--train", str(data), "--out-dir", str(art)])[0] == 0
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        doc = json.loads((art / "static_network.json").read_text())
        tables = [estimate_cpt(np.array(counts)).tolist() for counts in doc["counts"]]
        tables[3] = [[1.0, 0.0, 0.0]] * len(tables[3])
        (tampered / "static_network.json").write_text(json.dumps({**doc, "tables": tables}))
        outputs = {}
        for name, source in (("plain", art), ("tampered", tampered)):
            out_dir = tmp_path / f"out_{name}"
            code, out, err = run(capsys, [
                "redundancy-static", "--data", str(data), "--artifacts", str(source), "--out-dir", str(out_dir),
            ])
            assert code == 0, err
            summary = json.loads(out)
            del summary["out_dir"]
            outputs[name] = summary, [path.read_bytes() for path in sorted(out_dir.iterdir())]
        assert outputs["plain"][0] == {"redundant_nodes": [], "recovered_readings": 0, "recovery_rmse": None,
                                       "csv_sources": {str(data): "table"}}
        assert outputs["tampered"] == outputs["plain"]

    @pytest.mark.parametrize("kind", ["static_network", "transition_network"])
    @pytest.mark.parametrize("fault", ["rows", "negative"])
    def test_network_counts_checked_against_the_dag(self, tmp_path, capsys, kind, fault):
        data = tmp_path / "data.csv"
        code, _, err = run(capsys, [
            "synth", "--profile", "copy-child", "--seed", "4", "--rows", "300", "--cols", "4",
            "--param", 'copies={"1":0}', "--out", str(data),
        ])
        assert code == 0, err
        art = tmp_path / "art"
        assert run(capsys, ["learn", "--train", str(data), "--out-dir", str(art)])[0] == 0
        path = art / f"{kind}.json"
        doc = json.loads(path.read_text())
        node = next(j for j, ps in enumerate(doc["parents"]) if ps)
        if fault == "rows":
            doc["counts"][node] = doc["counts"][node][:1]
            p = len(doc["parents"][node])
            message = f"field 'counts' item {node} must have shape (K ** len(parents[i]), K) = ({3**p}, 3), got (1, 3)"
        else:
            doc["counts"][node][0][0] = -1
            message = f"node {node}: counts must be nonnegative"
        path.write_text(json.dumps(doc))
        command = (["redundancy-static"] if kind == "static_network" else ["detect", "--train", str(data)])
        code, out, err = run(capsys, command + ["--data", str(data), "--artifacts", str(art), "--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{path}: {message}", "type": "ArtifactError"}

    def test_constant_column_fails_with_named_node(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,5\n2,5\n3,5\n")
        code, out, err = run(capsys, ["learn", "--train", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        doc = json.loads(err)
        assert "'b'" in doc["error"]

    def test_detect_node_id_mismatch(self, tmp_path, capsys):
        art, _ = run_full_pipeline(tmp_path, capsys, seed=3)
        renamed = tmp_path / "renamed.csv"
        lines = (tmp_path / "test_bad.csv").read_text().splitlines()
        header = lines[0].split(",")
        header[2] = "rogue"
        renamed.write_text("\n".join([",".join(header)] + lines[1:]) + "\n")
        code, out, err = run(capsys, [
            "detect", "--train", str(tmp_path / "train.csv"), "--data", str(renamed),
            "--artifacts", str(art), "--out-dir", str(art),
        ])
        assert code == 1
        assert "rogue" in json.loads(err)["error"]

    def test_detect_scheme_node_id_mismatch(self, tmp_path, capsys):
        art, _ = run_full_pipeline(tmp_path, capsys, seed=3)
        scheme_path = art / "scheme.json"
        scheme = json.loads(scheme_path.read_text())
        scheme["node_ids"][2] = "rogue"
        scheme_path.write_text(json.dumps(scheme))
        code, out, err = run(capsys, [
            "detect", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test_bad.csv"),
            "--artifacts", str(art), "--out-dir", str(art),
        ])
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert "node id mismatch" in error and "rogue" in error

    def test_detect_train_node_id_mismatch(self, tmp_path, capsys):
        # `detect --train` reads the training CSV's header alone, which must
        # name the same nodes in the same order.
        art, _ = run_full_pipeline(tmp_path, capsys, seed=3)
        train = load_csv(tmp_path / "train.csv")
        order = [1, 0] + list(range(2, train.n))
        permuted = tmp_path / "permuted_train.csv"
        write_csv(SensorDataset(train.values[:, order], [train.node_ids[j] for j in order]), permuted)
        code, out, err = run(capsys, [
            "detect", "--train", str(permuted), "--data", str(tmp_path / "test_bad.csv"),
            "--artifacts", str(art), "--out-dir", str(art),
        ])
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert "detect --train: node id mismatch, training CSV has 'node01' but data has 'node00'" in error

    def test_detect_reads_only_the_training_header(self, tmp_path, capsys):
        # The first test row's predecessor is the last training row, whose states `learn` stored in the network.
        # So a training CSV of other values, or of its header alone, gives the same bytes and summary.
        art, outputs = run_full_pipeline(tmp_path, capsys, seed=3)
        train = load_csv(tmp_path / "train.csv")
        last_states = discretize_row(train.values[-1], fit_discretization(train, 3)).tolist()
        assert json.loads((art / "transition_network.json").read_text())["last_states"] == last_states
        other = tmp_path / "other_train.csv"
        write_csv(SensorDataset(train.values[::-1] * 3.0 + 7.0, train.node_ids), other)
        header_only = tmp_path / "header_train.csv"
        header_only.write_text((tmp_path / "train.csv").read_text().splitlines()[0] + "\n")
        for i, path in enumerate((other, header_only)):
            out_dir = tmp_path / f"detect{i}"
            code, out, err = run(capsys, [
                "detect", "--train", str(path), "--data", str(tmp_path / "test_bad.csv"),
                "--artifacts", str(art), "--out-dir", str(out_dir),
            ])
            assert code == 0, err
            assert json.loads(out) == {**outputs["detect"], "out_dir": str(out_dir)}
            for name in ("detection_report.json", "detection_report.csv"):
                assert (out_dir / name).read_bytes() == (art / name).read_bytes(), name

    def test_inject_train_node_id_mismatch(self, tmp_path, capsys):
        code, out, err = run(capsys, [
            "synth", "--profile", "correlated-drift", "--seed", "3", "--rows", "60", "--cols", "3",
            "--split", "40", "--out-train", str(tmp_path / "train.csv"), "--out-test", str(tmp_path / "test.csv"),
        ])
        assert code == 0, err
        train = load_csv(tmp_path / "train.csv")
        write_csv(SensorDataset(train.values[:, :2], train.node_ids[:2]), tmp_path / "narrow_train.csv")
        write_csv(SensorDataset(train.values[:, [1, 0, 2]], [train.node_ids[j] for j in (1, 0, 2)]),
                  tmp_path / "permuted_train.csv")
        argv = ["inject", "--data", str(tmp_path / "test.csv"), "--last-rows", "5",
                "--out", str(tmp_path / "bad.csv"), "--sidecar", str(tmp_path / "truth.json")]
        for name, message in (
            ("permuted_train.csv", "inject: node id mismatch, training CSV has 'node01' but data has 'node00'"),
            ("narrow_train.csv", "inject: training CSV covers 2 nodes but data has 3"),
        ):
            code, out, err = run(capsys, argv + ["--train", str(tmp_path / name)])
            assert code == 1 and out == ""
            assert message in json.loads(err)["error"]

    def test_detect_model_node_id_mismatch(self, tmp_path, capsys):
        art, _ = run_full_pipeline(tmp_path, capsys, seed=3)
        model_path = art / "pca_model.json"
        model = json.loads(model_path.read_text())
        assert model["node_ids"] == list(load_csv(tmp_path / "train.csv").node_ids)
        argv = [
            "detect", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test_bad.csv"),
            "--artifacts", str(art), "--out-dir", str(art),
        ]
        model["node_ids"][2] = "rogue"
        model_path.write_text(json.dumps(model))
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert "pca_model.json" in error and "rogue" in error
        del model["node_ids"]  # a model without node ids is rejected by name
        model_path.write_text(json.dumps(model))
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "pca_model.json: missing node_ids" in json.loads(err)["error"]

    def test_report_files_hold_plain_values(self, tmp_path, capsys):
        """Numbers are written as plain literals; missing values exactly where a node has no parents."""
        # lagged-copy: node 1 copies node 0 one step late, every other node is i.i.d.
        art = tmp_path / "artifacts"
        numpy_repr = re.compile(r"\bnp\.\w")  # repr of a numpy scalar, e.g. np.float64(0.5) or np.True_
        for argv in (
            ["synth", "--profile", "lagged-copy", "--seed", "5", "--rows", "360", "--cols", "6", "--split", "240",
             "--out-train", str(tmp_path / "train.csv"), "--out-test", str(tmp_path / "test.csv")],
            ["learn", "--train", str(tmp_path / "train.csv"), "--out-dir", str(art)],
            ["inject", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test.csv"),
             "--last-rows", "30", "--out", str(tmp_path / "bad.csv"), "--sidecar", str(tmp_path / "truth.json")],
            ["detect", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "bad.csv"),
             "--artifacts", str(art), "--out-dir", str(art)],
            ["redundancy-static", "--data", str(tmp_path / "train.csv"), "--artifacts", str(art), "--out-dir", str(art)],
            ["redundancy-realtime", "--data", str(tmp_path / "train.csv"), "--slice-len", "80", "--out-dir", str(art)],
        ):
            code, out, err = run(capsys, argv)
            assert code == 0, err
            assert not numpy_repr.search(out)
        for path in sorted(art.iterdir()):
            assert not numpy_repr.search(path.read_text()), path.name

        def read_rows(name):
            with (art / name).open(newline="") as fh:
                return list(csv.DictReader(fh))

        # Detection: `predicted` is blank exactly for nodes without transition parents.
        tn_parents = json.loads((art / "transition_network.json").read_text())["parents"]
        uninferable = {j for j, ps in enumerate(tn_parents) if not ps}
        assert uninferable and len(uninferable) < len(tn_parents)
        node_lines = [r for r in read_rows("detection_report.csv") if r["node"]]
        assert node_lines
        for r in node_lines:
            assert (r["predicted"] == "") == (int(r["node"]) in uninferable), r
        # The report stores each verdict's observed and predicted states, and one uninferable flag per node.
        doc = json.loads((art / "detection_report.json").read_text())
        assert [len(column) for column in doc["verdicts"]] == [len(node_lines)] * 2
        assert doc["uninferable"] == [j in uninferable for j in range(len(tn_parents))]

        # Real-time schedule: `max_posterior` is null/blank exactly for nodes
        # without parents in their slice's network (slice 80, 48 training rows).
        data = load_csv(tmp_path / "train.csv")
        scheme = fit_discretization(data, 3)
        parentless = {}
        for start in range(0, data.m - 80 + 1, 80):
            window = SensorDataset(data.values[start : start + 48], data.node_ids)
            tn = learn_transition(discretize(window, scheme), 3)
            for t in range(start + 48, start + 80):
                for j in range(data.n):
                    parentless[t, data.node_ids[j]] = not tn.dag.parents[j]
        assert any(parentless.values()) and not all(parentless.values())
        schedule_csv = read_rows("redundancy_realtime.csv")
        assert {(int(r["t"]), r["node"]) for r in schedule_csv} == set(parentless)
        for r in schedule_csv:
            assert (r["max_posterior"] == "") == parentless[int(r["t"]), r["node"]], r
        entries = oracles.read_schedule(artifacts.read(art / "redundancy_realtime.json", "redundancy_realtime",
                                                       data.node_ids))
        assert len(entries) == len(schedule_csv)
        stored = json.loads((art / "redundancy_realtime.json").read_text())["entries"][1]
        for t, node, max_post in zip(entries.t.tolist(), entries.node.tolist(), stored):
            assert (max_post is None) == parentless[t, data.node_ids[node]], (t, node)

    def test_unknown_profile_fails_cleanly(self, tmp_path, capsys):
        code, out, err = run(capsys, [
            "synth", "--profile", "nope", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "unknown profile" in json.loads(err)["error"]

    def test_invalid_config_values_rejected(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(capsys, [
            "learn", "--train", missing, "--alpha", "1.5", "--out-dir", str(tmp_path),
        ])
        assert code == 1
        assert "alpha_warning" in json.loads(err)["error"]
        code, out, err = run(capsys, [
            "learn", "--train", missing, "--k-states", "1", "--out-dir", str(tmp_path / "art"),
        ])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "k_states must be >= 2, got 1", "type": "ValueError"}
        assert not (tmp_path / "art").exists()

    def test_alpha_of_one_rejected_at_config(self, tmp_path, capsys):
        code, out, err = run(capsys, [
            "learn", "--train", str(tmp_path / "missing.csv"), "--alpha", "1.0", "--out-dir", str(tmp_path / "art"),
        ])
        assert code == 1
        assert "alpha_warning must lie in (0, 1)" in json.loads(err)["error"]
        assert not (tmp_path / "art").exists()

    def test_train_frac_of_one_rejected_at_config(self, tmp_path, capsys):
        # The data file does not exist: the value must fail before it is read.
        code, out, err = run(capsys, [
            "redundancy-realtime", "--data", str(tmp_path / "missing.csv"), "--train-frac", "1.0",
            "--out-dir", str(tmp_path / "art"),
        ])
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["type"] == "ValueError"
        assert "train_frac must lie in (0, 1)" in error["error"]
        assert not (tmp_path / "art").exists()

    def test_oversized_tables_rejected_at_config(self, tmp_path, capsys):
        code, out, err = run(capsys, [
            "learn", "--train", str(tmp_path / "missing.csv"), "--k-states", "64", "--max-parents", "5",
            "--out-dir", str(tmp_path / "art"),
        ])
        assert code == 1
        assert "MAX_CPT_CELLS" in json.loads(err)["error"]
        assert not (tmp_path / "art").exists()

    @pytest.mark.parametrize(
        ("argv", "error"),
        [
            pytest.param(["learn", "--alpha", "1.0"], "alpha_warning must lie in (0, 1), got 1.0", id="alpha"),
            pytest.param(["redundancy-realtime", "--train-frac", "0"], "train_frac must lie in (0, 1), got 0.0",
                         id="train_frac"),
            pytest.param(["learn", "--contribution-ratio", "1.5"], "contribution_ratio must lie in (0, 1], got 1.5",
                         id="contribution_ratio"),
            pytest.param(["redundancy-static", "--tau", "0"], "tau must lie in (0, 1], got 0.0", id="tau"),
            pytest.param(["synth", "--rows", "0"], "rows must be positive, got 0", id="rows"),
            pytest.param(["synth", "--cols", "-2"], "cols must be positive, got -2", id="cols"),
            pytest.param(["redundancy-realtime", "--slice-len", "0"], "slice_len must be positive, got 0",
                         id="slice_len"),
            pytest.param(["inject", "--last-rows", "0"], "last_rows must be positive, got 0", id="last_rows"),
            pytest.param(["redundancy-realtime", "--k-states", "1"], "k_states must be >= 2, got 1", id="k_states"),
            pytest.param(["learn", "--max-parents", "-1"], "max_parents must be >= 0, got -1", id="max_parents"),
            pytest.param(["inject", "--pct", "-0.1"], "pct must be >= 0, got -0.1", id="pct"),
            pytest.param(["inject", "--pct", "nan"], "pct must be >= 0, got nan", id="pct-nan"),
            pytest.param(["inject", "--rows-list", "3,x"], "--rows-list takes comma-separated integers, got 'x'",
                         id="rows_list-token"),
            pytest.param(["inject", "--rows-list", "3, 4.5"], "--rows-list takes comma-separated integers, got '4.5'",
                         id="rows_list-float-token"),
            pytest.param(["inject", "--rows-list", "3", "--last-rows", "5"],
                         "--rows-list does not combine with --last-rows, which corrupts trailing rows instead",
                         id="rows_list-and-last_rows"),
            pytest.param(["inject", "--last-rows", "5", "--rows-list", ""],
                         "--rows-list does not combine with --last-rows, which corrupts trailing rows instead",
                         id="empty-rows_list-and-last_rows"),
            pytest.param(["inject", "--rows-list", ","], "--rows-list names no row, got ','", id="rows_list-comma"),
            pytest.param(["inject", "--rows-list", " , "], "--rows-list names no row, got ' , '",
                         id="rows_list-blank-tokens"),
            pytest.param(["inject", "--rows-list", ""], "--rows-list names no row, got ''", id="rows_list-empty"),
            pytest.param(["synth", "--out-train", "a.csv"], "--out-train needs --split; without it synth writes --out",
                         id="out_train-without-split"),
            pytest.param(["synth", "--out-test", "b.csv"], "--out-test needs --split; without it synth writes --out",
                         id="out_test-without-split"),
            pytest.param(["redundancy-realtime", "--k-states", "3", "--max-parents", "8"],
                         "k_states=3 with max_parents=8 needs k_states**(max_parents + 1) CPT cells per node, "
                         "more than MAX_CPT_CELLS=4096", id="cpt_cells"),
            pytest.param(["redundancy-static", "--tau", "1"], None, id="tau-1-accepted"),
            pytest.param(["inject", "--pct", "0"], None, id="pct-0-accepted"),
            pytest.param(["learn", "--contribution-ratio", "1"], None, id="contribution_ratio-1-accepted"),
        ],
    )
    def test_range_checks_run_before_any_file_is_read(self, tmp_path, capsys, argv, error):
        # Every input path is missing: an out-of-range value must fail first,
        # by name, and a boundary value passes its check and fails on the file.
        missing, art = str(tmp_path / "missing.csv"), tmp_path / "art"
        inputs = {
            "synth": ["--out", str(art / "synth.csv")],
            "learn": ["--train", missing, "--out-dir", str(art)],
            "inject": ["--train", missing, "--data", missing, "--out", str(art / "bad.csv"),
                       "--sidecar", str(art / "truth.json")],
            "redundancy-static": ["--data", missing, "--artifacts", str(tmp_path / "none"), "--out-dir", str(art)],
            "redundancy-realtime": ["--data", missing, "--out-dir", str(art)],
        }
        code, out, err = run(capsys, argv + inputs[argv[0]])
        assert code == 1 and out == ""
        if error is None:
            assert json.loads(err) == {
                "error": f"[Errno 2] No such file or directory: '{missing}'", "type": "FileNotFoundError",
            }
        else:
            assert json.loads(err) == {"error": error, "type": "ValueError"}
        assert not art.exists()

    @pytest.mark.parametrize(
        ("flag", "value"),
        [("--rows", "10.5"), ("--cols", "true"), ("--seed", "1e3"), ("--split", "half")],
    )
    def test_unparseable_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["synth", flag, value, "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument {flag}: invalid int value: '{value}'" in captured.err
        assert not (tmp_path / "x.csv").exists()

    def test_each_call_parses_its_own_flags(self, tmp_path, capsys):
        # The parser is built once per process; one call's appended --param values do not reach the next call,
        # where copy-child's `flip` would be an unknown parameter of correlated-drift.
        assert _build_parser() is _build_parser()
        for profile, param in (("copy-child", "flip=0.2"), ("correlated-drift", "latents=1")):
            code, out, err = run(capsys, [
                "synth", "--profile", profile, "--rows", "40", "--cols", "3", "--param", param,
                "--out", str(tmp_path / f"{profile}.csv"),
            ])
            assert code == 0, err
        got = load_csv(tmp_path / "correlated-drift.csv")
        np.testing.assert_array_equal(got.values, synth_generate(0, 40, 3, "correlated-drift", latents=1).values)
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--rows", "ten"])
        assert exc.value.code == 2 and "argument --rows: invalid int value: 'ten'" in capsys.readouterr().err

    def test_disabled_q_test_round_trips_as_strict_json(self, tmp_path, capsys):
        def strict(text):
            def reject(token):
                raise ValueError(f"non-standard JSON token {token}")

            return json.loads(text, parse_constant=reject)

        code, out, err = run(capsys, [
            "synth", "--profile", "correlated-drift", "--seed", "4", "--rows", "200", "--cols", "5",
            "--split", "150", "--out-train", str(tmp_path / "train.csv"), "--out-test", str(tmp_path / "test.csv"),
        ])
        assert code == 0, err
        art = tmp_path / "art"
        code, out, err = run(capsys, [
            "learn", "--train", str(tmp_path / "train.csv"), "--contribution-ratio", "1.0", "--out-dir", str(art),
        ])
        assert code == 0, err
        summary = strict(out)
        assert summary["k"] == 5
        assert summary["q_limit"] is None
        model_doc = strict((art / "pca_model.json").read_text())
        assert model_doc["q_limit"] is None
        assert oracles.read_model(art / "pca_model.json", model_doc["node_ids"]).q_limit == math.inf

        code, out, err = run(capsys, [
            "inject", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test.csv"),
            "--last-rows", "10", "--out", str(tmp_path / "bad.csv"), "--sidecar", str(tmp_path / "truth.json"),
        ])
        assert code == 0, err
        code, out, err = run(capsys, [
            "detect", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "bad.csv"),
            "--artifacts", str(art), "--out-dir", str(art),
        ])
        assert code == 0, err
        strict(out)
        assert strict((art / "detection_report.json").read_text())["q_limit"] is None
        code, out, err = run(capsys, [
            "evaluate", "--report", str(art / "detection_report.json"), "--truth", str(tmp_path / "truth.json"),
        ])
        assert code == 0, err
        strict(out)

    @pytest.mark.parametrize("given", ["--redundancy", "--data"])
    def test_evaluate_needs_redundancy_and_data_together(self, tmp_path, capsys, given):
        # No input exists: the pairing must fail before any file is read.
        missing = str(tmp_path / "missing")
        code, out, err = run(capsys, ["evaluate", "--report", missing, "--truth", missing, given, missing])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "--redundancy and --data go together: --data is the CSV the redundancy report was made from",
            "type": "ValueError",
        }

    def test_evaluate_data_checks(self, tmp_path, capsys):
        art, _ = run_full_pipeline(tmp_path, capsys, seed=2)
        argv = ["evaluate", "--report", str(art / "detection_report.json"), "--truth", str(tmp_path / "truth.json"),
                "--redundancy", str(art / "redundancy_realtime.json"), "--data"]
        # --data must have the truth file's node ids.
        test = load_csv(tmp_path / "test.csv")
        renamed = tmp_path / "renamed.csv"
        write_csv(SensorDataset(test.values, ("x",) + test.node_ids[1:]), renamed)
        code, out, err = run(capsys, argv + [str(renamed)])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"evaluate --data: node id mismatch, truth file {tmp_path / 'truth.json'} has 'node00' "
                     "but data has 'x'",
            "type": "ArtifactError",
        }
        # The report was made from train.csv (240 rows): its 3 slices of 80 rows span rows 48..239, and test.csv
        # has 120.
        path = art / "redundancy_realtime.json"
        code, out, err = run(capsys, argv + [str(tmp_path / "test.csv")])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{path}: entries of slice_len 80 span rows 48..239, outside the data's rows 1..119",
            "type": "ArtifactError",
        }
        # A sleeping reading is rebuilt by its node's rule in its slice, so each one needs that rule.
        doc = json.loads(path.read_text())
        entries = oracles.read_schedule(artifacts.read(path, "redundancy_realtime", doc["node_ids"]))
        asleep = entries[entries.sleeping]
        first = asleep[(asleep.t // 80 == doc["rule_slice"][0]) & (asleep.node == doc["rule_node"][0])][0]
        for key in ("rule_slice", "rule_node", "rule_parents", "rule_dissimilarities"):
            del doc[key][0]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv + [str(tmp_path / "train.csv")])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{path}: entries put node {first.node} to sleep at row {first.t}, but no rule_slice and "
                     "rule_node rebuild it",
            "type": "ArtifactError",
        }
        # A rule outside the schedule's 3 slices rebuilds nothing, and is an error too.
        doc["rule_slice"][0] = 3
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv + [str(tmp_path / "train.csv")])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{path}: rule_slice must lie in the schedule's slices 0..2, got 3", "type": "ArtifactError",
        }

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            pytest.param(lambda d: d.pop("node_ids"), "needs 'node_ids' as a list of strings", id="no-node_ids"),
            pytest.param(lambda d: d.pop("rows"), "needs 'rows' as a list of integers", id="no-rows"),
            pytest.param(lambda d: d.pop("test_rows"), "needs 'test_rows' as a nonnegative integer",
                         id="no-test_rows"),
            pytest.param(lambda d: d.update(rows="3"), "needs 'rows' as a list of integers", id="rows-string"),
            pytest.param(lambda d: d.update(rows=[1.0]), "needs 'rows' as a list of integers", id="rows-float"),
            pytest.param(lambda d: d.update(node_ids=[0, 1]), "needs 'node_ids' as a list of strings",
                         id="node_ids-ints"),
            pytest.param(lambda d: d.update(test_rows="20"), "needs 'test_rows' as a nonnegative integer",
                         id="test_rows-string"),
            pytest.param(lambda d: d.update(rows=[3, 20]), "row 20 is outside the test rows 0..19",
                         id="row-past-end"),
            pytest.param(lambda d: d.update(rows=[-1, 3]), "row -1 is outside the test rows 0..19",
                         id="row-negative"),
        ],
    )
    def test_evaluate_checks_its_truth_file(self, tmp_path, capsys, edit, message):
        truth = {"rows": [3, 5], "node_ids": ["a", "b"], "test_rows": 20, "pct": 0.1, "delta_per_node": [1.0, 1.0]}
        edit(truth)
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        # The report does not exist: the truth file is checked before it is read.
        code, out, err = run(capsys, ["evaluate", "--report", str(tmp_path / "missing.json"), "--truth", str(path)])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{path}: truth file {message}", "type": "ValueError"}

    @pytest.mark.parametrize(
        ("screened", "row"),
        [
            pytest.param(np.arange(100), 50, id="longer"),
            pytest.param(np.arange(30), 30, id="shorter"),
            pytest.param(np.r_[0:3, 4, 3, 5:50], 4, id="out-of-order"),
        ],
    )
    def test_evaluate_rejects_report_of_other_test_rows(self, tmp_path, capsys, screened, row):
        # The truth file has 50 test rows; the report must screen exactly rows 0..49, in order.
        rows = np.recarray(len(screened), dtype=ROW_DTYPE)
        rows.row, rows.q, rows.t2, rows.flagged = screened, 0.0, 0.0, False
        report = tmp_path / "report.json"
        states = np.zeros((0, 2), dtype=np.int64)
        body = report_to_dict(DetectionReport(1.0, 1.0, rows, states, states, np.zeros(2, dtype=bool)))
        artifacts.write(report, "detection_report", ["a", "b"], body)
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"rows": [3, 5], "node_ids": ["a", "b"], "test_rows": 50}))
        code, out, err = run(capsys, ["evaluate", "--report", str(report), "--truth", str(truth)])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{report}: field 'rows' must screen rows 0..49 of {truth}, got row {row}",
            "type": "ArtifactError",
        }

    # `noise`, `stay` and `levels` are constants of the profiles, not keys.
    @pytest.mark.parametrize("key", ["bogus", "rng", "seed", "m", "n", "profile", "noise", "stay", "levels"])
    def test_synth_rejects_unknown_param_before_generating(self, tmp_path, capsys, key):
        out_csv = tmp_path / "x.csv"
        for profile, accepted in (
            ("correlated-drift", ["latents"]),
            ("copy-child", ["copies", "flip"]),
            ("lagged-copy", ["copies", "noise_frac"]),
        ):
            code, out, err = run(capsys, ["synth", "--profile", profile, "--param", f"{key}=1", "--out", str(out_csv)])
            assert code == 1 and out == "" and not any(tmp_path.iterdir())
            assert json.loads(err) == {
                "error": f"--param {key!r} is not a parameter of profile {profile!r}: it takes {accepted}",
                "type": "ValueError",
            }

    @pytest.mark.parametrize(
        ("profile", "param", "message"),
        [
            ("correlated-drift", "latents=1.5", "'latents' must be an integer >= 0, got 1.5"),
            ("correlated-drift", "latents=-1", "'latents' must be an integer >= 0, got -1"),
            ("correlated-drift", "latents=true", "'latents' must be an integer >= 0, got True"),
            ("copy-child", 'flip="x"', "'flip' must be a number in [0, 1], got 'x'"),
            ("copy-child", "flip=2", "'flip' must be a number in [0, 1], got 2"),
            ("lagged-copy", "noise_frac=-1", "'noise_frac' must be a number >= 0, got -1"),
            ("lagged-copy", "copies=[1]",
             "'copies' must be null or an object mapping node integers to node integers, got [1]"),
            ("copy-child", 'copies={"1": 0.5}',
             "'copies' must be null or an object mapping node integers to node integers, got {'1': 0.5}"),
            ("copy-child", 'copies={"x": 0}',
             "'copies' must be null or an object mapping node integers to node integers, got {'x': 0}"),
        ],
        ids=["latents-fraction", "latents-negative", "latents-bool", "flip-string", "flip-2", "noise-frac-negative",
             "copies-list", "copies-fraction", "copies-text-key"],
    )
    def test_synth_rejects_bad_param_value_before_generating(self, tmp_path, capsys, profile, param, message):
        code, out, err = run(capsys, ["synth", "--profile", profile, "--param", param, "--out", str(tmp_path / "x.csv")])
        assert code == 1 and out == "" and not any(tmp_path.iterdir())
        assert json.loads(err) == {"error": f"--param {message}", "type": "ValueError"}

    def test_synth_out_and_split(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        split = ["synth", "--rows", "60", "--cols", "3", "--split", "40", "--out-train", "a.csv", "--out-test", "b.csv"]
        code, out, err = run(capsys, split + ["--out", "x.csv"])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "--out does not combine with --split, which writes --out-train and --out-test",
            "type": "ValueError",
        }
        assert not any(tmp_path.iterdir())
        code, out, err = run(capsys, split)
        assert code == 0, err
        assert json.loads(out)["written"] == ["a.csv", "b.csv"]
        assert sorted(p.name for p in tmp_path.iterdir() if not p.name.startswith(".")) == ["a.csv", "b.csv"]
        assert sorted(p.name.split(".parsed-")[0] for p in tmp_path.glob(".*.npy")) == [".a.csv", ".b.csv"]
        code, out, err = run(capsys, ["synth", "--rows", "60", "--cols", "3"])
        assert code == 0, err
        assert json.loads(out)["written"] == ["synth.csv"] and (tmp_path / "synth.csv").exists()

    @pytest.mark.parametrize("test_name", ["a.csv", "./a.csv", "sub/../a.csv", "absolute"])
    def test_synth_split_rejects_one_file_for_both(self, tmp_path, capsys, monkeypatch, test_name):
        # Paths are compared resolved: the test rows written second would otherwise replace the training rows.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        test_name = str(tmp_path / "a.csv") if test_name == "absolute" else test_name
        code, out, err = run(capsys, ["synth", "--rows", "60", "--cols", "3", "--split", "40",
                                      "--out-train", "a.csv", "--out-test", test_name])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"--out-train and --out-test name one file, {test_name!r}; --split writes two", "type": "ValueError",
        }
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize("sidecar", ["a.csv", "./a.csv", "sub/../a.csv", "absolute"])
    def test_inject_rejects_one_file_for_out_and_sidecar(self, tmp_path, capsys, monkeypatch, sidecar):
        # Paths are compared resolved, before any input is read: the inputs here do not exist.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        sidecar = str(tmp_path / "a.csv") if sidecar == "absolute" else sidecar
        code, out, err = run(capsys, ["inject", "--train", "missing.csv", "--data", "missing.csv",
                                      "--out", "a.csv", "--sidecar", sidecar])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"--out and --sidecar name one file, {sidecar!r}; inject writes two", "type": "ValueError",
        }
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            (["--last-rows", "30"], "last_rows must be at most the test set's 20 rows, got 30"),
            (["--rows-list", "3,20"], "rows_list index 20 is outside the test set's rows 0..19"),
            (["--rows-list=-1,3"], "rows_list index -1 is outside the test set's rows 0..19"),
        ],
        ids=["last-rows", "rows-list-past-end", "rows-list-negative"],
    )
    def test_inject_row_range_names_the_flag(self, tmp_path, capsys, rows, message):
        code, out, err = run(capsys, [
            "synth", "--rows", "60", "--cols", "3", "--split", "40",
            "--out-train", str(tmp_path / "train.csv"), "--out-test", str(tmp_path / "test.csv"),
        ])
        assert code == 0, err
        code, out, err = run(capsys, [
            "inject", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test.csv"), *rows,
            "--out", str(tmp_path / "bad.csv"), "--sidecar", str(tmp_path / "truth.json"),
        ])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": message, "type": "ValueError"}
        assert not (tmp_path / "bad.csv").exists()

    def test_inject_defaults_to_the_last_50_rows(self, tmp_path, capsys):
        code, out, err = run(capsys, [
            "synth", "--rows", "100", "--cols", "3", "--split", "40",
            "--out-train", str(tmp_path / "train.csv"), "--out-test", str(tmp_path / "test.csv"),
        ])
        assert code == 0, err
        code, out, err = run(capsys, [
            "inject", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test.csv"),
            "--out", str(tmp_path / "bad.csv"), "--sidecar", str(tmp_path / "truth.json"),
        ])
        assert code == 0, err
        assert json.loads((tmp_path / "truth.json").read_text())["rows"] == list(range(10, 60))


def readme_cli_commands() -> list[list[str]]:
    """Every command of README's `## CLI` bash block, `\\` continuations joined, without `sensorprep`."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "sensorprep", line
            commands.append(words[1:])
    return commands


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "learn", "inject", "detect", "redundancy-static", "redundancy-realtime", "evaluate",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run(capsys, argv)
        assert code == 0, (argv, err)
    assert json.loads((tmp_path / "artifacts" / "metrics.json").read_text())["recovery"]["mean_rmse"] is not None


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    # The `python` block of README's library quick tour, as a reader would paste it.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library quick tour\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    tour = {}
    exec(compile(block, "README.md: Library quick tour", "exec"), tour)
    assert len(tour["report"].rows) == 200 and tour["state"] in (1, 2, 3)
    assert not any(tmp_path.iterdir())


class TestEntryPoint:
    def test_console_script_help(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "sensorprep.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "learn" in proc.stdout


def test_redundancy_runs_do_not_import_numpy_ma(tmp_path, capsys):
    # np.unique's first plain call imports numpy.ma (about 11 ms and 1 MB of peak RSS), which neither command needs.
    # A call with return_inverse, as the CSV writers make, does not.
    import subprocess

    for argv in (
        ["synth", "--profile", "copy-child", "--seed", "1", "--rows", "240", "--cols", "8",
         "--out", str(tmp_path / "train.csv")],
        ["learn", "--train", str(tmp_path / "train.csv"), "--out-dir", str(tmp_path / "art")],
    ):
        code, out, err = run(capsys, argv)
        assert code == 0, err
    script = (
        "import json, sys\nfrom sensorprep.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\nsys.exit(max(codes))"
    )
    commands = [
        ["redundancy-realtime", "--data", str(tmp_path / "train.csv"), "--slice-len", "80",
         "--out-dir", str(tmp_path / "realtime")],
        ["redundancy-static", "--data", str(tmp_path / "train.csv"), "--artifacts", str(tmp_path / "art"),
         "--out-dir", str(tmp_path / "static")],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    realtime, static = map(json.loads, proc.stdout.splitlines())
    assert realtime["recovered_readings"] > 0 and static["redundant_nodes"]
    assert proc.stderr == "False\n"
