"""End-to-end command-line pipeline tests."""

import csv
import importlib.util
import json
import math
import os
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from sensorprep import artifacts
from sensorprep.anomaly import ROW_DTYPE, VERDICT_DTYPE, DetectionReport, report_to_dict
from sensorprep.bayesnet import estimate_cpt, learn_transition, static_from_dict, transition_from_dict
from sensorprep.cli import main
from sensorprep.ingest import SensorDataset, discretize, fit_discretization, load_csv, write_csv
from sensorprep.redundancy import RECOVERY_DTYPE, SCHEDULE_DTYPE
from sensorprep.spectra import model_from_dict


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
        static = static_from_dict(json.loads((art / "static_network.json").read_text()))
        transition = transition_from_dict(json.loads((art / "transition_network.json").read_text()))
        assert outputs["learn"]["score"] == oracles.score(states, static.dag, 0) + oracles.score(states, transition.dag, 1)
        row_metrics = outputs["evaluate"]["row_level"]
        assert row_metrics["recall"] == 1.0
        assert row_metrics["tp"] == 30

    def test_realtime_summary_reports_the_trade_off(self, tmp_path, capsys):
        art, outputs = run_full_pipeline(tmp_path, capsys)
        summary = outputs["redundancy-realtime"]
        assert sorted(summary) == [
            "inference_entries",
            "out_dir",
            "recovered_readings",
            "recovery_rmse",
            "sleeping_entries",
            "sleeping_nodes",
        ]
        doc = json.loads((art / "redundancy_realtime.json").read_text())
        entries = dict(zip(SCHEDULE_DTYPE.names, doc["entries"]))
        recoveries = dict(zip(RECOVERY_DTYPE.names, doc["recoveries"]))
        assert summary["inference_entries"] == len(entries["t"])
        assert summary["sleeping_entries"] == sum(entries["sleeping"]) > 0
        assert summary["recovered_readings"] == len(recoveries["t"])
        # One number three ways: the summary, `evaluate --data` and perfbench's formula over the CSV,
        # which sums the same squares in another order.
        assert summary["recovery_rmse"] == outputs["evaluate"]["recovery"]["mean_rmse"]
        perfbench_rmse = load_workloads()._mean_rmse(art / "recovery_realtime.csv")
        assert summary["recovery_rmse"] == pytest.approx(perfbench_rmse, rel=1e-12, abs=0)
        train = load_csv(tmp_path / "train.csv")
        with (art / "recovery_realtime.csv").open(newline="") as fh:
            lines = list(csv.DictReader(fh))
        assert list(lines[0]) == ["t", "node", "estimate", "actual"]
        assert len(lines) == len(recoveries["t"])
        for line, t, node, estimate in zip(lines, recoveries["t"], recoveries["node"], recoveries["estimate"]):
            assert (int(line["t"]), line["node"], float(line["estimate"])) == (t, train.node_ids[node], estimate)
            assert float(line["actual"]) == train.values[t, node]

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
        # alias a cell of the next row instead of failing. The report's
        # header matches the truth file; one abnormal verdict names node n.
        art, _ = run_full_pipeline(tmp_path, capsys, seed=2)
        n = len(json.loads((tmp_path / "truth.json").read_text())["node_ids"])
        doc = json.loads((art / "detection_report.json").read_text())
        verdicts = dict(zip(VERDICT_DTYPE.names, doc["verdicts"]))
        verdicts["node"][verdicts["abnormal"].index(True)] = n
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["evaluate", "--report", str(bad), "--truth", str(tmp_path / "truth.json")])
        assert code == 1 and out == ""
        assert f"outside the truth file's {n} nodes" in json.loads(err)["error"]

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
        assert error["type"] == "ValueError"
        assert "artifact shapes disagree" in error["error"]
        assert f"network K={network_k}, scheme K={scheme_k}" in error["error"]
        assert not (mixed / "detection_report.json").exists()

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
        assert outputs["plain"][0] == {"redundant_nodes": []}
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
            message = f"node {node} needs 3^{p} = {3 ** p} configuration rows, got 1"
        else:
            doc["counts"][node][0][0] = -1
            message = f"node {node}: counts must be nonnegative"
        path.write_text(json.dumps(doc))
        command = (["redundancy-static"] if kind == "static_network" else ["detect", "--train", str(data)])
        code, out, err = run(capsys, command + ["--data", str(data), "--artifacts", str(art), "--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": message, "type": "ValueError"}

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
        # The last training row is the predecessor of test row 0, so its
        # columns must name the same nodes in the same order.
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
        verdicts = dict(zip(VERDICT_DTYPE.names, json.loads((art / "detection_report.json").read_text())["verdicts"]))
        assert len(verdicts["node"]) == len(node_lines)
        assert all(u == (node in uninferable) for node, u in zip(verdicts["node"], verdicts["uninferable"]))

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
        doc = json.loads((art / "redundancy_realtime.json").read_text())
        entries = dict(zip(SCHEDULE_DTYPE.names, doc["entries"]))
        assert len(entries["t"]) == len(schedule_csv)
        for t, node, max_post in zip(entries["t"], entries["node"], entries["max_posterior"]):
            assert (max_post is None) == parentless[t, doc["node_ids"][node]], (t, node)

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
        assert model_from_dict(model_doc).q_limit == math.inf

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
        # The report was made from train.csv (240 rows); test.csv has 120, which some recoveries lie beyond.
        t = json.loads((art / "redundancy_realtime.json").read_text())["recoveries"][0]
        beyond = min(v for v in t if v >= 120)
        code, out, err = run(capsys, argv + [str(tmp_path / "test.csv")])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"recovery at row {beyond} is outside the data's rows 0..119", "type": "ValueError",
        }
        # A recovery's node indexes the data's 8 columns: -1 would read the last one, 8 none.
        doc = json.loads((art / "redundancy_realtime.json").read_text())
        for node in (-1, 8):
            doc["recoveries"][1][0] = node
            (art / "redundancy_realtime.json").write_text(json.dumps(doc))
            code, out, err = run(capsys, argv + [str(tmp_path / "train.csv")])
            assert code == 1 and out == ""
            assert json.loads(err) == {
                "error": f"recovery at node {node} is outside the data's nodes 0..7", "type": "ValueError",
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
        body = report_to_dict(DetectionReport(1.0, 1.0, rows, np.recarray(0, dtype=VERDICT_DTYPE)))
        artifacts.write(report, "detection_report", ["a", "b"], body)
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"rows": [3, 5], "node_ids": ["a", "b"], "test_rows": 50}))
        code, out, err = run(capsys, ["evaluate", "--report", str(report), "--truth", str(truth)])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"report {report} does not screen rows 0..49 of {truth}: row {row}", "type": "ValueError",
        }

    @pytest.mark.parametrize("key", ["bogus", "rng", "seed", "m", "n", "profile"])
    def test_synth_rejects_unknown_param_before_generating(self, tmp_path, capsys, key):
        out_csv = tmp_path / "x.csv"
        code, out, err = run(capsys, ["synth", "--profile", "copy-child", "--param", f"{key}=1", "--out", str(out_csv)])
        assert code == 1 and out == "" and not out_csv.exists()
        accepted = ["copies", "levels", "stay", "flip", "meas_noise", "child_noise"]
        assert json.loads(err) == {
            "error": f"--param {key!r} is not a parameter of profile 'copy-child': it takes {accepted}",
            "type": "ValueError",
        }

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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]
        code, out, err = run(capsys, ["synth", "--rows", "60", "--cols", "3"])
        assert code == 0, err
        assert json.loads(out)["written"] == ["synth.csv"] and (tmp_path / "synth.csv").exists()

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


def test_realtime_run_does_not_import_numpy_ma(tmp_path, capsys):
    # np.unique's first plain call imports numpy.ma, about 1 MB of a realtime run's peak RSS.
    import subprocess

    code, out, err = run(capsys, [
        "synth", "--profile", "correlated-drift", "--seed", "1", "--rows", "240", "--cols", "8",
        "--out", str(tmp_path / "train.csv"),
    ])
    assert code == 0, err
    script = (
        "import sys\nfrom sensorprep.cli import main\n"
        "code = main(sys.argv[1:])\nprint('numpy.ma' in sys.modules, file=sys.stderr)\nsys.exit(code)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "redundancy-realtime", "--data", str(tmp_path / "train.csv"),
         "--slice-len", "80", "--out-dir", str(tmp_path / "art")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["recovered_readings"] > 0
    assert proc.stderr == "False\n"
