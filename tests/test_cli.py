"""End-to-end command-line pipeline tests."""

import csv
import json
import math
import re

import numpy as np
import pytest

from sensorprep.anomaly import ROW_DTYPE, VERDICT_DTYPE
from sensorprep.bayesnet import estimate_cpt, learn_transition, score, static_from_dict, transition_from_dict
from sensorprep.cli import RunConfig, main
from sensorprep.ingest import SensorDataset, discretize, fit_discretization, load_csv, write_csv
from sensorprep.redundancy import RECOVERY_DTYPE, SCHEDULE_DTYPE
from sensorprep.spectra import model_from_dict


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
        "--redundancy", str(art / "redundancy_realtime.json"),
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
        assert outputs["learn"]["score"] == score(states, static.dag, 0) + score(states, transition.dag, 1)
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
        assert summary["recovery_rmse"] == outputs["evaluate"]["recovery"]["mean_rmse"]

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
        code, out, err = run(capsys, ["learn", "--out-dir", str(tmp_path / "art")])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "learn needs --train", "type": "ValueError"}
        assert not (tmp_path / "art").exists()

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

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": "copy-child", "rows": 120, "cols": 3, "seed": 5}))
        code, out, err = run(capsys, [
            "--config", str(cfg), "synth", "--rows", "150", "--out", str(tmp_path / "train.csv"),
        ])
        assert code == 0, err
        train = (tmp_path / "train.csv").read_text().splitlines()
        assert len(train) == 151  # header + overridden row count

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, out, err = run(capsys, ["--config", str(cfg), "learn", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unknown config keys" in json.loads(err)["error"]
        cfg.write_text(json.dumps({"alpha_alarm": 0.01}))  # the alarm level was removed
        code, out, err = run(capsys, ["--config", str(cfg), "learn", "--out-dir", str(tmp_path)])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "unknown config keys: ['alpha_alarm']", "type": "ValueError"}

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            ({"rows": "10"}, "rows must be an integer, got '10'"),
            ({"k_states": 2.5}, "k_states must be an integer, got 2.5"),
            ({"max_parents": True}, "max_parents must be an integer, got True"),
            ({"tau": True}, "tau must be a number, got True"),
            ({"error_pct": "0.1"}, "error_pct must be a number, got '0.1'"),
            ([{"k_states": 3}], "--config must hold a JSON object of config keys, got list"),
            ({"profile_params": [1, 2]}, "profile_params must be a JSON object, got [1, 2]"),
        ],
    )
    def test_mistyped_config_values_rejected(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, [
            "--config", str(cfg), "learn", "--out-dir", str(tmp_path / "art"),
        ])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": message, "type": "ValueError"}
        assert not (tmp_path / "art").exists()

    def test_param_flags_merge_over_config_profile_params(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        synth = ["synth", "--profile", "copy-child", "--rows", "20", "--cols", "3", "--param", "flip=0.5"]
        cfg.write_text(json.dumps({"profile_params": [1, 2]}))
        code, out, err = run(capsys, ["--config", str(cfg), *synth, "--out", str(tmp_path / "bad.csv")])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "profile_params must be a JSON object, got [1, 2]", "type": "ValueError"}
        cfg.write_text(json.dumps({"profile_params": {"flip": 0.0}}))
        assert run(capsys, ["--config", str(cfg), *synth, "--out", str(tmp_path / "merged.csv")])[0] == 0
        assert run(capsys, [*synth, "--out", str(tmp_path / "flag.csv")])[0] == 0
        assert (tmp_path / "merged.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_integer_accepted_for_float_fields(self):
        cfg = RunConfig(tau=1, error_pct=0, contribution_ratio=1)
        assert (cfg.tau, cfg.error_pct, cfg.contribution_ratio) == (1, 0, 1)

    def test_invalid_config_values_rejected(self, tmp_path, capsys):
        code, out, err = run(capsys, [
            "learn", "--alpha", "1.5", "--out-dir", str(tmp_path),
        ])
        assert code == 1
        assert "alpha_warning" in json.loads(err)["error"]
        code, out, err = run(capsys, [
            "learn", "--k-states", "1", "--out-dir", str(tmp_path / "art"),
        ])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "k_states must be >= 2, got 1", "type": "ValueError"}
        assert not (tmp_path / "art").exists()

    def test_alpha_of_one_rejected_at_config(self, tmp_path, capsys):
        code, out, err = run(capsys, [
            "learn", "--alpha", "1.0", "--out-dir", str(tmp_path / "art"),
        ])
        assert code == 1
        assert "alpha_warning must lie in (0, 1)" in json.loads(err)["error"]
        assert not (tmp_path / "art").exists()

    def test_train_frac_of_one_rejected_at_config(self, tmp_path, capsys):
        # The data file does not exist: the config must fail before it is read.
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
            "learn", "--k-states", "64", "--max-parents", "5",
            "--out-dir", str(tmp_path / "art"),
        ])
        assert code == 1
        assert "MAX_CPT_CELLS" in json.loads(err)["error"]
        assert not (tmp_path / "art").exists()
        RunConfig(k_states=3, max_parents=3)  # the defaults: 81 cells

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

    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SENSORPREP_OUT_DIR", str(tmp_path / "from_env"))
        train = str(tmp_path / "train.csv")
        code, out, err = run(capsys, [
            "synth", "--profile", "copy-child", "--rows", "120", "--cols", "3", "--out", train,
        ])
        assert code == 0, err
        code, out, err = run(capsys, ["learn", "--train", train])
        assert code == 0, err
        assert (tmp_path / "from_env" / "pca_model.json").exists()


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
