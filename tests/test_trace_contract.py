"""The benchmark's tracer binds to sensorprep functions by name.

`perfbench/spans.py` wraps every function listed in its `TRACED` table and
its hooks read some arguments and results of those functions after each
call. These tests fail when a rename or deletion in sensorprep would break
`perfbench/run.py --trace 1`.
"""

import csv
import importlib
import importlib.util
import json
from pathlib import Path

from sensorprep.cli import main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function():
    spans = load_spans()
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"sensorprep.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sensorprep.{module_name}.{name}"
    traced = {f"{m}.{name}" for m, names in spans.TRACED.items() for name in names}
    assert set(spans.HOOKS) <= traced


def test_hooks_read_traced_calls(tmp_path, capsys):
    spans = load_spans()
    art = tmp_path / "art"
    assert main(["synth", "--profile", "lagged-copy", "--seed", "2", "--rows", "300", "--cols", "5", "--split", "200",
                 "--out-train", str(tmp_path / "train.csv"), "--out-test", str(tmp_path / "test.csv")]) == 0
    capsys.readouterr()
    tracer = spans.Tracer()
    tracer.install()
    summaries = {}
    try:
        for argv in (
            ["learn", "--train", str(tmp_path / "train.csv"), "--out-dir", str(art)],
            ["inject", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "test.csv"),
             "--last-rows", "20", "--pct", "2", "--out", str(tmp_path / "bad.csv"),
             "--sidecar", str(tmp_path / "truth.json")],
            ["detect", "--train", str(tmp_path / "train.csv"), "--data", str(tmp_path / "bad.csv"),
             "--artifacts", str(art), "--out-dir", str(art)],
            ["evaluate", "--report", str(art / "detection_report.json"), "--truth", str(tmp_path / "truth.json")],
            ["redundancy-realtime", "--data", str(tmp_path / "train.csv"), "--slice-len", "100", "--out-dir", str(art)],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, captured.err
            summaries[argv[0]] = json.loads(captured.out)
    finally:
        tracer.uninstall()

    counters = {key: value for (_, key), value in tracer.counters.items()}
    for key in (
        "ingest.load_csv.bytes",
        "bayesnet.repair_cycles.edges_removed",
        "metrics.precision_recall.universe_size",
    ):
        assert key in counters, key
    # `learn`, `inject` (its two), `detect` and `redundancy-realtime` each parse their CSVs through `load_csv`;
    # `detect` reads the training CSV's header alone.
    size = {name: (tmp_path / f"{name}.csv").stat().st_size for name in ("train", "test", "bad")}
    assert counters["ingest.load_csv.bytes"] == 3 * size["train"] + size["test"] + size["bad"]
    # Stage one screens the whole test matrix in one call, so detect's summary, not a hook, counts the flags.
    detect = summaries["detect"]
    assert detect["rows"] == 100
    with (art / "detection_report.csv").open(newline="") as fh:
        flagged = {r["row"] for r in csv.DictReader(fh) if r["flagged"] == "1"}
    assert detect["flagged"] == len(flagged) > 0
    with (art / "redundancy_realtime.csv").open(newline="") as fh:
        schedule = list(csv.DictReader(fh))
    assert counters["redundancy.entries"] == len(schedule) > 0
    assert counters["redundancy.sleeping"] == sum(r["state"] == "sleeping" for r in schedule) > 0
