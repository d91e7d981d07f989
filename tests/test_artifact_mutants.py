"""Every single-field mutant of every artifact kind either runs or fails at the boundary.

A tiny pipeline writes one valid file of each of the 7 kinds. Each mutant puts one of 11 JSON values at one body
field, or at one of the first two elements of a list at any depth inside it, and runs the command that reads the
file. The property: the command exits 0, or exits 1 with an ArtifactError whose message starts with the file and
names the mutated field. A value whose JSON type `artifacts.SCHEMA` does not declare at that place never runs.
"""

import contextlib
import io
import json
import re

import pytest

from sensorprep import artifacts
from sensorprep.cli import main

VALUES = (None, True, "x", 1.5, -1, 0, 10**30, 2**62, [], [[]], {})
# What json.loads gives for each JSON type a field may declare.
TYPES = {"integers": {int}, "numbers": {int, float}, "numbers or null": {int, float, type(None)}, "booleans": {bool}}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """{file: the command that reads it} for one small file of each kind."""
    base = tmp_path_factory.mktemp("mutants")
    a, b, c = base / "a", base / "b", base / "c"
    steps = [
        ["synth", "--profile", "correlated-drift", "--seed", "1", "--rows", "60", "--cols", "3", "--split", "40",
         "--out-train", str(a / "train.csv"), "--out-test", str(a / "test.csv")],
        ["learn", "--train", str(a / "train.csv"), "--out-dir", str(a)],
        ["inject", "--train", str(a / "train.csv"), "--data", str(a / "test.csv"), "--last-rows", "5",
         "--out", str(a / "bad.csv"), "--sidecar", str(a / "truth.json")],
        ["detect", "--train", str(a / "train.csv"), "--data", str(a / "bad.csv"), "--artifacts", str(a),
         "--out-dir", str(a)],
        ["synth", "--profile", "copy-child", "--seed", "1", "--rows", "60", "--cols", "3",
         "--param", 'copies={"1":0}', "--out", str(b / "data.csv")],
        ["learn", "--train", str(b / "data.csv"), "--out-dir", str(b)],
        ["redundancy-static", "--data", str(b / "data.csv"), "--artifacts", str(b), "--out-dir", str(b)],
        ["synth", "--profile", "lagged-copy", "--seed", "1", "--rows", "60", "--cols", "3",
         "--param", 'copies={"1":0}', "--out", str(c / "data.csv")],
        ["redundancy-realtime", "--data", str(c / "data.csv"), "--slice-len", "30", "--out-dir", str(c)],
    ]
    for d in (a, b, c):
        d.mkdir()
    for argv in steps:
        assert run(argv)[0] == 0, argv
    out = ["--out-dir", str(base / "out")]
    detect = ["detect", "--train", str(a / "train.csv"), "--data", str(a / "bad.csv"), "--artifacts", str(a), *out]
    evaluate = ["evaluate", "--report", str(a / "detection_report.json"), "--truth", str(a / "truth.json")]
    readers = {
        a / "pca_model.json": detect,
        a / "scheme.json": detect,
        a / "transition_network.json": detect,
        b / "static_network.json": ["redundancy-static", "--data", str(b / "data.csv"), "--artifacts", str(b), *out],
        a / "detection_report.json": evaluate,
        b / "redundancy_static.json": [*evaluate, "--redundancy", str(b / "redundancy_static.json"),
                                       "--data", str(b / "data.csv")],
        c / "redundancy_realtime.json": [*evaluate, "--redundancy", str(c / "redundancy_realtime.json"),
                                         "--data", str(c / "data.csv")],
    }
    # The files must exercise every part of the format: flagged rows, redundant nodes and sleeping readings.
    report = json.loads((a / "detection_report.json").read_text())
    assert any(report["rows"][3]) and json.loads((b / "redundancy_static.json").read_text())["rule_node"]
    assert any(json.loads((c / "redundancy_realtime.json").read_text())["entries"][0])
    return readers


def paths(value, path):
    """`path`, and the paths of the first two elements of each list below it."""
    yield path
    if isinstance(value, list):
        for i, item in enumerate(value[:2]):
            yield from paths(item, (*path, i))


def declared(kind, path, value):
    """Whether `value` has a JSON type that `SCHEMA` declares at `path`: a list no deeper than the place leaves,
    or a value of the field's type at its innermost level."""
    kind_type, shape = artifacts.SCHEMA[kind][path[0]][:2]
    if isinstance(kind_type, tuple):
        depth, types = (shape.count(",") + shape.count(";") + 1 if shape else 0), TYPES[kind_type[0]]
    else:  # a record field: columns of integers, numbers or null, or booleans
        depth, column = 2, kind_type[kind_type.names[path[1]]] if len(path) > 1 else None
        types = TYPES[{"i": "integers", "f": "numbers or null", "b": "booleans"}[column.kind]] if column else set()
    left = depth - (len(path) - 1)
    return value == [] and left > 0 or value == [[]] and left > 1 or (left == 0 and type(value) in types)


def mutate(doc, path, value):
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value


def test_every_single_field_mutant_runs_or_fails_naming_file_and_field(pipeline):
    outcomes, wrong = {"runs": 0, "rejected": 0}, []
    for file, argv in pipeline.items():
        text = file.read_text()
        original = json.loads(text)
        body = [key for key in original if key not in ("format_version", "kind", "node_ids")]
        assert sorted(body) == sorted(artifacts.SCHEMA[original["kind"]]), file.name
        for key in body:
            for path in paths(original[key], (key,)):
                for value in VALUES:
                    doc = json.loads(text)
                    mutate(doc, path, value)
                    file.write_text(json.dumps(doc))
                    code, err = run(argv)
                    error = json.loads(err) if code else {}
                    ok = code == 0 and declared(original["kind"], path, value) or (
                        code == 1 and error["type"] == "ArtifactError" and error["error"].startswith(f"{file}: ")
                        and re.search(rf"\b{key}\b", error["error"]) is not None
                    )
                    outcomes["runs" if code == 0 else "rejected"] += 1
                    if not ok:
                        wrong.append((file.name, path, value, code, error))
        file.write_text(text)
    assert not wrong, wrong[:20]
    assert outcomes["runs"] > 100 and outcomes["rejected"] > 1000, outcomes
