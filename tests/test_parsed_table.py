"""`learn` stores the table it parsed from `--train`; `redundancy-static` reads it in place of parsing the same CSV.

The property: with the table `learn` wrote at `<artifacts>/parsed-<sha256 of --data>.npy`, with none, or with a file
there that `load_csv` could not have read, `redundancy-static` writes the same bytes and prints the same summary,
apart from `parsed_csv`, as when it parses `--data` itself.
"""

import contextlib
import hashlib
import io
import json
import shutil

import numpy as np
import pytest

from sensorprep import ingest
from sensorprep.cli import main
from sensorprep.ingest import SensorDataset, load_csv, load_csv_hashed, synth_generate, write_csv

OUTPUTS = ("recovery_static.csv", "redundancy_static.csv", "redundancy_static.json")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def redundancy_static(data, art, out):
    """The summary, without `out_dir`, and the output bytes of one `redundancy-static` run."""
    summary = run(["redundancy-static", "--data", str(data), "--artifacts", str(art), "--out-dir", str(out)])
    assert summary.pop("out_dir") == str(out)
    return summary, {name: (out / name).read_bytes() for name in OUTPUTS}


def table_path(data, art):
    return art / f"parsed-{hashlib.sha256(data.read_bytes()).hexdigest()}.npy"


def write_data(path, variant):
    """A copy-child CSV with redundant nodes: plain, with a leading `timestamp` column, or after a byte-order mark."""
    data = synth_generate(4, 300, 6, "copy-child", copies={1: 0, 3: 2}, flip=0.02)
    if variant == "timestamp":
        data = SensorDataset(data.values, data.node_ids, tuple(range(1_600_000_000, 1_600_000_300)))
    write_csv(data, path)
    if variant == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def replaced(path, table):
    path.unlink()
    np.save(path, table)


def retyped(path, base=np.float64, drop=0):
    """The stored table saved again with its values cast to `base` and its last `drop` columns gone."""
    table = np.load(path)
    width = table.dtype["values"].shape[0] - drop
    dtype = [(name, table.dtype[name]) for name in table.dtype.names[:-1]] + [("values", base, (width,))]
    copy = np.zeros(len(table), dtype)
    for name in table.dtype.names:
        copy[name] = table[name][:, :width] if name == "values" else table[name]
    replaced(path, copy)


def with_nan(path):
    table = np.load(path)
    table["values"][5, 2] = np.nan
    replaced(path, table)


def unordered(path):
    table = np.load(path)
    if "timestamp" in table.dtype.names:
        table["timestamp"][[3, 4]] = table["timestamp"][[4, 3]]
    else:
        table = table[:1]  # too short to be a dataset
    replaced(path, table)


# How each case leaves the stored table, and whether `redundancy-static` must then parse the CSV.
TAMPER = {
    "present": (lambda path: None, False),
    "deleted": (lambda path: path.unlink(), True),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-8]), True),
    "header-only": (lambda path: path.write_bytes(path.read_bytes()[:128]), True),
    "not-npy": (lambda path: path.write_text("timestamp,a\n"), True),
    "float32": (lambda path: retyped(path, base=np.float32), True),
    "narrower": (lambda path: retyped(path, drop=1), True),
    "matrix": (lambda path: replaced(path, np.load(path)["values"].copy()), True),
    "nan": (with_nan, True),
    "one-row-short": (lambda path: replaced(path, np.load(path)[:-1]), True),
    "unordered-or-short": (unordered, True),
}


@pytest.mark.parametrize("variant", ["plain", "timestamp", "bom"])
def test_redundancy_static_outputs_do_not_depend_on_the_table(tmp_path, variant):
    data, art = tmp_path / "data.csv", tmp_path / "art"
    write_data(data, variant)
    learned = run(["learn", "--train", str(data), "--out-dir", str(art)])
    table = table_path(data, art)
    assert learned["parsed_table"] == str(table) and table.is_file()
    bare = tmp_path / "bare"  # `learn`'s artifacts without the table
    shutil.copytree(art, bare)
    table_path(data, bare).unlink()
    reference = redundancy_static(data, bare, tmp_path / "reference")
    assert reference[0]["parsed_csv"] is True
    assert reference[0]["recovered_readings"] > 0 and reference[0]["recovery_rmse"] > 0
    for case, (tamper, parses) in TAMPER.items():
        case_art = tmp_path / case
        shutil.copytree(art, case_art)
        tamper(table_path(data, case_art))
        summary, outputs = redundancy_static(data, case_art, tmp_path / "reference")
        assert summary == {**reference[0], "parsed_csv": parses}, case
        assert outputs == reference[1], case


def test_data_one_byte_off_is_parsed(tmp_path):
    data, art = tmp_path / "data.csv", tmp_path / "art"
    write_data(data, "plain")
    run(["learn", "--train", str(data), "--out-dir", str(art)])
    text = data.read_bytes()
    edited = tmp_path / "edited.csv"
    edited.write_bytes(text[:-3] + (b"1" if text[-3:-2] != b"1" else b"2") + text[-2:])
    assert len(edited.read_bytes()) == len(text) and edited.read_bytes() != text
    bare = tmp_path / "bare"
    shutil.copytree(art, bare)
    table_path(data, bare).unlink()
    summary, outputs = redundancy_static(edited, art, tmp_path / "out")
    assert summary["parsed_csv"] is True
    assert (summary, outputs) == redundancy_static(edited, bare, tmp_path / "out")
    assert load_csv(edited).values[-1, -1] != load_csv(data).values[-1, -1]


@pytest.mark.parametrize("variant", ["plain", "timestamp", "bom"])
def test_dataset_from_the_table_is_the_parsed_one(tmp_path, variant):
    data, art = tmp_path / "data.csv", tmp_path / "art"
    write_data(data, variant)
    run(["learn", "--train", str(data), "--out-dir", str(art)])
    parsed = load_csv(data)
    stored, digest, was_parsed = load_csv_hashed(data, art)
    assert art / f"parsed-{digest}.npy" == table_path(data, art) and was_parsed is False
    assert type(stored.values) is np.ndarray
    for got, want in ((stored.values, parsed.values), (stored.values.T, parsed.values.T)):
        assert (got.dtype, got.shape, got.strides, got.flags.c_contiguous) == (
            want.dtype, want.shape, want.strides, want.flags.c_contiguous)
    assert stored.values.tobytes() == parsed.values.tobytes()
    assert stored.node_ids == parsed.node_ids and stored.timestamps == parsed.timestamps
    if variant == "timestamp":
        assert {type(t) for t in stored.timestamps} == {int}


def test_learn_writes_identical_tables_and_replaces_older_ones(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_data(first, "plain")
    write_data(second, "timestamp")
    for name in ("a", "b"):
        run(["learn", "--train", str(first), "--out-dir", str(tmp_path / name)])
    assert table_path(first, tmp_path / "a").read_bytes() == table_path(first, tmp_path / "b").read_bytes()
    run(["learn", "--train", str(second), "--out-dir", str(tmp_path / "a")])
    assert sorted(p.name for p in (tmp_path / "a").glob("*.npy")) == [table_path(second, tmp_path / "a").name]
    assert not list((tmp_path / "a").glob(".*"))  # no temporary file is left behind


def test_learn_hashes_every_byte_when_the_parse_starts_over(tmp_path):
    # Quoted cells fail the bulk parse, so the cell parse reads the file again from its start; the file spans
    # several of the hashing reader's 64 KiB reads.
    data, art = tmp_path / "data.csv", tmp_path / "art"
    values = synth_generate(4, 2000, 6, "copy-child", copies={1: 0, 3: 2}, flip=0.02).values
    data.write_text("a,b,c,d,e,f\n" + "".join(",".join(f'"{v!r}"' for v in row) + "\n" for row in values.tolist()))
    assert data.stat().st_size > 3 * 2**16
    learned = run(["learn", "--train", str(data), "--out-dir", str(art)])
    assert learned["parsed_table"] == str(table_path(data, art))
    assert redundancy_static(data, art, tmp_path / "out")[0]["parsed_csv"] is False


def test_learn_reads_no_stored_table(tmp_path):
    data, art, fresh = tmp_path / "data.csv", tmp_path / "art", tmp_path / "fresh"
    write_data(data, "plain")
    run(["learn", "--train", str(data), "--out-dir", str(art)])
    table = np.load(table_path(data, art))
    table["values"] *= 2  # a table that fits the CSV's header but not its text
    replaced(table_path(data, art), table)
    assert run(["learn", "--train", str(data), "--out-dir", str(art)]) == {
        **run(["learn", "--train", str(data), "--out-dir", str(fresh)]), "out_dir": str(art),
        "parsed_table": str(table_path(data, art))}
    for path in fresh.iterdir():
        assert (art / path.name).read_bytes() == path.read_bytes(), path.name


def test_timestamps_beyond_int64_store_no_table(tmp_path):
    data, art = tmp_path / "data.csv", tmp_path / "art"
    values = synth_generate(4, 50, 3, "correlated-drift").values
    data.write_text("timestamp,a,b,c\n" + "".join(
        f"{2**63 + t},{','.join(map(repr, row))}\n" for t, row in enumerate(values.tolist())))
    assert run(["learn", "--train", str(data), "--out-dir", str(art)])["parsed_table"] is None
    assert not list(art.glob("*.npy"))
    assert run(["redundancy-static", "--data", str(data), "--artifacts", str(art),
                "--out-dir", str(art)])["parsed_csv"] is True


def test_only_learn_and_redundancy_static_hash_their_csv(tmp_path, monkeypatch):
    calls = []
    hashed = ingest.load_csv_hashed

    def spy(path, tables=None):
        calls.append((str(path), tables))
        return hashed(path, tables)

    monkeypatch.setattr(ingest, "load_csv_hashed", spy)
    train, test, bad = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "bad.csv"
    run(["synth", "--profile", "copy-child", "--seed", "2", "--rows", "300", "--cols", "5", "--split", "200",
         "--out-train", str(train), "--out-test", str(test)])
    for argv in (
        ["inject", "--train", str(train), "--data", str(test), "--last-rows", "20", "--out", str(bad),
         "--sidecar", str(tmp_path / "truth.json")],
        ["learn", "--train", str(train), "--out-dir", str(tmp_path)],
        ["detect", "--train", str(train), "--data", str(bad), "--artifacts", str(tmp_path), "--out-dir", str(tmp_path)],
        ["redundancy-static", "--data", str(train), "--artifacts", str(tmp_path), "--out-dir", str(tmp_path)],
        ["redundancy-realtime", "--data", str(train), "--slice-len", "50", "--out-dir", str(tmp_path)],
        ["evaluate", "--report", str(tmp_path / "detection_report.json"), "--truth", str(tmp_path / "truth.json"),
         "--redundancy", str(tmp_path / "redundancy_static.json"), "--data", str(train)],
    ):
        run(argv)
    assert calls == [(str(train), None), (str(train), str(tmp_path))]  # `learn` looks up no table
    expected = load_csv(train).values
    monkeypatch.setattr(ingest, "hashlib", None)  # `load_csv` alone hashes nothing
    assert load_csv(train).values.tobytes() == expected.tobytes()
