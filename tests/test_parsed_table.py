"""The parsed table beside a CSV stands in for parsing it, and changes nothing a command writes.

`write_csv` saves `.<name>.parsed-<sha256 of the CSV's bytes>.npy`, `np.save` of the values matrix, beside a CSV
without timestamps that it writes; nothing else saves one, and `load_csv` writes nothing. Tests of CSVs that
`write_csv` did not write as they are (after a byte-order mark, with other line ends, with quoted cells, with a
timestamp column) plant the table `write_csv` saves for the same values under their digest. The property: with that
table present, deleted, resaved in Fortran order, or replaced by a file the parse could not have given (a matrix of
another dtype, byte order or shape, the structured records earlier versions saved, a pickle), `load_csv` returns the
parse's dataset bit for bit and leaves the directory as it was, and `redundancy-static` writes the same bytes and
prints the same summary, apart from `csv_sources`, which says whether the table or the text was read. A timestamped
CSV is always parsed, whatever table lies beside it.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sensorprep import ingest
from sensorprep.cli import main
from sensorprep.ingest import SensorDataset, load_csv, synth_generate, write_csv

OUTPUTS = ("recovery_static.csv", "redundancy_static.csv", "redundancy_static.json")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def redundancy_static(data, art, out):
    """The summary, without `out_dir` and `csv_sources`, what `csv_sources` said of `data`, and the output bytes of
    one `redundancy-static` run."""
    summary = run(["redundancy-static", "--data", str(data), "--artifacts", str(art), "--out-dir", str(out)])
    assert summary.pop("out_dir") == str(out)
    (path, source), = summary.pop("csv_sources").items()
    assert path == str(data)
    return summary, source, {name: (out / name).read_bytes() for name in OUTPUTS}


def table_path(data):
    return data.with_name(f".{data.name}.parsed-{hashlib.sha256(data.read_bytes()).hexdigest()}.npy")


def tables(directory):
    return sorted(p.name for p in directory.glob(".*.npy"))


def files(directory):
    """Every file in `directory`, by name, with its bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def source(path):
    """The dataset `load_csv` returns for `path`, and whether it read the table or the text."""
    sources = {}
    data = load_csv(path, sources)
    assert list(sources) == [str(path)]
    return data, sources[str(path)]


def bits(data):
    return data.node_ids, data.timestamps, data.values.dtype, data.values.shape, data.values.tobytes()


# Each way `write_data` writes the CSV.
VARIANTS = ["plain", "timestamp", "bom", "lf", "cr"]


def write_data(path, variant):
    """A copy-child CSV with redundant nodes, returned: plain, with a leading `timestamp` column, after a byte-order
    mark, or with each line ending in "\\n" or in "\\r" alone instead of "\\r\\n"."""
    data = synth_generate(4, 300, 6, "copy-child", copies={1: 0, 3: 2}, flip=0.02)
    if variant == "timestamp":
        data = SensorDataset(data.values, data.node_ids, tuple(range(1_600_000_000, 1_600_000_300)))
    write_csv(data, path)
    if variant == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    if variant in ("lf", "cr"):
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n" if variant == "lf" else b"\r"))
    return data


def made(directory, variant):
    """A CSV in `directory` beside its one table: the table `write_csv` saves for its values, under the digest of the
    variant's bytes. For the timestamp variant, which `write_csv` saves no table for, that table must be passed over."""
    directory.mkdir()
    path = directory / "data.csv"
    values = write_data(path, variant).values
    for saved in directory.glob(".*.npy"):  # saved under the digest of other bytes, or none at all
        saved.unlink()
    plant(path, values)
    return path


def plant(path, values):
    """Put beside the CSV at `path` the table `write_csv` saves for `values`, under the digest of `path`'s bytes."""
    written = path.with_name("written.csv")
    write_csv(SensorDataset(values, [f"n{j}" for j in range(values.shape[1])]), written)
    (saved,) = path.parent.glob(".written.csv.parsed-*.npy")
    saved.rename(table_path(path))
    written.unlink()


def replaced(path, table, **kwargs):
    path.unlink()
    np.save(path, table, **kwargs)


def resaved(change, **kwargs):
    """A tamper case that saves the stored matrix again as `change` returns it."""
    return lambda path: replaced(path, change(np.load(path)), **kwargs)


def with_nan(table):
    table[5, 2] = np.nan
    return table


def structured(table):
    """The matrix as the `(values)` records that earlier versions saved for a CSV without timestamps."""
    records = np.zeros(len(table), [("values", np.float64, table.shape[1:])])
    records["values"] = table
    return records


# How each case leaves the stored table, and whether `load_csv` must then parse the CSV.
TAMPER = {
    "present": (lambda path: None, False),
    "deleted": (lambda path: path.unlink(), True),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-8]), True),
    "header-only": (lambda path: path.write_bytes(path.read_bytes()[:128]), True),
    "not-npy": (lambda path: path.write_text("timestamp,a\n"), True),
    "float32": (resaved(lambda table: table.astype(np.float32)), True),
    "narrower": (resaved(lambda table: table[:, :-1]), True),
    "structured": (resaved(structured), True),
    "nan": (resaved(with_nan), True),
    "one-row-short": (resaved(lambda table: table[:-1]), True),
    "one-row": (resaved(lambda table: table[:1]), True),  # too short to be a dataset
    "one-row-long": (resaved(lambda table: np.concatenate([table, table[-1:]])), True),
    "big-endian": (resaved(lambda table: table.astype(">f8")), True),
    "fortran-order": (resaved(np.asfortranarray), False),  # the same matrix: the dataset copies it into C order
    "transposed": (resaved(lambda table: np.ascontiguousarray(table.T)), True),
    "flat": (resaved(np.ravel), True),
    "three-dimensional": (resaved(lambda table: table[:, None]), True),
    "pickled": (resaved(lambda table: np.array([table[0], table[1:]], dtype=object), allow_pickle=True), True),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_redundancy_static_outputs_do_not_depend_on_the_table(tmp_path, variant):
    reference = made(tmp_path / "reference", variant)
    art = tmp_path / "art"
    run(["learn", "--train", str(reference), "--out-dir", str(art)])
    table_path(reference).unlink()
    parsed, read = source(reference)
    assert read == "text" and tables(reference.parent) == []  # the parse wrote nothing
    summary, read, outputs = redundancy_static(reference, art, tmp_path / "out")
    assert read == "text" and summary["recovered_readings"] > 0 and summary["recovery_rmse"] > 0
    for case, (tamper, parses) in TAMPER.items():
        data = made(tmp_path / case, variant)
        tamper(table_path(data))
        before = files(data.parent)
        got, read = source(data)
        expected_read = "text" if parses or variant == "timestamp" else "table"
        assert (bits(got), read) == (bits(parsed), expected_read), case
        assert files(data.parent) == before, case  # whatever was beside the CSV is left as it was
        expected = (summary, expected_read, outputs)
        assert redundancy_static(data, art, tmp_path / "out") == expected, case


def test_data_one_byte_off_is_parsed(tmp_path):
    for variant in VARIANTS:
        check_one_byte_off(tmp_path / variant, variant)


def check_one_byte_off(directory, variant):
    directory.mkdir()
    data = made(directory / "data", variant)
    stale = table_path(data)
    text = data.read_bytes()
    data.write_bytes(text[:-3] + (b"1" if text[-3:-2] != b"1" else b"2") + text[-2:])
    assert len(data.read_bytes()) == len(text) and data.read_bytes() != text
    assert tables(data.parent) == [stale.name]
    edited, read = source(data)
    assert read == "text" and tables(data.parent) == [stale.name]  # the parse wrote nothing
    again, read = source(data)
    assert read == "text" and bits(again) == bits(edited)
    copy = directory / "copy" / "data.csv"  # the same bytes where no table was ever saved
    copy.parent.mkdir()
    copy.write_bytes(data.read_bytes())
    assert bits(source(copy)[0]) == bits(edited)


@pytest.mark.parametrize("variant", VARIANTS)
def test_dataset_from_the_table_is_the_parsed_one(tmp_path, variant):
    data = made(tmp_path / "data", variant)
    stored, read = source(data)
    assert read == ("text" if variant == "timestamp" else "table")
    table_path(data).unlink()
    parsed, read = source(data)
    assert read == "text"
    assert type(stored.values) is np.ndarray
    for got, want in ((stored.values, parsed.values), (stored.values.T, parsed.values.T)):
        assert (got.dtype, got.shape, got.strides, got.flags.c_contiguous) == (
            want.dtype, want.shape, want.strides, want.flags.c_contiguous)
    assert bits(stored) == bits(parsed)
    if variant == "timestamp":
        assert {type(t) for t in stored.timestamps} == {int}


def test_write_csv_replaces_the_table_of_other_data(tmp_path):
    first, second = tmp_path / "a" / "data.csv", tmp_path / "b" / "data.csv"
    for path in (first, second):
        path.parent.mkdir()
        write_data(path, "plain")
    assert table_path(first).read_bytes() == table_path(second).read_bytes()  # one table for the same data
    other = SensorDataset(np.arange(12.0).reshape(4, 3), ("x", "y", "z"))
    write_csv(other, first)
    assert tables(first.parent) == [table_path(first).name] != tables(second.parent)
    assert not [p for p in first.parent.iterdir() if p.name.endswith(".tmp")]  # no temporary file is left behind
    back, read = source(first)
    assert read == "table" and bits(back) == bits(other)


@pytest.mark.parametrize("order", ["C", "F"])
def test_the_table_is_np_save_of_the_values(tmp_path, order):
    values = synth_generate(4, 300, 6, "copy-child").values
    data = SensorDataset(np.asarray(values, order=order), [f"n{j}" for j in range(6)])
    write_csv(data, tmp_path / "data.csv")
    saved = io.BytesIO()
    np.save(saved, values, allow_pickle=False)
    assert table_path(tmp_path / "data.csv").read_bytes() == saved.getvalue()
    back, read = source(tmp_path / "data.csv")
    assert read == "table" and bits(back) == bits(data)


def test_a_timestamped_csv_is_parsed_beside_a_matrix_table(tmp_path):
    # The table has the shape of the CSV's values, but a timestamp column is read from the text alone.
    data = tmp_path / "data.csv"
    written = write_data(data, "timestamp")
    assert tables(tmp_path) == []
    plant(data, written.values)
    got, read = source(data)
    assert read == "text" and bits(got) == bits(written)
    assert got.timestamps == tuple(range(1_600_000_000, 1_600_000_300))


def test_timestamped_data_over_a_tabled_csv_leaves_no_table(tmp_path):
    data = tmp_path / "data.csv"
    plain = write_data(data, "plain")
    assert tables(tmp_path) == [table_path(data).name]
    stamped = SensorDataset(plain.values, plain.node_ids, tuple(range(plain.m)))
    write_csv(stamped, data)
    assert tables(tmp_path) == []
    got, read = source(data)
    assert read == "text" and bits(got) == bits(stamped)


def test_tables_of_other_files_are_kept(tmp_path):
    # `data.csv.parsed-x.csv`'s table starts with `data.csv`'s prefix, but holds no 64-digit digest after it.
    data, other = tmp_path / "data.csv", tmp_path / "data.csv.parsed-x.csv"
    write_data(other, "plain")
    write_data(data, "plain")
    assert tables(tmp_path) == sorted([table_path(data).name, table_path(other).name])
    assert source(other)[1] == "table"


@pytest.mark.parametrize("fails", ["save", "replace"])
def test_a_table_that_cannot_be_saved_leaves_no_file(tmp_path, monkeypatch, fails):
    data = made(tmp_path / "data", "plain")
    expected = bits(source(data)[0])
    table_path(data).unlink()

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    with monkeypatch.context() as patch:
        patch.setattr(*((ingest, "open") if fails == "save" else (ingest.os, "replace")), refuse, raising=False)
        write_data(data, "plain")  # `write_csv` writes the CSV all the same
    assert sorted(p.name for p in data.parent.iterdir()) == ["data.csv"]
    got, read = source(data)
    assert read == "text" and bits(got) == expected
    assert sorted(p.name for p in data.parent.iterdir()) == ["data.csv"]  # and the parse saves none either


def test_learn_rejects_timestamps_beyond_int64(tmp_path):
    data, art = tmp_path / "data.csv", tmp_path / "art"
    values = synth_generate(4, 50, 3, "correlated-drift").values
    data.write_text("timestamp,a,b,c\n" + "".join(
        f"{2**63 + t},{','.join(map(repr, row))}\n" for t, row in enumerate(values.tolist())))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["learn", "--train", str(data), "--out-dir", str(art)]) == 1
    error = json.loads(err.getvalue())
    assert error["type"] == "ValueError" and error["error"].startswith(f"{data}: ") and str(2**63) in error["error"]
    assert not art.exists() and tables(tmp_path) == []


def test_timestamps_beyond_int64_save_no_table(tmp_path):
    data = tmp_path / "data.csv"
    values = synth_generate(4, 50, 3, "correlated-drift").values
    write_csv(SensorDataset(values, ("a", "b", "c"), tuple(range(2**63 - 10, 2**63 + 40))), data)
    assert data.read_text().splitlines()[-1].startswith(f"{2**63 + 39},")
    assert tables(tmp_path) == []
    message = f"{data}: could not convert string '{2**63}' to int64 at row 11, column 'timestamp'"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        load_csv(data)
    assert tables(tmp_path) == []


def test_quoted_cells_parse_in_bulk_and_hash_every_byte(tmp_path):
    # The file spans several of `_stored`'s 64 KiB reads, which hash it and count its lines.
    data, art = tmp_path / "data.csv", tmp_path / "art"
    values = synth_generate(4, 2000, 6, "copy-child", copies={1: 0, 3: 2}, flip=0.02).values
    data.write_text("a,b,c,d,e,f\n" + "".join(",".join(f'"{v!r}"' for v in row) + "\n" for row in values.tolist()))
    assert data.stat().st_size > 3 * 2**16
    learned = run(["learn", "--train", str(data), "--out-dir", str(art)])
    assert learned["csv_sources"] == {str(data): "text"} and tables(tmp_path) == []
    assert source(data)[0].values.tobytes() == values.tobytes()
    plant(data, values)
    assert redundancy_static(data, art, tmp_path / "out")[1] == "table"
    assert source(data)[0].values.tobytes() == values.tobytes()


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_break_at_the_end_of_a_read_counts_once(tmp_path, end):
    # `_stored` hashes and counts lines 64 KiB at a time; here the first read ends in a "\r", the first half of a
    # "\r\n" or a line break of its own.
    data = tmp_path / "data.csv"
    values = synth_generate(4, 2000, 6, "copy-child", copies={1: 0, 3: 2}, flip=0.02).values
    body = "".join(",".join(map(repr, row)) + end for row in values.tolist())
    pad = 2**16 - 1 - ("a,b,c,d,e,f" + end + body).rindex("\r", 0, 2**16)
    data.write_bytes(("a" * (1 + pad) + ",b,c,d,e,f" + end + body).encode())
    assert data.read_bytes()[2**16 - 1 : 2**16 - 1 + len(end)] == end.encode()
    assert source(data)[1] == "text" and tables(tmp_path) == []
    plant(data, values)
    stored, read = source(data)
    assert read == "table" and stored.values.tobytes() == values.tobytes()


def test_header_over_two_lines_counts_as_one(tmp_path):
    # A node id holding a line break is quoted over two lines of the header; the table still stands for the body.
    data = tmp_path / "data.csv"
    write_csv(SensorDataset(np.arange(8.0).reshape(4, 2), ("line\nbreak", 'say "hi"')), data)
    assert data.read_bytes().startswith(b'"line\nbreak","say ""hi"""\r\n')
    back, read = source(data)
    assert read == "table" and back.node_ids == ("line\nbreak", 'say "hi"')


def test_a_table_is_trusted_for_its_digest(tmp_path):
    # The trust model: whoever can write the CSV's directory decides what is read for it. A table of other values,
    # but of the shape the text implies, saved under the CSV's digest, is read in place of the text.
    data = made(tmp_path / "data", "plain")
    replaced(table_path(data), 2 * np.load(table_path(data)))
    doubled, read = source(data)
    assert read == "table"
    table_path(data).unlink()
    assert np.array_equal(doubled.values, 2 * source(data)[0].values)


def test_every_command_says_what_it_read(tmp_path):
    # Inputs and outputs lie in separate directories, so a command that wrote beside what it read would show.
    data, corrupted, out = tmp_path / "data", tmp_path / "corrupted", tmp_path / "out"
    train, test, bad, truth = data / "train.csv", data / "test.csv", corrupted / "bad.csv", corrupted / "truth.json"
    data.mkdir()
    corrupted.mkdir()
    run(["synth", "--profile", "copy-child", "--seed", "2", "--rows", "300", "--cols", "5", "--split", "200",
         "--out-train", str(train), "--out-test", str(test)])
    commands = [
        ["inject", "--train", str(train), "--data", str(test), "--last-rows", "20", "--out", str(bad),
         "--sidecar", str(truth)],
        ["learn", "--train", str(train), "--out-dir", str(out)],
        ["detect", "--train", str(train), "--data", str(bad), "--artifacts", str(out), "--out-dir", str(out)],
        ["redundancy-static", "--data", str(train), "--artifacts", str(out), "--out-dir", str(out)],
        ["redundancy-realtime", "--data", str(train), "--slice-len", "50", "--out-dir", str(out)],
        ["evaluate", "--report", str(out / "detection_report.json"), "--truth", str(truth),
         "--redundancy", str(out / "redundancy_static.json"), "--data", str(train)],
    ]
    # `detect` reads `--train`'s header alone.
    read = [{str(train): "table", str(test): "table"}, *[{str(path): "table"} for path in (train, bad, train, train,
                                                                                         train)]]
    assert [run(argv)["csv_sources"] for argv in commands] == read
    metrics = run(commands[-1] + ["--out", str(out / "metrics.json")])
    assert metrics.pop("csv_sources") == read[-1]  # the metrics file holds the metrics alone
    assert json.loads((out / "metrics.json").read_text()) == metrics
    for argv, sources in zip(commands, read):
        for table in tmp_path.glob("*/.*.npy"):
            table.unlink()
        inputs = {Path(path).parent for path in sources}
        before = {directory: files(directory) for directory in inputs}
        assert run(argv)["csv_sources"] == {path: "text" for path in sources}
        assert {directory: files(directory) for directory in inputs} == before  # the parse wrote nothing beside them
