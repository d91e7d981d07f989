"""CSV reading and writing against the cell-by-cell oracles in tests/oracles.py.

On any body `load_csv` must return the oracle's dataset bit for bit or
raise a ValueError naming the path. It rejects only what the oracle
rejects, plus `_`-grouped digits, non-ASCII digits and timestamps beyond
int64, which Python's `float`/`int` accept. Every writer must produce the
oracle's bytes, and `write_csv` refuses node ids its header would not read
back as.
"""

import csv
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    number_cells,
    scalar_load_csv,
    scalar_write_csv,
    scalar_write_realtime_csv,
    scalar_write_recovery_csv,
    scalar_write_report_csv,
    scalar_write_static_csv,
)
from sensorprep import ingest
from sensorprep.anomaly import ROW_DTYPE, DetectionReport, write_report_csv
from sensorprep.ingest import SensorDataset, load_csv, write_csv
from sensorprep.redundancy import (
    RECOVERY_DTYPE,
    SCHEDULE_DTYPE,
    RealtimeRedundancyReport,
    RecoveryRules,
    StaticRedundancyReport,
    write_realtime_csv,
    write_recovery_csv,
    write_static_csv,
)

# Cells float() parses to the same finite value np.loadtxt gives, padded or not.
CLEAN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["-0.0", "1e-05", "1e16", "5e-324", "+3", ".5", "5.", " 1.5 ", "\t2\t", "\xa07", "1E5"]),
)
# Cells one or both parsers reject, or that parse to a non-finite value.
ODD_CELLS = st.one_of(
    st.sampled_from(
        ["", " ", "1_0", '"1.0"', '"2', "nan", "NaN", "inf", "-Infinity", "1e999", "x", "1.5.", "0x10",
         "١٢", "1 2", "nan(1)", "1d5", "--1"]
    ),
    st.text(alphabet="0123456789.-+eE_ \t\"xn", max_size=5),
)
ODD_STAMPS = st.sampled_from(["1.0", "x", "", " 7 ", "+5", "99999999999999999999", "١٢", "1_0", "-3"])
SEPARATORS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """A header plus a body: clean (every cell parses) or odd (blank lines, ragged rows, bad cells)."""
    has_ts = draw(st.booleans())
    width = draw(st.integers(1, 3))
    clean = draw(st.booleans())
    header = ",".join((["timestamp"] if has_ts else []) + [f"n{j}" for j in range(width)])
    lines = [header]
    base = draw(st.sampled_from([0, 2**63 - 4]))  # the second overflows int64 within a few rows
    for r in range(draw(st.integers(0, 6))):
        if not clean and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        cells_of = CLEAN_CELLS if clean else st.one_of(CLEAN_CELLS, ODD_CELLS)
        count = width if clean else draw(st.sampled_from([width, width, width, width - 1, width + 1]))
        cells = [draw(cells_of) for _ in range(max(count, 0))]
        if has_ts:
            stamp = str(base + 10 * r)
            cells.insert(0, stamp if clean else draw(st.one_of(st.just(stamp), ODD_STAMPS)))
        lines.append(",".join(cells))
    text = "".join(line + draw(SEPARATORS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line terminator
    return text


def outcome(loader, path):
    try:
        data = loader(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", data.node_ids, data.timestamps, data.values.shape, data.values.view(np.int64).tolist())


def only_python_accepts(text, timestamps):
    """Whether a body the oracle reads holds what `float`/`int` accept and `np.loadtxt` does not."""
    beyond_int64 = timestamps is not None and any(not -(2**63) <= t < 2**63 for t in timestamps)
    return beyond_int64 or "_" in text or any(c.isdecimal() and not c.isascii() for c in text)


class TestLoadCsv:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    def test_matches_cell_by_cell_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("load") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        got, want = outcome(load_csv, path), outcome(scalar_load_csv, path)
        if got[0] == "ok":
            assert got == want
        else:
            assert got[1].startswith(f"{path}: "), got
            assert want[0] == "error" or only_python_accepts(text, want[2]), (got, want)

    def test_clean_file_is_parsed_in_bulk(self, tmp_path, monkeypatch):
        # Quoted cells too, one of them spanning a blank line. Every load parses the text, with no table of its bytes
        # beside it, and leaves none: the stale table `write_csv` saved for the bytes it wrote stays as it was.
        data = ingest.synth_generate(2, 30, 3, "correlated-drift")
        path = tmp_path / "d.csv"
        write_csv(SensorDataset(data.values, data.node_ids, tuple(range(100, 130))), path)
        rows = [line.split(b",") for line in path.read_bytes().split(b"\r\n")]
        rows[3] = [b'"' + cell + b'"' for cell in rows[3]]
        rows[5][2] = b'"' + rows[5][2] + b'\n\n"'
        path.write_bytes(b"\r\n".join(map(b",".join, rows)))
        beside = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or loadtxt(*args, **kwargs))
        for load in range(1, 4):
            back = load_csv(path)
            assert calls == [1] * load
            np.testing.assert_array_equal(back.values, data.values)
            assert back.timestamps == tuple(range(100, 130))
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == beside
        assert outcome(load_csv, path) == outcome(scalar_load_csv, path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbftimestamp,a\n1,2.0\n2,3.5\n")
        data = load_csv(path)
        assert data.node_ids == ("a",)
        assert data.timestamps == (1, 2)
        np.testing.assert_array_equal(data.values, [[2.0], [3.5]])

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2\n\n3,4\n", "row 2 has 0 cells, expected 2"),
            ("1,2\n3,4\n\n", "row 3 has 0 cells, expected 2"),
            ("1,2\n3,1e999\n", "row 2, column 'b'"),
        ],
    )
    def test_lines_loadtxt_accepts_keep_their_error(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + body)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            load_csv(path)

    def test_spellings_only_python_accepts_are_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        for text, cell in (
            ("a,b\n1_0,2.5\n3,4\n", "1_0"),  # `_`-grouped digits
            ("a,b\n1,2.5\n\u0663,4\n", "\u0663"),  # an Arabic-Indic 3
            (f"timestamp,a\n{2**63 - 1},1\n{2**63},2\n", str(2**63)),
        ):
            path.write_text(text, encoding="utf-8")
            scalar_load_csv(path)  # which Python reads
            with pytest.raises(ValueError, match=re.escape(f"{path}: could not convert string '{cell}'")):
                load_csv(path)


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-05, 1e16, 5e-324, 0.1, 1.0, 123456789.0]),
)
ANY_FLOATS = st.one_of(FLOATS, st.sampled_from([math.nan, math.inf, -math.inf]))
NODE_IDS = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "line\nbreak", "cr\r", " pad ", "", "plain", "node07"]),
    st.text(max_size=4),
)
DATASET_IDS = NODE_IDS.filter(bool)  # a dataset's node ids are not empty


# Integer, boolean and float64 columns: many repeats, values of any size, and spans far wider than the column.
COLUMNS = st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(-3, 3), max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.sampled_from([0, 2**40, -(2**40)]), max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=40).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.one_of(ANY_FLOATS, st.sampled_from([0.0, -0.0, 0.5])), max_size=40).map(
        lambda v: np.array(v, dtype=np.float64)
    ),
)


def same_bytes(tmp_path_factory, write, oracle, *args):
    d = tmp_path_factory.mktemp("write")
    write(*args, d / "new.csv")
    oracle(*args, d / "old.csv")
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def header_reads_back(ids, stamps):
    """Whether `load_csv` would read the header the oracle writes for `ids` back as `ids`: it skips a byte-order mark,
    strips each cell and takes a first `timestamp` cell for the timestamp column."""
    line = io.StringIO()
    csv.writer(line).writerow(["timestamp"] * (stamps is not None) + list(ids))
    cells = [cell.strip() for cell in next(csv.reader(io.StringIO(line.getvalue().removeprefix("\ufeff"))))]
    return (cells[1:] if cells[0] == "timestamp" else cells) == list(ids)


class TestDistinctCells:
    """`_distinct_cells` formats each distinct value once; its cells must be the per-cell `repr` oracle's."""

    @settings(max_examples=300, deadline=None)
    @given(column=COLUMNS, data=st.data())
    def test_matches_one_repr_per_cell(self, column, data):
        blank = data.draw(
            st.none() | st.lists(st.booleans(), min_size=len(column), max_size=len(column)).map(np.array), "blank"
        )
        if blank is not None:
            blank = blank.astype(bool)
        assert list(ingest._distinct_cells(column, blank)) == number_cells(column, blank)

    @pytest.mark.parametrize(
        "column",
        [
            pytest.param(np.array([], dtype=np.int64), id="empty"),
            pytest.param(np.array([], dtype=bool), id="empty-bool"),
            pytest.param(np.array([-7]), id="single"),
            pytest.param(np.array([0, 2**40, 0, 2**40]), id="wide-range"),
            pytest.param(np.array([-(2**63), 2**63 - 1, -1, 0]), id="int64-extremes"),
            pytest.param(np.array([True, False, True]), id="bool"),
            pytest.param(np.array([0.0, -0.0, math.nan, 0.1, -0.0]), id="signed-zero-and-nan"),
            pytest.param(np.arange(3 * ingest._CHUNK_ROWS + 7) % 5 - 2, id="longer-than-one-chunk"),
            # A column of a record array is a strided view.
            pytest.param(np.rec.fromarrays([[3, 1, 3], [0.5, -0.0, 0.5]], names="a,b").b, id="strided"),
        ],
    )
    def test_cases(self, column):
        assert list(ingest._distinct_cells(column)) == number_cells(column)
        for blank in (np.ones(len(column), dtype=bool), np.arange(len(column)) % 2 == 0):
            assert list(ingest._distinct_cells(column, blank)) == number_cells(column, blank)


class TestWriters:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=2, max_size=5),
        ids=st.lists(DATASET_IDS, min_size=3, max_size=3, unique=True),
        start=st.one_of(st.none(), st.integers(-(10**20), 10**20)),
    )
    def test_write_csv(self, tmp_path_factory, values, ids, start):
        stamps = None if start is None else tuple(range(start, start + len(values)))
        data = SensorDataset(np.array(values), ids, stamps)
        if header_reads_back(ids, stamps):
            same_bytes(tmp_path_factory, write_csv, scalar_write_csv, data)
        else:  # refused before anything is written
            d = tmp_path_factory.mktemp("refused")
            with pytest.raises(ValueError, match="would not load back as written"):
                write_csv(data, d / "new.csv")
            assert not any(d.iterdir())

    @settings(max_examples=200, deadline=None)
    @given(
        screens=st.lists(st.tuples(st.integers(0, 6), ANY_FLOATS, ANY_FLOATS, st.booleans()), max_size=6),
        n=st.integers(0, 3),
        data=st.data(),
    )
    def test_write_report_csv(self, tmp_path_factory, screens, n, data):
        # Row numbers may repeat or skip; each flagged row has its own states, in turn.
        rows = np.rec.fromrecords(screens, dtype=ROW_DTYPE)
        f = int(rows.flagged.sum())
        states = st.lists(st.integers(1, 3), min_size=f * n, max_size=f * n).map(
            lambda cells: np.array(cells, dtype=np.int64).reshape(f, n))
        uninferable = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        report = DetectionReport(1.0, 2.0, rows, data.draw(states), data.draw(states), uninferable)
        same_bytes(tmp_path_factory, write_report_csv, scalar_write_report_csv, report)

    def test_flagged_row_without_verdicts_emits_no_line(self, tmp_path):
        # A report of no nodes has no verdict at a flagged row.
        rows = np.rec.fromrecords([(0, 1.5, 2.5, True), (1, 0.5, 0.25, False)], dtype=ROW_DTYPE)
        states = np.zeros((1, 0), dtype=np.int64)
        report = DetectionReport(1.0, 2.0, rows, states, states, np.zeros(0, dtype=bool))
        write_report_csv(report, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == (
            b"row,q,t2,flagged,node,observed,predicted,abnormal\r\n1,0.5,0.25,0,,,,\r\n"
        )

    @settings(max_examples=100, deadline=None)
    @given(
        nodes=st.lists(st.tuples(st.booleans(), FLOATS), max_size=4),
        ids=st.lists(NODE_IDS, min_size=4, max_size=4),
    )
    def test_write_static_csv(self, tmp_path_factory, nodes, ids):
        report = StaticRedundancyReport(
            0.9,
            np.array([red for red, _ in nodes], dtype=bool),
            np.array([crit for _, crit in nodes], dtype=np.float64),
            ([],) * len(nodes),
            RecoveryRules([], [], [], rows=0),
        )
        same_bytes(tmp_path_factory, write_static_csv, scalar_write_static_csv, report, ids)

    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.booleans(),
                      st.one_of(FLOATS, st.just(math.nan))),
            max_size=8,
        ),
        ids=st.lists(NODE_IDS, min_size=3, max_size=3),
    )
    def test_write_realtime_csv(self, tmp_path_factory, entries, ids):
        report = RealtimeRedundancyReport(
            0.9, 10, 0.6, np.rec.fromrecords(entries, dtype=SCHEDULE_DTYPE), RecoveryRules([], [], [], [])
        )
        same_bytes(tmp_path_factory, write_realtime_csv, scalar_write_realtime_csv, report, ids)

    def test_tables_longer_than_one_chunk(self, tmp_path_factory):
        # Columns are converted to Python values a chunk of rows at a time.
        rng = np.random.default_rng(11)
        rows = 3 * ingest._CHUNK_ROWS + 7
        ids = ("a,b", "plain", 'q"uote')
        t = np.arange(rows)
        node = rng.integers(0, 3, rows)
        posterior = np.where(rng.random(rows) < 0.3, np.nan, rng.random(rows))
        entries = np.rec.fromarrays([t, node, rng.random(rows) < 0.5, posterior], dtype=SCHEDULE_DTYPE)
        recoveries = np.rec.fromarrays([t, node, rng.normal(size=rows)], dtype=RECOVERY_DTYPE)
        report = RealtimeRedundancyReport(0.9, 10, 0.6, entries, RecoveryRules([], [], [], []))
        data = SensorDataset(rng.normal(size=(rows, 3)), ids, tuple(range(rows)))
        same_bytes(tmp_path_factory, write_realtime_csv, scalar_write_realtime_csv, report, ids)
        same_bytes(tmp_path_factory, write_recovery_csv, scalar_write_recovery_csv, recoveries, data)
        same_bytes(tmp_path_factory, write_csv, scalar_write_csv, data)

    @pytest.mark.parametrize(
        "lines", [0, 1, ingest._CHUNK_ROWS - 1, ingest._CHUNK_ROWS, ingest._CHUNK_ROWS + 1, 3 * ingest._CHUNK_ROWS + 7]
    )
    def test_block_edges(self, tmp_path_factory, lines):
        # Lines are written in blocks of _CHUNK_ROWS. Lines 2i-1 and 2i share a report row and a step t,
        # so every block edge falls inside a repeated value, and between two blank cells of the realtime CSV.
        rng = np.random.default_rng(lines)
        line = np.arange(lines)
        pair = (line + 1) // 2
        at_edge = (line % ingest._CHUNK_ROWS == 0) | (line % ingest._CHUNK_ROWS == ingest._CHUNK_ROWS - 1)
        ids = ("a,b", "plain", 'q"uote')

        # Row 0 and a last row of one line are unflagged (one blank line each); every other row is flagged, with its
        # pair of lines for two nodes, the second uninferable (a blank `predicted` cell).
        screened = pair[-1] + 1 if lines else 0
        flagged = np.bincount(pair, minlength=screened) == 2
        rows = np.rec.fromarrays([np.arange(screened), rng.random(screened), rng.random(screened), flagged],
                                 dtype=ROW_DTYPE)
        observed, predicted = rng.integers(1, 4, (2, flagged.sum(), 2))
        report = DetectionReport(1.0, 2.0, rows, observed, predicted, np.array([False, True]))
        same_bytes(tmp_path_factory, write_report_csv, scalar_write_report_csv, report)

        posterior = np.where(at_edge, np.nan, rng.random(lines))
        entries = np.rec.fromarrays([pair, line % 3, rng.random(lines) < 0.5, posterior], dtype=SCHEDULE_DTYPE)
        recoveries = np.rec.fromarrays([pair, line % 3, rng.normal(size=lines)], dtype=RECOVERY_DTYPE)
        report = RealtimeRedundancyReport(0.9, 10, 0.6, entries, RecoveryRules([], [], [], []))
        same_bytes(tmp_path_factory, write_realtime_csv, scalar_write_realtime_csv, report, ids)
        data = SensorDataset(rng.normal(size=(max(lines, 2) + 1, 3)), ids)
        same_bytes(tmp_path_factory, write_recovery_csv, scalar_write_recovery_csv, recoveries, data)
        if lines >= 2:
            stamped = SensorDataset(rng.normal(size=(lines, 3)), ids, tuple(range(lines)))
            same_bytes(tmp_path_factory, write_csv, scalar_write_csv, stamped)

    @pytest.mark.parametrize("short", [0, 1, ingest._CHUNK_ROWS, ingest._CHUNK_ROWS + 5])
    def test_unequal_columns_raise(self, tmp_path, short):
        with pytest.raises(ValueError, match="zip"):
            ingest._write_columns(tmp_path / "x.csv", ["a", "b"], [["1"] * (short + 1), ["2"] * short])

    def test_memory_is_bounded_by_the_block_not_the_table(self, tmp_path):
        # A 40-column, 5,000-line table is about 4 MB of text. Writing it may hold a few blocks of
        # _CHUNK_ROWS lines (their cells, lines, text and encoded bytes) at once, never the table.
        rows, width = 5000, 40
        data = SensorDataset(np.random.default_rng(3).normal(size=(rows, width)), [f"n{j}" for j in range(width)])
        line_bytes = 20 * width  # a repr float is at most 24 characters, about 19 here
        bound = 8 * ingest._CHUNK_ROWS * line_bytes
        tracemalloc.start()
        try:
            write_csv(data, tmp_path / "wide.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound < (tmp_path / "wide.csv").stat().st_size / 2
        assert peak < bound, (peak, bound)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=2, max_size=6),
        recoveries=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), FLOATS), max_size=8),
        ids=st.lists(DATASET_IDS, min_size=3, max_size=3, unique=True),
    )
    def test_write_recovery_csv(self, tmp_path_factory, values, recoveries, ids):
        # `actual` is each recovery's reading in the data it was made from.
        data = SensorDataset(values, ids)
        table = np.rec.fromrecords([(t % data.m, node, e) for t, node, e in recoveries], dtype=RECOVERY_DTYPE)
        same_bytes(tmp_path_factory, write_recovery_csv, scalar_write_recovery_csv, table, data)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.lists(FLOATS, min_size=2, max_size=2), min_size=2, max_size=6),
        ids=st.lists(
            st.text(alphabet='ab ,"\n\ré', min_size=1, max_size=4).filter(
                lambda s: s == s.strip() and s != "timestamp"
            ),
            min_size=2,
            max_size=2,
            unique=True,
        ),
        start=st.one_of(st.none(), st.integers(-(2**63), 2**63 - 6)),
    )
    def test_write_then_load_is_exact(self, tmp_path_factory, values, ids, start):
        stamps = None if start is None else tuple(range(start, start + len(values)))
        self.assert_round_trip(SensorDataset(np.array(values), ids, stamps), tmp_path_factory.mktemp("rt") / "d.csv")

    def test_edge_values_are_exact(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        values = [[-0.0, tiny, 1e308], [0.0, -tiny, -1e308], [2.2250738585072014e-308 / 3, -0.0, -5e-324]]
        ids = ("a,b", 'say "hi"', "line\r\nbreak")
        for name, stamps in (("plain", None), ("stamped", (-(2**63), 0, 2**63 - 1))):
            (tmp_path / name).mkdir()
            self.assert_round_trip(SensorDataset(np.array(values), ids, stamps), tmp_path / name / "d.csv")

    @pytest.mark.parametrize(
        ("ids", "stamps"),
        [(("timestamp", "b"), (1, 2)), (("b", "timestamp"), None), (("a", "\ufeffb"), None),
         (("\ufeffa", "b"), (1, 2))],
        ids=["timestamp-after-timestamps", "timestamp-second", "byte-order-mark-second",
             "byte-order-mark-after-timestamps"],
    )
    def test_ids_like_a_header_cell_elsewhere_round_trip(self, tmp_path, ids, stamps):
        self.assert_round_trip(SensorDataset(np.arange(4.0).reshape(2, 2), ids, stamps), tmp_path / "d.csv")

    @pytest.mark.parametrize(
        ("ids", "stamps", "bad"),
        [
            (("timestamp", "b"), None, "timestamp"),
            ((" a", "b"), None, " a"),
            (("a", "b "), (1, 2), "b "),
            (("a", "line\r"), None, "line\r"),
            (("\ufeffa", "b"), None, "\ufeffa"),
        ],
        ids=["timestamp-first", "leading-space", "trailing-space", "trailing-carriage-return", "byte-order-mark-first"],
    )
    def test_ids_that_would_load_back_otherwise_are_refused(self, tmp_path, ids, stamps, bad):
        # `load_csv` strips header cells, skips a byte-order mark and reads a first `timestamp` cell as the
        # timestamp column, so these would load back as other ids or fail to load at all.
        data = SensorDataset(np.arange(4.0).reshape(2, 2), ids, stamps)
        message = f"{tmp_path / 'd.csv'}: node id {bad!r} would not load back as written"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            write_csv(data, tmp_path / "d.csv")
        assert not any(tmp_path.iterdir())

    @staticmethod
    def assert_round_trip(data, path):
        """`write_csv` then `load_csv` give `data` bit for bit: through the table it saved, when `data` has no
        timestamps, and, with the table deleted, through the parse, which saves none. Timestamped data gets no table."""
        write_csv(data, path)
        tables = list(path.parent.glob(f".{path.name}.parsed-*.npy"))
        assert len(tables) == (data.timestamps is None)
        for read in ["table"] * len(tables) + ["text"]:
            sources = {}
            back = load_csv(path, sources)
            assert sources == {str(path): read}
            assert back.node_ids == data.node_ids
            assert back.timestamps == data.timestamps
            assert back.values.view(np.int64).tolist() == data.values.view(np.int64).tolist()
            for table in tables:
                table.unlink(missing_ok=True)
        assert [p.name for p in path.parent.iterdir()] == [path.name]
