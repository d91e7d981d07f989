"""The versioned artifact codec: columnar round trips, header checks, and
equivalence with the per-record report layout it replaced."""

import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    VERDICT_DTYPE,
    legacy_realtime_from_dict,
    legacy_realtime_report_to_dict,
    legacy_report_from_dict,
    legacy_report_to_dict,
    legacy_static_from_dict,
    legacy_static_report_to_dict,
    read_report,
    read_schedule,
    verdict_records,
)
from sensorprep import artifacts
from sensorprep.anomaly import (
    ROW_DTYPE,
    DetectionReport,
    report_to_dict,
    tqbayes_detect,
)
from sensorprep.artifacts import ArtifactError
from sensorprep.bayesnet import Dag, StaticNetwork, learn_static, learn_transition
from sensorprep.ingest import SensorDataset, discretize, fit_discretization, synth_generate
from sensorprep.redundancy import (
    RECOVERY_DTYPE,
    SCHEDULE_DTYPE,
    realtime_report_to_dict,
    recoveries_from_dict,
    rsdrda_schedule,
    ssdrda,
    static_report_to_dict,
    static_rules,
)
from sensorprep.spectra import fit_pca_model

NODE_IDS = ("a", "b", "c")
MAX = sys.float_info.max


def _field_values(dtype):
    if dtype.kind == "b":
        return st.booleans()
    if dtype.kind == "i":
        return st.integers(-(2**63), 2**63 - 1)
    # Any NaN is written as null and read back as the one NaN numpy makes.
    return st.floats(allow_infinity=False).map(lambda v: math.nan if math.isnan(v) else v)


@st.composite
def record_arrays(draw):
    dtype = draw(st.sampled_from([ROW_DTYPE, VERDICT_DTYPE, SCHEDULE_DTYPE, RECOVERY_DTYPE]))
    size = draw(st.integers(0, 30))
    cols = [np.array(draw(st.lists(_field_values(dtype[name]), min_size=size, max_size=size)), dtype=dtype[name])
            for name in dtype.names]
    return np.rec.fromarrays(cols, dtype=dtype)


def round_trip(tmp_path, kind, body, node_ids=NODE_IDS):
    path = tmp_path / f"{kind}.json"
    artifacts.write(path, kind, node_ids, body)
    return artifacts.read(path, kind, node_ids)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(record_arrays())
    def test_record_arrays(self, tmp_path_factory, table):
        doc = round_trip(tmp_path_factory.mktemp("rt"), "redundancy_realtime", {"table": artifacts.columns(table)})
        for name, col in zip(table.dtype.names, doc["table"]):
            if table.dtype[name].kind == "f":
                assert [v is None for v in col] == np.isnan(table[name]).tolist()
        back = artifacts.records(doc["table"], table.dtype)
        assert back.dtype == table.dtype and back.tobytes() == table.tobytes()

    def test_nan_only_in_a_float_column_that_holds_one(self):
        table = np.rec.fromarrays([[3, 4], [1, 2], [True, False], [math.nan, 0.5]], dtype=SCHEDULE_DTYPE)
        assert artifacts.columns(table) == [[3, 4], [1, 2], [True, False], [None, 0.5]]

    def test_disabled_q_limit_is_null(self, tmp_path):
        rows = np.rec.fromarrays([[0, 1], [0.5, 2.5], [1.0, 0.25], [False, True]], dtype=ROW_DTYPE)
        observed, predicted, uninferable = np.array([[1, 2, 3]]), np.array([[1, 2, 1]]), np.array([True, False, False])
        report = DetectionReport(math.inf, 7.5, rows, observed, predicted, uninferable)
        doc = round_trip(tmp_path, "detection_report", report_to_dict(report))
        assert json.loads((tmp_path / "detection_report.json").read_text())["q_limit"] is None
        assert doc["q_limit"] == math.inf
        back = read_report(tmp_path / "detection_report.json", NODE_IDS)
        assert back.q_limit == math.inf and back.t2_limit == report.t2_limit
        assert back.rows.tobytes() == rows.tobytes()
        assert verdict_records(back).tobytes() == verdict_records(report).tobytes()

    def test_ragged_columns_rejected(self, tmp_path):
        # `read` holds a record field to its dtype's columns, of one length, before `records` converts it.
        message = "field 'entries' must hold 2 columns of equal length: sleeping, max_posterior"
        for entries in ([[True, False], [0.5]], [[True]], [[True], [0.5], [0.5]], [True, 0.5]):
            with pytest.raises(ArtifactError, match=message):
                round_trip(tmp_path, "redundancy_realtime", {"entries": entries})


class TestRejections:
    def write_doc(self, tmp_path, doc):
        path = tmp_path / "pca_model.json"
        path.write_text(json.dumps(doc))
        return path

    def header(self, **changes):
        return {"format_version": artifacts.FORMAT_VERSION, "kind": "pca_model", "node_ids": list(NODE_IDS), **changes}

    def test_valid_header_loads(self, tmp_path):
        path = self.write_doc(tmp_path, self.header(k=2))
        assert artifacts.read(path, "pca_model", NODE_IDS)["k"] == 2

    def test_wrong_kind(self, tmp_path):
        path = self.write_doc(tmp_path, self.header(kind="scheme"))
        with pytest.raises(ArtifactError, match="pca_model.json: wrong kind 'scheme', expected 'pca_model'"):
            artifacts.read(path, "pca_model", NODE_IDS)
        with pytest.raises(ArtifactError, match="expected 'redundancy_static' or 'redundancy_realtime'"):
            artifacts.read(path, ("redundancy_static", "redundancy_realtime"), NODE_IDS)

    def test_missing_format_version_names_the_step(self, tmp_path):
        doc = self.header()
        del doc["format_version"]
        path = self.write_doc(tmp_path, doc)
        with pytest.raises(ArtifactError, match="pca_model.json: missing format_version.*re-run `sensorprep learn`"):
            artifacts.read(path, "pca_model", NODE_IDS)

    @pytest.mark.parametrize("version", [1, 3, 0, "2", True, 1.5])
    def test_unknown_format_version(self, tmp_path, version):
        path = self.write_doc(tmp_path, self.header(format_version=version))
        with pytest.raises(ArtifactError, match="unknown format_version"):
            artifacts.read(path, "pca_model", NODE_IDS)

    def test_missing_node_ids(self, tmp_path):
        doc = self.header()
        del doc["node_ids"]
        path = self.write_doc(tmp_path, doc)
        with pytest.raises(ArtifactError, match="pca_model.json: missing node_ids"):
            artifacts.read(path, "pca_model", NODE_IDS)

    @pytest.mark.parametrize(
        ("ids", "message"),
        [
            (["a", "x", "c"], "node id mismatch, .*pca_model.json has 'x' but data has 'b'"),
            (["a", "b"], "pca_model.json covers 2 nodes but data has 3"),
            (["a", "b", "c", "d"], "pca_model.json covers 4 nodes but data has 3"),
        ],
    )
    def test_mismatched_node_ids(self, tmp_path, ids, message):
        path = self.write_doc(tmp_path, self.header(node_ids=ids))
        with pytest.raises(ArtifactError, match=message):
            artifacts.read(path, "pca_model", NODE_IDS)

    def test_per_record_layout_rejected(self, tmp_path):
        # A report in the layout written before the versioned codec.
        path = tmp_path / "redundancy_realtime.json"
        path.write_text(json.dumps({"mode": "realtime", "tau": 0.95, "entries": [], "recoveries": []}))
        with pytest.raises(ArtifactError, match="missing format_version.*re-run `sensorprep redundancy-realtime`"):
            artifacts.read(path, "redundancy_realtime", NODE_IDS)


class WrappingNumpy:
    """numpy as 1.24 casts a Python integer in [2**63, 2**64) to int64: with a DeprecationWarning, wrapped to a
    negative number. numpy 2 raises OverflowError."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def array(value, dtype=None):
        try:
            return np.array(value, dtype)
        except OverflowError:
            if dtype is not np.int64:
                raise
            warnings.warn("NumPy will stop allowing conversion of out-of-bound Python integers", DeprecationWarning)
            return np.array(value, np.uint64).astype(np.int64)


class TestNoSilentCast:
    """JSON types are checked before numpy casts a value: `np.array([1.5], np.int64)` truncates,
    `np.array([True, 2])` is int64, and overflow differs between numpy versions."""

    ROWS = [[0, 1], [1.0, 9.0], [1.0, 9.0], [False, True]]

    @pytest.mark.parametrize(
        ("kind", "body", "message"),
        [
            pytest.param("detection_report", {"rows": ROWS, "verdicts": [[True, 2, 1], [1, 2, 1]]},
                         "field 'verdicts' column 'observed' must hold integers, got True", id="observed-true"),
            pytest.param("detection_report", {"rows": [[True, 1], *ROWS[1:]]},
                         "field 'rows' column 'row' must hold integers, got True", id="row-true"),
            pytest.param("detection_report", {"rows": ROWS, "verdicts": [[1, 2, 1], [1, 1.5, 1]]},
                         "field 'verdicts' column 'predicted' must hold integers, got 1.5", id="predicted-fraction"),
            pytest.param("detection_report", {"rows": [ROWS[0], [[], 9.0], *ROWS[2:]]},
                         r"field 'rows' column 'q' must hold numbers or null, got \[\]", id="q-list"),
            pytest.param("redundancy_realtime", {"entries": [[[], True], [0.5, 0.5]]},
                         r"field 'entries' column 'sleeping' must hold booleans, got \[\]", id="sleeping-list"),
            *(pytest.param(kind, body(big), f"field '{key}' must hold integers within int64, got {big}",
                           id=f"{key}-{name}")
              for big, name in ((2**63, "2**63"), (10**400, "10**400"))
              for kind, key, body in (
                  ("pca_model", "k", lambda v: {"k": v}),
                  ("redundancy_realtime", "rule_slice", lambda v: {"rule_slice": [0, v]}),
                  ("static_network", "counts", lambda v: {"counts": [[[1, v, 1]]] * 3}),
              )),
            # An integer just beyond the largest float64 casts to it without an error; 10**400 does not cast.
            *(pytest.param(kind, body(big), f"field '{key}' {column}must hold {noun} within float64, got {big}",
                           id=f"{key}-{name}")
              for big, name in ((int(MAX) + 1, "max+1"), (-(10**400), "-10**400"))
              for kind, key, column, noun, body in (
                  ("pca_model", "t2_limit", "", "numbers", lambda v: {"t2_limit": v}),
                  ("pca_model", "means", "", "numbers", lambda v: {"means": [0.5, MAX, v]}),
                  ("redundancy_static", "witness", "", "numbers", lambda v: {"witness": [[], [0.5], [MAX, v]]}),
                  ("detection_report", "rows", "column 'q' ", "numbers or null",
                   lambda v: {"rows": [[0, 1], [None, v], [1.0, 9.0], [False, True]]}),
              )),
        ],
    )
    def test_rejected_naming_file_and_field(self, tmp_path, kind, body, message):
        with pytest.raises(ArtifactError, match=f"^{tmp_path / kind}.json: {message}$"):
            round_trip(tmp_path, kind, body)

    @pytest.mark.parametrize(
        ("kind", "key", "body"),
        [
            ("pca_model", "k", lambda v: {"k": v}),
            ("redundancy_realtime", "rule_slice", lambda v: {"rule_slice": [0, v]}),
            ("static_network", "counts", lambda v: {"counts": [[[1, v, 1]]] * 3}),
        ],
    )
    def test_rejected_where_numpy_wraps_with_a_warning(self, tmp_path, monkeypatch, kind, key, body):
        monkeypatch.setattr(artifacts, "np", WrappingNumpy())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as outside pytest, where a DeprecationWarning is not shown
            with pytest.raises(ArtifactError, match=f"field '{key}' must hold integers within int64, got {2**63}$"):
                round_trip(tmp_path, kind, body(2**63))

    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    def test_float_literal_beyond_float64_rejected(self, tmp_path, literal):
        path = tmp_path / "pca_model.json"
        artifacts.write(path, "pca_model", NODE_IDS, {"means": [0.5, 0.25, 0.125]})
        path.write_text(path.read_text().replace("0.25", literal))  # json.loads reads it as an infinity
        message = f"^{path}: field 'means' must hold numbers within float64, got {float(literal)}$"
        with pytest.raises(ArtifactError, match=message):
            artifacts.read(path, "pca_model", NODE_IDS)

    def test_largest_finite_numbers_read(self, tmp_path):
        doc = round_trip(tmp_path, "pca_model", {"means": [int(MAX), -MAX, 0.5], "t2_limit": -int(MAX)})
        assert doc["means"].tolist() == [MAX, -MAX, 0.5] and doc["t2_limit"] == -int(MAX)


@pytest.mark.parametrize("kind", ["redundancy_static", "redundancy_realtime"])
def test_version_1_redundancy_report_rejected(tmp_path, reports, kind):
    # Version 1 stored a fourth recovery column, `actual`, copied from the data.
    ids, _, static, realtime, *_ = reports
    body = static_report_to_dict(static) if kind == "redundancy_static" else realtime_report_to_dict(realtime)
    body["recoveries"] = [[4], [1], [0.5], [0.25]]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({**body, "format_version": 1, "kind": kind, "node_ids": list(ids)}))
    message = f"{kind}.json: unknown format_version 1, expected 2; re-run `sensorprep {kind.replace('_', '-')}`$"
    with pytest.raises(ArtifactError, match=message):
        artifacts.read(path, ("redundancy_static", "redundancy_realtime"), ids)


@pytest.fixture(scope="module")
def reports():
    """One report of each kind from small runs, with flagged rows, NaN max_posterior and recovery rules, and the
    datasets the redundancy reports were made from."""
    data = synth_generate(3, 400, 6, "copy-child", copies={1: 0, 3: 2}, flip=0.02)
    ids = data.node_ids
    train, test = SensorDataset(data.values[:300], ids), SensorDataset(data.values[300:] * 1.02, ids)
    scheme = fit_discretization(train, 3)
    states = discretize(train, scheme)
    detection = tqbayes_detect(test, fit_pca_model(train), learn_transition(states, 3), scheme, states.states[-1])
    net = learn_static(states, 3)
    static = ssdrda(net, 0.9)
    static = replace(static, rules=static_rules(train, net.dag, static.redundant_nodes()))
    lagged = synth_generate(3, 400, 6, "lagged-copy", copies={1: 0, 3: 2}, noise_frac=0.1)
    realtime = rsdrda_schedule(lagged, 100, 0.6, 0.9, fit_discretization(lagged, 3), 3)
    assert np.isnan(realtime.entries.max_posterior).any() and len(realtime.rules.node)
    assert len(static.rules.node) and detection.rows.flagged.any()
    return ids, detection, static, realtime, train, lagged


def legacy_json(doc):
    """The old per-record document as its file held it."""
    return json.loads(json.dumps(doc, sort_keys=True, allow_nan=False))


class TestEquivalenceWithPerRecordLayout:
    def test_detection_report(self, tmp_path, reports):
        ids, detection, *_ = reports
        round_trip(tmp_path, "detection_report", report_to_dict(detection), ids)
        new = read_report(tmp_path / "detection_report.json", ids)
        old = legacy_report_from_dict(legacy_json(legacy_report_to_dict(detection)), len(ids))
        assert new.rows.tobytes() == old.rows.tobytes() == detection.rows.tobytes()
        assert verdict_records(new).tobytes() == verdict_records(old).tobytes() == verdict_records(detection).tobytes()
        assert (new.q_limit, new.t2_limit) == (old.q_limit, old.t2_limit)

    def test_static_report(self, tmp_path, reports):
        # The old layout stored every recovered reading; the rules read back rebuild the same bytes.
        ids, _, static, _, train, _ = reports
        doc = round_trip(tmp_path, "redundancy_static", static_report_to_dict(static), ids)
        legacy = legacy_json(legacy_static_report_to_dict(static, static.recoveries(train), ids))
        nodes, old_recoveries = legacy_static_from_dict(legacy)
        assert recoveries_from_dict(doc, train).tobytes() == old_recoveries.tobytes()
        assert len(old_recoveries) == len(static.rules.node) * train.m
        per_node = zip(range(len(ids)), doc["redundant"], doc["criterion"], map(tuple, doc["witness"]))
        assert list(per_node) == nodes

    def test_realtime_report(self, tmp_path, reports):
        ids, _, _, realtime, _, lagged = reports
        doc = round_trip(tmp_path, "redundancy_realtime", realtime_report_to_dict(realtime), ids)
        legacy = legacy_json(legacy_realtime_report_to_dict(realtime, realtime.recoveries(lagged), ids))
        old_entries, old_recoveries = legacy_realtime_from_dict(legacy)
        assert read_schedule(doc).tobytes() == old_entries.tobytes()
        assert recoveries_from_dict(doc, lagged).tobytes() == old_recoveries.tobytes()
        assert len(old_recoveries) == realtime.entries.sleeping.sum() > len(realtime.rules.node)

    def test_empty_recoveries(self, tmp_path):
        n = len(NODE_IDS)
        empty = ssdrda(StaticNetwork(Dag(n, ((),) * n), (np.ones((1, 2), dtype=np.int64),) * n), 0.9)
        data = SensorDataset(np.ones((4, n)), NODE_IDS)
        doc = round_trip(tmp_path, "redundancy_static", static_report_to_dict(empty))
        legacy = legacy_json(legacy_static_report_to_dict(empty, empty.recoveries(data), NODE_IDS))
        _, old_recoveries = legacy_static_from_dict(legacy)
        assert [len(doc[key]) for key in ("rule_node", "rule_parents", "rule_dissimilarities")] == [0, 0, 0]
        assert doc["rule_rows"] == 0
        assert recoveries_from_dict(doc, data).tobytes() == old_recoveries.tobytes() == b""
