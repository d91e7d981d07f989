"""The versioned artifact codec: columnar round trips, header checks, and
equivalence with the per-record report layout it replaced."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    legacy_realtime_from_dict,
    legacy_realtime_report_to_dict,
    legacy_report_from_dict,
    legacy_report_to_dict,
    legacy_static_from_dict,
    legacy_static_report_to_dict,
)
from sensorprep import artifacts
from sensorprep.anomaly import (
    ROW_DTYPE,
    VERDICT_DTYPE,
    DetectionReport,
    report_from_dict,
    report_to_dict,
    tqbayes_detect,
)
from sensorprep.artifacts import ArtifactError
from sensorprep.bayesnet import Cpt, Dag, learn_static, learn_transition
from sensorprep.ingest import SensorDataset, discretize, fit_discretization, synth_generate
from sensorprep.redundancy import (
    RECOVERY_DTYPE,
    SCHEDULE_DTYPE,
    realtime_report_to_dict,
    rsdrda_schedule,
    ssdrda,
    static_recovery,
    static_report_to_dict,
)
from sensorprep.spectra import fit_pca_model

NODE_IDS = ("a", "b", "c")


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
        verdicts = np.rec.fromarrays([[1] * 3, [0, 1, 2], [1, 2, 3], [1, 2, 1], [False, False, True],
                                      [True, False, False]], dtype=VERDICT_DTYPE)
        report = DetectionReport(math.inf, 7.5, rows, verdicts)
        doc = round_trip(tmp_path, "detection_report", report_to_dict(report))
        assert doc["q_limit"] is None
        back = report_from_dict(doc)
        assert back.q_limit == math.inf and back.t2_limit == report.t2_limit
        assert back.rows.tobytes() == rows.tobytes() and back.verdicts.tobytes() == verdicts.tobytes()

    def test_ragged_columns_rejected(self):
        with pytest.raises(ArtifactError, match="3 columns of equal length"):
            artifacts.records([[1, 2], [3], [0.5, 0.5]], RECOVERY_DTYPE)
        with pytest.raises(ArtifactError, match="3 columns of equal length"):
            artifacts.records([[1], [3]], RECOVERY_DTYPE)


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


@pytest.mark.parametrize("kind", ["redundancy_static", "redundancy_realtime"])
def test_version_1_redundancy_report_rejected(tmp_path, reports, kind):
    # Version 1 stored a fourth recovery column, `actual`, copied from the data.
    ids, _, static, realtime = reports
    body = static_report_to_dict(static) if kind == "redundancy_static" else realtime_report_to_dict(realtime)
    body["recoveries"].append(body["recoveries"][2])
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({**body, "format_version": 1, "kind": kind, "node_ids": list(ids)}))
    message = f"{kind}.json: unknown format_version 1, expected 2; re-run `sensorprep {kind.replace('_', '-')}`$"
    with pytest.raises(ArtifactError, match=message):
        artifacts.read(path, ("redundancy_static", "redundancy_realtime"), ids)


@pytest.fixture(scope="module")
def reports():
    """One report of each kind from small runs, with flagged rows, NaN max_posterior and recoveries."""
    data = synth_generate(3, 400, 6, "copy-child", copies={1: 0, 3: 2}, flip=0.02)
    ids = data.node_ids
    train, test = SensorDataset(data.values[:300], ids), SensorDataset(data.values[300:] * 1.02, ids)
    scheme = fit_discretization(train, 3)
    states = discretize(train, scheme)
    detection = tqbayes_detect(test, fit_pca_model(train), learn_transition(states, 3), scheme, train.values[-1])
    net = learn_static(states, 3)
    static = ssdrda(net.dag, net.cpts, 0.9)
    static = replace(static, recoveries=static_recovery(train, net.dag, static.redundant_nodes()))
    lagged = synth_generate(3, 400, 6, "lagged-copy", copies={1: 0, 3: 2}, noise_frac=0.1)
    realtime = rsdrda_schedule(lagged, 100, 0.6, 0.9, fit_discretization(lagged, 3), 3)
    assert np.isnan(realtime.entries.max_posterior).any() and len(realtime.recoveries)
    assert len(static.recoveries) and detection.rows.flagged.any()
    return ids, detection, static, realtime


def legacy_json(doc):
    """The old per-record document as its file held it."""
    return json.loads(json.dumps(doc, sort_keys=True, allow_nan=False))


class TestEquivalenceWithPerRecordLayout:
    def test_detection_report(self, tmp_path, reports):
        ids, detection, _, _ = reports
        new = report_from_dict(round_trip(tmp_path, "detection_report", report_to_dict(detection), ids))
        old = legacy_report_from_dict(legacy_json(legacy_report_to_dict(detection)))
        assert new.rows.tobytes() == old.rows.tobytes() == detection.rows.tobytes()
        assert new.verdicts.tobytes() == old.verdicts.tobytes() == detection.verdicts.tobytes()
        assert (new.q_limit, new.t2_limit) == (old.q_limit, old.t2_limit)

    def test_static_report(self, tmp_path, reports):
        ids, _, static, _ = reports
        doc = round_trip(tmp_path, "redundancy_static", static_report_to_dict(static), ids)
        nodes, old_recoveries = legacy_static_from_dict(legacy_json(legacy_static_report_to_dict(static, ids)))
        assert artifacts.records(doc["recoveries"], RECOVERY_DTYPE).tobytes() == old_recoveries.tobytes()
        per_node = zip(range(len(ids)), doc["redundant"], doc["criterion"], map(tuple, doc["witness"]))
        assert list(per_node) == nodes

    def test_realtime_report(self, tmp_path, reports):
        ids, _, _, realtime = reports
        doc = round_trip(tmp_path, "redundancy_realtime", realtime_report_to_dict(realtime), ids)
        legacy = legacy_json(legacy_realtime_report_to_dict(realtime, ids))
        old_entries, old_recoveries = legacy_realtime_from_dict(legacy)
        assert artifacts.records(doc["entries"], SCHEDULE_DTYPE).tobytes() == old_entries.tobytes()
        assert artifacts.records(doc["recoveries"], RECOVERY_DTYPE).tobytes() == old_recoveries.tobytes()

    def test_empty_recoveries(self, tmp_path):
        n = len(NODE_IDS)
        cpts = tuple(Cpt(i, (), np.ones((1, 2), dtype=np.int64)) for i in range(n))
        empty = ssdrda(Dag(n, ((),) * n), cpts, 0.9)
        doc = round_trip(tmp_path, "redundancy_static", static_report_to_dict(empty))
        _, old_recoveries = legacy_static_from_dict(legacy_json(legacy_static_report_to_dict(empty, NODE_IDS)))
        assert doc["recoveries"] == [[], [], []]
        assert artifacts.records(doc["recoveries"], RECOVERY_DTYPE).tobytes() == old_recoveries.tobytes() == b""
