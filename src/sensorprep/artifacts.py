"""Versioned JSON codec for every artifact and report.

A document is one compact JSON object with sorted keys: the header
`format_version`, `kind` and `node_ids` beside the body that the kind's
module builds. A record array is one list per dtype field, in field order,
with NaN as null. `read` rejects the NaN and Infinity literals that plain
JSON lacks, and checks the header before the body is used.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

__all__ = [
    "FORMAT_VERSION", "KINDS", "ArtifactError", "check_node_ids", "columns", "records", "write_json", "write", "read"
]

FORMAT_VERSION = 2
# Every kind with the command that writes it, which the error for an unreadable file names.
KINDS = dict.fromkeys(("pca_model", "scheme", "static_network", "transition_network"), "learn") | {
    "detection_report": "detect",
    "redundancy_static": "redundancy-static",
    "redundancy_realtime": "redundancy-realtime",
}
# What the numbers of a field must be: (the words an error uses, the JSON types they may take).
_INT, _FLOAT, _NULLABLE = ("integers", {int}), ("numbers", {int, float}), ("numbers or null", {int, float, type(None)})
_BOOL = ("booleans", {bool})
# Each number (or flag) field that a command reads, in whichever kinds hold it: (its rule, how many lists deep).
_NUMBERS = {
    "k": (_INT, 0), "state_count": (_INT, 0), "parents": (_INT, 2), "q_limit": (_NULLABLE, 0),
    "t2_limit": (_FLOAT, 0), "alpha": (_FLOAT, 0), "means": (_FLOAT, 1), "variances": (_FLOAT, 1),
    "eigenvalues": (_FLOAT, 1), "eigenvectors": (_FLOAT, 2), "edges": (_FLOAT, 2), "priors": (_FLOAT, 2),
    "counts": (_FLOAT, 3), "slice_len": (_INT, 0), "train_frac": (_FLOAT, 0), "rule_rows": (_INT, 0),
    "rule_slice": (_INT, 1), "rule_node": (_INT, 1), "rule_parents": (_INT, 2), "rule_dissimilarities": (_FLOAT, 2),
    "last_states": (_INT, 1), "uninferable": (_BOOL, 1),
}
# The fields whose lists one level down, one per node or rule, may differ in length. Every other field's lists
# at one level have one length, as in a matrix (a count table's rows all hold K counts).
_RAGGED = {"parents", "counts", "rule_parents", "rule_dissimilarities"}


class ArtifactError(ValueError):
    """A file that does not fit this format version, the expected kind, or the data's nodes."""


class Document(dict):
    """A document `read` returned: reading a missing field is an ArtifactError naming the file, kind and field,
    and `fail` raises one naming the file and a field that holds a bad value."""

    def __missing__(self, key: str):
        raise ArtifactError(f"{self.path}: {self.get('kind')} has no field {key!r}; {self.rerun}")

    def fail(self, key: str, problem: str) -> NoReturn:
        raise ArtifactError(f"{self.path}: field {key!r} {problem}")


def check_node_ids(expected: Sequence[str], got: Sequence[str], what: str, reference: str) -> None:
    """Reject node ids in `reference` that differ from the data's, naming the first difference."""
    for e, g in zip(expected, got):
        if e != g:
            raise ArtifactError(f"{what}: node id mismatch, {reference} has {e!r} but data has {g!r}")
    if len(expected) != len(got):
        raise ArtifactError(f"{what}: {reference} covers {len(expected)} nodes but data has {len(got)}")


def columns(table: np.ndarray) -> list[list]:
    """A record array as one list per field, in dtype field order; NaN becomes None."""
    out = []
    for name in table.dtype.names:
        col = table[name]
        if col.dtype.kind == "f" and np.isnan(col).any():
            col = np.where(np.isnan(col), None, col)
        out.append(col.tolist())
    return out


def records(cols: Sequence[list], dtype: np.dtype, doc: dict | None = None, key: str = "") -> np.recarray:
    """Inverse of `columns`: None reads back as NaN, and an integer or boolean column holding another type is an
    error (1.5 is not truncated). An error names the file and field when `cols` is `doc[key]` of a read document."""
    where = f"{getattr(doc, 'path', 'document')}: field {key!r}" if doc is not None else "record array"
    shaped = isinstance(cols, list) and all(isinstance(c, list) for c in cols)
    if not shaped or len(cols) != len(dtype.names) or len({len(c) for c in cols}) > 1:
        raise ArtifactError(f"{where}: expected {len(dtype.names)} columns of equal length: {', '.join(dtype.names)}")
    for name, c in zip(dtype.names, cols):
        if dtype[name].kind == "f" and not set(map(type, c)) <= _NULLABLE[1]:
            raise ArtifactError(f"{where}: column {name!r} must hold numbers or null")
    arrays = [np.array(c, dtype=dtype[name] if dtype[name].kind == "f" else None) for name, c in zip(dtype.names, cols)]
    for name, array in zip(dtype.names, arrays):
        if array.size and array.dtype.kind != dtype[name].kind:
            raise ArtifactError(f"{where}: column {name!r} holds {array.dtype} values, not {dtype[name]}")
    return np.rec.fromarrays(arrays, dtype=dtype)


def write_json(path: str | Path, doc: dict) -> None:
    """Compact JSON with sorted keys and a trailing newline; NaN and inf are errors.

    One json.dumps call runs the C encoder; json.dump would encode in Python.
    """
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def write(path: str | Path, kind: str, node_ids: Sequence[str], body: dict) -> None:
    """Write `body` under the header of `kind`, creating the file's directory if it is missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_json(path, {**body, "format_version": FORMAT_VERSION, "kind": kind, "node_ids": list(node_ids)})


def read(path: str | Path, kind: str | tuple[str, ...], node_ids: Sequence[str]) -> Document:
    """Load a document of `kind` (or of any kind in a tuple) whose node ids equal `node_ids`.

    A number field (`_NUMBERS`) must nest as `write` nests it, with lists of one length at each level outside
    `_RAGGED`, and hold its type: 1.7, "1" or true is not converted, and an integer must fit in 64 bits."""
    kinds = (kind,) if isinstance(kind, str) else kind

    def non_finite(literal: str):  # json.loads alone accepts these; `write_json` never writes them
        raise ArtifactError(f"{path}: {literal} is not JSON; an artifact holds only finite numbers")

    doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=non_finite)
    doc = Document(doc if isinstance(doc, dict) else {})
    # The command to re-run is the one that writes this file's kind, if it is one of `kinds`.
    named = (doc["kind"],) if doc.get("kind") in kinds else kinds
    rerun = "re-run " + " or ".join(dict.fromkeys(f"`sensorprep {KINDS[k]}`" for k in named))
    version = doc.get("format_version")
    if version is None:
        raise ArtifactError(f"{path}: missing format_version, so an older sensorprep wrote it; {rerun}")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ArtifactError(f"{path}: unknown format_version {version!r}, expected {FORMAT_VERSION}; {rerun}")
    if doc.get("kind") not in kinds:
        raise ArtifactError(f"{path}: wrong kind {doc.get('kind')!r}, expected {' or '.join(map(repr, kinds))}")
    if not isinstance(doc.get("node_ids"), list):
        raise ArtifactError(f"{path}: missing node_ids; {rerun}")
    check_node_ids(doc["node_ids"], node_ids, doc["kind"], str(path))
    doc.path, doc.rerun = path, rerun
    for key, (rule, depth) in _NUMBERS.items():
        items = [doc[key]] if key in doc else []  # a missing field fails where a command reads it
        for level, (noun, types) in enumerate([("lists", {list})] * depth + [rule]):
            bad = [item for item in items if type(item) not in types]
            if bad:
                doc.fail(key, f"must hold {noun}, got {bad[0]!r}")
            if rule is _INT and level == depth:  # numpy and float arithmetic would overflow on a larger one
                bad = [item for item in items if not -(2**63) <= item < 2**63]
                if bad:
                    doc.fail(key, f"must hold 64-bit integers, got {bad[0]}")
            lengths = sorted({len(item) for item in items}) if level < depth else []
            if len(lengths) > 1 and not (level == 1 and key in _RAGGED):
                doc.fail(key, f"must hold lists of one length, got lengths {lengths}")
            items = [x for item in items if type(item) is list for x in item]
    return doc
