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
from typing import Sequence

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


class ArtifactError(ValueError):
    """A file that does not fit this format version, the expected kind, or the data's nodes."""


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


def records(cols: Sequence[list], dtype: np.dtype) -> np.recarray:
    """Inverse of `columns`: None reads back as NaN."""
    if len(cols) != len(dtype.names) or len({len(c) for c in cols}) > 1:
        raise ArtifactError(f"expected {len(dtype.names)} columns of equal length: {', '.join(dtype.names)}")
    return np.rec.fromarrays([np.array(c, dtype=dtype[name]) for name, c in zip(dtype.names, cols)], dtype=dtype)


def write_json(path: str | Path, doc: dict) -> None:
    """Compact JSON with sorted keys and a trailing newline; NaN and inf are errors.

    One json.dumps call runs the C encoder; json.dump would encode in Python.
    """
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def write(path: str | Path, kind: str, node_ids: Sequence[str], body: dict) -> None:
    """Write `body` under the header of `kind`."""
    write_json(path, {**body, "format_version": FORMAT_VERSION, "kind": kind, "node_ids": list(node_ids)})


def read(path: str | Path, kind: str | tuple[str, ...], node_ids: Sequence[str]) -> dict:
    """Load a document of `kind` (or of any kind in a tuple) whose node ids equal `node_ids`."""
    kinds = (kind,) if isinstance(kind, str) else kind

    def non_finite(literal: str):  # json.loads alone accepts these; `write_json` never writes them
        raise ArtifactError(f"{path}: {literal} is not JSON; an artifact holds only finite numbers")

    doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=non_finite)
    doc = doc if isinstance(doc, dict) else {}
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
    return doc
