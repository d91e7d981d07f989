"""Versioned JSON codec for every artifact and report, and the one schema of their bodies.

A document is one compact JSON object with sorted keys: the header
`format_version`, `kind` and `node_ids` beside the body that the kind's
module builds. A record array is one list per dtype field, in field order,
with NaN as null. `read` rejects the NaN and Infinity literals that plain
JSON lacks, checks the header, then holds each body field to `SCHEMA` and
converts it once.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from collections import ChainMap
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

__all__ = [
    "FORMAT_VERSION", "KINDS", "SCHEMA", "ArtifactError", "check_node_ids", "columns", "records", "write_json", "write",
    "read",
]

FORMAT_VERSION = 2
# Every kind with the command that writes it, which the error for an unreadable file names.
KINDS = dict.fromkeys(("pca_model", "scheme", "static_network", "transition_network"), "learn") | {
    "detection_report": "detect",
    "redundancy_static": "redundancy-static",
    "redundancy_realtime": "redundancy-realtime",
}
# The JSON types a field's values take: (the words an error uses, the types json.loads gives them, the dtype they
# read as, the closed range a value must lie in to be cast exactly or to a finite float).
_INT = ("integers", {int}, np.int64, (-(2**63), 2**63 - 1))
_NUM = ("numbers", {int, float}, np.float64, (-sys.float_info.max, sys.float_info.max))
_OPT = ("numbers or null", {int, float, type(None)}, np.float64, _NUM[3])  # null: NaN in a list, +inf alone (a limit)
_BOOL = ("booleans", {bool}, np.bool_, None)
# The JSON type of a record column of each dtype kind.
_COLUMN = {"i": _INT, "f": _OPT, "b": _BOOL}
# The recovery rules of both redundancy reports: rule i rebuilds readings of node rule_node[i] from rule_parents[i].
_RULES = {
    "rule_node": (_INT, "*", "[0, n - 1]"),
    "rule_parents": (_INT, "len(rule_node); *", "[0, n - 1]"),
    "rule_dissimilarities": (_NUM, "len(rule_node); len(rule_parents[i])", "[0, inf)"),
}
# Every body field of every kind: (its JSON type, or for a record field its dtype; its shape; the interval its values
# lie in, if any). A shape lists the length of each level of nested lists, "" for a number: each an expression in
# n (the node count), K (the width of a network's count rows) and the other fields, converted, or * for any one
# length. Lists at one level share one length, except after a ";": the lists one level down may then differ, and
# the dims after it hold for item i. A record field's shape is its column length. The constructors a command builds
# from a document check the rest (sorted eigenvalues, acyclic parents, priors that sum to 1, ...).
SCHEMA = {
    "pca_model": {
        "means": (_NUM, "n"), "variances": (_NUM, "n"), "eigenvalues": (_NUM, "n"), "eigenvectors": (_NUM, "n, n"),
        "k": (_INT, ""), "q_limit": (_OPT, ""), "t2_limit": (_NUM, ""), "alpha": (_NUM, ""),
    },
    "scheme": {"state_count": (_INT, ""), "edges": (_NUM, "n, state_count - 1")},
    "static_network": {"parents": (_INT, "n; *"), "counts": (_INT, "n; K ** len(parents[i]), K")},
    "transition_network": {
        "parents": (_INT, "n; *"), "counts": (_INT, "n; K ** len(parents[i]), K"), "priors": (_NUM, "n, K"),
        "last_states": (_INT, "n", "[1, K]"),
    },
    "detection_report": {
        "q_limit": (_OPT, ""), "t2_limit": (_NUM, ""),
        "rows": (np.dtype([("row", np.int64), ("q", np.float64), ("t2", np.float64), ("flagged", np.bool_)]), "*"),
        "verdicts": (np.dtype([("observed", np.int64), ("predicted", np.int64)]), "n * rows.flagged.sum()"),
        "uninferable": (_BOOL, "n * rows.flagged.any()"),
    },
    "redundancy_static": {
        "tau": (_NUM, ""), "redundant": (_BOOL, "n"), "criterion": (_NUM, "n"), "witness": (_NUM, "n; *"), **_RULES,
        "rule_rows": (_INT, "", "[0, inf)"),
    },
    "redundancy_realtime": {
        "tau": (_NUM, ""), "slice_len": (_INT, "", "[1, inf)"), "train_frac": (_NUM, "", "(0, 1)"),
        "entries": (np.dtype([("sleeping", np.bool_), ("max_posterior", np.float64)]), "*"), **_RULES,
        "rule_slice": (_INT, "len(rule_node)"),
    },
}


class ArtifactError(ValueError):
    """A file that does not fit this format version, the expected kind, or the data's nodes."""


class Document(dict):
    """A document `read` returned. Reading a missing field is an ArtifactError naming the file, kind and field,
    `fail` raises one naming the file and a bad field, and a ValueError raised inside `with document:` (a
    constructor's check, whose message names the field) leaves as an ArtifactError naming the file."""

    def __missing__(self, key: str):
        raise ArtifactError(f"{self.path}: {self.get('kind')} has no field {key!r}; {self.rerun}")

    def fail(self, key: str, problem: str) -> NoReturn:
        raise ArtifactError(f"{self.path}: field {key!r} {problem}")

    def __enter__(self) -> Document:
        return self

    def __exit__(self, _type, exc, _traceback) -> None:
        if isinstance(exc, ValueError) and not isinstance(exc, ArtifactError):
            raise ArtifactError(f"{self.path}: {exc}") from None


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
    """Inverse of `columns`: None reads back as NaN. The columns must be lists of equal length whose values `read`
    has checked against their dtypes."""
    return np.rec.fromarrays([np.asarray(c, dtype=dtype[name]) for name, c in zip(dtype.names, cols)], dtype=dtype)


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
    """Load a document of `kind` (or of any kind in a tuple) whose node ids equal `node_ids`, each body field held
    to `SCHEMA` and converted once: a number stays one (a null limit reads as +inf), nested lists become an array
    (ragged ones, one array per item), and a record field a record array. JSON types are checked before any cast,
    so 1.7, "1" or true is not converted. A missing field fails where a command reads it."""
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
    schema = {key: (*spec, "")[:3] for key, spec in SCHEMA[doc["kind"]].items() if key in doc}
    with warnings.catch_warnings():  # numpy 1.24 wraps an integer beyond int64 with only this warning; 2.x raises
        warnings.simplefilter("error", DeprecationWarning)
        for key, (kind_type, shape, _) in schema.items():
            doc[key] = _converted(doc, key, kind_type, shape)
    k = next((len(row) for table in doc.get("counts", ()) for row in table), 0)
    names = ChainMap({"n": len(doc["node_ids"]), "K": k, "inf": math.inf, "len": len}, doc)
    for key, (kind_type, shape, within) in schema.items():
        value, (outer, ragged, inner) = doc[key], shape.partition(";")
        if shape:
            _check_shape(doc, key, (len(value),) if ragged else np.shape(value), outer, names)
        for i, item in enumerate(value if ragged else ()):
            _check_shape(doc, key, item.shape, inner, ChainMap({"i": i}, names), f"item {i} ")
        if within:
            lo, hi = eval(_compiled(within[1:-1]), {}, names)
            v = np.concatenate([np.empty(0, kind_type[2]), *value]) if ragged else np.asarray(value)
            inside = (v > lo if within[0] == "(" else v >= lo) & (v < hi if within[-1] == ")" else v <= hi)
            shown = f"{within[0]}{lo}, {hi}{within[-1]}"
            if not inside.all():
                doc.fail(key, f"must lie in {within}{'' if shown == within else ' = ' + shown}, got {v[~inside][0]}")
    return doc


def _converted(doc: Document, key: str, kind_type: tuple | np.dtype, shape: str):
    """Field `key` as `read` returns it, once its nesting and JSON types fit its `SCHEMA` entry."""
    value = doc[key]
    if isinstance(kind_type, np.dtype):  # a record field
        if not (type(value) is list and len(value) == len(kind_type.names) and all(type(c) is list for c in value)
                and len(set(map(len, value))) < 2):
            doc.fail(key, f"must hold {len(kind_type.names)} columns of equal length: {', '.join(kind_type.names)}")
        return records([_cast(doc, key, column, column, _COLUMN[kind_type[name].kind], f"column {name!r} ")
                        for name, column in zip(kind_type.names, value)], kind_type)
    items = [value]
    for level in range(shape.count(",") + shape.count(";") + 1 if shape else 0):
        if not all(type(item) is list for item in items):
            doc.fail(key, f"must hold lists, got {next(item for item in items if type(item) is not list)!r}")
        lengths = sorted(set(map(len, items)))
        if len(lengths) > 1 and not (level == 1 and ";" in shape):
            doc.fail(key, f"must hold lists of one length, got lengths {lengths}")
        items = [x for item in items for x in item]
    if ";" in shape:  # ragged: each item is cast on its own, the values of a 2-D item checked row by row
        two_d = "," in shape.partition(";")[2]
        return [_cast(doc, key, item, [x for row in item for x in row] if two_d else item, kind_type) for item in value]
    cast = _cast(doc, key, value, items, kind_type)
    return cast if shape else math.inf if value is None else value


def _cast(doc: Document, key: str, value, values: list, kind_type: tuple, where: str = ""):
    """`value` as an array of its dtype once its numbers or flags, `values`, have their JSON type and fit: an integer
    int64, a number a finite float64. Types are checked before the cast, which would convert silently (1.5 to 1);
    the fit is one test of the cast array, and only an error scans `values` to name the first that does not fit."""
    noun, types, dtype, bounds = kind_type
    if not set(map(type, values)) <= types:
        doc.fail(key, f"{where}must hold {noun}, got {next(v for v in values if type(v) not in types)!r}")
    try:
        cast = np.array(value, dtype)
    except (OverflowError, DeprecationWarning):  # an integer beyond int64; `read` makes numpy 1.24's warning an error
        cast = None
    # A float64 of the largest finite magnitude may be an integer rounded down to it; inf is a JSON 1e400.
    if bounds and (cast is None or dtype is np.float64 and (np.abs(cast) >= bounds[1]).any()):
        bad = next((v for v in values if v is not None and not bounds[0] <= v <= bounds[1]), None)
        if bad is not None:
            doc.fail(key, f"{where}must hold {noun} within {np.dtype(dtype).name}, got {bad}")
    return cast


def _check_shape(doc: Document, key: str, got: tuple, dims: str, names: ChainMap, where: str = "") -> None:
    dims = [dim.strip() for dim in dims.split(",")]
    want = tuple(None if dim == "*" else int(eval(_compiled(dim), {}, names)) for dim in dims)
    if len(got) != len(want) or any(w not in (None, g) for g, w in zip(got, want)):
        doc.fail(key, f"{where}must have shape ({', '.join(dims)}) = {want}, got {got}")


@functools.cache
def _compiled(expression: str):
    """A `SCHEMA` expression, a constant of this module, compiled once; `eval` runs it over a document's names."""
    return compile(expression, "<SCHEMA>", "eval")
