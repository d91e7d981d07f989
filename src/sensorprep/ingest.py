"""Sensor dataset loading, synthesis, standardization, discretization, and error injection.

Every other module consumes the types defined here. Datasets are dense
real-valued matrices (m samples x n nodes); discrete state matrices use the
1-based alphabet {1..K}.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import itertools
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "SensorDataset",
    "Standardization",
    "DiscretizationScheme",
    "StateMatrix",
    "load_csv",
    "load_stored",
    "store_table",
    "load_node_ids",
    "write_csv",
    "standardize",
    "fit_discretization",
    "discretize",
    "discretize_row",
    "inject_errors",
    "synth_generate",
]


def _first_duplicate(items) -> str | None:
    seen: set[str] = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


@dataclass(frozen=True)
class SensorDataset:
    """Dense matrix of readings: m time-ordered samples by n sensor nodes.

    Values must be finite; node ids distinct; timestamps (epoch seconds),
    when present, strictly increasing. Instances are treated as immutable
    and safe to share between concurrent readers.
    """

    values: np.ndarray
    node_ids: tuple[str, ...]
    timestamps: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "node_ids", tuple(str(s) for s in self.node_ids))
        if values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        m, n = values.shape
        if m < 2:
            raise ValueError(f"need at least 2 samples, got {m}")
        if n < 1:
            raise ValueError("need at least 1 node")
        if len(self.node_ids) != n:
            raise ValueError(f"{n} columns but {len(self.node_ids)} node ids")
        dup = _first_duplicate(self.node_ids)
        if dup is not None:
            raise ValueError(f"duplicate node id {dup!r}")
        if not np.isfinite(values).all():
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"non-finite value at row {i + 1}, column {self.node_ids[j]!r}")
        if self.timestamps is not None:
            stamps = tuple(int(t) for t in self.timestamps)
            object.__setattr__(self, "timestamps", stamps)
            if len(stamps) != m:
                raise ValueError(f"{m} rows but {len(stamps)} timestamps")
            if any(b <= a for a, b in zip(stamps, stamps[1:])):
                raise ValueError("timestamps must be strictly increasing")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Standardization:
    """Per-node training means and sample variances (1/(m-1) divisor)."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", np.array(self.means, dtype=float))
        object.__setattr__(self, "variances", np.array(self.variances, dtype=float))
        if not (self.variances > 0).all():
            raise ValueError("variances must be strictly positive")

    @property
    def n(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class DiscretizationScheme:
    """Per-node interior bin edges mapping reals onto states {1..K}, K = state_count >= 2.

    `edges` is an n x (K-1) matrix, row j node j's finite, strictly increasing edges. Values below the first
    edge map to state 1, values at or above the last to state K, and a value equal to an edge to the higher bin.
    """

    edges: np.ndarray
    state_count: int

    def __post_init__(self) -> None:
        edges = np.array(self.edges, dtype=float)
        object.__setattr__(self, "edges", edges)
        if self.state_count < 2:
            raise ValueError(f"state_count must be >= 2, got {self.state_count}")
        if edges.ndim != 2 or edges.shape[1] != self.state_count - 1:
            raise ValueError(f"expected an n x {self.state_count - 1} edge matrix, got shape {edges.shape}")
        bad = np.flatnonzero(~(np.isfinite(edges).all(axis=1) & (np.diff(edges, axis=1) > 0).all(axis=1)))
        if bad.size:
            raise ValueError(f"node {bad[0]}: edges must be finite and strictly increasing")

    @property
    def n(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class StateMatrix:
    """Discrete m x n matrix over {1..K}, K = state_count >= 2."""

    states: np.ndarray
    state_count: int

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=np.int64)
        object.__setattr__(self, "states", states)
        if states.ndim != 2:
            raise ValueError("states must be a 2-D matrix")
        k = self.state_count
        if k < 2:
            raise ValueError(f"state_count must be >= 2, got {k}")
        if states.size and (states.min() < 1 or states.max() > k):
            raise ValueError(f"states must lie in 1..{k}")

    @property
    def m(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]


def load_csv(path: str | Path, sha=None) -> SensorDataset:
    """Load a dataset from UTF-8 comma-separated text (a leading byte-order mark is skipped).

    First row is the header of node ids; an optional leading column named
    "timestamp" holds int64 epoch seconds. The body is parsed by one
    `np.loadtxt` call, quoted cells included. A blank line, a cell it
    cannot parse (such as `1_0`, non-ASCII digits or a timestamp beyond
    int64), a non-finite value or unordered timestamps is a ValueError
    naming the path. With `sha`, a hashlib object, every byte read is fed
    to it: the whole file, once the dataset is returned.
    """
    path = Path(path)
    raw = open(path, "rb", buffering=0) if sha is None else _HashingFile(path, sha)
    with io.TextIOWrapper(io.BufferedReader(raw, 1 << 16), encoding="utf-8-sig", newline="") as fh:
        node_ids, has_ts = _header(csv.reader(fh), path)
        width = len(node_ids)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                warnings.simplefilter("error", DeprecationWarning)  # numpy 1.24 reads "1.0" as 1 with only this
                table = np.loadtxt(_body_lines(fh, has_ts + width), _table_dtype(width, has_ts), delimiter=",",
                                   comments=None, quotechar='"', ndmin=2)[:, 0]
            stamps = tuple(table["timestamp"].tolist()) if has_ts else None
            return SensorDataset(table["values"], tuple(node_ids), stamps)
        except (ValueError, DeprecationWarning) as exc:
            raise ValueError(f"{path}: {exc}") from None


class _HashingFile(io.FileIO):
    """A file that feeds each byte it reads to `sha`."""

    def __init__(self, path: Path, sha) -> None:
        super().__init__(os.fspath(path))  # so an error names the path as `open` does
        self.sha = sha

    def readinto(self, buffer) -> int:
        got = super().readinto(buffer)
        self.sha.update(memoryview(buffer)[:got])
        return got


def _body_lines(lines: Iterable[str], width: int) -> Iterator[str]:
    """`lines`, with a ValueError at a blank one outside a quoted cell, which `np.loadtxt` would skip."""
    quoted = False
    for r, line in enumerate(lines, start=1):
        if line[0] in "\r\n" and not quoted:
            raise ValueError(f"row {r} has 0 cells, expected {width}")
        if '"' in line:  # a file that parses holds no literal quote, so its quotes pair up
            quoted ^= line.count('"') & 1
        yield line


def load_stored(path: str | Path, tables: str | Path) -> tuple[SensorDataset, bool]:
    """The dataset of the CSV at `path`, and whether its text was parsed.

    The file is hashed in one pass that also counts its lines as `load_csv`
    splits them (at "\\n", "\\r\\n" or a lone "\\r"). The table `store_table`
    saved in `tables` for those bytes stands in for the parse if `load_csv`
    could have returned it: the dtype the header implies, one row per line
    after the header, finite values, increasing timestamps. Else the text
    is parsed by `load_csv`.
    """
    sha, breaks, last = hashlib.sha256(), 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            sha.update(chunk)
            byte = np.frombuffer(last + chunk, np.uint8)  # after the byte before it, for a "\r\n" split between reads
            lf = byte[1:] == 10
            breaks += np.count_nonzero(lf) + np.count_nonzero((byte[:-1] == 13) > lf)  # a "\r" no "\n" follows
            last = chunk[-1:]
    rows = breaks + (last != b"\n") - 1  # the lines after the header, the last one ended by a "\r" or by nothing
    # Memory-mapped, so a header claiming more rows than the file holds fails before anything is read.
    with contextlib.suppress(OSError, ValueError):  # no table, or a header or table `load_csv` rejects
        with open(path, newline="", encoding="utf-8-sig") as text:
            node_ids, has_ts = _header(csv.reader(text), path)
        stored = np.lib.format.open_memmap(Path(tables) / f"parsed-{sha.hexdigest()}.npy", mode="r")
        if stored.dtype == _table_dtype(len(node_ids), has_ts) and len(stored) == rows:
            stamps = tuple(stored["timestamp"].tolist()) if has_ts else None
            return SensorDataset(stored["values"], tuple(node_ids), stamps), False
    return load_csv(path), True


def store_table(data: SensorDataset, tables: str | Path, digest: str) -> Path:
    """Save the table of `data` that `load_stored` reads for a CSV of SHA-256 `digest` in `tables`, without pickle,
    through a temporary file that replaces it whole, and delete every other `parsed-*.npy` beside it. The table's
    path."""
    table = np.empty(data.m, _table_dtype(data.n, data.timestamps is not None))
    table["values"] = data.values
    if data.timestamps is not None:
        table["timestamp"] = data.timestamps
    path = Path(tables) / f"parsed-{digest}.npy"
    temporary = path.with_name(f".{os.getpid()}.{path.name}")
    np.save(temporary, table, allow_pickle=False)
    os.replace(temporary, path)
    for old in set(path.parent.glob("parsed-*.npy")) - {path}:
        old.unlink()
    return path


def _table_dtype(width: int, has_ts: bool) -> np.dtype:
    """One row of a CSV: its timestamp, if it has them, and its `width` values."""
    return np.dtype(([("timestamp", np.int64)] if has_ts else []) + [("values", np.float64, (width,))])


def load_node_ids(path: str | Path) -> tuple[str, ...]:
    """The node ids of a CSV that `load_csv` reads, from its header alone: no data row is read."""
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        return tuple(_header(csv.reader(fh), path)[0])


def _header(reader: Iterator[list[str]], path: str | Path) -> tuple[list[str], bool]:
    """The node ids of the header row that `reader` yields next, and whether a `timestamp` column leads them."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    has_ts = bool(header) and header[0] == "timestamp"
    node_ids = header[1:] if has_ts else header
    if not node_ids:
        raise ValueError(f"{path}: header contains no node ids")
    if (dup := _first_duplicate(node_ids)) is not None:
        raise ValueError(f"{path}: duplicate node id {dup!r}")
    return node_ids, has_ts


def write_csv(data: SensorDataset, path: str | Path) -> None:
    """Write a dataset in the format load_csv reads, with full float precision."""
    header = list(data.node_ids)
    columns = [_number_cells(column) for column in data.values.T]
    if data.timestamps is not None:
        header.insert(0, "timestamp")
        columns.insert(0, map(repr, data.timestamps))
    _write_columns(path, header, columns)


# Lines of a CSV, and rows of each of its columns, that exist as Python objects at once while it is written.
_CHUNK_ROWS = 256


def _python_values(column: np.ndarray) -> Iterable:
    """The column's values as plain Python numbers, converted `_CHUNK_ROWS` at a time."""
    return itertools.chain.from_iterable(
        column[i : i + _CHUNK_ROWS].tolist() for i in range(0, len(column), _CHUNK_ROWS)
    )


def _number_cells(column: np.ndarray) -> Iterable[str]:
    """Cell text of a numeric column: `repr` of each Python int or float."""
    return map(repr, _python_values(column))


def _distinct_cells(column: np.ndarray, blank: np.ndarray | None = None) -> Iterable[str]:
    """`_number_cells` of an integer, boolean (as 0 and 1) or float64 column, "" where `blank` is true.

    Each distinct value is formatted once. Floats are told apart by their
    bits, so 0.0 and -0.0 keep their own text.
    """
    if column.dtype.kind == "b":
        column = column.astype(np.int64)
    floats = column.dtype.kind == "f"
    # With return_inverse, np.unique never imports numpy.ma; its plain call does.
    values, index = np.unique(column.view(np.int64) if floats else column, return_inverse=True)
    cells = [*map(repr, (values.view(np.float64) if floats else values).tolist()), ""]
    if blank is not None:
        index = np.where(blank, len(values), index)
    return _indexed_cells(cells, index)


def _indexed_cells(cells: Sequence[str], index: np.ndarray) -> Iterable[str]:
    """`cells[i]` for each i in `index`, so the text of a repeated value is made once."""
    return map(cells.__getitem__, _python_values(index))


def _label_cells(labels: Iterable[str], index: np.ndarray) -> Iterable[str]:
    """Cell text of `labels[i]` for each i in `index`, each distinct label quoted once."""
    return _indexed_cells([_quote(label) for label in labels], index)


def _quote(text: str) -> str:
    """Minimal csv quoting: wrap in quotes, doubling inner ones, if the text holds a comma, quote or newline."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_columns(path: str | Path, header: Iterable[str], columns: Iterable[Iterable[str]]) -> None:
    """Write a header and equal-length columns of cell text as the csv module's default dialect does.

    That is minimal quoting and "\\r\\n" after every line. Number cells never
    need quotes and `_label_cells` quotes label cells, so data lines are
    joined directly, and written `_CHUNK_ROWS` lines at a time.
    """
    lines = map(",".join, zip(*columns, strict=True))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        while block := list(itertools.islice(lines, _CHUNK_ROWS)):
            fh.write("\r\n".join(block) + "\r\n")


def standardize(data: SensorDataset) -> tuple[np.ndarray, Standardization]:
    """Center each column on its mean and scale to unit sample variance.

    Returns the standardized matrix and the fitted parameters. A column
    with zero sample variance is a hard error naming the node; callers may
    drop that node explicitly instead.
    """
    means = data.values.mean(axis=0)
    variances = data.values.var(axis=0, ddof=1)
    for j, v in enumerate(variances):
        if v <= 0.0:
            raise ValueError(f"node {data.node_ids[j]!r} has zero variance; drop it before standardizing")
    std = Standardization(means, variances)
    xbar = (data.values - means) / np.sqrt(variances)
    return xbar, std


def fit_discretization(data: SensorDataset, state_count: int = 3) -> DiscretizationScheme:
    """Fit equal-width bins over each training column's [min, max] range."""
    lo, hi = data.values.min(axis=0), data.values.max(axis=0)
    bad = np.flatnonzero(lo >= hi)
    if bad.size:
        j = bad[0]
        raise ValueError(f"node {data.node_ids[j]!r} has degenerate range [{lo[j]}, {hi[j]}]")
    return DiscretizationScheme(np.linspace(lo, hi, state_count + 1, axis=1)[:, 1:-1], state_count)


def discretize_row(row: np.ndarray, scheme: DiscretizationScheme) -> np.ndarray:
    """Map one raw sample onto states {1..K}; out-of-range values clamp to edge bins."""
    row = np.asarray(row, dtype=float)
    if row.shape != (scheme.n,):
        raise ValueError(f"row has shape {row.shape}, expected ({scheme.n},)")
    return _states(row[None], scheme)[0]


def discretize(data: SensorDataset, scheme: DiscretizationScheme) -> StateMatrix:
    """Map every sample onto the scheme's state alphabet."""
    if data.n != scheme.n:
        raise ValueError(f"dataset has {data.n} nodes but scheme covers {scheme.n}")
    return StateMatrix(_states(data.values, scheme), scheme.state_count)


def _states(values: np.ndarray, scheme: DiscretizationScheme) -> np.ndarray:
    """The states of every row of an m x n matrix, one column at a time."""
    # side='right' sends a value equal to an edge into the higher bin
    return 1 + np.column_stack([np.searchsorted(e, v, side="right") for e, v in zip(scheme.edges, values.T)])


def inject_errors(
    data: SensorDataset,
    rows: Iterable[int],
    pct: float,
    training_means: np.ndarray,
) -> SensorDataset:
    """Add per-node offsets mean_j * pct to every node of the selected rows.

    The offsets use the training-set means, not the means of `data`, so the
    same corruption can be applied to held-out test rows.
    """
    rows = sorted(set(int(r) for r in rows))
    if not rows:
        raise ValueError("no rows selected for injection")
    if rows[0] < 0 or rows[-1] >= data.m:
        bad = rows[0] if rows[0] < 0 else rows[-1]
        raise ValueError(f"row index {bad} out of range 0..{data.m - 1}")
    if pct < 0:
        raise ValueError(f"error percentage must be >= 0, got {pct}")
    means = np.asarray(training_means, dtype=float)
    if means.shape != (data.n,):
        raise ValueError(f"training_means has shape {means.shape}, expected ({data.n},)")
    values = data.values.copy()
    values[rows, :] += means * pct
    return SensorDataset(values, data.node_ids, data.timestamps)


# The copy profiles' signal levels 0.._LEVELS-1, the chance that a copied
# parent keeps its level from one step to the next, and copy-child's
# measurement noise.
_LEVELS, _STAY, _MEAS_NOISE = 3, 0.9, 0.05


def _markov_levels(rng: np.random.Generator, m: int) -> np.ndarray:
    """Level-switching process: keep the current level w.p. `_STAY`, else jump uniformly."""
    out = np.empty(m, dtype=np.int64)
    out[0] = rng.integers(_LEVELS)
    for t in range(1, m):
        if rng.random() < _STAY:
            out[t] = out[t - 1]
        else:
            step = rng.integers(1, _LEVELS)
            out[t] = (out[t - 1] + step) % _LEVELS
    return out


def _gen_correlated_drift(rng: np.random.Generator, m: int, n: int, latents: int = 2) -> np.ndarray:
    """Smooth latent signals mixed linearly into n channels plus channel noise of sd 0.25.

    Channels carry large baseline offsets, drawn from [20, 40), so that
    mean-proportional error injection produces visible shifts, mimicking
    slowly drifting temperature/humidity readings.
    """
    t = np.arange(m, dtype=float)
    lat = np.empty((m, latents))
    for l in range(latents):
        cycles = rng.uniform(3.0, 8.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        lat[:, l] = np.sin(2.0 * np.pi * cycles * t / m + phase)
    weights = rng.uniform(0.5, 1.5, size=(latents, n)) * rng.choice([-1.0, 1.0], size=(latents, n))
    offsets = rng.uniform(20.0, 40.0, size=n)
    return offsets + lat @ weights + 0.25 * rng.standard_normal((m, n))


def _copy_assignment(copies: Mapping[int, int] | None, n: int) -> dict[int, int]:
    if copies is None:
        copies = {1: 0} if n >= 2 else {}
    copies = {int(c): int(p) for c, p in copies.items()}
    for c, p in copies.items():
        if not (0 <= c < n and 0 <= p < n) or c == p or p in copies:
            raise ValueError(f"bad copy assignment {c} <- {p}")
    return copies


def _gen_copy_child(
    rng: np.random.Generator,
    m: int,
    n: int,
    copies: Mapping[int, int] | None = None,
    flip: float = 0.0,
    child_noise: float | None = None,
) -> np.ndarray:
    """Copy children re-reading designated parent nodes at the same instant.

    Parents of copies are persistent level-switchers (their own past
    predicts them, which keeps them inferable); remaining nodes draw
    independent levels each step so they carry no structure at all. With
    flip == 0 and child_noise == 0 a child column equals its parent column
    exactly; otherwise the child re-reads the parent's level signal with a
    per-sample flip probability and its own measurement noise (by default
    the other nodes', `_MEAS_NOISE`).
    """
    copies = _copy_assignment(copies, n)
    child_noise = _MEAS_NOISE if child_noise is None else child_noise
    parent_nodes = set(copies.values())

    signal = np.empty((m, n))
    for j in range(n):
        if j in copies:
            continue
        if j in parent_nodes:
            signal[:, j] = _markov_levels(rng, m).astype(float)
        else:
            signal[:, j] = rng.integers(0, _LEVELS, size=m).astype(float)
    values = np.empty((m, n))
    for j in range(n):
        if j not in copies:
            values[:, j] = signal[:, j] + _MEAS_NOISE * rng.standard_normal(m)
    for c, p in sorted(copies.items()):
        if flip == 0.0 and child_noise == 0.0:
            values[:, c] = values[:, p]
            continue
        child_sig = signal[:, p].copy()
        flip_mask = rng.random(m) < flip
        for t in np.nonzero(flip_mask)[0]:
            step = rng.integers(1, _LEVELS)
            child_sig[t] = (child_sig[t] + step) % _LEVELS
        values[:, c] = child_sig + child_noise * rng.standard_normal(m)
    return values


def _gen_lagged_copy(
    rng: np.random.Generator,
    m: int,
    n: int,
    copies: Mapping[int, int] | None = None,
    noise_frac: float = 0.0,
) -> np.ndarray:
    """Children repeat their parent's reading one step late; drivers are i.i.d. levels.

    noise_frac scales additive child noise relative to the driver signal's
    standard deviation ("signal scale").
    """
    copies = _copy_assignment(copies, n)

    # One extra leading step so the child has a parent value at t=0.
    steps = {p: rng.integers(0, _LEVELS, size=m + 1).astype(float) for p in set(copies.values())}
    values = np.empty((m, n))
    for j in range(n):
        if j in copies:
            continue
        if j in steps:
            values[:, j] = steps[j][1:]
        else:
            values[:, j] = rng.integers(0, _LEVELS, size=m).astype(float)
    for c, p in sorted(copies.items()):
        lagged = steps[p][:-1]
        if noise_frac == 0.0:
            values[:, c] = lagged
        else:
            sigma = noise_frac * float(np.std(steps[p][1:]))
            values[:, c] = lagged + sigma * rng.standard_normal(m)
    return values


_PROFILES = {
    "correlated-drift": _gen_correlated_drift,
    "copy-child": _gen_copy_child,
    "lagged-copy": _gen_lagged_copy,
}


# (test, rule) of each profile parameter's JSON value; the keys of a JSON object, the children of `copies`, are text.
_PARAM_RULES = {
    "latents": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "flip": (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]"),
    "child_noise": (lambda v: v is None or type(v) in (int, float) and v >= 0, "null or a number >= 0"),
    "noise_frac": (lambda v: type(v) in (int, float) and v >= 0, "a number >= 0"),
    "copies": (
        lambda v: v is None or isinstance(v, dict) and all(str(c).isdecimal() and type(p) is int for c, p in v.items()),
        "null or an object mapping node integers to node integers",
    ),
}


def _profile_generator(profile: str, params: Mapping[str, object]) -> Callable[..., np.ndarray]:
    """The generator of a named profile, once every key in params is one of its parameters and its value fits."""
    try:
        gen = _PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(_PROFILES)}") from None
    accepted = list(inspect.signature(gen).parameters)[3:]  # the parameters after rng, m and n
    for key, value in params.items():
        if key not in accepted:
            raise ValueError(f"--param {key!r} is not a parameter of profile {profile!r}: it takes {accepted}")
        test, rule = _PARAM_RULES[key]
        if not test(value):
            raise ValueError(f"--param {key!r} must be {rule}, got {value!r}")
    return gen


def synth_generate(seed: int, m: int, n: int, profile: str, **params) -> SensorDataset:
    """Generate a deterministic synthetic dataset for the named profile.

    Profiles: "correlated-drift" (latent smooth signals mixed into
    channels), "copy-child" (same-time copy nodes for static redundancy
    ground truth), "lagged-copy" (one-step-late copies for real-time
    redundancy ground truth).
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    gen = _profile_generator(profile, params)
    rng = np.random.default_rng(seed)
    values = gen(rng, m, n, **params)
    node_ids = tuple(f"node{j:02d}" for j in range(n))
    return SensorDataset(values, node_ids)
