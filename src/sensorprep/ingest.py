"""Sensor dataset loading, synthesis, standardization, discretization, and error injection.

Every other module consumes the types defined here. Datasets are dense
real-valued matrices (m samples x n nodes); discrete state matrices use the
1-based alphabet {1..K}.
"""

from __future__ import annotations

import csv
import inspect
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SensorDataset",
    "Standardization",
    "DiscretizationScheme",
    "StateMatrix",
    "load_csv",
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
        if self.means.shape != self.variances.shape or self.means.ndim != 1:
            raise ValueError("means and variances must be equal-length vectors")
        if not (self.variances > 0).all():
            raise ValueError("variances must be strictly positive")

    @property
    def n(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class DiscretizationScheme:
    """Per-node interior bin edges mapping reals onto states {1..K}.

    Each node carries exactly K-1 strictly increasing edges; values below
    the first edge map to state 1, values at or above the last edge map to
    state K, and a value equal to an edge goes to the higher bin.
    """

    edges: tuple[np.ndarray, ...]
    state_count: int

    def __post_init__(self) -> None:
        if self.state_count < 2:
            raise ValueError(f"state_count must be >= 2, got {self.state_count}")
        edges = tuple(np.array(e, dtype=float) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for j, e in enumerate(edges):
            if e.shape != (self.state_count - 1,):
                raise ValueError(f"node {j}: expected {self.state_count - 1} edges, got {e.shape}")
            if not (np.diff(e) > 0).all():
                raise ValueError(f"node {j}: edges must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class StateMatrix:
    """Discrete m x n matrix over {1..K} plus the scheme that produced it."""

    states: np.ndarray
    scheme: DiscretizationScheme

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=np.int64)
        object.__setattr__(self, "states", states)
        if states.ndim != 2:
            raise ValueError("states must be a 2-D matrix")
        k = self.scheme.state_count
        if states.size and (states.min() < 1 or states.max() > k):
            raise ValueError(f"states must lie in 1..{k}")

    @property
    def m(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def state_count(self) -> int:
        return self.scheme.state_count


def load_csv(path: str | Path) -> SensorDataset:
    """Load a dataset from UTF-8 comma-separated text (a leading byte-order mark is skipped).

    First row is the header of node ids; an optional leading column named
    "timestamp" holds integer epoch seconds. Any cell that does not parse
    as a finite real is an error naming its (1-based) data row and column.

    The body is parsed by one `np.loadtxt` call. When that call fails, or
    its result could differ from parsing cell by cell (a skipped blank
    line, a non-finite value), the body is parsed again cell by cell, which
    accepts what Python's `float`/`int` accept and names the first bad cell.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        has_ts = bool(header) and header[0] == "timestamp"
        node_ids = header[1:] if has_ts else header
        if not node_ids:
            raise ValueError(f"{path}: header contains no node ids")
        dup = _first_duplicate(node_ids)
        if dup is not None:
            raise ValueError(f"{path}: duplicate node id {dup!r}")

        body = _parse_bulk(fh, len(node_ids), has_ts)
        if body is None:
            fh.seek(0)
            next(reader)  # back to the first data row
            body = _parse_cells(reader, path, len(header), node_ids, has_ts)
    values, stamps = body
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(values)}")
    return SensorDataset(values, tuple(node_ids), stamps)


def _parse_bulk(lines: Iterable[str], width: int, has_ts: bool) -> tuple[np.ndarray, tuple[int, ...] | None] | None:
    """Parse every remaining line with one `np.loadtxt` call.

    Returns None unless the result is exactly what `_parse_cells` would
    return: one row per line (loadtxt skips blank lines, which are an
    error), `width` finite values per row, and integer timestamps.
    """
    fields = [("timestamp", np.int64)] if has_ts else []
    dtype = np.dtype(fields + [("values", np.float64, (width,))])
    seen = itertools.count()  # advanced once per line handed to loadtxt
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(
                (line for line, _ in zip(lines, seen)), dtype=dtype, delimiter=",", comments=None, ndmin=2
            )
    except ValueError:
        return None
    table = table[:, 0]
    values = table["values"]
    if len(table) != next(seen) or not np.isfinite(values).all():
        return None
    return values, tuple(table["timestamp"].tolist()) if has_ts else None


def _parse_cells(
    reader: Iterable[list[str]], path: Path, width: int, node_ids: list[str], has_ts: bool
) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Parse the data rows one cell at a time; the first bad cell is a ValueError naming it."""
    rows: list[list[float]] = []
    stamps: list[int] = []
    for r, record in enumerate(reader, start=1):
        if len(record) != width:
            raise ValueError(f"{path}: row {r} has {len(record)} cells, expected {width}")
        if has_ts:
            try:
                stamps.append(int(record[0]))
            except ValueError:
                raise ValueError(f"{path}: row {r}, column 'timestamp': bad integer {record[0]!r}") from None
        cells = record[1:] if has_ts else record
        parsed = []
        for j, cell in enumerate(cells):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {r}, column {node_ids[j]!r}: not a number ({cell!r})") from None
            if not math.isfinite(v):
                raise ValueError(f"{path}: row {r}, column {node_ids[j]!r}: non-finite value ({cell!r})")
            parsed.append(v)
        rows.append(parsed)
    return np.array(rows), tuple(stamps) if has_ts else None


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


def _number_cells(column: np.ndarray, blank: np.ndarray | None = None) -> Iterable[str]:
    """Cell text of a numeric column: `repr` of each Python int or float, "" where `blank` is true."""
    text = map(repr, _python_values(column))
    if blank is None:
        return text
    # A string times True is itself, and times False is "".
    return map(operator.mul, text, _python_values(~blank))


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
    if state_count < 2:
        raise ValueError(f"state_count must be >= 2, got {state_count}")
    lo, hi = data.values.min(axis=0), data.values.max(axis=0)
    bad = np.flatnonzero(lo >= hi)
    if bad.size:
        j = bad[0]
        raise ValueError(f"node {data.node_ids[j]!r} has degenerate range [{lo[j]}, {hi[j]}]")
    return DiscretizationScheme(tuple(np.linspace(lo, hi, state_count + 1, axis=1)[:, 1:-1]), state_count)


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
    return StateMatrix(_states(data.values, scheme), scheme)


def _states(values: np.ndarray, scheme: DiscretizationScheme) -> np.ndarray:
    """The states of every row of an m x n matrix, one column at a time."""
    states = np.empty(values.shape, dtype=np.int64)
    for j in range(scheme.n):
        # side='right' sends a value equal to an edge into the higher bin
        states[:, j] = 1 + np.searchsorted(scheme.edges[j], values[:, j], side="right")
    return states


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


def _markov_levels(rng: np.random.Generator, m: int, levels: int, stay: float) -> np.ndarray:
    """Level-switching process: keep the current level w.p. `stay`, else jump uniformly."""
    out = np.empty(m, dtype=np.int64)
    out[0] = rng.integers(levels)
    for t in range(1, m):
        if rng.random() < stay:
            out[t] = out[t - 1]
        else:
            step = rng.integers(1, levels)
            out[t] = (out[t - 1] + step) % levels
    return out


def _gen_correlated_drift(
    rng: np.random.Generator,
    m: int,
    n: int,
    latents: int = 2,
    noise: float = 0.25,
    offset_low: float = 20.0,
    offset_high: float = 40.0,
) -> np.ndarray:
    """Smooth latent signals mixed linearly into n channels plus channel noise.

    Channels carry large baseline offsets so that mean-proportional error
    injection produces visible shifts, mimicking slowly drifting
    temperature/humidity readings.
    """
    t = np.arange(m, dtype=float)
    lat = np.empty((m, latents))
    for l in range(latents):
        cycles = rng.uniform(3.0, 8.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        lat[:, l] = np.sin(2.0 * np.pi * cycles * t / m + phase)
    weights = rng.uniform(0.5, 1.5, size=(latents, n)) * rng.choice([-1.0, 1.0], size=(latents, n))
    offsets = rng.uniform(offset_low, offset_high, size=n)
    return offsets + lat @ weights + noise * rng.standard_normal((m, n))


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
    levels: int = 3,
    stay: float = 0.9,
    flip: float = 0.0,
    meas_noise: float = 0.05,
    child_noise: float | None = None,
) -> np.ndarray:
    """Copy children re-reading designated parent nodes at the same instant.

    Parents of copies are persistent level-switchers (their own past
    predicts them, which keeps them inferable); remaining nodes draw
    independent levels each step so they carry no structure at all. With
    flip == 0 and child_noise == 0 a child column equals its parent column
    exactly; otherwise the child re-reads the parent's level signal with a
    per-sample flip probability and its own measurement noise.
    """
    copies = _copy_assignment(copies, n)
    if child_noise is None:
        child_noise = meas_noise
    parent_nodes = set(copies.values())

    signal = np.empty((m, n))
    for j in range(n):
        if j in copies:
            continue
        if j in parent_nodes:
            signal[:, j] = _markov_levels(rng, m, levels, stay).astype(float)
        else:
            signal[:, j] = rng.integers(0, levels, size=m).astype(float)
    values = np.empty((m, n))
    for j in range(n):
        if j not in copies:
            values[:, j] = signal[:, j] + meas_noise * rng.standard_normal(m)
    for c, p in sorted(copies.items()):
        if flip == 0.0 and child_noise == 0.0:
            values[:, c] = values[:, p]
            continue
        child_sig = signal[:, p].copy()
        flip_mask = rng.random(m) < flip
        for t in np.nonzero(flip_mask)[0]:
            step = rng.integers(1, levels)
            child_sig[t] = (child_sig[t] + step) % levels
        values[:, c] = child_sig + child_noise * rng.standard_normal(m)
    return values


def _gen_lagged_copy(
    rng: np.random.Generator,
    m: int,
    n: int,
    copies: Mapping[int, int] | None = None,
    levels: int = 3,
    noise_frac: float = 0.0,
) -> np.ndarray:
    """Children repeat their parent's reading one step late; drivers are i.i.d. levels.

    noise_frac scales additive child noise relative to the driver signal's
    standard deviation ("signal scale").
    """
    copies = _copy_assignment(copies, n)

    # One extra leading step so the child has a parent value at t=0.
    steps = {p: rng.integers(0, levels, size=m + 1).astype(float) for p in set(copies.values())}
    values = np.empty((m, n))
    for j in range(n):
        if j in copies:
            continue
        if j in steps:
            values[:, j] = steps[j][1:]
        else:
            values[:, j] = rng.integers(0, levels, size=m).astype(float)
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


def _profile_generator(profile: str, params: Iterable[str]) -> Callable[..., np.ndarray]:
    """The generator of a named profile, once every key in params is one of its parameters."""
    try:
        gen = _PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(_PROFILES)}") from None
    accepted = list(inspect.signature(gen).parameters)[3:]  # the parameters after rng, m and n
    for key in params:
        if key not in accepted:
            raise ValueError(f"--param {key!r} is not a parameter of profile {profile!r}: it takes {accepted}")
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
