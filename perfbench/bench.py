"""One benchmark run: a workload driven through `sensorprep.cli.main`.

Each repetition makes the workload's inputs from the seed (set-up) and runs
the workload's timed CLI steps (the pipeline) on them, in a fresh
directory. Repetitions continue until the run's seconds have passed, so
set-ups and pipelines are both sampled across the whole run: on a shared
virtual machine speed drifts over seconds, and spreading the samples keeps
their medians steadier. The first repetition's outputs give the quality numbers and checks;
every later repetition must write byte-identical inputs and outputs. Every
CLI exit status and every check counts as one attempt; a failure is
counted, never raised, so the run always reports.

Untraced repetitions give the end-to-end metrics. With tracing on,
untraced and traced repetitions alternate; traced ones give the per-layer
metrics of set-up and pipeline, and the gap between traced and untraced
pipeline time is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import TRACED, Tracer
from workloads import Size, Workload

MIN_REPS = 5  # repetitions per run at least, untraced and (with --trace 1) traced each

COMMANDS = ("synth", "inject", "learn", "detect", "evaluate", "redundancy-realtime", "redundancy-static")

# Gated end-to-end metrics; every workload reports each of them. Pipeline
# time is gated in units of the speed probe (see probe_s); raw seconds, and
# the main step's rows per second, are reported beside it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_norm": ("probe", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_share": ("share", "higher"),
    "truth_recall": ("share", "higher"),
}

# Workload-specific numbers reported beside them under their own names.
DETAIL = {
    "pipeline_s": ("s", "lower"),
    "probe_ms": ("ms", "lower"),
    "learn_s": ("s", "lower"),
    "detect_rows_per_s": ("rows/s", "higher"),
    "realtime_rows_per_s": ("rows/s", "higher"),
    "static_rows_per_s": ("rows/s", "higher"),
    "failed_share": ("share", "lower"),
    "row_precision": ("share", "higher"),
    "row_recall": ("share", "higher"),
    "node_precision": ("share", "higher"),
    "node_recall": ("share", "higher"),
    "clean_flag_rate": ("share", "lower"),
    "sleep_fraction": ("share", "higher"),
    "sleep_fraction_planted": ("share", "higher"),
    "recovery_rmse": ("reading", "lower"),
    "static_pair_recall": ("share", "higher"),
}


def per_layer_specs() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in the order they are listed."""
    extras = {
        "ingest.load_csv": {"ingest.load_csv.bytes": ("bytes", "lower")},
        "bayesnet.repair_cycles": {"bayesnet.repair_cycles.edges_removed": ("count", "lower")},
        "metrics.precision_recall": {"metrics.precision_recall.universe_size": ("count", "lower")},
    }
    module_extras = {
        "anomaly": {"anomaly.flagged_share": ("share", "lower")},
        "redundancy": {"redundancy.sleep_ratio": ("share", "higher")},
    }
    specs: dict[str, tuple[str, str]] = {}
    for module, functions in TRACED.items():
        for fn in functions:
            name = f"{module}.{fn}"
            specs[f"{name}.calls"] = ("count", "lower")
            specs[f"{name}.self_s"] = ("s", "lower")
            specs.update(extras.get(name, {}))
        specs.update(module_extras.get(module, {}))
    for command in COMMANDS:
        specs[f"cli.{command}.self_s"] = ("s", "lower")
        specs[f"cli.{command}.bytes_written"] = ("bytes", "lower")
    specs["trace.spans"] = ("count", "lower")
    specs["trace.overhead_s"] = ("s", "lower")
    return specs


_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.integers(0, 27, 60)
_PROBE_LARGE = _PROBE_RNG.integers(0, 81, 40_000)
_PROBE_ROWS = [{"t": i, "node": i % 40, "estimate": i * 0.5, "actual": i * 0.25} for i in range(1000)]


def probe_s() -> float:
    """Time a fixed mix of the kinds of work the pipelines do (the speed probe).

    Small and large numpy counts, interpreter loops, JSON encoding and float
    formatting, in about equal shares.

    On a shared 2-vCPU x86-64 virtual machine, speed drifts by 20-40% over
    seconds to minutes (a fixed loop's per-second median ranged 19-29 ms).
    Over ten 35-second runs per workload there, the interquartile range of
    median pipeline seconds was 12-14% of the median; divided by the probe
    time measured around each step it was 4-8%. The probe runs no sensorprep
    code, so the ratio still moves with any change to sensorprep itself.
    """
    start = perf_counter()
    total = 0
    for _ in range(10_000):
        total += int(np.bincount(_PROBE_SMALL, minlength=27)[0])
    for _ in range(6_000):
        total += sum(j * j for j in range(20))
    for _ in range(100):
        total += int(np.bincount(_PROBE_LARGE, minlength=81)[0])
    total += len(json.dumps(_PROBE_ROWS, sort_keys=True, indent=2))
    total += len(",".join(repr(x * 0.1) for x in range(10_000)))
    return perf_counter() - start


def context(root: Path) -> dict:
    """Where and on what the run happened."""
    sha = "unknown"
    if (root / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            sha = done.stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with path.open("rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "src_lines": src_lines,
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def _files(d: Path) -> dict[str, tuple[int, int]]:
    out = {}
    for path in d.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[str(path.relative_to(d))] = (st.st_size, st.st_mtime_ns)
    return out


def _digests(d: Path) -> dict[str, str]:
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in sorted(_files(d))}


class Run:
    """Attempts and checks of one benchmark run."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.checks: list[dict] = []
        self.probes: list[float] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": "" if ok else detail})

    def invoke(self, argv: list[str], d: Path, tracer: Tracer | None) -> tuple[float, int]:
        """Run one CLI command writing into `d`; return its wall time and the bytes it left there."""
        before = _files(d)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            with tracer.span(f"cli.{argv[0]}") if tracer else nullcontext():
                start = perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    code = exc.code if isinstance(exc.code, int) else 2
                seconds = perf_counter() - start
        self.check(f"{argv[0]} exits 0", code == 0, sink.getvalue()[-500:])
        after = _files(d)
        written = sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))
        return seconds, written

    def commands(
        self, commands: list[list[str]], d: Path, tracer: Tracer | None, probe: bool = False
    ) -> tuple[dict, dict, dict]:
        """Run CLI commands in order; return seconds, probe-normalized time and bytes written per command.

        With `probe`, the speed probe runs before the first command and after
        each one; a command's normalized time is its seconds over the mean of
        the probe times on either side of it.
        """
        d.mkdir(parents=True, exist_ok=True)
        seconds: dict[str, float] = {}
        normalized: dict[str, float] = {}
        written: dict[str, int] = {}
        before = probe_s() if probe else 0.0
        for argv in commands:
            seconds[argv[0]], written[argv[0]] = self.invoke(argv, d, tracer)
            if probe:
                after = probe_s()
                normalized[argv[0]] = seconds[argv[0]] / ((before + after) / 2)
                self.probes.append(after)
                before = after
        return seconds, normalized, written

    def same_files(self, what: str, d: Path, reference: dict[str, str]) -> None:
        digests = _digests(d)
        changed = sorted(k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k))
        self.check(f"{what} identical to the first", not changed, f"differ: {changed}")


def _layer_values(tracer: Tracer, run_id: int, written: dict[str, int]) -> dict[str, float]:
    totals = tracer.totals(run_id)
    counters = {key: value for (rid, key), value in tracer.counters.items() if rid == run_id}
    values: dict[str, float] = {}
    for module, functions in TRACED.items():
        for fn in functions:
            calls, busy = totals.get(f"{module}.{fn}", (0, 0.0))
            values[f"{module}.{fn}.calls"] = calls
            values[f"{module}.{fn}.self_s"] = busy
    for key in ("ingest.load_csv.bytes", "bayesnet.repair_cycles.edges_removed", "metrics.precision_recall.universe_size"):
        values[key] = int(counters.get(key, 0))
    screened = counters.get("anomaly.screened", 0)
    values["anomaly.flagged_share"] = counters.get("anomaly.flagged", 0) / screened if screened else 0.0
    entries = counters.get("redundancy.entries", 0)
    values["redundancy.sleep_ratio"] = counters.get("redundancy.sleeping", 0) / entries if entries else 0.0
    for command in COMMANDS:
        values[f"cli.{command}.self_s"] = totals.get(f"cli.{command}", (0, 0.0))[1]
        values[f"cli.{command}.bytes_written"] = written.get(command, 0)
    values["trace.spans"] = tracer.spans_in(run_id)
    return values


def measure(
    workload: Workload, size: Size, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[dict, Tracer | None]:
    """Repeat set-up and pipeline until `seconds` have passed; return the record and tracer."""
    from sensorprep import cli

    run = Run(cli)
    tracer = Tracer() if trace else None
    samples: dict[str, list[float]] = defaultdict(list)
    layers: list[dict[str, float]] = []
    reference: dict[str, dict[str, str]] = {}
    quality: dict[str, float] = {}
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    deadline = perf_counter() + seconds
    rep = 0
    while rep < min_reps or perf_counter() < deadline:
        traced = trace and rep % 2 == 1
        inputs, out = work / f"rep{rep}" / "inputs", work / f"rep{rep}" / "out"
        if traced:
            tracer.run_id = rep
            tracer.install()
        try:
            setup_s, _, written = run.commands(workload.setup(seed, inputs, size), inputs, tracer if traced else None)
            step_s, step_norm, step_written = run.commands(
                workload.steps(inputs, out, size), out, tracer if traced else None, probe=not traced
            )
        finally:
            if traced:
                tracer.uninstall()
        if not reference:
            reference = {"inputs": _digests(inputs), "outputs": _digests(out)}
            try:
                quality, quality_checks = workload.quality(out, size)
            except Exception as exc:  # a broken output must be counted, not end the run
                quality_checks = [("quality outputs readable", False, f"{type(exc).__name__}: {exc}")]
            for name, ok, detail in quality_checks:
                run.check(name, ok, detail)
        else:
            run.same_files("set-up inputs", inputs, reference["inputs"])
            run.same_files("pipeline outputs", out, reference["outputs"])
        shutil.rmtree(work / f"rep{rep}")
        pipeline_s = sum(step_s.values())
        if traced:
            samples["traced_pipeline_s"].append(pipeline_s)
            layers.append(_layer_values(tracer, rep, {**written, **step_written}))
        else:
            samples["setup_s"].append(sum(setup_s.values()))
            samples["pipeline_s"].append(pipeline_s)
            samples["pipeline_norm"].append(sum(step_norm.values()))
            for step, value in step_s.items():
                samples[f"{step}_s"].append(value)
        rep += 1

    median = {key: statistics.median(values) for key, values in samples.items()}
    layer_metrics = {}
    if trace:
        for name, (unit, better) in per_layer_specs().items():
            if name == "trace.overhead_s":
                value = median["traced_pipeline_s"] - median["pipeline_s"]
            else:
                values = [rep_values[name] for rep_values in layers]
                if unit != "s":
                    run.check(f"{name} repeats exactly across traced repetitions", len(set(values)) == 1, str(values))
                value = statistics.median(values) if unit == "s" else values[0]
            layer_metrics[name] = {"value": value, "unit": unit, "better": better}

    attempted = len(run.checks)
    failed = sum(not c["ok"] for c in run.checks)
    e2e = {
        "setup_s": median["setup_s"],
        "pipeline_norm": median["pipeline_norm"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": 1.0 - failed / attempted,
        "truth_recall": quality.get(workload.truth_metric, 0.0),
    }
    detail = {
        "pipeline_s": median["pipeline_s"],
        "probe_ms": 1000.0 * statistics.median(run.probes),
        workload.rate_metric: workload.stage_rows(size) / median[f"{workload.stage}_s"],
        "failed_share": failed / attempted,
        **quality,
    }
    if "learn_s" in median:
        detail["learn_s"] = median["learn_s"]
    metrics = {name: {"value": e2e[name], "unit": unit, "better": better} for name, (unit, better) in END_TO_END.items()}
    for name, (unit, better) in DETAIL.items():
        if name in detail:
            metrics[name] = {"value": detail[name], "unit": unit, "better": better}
    metrics.update(layer_metrics)
    reported = layer_metrics if trace else {name: metrics[name] for name in END_TO_END}

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "reps": rep,
        "samples": dict(samples),
        "metrics": metrics,
        "checks": run.checks,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in reported.items()},
        },
    }
    return record, tracer
