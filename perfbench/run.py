"""Benchmark of the sensorprep CLI pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload detect-stream --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl
    python3 perfbench/run.py --self-test

A run drives `sensorprep.cli.main` from the checkout's `src/` inside this
one process, single-threaded, repeating the workload until `--seconds`
have passed (see bench.py). It prints every metric with its unit, then, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. The full record of the run (context, samples, every
metric, every check) is appended as one JSON line to `--out`, which
`--compare` reads. Spans of a traced run are written at exit to
`.perfbench/spans-<workload>.npz`. Scratch files live under `.perfbench/`
and are removed when the run ends.

Gated end-to-end metrics, reported by every workload (bench.END_TO_END):
setup_s (median time to make the inputs), pipeline_norm (median time of
the timed steps in units of the speed probe; see bench.probe_s),
peak_rss_mb, pass_share (passed attempts over attempts) and truth_recall
(row_recall, planted-copy sleep fraction or static pair recall). Raw
seconds, the rows per second of the main step (detect, redundancy-realtime
or redundancy-static) and each workload's quality numbers are printed and
recorded beside them (bench.DETAIL).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"


def _print_record(record: dict, ctx: dict) -> None:
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} reps={record['reps']} "
        + " ".join(f"{k}={v}" for k, v in ctx.items())
    )
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:8s} {m['better']}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['check']}: {check['detail']}")


def _run_one(args) -> int:
    import bench

    workload = WORKLOADS[args.workload]
    ctx = bench.context(ROOT)
    work = STATE / f"work-{os.getpid()}"
    try:
        record, tracer = bench.measure(workload, workload.full, args.seed, args.seconds, bool(args.trace), work)
        if tracer is not None:
            tracer.save(STATE / f"spans-{workload.name}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["context"] = ctx
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    _print_record(record, ctx)
    print(json.dumps(record["result"], sort_keys=True))
    return 0


def _run_all(args) -> int:
    """One process per workload, each printing its own report."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(STATE / "results.jsonl"), help="JSON-lines file the run record is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two result files")
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself at tiny scale")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare)
    if not (ROOT / "src" / "sensorprep" / "cli.py").is_file():
        print(f"perfbench: no sensorprep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread keeps timings steady and never exceeds nproc; set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        from selftest import self_test

        return self_test(ROOT, STATE / f"selftest-{os.getpid()}")
    if args.workload is None:
        parser.error("one of --workload, --compare or --self-test is required")
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
