"""SHA-256 digests of everything the benchmark workloads write.

Runs each workload of `perfbench/workloads.py` (its `setup` commands, then
its `steps`) through `sensorprep.cli.main` from this checkout's `src/`, in a
fresh temporary directory, and prints one JSON object mapping

    <workload>/<file path>          -> digest of every file left behind
    <workload>/stdout/<i>-<command> -> digest of the i-th command's stdout
    <workload>/exit/<i>-<command>   -> the command's exit code

The temporary directory's path is replaced by `<dir>` in file contents and
stdout before hashing, so two checkouts run at the same seed and size
print the same map exactly when their outputs are byte-identical:

    (cd ../parent && python3 tools/output_digests.py --seed 58) > before.json
    python3 tools/output_digests.py --seed 58 --diff before.json

With `--diff BEFORE.json` (a map this tool printed, at the same seed and
size) it prints only the keys whose digest changed, appeared or
disappeared, as one JSON object mapping each to `[before, after]`, with
null on the side that lacks it: `{}` when every output is byte-identical.

The exit status is 1 if any command exited non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _invoke(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _digest(data: bytes, root: Path) -> str:
    return hashlib.sha256(data.replace(str(root).encode(), b"<dir>")).hexdigest()


def workload_digests(cli, workload, seed: int, size) -> dict[str, object]:
    """Run one workload's setup and steps in a temporary directory; digest what they wrote and printed."""
    found: dict[str, object] = {}
    with tempfile.TemporaryDirectory(prefix="sensorprep-digests-") as tmp:
        root = Path(tmp)
        inputs, out = root / "inputs", root / "out"
        inputs.mkdir()
        out.mkdir()
        commands = workload.setup(seed, inputs, size) + workload.steps(inputs, out, size)
        for i, argv in enumerate(commands):
            code, stdout = _invoke(cli, argv)
            found[f"{workload.name}/exit/{i}-{argv[0]}"] = code
            found[f"{workload.name}/stdout/{i}-{argv[0]}"] = _digest(stdout.encode(), root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            found[f"{workload.name}/{path.relative_to(root).as_posix()}"] = _digest(path.read_bytes(), root)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="the workloads' full or tiny inputs")
    parser.add_argument("--diff", metavar="BEFORE.json", help="print only the keys that differ from this map")
    args = parser.parse_args(argv)
    before = json.loads(Path(args.diff).read_text()) if args.diff else None
    # One BLAS thread, as the benchmark runs; set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from sensorprep import cli
    from workloads import WORKLOADS

    found: dict[str, object] = {}
    for workload in WORKLOADS.values():
        found.update(workload_digests(cli, workload, args.seed, getattr(workload, args.size)))
    shown = found if before is None else {
        k: [before.get(k), found.get(k)] for k in before.keys() | found.keys() if before.get(k) != found.get(k)
    }
    print(json.dumps(shown, indent=1, sort_keys=True))
    return 1 if any(v != 0 for k, v in found.items() if "/exit/" in k) else 0


if __name__ == "__main__":
    sys.exit(main())
