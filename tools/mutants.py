"""Hand mutations of the source, each run against the tests that must fail on it.

Each entry of `MUTANTS` names a file, an exact old text in it, the text that
replaces it and the tests to run. For each entry the tool copies `src/`,
`tests/` and `pyproject.toml` into a temporary directory, makes the one
replacement there, runs `python -m pytest -x -q` on the entry's tests with
that copy's `src/` first on the path, and prints one JSON object mapping each
entry's name to "killed" (a test failed) or "survived" (every test passed):

    python3 tools/mutants.py

An old text that does not occur exactly once in its file is an error (exit 2),
reported before any test runs, so the list cannot rot silently. Any other pytest
exit (a usage error, no test collected) is reported as an error. The status is
1 unless every entry was killed. The checkout itself is never edited.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INGEST, CLI, ANOMALY = "src/sensorprep/ingest.py", "src/sensorprep/cli.py", "src/sensorprep/anomaly.py"
BAYESNET = "src/sensorprep/bayesnet.py"
TABLE_TESTS = ["tests/test_parsed_table.py"]

# name -> the file, its exact old text, the replacement, and the tests that must fail on the mutant.
MUTANTS = {
    "table-read-for-timestamped-csv": {
        "file": INGEST,
        "old": "if not has_ts and table.dtype == float",
        "new": "if table.dtype == float",
        "tests": TABLE_TESTS,
    },
    "table-of-any-shape": {
        "file": INGEST,
        "old": " and table.shape == (rows, len(node_ids)):",
        "new": ":",
        "tests": TABLE_TESTS,
    },
    "table-of-any-float-dtype": {
        "file": INGEST,
        "old": "table.dtype == float",
        "new": 'table.dtype.kind == "f"',
        "tests": TABLE_TESTS,
    },
    "table-saved-in-place": {
        "file": INGEST,
        "old": '''                np.save(fh, data.values, allow_pickle=False)
            os.replace(temporary, table_path)''',
        "new": "                np.save(table_path, data.values, allow_pickle=False)",
        "tests": ["tests/test_parsed_table.py::test_a_table_that_cannot_be_saved_leaves_no_file"],
    },
    "table-saved-for-timestamped-data": {
        "file": INGEST,
        "old": '''        if stamps is not None:
            return
''',
        "new": "",
        "tests": TABLE_TESTS,
    },
    "dataset-keeps-fortran-order": {
        "file": INGEST,
        "old": 'np.array(self.values, dtype=float, order="C")',
        "new": "np.array(self.values, dtype=float)",
        "tests": ["tests/test_parsed_table.py::test_the_table_is_np_save_of_the_values"],
    },
    "write-csv-takes-any-node-id": {
        "file": INGEST,
        "old": "for j, node in enumerate(data.node_ids):",
        "new": "for j, node in enumerate(()):",
        "tests": ["tests/test_csv_io.py::TestRoundTrip"],
    },
    "inject-takes-one-file-for-out-and-sidecar": {
        "file": CLI,
        "old": "if Path(args.out).resolve() == Path(args.sidecar).resolve():",
        "new": "if False:",
        "tests": ["tests/test_cli.py::TestPipeline::test_inject_rejects_one_file_for_out_and_sidecar"],
    },
    "dataset-takes-an-empty-node-id": {
        "file": INGEST,
        "old": 'if "" in self.node_ids:',
        "new": "if False:",
        "tests": ["tests/test_ingest.py::TestLoadCsv::test_header_cell_without_a_name"],
    },
    "uninferable-node-accused": {
        "file": ANOMALY,
        "old": "return ~self.uninferable & (self.predicted != self.observed)",
        "new": "return self.predicted != self.observed",
        "tests": ["tests/test_anomaly.py::TestTqBayesDetect::test_uninferable_nodes_never_abnormal"],
    },
    "report-of-any-shape": {
        "file": ANOMALY,
        "old": "if self.observed.shape != shape or self.predicted.shape != shape:",
        "new": "if False:",
        "tests": ["tests/test_anomaly.py::TestReportFile::test_states_of_another_shape_rejected"],
    },
    "unflagged-report-reads-uninferable": {
        "file": ANOMALY,
        "old": "else np.zeros(shape[1], dtype=bool)",
        "new": "else np.ones(shape[1], dtype=bool)",
        "tests": ["tests/test_anomaly.py::TestReportFile::test_round_trip"],
    },
    "predicted-states-from-zero": {
        "file": ANOMALY,
        "old": "return np.argmax(posterior, axis=1) + 1, posterior",
        "new": "return np.argmax(posterior, axis=1), posterior",
        "tests": ["tests/test_anomaly.py::TestNbPredictState"],
    },
    "worker-searches-at-lag-0": {
        "file": BAYESNET,
        "old": "pool.submit(_searched_network, states, max_parents, 1)",
        "new": "pool.submit(_searched_network, states, max_parents, 0)",
        "tests": ["tests/test_bayesnet.py::TestLearnNetworks::test_equals_the_two_learners",
                  "tests/test_trace_contract.py::test_learn_traces_every_span_on_the_calling_thread"],
    },
    "search-arrays-as-int8": {
        "file": BAYESNET,
        "old": "grid = windows.astype(np.int16) - 1",
        "new": "grid = windows.astype(np.int8) - 1",
        "tests": ["tests/test_bayesnet.py::TestLearnNetworks::test_tables_wider_than_int8_count_exactly"],
    },
    "empty-cells-scored-as-log-0": {
        "file": BAYESNET,
        "old": "    ratio += cells == 0\n",
        "new": "",
        "tests": ["tests/test_bayesnet.py::TestStackedSearch::test_loglik_kernel_equals_the_per_cell_terms"],
    },
    "picks-without-the-near-tie-scan": {
        "file": BAYESNET,
        "old": "for r in np.flatnonzero((top > 1e-12) & ~(top > runner_up + 1e-12)).tolist():",
        "new": "for r in []:",
        "tests": ["tests/test_bayesnet.py::TestStackedSearch::test_picks_hand_worked"],
    },
}


def mutated(mutant: dict, root: Path = ROOT) -> str:
    """The text of the mutant's file under `root` with its old text replaced: a ValueError unless it occurs once."""
    text = (root / mutant["file"]).read_text()
    count = text.count(mutant["old"])
    if count != 1:
        raise ValueError(f"{mutant['file']}: the old text occurs {count} times, not once: {mutant['old']!r}")
    return text.replace(mutant["old"], mutant["new"])


def outcome(mutant: dict) -> str:
    """Run the mutant's tests on a temporary copy with the mutant applied: "killed", "survived" or an error."""
    with tempfile.TemporaryDirectory(prefix="sensorprep-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        (copy / mutant["file"]).write_text(mutated(mutant))
        path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]],
            cwd=copy, env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True,
        )
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error: pytest exited {done.returncode}")


def main() -> int:
    try:
        for mutant in MUTANTS.values():
            mutated(mutant)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    results = {name: outcome(mutant) for name, mutant in MUTANTS.items()}
    print(json.dumps(results, indent=2))
    return 0 if set(results.values()) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main())
