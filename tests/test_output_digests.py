"""tools/output_digests.py: one digest map of every workload output, independent of where it ran."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"


def digests(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(TOOL), "--size", "tiny", *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_two_runs_in_different_directories_print_the_same_map():
    first = digests("--seed", "3")
    assert first == digests("--seed", "3")
    for workload in ("detect-stream", "realtime-slices", "learn-static"):
        exits = {k: v for k, v in first.items() if k.startswith(f"{workload}/exit/")}
        assert exits and set(exits.values()) == {0}
        assert len([k for k in first if k.startswith(f"{workload}/stdout/")]) == len(exits)
    assert "realtime-slices/out/redundancy_realtime.csv" in first
    assert "learn-static/out/static_network.json" in first


def test_the_seed_selects_the_inputs():
    inputs = "learn-static/inputs/data.csv"
    assert digests("--seed", "4")[inputs] != digests("--seed", "5")[inputs]
