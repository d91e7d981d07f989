"""Self-tests of the benchmark, run at tiny scale by `run.py --self-test`.

Checks that BENCHMARK.json declares exactly the metrics the harness emits,
that every workload emits each of them with its declared unit, that traced
call counts repeat exactly across two traced runs, and that no span's self
time exceeds its duration or drops below zero.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from bench import END_TO_END, measure, per_layer_specs
from workloads import WORKLOADS


def self_test(root: Path, work: Path) -> int:
    failures = 0

    def expect(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok or not detail else f": {detail}"))

    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    expect("BENCHMARK.json end_to_end matches the harness", e2e == END_TO_END, f"{e2e} != {END_TO_END}")
    expect("BENCHMARK.json per_layer matches the harness", layers == per_layer_specs())
    expect(
        "BENCHMARK.json workloads match the harness",
        [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
        and all(w["why"] == WORKLOADS[w["name"]].why for w in declared["workloads"]),
    )

    def units(record: dict) -> dict[str, str]:
        return {name: m["unit"] for name, m in record["result"]["metrics"].items()}

    try:
        for name, workload in WORKLOADS.items():
            plain, _ = measure(workload, workload.tiny, 1, 0, False, work / name / "plain")
            expect(f"{name}: every end-to-end metric emitted with its unit", units(plain) == {n: u for n, (u, _) in e2e.items()})
            failed = [c for c in plain["checks"] if not c["ok"]]
            expect(f"{name}: outputs pass their checks", not failed, str(failed))

            traced = [measure(workload, workload.tiny, 1, 0, True, work / name / f"traced{i}") for i in range(2)]
            for record, _ in traced:
                expect(
                    f"{name}: every per-layer metric emitted with its unit",
                    units(record) == {n: u for n, (u, _) in layers.items()},
                )
            counts = [
                {n: m["value"] for n, m in record["result"]["metrics"].items() if m["unit"] != "s"}
                for record, _ in traced
            ]
            moved = {n: (counts[0][n], counts[1][n]) for n in counts[0] if counts[0][n] != counts[1][n]}
            expect(f"{name}: traced call counts repeat exactly across two traced runs", not moved, str(moved))
            for record, tracer in traced:
                duration, self_time = tracer.self_times()
                expect(
                    f"{name}: no self time exceeds its span ({duration.size} spans)",
                    duration.size > 0 and bool(np.all(self_time <= duration)) and bool(np.all(self_time >= -1e-9)),
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"self-test: {failures} failed")
    return 1 if failures else 0
