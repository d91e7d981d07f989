"""Compare two result files written by run.py (one JSON record per line).

For every workload, tracing mode and metric, prints the median, first and
third quartile and sample count of each file's values, and the ratio of the
medians (after / before).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path: str) -> tuple[dict, dict]:
    grouped: dict = defaultdict(lambda: defaultdict(list))
    specs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            for name, m in record["metrics"].items():
                grouped[key][name].append(m["value"])
                specs[name] = (m["unit"], m["better"])
    return grouped, specs


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _cell(values: list[float] | None) -> str:
    if not values:
        return f"{'-':>36s}"
    median, q1, q3 = _summary(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}".rjust(36)


def compare(before_path: str, after_path: str) -> int:
    before, specs = _load(before_path)
    after, after_specs = _load(after_path)
    specs.update(after_specs)
    for workload, trace in sorted(set(before) | set(after)):
        print(f"{workload} (trace {trace})")
        print(f"  {'metric':44s} {'unit':8s} {'better':6s} {'before: median [q1, q3]':>36s} {'after: median [q1, q3]':>36s}  ratio")
        names = list(dict.fromkeys([*before[(workload, trace)], *after[(workload, trace)]]))
        for name in names:
            a = before[(workload, trace)].get(name)
            b = after[(workload, trace)].get(name)
            ratio = "-"
            if a and b and _summary(a)[0] != 0:
                ratio = f"{_summary(b)[0] / _summary(a)[0]:.4f}"
            unit, better = specs[name]
            print(f"  {name:44s} {unit:8s} {better:6s} {_cell(a)} {_cell(b)}  {ratio}")
    return 0
