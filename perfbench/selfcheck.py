"""Fast self-check of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. For every workload it runs a tiny
pool once untraced and once traced, and asserts that every metric named in
BENCHMARK.json is emitted, that every span the workload is meant to exercise
fires (calls > 0), and that the traced run writes byte-identical reports and
instance files. Exits 1 and lists the problems if any assertion fails.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def check(name: str, spec: dict) -> list[str]:
    problems = []
    plain = run.measure(name, seed=1, seconds=0.0, trace=False, tiny=True)
    traced = run.measure(name, seed=1, seconds=0.0, trace=True, tiny=True)
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        missing = {m["name"] for m in spec[key]} ^ set(result["metrics"])
        if missing:
            problems.append(f"{name}: {key} metrics not matching BENCHMARK.json: {sorted(missing)}")
    for span in workloads.workload(name, tiny=True).exercises:
        if traced["span_totals"].get(span, {}).get("calls", 0) == 0:
            problems.append(f"{name}: wrapper {span} never fired")
    if traced["reports_compared"] == 0:
        problems.append(f"{name}: no report compared between untraced and traced runs")
    if not run.correct(traced) or not run.correct(plain):
        problems.append(
            f"{name}: outputs differ with tracing on (reports {traced['reports_differ']}, "
            f"instances differ {traced['pool_differs']}, set-up differs {plain['setup_differs']})"
        )
    print(f"{name}: {traced['attempted']} ops, {traced['spans']} spans, "
          f"{traced['reports_compared']} reports compared", flush=True)
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = [p for name in workloads.NAMES for p in check(name, spec)]
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    run._prepare()
    sys.exit(main())
