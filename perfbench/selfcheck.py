#!/usr/bin/env python3
"""Quick self-check of the benchmark's own code at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload, on a few generated items: two traced runs must give
identical count-type per-layer metrics and identical output digests; the
untraced run of the same items must pass every check with that digest; and a
short end-to-end run must produce every end-to-end metric.  BENCHMARK.json
must name exactly the workloads and per-layer metrics this code produces.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
import time

import run

SEED = 7
TINY_ITEMS = {"solve_mix": 12, "compose_wide": 3, "brute_confirm": 18, "check_full": 1}


def is_count_metric(name: str) -> bool:
    """Per-layer metrics that depend only on the inputs, not on timing."""
    return not name.endswith("_s") and name != "trace.overhead_frac"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from tracer import Tracer
    from workloads import WORKLOADS

    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in config["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    produced = set(Tracer().metrics()) | {"trace.overhead_frac"}
    if {m["name"] for m in config["per_layer"]} != produced:
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")

    for name, workload in WORKLOADS.items():
        started = time.monotonic()
        runner = run.Runner(started + run.TIME_LIMIT_S)
        items = runner.generate(workload, SEED, TINY_ITEMS[name])
        if name == "check_full":
            items = [dict(item, cases=2) for item in items]
        spec = run.measure_spec(workload, 1, items, len(items))
        first, second = runner.child("traced", spec), runner.child("traced", spec)
        plain = runner.child("plain", spec)
        counts = [{k: v for k, v in r["per_layer"].items() if is_count_metric(k)} for r in (first, second)]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{name}: count metrics differ between traced runs: {diff}")
        digests = {first["output_digest"], second["output_digest"], plain["output_digest"]}
        if len(digests) != 1:
            problems.append(f"{name}: output digests differ: {sorted(digests)}")
        if plain["failed"]:
            problems.append(f"{name}: checks failed: {plain['failures']}")
        lines: list = []
        result, metrics = run.end_to_end(runner, spec, lines)
        if set(metrics) != {m["name"] for m in config["end_to_end"]} or result["failed"]:
            problems.append(f"{name}: end-to-end run incomplete or failed: {sorted(metrics)}")
        print(f"{name}: {time.monotonic() - started:.1f} s, digest {plain['output_digest'][:16]}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
