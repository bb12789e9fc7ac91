"""One worker process of the benchmark; started by run.py, never by hand.

Usage: worker.py MODE SPAWN_TIME, with a JSON spec as the first line of
stdin.  MODE is

* ``generate`` make the spec's chunks of input items;
* ``setup``   import, load the inputs and do the workload's set-up, then stop;
* ``measure`` set up, run the fixed prefix and then whole cycles until the
  spec's seconds are spent, then check every output;
* ``plain``   set up, run the fixed prefix untraced and check it;
* ``traced``  the same as ``plain`` with every traced name wrapped, then
  report per-layer metrics and write the spans.

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and input load; it
is scaled to the nominal host speed by a host speed probe before and after
set-up (see hostspeed.py), and the probe time itself is left out.  In
``measure`` mode every op time goes out with its scale factor.
The result is one JSON line on stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from time import perf_counter

from hostspeed import REFERENCE_S, Meter, probe


def run_items(workload, items, results, deadline=None):
    """Run whole cycles of ``items`` until they run out or the deadline passes."""
    done = 0
    while done < len(items) and (deadline is None or perf_counter() < deadline):
        for item in items[done : done + workload.cycle]:
            results.append(workload.run_item(item))
        done += workload.cycle


def check_all(workload, items, results) -> dict:
    """Check every output; a raising op or a failed check fails its ops."""
    failures = []
    attempted = failed = 0
    for index, (ops, _, record) in enumerate(results):
        errors = [error for _, error, _ in ops if error is not None]
        problem = errors[0] if errors else workload.check(index, items[index], record)
        attempted += len(ops)
        if problem is not None:
            failed += max(len(errors), 1)
            failures.append(f"item {index}: {problem}")
    return {"attempted": attempted, "failed": failed, "failures": failures[:5]}


def main() -> int:
    mode, spawn_time = sys.argv[1], float(sys.argv[2])
    probe_s = perf_counter()
    before = probe()
    probe_s = perf_counter() - probe_s
    spec = json.loads(sys.stdin.readline())
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    if mode == "generate":
        chunks = [[start, workload.make_chunk(spec["seed"], start, cycles)] for start, cycles in spec["chunks"]]
        print(json.dumps({"chunks": chunks}))
        return 0
    items = spec["items"]
    prefix = spec["prefix"]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    begin = perf_counter()
    workload.setup(items)
    setup_s = time.monotonic() - spawn_time - probe_s
    out = {"setup_wall_s": setup_s, "setup_s": setup_s * 2 * REFERENCE_S / (before + probe())}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    results = []
    if mode == "measure":
        workload.meter = meter = Meter()
        start = perf_counter()
        run_items(workload, items[:prefix], results)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run_items(workload, items[prefix:], results, start + spec["seconds"])
        out["elapsed_s"] = perf_counter() - start - meter.probe_s
        meter.close()
        scales = meter.scales()
        out["times"] = [[latency, scales[segment]] for ops, _, _ in results for latency, _, segment in ops]
    else:
        run_items(workload, items[:prefix], results)
        out["wall_s"] = perf_counter() - begin

    digest = hashlib.sha256()
    for _, output, _ in results[:prefix]:
        digest.update(output)
    out["output_digest"] = digest.hexdigest()

    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        tracer.dump(spec["span_path"])
    else:
        out.update(check_all(workload, items, results))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
