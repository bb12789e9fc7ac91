#!/usr/bin/env python3
"""linrel benchmark: one closed-loop workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs of the workload are generated from
``--seed`` (by two ``worker.py`` processes at once) and handed as relation
text to fresh measuring processes (``worker.py``), one at a time, each with
one caller that waits for every answer.

``--trace 0`` starts two set-up-only processes and one measuring process and
reports the end-to-end metrics named in BENCHMARK.json.  Every time in them
is scaled to a nominal host speed by host speed probes interleaved with the
work (see hostspeed.py), because a shared host can slow a process by up to
a half for tens of seconds at a time; the unscaled wall figures are printed
beside them.

* ``setup_s``: process start to first timed op, median over the three;
* ``ops_per_s``: ops per second of op time (the timed loop less the probes)
  over the whole timed loop;
* ``op_p50_ms``: median op latency over the whole timed loop;
* ``peak_rss_mb``: peak resident memory of the measuring process once it has
  run the fixed prefix, a fixed amount of work.

``--trace 1`` runs the workload's fixed prefix twice, untraced and then
traced, and reports the per-layer metrics; the spans go to
``.perfbench/spans-<workload>.bin`` (see tracer.py for the format).

Every output is checked after the timed loop.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit, the op
latency p90 where at least 100 ops are kept, ``failed_frac``, the
``output_digest`` over the fixed prefix, and the run context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_PROCESSES = 3
TIME_LIMIT_S = 170.0
GEN_PROCESSES = 2


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list, and the samples beyond it."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Runner:
    """Starts worker processes and holds every run to the time limit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, mode: str, specs: list) -> list:
        """One worker per spec, all at once; their results, in order."""
        procs = []
        try:
            for spec in specs:
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "worker.py"), mode, repr(time.monotonic())],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=self.env,
                    cwd=str(ROOT),
                )
                procs.append(proc)
                proc.stdin.write(json.dumps(spec) + "\n")
                proc.stdin.flush()
            results = []
            for proc in procs:
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("benchmark time limit reached")
                out, err = proc.communicate(timeout=remaining)
                if proc.returncode != 0:
                    raise RuntimeError(f"{mode} process exited with {proc.returncode}:\n{err}")
                results.append(json.loads(out.strip().splitlines()[-1]))
            return results
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def child(self, mode: str, spec: dict) -> dict:
        return self.run(mode, [spec])[0]

    def generate(self, workload, seed: int, count: int) -> list:
        """``count`` items of ``workload`` for ``seed``, made by GEN_PROCESSES
        workers that share its chunks."""
        chunks = workload.chunks(count)
        specs = [
            {"workload": workload.name, "seed": seed, "chunks": chunks[i::GEN_PROCESSES]}
            for i in range(min(GEN_PROCESSES, len(chunks)))
        ]
        made = sorted(
            (chunk for result in self.run("generate", specs) for chunk in result["chunks"]),
            key=lambda chunk: chunk[0],
        )
        return [item for _, items in made for item in items][:count]


def measure_spec(workload, seconds: int, items: list, prefix: int) -> dict:
    return {
        "workload": workload.name,
        "seconds": seconds,
        "items": items,
        "prefix": prefix,
        "span_path": str(SPAN_DIR / f"spans-{workload.name}.bin"),
    }


def end_to_end(runner: Runner, spec: dict, lines: list) -> tuple[dict, dict]:
    setups = [runner.child("setup", spec) for _ in range(SETUP_PROCESSES - 1)]
    result = runner.child("measure", spec)
    setups.append(result)
    times = result["times"]
    scaled = sorted(latency * scale for latency, scale in times)
    metrics = {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1000,
        "setup_s": statistics.median(setup["setup_s"] for setup in setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    wall = sorted(latency for latency, _ in times)
    lines.append(
        f"timed ops: {len(times)} in {result['elapsed_s']:.3f} s; unscaled {len(times) / sum(wall):.6g} ops/s, "
        f"p50 {statistics.median(wall) * 1000:.6g} ms; host speed scale median "
        f"{statistics.median(scale for _, scale in times):.4f}"
    )
    lines.append(
        "setup_s samples, scaled (wall): "
        + " ".join(f"{setup['setup_s']:.4f} ({setup['setup_wall_s']:.4f})" for setup in setups)
    )
    if len(scaled) >= 100:
        p90, beyond = percentile(scaled, 90)
        lines.append(f"op_p90_ms = {p90 * 1000:.6g} ms ({len(scaled)} samples, {beyond} beyond)")
    else:
        lines.append(f"op_p90_ms not reported: {len(scaled)} samples, fewer than 100")
    return result, metrics


def traced(runner: Runner, spec: dict, lines: list) -> tuple[dict, dict]:
    plain = runner.child("plain", spec)
    trace = runner.child("traced", spec)
    per_layer = dict(trace["per_layer"])
    per_layer["trace.overhead_frac"] = (trace["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    lines.append(f"prefix wall: untraced {plain['wall_s']:.3f} s, traced {trace['wall_s']:.3f} s")
    if trace["output_digest"] != plain["output_digest"]:
        plain["failures"].append("traced outputs differ from untraced outputs")
        plain["failed"] = max(plain["failed"], 1)
    return plain, per_layer


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="linrel benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (SRC / "linrel" / "__init__.py").is_file():
        return fail(f"no linrel package under {SRC}")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    load_start = os.getloadavg()[0]
    workload = WORKLOADS[args.workload]
    runner = Runner(started + TIME_LIMIT_S)
    SPAN_DIR.mkdir(exist_ok=True)
    try:
        t0 = time.monotonic()
        items = runner.generate(workload, args.seed, workload.pool_size(args.seconds))
        lines = [
            f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
            f"inputs: {len(items)} items generated in {time.monotonic() - t0:.2f} s",
        ]
        spec = measure_spec(workload, args.seconds, items, workload.prefix)
        if args.trace:
            result, values = traced(runner, spec, lines)
            declared = config["per_layer"]
        else:
            result, values = end_to_end(runner, spec, lines)
            declared = config["end_to_end"]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        return fail(f"metrics disagree with BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = result["attempted"], result["failed"]
    for name, metric in metrics.items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    lines += [f"failure: {message}" for message in result["failures"]]
    lines.append(f"output_digest = {result['output_digest']}")
    lines.append(
        f"context nproc={os.cpu_count()} python={platform.python_version()} "
        f"load1_start={load_start:.2f} load1_end={os.getloadavg()[0]:.2f} seed={args.seed}"
    )
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
