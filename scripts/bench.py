#!/usr/bin/env python3
"""Time the canonicalization kernel, ``exact.echelon_rows``, on dense rows,
``LinearRelation.is_selfadjoint`` on self-adjoint relations, every
invariant suite and the brute force's candidate grids, and weigh the
entries of the profile memo.

    python3 scripts/bench.py --out BENCH_<n>.json [--tree LABEL=SRC ...]
                             [--dims 3,6,10,16,24] [--repeats 15]

For each d in ``--dims`` it draws ``INPUTS`` seeded d×2d integer matrices
with entries in [-BOUND, BOUND] (the shape of the rows ``linrel`` parses for a d/d
relation) and times one ``echelon_rows`` call on each, copying the rows
outside the timed region.  It also records the largest bit length of an
entry of the canonical rows.  Under ``is_selfadjoint`` it times one call on
each of ``INPUTS`` seeded ``harness.random_selfadjoint`` relations on Q^d,
drawn by the tree's own ``harness``; each has graph dimension d, so every
call gets past the dimension test to the pairing of the rows.  Each of
``--repeats`` passes times every input once; the figures are the median
over the passes of the mean time per call, ``median_ms``, with the first
and third quartiles, ``q1_ms`` and ``q3_ms``, beside it (all three equal
for one pass).

Under ``suites`` it times each suite that every tree lists, per case: each
pass clears the tree's ``relation.profile`` memo outside the timed region
and runs ``harness.run_suite(name, SUITE_CASES, 0)``.  A failing suite
exits 1, naming the suite and the tree, before the file is written.  Under
``full_check`` it gives one full check's figures, the number a
``check --suite full`` change cites: each suite's per-case median and
quartiles, weighted by the suite's default case count in the tree's own
``harness.SUITES`` and summed, with the cases they cover.

Under ``brute`` it times one build of the brute-force search's candidate
grid, ``harness.operator_graph_candidates``, for each shape in
``GRID_SHAPES`` at bound ``GRID_BOUND``: each pass clears the tree's grid
cache outside the timed region, and each row gives the grid's candidate
count.

Beside the timings, ``profile_memo`` gives the bytes that the memo of
``relation.profile`` retains per entry, as tracemalloc counts them: the
tree's own ``harness.random_mixed_relation`` draws ``MEMO_RELATIONS`` seeded
relations up to ``MEMO_DIM`` × ``MEMO_DIM``, held outside the measured
region, and the memo, cleared first, is filled with their profiles.  A full
garbage collection before each reading empties the interpreter's free
lists, so a block parked there counts neither as kept nor as freed.

Each ``--tree LABEL=SRC`` names a ``src`` directory whose ``linrel`` is
measured (by default one tree, ``current``, the ``src`` beside this script).
All trees are imported into one process and their passes alternate, the
order reversed on every other pass, so a shared host that slows down for a
while slows every tree alike.  The figures go under ``runs[<label>]`` in the
JSON file ``--out``, which is written afresh, with the script's arguments
under ``command``.  A bad argument exits 2 before any tree is imported.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import platform
import random
import statistics
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOUND = 3
INPUTS = 10
SUITE_CASES = 20
MEMO_RELATIONS = 500
MEMO_DIM = 4
GRID_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))
GRID_BOUND = 2


def dense_rows(d: int, seed: int) -> list[list[int]]:
    rng = random.Random(f"bench/{d}/{seed}")
    return [[rng.randint(-BOUND, BOUND) for _ in range(2 * d)] for _ in range(d)]


def load_tree(src: Path, index: int):
    """The ``linrel`` package under ``src``, imported under a name of its own
    so that several trees load side by side."""
    name = f"bench_tree_{index}"
    package = src.resolve() / "linrel"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def memo_bytes(package) -> dict:
    """The bytes the profile memo of ``package`` retains per entry."""
    harness, relation = package.harness, package.relation
    rng = random.Random("bench/memo")
    dims = [(rng.randint(0, MEMO_DIM), rng.randint(0, MEMO_DIM)) for _ in range(MEMO_RELATIONS)]
    relations = [harness.random_mixed_relation(rng, n, m) for n, m in dims]
    relation.profile.cache_clear()
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for rel in relations:
        relation.profile(rel)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    entries = relation.profile.cache_info().currsize
    relation.profile.cache_clear()
    return {"relations": MEMO_RELATIONS, "entries": entries, "bytes_per_entry": round(retained / entries)}


def alternate(jobs: dict, repeats: int) -> dict:
    """label -> the mean seconds per input of each of ``repeats`` passes.  Each
    job is ``(prepare, run)``: ``prepare()`` gives a pass's inputs, outside the
    timed region, and the pass calls ``run`` on each.  The labels' passes
    alternate, the order reversed on every other pass."""
    times: dict = {label: [] for label in jobs}
    order = list(jobs)
    for _ in range(repeats):
        for label in order:
            prepare, run = jobs[label]
            inputs = prepare()
            start = time.perf_counter()
            for item in inputs:
                run(item)
            times[label].append((time.perf_counter() - start) / len(inputs))
        order.reverse()
    return times


def spread(times: list) -> dict:
    """The median of the pass times in ms, with the first and third quartiles
    beside it; one pass has no quartiles, so all three are that pass."""
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    figures = {"q1_ms": q1, "median_ms": statistics.median(times), "q3_ms": q3}
    return {key: round(t * 1e3, 4) for key, t in figures.items()}


def time_kernel(packages: dict, d: int, repeats: int) -> dict:
    """label -> the figures of ``echelon_rows`` at d."""
    cases = [dense_rows(d, seed) for seed in range(INPUTS)]

    def copies():
        return [[list(r) for r in rows] for rows in cases]

    kernels = {label: package.exact.echelon_rows for label, package in packages.items()}
    times = alternate({label: (copies, partial(kernel, cols=2 * d)) for label, kernel in kernels.items()}, repeats)
    figures = {}
    for label, echelon_rows in kernels.items():
        canonical = [echelon_rows(rows, 2 * d)[0] for rows in copies()]
        figures[label] = {
            "d": d,
            "rows": d,
            "cols": 2 * d,
            "inputs": INPUTS,
            "repeats": repeats,
            **spread(times[label]),
            "max_entry_bits": max(abs(x).bit_length() for rows in canonical for row in rows for x in row),
        }
    return figures


def time_suites(packages: dict, repeats: int) -> list[dict]:
    """For each suite that every tree lists, in the first tree's order,
    label -> its figures per case; a failing suite exits."""
    def job(label, package, name):
        def prepare():
            package.relation.profile.cache_clear()
            return [name]

        def run(name):
            result = package.harness.run_suite(name, SUITE_CASES, 0)
            if not result.ok:
                raise SystemExit(f"suite {name} failed on tree {label}: {result.counterexample}")

        return prepare, run

    listed = [package.harness.list_suites() for package in packages.values()]
    figures = []
    for name in [name for name in listed[0] if all(name in other for other in listed)]:
        times = alternate({label: job(label, package, name) for label, package in packages.items()}, repeats)
        figures.append({label: {"suite": name, "cases": SUITE_CASES, "repeats": repeats,
                                **spread([t / SUITE_CASES for t in passes])} for label, passes in times.items()})
    return figures


def full_check(suites: dict, rows: list[dict]) -> dict:
    """One full check's figures from the per-case ``rows`` of ``time_suites``:
    each weighted by its suite's default case count in ``suites``, a tree's
    ``harness.SUITES``, and summed."""
    weights = [suites[row["suite"]][1] for row in rows]
    return {"cases": sum(weights), **{key: round(sum(w * row[key] for w, row in zip(weights, rows)), 4)
                                      for key in ("q1_ms", "median_ms", "q3_ms")}}


def time_grids(packages: dict, shape: tuple, repeats: int) -> dict:
    """label -> the figures of one build of the grid of ``shape`` at
    ``GRID_BOUND``, from an empty grid cache."""
    def job(harness):
        def prepare():
            harness._operator_graph_candidates.cache_clear()
            return [shape]

        return prepare, lambda dims: harness.operator_graph_candidates(*dims, GRID_BOUND)

    harnesses = {label: package.harness for label, package in packages.items()}
    times = alternate({label: job(harness) for label, harness in harnesses.items()}, repeats)
    return {
        label: {"shape": list(shape), "bound": GRID_BOUND, "repeats": repeats, **spread(times[label]),
                "candidates": len(harness.operator_graph_candidates(*shape, GRID_BOUND))}
        for label, harness in harnesses.items()
    }


def time_pairing(packages: dict, d: int, repeats: int) -> dict:
    """label -> the figures of ``is_selfadjoint`` at d, each tree on its own
    ``harness``'s draws from one seed."""
    jobs = {}
    for label, package in packages.items():
        rng = random.Random(f"bench/selfadjoint/{d}")
        relations = [package.harness.random_selfadjoint(rng, d) for _ in range(INPUTS)]
        jobs[label] = (relations.copy, package.LinearRelation.is_selfadjoint)
    times = alternate(jobs, repeats)
    return {label: {"d": d, "inputs": INPUTS, "repeats": repeats, **spread(times[label])} for label in jobs}


def positive(text: str) -> int:
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def positives(text: str) -> list[int]:
    values = [positive(part) for part in text.split(",")]
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"each value once, got {text!r}")
    return values


def tree(text: str) -> tuple[str, Path]:
    label, _, src = text.partition("=")
    if not label or not Path(src, "linrel", "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"want LABEL=SRC with a SRC/linrel/__init__.py, got {text!r}")
    return label, Path(src)


def out_file(text: str) -> Path:
    if Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory, not a file")
    if not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"no directory {Path(text).parent}")
    return Path(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=out_file, required=True, help="JSON file to write")
    parser.add_argument("--tree", type=tree, action="append", metavar="LABEL=SRC", help="a src directory to measure")
    parser.add_argument("--dims", type=positives, default="3,6,10,16,24", help="comma-separated values of d")
    parser.add_argument("--repeats", type=positive, default=15, help="timed passes per slice and tree")
    args = parser.parse_args(argv)
    trees = args.tree or [("current", ROOT / "src")]
    if len({label for label, _ in trees}) < len(trees):
        parser.error("argument --tree: each tree needs a label of its own")
    packages = {label: load_tree(src, i) for i, (label, src) in enumerate(trees)}

    runs = {
        label: {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "profile_memo": memo_bytes(package),
            "suites": [],
            "full_check": {},
            "results": [],
            "is_selfadjoint": [],
            "brute": [],
        }
        for label, package in packages.items()
    }

    def record(key: str, figures: dict) -> None:
        for label, row in figures.items():
            runs[label][key].append(row)
            print(label, key, *(f"{k}={v}" for k, v in row.items()))

    for figures in time_suites(packages, args.repeats):
        record("suites", figures)
    for label, package in packages.items():
        runs[label]["full_check"] = full_check(package.harness.SUITES, runs[label]["suites"])
        print(label, "full_check", *(f"{k}={v}" for k, v in runs[label]["full_check"].items()))
    for d in args.dims:
        record("results", time_kernel(packages, d, args.repeats))
        record("is_selfadjoint", time_pairing(packages, d, args.repeats))
    for shape in GRID_SHAPES:
        record("brute", time_grids(packages, shape, args.repeats))
    report = {
        "benchmark": f"exact.echelon_rows on seeded dense d x 2d integer rows, entries in [-{BOUND}, {BOUND}]; "
        "LinearRelation.is_selfadjoint on seeded harness.random_selfadjoint relations on Q^d; "
        f"every invariant suite on {SUITE_CASES} cases at seed 0, per case, and weighted by its default cases "
        "into one full check; "
        f"harness.operator_graph_candidates at bound {GRID_BOUND} from an empty grid cache, per shape; "
        f"bytes the relation.profile memo retains per entry over {MEMO_RELATIONS} seeded relations",
        "command": argv,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
