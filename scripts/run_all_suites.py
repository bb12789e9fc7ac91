#!/usr/bin/env python3
"""Run every invariant suite at its default case count and print a summary.

Equivalent to ``linrel check --suite full`` but with per-suite timing.  Exit
codes follow the CLI: 0 when every suite passes, 2 when one fails, 1 with an
``error: …`` line on stderr for a bad case count or a sampler failure.
"""

import argparse
import sys
import time

from linrel.harness import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, help="override the per-suite default")
    args = parser.parse_args()

    all_ok = True
    grand_start = time.perf_counter()
    for name in SUITES:
        start = time.perf_counter()
        try:
            result = run_suite(name, args.cases, args.seed)
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        status = "ok" if result.ok else "FAILED"
        print(f"{name:28s} cases={result.cases:4d} failed={result.failed:3d} "
              f"{elapsed:6.2f}s  {status}")
        if not result.ok:
            all_ok = False
            print(result.counterexample)
    print(f"total {time.perf_counter() - grand_start:.1f}s")
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
