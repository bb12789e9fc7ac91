#!/usr/bin/env python3
"""Run every invariant suite through ``linrel check`` and time each one.

The arguments are ``linrel check``'s (``--seed``, ``--cases``, ``--json``);
each suite prints its ``check`` report on stdout and then
``seconds=<wall time>`` on stderr, so ``--json`` output stays JSON lines.
Exit codes are the CLI's: 0 when every suite passes, 2 when one fails, and
1 at once, with an ``error: …`` line on stderr, for a bad case count or a
sampler failure.
"""

import sys
import time

from linrel.cli import EXIT_ERROR, main as linrel
from linrel.harness import list_suites


def main() -> int:
    worst = 0
    for name in list_suites():
        start = time.perf_counter()
        code = linrel(["check", *sys.argv[1:], "--suite", name])
        if code == EXIT_ERROR:
            return code
        print(f"seconds={time.perf_counter() - start:.2f}", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
