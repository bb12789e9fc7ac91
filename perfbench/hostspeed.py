"""Host speed probes, so that timings can be scaled to one nominal host speed.

The benchmark runs on a few cores of a shared host, whose speed for one
process swings by up to a half for tens of seconds at a time: other tenants
share the physical cores and their caches.  A 10 s run can fall wholly inside
a slow stretch, so no statistic of its own op times sees the slowdown.

So the measuring process interleaves a fixed piece of reference work with its
ops: a probe after every PROBE_EVERY_S seconds of op time, and one before the
first op and after the last.  The probe parses a fixed matrix from text,
runs exact rational Gauss-Jordan elimination on it, and runs fraction-free
integer elimination on a larger fixed matrix, whose entries grow to about
120 bits; all of it is written here with the standard library only, so
that no change to linrel changes it.  It is the same kind of work as the
ops: text handling, interpreted loops over ``Fraction`` and small ``int``
arithmetic, which a busy host slows the most, and long ``int`` arithmetic,
which it slows less.  Each op's time is multiplied by ``REFERENCE_S / r``,
where ``r`` is the median of the two probes just before the op and the two
just after it: its time on a host where one probe takes ``REFERENCE_S``
seconds.  ``REFERENCE_S`` is a fixed constant, about one probe on a quiet
2-core x86-64 VM with CPython 3.11; it sets the scale of the metrics, not
their ratios between commits.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median
from time import perf_counter

REFERENCE_S = 0.004
PROBE_EVERY_S = 0.25
PROBE_REPEATS = 3
_TEXT = "\n".join(" ".join(str((7 * i + 3 * j * j + i * j + 1) % 19 - 9) for j in range(10)) for i in range(8))
_WIDE = [[((i + 1) * (j + 2) ** 3 + 5 * i * i + j) % 37 - 18 for j in range(26)] for i in range(24)]


def _parse(text: str) -> list[list[int]]:
    return [[int(token) for token in line.split()] for line in text.splitlines()]


def _eliminate(rows) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in rows]
    pivot = 0
    for col in range(len(rows[0])):
        hit = next((i for i in range(pivot, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[pivot], rows[hit] = rows[hit], rows[pivot]
        inverse = 1 / rows[pivot][col]
        rows[pivot] = [x * inverse for x in rows[pivot]]
        for i, row in enumerate(rows):
            if i != pivot and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[pivot])]
        pivot += 1
    return rows


def _fraction_free(rows) -> list[list[int]]:
    """Bareiss elimination: every division is exact, entries stay integers."""
    rows = [list(row) for row in rows]
    previous, pivot = 1, 0
    for col in range(len(rows[0])):
        hit = next((i for i in range(pivot, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[pivot], rows[hit] = rows[hit], rows[pivot]
        top = rows[pivot]
        for i in range(pivot + 1, len(rows)):
            lead = rows[i][col]
            rows[i] = [(top[col] * x - lead * y) // previous for x, y in zip(rows[i], top)]
        previous = top[col]
        pivot += 1
        if pivot == len(rows):
            break
    return rows


def _reference_work() -> str:
    rows = _eliminate(_parse(_TEXT))
    wide = _fraction_free(_WIDE)
    return "\n".join(" ".join(str(x) for x in row) for row in rows + wide)


def probe() -> float:
    """Seconds the reference work takes now: median of PROBE_REPEATS."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        _reference_work()
        times.append(perf_counter() - t0)
    return sorted(times)[PROBE_REPEATS // 2]


class Meter:
    """Probes between ops; ops are tagged with the segment they ran in.

    Segment ``k`` lies between probes ``k`` and ``k + 1``.
    """

    def __init__(self):
        self.probes = [probe()]
        self.busy = 0.0
        self.probe_s = 0.0

    def after_op(self, latency: float) -> int:
        """The segment of the op that just took ``latency`` seconds."""
        segment = len(self.probes) - 1
        self.busy += latency
        if self.busy >= PROBE_EVERY_S:
            self.busy = 0.0
            self._probe()
        return segment

    def close(self) -> None:
        self._probe()

    def _probe(self) -> None:
        t0 = perf_counter()
        self.probes.append(probe())
        self.probe_s += perf_counter() - t0

    def scales(self) -> list[float]:
        """Per segment, the factor that maps its op times to the nominal host."""
        probes = self.probes
        return [REFERENCE_S / median(probes[max(0, k - 1) : k + 3]) for k in range(len(probes) - 1)]


class NullMeter:
    """No probes, for runs whose times are not reported (traced, plain)."""

    def after_op(self, latency: float) -> int:
        return 0
