"""The four benchmark workloads: input generation, one op, and its check.

Inputs are generated from the seed in processes of their own and handed to
the measuring process as relation text, so that process starts with empty
memo tables and parses inside every op.  Each workload repeats a fixed schedule of
``cycle`` items; the timed loop stops only at cycle boundaries, so every run
holds the same mix of item shapes.  Every op reports its time to the
workload's ``meter`` (see hostspeed.py), which probes the host speed between
ops.  The first ``prefix_cycles`` cycles are the fixed prefix that traced
runs execute, that ``output_digest`` covers, and after which ``peak_rss_mb``
is read.

Every check runs after the timed loop and uses means other than the code path
the op measures: the definitional feasibility oracle, ``verify``, exact
dimension counts and inner products, or the suites' own failure counts.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from time import perf_counter
from typing import Optional

from hostspeed import NullMeter
from linrel import cli, exact, factor, files, harness, relation

SEED_SALT = "linrel-perfbench"
GEN_CHUNK = 16


def item_rng(workload: str, seed) -> random.Random:
    return random.Random(f"{SEED_SALT}/{workload}/{seed}")


def _generators(rel) -> list[tuple]:
    return rel.graph.basis.column_tuples()


def _integral(v) -> list[int]:
    """``v`` scaled by the lcm of its denominators: the same line, as integers."""
    scale = math.lcm(*(x.denominator for x in v))
    return [int(x * scale) for x in v]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _single_valued(rel) -> bool:
    """No nonzero (0, y) in the graph: the x-block has full column rank."""
    basis = rel.graph.basis
    x_block = exact.Matrix.from_rows([basis.row(i) for i in range(rel.dim_x)], cols=basis.cols)
    return exact.rank(x_block) == basis.cols


class Workload:
    name = ""
    cycle = 1
    prefix_cycles = 1
    items_per_second = 1.0
    meter = NullMeter()

    @property
    def prefix(self) -> int:
        return self.prefix_cycles * self.cycle

    def pool_size(self, seconds: int) -> int:
        """Enough whole cycles that the timed loop, not the pool, ends a run."""
        cycles = -(-int(self.items_per_second * seconds) // self.cycle)
        return max(cycles, self.prefix_cycles) * self.cycle

    def chunks(self, count: int) -> list[tuple[int, int]]:
        """(first cycle, cycles) of each chunk of GEN_CHUNK cycles that makes
        up ``count`` items; each chunk is drawn from its own generator."""
        cycles = -(-count // self.cycle)
        return [(start, min(GEN_CHUNK, cycles - start)) for start in range(0, cycles, GEN_CHUNK)]

    def make_chunk(self, seed: int, start: int, cycles: int) -> list[dict]:
        rng = item_rng(self.name, f"{seed}/{start}")
        return [item for index in range(start, start + cycles) for item in self.make_cycle(rng, index)]

    def make_cycle(self, rng: random.Random, index: int) -> list[dict]:
        """The items of cycle ``index``, drawn from ``rng``."""
        raise NotImplementedError

    def setup(self, items: list[dict]) -> None:
        """Work done once before the first timed op."""

    def run_item(self, item: dict):
        """Returns ([(latency_s, error or None, meter segment) per op], output, record)."""
        t0 = perf_counter()
        try:
            output, record = self.op(item)
            error = None
        except Exception as exc:  # an op failure is counted, not fatal to the run
            output, record, error = b"", None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        return [(latency, error, self.meter.after_op(latency))], output, record

    def op(self, item: dict):
        raise NotImplementedError

    def check(self, index: int, item: dict, record) -> Optional[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

SOLVER_SIDES = {
    "solve_right_relation": "right",
    "solve_right_operator": "right",
    "solve_left_relation": "left",
    "solve_left_operator": "left",
    "solve_adjoint_right": "right",
    "solve_adjoint_left": "left",
}

# Solvability the pair generator's kind forces, derived from the conditions:
# satisfy pairs are built as A = B*T or A = T*B; each violate kind breaks the
# named condition and leaves the other level's conditions as stated here.
EXPECTED_SOLVABLE = {
    ("solve_right_relation", "satisfy"): True,
    ("solve_right_relation", "violate_ran"): False,
    ("solve_right_relation", "violate_mul_gain"): True,
    ("solve_right_relation", "violate_mul_loss"): False,
    ("solve_right_operator", "satisfy"): True,
    ("solve_right_operator", "violate_ran"): False,
    ("solve_right_operator", "violate_mul_gain"): False,
    ("solve_right_operator", "violate_mul_loss"): False,
    ("solve_left_relation", "satisfy"): True,
    ("solve_left_relation", "violate_dom"): False,
    ("solve_left_relation", "violate_ker"): False,
    ("solve_left_relation", "violate_mul_dim"): True,
    ("solve_left_operator", "satisfy"): True,
    ("solve_left_operator", "violate_dom"): False,
    ("solve_left_operator", "violate_ker"): False,
    ("solve_left_operator", "violate_mul_dim"): False,
}


class SolveMix(Workload):
    """One solver call on a small pair: parse, solve, render, serialize."""

    name = "solve_mix"
    cycle = 6
    prefix_cycles = 500
    items_per_second = 1300.0

    def make_cycle(self, rng, index):
        return [self._make_item(rng, solver, index) for solver in SOLVER_SIDES]

    def _make_item(self, rng, solver, index):
        kind = None
        if solver in ("solve_right_relation", "solve_right_operator"):
            kind = harness.RIGHT_KINDS[index % len(harness.RIGHT_KINDS)]
            a, b = harness.targeted_right_pair(rng, kind)
        elif solver in ("solve_left_relation", "solve_left_operator"):
            kind = harness.LEFT_KINDS[index % len(harness.LEFT_KINDS)]
            a, b = harness.targeted_left_pair(rng, kind)
        else:
            a, b = harness.random_square_pair(rng, max_dim=6)
            while a.dim_x == 0:
                a, b = harness.random_square_pair(rng, max_dim=6)
        return {
            "solver": solver,
            "kind": kind,
            "a": files.serialize_relation(a),
            "b": files.serialize_relation(b),
        }

    def op(self, item):
        a = files.parse_relation_text(item["a"])
        b = files.parse_relation_text(item["b"])
        report = getattr(factor, item["solver"])(a, b)
        text = report.to_text()
        witness = "" if report.witness is None else files.serialize_relation(report.witness)
        record = (report.solvable, report.verified, witness)
        return (text + witness).encode("ascii"), record

    def check(self, index, item, record):
        solvable, verified, witness_text = record
        solver, kind = item["solver"], item["kind"]
        expected = EXPECTED_SOLVABLE.get((solver, kind))
        if expected is not None and solvable != expected:
            return f"{solver} on a {kind} pair: solvable={solvable}, expected {expected}"
        if not solvable:
            return None
        if not verified:
            return f"{solver}: solvable report is not verified"
        a = files.parse_relation_text(item["a"])
        b = files.parse_relation_text(item["b"])
        if "adjoint" in solver:
            a, b = a.adjoint(), b.adjoint()
        w = files.parse_relation_text(witness_text)
        side = SOLVER_SIDES[solver]
        if not factor.verify(a, b, w, side):
            return f"{solver}: witness fails verify"
        if "relation" not in solver and not _single_valued(w):
            return f"{solver}: operator witness is multivalued"
        n = a.dim_x
        for g in _generators(a):
            head, tail = g[:n], g[n:]
            inner, outer = (w, b) if side == "right" else (b, w)
            if not harness.oracle_product_membership(inner, outer, head, tail):
                return f"{solver}: oracle rejects generator {g} of A"
        return None


class ComposeWide(Workload):
    """compose, profile, adjoint and serialize on two fresh d x d relations."""

    name = "compose_wide"
    # two d=16 ops per d=24 op keeps the median inside the d=16 ops
    dims = (16, 16, 24)
    cycle = 3
    prefix_cycles = 2
    items_per_second = 8.0
    coeff_bound = 3

    def _relation_text(self, rng, d):
        lines = [f"dim_x={d}", f"dim_y={d}"]
        for _ in range(d):
            lines.append(" ".join(str(rng.randint(-self.coeff_bound, self.coeff_bound)) for _ in range(2 * d)))
        return "\n".join(lines) + "\n"

    def make_cycle(self, rng, index):
        return [{"d": d, "a": self._relation_text(rng, d), "b": self._relation_text(rng, d)} for d in self.dims]

    def op(self, item):
        a = files.parse_relation_text(item["a"])
        b = files.parse_relation_text(item["b"])
        c = relation.compose(b, a)
        p = relation.profile(c)
        adj = c.adjoint()
        dims = (p.dom.dim, p.ran.dim, p.ker.dim, p.mul.dim)
        c_text = files.serialize_relation(c)
        adj_text = files.serialize_relation(adj)
        header = "profile dom={} ran={} ker={} mul={}\n".format(*dims)
        return (header + c_text + adj_text).encode("ascii"), (dims, a, b, c, adj)

    def check(self, index, item, record):
        dims, a, b, c, adj = record
        d = item["d"]
        for g in _generators(c):
            if not harness.oracle_product_membership(a, b, g[:d], g[d:]):
                return f"oracle rejects generator {index}/{g[:3]}... of B*A"
        rng = random.Random(index)
        # a point of B*A built through generators of both factors
        w = b.graph.basis.matvec([rng.randint(-2, 2) for _ in range(b.graph.dim)])
        ay = exact.Matrix.from_rows([a.graph.basis.row(d + i) for i in range(d)], cols=a.graph.dim)
        lift = exact.solve_linear(ay, w[:d])
        if lift is not None:
            ax = exact.Matrix.from_rows([a.graph.basis.row(i) for i in range(d)], cols=a.graph.dim)
            x = ax.matvec(lift)
            if not (c.membership(x, w[d:]) and harness.oracle_product_membership(a, b, x, w[d:])):
                return "a point of B*A built from generators is missing"
        x = [rng.randint(-3, 3) for _ in range(d)]
        z = [rng.randint(-3, 3) for _ in range(d)]
        if harness.oracle_product_membership(a, b, x, z) != c.membership(x, z):
            return "oracle and B*A disagree on a random point"
        dom, ran, ker, mul = dims
        if not dom + mul == c.graph.dim == ran + ker:
            return f"profile dims {dims} do not add up to dim {c.graph.dim}"
        if adj.graph.dim != 2 * d - c.graph.dim:
            return "adjoint has the wrong dimension"
        c_gens = [_integral(h) for h in _generators(c)]
        for g in _generators(adj):
            g = _integral(g)
            x, y = g[:d], g[d:]
            for h in c_gens:
                if _dot(y, h[:d]) != _dot(x, h[d:]):
                    return "adjoint generator is not orthogonal in the adjoint pairing"
        return None


class BruteConfirm(Workload):
    """brute_force_{right,left}_witness on an unsolvable operator-level pair."""

    name = "brute_confirm"
    violating = {
        "right": ("violate_ran", "violate_mul_gain", "violate_mul_loss"),
        "left": ("violate_dom", "violate_ker", "violate_mul_dim"),
    }
    # Shapes (dim_x, dim_y) of the unknown T.  Set-up builds the grid of the
    # whole brute-force domain, dims <= 2, as the acceptance sweeps do; the
    # (2, 2) pairs stay out of the timed cycle, because one call takes
    # 0.7-9 s there and a run would hold too few ops to give a steady rate.
    grid_shapes = ((1, 1), (1, 2), (2, 1), (2, 2))
    timed_shapes = ((1, 1), (1, 2), (2, 1))
    bound = 2
    cycle = 18
    prefix_cycles = 1
    items_per_second = 150.0

    def make_cycle(self, rng, index):
        return [
            item
            for side, kinds in self.violating.items()
            for kind in kinds
            for item in self._one_per_shape(rng, side, kind)
        ]

    def _one_per_shape(self, rng, side, kind):
        found = {}
        while len(found) < len(self.timed_shapes):
            if side == "right":
                a, b = harness.targeted_right_pair(rng, kind, max_dim=2, bound=self.bound)
                shape = (a.dim_x, b.dim_x)
                solvable = factor.solve_right_operator(a, b).solvable
            else:
                a, b = harness.targeted_left_pair(rng, kind, max_dim=2, bound=self.bound)
                shape = (b.dim_y, a.dim_y)
                solvable = factor.solve_left_operator(a, b).solvable
            if shape in self.timed_shapes and shape not in found and not solvable:
                found[shape] = {
                    "side": side,
                    "kind": kind,
                    "a": files.serialize_relation(a),
                    "b": files.serialize_relation(b),
                }
        return [found[shape] for shape in self.timed_shapes]

    def setup(self, items):
        for dim_x, dim_y in self.grid_shapes:
            harness.operator_graph_candidates(dim_x, dim_y, self.bound)

    def op(self, item):
        a = files.parse_relation_text(item["a"])
        b = files.parse_relation_text(item["b"])
        if item["side"] == "right":
            witness = harness.brute_force_right_witness(a, b, self.bound)
        else:
            witness = harness.brute_force_left_witness(a, b, self.bound)
        text = "none\n" if witness is None else files.serialize_relation(witness)
        return text.encode("ascii"), witness is None

    def check(self, index, item, record):
        if record is not True:
            return f"brute force found a witness for an unsolvable {item['kind']} pair"
        return None


class CheckFull(Workload):
    """``linrel check --suite full`` in process; each suite case is one op."""

    name = "check_full"
    cycle = 1
    prefix_cycles = 1
    items_per_second = 0.5

    def make_cycle(self, rng, index):
        return [{"seed": rng.getrandbits(31)}]

    def setup(self, items):
        self.cases: list = []
        for suite, (fn, default) in list(harness.SUITES.items()):
            harness.SUITES[suite] = (self._timed_case(fn), default)

    def _timed_case(self, fn):
        sink = self.cases

        def case(rng):
            t0 = perf_counter()
            try:
                message = fn(rng)
            except Exception as exc:
                latency = perf_counter() - t0
                sink.append((latency, f"{type(exc).__name__}: {exc}", self.meter.after_op(latency)))
                raise
            latency = perf_counter() - t0
            sink.append((latency, message, self.meter.after_op(latency)))
            return message

        return case

    def run_item(self, item):
        self.cases.clear()
        argv = ["check", "--suite", "full", "--seed", str(item["seed"])]
        if "cases" in item:  # smaller runs of the self-check
            argv += ["--cases", str(item["cases"])]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception as exc:  # a raising case ends the call; it is counted
            code = f"{type(exc).__name__}: {exc}"
        text = out.getvalue()
        return list(self.cases), text.encode("ascii"), (code, text)

    def check(self, index, item, record):
        code, text = record
        if code != cli.EXIT_OK:
            return f"check exited with {code}"
        suites = [line for line in text.splitlines() if line.startswith("suite=")]
        failed = [line for line in text.splitlines() if line.startswith("failed=")]
        if len(suites) != len(harness.list_suites()) or any(line != "failed=0" for line in failed):
            return "a suite reported failures"
        return None


WORKLOADS = {w.name: w for w in (SolveMix(), ComposeWide(), BruteConfirm(), CheckFull())}
