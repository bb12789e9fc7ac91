"""Span tracing of linrel's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced public name in every linrel module
namespace that holds it (and the traced methods on their classes) with a
wrapper that records one span per call: name, start, end, parent span, and
the bookkeeping time the wrapper itself spent.  Spans live in flat arrays in
memory and are written out once, at the end, by ``Tracer.dump``.

Self time of a span is its duration minus the time its child spans cover,
where a child covers its own duration plus its bookkeeping; tracing cost
therefore never lands in any layer's self time.  Count-type metrics (calls,
cells, entry bits, candidates, repeat fractions) depend only on the inputs,
so they repeat exactly for one seed.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

import linrel
from linrel import cli, exact, factor, files, harness, relation, subspace
from linrel.exact import Matrix
from linrel.relation import LinearRelation
from linrel.subspace import Subspace

MODULES = (linrel, exact, subspace, relation, files, factor, harness, cli)

SOLVERS = (
    "solve_right_relation",
    "solve_right_operator",
    "solve_left_relation",
    "solve_left_operator",
    "solve_adjoint_right",
    "solve_adjoint_left",
)

SUBSPACE_CLASSMETHODS = ("span", "from_vectors", "zero", "full")
SUBSPACE_METHODS = (
    "sum",
    "intersect",
    "ortho_complement",
    "contains",
    "contains_vector",
    "block_project",
    "direct_sum_check",
    "product",
)

SPAN_FILE_COLUMNS = ("name:uint16", "parent:int64", "start:float64", "end:float64", "book:float64")


def _entry_bits(entries) -> int:
    """Largest numerator or denominator bit length among Fraction entries."""
    best = 0
    for x in entries:
        b = max(x.numerator.bit_length(), x.denominator.bit_length())
        if b > best:
            best = b
    return best


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_col = array("H")
        self.parent_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self.book_col = array("d")
        self.stack = [-1]
        self.cells = 0
        self.max_bits = 0
        self.profiled: set = set()
        self.profile_repeats = 0
        self.grids: dict = {}
        self.bytes_in = 0
        self.bytes_out = 0
        self.solver_depth = 0
        self.solver_outer_calls = 0
        self.solver_solvable = 0
        self.compose_in_solver = 0
        self.brute_depth = 0
        self.oracle_in_brute = 0

    # -- recording -----------------------------------------------------------

    def wrap(self, layer, name, fn, before=None, after=None):
        """Span-recording wrapper; ``before()``/``after(args, result)`` are
        bookkeeping hooks whose time is charged to tracing, not to any layer."""
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        names, parents = self.name_col, self.parent_col
        starts, ends, books = self.start_col, self.end_col, self.book_col
        stack = self.stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            tp = clock()
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            books.append(0.0)
            stack.append(idx)
            if before is not None:
                before()
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                books[idx] = t0 - tp
                if after is not None:
                    after(args, result)
                    books[idx] += clock() - t1
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- per-function bookkeeping ----------------------------------------------

    def _after_echelon(self, args, result):
        m = args[0]
        self.cells += m.rows * m.cols
        bits = _entry_bits(m.entries)
        if result is not None:
            bits = max(bits, _entry_bits(result.matrix.entries))
        self.max_bits = max(self.max_bits, bits)

    def _after_solve(self, args, result):
        m, rhs = args[0], args[1]
        self.cells += m.rows * (m.cols + 1)
        bits = max(_entry_bits(m.entries), _entry_bits(exact.vector(rhs)))
        if result is not None:
            bits = max(bits, _entry_bits(result))
        self.max_bits = max(self.max_bits, bits)

    def _after_profile(self, args, result):
        rel = args[0]
        if rel in self.profiled:
            self.profile_repeats += 1
        else:
            self.profiled.add(rel)

    def _after_compose(self, args, result):
        if self.solver_depth:
            self.compose_in_solver += 1

    def _before_solver(self):
        self.solver_depth += 1

    def _after_solver(self, args, result):
        self.solver_depth -= 1
        if self.solver_depth == 0:
            self.solver_outer_calls += 1
            if result is not None and result.solvable:
                self.solver_solvable += 1

    def _before_brute(self):
        self.brute_depth += 1

    def _after_brute(self, args, result):
        self.brute_depth -= 1

    def _after_oracle(self, args, result):
        if self.brute_depth:
            self.oracle_in_brute += 1

    def _after_grid(self, args, result):
        if result is not None:
            self.grids.setdefault(args, len(result))

    def _after_parse(self, args, result):
        self.bytes_in += len(args[0])

    def _after_serialize(self, args, result):
        if result is not None:
            self.bytes_out += len(result)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced public name in every module namespace holding it."""
        functions = [
            ("exact", exact, "canonical_echelon", None, self._after_echelon),
            ("exact", exact, "rank", None, None),
            ("exact", exact, "nullspace", None, None),
            ("exact", exact, "solve_linear", None, self._after_solve),
            ("relation", relation, "compose", None, self._after_compose),
            ("relation", relation, "profile", None, self._after_profile),
            ("factor", factor, "verify", None, None),
            ("files", files, "parse_relation_text", None, self._after_parse),
            ("files", files, "serialize_relation", None, self._after_serialize),
            ("harness", harness, "oracle_product_membership", None, self._after_oracle),
            ("harness", harness, "operator_graph_candidates", None, self._after_grid),
            ("harness", harness, "brute_force_right_witness", self._before_brute, self._after_brute),
            ("harness", harness, "brute_force_left_witness", self._before_brute, self._after_brute),
            ("cli", cli, "main", None, None),
        ]
        functions += [
            ("factor", factor, name, self._before_solver, self._after_solver) for name in SOLVERS
        ]
        replacements = {}
        for layer, module, name, before, after in functions:
            original = getattr(module, name)
            replacements[id(original)] = self.wrap(layer, name, original, before, after)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

        matmul = Matrix.__dict__["__matmul__"]
        Matrix.__matmul__ = self.wrap("exact", "Matrix.__matmul__", matmul)
        for name in SUBSPACE_CLASSMETHODS:
            fn = Subspace.__dict__[name].__func__
            setattr(Subspace, name, classmethod(self.wrap("subspace", f"Subspace.{name}", fn)))
        for name in SUBSPACE_METHODS:
            setattr(Subspace, name, self.wrap("subspace", f"Subspace.{name}", Subspace.__dict__[name]))
        LinearRelation.adjoint = self.wrap("relation", "adjoint", LinearRelation.__dict__["adjoint"])
        LinearRelation.inverse = self.wrap("relation", "inverse", LinearRelation.__dict__["inverse"])
        LinearRelation.profile = self.wrap(
            "relation", "profile", LinearRelation.__dict__["profile"], after=self._after_profile
        )

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over every span recorded so far."""
        n = len(self.name_col)
        names, parents = self.name_col, self.parent_col
        starts, ends, books = self.start_col, self.end_col, self.book_col
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i] + books[i]
        layer_of = self.layers
        label_of = self.names
        self_s: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_calls: dict[str, int] = {}
        for i in range(n):
            nid = names[i]
            duration = ends[i] - starts[i]
            layer = layer_of[nid]
            label = label_of[nid]
            self_s[layer] = self_s.get(layer, 0.0) + duration - covered[i]
            inclusive[label] = inclusive.get(label, 0.0) + duration
            calls[label] = calls.get(label, 0) + 1
            layer_calls[layer] = layer_calls.get(layer, 0) + 1

        def ratio(num, den):
            return num / den if den else 0.0

        brute_calls = calls.get("brute_force_right_witness", 0) + calls.get("brute_force_left_witness", 0)
        out = {
            "exact.calls": layer_calls.get("exact", 0),
            "exact.self_s": self_s.get("exact", 0.0),
            "exact.cells": self.cells,
            "exact.max_entry_bits": self.max_bits,
            "subspace.calls": layer_calls.get("subspace", 0),
            "subspace.self_s": self_s.get("subspace", 0.0),
            "relation.compose_calls": calls.get("compose", 0),
            "relation.profile_calls": calls.get("profile", 0),
            "relation.adjoint_calls": calls.get("adjoint", 0),
            "relation.self_s": self_s.get("relation", 0.0),
            "relation.profile_repeat_frac": ratio(self.profile_repeats, calls.get("profile", 0)),
        }
        for name in SOLVERS:
            out[f"factor.{name}.calls"] = calls.get(name, 0)
        out.update(
            {
                "factor.self_s": self_s.get("factor", 0.0),
                "factor.compose_per_solve": ratio(self.compose_in_solver, self.solver_outer_calls),
                "factor.solvable_frac": ratio(self.solver_solvable, self.solver_outer_calls),
                "harness.oracle_calls": calls.get("oracle_product_membership", 0),
                "harness.oracle_s": inclusive.get("oracle_product_membership", 0.0),
                "harness.oracle_per_confirm": ratio(self.oracle_in_brute, brute_calls),
                "harness.brute_s": inclusive.get("brute_force_right_witness", 0.0)
                + inclusive.get("brute_force_left_witness", 0.0),
                "harness.grid_build_s": inclusive.get("operator_graph_candidates", 0.0),
                "harness.grid_candidates": sum(self.grids.values()),
                "files.parse_s": inclusive.get("parse_relation_text", 0.0),
                "files.serialize_s": inclusive.get("serialize_relation", 0.0),
                "files.bytes_in": self.bytes_in,
                "files.bytes_out": self.bytes_out,
                "cli.self_s": self_s.get("cli", 0.0),
            }
        )
        return out

    def dump(self, path) -> None:
        """Write all spans: one JSON header line, then the raw column arrays."""
        header = {
            "names": self.names,
            "layers": self.layers,
            "count": len(self.name_col),
            "columns": SPAN_FILE_COLUMNS,
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("ascii") + b"\n")
            for column in (self.name_col, self.parent_col, self.start_col, self.end_col, self.book_col):
                column.tofile(handle)
