"""Command-line surface over the relation calculus and the solvers.

Exit-code contract: 0 on success (and for solvable factorizations), 2 when a
factorization is unsolvable, a verification fails, or a suite reports
failures, 1 on input errors (usage errors, parse problems, dimension
mismatches, unknown suites, bad counts) and on generator sampler failures.
A stdout closed early, as by ``linrel check --suite full | head -1``, exits
1 and prints nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .exact import text_rows
from .factor import (
    FactorizationReport,
    _yn,
    solve_adjoint_left,
    solve_adjoint_right,
    solve_left_operator,
    solve_left_relation,
    solve_right_operator,
    solve_right_relation,
    verify,
)
from .files import parse_relation_file, serialize_relation, write_relation_file
from .harness import RelationSpec, list_suites, random_relation, run_suite
from .relation import compose, profile

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOLVABLE = 2

_SOLVERS = {
    ("right", "relation"): solve_right_relation,
    ("right", "operator"): solve_right_operator,
    ("right", "adjoint"): solve_adjoint_right,
    ("left", "relation"): solve_left_relation,
    ("left", "operator"): solve_left_operator,
    ("left", "adjoint"): solve_adjoint_left,
}


def _emit_relation(rel, out: Optional[str]) -> None:
    if out:
        write_relation_file(out, rel)
    else:
        sys.stdout.write(serialize_relation(rel))


def cmd_info(args) -> int:
    rel = parse_relation_file(args.file)
    p = profile(rel)
    facts = {
        "dim_x": rel.dim_x,
        "dim_y": rel.dim_y,
        "dom": p.dom.dim,
        "ran": p.ran.dim,
        "ker": p.ker.dim,
        "mul": p.mul.dim,
        "operator": p.is_operator,
        "everywhere_defined": p.is_everywhere_defined,
        "surjective": p.is_surjective,
    }
    if rel.dim_x == rel.dim_y:
        facts["selfadjoint"] = rel.is_selfadjoint()
    if args.json:
        print(json.dumps(facts))
        return EXIT_OK
    fields = [f"{k}={_yn(v) if isinstance(v, bool) else v}" for k, v in facts.items()]
    for line in (fields[:2], fields[2:7], fields[7:]):
        print(" ".join(line))
    for label, sub in (("dom_basis", p.dom), ("ran_basis", p.ran), ("ker_basis", p.ker), ("mul_basis", p.mul)):
        print(f"{label}:")
        for row in text_rows(sub.rows):
            print("  " + " ".join(row))
    return EXIT_OK


def cmd_solve(args) -> int:
    a = parse_relation_file(args.file_a)
    b = parse_relation_file(args.file_b)
    report: FactorizationReport = _SOLVERS[(args.side, args.level)](a, b)
    # before any output, so an --out that cannot be written leaves stdout empty
    if args.out and report.solvable:
        write_relation_file(args.out, report.witness)
    if args.json:
        # the object alone: its conditions already say which failed
        print(json.dumps(report.to_json_dict()))
    else:
        sys.stdout.write(report.to_text())
        if not report.solvable:
            print("failed:", " ".join(report.failed_conditions()))
    return EXIT_OK if report.solvable else EXIT_UNSOLVABLE


def cmd_verify(args) -> int:
    a = parse_relation_file(args.file_a)
    b = parse_relation_file(args.file_b)
    t = parse_relation_file(args.file_t)
    ok = verify(a, b, t, args.side)
    print(f"verified={_yn(ok)}")
    return EXIT_OK if ok else EXIT_UNSOLVABLE


def cmd_compose(args) -> int:
    outer = parse_relation_file(args.file_outer)
    inner = parse_relation_file(args.file_inner)
    _emit_relation(compose(outer, inner), args.out)
    return EXIT_OK


def cmd_inverse(args) -> int:
    _emit_relation(parse_relation_file(args.file).inverse(), args.out)
    return EXIT_OK


def cmd_adjoint(args) -> int:
    _emit_relation(parse_relation_file(args.file).adjoint(), args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = RelationSpec(
        dim_x=args.dim_x,
        dim_y=args.dim_y,
        dim_dom=args.dom,
        dim_mul=args.mul,
        dim_ker=args.ker,
        coeff_bound=args.coeff_bound,
        seed=args.seed,
    )
    _emit_relation(random_relation(spec), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.suite == "full":
        names = list_suites()
    else:
        names = (args.suite,)
    all_ok = True
    for name in names:
        result = run_suite(name, args.cases, args.seed)
        if args.json:
            print(json.dumps(result.to_json_dict()))
        else:
            sys.stdout.write(result.to_text())
        all_ok = all_ok and result.ok
    return EXIT_OK if all_ok else EXIT_UNSOLVABLE


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_ERROR on a usage error, where argparse exits 2 (EXIT_UNSOLVABLE)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linrel",
        description="Exact calculus of linear relations: inspect, compose, and factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print dims, canonical bases and flags of a relation")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("solve", help="decide A = B*X (right) or A = X*B (left) and emit a witness")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--level", choices=("relation", "operator", "adjoint"), required=True)
    p.add_argument("--out", help="path for the witness relation file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="check B*T = A (right) or T*B = A (left) exactly")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("file_t")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compose", help="compose OUTER after INNER (apply INNER first)")
    p.add_argument("file_outer")
    p.add_argument("file_inner")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("inverse", help="coordinate-swap inverse of a relation")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_inverse)

    p = sub.add_parser("adjoint", help="adjoint of a relation")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_adjoint)

    p = sub.add_parser("gen", help="deterministically generate a random relation")
    p.add_argument("--dim-x", type=int, required=True)
    p.add_argument("--dim-y", type=int, required=True)
    p.add_argument("--dom", type=int)
    p.add_argument("--mul", type=int)
    p.add_argument("--ker", type=int)
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("check", help="run a named invariant suite (or 'full')")
    p.add_argument("--suite", default="full")
    p.add_argument("--cases", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away, which is no input error: say
        # nothing, and point stdout at devnull so the flush at exit cannot
        # raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
