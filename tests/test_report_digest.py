"""Byte-identity guards for the solvers' reports and the canonical forms.

Every refactor of ``linrel.factor`` must leave the text and JSON reports of
all six solvers unchanged, byte for byte.  The first test runs them on a
fixed, seeded set of pairs and compares a SHA-256 over both renderings with
a constant.  The pairs are built here from ``from_generators``, ``compose``
and ``graph_of_matrix`` alone, whose results are canonical, so only a change
in what the solvers decide or build can move the digest.

The second test does the same for the canonical output of the relation
calculus itself: compose, the four bases of a profile, adjoint, inverse,
orthocomplement, intersection and ``linrel info``, on small relations and
on dense pairs at d = 16 and d = 24, whose products have entries of 208
and 351 bits.  A companion test pins ``repr`` of the same subspaces.

The third pins the seeded generators of ``linrel.harness``, which feed
``linrel gen``, the invariant suites and the benchmark inputs; a companion
test pins the benchmark's generator calls at the dimensions and bounds the
third does not use.  The fourth pins the text output of ``linrel check
--suite full --seed 0``.  That text holds only suite names and case
counts, so the fifth pins what the suites checked on the same run: every
check's label and outcome, and the relations each case shows.

That run is the session fixture ``full_check`` in ``conftest.py``, the one
seed-0 sweep of all 18 suites.  It also puts the canonical-form check back
on every subspace the suites build, which
``test_harness.py::test_every_subspace_the_suites_build_is_canonical``
reads.  Acceptance criterion 7's run at seed 11 is the other full sweep;
it checks only that every suite passes.

If a change alters this output on purpose, say so where the change is
recorded and update the matching ``EXPECTED_*`` constant.
"""

import contextlib
import hashlib
import io
import json
import random
from collections import Counter

import pytest

from linrel import (
    LinearRelation,
    Matrix,
    RelationSpec,
    cli,
    compose,
    parse_relation_text,
    profile,
    random_relation,
    serialize_relation,
    solve_adjoint_left,
    solve_adjoint_right,
    solve_left_operator,
    solve_left_relation,
    solve_right_operator,
    solve_right_relation,
)
from linrel.harness import (
    LEFT_KINDS,
    RIGHT_KINDS,
    random_selfadjoint,
    random_square_pair,
    targeted_left_pair,
    targeted_right_pair,
)

EXPECTED_DIGEST = "376a973f2f9b8fbc032bcf6295ae582188b77384279ba2452797374429693890"

EXPECTED_CANONICAL_DIGEST = "a9b1cfa50d51211eca55f53f7c1bcb94ff012ab2df0a472135a49f7b37feff53"

EXPECTED_REPR_DIGEST = "efaff8ccff3fb124b30b857bdd66864be101138e9b45010a3c48847dc7005aa5"

EXPECTED_GENERATOR_DIGEST = "dc1210423cea32a82b136b9bfdc138cd5cb976bcef18c89ff4f99f053db22088"

EXPECTED_BENCHMARK_INPUT_DIGEST = "26235f9004f6aae09bf8454f45f43261eb05da762c9da5e846679dd20775c97f"

EXPECTED_CHECK_DIGEST = "88db865d2addf22dd538b87dc71a9b9f220fded6caa61ec55390854a2aba4b1a"

EXPECTED_SUITE_CHECKS_DIGEST = "193d69dc191c855d1785a718618fd025159229e64474db35b5c71e85a3b298a1"

SEED = 20261018
ROUNDS = 60

RIGHT = (solve_right_relation, solve_right_operator)
LEFT = (solve_left_relation, solve_left_operator)
ADJOINT = (solve_adjoint_right, solve_adjoint_left)


def _relation(rng, n, m):
    count = rng.randint(0, n + m)
    gens = [[rng.randint(-2, 2) for _ in range(n + m)] for _ in range(count)]
    return LinearRelation.from_generators(n, m, gens)


def _operator(rng, n, m):
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    return LinearRelation.graph_of_matrix(Matrix.from_rows(rows, cols=n))


def _cases():
    """(solver, A, B) triples: free pairs, pairs factored through an operator
    and through a relation, on each side, plus square pairs for every solver."""
    rng = random.Random(SEED)
    for _ in range(ROUNDS):
        nx, ny, nz = (rng.randint(0, 3) for _ in range(3))
        b = _relation(rng, ny, nz)
        for a in (_relation(rng, nx, nz), compose(b, _operator(rng, nx, ny)),
                  compose(b, _relation(rng, nx, ny))):
            for solver in RIGHT:
                yield solver, a, b
        b = _relation(rng, nx, nz)
        for a in (_relation(rng, nx, ny), compose(_operator(rng, nz, ny), b),
                  compose(_relation(rng, nz, ny), b)):
            for solver in LEFT:
                yield solver, a, b
        d = rng.randint(0, 3)
        b = _relation(rng, d, d)
        for a in (_relation(rng, d, d), compose(b, _operator(rng, d, d)),
                  compose(_operator(rng, d, d), b)):
            for solver in RIGHT + LEFT + ADJOINT:
                yield solver, a, b


def test_solver_reports_are_byte_identical():
    digest = hashlib.sha256()
    outcomes = Counter()
    for solver, a, b in _cases():
        report = solver(a, b)
        outcomes[solver.__name__, report.solvable] += 1
        digest.update(report.to_text().encode())
        digest.update(json.dumps(report.to_json_dict()).encode())
        digest.update(b"\0")
    # the set must reach both answers of every solver to guard anything
    for solver in RIGHT + LEFT + ADJOINT:
        assert outcomes[solver.__name__, True] and outcomes[solver.__name__, False], outcomes
    assert digest.hexdigest() == EXPECTED_DIGEST


def _generator_text(rng, width):
    """One generator line with small integers and an occasional fraction."""
    fields = []
    for _ in range(width):
        p = rng.randint(-3, 3)
        fields.append(f"{p}/{rng.randint(2, 5)}" if p and rng.random() < 0.2 else str(p))
    return " ".join(fields)


def _relation_file(rng, n, m, count):
    lines = [f"dim_x={n}", f"dim_y={m}"] + [_generator_text(rng, n + m) for _ in range(count)]
    return "\n".join(lines) + "\n"


def _canonical_pairs():
    """(A text, B text) of square relations: small ones of every rank, and
    dense ones at d = 16 and d = 24 with more generators than d, so that
    their graphs meet and their products are multivalued."""
    rng = random.Random(SEED + 1)
    for _ in range(40):
        d = rng.randint(0, 4)
        yield (_relation_file(rng, d, d, rng.randint(0, 2 * d)),
               _relation_file(rng, d, d, rng.randint(0, 2 * d)))
    for d in (16, 24):
        yield _relation_file(rng, d, d, d + 3), _relation_file(rng, d, d, d + 2)


def _basis_text(label, sub):
    cols = [" ".join(str(x) for x in col) for col in sub.basis.column_tuples()]
    return f"{label} {sub.ambient_dim} {sub.dim}\n" + "".join(c + "\n" for c in cols)


@pytest.fixture(scope="module")
def canonical_relations():
    """For each canonical pair: A's text, A, B, C = B∘A and C's profile,
    built once for both tests that read them."""
    relations = []
    for a_text, b_text in _canonical_pairs():
        a, b = parse_relation_text(a_text), parse_relation_text(b_text)
        c = compose(b, a)
        relations.append((a_text, a, b, c, profile(c)))
    return relations


def test_canonical_output_is_byte_identical(tmp_path, canonical_relations):
    digest = hashlib.sha256()
    for index, (a_text, a, b, c, p) in enumerate(canonical_relations):
        path = tmp_path / f"a{index}.rel"
        path.write_text(a_text)
        info = io.StringIO()
        with contextlib.redirect_stdout(info):
            assert cli.main(["info", str(path)]) == 0
        parts = [info.getvalue(), serialize_relation(c), serialize_relation(c.adjoint()),
                 serialize_relation(a.inverse())]
        parts += [_basis_text(label, getattr(p, label)) for label in ("dom", "ran", "ker", "mul")]
        parts.append(_basis_text("perp", a.graph.ortho_complement()))
        parts.append(_basis_text("meet", a.graph.intersect(b.graph)))
        for part in parts:
            digest.update(part.encode("ascii"))
            digest.update(b"\0")
    assert digest.hexdigest() == EXPECTED_CANONICAL_DIGEST


def test_subspace_repr_is_byte_identical(canonical_relations):
    digest = hashlib.sha256()
    for _, a, b, c, p in canonical_relations:
        subs = [a.graph, b.graph, c.graph, c.adjoint().graph, a.inverse().graph,
                p.dom, p.ran, p.ker, p.mul, a.graph.ortho_complement(), a.graph.intersect(b.graph)]
        for sub in subs:
            digest.update(repr(sub).encode("ascii"))
            digest.update(b"\0")
    assert digest.hexdigest() == EXPECTED_REPR_DIGEST


GENERATOR_SEED = 20261019
GENERATOR_ROUNDS = 60


def _generated():
    """Relations from every seeded generator: ``random_relation`` on targeted
    and plain specs, both pair makers for every kind, square pairs and
    self-adjoint relations."""
    rng = random.Random(GENERATOR_SEED)
    for _ in range(GENERATOR_ROUNDS):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        dd, dm = rng.randint(0, n), rng.randint(0, m)
        dk = dd - rng.randint(0, min(dd, m - dm))
        bound = rng.randint(1, 4)
        yield random_relation(RelationSpec(n, m, dd, dm, dk, bound, rng.getrandbits(32)))
        yield random_relation(RelationSpec(n, m, coeff_bound=bound, seed=rng.getrandbits(32)))
        for kind in RIGHT_KINDS:
            yield from targeted_right_pair(random.Random(rng.getrandbits(32)), kind)
        for kind in LEFT_KINDS:
            yield from targeted_left_pair(random.Random(rng.getrandbits(32)), kind)
        yield from random_square_pair(random.Random(rng.getrandbits(32)))
        yield random_selfadjoint(random.Random(rng.getrandbits(32)), rng.randint(0, 4))


def test_generated_relations_are_byte_identical():
    digest = hashlib.sha256()
    for rel in _generated():
        digest.update(serialize_relation(rel).encode("ascii"))
        digest.update(b"\0")
    assert digest.hexdigest() == EXPECTED_GENERATOR_DIGEST


def _benchmark_inputs():
    """The generator calls of ``perfbench/workloads.py`` that ``_generated``
    does not make: both pair makers at ``max_dim=2, bound=2`` for every
    violating kind (brute_confirm) and ``random_square_pair`` at
    ``max_dim=6`` (solve_mix's adjoint items)."""
    rng = random.Random(GENERATOR_SEED + 1)
    violating = [(targeted_right_pair, kind) for kind in RIGHT_KINDS if kind.startswith("violate_")]
    violating += [(targeted_left_pair, kind) for kind in LEFT_KINDS if kind.startswith("violate_")]
    for _ in range(GENERATOR_ROUNDS):
        for make, kind in violating:
            yield from make(random.Random(rng.getrandbits(32)), kind, max_dim=2, bound=2)
        yield from random_square_pair(random.Random(rng.getrandbits(32)), max_dim=6)


def test_benchmark_inputs_are_byte_identical():
    digest = hashlib.sha256()
    for rel in _benchmark_inputs():
        digest.update(serialize_relation(rel).encode("ascii"))
        digest.update(b"\0")
    assert digest.hexdigest() == EXPECTED_BENCHMARK_INPUT_DIGEST


def test_full_check_output_is_byte_identical(full_check):
    assert full_check.code == 0, full_check.err
    assert hashlib.sha256(full_check.out.encode("ascii")).hexdigest() == EXPECTED_CHECK_DIGEST


def test_suites_check_the_same_facts(full_check):
    assert full_check.code == 0, full_check.err
    assert full_check.digest == EXPECTED_SUITE_CHECKS_DIGEST
