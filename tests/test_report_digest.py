"""Byte-identity guard for the solvers' reports.

Every refactor of ``linrel.factor`` must leave the text and JSON reports of
all six solvers unchanged, byte for byte.  This test runs them on a fixed,
seeded set of pairs and compares a SHA-256 over both renderings with a
constant.  The pairs are built here from ``from_generators``, ``compose``
and ``graph_of_matrix`` alone, whose results are canonical, so only a change
in what the solvers decide or build can move the digest.

If a change alters report output on purpose, say so where the change is
recorded and update ``EXPECTED_DIGEST``.
"""

import hashlib
import json
import random
from collections import Counter

from linrel import (
    LinearRelation,
    Matrix,
    compose,
    solve_adjoint_left,
    solve_adjoint_right,
    solve_left_operator,
    solve_left_relation,
    solve_right_operator,
    solve_right_relation,
)

EXPECTED_DIGEST = "376a973f2f9b8fbc032bcf6295ae582188b77384279ba2452797374429693890"

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
