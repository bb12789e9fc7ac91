"""The exact kernel, and the orthocomplement read off its canonical bases,
against an independent reference: ``sympy.Matrix`` over QQ.

Inputs carry rational entries with denominators up to 2^64, rows that are
linear combinations of earlier rows (so ranks fall short), and zero-extent
shapes, which the small-integer strategies of the other tests never reach.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from linrel import Matrix, Subspace, canonical_echelon, nullspace, rank, solve_linear

sympy = pytest.importorskip("sympy")

BIG = 2**64

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
coefficients = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def rational_matrices(draw, max_rows=6, max_cols=6):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    data: list[list[Fraction]] = []
    for _ in range(rows):
        if data and draw(st.booleans()):
            weights = [draw(coefficients) for _ in data]
            data.append([sum(w * r[j] for w, r in zip(weights, data)) for j in range(cols)])
        else:
            data.append([draw(entries) for _ in range(cols)])
    return Matrix.from_rows(data, cols=cols)


def to_sympy(m: Matrix):
    entries = [sympy.Rational(x.numerator, x.denominator) for x in m.entries]
    return sympy.Matrix(m.rows, m.cols, entries)


def fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def from_sympy(s) -> Matrix:
    return Matrix(s.rows, s.cols, tuple(fraction(x) for x in s))


@settings(max_examples=200)
@given(rational_matrices())
def test_canonical_echelon_matches_sympy_rref(m):
    reference, pivots = to_sympy(m).rref()
    form = canonical_echelon(m)
    assert form.matrix == from_sympy(reference)
    assert form.pivot_cols == tuple(pivots)
    assert form.rank == len(pivots)


@settings(max_examples=200)
@given(rational_matrices())
def test_rank_matches_sympy(m):
    assert rank(m) == to_sympy(m).rank()


@settings(max_examples=200)
@given(rational_matrices())
def test_nullspace_matches_sympy(m):
    columns = to_sympy(m).nullspace()
    expected = Matrix.from_cols([[fraction(x) for x in c] for c in columns], rows=m.cols)
    assert nullspace(m) == expected


@settings(max_examples=200)
@given(rational_matrices(), st.data())
def test_solve_linear_matches_sympy(m, data):
    if data.draw(st.booleans(), label="consistent by construction"):
        x0 = [data.draw(coefficients) for _ in range(m.cols)]
        b = m.matvec(x0)
    else:
        b = tuple(data.draw(entries) for _ in range(m.rows))
    reference = to_sympy(m)
    augmented = reference.row_join(to_sympy(Matrix.from_cols([b], rows=m.rows)))
    consistent = reference.rank() == augmented.rank()
    x = solve_linear(m, b)
    assert (x is not None) == consistent
    if x is None:
        return
    assert m.matvec(x) == tuple(b)
    _, pivots = reference.rref()
    assert all(x[j] == 0 for j in range(m.cols) if j not in pivots)


@settings(max_examples=200)
@given(rational_matrices())
def test_ortho_complement_matches_sympy_nullspace(m):
    u = Subspace.from_vectors(m.cols, map(m.row, range(m.rows)))
    complement = u.ortho_complement()
    basis, found = to_sympy(u.basis), to_sympy(complement.basis)
    reference = basis.T.nullspace()
    assert complement.dim == len(reference) == m.cols - to_sympy(m).rank()
    assert (basis.T * found).is_zero_matrix
    if reference:
        # the canonical basis is the RREF of sympy's nullspace vectors, as rows
        rref, _ = sympy.Matrix.hstack(*reference).T.rref()
        assert from_sympy(rref) == complement.basis.transpose()
