"""The exact kernel, and the orthocomplement read off its canonical bases,
against an independent reference: ``sympy.Matrix`` over QQ.

Inputs carry rational entries with denominators up to 2^64, rows that are
linear combinations of earlier rows (so ranks fall short), and zero-extent
shapes, which the small-integer strategies of the other tests never reach.
``split_span`` is drawn mostly with no more rows than the cut, where the
kernel eliminates the heads alone before it decides whether the tails matter.
``echelon_rows``, and the projections and slices of ``split_span``, are
drawn around the rank where the back substitution changes route, with
entries of hundreds of digits; ``echelon_rows`` also on dense d×2d rows.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from linrel import Matrix, Subspace, canonical_echelon, exact, files, nullspace, rank, solve_linear

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
nonzero = st.builds(
    lambda x, negative: -x if negative else x,
    st.one_of(st.integers(1, 3).map(Fraction), st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG))),
    st.booleans(),
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


@st.composite
def independent_heads(draw, count, cut):
    """``count`` independent vectors of length ``cut``: echelon rows with
    nonzero pivots, mixed by adding multiples of one row to another."""
    pivots = sorted(draw(st.permutations(range(cut)))[:count])
    heads = [[Fraction(0)] * p + [draw(nonzero)] + [draw(entries) for _ in range(cut - p - 1)]
             for p in pivots]
    for i in range(count):
        for j in range(count):
            if i != j and draw(st.booleans()):
                w = draw(coefficients)
                heads[i] = [x + w * y for x, y in zip(heads[i], heads[j])]
    return draw(st.permutations(heads))


@st.composite
def split_inputs(draw):
    """(cols, cut, rows, head) for ``Subspace.split_span``.  Most draws have
    at most ``cut`` rows, whose heads (first ``cut`` entries) are
    independent (``cut`` of them, or fewer), dependent (the first head is a
    combination of the others) or partly zero; the rest have more rows.
    ``cut`` runs from 0 to ``cols``."""
    kind = draw(st.sampled_from(["square", "independent", "dependent", "zero", "more"]))
    if kind == "square":
        count = cut = draw(st.integers(0, 5))
    elif kind == "independent":
        count = draw(st.integers(1, 4))
        cut = draw(st.integers(count + 1, 6))
    elif kind == "more":
        cut = draw(st.integers(0, 4))
        count = cut + draw(st.integers(1, 2))
    else:
        count = draw(st.integers(1, 4))
        cut = draw(st.integers(count, 6))
    cols = draw(st.one_of(st.just(cut), st.integers(cut, 7)))
    if kind in ("square", "independent"):
        heads = draw(independent_heads(count, cut))
    else:
        heads = [[draw(entries) for _ in range(cut)] for _ in range(count)]
    if kind == "dependent":
        weights = [draw(coefficients) for _ in heads[1:]]
        heads[0] = [sum(w * r[j] for w, r in zip(weights, heads[1:])) for j in range(cut)]
    if kind == "zero":
        heads[draw(st.integers(0, count - 1))] = [Fraction(0)] * cut
    rows = [h + [draw(entries) for _ in range(cols - cut)] for h in heads]
    return cols, cut, rows, draw(st.booleans())


def sympy_rows(vectors, width):
    """The nonzero rows of the RREF of ``vectors``, as a Matrix of Fractions."""
    if not vectors:
        return Matrix(0, width, ())
    rref, pivots = sympy.Matrix(vectors).rref()
    return from_sympy(rref[: len(pivots), :])


@settings(max_examples=300)
@given(split_inputs())
# two independent heads that fill Q^2, and two in Q^3 that need back substitution
@example((3, 2, [[3, 1, 5], [Fraction(1, 2), 2, -7]], True))
@example((4, 3, [[1, 1, 0, 5], [0, 1, 1, 7]], True))
def test_split_span_matches_sympy(drawn):
    check_split_span(*drawn)


def check_split_span(cols, cut, rows, head):
    """``Subspace.split_span`` gives the projection and the slice that sympy
    computes; returns them."""
    top, bottom = Subspace.split_span(cols, rows, cut, head)
    m = sympy.Matrix(len(rows), cols, [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r])
    heads, tails = m[:, :cut], m[:, cut:]
    # (0, w) is in the row space iff w = cᵀ·tails for some c with cᵀ·heads = 0
    slice_gens = [list(c.T * tails) for c in heads.T.nullspace()] if rows else []
    assert bottom.basis.transpose() == sympy_rows(slice_gens, cols - cut)
    if head:
        assert top.basis.transpose() == sympy_rows([list(heads.row(i)) for i in range(len(rows))], cut)
    else:
        assert top is None
    return top, bottom


ONE_PASS_RANK = exact.ONE_PASS_RANK


def check_echelon_rows(rows, cols):
    """``exact.echelon_rows`` on the integer ``rows`` gives sympy's pivots
    and, each row divided by its lead, the nonzero rows of sympy's RREF."""
    got, pivots = exact.echelon_rows([list(r) for r in rows], cols)
    reference, expected = sympy.Matrix(len(rows), cols, [x for r in rows for x in r]).rref()
    assert pivots == list(expected)
    assert exact.fraction_rows(got) == [tuple(fraction(x) for x in reference.row(i)) for i in range(len(pivots))]
    exact.check_canonical(got, cols)
    return pivots


HUGE = st.integers(10**300, 10**400)
signed = st.builds(lambda x, negative: -x if negative else x, st.one_of(st.integers(1, 3), HUGE), st.booleans())
integer_entries = st.one_of(st.just(0), st.integers(-3, 3), signed)


@st.composite
def systems_of_rank(draw, rank):
    """(rows, cols) of integer rows of exactly ``rank``: echelon rows that
    lead with either sign, some columns zero throughout, entries of up to
    400 digits, each row plus multiples of the rows below it (so the back
    substitution has work), then up to two combinations of them (the rank
    falls short of the row count), shuffled."""
    cols = rank + draw(st.integers(0, 2)) + draw(st.integers(0, 4))
    order = draw(st.permutations(range(cols)))
    pivots = sorted(order[:rank])
    zero = set(order[rank : rank + draw(st.integers(0, cols - rank))])
    rows = [
        [0] * p + [draw(signed)] + [0 if c in zero else draw(integer_entries) for c in range(p + 1, cols)]
        for p in pivots
    ]
    for i in range(rank):
        for j in range(i + 1, rank):
            if draw(st.booleans()):
                w = draw(st.integers(-3, 3))
                rows[i] = [x + w * y for x, y in zip(rows[i], rows[j])]
    for _ in range(draw(st.integers(0, 2))):
        weights = [draw(st.integers(-2, 2)) for _ in rows[:rank]]
        rows.append([sum(w * r[c] for w, r in zip(weights, rows)) for c in range(cols)])
    return draw(st.permutations(rows)), cols


@settings(max_examples=60)
@given(st.sampled_from([ONE_PASS_RANK - 1, ONE_PASS_RANK, ONE_PASS_RANK + 1]).flatmap(systems_of_rank))
def test_echelon_rows_matches_sympy_around_the_crossover(drawn):
    rows, cols = drawn
    assert len(check_echelon_rows(rows, cols)) >= ONE_PASS_RANK - 1


@st.composite
def split_systems_of_rank(draw, rank):
    """(cols, cut, rows, side, rank) for ``Subspace.split_span`` whose
    projection (``side`` "head") or slice (``side`` "slice") is the span of
    the rows of a ``systems_of_rank`` draw.  The other side's rows have independent parts
    there, so they leave that span alone; then rows are added to one
    another, which changes neither side, and shuffled."""
    inner, width = draw(systems_of_rank(rank))
    count = draw(st.integers(0, 3))
    outer = draw(independent_heads(count, count + draw(st.integers(0, 2))))
    other = len(outer[0]) if outer else draw(st.integers(0, 2))
    side = draw(st.sampled_from(["head", "slice"]))
    if side == "head":
        cut = width
        rows = [r + [draw(integer_entries) for _ in range(other)] for r in inner]
        rows += [[0] * width + o for o in outer]
    else:
        cut = other
        rows = [[0] * other + r for r in inner]
        rows += [o + [draw(integer_entries) for _ in range(width)] for o in outer]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(len(rows))))[:2]
        w = draw(st.integers(-3, 3))
        rows[i] = [x + w * y for x, y in zip(rows[i], rows[j])]
    return width + other, cut, draw(st.permutations(rows)), side, rank


@settings(max_examples=60)
@given(st.sampled_from([ONE_PASS_RANK - 1, ONE_PASS_RANK, ONE_PASS_RANK + 1]).flatmap(split_systems_of_rank))
def test_split_span_matches_sympy_around_the_crossover(drawn):
    """A projection or a slice whose rank is around ``ONE_PASS_RANK``."""
    cols, cut, rows, side, rank = drawn
    top, bottom = check_split_span(cols, cut, rows, head=True)
    assert (top if side == "head" else bottom).dim == rank


@pytest.mark.parametrize("d, bound", [(16, 3), (24, 3), (8, 10**300)], ids=["16x32", "24x48", "8x16-huge"])
def test_echelon_rows_matches_sympy_on_dense_rows(d, bound):
    """Dense d×2d rows, one of them a combination of two others."""
    rng = random.Random(d)
    rows = [[rng.randint(-bound, bound) for _ in range(2 * d)] for _ in range(d)]
    rows.insert(d // 2, [3 * x - y for x, y in zip(rows[0], rows[-1])])
    assert len(check_echelon_rows(rows, 2 * d)) == d


def relation_text(d, count, seed):
    rng = random.Random(seed)
    gens = [" ".join(str(rng.randint(-3, 3)) for _ in range(2 * d)) for _ in range(count)]
    return "\n".join([f"dim_x={d}", f"dim_y={d}", *gens]) + "\n"


@pytest.mark.parametrize("count", [16, ONE_PASS_RANK - 1])
def test_parse_takes_the_one_pass_route_from_the_crossover(monkeypatch, count):
    """A parse of 16 dense generators in Q^32 back-substitutes in one pass;
    a parse of fewer generators than the crossover rank does not."""
    text = relation_text(16, count, seed=count)
    expected = files.parse_relation_text(text)
    one_pass, ranks = exact._one_pass_rows, []

    def spy(data, pivots, cols):
        ranks.append(len(pivots))
        return one_pass(data, pivots, cols)

    monkeypatch.setattr(exact, "_one_pass_rows", spy)
    assert files.parse_relation_text(text) == expected
    assert expected.graph.dim == count
    assert ranks == ([16] if count >= ONE_PASS_RANK else [])
