import re
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from linrel import (
    LinearRelation,
    Matrix,
    Subspace,
    canonical_echelon,
    nullspace,
    parse_rational,
    rank,
    solve_linear,
    vector,
)

from linrel import exact
from linrel.exact import ONE_PASS_RANK, dot, echelon_rows, fraction_rows, line, text_rows
from linrel.harness import operator_graph_candidates
from strategies import matrices


def F(x):
    return Fraction(x)


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-3/2", Fraction(-3, 2)),
            ("0", Fraction(0)),
            ("5", Fraction(5)),
            ("6/4", Fraction(3, 2)),
            ("3/-2", Fraction(-3, 2)),
            (" 7/1 ", Fraction(7)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "1/0", "x", "1.5", "1/2/3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["\uff13/\uff14", "\u0663", "1/\u0664", "1_0", "\u00a07"])
    def test_parse_takes_only_ascii_digits(self, text):
        # int() and the regex class \d would read these as 3/4, 3, 1/4, 10 and 7
        with pytest.raises(ValueError, match="bad rational"):
            parse_rational(text)

    @given(st.integers(-100, 100), st.integers(1, 100))
    def test_round_trip(self, p, q):
        value = Fraction(p, q)
        assert parse_rational(str(value)) == value


class TestScalarGrammar:
    """Text scalars are read as files read them, by ``parse_ratio``."""

    @pytest.mark.parametrize("text", ["\u0661", "1.5", "1e3", "1_000", "\uff13"])
    def test_every_entry_point_rejects(self, text):
        rel = LinearRelation.full_relation(1, 1)
        calls = (
            lambda: vector([text]),
            lambda: Subspace.from_vectors(1, [(text,)]),
            lambda: Matrix.from_rows([[text]]),
            lambda: rel.membership((text,), (0,)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="bad rational"):
                call()

    @pytest.mark.parametrize("value", [True, False])
    def test_every_entry_point_rejects_a_bool(self, value):
        # a bool is an int to isinstance, but no exact scalar to the Matrix constructor
        rel = LinearRelation.full_relation(1, 1)
        calls = (
            lambda: vector([value]),
            lambda: Subspace.from_vectors(1, [(value,)]),
            lambda: Matrix.from_rows([[value]]),
            lambda: Matrix(1, 1, (value,)),
            lambda: rel.membership((value,), (0,)),
            lambda: solve_linear(Matrix(1, 1, (1,)), [value]),
        )
        for call in calls:
            with pytest.raises(TypeError, match=repr(value)):
                call()

    def test_exact_scalars_are_accepted(self):
        values = ("3/4", " -2 ", Fraction(1, 3), 5)
        expected = (Fraction(3, 4), Fraction(-2), Fraction(1, 3), Fraction(5))
        assert vector(values) == expected
        assert Matrix.from_rows([values]) == Matrix.from_rows([expected])
        assert Subspace.from_vectors(4, [values]) == Subspace.from_vectors(4, [expected])
        assert LinearRelation.from_generators(2, 2, [expected]).membership(values[:2], values[2:])


class TestCanonicalEchelon:
    def test_worked_example(self):
        reduced, rk, pivots = canonical_echelon(Matrix.from_rows([[2, 4], [1, 2]]))
        assert reduced == Matrix.from_rows([[1, 2], [0, 0]])
        assert rk == 1
        assert pivots == (0,)

    def test_identity_is_fixed(self):
        ident = Matrix.identity(3)
        reduced, rk, pivots = canonical_echelon(ident)
        assert reduced == ident
        assert rk == 3
        assert pivots == (0, 1, 2)

    def test_empty_matrix(self):
        reduced, rk, pivots = canonical_echelon(Matrix.zero(0, 0))
        assert reduced == Matrix.zero(0, 0)
        assert rk == 0
        assert pivots == ()

    @given(matrices())
    def test_row_space_preserved(self, m):
        reduced = canonical_echelon(m).matrix
        assert rank(m.vstack(reduced)) == rank(m) == rank(reduced)

    @given(matrices())
    def test_idempotent(self, m):
        reduced = canonical_echelon(m).matrix
        assert canonical_echelon(reduced).matrix == reduced

    @given(matrices())
    def test_pivot_structure(self, m):
        reduced, rk, pivots = canonical_echelon(m)
        assert len(pivots) == rk
        assert list(pivots) == sorted(pivots)
        for r, p in enumerate(pivots):
            assert reduced[r, p] == 1
            for other in range(m.rows):
                if other != r:
                    assert reduced[other, p] == 0
        for r in range(rk, m.rows):
            assert not any(reduced.row(r))


class TestFullRank:
    """A row space of full rank has the unit rows as its canonical rows,
    and every canonicalization returns them without a back substitution,
    at ranks on both sides of ``ONE_PASS_RANK``."""

    @pytest.fixture(autouse=True)
    def refuse_back_substitution(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a back substitution ran")

        monkeypatch.setattr(exact, "_back_substitute", refuse)
        monkeypatch.setattr(exact, "_one_pass_rows", refuse)

    @staticmethod
    def vandermonde(n):
        """n dense rows of rank n: row i is (1, a, a², ...) for a = i + 2."""
        return [[(i + 2) ** j for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("n", [0, 1, 3, ONE_PASS_RANK + 2])
    def test_unit_rows_are_the_identity(self, n):
        assert exact.unit_rows(n) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert Subspace.full(n).rows == exact.unit_rows(n)

    @pytest.mark.parametrize("n", [3, ONE_PASS_RANK + 2])
    def test_echelon_rows(self, n):
        assert echelon_rows(self.vandermonde(n), n) == (exact.unit_rows(n), list(range(n)))

    @pytest.mark.parametrize("n", [3, ONE_PASS_RANK + 2])
    def test_split_heads_alone(self, n):
        rows = [v + [i] for i, v in enumerate(self.vandermonde(n))]
        assert exact.split_echelon_rows(rows, n + 1, n) == (exact.unit_rows(n), ())

    @pytest.mark.parametrize("n", [3, ONE_PASS_RANK + 2])
    def test_split_projection_and_slice(self, n):
        # n + 1 rows past a cut at n (or at 1): both sides are whole spaces
        rows = [v + [1] for v in self.vandermonde(n)] + [[0] * n + [1]]
        assert exact.split_echelon_rows(rows, n + 1, n) == (exact.unit_rows(n), ((1,),))
        rows = [[1] + v for v in self.vandermonde(n)] + [[1] + [0] * n]
        assert exact.split_echelon_rows(rows, n + 1, 1) == (((1,),), exact.unit_rows(n))


class TestNullspace:
    def test_worked_example(self):
        space = nullspace(Matrix.from_rows([[1, 2]]))
        assert space.column_tuples() == [(F(-2), F(1))]

    def test_injective_map(self):
        assert nullspace(Matrix.identity(2)).shape == (2, 0)

    def test_empty_domain(self):
        assert nullspace(Matrix.from_rows([[]], cols=0)).shape == (0, 0)

    @given(matrices())
    def test_annihilation_and_rank_nullity(self, m):
        space = nullspace(m)
        assert (m @ space).is_zero()
        assert rank(m) + space.cols == m.cols


class TestSolveLinear:
    def test_particular_solution(self):
        m = Matrix.from_rows([[1, 0], [0, 0]])
        assert solve_linear(m, (3, 0)) == (F(3), F(0))

    def test_inconsistent(self):
        m = Matrix.from_rows([[1, 0], [0, 0]])
        assert solve_linear(m, (0, 1)) is None

    def test_identity(self):
        m = Matrix.identity(3)
        assert solve_linear(m, (1, 2, 3)) == (F(1), F(2), F(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(Matrix.identity(2), (1, 2, 3))

    @given(matrices(), st.data())
    def test_postconditions(self, m, data):
        b = tuple(data.draw(st.integers(-3, 3)) for _ in range(m.rows))
        x = solve_linear(m, b)
        if x is None:
            augmented = m.hstack(Matrix.from_cols([b], rows=m.rows))
            assert rank(augmented) > rank(m)
        else:
            assert m.matvec(x) == tuple(Fraction(v) for v in b)


@st.composite
def product_operands(draw):
    """(a, b, v) with a·b and a·v defined, up to 4×4: all entries ints, as
    ``Matrix`` keeps them, or all ``Fraction``s, and any extent 0."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    entry = draw(st.sampled_from([st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6)]))

    def matrix(rows, cols):
        return Matrix(rows, cols, tuple(draw(entry) for _ in range(rows * cols)))

    return matrix(n, k), matrix(k, m), [draw(entry) for _ in range(k)]


def loop_product(a, b):
    """a·b by the plain triple loop over Fractions."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = Fraction(0)
            for k in range(a.cols):
                total += Fraction(a[i, k]) * Fraction(b[k, j])
            out.append(total)
    return tuple(out)


class TestMatrixBasics:
    @given(product_operands())
    @example((Matrix(0, 3, ()), Matrix(3, 2, (1, 0, -2, 3, 0, 1)), [1, 2, 3]))
    @example((Matrix(2, 3, (1, 0, -2, 3, 0, 1)), Matrix(3, 0, ()), [1, 2, 3]))
    @example((Matrix(2, 0, ()), Matrix(0, 3, ()), []))
    def test_products_agree_with_a_fraction_loop(self, operands):
        """``a @ b`` and ``a.matvec(v)``, whose entries are each one ``dot``,
        equal the triple loop over Fractions, and every entry is a ``Fraction``,
        for int entries and for an empty inner extent, where ``dot`` gives the
        int 0, alike."""
        a, b, v = operands
        product = a @ b
        assert product.shape == (a.rows, b.cols)
        assert product.entries == loop_product(a, b)
        image = a.matvec(v)
        assert image == loop_product(a, Matrix(len(v), 1, tuple(v)))
        assert all(type(x) is Fraction for x in product.entries + image)

    def test_zero_extent_product(self):
        a = Matrix.zero(2, 0)
        b = Matrix.zero(0, 3)
        assert (a @ b) == Matrix.zero(2, 3)

    def test_index_must_be_in_range(self):
        """``row``, ``col`` and ``m[i, j]`` read only inside the matrix: an
        index past the end, or a negative one, raises rather than reading
        a neighbouring row or nothing."""
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert (m.row(1), m.col(1), m[1, 0]) == ((F(3), F(4)), (F(2), F(4)), F(3))
        for bad in (-1, 2, 3, 5):
            with pytest.raises(IndexError, match=rf"^row {bad} out of range for 2x2\Z"):
                m.row(bad)
            with pytest.raises(IndexError, match=rf"^column {bad} out of range for 2x2\Z"):
                m.col(bad)
            with pytest.raises(IndexError, match=r"^index .* out of range for 2x2\Z"):
                m[bad, 0]
        flat = Matrix.zero(2, 0)
        assert flat.row(1) == () and flat.column_tuples() == []
        with pytest.raises(IndexError, match=r"^column 0 out of range for 2x0\Z"):
            flat.col(0)

    def test_transpose_involution(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, (F(1),))
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("shape", [(True, 1), (1, 1.0), (-1, 0)])
    def test_extent_must_be_non_negative_ints(self, shape):
        with pytest.raises(ValueError, match=r"^(rows|cols) must be (an int|at least 0)"):
            Matrix(*shape, (F(1),) * max(0, int(shape[0] * shape[1])))
        with pytest.raises(ValueError, match=r"^(rows|cols) must be (an int|at least 0)"):
            Matrix.from_rows([], cols=1.5)

    @pytest.mark.parametrize("kind, entries", [
        ("list", [F(1)]),
        ("generator", (F(1) for _ in range(1))),
    ])
    def test_entries_must_be_a_tuple(self, kind, entries):
        """A list or a generator of entries would build a matrix that cannot
        be hashed and is unequal to the same entries in a tuple."""
        with pytest.raises(TypeError, match=rf"^entries must be a tuple, not a {kind}\Z"):
            Matrix(1, 1, entries)

    def test_rejects_float_entry(self):
        with pytest.raises(TypeError, match="0.1"):
            Matrix(1, 1, (0.1,))

    @pytest.mark.parametrize("value", [0.1, None, 1j, True])
    def test_vector_rejects_non_exact_scalar(self, value):
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            vector([1, value])

    def test_vector_accepts_exact_scalars(self):
        assert vector([2, "-3/4", F(5)]) == (F(2), Fraction(-3, 4), F(5))

    def test_from_cols_is_the_transpose_of_from_rows(self):
        cols = [[1, "2/3"], [0, -4], [5, 6]]
        assert Matrix.from_cols(cols) == Matrix.from_rows(cols).transpose()
        assert Matrix.from_cols([], rows=3).shape == (3, 0)
        with pytest.raises(ValueError, match=r"^column 1 length 1 does not match 2\Z"):
            Matrix.from_cols([[1, 2], [3]])
        with pytest.raises(ValueError, match=r"^column 0 length 2 does not match 3\Z"):
            Matrix.from_cols([[1, 2]], rows=3)


class TestTextRows:
    def test_worked_example(self):
        rows = ((2, 0, -3, 4, 0), (0, 6, 4, 0, -9))
        assert text_rows(rows) == [["1", "0", "-3/2", "2", "0"], ["0", "1", "2/3", "0", "-3/2"]]

    @given(
        st.lists(
            st.lists(st.integers(-(10**30), 10**30), min_size=4, max_size=4),
            max_size=5,
        )
    )
    def test_prints_what_the_fractions_print(self, gens):
        rows, _ = echelon_rows([list(g) for g in gens], 4)
        assert text_rows(rows) == [[str(x) for x in row] for row in fraction_rows(rows)]


@st.composite
def integer_rows(draw, max_rows=12, max_cols=12):
    """Up to 12 rows of up to 12 small ints, so that ranks on both sides of
    ``ONE_PASS_RANK`` are drawn."""
    cols = draw(st.integers(0, max_cols))
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return cols, draw(st.lists(row, max_size=max_rows))


def assert_own_lines(rows):
    for row in rows:
        assert line(row) == row, rows


class TestLineAndDot:
    """``line`` is the one normal form of an integer row, ``dot`` the one
    dot product, and every row the kernel hands out is its own line."""

    scalars = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
    vectors = st.lists(scalars, max_size=6)

    @given(vectors, st.integers(-10**20, 10**20).filter(bool))
    def test_line_is_primitive_with_a_positive_lead(self, v, c):
        ln = line(v)
        if not any(v):
            assert ln is None and line([c * x for x in v]) is None
            return
        assert type(ln) is tuple and len(ln) == len(v)
        assert next(filter(None, ln)) > 0
        assert reduce(gcd, ln) == 1
        assert line([c * x for x in v]) == ln == line(ln)
        # v is a multiple of its line
        lead = next(filter(None, v)) // next(filter(None, ln))
        assert [lead * x for x in ln] == list(v)

    @given(st.data())
    def test_dot_agrees_with_a_loop(self, data):
        n = data.draw(st.integers(0, 6))
        u, v = (data.draw(st.lists(self.scalars, min_size=n, max_size=n)) for _ in "uv")
        total = 0
        for a, b in zip(u, v):
            total += a * b
        assert dot(u, v) == dot(tuple(u), v) == total

    @given(integer_rows())
    def test_echelon_and_complement_rows_are_their_own_lines(self, drawn):
        cols, data = drawn
        rows, pivots = echelon_rows([list(r) for r in data], cols)
        assert_own_lines(rows)
        gens = exact.complement_rows(rows, pivots, cols)
        assert len(gens) == cols - len(rows)
        assert_own_lines(gens)
        assert all(dot(g, r) == 0 for g in gens for r in rows)

    @given(integer_rows(), st.data())
    def test_split_rows_are_their_own_lines(self, drawn, data):
        cols, data_rows = drawn
        cut = data.draw(st.integers(0, cols))
        top, bottom = exact.split_echelon_rows([list(r) for r in data_rows], cols, cut)
        assert_own_lines(top)
        assert_own_lines(bottom)

    def test_high_rank_rows_are_their_own_lines(self):
        """Dense rows of rank past ``ONE_PASS_RANK``, finished in one pass."""
        cols = 2 * ONE_PASS_RANK + 3
        data = [[(7 * i + 3 * j * j + i * j) % 11 - 5 for j in range(cols)]
                for i in range(ONE_PASS_RANK + 2)]
        rows, pivots = echelon_rows([list(r) for r in data], cols)
        assert len(rows) >= ONE_PASS_RANK
        assert_own_lines(rows)
        assert_own_lines(exact.complement_rows(rows, pivots, cols))
        top, bottom = exact.split_echelon_rows([list(r) for r in data], cols, ONE_PASS_RANK + 1)
        assert_own_lines(top + bottom)

    def test_complement_rows_lead_positive(self):
        """Each complement row is positive at its first nonzero entry, not at
        its free column."""
        assert exact.complement_rows(((1, 2, 3),), [0], 3) == ((2, -1, 0), (3, 0, -1))

    @pytest.mark.parametrize("dims", [(x, y) for x in range(3) for y in range(3)])
    def test_grid_rows_are_their_own_lines(self, dims):
        for rows in operator_graph_candidates(*dims, 2):
            assert_own_lines(rows)
            exact.check_canonical(rows, sum(dims))
