from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from linrel import LinearRelation, Matrix, Subspace, canonical_echelon, exact, profile

from strategies import matrices, sp, subspaces


class TestSpan:
    def test_parallel_generators_collapse(self):
        u = sp(2, (2, 0), (1, 0))
        assert u.dim == 1
        assert u == sp(2, (1, 0))

    def test_no_generators(self):
        assert sp(3).dim == 0
        assert sp(3) == Subspace.zero(3)
        assert Subspace.from_vectors(3, iter(())) == Subspace.zero(3)

    def test_full_space(self):
        assert sp(2, (1, 0), (0, 1)) == Subspace.full(2)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.span(3, Matrix.identity(2))

    @given(subspaces(), st.randoms(use_true_random=False))
    def test_canonical_under_shuffle_and_scale(self, u, rng):
        scaled = []
        for c in u.basis.column_tuples():
            factor = rng.choice([1, -1, 2, 3])
            scaled.append([x * factor for x in c])
        rng.shuffle(scaled)
        # throw in a redundant sum of the generators
        if scaled:
            scaled.append([sum(c) for c in zip(*scaled)])
        assert Subspace.from_vectors(u.ambient_dim, scaled) == u


class TestFromVectors:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="generator length 2"):
            Subspace.from_vectors(3, [(1, 0, 0), (1, 0)])

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError, match="0.5"):
            Subspace.from_vectors(2, [(1, 0.5)])

    def test_str_entries_equal_fraction_entries(self):
        assert sp(3, ("1/2", "-3", "0"), ("2", "2/3", "1")) == sp(
            3, (Fraction(1, 2), Fraction(-3), Fraction(0)), (Fraction(2), Fraction(2, 3), Fraction(1))
        )

    def test_iterator_input(self):
        gens = [(1, 2, 0), (2, 4, 0), (0, 0, 5)]
        lazy = (iter(g) for g in gens)
        assert Subspace.from_vectors(3, lazy) == sp(3, *gens)


class TestRepresentation:
    """A subspace is stored once, as canonical integer rows."""

    @given(subspaces(max_dim=5))
    def test_rows_are_canonical(self, u):
        leads = []
        for row in u.rows:
            assert len(row) == u.ambient_dim and all(type(x) is int for x in row)
            assert gcd(*row) == 1
            lead = next(j for j, x in enumerate(row) if x)
            assert row[lead] > 0
            leads.append(lead)
        assert leads == sorted(set(leads))
        for i, row in enumerate(u.rows):
            assert all(row[p] == 0 for k, p in enumerate(leads) if k != i)

    @given(subspaces(max_dim=5), st.randoms(use_true_random=False))
    def test_any_generators_give_an_equal_value_and_hash(self, u, rng):
        spellings = (lambda v: v, str, lambda v: int(v) if v.denominator == 1 else v)
        gens = []
        for row in u.rows:
            scale = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 7]))
            gens.append([rng.choice(spellings)(x * scale) for x in row])
        if gens:
            gens.append([sum(c) for c in zip(*[[Fraction(x) for x in g] for g in gens])])
        rng.shuffle(gens)
        w = Subspace.from_vectors(u.ambient_dim, gens)
        assert w == u and hash(w) == hash(u) and w.rows == u.rows

    @given(matrices(max_rows=5, max_cols=5))
    def test_basis_is_the_canonical_echelon_form(self, m):
        u = Subspace.from_vectors(m.cols, [m.row(i) for i in range(m.rows)])
        reduced, rank, _ = canonical_echelon(m)
        assert u.dim == rank
        rows = [reduced.row(i) for i in range(rank)]
        assert u.basis == Matrix.from_rows(rows, cols=m.cols).transpose()


class TestCanonicalCheck:
    """The public constructor takes canonical rows only."""

    @pytest.mark.parametrize(
        "ambient, rows, first_bad",
        [
            (2, ((2, 0),), 0),  # not primitive
            (2, ((1, 1), (1, 1)), 1),  # leads do not increase
            (2, ((0, 1), (1, 0)), 1),
            (2, ((-1, 0),), 0),  # negative lead
            (2, ((0, 0),), 0),  # zero row
            (2, ((1, 1), (0, 1)), 0),  # row 0 is nonzero where row 1 leads
            (3, ((1, 0, 0), (0, 2, 0)), 1),
            (2, ((1, 0, 0),), 0),  # wrong length
            (2, ((Fraction(1), 0),), 0),  # not ints
            (2, ([1, 0],), 0),  # not a tuple
        ],
    )
    def test_rejects_and_names_the_first_bad_row(self, ambient, rows, first_bad):
        with pytest.raises(ValueError, match=f"^row {first_bad} "):
            Subspace(ambient, rows)

    def test_rejects_rows_not_in_a_tuple(self):
        # a list of canonical rows would build a Subspace that equals no span
        # of the same generators and cannot be hashed
        with pytest.raises(ValueError, match=r"^rows must be a tuple, not a list: \[\(1, 0\)\]$"):
            Subspace(2, [(1, 0)])
        with pytest.raises(ValueError, match="^rows must be a tuple, not a list"):
            Subspace(2, [])

    def test_profile_probe_raises(self):
        # the rows once gave a two-row dom inside Q^1
        with pytest.raises(ValueError):
            profile(LinearRelation(1, 1, Subspace(2, ((1, 1), (1, 1)))))

    def test_accepts_canonical_rows(self):
        assert Subspace(3, ((1, 0, 2), (0, 3, -1))) == sp(3, (1, 0, 2), (0, 3, -1))
        assert Subspace(2, ()) == Subspace.zero(2)
        for bad in (-1, 2.0, True):
            with pytest.raises(ValueError, match=r"^ambient dimension must be (an int|at least 0)"):
                Subspace(bad, ())

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_named_constructors_take_int_dimensions_only(self, bad):
        for build in (Subspace.zero, Subspace.full, lambda d: Subspace.from_vectors(d, [])):
            with pytest.raises(ValueError, match=r"^ambient dimension must be (an int|at least 0)"):
                build(bad)

    @given(
        st.integers(0, 5).flatmap(
            lambda d: st.tuples(
                st.just(d), st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), max_size=6)
            )
        )
    )
    def test_round_trip_through_the_constructor(self, case):
        d, gens = case
        u = Subspace.from_vectors(d, gens)
        assert Subspace(d, u.rows) == u


class TestPoint:
    @given(subspaces(max_dim=5), st.data())
    def test_point_is_an_integer_multiple_of_the_basis_combination(self, u, data):
        c = data.draw(st.lists(st.integers(-4, 4), min_size=u.dim, max_size=u.dim))
        v = u.point(c)
        w = u.basis.matvec(c)
        assert len(v) == u.ambient_dim and all(type(x) is int for x in v)
        # parallel, and pointing the same way: v = s·w for one s > 0
        nonzero = [(x, y) for x, y in zip(v, w) if y]
        assert all(x == 0 for x, y in zip(v, w) if not y)
        if nonzero:
            s = Fraction(nonzero[0][0]) / nonzero[0][1]
            assert s > 0 and all(x == s * y for x, y in nonzero)
        assert any(v) == any(c)

    @given(subspaces(max_dim=5).flatmap(
        lambda u: st.tuples(st.just(u), st.lists(st.integers(-4, 4), min_size=u.dim, max_size=u.dim))
    ))
    @example((Subspace.zero(3), []))
    @example((sp(3, (1, 2, 0), (0, 3, 1)), [0, 0]))
    def test_point_is_the_weighted_sum_of_the_rows(self, case):
        """``point`` is Σ_j c_j·(s/q_j)·row_j, s the lcm of the leading entries
        q_j, summed entry by entry here: its ``dot`` of the weights with each
        column reads the same integers, zeros for the zero subspace and for
        all-zero coefficients."""
        u, c = case
        leads = [next(filter(None, row)) for row in u.rows]
        s = lcm(*leads)
        total = [0] * u.ambient_dim
        for cj, qj, row in zip(c, leads, u.rows):
            for i, x in enumerate(row):
                total[i] += cj * (s // qj) * x
        assert u.point(c) == tuple(total)
        if not any(c):
            assert u.point(c) == (0,) * u.ambient_dim

    def test_coefficient_count_must_match(self):
        with pytest.raises(ValueError, match=r"^coefficients length 2 does not match 1\Z"):
            sp(3, (1, 0, 0)).point([1, 1])


class TestSum:
    def test_axes_fill_plane(self):
        assert sp(2, (1, 0)).sum(sp(2, (0, 1))) == Subspace.full(2)

    def test_zero_is_identity(self):
        u = sp(3, (1, 2, 3))
        assert u.sum(Subspace.zero(3)) == u

    def test_independent_lines(self):
        assert sp(2, (1, 1)).sum(sp(2, (1, -1))) == Subspace.full(2)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            sp(2, (1, 0)).sum(sp(3, (1, 0, 0)))


class TestIntersect:
    def test_planes_meet_in_line(self):
        u = sp(3, (1, 0, 0), (0, 1, 0))
        v = sp(3, (0, 1, 0), (0, 0, 1))
        assert u.intersect(v) == sp(3, (0, 1, 0))

    def test_idempotent(self):
        u = sp(3, (1, 2, 0), (0, 0, 1))
        assert u.intersect(u) == u

    def test_transversal_lines(self):
        assert sp(2, (1, 0)).intersect(sp(2, (0, 1))) == Subspace.zero(2)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            sp(2, (1, 0)).intersect(sp(3, (1, 0, 0)))


class TestOrthoComplement:
    def test_axis(self):
        assert sp(2, (1, 0)).ortho_complement() == sp(2, (0, 1))

    def test_zero_space(self):
        assert Subspace.zero(3).ortho_complement() == Subspace.full(3)

    def test_diagonal(self):
        assert sp(2, (1, 1)).ortho_complement() == sp(2, (1, -1))

    @pytest.mark.parametrize("d", range(5))
    @pytest.mark.parametrize("trivial, other", [(Subspace.zero, Subspace.full),
                                                (Subspace.full, Subspace.zero)])
    def test_trivial_spaces_are_read_off(self, monkeypatch, trivial, other, d):
        """0 and Q^d give each other with no elimination, as the eliminated
        complement would; at d = 0 they are one space, so both read-offs
        must agree there."""
        u = trivial(d)
        eliminated = Subspace.from_vectors(d, u.ortho_generators())

        def refuse(data, cols):
            raise AssertionError("the complement of a trivial space was eliminated")

        monkeypatch.setattr(exact, "_eliminate", refuse)
        assert u.ortho_complement() == eliminated == other(d)

    @given(subspaces())
    def test_involution_and_dimension(self, u):
        perp = u.ortho_complement()
        assert perp.ortho_complement() == u
        assert u.dim + perp.dim == u.ambient_dim
        assert u.intersect(perp) == Subspace.zero(u.ambient_dim)


class TestContains:
    def test_full_contains_anything(self):
        assert Subspace.full(3).contains(sp(3, (1, 2, 3)))

    def test_scaled_vector(self):
        assert sp(2, (1, 0)).contains(sp(2, (2, 0)))

    def test_other_axis(self):
        assert not sp(2, (1, 0)).contains(sp(2, (0, 1)))

    def test_contains_vector(self):
        u = sp(3, (1, 1, 0))
        assert u.contains_vector((2, 2, 0))
        assert not u.contains_vector((1, 0, 0))
        with pytest.raises(ValueError):
            u.contains_vector((1, 0))


class TestBlockProject:
    def test_read_coordinates(self):
        u = sp(4, (1, 0, 1, 0))
        assert u.block_project(0, 2) == sp(2, (1, 0))

    def test_full_space(self):
        assert Subspace.full(4).block_project(2, 4) == Subspace.full(2)

    def test_canonicalizes(self):
        u = sp(4, (1, 2, 3, 4))
        assert u.block_project(2, 4) == sp(2, (1, Fraction(4, 3)))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            sp(3, (1, 1, 1)).block_project(1, 5)
        with pytest.raises(ValueError):
            sp(3, (1, 1, 1)).block_project(-1, 2)


class TestDirectSum:
    def test_axes(self):
        assert sp(2, (1, 0)).direct_sum_check(sp(2, (0, 1)))

    def test_self_overlap(self):
        u = sp(2, (1, 0))
        assert not u.direct_sum_check(u)

    def test_diagonals(self):
        assert sp(2, (1, 1)).direct_sum_check(sp(2, (1, -1)))


class TestLatticeLaws:
    @given(subspaces(ambient=3), subspaces(ambient=3))
    def test_sum_contains_and_meet_contained(self, u, v):
        total = u.sum(v)
        meet = u.intersect(v)
        assert total.contains(u) and total.contains(v)
        assert u.contains(meet) and v.contains(meet)

    @given(subspaces(ambient=4), subspaces(ambient=4))
    def test_dimension_formula(self, u, v):
        assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim

    @given(subspaces(max_dim=3), subspaces(max_dim=3))
    def test_product_dims(self, u, v):
        p = u.product(v)
        assert p.ambient_dim == u.ambient_dim + v.ambient_dim
        assert p.dim == u.dim + v.dim
