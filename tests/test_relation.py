import dataclasses
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from linrel import (
    LinearRelation,
    Matrix,
    Subspace,
    compose,
    cw_sum,
    graph_projection,
    graph_section,
    identity_on,
    nullspace,
    profile,
    zero_times,
)
from linrel import exact, subspace
from linrel.factor import solve_right_operator
from linrel.files import serialize_relation
from linrel.relation import RelationProfile

from strategies import (
    composable_pairs,
    composable_triples,
    entries,
    graph,
    matrices,
    relations,
    sp,
    square_matrices,
    square_relations,
    subspaces,
)


class TestGraphOfMatrix:
    def test_identity(self):
        rel = LinearRelation.identity(2)
        p = profile(rel)
        assert rel.graph.dim == 2
        assert p.mul == Subspace.zero(2)
        assert p.ker == Subspace.zero(2)

    def test_projection_matrix(self):
        p = profile(graph([[1, 0], [0, 0]]))
        assert p.dom == Subspace.full(2)
        assert p.ran == sp(2, (1, 0))
        assert p.ker == sp(2, (0, 1))
        assert p.mul == Subspace.zero(2)
        assert p.is_operator and p.is_everywhere_defined and not p.is_surjective

    def test_map_into_zero_space(self):
        rel = LinearRelation.graph_of_matrix(Matrix.zero(0, 2))
        assert (rel.dim_x, rel.dim_y) == (2, 0)
        assert rel.graph == Subspace.full(2)
        assert profile(rel).is_operator


def test_from_generators_rejects_float():
    with pytest.raises(TypeError, match="0.1"):
        LinearRelation.from_generators(1, 1, [[0.1, 1]])


class TestProfile:
    def test_purely_multivalued(self):
        rel = zero_times(0, Subspace.full(3))
        p = profile(rel)
        assert p.dom == Subspace.zero(0)
        assert p.ran == Subspace.full(3)
        assert p.ker == Subspace.zero(0)
        assert p.mul == Subspace.full(3)
        assert not p.is_operator

    def test_full_relation(self):
        p = profile(LinearRelation.full_relation(2, 3))
        assert p.dom == Subspace.full(2)
        assert p.ran == Subspace.full(3)
        assert p.ker == Subspace.full(2)
        assert p.mul == Subspace.full(3)

    @given(relations())
    def test_inclusions_and_flags(self, rel):
        p = profile(rel)
        assert p.dom.contains(p.ker)
        assert p.ran.contains(p.mul)
        assert p.is_operator == (p.mul.dim == 0)
        assert p.is_everywhere_defined == (p.dom.dim == rel.dim_x)
        assert p.is_surjective == (p.ran.dim == rel.dim_y)
        # graph dimension splits into domain and multivalued part
        assert rel.graph.dim == p.dom.dim + p.mul.dim

    def test_memo_is_bounded(self):
        """The memo keeps at most 4096 profiles; one evicted and asked for
        again is recomputed equal to the first."""
        first = LinearRelation.from_generators(1, 2, [(1, -7, 4099)])
        before = profile(first)
        for k in range(4100):
            profile(LinearRelation.from_generators(1, 2, [(1, 3, k)]))
        assert profile.cache_info().currsize <= 4096
        assert profile(first) == before

    @pytest.mark.parametrize("rel", [
        # square and invertible: the y-parts fill Q^3
        graph([[1, 2, 0], [0, 1, 3], [2, 0, 1]]),
        # injective, not square
        graph([[1, 2], [0, 1], [3, "1/2"]]),
        # multivalued, with the y-parts still independent
        LinearRelation.from_generators(2, 3, [(1, 0, 1, 2, 0), (0, 0, 0, 1, 1)]),
    ])
    def test_independent_y_parts_leave_the_tails_alone(self, monkeypatch, rel):
        """With independent y-parts, ker = 0 and ran comes from the y-parts
        alone: no elimination sees a row wider than dim_y, and a square
        invertible graph is not back-substituted at all."""
        expected = RelationProfile(
            dom=sp(rel.dim_x, *[r[: rel.dim_x] for r in rel.graph.rows]),
            ran=sp(rel.dim_y, *[r[rel.dim_x :] for r in rel.graph.rows]),
            ker=Subspace.zero(rel.dim_x),
            mul=sp(rel.dim_y, *[r[rel.dim_x :] for r in rel.graph.rows if not any(r[: rel.dim_x])]),
        )
        eliminate, widths = exact._eliminate, []

        def spy(data, cols):
            widths.append(max([cols] + [len(row) for row in data]))
            return eliminate(data, cols)

        def refuse(*args):
            raise AssertionError("back substitution ran")

        monkeypatch.setattr(exact, "_eliminate", spy)
        if rel.graph.dim == rel.dim_y:
            monkeypatch.setattr(exact, "_back_substitute", refuse)
        assert profile.__wrapped__(rel) == expected
        assert widths and max(widths) <= rel.dim_y

    def test_a_profile_holds_only_its_four_spaces(self):
        assert [f.name for f in dataclasses.fields(RelationProfile)] == ["dom", "ran", "ker", "mul"]


def test_graph_maps_read_their_rows_off(monkeypatch):
    """``identity_on``, ``graph_projection`` and ``graph_of_matrix`` build
    their graphs on rows that are canonical by construction: no elimination
    runs, and the graphs equal the spans of the same generators."""
    rel = LinearRelation.from_generators(3, 2, [(1, 2, 0, 3, 1), (0, 0, 2, 1, 0), (0, 0, 0, 4, 6)])
    dom = profile(rel).dom
    m = Matrix.from_rows([[1, "1/2"], ["-2/3", 0], [4, "5/6"]])
    expected = (
        sp(6, *[r + r for r in dom.rows]),
        sp(8, *[r + r[:3] for r in rel.graph.rows]),
        Subspace.span(5, Matrix.identity(2).vstack(m)),
    )

    def refuse(*args):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(subspace, "echelon_rows", refuse)
    monkeypatch.setattr(subspace, "split_echelon_rows", refuse)
    built = (identity_on(dom), graph_projection(rel), LinearRelation.graph_of_matrix(m))
    assert tuple(r.graph for r in built) == expected


def test_output_leaves_only_the_rows():
    """Printing a relation caches nothing on its subspaces: the dataclass
    fields are all a Subspace holds."""
    a = graph([[1, 2], [0, 3]])
    b = LinearRelation.identity(2)
    report = solve_right_operator(a, b)
    assert report.solvable
    report.to_text()
    serialize_relation(a)
    p = profile(a)
    subs = [a.graph, b.graph, report.witness.graph, p.dom, p.ran, p.ker, p.mul]
    for sub in subs:
        repr(sub)
        exact.text_rows(sub.rows)
    assert all(vars(sub).keys() == {"ambient_dim", "rows"} for sub in subs)


class TestInverse:
    @given(relations())
    def test_involution(self, rel):
        assert rel.inverse().inverse() == rel

    def test_identity_fixed(self):
        ident = LinearRelation.identity(2)
        assert ident.inverse() == ident

    def test_shift_graph(self):
        # x maps to (x2, 0); the inverse has dom span{e1} and mul ker(A) = span{e1}
        rel = graph([[0, 1], [0, 0]])
        q = profile(rel.inverse())
        assert q.dom == sp(2, (1, 0))
        assert q.mul == sp(2, (1, 0))

    @given(relations())
    def test_profile_identities(self, rel):
        p = profile(rel)
        q = profile(rel.inverse())
        assert q.dom == p.ran
        assert q.ran == p.dom
        assert q.ker == p.mul
        assert q.mul == p.ker


class TestCompose:
    def test_matrix_product_oracle(self):
        mb = Matrix.from_rows([[0, 1], [1, 0]])
        ma = Matrix.from_rows([[1, 0], [0, 0]])
        lhs = compose(LinearRelation.graph_of_matrix(mb), LinearRelation.graph_of_matrix(ma))
        assert lhs == LinearRelation.graph_of_matrix(mb @ ma)
        assert lhs == graph([[0, 0], [1, 0]])

    def test_identity_neutral(self):
        rel = LinearRelation.from_generators(2, 2, [(1, 0, 1, 1), (0, 0, 0, 2)])
        assert compose(LinearRelation.identity(2), rel) == rel

    def test_multivalued_blowup(self):
        zero_op = graph([[0, 0], [0, 0]])
        everything = zero_times(2, Subspace.full(2))
        assert compose(everything, zero_op) == LinearRelation.full_relation(2, 2)

    def test_interface_mismatch(self):
        with pytest.raises(ValueError):
            compose(LinearRelation.identity(2), LinearRelation.identity(3))

    def test_matmul_operator(self):
        a = LinearRelation.identity(2)
        assert (a @ a) == a

    @given(composable_triples())
    def test_associativity(self, triple):
        c, b, a = triple
        assert compose(compose(c, b), a) == compose(c, compose(b, a))

    @given(composable_pairs())
    def test_inverse_antihomomorphism(self, pair):
        b, a = pair
        assert compose(b, a).inverse() == compose(a.inverse(), b.inverse())


class TestCwSum:
    def test_zero_summand(self):
        rel = LinearRelation.from_generators(1, 2, [(1, 2, 0)])
        total, direct = cw_sum(rel, LinearRelation.zero_relation(1, 2))
        assert total == rel and direct

    def test_two_lines_span_plane(self):
        one = LinearRelation.from_generators(1, 1, [(1, 1)])
        two = LinearRelation.from_generators(1, 1, [(1, 2)])
        total, direct = cw_sum(one, two)
        assert total == LinearRelation.full_relation(1, 1)
        assert direct

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cw_sum(LinearRelation.identity(1), LinearRelation.identity(2))

    @given(relations())
    def test_decomposition(self, rel):
        p = profile(rel)
        total, direct = cw_sum(zero_times(rel.dim_x, p.mul), rel.reduce_operator_part())
        assert total == rel
        assert direct


class TestReduceOperatorPart:
    def test_operator_is_fixed(self):
        rel = graph([[1, 2], [3, 4]])
        assert rel.reduce_operator_part() == rel

    def test_full_relation_reduces_to_zero_map(self):
        full = LinearRelation.full_relation(1, 1)
        assert full.reduce_operator_part() == graph([[0]])

    def test_purely_multivalued_reduces_to_origin(self):
        rel = zero_times(1, Subspace.full(2))
        assert rel.reduce_operator_part() == LinearRelation.zero_relation(1, 2)

    @given(relations())
    def test_single_valued_with_same_dom(self, rel):
        reduced = rel.reduce_operator_part()
        p, q = profile(rel), profile(reduced)
        assert q.is_operator
        assert q.dom == p.dom


class TestAdjoint:
    def test_matrix_graph_transposes(self):
        m = Matrix.from_rows([[0, 1], [0, 0]])
        assert LinearRelation.graph_of_matrix(m).adjoint() == LinearRelation.graph_of_matrix(
            m.transpose()
        )

    def test_purely_multivalued_fixed_point(self):
        rel = zero_times(2, Subspace.full(2))
        assert rel.adjoint() == rel

    def test_zero_relation_flips_to_full(self):
        zero = LinearRelation.zero_relation(1, 1)
        assert zero.adjoint() == LinearRelation.full_relation(1, 1)
        assert not zero.is_selfadjoint()

    def test_requires_square(self):
        # the adjoint needs no square: a relation from Q^1 to Q^2 has one from Q^2 to Q^1
        assert LinearRelation.zero_relation(1, 2).adjoint() == LinearRelation.full_relation(2, 1)

    @given(square_relations())
    def test_double_adjoint(self, rel):
        assert rel.adjoint().adjoint() == rel

    @given(square_relations())
    def test_mul_and_ker_identities(self, rel):
        p = profile(rel)
        q = profile(rel.adjoint())
        assert q.mul == p.dom.ortho_complement()
        assert q.ker == p.ran.ortho_complement()

    @given(square_matrices())
    def test_graph_adjoint_is_transpose(self, m):
        assert LinearRelation.graph_of_matrix(m).adjoint() == LinearRelation.graph_of_matrix(
            m.transpose()
        )

    @given(relations())
    def test_rectangular_double_adjoint(self, rel):
        adjoint = rel.adjoint()
        assert (adjoint.dim_x, adjoint.dim_y) == (rel.dim_y, rel.dim_x)
        assert adjoint.adjoint() == rel

    @given(relations())
    def test_rectangular_profile_identities(self, rel):
        p, q = profile(rel), profile(rel.adjoint())
        assert q.dom == p.mul.ortho_complement()
        assert q.ran == p.ker.ortho_complement()
        assert q.ker == p.ran.ortho_complement()
        assert q.mul == p.dom.ortho_complement()

    @given(relations())
    def test_adjoint_of_inverse_is_inverse_of_adjoint(self, rel):
        assert rel.inverse().adjoint() == rel.adjoint().inverse()

    @given(composable_pairs())
    def test_adjoint_reverses_composition(self, pair):
        outer, inner = pair
        assert compose(outer, inner).adjoint() == compose(inner.adjoint(), outer.adjoint())

    @given(matrices())
    def test_rectangular_graph_adjoint_is_transpose(self, m):
        assert LinearRelation.graph_of_matrix(m).adjoint() == LinearRelation.graph_of_matrix(
            m.transpose()
        )


class TestSelfAdjoint:
    def test_symmetric_matrix(self):
        assert graph([[1, 2], [2, 0]]).is_selfadjoint()

    def test_nonsymmetric_matrix(self):
        assert not graph([[0, 1], [0, 0]]).is_selfadjoint()

    def test_requires_square(self):
        # a relation and its adjoint lie in Q^n × Q^m and Q^m × Q^n
        assert not LinearRelation.zero_relation(2, 1).is_selfadjoint()
        assert not graph([[1, 2]]).is_selfadjoint()


class TestGraphMaps:
    def test_projection_on_identity_relation(self):
        rel = LinearRelation.identity(1)
        proj = graph_projection(rel)
        assert (proj.dim_x, proj.dim_y) == (2, 1)
        # graph is {((t, t), t)}
        assert proj.graph == sp(3, (1, 1, 1))
        p = profile(proj)
        assert p.dom == rel.graph
        assert p.ran == Subspace.full(1)
        assert p.ker == Subspace.zero(2)

    def test_projection_of_multivalued_part(self):
        rel = zero_times(1, Subspace.full(1))
        p = profile(graph_projection(rel))
        assert p.ker == sp(2, (0, 1))
        assert p.ran == Subspace.zero(1)

    def test_section_of_operator(self):
        rel = graph([[2, 0], [0, 3]])
        section = graph_section(rel)
        # x lifts to (x, Ax)
        assert section.membership((1, 0), (1, 0, 2, 0))
        assert section.membership((0, 1), (0, 1, 0, 3))

    def test_section_picks_ortho_value(self):
        full = LinearRelation.full_relation(1, 1)
        section = graph_section(full)
        assert section == LinearRelation.from_generators(1, 2, [(1, 1, 0)])

    @given(relations())
    def test_projection_section_properties(self, rel):
        p = profile(rel)
        proj = graph_projection(rel)
        section = graph_section(rel)
        pp = profile(proj)
        assert pp.is_operator
        assert pp.dom == rel.graph
        assert pp.ran == p.dom
        assert pp.ker == Subspace.zero(rel.dim_x).product(p.mul)
        assert pp.ker.dim == p.mul.dim
        assert compose(proj, section) == identity_on(p.dom)


class TestMembership:
    def test_identity_member(self):
        assert LinearRelation.identity(2).membership((1, 2), (1, 2))

    def test_identity_non_member(self):
        assert not LinearRelation.identity(2).membership((1, 0), (0, 1))

    def test_projection_graph(self):
        assert graph([[1, 0], [0, 0]]).membership((2, 5), (2, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearRelation.identity(2).membership((1,), (1, 2))

    @given(relations(), st.data())
    def test_agrees_with_span_containment(self, rel, data):
        n, m = rel.dim_x, rel.dim_y
        point = tuple(data.draw(st.integers(-3, 3)) for _ in range(n + m))
        via_solve = rel.membership(point[:n], point[n:])
        via_span = rel.graph.contains(Subspace.from_vectors(n + m, [point]))
        assert via_solve == via_span


def old_route(d, cols):
    """A subspace built the way graph operations once built theirs: the
    generators packed into a Matrix, then spanned."""
    return Subspace.span(d, Matrix.from_cols(cols, rows=d))


def basis_blocks(u, n):
    """The basis of ``u`` cut into its first ``n`` rows and the rest."""
    b = u.basis
    return (
        Matrix(n, b.cols, b.entries[: n * b.cols]),
        Matrix(b.rows - n, b.cols, b.entries[n * b.cols :]),
    )


def old_slice(u, n):
    """{w : (0, w) ∈ u} the way profiles were once built: the second block
    of the basis times the nullspace of the first."""
    top, bottom = basis_blocks(u, n)
    return Subspace.span(u.ambient_dim - n, bottom @ nullspace(top))


def old_intersect(u, v):
    """U ∩ V through the nullspace of the stacked system U·a = V·b."""
    neg_v = Matrix(v.basis.rows, v.basis.cols, tuple(-x for x in v.basis.entries))
    coeffs = nullspace(u.basis.hstack(neg_v))
    top = Matrix(u.dim, coeffs.cols, coeffs.entries[: u.dim * coeffs.cols])
    return Subspace.span(u.ambient_dim, u.basis @ top)


def old_ortho_complement(u):
    """U^⊥ as the span of the nullspace of the basis transpose."""
    return Subspace.span(u.ambient_dim, nullspace(u.basis.transpose()))


def old_adjoint(rel):
    """The orthocomplement of the canonicalized flip-and-negate image of the graph."""
    d = rel.dim_x
    flipped = [tuple(-x for x in c[d:]) + c[:d] for c in rel.graph.basis.column_tuples()]
    return LinearRelation(d, d, old_ortho_complement(old_route(2 * d, flipped)))


def full_compose(outer, inner):
    """outer∘inner as the split of the whole canonicalized (y, x, z) system."""
    n, m, k = inner.dim_x, inner.dim_y, outer.dim_y
    cols = [c[n:] + c[:n] + (0,) * k for c in inner.graph.basis.column_tuples()]
    cols += [tuple(-y for y in c[:m]) + (0,) * n + c[m:] for c in outer.graph.basis.column_tuples()]
    return LinearRelation(n, k, Subspace.from_vectors(m + n + k, cols).split(m)[1])


def full_intersect(u, v):
    """U ∩ V as the split of the whole canonicalized system {(u, u), (v, 0)}."""
    d = u.ambient_dim
    cols = [c + c for c in u.basis.column_tuples()]
    cols += [c + (0,) * d for c in v.basis.column_tuples()]
    return Subspace.from_vectors(2 * d, cols).split(d)[1]


@st.composite
def annihilating_rows(draw, d):
    """Integer rows of length ``d``, as many as d + 1, not canonical, with a
    combination of two of them appended when some are drawn."""
    point = st.tuples(*[entries] * d)
    rows = draw(st.lists(point, max_size=d + 1))
    if rows and draw(st.booleans()):
        rows.append(tuple(2 * x - y for x, y in zip(rows[0], rows[-1])))
    return rows


class TestAnnihilatedBy:
    @given(st.data())
    def test_cut_is_the_intersection_with_the_complement(self, data):
        u = data.draw(subspaces())
        rows = data.draw(annihilating_rows(u.ambient_dim))
        perp = Subspace.from_vectors(u.ambient_dim, rows).ortho_complement()
        assert u._annihilated_by(rows) == full_intersect(u, perp)

    @given(relations())
    def test_operator_part_is_the_intersection_with_the_window(self, rel):
        window = Subspace.full(rel.dim_x).product(profile(rel).mul.ortho_complement())
        assert rel.reduce_operator_part().graph == full_intersect(rel.graph, window)

    def test_no_rows_and_operator_graphs_eliminate_nothing(self, monkeypatch):
        u = sp(3, (1, 2, 0), (0, 1, 1))
        rel = graph([[1, 2, 0], [3, 4, 5]])
        calls = []
        monkeypatch.setattr(exact, "_eliminate", lambda *args: calls.append(args))
        assert u._annihilated_by(()) is u
        assert rel.reduce_operator_part() == rel
        assert calls == []


def check_reference_routes(outer, inner, sq, u, v):
    """Every read-off and partial back-substitution against the full route."""
    m = inner.dim_y
    assert compose(outer, inner) == full_compose(outer, inner)
    p = profile(inner)
    assert (p.ran, p.ker) == inner.inverse().graph.split(m)
    assert sq.adjoint() == old_adjoint(sq)
    assert u.ortho_complement() == old_ortho_complement(u)
    assert u.intersect(v) == full_intersect(u, v)


class TestOneConstructor:
    @given(composable_pairs(), square_relations(), st.data())
    def test_operations_match_the_matrix_route(self, pair, sq, data):
        outer, inner = pair
        n, m, k = inner.dim_x, inner.dim_y, outer.dim_y
        cols = inner.graph.basis.column_tuples()
        assert inner.inverse() == LinearRelation(m, n, old_route(m + n, [c[n:] + c[:n] for c in cols]))
        assert graph_projection(inner).graph == old_route(2 * n + m, [c + c[:n] for c in cols])
        reduced = inner.reduce_operator_part().graph.basis.column_tuples()
        assert graph_section(inner).graph == old_route(2 * n + m, [c[:n] + c for c in reduced])
        dom, mul = profile(inner).dom, profile(inner).mul
        assert identity_on(dom).graph == old_route(2 * n, [c + c for c in dom.basis.column_tuples()])
        assert zero_times(n, mul).graph == old_route(
            n + m, [(0,) * n + c for c in mul.basis.column_tuples()]
        )
        assert inner.graph.product(outer.graph) == old_route(
            n + 2 * m + k,
            [c + (0,) * (m + k) for c in cols]
            + [(0,) * (n + m) + c for c in outer.graph.basis.column_tuples()],
        )

        # compose through the annihilator matrices and a row-stacked system
        e_inner = inner.graph.ortho_complement().basis.transpose()
        e_outer = outer.graph.ortho_complement().basis.transpose()
        rows = [e_inner.row(i) + (0,) * k for i in range(e_inner.rows)]
        rows += [(0,) * n + e_outer.row(i) for i in range(e_outer.rows)]
        pullback = nullspace(Matrix.from_rows(rows, cols=n + m + k))
        keep = list(range(n)) + list(range(n + m, n + m + k))
        gens = Matrix.from_rows([pullback.row(i) for i in keep], cols=pullback.cols)
        assert compose(outer, inner).graph == Subspace.span(n + k, gens)

        # profile through block projections and nullspace products
        p = profile(inner)
        top, bottom = basis_blocks(inner.graph, n)
        assert p.dom == inner.graph.block_project(0, n)
        assert p.ran == inner.graph.block_project(n, n + m)
        assert p.ker == Subspace.span(n, top @ nullspace(bottom))
        assert p.mul == old_slice(inner.graph, n)

        other = data.draw(subspaces(ambient=n + m))
        assert inner.graph.intersect(other) == old_intersect(inner.graph, other)
        assert other.intersect(inner.graph) == old_intersect(other, inner.graph)
        check_reference_routes(outer, inner, sq, inner.graph, other)

        # split against a projection and the nullspace route, on any cut
        u = data.draw(subspaces(max_dim=6))
        cut = data.draw(st.integers(0, u.ambient_dim))
        assert u.ortho_complement() == old_ortho_complement(u)
        head, tail = u.split(cut)
        point = st.lists(st.integers(-3, 3), min_size=u.ambient_dim, max_size=u.ambient_dim)
        gens = data.draw(st.lists(point, max_size=7))
        whole = Subspace.from_vectors(u.ambient_dim, gens).split(cut)
        assert Subspace.split_span(u.ambient_dim, gens, cut) == whole
        assert Subspace.split_span(u.ambient_dim, gens, cut, head=False) == (None, whole[1])
        assert head == u.block_project(0, cut)
        assert tail == old_slice(u, cut)
        assert head == Subspace.from_vectors(cut, head.basis.column_tuples())
        assert tail == Subspace.from_vectors(u.ambient_dim - cut, tail.basis.column_tuples())
        for bad in (-1, u.ambient_dim + 1):
            with pytest.raises(ValueError):
                u.split(bad)
            with pytest.raises(ValueError):
                Subspace.split_span(u.ambient_dim, gens, bad)


def wide_relation(rng, d, count):
    """A d×d relation from ``count`` dense generators with entries in [-3, 3]."""
    return LinearRelation.from_generators(
        d, d, [[rng.randint(-3, 3) for _ in range(2 * d)] for _ in range(count)]
    )


@pytest.mark.parametrize("d", [16, 24])
def test_wide_relations_match_the_reference_routes(d):
    """At the sizes where canonical entries reach 76-130 bits, which the
    small hypothesis strategies never produce."""
    rng = random.Random(3020 + d)
    for _ in range(2):
        a, b = wide_relation(rng, d, d), wide_relation(rng, d, d)
        # more generators than coordinates on one side: ker and mul are not 0
        tall = wide_relation(rng, d, d + d // 2)
        c = compose(b, a)
        check_reference_routes(b, a, c, a.graph, b.graph)
        check_reference_routes(c, tall, tall, c.graph, tall.graph)
        # a, b and c are matrix graphs; tall, with mul ≠ 0, takes the stacked route
        assert profile(tall).mul.dim > 0
        assert compose(tall, c) == full_compose(tall, c)
        assert serialize_relation(c) == serialize_relation(full_compose(b, a))
        assert serialize_relation(c.adjoint()) == serialize_relation(old_adjoint(c))


fractions_or_ints = st.one_of(entries, st.fractions(-3, 3, max_denominator=4))


@st.composite
def matrix_graph_pairs(draw, max_dim=3, shape=None):
    """The graph of a k×m matrix with integer or fractional entries (shape
    (k, m) if given), and any relation into Q^m, multivalued ones included."""
    k, m = shape if shape is not None else (draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim)))
    data = [[draw(fractions_or_ints) for _ in range(m)] for _ in range(k)]
    outer = LinearRelation.graph_of_matrix(Matrix.from_rows(data, cols=m))
    return outer, draw(relations(max_dim=max_dim, dim_y=m))


class TestComposeThroughMatrixGraph:
    """An outer that is the graph of a matrix is composed by mapping the
    inner rows; every other outer goes through the stacked system."""

    @settings(max_examples=200)
    @given(matrix_graph_pairs())
    def test_matches_the_stacked_system(self, pair):
        outer, inner = pair
        assert compose(outer, inner) == full_compose(outer, inner)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    @given(data=st.data())
    def test_empty_matrix_shapes(self, shape, data):
        outer, inner = data.draw(matrix_graph_pairs(shape=shape))
        assert compose(outer, inner) == full_compose(outer, inner)

    def test_only_a_matrix_graph_skips_the_stacked_system(self, monkeypatch):
        inner = LinearRelation.from_generators(2, 2, [(1, 0, 2, 1), (0, 0, 1, 3)])
        assert profile(inner).mul.dim == 1
        matrix = graph([[1, "1/2"], [-3, 4]])
        expected = full_compose(matrix, inner)
        others = [
            # dom = Q^2, mul ≠ 0
            LinearRelation.from_generators(2, 2, [(1, 0, 1, 1), (0, 1, 0, 2), (0, 0, 1, 1)]),
            # mul = 0, dom ≠ Q^2
            LinearRelation.from_generators(2, 2, [(1, 0, 1, 1)]),
            # two rows, as many as a matrix graph has, but the last leads in the y-block
            LinearRelation.from_generators(2, 2, [(1, 0, 1, 1), (0, 0, 0, 1)]),
        ]

        def refuse(cls, *args, **kwargs):
            raise AssertionError("the stacked system ran")

        monkeypatch.setattr(Subspace, "split_span", classmethod(refuse))
        assert compose(matrix, inner) == expected
        for outer in others:
            with pytest.raises(AssertionError, match="the stacked system ran"):
                compose(outer, inner)


class TestConstructors:
    def test_generator_length_check(self):
        with pytest.raises(ValueError):
            LinearRelation.from_generators(1, 1, [(1, 2, 3)])

    def test_graph_ambient_check(self):
        with pytest.raises(ValueError):
            LinearRelation(2, 2, Subspace.zero(3))

    @pytest.mark.parametrize("dims", [(True, True), (1.5, 0.5), (2, 0.0)])
    def test_dimensions_must_be_ints(self, dims):
        with pytest.raises(ValueError, match=r"^dim_[xy] must be an int"):
            LinearRelation(*dims, Subspace.full(2))

    def test_identity_is_the_graph_of_the_identity_matrix(self):
        for n in range(4):
            assert LinearRelation.identity(n) == LinearRelation.graph_of_matrix(Matrix.identity(n))
