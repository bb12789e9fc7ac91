"""Shared test helpers: hypothesis strategies for the property tests, and
short constructors for hand-written relations and subspaces."""

import hypothesis.strategies as st

from linrel import LinearRelation, Matrix, Subspace

entries = st.integers(min_value=-3, max_value=3)


def graph(rows):
    return LinearRelation.graph_of_matrix(Matrix.from_rows(rows))


def sp(d, *vectors):
    return Subspace.from_vectors(d, vectors)


@st.composite
def matrices(draw, min_rows=0, max_rows=4, min_cols=0, max_cols=4):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(data, cols=cols)


@st.composite
def subspaces(draw, max_dim=4, ambient=None):
    d = ambient if ambient is not None else draw(st.integers(0, max_dim))
    count = draw(st.integers(0, d + 1))
    gens = [[draw(entries) for _ in range(count)] for _ in range(d)]
    return Subspace.span(d, Matrix.from_rows(gens, cols=count))


@st.composite
def relations(draw, max_dim=4, dim_x=None, dim_y=None):
    n = dim_x if dim_x is not None else draw(st.integers(0, max_dim))
    m = dim_y if dim_y is not None else draw(st.integers(0, max_dim))
    count = draw(st.integers(0, n + m))
    gens = [[draw(entries) for _ in range(n + m)] for _ in range(count)]
    return LinearRelation.from_generators(n, m, gens)


@st.composite
def square_relations(draw, max_dim=4):
    d = draw(st.integers(0, max_dim))
    return draw(relations(dim_x=d, dim_y=d))


@st.composite
def square_relation_pairs(draw, max_dim=3):
    d = draw(st.integers(0, max_dim))
    return draw(relations(dim_x=d, dim_y=d)), draw(relations(dim_x=d, dim_y=d))


@st.composite
def shared_source_pairs(draw, max_dim=3):
    """(A, B) from one space Q^n, each into a space of its own."""
    n = draw(st.integers(0, max_dim))
    return draw(relations(max_dim, dim_x=n)), draw(relations(max_dim, dim_x=n))


@st.composite
def shared_target_pairs(draw, max_dim=3):
    """(A, B) into one space Q^m, each from a space of its own."""
    m = draw(st.integers(0, max_dim))
    return draw(relations(max_dim, dim_y=m)), draw(relations(max_dim, dim_y=m))


@st.composite
def composable_pairs(draw, max_dim=3):
    n = draw(st.integers(0, max_dim))
    m = draw(st.integers(0, max_dim))
    k = draw(st.integers(0, max_dim))
    return draw(relations(dim_x=m, dim_y=k)), draw(relations(dim_x=n, dim_y=m))


@st.composite
def composable_triples(draw, max_dim=3):
    n = draw(st.integers(0, max_dim))
    m = draw(st.integers(0, max_dim))
    k = draw(st.integers(0, max_dim))
    l = draw(st.integers(0, max_dim))
    return (
        draw(relations(dim_x=k, dim_y=l)),
        draw(relations(dim_x=m, dim_y=k)),
        draw(relations(dim_x=n, dim_y=m)),
    )
