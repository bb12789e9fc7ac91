"""Linear relations (multivalued linear operators) between rational spaces.

A relation from Q^n to Q^m is a subspace of Q^(n+m), coordinates ordered
x-block then y-block; the graph of a single-valued operator is the special
case with trivial multivalued part.  All values are canonical, so relation
equality is decidable and representation independent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .exact import Matrix, Scalar, integer_row, require_int
from .subspace import Subspace


@dataclass(frozen=True)
class LinearRelation:
    dim_x: int
    dim_y: int
    graph: Subspace

    def __post_init__(self) -> None:
        require_int("dim_x", self.dim_x, 0)
        require_int("dim_y", self.dim_y, 0)
        if self.graph.ambient_dim != self.dim_x + self.dim_y:
            raise ValueError(
                f"graph lives in Q^{self.graph.ambient_dim}, expected Q^{self.dim_x + self.dim_y}"
            )

    @classmethod
    def from_generators(
        cls, dim_x: int, dim_y: int, generators: Iterable[Sequence[Scalar]]
    ) -> "LinearRelation":
        """Relation spanned by (x; y)-generator vectors of length dim_x + dim_y."""
        return cls(dim_x, dim_y, Subspace.from_vectors(dim_x + dim_y, generators))

    @classmethod
    def graph_of_matrix(cls, m: Matrix) -> "LinearRelation":
        """The everywhere-defined operator x ↦ m·x, identified with its graph."""
        n = m.cols
        # (e_i, m e_i) cleared of denominators is primitive and leads in
        # column i, where every other row is zero: the rows are canonical
        unit = [[(int(i == j), 1) for j in range(n)] for i in range(n)]
        cols = m.column_tuples()
        rows = tuple(tuple(integer_row(e + [x.as_integer_ratio() for x in c])) for e, c in zip(unit, cols))
        return cls(n, m.rows, Subspace._make(n + m.rows, rows))

    @classmethod
    def identity(cls, n: int) -> "LinearRelation":
        return identity_on(Subspace.full(n))

    @classmethod
    def zero_relation(cls, dim_x: int, dim_y: int) -> "LinearRelation":
        return cls(dim_x, dim_y, Subspace.zero(dim_x + dim_y))

    @classmethod
    def full_relation(cls, dim_x: int, dim_y: int) -> "LinearRelation":
        return cls(dim_x, dim_y, Subspace.full(dim_x + dim_y))

    def profile(self) -> "RelationProfile":
        return profile(self)

    def inverse(self) -> "LinearRelation":
        """Coordinate swap of the graph; always exists."""
        n, m = self.dim_x, self.dim_y
        rows = [r[n:] + r[:n] for r in self.graph.rows]
        return LinearRelation(m, n, Subspace.from_vectors(m + n, rows))

    def reduce_operator_part(self) -> "LinearRelation":
        """The single-valued summand A ∩ (Q^n × mul(A)^⊥); dom is preserved.
        It is the points of A annihilated by the rows (0, h) over the rows h
        of mul(A), read off the graph by ``split``: none for an operator."""
        n = self.dim_x
        rows = [(0,) * n + h for h in self.graph.split(n)[1].rows]
        return LinearRelation(n, self.dim_y, self.graph._annihilated_by(rows))

    def adjoint(self) -> "LinearRelation":
        """A* = J(A^⊥) with J(u, v) = (−v, u), in one elimination.

        For A ⊂ Q^n × Q^m, A* ⊂ Q^m × Q^n: (y, x) is adjoint-related exactly
        when ⟨y, v⟩ = ⟨x, u⟩ for every (u, v) in A, that is, when
        (−x, y) ⊥ A.  J maps the generators of A^⊥ that
        ``Subspace.ortho_generators`` reads off the graph's rows onto
        generators of A*.
        """
        n, m = self.dim_x, self.dim_y
        turned = [tuple(-x for x in g[n:]) + g[:n] for g in self.graph.ortho_generators()]
        return LinearRelation(m, n, Subspace.from_vectors(m + n, turned))

    def is_selfadjoint(self) -> bool:
        return self == self.adjoint()

    def membership(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> bool:
        """Whether (x; y) lies in the graph (``Subspace.contains_vector``)."""
        if len(x) != self.dim_x or len(y) != self.dim_y:
            raise ValueError(
                f"point lengths ({len(x)}, {len(y)}) do not match dims ({self.dim_x}, {self.dim_y})"
            )
        return self.graph.contains_vector(tuple(x) + tuple(y))

    def __matmul__(self, other: "LinearRelation") -> "LinearRelation":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"LinearRelation({self.dim_x}->{self.dim_y}, graph dim {self.graph.dim})"


@dataclass(frozen=True)
class RelationProfile:
    dom: Subspace
    ran: Subspace
    ker: Subspace
    mul: Subspace

    @property
    def is_operator(self) -> bool:
        return self.mul.dim == 0

    @property
    def is_everywhere_defined(self) -> bool:
        return self.dom.dim == self.dom.ambient_dim

    @property
    def is_surjective(self) -> bool:
        return self.ran.dim == self.ran.ambient_dim


# Bounded: over two full checks (seeds 919, 920) in one process, 4096 entries
# miss 5 939 times (unbounded: 5 926) at a peak RSS of 27 MB (29); 1024 miss 7 631.
@lru_cache(maxsize=4096)
def profile(rel: LinearRelation) -> RelationProfile:
    n, m = rel.dim_x, rel.dim_y
    # dom and {y : (0, y) ∈ graph}, read off the rows; then ran and
    # {x : (x, 0) ∈ graph}, the split of the inverse's graph
    dom, mul = rel.graph.split(n)
    swapped = [r[n:] + r[:n] for r in rel.graph.rows]
    ran, ker = Subspace.split_span(m + n, swapped, m)
    return RelationProfile(dom=dom, ran=ran, ker=ker, mul=mul)


def compose(outer: LinearRelation, inner: LinearRelation) -> LinearRelation:
    """Relation product outer∘inner = {(x, z) : ∃y, (x,y) ∈ inner, (y,z) ∈ outer}.

    When outer is the graph of a matrix (dom = Q^m, mul = 0), its canonical
    rows say so: there are m of them and the last leads inside the first m
    columns, so row i is (p_i e_i, b_i) and outer maps y to Σ_i y_i·b_i/p_i.
    With s = lcm(p_i), the product is then the span of
    (s·x, Σ_i y_i·(s/p_i)·b_i) over inner's rows (x, y), one ``from_vectors``
    whose rows are already in echelon form when inner is an operator graph.

    Otherwise, in (y, x, z) coordinates, the points (0, x, z) of the span of
    (y, x, 0) over inner and (-y', 0, z) over outer are exactly those with
    y = y', so the slice that ``split_span`` keeps is the product.  No
    single-valuedness is assumed, so genuinely multivalued inputs compose
    correctly.  Both routes end in the canonical form, so they agree exactly.
    """
    if inner.dim_y != outer.dim_x:
        raise ValueError(
            f"interface dimensions differ: inner maps into Q^{inner.dim_y}, "
            f"outer is defined on Q^{outer.dim_x}"
        )
    n, m, k = inner.dim_x, inner.dim_y, outer.dim_y
    outer_rows = outer.graph.rows
    if len(outer_rows) == m and (not m or any(outer_rows[-1][:m])):
        s = lcm(*[r[i] for i, r in enumerate(outer_rows)])
        # column j of the matrix s·outer, as the coefficients of y
        cols = [[(s // r[i]) * r[m + j] for i, r in enumerate(outer_rows)] for j in range(k)]
        image = [
            tuple(s * v for v in r[:n]) + tuple(sum(map(operator.mul, r[n:], c)) for c in cols)
            for r in inner.graph.rows
        ]
        return LinearRelation(n, k, Subspace.from_vectors(n + k, image))
    rows = [r[n:] + r[:n] + (0,) * k for r in inner.graph.rows]
    rows += [tuple(-y for y in r[:m]) + (0,) * n + r[m:] for r in outer_rows]
    return LinearRelation(n, k, Subspace.split_span(m + n + k, rows, m, head=False)[1])


def cw_sum(a1: LinearRelation, a2: LinearRelation) -> tuple[LinearRelation, bool]:
    """Componentwise sum of relations; the flag reports directness.

    The sum is direct exactly when the two graphs intersect only in (0, 0),
    that is, when the dimension of the sum is the sum of the dimensions.
    """
    if a1.dim_x != a2.dim_x or a1.dim_y != a2.dim_y:
        raise ValueError(
            f"dimension mismatch: ({a1.dim_x}, {a1.dim_y}) vs ({a2.dim_x}, {a2.dim_y})"
        )
    total = LinearRelation(a1.dim_x, a1.dim_y, a1.graph.sum(a2.graph))
    return total, total.graph.dim == a1.graph.dim + a2.graph.dim


def graph_projection(rel: LinearRelation) -> LinearRelation:
    """The operator (x, y) ↦ x on the graph, as a relation Q^(n+m) → Q^n.

    Always single-valued, with domain the whole graph, range dom(rel), and
    kernel {0} × mul(rel).
    """
    n = rel.dim_x
    # each r + r[:n] is primitive, leads where r does, and is 0 where others lead
    rows = tuple(r + r[:n] for r in rel.graph.rows)
    return LinearRelation(rel.dim_x + rel.dim_y, n, Subspace._make(rel.dim_x + rel.dim_y + n, rows))


def graph_section(rel: LinearRelation) -> LinearRelation:
    """The selection dom(rel) → graph sending x to the unique (x, y) with
    y ⊥ mul(rel); composing graph_projection after it gives the identity on
    dom(rel)."""
    n = rel.dim_x
    # the operator part's rows lead in the x-block, so each r[:n] + r keeps r's leads: canonical
    rows = tuple(r[:n] + r for r in rel.reduce_operator_part().graph.rows)
    return LinearRelation(n, rel.dim_x + rel.dim_y, Subspace._make(n + rel.dim_x + rel.dim_y, rows))


def identity_on(sub: Subspace) -> LinearRelation:
    """The relation {(x, x) : x ∈ sub} on the ambient space of ``sub``."""
    d = sub.ambient_dim
    # each r + r is primitive, leads where r does, and is 0 where others lead
    return LinearRelation(d, d, Subspace._make(2 * d, tuple(r + r for r in sub.rows)))


def zero_times(dim_x: int, values: Subspace) -> LinearRelation:
    """The purely multivalued relation {0} × values inside Q^dim_x × ambient."""
    return LinearRelation(dim_x, values.ambient_dim, Subspace.zero(dim_x).product(values))
