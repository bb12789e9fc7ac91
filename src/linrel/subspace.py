"""Canonical subspaces of Q^d: lattice and inner-product operations.

A subspace is stored as the reduced column echelon basis of its generators
(leading entry of every column is 1, leading rows strictly increase, leading
rows are zeroed in all other columns).  Two subspaces are equal as sets if and
only if their basis matrices are identical entrywise, so dataclass equality is
set equality.

Every operation here and in ``relation`` slices and concatenates the column
tuples it holds and hands them as generators to one of two constructors, the
only paths into the elimination kernel.  ``Subspace.from_vectors`` reduces
them in full.  ``Subspace.split_span`` is ``from_vectors(...).split(n)``
without the waste: one forward elimination, then each side it is asked for
back-substituted among its own rows only, so intersections, relation
products and the range and kernel of a profile reduce no row they drop.
``Subspace.split`` reads a projection and a slice off a canonical basis with
no elimination at all, and ``ortho_generators`` reads a basis of U^⊥ off it,
so an orthocomplement or an adjoint is a single elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

from .exact import Matrix, Scalar, echelon_rows, rank, solve_linear, split_echelon_rows, vector


@dataclass(frozen=True)
class Subspace:
    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        if self.basis.rows != self.ambient_dim:
            raise ValueError(
                f"basis has {self.basis.rows} rows, ambient dimension is {self.ambient_dim}"
            )

    @property
    def dim(self) -> int:
        return self.basis.cols

    @classmethod
    def span(cls, ambient_dim: int, generators: Matrix) -> "Subspace":
        """Canonical subspace spanned by the columns of ``generators``."""
        if generators.rows != ambient_dim:
            raise ValueError(
                f"generators have {generators.rows} rows, ambient dimension is {ambient_dim}"
            )
        return cls.from_vectors(ambient_dim, generators.column_tuples())

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        """Canonical subspace spanned by ``vectors``, each of length ``ambient_dim``."""
        reduced, _ = echelon_rows(_generators(ambient_dim, vectors), ambient_dim)
        return cls._from_rows(ambient_dim, reduced)

    @classmethod
    def split_span(
        cls, ambient_dim: int, vectors: Iterable[Sequence[Scalar]], n: int, head: bool = True
    ) -> tuple[Optional["Subspace"], "Subspace"]:
        """``from_vectors(ambient_dim, vectors).split(n)``, reducing only the
        rows each side keeps; without ``head`` the projection is skipped and
        comes back as None."""
        if not 0 <= n <= ambient_dim:
            raise ValueError(f"split at {n} not within ambient dimension {ambient_dim}")
        top, bottom = split_echelon_rows(_generators(ambient_dim, vectors), ambient_dim, n, head)
        head_space = None if top is None else cls._from_rows(n, top)
        return head_space, cls._from_rows(ambient_dim - n, bottom)

    @classmethod
    def _from_rows(cls, ambient_dim: int, reduced: list[tuple[Fraction, ...]]) -> "Subspace":
        """The subspace whose basis columns are these reduced echelon rows."""
        flat = tuple(chain.from_iterable(zip(*reduced)))
        return cls(ambient_dim, Matrix(ambient_dim, len(reduced), flat))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zero(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(
            self.ambient_dim, self.basis.column_tuples() + other.basis.column_tuples()
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ V = {w : (0, w) ∈ span{(u, u), (v, 0)}}, as w = u = -v there."""
        self._check_ambient(other)
        d = self.ambient_dim
        cols = [c + c for c in self.basis.column_tuples()]
        cols += [c + (0,) * d for c in other.basis.column_tuples()]
        return Subspace.split_span(2 * d, cols, d, head=False)[1]

    def ortho_complement(self) -> "Subspace":
        """Orthogonal complement for the standard dot product on Q^d,
        canonicalized from ``ortho_generators`` in one elimination."""
        return Subspace.from_vectors(self.ambient_dim, self.ortho_generators())

    def ortho_generators(self) -> list[tuple[Scalar, ...]]:
        """A basis of U^⊥ read off the canonical basis B, not canonical itself.

        Column j of B leads with a 1 in row p_j and is zero in every other
        leading row, so each coordinate f that leads no column gives the
        vector e_f − Σ_j B[f, j]·e_{p_j}, orthogonal to every column.  These
        are d − dim U independent vectors, hence a basis of U^⊥.
        """
        d, r = self.ambient_dim, self.dim
        flat = self.basis.entries
        # p_j for each j: column j is zero above its leading row, and p_j > p_(j-1)
        leads: list[int] = []
        for i in range(d):
            if len(leads) < r and flat[i * r + len(leads)]:
                leads.append(i)
        lead_set = set(leads)
        gens = []
        for f in range(d):
            if f in lead_set:
                continue
            g = [0] * d
            g[f] = 1
            for p, x in zip(leads, flat[f * r : (f + 1) * r]):
                if x:
                    g[p] = -x
            gens.append(tuple(g))
        return gens

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.dim > self.dim:
            return False
        return rank(self.basis.hstack(other.basis)) == self.dim

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        x = vector(v)
        if len(x) != self.ambient_dim:
            raise ValueError(f"vector length {len(x)} does not match ambient {self.ambient_dim}")
        return solve_linear(self.basis, x) is not None

    def block_project(self, start: int, stop: int) -> "Subspace":
        """Image under the coordinate projection onto positions [start, stop)."""
        if not (0 <= start <= stop <= self.ambient_dim):
            raise ValueError(
                f"block [{start}, {stop}) not within ambient dimension {self.ambient_dim}"
            )
        return Subspace.from_vectors(
            stop - start, [c[start:stop] for c in self.basis.column_tuples()]
        )

    def split(self, n: int) -> tuple["Subspace", "Subspace"]:
        """(P, K): P projects U onto the first ``n`` coordinates, K = {w : (0, w) ∈ U}.

        Columns are ordered by their leading 1: the p columns that lead in the
        first ``n`` rows come first, and the rest are zero there.  So the
        top-left n×p block of the basis is P's canonical basis and the
        bottom-right block is K's, read off without elimination.
        """
        d, r = self.ambient_dim, self.dim
        if not 0 <= n <= d:
            raise ValueError(f"split at {n} not within ambient dimension {d}")
        flat = self.basis.entries
        p = sum(1 for j in range(r) if any(flat[j : n * r : r]))
        top = tuple(chain.from_iterable(flat[i * r : i * r + p] for i in range(n)))
        bottom = tuple(chain.from_iterable(flat[i * r + p : (i + 1) * r] for i in range(n, d)))
        return Subspace(n, Matrix(n, p, top)), Subspace(d - n, Matrix(d - n, r - p, bottom))

    def direct_sum_check(self, other: "Subspace") -> bool:
        """Whether U ∩ V = 0, read off dim(U + V) = dim U + dim V."""
        return self.sum(other).dim == self.dim + other.dim

    def product(self, other: "Subspace") -> "Subspace":
        """U × V inside Q^(dU + dV), coordinates of U first."""
        pad_u, pad_v = (0,) * self.ambient_dim, (0,) * other.ambient_dim
        cols = [c + pad_v for c in self.basis.column_tuples()]
        cols += [pad_u + c for c in other.basis.column_tuples()]
        return Subspace.from_vectors(self.ambient_dim + other.ambient_dim, cols)

    def __repr__(self) -> str:
        cols = ["(" + " ".join(str(x) for x in c) + ")" for c in self.basis.column_tuples()]
        return f"Subspace(Q^{self.ambient_dim}: {', '.join(cols) if cols else '0'})"


def _generators(
    ambient_dim: int, vectors: Iterable[Sequence[Scalar]]
) -> list[tuple[Fraction, ...]]:
    gens = [vector(v) for v in vectors]
    for g in gens:
        if len(g) != ambient_dim:
            raise ValueError(
                f"generator length {len(g)} does not match ambient dimension {ambient_dim}"
            )
    return gens
