"""Canonical subspaces of Q^d: lattice and inner-product operations.

A subspace is stored as the reduced column echelon basis of its generators
(leading entry of every column is 1, leading rows strictly increase, leading
rows are zeroed in all other columns).  Two subspaces are equal as sets if and
only if their basis matrices are identical entrywise, so dataclass equality is
set equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Sequence

from .exact import Matrix, Scalar, echelon_rows, nullspace, rank, solve_linear, vector


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
        reduced, _ = echelon_rows(generators.column_tuples(), ambient_dim)
        flat = tuple(chain.from_iterable(zip(*reduced)))
        return cls(ambient_dim, Matrix(ambient_dim, len(reduced), flat))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Sequence[Scalar]]) -> "Subspace":
        return cls.span(ambient_dim, Matrix.from_cols(vectors, rows=ambient_dim))

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
        return Subspace.span(self.ambient_dim, self.basis.hstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ V via the stacked generator system x = U·a = V·b."""
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = self.basis.hstack(-other.basis)
        coeffs = nullspace(stacked)
        top = Matrix.from_rows([coeffs.row(i) for i in range(self.dim)], cols=coeffs.cols)
        return Subspace.span(self.ambient_dim, self.basis @ top)

    def ortho_complement(self) -> "Subspace":
        """Orthogonal complement for the standard dot product on Q^d."""
        return _ortho_complement(self)

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
        rows = [self.basis.row(i) for i in range(start, stop)]
        return Subspace.span(stop - start, Matrix.from_rows(rows, cols=self.dim))

    def direct_sum_check(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self.intersect(other).dim == 0

    def product(self, other: "Subspace") -> "Subspace":
        """U × V inside Q^(dU + dV), coordinates of U first."""
        d = self.ambient_dim + other.ambient_dim
        cols = [tuple(c) + (0,) * other.ambient_dim for c in self.basis.column_tuples()]
        cols += [(0,) * self.ambient_dim + tuple(c) for c in other.basis.column_tuples()]
        return Subspace.span(d, Matrix.from_cols(cols, rows=d))

    def __repr__(self) -> str:
        cols = ["(" + " ".join(str(x) for x in c) + ")" for c in self.basis.column_tuples()]
        return f"Subspace(Q^{self.ambient_dim}: {', '.join(cols) if cols else '0'})"


@lru_cache(maxsize=None)
def _ortho_complement(sub: Subspace) -> Subspace:
    return Subspace.span(sub.ambient_dim, nullspace(sub.basis.transpose()))


@lru_cache(maxsize=None)
def annihilator_rows(sub: Subspace) -> Matrix:
    """Matrix E with E·x = 0 exactly on ``sub``; rows = ambient - dim."""
    return _ortho_complement(sub).basis.transpose()
