"""Canonical subspaces of Q^d: lattice and inner-product operations.

A subspace is stored once, as its canonical integer rows (see ``exact``):
row i leads in column p_i, the p_i increase, and every row is zero in the
other rows' leading columns.  The form is unique per subspace, so dataclass
equality is set equality and hashing works on ints.  The constructor
rejects rows in any other form (``exact.check_canonical``); code whose rows
are canonical by construction builds through ``_make``, which skips the
check.  ``basis``, the same rows divided by their leading entries as the
columns of a ``Fraction`` matrix, is built on each read, only for the public
``Matrix`` API; output prints the rows (``exact.text_rows``).  Code that only
needs points of the span, as generators or as probes, reads them off the
rows with ``point``, which stays in integers.

Operations here and in ``relation`` slice and concatenate integer rows and
hand them to one of two constructors, the only paths into the kernel:
``from_vectors`` reduces in full, and ``split_span`` is
``from_vectors(...).split(n)``.  With at most ``n`` rows whose first ``n``
entries are independent, ``split_span`` eliminates those heads alone and
never reads the tails, as the slice is 0; otherwise it runs one forward
elimination and back-substitutes each side among its own rows only.
``split``, ``ortho_generators`` and ``contains`` read their answers off the
rows without eliminating.  ``_annihilated_by`` is the one cut of U by rows
that must vanish on it: ``intersect`` and the operator witnesses use it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count
from math import lcm
from typing import Iterable, Optional, Sequence

from .exact import (
    Matrix,
    Rows,
    Scalar,
    _integer_rows,
    _reduce,
    check_canonical,
    complement_rows,
    echelon_rows,
    fraction_rows,
    primitive_rows,
    require_int,
    split_echelon_rows,
    text_rows,
)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim given by its canonical integer ``rows``.
    The constructor rejects rows not in that form (``exact.check_canonical``);
    the constructors below build it from any generators."""

    ambient_dim: int
    rows: Rows

    def __post_init__(self) -> None:
        check_canonical(self.rows, require_int("ambient dimension", self.ambient_dim, 0))

    @classmethod
    def _make(cls, ambient_dim: int, rows: Rows) -> "Subspace":
        """A Subspace on ``rows`` and a dimension the caller knows are valid, unchecked."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient_dim", ambient_dim)
        object.__setattr__(sub, "rows", rows)
        return sub

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """The reduced column echelon basis, built on each read: column j is
        row j divided by its leading entry, so it leads with a 1."""
        return Matrix.from_cols(fraction_rows(self.rows), rows=self.ambient_dim)

    def point(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """An integer vector on the line through Σ_j coeffs[j]·b_j, b_j column j
        of ``basis``: row j is q_j·b_j with q_j > 0 its leading entry, so with
        s = lcm(q_j) this is s·Σ_j coeffs[j]·b_j = Σ_j coeffs[j]·(s/q_j)·row_j."""
        if len(coeffs) != self.dim:
            raise ValueError(f"{len(coeffs)} coefficients for a subspace of dimension {self.dim}")
        coeffs = [require_int("coefficient", c) for c in coeffs]
        leads = [next(filter(None, row)) for row in self.rows]
        scale = lcm(*leads)
        terms = [(c * (scale // q), row) for c, q, row in zip(coeffs, leads, self.rows) if c]
        return tuple(sum(f * row[i] for f, row in terms) for i in range(self.ambient_dim))

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
        rows, _ = echelon_rows(_generators(ambient_dim, vectors), ambient_dim)
        return cls._make(ambient_dim, rows)

    @classmethod
    def split_span(
        cls, ambient_dim: int, vectors: Iterable[Sequence[Scalar]], n: int, head: bool = True
    ) -> tuple[Optional["Subspace"], "Subspace"]:
        """``from_vectors(ambient_dim, vectors).split(n)``, reducing only the
        rows each side keeps; without ``head`` the projection is skipped and
        comes back as None."""
        rows = _generators(ambient_dim, vectors)
        if not 0 <= require_int("split", n) <= ambient_dim:
            raise ValueError(f"split at {n} not within ambient dimension {ambient_dim}")
        top, bottom = split_echelon_rows(rows, ambient_dim, n, head)
        return None if top is None else cls._make(n, top), cls._make(ambient_dim - n, bottom)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._make(require_int("ambient dimension", ambient_dim, 0), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        unit = range(require_int("ambient dimension", ambient_dim, 0))
        return cls._make(ambient_dim, tuple(tuple(int(i == j) for j in unit) for i in unit))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def _leads(self) -> list[int]:
        """p_i for each row i: the column of its first nonzero entry."""
        return [next(compress(count(), row)) for row in self.rows]

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.ambient_dim, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ V: the smaller space cut by the read-off rows of the other's complement."""
        self._check_ambient(other)
        small, large = sorted((self, other), key=lambda s: s.dim)
        return small._annihilated_by(large.ortho_generators())

    def _annihilated_by(self, rows: Sequence[Sequence[int]]) -> "Subspace":
        """{u ∈ U : r·u = 0 for r in ``rows``}, any integer rows: the slice at
        k = len(rows) of the span of (r_1·u, …, r_k·u, u) over U's rows u."""
        if not rows:
            return self
        stacked = [tuple(sum(map(operator.mul, r, u)) for r in rows) + u for u in self.rows]
        return Subspace.split_span(len(rows) + self.ambient_dim, stacked, len(rows), head=False)[1]

    def ortho_complement(self) -> "Subspace":
        """U^⊥ for the standard dot product: ``ortho_generators``, canonicalized."""
        return Subspace.from_vectors(self.ambient_dim, self.ortho_generators())

    def ortho_generators(self) -> Rows:
        """A basis of U^⊥, not canonical: ``exact.complement_rows`` of the rows."""
        return complement_rows(self.rows, self._leads(), self.ambient_dim)

    def _holds(self, v: Sequence[int], leads: Sequence[int]) -> bool:
        """Whether v ∈ U: clearing each leading column of v leaves zero."""
        return not any(_reduce(v, self.rows, leads))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.dim > self.dim:
            return False
        leads = self._leads()
        return all(self._holds(row, leads) for row in other.rows)

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        (x,) = _integer_rows([v])
        if len(x) != self.ambient_dim:
            raise ValueError(f"vector length {len(x)} does not match ambient {self.ambient_dim}")
        return self._holds(x, self._leads())

    def block_project(self, start: int, stop: int) -> "Subspace":
        """Image under the coordinate projection onto positions [start, stop)."""
        if not (0 <= require_int("start", start) <= require_int("stop", stop) <= self.ambient_dim):
            raise ValueError(
                f"block [{start}, {stop}) not within ambient dimension {self.ambient_dim}"
            )
        return Subspace.from_vectors(stop - start, [r[start:stop] for r in self.rows])

    def split(self, n: int) -> tuple["Subspace", "Subspace"]:
        """(P, K): P projects U onto the first ``n`` coordinates, K = {w : (0, w) ∈ U}.

        The p rows that lead in the first ``n`` columns come first, and the
        rest are zero there.  So the first p rows cut to their first ``n``
        entries are P's canonical rows once divided by their content, and
        the other rows cut to the rest are K's, read off without elimination.
        """
        d = self.ambient_dim
        if not 0 <= require_int("split", n) <= d:
            raise ValueError(f"split at {n} not within ambient dimension {d}")
        leads = self._leads()
        p = bisect_left(leads, n)
        head = primitive_rows([row[:n] for row in self.rows[:p]], leads[:p])
        tail = tuple(row[n:] for row in self.rows[p:])
        return Subspace._make(n, head), Subspace._make(d - n, tail)

    def direct_sum_check(self, other: "Subspace") -> bool:
        """Whether U ∩ V = 0, read off dim(U + V) = dim U + dim V."""
        return self.sum(other).dim == self.dim + other.dim

    def product(self, other: "Subspace") -> "Subspace":
        """U × V inside Q^(dU + dV), coordinates of U first: the rows of U
        and then those of V, each padded with zeros, are already canonical."""
        pad_u, pad_v = (0,) * self.ambient_dim, (0,) * other.ambient_dim
        rows = tuple(r + pad_v for r in self.rows) + tuple(pad_u + r for r in other.rows)
        return Subspace._make(self.ambient_dim + other.ambient_dim, rows)

    def __repr__(self) -> str:
        cols = ["(" + " ".join(row) + ")" for row in text_rows(self.rows)]
        return f"Subspace(Q^{self.ambient_dim}: {', '.join(cols) if cols else '0'})"


def _generators(ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> list[Sequence[int]]:
    require_int("ambient dimension", ambient_dim, 0)
    rows = _integer_rows(vectors)
    for row in rows:
        if len(row) != ambient_dim:
            raise ValueError(
                f"generator length {len(row)} does not match ambient dimension {ambient_dim}"
            )
    return rows
