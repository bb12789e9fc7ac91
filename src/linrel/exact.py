"""Exact rational matrices and the one elimination kernel everything else uses.

Elimination runs on integer rows.  ``echelon_rows`` and ``split_echelon_rows``
take integer rows and return canonical rows: the rows of the reduced row
echelon form, each its own ``line``: primitive, with a positive first nonzero
entry.  ``line`` is the one normal form of an integer row.  That form is
unique per row space and pivoting is deterministic, so subspace equality
downstream is a genuine decision, and every canonical form is reproducible
byte for byte.  Both share one forward elimination (``_eliminate``) and one
finishing step (``_canonical_rows``), routed by rank alone: full rank gives
``unit_rows``, a rank below ``ONE_PASS_RANK`` clears each pivot column above
its pivot row against row (``_back_substitute``), and a higher rank builds
each canonical row in one pass over the free columns (``_one_pass_rows``).
``complement_rows`` reads a basis of the orthogonal complement off that form,
and ``text_rows`` prints its reduced echelon rows from the integers alone.
``Fraction``s exist only at the public ``Matrix`` API (``fraction_rows``).
``dot`` is the one sum of products, for integer rows and the ``Matrix``
façade's ``Fraction`` rows alike.  Every vector argument goes through
``require_vector``, where a ``str`` is one scalar, never a vector of its
characters.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Rational = Fraction
Scalar = Union[int, str, Fraction]

_ZERO, _ONE = Fraction(0), Fraction(1)

# The one grammar of a rational literal, ``p`` or ``p/q``: an optional sign
# and ASCII digits, then optionally ``/`` and a possibly signed denominator
# (``literal_ratio`` rejects a zero one).  ASCII digits only: ``\d`` and
# ``int`` would also take other scripts' digits.  ``files`` builds its line
# check from it.
RATIONAL_PATTERN = r"[+-]?[0-9]+(?:/[+-]?[0-9]+)?"
_RATIONAL_RE = re.compile(RATIONAL_PATTERN + r"\Z")


def require_int(name: str, value, low: Optional[int] = None) -> int:
    """``value``, if it is an ``int`` (not a float, a ``Fraction`` or a bool) of at
    least ``low``; otherwise a ``ValueError`` that names it as ``name``.  The one
    check of every integer argument in the package."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def require_vector(name: str, value, length: Optional[int] = None) -> tuple:
    """``value`` as a tuple, if it is an iterable other than a ``str`` with ``length``
    entries, if given; otherwise a ``TypeError``, or a ``ValueError`` for the length,
    that names it as ``name``.  The one check of every vector argument in the package."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise TypeError(f"{name} must be an iterable of scalars, got {value!r}")
    value = tuple(value)
    if length is not None and len(value) != length:
        raise ValueError(f"{name} length {len(value)} does not match {length}")
    return value


def literal_ratio(literal: str) -> tuple[int, int]:
    """``(p, q)`` with q > 0, not reduced, for a ``literal`` that matches
    ``RATIONAL_PATTERN``.  Raises ``ZeroDivisionError`` if q is 0, and
    ``ValueError`` if a number has more digits than ``int`` reads."""
    p, _, q = literal.partition("/")
    p, q = int(p), int(q or 1)
    if q > 0:
        return p, q
    if q:
        return -p, -q
    raise ZeroDivisionError(f"zero denominator in {literal!r}")


def parse_ratio(text: str) -> tuple[int, int]:
    """``(p, q)`` with q > 0 for ``"p"`` or ``"p/q"``, not reduced."""
    literal = text.strip(" \t\n\r\v\f")
    if _RATIONAL_RE.match(literal) is None:
        raise ValueError(f"bad rational literal {text!r}")
    try:
        return literal_ratio(literal)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"``; the result is reduced and has q > 0."""
    return Fraction(*parse_ratio(text))


_ENTRY_TYPES = frozenset({Fraction, int})


def _ratio(value: Scalar) -> tuple[int, int]:
    """``(p, q)``, q > 0, for an exact scalar (not a bool); text is read by ``parse_ratio``."""
    if type(value) in _ENTRY_TYPES:
        return value.as_integer_ratio()
    if isinstance(value, str):
        return parse_ratio(value)
    raise TypeError(f"{value!r} is not an exact scalar (int, str or Fraction)")


def vector(values: Iterable[Scalar]) -> tuple[Fraction, ...]:
    """``values``, checked by ``require_vector``, as Fractions."""
    values = require_vector("vector", values)
    return tuple(v if isinstance(v, Fraction) else Fraction(*_ratio(v)) for v in values)


def _vectors(name: str, values: Iterable[Iterable[Scalar]], length: Optional[int]) -> tuple[list, int]:
    """Each of ``values`` as Fractions, checked by ``require_vector`` as ``<name> i``
    against ``length``, or else the first one's length; and that length, 0 if none."""
    data = []
    for i, v in enumerate(values):
        data.append(vector(require_vector(f"{name} {i}", v, length)))
        length = len(data[-1])
    return data, length or 0


@dataclass(frozen=True, slots=True)
class Matrix:
    """Dense rational matrix, row-major.  Zero-extent shapes are legal."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_int("rows", self.rows, 0)
        require_int("cols", self.cols, 0)
        if type(self.entries) is not tuple:
            raise TypeError(f"entries must be a tuple, not a {type(self.entries).__name__}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not _ENTRY_TYPES.issuperset(map(type, self.entries)):
            bad = next(x for x in self.entries if type(x) not in _ENTRY_TYPES)
            raise TypeError(f"matrix entry {bad!r} is not a Fraction or int")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Matrix":
        if cols is not None:
            require_int("cols", cols, 0)
        data, width = _vectors("row", rows, cols)
        return cls(len(data), width, tuple(x for r in data for x in r))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[Scalar]], rows: Optional[int] = None) -> "Matrix":
        if rows is not None:
            require_int("rows", rows, 0)
        data, height = _vectors("column", cols, rows)
        return cls(len(data), height, tuple(x for c in data for x in c)).transpose()

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        require_int("n", n, 0)
        return cls(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (_ZERO,) * (require_int("rows", rows, 0) * require_int("cols", cols, 0)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.rows}x{self.cols}")
        return self.entries[j :: self.cols]

    def column_tuples(self) -> list[tuple[Fraction, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        flat = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.cols, self.rows, flat)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("hstack requires matching row counts")
        flat = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return Matrix(self.rows, self.cols + other.cols, tuple(flat))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("vstack requires matching column counts")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        return Matrix(self.rows, other.cols, self._dots(other.column_tuples()))

    def matvec(self, v: Sequence[Scalar]) -> tuple[Fraction, ...]:
        return self._dots([vector(require_vector("v", v, self.cols))])

    def _dots(self, vectors: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
        """Each row's ``dot`` with each of ``vectors``, as Fractions, skipping the row's zeros."""
        rows = map(self.row, range(self.rows))
        return tuple(_ZERO + dot(compress(r, r), compress(v, r)) for r in rows for v in vectors)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


class EchelonForm(NamedTuple):
    matrix: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


_INT_ONLY = frozenset({int})


def line(v: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The normal form of the integer row v: v divided by the gcd of its
    entries, with the sign that makes its first nonzero entry positive; None
    when v is 0.  Two nonzero rows are dependent exactly when their lines are
    equal, and every canonical row is its own line."""
    g = gcd(*v)
    if not g:
        return None
    for lead in v:
        if lead:
            break
    if lead < 0:
        g = -g
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def dot(u: Sequence[int | Fraction], v: Sequence[int | Fraction]) -> int | Fraction:
    """The dot product of two rows, the one sum of products in the package, for
    integer rows and the ``Matrix`` façade's ``Fraction`` rows alike; an int
    for int rows, and the int 0 for empty rows."""
    return sum(map(mul, u, v))


def integer_row(ratios: Sequence[tuple[int, int]]) -> list[int]:
    """The vector of the ratios n/d (each d > 0) scaled by the lcm of the
    denominators and divided by the gcd of the result: the same line
    through the origin, as a primitive integer vector."""
    scale = lcm(*[d for _, d in ratios])
    ints = [n for n, _ in ratios] if scale == 1 else [n * (scale // d) for n, d in ratios]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _integer_rows(rows: Iterable[Iterable[Scalar]], width: int) -> list[Sequence[int]]:
    """Rows of ``width`` exact scalars as integer rows on the same lines; a row
    that is not a tuple of that width goes through ``require_vector`` as a
    ``generator``.  A row of ints is taken as it is, any other through ``integer_row``."""
    out = []
    for row in rows:
        if type(row) is not tuple or len(row) != width:
            row = require_vector("generator", row, width)
        if not _INT_ONLY.issuperset(map(type, row)):
            row = integer_row([_ratio(x) for x in row])
        out.append(row)
    return out


def _cancel(row: Sequence[int], prow: Sequence[int], col: int) -> list[int]:
    """``(p/g)·row − (f/g)·prow`` divided by the gcd of its entries, where p
    and f are the entries of ``prow`` and ``row`` in column ``col`` and
    ``g = gcd(p, f)``: zero in ``col``, primitive, and scaled no more than
    it must be."""
    p, f = prow[col], row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    return out


def _reduce(row: Sequence[int], echelon: Sequence[Sequence[int]], leads: Sequence[int]) -> Sequence[int]:
    """``row`` with each lead column of the echelon rows cleared, in order:
    a multiple of row minus a combination of them, zero on every lead."""
    for prow, col in zip(echelon, leads):
        if row[col]:
            row = _cancel(row, prow, col)
    return row


def _eliminate(data: list[Sequence[int]], cols: int) -> list[int]:
    """Bring integer rows to echelon form in place; returns the pivot columns.

    Forward elimination clears each pivot column below its pivot; pivot
    choice is the first row with a nonzero entry in column order, so equal
    input gives equal output.  The rank is the number of pivots, and
    ``_canonical_rows`` then gives the canonical rows.  Every row that is
    cancelled against another comes out primitive; the rows are replaced,
    never mutated.
    """
    rank = 0
    pivots: list[int] = []
    nrows = len(data)
    for col in range(cols):
        pivot_row = None
        for r in range(rank, nrows):
            if data[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            data[rank], data[pivot_row] = data[pivot_row], data[rank]
        prow = data[rank]
        for r in range(rank + 1, nrows):
            if data[r][col]:
                data[r] = _cancel(data[r], prow, col)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots


def _back_substitute(data: list[Sequence[int]], pivots: Sequence[int]) -> None:
    """Clear every pivot column above its pivot, in rows that forward
    elimination left in echelon form with these pivot columns; row r divided
    by its pivot entry is then row r of the reduced row echelon form."""
    for i in range(len(pivots) - 1, 0, -1):
        prow, col = data[i], pivots[i]
        for r in range(i):
            if data[r][col]:
                data[r] = _cancel(data[r], prow, col)


Rows = tuple[tuple[int, ...], ...]

# The crossover rank of ``_canonical_rows``; its docstring gives the measurement.
ONE_PASS_RANK = 8


def unit_rows(n: int) -> Rows:
    """The canonical rows of all of Q^n, e_0 to e_{n-1}, sliced from one row."""
    strip = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
    return tuple(strip[n - 1 - i : 2 * n - 1 - i] for i in range(n))


def _one_pass_rows(data: Sequence[Sequence[int]], pivots: Sequence[int], cols: int) -> Rows:
    """The canonical rows of rows that forward elimination left in echelon
    form with these pivot columns, built bottom-up, one pass per row over
    the free (non-pivot) columns only.

    Row r is zero left of its pivot p_r.  Let u_j be its entries at the later
    pivots p_j, and F its free part.  The canonical rows j > r, already
    built, lead with q_j and have free parts N_j; with s the lcm of the q_j
    where u_j ≠ 0, s·row − Σ u_j·(s/q_j)·(row j) is zero at every pivot but
    p_r, where it holds s·u_r, and its free part is s·F − Σ u_j·(s/q_j)·N_j.
    Its ``line`` is the canonical row; a row that is zero at every later
    pivot is only taken to its ``line``.
    """
    rank = len(pivots)
    free = None
    leads, parts, out = [0] * rank, [None] * rank, [()] * rank
    for r in range(rank - 1, -1, -1):
        row, p = data[r], pivots[r]
        terms = []
        for j in range(r + 1, rank):
            if u := row[pivots[j]]:
                terms.append((u, j))
        if terms:
            if free is None:
                taken = set(pivots)
                free = [c for c in range(cols) if c not in taken]
            s = lcm(*[leads[j] for _, j in terms])
            part = [row[c] for c in free]
            if s > 1:
                part = [s * x for x in part]
            for u, j in terms:
                if parts[j] is None:
                    parts[j] = [out[j][c] for c in free]
                m = u * (s // leads[j])
                part = [x - m * y for x, y in zip(part, parts[j])]
            lead, row = s * row[p], [0] * cols
            row[p] = lead
            for c, x in zip(free, part):
                row[c] = x
        out[r] = row = line(row)
        leads[r] = row[p]
    return tuple(out)


def _canonical_rows(data: list[Sequence[int]], pivots: Sequence[int], cols: int) -> Rows:
    """Canonical rows of the rows ``data`` of ``cols`` ints, which ``_eliminate``
    left in echelon form with these pivot columns; ``data`` is consumed.  The
    rank alone picks the route (module docstring); every route gives the same rows.

    ``ONE_PASS_RANK`` is where the one pass starts to pay on the workloads'
    recorded calls, both routes timed on the same rows in one process: it
    costs 1.2–2× the row-against-row route below rank 5 and saves 13–29% from
    rank 8 on (about half on dense d×2d rows, d = 16 and 24), while rows that
    are already reduced, as the parser's canonical text gives, take about
    1.1× as long through it at ranks 8–16.
    """
    if len(pivots) == cols:
        return unit_rows(cols)
    if len(pivots) < ONE_PASS_RANK:
        _back_substitute(data, pivots)
        # the rows past the rank are zero
        return tuple(map(line, data[: len(pivots)]))
    return _one_pass_rows(data, pivots, cols)


def echelon_rows(data: list[Sequence[int]], cols: int) -> tuple[Rows, list[int]]:
    """Canonical rows and pivot columns of the row space of ``data``, rows of
    ``cols`` ints; ``data`` is consumed."""
    pivots = _eliminate(data, cols)
    return _canonical_rows(data, pivots, cols), pivots


def split_echelon_rows(
    data: list[Sequence[int]], cols: int, cut: int, head: bool = True
) -> tuple[Optional[Rows], Rows]:
    """Canonical rows of the projection of the row space of ``data`` onto
    the first ``cut`` coordinates (None unless ``head``), and of the slice
    {w : (0, w) in the row space}.  ``data`` is consumed.

    If there are at most ``cut`` rows and their heads ``row[:cut]`` are
    independent, the slice is 0 and the heads alone give the projection.
    Otherwise one forward elimination puts the rows in echelon form.  The
    rows that pivot before ``cut`` span the projection once cut to their
    first ``cut`` entries, and the others span the slice once cut to the
    rest; each side is finished among its own rows only.
    """
    if len(data) <= cut:
        heads = [row[:cut] for row in data]
        pivots = _eliminate(heads, cut)
        if len(pivots) == len(data):
            return (_canonical_rows(heads, pivots, cut) if head else None), ()
    pivots = _eliminate(data, cols)
    h = bisect_left(pivots, cut)
    top = _canonical_rows([row[:cut] for row in data[:h]], pivots[:h], cut) if head else None
    bottom = [row[cut:] for row in data[h : len(pivots)]]
    return top, _canonical_rows(bottom, [p - cut for p in pivots[h:]], cols - cut)


def complement_rows(rows: Sequence[Sequence[int]], pivots: Sequence[int], cols: int) -> Rows:
    """A basis of the orthogonal complement of the span of the reduced
    echelon ``rows`` (row j leads in column p_j = ``pivots[j]``), read off
    without elimination, each its own ``line``, but not canonical as a whole.

    Row j leads with q_j and is zero in every other pivot column, so each
    free column f gives the ``line`` of e_f − Σ_j (row_j[f] / q_j)·e_{p_j},
    orthogonal to every row: ``cols`` − rank independent vectors, each
    positive at its first nonzero entry, not at f: span{(1, 2, 3)} gives
    (2, −1, 0) and (3, 0, −1).
    """
    free = sorted(set(range(cols)).difference(pivots))
    gens = []
    for f in free:
        terms = [(p, row[f], row[p]) for p, row in zip(pivots, rows) if row[f]]
        scale = lcm(*[q for _, _, q in terms])
        g = [0] * cols
        g[f] = scale
        for p, x, q in terms:
            g[p] = -x * (scale // q)
        gens.append(g)
    return tuple(map(line, gens))


def check_canonical(rows: Sequence[Sequence[int]], cols: int) -> None:
    """Raise ``ValueError`` naming the first of ``rows`` that is not in the
    form ``echelon_rows`` returns: a tuple of ``cols`` ints that is its own
    ``line``, leading right of the row above's, and zero in every other
    row's leading column.  ``rows`` itself must be a tuple, since a
    ``Subspace`` hashes it.  Reads the rows; eliminates nothing."""
    if type(rows) is not tuple:
        raise ValueError(f"rows must be a tuple, not a {type(rows).__name__}: {rows!r}")
    leads = []
    for i, row in enumerate(rows):
        if type(row) is not tuple or len(row) != cols or not _INT_ONLY.issuperset(map(type, row)):
            raise ValueError(f"row {i} is not a tuple of {cols} ints: {row!r}")
        lead = next((j for j, x in enumerate(row) if x), cols)
        if line(row) != row or (leads and lead <= leads[-1]):
            raise ValueError(
                f"row {i} {row!r} is zero, not primitive, or does not lead with a "
                "positive entry right of the row above's"
            )
        leads.append(lead)
    for i, row in enumerate(rows):
        for k, p in enumerate(leads):
            if k != i and row[p]:
                raise ValueError(f"row {i} {row!r} is nonzero in column {p}, where row {k} leads")


def fraction_rows(rows: Iterable[Sequence[int]]) -> list[tuple[Fraction, ...]]:
    """Canonical rows divided by their leading entries: the rows of the
    reduced row echelon form, as Fractions."""
    reduced = []
    for row in rows:
        lead = next(x for x in row if x)
        reduced.append(tuple(Fraction(x, lead) if x else _ZERO for x in row))
    return reduced


def text_rows(rows: Iterable[Sequence[int]]) -> list[list[str]]:
    """Canonical rows divided by their leading entries, each entry printed in
    lowest terms as ``"p"`` or ``"p/q"``: the text ``str`` gives for the
    ``Fraction``s of ``fraction_rows``, built from the integers alone."""
    out = []
    for row in rows:
        q = next(filter(None, row))
        out.append([str(x // g) if (g := gcd(x, q)) == q else f"{x // g}/{q // g}" for x in row])
    return out


def canonical_echelon(m: Matrix) -> EchelonForm:
    """Reduced row echelon form of ``m``, with rank and pivot columns."""
    rows, pivots = echelon_rows(_integer_rows(map(m.row, range(m.rows)), m.cols), m.cols)
    flat = [x for row in fraction_rows(rows) for x in row]
    flat += [_ZERO] * ((m.rows - len(rows)) * m.cols)
    return EchelonForm(Matrix(m.rows, m.cols, tuple(flat)), len(pivots), tuple(pivots))


def rank(m: Matrix) -> int:
    return len(_eliminate(_integer_rows(map(m.row, range(m.rows)), m.cols), m.cols))


def nullspace(m: Matrix) -> Matrix:
    """Basis of ``{x : m x = 0}`` as columns.

    The basis comes from the RREF free-variable parametrization with free
    columns taken in increasing order: column for free variable f has a 1 in
    position f, the negated reduced entries in the pivot positions, and zeros
    elsewhere.  Column count is always ``cols - rank``.
    """
    rows, pivots = echelon_rows(_integer_rows(map(m.row, range(m.rows)), m.cols), m.cols)
    free = sorted(set(range(m.cols)).difference(pivots))
    gens = complement_rows(rows, pivots, m.cols)
    cols = [[Fraction(x, g[f]) if x else _ZERO for x in g] for g, f in zip(gens, free)]
    return Matrix.from_cols(cols, rows=m.cols)


def solve_linear(m: Matrix, b: Sequence[Scalar]) -> Optional[tuple[Fraction, ...]]:
    """A particular solution of ``m x = b`` (free variables 0), or None.

    None is returned exactly when the system is inconsistent.
    """
    rhs = require_vector("b", b, m.rows)
    augmented = _integer_rows([m.row(i) + (rhs[i],) for i in range(m.rows)], m.cols + 1)
    rows, pivots = echelon_rows(augmented, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [_ZERO] * m.cols
    for row, p in zip(rows, pivots):
        x[p] = Fraction(row[m.cols], row[p])
    return tuple(x)
