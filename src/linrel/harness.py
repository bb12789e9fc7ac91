"""Seeded relation generators, definitional oracles, and invariant suites.

Generation is profile-targeted: iff suites need abundant condition-violating
pairs, which uniform sampling rarely produces, so the pair makers build each
kind's violation in.  They still redraw an attempt whose B cannot carry it
(a B onto its whole target leaves no room for violate_ran).  Such an attempt
draws every number a kept one would, so the draws after it stay in place,
and builds nothing past B and B's profile: T is built from its draws, and
composed with B, only in the attempt that is kept.
Determinism is per-implementation: the PRNG is Python's Mersenne Twister
(``random.Random``) with documented sub-seed derivation, so equal (spec, seed)
always reproduce identical canonical relations within this implementation.
Generators and probes are integer points of canonical rows (``Subspace.point``),
or, in ``random_selfadjoint``, read off them directly.  The oracle builds no
matrix: it tests one vector against a span.  Only the suites that test
``Matrix`` itself build matrices.  Every suite fails through
``_first_failure``, at the first of its checks that fails, and only the
``generator_honesty`` suite checks that generated profiles are as requested.

The brute-force witness search is definitional as well: ``_product_test``
decides each grid candidate, and the one witness it returns is re-verified
by ``factor.verify``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations, product as iter_product
from math import lcm
from typing import Callable, Iterable, Iterator, Optional

from . import factor
from .exact import Matrix, Rows, _eliminate, _reduce, dot, line, require_int, require_vector
from .files import check_ambient_limit, serialize_relation
from .relation import (
    LinearRelation,
    _stacked_rows,
    _swapped,
    compose,
    cw_sum,
    graph_projection,
    graph_section,
    identity_on,
    profile,
    zero_times,
)
from .subspace import Subspace

_MASK64 = (1 << 64) - 1


def _derive_seed(seed: int, index: int) -> int:
    """Stable per-case sub-seed: a 64-bit LCG-style mix of seed and index."""
    return (seed * 6364136223846793005 + (index + 1) * 1442695040888963407) & _MASK64


@dataclass(frozen=True, slots=True)
class RelationSpec:
    """Request for a random relation, optionally with prescribed profile dims.

    The three target dimensions are all-or-none.  Consistency requires
    dim_ker <= dim_dom <= dim_x, dim_mul <= dim_y, and additionally
    dim_dom - dim_ker <= dim_y - dim_mul (the single-valued part maps onto a
    complement of the multivalued part, so its rank is capped).
    """

    dim_x: int
    dim_y: int
    dim_dom: Optional[int] = None
    dim_mul: Optional[int] = None
    dim_ker: Optional[int] = None
    coeff_bound: int = 3
    seed: int = 0

    def has_targets(self) -> bool:
        return self.dim_dom is not None

    def validate(self) -> None:
        """Raise ``ValueError`` on a bad field, and on dimensions past the
        file format's cap, which ``parse_relation_text`` would reject."""
        for name, low in (("dim_x", 0), ("dim_y", 0), ("coeff_bound", 1), ("seed", None)):
            require_int(name, getattr(self, name), low)
        check_ambient_limit({"dim_x": self.dim_x, "dim_y": self.dim_y})
        targets = (self.dim_dom, self.dim_mul, self.dim_ker)
        if any(t is None for t in targets) != all(t is None for t in targets):
            raise ValueError("target dimensions must be given together or not at all")
        if self.dim_dom is None:
            return
        for name in ("dim_dom", "dim_mul", "dim_ker"):
            require_int(name, getattr(self, name))
        dd, dm, dk = self.dim_dom, self.dim_mul, self.dim_ker
        if not (0 <= dk <= dd <= self.dim_x):
            raise ValueError(f"need 0 <= dim_ker <= dim_dom <= dim_x, got {dk}, {dd}, {self.dim_x}")
        if not (0 <= dm <= self.dim_y):
            raise ValueError(f"need 0 <= dim_mul <= dim_y, got {dm}, {self.dim_y}")
        if dd - dk > self.dim_y - dm:
            raise ValueError(
                f"rank dim_dom - dim_ker = {dd - dk} exceeds dim_y - dim_mul = {self.dim_y - dm}"
            )


def _random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    """Entries in [-3, 3] drawn row by row, kept as ints, which the kernel takes as they are."""
    return Matrix(rows, cols, tuple(rng.randint(-3, 3) for _ in range(rows * cols)))


def random_full_rank(rng: random.Random, rows: int, cols: int, bound: int = 3) -> list[tuple]:
    """The integer columns of a rows x cols matrix drawn row by row, redrawn
    until they are independent.  With no columns it draws nothing and
    eliminates nothing."""
    if require_int("cols", cols, 0) > require_int("rows", rows, 0):
        raise ValueError("full column rank needs cols <= rows")
    require_int("bound", bound, 1)
    if cols == 0:
        return []
    for _ in range(1000):
        data = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if len(_eliminate(data[:], cols)) == cols:
            return list(zip(*data))
    raise RuntimeError("failed to sample a full-rank matrix")


def random_subspace(rng: random.Random, ambient: int, dim: int, bound: int = 3) -> Subspace:
    """The span of ``random_full_rank``'s columns, drawn as it draws them;
    the span's own dimension decides each redraw, so a draw eliminates once.
    The zero span draws nothing and eliminates nothing."""
    if require_int("dim", dim, 0) > require_int("ambient", ambient, 0):
        raise ValueError(f"dimension {dim} not within ambient {ambient}")
    require_int("bound", bound, 1)
    if dim == 0:
        return Subspace.zero(ambient)
    for _ in range(1000):
        data = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(ambient)]
        sub = Subspace.from_vectors(ambient, zip(*data))
        if sub.dim == dim:
            return sub
    raise RuntimeError("failed to sample a full-rank matrix")


def _random_plain_relation(rng: random.Random, dim_x: int, dim_y: int, bound: int) -> LinearRelation:
    count = rng.randint(0, dim_x + dim_y)
    gens = [[rng.randint(-bound, bound) for _ in range(dim_x + dim_y)] for _ in range(count)]
    return LinearRelation.from_generators(dim_x, dim_y, gens)


def _draw_targeted(
    rng: random.Random, dim_x: int, dim_y: int, dd: int, dm: int, dk: int, bound: int
) -> Callable[[], LinearRelation]:
    """Draw a cw-sum of {0} x (random multivalued space) and a random
    single-valued part with prescribed domain and kernel dimensions, and
    return the function that builds it, which draws nothing: every number
    and every redraw is taken here."""
    mul_space = random_subspace(rng, dim_y, dm, bound)
    dom_cols = random_full_rank(rng, dim_x, dd, bound)
    image_coeffs = [(0,) * (dim_y - dm)] * dk
    image_coeffs += random_full_rank(rng, dim_y - dm, dd - dk, bound)

    def build() -> LinearRelation:
        window = Subspace.full(dim_x).product(mul_space.ortho_complement())
        gens = [window.point(x + c) for x, c in zip(dom_cols, image_coeffs)]
        gens += [(0,) * dim_x + r for r in mul_space.rows]
        return LinearRelation.from_generators(dim_x, dim_y, gens)

    return build


def random_relation(spec: RelationSpec) -> LinearRelation:
    """Deterministic for equal specs; achieves requested profile dims exactly."""
    spec.validate()
    rng = random.Random(spec.seed)
    if not spec.has_targets():
        return _random_plain_relation(rng, spec.dim_x, spec.dim_y, spec.coeff_bound)
    return _draw_targeted(
        rng, spec.dim_x, spec.dim_y, spec.dim_dom, spec.dim_mul, spec.dim_ker, spec.coeff_bound
    )()


def _draw_operator(rng: random.Random, dim_x: int, dim_y: int, bound: int) -> Callable[[], LinearRelation]:
    """An operator's draws; the returned function builds it."""
    dd = rng.randint(0, dim_x)
    rk = rng.randint(0, min(dd, dim_y))
    return _draw_targeted(rng, dim_x, dim_y, dd, 0, dd - rk, bound)


def random_mixed_relation(
    rng: random.Random, dim_x: int, dim_y: int, bound: int = 3
) -> LinearRelation:
    check_ambient_limit({"dim_x": require_int("dim_x", dim_x, 0), "dim_y": require_int("dim_y", dim_y, 0)})
    require_int("bound", bound, 1)
    if rng.random() < 0.5:
        return _random_plain_relation(rng, dim_x, dim_y, bound)
    dd = rng.randint(0, dim_x)
    dm = rng.randint(0, dim_y)
    rk = rng.randint(0, min(dd, dim_y - dm))
    return _draw_targeted(rng, dim_x, dim_y, dd, dm, dd - rk, bound)()


def random_selfadjoint(rng: random.Random, dim: int) -> LinearRelation:
    """Self-adjoint relation {(P a, y) : Pᵀ y = S a} for a random subspace D,
    P the matrix of D's reduced echelon basis and S = W + Wᵀ for W drawn in
    [-3, 3]: a symmetric map on D, made multivalued along D^⊥ = ker Pᵀ.

    Canonical row R_j of D leads with q_j in column p_j, where the other rows
    are zero, so column k of P has entry δ_ik in column p_i and R_j = P (q_j e_j).
    Then y_j = q_j Σ_i S_ij e_{p_i} has (Pᵀ y_j)_k = q_j S_kj, that is
    Pᵀ y_j = S (q_j e_j): the points (R_j, y_j), with (0, h) for h spanning
    D^⊥, span the relation, read off D's rows without solving anything.
    """
    check_ambient_limit({"2 * dim": 2 * require_int("dim", dim, 0)})
    r = rng.randint(0, dim)
    dom = random_subspace(rng, dim, r)
    raw = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
    leads = dom._leads()
    gens = []
    for j, row in enumerate(dom.rows):
        y = [0] * dim
        for i, p in enumerate(leads):
            y[p] = row[leads[j]] * (raw[i][j] + raw[j][i])
        gens.append(row + tuple(y))
    gens += [(0,) * dim + h for h in dom.ortho_generators()]
    return LinearRelation.from_generators(dim, dim, gens)


def oracle_product_membership(
    inner: LinearRelation, outer: LinearRelation, x, z
) -> bool:
    """Whether some y has (x, y) in ``inner`` and (y, z) in ``outer``, by
    ``_product_oracle``, which each call builds again."""
    if inner.dim_y != outer.dim_x:
        raise ValueError(f"interface dimensions differ: {inner.dim_y} vs {outer.dim_x}")
    x, z = require_vector("x", x, inner.dim_x), require_vector("z", z, outer.dim_y)
    return _product_oracle(inner, outer)(x, z)


def _product_oracle(inner: LinearRelation, outer: LinearRelation) -> Callable[[tuple, tuple], bool]:
    """``oracle_product_membership`` for one pair, on one span for all its
    probes, with no checks.  The generators (x, y, 0) of inner and
    (0, −y', z) of outer span the points (x, y − y', z), so (x, z) is in the
    product exactly when (x, 0, z) lies in the span.  It is the reference
    ``compose`` is checked against, so its layout is its own, not
    ``relation._stacked_rows``, and its span is reduced in full."""
    n, m, k = inner.dim_x, inner.dim_y, outer.dim_y
    gens = [g + (0,) * k for g in inner.graph.rows]
    gens += [(0,) * n + tuple(-v for v in g[:m]) + g[m:] for g in outer.graph.rows]
    span = Subspace.from_vectors(n + m + k, gens)
    return lambda x, z: span.contains_vector(x + (0,) * m + z)


# ---------------------------------------------------------------------------
# Brute-force witness search over small coefficient grids (dims <= 2).

def operator_graph_candidates(dim_x: int, dim_y: int, bound: int = 2) -> tuple[Rows, ...]:
    """The canonical graph rows of every single-valued relation
    Q^dim_x -> Q^dim_y whose graph is spanned by generators with entries in
    [-bound, bound], each operator once; built once per shape and bound.

    Graph dimension of an operator is at most dim_x, so spans of up to dim_x
    grid lines cover all candidates.  A span is single-valued exactly when
    its rows' x-parts are independent: otherwise some combination of them is
    a nonzero (0, y), so mul is not 0, and the span is skipped unbuilt.  The
    canonical rows of the others are read off the lines' representatives,
    with no elimination: a line's representative is its ``exact.line``, a
    canonical row, and two representatives u, v, whose x-determinant
    d = u₀v₁ − u₁v₀ is nonzero, give v₁·u − u₁·v and u₀·v − v₀·u, which are
    d·e₀ and d·e₁ on the x-block and so, taken to their ``line``s, the
    canonical rows, by the one normal form ``exact.check_canonical`` tests.
    Each span goes straight into one dict keyed on those rows, so no list
    of every span is built, and each operator keeps the place of its first
    span.  Equal rows are one tuple, shared by every candidate that
    holds it: the (2, 2) grid's 16 306 candidates hold 1 816 row objects.
    No relation is built: the search makes one only of the candidate that
    passes.  Gated to dim_x, dim_y <= 2 and bound <= 2: (2, 3) at bound 2
    already has over half a million candidates.
    The arguments are checked before the cache, where 2.0 would find 2's entry.
    """
    for name, value in (("dim_x", dim_x), ("dim_y", dim_y), ("bound", bound)):
        if require_int(name, value, 0) > 2:
            raise ValueError("brute-force enumeration is gated to dim_x, dim_y <= 2 and bound <= 2")
    return _operator_graph_candidates(dim_x, dim_y, bound)


@lru_cache(maxsize=None)
def _operator_graph_candidates(dim_x: int, dim_y: int, bound: int) -> tuple[Rows, ...]:
    grid = [e for e in iter_product(range(-bound, bound + 1), repeat=dim_x + dim_y) if any(e)]
    # each grid line once, in the order of the lines' reduced echelon forms: a
    # lead is at most ``bound``, so a line times scale // lead is its form times scale
    lines = set(map(line, grid))
    scale = lcm(*range(1, bound + 1))
    line_reps = sorted(lines, key=lambda row: tuple(x * (scale // next(filter(None, row))) for x in row))
    # first occurrence decides the order, since the search returns the first
    # candidate that passes: the empty span, each line with a nonzero
    # x-part, each pair with d != 0
    spans: dict[Rows, None] = {(): None}
    if dim_x >= 1:
        spans.update(((rep,), None) for rep in line_reps if any(rep[:dim_x]))
    if dim_x >= 2:
        shared = {rep: rep for rep in line_reps}
        for u, v in combinations(line_reps, 2):
            if u[0] * v[1] != u[1] * v[0]:
                r0 = line([v[1] * a - u[1] * b for a, b in zip(u, v)])
                r1 = line([u[0] * b - v[0] * a for a, b in zip(u, v)])
                spans.setdefault((shared.setdefault(r0, r0), shared.setdefault(r1, r1)))
    return tuple(spans)


def _product_test(a: LinearRelation, b: LinearRelation, side: str) -> Optional[Callable[[Rows], bool]]:
    """The brute-force search's decision for one pair: a function of a
    candidate T, given by the canonical integer rows of its graph, that
    tells whether B∘T = A (``right``) or T∘B = A (``left``); None when B
    alone rules out every candidate.

    Only B∘T = A is laid out: inverting reverses composition, so T∘B = A
    exactly when B⁻¹∘T⁻¹ = A⁻¹.  The left side inverts B, for the echelon
    rows of B⁻¹, the one elimination either side runs, and reads (A⁻¹)^⊥
    off A^⊥ with each row's blocks swapped: another basis of the rows h
    than A⁻¹'s own rows give, which leaves every rank below unchanged.

    With T as the inner factor and B as the outer, ``relation._stacked_rows``
    gives the system R whose slice S = {(x, z) : (0, x, z) ∈ R} is B∘T.  So
    dim S is rank R less the rank of R's y-parts, and S ⊆ A exactly when,
    over the rows h of A^⊥, the rows (y, h·(x, z)) of R have the same rank
    as their y-parts.  Each row t of T is reduced by B's rows of R, once per
    pair on first use, to w′_t = (y′, x′, z′), zero on B's leads, and
    u′_t = (y′, h·(x′, z′)); B's rows and the w′_t add their ranks, as do
    their y-parts, so

    * dim S = dim mul(B) + rank{w′_t} − rank{y′_t};
    * S ⊆ A exactly when rank{u′_t} = rank{y′_t}, once every h vanishes on
      {0} × mul(B): if one does not, no candidate passes.

    B∘T = A then holds exactly when rank{u′_t} = rank{y′_t} and
    rank{w′_t} − rank{y′_t} = dim A − dim mul(B).  A grid candidate has at
    most two rows: with one, each rank is its zero flag; with two, each is
    read off the rows' lines (``exact.line``), taken once per pair on first use
    and only for rows of two-row candidates.
    """
    n, k = a.dim_x, a.dim_y
    perp, s = a.graph.ortho_generators(), n
    if side == "left":
        perp, s = _swapped(perp, n), 0
        n, k, b = k, n, b.inverse()
    m = b.dim_x
    b_leads = []
    for g, lead in zip(b.graph.rows, b.graph._leads()):
        if lead >= m and any(dot(h[n:], g[m:]) for h in perp):
            return None
        b_leads.append(lead if lead < m else lead + n)
    b_rows = _stacked_rows(n, m, k, (), b.graph.rows)
    c = a.graph.dim - sum(lead >= m for lead in b_leads)
    pad = [0] * k
    pulled: dict[tuple[int, ...], tuple] = {}
    keyed: dict[tuple[int, ...], tuple] = {}

    def pull(t: tuple[int, ...]) -> tuple:
        """Whether w′_t, y′_t and u′_t are nonzero, then w′_t, y′_t, u′_t."""
        # T's row (t_x, t_y) as (t_y, t_x, 0), or on the left T⁻¹'s as t: one
        # slice, as helper calls per row took 1.14–1.21× as long on searches
        row = list(t[s:] + t[:s]) + pad
        w = _reduce(row, b_rows, b_leads)
        y = w[:m]
        u = y + [dot(h, w[m:]) for h in perp]
        pulled[t] = entry = (any(w), any(y), any(u), w, y, u)
        return entry

    def key(t: tuple[int, ...]) -> tuple:
        """The lines of w′_t, y′_t and u′_t."""
        keyed[t] = entry = tuple(map(line, (pulled.get(t) or pull(t))[3:]))
        return entry

    def admits(gens: Rows) -> bool:
        if len(gens) < c:  # rank{w′_t} − rank{y′_t} is at most the number of rows
            return False
        if len(gens) == 2:
            t1, t2 = gens
            w1, y1, u1 = keyed.get(t1) or key(t1)
            w2, y2, u2 = keyed.get(t2) or key(t2)
            rank_y = _line_rank(y1, y2)
            return _line_rank(u1, u2) == rank_y and _line_rank(w1, w2) - rank_y == c
        if not gens:  # so c = 0: B∘T = {0} × mul(B) ⊆ A, of A's dimension
            return True
        w_nz, y_nz, u_nz = (pulled.get(gens[0]) or pull(gens[0]))[:3]
        return u_nz == y_nz and w_nz - y_nz == c

    return admits


def _line_rank(k1: Optional[tuple[int, ...]], k2: Optional[tuple[int, ...]]) -> int:
    """The rank of two integer rows, given by their lines."""
    return (k1 is not None) + (k2 is not None and k2 != k1)


def _search(
    a: LinearRelation, b: LinearRelation, side: str, dims: tuple[int, int], bound: int
) -> Optional[LinearRelation]:
    """The first grid candidate of shape ``dims`` that ``_product_test``
    admits, built as a relation and re-verified, or None."""
    # gated even when B rules all out
    candidates = operator_graph_candidates(*dims, bound)
    admits = _product_test(a, b, side)
    if admits is None:
        return None
    for rows in candidates:
        if admits(rows):
            t = LinearRelation(*dims, Subspace._make(sum(dims), rows))
            if not factor.verify(a, b, t, side):
                raise RuntimeError(f"{side} brute-force witness passes elimination but not compose")
            return t
    return None


def brute_force_right_witness(
    a: LinearRelation, b: LinearRelation, bound: int = 2
) -> Optional[LinearRelation]:
    """The first candidate of the grid that is a single-valued T with B∘T = A,
    or None, found by ``_search``."""
    factor._require_shared_target(a, b)
    return _search(a, b, "right", (a.dim_x, b.dim_x), bound)


def brute_force_left_witness(
    a: LinearRelation, b: LinearRelation, bound: int = 2
) -> Optional[LinearRelation]:
    """The first candidate of the grid that is a single-valued T with T∘B = A,
    or None, found by ``_search``."""
    factor._require_shared_source(a, b)
    return _search(a, b, "left", (b.dim_y, a.dim_y), bound)


# ---------------------------------------------------------------------------
# Profile-targeted pair generation for the iff suites.

RIGHT_KINDS = ("satisfy", "violate_ran", "violate_mul_gain", "violate_mul_loss", "free")
LEFT_KINDS = ("satisfy", "violate_dom", "violate_ker", "violate_mul_dim", "free")


def _check_pair_args(max_dim: int, low: int) -> None:
    """Check a pair maker's ``max_dim`` before it draws: each of its
    relations has up to 2·max_dim coordinates, under the file format's cap."""
    require_int("max_dim", max_dim, low)
    check_ambient_limit({"2 * max_dim": 2 * max_dim})


def _vector_in_gap(rng: random.Random, big: Subspace, small: Subspace, bound: int) -> tuple:
    """A nonzero point of ``big`` outside ``small``; on the full space its
    coefficients are its coordinates."""
    for _ in range(1000):
        coeffs = [rng.randint(-bound, bound) for _ in range(big.dim)]
        v = big.point(coeffs)
        if any(v) and not small.contains_vector(v):
            return v
    raise RuntimeError("failed to sample a vector in the gap")


def targeted_right_pair(
    rng: random.Random, kind: str, max_dim: int = 3, bound: int = 3
) -> tuple[LinearRelation, LinearRelation]:
    """(A, B) with A from X to Z and B from Y to Z, steered toward ``kind``.

    satisfy: A = B∘T for a random operator T, so range inclusion holds and the
    multivalued parts agree.  The violate kinds each break exactly the named
    condition; free is an unconstrained random pair.
    """
    if kind not in RIGHT_KINDS:
        raise ValueError(f"unknown pair kind {kind!r}")
    _check_pair_args(max_dim, 1)
    require_int("bound", bound, 1)
    for _ in range(500):
        nx, ny, nz = (rng.randint(1, max_dim) for _ in range(3))
        b = random_mixed_relation(rng, ny, nz, bound)
        pb = profile(b)
        if kind == "free":
            return _random_plain_relation(rng, nx, nz, bound), b
        build_t = _draw_operator(rng, nx, ny, bound)
        if (kind == "violate_ran" and pb.ran.dim == nz
                or kind == "violate_mul_gain" and pb.ran.dim <= pb.mul.dim
                or kind == "violate_mul_loss" and pb.mul.dim == 0):
            continue
        base = compose(b, build_t())
        if kind == "satisfy":
            return base, b
        if kind == "violate_ran":
            z0 = _vector_in_gap(rng, Subspace.full(nz), pb.ran, bound)
            x0 = tuple(rng.randint(-bound, bound) for _ in range(nx))
            return LinearRelation.from_generators(nx, nz, base.graph.rows + (x0 + z0,)), b
        if kind == "violate_mul_gain":
            z0 = _vector_in_gap(rng, pb.ran, pb.mul, bound)
            return LinearRelation.from_generators(nx, nz, base.graph.rows + ((0,) * nx + z0,)), b
        if kind == "violate_mul_loss":
            return base.reduce_operator_part(), b
    raise RuntimeError(f"failed to construct a right pair of kind {kind!r}")


def targeted_left_pair(
    rng: random.Random, kind: str, max_dim: int = 3, bound: int = 3
) -> tuple[LinearRelation, LinearRelation]:
    """(A, B) with A from X to Y and B from X to Z, steered toward ``kind``."""
    if kind not in LEFT_KINDS:
        raise ValueError(f"unknown pair kind {kind!r}")
    _check_pair_args(max_dim, 1)
    require_int("bound", bound, 1)
    for _ in range(500):
        nx, ny, nz = (rng.randint(1, max_dim) for _ in range(3))
        b = random_mixed_relation(rng, nx, nz, bound)
        pb = profile(b)
        if kind == "free":
            return _random_plain_relation(rng, nx, ny, bound), b
        build_t = _draw_operator(rng, nz, ny, bound)
        if (kind == "violate_dom" and pb.dom.dim == nx
                or kind == "violate_ker" and (pb.ker.dim == 0 or pb.dom.dim > ny)
                or kind == "violate_mul_dim" and pb.mul.dim >= ny):
            continue
        if kind == "violate_ker":  # builds no T: A is not a product
            # e_i ⊕ y_i joins basis vector i of dom(B) to the image y_i
            window, r = pb.dom.product(Subspace.full(ny)), pb.dom.dim
            images = random_full_rank(rng, ny, r, bound)
            gens = [window.point([int(j == i) for j in range(r)] + list(y)) for i, y in enumerate(images)]
            return LinearRelation.from_generators(nx, ny, gens), b
        base = compose(build_t(), b)
        if kind == "satisfy":
            return base, b
        if kind == "violate_dom":
            x0 = _vector_in_gap(rng, Subspace.full(nx), pb.dom, bound)
            y0 = tuple(rng.randint(-bound, bound) for _ in range(ny))
            return LinearRelation.from_generators(nx, ny, base.graph.rows + (x0 + y0,)), b
        if kind == "violate_mul_dim":
            extra = random_subspace(rng, ny, pb.mul.dim + 1, bound)
            return cw_sum(base, zero_times(nx, extra))[0], b
    raise RuntimeError(f"failed to construct a left pair of kind {kind!r}")


def random_square_pair(rng: random.Random, max_dim: int = 3) -> tuple[LinearRelation, LinearRelation]:
    """Two ``random_mixed_relation`` draws on Q^d, d in [0, max_dim], at coefficient bound 3."""
    _check_pair_args(max_dim, 0)
    d = rng.randint(0, max_dim)
    return random_mixed_relation(rng, d, d), random_mixed_relation(rng, d, d)


# ---------------------------------------------------------------------------
# Named invariant suites.

@dataclass(frozen=True, slots=True)
class SuiteResult:
    suite: str
    cases: int
    passed: int
    failed: int
    counterexample: Optional[str]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        """``k=v`` per fact of ``to_json_dict``, then the counterexample indented."""
        facts = self.to_json_dict()
        counterexample = facts.pop("counterexample")
        lines = [f"{k}={v}" for k, v in facts.items()]
        if counterexample is not None:
            lines.append("counterexample:")
            lines += ["  " + l for l in counterexample.splitlines()]
        return "\n".join(lines) + "\n"


def _first_failure(checks: Iterable[tuple[str, bool]], *shown: LinearRelation,
                   kind: Optional[str] = None) -> Optional[str]:
    """The first failed check's label, with the pair's ``kind`` if given, over
    the relations ``shown`` as files that ``linrel`` reads back (headed A, B,
    C when there are several), or None.  Suites pass a generator, so no check
    after the first failed one is evaluated."""
    for label, ok in checks:
        if not ok:
            heads = ("A:\n", "B:\n", "C:\n") if len(shown) > 1 else ("",)
            note = "" if kind is None else f" (kind {kind})"
            return f"{label}{note}:\n" + "".join(h + serialize_relation(r) for h, r in zip(heads, shown))
    return None


def _report_checks(report: factor.FactorizationReport, conditions: bool, a: LinearRelation,
                   b: LinearRelation, side: str) -> Iterator[tuple[str, bool]]:
    """What every solver suite checks of a report: its flag agrees with the
    suite's own conditions, and a solvable one is verified and carries a
    witness that ``factor.verify`` accepts on (a, b, side), single-valued
    above relation level."""
    yield "solvable flag disagrees", report.solvable == conditions
    if report.solvable:
        yield "report not verified", report.verified
        yield "witness does not verify", factor.verify(a, b, report.witness, side)
        if report.level != "relation":
            yield "witness is not single-valued", profile(report.witness).is_operator


def _suite_relation_algebra(rng: random.Random) -> Optional[str]:
    n = rng.randint(0, 6)
    m = rng.randint(0, 6)
    rel = random_mixed_relation(rng, n, m, 3)

    def checks():
        p, inv = profile(rel), rel.inverse()
        q = profile(inv)
        yield "dom of inverse is range", q.dom == p.ran
        yield "range of inverse is dom", q.ran == p.dom
        yield "kernel of inverse is mul", q.ker == p.mul
        yield "mul of inverse is kernel", q.mul == p.ker
        yield "double inverse", inv.inverse() == rel
        reduced = rel.reduce_operator_part()
        total, direct = cw_sum(zero_times(n, p.mul), reduced)
        yield "decomposition reconstructs", total == rel
        yield "decomposition is direct", direct
        yield "reduced part is single-valued", profile(reduced).is_operator
        yield "reduced part keeps dom", profile(reduced).dom == p.dom

    return _first_failure(checks(), rel)


def _suite_compose_oracle(rng: random.Random) -> Optional[str]:
    n, m, k = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
    a = random_mixed_relation(rng, n, m, 3)
    b = random_mixed_relation(rng, m, k, 3)
    probes = []
    # Steer one probe through a point (y, z) of B so positives occur
    # regularly.  In B∘A's stacked system, reducing B's row (−y, 0, z) by
    # the rows of A⁻¹ that lead in the y-block leaves (0, x, s·z) exactly
    # when y is in ran(A): then (x, s·y) lies in A, so (x, s·z) in B∘A.
    if b.graph.dim:
        w = b.graph.point([rng.randint(-2, 2) for _ in range(b.graph.dim)])
        inv = a.inverse().graph
        leads = [p for p in inv._leads() if p < m]
        *rows, v = _stacked_rows(n, m, k, inv.rows[: len(leads)], [w])
        v = _reduce(v, rows, leads)
        if not any(v[:m]):
            probes.append((tuple(v[m : m + n]), tuple(v[m + n :])))
    while len(probes) < 4:
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        probes.append((x, tuple(rng.randint(-3, 3) for _ in range(k))))

    def checks():
        ba, oracle = compose(b, a), _product_oracle(a, b)
        for x, z in probes:
            yield f"probe x={x} z={z} disagrees", oracle(x, z) == ba.membership(x, z)

    return _first_failure(checks(), a, b)


def _suite_graph_compose(rng: random.Random) -> Optional[str]:
    n, m, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
    ma = _random_matrix(rng, m, n)
    mb = _random_matrix(rng, k, m)
    a, b = LinearRelation.graph_of_matrix(ma), LinearRelation.graph_of_matrix(mb)
    same = compose(b, a) == LinearRelation.graph_of_matrix(mb @ ma)
    return _first_failure([("graph composition mismatch", same)], a, b)


def _suite_compose_algebra(rng: random.Random) -> Optional[str]:
    n, m, k, l = (rng.randint(0, 3) for _ in range(4))
    a = random_mixed_relation(rng, n, m, 3)
    b = random_mixed_relation(rng, m, k, 3)
    c = random_mixed_relation(rng, k, l, 3)

    def checks():
        yield "associativity fails", compose(compose(c, b), a) == compose(c, compose(b, a))
        yield "inverse of product fails", compose(b, a).inverse() == compose(a.inverse(), b.inverse())

    return _first_failure(checks(), a, b, c)


def _suite_adjoint_identities(rng: random.Random) -> Optional[str]:
    d = rng.randint(0, 4)
    rel = random_mixed_relation(rng, d, d, 3)

    def checks():
        p, adj = profile(rel), rel.adjoint()
        q = profile(adj)
        yield "mul of adjoint is dom-perp", q.mul == p.dom.ortho_complement()
        yield "kernel of adjoint is ran-perp", q.ker == p.ran.ortho_complement()
        yield "double adjoint", adj.adjoint() == rel

    def matrix_failure():
        m = _random_matrix(rng, d, d)
        graph = LinearRelation.graph_of_matrix(m)
        same = graph.adjoint() == LinearRelation.graph_of_matrix(m.transpose())
        return _first_failure([("adjoint of a matrix graph is not the transpose graph", same)], graph)

    return _first_failure(checks(), rel) or matrix_failure()


def _suite_graph_maps(rng: random.Random) -> Optional[str]:
    n = rng.randint(0, 4)
    m = rng.randint(0, 4)
    rel = random_mixed_relation(rng, n, m, 3)

    def checks():
        p, proj = profile(rel), graph_projection(rel)
        pp = profile(proj)
        yield "projection is single-valued", pp.is_operator
        yield "projection dom is the graph", pp.dom == rel.graph
        yield "projection range is dom", pp.ran == p.dom
        yield "projection kernel is 0 x mul", pp.ker == Subspace.zero(n).product(p.mul)
        section = graph_section(rel)
        ps = profile(section)
        yield "section is single-valued", ps.is_operator
        yield "section dom is dom", ps.dom == p.dom
        yield "projection after section is identity on dom", compose(proj, section) == identity_on(p.dom)

    return _first_failure(checks(), rel)


def _suite_membership(rng: random.Random) -> Optional[str]:
    n = rng.randint(0, 5)
    m = rng.randint(0, 5)
    rel = random_mixed_relation(rng, n, m, 3)
    probes = []
    if rel.graph.dim:
        coeffs = [rng.randint(-2, 2) for _ in range(rel.graph.dim)]
        probes.append(rel.graph.point(coeffs))
    for _ in range(3):
        probes.append(tuple(rng.randint(-3, 3) for _ in range(n + m)))

    def checks():
        for v in probes:
            via_span = rel.graph.contains(Subspace.from_vectors(n + m, [v]))
            yield f"membership disagrees on {v}", rel.membership(v[:n], v[n:]) == via_span

    return _first_failure(checks(), rel)


def _suite_right_relation_iff(rng: random.Random) -> Optional[str]:
    kind = rng.choice(RIGHT_KINDS)
    a, b = targeted_right_pair(rng, kind)

    def checks():
        pa, pb = profile(a), profile(b)
        conditions = pb.ran.contains(pa.ran) and pa.mul.contains(pb.mul)
        yield "iff broken", (compose(b, compose(b.inverse(), a)) == a) == conditions
        yield from _report_checks(factor.solve_right_relation(a, b), conditions, a, b, "right")

    return _first_failure(checks(), a, b, kind=kind)


def _suite_left_relation_iff(rng: random.Random) -> Optional[str]:
    kind = rng.choice(LEFT_KINDS)
    a, b = targeted_left_pair(rng, kind)

    def checks():
        pa, pb = profile(a), profile(b)
        conditions = pb.dom.contains(pa.dom) and pa.ker.contains(pb.ker)
        yield "iff broken", (compose(compose(a, b.inverse()), b) == a) == conditions
        yield from _report_checks(factor.solve_left_relation(a, b), conditions, a, b, "left")

    return _first_failure(checks(), a, b, kind=kind)


def _suite_right_operator_iff(rng: random.Random) -> Optional[str]:
    kind = rng.choice(RIGHT_KINDS)
    a, b = targeted_right_pair(rng, kind)

    def checks():
        pa, pb = profile(a), profile(b)
        conditions = pb.ran.contains(pa.ran) and pa.mul == pb.mul
        report = factor.solve_right_operator(a, b)
        yield from _report_checks(report, conditions, a, b, "right")
        if report.solvable:
            yield "witness domain is not dom(A)", profile(report.witness).dom == pa.dom

    return _first_failure(checks(), a, b, kind=kind)


def _suite_left_operator_iff(rng: random.Random) -> Optional[str]:
    kind = rng.choice(LEFT_KINDS)
    a, b = targeted_left_pair(rng, kind)

    def checks():
        pa, pb = profile(a), profile(b)
        conditions = pb.dom.contains(pa.dom) and pa.ker.contains(pb.ker) and pa.mul.dim <= pb.mul.dim
        yield from _report_checks(factor.solve_left_operator(a, b), conditions, a, b, "left")

    return _first_failure(checks(), a, b, kind=kind)


def _suite_operator_criterion_right(rng: random.Random) -> Optional[str]:
    kind = rng.choice(("satisfy", "violate_mul_gain", "violate_mul_loss"))
    a, b = targeted_right_pair(rng, kind)

    def checks():
        pa, pb = profile(a), profile(b)
        # the criterion is stated under range inclusion, which every kind builds in
        yield "pair generator put ran(A) outside ran(B)", pb.ran.contains(pa.ran)
        expected = pb.mul.contains(pa.mul) and pb.ker.dim == 0
        yield "operator criterion disagrees", profile(compose(b.inverse(), a)).is_operator == expected

    return _first_failure(checks(), a, b, kind=kind)


def _suite_operator_criterion_left(rng: random.Random) -> Optional[str]:
    kind = rng.choice(LEFT_KINDS)
    a, b = targeted_left_pair(rng, kind)

    def checks():
        pa, pb = profile(a), profile(b)
        joint = compose(a, b.inverse())
        is_operator = profile(joint).is_operator
        expected = pa.mul.dim == 0 and pa.ker.contains(pb.ker.intersect(pa.dom))
        yield "operator criterion disagrees", is_operator == expected
        expected = pa.mul.dim == 0 and pb.dom.contains(pa.dom) and pa.ker.contains(pb.ker)
        yield "operator-solution criterion disagrees", (is_operator and compose(joint, b) == a) == expected

    return _first_failure(checks(), a, b, kind=kind)


def _suite_adjoint_right_iff(rng: random.Random) -> Optional[str]:
    a, b = random_square_pair(rng)

    def checks():
        pa, pb = profile(a), profile(b)
        conditions = pa.ker.contains(pb.ker) and pa.dom == pb.dom
        a_adj, b_adj = a.adjoint(), b.adjoint()
        direct = factor.solve_right_operator(a_adj, b_adj)
        yield "adjoint-level translation disagrees", direct.solvable == conditions
        yield from _report_checks(factor.solve_adjoint_right(a, b), conditions, a_adj, b_adj, "right")

    return _first_failure(checks(), a, b)


def _suite_adjoint_left_iff(rng: random.Random) -> Optional[str]:
    a, b = random_square_pair(rng)

    def checks():
        pa, pb = profile(a), profile(b)
        dom_perp_dim_le = a.dim_x - pa.dom.dim <= b.dim_x - pb.dom.dim
        conditions = pa.mul.contains(pb.mul) and pb.ran.contains(pa.ran) and dom_perp_dim_le
        a_adj, b_adj = a.adjoint(), b.adjoint()
        direct = factor.solve_left_operator(a_adj, b_adj)
        yield "adjoint-level translation disagrees", direct.solvable == conditions
        yield from _report_checks(factor.solve_adjoint_left(a, b), conditions, a_adj, b_adj, "left")

    return _first_failure(checks(), a, b)


def _suite_selfadjoint_duality(rng: random.Random) -> Optional[str]:
    d = rng.randint(1, 4)
    a = random_selfadjoint(rng, d)
    b = random_selfadjoint(rng, d)

    def checks():
        yield "generator produced a non-self-adjoint relation", a.is_selfadjoint() and b.is_selfadjoint()
        pa, pb = profile(a), profile(b)
        primal = pb.ran.contains(pa.ran) and pa.mul == pb.mul
        dual = pa.ker.contains(pb.ker) and pa.dom == pb.dom
        yield "condition sets disagree for self-adjoint pair", primal == dual
        yield "solver disagrees with dual conditions", factor.solve_right_operator(a, b).solvable == dual

    return _first_failure(checks(), a, b)


def _suite_generator_honesty(rng: random.Random) -> Optional[str]:
    n = rng.randint(0, 5)
    m = rng.randint(0, 5)
    dd = rng.randint(0, n)
    dm = rng.randint(0, m)
    rk = rng.randint(0, min(dd, m - dm))
    spec = RelationSpec(n, m, dim_dom=dd, dim_mul=dm, dim_ker=dd - rk, seed=rng.getrandbits(32))
    rel = random_relation(spec)
    p = profile(rel)
    got, requested = (p.dom.dim, p.mul.dim, p.ker.dim), (dd, dm, dd - rk)
    return _first_failure([(f"profile {got} != requested {requested}", got == requested)], rel)


def _suite_determinism(rng: random.Random) -> Optional[str]:
    n = rng.randint(0, 5)
    m = rng.randint(0, 5)
    spec = RelationSpec(n, m, seed=rng.getrandbits(32))
    rel = random_relation(spec)
    same = serialize_relation(rel) == serialize_relation(random_relation(spec))
    return _first_failure([(f"serialization differs for seed {spec.seed}", same)], rel)


SUITES: dict[str, tuple[Callable[[random.Random], Optional[str]], int]] = {
    "relation_algebra": (_suite_relation_algebra, 500),
    "compose_oracle": (_suite_compose_oracle, 250),
    "graph_compose": (_suite_graph_compose, 200),
    "compose_algebra": (_suite_compose_algebra, 150),
    "adjoint_identities": (_suite_adjoint_identities, 300),
    "graph_maps": (_suite_graph_maps, 150),
    "membership": (_suite_membership, 200),
    "right_relation_iff": (_suite_right_relation_iff, 250),
    "left_relation_iff": (_suite_left_relation_iff, 250),
    "right_operator_iff": (_suite_right_operator_iff, 250),
    "left_operator_iff": (_suite_left_operator_iff, 250),
    "operator_criterion_right": (_suite_operator_criterion_right, 150),
    "operator_criterion_left": (_suite_operator_criterion_left, 150),
    "adjoint_right_iff": (_suite_adjoint_right_iff, 100),
    "adjoint_left_iff": (_suite_adjoint_left_iff, 100),
    "selfadjoint_duality": (_suite_selfadjoint_duality, 100),
    "generator_honesty": (_suite_generator_honesty, 200),
    "determinism": (_suite_determinism, 100),
}


def list_suites() -> tuple[str, ...]:
    return tuple(SUITES)


def run_suite(name: str, cases: Optional[int] = None, seed: int = 0) -> SuiteResult:
    """Run a named invariant suite; deterministic for equal (cases, seed)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (known: {', '.join(sorted(SUITES))})")
    fn, default = SUITES[name]
    total = default if cases is None else cases
    require_int("cases", total, 1)
    require_int("seed", seed)
    passed = failed = 0
    counterexample = None
    for index in range(total):
        rng = random.Random(_derive_seed(seed, index))
        message = fn(rng)
        if message is None:
            passed += 1
        else:
            failed += 1
            if counterexample is None:
                counterexample = f"case {index}: {message}"
    return SuiteResult(name, total, passed, failed, counterexample)
