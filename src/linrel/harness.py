"""Seeded relation generators, definitional oracles, and invariant suites.

Generation is profile-targeted rather than rejection-sampled: iff suites need
abundant condition-violating pairs, which uniform sampling rarely produces.
Determinism is per-implementation: the PRNG is Python's Mersenne Twister
(``random.Random``) with documented sub-seed derivation, so equal (spec, seed)
always reproduce identical canonical relations within this implementation.
Generators and probes are integer points of canonical rows (``Subspace.point``),
or, in ``random_selfadjoint``, read off them directly.  The oracle builds no
matrix: it tests one vector against a span.  Only the suites that test
``Matrix`` itself build matrices.  Every suite that shows relations fails
through ``_first_failure``, at the first of its checks that fails.

The brute-force witness search is definitional as well: it decides each
grid candidate T on ``oracle_product_membership``'s stacked system R for
B∘T, spanned by T's rows (t_y, t_x, 0) and B's rows (−g_y, 0, g_z).  B∘T is
R's slice at y = 0, so its dimension is rank R less the rank of R's
y-parts, and it lies in A exactly when the rows (y, h·(x, z)), over the rows
h of A^⊥, have the rank of their y-parts.  Each distinct row of the
candidates' graph bases is reduced once per pair by B's canonical rows, and
a candidate, of at most two rows, is decided from the ranks of its reduced
rows, with no elimination.  T∘B = A is decided as B⁻¹∘T⁻¹ = A⁻¹.  The one
witness returned is re-verified by ``factor.verify``.  The grid is gated to
dims <= 2 on both sides and bound <= 2.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations, product as iter_product
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import factor
from .exact import Matrix, Rows, _eliminate, _reduce, echelon_rows, fraction_rows, primitive_rows, require_int
from .files import check_ambient_limit, serialize_relation
from .relation import (
    LinearRelation,
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


def derive_seed(seed: int, index: int) -> int:
    """Stable per-case sub-seed: a 64-bit LCG-style mix of seed and index."""
    return (seed * 6364136223846793005 + (index + 1) * 1442695040888963407) & _MASK64


@dataclass(frozen=True)
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
        for name, low in (("dim_x", 0), ("dim_y", 0), ("coeff_bound", 1)):
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


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 3) -> Matrix:
    """Entries drawn row by row, kept as ints, which the kernel takes as they are."""
    return Matrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))


def random_full_rank(rng: random.Random, rows: int, cols: int, bound: int = 3) -> list[tuple]:
    """The integer columns of a rows x cols matrix drawn row by row, redrawn
    until they are independent."""
    if cols > rows:
        raise ValueError("full column rank needs cols <= rows")
    for _ in range(1000):
        data = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if len(_eliminate(data[:], cols)) == cols:
            return list(zip(*data))
    raise RuntimeError("failed to sample a full-rank matrix")


def random_subspace(rng: random.Random, ambient: int, dim: int, bound: int = 3) -> Subspace:
    if not 0 <= dim <= ambient:
        raise ValueError(f"dimension {dim} not within ambient {ambient}")
    return Subspace.from_vectors(ambient, random_full_rank(rng, ambient, dim, bound))


def random_plain_relation(
    rng: random.Random, dim_x: int, dim_y: int, bound: int = 3
) -> LinearRelation:
    count = rng.randint(0, dim_x + dim_y)
    gens = [[rng.randint(-bound, bound) for _ in range(dim_x + dim_y)] for _ in range(count)]
    return LinearRelation.from_generators(dim_x, dim_y, gens)


def _targeted_relation(
    rng: random.Random, dim_x: int, dim_y: int, dd: int, dm: int, dk: int, bound: int
) -> LinearRelation:
    """cw-sum of {0} x (random multivalued space) and a random single-valued
    part with prescribed domain and kernel dimensions."""
    mul_space = random_subspace(rng, dim_y, dm, bound)
    window = Subspace.full(dim_x).product(mul_space.ortho_complement())
    dom_cols = random_full_rank(rng, dim_x, dd, bound)
    image_coeffs = [(0,) * (dim_y - dm)] * dk
    image_coeffs += random_full_rank(rng, dim_y - dm, dd - dk, bound)
    gens = [window.point(x + c) for x, c in zip(dom_cols, image_coeffs)]
    gens += [(0,) * dim_x + r for r in mul_space.rows]
    rel = LinearRelation.from_generators(dim_x, dim_y, gens)
    prof = profile(rel)
    if (prof.dom.dim, prof.mul.dim, prof.ker.dim) != (dd, dm, dk):
        raise RuntimeError("constructed relation does not match the requested profile")
    return rel


def random_relation(spec: RelationSpec) -> LinearRelation:
    """Deterministic for equal specs; achieves requested profile dims exactly."""
    spec.validate()
    rng = random.Random(spec.seed)
    if not spec.has_targets():
        return random_plain_relation(rng, spec.dim_x, spec.dim_y, spec.coeff_bound)
    return _targeted_relation(
        rng, spec.dim_x, spec.dim_y, spec.dim_dom, spec.dim_mul, spec.dim_ker, spec.coeff_bound
    )


def random_operator(rng: random.Random, dim_x: int, dim_y: int, bound: int = 3) -> LinearRelation:
    dd = rng.randint(0, dim_x)
    rk = rng.randint(0, min(dd, dim_y))
    return _targeted_relation(rng, dim_x, dim_y, dd, 0, dd - rk, bound)


def random_mixed_relation(
    rng: random.Random, dim_x: int, dim_y: int, bound: int = 3
) -> LinearRelation:
    if rng.random() < 0.5:
        return random_plain_relation(rng, dim_x, dim_y, bound)
    dd = rng.randint(0, dim_x)
    dm = rng.randint(0, dim_y)
    rk = rng.randint(0, min(dd, dim_y - dm))
    return _targeted_relation(rng, dim_x, dim_y, dd, dm, dd - rk, bound)


def random_selfadjoint(rng: random.Random, dim: int, bound: int = 3) -> LinearRelation:
    """Self-adjoint relation {(P a, y) : Pᵀ y = S a} for a random subspace D,
    P the matrix of D's reduced echelon basis and S a random symmetric
    matrix: a symmetric map on D, made multivalued along D^⊥ = ker Pᵀ.

    Canonical row R_j of D leads with q_j in column p_j, where the other rows
    are zero, so column k of P has entry δ_ik in column p_i and R_j = P (q_j e_j).
    Then y_j = q_j Σ_i S_ij e_{p_i} has (Pᵀ y_j)_k = q_j S_kj, that is
    Pᵀ y_j = S (q_j e_j): the points (R_j, y_j), with (0, h) for h spanning
    D^⊥, span the relation, read off D's rows without solving anything.
    """
    r = rng.randint(0, dim)
    dom = random_subspace(rng, dim, r, bound)
    raw = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(r)]
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
    """Whether some y has (x, y) in ``inner`` and (y, z) in ``outer``.

    The generators (x, y, 0) of inner and (0, -y', z) of outer span the
    points (x, y - y', z), so the answer is whether (x, 0, z) lies in their
    span.  Deliberately independent of ``compose``: the span is reduced in
    full and tested, where ``compose`` keeps the slice of a ``split_span``.
    """
    if inner.dim_y != outer.dim_x:
        raise ValueError(f"interface dimensions differ: {inner.dim_y} vs {outer.dim_x}")
    x, z = tuple(x), tuple(z)
    if len(x) != inner.dim_x or len(z) != outer.dim_y:
        raise ValueError("probe lengths do not match the relation dimensions")
    n, m, k = inner.dim_x, inner.dim_y, outer.dim_y
    gens = [g + (0,) * k for g in inner.graph.rows]
    gens += [(0,) * n + tuple(-v for v in g[:m]) + g[m:] for g in outer.graph.rows]
    return Subspace.from_vectors(n + m + k, gens).contains_vector(x + (0,) * m + z)


# ---------------------------------------------------------------------------
# Brute-force witness search over small coefficient grids (dims <= 2).

@lru_cache(maxsize=None)
def operator_graph_candidates(dim_x: int, dim_y: int, bound: int = 2) -> tuple[LinearRelation, ...]:
    """Every single-valued relation Q^dim_x -> Q^dim_y whose graph is spanned
    by generators with entries in [-bound, bound], deduplicated canonically;
    built once per shape and bound.

    Graph dimension of an operator is at most dim_x, so spans of up to dim_x
    grid vectors cover all candidates.  Spans are told apart and tested for
    single-valuedness on their canonical rows, and only the operators become
    relations, on those rows as they are.  Gated to dim_x, dim_y <= 2 and
    bound <= 2: (2, 3) at bound 2 already has over half a million candidates.
    """
    if max(dim_x, dim_y, bound) > 2:
        raise ValueError("brute-force enumeration is gated to dim_x, dim_y <= 2 and bound <= 2")
    ambient = dim_x + dim_y
    grid = [e for e in iter_product(range(-bound, bound + 1), repeat=ambient) if any(e)]
    # each grid line once, as its primitive row with a positive lead, in the
    # order of the lines' reduced echelon forms
    lines = set(primitive_rows(grid, [next(j for j, x in enumerate(e) if x) for e in grid]))
    line_reps = sorted(lines, key=lambda row: fraction_rows([row])[0])
    spans: list[list[tuple[int, ...]]] = [[]]
    if dim_x >= 1:
        spans += ([rep] for rep in line_reps)
    if dim_x >= 2:
        spans += (list(pair) for pair in combinations(line_reps, 2))
    seen: dict[Rows, bool] = {}
    for rows in spans:
        gens, pivots = echelon_rows(rows, ambient)
        # single-valued: no basis vector (0, y), so every pivot lies in the x-block
        seen.setdefault(gens, not pivots or pivots[-1] < dim_x)
    return tuple(
        LinearRelation(dim_x, dim_y, Subspace._make(ambient, gens))
        for gens, single_valued in seen.items()
        if single_valued
    )


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _product_test(a: LinearRelation, b: LinearRelation, side: str) -> Optional[Callable[[Rows], bool]]:
    """The brute-force search's decision for one pair: a function of a
    candidate T, given by the canonical integer rows of its graph, that
    tells whether B∘T = A (``right``) or T∘B = A (``left``); None when B
    alone rules out every candidate.

    Only B∘T = A is laid out: inverting reverses composition, so T∘B = A
    exactly when B⁻¹∘T⁻¹ = A⁻¹.  The left side inverts A and B once.

    In (y, x, z) coordinates, T's rows (t_y, t_x, 0) and B's rows
    (−g_y, 0, g_z) span the stacked system R of ``oracle_product_membership``,
    and B∘T is its slice S = {(x, z) : (0, x, z) ∈ R}.  So dim S is rank R
    less the rank of R's y-parts, and S ⊆ A exactly when, over the rows h of
    A^⊥, the rows (y, h·(x, z)) of R have the same rank as their y-parts.
    B's canonical rows with g_y negated are still in echelon form, and each
    row t of T is reduced by them once per pair, on first use, to
    w′_t = (y′, x′, z′), zero on B's leads, and u′_t = (y′, h·(x′, z′)).
    B's rows and the w′_t then add their ranks, as do their y-parts, so

    * dim S = dim mul(B) + rank{w′_t} − rank{y′_t};
    * S ⊆ A exactly when rank{u′_t} = rank{y′_t}, once every h vanishes on
      the rows (0, g_z) of mul(B): if one does not, no candidate passes.

    B∘T = A then holds exactly when rank{u′_t} = rank{y′_t} and
    rank{w′_t} − rank{y′_t} = dim A − dim mul(B).  The grid gate leaves a
    candidate at most two rows, so each rank is a zero test or a
    ``_pair_rank``, and no elimination runs past the set-up, which on the
    right side runs none: A^⊥ and B's rows are read off canonical rows.
    """
    if side == "left":
        a, b = a.inverse(), b.inverse()
    n, m, k = a.dim_x, b.dim_x, a.dim_y
    perp = a.graph.ortho_generators()
    b_rows, b_leads = [], []
    for g, lead in zip(b.graph.rows, b.graph._leads()):
        if lead >= m and any(_dot(h[n:], g[m:]) for h in perp):
            return None
        b_rows.append([-v for v in g[:m]] + [0] * n + list(g[m:]))
        b_leads.append(lead if lead < m else lead + n)
    c = a.graph.dim - sum(lead >= m for lead in b_leads)
    pulled: dict[tuple[int, ...], tuple] = {}

    def pull(t: tuple[int, ...]) -> tuple:
        """Whether w′_t, y′_t and u′_t are nonzero, then w′_t, y′_t, u′_t."""
        # T's row (t_x, t_y) is laid out as (t_y, t_x, 0); on the left it is
        # T⁻¹'s row (t_y, t_x), laid out as (t_x, t_y, 0)
        row = list(t[n:] + t[:n] if side == "right" else t) + [0] * k
        w = _reduce(row, b_rows, b_leads)
        y = w[:m]
        u = y + [_dot(h, w[m:]) for h in perp]
        pulled[t] = entry = (any(w), any(y), any(u), w, y, u)
        return entry

    def admits(gens: Rows) -> bool:
        if len(gens) < c:  # rank{w′_t} − rank{y′_t} is at most the number of rows
            return False
        entries = [pulled.get(t) or pull(t) for t in gens]
        if not entries:  # so c = 0: B∘T = {0} × mul(B) ⊆ A, of A's dimension
            return True
        if len(entries) == 1:
            w_nz, y_nz, u_nz = entries[0][:3]
            return u_nz == y_nz and w_nz - y_nz == c
        w1, y1, u1 = entries[0][3:]
        w2, y2, u2 = entries[1][3:]
        rank_y = _pair_rank(y1, y2)
        return _pair_rank(u1, u2) == rank_y and _pair_rank(w1, w2) - rank_y == c

    return admits


def _pair_rank(a: Sequence[int], b: Sequence[int]) -> int:
    """The rank of two integer rows, as ``exact._eliminate`` counts it: with
    a zero, the other row's zero test; else b depends on a exactly when every
    2×2 minor a[p]·b[j] − b[p]·a[j] against a's lead p vanishes."""
    ap = next(filter(None, a), 0)
    if not ap:
        return 1 if any(b) else 0
    bp = b[a.index(ap)]  # a's first nonzero entry is its first entry equal to ap
    return 1 if [ap * y for y in b] == [bp * x for x in a] else 2


def _search(
    a: LinearRelation, b: LinearRelation, side: str, dims: tuple[int, int], bound: int
) -> Optional[LinearRelation]:
    # gated even when B rules all out
    candidates = operator_graph_candidates(*dims, require_int("bound", bound, 0))
    admits = _product_test(a, b, side)
    if admits is None:
        return None
    for t in candidates:
        if admits(t.graph.rows):
            if not factor.verify(a, b, t, side):
                raise RuntimeError(f"{side} brute-force witness passes elimination but not compose")
            return t
    return None


def brute_force_right_witness(
    a: LinearRelation, b: LinearRelation, bound: int = 2
) -> Optional[LinearRelation]:
    """The first candidate of the grid that is a single-valued T with B∘T = A.

    Definitional: each candidate is decided by block elimination of the
    stacked feasibility system (see ``_product_test``), and the one returned
    is re-verified by ``factor.verify``.
    """
    factor._require_shared_target(a, b)
    return _search(a, b, "right", (a.dim_x, b.dim_x), bound)


def brute_force_left_witness(
    a: LinearRelation, b: LinearRelation, bound: int = 2
) -> Optional[LinearRelation]:
    """The first candidate of the grid that is a single-valued T with T∘B = A.

    Decided and re-verified as in ``brute_force_right_witness``.
    """
    factor._require_shared_source(a, b)
    return _search(a, b, "left", (b.dim_y, a.dim_y), bound)


# ---------------------------------------------------------------------------
# Profile-targeted pair generation for the iff suites.

RIGHT_KINDS = ("satisfy", "violate_ran", "violate_mul_gain", "violate_mul_loss", "free")
LEFT_KINDS = ("satisfy", "violate_dom", "violate_ker", "violate_mul_dim", "free")


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
    for _ in range(500):
        nx = rng.randint(1, max_dim)
        ny = rng.randint(1, max_dim)
        nz = rng.randint(1, max_dim)
        b = random_mixed_relation(rng, ny, nz, bound)
        pb = profile(b)
        if kind == "free":
            return random_plain_relation(rng, nx, nz, bound), b
        base = compose(b, random_operator(rng, nx, ny, bound))
        if kind == "satisfy":
            return base, b
        if kind == "violate_ran":
            if pb.ran.dim == nz:
                continue
            z0 = _vector_in_gap(rng, Subspace.full(nz), pb.ran, bound)
            x0 = tuple(rng.randint(-bound, bound) for _ in range(nx))
            extra = LinearRelation.from_generators(nx, nz, [x0 + z0])
            return cw_sum(base, extra)[0], b
        if kind == "violate_mul_gain":
            if pb.ran.dim <= pb.mul.dim:
                continue
            z0 = _vector_in_gap(rng, pb.ran, pb.mul, bound)
            extra = LinearRelation.from_generators(nx, nz, [(0,) * nx + z0])
            return cw_sum(base, extra)[0], b
        if kind == "violate_mul_loss":
            if pb.mul.dim == 0:
                continue
            return base.reduce_operator_part(), b
    raise RuntimeError(f"failed to construct a right pair of kind {kind!r}")


def targeted_left_pair(
    rng: random.Random, kind: str, max_dim: int = 3, bound: int = 3
) -> tuple[LinearRelation, LinearRelation]:
    """(A, B) with A from X to Y and B from X to Z, steered toward ``kind``."""
    if kind not in LEFT_KINDS:
        raise ValueError(f"unknown pair kind {kind!r}")
    for _ in range(500):
        nx = rng.randint(1, max_dim)
        ny = rng.randint(1, max_dim)
        nz = rng.randint(1, max_dim)
        b = random_mixed_relation(rng, nx, nz, bound)
        pb = profile(b)
        if kind == "free":
            return random_plain_relation(rng, nx, ny, bound), b
        base = compose(random_operator(rng, nz, ny, bound), b)
        if kind == "satisfy":
            return base, b
        if kind == "violate_dom":
            if pb.dom.dim == nx:
                continue
            x0 = _vector_in_gap(rng, Subspace.full(nx), pb.dom, bound)
            y0 = tuple(rng.randint(-bound, bound) for _ in range(ny))
            extra = LinearRelation.from_generators(nx, ny, [x0 + y0])
            return cw_sum(base, extra)[0], b
        if kind == "violate_ker":
            if pb.ker.dim == 0 or pb.dom.dim > ny:
                continue
            # e_i ⊕ y_i joins basis vector i of dom(B) to the image y_i
            window, r = pb.dom.product(Subspace.full(ny)), pb.dom.dim
            images = random_full_rank(rng, ny, r, bound)
            gens = [window.point([int(j == i) for j in range(r)] + list(y)) for i, y in enumerate(images)]
            return LinearRelation.from_generators(nx, ny, gens), b
        if kind == "violate_mul_dim":
            if pb.mul.dim >= ny:
                continue
            extra = random_subspace(rng, ny, pb.mul.dim + 1, bound)
            return cw_sum(base, zero_times(nx, extra))[0], b
    raise RuntimeError(f"failed to construct a left pair of kind {kind!r}")


def random_square_pair(
    rng: random.Random, max_dim: int = 3, bound: int = 3
) -> tuple[LinearRelation, LinearRelation]:
    d = rng.randint(0, max_dim)
    return random_mixed_relation(rng, d, d, bound), random_mixed_relation(rng, d, d, bound)


# ---------------------------------------------------------------------------
# Named invariant suites.

@dataclass(frozen=True)
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
        lines = [
            f"suite={self.suite}",
            f"cases={self.cases}",
            f"passed={self.passed}",
            f"failed={self.failed}",
        ]
        if self.counterexample is not None:
            lines.append("counterexample:")
            lines += ["  " + l for l in self.counterexample.splitlines()]
        return "\n".join(lines) + "\n"


def _first_failure(checks: Iterable[tuple[str, bool]], *shown: LinearRelation,
                   kind: Optional[str] = None) -> Optional[str]:
    """The first failed check's label, with the pair's ``kind`` if given, over
    the text of the relations ``shown`` (headed A, B, C when there are
    several), or None.  Suites pass a generator, so no check after the first
    failed one is evaluated."""
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
    # regularly.  Reducing (y, 0, z) by the rows of A⁻¹ that lead in the
    # y-block leaves (0, -x, s·z) exactly when y is in ran(A): then (x, s·y)
    # lies in A, so (x, s·z) lies in B∘A.
    if b.graph.dim:
        w = b.graph.point([rng.randint(-2, 2) for _ in range(b.graph.dim)])
        v = w[:m] + (0,) * n + w[m:]
        inv = a.inverse().graph
        leads = [p for p in inv._leads() if p < m]
        v = _reduce(v, [row + (0,) * k for row in inv.rows[: len(leads)]], leads)
        if not any(v[:m]):
            probes.append((tuple(-c for c in v[m : m + n]), tuple(v[m + n :])))
    while len(probes) < 4:
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        probes.append((x, tuple(rng.randint(-3, 3) for _ in range(k))))

    def checks():
        ba = compose(b, a)
        for x, z in probes:
            yield f"probe x={x} z={z} disagrees", oracle_product_membership(a, b, x, z) == ba.membership(x, z)

    return _first_failure(checks(), a, b)


def _suite_graph_compose(rng: random.Random) -> Optional[str]:
    n, m, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
    ma = random_matrix(rng, m, n, 3)
    mb = random_matrix(rng, k, m, 3)
    lhs = compose(LinearRelation.graph_of_matrix(mb), LinearRelation.graph_of_matrix(ma))
    rhs = LinearRelation.graph_of_matrix(mb @ ma)
    if lhs != rhs:
        return f"graph composition mismatch for {ma!r} and {mb!r}"
    return None


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

    failure = _first_failure(checks(), rel)
    if failure is None:
        m = random_matrix(rng, d, d, 3)
        if LinearRelation.graph_of_matrix(m).adjoint() != LinearRelation.graph_of_matrix(m.transpose()):
            failure = f"adjoint of a matrix graph is not the transpose graph: {m!r}"
    return failure


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
        d = a.dim_x
        pa, pb = profile(a), profile(b)
        conditions = pa.mul.contains(pb.mul) and pb.ran.contains(pa.ran) and d - pa.dom.dim <= d - pb.dom.dim
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
    if (p.dom.dim, p.mul.dim, p.ker.dim) != (dd, dm, dd - rk):
        return f"profile {p.dom.dim, p.mul.dim, p.ker.dim} != requested {(dd, dm, dd - rk)}"
    return None


def _suite_determinism(rng: random.Random) -> Optional[str]:
    n = rng.randint(0, 5)
    m = rng.randint(0, 5)
    spec = RelationSpec(n, m, seed=rng.getrandbits(32))
    first = serialize_relation(random_relation(spec))
    second = serialize_relation(random_relation(spec))
    if first != second:
        return f"serialization differs for {spec!r}"
    return None


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
        rng = random.Random(derive_seed(seed, index))
        message = fn(rng)
        if message is None:
            passed += 1
        else:
            failed += 1
            if counterexample is None:
                counterexample = f"case {index}: {message}"
    return SuiteResult(name, total, passed, failed, counterexample)
