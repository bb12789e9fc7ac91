"""Factorization solvers: decide A = B∘T and A = T∘B and build witnesses.

Each solver evaluates a named set of necessary-and-sufficient conditions on
the profiles of A and B.  Only when every condition holds does ``_report``
build an explicit witness and re-verify it by exact composition; an
unsolvable answer composes nothing.  Every witness is read off A, B and
the relation-level candidate B⁻¹∘A (right) or A∘B⁻¹ (left), one stacked
product of rows that ``relation`` lays out, so no line here splits a row
into its blocks; the adjoint solvers hand A* and B* to the operator
builders as they are, so neither is profiled.  Reports never claim witness
uniqueness; ``verify`` is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .exact import text_rows
from .relation import LinearRelation, RelationProfile, _stacked_product, _swapped, compose, profile
from .subspace import Subspace

MUL_EQUAL = "mul_equal"
MUL_DIM_LE = "mul_dim_le"
DOM_PERP_DIM_LE = "dom_perp_dim_le"


@dataclass(frozen=True, slots=True)
class Condition:
    name: str
    held: bool
    evidence: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "held": self.held, "evidence": dict(sorted(self.evidence.items()))}


@dataclass(frozen=True, slots=True)
class FactorizationReport:
    side: str
    level: str
    conditions: tuple[Condition, ...]
    solvable: bool
    witness: Optional[LinearRelation]
    verified: bool
    notes: str

    def __post_init__(self) -> None:
        if self.solvable and (self.witness is None or not self.verified):
            raise ValueError("solvable report must carry a verified witness")
        if not self.solvable and all(c.held for c in self.conditions):
            raise ValueError("unsolvable report must name a failed condition")

    def failed_conditions(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.held)

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "dim_x": self.witness.dim_x,
                "dim_y": self.witness.dim_y,
                "generators": text_rows(self.witness.graph.rows),
            }
        return {
            "side": self.side,
            "level": self.level,
            "solvable": self.solvable,
            "verified": self.verified,
            "conditions": [c.to_json_dict() for c in self.conditions],
            "witness": witness,
            "notes": self.notes,
        }

    def to_text(self) -> str:
        """The facts of ``to_json_dict``, one per line, flags as yes/no."""
        facts = self.to_json_dict()
        lines = [f"side={facts['side']}", f"level={facts['level']}",
                 f"solvable={_yn(facts['solvable'])}", f"verified={_yn(facts['verified'])}"]
        for cond in facts["conditions"]:
            evidence = "".join(f" {k}={v}" for k, v in cond["evidence"].items())
            lines.append(f"condition {cond['name']} held={_yn(cond['held'])}{evidence}")
        witness = facts["witness"]
        if witness is not None:
            lines.append(f"witness dim_x={witness['dim_x']} dim_y={witness['dim_y']}")
            lines += [f"witness_generator {' '.join(row)}" for row in witness["generators"]]
        lines.append(f"notes: {facts['notes']}")
        return "\n".join(lines) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _require_shared_target(a: LinearRelation, b: LinearRelation) -> None:
    if a.dim_y != b.dim_y:
        raise ValueError(f"target dimensions differ: {a.dim_y} vs {b.dim_y}")


def _require_shared_source(a: LinearRelation, b: LinearRelation) -> None:
    if a.dim_x != b.dim_x:
        raise ValueError(f"source dimensions differ: {a.dim_x} vs {b.dim_x}")


def _report(side: str, level: str, conditions: tuple[Condition, ...],
            build: Callable[[], tuple[LinearRelation, bool]], notes: str) -> FactorizationReport:
    """The one report path: ``build`` (a witness and its exact check) runs
    only when every condition holds.  ``{verified}`` in ``notes`` is
    replaced by the check's yes/no."""
    solvable = all(c.held for c in conditions)
    witness, verified = build() if solvable else (None, False)
    return FactorizationReport(side, level, conditions, solvable, witness, verified,
                               notes.format(verified=_yn(verified)))


def _dims(part: str, pa: RelationProfile, pb: RelationProfile) -> dict[str, int]:
    return {f"dim_{part}_A": getattr(pa, part).dim, f"dim_{part}_B": getattr(pb, part).dim}


def _subset(part: str, pa: RelationProfile, pb: RelationProfile, *, a_inside_b: bool) -> Condition:
    """``part``_subset: part(A) ⊆ part(B) if ``a_inside_b``, else part(B) ⊆ part(A)."""
    sa, sb = getattr(pa, part), getattr(pb, part)
    held = sb.contains(sa) if a_inside_b else sa.contains(sb)
    return Condition(f"{part}_subset", held, _dims(part, pa, pb))


def _candidate(a: LinearRelation, b: LinearRelation, side: str) -> LinearRelation:
    """The relation-level candidate B⁻¹∘A for ``right`` or A∘B⁻¹ for
    ``left``, one ``_stacked_product`` each, so B is never inverted on its
    own.  B⁻¹∘A takes the swapped rows of A and of B, which span A⁻¹ and
    B⁻¹; A∘B⁻¹ takes B's rows, which span (B⁻¹)⁻¹, and A's rows."""
    n, m = a.dim_x, b.dim_x
    if side == "right":
        return _stacked_product(n, a.dim_y, m, _swapped(a.graph.rows, n), _swapped(b.graph.rows, m))
    return _stacked_product(b.dim_y, b.dim_x, a.dim_y, b.graph.rows, a.graph.rows)


def _right_operator_witness(a: LinearRelation, b: LinearRelation) -> tuple[LinearRelation, bool]:
    """The witness of ``solve_right_operator`` and whether it verifies:
    single-valued, dom(T) = dom(A) and B∘T = A exactly.  It is the operator
    part of B⁻¹∘A, Douglas's reduced solution: when mul(A) = mul(B),
    mul(B⁻¹∘A) is ker(B), so the part is B⁻¹∘A ∩ (X × ker(B)^⊥).  B∘T = A
    puts dom(A) inside dom(T), so equal dimensions make the domains equal."""
    witness = _candidate(a, b, "right").reduce_operator_part()
    dom, mul = witness.graph.split(witness.dim_x)
    a_dom = a.graph.split(a.dim_x)[0]
    return witness, not mul.dim and dom.dim == a_dom.dim and verify(a, b, witness, "right")


def _left_operator_witness(a: LinearRelation, b: LinearRelation) -> tuple[LinearRelation, bool]:
    """The witness of ``solve_left_operator`` and whether it verifies: a
    direct sum, single-valued and T∘B = A exactly.  It reads mul(A) and
    mul(B) off the canonical rows, and its core is the points of A∘B⁻¹
    annihilated by the rows of mul(B) × mul(A), that is, the candidate
    inside mul(B)^⊥ × mul(A)^⊥; needs dim mul(A) <= dim mul(B)."""
    p, m = b.dim_y, a.dim_y
    a_mul, b_mul = a.graph.split(a.dim_x)[1], b.graph.split(b.dim_x)[1]
    muls, k = b_mul.product(a_mul), b_mul.dim
    core = LinearRelation(p, m, _candidate(a, b, "left").graph._annihilated_by(muls.rows))
    # e_i ⊕ e_i joins basis vector i of mul(B) to basis vector i of mul(A)
    units = [[int(j in (i, k + i)) for j in range(muls.dim)] for i in range(a_mul.dim)]
    graph = Subspace.from_vectors(p + m, [*core.graph.rows, *map(muls.point, units)])
    witness = LinearRelation(p, m, graph)
    # the bridge points are independent, so the sum with the core is direct
    # exactly when the dimensions add up
    direct = graph.dim == core.graph.dim + a_mul.dim
    single_valued = not graph.split(p)[1].dim
    return witness, direct and single_valued and verify(a, b, witness, "left")


def solve_right_relation(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether C = B⁻¹∘A solves A = B∘X among relations."""
    _require_shared_target(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        _subset("ran", pa, pb, a_inside_b=True),
        _subset("mul", pa, pb, a_inside_b=False),
    )
    return _report("right", "relation", conditions,
                   lambda: (c := _candidate(a, b, "right"), verify(a, b, c, "right")),
                   "candidate C=B^-1*A; B*C equals A: {verified}")


def solve_right_operator(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether some single-valued T solves A = B∘T, and build one.

    The witness is the operator part of B⁻¹∘A, Douglas's reduced solution:
    mul(T) = {0}, dom(T) = dom(A) and ran(T) ⊆ ker(B)^⊥.
    """
    _require_shared_target(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        _subset("ran", pa, pb, a_inside_b=True),
        Condition(MUL_EQUAL, pa.mul == pb.mul, _dims("mul", pa, pb)),
    )
    # mul(B⁻¹∘A) = {w : (w, y) ∈ B for some y ∈ mul(A)}, which is {0} iff
    # ker(B) = 0 and mul(A) ∩ ran(B) ⊆ mul(B); mul(A) ⊆ mul(B) settles it
    # without the intersection
    joint_is_operator = pb.ker.dim == 0 and (
        pb.mul.contains(pa.mul) or pb.mul.contains(pa.mul.intersect(pb.ran))
    )
    joint_is_operator_solution = all(c.held for c in conditions) and pb.ker.dim == 0
    notes = (
        f"B^-1*A is itself an operator: {_yn(joint_is_operator)}; "
        f"it is the operator solution iff additionally ker(B)=0 "
        f"(dim ker(B)={pb.ker.dim}): {_yn(joint_is_operator_solution)}"
    )
    return _report("right", "operator", conditions, lambda: _right_operator_witness(a, b), notes)


def solve_left_relation(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether C = A∘B⁻¹ solves A = X∘B among relations."""
    _require_shared_source(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        _subset("dom", pa, pb, a_inside_b=True),
        _subset("ker", pa, pb, a_inside_b=False),
    )
    return _report("left", "relation", conditions,
                   lambda: (c := _candidate(a, b, "left"), verify(a, b, c, "left")),
                   "candidate C=A*B^-1; C*B equals A: {verified}")


def solve_left_operator(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether some single-valued T solves A = T∘B, and build one.

    The witness is the direct sum of the single-valued part of A∘B⁻¹ between
    the orthocomplements of the multivalued parts, and the canonical-basis map
    from the leading dim mul(A) basis vectors of mul(B) onto mul(A).
    """
    _require_shared_source(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        _subset("dom", pa, pb, a_inside_b=True),
        _subset("ker", pa, pb, a_inside_b=False),
        Condition(MUL_DIM_LE, pa.mul.dim <= pb.mul.dim, _dims("mul", pa, pb)),
    )
    joint_is_operator_solution = all(c.held for c in conditions) and pa.mul.dim == 0
    notes = (
        "a surjection from a subspace of mul(B) onto mul(A) exists iff "
        f"dim mul(A) <= dim mul(B); A*B^-1 is itself the operator witness iff "
        f"additionally mul(A)=0 (dim mul(A)={pa.mul.dim}): {_yn(joint_is_operator_solution)}"
    )
    return _report("left", "operator", conditions, lambda: _left_operator_witness(a, b), notes)


def solve_adjoint_right(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether some single-valued T solves A* = B*∘T.

    A* and B* share a target exactly when A and B share a source.
    Conditions are evaluated directly on A and B: ker(B) ⊆ ker(A) is range
    inclusion of the adjoints, and dom(A) = dom(B) is equality of their
    multivalued parts (closures are identities in finite dimension).  The
    witness is ``solve_right_operator``'s on (A*, B*).
    """
    _require_shared_source(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        _subset("ker", pa, pb, a_inside_b=False),
        Condition(MUL_EQUAL, pa.dom == pb.dom, _dims("dom", pa, pb)),
    )
    notes = (
        "conditions on the adjoint pair: ran(A*) within ran(B*) is ker(B) within ker(A); "
        "mul(A*)=mul(B*) is dom(A)=dom(B); closures are identities in finite dimension"
    )
    return _report("right", "adjoint", conditions,
                   lambda: _right_operator_witness(a.adjoint(), b.adjoint()), notes)


def solve_adjoint_left(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether some single-valued T solves A* = T∘B*.

    A* and B* share a source exactly when A and B share a target.
    Conditions on A and B: mul(B) ⊆ mul(A) is domain inclusion of the
    adjoints, ran(A) ⊆ ran(B) is kernel inclusion of the adjoints, and
    dim dom(A)^⊥ ≤ dim dom(B)^⊥, each within its own source, is the
    multivalued dimension bound of the adjoints (closures are identities in
    finite dimension).  The witness is ``solve_left_operator``'s on (A*, B*).
    """
    _require_shared_target(a, b)
    pa, pb = profile(a), profile(b)
    perp_a, perp_b = a.dim_x - pa.dom.dim, b.dim_x - pb.dom.dim
    conditions = (
        _subset("mul", pa, pb, a_inside_b=False),
        _subset("ran", pa, pb, a_inside_b=True),
        Condition(DOM_PERP_DIM_LE, perp_a <= perp_b,
                  {"dim_dom_perp_A": perp_a, "dim_dom_perp_B": perp_b}),
    )
    notes = (
        "conditions on the adjoint pair: dom(A*) within dom(B*) is mul(B) within mul(A); "
        "ker(B*) within ker(A*) is ran(A) within ran(B); dim mul(A*) <= dim mul(B*) is "
        "dim dom(A)-perp <= dim dom(B)-perp; closures are identities in finite dimension"
    )
    return _report("left", "adjoint", conditions,
                   lambda: _left_operator_witness(a.adjoint(), b.adjoint()), notes)


def verify(a: LinearRelation, b: LinearRelation, t: LinearRelation, side: str) -> bool:
    """Exact witness check: B∘T = A for ``right``, T∘B = A for ``left``."""
    if side == "right":
        if t.dim_x != a.dim_x or t.dim_y != b.dim_x or b.dim_y != a.dim_y:
            raise ValueError("dimension mismatch for right-side verification")
        return compose(b, t) == a
    if side == "left":
        if t.dim_x != b.dim_y or t.dim_y != a.dim_y or b.dim_x != a.dim_x:
            raise ValueError("dimension mismatch for left-side verification")
        return compose(t, b) == a
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
