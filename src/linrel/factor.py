"""Factorization solvers: decide A = B∘T and A = T∘B and build witnesses.

Each solver evaluates a named set of necessary-and-sufficient conditions,
constructs an explicit witness when they hold, and re-verifies the witness by
exact composition.  Reports never claim witness uniqueness; ``verify`` is the
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .files import generator_rows
from .relation import LinearRelation, RelationProfile, compose, cw_sum, profile

RAN_SUBSET = "ran_subset"
MUL_SUBSET = "mul_subset"
MUL_EQUAL = "mul_equal"
DOM_SUBSET = "dom_subset"
KER_SUBSET = "ker_subset"
MUL_DIM_LE = "mul_dim_le"
DOM_PERP_DIM_LE = "dom_perp_dim_le"


@dataclass(frozen=True)
class Condition:
    name: str
    held: bool
    evidence: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "held": self.held, "evidence": dict(sorted(self.evidence.items()))}


@dataclass(frozen=True)
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
                "generators": generator_rows(self.witness),
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
        lines = [
            f"side={self.side}",
            f"level={self.level}",
            f"solvable={_yn(self.solvable)}",
            f"verified={_yn(self.verified)}",
        ]
        for cond in self.conditions:
            evidence = " ".join(f"{k}={v}" for k, v in sorted(cond.evidence.items()))
            lines.append(f"condition {cond.name} held={_yn(cond.held)}" + (f" {evidence}" if evidence else ""))
        if self.witness is not None:
            lines.append(f"witness dim_x={self.witness.dim_x} dim_y={self.witness.dim_y}")
            lines += [f"witness_generator {' '.join(row)}" for row in generator_rows(self.witness)]
        lines.append(f"notes: {self.notes}")
        return "\n".join(lines) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _require_shared_target(a: LinearRelation, b: LinearRelation) -> None:
    if a.dim_y != b.dim_y:
        raise ValueError(f"target dimensions differ: {a.dim_y} vs {b.dim_y}")


def _require_shared_source(a: LinearRelation, b: LinearRelation) -> None:
    if a.dim_x != b.dim_x:
        raise ValueError(f"source dimensions differ: {a.dim_x} vs {b.dim_x}")


def _require_square_pair(a: LinearRelation, b: LinearRelation) -> None:
    if a.dim_x != a.dim_y or b.dim_x != b.dim_y:
        raise ValueError("adjoint-level factorization requires square relations")
    if a.dim_x != b.dim_x:
        raise ValueError(f"space dimensions differ: {a.dim_x} vs {b.dim_x}")


def _right_operator_witness(
    a: LinearRelation, b: LinearRelation, pa: RelationProfile
) -> tuple[LinearRelation, bool]:
    """The witness of ``solve_right_operator`` and whether it verifies:
    single-valued, dom(T) = dom(A) and B∘T = A exactly.  ``pa`` is A's
    profile."""
    selection = b.inverse().reduce_operator_part()
    witness = compose(selection, a.reduce_operator_part())
    pw = profile(witness)
    return witness, pw.is_operator and pw.dom == pa.dom and compose(b, witness) == a


def _left_operator_witness(
    a: LinearRelation, b: LinearRelation, pa: RelationProfile, pb: RelationProfile
) -> tuple[LinearRelation, bool]:
    """The witness of ``solve_left_operator`` and whether it verifies: a
    direct sum, single-valued and T∘B = A exactly.  ``pa`` and ``pb`` are
    the profiles of A and B; needs dim mul(A) <= dim mul(B)."""
    p, m = b.dim_y, a.dim_y
    window = pb.mul.ortho_complement().product(pa.mul.ortho_complement())
    base = compose(a, b.inverse())
    core = LinearRelation(p, m, base.graph.intersect(window))
    bridge_gens = [pb.mul.basis.col(i) + pa.mul.basis.col(i) for i in range(pa.mul.dim)]
    bridge = LinearRelation.from_generators(p, m, bridge_gens)
    witness, direct = cw_sum(core, bridge)
    return witness, direct and profile(witness).is_operator and compose(witness, b) == a


def solve_right_relation(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether C = B⁻¹∘A solves A = B∘X among relations."""
    _require_shared_target(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        Condition(RAN_SUBSET, pb.ran.contains(pa.ran),
                  {"dim_ran_A": pa.ran.dim, "dim_ran_B": pb.ran.dim}),
        Condition(MUL_SUBSET, pa.mul.contains(pb.mul),
                  {"dim_mul_A": pa.mul.dim, "dim_mul_B": pb.mul.dim}),
    )
    candidate = compose(b.inverse(), a)
    closes = compose(b, candidate) == a
    solvable = all(c.held for c in conditions)
    notes = f"candidate C=B^-1*A; B*C equals A: {_yn(closes)}"
    return FactorizationReport(
        side="right",
        level="relation",
        conditions=conditions,
        solvable=solvable,
        witness=candidate if solvable else None,
        verified=closes if solvable else False,
        notes=notes,
    )


def solve_right_operator(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether some single-valued T solves A = B∘T, and build one.

    The witness is B⁻¹ restricted to outputs in ker(B)^⊥, composed with the
    single-valued part of A; it satisfies mul(T) = {0} and dom(T) = dom(A).
    """
    _require_shared_target(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        Condition(RAN_SUBSET, pb.ran.contains(pa.ran),
                  {"dim_ran_A": pa.ran.dim, "dim_ran_B": pb.ran.dim}),
        Condition(MUL_EQUAL, pa.mul == pb.mul,
                  {"dim_mul_A": pa.mul.dim, "dim_mul_B": pb.mul.dim}),
    )
    solvable = all(c.held for c in conditions)
    witness, verified = _right_operator_witness(a, b, pa) if solvable else (None, False)
    joint = compose(b.inverse(), a)
    joint_is_operator = profile(joint).is_operator
    joint_is_operator_solution = solvable and pb.ker.dim == 0
    notes = (
        f"B^-1*A is itself an operator: {_yn(joint_is_operator)}; "
        f"it is the operator solution iff additionally ker(B)=0 "
        f"(dim ker(B)={pb.ker.dim}): {_yn(joint_is_operator_solution)}"
    )
    return FactorizationReport(
        side="right",
        level="operator",
        conditions=conditions,
        solvable=solvable,
        witness=witness,
        verified=verified,
        notes=notes,
    )


def solve_left_relation(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether C = A∘B⁻¹ solves A = X∘B among relations."""
    _require_shared_source(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        Condition(DOM_SUBSET, pb.dom.contains(pa.dom),
                  {"dim_dom_A": pa.dom.dim, "dim_dom_B": pb.dom.dim}),
        Condition(KER_SUBSET, pa.ker.contains(pb.ker),
                  {"dim_ker_A": pa.ker.dim, "dim_ker_B": pb.ker.dim}),
    )
    candidate = compose(a, b.inverse())
    closes = compose(candidate, b) == a
    solvable = all(c.held for c in conditions)
    notes = f"candidate C=A*B^-1; C*B equals A: {_yn(closes)}"
    return FactorizationReport(
        side="left",
        level="relation",
        conditions=conditions,
        solvable=solvable,
        witness=candidate if solvable else None,
        verified=closes if solvable else False,
        notes=notes,
    )


def solve_left_operator(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether some single-valued T solves A = T∘B, and build one.

    The witness is the direct sum of the single-valued part of A∘B⁻¹ between
    the orthocomplements of the multivalued parts, and the canonical-basis map
    from the leading dim mul(A) basis vectors of mul(B) onto mul(A).
    """
    _require_shared_source(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        Condition(DOM_SUBSET, pb.dom.contains(pa.dom),
                  {"dim_dom_A": pa.dom.dim, "dim_dom_B": pb.dom.dim}),
        Condition(KER_SUBSET, pa.ker.contains(pb.ker),
                  {"dim_ker_A": pa.ker.dim, "dim_ker_B": pb.ker.dim}),
        Condition(MUL_DIM_LE, pa.mul.dim <= pb.mul.dim,
                  {"dim_mul_A": pa.mul.dim, "dim_mul_B": pb.mul.dim}),
    )
    solvable = all(c.held for c in conditions)
    witness, verified = _left_operator_witness(a, b, pa, pb) if solvable else (None, False)
    joint_is_operator_solution = solvable and pa.mul.dim == 0
    notes = (
        "a surjection from a subspace of mul(B) onto mul(A) exists iff "
        f"dim mul(A) <= dim mul(B); A*B^-1 is itself the operator witness iff "
        f"additionally mul(A)=0 (dim mul(A)={pa.mul.dim}): {_yn(joint_is_operator_solution)}"
    )
    return FactorizationReport(
        side="left",
        level="operator",
        conditions=conditions,
        solvable=solvable,
        witness=witness,
        verified=verified,
        notes=notes,
    )


def solve_adjoint_right(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether some single-valued T solves A* = B*∘T.

    Conditions are evaluated directly on A and B: ker(B) ⊆ ker(A) is range
    inclusion of the adjoints, and dom(A) = dom(B) is equality of their
    multivalued parts (closures are identities in finite dimension).  The
    witness is constructed on the adjoint pair.
    """
    _require_square_pair(a, b)
    pa, pb = profile(a), profile(b)
    conditions = (
        Condition(KER_SUBSET, pa.ker.contains(pb.ker),
                  {"dim_ker_A": pa.ker.dim, "dim_ker_B": pb.ker.dim}),
        Condition(MUL_EQUAL, pa.dom == pb.dom,
                  {"dim_dom_A": pa.dom.dim, "dim_dom_B": pb.dom.dim}),
    )
    solvable = all(c.held for c in conditions)
    witness, verified = None, False
    if solvable:
        a_adj = a.adjoint()
        witness, verified = _right_operator_witness(a_adj, b.adjoint(), profile(a_adj))
    notes = (
        "conditions on the adjoint pair: ran(A*) within ran(B*) is ker(B) within ker(A); "
        "mul(A*)=mul(B*) is dom(A)=dom(B); closures are identities in finite dimension"
    )
    return FactorizationReport(
        side="right",
        level="adjoint",
        conditions=conditions,
        solvable=solvable,
        witness=witness,
        verified=verified,
        notes=notes,
    )


def solve_adjoint_left(a: LinearRelation, b: LinearRelation) -> FactorizationReport:
    """Decide whether some single-valued T solves A* = T∘B*.

    Conditions on A and B: mul(B) ⊆ mul(A) is domain inclusion of the
    adjoints, ran(A) ⊆ ran(B) is kernel inclusion of the adjoints, and
    dim dom(A)^⊥ ≤ dim dom(B)^⊥ is the multivalued dimension bound of the
    adjoints (closures are identities in finite dimension).
    """
    _require_square_pair(a, b)
    d = a.dim_x
    pa, pb = profile(a), profile(b)
    conditions = (
        Condition(MUL_SUBSET, pa.mul.contains(pb.mul),
                  {"dim_mul_A": pa.mul.dim, "dim_mul_B": pb.mul.dim}),
        Condition(RAN_SUBSET, pb.ran.contains(pa.ran),
                  {"dim_ran_A": pa.ran.dim, "dim_ran_B": pb.ran.dim}),
        Condition(DOM_PERP_DIM_LE, d - pa.dom.dim <= d - pb.dom.dim,
                  {"dim_dom_perp_A": d - pa.dom.dim, "dim_dom_perp_B": d - pb.dom.dim}),
    )
    solvable = all(c.held for c in conditions)
    witness, verified = None, False
    if solvable:
        a_adj, b_adj = a.adjoint(), b.adjoint()
        witness, verified = _left_operator_witness(a_adj, b_adj, profile(a_adj), profile(b_adj))
    notes = (
        "conditions on the adjoint pair: dom(A*) within dom(B*) is mul(B) within mul(A); "
        "ker(B*) within ker(A*) is ran(A) within ran(B); dim mul(A*) <= dim mul(B*) is "
        "dim dom(A)-perp <= dim dom(B)-perp; closures are identities in finite dimension"
    )
    return FactorizationReport(
        side="left",
        level="adjoint",
        conditions=conditions,
        solvable=solvable,
        witness=witness,
        verified=verified,
        notes=notes,
    )


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
