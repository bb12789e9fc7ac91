import dataclasses
import json
import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from linrel import (
    LinearRelation,
    Subspace,
    compose,
    cw_sum,
    profile,
    solve_adjoint_left,
    solve_adjoint_right,
    solve_left_operator,
    solve_left_relation,
    solve_right_operator,
    solve_right_relation,
    verify,
    zero_times,
)
from linrel import exact, factor, harness
from linrel.factor import Condition, FactorizationReport
from linrel.files import serialize_relation

from strategies import (
    graph,
    relations,
    shared_source_pairs,
    shared_target_pairs,
    square_relation_pairs,
    subspaces,
)


IDENT2 = LinearRelation.identity(2)
IDENT1 = LinearRelation.identity(1)
PROJ = graph([[1, 0], [0, 0]])          # diag(1, 0)
SCALED = graph([[3, 0], [0, 0]])        # ran span{e1}
SHIFT_RAN = graph([[0, 0], [1, 0]])     # ran span{e2}
FULL1 = LinearRelation.full_relation(1, 1)
MUL_ONLY1 = zero_times(1, Subspace.full(1))   # {0} x Q^1


class TestSolveRightRelation:
    def test_identity_pair(self):
        report = solve_right_relation(IDENT2, IDENT2)
        assert report.solvable and report.verified
        assert report.witness == IDENT2

    def test_scaled_projection(self):
        report = solve_right_relation(SCALED, PROJ)
        assert report.solvable and report.verified
        assert compose(PROJ, report.witness) == SCALED

    def test_range_violation(self):
        report = solve_right_relation(SHIFT_RAN, PROJ)
        assert not report.solvable
        assert "ran_subset" in report.failed_conditions()
        assert report.witness is None
        assert "B*C equals A: no" in report.notes

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_right_relation(IDENT1, IDENT2)


class TestSolveRightOperator:
    def test_worked_pair(self):
        report = solve_right_operator(SCALED, PROJ)
        assert report.solvable and report.verified
        pw = profile(report.witness)
        assert pw.is_operator
        assert pw.dom == Subspace.full(2)
        assert compose(PROJ, report.witness) == SCALED

    def test_mul_mismatch_blocks_operator_level(self):
        report = solve_right_operator(FULL1, IDENT1)
        assert not report.solvable
        assert report.failed_conditions() == ("mul_equal",)
        # relation level is still solvable for the same pair
        assert solve_right_relation(FULL1, IDENT1).solvable

    def test_self_pair(self):
        report = solve_right_operator(PROJ, PROJ)
        assert report.solvable and report.verified
        assert compose(PROJ, report.witness) == PROJ

    def test_note_mentions_kernel_criterion(self):
        report = solve_right_operator(SCALED, PROJ)
        assert "ker(B)=0" in report.notes
        assert "dim ker(B)=1" in report.notes

    @pytest.mark.parametrize("adjoint", [False, True], ids=["operator", "adjoint"])
    def test_witness_is_the_reduced_solution(self, adjoint):
        """The witness T of A = B∘T is Douglas's reduced solution:
        single-valued, with dom(T) = dom(A) and ran(T) ⊆ ker(B)^⊥.  At
        adjoint level T solves A* = B*∘T, so the facts hold on A* and B*."""
        rng = random.Random(2201)
        found = 0
        while found < 200:
            a, b = harness.targeted_right_pair(rng, rng.choice(harness.RIGHT_KINDS), max_dim=4)
            if adjoint:
                a, b = a.adjoint(), b.adjoint()
                report = solve_adjoint_right(a, b)
                a, b = a.adjoint(), b.adjoint()
            else:
                report = solve_right_operator(a, b)
            if not report.solvable:
                continue
            found += 1
            pt = profile(report.witness)
            shown = (serialize_relation(a), serialize_relation(b))
            assert pt.mul.dim == 0, shown
            assert pt.dom == profile(a).dom, shown
            assert profile(b).ker.ortho_complement().contains(pt.ran), shown

    def test_witness_domain_must_be_that_of_a(self):
        """B∘I = A for A = B = span{(1, 0, 1)} from Q^2 to Q^1, but dom(I) = Q^2
        is larger than dom(A), so a witness built from I must be refused."""
        a = LinearRelation.from_generators(2, 1, [(1, 0, 1)])
        assert verify(a, a, IDENT2, "right")
        with mock.patch.object(factor, "_candidate", return_value=IDENT2):
            with pytest.raises(ValueError, match="solvable report must carry a verified witness"):
                solve_right_operator(a, a)


class TestSolveLeftRelation:
    def test_identity_pair(self):
        report = solve_left_relation(IDENT2, IDENT2)
        assert report.solvable and report.verified and report.witness == IDENT2

    def test_invertible_b(self):
        a = graph([[0, 0], [0, 1]])
        report = solve_left_relation(a, IDENT2)
        assert report.solvable and report.verified
        assert report.witness == a

    def test_kernel_violation(self):
        report = solve_left_relation(IDENT2, PROJ)
        assert not report.solvable
        assert report.failed_conditions() == ("ker_subset",)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_left_relation(IDENT1, IDENT2)


class TestSolveLeftOperator:
    def test_operator_pair(self):
        report = solve_left_operator(PROJ, IDENT2)
        assert report.solvable and report.verified
        assert compose(report.witness, IDENT2) == PROJ

    def test_mul_dimension_violation(self):
        report = solve_left_operator(FULL1, IDENT1)
        assert not report.solvable
        assert report.failed_conditions() == ("mul_dim_le",)

    def test_mul_bridge_witness(self):
        report = solve_left_operator(MUL_ONLY1, MUL_ONLY1)
        assert report.solvable and report.verified
        pw = profile(report.witness)
        assert pw.is_operator
        assert compose(report.witness, MUL_ONLY1) == MUL_ONLY1

    def test_notes_record_dimension_reduction(self):
        report = solve_left_operator(PROJ, IDENT2)
        assert "dim mul(A) <= dim mul(B)" in report.notes


# {0} × span{e1} from Q^1 to Q^2: A = T∘B for T = e1 ↦ e1, whose graph is
# the one bridge point (e1, e1)
MUL_E1 = zero_times(1, Subspace.from_vectors(2, [(1, 0)]))


class TestLeftOperatorWitnessChecks:
    """Each of the witness's three checks fails alone, and a solvable report
    without a verified witness is refused."""

    def test_sum_not_direct(self, monkeypatch):
        # the core lies in mul(B)^⊥ × mul(A)^⊥ and the bridge in mul(B) ×
        # mul(A), so only a core left uncut can hold the bridge point: the
        # graph is the bridge line, single-valued and a true solution
        bridge = LinearRelation.from_generators(2, 2, [(1, 0, 1, 0)])
        monkeypatch.setattr(factor, "_candidate", lambda a, b, side: bridge)
        monkeypatch.setattr(Subspace, "_annihilated_by", lambda self, rows: self)
        with pytest.raises(ValueError, match="verified witness"):
            solve_left_operator(MUL_E1, MUL_E1)

    def test_not_single_valued(self, monkeypatch):
        # a core holding (0, e2) makes the witness multivalued; the sum
        # with the bridge stays direct
        extra = LinearRelation.from_generators(2, 2, [(0, 0, 0, 1)])
        monkeypatch.setattr(factor, "_candidate", lambda a, b, side: extra)
        monkeypatch.setattr(factor, "verify", lambda a, b, t, side: True)
        with pytest.raises(ValueError, match="verified witness"):
            solve_left_operator(MUL_E1, MUL_E1)

    def test_product_differs_from_a(self, monkeypatch):
        monkeypatch.setattr(factor, "verify", lambda a, b, t, side: False)
        with pytest.raises(ValueError, match="verified witness"):
            solve_left_operator(MUL_E1, MUL_E1)


def test_left_relation_solve_is_the_right_one_on_inverses():
    """T∘B = A exactly when B⁻¹∘T⁻¹ = A⁻¹, and dom and ker of a relation are
    ran and mul of its inverse: both solvers decide alike, condition by
    condition, and the left witness A∘B⁻¹ inverts the right one B∘A⁻¹."""
    rng = random.Random(20261019)
    for index in range(1000):
        a, b = harness.targeted_left_pair(rng, harness.LEFT_KINDS[index % 5], max_dim=4)
        left = solve_left_relation(a, b)
        right = solve_right_relation(a.inverse(), b.inverse())
        assert [c.name for c in left.conditions] == ["dom_subset", "ker_subset"]
        assert [c.name for c in right.conditions] == ["ran_subset", "mul_subset"]
        facts = [[(c.held, list(c.evidence.values())) for c in r.conditions] for r in (left, right)]
        assert facts[0] == facts[1], (a, b)
        assert left.solvable == right.solvable
        if left.solvable:
            assert left.witness == right.witness.inverse()


class TestSolveAdjointRight:
    def test_symmetric_self_pair(self):
        a = graph([[1, 2], [2, 0]])
        report = solve_adjoint_right(a, a)
        assert report.solvable and report.verified

    def test_kernel_violation(self):
        report = solve_adjoint_right(IDENT2, PROJ)
        assert not report.solvable
        assert "ker_subset" in report.failed_conditions()

    def test_projection_against_identity(self):
        report = solve_adjoint_right(PROJ, IDENT2)
        assert report.solvable and report.verified
        assert compose(IDENT2.adjoint(), report.witness) == PROJ.adjoint()

    def test_requires_shared_source(self):
        # B* and A* share a target, the source of B and A
        with pytest.raises(ValueError, match="source dimensions differ: 1 vs 2"):
            solve_adjoint_right(LinearRelation.zero_relation(1, 2), IDENT2)
        with pytest.raises(ValueError, match="source dimensions differ: 1 vs 2"):
            solve_adjoint_right(IDENT1, IDENT2)
        row = graph([[1, 2]])  # from Q^2 to Q^1
        report = solve_adjoint_right(row, IDENT2)
        assert report.solvable and (report.witness.dim_x, report.witness.dim_y) == (1, 2)
        assert compose(IDENT2.adjoint(), report.witness) == row.adjoint()


class TestSolveAdjointLeft:
    def test_self_pair(self):
        report = solve_adjoint_left(PROJ, PROJ)
        assert report.solvable and report.verified

    def test_range_violation(self):
        report = solve_adjoint_left(IDENT2, PROJ)
        assert not report.solvable
        assert "ran_subset" in report.failed_conditions()

    def test_dom_perp_dimension_violation(self):
        report = solve_adjoint_left(MUL_ONLY1, IDENT1)
        assert not report.solvable
        assert report.failed_conditions() == ("dom_perp_dim_le",)

    def test_notes_mention_closures(self):
        report = solve_adjoint_left(PROJ, PROJ)
        assert "closures are identities in finite dimension" in report.notes

    def test_requires_shared_target(self):
        # B* and A* share a source, the target of B and A
        with pytest.raises(ValueError, match="target dimensions differ: 1 vs 2"):
            solve_adjoint_left(LinearRelation.zero_relation(2, 1), IDENT2)
        with pytest.raises(ValueError, match="target dimensions differ: 1 vs 2"):
            solve_adjoint_left(IDENT1, IDENT2)
        column = graph([[1], [2]])  # from Q^1 to Q^2
        report = solve_adjoint_left(column, IDENT2)
        assert report.solvable and (report.witness.dim_x, report.witness.dim_y) == (2, 1)
        assert compose(report.witness, IDENT2.adjoint()) == column.adjoint()


class TestVerify:
    def test_identity_triple(self):
        assert verify(IDENT2, IDENT2, IDENT2, "right")
        assert verify(IDENT2, IDENT2, IDENT2, "left")

    def test_worked_triple(self):
        assert verify(SCALED, PROJ, SCALED, "right")

    def test_wrong_product(self):
        assert not verify(IDENT2, PROJ, SCALED, "right")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            verify(IDENT2, IDENT2, IDENT2, "up")

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            verify(IDENT2, IDENT2, IDENT1, "right")
        with pytest.raises(ValueError):
            verify(IDENT2, IDENT2, IDENT1, "left")

    @pytest.mark.parametrize("side, b, t", [
        ("right", IDENT2, LinearRelation.zero_relation(1, 2)),
        ("right", IDENT2, LinearRelation.zero_relation(2, 1)),
        ("right", LinearRelation.zero_relation(2, 1), IDENT2),
        ("left", IDENT2, LinearRelation.zero_relation(1, 2)),
        ("left", IDENT2, LinearRelation.zero_relation(2, 1)),
        ("left", LinearRelation.zero_relation(1, 2), IDENT2),
    ], ids=["right-t.dim_x", "right-t.dim_y", "right-b.dim_y",
            "left-t.dim_x", "left-t.dim_y", "left-b.dim_x"])
    def test_each_dimension_check_alone(self, side, b, t):
        # one of the three comparisons fails at a time; the message tells the
        # guard from compose's own interface check
        with pytest.raises(ValueError, match=f"dimension mismatch for {side}-side verification"):
            verify(IDENT2, b, t, side)


class TestReports:
    def test_text_layout(self):
        text = solve_right_operator(SCALED, PROJ).to_text()
        lines = text.splitlines()
        assert lines[0] == "side=right"
        assert lines[1] == "level=operator"
        assert "solvable=yes" in lines
        assert any(l.startswith("condition ran_subset held=yes") for l in lines)
        assert any(l.startswith("witness_generator ") for l in lines)

    def test_json_round_trip(self):
        payload = solve_left_operator(PROJ, IDENT2).to_json_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["side"] == "left"
        assert parsed["level"] == "operator"
        assert parsed["solvable"] is True
        assert {c["name"] for c in parsed["conditions"]} == {
            "dom_subset",
            "ker_subset",
            "mul_dim_le",
        }
        assert parsed["witness"]["dim_x"] == 2

    def test_invariant_enforcement(self):
        good = Condition("ran_subset", True, {})
        bad = Condition("ran_subset", False, {})
        with pytest.raises(ValueError):
            FactorizationReport("right", "relation", (good,), True, None, False, "")
        with pytest.raises(ValueError):
            FactorizationReport("right", "relation", (good,), False, None, False, "")
        FactorizationReport("right", "relation", (bad,), False, None, False, "")

    def test_report_and_its_conditions_are_frozen(self):
        report = solve_right_operator(SCALED, PROJ)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.solvable = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.conditions[0].held = False

    @pytest.mark.parametrize("witness, verified", [(None, True), (IDENT1, False)],
                             ids=["no-witness", "unverified"])
    def test_solvable_needs_both_witness_and_verification(self, witness, verified):
        good = Condition("ran_subset", True, {})
        with pytest.raises(ValueError, match="verified witness"):
            FactorizationReport("right", "relation", (good,), True, witness, verified, "")


class TestAdjointConsistency:
    @given(square_relation_pairs())
    def test_translation_matches_direct_solve(self, pair):
        a, b = pair
        right = solve_adjoint_right(a, b)
        assert right.solvable == solve_right_operator(a.adjoint(), b.adjoint()).solvable
        left = solve_adjoint_left(a, b)
        assert left.solvable == solve_left_operator(a.adjoint(), b.adjoint()).solvable

    @given(shared_source_pairs())
    def test_right_translation_matches_direct_solve_between_spaces(self, pair):
        a, b = pair
        right = solve_adjoint_right(a, b)
        assert right.solvable == solve_right_operator(a.adjoint(), b.adjoint()).solvable

    @given(shared_target_pairs())
    def test_left_translation_matches_direct_solve_between_spaces(self, pair):
        a, b = pair
        left = solve_adjoint_left(a, b)
        assert left.solvable == solve_left_operator(a.adjoint(), b.adjoint()).solvable

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_brute_force_confirms_unsolvable_pairs_between_spaces(self, side):
        """Adjoint pairs (A, B) with a side that is not square, taken as the
        adjoints of targeted pairs at dims <= 2 and kept where the adjoint
        solver answers no: the grid holds no T with A* = B*∘T (right) or
        A* = T∘B* (left)."""
        if side == "right":
            sampler, kinds, solver = harness.targeted_right_pair, harness.RIGHT_KINDS, solve_adjoint_right
            search = harness.brute_force_right_witness
        else:
            sampler, kinds, solver = harness.targeted_left_pair, harness.LEFT_KINDS, solve_adjoint_left
            search = harness.brute_force_left_witness
        rng = random.Random(2107)
        confirmed = 0
        while confirmed < 20:
            a, b = (rel.adjoint() for rel in sampler(rng, rng.choice(kinds), max_dim=2, bound=2))
            if (a.dim_x, b.dim_x) == (a.dim_y, b.dim_y) or solver(a, b).solvable:
                continue
            shown = (serialize_relation(a), serialize_relation(b))
            assert search(a.adjoint(), b.adjoint(), bound=2) is None, shown
            confirmed += 1

    @pytest.mark.parametrize("solver", [solve_adjoint_right, solve_adjoint_left])
    def test_witness_reads_the_profiles_of_a_and_b_only(self, solver):
        """A solvable adjoint solve profiles A and B for its conditions and
        hands A* and B* to the operator witness builder, which reads what it
        needs off their rows: it profiles neither A* nor B*."""
        rng = random.Random(17)
        for _ in range(20):
            d = rng.randint(1, 4)
            b = harness.random_mixed_relation(rng, d, d, 3)
            t = harness._draw_operator(rng, d, d, 3)()
            outer, inner = (b.adjoint(), t) if solver is solve_adjoint_right else (t, b.adjoint())
            a = compose(outer, inner).adjoint()
            with mock.patch.object(factor, "profile", wraps=profile) as counted:
                report = solver(a, b)
            assert report.solvable and report.verified
            assert [c.args for c in counted.call_args_list] == [(a,), (b,)]


@st.composite
def right_pairs(draw, max_dim=3):
    """(A, B) with a shared target: A free, A = B∘C (so ran(A) ⊆ ran(B)), or
    B∘C with a multivalued part {0} × V added, which may leave ran(B)."""
    nx, ny, nz = (draw(st.integers(0, max_dim)) for _ in range(3))
    b = draw(relations(dim_x=ny, dim_y=nz))
    flavor = draw(st.integers(0, 2))
    if flavor == 0:
        return draw(relations(dim_x=nx, dim_y=nz)), b
    a = compose(b, draw(relations(dim_x=nx, dim_y=ny)))
    if flavor == 2:
        a = cw_sum(a, zero_times(nx, draw(subspaces(ambient=nz))))[0]
    return a, b


class TestRightOperatorNote:
    @given(right_pairs())
    @example((SCALED, PROJ))                 # ker(B) != 0: no
    @example((FULL1, IDENT1))                # mul(A) ∩ ran(B) outside mul(B): no
    @example((PROJ, IDENT2))                 # yes
    @example((zero_times(1, Subspace.from_vectors(2, [(0, 1)])), graph([[1], [0]])))  # mul(A) outside ran(B): yes
    def test_joint_operator_note_matches_composition(self, pair):
        a, b = pair
        with mock.patch.object(factor, "compose", wraps=compose) as counted, \
                mock.patch.object(factor, "_stacked_product", wraps=factor._stacked_product) as stacked:
            report = solve_right_operator(a, b)
        reference = profile(compose(b.inverse(), a)).is_operator
        assert f"B^-1*A is itself an operator: {'yes' if reference else 'no'};" in report.notes
        # the note is read off the profiles: only the witness's candidate, one
        # stacked product, and its check, one compose, compose
        assert (stacked.call_count, counted.call_count) == ((1, 1) if report.solvable else (0, 0))


def _unsolvable_cases():
    """(solver, A, B) for every failing kind of the targeted samplers, and
    square pairs for the adjoint solvers, kept only where the answer is no."""
    rng = random.Random(606)
    kinds = [
        (harness.targeted_right_pair, kind, (solve_right_relation, solve_right_operator))
        for kind in harness.RIGHT_KINDS if kind.startswith("violate")
    ] + [
        (harness.targeted_left_pair, kind, (solve_left_relation, solve_left_operator))
        for kind in harness.LEFT_KINDS if kind.startswith("violate")
    ]
    for sampler, kind, solvers in kinds:
        for _ in range(6):
            a, b = sampler(rng, kind)
            for solver in solvers:
                yield solver, a, b
    for _ in range(30):
        a, b = harness.random_square_pair(rng)
        for solver in (solve_adjoint_right, solve_adjoint_left):
            yield solver, a, b


class TestUnsolvableComposesNothing:
    def test_no_compose_when_a_condition_fails(self):
        seen = set()
        for solver, a, b in _unsolvable_cases():
            with mock.patch.object(factor, "compose", wraps=compose) as counted, \
                    mock.patch.object(factor, "_stacked_product", wraps=factor._stacked_product) as stacked:
                report = solver(a, b)
            if report.solvable:
                continue
            seen.add(solver.__name__)
            assert counted.call_count == stacked.call_count == 0, solver.__name__
            assert report.witness is None and not report.verified
            if solver is solve_right_relation:
                assert compose(b, compose(b.inverse(), a)) != a
                assert report.notes.endswith("B*C equals A: no")
            if solver is solve_left_relation:
                assert compose(compose(a, b.inverse()), b) != a
                assert report.notes.endswith("C*B equals A: no")
        assert seen == {
            "solve_right_relation", "solve_right_operator", "solve_left_relation",
            "solve_left_operator", "solve_adjoint_right", "solve_adjoint_left",
        }


class TestSolvableComposesOnce:
    @pytest.mark.parametrize("solver", [
        solve_right_relation, solve_right_operator, solve_left_relation,
        solve_left_operator, solve_adjoint_right, solve_adjoint_left,
    ], ids=lambda solver: solver.__name__)
    def test_one_stacked_candidate_and_one_compose(self, solver):
        """A solvable solve builds its candidate B⁻¹∘A or A∘B⁻¹ as one stacked
        product and checks its witness with one compose.  ``satisfy`` pairs
        are solvable at every level, and an adjoint solver gets their
        adjoints, so that its A* and B* are such a pair."""
        name = solver.__name__
        sampler = harness.targeted_right_pair if "right" in name else harness.targeted_left_pair
        rng = random.Random(34)
        for _ in range(30):
            a, b = sampler(rng, "satisfy")
            if "adjoint" in name:
                a, b = a.adjoint(), b.adjoint()
            with mock.patch.object(factor, "compose", wraps=compose) as counted, \
                    mock.patch.object(factor, "_stacked_product", wraps=factor._stacked_product) as stacked:
                report = solver(a, b)
            assert report.solvable and report.verified
            assert (stacked.call_count, counted.call_count) == (1, 1), serialize_relation(a)
            if solver is solve_right_relation:
                assert report.witness == compose(b.inverse(), a)
            if solver is solve_left_relation:
                assert report.witness == compose(a, b.inverse())


class TestWitnessCost:
    @pytest.mark.parametrize("solver, sampler, bound", [
        (solve_right_operator, harness.targeted_right_pair, 3.0),
        (solve_left_operator, harness.targeted_left_pair, 4.0),
    ], ids=["solve_right_operator-targeted_right_pair", "solve_left_operator-targeted_left_pair"])
    def test_mean_eliminations_past_the_profiles(self, solver, sampler, bound):
        """With the profiles of A and B taken, a solvable operator-level
        solve runs at most ``bound`` eliminations on average: each witness
        cuts its candidate by the rows of the multivalued parts, with no
        elimination when those are 0, and the note reads mul(A) ⊆ mul(B)
        before it intersects."""
        rng = random.Random(17)
        counts = []
        for _ in range(100):
            a, b = sampler(rng, "satisfy")
            profile(a), profile(b)
            with mock.patch.object(exact, "_eliminate", wraps=exact._eliminate) as counted:
                report = solver(a, b)
            assert report.solvable and report.verified
            counts.append(counted.call_count)
        assert sum(counts) / len(counts) <= bound, sum(counts) / len(counts)

    @pytest.mark.parametrize("adjoint_solver, solver, sampler", [
        (solve_adjoint_right, solve_right_operator, harness.targeted_right_pair),
        (solve_adjoint_left, solve_left_operator, harness.targeted_left_pair),
    ], ids=["right", "left"])
    def test_adjoint_solve_costs_the_operator_solve_and_two_adjoints(self, adjoint_solver, solver, sampler):
        """A solvable adjoint solve hands A* and B* to the operator witness
        builder as they are.  With the profiles of A, B, A* and B* taken, it
        runs the eliminations of the operator solve on (A*, B*) and the two
        that form A* and B*, no more, and returns the same witness."""
        rng = random.Random(17)
        for _ in range(100):
            a, b = (rel.adjoint() for rel in sampler(rng, "satisfy"))
            a_star, b_star = a.adjoint(), b.adjoint()
            for rel in (a, b, a_star, b_star):
                profile(rel)
            with mock.patch.object(exact, "_eliminate", wraps=exact._eliminate) as counted:
                adjoint_report = adjoint_solver(a, b)
            adjoint_calls = counted.call_count
            with mock.patch.object(exact, "_eliminate", wraps=exact._eliminate) as counted:
                report = solver(a_star, b_star)
            assert adjoint_report.solvable and report.solvable
            assert adjoint_calls == counted.call_count + 2, serialize_relation(a)
            assert adjoint_report.witness == report.witness
