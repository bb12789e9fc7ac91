import ast
import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from linrel import (
    LinearRelation,
    Matrix,
    RelationSpec,
    Subspace,
    brute_force_left_witness,
    brute_force_right_witness,
    compose,
    oracle_product_membership,
    profile,
    random_relation,
    solve_adjoint_right,
    solve_left_operator,
    solve_right_operator,
    run_suite,
    serialize_relation,
    zero_times,
)
from linrel import exact, harness
from linrel.harness import (
    LEFT_KINDS,
    RIGHT_KINDS,
    derive_seed,
    list_suites,
    operator_graph_candidates,
    random_selfadjoint,
    targeted_left_pair,
    targeted_right_pair,
)
from linrel.exact import check_canonical

from strategies import graph

# SHA-256 over the canonical rows of every grid candidate, in search order,
# for each gated shape at bounds 1 and 2
EXPECTED_CANDIDATE_DIGEST = "6565b29a3b687f43972c7df68e9c8ec0e87d8cc107aa09694ed24730184c99df"
# SHA-256 over the product test's verdict on every grid candidate, one byte
# each, for 150 seeded pairs per side of shapes (1, 1), (1, 2), (2, 1) and 5
# per side of shape (2, 2), where every 11th candidate is decided
EXPECTED_VERDICT_DIGEST = "9fab8245145cfe99eaf91bf8b07e538f173d4e6fa8c40b5d21eb519aa2223672"


class TestRelationSpec:
    def test_valid(self):
        RelationSpec(3, 3, dim_dom=2, dim_mul=1, dim_ker=1).validate()
        RelationSpec(2, 2).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim_x=-1, dim_y=2),
            dict(dim_x=2, dim_y=2, coeff_bound=0),
            dict(dim_x=2, dim_y=2, dim_dom=1),  # partial targets
            dict(dim_x=2, dim_y=2, dim_dom=3, dim_mul=0, dim_ker=0),
            dict(dim_x=2, dim_y=2, dim_dom=1, dim_mul=0, dim_ker=2),
            dict(dim_x=2, dim_y=2, dim_dom=2, dim_mul=3, dim_ker=0),
            # rank of the single-valued part cannot exceed dim_y - dim_mul
            dict(dim_x=1, dim_y=1, dim_dom=1, dim_mul=1, dim_ker=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RelationSpec(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(dim_x=2.0, dim_y=1), "dim_x"),
            (dict(dim_x=2, dim_y=True), "dim_y"),
            (dict(dim_x=2, dim_y=2, coeff_bound=2.5), "coeff_bound"),
            (dict(dim_x=2, dim_y=2, dim_dom=1.0, dim_mul=0, dim_ker=0), "dim_dom"),
        ],
    )
    def test_counts_must_be_ints(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            RelationSpec(**kwargs).validate()


class TestRandomRelation:
    def test_invertible_profile(self):
        rel = random_relation(RelationSpec(2, 2, dim_dom=2, dim_mul=0, dim_ker=0, seed=5))
        p = profile(rel)
        assert (p.dom.dim, p.mul.dim, p.ker.dim) == (2, 0, 0)
        assert p.is_operator and p.is_everywhere_defined

    def test_forced_multivalued(self):
        rel = random_relation(RelationSpec(2, 2, dim_dom=0, dim_mul=2, dim_ker=0, seed=1))
        assert rel == zero_times(2, Subspace.full(2))

    def test_requested_dims_hit_exactly(self):
        rel = random_relation(RelationSpec(3, 3, dim_dom=2, dim_mul=1, dim_ker=1, seed=42))
        p = profile(rel)
        assert (p.dom.dim, p.mul.dim, p.ker.dim) == (2, 1, 1)

    def test_deterministic(self):
        spec = RelationSpec(4, 3, dim_dom=3, dim_mul=1, dim_ker=2, seed=99)
        assert serialize_relation(random_relation(spec)) == serialize_relation(
            random_relation(spec)
        )

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            random_relation(RelationSpec(1, 1, dim_dom=1, dim_mul=1, dim_ker=0))


class TestOracle:
    def test_identity_chain(self):
        ident = LinearRelation.identity(2)
        assert oracle_product_membership(ident, ident, (1, 2), (1, 2))
        assert not oracle_product_membership(ident, ident, (1, 0), (0, 1))

    def test_projection_blocks_second_coordinate(self):
        a = LinearRelation.identity(2)
        b = graph([[1, 0], [0, 0]])
        assert not oracle_product_membership(a, b, (0, 1), (0, 1))
        assert oracle_product_membership(a, b, (1, 0), (1, 0))

    def test_multivalued_feasibility(self):
        zero_op = graph([[0, 0], [0, 0]])
        everything = zero_times(2, Subspace.full(2))
        for x in ((1, 0), (0, 1), (2, -3)):
            for z in ((1, 1), (0, 0), (-2, 3)):
                assert oracle_product_membership(zero_op, everything, x, z)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            oracle_product_membership(
                LinearRelation.identity(2), LinearRelation.identity(3), (1, 2), (1, 2, 3)
            )

    def test_agrees_with_compose_on_random_pairs(self):
        rng = random.Random(3)
        for _ in range(50):
            n, m, k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            a = harness.random_mixed_relation(rng, n, m)
            b = harness.random_mixed_relation(rng, m, k)
            ba = compose(b, a)
            for _ in range(3):
                x = tuple(rng.randint(-3, 3) for _ in range(n))
                z = tuple(rng.randint(-3, 3) for _ in range(k))
                assert oracle_product_membership(a, b, x, z) == ba.membership(x, z)


class TestPairGenerators:
    def test_right_kinds_deliver(self):
        rng = random.Random(17)
        for i in range(40):
            kind = RIGHT_KINDS[i % len(RIGHT_KINDS)]
            a, b = targeted_right_pair(rng, kind)
            pa, pb = profile(a), profile(b)
            ran_ok = pb.ran.contains(pa.ran)
            mul_ok = pa.mul == pb.mul
            if kind == "satisfy":
                assert ran_ok and mul_ok
            elif kind == "violate_ran":
                assert not ran_ok
            elif kind in ("violate_mul_gain", "violate_mul_loss"):
                assert not mul_ok

    def test_left_kinds_deliver(self):
        rng = random.Random(18)
        for i in range(40):
            kind = LEFT_KINDS[i % len(LEFT_KINDS)]
            a, b = targeted_left_pair(rng, kind)
            pa, pb = profile(a), profile(b)
            if kind == "satisfy":
                assert pb.dom.contains(pa.dom)
                assert pa.ker.contains(pb.ker)
                assert pa.mul.dim <= pb.mul.dim
            elif kind == "violate_dom":
                assert not pb.dom.contains(pa.dom)
            elif kind == "violate_ker":
                assert not pa.ker.contains(pb.ker)
            elif kind == "violate_mul_dim":
                assert pa.mul.dim > pb.mul.dim

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            targeted_right_pair(random.Random(0), "nope")

    def test_selfadjoint_generator(self):
        rng = random.Random(23)
        for _ in range(10):
            rel = random_selfadjoint(rng, rng.randint(0, 4))
            assert rel.is_selfadjoint()


class TestBruteForce:
    def test_gated_dimension(self):
        # (2, 3) at bound 2 would build over half a million candidates
        for shape in ((3, 1, 2), (2, 3, 2), (1, 3, 2), (2, 2, 3)):
            with pytest.raises(ValueError, match="gated"):
                operator_graph_candidates(*shape)

    def test_candidates_are_operators(self):
        for rel in operator_graph_candidates(1, 1, 1):
            assert profile(rel).is_operator

    def test_candidate_order_is_pinned(self):
        # the search returns the first candidate that passes, so this order
        # decides which witness comes back
        digest = hashlib.sha256()
        for bound in (1, 2):
            for dim_x in range(3):
                for dim_y in range(3):
                    for rel in operator_graph_candidates(dim_x, dim_y, bound):
                        digest.update(f"{dim_x} {dim_y} {bound}: {rel.graph.rows}\n".encode())
        assert digest.hexdigest() == EXPECTED_CANDIDATE_DIGEST

    @pytest.mark.parametrize("side, message", [
        ("right", "target dimensions differ: 1 vs 2"),
        ("left", "source dimensions differ: 1 vs 2"),
    ])
    def test_mismatched_pair_names_both_dimensions(self, side, message):
        with pytest.raises(ValueError, match=message):
            search(LinearRelation.zero_relation(1, 1), LinearRelation.zero_relation(2, 2), side)

    @pytest.mark.parametrize("search_fn", [brute_force_right_witness, brute_force_left_witness])
    @pytest.mark.parametrize("bound", [2.0, 1.5, True, -1])
    def test_bound_must_be_a_nonnegative_int(self, search_fn, bound):
        # solvable at bound 2, so a bound read as another grid would show as None
        a = LinearRelation.from_generators(1, 1, [(1, 2)])
        with pytest.raises(ValueError, match="^bound must be"):
            search_fn(a, LinearRelation.identity(1), bound)

    @pytest.mark.parametrize("search_fn", [brute_force_right_witness, brute_force_left_witness])
    def test_bound_zero_searches_the_empty_grid(self, search_fn):
        a, b = LinearRelation.from_generators(1, 1, [(1, 2)]), LinearRelation.identity(1)
        assert search_fn(a, b, 2) == a
        assert search_fn(a, b, 0) is None

    def test_finds_existing_witness(self):
        a = graph([[2, 0], [0, 0]])
        b = graph([[1, 0], [0, 0]])
        witness = brute_force_right_witness(a, b, 2)
        assert witness is not None
        assert compose(b, witness) == a


def reference_witness(a, b, side, bound=2):
    """The brute-force search as first written: every probe through
    ``oracle_product_membership``, then ``compose`` on each survivor."""
    probes = [(g[: a.dim_x], g[a.dim_x :]) for g in a.graph.basis.column_tuples()]
    if side == "right":
        for t in operator_graph_candidates(a.dim_x, b.dim_x, bound):
            if all(oracle_product_membership(t, b, x, z) for x, z in probes):
                if compose(b, t) == a:
                    return t
    else:
        for t in operator_graph_candidates(b.dim_y, a.dim_y, bound):
            if all(oracle_product_membership(b, t, x, y) for x, y in probes):
                if compose(t, b) == a:
                    return t
    return None


def search(a, b, side):
    if side == "right":
        return brute_force_right_witness(a, b, 2)
    return brute_force_left_witness(a, b, 2)


def grid_shape(a, b, side):
    return (a.dim_x, b.dim_x) if side == "right" else (b.dim_y, a.dim_y)


def seeded_pairs(side, seed, count_per_kind, shapes=((1, 1), (1, 2), (2, 1))):
    """Pairs of every kind whose unknown T has one of ``shapes``."""
    if side == "right":
        kinds, pair_fn = RIGHT_KINDS, targeted_right_pair
    else:
        kinds, pair_fn = LEFT_KINDS, targeted_left_pair
    rng = random.Random(seed)
    pairs = []
    for kind in kinds:
        found = 0
        while found < count_per_kind:
            a, b = pair_fn(rng, kind, max_dim=2, bound=2)
            if grid_shape(a, b, side) in shapes:
                pairs.append((kind, a, b))
                found += 1
    return pairs


def edge_pairs(side):
    """A and B each zero, full or random, on spaces that include dimension 0."""
    rng = random.Random(29)
    out = []
    for n, m, k in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 1, 0), (0, 0, 0), (1, 2, 1), (2, 1, 2)):
        # right: A from Q^n to Q^k, B from Q^m to Q^k; left: A from Q^n to Q^m, B from Q^n to Q^k
        a_dims, b_dims = ((n, k), (m, k)) if side == "right" else ((n, m), (n, k))
        a_choices = (
            LinearRelation.zero_relation(*a_dims),
            LinearRelation.full_relation(*a_dims),
            harness.random_mixed_relation(rng, *a_dims, 2),
        )
        b_choices = (
            LinearRelation.zero_relation(*b_dims),
            LinearRelation.full_relation(*b_dims),
            harness.random_mixed_relation(rng, *b_dims, 2),
        )
        out += [(a, b) for a in a_choices for b in b_choices]
    return out


class TestBruteForceAgainstReference:
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_seeded_pairs_of_every_kind(self, side):
        solvable = 0
        for kind, a, b in seeded_pairs(side, 61 if side == "right" else 62, 8):
            expected = reference_witness(a, b, side)
            shown = (kind, serialize_relation(a), serialize_relation(b))
            assert search(a, b, side) == expected, shown
            solvable += expected is not None
        assert solvable >= 5

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_edge_cases(self, side):
        pairs = edge_pairs(side)
        assert any(a.graph.dim == 0 for a, _ in pairs)
        for a, b in pairs:
            shown = (serialize_relation(a), serialize_relation(b))
            assert search(a, b, side) == reference_witness(a, b, side), shown
            # zero and full relations admit many candidates, not only the first
            verdicts_match_compose(a, b, side, 1, shown)

    def test_finds_a_witness_on_the_largest_grid(self):
        a = graph([[2, 0], [0, 0]])
        b = graph([[1, 0], [0, 1]])
        assert brute_force_right_witness(a, b, 2) == a
        assert brute_force_left_witness(a, b, 2) == a

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_every_candidate_decision_matches_compose(self, side):
        # Both inclusions must be decided: candidates with A strictly inside
        # the product, and with the product strictly inside A, both occur.
        # The (2, 2) grid holds 16 306 candidates: every 5th of them is decided.
        a_inside = product_inside = 0
        for shape in ((1, 1), (1, 2), (2, 1), (2, 2)):
            step = 5 if shape == (2, 2) else 1
            for kind, a, b in seeded_pairs(side, 71, 1, shapes=(shape,)):
                inside = verdicts_match_compose(a, b, side, step, kind)
                a_inside += inside[0]
                product_inside += inside[1]
        assert a_inside > 0 and product_inside > 0

        # B's multivalued part {0} × span(e2) lies in every product B∘T, so
        # an A without it rules out every candidate before any is tried.
        # The left side takes the inverses: T∘B = A exactly when B⁻¹∘T⁻¹ = A⁻¹.
        def laid_out(a, b):
            return (a, b) if side == "right" else (a.inverse(), b.inverse())

        b = LinearRelation.from_generators(1, 2, [(0, 0, 1)])
        early = laid_out(LinearRelation.identity(2), b)
        assert harness._product_test(*early, side) is None
        verdicts_match_compose(*early, side, 1, "early exit")

        # A = {0} × mul(B) has the dimension of mul(B): the test rests on
        # the ranks of the candidates' reduced rows alone.
        s_zero = laid_out(LinearRelation.from_generators(2, 2, [(0, 0, 0, 1)]), b)
        assert harness._product_test(*s_zero, side) is not None
        verdicts_match_compose(*s_zero, side, 1, "dim A = dim mul(B)")

    @pytest.mark.parametrize("a, b, shown", [
        # edge cases of an earlier layout of the test, named in its terms:
        # v′_t was W·t reduced by W·(A's basis), for W the left nullspace of
        # B's block, and a row escaped when its pairing with A^⊥ did not
        # reduce to zero
        (LinearRelation.from_generators(2, 1, [(1, 1, 0), (0, 0, 1)]),
         LinearRelation.from_generators(2, 2, [(1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
         "both v′_t zero"),
        (LinearRelation.zero_relation(1, 1),
         LinearRelation.from_generators(1, 2, [(0, 1, 0), (0, 0, 1)]),
         "the second row escapes"),
    ])
    def test_pinned_left_pairs(self, a, b, shown):
        verdicts_match_compose(a, b, "left", 1, shown)

    def test_candidate_verdicts_are_pinned(self):
        digest = hashlib.sha256()
        admitted = ruled_out = 0
        for side, seed in (("right", 81), ("left", 82)):
            pairs = seeded_pairs(side, seed, 30)
            pairs += seeded_pairs(side, seed, 1, shapes=((2, 2),))
            for kind, a, b in pairs:
                shape = grid_shape(a, b, side)
                admits = harness._product_test(a, b, side)
                ruled_out += admits is None
                candidates = operator_graph_candidates(*shape, 2)[:: 11 if shape == (2, 2) else 1]
                verdicts = bytes(admits is not None and admits(t.graph.rows) for t in candidates)
                admitted += sum(verdicts)
                digest.update(f"{side} {kind} {shape}: ".encode() + verdicts + b"\n")
        assert admitted and ruled_out
        assert digest.hexdigest() == EXPECTED_VERDICT_DIGEST

    def test_each_candidate_row_is_pulled_once(self, monkeypatch):
        """In a full (2, 1) search, each distinct row of the candidates'
        graph bases is reduced once, and no elimination runs: on the right
        side the set-up reads B's rows and A^⊥ off canonical rows, and each
        candidate is decided from its rows' reductions."""
        b = LinearRelation.from_generators(1, 2, [(0, 0, 1)])
        a = LinearRelation.from_generators(2, 2, [(0, 0, 0, 1), (1, 1, 2, 0)])
        candidates = operator_graph_candidates(2, 1, 2)
        distinct = {t for c in candidates for t in c.graph.rows}
        assert (len(candidates), sum(c.graph.dim for c in candidates), len(distinct)) == (390, 730, 128)
        reduced, eliminated = Counter(), []
        reduce, eliminate = harness._reduce, exact._eliminate

        def spy_reduce(row, echelon, leads):
            # the row (t_x, t_y) of T's graph comes in as (t_y, t_x, 0)
            reduced[tuple(row[1:3] + row[:1])] += 1
            return reduce(row, echelon, leads)

        def spy_eliminate(data, cols):
            eliminated.append(len(data))
            return eliminate(data, cols)

        monkeypatch.setattr(harness, "_reduce", spy_reduce)
        monkeypatch.setattr(exact, "_eliminate", spy_eliminate)
        assert brute_force_right_witness(a, b, 2) is None
        assert set(reduced) == distinct
        assert set(reduced.values()) == {1}
        assert eliminated == []


class TestPairRank:
    BIG = 10**25

    @pytest.mark.parametrize("a, b", [
        ((0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 2, -1)),
        ((1, -2, 3), (1, -2, 3)),
        ((0, 3, -5), (0, -3, 5)),
        ((0, 2, 2), (0, 1, 1)),  # a's lead value comes again after the lead
        ((0, 2, 2), (0, 1, 2)),
        ((0, 3 * BIG, -7 * BIG, 11), (0, -6 * BIG * 10**15, 14 * BIG * 10**15, -22 * 10**15)),
        ((0, 3 * BIG, -7 * BIG, 11), (0, -6 * BIG * 10**15, 14 * BIG * 10**15, -22 * 10**15 + 1)),
        ((1, 0, 0), (0, 1, 0)),
        ((0, 1, 2), (0, 0, 1)),
        ((1, 2), (2, 5)),
    ])
    def test_matches_elimination(self, a, b):
        for first, second in ((a, b), (b, a)):
            rank = len(exact._eliminate([list(first), list(second)], len(first)))
            assert harness._pair_rank(first, second) == rank, (first, second)


class TestRightSolutionFamily:
    """At operator level the solutions T of A = B∘T with dom T = dom A are
    T0 + K, for T0 the solver's witness and K any map from dom A into
    ker B.  So on solvable pairs the product test admits exactly the grid
    candidates T with dom T = dom A whose graph lies in
    graph(T0) + {0} × ker B."""

    def test_admitted_candidates_are_the_witness_plus_maps_into_the_kernel(self):
        rng = random.Random(7)
        counts = Counter()
        for _ in range(30):
            a, b = targeted_right_pair(rng, "satisfy", max_dim=2, bound=2)
            counts += family_verdicts(a, b, solve_right_operator(a, b).witness)
        assert counts["admitted"] and counts["rejected"] and counts["with_kernel"]

    def test_adjoint_pairs_admit_the_witness_plus_maps_into_the_kernel(self):
        # A = (B*∘T)* solves A* = B*∘T, so the family is T0 + K with K from
        # dom A* into ker B*, for T0 the adjoint-right solver's witness; B
        # from Q^n to Q^p and T from Q^m to Q^p, so A from Q^n to Q^m
        rng = random.Random(17)
        counts = Counter()
        for _ in range(30):
            n, m, p = (rng.choice((1, 1, 2)) for _ in range(3))
            b = harness.random_mixed_relation(rng, n, p, 2)
            a = compose(b.adjoint(), harness.random_operator(rng, m, p, 2)).adjoint()
            report = solve_adjoint_right(a, b)
            assert report.solvable, (serialize_relation(a), serialize_relation(b))
            counts += family_verdicts(a.adjoint(), b.adjoint(), report.witness)
        assert counts["admitted"] and counts["rejected"] and counts["with_kernel"]


def family_verdicts(a, b, t0):
    """Check the right product test's verdict on every grid candidate T
    with dom T = dom A against graph(T) ⊆ graph(T0) + {0} × ker B; count
    the admitted and rejected candidates, and the admitted ones other than
    T0 on pairs with ker B ≠ 0."""
    pb = profile(b)
    family = t0.graph.sum(zero_times(a.dim_x, pb.ker).graph)
    dom_a = profile(a).dom
    admits = harness._product_test(a, b, "right")
    counts = Counter()
    for t in operator_graph_candidates(a.dim_x, b.dim_x, 2):
        if t.graph.dim != dom_a.dim or t.graph.split(a.dim_x)[0] != dom_a:
            continue
        verdict = admits(t.graph.rows)
        assert verdict == family.contains(t.graph), (serialize_relation(a), serialize_relation(b), t)
        counts["admitted" if verdict else "rejected"] += 1
        counts["with_kernel"] += verdict and pb.ker.dim > 0 and t != t0
    return counts


def verdicts_match_compose(a, b, side, step, shown):
    """Check the product test's verdict on every ``step``-th candidate
    against ``compose``; count the failing candidates with A strictly inside
    the product and with the product strictly inside A."""
    admits = harness._product_test(a, b, side)
    a_inside = product_inside = 0
    for t in operator_graph_candidates(*grid_shape(a, b, side), 2)[::step]:
        product = compose(b, t) if side == "right" else compose(t, b)
        verdict = admits is not None and admits(t.graph.rows)
        assert verdict == (product == a), (shown, serialize_relation(t), serialize_relation(a))
        if product != a:
            a_inside += product.graph.contains(a.graph)
            product_inside += a.graph.contains(product.graph)
    return a_inside, product_inside


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("no_such_suite", 1, 0)

    @pytest.mark.parametrize("cases", [0, -5])
    def test_cases_below_one_rejected(self, cases):
        with pytest.raises(ValueError, match="cases"):
            run_suite("determinism", cases)

    @pytest.mark.parametrize("kwargs", [dict(cases=True), dict(cases=2.0), dict(seed=1.5)])
    def test_cases_and_seed_must_be_ints(self, kwargs):
        with pytest.raises(ValueError, match="must be an int"):
            run_suite("determinism", **kwargs)

    @pytest.mark.parametrize("name", ["adjoint_right_iff", "adjoint_left_iff"])
    def test_adjoint_suites_build_each_adjoint_once(self, monkeypatch, name):
        """Outside the solver under test, a case builds A* and B* once each."""
        adjoint = LinearRelation.adjoint
        outside = []
        depth = []

        def counted(rel):
            if not depth:
                outside.append(rel)
            return adjoint(rel)

        def quiet(solver):
            def run(a, b):
                depth.append(1)
                try:
                    return solver(a, b)
                finally:
                    depth.pop()
            return run

        monkeypatch.setattr(LinearRelation, "adjoint", counted)
        for solver in ("solve_adjoint_right", "solve_adjoint_left"):
            monkeypatch.setattr(harness.factor, solver, quiet(getattr(harness.factor, solver)))
        result = run_suite(name, 40, seed=3)
        assert result.failed == 0, result.counterexample
        assert len(outside) == 2 * 40

    def test_deterministic_and_green(self):
        first = run_suite("relation_algebra", 25, seed=1)
        second = run_suite("relation_algebra", 25, seed=1)
        assert first == second
        assert first.failed == 0 and first.passed == 25

    def test_identity_suites_pass(self):
        for name in ("right_operator_iff", "left_operator_iff", "adjoint_identities"):
            result = run_suite(name, 20, seed=7)
            assert result.failed == 0, result.counterexample

    @pytest.mark.parametrize("name", [
        "right_relation_iff", "left_relation_iff", "right_operator_iff",
        "left_operator_iff", "adjoint_right_iff", "adjoint_left_iff",
    ])
    def test_mutation_is_caught(self, monkeypatch, name):
        # an intentionally broken solver must produce a serialized counterexample;
        # a flag flipped to solvable comes with no witness, which no check may read
        solver = "solve_" + name.removesuffix("_iff")
        original = getattr(harness.factor, solver)

        def broken(a, b):
            report = original(a, b)
            object.__setattr__(report, "solvable", not report.solvable)
            return report

        monkeypatch.setattr(harness.factor, solver, broken)
        result = run_suite(name, 20, seed=7)
        assert result.failed > 0
        assert result.counterexample is not None
        assert "dim_x=" in result.counterexample
        assert "\nA:\ndim_x=" in result.counterexample and "\nB:\ndim_x=" in result.counterexample

    def test_operator_criterion_right_fails_when_ran_escapes(self, monkeypatch):
        """A pair generator that puts ran(A) outside ran(B) fails the suite
        loudly instead of skipping the case."""
        a = LinearRelation.identity(2)
        b = zero_times(2, Subspace.from_vectors(2, [(1, 0)]))
        monkeypatch.setattr(harness, "targeted_right_pair", lambda rng, kind: (a, b))
        result = run_suite("operator_criterion_right", 3, seed=0)
        assert result.failed == 3
        assert result.counterexample.startswith("case 0: pair generator put ran(A) outside ran(B) (kind ")
        assert "\nA:\ndim_x=" in result.counterexample and "\nB:\ndim_x=" in result.counterexample

    def test_result_serialization(self):
        result = run_suite("determinism", 5, seed=2)
        text = result.to_text()
        assert "suite=determinism" in text
        assert "failed=0" in text
        payload = result.to_json_dict()
        assert payload["cases"] == 5 and payload["passed"] == 5

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)


def test_generators_and_bridge_compute_on_integer_rows(monkeypatch):
    """The targeted and self-adjoint generators, both pair makers and the
    left-operator bridge read points off ``Subspace.rows``: none of them
    needs the Fraction basis, a Matrix product or a linear solve."""

    def refuse(*args):
        raise AssertionError("a Fraction basis, Matrix product or solve was built")

    monkeypatch.setattr(Subspace, "basis", property(refuse))
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Matrix, "matvec", refuse)
    monkeypatch.setattr(exact, "solve_linear", refuse)
    assert not hasattr(harness, "solve_linear")
    for seed in range(20):
        rel = random_relation(RelationSpec(4, 4, dim_dom=3, dim_mul=1, dim_ker=1, seed=seed))
        assert (profile(rel).dom.dim, profile(rel).mul.dim) == (3, 1)
        rng = random.Random(seed)
        for kind in RIGHT_KINDS:
            targeted_right_pair(rng, kind)
        for kind in LEFT_KINDS:
            targeted_left_pair(rng, kind)
        assert random_selfadjoint(rng, 4).is_selfadjoint()
    # the bridge maps mul(B) = span{(2, 3)} onto mul(A) = span{(3, 1)}
    b = LinearRelation.from_generators(1, 2, [(1, 1, 1), (0, 2, 3)])
    a = LinearRelation.from_generators(1, 2, [(1, 0, 5), (0, 3, 1)])
    report = solve_left_operator(a, b)
    assert report.solvable and report.verified


def test_harness_imports_nothing_from_fractions():
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert "fractions" not in modules


def test_every_subspace_the_suites_build_is_canonical(monkeypatch):
    """Internal constructors skip the public constructor's canonical-form
    check; run every suite with that check put back on them."""
    make = Subspace._make.__func__
    built = []

    def checked(cls, ambient_dim, rows):
        check_canonical(rows, ambient_dim)
        built.append(ambient_dim)
        return make(cls, ambient_dim, rows)

    monkeypatch.setattr(Subspace, "_make", classmethod(checked))
    for name in list_suites():
        result = run_suite(name, seed=5)
        assert result.failed == 0, result.counterexample
    assert len(built) > 10_000
