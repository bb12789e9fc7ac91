"""Every library entry point that takes an integer argument rejects any other
value with a ``ValueError`` that names the argument (``exact.require_int``),
and every way to ask for a relation obeys the one coordinate cap
(``files.check_ambient_limit``)."""

import random
import re
from fractions import Fraction

import pytest

from linrel import LinearRelation, Matrix, RelationSpec, Subspace, list_suites, run_suite
from linrel.files import MAX_AMBIENT_DIM
from linrel.harness import (
    operator_graph_candidates,
    random_full_rank,
    random_square_pair,
    random_subspace,
    targeted_left_pair,
    targeted_right_pair,
)

PLANE = Subspace.full(2)
# every rejection comes before the first draw, so one generator serves all
RNG = random.Random(0)

ENTRY_POINTS = {
    "Matrix rows": ("rows", lambda v: Matrix(v, 0, ())),
    "Matrix cols": ("cols", lambda v: Matrix(0, v, ())),
    "LinearRelation dim_x": ("dim_x", lambda v: LinearRelation(v, 0, Subspace.zero(0))),
    "LinearRelation dim_y": ("dim_y", lambda v: LinearRelation(0, v, Subspace.zero(0))),
    "Subspace.zero": ("ambient dimension", Subspace.zero),
    "Subspace.full": ("ambient dimension", Subspace.full),
    "Subspace.from_vectors": ("ambient dimension", lambda v: Subspace.from_vectors(v, [])),
    "split": ("split", PLANE.split),
    "split_span cut": ("split", lambda v: Subspace.split_span(2, [(1, 2)], v)),
    "split_span ambient": ("ambient dimension", lambda v: Subspace.split_span(v, [], 0)),
    "block_project start": ("start", lambda v: PLANE.block_project(v, 1)),
    "block_project stop": ("stop", lambda v: PLANE.block_project(0, v)),
    "point": ("coefficient", lambda v: PLANE.point([v, 0])),
    "RelationSpec dim_x": ("dim_x", lambda v: RelationSpec(v, 1).validate()),
    "RelationSpec coeff_bound": ("coeff_bound", lambda v: RelationSpec(1, 1, coeff_bound=v).validate()),
    "RelationSpec seed": ("seed", lambda v: RelationSpec(1, 1, seed=v).validate()),
    "operator_graph_candidates dim_x": ("dim_x", lambda v: operator_graph_candidates(v, 1)),
    "operator_graph_candidates dim_y": ("dim_y", lambda v: operator_graph_candidates(1, v)),
    "operator_graph_candidates bound": ("bound", lambda v: operator_graph_candidates(1, 1, v)),
    "targeted_right_pair max_dim": ("max_dim", lambda v: targeted_right_pair(RNG, "satisfy", max_dim=v)),
    "targeted_right_pair bound": ("bound", lambda v: targeted_right_pair(RNG, "satisfy", bound=v)),
    "targeted_left_pair max_dim": ("max_dim", lambda v: targeted_left_pair(RNG, "satisfy", max_dim=v)),
    "targeted_left_pair bound": ("bound", lambda v: targeted_left_pair(RNG, "satisfy", bound=v)),
    "random_square_pair max_dim": ("max_dim", lambda v: random_square_pair(RNG, v)),
    "random_subspace ambient": ("ambient", lambda v: random_subspace(RNG, v, 0)),
    "random_subspace dim": ("dim", lambda v: random_subspace(RNG, 2, v)),
    "random_full_rank rows": ("rows", lambda v: random_full_rank(RNG, v, 0)),
    "random_full_rank cols": ("cols", lambda v: random_full_rank(RNG, 2, v)),
    "run_suite cases": ("cases", lambda v: run_suite(list_suites()[0], v)),
    "run_suite seed": ("seed", lambda v: run_suite(list_suites()[0], 1, v)),
}


@pytest.mark.parametrize("value", [True, 1.0, Fraction(1, 2)], ids=repr)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_integer_arguments_reject_other_values(entry, value):
    name, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an int, got {re.escape(repr(value))}\Z"):
        call(value)


def test_relation_spec_obeys_the_coordinate_cap():
    with pytest.raises(ValueError, match=rf"^dim_x 600 and dim_y 600 .* limit {MAX_AMBIENT_DIM}\Z"):
        RelationSpec(600, 600).validate()
    RelationSpec(MAX_AMBIENT_DIM, 0).validate()


# each maker's smallest max_dim, and the maker
PAIR_MAKERS = {
    "targeted_right_pair": (1, lambda rng, d: targeted_right_pair(rng, "satisfy", max_dim=d)),
    "targeted_left_pair": (1, lambda rng, d: targeted_left_pair(rng, "satisfy", max_dim=d)),
    "random_square_pair": (0, lambda rng, d: random_square_pair(rng, d)),
}


@pytest.mark.parametrize("maker", list(PAIR_MAKERS))
def test_pair_makers_obey_the_coordinate_cap(maker):
    """A max_dim below the smallest is refused by name, not left to
    ``randrange``, and each relation a pair maker draws has up to
    2 * max_dim coordinates, so one past half the cap is refused; both
    before anything is drawn."""
    low, make = PAIR_MAKERS[maker]
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=rf"^max_dim must be at least {low}, got {low - 1}\Z"):
        make(rng, low - 1)
    with pytest.raises(ValueError, match=rf"^2 \* max_dim {MAX_AMBIENT_DIM + 2} .* limit {MAX_AMBIENT_DIM}\Z"):
        make(rng, MAX_AMBIENT_DIM // 2 + 1)
    assert rng.getstate() == state
