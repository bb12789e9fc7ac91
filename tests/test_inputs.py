"""Every library entry point that takes an integer argument rejects any other
value with a ``ValueError`` that names the argument (``exact.require_int``),
every vector argument rejects a ``str`` or a scalar with a ``TypeError`` and a
wrong length with a ``ValueError``, both naming it (``exact.require_vector``),
and every way to ask for a relation obeys the one coordinate cap
(``files.check_ambient_limit``)."""

import inspect
import random
import re
from fractions import Fraction
from functools import partial

import pytest

from linrel import (
    LinearRelation,
    Matrix,
    RelationSpec,
    Subspace,
    exact,
    harness,
    list_suites,
    oracle_product_membership,
    run_suite,
    solve_linear,
    zero_times,
)
from linrel.exact import vector
from linrel.files import MAX_AMBIENT_DIM
from linrel.harness import (
    operator_graph_candidates,
    random_full_rank,
    random_mixed_relation,
    random_relation,
    random_selfadjoint,
    random_square_pair,
    random_subspace,
    targeted_left_pair,
    targeted_right_pair,
)

PLANE = Subspace.full(2)
# every rejection comes before the first draw, so one generator serves all
RNG = random.Random(0)
BAD_INTS = [True, 1.0, Fraction(1, 2)]

# every public draw of ``harness``, by each of its integer parameters: the
# name its messages give, the smallest value it takes, and a call on a
# generator with the other arguments valid
DRAWS = {
    "random_full_rank rows": ("rows", 0, lambda rng, v: random_full_rank(rng, v, 0)),
    "random_full_rank cols": ("cols", 0, lambda rng, v: random_full_rank(rng, 2, v)),
    "random_full_rank bound": ("bound", 1, lambda rng, v: random_full_rank(rng, 2, 1, v)),
    "random_subspace ambient": ("ambient", 0, lambda rng, v: random_subspace(rng, v, 0)),
    "random_subspace dim": ("dim", 0, lambda rng, v: random_subspace(rng, 2, v)),
    "random_subspace bound": ("bound", 1, lambda rng, v: random_subspace(rng, 2, 1, v)),
    "random_relation dim_x": ("dim_x", 0, lambda rng, v: random_relation(RelationSpec(v, 1))),
    "random_relation coeff_bound": (
        "coeff_bound", 1, lambda rng, v: random_relation(RelationSpec(1, 1, coeff_bound=v))
    ),
    "random_mixed_relation dim_x": ("dim_x", 0, lambda rng, v: random_mixed_relation(rng, v, 1)),
    "random_mixed_relation dim_y": ("dim_y", 0, lambda rng, v: random_mixed_relation(rng, 1, v)),
    "random_mixed_relation bound": ("bound", 1, lambda rng, v: random_mixed_relation(rng, 1, 1, v)),
    "random_selfadjoint dim": ("dim", 0, random_selfadjoint),
    "targeted_right_pair max_dim": ("max_dim", 1, lambda rng, v: targeted_right_pair(rng, "satisfy", max_dim=v)),
    "targeted_right_pair bound": ("bound", 1, lambda rng, v: targeted_right_pair(rng, "satisfy", bound=v)),
    "targeted_left_pair max_dim": ("max_dim", 1, lambda rng, v: targeted_left_pair(rng, "satisfy", max_dim=v)),
    "targeted_left_pair bound": ("bound", 1, lambda rng, v: targeted_left_pair(rng, "satisfy", bound=v)),
    "random_square_pair max_dim": ("max_dim", 0, random_square_pair),
}

ENTRY_POINTS = {
    "Matrix rows": ("rows", lambda v: Matrix(v, 0, ())),
    "Matrix cols": ("cols", lambda v: Matrix(0, v, ())),
    "Matrix.identity": ("n", Matrix.identity),
    "Matrix.zero rows": ("rows", lambda v: Matrix.zero(v, 1)),
    "Matrix.zero cols": ("cols", lambda v: Matrix.zero(1, v)),
    "Matrix.from_rows cols": ("cols", lambda v: Matrix.from_rows([[0]], v)),
    "Matrix.from_cols rows": ("rows", lambda v: Matrix.from_cols([], v)),
    "LinearRelation dim_x": ("dim_x", lambda v: LinearRelation(v, 0, Subspace.zero(0))),
    "LinearRelation dim_y": ("dim_y", lambda v: LinearRelation(0, v, Subspace.zero(0))),
    "LinearRelation.from_generators dim_x": ("dim_x", lambda v: LinearRelation.from_generators(v, 1, [])),
    "LinearRelation.from_generators dim_y": ("dim_y", lambda v: LinearRelation.from_generators(1, v, [])),
    "LinearRelation.identity": ("n", LinearRelation.identity),
    "LinearRelation.zero_relation dim_x": ("dim_x", lambda v: LinearRelation.zero_relation(v, 1)),
    "LinearRelation.zero_relation dim_y": ("dim_y", lambda v: LinearRelation.zero_relation(1, v)),
    "LinearRelation.full_relation dim_x": ("dim_x", lambda v: LinearRelation.full_relation(v, 1)),
    "LinearRelation.full_relation dim_y": ("dim_y", lambda v: LinearRelation.full_relation(1, v)),
    "zero_times": ("dim_x", lambda v: zero_times(v, PLANE)),
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
    "run_suite cases": ("cases", lambda v: run_suite(list_suites()[0], v)),
    "run_suite seed": ("seed", lambda v: run_suite(list_suites()[0], 1, v)),
    **{entry: (name, partial(draw, RNG)) for entry, (name, _, draw) in DRAWS.items()},
}


LINE = LinearRelation.identity(1)

# every vector argument of the library, by entry: the name its messages give,
# the length it must have (None for any), and a call that passes the value as
# that argument, or as one generator or row among valid ones
VECTORS = {
    "Matrix.matvec v": ("v", 2, Matrix.identity(2).matvec),
    "solve_linear b": ("b", 2, partial(solve_linear, Matrix.identity(2))),
    "Subspace.contains_vector v": ("v", 2, PLANE.contains_vector),
    "Subspace.point coefficients": ("coefficients", 2, PLANE.point),
    "LinearRelation.membership x": ("x", 1, lambda v: LINE.membership(v, (0,))),
    "LinearRelation.membership y": ("y", 1, lambda v: LINE.membership((0,), v)),
    "oracle_product_membership x": ("x", 1, lambda v: oracle_product_membership(LINE, LINE, v, (0,))),
    "oracle_product_membership z": ("z", 1, lambda v: oracle_product_membership(LINE, LINE, (0,), v)),
    "exact.vector": ("vector", None, vector),
    "Matrix.from_rows row": ("row 1", 2, lambda v: Matrix.from_rows([(1, 0), v])),
    "Matrix.from_cols col": ("column 1", 2, lambda v: Matrix.from_cols([(1, 0), v])),
    "Subspace.from_vectors": ("generator", 2, lambda v: Subspace.from_vectors(2, [(1, 0), v])),
    "Subspace.split_span": ("generator", 2, lambda v: Subspace.split_span(2, [(1, 0), v], 1)),
    "LinearRelation.from_generators": (
        "generator", 2, lambda v: LinearRelation.from_generators(1, 1, [(1, 0), v])
    ),
}


@pytest.fixture
def no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("eliminated before the vector was checked")

    monkeypatch.setattr(exact, "_eliminate", refuse)


@pytest.mark.parametrize("entry", list(VECTORS))
def test_vector_arguments_reject_a_str_a_scalar_and_a_wrong_length(entry, no_elimination):
    """A ``str`` is one scalar, even one whose length is right, and never a
    vector of its characters; each refusal names the argument and comes
    before any elimination."""
    name, length, call = VECTORS[entry]
    for value in ("12", "0" * (length or 1), 5, None):
        message = rf"^{name} must be an iterable of scalars, got {re.escape(repr(value))}\Z"
        with pytest.raises(TypeError, match=message):
            call(value)
    if length is None:
        return
    message = rf"^{name} length {length + 1} does not match {length}\Z"
    with pytest.raises(ValueError, match=message):
        call([0] * (length + 1))


@pytest.mark.parametrize("entry", list(VECTORS))
def test_vector_arguments_take_any_iterable_of_scalars(entry):
    """Lists, iterators and generators are vectors as tuples are."""
    name, length, call = VECTORS[entry]
    n = length or 3
    for value in ((0,) * n, [0] * n, iter([0] * n), (0 for _ in range(n))):
        call(value)


def _not_an_int(name, value):
    return pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an int, got {re.escape(repr(value))}\Z")


@pytest.mark.parametrize("value", BAD_INTS, ids=repr)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_integer_arguments_reject_other_values(entry, value):
    name, call = ENTRY_POINTS[entry]
    with _not_an_int(name, value):
        call(value)


def test_every_public_draw_checks_its_arguments():
    """A function of ``harness`` named as a draw has its rows in DRAWS, so a
    new public draw that does not check its arguments fails here."""
    draws = {
        name for name, fn in inspect.getmembers(harness, inspect.isfunction)
        if fn.__module__ == harness.__name__ and name.startswith(("random_", "targeted_"))
    }
    assert draws == {entry.split()[0] for entry in DRAWS}


@pytest.mark.parametrize("entry", list(DRAWS))
def test_draws_check_their_arguments_before_drawing(entry):
    """Each draw refuses a value that is not an int, or is below the
    parameter's floor, by the parameter's name and before it draws."""
    name, low, draw = DRAWS[entry]
    rng = random.Random(0)
    state = rng.getstate()
    for value in BAD_INTS:
        with _not_an_int(name, value):
            draw(rng, value)
    with pytest.raises(ValueError, match=rf"^{name} must be at least {low}, got {low - 1}\Z"):
        draw(rng, low - 1)
    assert rng.getstate() == state


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


# each relation draw, the call one coordinate past the cap, and what its message names
RELATION_DRAWS = {
    "random_mixed_relation": (
        lambda rng: random_mixed_relation(rng, MAX_AMBIENT_DIM, 1),
        rf"dim_x {MAX_AMBIENT_DIM} and dim_y 1 make",
    ),
    "random_selfadjoint": (
        lambda rng: random_selfadjoint(rng, MAX_AMBIENT_DIM // 2 + 1),
        rf"2 \* dim {MAX_AMBIENT_DIM + 2} makes",
    ),
}


@pytest.mark.parametrize("draw", list(RELATION_DRAWS))
def test_relation_draws_obey_the_coordinate_cap(draw):
    make, named = RELATION_DRAWS[draw]
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=rf"^{named} dim_x \+ dim_y exceed the limit {MAX_AMBIENT_DIM}\Z"):
        make(rng)
    assert rng.getstate() == state


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
