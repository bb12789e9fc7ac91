"""The relation-file parser against a field-by-field reference.

``parse_relation_text`` checks each generator line once and converts it in
bulk; only a line that fails the check is read field by field, to name its
first bad field.  So every answer and every error message must be those of
the reference below, which reads every field with ``parse_ratio``.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from linrel import LinearRelation, parse_relation_text
from linrel.exact import integer_row, parse_ratio


def reference(dim_x, dim_y, lines, source="f.rel"):
    """The relation spanned by ``lines``, read after a two-line header with
    every field through ``parse_ratio``; a ``ValueError`` as the parser words
    it for a bad line (fields here are short, so they are echoed whole)."""
    width = dim_x + dim_y
    generators = []
    for offset, line in enumerate(lines, start=3):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != width:
            raise ValueError(f"{source}:{offset}: generator has {len(fields)} entries, expected {width}")
        ratios = []
        for j, field in enumerate(fields):
            try:
                ratios.append(parse_ratio(field))
            except ValueError:
                raise ValueError(f"{source}:{offset}: field {j + 1}: bad rational {field!r}") from None
        generators.append(integer_row(ratios))
    return LinearRelation.from_generators(dim_x, dim_y, generators)


def outcome(call):
    """What ``call`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return call()
    except ValueError as error:
        return f"ValueError: {error}"


def parse(dim_x, dim_y, lines):
    text = f"dim_x={dim_x}\ndim_y={dim_y}\n" + "".join(line + "\n" for line in lines)
    return parse_relation_text(text, "f.rel")


FIELD_CHARS = "0123456789+-/x٣"
integers = st.tuples(st.sampled_from(["", "+", "-", "0"]), st.integers(0, 20)).map(lambda t: f"{t[0]}{t[1]}")
ratios = st.tuples(integers, st.integers(-9, 9)).map(lambda t: f"{t[0]}/{t[1]}")
# mostly literals, so that most lines parse; a zero denominator now and then
fields = st.one_of(integers, ratios, integers, ratios, st.text(FIELD_CHARS, min_size=1, max_size=6))


@st.composite
def generator_lines(draw, width):
    """A line of ``width`` fields, or of some other count, or any text over
    the field characters, spaces and tabs."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(FIELD_CHARS + " \t", max_size=12))
    count = draw(st.sampled_from([width] * 8 + [max(width - 1, 0), width + 1]))
    line = draw(st.text(" \t", max_size=2))
    for i, word in enumerate(draw(st.lists(fields, min_size=count, max_size=count))):
        if i:
            line += draw(st.text(" \t", min_size=1, max_size=2))
        line += word
    return line + draw(st.text(" \t", max_size=2))


@st.composite
def relation_bodies(draw):
    dim_x = draw(st.integers(0, 4))
    dim_y = draw(st.integers(0, 4 - dim_x))
    return dim_x, dim_y, draw(st.lists(generator_lines(dim_x + dim_y), max_size=4))


@settings(max_examples=200)
@given(relation_bodies())
def test_parser_agrees_with_field_by_field_reference(body):
    dim_x, dim_y, lines = body
    assert outcome(lambda: parse(dim_x, dim_y, lines)) == outcome(lambda: reference(dim_x, dim_y, lines))


@pytest.mark.parametrize(
    "line,expected",
    [("2 4", (1, 2)), ("1 2", (1, 2)), ("1/3 2/3", (1, 2)), ("-1/-3 +02/3", (1, 2)), ("-0 5/-5", (0, 1))],
)
def test_each_spelling_parses_as_the_reference_reads_it(line, expected):
    rel = parse(1, 1, [line])
    assert rel == reference(1, 1, [line])
    assert rel == LinearRelation.from_generators(1, 1, [expected])


@pytest.mark.parametrize("line", ["1 x 3", "1/0 2 3", "٣ 1 1/2"])
def test_count_error_wins_over_a_bad_field(line):
    with pytest.raises(ValueError) as caught:
        parse(1, 1, [line])
    assert str(caught.value) == "f.rel:3: generator has 3 entries, expected 2"


@pytest.mark.parametrize(
    "line,field",
    [("1/2 1/0", 2), ("1 2/-0", 2), ("1/2 x", 2), ("1/+ 1", 1), ("1 2/3/4", 2)],
)
def test_bad_field_on_a_line_with_a_slash_is_named(line, field):
    with pytest.raises(ValueError) as caught:
        parse(1, 1, [line])
    bad = line.split()[field - 1]
    assert str(caught.value) == f"f.rel:3: field {field}: bad rational {bad!r}"


@pytest.mark.parametrize(
    "line,field", [("1/2 " + "7" * 5000, 2), ("1/" + "7" * 5000 + " 1", 1)], ids=["numerator", "denominator"]
)
def test_long_literal_on_a_line_with_a_slash_is_echoed_short(line, field):
    # over CPython's 4 300-digit int limit, so the bulk conversion raises
    # and the field-by-field reading names the field
    with pytest.raises(ValueError) as caught:
        parse(1, 1, [line])
    bad = line.split()[field - 1]
    assert str(caught.value) == f"f.rel:3: field {field}: bad rational {bad[:40]!r}... ({len(bad)} characters)"
