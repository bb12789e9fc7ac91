"""Flat text format for relations.

Two header lines ``dim_x=<n>`` and ``dim_y=<m>``, then one generator per line
as space-separated rationals of length n + m.  Input generators need not be
independent or canonical; the parser reads each line straight into a
primitive integer row and canonicalizes.  A field is a rational literal,
whose grammar ``exact.RATIONAL_PATTERN`` alone defines.  Each generator line
is checked once against a pattern built from it, then converted in bulk; only
a line that fails the check, has a zero denominator or a literal longer than
``int`` reads, is read field by field, to name its first bad field.  Output
is the canonical basis, so serialization is deterministic: equal relations
produce byte-identical files.
The header may declare at most ``MAX_AMBIENT_DIM`` coordinates in all, which
bounds the time and memory a small file can ask for; ``check_ambient_limit``
applies that cap here and in ``harness.RelationSpec``.  Input is ASCII: a file
is rejected at its first other byte, and text gets the same answers, since
counts and rationals take only ASCII digits.  Lines end only at ``\n``,
``\r\n`` or ``\r``, and only spaces and tabs separate fields: any other
control character, and any non-ASCII whitespace, is rejected with its line.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Optional

from .exact import RATIONAL_PATTERN, echelon_rows, integer_row, literal_ratio, parse_ratio, text_rows
from .relation import LinearRelation
from .subspace import Subspace

# dim_x + dim_y above this is rejected, which bounds the work one file can ask
# for; the cap is not yet derived from a time budget.  Well inside it, an
# adjoint-level `linrel solve` of the dense 200/200 relation that
# `linrel gen --seed 1` writes against itself takes 46 s (2-core x86-64 VM,
# CPython 3.11).
MAX_AMBIENT_DIM = 1024

# error messages quote at most this many characters of an offending field
_ECHO_CHARS = 40

_COUNT_RE = re.compile(r"[+-]?[0-9]+\Z")
_NON_ASCII_RE = re.compile(rb"[\x80-\xff]")
# ASCII controls other than tab and the line ends, and whitespace beyond ASCII:
# ``str.splitlines`` and ``str.split`` would break lines or fields at them
_STRAY_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]|[^\S\x00-\x7f]")
_LINE_END_RE = re.compile(r"\r\n?|\n")
# a generator line all of whose fields are rational literals
_GENERATOR_RE = re.compile(rf"[ \t]*{RATIONAL_PATTERN}(?:[ \t]+{RATIONAL_PATTERN})*[ \t]*\Z")


def check_ambient_limit(dims: dict[str, int], where: str = "") -> None:
    """Raise ``ValueError``, its message prefixed by ``where``, if the
    dimensions ``dims`` (by name) add up to more than ``MAX_AMBIENT_DIM``."""
    if sum(dims.values()) > MAX_AMBIENT_DIM:
        named = " and ".join(f"{name} {d}" for name, d in dims.items())
        verb = "makes" if len(dims) == 1 else "make"
        raise ValueError(f"{where}{named} {verb} dim_x + dim_y exceed the limit {MAX_AMBIENT_DIM}")


def _line_of(text: str, at: int) -> int:
    """The number of the line holding position ``at`` of ``text``."""
    return len(_LINE_END_RE.findall(text, 0, at)) + 1


def _echo(field: str) -> str:
    if len(field) <= _ECHO_CHARS:
        return repr(field)
    return f"{field[:_ECHO_CHARS]!r}... ({len(field)} characters)"


def _literal_row(line: str, fields: list[str]) -> Optional[list[int]]:
    """The primitive integer row of the generator ``line``, split into
    ``fields``; None if some field is not a rational literal, has a zero
    denominator or more digits than ``int`` reads."""
    if _GENERATOR_RE.match(line) is None:
        return None
    try:
        if "/" in line:
            return integer_row(list(map(literal_ratio, fields)))
        row = list(map(int, fields))
    except (ValueError, ZeroDivisionError):  # over CPython's limit on digits, or q = 0
        return None
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def parse_relation_text(text: str, source: str = "<input>") -> LinearRelation:
    stray = _STRAY_RE.search(text)
    if stray is not None:
        ch, line = stray.group(), _line_of(text, stray.start())
        if ch.isascii():
            raise ValueError(f"{source}:{line}: control character 0x{ord(ch):02x}")
        raise ValueError(f"{source}:{line}: non-ASCII whitespace U+{ord(ch):04X}")
    lines = text.splitlines()
    dims = {}
    body_start = 0
    for expected in ("dim_x", "dim_y"):
        while body_start < len(lines) and not lines[body_start].strip():
            body_start += 1
        if body_start >= len(lines):
            raise ValueError(f"{source}:{body_start + 1}: missing header line {expected}=<count>")
        line = lines[body_start].strip()
        key, sep, value = line.partition("=")
        if sep != "=" or key.strip() != expected:
            raise ValueError(f"{source}:{body_start + 1}: expected {expected}=<count>, got {line!r}")
        value = value.strip()
        if _COUNT_RE.match(value) is None:
            raise ValueError(f"{source}:{body_start + 1}: bad count {_echo(value)}")
        try:
            dims[expected] = int(value)
        except ValueError:  # over CPython's limit on digits
            raise ValueError(f"{source}:{body_start + 1}: bad count {_echo(value)}") from None
        if dims[expected] < 0:
            raise ValueError(f"{source}:{body_start + 1}: negative dimension {dims[expected]}")
        check_ambient_limit(dims, f"{source}:{body_start + 1}: ")
        body_start += 1
    width = dims["dim_x"] + dims["dim_y"]
    generators = []
    for offset, line in enumerate(lines[body_start:], start=body_start + 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != width:
            raise ValueError(
                f"{source}:{offset}: generator has {len(fields)} entries, expected {width}"
            )
        row = _literal_row(line, fields)
        if row is None:  # some field fails ``parse_ratio``: name the first
            for j, field in enumerate(fields):
                try:
                    parse_ratio(field)
                except ValueError:
                    raise ValueError(
                        f"{source}:{offset}: field {j + 1}: bad rational {_echo(field)}"
                    ) from None
        generators.append(row)
    # the rows are integer rows of the right length already, so they go
    # straight to the kernel, as ``LinearRelation.from_generators`` would send them
    rows, _ = echelon_rows(generators, width)
    return LinearRelation(dims["dim_x"], dims["dim_y"], Subspace._make(width, rows))


def parse_relation_file(path: str) -> LinearRelation:
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.isascii():
        at = _NON_ASCII_RE.search(data).start()
        line = _line_of(data[:at].decode("ascii"), at)
        raise ValueError(f"{path}:{line}: non-ASCII byte 0x{data[at]:02x}")
    return parse_relation_text(data.decode("ascii"), source=path)


def serialize_relation(rel: LinearRelation) -> str:
    lines = [f"dim_x={rel.dim_x}", f"dim_y={rel.dim_y}"]
    lines += [" ".join(row) for row in text_rows(rel.graph.rows)]
    return "\n".join(lines) + "\n"


def write_relation_file(path: str, rel: LinearRelation) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(serialize_relation(rel))
