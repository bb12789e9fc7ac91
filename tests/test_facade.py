"""``Fraction`` and ``Matrix`` are the public façade of ``linrel.exact``:
the package itself computes and prints on integer rows only.

The test runs every solver, the relation operations, the text format, the
oracle, the brute-force search and the ``compose_oracle`` suite with the
façade's constructors patched to raise, and compares what they print with a
run made before the patch.
"""

import json
import re
from pathlib import Path

import linrel
from linrel import (
    LinearRelation,
    Matrix,
    brute_force_left_witness,
    brute_force_right_witness,
    cli,
    compose,
    exact,
    factor,
    files,
    harness,
    oracle_product_membership,
    parse_relation_text,
    profile,
    relation,
    run_suite,
    serialize_relation,
    subspace,
)

SRC = Path(linrel.__file__).resolve().parent
MODULES = (linrel, exact, subspace, relation, files, factor, harness, cli)
SOLVERS = [(side, level) for side in ("right", "left") for level in ("relation", "operator", "adjoint")]


def _pairs():
    """A multivalued A that only the relation-level solvers factor through B,
    and two pairs with fractional rows that every solver answers with a
    witness."""
    a = LinearRelation.from_generators(2, 2, [(1, 2, 0, 0), (0, 0, 3, 0)])
    b = LinearRelation.identity(2)
    c = LinearRelation.from_generators(2, 2, [(2, 1, 3, 0), (0, 3, 1, 1)])
    d = LinearRelation.from_generators(2, 2, [(3, 0, 1, 2), (1, 1, 0, 5)])
    return [(a, b), (c, b), (c, d)]


def _everything(tmp_path, capsys) -> list:
    """What the package prints and answers for the façade-free paths."""
    out = []
    for i, (a, b) in enumerate(_pairs()):
        path_a, path_b = tmp_path / f"a{i}.txt", tmp_path / f"b{i}.txt"
        files.write_relation_file(str(path_a), a)
        files.write_relation_file(str(path_b), b)
        for side, level in SOLVERS:
            for extra in ([], ["--json"]):
                cli.main(["solve", str(path_a), str(path_b), "--side", side, "--level", level, *extra])
                out.append(capsys.readouterr().out)
        cli.main(["info", str(path_a), "--json"])
        cli.main(["info", str(path_b)])
        out.append(capsys.readouterr().out)
        for side, level in SOLVERS:
            report = cli._SOLVERS[(side, level)](a, b)
            out.append(report.to_text() + json.dumps(report.to_json_dict()))
        for rel in (compose(b, a), a.adjoint(), a.inverse(), b.adjoint()):
            text = serialize_relation(rel)
            assert serialize_relation(parse_relation_text(text)) == text
            out.append(text)
        p = profile(a)
        out.append([repr(s) for s in (a.graph, p.dom, p.ran, p.ker, p.mul)])
        out.append([p.is_operator, p.is_everywhere_defined, p.is_surjective])
        out.append([oracle_product_membership(a, b, (x, 1), (2, z)) for x in range(-2, 3) for z in (-1, 6)])
    # unsolvable at operator level: B's range misses A's second coordinate
    a = LinearRelation.from_generators(1, 2, [(1, 1, 1)])
    b = LinearRelation.from_generators(1, 2, [(1, 1, 0)])
    out.append(brute_force_right_witness(a, b))
    out.append(serialize_relation(brute_force_left_witness(b, b)))
    out.append(run_suite("compose_oracle", 20))
    return out


def test_package_prints_and_decides_without_fraction_or_matrix(monkeypatch, tmp_path, capsys):
    before = _everything(tmp_path, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction or a Matrix was built inside the package")

    monkeypatch.setattr(Matrix, "__post_init__", refuse)
    for name in ("fraction_rows", "vector", "solve_linear"):
        original = getattr(exact, name)
        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)
    # the brute force's grids are built again under the refusal
    harness._operator_graph_candidates.cache_clear()
    assert _everything(tmp_path, capsys) == before


def test_only_exact_builds_fractions():
    builders = sorted(
        path.name for path in SRC.glob("*.py") if re.search(r"\bFraction\(", path.read_text(encoding="utf-8"))
    )
    assert builders == ["exact.py"]
