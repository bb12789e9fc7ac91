import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from linrel import LinearRelation, harness, parse_relation_text, serialize_relation
from linrel.cli import main
from linrel.files import MAX_AMBIENT_DIM

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoundTrip:
    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("roundtrip_*.rel")), ids=lambda p: p.name)
    def test_fixture_is_byte_stable(self, path):
        text = path.read_text()
        rel = parse_relation_text(text, source=str(path))
        assert serialize_relation(rel) == text

    def test_non_canonical_input_is_canonicalized(self, tmp_path, capsys):
        messy = tmp_path / "messy.rel"
        messy.write_text("dim_x=2\ndim_y=2\n2 0 6 0\n1 0 3 0\n0 2 0 0\n")
        code, out, _ = run(capsys, "compose", FIXTURES / "identity2.rel", messy)
        assert code == 0
        assert out == (FIXTURES / "scaled_proj_A.rel").read_text()

    def test_parse_reparse_fixed_point(self, tmp_path, capsys):
        src = FIXTURES / "roundtrip_07.rel"
        out_file = tmp_path / "copy.rel"
        code, _, _ = run(capsys, "compose", FIXTURES / "identity2.rel", FIXTURES / "scaled_proj_A.rel",
                         "--out", out_file)
        assert code == 0
        assert out_file.read_text() == (FIXTURES / "scaled_proj_A.rel").read_text()
        assert src.read_text() == serialize_relation(parse_relation_text(src.read_text()))


class TestInfo:
    def test_identity_graph(self, capsys):
        code, out, _ = run(capsys, "info", FIXTURES / "identity2.rel")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dim_x=2 dim_y=2"
        assert lines[1] == "dom=2 ran=2 ker=0 mul=0 operator=yes"
        assert "selfadjoint=yes" in lines[2]
        assert "dom_basis:" in out and "mul_basis:" in out

    def test_purely_multivalued(self, tmp_path, capsys):
        path = tmp_path / "mv.rel"
        path.write_text("dim_x=2\ndim_y=2\n0 0 1 0\n0 0 0 1\n")
        code, out, _ = run(capsys, "info", path)
        assert code == 0
        assert "dom=0 ran=2 ker=0 mul=2 operator=no" in out

    def test_projection_graph(self, capsys):
        code, out, _ = run(capsys, "info", FIXTURES / "proj_B.rel")
        assert code == 0
        assert "dom=2 ran=1 ker=1 mul=0 operator=yes" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "info", FIXTURES / "proj_B.rel", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dom"] == 2 and payload["mul"] == 0
        assert payload["operator"] is True

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.rel"
        path.write_text("dim_x=2\ndim_y=2\n1 0 x 0\n")
        code, _, err = run(capsys, "info", path)
        assert code == 1
        assert ":3:" in err and "field 3" in err

    def test_oversized_header_is_rejected_quickly(self, tmp_path, capsys):
        # 22 bytes that used to keep `info` busy for more than 20 s
        path = tmp_path / "huge.rel"
        path.write_text("dim_x=3000\ndim_y=3000\n")
        assert path.stat().st_size == 22
        start = time.monotonic()
        code, out, err = run(capsys, "info", path)
        assert time.monotonic() - start < 5
        assert code == 1 and out == ""
        assert f"{path}:1:" in err and str(MAX_AMBIENT_DIM) in err

    def test_long_bad_literal_is_echoed_short(self, tmp_path, capsys):
        # over CPython's 4 300-digit int limit; the whole field used to be echoed
        path = tmp_path / "long.rel"
        path.write_text("dim_x=1\ndim_y=1\n1 " + "7" * 5000 + "\n")
        code, out, err = run(capsys, "info", path)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert err.startswith(f"error: {path}:3: field 2: bad rational '777") and "5000" in err

    @pytest.mark.parametrize("body,line", [("\n1 é\n", 4), ("é 1\n", 3)], ids=["mid-line", "line start"])
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, capsys, body, line):
        path = tmp_path / "accent.rel"
        path.write_bytes(("dim_x=1\ndim_y=1\n" + body).encode("utf-8"))
        code, out, err = run(capsys, "info", path)
        assert code == 1 and out == ""
        assert err == f"error: {path}:{line}: non-ASCII byte 0xc3\n"

    @pytest.mark.parametrize(
        "data,message",
        [(b"dim_x=1\ndim_y=1\n1\x0b2\n", "control character 0x0b"),
         (b"dim_x=1\x0c\ndim_y=1\n1 \xc3\xa9\n", "non-ASCII byte 0xc3")],
        ids=["vertical tab", "non-ASCII after form feed"],
    )
    def test_reported_line_is_the_line_wc_counts(self, tmp_path, capsys, data, message):
        # the offending line is the last one, so its number is the count of
        # newlines, which is what `wc -l` prints; a \v or \f used to end a line
        path = tmp_path / "stray.rel"
        path.write_bytes(data)
        code, out, err = run(capsys, "info", path)
        assert code == 1 and out == ""
        lines = data.count(b"\n")
        assert err == f"error: {path}:{lines}: {message}\n"

    @pytest.mark.parametrize(
        "text,message",
        [("", "f.rel:1: missing header line dim_x=<count>"),
         ("dim_x=1\n", "f.rel:2: missing header line dim_y=<count>"),
         ("dim_y=1\ndim_x=1\n", "f.rel:1: expected dim_x=<count>, got 'dim_y=1'"),
         ("dim_x=" + "1" * 5000 + "\ndim_y=1\n",
          "f.rel:1: bad count '" + "1" * 40 + "'... (5000 characters)"),
         ("dim_x=-1\ndim_y=1\n", "f.rel:1: negative dimension -1"),
         ("\n\ndim_x=1\ndim_y=x\n", "f.rel:4: bad count 'x'")],
        ids=["empty", "no dim_y", "dim_y first", "count over int's digits", "negative", "bad dim_y"],
    )
    def test_bad_header_is_rejected(self, tmp_path, monkeypatch, capsys, text, message):
        monkeypatch.chdir(tmp_path)
        Path("f.rel").write_text(text)
        code, out, err = run(capsys, "info", "f.rel")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_underscored_count_is_rejected(self, tmp_path, capsys):
        # int() reads "1_0" as 10
        path = tmp_path / "underscore.rel"
        path.write_text("dim_x=1_0\ndim_y=1\n")
        code, out, err = run(capsys, "info", path)
        assert code == 1 and out == ""
        assert err == f"error: {path}:1: bad count '1_0'\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim_x=1\ndim_y=1\n1 ٣\n", "f.rel:3: field 2: bad rational '٣'"),
            ("dim_x=1\ndim_y=1\n３/４ 1\n", "f.rel:3: field 1: bad rational '３/４'"),
            ("dim_x=1_0\ndim_y=1\n", "f.rel:1: bad count '1_0'"),
            ("dim_x=1\ndim_y=١\n", "f.rel:2: bad count '١'"),
            ("dim_x=1\ndim_y=1\n1\u00a03\n", "f.rel:3: non-ASCII whitespace U+00A0"),
            ("dim_x=1\ndim_y=1\u2028\n", "f.rel:2: non-ASCII whitespace U+2028"),
            ("dim_x=1\ndim_y=1\n1 2\x1e1 3\n", "f.rel:3: control character 0x1e"),
            ("dim_x=1\ndim_y=1\n1\x1f2\n", "f.rel:3: control character 0x1f"),
            ("dim_x=1\x0bdim_y=1\n", "f.rel:1: control character 0x0b"),
            ("dim_x=1\r\ndim_y=1\r\n\x0c\r\n", "f.rel:3: control character 0x0c"),
            ("dim_x=1\rdim_y=1\r1 2\x7f\r", "f.rel:3: control character 0x7f"),
            ("dim_x=1\x00\ndim_y=1\n", "f.rel:1: control character 0x00"),
        ],
        ids=["arabic-indic digit", "fullwidth digits", "underscore", "count digit", "nbsp", "line separator",
             "record separator", "unit separator", "vertical tab", "form feed after CRLF",
             "delete after CR", "nul"],
    )
    def test_text_takes_only_what_a_file_can_hold(self, text, message):
        # each of these used to parse, as if its digits or spaces were ASCII
        with pytest.raises(ValueError) as caught:
            parse_relation_text(text, "f.rel")
        assert str(caught.value) == message

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_other_line_ends_parse(self, end):
        text = "dim_x=1\ndim_y=1\n1 2\n\n2\t4\n"
        assert parse_relation_text(text.replace("\n", end)) == parse_relation_text(text)

    def test_dimension_limit_is_on_the_sum(self):
        limit = MAX_AMBIENT_DIM
        rel = parse_relation_text(f"dim_x={limit // 2}\ndim_y={limit - limit // 2}\n")
        assert (rel.dim_x, rel.dim_y) == (limit // 2, limit - limit // 2)
        with pytest.raises(ValueError, match=r"^f\.rel:2: .*limit"):
            parse_relation_text(f"dim_x={limit // 2}\ndim_y={limit - limit // 2 + 1}\n", "f.rel")


class TestSolve:
    def test_worked_right_operator(self, tmp_path, capsys):
        witness = tmp_path / "witness.rel"
        code, out, _ = run(
            capsys, "solve", FIXTURES / "scaled_proj_A.rel", FIXTURES / "proj_B.rel",
            "--side", "right", "--level", "operator", "--out", witness,
        )
        assert code == 0
        assert "solvable=yes" in out and "verified=yes" in out
        code, out, _ = run(
            capsys, "verify", FIXTURES / "scaled_proj_A.rel", FIXTURES / "proj_B.rel", witness,
            "--side", "right",
        )
        assert code == 0
        assert "verified=yes" in out

    def test_range_violation_names_condition(self, capsys):
        code, out, _ = run(
            capsys, "solve", FIXTURES / "ran_violation_A.rel", FIXTURES / "proj_B.rel",
            "--side", "right", "--level", "operator",
        )
        assert code == 2
        assert "condition ran_subset held=no" in out
        assert "failed: ran_subset" in out

    def test_mul_dimension_violation(self, capsys):
        code, out, _ = run(
            capsys, "solve", FIXTURES / "mul_dim_A.rel", FIXTURES / "mul_dim_B.rel",
            "--side", "left", "--level", "operator",
        )
        assert code == 2
        assert "failed: mul_dim_le" in out

    def test_adjoint_level(self, tmp_path, capsys):
        # an adjoint-level witness solves the adjoint pair, and it is the
        # operator-level witness of the adjoint files
        for a, b, side in [("proj_B", "identity2", "right"), ("ran_violation_A", "proj_B", "right"),
                           ("proj_B", "scaled_proj_A", "left")]:
            work = tmp_path / f"{a}-{b}"
            work.mkdir()
            code, out, _ = run(
                capsys, "solve", FIXTURES / f"{a}.rel", FIXTURES / f"{b}.rel",
                "--side", side, "--level", "adjoint", "--out", work / "T.rel",
            )
            assert code == 0
            assert "level=adjoint" in out
            adjoints = work / "A_adj.rel", work / "B_adj.rel"
            for name, adjoint in zip((a, b), adjoints):
                assert run(capsys, "adjoint", FIXTURES / f"{name}.rel", "--out", adjoint)[0] == 0
            code, out, _ = run(capsys, "verify", *adjoints, work / "T.rel", "--side", side)
            assert code == 0 and "verified=yes" in out
            code, _, _ = run(capsys, "solve", *adjoints, "--side", side, "--level", "operator",
                             "--out", work / "T_op.rel")
            assert code == 0
            assert (work / "T.rel").read_text() == (work / "T_op.rel").read_text()

    @pytest.mark.parametrize("side, text, witness", [
        ("right", "dim_x=2\ndim_y=1\n1 0 1\n0 1 2\n", "witness dim_x=1 dim_y=2"),  # shares B's source
        ("left", "dim_x=1\ndim_y=2\n1 1 2\n", "witness dim_x=2 dim_y=1"),  # shares B's target
    ])
    def test_adjoint_level_between_spaces(self, tmp_path, capsys, side, text, witness):
        path = tmp_path / "a.rel"
        path.write_text(text)
        code, out, _ = run(
            capsys, "solve", path, FIXTURES / "identity2.rel", "--side", side, "--level", "adjoint",
        )
        assert code == 0
        assert witness in out.splitlines()

    @pytest.mark.parametrize("side, message", [
        ("right", "source dimensions differ: 2 vs 3"),
        ("left", "target dimensions differ: 3 vs 4"),
    ])
    def test_adjoint_level_names_mismatched_dimensions(self, capsys, side, message):
        # A from Q^2 to Q^3 and B from Q^3 to Q^4 share neither space
        code, out, err = run(
            capsys, "solve", FIXTURES / "roundtrip_11.rel", FIXTURES / "roundtrip_04.rel",
            "--side", side, "--level", "adjoint",
        )
        assert code == 1 and out == ""
        assert message in err

    def test_dimension_error_exits_one(self, capsys):
        code, _, err = run(
            capsys, "solve", FIXTURES / "mul_dim_A.rel", FIXTURES / "proj_B.rel",
            "--side", "right", "--level", "operator",
        )
        assert code == 1
        assert "error:" in err

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "solve", FIXTURES / "scaled_proj_A.rel", FIXTURES / "proj_B.rel",
            "--side", "right", "--level", "relation", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["solvable"] is True
        assert payload["witness"]["dim_x"] == 2

    def test_json_report_of_unsolvable_pair_is_one_object(self, capsys):
        code, out, _ = run(
            capsys, "solve", FIXTURES / "ran_violation_A.rel", FIXTURES / "proj_B.rel",
            "--side", "right", "--level", "operator", "--json",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["solvable"] is False
        failed = [c["name"] for c in payload["conditions"] if not c["held"]]
        assert failed == ["ran_subset"]

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_unwritable_out_prints_no_report(self, tmp_path, capsys, flags):
        # the witness is written before the report, so a report on stdout
        # never announces a file that does not exist
        code, out, err = run(
            capsys, "solve", FIXTURES / "scaled_proj_A.rel", FIXTURES / "proj_B.rel",
            "--side", "right", "--level", "operator", "--out", tmp_path, *flags,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(tmp_path) in err

    def test_unsolvable_pair_writes_no_witness(self, tmp_path, capsys):
        witness = tmp_path / "T.rel"
        code, out, _ = run(
            capsys, "solve", FIXTURES / "ran_violation_A.rel", FIXTURES / "proj_B.rel",
            "--side", "right", "--level", "operator", "--out", witness,
        )
        assert code == 2 and "failed: ran_subset" in out
        assert not witness.exists()


class TestUnaryCommands:
    def test_inverse_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "inv.rel"
        code, _, _ = run(capsys, "inverse", FIXTURES / "proj_B.rel", "--out", out_file)
        assert code == 0
        twice = tmp_path / "twice.rel"
        code, _, _ = run(capsys, "inverse", out_file, "--out", twice)
        assert code == 0
        assert twice.read_text() == (FIXTURES / "proj_B.rel").read_text()

    def test_adjoint_of_projection_is_itself(self, capsys):
        code, out, _ = run(capsys, "adjoint", FIXTURES / "proj_B.rel")
        assert code == 0
        assert out == (FIXTURES / "proj_B.rel").read_text()

    def test_adjoint_of_rectangular_turns_and_round_trips(self, tmp_path, capsys):
        # the adjoint of a relation from Q^2 to Q^3 goes from Q^3 to Q^2, and
        # its adjoint is the relation again
        fixture = FIXTURES / "roundtrip_11.rel"
        adjoint = tmp_path / "adjoint.rel"
        assert run(capsys, "adjoint", fixture, "--out", adjoint)[0] == 0
        assert adjoint.read_text().splitlines()[:2] == ["dim_x=3", "dim_y=2"]
        code, out, _ = run(capsys, "adjoint", adjoint)
        assert code == 0
        assert out == fixture.read_text()


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        first = tmp_path / "a.rel"
        second = tmp_path / "b.rel"
        args = ["gen", "--dim-x", "3", "--dim-y", "3", "--dom", "2", "--mul", "1",
                "--ker", "1", "--seed", "42"]
        assert run(capsys, *args, "--out", first)[0] == 0
        assert run(capsys, *args, "--out", second)[0] == 0
        assert first.read_text() == second.read_text()

    def test_profile_matches_request(self, tmp_path, capsys):
        path = tmp_path / "g.rel"
        code, _, _ = run(capsys, "gen", "--dim-x", "3", "--dim-y", "3", "--dom", "2",
                         "--mul", "1", "--ker", "1", "--seed", "7", "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "info", path)
        assert code == 0
        assert "dom=2 ran=2 ker=1 mul=1 operator=no" in out

    def test_gen_obeys_the_dimension_limit(self, source_env):
        # used to start a 1 200-wide elimination and write a file `info` rejects
        done = subprocess.run(
            [sys.executable, "-m", "linrel", "gen", "--dim-x", "600", "--dim-y", "600"],
            capture_output=True, text=True, env=source_env, timeout=10,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error:") and str(MAX_AMBIENT_DIM) in done.stderr

    def test_inconsistent_request(self, capsys):
        code, _, err = run(capsys, "gen", "--dim-x", "1", "--dim-y", "1", "--dom", "1",
                           "--mul", "1", "--ker", "0")
        assert code == 1
        assert "error:" in err


class TestCheck:
    def test_single_suite_green(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "graph_compose", "--cases", "20",
                           "--seed", "7")
        assert code == 0
        assert "suite=graph_compose" in out
        assert "failed=0" in out

    def test_failing_suite_exits_two_with_a_counterexample(self, capsys, monkeypatch):
        # a compose of the wrong shape fails every case; the graph_compose
        # suite shows both graphs of the counterexample
        monkeypatch.setattr(harness, "compose",
                            lambda outer, inner: LinearRelation.zero_relation(inner.dim_x, outer.dim_y + 1))
        code, out, _ = run(capsys, "check", "--suite", "graph_compose", "--cases", "2")
        assert code == 2
        head, shown = out.split("counterexample:\n")
        assert head == "suite=graph_compose\ncases=2\npassed=0\nfailed=2\n"
        lines = shown.splitlines()
        assert all(line.startswith("  ") for line in lines)
        label, a_text, b_text = re.split(r"^[AB]:\n", "".join(line[2:] + "\n" for line in lines), flags=re.M)
        assert label == "case 0: graph composition mismatch:\n"
        # each relation is shown as a file that reads back
        for text in (a_text, b_text):
            assert serialize_relation(parse_relation_text(text)) == text

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "bogus", "--cases", "1")
        assert code == 1
        assert "unknown suite" in err

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_cases_below_one_exits_one(self, capsys, cases):
        code, out, err = run(capsys, "check", "--suite", "determinism", "--cases", cases)
        assert code == 1
        assert out == ""
        assert err == f"error: cases must be at least 1, got {cases}\n"

    def test_sampler_failure_exits_one(self, capsys, monkeypatch):
        def give_up(*args, **kwargs):
            raise RuntimeError("failed to sample a full-rank matrix")

        monkeypatch.setattr(harness, "random_full_rank", give_up)
        code, out, err = run(capsys, "gen", "--dim-x", "2", "--dim-y", "2", "--dom", "1",
                             "--mul", "0", "--ker", "0")
        assert code == 1
        assert out == ""
        assert err == "error: failed to sample a full-rank matrix\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "determinism", "--cases", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "determinism"
        assert payload["failed"] == 0


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["check", "--cases", "abc"], ["solve", "a", "b"], ["bogus"], ["info"]],
        ids=["bad value", "missing option", "unknown command", "missing argument"],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        """argparse would exit 2, which the CLI reserves for unsolvable."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        captured = capsys.readouterr()
        assert exited.value.code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: linrel")
        assert [line for line in lines if "error:" in line] == [lines[-1]]
        assert lines[-1].startswith("linrel")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["solve", "--help"])
        assert exited.value.code == 0
        assert "--side" in capsys.readouterr().out

    def test_closed_stdout_is_no_input_error(self, source_env):
        # as `linrel check --suite full | head -1` once the reader has gone:
        # the read end is closed before the command writes anything
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "linrel", "check", "--suite", "full", "--cases", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=source_env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""


BENCH = ROOT / "scripts" / "bench.py"


def run_bench(*argv):
    return subprocess.run([sys.executable, str(BENCH), *argv], capture_output=True, text=True, timeout=60)


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_script_writes_its_figures(tmp_path):
    """A smoke run of ``scripts/bench.py`` at small d with one pass: two
    trees measured in one run land under their labels, each with the bytes
    its profile memo retains per entry, equal for equal trees, and with the
    kernel's and ``is_selfadjoint``'s figures at each d, every suite's
    figures per case, on ``SUITE_CASES`` cases, and one grid build per
    shape with its candidate count, whose quartiles bracket the median (one
    pass makes all three equal), and one full check's figures over the
    suites' default cases; the file names its command."""
    out, src = tmp_path / "bench.json", str(ROOT / "src")
    argv = ["--out", str(out), "--tree", f"a={src}", "--tree", f"b={src}", "--dims", "3,6", "--repeats", "1"]
    done = run_bench(*argv)
    assert done.returncode == 0, done.stderr
    report, cases = json.loads(out.read_text()), load_bench().SUITE_CASES
    assert report["command"] == argv
    assert set(report["runs"]) == {"a", "b"}
    for run in report["runs"].values():
        assert [row["d"] for row in run["results"]] == [3, 6]
        assert all(row["median_ms"] > 0 and row["max_entry_bits"] > 0 for row in run["results"])
        assert [row["d"] for row in run["is_selfadjoint"]] == [3, 6]
        suites = [(row["suite"], row["cases"]) for row in run["suites"]]
        assert suites == [(name, cases) for name in harness.list_suites()]
        grids = [(tuple(row["shape"]), row["bound"], row["candidates"]) for row in run["brute"]]
        assert grids == [((1, 1), 2, 8), ((1, 2), 2, 42), ((2, 1), 2, 390), ((2, 2), 2, 16306)]
        full = run["full_check"]
        assert full["cases"] == sum(default for _, default in harness.SUITES.values()) == 3650
        weighted = sum(harness.SUITES[row["suite"]][1] * row["median_ms"] for row in run["suites"])
        assert full["median_ms"] == pytest.approx(weighted, abs=1e-3)
        for row in run["results"] + run["is_selfadjoint"] + run["suites"] + run["brute"] + [full]:
            assert 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
    memos = [run["profile_memo"] for run in report["runs"].values()]
    assert memos[0] == memos[1]
    assert 0 < memos[0]["entries"] <= memos[0]["relations"] and memos[0]["bytes_per_entry"] > 0


def test_bench_times_shared_suites_from_an_empty_memo():
    """``time_suites`` times only the suites that every tree lists, clearing
    the tree's profile memo before each pass of ``SUITE_CASES`` cases at seed
    0, and a failing suite stops it with a message that names the suite and
    the tree."""
    bench, calls = load_bench(), []

    def tree(suites, failing=()):
        def run_suite(name, cases, seed):
            calls.append((name, cases, seed))
            failed = cases if name in failing else 0
            return harness.SuiteResult(name, cases, cases - failed, failed, "case 0: stub" if failed else None)

        memo = SimpleNamespace(cache_clear=lambda: calls.append("clear"))
        return SimpleNamespace(harness=SimpleNamespace(list_suites=lambda: suites, run_suite=run_suite),
                               relation=SimpleNamespace(profile=memo))

    figures = bench.time_suites({"a": tree(("first", "second")), "b": tree(("first",))}, 2)
    assert [rows["a"]["suite"] for rows in figures] == ["first"]
    assert calls == ["clear", ("first", bench.SUITE_CASES, 0)] * 4
    with pytest.raises(SystemExit, match="suite second failed on tree a"):
        bench.time_suites({"a": tree(("first", "second"), failing=("second",))}, 1)


@pytest.mark.parametrize("argument, value", [("--dims", "3,x"), ("--dims", "3,3"), ("--tree", "a=/nonexistent"),
                                             ("--out", "/nonexistent/dir/x.json"),
                                             pytest.param("--out", str(ROOT), id="--out-a directory")])
def test_bench_rejects_a_bad_argument(tmp_path, argument, value):
    """A bad ``--dims`` (a repeated d included), ``--tree`` or ``--out``
    exits 2 with the usage line and a message that names the argument,
    before anything is written."""
    out = tmp_path / "bench.json"
    argv = {"--out": str(out), "--dims": "3", "--repeats": "1", argument: value}
    done = run_bench(*[x for pair in argv.items() for x in pair])
    assert done.returncode == 2
    assert done.stderr.startswith("usage: bench.py")
    assert f"argument {argument}: " in done.stderr
    assert not out.exists()
