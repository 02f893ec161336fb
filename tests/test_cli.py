"""Command-line interface: verbs, exit codes, JSON/text agreement."""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_derivability import SPARSE_1000, moved_by
from test_lie import FIXTURES, rescaled_and_sheared

from nilgrade import catalog, cli, derivability
from nilgrade.cli import run
from nilgrade.derivability import e_invariant
from nilgrade.lie import parse_algebra, serialize_algebra


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, err = run_capture(capsys, ["check", "catalog:g6_17"])
    assert code == 0
    assert "nilpotency class = 5" in out
    assert "tau = (2,1,1,1,1)" in out


def test_check_json_matches_text(capsys):
    code, out, _ = run_capture(capsys, ["check", "catalog:g6_17", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "5"
    assert doc["tau"] == ["2", "1", "1", "1", "1"]


def test_e_verb(capsys):
    code, out, _ = run_capture(capsys, ["e", "catalog:g6_11"])
    assert code == 0
    assert "e = 1/2" in out
    assert "witness" in out


def test_e_verb_json(capsys):
    code, out, _ = run_capture(capsys, ["e", "catalog:g6_11", "--json"])
    doc = json.loads(out)
    assert doc["e"] == "1/2"
    assert len(doc["witness"]) == 6


def test_derivable_negative_exit_code(capsys):
    code, out, _ = run_capture(
        capsys, ["derivable", "catalog:counterexample11", "--cond", "(1,1|3),(1,2|4)"]
    )
    assert code == 1
    assert "NotDerivable" in out


def test_derivable_positive(capsys):
    code, out, _ = run_capture(
        capsys, ["derivable", "catalog:counterexample11", "--cond", "(1,2|4)"]
    )
    assert code == 0
    assert "witness" in out


def test_bch_verb(capsys):
    code, out, _ = run_capture(
        capsys, ["bch", "catalog:heisenberg", "--x", "1,0,0", "--y", "0,1,0"]
    )
    assert code == 0
    assert out.strip() == "1,1,1/2"


def test_bch_carnot_flag(capsys):
    # graded law of g6_2 on two degree-1 eigenbasis vectors:
    # x + y + [x,y]/2 + [x,[x,y]]/12 = (1,1,0,0,1/2,1/12)
    code, out, _ = run_capture(
        capsys,
        ["bch", "catalog:g6_2", "--x", "1,0,0,0,0,0", "--y", "0,1,0,0,0,0", "--carnot"],
    )
    assert code == 0
    assert out.strip() == "1,1,0,0,1/2,1/12"


def test_negative_first_coordinate_takes_the_equals_form(capsys, monkeypatch):
    # argparse reads "-1,1,0" after "--y" as an option; "--y=-1,1,0" passes
    # it as the value, and the help of both two-point verbs says so
    argv = ["bch", "catalog:heisenberg", "--x", "1,0,0"]
    assert run_capture(capsys, argv + ["--y=-1,1,0"])[:2] == (0, "0,1,1/2\n")
    code, _, err = run_capture(capsys, argv + ["--y", "-1,1,0"])
    assert code == 2 and "argument --y: expected one argument" in err
    monkeypatch.setenv("COLUMNS", "80")
    for verb in ("bch", "diff"):
        code, out, _ = run_capture(capsys, [verb, "--help"])
        assert code == 0 and "--x=-1,1,0" in out and "--y=-1,1,0" in out


def test_goodman_help_states_the_cost_of_samples_and_tmax(capsys):
    # --samples has no upper bound and --tmax one of 1023, so the help says
    # what each costs and where tmax stops
    code, out, _ = run_capture(capsys, ["goodman", "--help"])
    text = " ".join(out.split())
    assert code == 0
    assert "samples * (tmax+1) rungs" in text and "2^(tmax*c)" in text and "tmax <= 1023" in text


def test_e_text_and_json_agree(capsys):
    code, text_out, _ = run_capture(capsys, ["e", "catalog:g6_17"])
    code2, json_out, _ = run_capture(capsys, ["e", "catalog:g6_17", "--json"])
    assert code == code2 == 0
    doc = json.loads(json_out)
    assert f"e = {doc['e']}" in text_out
    for row in doc["witness"]:
        assert row in text_out



def dense_lines(d) -> list[str]:
    """d's rows written from its dense Fraction matrix, as witnesses once were."""
    return [",".join(map(str, row)) for row in d.matrix]


@pytest.mark.parametrize("name", FIXTURES)
def test_witness_lines_match_the_dense_rendering(name):
    # the witness of each catalog fixture and of the fixture moved by its
    # lower and upper shears, whose witnesses have denominators and, under
    # the upper shear, no zero pattern of a permutation
    g = catalog.get(name).algebra
    _, lower, upper = rescaled_and_sheared(g.dim)
    for alg in (g, moved_by(g, lower), moved_by(g, upper)):
        d = e_invariant(alg).witness
        assert cli._matrix_lines(d) == dense_lines(d)


def test_sparse_witness_text_matches_the_dense_rendering(tmp_path, capsys):
    # 1000 rows of 1000 columns, about 1000 of them nonzero
    path = tmp_path / "sparse1000.alg"
    path.write_text(SPARSE_1000)
    code, out, _ = run_capture(capsys, ["e", str(path)])
    d = e_invariant(parse_algebra(SPARSE_1000)).witness
    lines = out.splitlines()
    assert code == 0 and lines[:3] == ["e = 0", "witness layer dims = (997,2,1)", "witness (rows):"]
    assert lines[3:] == ["  " + row for row in dense_lines(d)]

def test_diff_verb(capsys):
    code, out, _ = run_capture(
        capsys, ["diff", "catalog:g6_2", "--x", "1,0,0,0,0,0", "--y", "0,0,1,1,0,0"]
    )
    assert code == 0
    assert out.strip().count(",") == 5


def test_carnot_verb_round_trips(capsys):
    from nilgrade.lie import parse_algebra

    code, out, _ = run_capture(capsys, ["carnot", "catalog:g6_2"])
    assert code == 0
    parsed = parse_algebra(out)
    assert parsed.dim == 6


def test_grading_verb(capsys):
    code, out, _ = run_capture(
        capsys, ["grading", "catalog:g7_1_21", "--degrees", "1,2,3,3,4,5,7"]
    )
    assert code == 0
    code, out, _ = run_capture(
        capsys, ["grading", "catalog:g7_0_8", "--degrees", "1,2,3,3,4,5,6"]
    )
    assert code == 1
    assert "(1,3)" in out


def test_goodman_verb(capsys):
    code, out, _ = run_capture(
        capsys,
        ["goodman", "catalog:g6_2", "--samples", "5", "--tmax", "4", "--seed", "3", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["e_D"] == "2/3"
    assert len(doc["report"]["samples"]) == 25


@pytest.mark.parametrize(
    "source, tmax, slope",
    [
        # ladder 2^0 only: a nonzero difference but no r > 1, so no slope
        ("catalog:g6_11", "0", None),
        # a Carnot algebra: the difference is identically zero
        ("catalog:filiform(5)", "0", "0"),
        ("catalog:g6_11", "3", "fitted"),
    ],
)
def test_goodman_fitted_slope_json_and_text(capsys, source, tmax, slope):
    argv = ["goodman", source, "--samples", "3", "--tmax", tmax]
    code, out, _ = run_capture(capsys, argv + ["--json"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["identically_zero"] == (slope == "0")
    if slope == "fitted":
        slope = report["fitted_slope"]
        assert isinstance(slope, str) and float(slope) > 0
    assert report["fitted_slope"] == slope
    assert ('"fitted_slope": null' in out) == (slope is None)
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert f"fitted_slope = {'n/a' if slope is None else slope}" in out.splitlines()


def test_catalog_list_and_show(capsys):
    code, out, _ = run_capture(capsys, ["catalog", "list"])
    assert code == 0
    assert "g6_11" in out
    code, out, _ = run_capture(capsys, ["catalog", "show", "g6_11"])
    assert code == 0
    assert "bracket e1 e2 = e4" in out


def test_unknown_catalog_name_is_usage_error(capsys):
    code, _, err = run_capture(capsys, ["e", "catalog:nope"])
    assert code == 2
    assert "unknown catalog entry" in err


# every verb that reads an algebra, with arguments it accepts, and `catalog show`
CATALOG_VERBS = [
    ["check"],
    ["e"],
    ["derivable", "--cond", "(1,1|3)"],
    ["carnot"],
    ["bch", "--x", "1", "--y", "1"],
    ["diff", "--x", "1", "--y", "1"],
    ["goodman"],
    ["grading", "--degrees", "1"],
    ["catalog", "show"],
]


def _catalog_argv(verb: list[str], name: str) -> list[str]:
    if verb[0] == "catalog":
        return [*verb, name]
    return [verb[0], f"catalog:{name}", *verb[1:]]


@pytest.mark.parametrize("verb", CATALOG_VERBS)
def test_unknown_catalog_name_prints_one_unquoted_line(capsys, verb):
    # a family name needs both parentheses or neither
    for name in ("nope", "filiform(6", "abelian 4)"):
        code, out, err = run_capture(capsys, _catalog_argv(verb, name))
        assert code == 2
        assert out == ""
        assert err == f"error: unknown catalog entry: {name!r}\n"


@pytest.mark.parametrize(
    "name, constraint",
    [
        ("filiform(2)", "standard filiform needs dimension >= 3"),
        ("abelian(0)", "dimension must be positive"),
        ("central_product(3,2)", "need 2 <= i < j"),
        ("cp(1,2)", "need 2 <= i < j"),
        # built in memory, so a family member's dimension is capped
        ("filiform(100000000000000000000)", "dimension must be at most 1000"),
        ("abelian(100000000000000000000)", "dimension must be at most 1000"),
        ("central_product(2,100000000000000000000)", "dimension must be at most 1000"),
    ],
)
@pytest.mark.parametrize("verb", CATALOG_VERBS)
def test_catalog_family_parameter_out_of_range_is_usage_error(capsys, verb, name, constraint):
    code, out, err = run_capture(capsys, _catalog_argv(verb, name))
    assert code == 2
    assert out == ""
    assert err == f"error: catalog entry {name!r}: {constraint}\n"


def test_dim_above_the_family_cap_is_a_parse_error(capsys, tmp_path):
    # an algebra is built in memory, so a file's dim is capped like a catalog
    # family member's dimension; the cap itself is read
    path = tmp_path / "big.alg"
    path.write_text("dim 1001\n")
    code, out, err = run_capture(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: parse error in {str(path)!r}: dim must be at most 1000 (line 1)\n"
    path.write_text("dim 1000\n")
    assert run_capture(capsys, ["check", str(path)])[0] == 0


def test_unreadable_file_is_usage_error(capsys):
    code, _, err = run_capture(capsys, ["check", "/no/such/file.alg"])
    assert code == 2


def test_undecodable_file_is_usage_error(capsys, tmp_path):
    # bytes that are not text fail like a missing file: one line, exit 2
    path = tmp_path / "f.alg"
    path.write_bytes(b"dim 3\n\xff\n")
    code, out, err = run_capture(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {str(path)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [
        b"\xef\xbb\xbfdim 3\nbracket e1 e2 = e3\n",  # a UTF-8 byte order mark
        b"dim 3\r\nbracket e1 e2 = e3\r\n",  # CRLF line ends
        b"\xef\xbb\xbfdim 3\r\nbasis x y z\xc3\xa9\r\nbracket x y = z\xc3\xa9\r\n",  # both, and a non-ASCII label
    ],
)
def test_check_reads_utf8_files_with_a_bom_or_crlf(capsys, tmp_path, data):
    path = tmp_path / "f.alg"
    path.write_bytes(data)
    code, out, err = run_capture(capsys, ["check", str(path)])
    assert code == 0, err
    assert "nilpotency class = 2" in out and err == ""


def test_malformed_condition_is_usage_error(capsys):
    # "1 0" is not the level 10: whitespace never joins two numbers
    for cond in ("(1|banana)", "(1, 2 | 1 0)"):
        code, out, err = run_capture(capsys, ["derivable", "catalog:g6_11", "--cond", cond])
        assert code == 2
        assert out == ""
        assert err == f"error: malformed condition set: {cond!r}\n"


@pytest.mark.parametrize(
    "cond, named, reason",
    [
        ("(1,1|0)", "(1,1|0)", "level must exceed the tuple sum"),
        ("(0,1|3)", "(0,1|3)", "tuple entries must be positive"),
        ("(1,1|3), (2, 1|3)", "(2,1|3)", "level must exceed the tuple sum"),
    ],
)
def test_invalid_condition_is_named(capsys, cond, named, reason):
    code, out, err = run_capture(capsys, ["derivable", "catalog:g6_11", "--cond", cond])
    assert code == 2
    assert out == ""
    assert err == f"error: condition {named}: {reason}\n"


def test_bad_vector_is_usage_error(capsys, monkeypatch):
    # the point is read before the e-scan that `bch --carnot` and `diff` need
    monkeypatch.setattr(derivability, "e_invariant", None)
    for carnot in ([], ["--carnot"]):
        code, _, err = run_capture(
            capsys, ["bch", "catalog:heisenberg", "--x", "1,0", "--y", "0,1,0", *carnot]
        )
        assert code == 2
        assert err == "error: expected 3 coordinates, got 2\n"
    code, _, err = run_capture(capsys, ["diff", "catalog:g6_11", "--x", "1,0", "--y", "0,1,0,0,0,0"])
    assert code == 2
    assert err == "error: expected 6 coordinates, got 2\n"


def test_label_the_bracket_grammar_cannot_name_is_usage_error(tmp_path, capsys):
    path = tmp_path / "label.alg"
    path.write_text("dim 3\nbasis a b 3c\nbracket a b = 3c\n")
    code, out, err = run_capture(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: parse error in {str(path)!r}: basis label '3c' must match [A-Za-z_]\\w* (line 2)\n"


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]) == 2


def test_runs_in_one_process_share_one_parser_tree(capsys, monkeypatch):
    # the tree is built by the first run and reused: a usage error, --help
    # and a valid verb answer on the reused tree exactly as on a fresh one
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_subparsers", lambda self, **kw: built.append(self) or add_subparsers(self, **kw)
    )
    cli._build_parser.cache_clear()
    try:
        cases = [["frobnicate"], ["--help"], ["check", "catalog:heisenberg"]]
        fresh = [run_capture(capsys, argv) for argv in cases]
        assert [code for code, _, _ in fresh] == [2, 0, 0]
        assert "invalid choice: 'frobnicate'" in fresh[0][2]
        assert fresh[1][1].startswith("usage: nilgrade")
        assert "nilpotency class = 2" in fresh[2][1]
        for _ in range(2):
            assert [run_capture(capsys, argv) for argv in cases] == fresh
        assert len(built) == 1
    finally:
        cli._build_parser.cache_clear()


def test_file_input(tmp_path, capsys):
    path = tmp_path / "heis.alg"
    path.write_text("dim 3\nbracket e1 e2 = e3\n")
    code, out, _ = run_capture(capsys, ["check", str(path)])
    assert code == 0
    assert "nilpotency class = 2" in out


def test_jacobi_violation_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("dim 3\nbracket e1 e2 = e1\nbracket e1 e3 = e2\n")
    code, out, _ = run_capture(capsys, ["check", str(path)])
    assert code == 1
    assert "violated" in out


def test_check_rejects_a_lie_algebra_that_is_not_nilpotent(tmp_path, capsys):
    # sl2 ⊕ ℝ satisfies Jacobi, but its lower central series stalls at sl2
    path = tmp_path / "sl2r.alg"
    path.write_text("dim 4\nbasis h e f z\nbracket h e = 2 e\nbracket h f = -2 f\nbracket e f = h\n")
    code, out, err = run_capture(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: lower central series does not reach zero\n"


def test_byte_identical_reruns(capsys):
    args = ["goodman", "catalog:g6_11", "--samples", "4", "--tmax", "3", "--seed", "11", "--json"]
    code1, out1, _ = run_capture(capsys, args)
    code2, out2, _ = run_capture(capsys, args)
    assert (code1, out1) == (code2, out2)


NON_JACOBI = "dim 6\nbracket e1 e2 = e3\nbracket e1 e3 = e4\nbracket e2 e3 = e5\nbracket e2 e4 = e6\n"


@pytest.mark.parametrize(
    "verb",
    [
        ["e"],
        ["carnot"],
        ["derivable", "--cond", "(1,1|3)"],
        ["bch", "--x", "1,0,0,0,0,0", "--y", "0,1,0,0,0,0"],
        ["diff", "--x", "1,0,0,0,0,0", "--y", "0,1,0,0,0,0"],
        ["goodman", "--samples", "2", "--tmax", "1"],
        ["grading", "--degrees", "1,1,2,3,3,4"],
    ],
)
def test_jacobi_violation_rejected_at_load(tmp_path, capsys, verb):
    # [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]] = -e6
    path = tmp_path / "nj.alg"
    path.write_text(NON_JACOBI)
    code, out, err = run_capture(capsys, [verb[0], str(path), *verb[1:]])
    assert code == 2
    assert out == ""
    assert "Jacobi identity on the triple (e1,e2,e3)" in err


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(g):
        raise RuntimeError("boom")

    monkeypatch.setattr(derivability, "e_invariant", broken)
    code, out, err = run_capture(capsys, ["e", "catalog:heisenberg"])
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError: boom")


def test_value_error_inside_a_verb_is_internal(monkeypatch, capsys):
    def broken(g):
        raise ValueError("dimension mismatch")

    monkeypatch.setattr(derivability, "e_invariant", broken)
    code, out, err = run_capture(capsys, ["e", "catalog:heisenberg"])
    assert code == 3
    assert err.startswith("internal error: ValueError: dimension mismatch")


def test_not_nilpotent_input_exit_2(tmp_path, capsys):
    path = tmp_path / "nn.alg"
    path.write_text("dim 2\nbracket e1 e2 = e1\n")
    code, out, err = run_capture(capsys, ["e", str(path)])
    assert code == 2
    assert err == "error: lower central series does not reach zero\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--samples", "0"], "--samples must be at least 1"),
        (["--samples", "-3", "--tmax", "-1"], "--samples must be at least 1"),
        (["--tmax", "-1"], "--tmax must be at least 0"),
        (["--samples", "2", "--tmax", "1024"], "--tmax must be at most 1023: a grid coordinate of 1 gives the radius 2^tmax"),
    ],
)
def test_goodman_rejects_bad_arguments(capsys, flags, message):
    code, out, err = run_capture(capsys, ["goodman", "catalog:g6_2", *flags])
    assert code == 2
    assert out == ""
    assert message in err


def test_goodman_takes_the_largest_tmax_whose_radii_are_floats(capsys):
    # at tmax = 1023 a grid coordinate of 1 dilates to the radius 2^1023,
    # the largest power of 2 a float holds, so the bound rejects no ladder
    # whose radii are all floats
    code, out, err = run_capture(capsys, ["goodman", "catalog:heisenberg", "--samples", "2", "--tmax", "1023"])
    assert (code, err) == (0, "")
    assert "ladder=2^0..2^1023" in out


FILIFORM10_X = "--x=1,0,0,0,0,0,0,0,0,0"
FILIFORM10_Y = "--y=0,1,0,0,0,0,0,0,0,0"


@pytest.mark.parametrize(
    "argv",
    [
        ["bch", FILIFORM10_X, FILIFORM10_Y],
        ["bch", FILIFORM10_X, FILIFORM10_Y, "--carnot"],
        ["diff", FILIFORM10_X, FILIFORM10_Y],
        ["goodman", "--samples", "1", "--tmax", "0"],
    ],
)
def test_class_above_bch_cap_is_usage_error(capsys, argv):
    verb, *flags = argv
    code, out, err = run_capture(capsys, [verb, "catalog:filiform(10)", *flags])
    assert code == 2
    assert out == ""
    assert err == (
        "error: nilpotency class 9 is above 8, the largest class the BCH group law supports\n"
    )


class _ClosedOnWrite(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class _ClosedOnFlush(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout", [_ClosedOnWrite, _ClosedOnFlush])
def test_closed_stdout_exits_141_quietly(monkeypatch, capsys, stdout):
    # a reader that went away (`nilgrade ... | head -1`) is no internal error
    monkeypatch.setattr(sys, "stdout", stdout())
    code = run(["goodman", "catalog:g6_11", "--samples", "3", "--tmax", "0", "--json"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_141_at_process_level():
    # the read end is closed before the interpreter has even started; with
    # block-buffered stdout the output waits in the buffer, which the
    # interpreter flushes again at exit, so a second error would show there
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilgrade", "check", "catalog:g6_11"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


# quotes, backslashes, control characters, the line separators, non-ASCII,
# an astral code point and a lone surrogate, beside any other character
json_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600\ud800') | st.characters())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"": [], "a": {}, "b": [[], {}, [[]], {"c": {}}], "\U0001f600\"\\": [True, False, None, -(10**30)]})
def test_json_writer_gives_the_bytes_of_the_indenting_encoder(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def json_source(tmp_path, name: str) -> str:
    """catalog:<name>, or for "sheared" a file holding g6_11 moved by the
    transposed shear, whose outputs carry denominators."""
    if name != "sheared":
        return f"catalog:{name}"
    g = catalog.get("g6_11").algebra
    path = tmp_path / "g6_11_sheared.alg"
    path.write_text(serialize_algebra(moved_by(g, rescaled_and_sheared(g.dim)[2])))
    return str(path)


def json_verbs(source: str, dim: int) -> list[list[str]]:
    x = ",".join(["1", "-1/2"] + ["1/3"] * (dim - 2))
    y = ",".join(["0", "1", "3/4"] + ["-2"] * (dim - 3))
    return [
        ["check", source],
        ["e", source],
        ["derivable", source, "--cond", "(1,1|3)"],
        ["derivable", source, "--cond", "(1,1|3),(1,2|4)"],
        ["carnot", source],
        ["bch", source, f"--x={x}", f"--y={y}"],
        ["bch", source, f"--x={x}", f"--y={y}", "--carnot"],
        ["diff", source, f"--x={x}", f"--y={y}"],
        ["goodman", source, "--samples", "3", "--tmax", "2", "--seed", "5"],
        # all degrees 1 grade no nonabelian algebra: violating pairs as int lists
        ["grading", source, "--degrees", ",".join(["1"] * dim)],
    ]


@pytest.mark.parametrize("name", ["g6_11", "counterexample11", "sheared"])
def test_every_json_document_is_the_indenting_encoders_text(tmp_path, capsys, name):
    source = json_source(tmp_path, name)
    dim = cli._read_algebra(source).dim
    nj = tmp_path / "nj.alg"
    nj.write_text(NON_JACOBI)
    extra = [
        # Jacobi violations: triples as int lists
        ["check", str(nj)],
        ["grading", "catalog:g7_1_21", "--degrees", "1,2,3,3,4,5,7"],
        ["catalog", "list"],
        ["catalog", "show", name if name != "sheared" else "heisenberg"],
    ]
    for argv in json_verbs(source, dim) + extra:
        code, out, err = run_capture(capsys, argv + ["--json"])
        assert code in (0, 1) and err == "", (argv, code, err)
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
