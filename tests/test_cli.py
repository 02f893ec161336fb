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

from nilgrade import cli, derivability
from nilgrade.cli import run


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
    # neither option has an upper bound, so the help says what each costs
    code, out, _ = run_capture(capsys, ["goodman", "--help"])
    text = " ".join(out.split())
    assert code == 0
    assert "samples * (tmax+1) rungs" in text and "2^(tmax*c)" in text


def test_e_text_and_json_agree(capsys):
    code, text_out, _ = run_capture(capsys, ["e", "catalog:g6_17"])
    code2, json_out, _ = run_capture(capsys, ["e", "catalog:g6_17", "--json"])
    assert code == code2 == 0
    doc = json.loads(json_out)
    assert f"e = {doc['e']}" in text_out
    for row in doc["witness"]:
        assert row in text_out


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
    ],
)
@pytest.mark.parametrize("verb", CATALOG_VERBS)
def test_catalog_family_parameter_out_of_range_is_usage_error(capsys, verb, name, constraint):
    code, out, err = run_capture(capsys, _catalog_argv(verb, name))
    assert code == 2
    assert out == ""
    assert err == f"error: catalog entry {name!r}: {constraint}\n"


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
    ],
)
def test_goodman_rejects_bad_arguments(capsys, flags, message):
    code, out, err = run_capture(capsys, ["goodman", "catalog:g6_2", *flags])
    assert code == 2
    assert out == ""
    assert message in err


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
