"""Command-line front end.

Exit codes: 0 success, 1 negative decision (Jacobi violations, a failed
grading check or NotDerivable), 2 usage or input errors (bad arguments,
parse errors, a catalog family parameter out of range, a table that is
not nilpotent, a class above the BCH cap in `bch`, `diff` and
`goodman`), 3 internal errors (any other
exception), 141 (128 + SIGPIPE) when the reader of stdout has gone away,
with nothing on stderr.  Every verb but `check` rejects a bracket table that
violates the Jacobi identity as an input error, and every verb rejects one
that is not nilpotent.  All error text goes to stderr;
`--json` renders the same values as one JSON document with numbers as
strings.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import bch, carnot, catalog, derivability, goodman, lie
from .lie import LieAlgebra


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it
# argparse takes a value like -1,1,0 after a space for an option of its own
POINT_HELP = "comma-separated rational coordinates; with a negative first one write --%(dest)s=-1,1,0"


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _catalog_entry(name: str) -> catalog.CatalogEntry:
    """A catalog entry; an unknown name or a family parameter out of range is an input error."""
    try:
        return catalog.get(name)
    except catalog.UnknownEntryError as exc:
        # KeyError.__str__ quotes its message, so take the message itself
        raise CliError(exc.args[0]) from exc
    except ValueError as exc:
        raise CliError(f"catalog entry {name!r}: {exc}") from exc


def _read_algebra(source: str) -> LieAlgebra:
    if source.startswith("catalog:"):
        return _catalog_entry(source[len("catalog:") :]).algebra
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8-sig")  # UTF-8, with or without a byte order mark
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {source!r}: {exc}") from exc
    try:
        return lie.parse_algebra(text)
    except lie.AlgebraFormatError as exc:
        raise CliError(f"parse error in {source!r}: {exc}") from exc


def _load_algebra(source: str) -> LieAlgebra:
    """The algebra named by `source`, which must satisfy the Jacobi identity
    and be nilpotent (`lie.NotNilpotentError` otherwise; the series is cached on g)."""
    g = _read_algebra(source)
    violations = lie.check_jacobi(g)
    if violations:
        i, j, k, _ = violations[0]
        raise CliError(
            f"{source!r} violates the Jacobi identity on the triple "
            f"({g.labels[i]},{g.labels[j]},{g.labels[k]}); run `nilgrade check` for all of them"
        )
    lie.lower_central_series(g)
    return g


def _vec(v) -> str:
    return ",".join(map(str, v))


def _parse_vec(text: str, dim: int):
    try:
        coords = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed coordinate list {text!r}") from exc
    if len(coords) != dim:
        raise CliError(f"expected {dim} coordinates, got {len(coords)}")
    return coords


def _matrix_lines(d: derivability.GradingOperator) -> list[str]:
    """d's rows as `_vec` writes its dense matrix, from its integer rows:
    each stored entry as its Fraction, "0" in every other column."""
    lines = []
    for row, n in zip(d.int_rows, d.shape):
        cells = ["0"] * n
        for j, x in row.items():
            cells[j] = str(Fraction(x, d.den))
        lines.append(",".join(cells))
    return lines


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` for str, bool, None, int, list and dict
    (with str keys), escaping strings with the C encoder that `json.dumps`
    also uses; the indenting encoder of `json` runs in pure Python."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_check(args) -> int:
    g = _read_algebra(args.source)
    violations = lie.check_jacobi(g)
    if violations:
        payload = {
            "command": "check",
            "jacobi": "violated",
            "violations": [
                {"triple": [i + 1, j + 1, k + 1], "value": _vec(v)} for i, j, k, v in violations
            ],
        }
        lines = ["Jacobi identity violated on triples:"] + [
            f"  ({i+1},{j+1},{k+1}): {_vec(v)}" for i, j, k, v in violations
        ]
        _emit(args, payload, lines)
        return 1
    f = lie.lower_central_series(g)
    tau = f.quotient_dims
    payload = {
        "command": "check",
        "jacobi": "ok",
        "dim": str(g.dim),
        "class": str(f.nilpotency_class),
        "tau": [str(t) for t in tau],
    }
    lines = [
        "Jacobi identity: ok",
        f"dim = {g.dim}",
        f"nilpotency class = {f.nilpotency_class}",
        "tau = (" + ",".join(str(t) for t in tau) + ")",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_e(args) -> int:
    g = _load_algebra(args.source)
    result = derivability.e_invariant(g)
    # the witness grades g with the quotients of its lower central series
    layer_dims = [str(d) for d in lie.lower_central_series(g).quotient_dims]
    witness = _matrix_lines(result.witness)
    payload = {"command": "e", "e": str(result.e), "witness": witness, "layer_dims": layer_dims}
    lines = [
        f"e = {result.e}",
        f"witness layer dims = ({','.join(layer_dims)})",
        "witness (rows):",
    ] + ["  " + row for row in witness]
    _emit(args, payload, lines)
    return 0


def _cmd_derivable(args) -> int:
    g = _load_algebra(args.source)
    try:
        conditions = derivability.parse_condition_set(args.cond)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    witness = derivability.is_A_derivable(g, conditions)
    if witness is None:
        _emit(
            args,
            {"command": "derivable", "conditions": args.cond, "result": "NotDerivable"},
            ["NotDerivable"],
        )
        return 1
    rows = _matrix_lines(witness)
    payload = {"command": "derivable", "conditions": args.cond, "result": "derivable", "witness": rows}
    lines = ["derivable; witness (rows):"] + ["  " + row for row in rows]
    _emit(args, payload, lines)
    return 0


def _bch_filtration(g: LieAlgebra) -> lie.Filtration:
    """g's lower central series, once its class is known to be within the BCH cap."""
    f = lie.lower_central_series(g)
    if f.nilpotency_class > bch.MAX_SUPPORTED_CLASS:
        raise CliError(
            f"nilpotency class {f.nilpotency_class} is above {bch.MAX_SUPPORTED_CLASS}, "
            "the largest class the BCH group law supports"
        )
    return f


def _cmd_carnot(args) -> int:
    g = _load_algebra(args.source)
    ca = carnot.carnot_algebra(g, derivability.e_invariant(g).witness)
    text = carnot.serialize_carnot(ca)
    payload = {
        "command": "carnot",
        "degrees": [str(d_) for d_ in ca.degrees],
        "definition": text,
    }
    _emit(args, payload, [text.rstrip("\n")])
    return 0


def _cmd_bch(args) -> int:
    g = _load_algebra(args.source)
    f = _bch_filtration(g)
    x = _parse_vec(args.x, g.dim)
    y = _parse_vec(args.y, g.dim)
    if args.carnot:
        _, ca = carnot.carnot_pair(g, derivability.e_invariant(g).witness)
        product = bch.carnot_product(ca, x, y)
        note = "coordinates: grading eigenbasis; law: graded bracket"
    else:
        product = bch.bch_product(g, f, x, y)
        note = "coordinates: original basis"
    payload = {"command": "bch", "product": _vec(product), "note": note}
    _emit(args, payload, [_vec(product)])
    return 0


def _cmd_diff(args) -> int:
    g = _load_algebra(args.source)
    _bch_filtration(g)
    x = _parse_vec(args.x, g.dim)
    y = _parse_vec(args.y, g.dim)
    g_eig, ca = carnot.carnot_pair(g, derivability.e_invariant(g).witness)
    diff = bch.law_difference(g_eig, ca, x, y)
    payload = {
        "command": "diff",
        "difference": _vec(diff),
        "note": "coordinates: grading eigenbasis of the e-invariant witness",
    }
    _emit(args, payload, [_vec(diff)])
    return 0


def _cmd_goodman(args) -> int:
    if args.samples < 1:
        raise CliError("--samples must be at least 1")
    if args.tmax < 0:
        raise CliError("--tmax must be at least 0")
    if args.tmax > 1023:
        raise CliError("--tmax must be at most 1023: a grid coordinate of 1 gives the radius 2^tmax, and a float ends below 2^1024")
    g = _load_algebra(args.source)
    _bch_filtration(g)
    d = derivability.e_invariant(g).witness
    ladder = [Fraction(2) ** k for k in range(args.tmax + 1)]
    report = goodman.goodman_check(g, d, args.samples, ladder, args.seed)
    payload = {"command": "goodman", "report": report.to_json_dict()}
    lines = [
        f"e_D = {report.e_d}",
        f"samples = {len(report.samples)} (pairs={args.samples}, ladder=2^0..2^{args.tmax})",
        f"identically_zero = {report.identically_zero}",
        "fitted_slope = "
        + ("n/a" if report.fitted_slope is None else f"{report.fitted_slope:.12g}"),
        f"constant_estimate = {report.constant_estimate:.12g}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_grading(args) -> int:
    g = _load_algebra(args.source)
    try:
        degrees = [int(part) for part in args.degrees.split(",")]
    except ValueError as exc:
        raise CliError(f"malformed degree list {args.degrees!r}") from exc
    if len(degrees) != g.dim or any(d_ < 1 for d_ in degrees):
        raise CliError(f"need {g.dim} positive degrees")
    ok, violations = carnot.verify_grading(g, degrees)
    payload = {
        "command": "grading",
        "degrees": [str(d_) for d_ in degrees],
        "result": "grading" if ok else "not a grading",
        "violations": [[i + 1, j + 1] for i, j in violations],
    }
    if ok:
        _emit(args, payload, ["grading: yes"])
        return 0
    lines = ["grading: no; violating pairs:"] + [f"  ({i+1},{j+1})" for i, j in violations]
    _emit(args, payload, lines)
    return 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        payload = {"command": "catalog", "names": catalog.names()}
        _emit(args, payload, catalog.names())
        return 0
    if not args.name:
        raise CliError("catalog show needs a name")
    entry = _catalog_entry(args.name)
    payload = {
        "command": "catalog",
        "name": entry.name,
        "aliases": list(entry.aliases),
        "definition": entry.definition,
        "note": entry.note,
    }
    lines = [f"name: {entry.name}"]
    if entry.aliases:
        lines.append("aliases: " + ", ".join(entry.aliases))
    if entry.note:
        lines.append(f"note: {entry.note}")
    lines.append(entry.definition.rstrip("\n"))
    _emit(args, payload, lines)
    return 0


@functools.cache  # one tree per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilgrade",
        description=(
            "Exact computations on nilpotent Lie algebras: derivability "
            "conditions, the e-invariant, Carnot-graded companions, "
            "truncated BCH group laws and difference-law sampling."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.set_defaults(fn=fn)
        return p

    p = add("check", _cmd_check, help="Jacobi check, nilpotency class and layer dims")
    p.add_argument("source", help="file path or catalog:<name>")

    p = add("e", _cmd_e, help="e-invariant with witness operator")
    p.add_argument("source")

    p = add("derivable", _cmd_derivable, help="decide A-derivability")
    p.add_argument("source")
    p.add_argument("--cond", required=True, help='condition set, e.g. "(1,1|3),(1,2|4)"')

    p = add("carnot", _cmd_carnot, help="emit the associated Carnot-graded algebra")
    p.add_argument("source")

    p = add("bch", _cmd_bch, help="group product in exponential coordinates")
    p.add_argument("source")
    p.add_argument("--x", required=True, help=POINT_HELP)
    p.add_argument("--y", required=True, help=POINT_HELP)
    p.add_argument("--carnot", action="store_true", help="use the graded law")

    p = add("diff", _cmd_diff, help="difference of the two group laws")
    p.add_argument("source")
    p.add_argument("--x", required=True, help=POINT_HELP)
    p.add_argument("--y", required=True, help=POINT_HELP)

    p = add("goodman", _cmd_goodman, help="sample the difference-law inequality")
    p.add_argument("source")
    p.add_argument(
        "--samples", type=int, default=50,
        help="base pairs to draw; no upper bound: the report holds samples * (tmax+1) rungs",
    )
    p.add_argument(
        "--tmax", type=int, default=10,
        help="ladder 2^0..2^tmax, tmax <= 1023 (radii are floats); at class c dilated coordinates reach 2^(tmax*c)",
    )
    p.add_argument("--seed", type=int, default=0)

    p = add("grading", _cmd_grading, help="verify an explicit positive grading")
    p.add_argument("source")
    p.add_argument("--degrees", required=True, help="comma-separated positive integers")

    p = add("catalog", _cmd_catalog, help="list or show built-in algebras")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as in `nilgrade ... | head -1`
        return EXIT_BROKEN_PIPE
    except (CliError, lie.AlgebraFormatError, lie.NotNilpotentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


def main() -> None:
    code = run()
    if code == EXIT_BROKEN_PIPE:
        # output still buffered would fail again in the flush at interpreter
        # exit and print a second error; let it drain into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
