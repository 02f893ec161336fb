"""The three benchmark workloads: seeded requests plus their output checks.

Each workload builds, in `setup`, one *pass*: a list of requests in a
seeded order.  A request is a (key, call) pair whose call drives only
nilgrade's public API (or `nilgrade.cli.run`), looked up at call time so
that the tracer's wrappers apply.  The benchmark repeats whole passes;
the outputs of the first pass are checked by `check` against references,
and `canonical` renders every exact output for the pinned digests.

A request is *fixed* when its input does not depend on the seed; the
digest of the fixed requests is pinned for every seed, the digest of the
whole pass only for the workload's default seed.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import nilgrade as ng
from nilgrade import catalog, cli  # noqa: F401  (cli: loads nilgrade.cli for ng.cli.run)
from nilgrade.goodman import GridSampler

DEFAULT_SEED = 1

CATALOG = [entry.name for entry in catalog.entries()]
FILIFORM = [f"filiform({n})" for n in range(6, 13)]
CENTRAL = [f"central_product({i},{j})" for i, j in ((2, 3), (3, 5), (4, 7), (5, 8), (6, 10))]


def vec_text(v) -> str:
    return ",".join(str(x) for x in v)


def rows_text(op) -> str:
    return "/".join(vec_text(row) for row in op.matrix)


def _parse_rows(lines) -> ng.GradingOperator:
    return ng.GradingOperator.from_rows([[Fraction(x) for x in line.split(",")] for line in lines])


class Request:
    __slots__ = ("key", "call", "fixed", "expect")

    def __init__(self, key: str, call, fixed: bool, expect=None):
        self.key = key
        self.call = call
        self.fixed = fixed
        self.expect = expect


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.requests: list[Request] = []

    def setup(self) -> None:
        raise NotImplementedError

    def canonical(self, request: Request, output) -> str:
        raise NotImplementedError

    def check(self, request: Request, output) -> str | None:
        """Failure message for a first-pass output, or None when it is right."""
        raise NotImplementedError

    def _warm_bch_tables(self) -> None:
        for c in range(2, ng.bch.MAX_SUPPORTED_CLASS + 1):
            ng.bch_table(c)


class Decide(Workload):
    """Derivability decisions through library calls on 25 algebras."""

    name = "decide"
    drawn_per_algebra = 4

    def setup(self) -> None:
        names = ["heisenberg", "g6_11", "counterexample11", "filiform(6)", "central_product(2,3)"] \
            if self.smoke else CATALOG + FILIFORM + CENTRAL
        self.refs: dict[str, tuple] = {}
        requests = []
        for name in names:
            entry = catalog.get(name)
            text = entry.definition
            g = ng.parse_algebra(text)
            result = ng.e_invariant(g)
            c = ng.lower_central_series(g).nilpotency_class
            self.refs[name] = (text, result, entry.expected)
            witness = result.witness
            requests.append(Request(f"e {name}", _e_call(text), True, name))
            requests.append(Request(f"certify {name}", _certify_call(text, witness), True, name))
            exp = entry.expected
            recorded = []
            if exp is not None:
                if exp.failure:
                    recorded.append((exp.failure, False))
                recorded += [(s, True) for s in exp.derivable]
                recorded += [(s, False) for s in exp.not_derivable]
            for conds, feasible in recorded:
                key = f"derivable {name} recorded {_cs_text(conds)}"
                requests.append(Request(key, _derivable_call(text, conds), True, (name, feasible)))
            pool = sorted(ng.enumerate_S(c)) if c >= 3 else []
            for cond in self.rng.sample(pool, min(self.drawn_per_algebra, len(pool))):
                feasible = True if Fraction(sum(cond.wp), cond.level) > result.e else None
                key = f"derivable {name} drawn {cond}"
                requests.append(Request(key, _derivable_call(text, frozenset([cond])), False, (name, feasible)))
        self.rng.shuffle(requests)
        self.requests = requests

    def canonical(self, request, output) -> str:
        if request.key.startswith("e "):
            return f"{output.e}|{rows_text(output.witness)}"
        if request.key.startswith("certify "):
            return str(output)
        return "NotDerivable" if output is None else rows_text(output)

    def check(self, request, output) -> str | None:
        kind = request.key.split(" ", 1)[0]
        if kind == "derivable":
            name, feasible = request.expect
        else:
            name = request.expect
        text, result, exp = self.refs[name]
        recorded_e = exp.e_value if exp is not None else None
        if kind == "e":
            if output.e != result.e or (recorded_e is not None and output.e != recorded_e):
                return f"e = {output.e}, recorded {recorded_e}"
            if output.witness != result.witness:
                return "witness differs from the set-up witness"
            g = ng.parse_algebra(text)
            if not ng.is_grading_operator(g, ng.lower_central_series(g), output.witness):
                return "witness is not a grading operator"
            return None
        if kind == "certify":
            if output != result.e or (recorded_e is not None and output != recorded_e):
                return f"e_of_operator(witness) = {output}, e = {result.e}"
            return None
        if feasible is not None and (output is not None) != feasible:
            return f"derivable = {output is not None}, expected {feasible}"
        if output is not None:
            g = ng.parse_algebra(text)
            if not ng.is_grading_operator(g, ng.lower_central_series(g), output):
                return "derivability witness is not a grading operator"
        return None


def _cs_text(conds) -> str:
    return ",".join(str(c) for c in sorted(conds))


def _e_call(text):
    return lambda: ng.e_invariant(ng.parse_algebra(text))


def _certify_call(text, witness):
    return lambda: ng.e_of_operator(ng.parse_algebra(text), witness)


def _derivable_call(text, conds):
    return lambda: ng.is_A_derivable(ng.parse_algebra(text), conds)


ANALYZE_ALGEBRAS = ["g6_11", "g6_17", "g7_0_8", "counterexample11", "filiform(9)",
                    "central_product(4,7)", "central_product(5,8)"]
GOODMAN_SAMPLES, GOODMAN_TMAX = 8, 8


class Analyze(Workload):
    """Every CLI verb on algebras of class <= 8, each re-reading its file."""

    name = "analyze"

    def setup(self) -> None:
        names = ["g6_11", "counterexample11"] if self.smoke else ANALYZE_ALGEBRAS
        self._warm_bch_tables()
        sampler = GridSampler(self.rng.getrandbits(32))
        self.refs: dict[str, tuple] = {}
        self._references: dict[str, tuple] = {}
        requests = []
        for index, name in enumerate(names):
            entry = catalog.get(name)
            path = self.workdir / f"algebra{index}.alg"
            path.write_text(entry.definition)
            exp = entry.expected
            self.refs[name] = (entry.definition, exp)
            dim = ng.parse_algebra(entry.definition).dim

            def add(verb, args, fixed, **expect):
                argv = [verb, str(path), *args, "--json"]
                key = " ".join([verb, name, *args])
                requests.append(Request(key, _cli_call(argv), fixed, dict(expect, name=name, verb=verb)))

            add("check", [], True)
            add("e", [], True)
            add("carnot", [], True)
            if exp.derivable or exp.not_derivable:
                for conds in exp.derivable:
                    add("derivable", [f"--cond={_cs_text(conds)}"], True, code=0)
                for conds in exp.not_derivable:
                    add("derivable", [f"--cond={_cs_text(conds)}"], True, code=1)
            else:
                pool = [c for c in sorted(ng.enumerate_S(exp.nilpotency_class))
                        if Fraction(sum(c.wp), c.level) > exp.e_value]
                if pool:
                    add("derivable", [f"--cond={self.rng.choice(pool)}"], False, code=0)
                else:  # no condition lies above e; ask for the recorded failure instead
                    add("derivable", [f"--cond={_cs_text(exp.failure)}"], True, code=1)
            for verb, flags in (("bch", []), ("bch", ["--carnot"]), ("diff", [])):
                x, y = sampler.vector(dim), sampler.vector(dim)
                add(verb, [f"--x={vec_text(x)}", f"--y={vec_text(y)}", *flags], False,
                    x=x, y=y, graded=bool(flags))
            seed = self.rng.randrange(1 << 16)
            add("goodman", [f"--samples={GOODMAN_SAMPLES}", f"--tmax={GOODMAN_TMAX}", f"--seed={seed}"],
                False, seed=seed)
        self.rng.shuffle(requests)
        self.requests = requests

    def canonical(self, request, output) -> str:
        code, stdout = output
        return f"{code}|{stdout}"

    def check(self, request, output) -> str | None:
        expect = request.expect
        verb = expect["verb"]
        code, stdout = output
        if code != expect.get("code", 0):
            return f"exit code {code}, expected {expect.get('code', 0)}"
        doc = json.loads(stdout)
        exp = self.refs[expect["name"]][1]
        g, f, result, g_eig, ca = self._reference(expect["name"])
        if verb == "check":
            if doc["jacobi"] != "ok" or int(doc["class"]) != exp.nilpotency_class \
                    or tuple(int(t) for t in doc["tau"]) != exp.tau:
                return "check output does not match the recorded class and tau"
        elif verb == "e":
            e = Fraction(doc["e"])
            witness = _parse_rows(doc["witness"])
            if e != result.e or (exp.e_value is not None and e != exp.e_value):
                return f"e = {e}, recorded {exp.e_value}"
            if witness != result.witness or not ng.is_grading_operator(g, f, witness):
                return "e witness differs or is not a grading operator"
            if ng.e_of_operator(g, witness) != e:
                return "e_of_operator(witness) != e"
        elif verb == "carnot":
            if doc["definition"] != ng.serialize_carnot(ca) or \
                    tuple(int(d) for d in doc["degrees"]) != ca.degrees:
                return "carnot companion differs from the library's"
        elif verb == "derivable":
            if code == 0 and not ng.is_grading_operator(g, f, _parse_rows(doc["witness"])):
                return "derivability witness is not a grading operator"
        elif verb == "goodman":
            report = doc["report"]
            if Fraction(report["e_D"]) != result.e or report["seed"] != str(expect["seed"]) \
                    or len(report["samples"]) != GOODMAN_SAMPLES * (GOODMAN_TMAX + 1):
                return "goodman report has the wrong e_D, seed or sample count"
        else:
            x, y = expect["x"], expect["y"]
            got = [Fraction(v) for v in doc["difference" if verb == "diff" else "product"].split(",")]
            if verb == "diff":
                a = ng.bch_product(g_eig, ng.lower_central_series(g_eig), x, y)
                want = [s - t for s, t in zip(a, ng.carnot_product(ca, x, y))]
            elif expect["graded"]:
                want = ng.carnot_product(ca, x, y)
                if ng.carnot_product(ca, got, ng.group_inverse(y)) != x:
                    return "graded law: (x*y)*(-y) != x"
            else:
                want = ng.bch_product(g, f, x, y)
                if ng.bch_product(g, f, got, ng.group_inverse(y)) != x:
                    return "(x*y)*(-y) != x"
            if got != want:
                return f"{verb} output differs from the library's"
        return None

    def _reference(self, name: str):
        """(g, filtration, e-invariant, eigenbasis algebra, Carnot companion), computed once."""
        if name not in self._references:
            g = ng.parse_algebra(self.refs[name][0])
            result = ng.e_invariant(g)
            g_eig, ca = ng.carnot_pair(g, result.witness)
            self._references[name] = (g, ng.lower_central_series(g), result, g_eig, ca)
        return self._references[name]


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = ng.cli.run(argv)
        return code, out.getvalue()
    return call


GROUPLAW_ALGEBRAS = ["g6_11", "g7_0_8", "counterexample11", "filiform(9)",
                     "central_product(4,7)", "central_product(5,8)"]
MAX_RUNG = 16


class GroupLaw(Workload):
    """Exact group products on the eigenbasis algebra and its Carnot companion.

    A pass holds every (algebra, kind, rung) combination `repeats` times,
    in seeded order with seeded grid vectors, so its cost mix does not
    depend on the seed.
    """

    name = "grouplaw"
    repeats = 3
    check_every = 25

    def setup(self) -> None:
        names = ["g6_11", "counterexample11"] if self.smoke else GROUPLAW_ALGEBRAS
        self.laws = []
        for name in names:
            g = ng.parse_algebra(catalog.get(name).definition)
            result = ng.e_invariant(g)
            g_eig, ca = ng.carnot_pair(g, result.witness)
            ctx = ng.GuivarchContext.for_carnot(ca)
            self.laws.append((name, g_eig, ng.lower_central_series(g_eig), ca, ctx))
        self._warm_bch_tables()
        for _, g_eig, f_eig, ca, _ in self.laws:  # fill the per-algebra integer bracket tables
            zero = [Fraction(0)] * g_eig.dim
            ng.bch_product(g_eig, f_eig, zero, zero)
            ng.carnot_product(ca, zero, zero)
        mix = [(law, kind, k) for law in self.laws for kind in ("bch", "carnot", "diff")
               for k in range(MAX_RUNG + 1)] * (1 if self.smoke else self.repeats)
        self.rng.shuffle(mix)
        sampler = GridSampler(self.rng.getrandbits(32))
        requests = []
        for index, ((name, g_eig, f_eig, ca, ctx), kind, k) in enumerate(mix):
            t = Fraction(2) ** k
            x = ng.dilate(ctx, t, sampler.vector(g_eig.dim))
            y = ng.dilate(ctx, t, sampler.vector(g_eig.dim))
            if kind == "bch":
                call = _bch_call(g_eig, f_eig, x, y)
            elif kind == "carnot":
                call = _carnot_call(ca, x, y)
            else:
                call = _diff_call(g_eig, ca, x, y)
            law = (g_eig, f_eig, ca)
            requests.append(Request(f"{index} {kind} {name} t=2^{k}", call, False, (kind, law, x, y)))
        self.requests = requests

    def canonical(self, request, output) -> str:
        return vec_text(output)

    def check(self, request, output) -> str | None:
        kind, (g_eig, f_eig, ca), x, y = request.expect

        def law(u, v):
            return ng.bch_product(g_eig, f_eig, u, v)

        def graded(u, v):
            return ng.carnot_product(ca, u, v)

        minus_y = ng.group_inverse(y)
        if kind == "bch" and law(output, minus_y) != x:
            return "(x*y)*(-y) != x"
        if kind == "carnot" and graded(output, minus_y) != x:
            return "graded law: (x*y)*(-y) != x"
        if kind == "diff":
            want = [s - t for s, t in zip(law(x, y), graded(x, y))]
            if output != want:
                return "law_difference != bch_product - carnot_product"
        index = int(request.key.split(" ", 1)[0])
        if index % self.check_every == 0:
            zero = [Fraction(0)] * len(x)
            z = [a + b for a, b in zip(x, y)]
            for product in (law, graded):
                if product(x, ng.group_inverse(x)) != zero:
                    return "x*(-x) != 0"
                if product(product(x, y), z) != product(x, product(y, z)):
                    return "associativity fails"
        return None


def _bch_call(g, f, x, y):
    return lambda: ng.bch_product(g, f, x, y)


def _carnot_call(ca, x, y):
    return lambda: ng.carnot_product(ca, x, y)


def _diff_call(g, ca, x, y):
    return lambda: ng.law_difference(g, ca, x, y)


WORKLOADS = {w.name: w for w in (Decide, Analyze, GroupLaw)}
