"""The three seeded, closed-loop workloads of the langchev benchmark.

Constructing a workload is its set-up: it builds every input from the
workload seed alone and holds the long-lived state a user of that entry point
would hold.  The benchmark's own checks inside set-up run under ``quiet()``,
which a traced run uses to keep them out of the per-layer figures.

``call(i)`` is request i, the timed part; it draws its randomness from
``request_seed(seed, i)`` and cycles through a fixed pool of ``pass_size``
inputs.  ``check(i, result)`` re-verifies the output with the
benchmark's own exact checks, outside the timed region, and returns
``(artifact, failed)``: the JSON artifact that goes into the run digest, and
whether the request was a clean Las Vegas failure.  A wrong or unverified
artifact raises BenchError.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

from langchev import cli, ff, lang, liealg, rootdata
from langchev.linalg import Mat

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "fixtures")

QS = ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2))   # q in {3, 5, 7, 9, 25}
W_E7_ORDER = 2 * 6 * 8 * 10 * 12 * 14 * 18      # product of the degrees


class BenchError(Exception):
    """An artifact failed the benchmark's own correctness gate."""


def request_seed(seed, i):
    """Seed of request i, derived arithmetically from the workload seed."""
    return seed * 1_000_003 + i


# ---------------------------------------------------------------------------
# Lang instances and their independent checks
# ---------------------------------------------------------------------------

def _primes(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _exact(holds, n):
    """True when holds(n) and holds(n // l) fails for every prime l | n,
    i.e. n is the least t with holds(t) among a divisor-closed family."""
    return holds(n) and not any(holds(n // ell) for ell in _primes(n))


@dataclass
class LangCase:
    """One twisted-equation input c with its certified r and s."""
    kind: str
    tower: object
    c: object           # Mat, or a list of field elements for Torus
    form: object
    r: int
    s: int

    @property
    def cmat(self):
        if self.kind == "Torus":
            return Mat.diagonal(self.c[0].level, list(self.c))
        return self.c

    @property
    def rs(self):
        return self.r * self.s


def make_case(tower, kind, d, target, rng, max_r, max_rs, quiet):
    """A seeded solvable instance at the target level with r <= max_r and
    rs <= max_rs; r and s are certified here, independently of lang."""
    for _ in range(64):
        inst = lang.random_instance(tower, kind, d, target, rng,
                                    max_rs=max_rs)
        if inst is not None and inst.r <= max_r:
            break
    else:
        raise BenchError(f"no {kind} instance of degree {d} at level "
                         f"{target} over {tower!r}")
    case = LangCase(kind, tower, inst.c, inst.form, inst.r, inst.s)
    with quiet():
        _certify(case)
    tower.extend(case.rs)
    return case


def _certify(case):
    c = case.cmat
    if c.level.r != case.r or not _exact(lambda t: c.frobenius(t) == c,
                                         case.r):
        raise BenchError(f"r = {case.r} is not the minimum field degree")
    norm = c
    for i in range(1, case.r):
        norm = c.frobenius(i) @ norm
    ident = Mat.identity(c.level, c.nrows)
    if not _exact(lambda t: norm ** t == ident, case.s):
        raise BenchError(f"s = {case.s} is not the order of the norm")


def check_solution(case, a):
    """a^(-F) a = c, minimum field degree rs, det 1 and form preservation
    where the group needs them; raises BenchError otherwise."""
    amat = Mat.diagonal(a[0].level, list(a)) if case.kind == "Torus" else a
    rs = case.rs
    if amat.level.r != rs:
        raise BenchError(f"{case.kind}: solution at level {amat.level.r}, "
                         f"expected {rs}")
    inv = amat.try_inverse()
    if inv is None:
        raise BenchError(f"{case.kind}: solution is singular")
    if not inv.frobenius(1) @ amat == case.cmat.embed(rs):
        raise BenchError(f"{case.kind}: a^(-F) a != c")
    if not _exact(lambda t: amat.frobenius(t) == amat, rs):
        raise BenchError(f"{case.kind}: minimum field degree of a is not "
                         f"{rs}")
    if case.kind in ("SL", "SO") and amat.det() != amat.level.one:
        raise BenchError(f"{case.kind}: det(a) != 1")
    if case.kind in ("Sp", "SO"):
        G = case.form.gram.embed(rs)
        if not amat @ G @ amat.transpose() == G:
            raise BenchError(f"{case.kind}: a does not preserve the form")


def _design(groups, levels):
    """Every group kind over every q, target levels assigned cyclically so
    each kind meets each level on some field."""
    return [(kind, d, p, e, levels[(gi + qi) % len(levels)])
            for gi, (kind, d) in enumerate(groups)
            for qi, (p, e) in enumerate(QS)]


# ---------------------------------------------------------------------------
# lang_batch
# ---------------------------------------------------------------------------

class LangBatch:
    """Library calls on long-lived towers: build a LangInstance from c (which
    validates it and computes r and s) and solve it.  Generating the inputs
    builds every level a solve touches, so ff.extend does almost no work in
    the timed loop."""

    name = "lang_batch"
    trace_requests = 90
    GROUPS = (("GL", 3), ("GL", 5), ("GL", 6), ("SL", 4), ("Sp", 4),
              ("Sp", 6), ("SO", 5), ("SO", 6), ("Torus", 4))
    LEVELS = (2, 3, 4, 6)

    def __init__(self, seed, quiet=contextlib.nullcontext):
        self.seed = seed
        rng = random.Random(seed)
        towers = {qe: ff.make_tower(*qe) for qe in QS}
        self.cases = [make_case(towers[(p, e)], kind, d, target, rng,
                                max_r=6, max_rs=12, quiet=quiet)
                      for kind, d, p, e, target
                      in _design(self.GROUPS, self.LEVELS)]
        rng.shuffle(self.cases)
        self.pass_size = len(self.cases)

    def call(self, i):
        case = self.cases[i % self.pass_size]
        inst = lang.LangInstance(kind=case.kind, tower=case.tower, c=case.c,
                                 form=case.form)
        return lang.solve(inst, random.Random(request_seed(self.seed, i)))

    def check(self, i, cert):
        case = self.cases[i % self.pass_size]
        if (cert.instance.r, cert.instance.s) != (case.r, case.s):
            raise BenchError(f"request {i}: (r, s) = "
                             f"{(cert.instance.r, cert.instance.s)}, "
                             f"certified {(case.r, case.s)}")
        check_solution(case, cert.a)
        return cert.to_json(), False


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def _fixture_rows(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return dict(line.split(maxsplit=1) for line in fh.read().splitlines()
                    if line.strip())


def _parse_level(tower, spec):
    """'p^(e*r)' as printed by the CLI -> the level of the checking tower."""
    p, rest = spec.split("^")
    e, r = rest.strip("()").split("*")
    if (int(p), int(e)) != (tower.p, tower.e):
        raise BenchError(f"solution over {spec}, expected p = {tower.p}, "
                         f"e = {tower.e}")
    return tower.level(int(r))


class CliSession:
    """A shuffled session of langchev commands run in process through
    cli.main(argv), stdout captured, exit code and output checked."""

    name = "cli_session"
    trace_requests = 87
    LANG_GROUPS = (("GL", 2), ("GL", 3), ("SL", 3), ("Sp", 4), ("SO", 3),
                   ("SO", 4), ("Torus", 3))
    LANG_LEVELS = (2, 3)
    LANG_REPEATS = 2
    WEYL = (("derangements_table.txt", "derangements", None,
             ("B5", "D6", "F4", "E6")),
            ("qw_coxeter_table.txt", "qw", "coxeter",
             ("B6", "D5", "A6", "F4", "E6")),
            ("constants_table.txt", "cis", "subcox",
             ("B4", "D5", "F4", "E6")))
    CHEVALLEY = (("A2", 7), ("B2", 5), ("G2", 7))

    def __init__(self, seed, quiet=contextlib.nullcontext):
        self.seed = seed
        rng = random.Random(seed)
        towers = {qe: ff.make_tower(*qe) for qe in QS}
        commands = []
        for _ in range(self.LANG_REPEATS):
            for kind, d, p, e, target in _design(self.LANG_GROUPS,
                                                 self.LANG_LEVELS):
                case = make_case(towers[(p, e)], kind, d, target, rng,
                                 max_r=3, max_rs=6, quiet=quiet)
                c = case.c
                spec = {"group": kind, "p": p, "e": e, "r": case.r,
                        "c": [x.to_json() for x in c] if kind == "Torus"
                        else c.to_json()}
                commands.append(("lang", case,
                                 ["lang", "--instance", json.dumps(spec)]))
        for fixture, what, element, types in self.WEYL:
            rows = _fixture_rows(fixture)
            for t in types:
                argv = ["weyl", "--type", t, "--what", what,
                        "--output", "text"]
                if element:
                    argv += ["--element", element]
                commands.append(("weyl", rows[t].strip(), argv))
        commands.append(("weyl_e7", W_E7_ORDER,
                         ["weyl", "--type", "E7", "--what", "derangements",
                          "--allow-large"]))
        for t, p in self.CHEVALLEY:
            commands.append(("chevalley", t, ["chevalley", "--type", t,
                                              "--p", str(p),
                                              "--scramble", "1"]))
        rng.shuffle(commands)
        self.commands = commands
        self.pass_size = len(commands)

    def call(self, i):
        kind, _, argv = self.commands[i % self.pass_size]
        if kind in ("lang", "chevalley"):
            argv = argv + ["--seed", str(request_seed(self.seed, i))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, i, result):
        kind, expect, argv = self.commands[i % self.pass_size]
        code, out, err = result
        if code == 3 and kind in ("lang", "chevalley"):
            return {"exit": 3}, True
        if code != 0:
            raise BenchError(f"request {i}: {' '.join(argv[:3])} exited "
                             f"{code}: {err.strip()}")
        if kind == "weyl":
            if out.strip() != expect:
                raise BenchError(f"request {i}: {argv[2]} {argv[4]} printed "
                                 f"{out.strip()!r}, fixture says {expect!r}")
            return {"exit": 0, "text": out.strip()}, False
        payload = json.loads(out)
        if kind == "weyl_e7":
            if payload["total"] != expect:
                raise BenchError(f"E7 enumeration covered {payload['total']}"
                                 f" elements, |W(E7)| = {expect}")
        elif kind == "chevalley":
            if payload["verdict"] is not True:
                raise BenchError(f"request {i}: chevalley verdict "
                                 f"{payload['verdict']}: "
                                 f"{payload['witness']}")
        else:
            case = expect
            if payload["s"] != case.s:
                raise BenchError(f"request {i}: s = {payload['s']}, "
                                 f"certified {case.s}")
            level = _parse_level(case.tower, payload["level"])
            entries = payload["a"]
            if case.kind == "Torus":
                a = [level.element(v) for v in entries]
            else:
                a = Mat.from_entries(level, [[level.element(v) for v in row]
                                             for row in entries])
            check_solution(case, a)
        return {"exit": 0, "json": payload}, False


# ---------------------------------------------------------------------------
# chevalley_grid
# ---------------------------------------------------------------------------

class ChevalleyGrid:
    """Scrambled algebras recognised through the library: one request is
    standard_chevalley_basis followed by verify_chevalley_basis on a fresh
    algebra object holding a scrambled structure tensor.

    Each grid entry is scrambled `copies` times and every copy is one input
    of the pool.  Recognition is Las Vegas and its cost varies two- to
    fourfold between draws, so a run's median and tail need many requests of
    about the same cost: the pool holds eight scrambles each of B3 and C3
    over GF(7) (d = 21, about 0.24 s each at reference speed, where Python
    overhead dominates) and one of F4 over GF(7) (d = 52, about 2.4 s, where
    plane products dominate), about fifty requests in three passes.  Cheaper
    types (A2, B2, G2, A3), the GF(25) algebras and D4 are left out: mixed
    with these, the median and tail fell on the edge between types of
    different cost and moved by 20% between seeds, and one D4 draw takes
    0.3 s or 3 s.
    """

    name = "chevalley_grid"
    GRID = (("B3", 7, 1, 8), ("C3", 7, 1, 8), ("F4", 7, 1, 1))
    trace_requests = sum(copies for *_, copies in GRID)

    def __init__(self, seed, quiet=contextlib.nullcontext):
        self.seed = seed
        rng = random.Random(seed)
        towers = {qe: ff.make_tower(*qe)
                  for qe in sorted({(p, e) for _, p, e, _ in self.GRID})}
        self.inputs = []
        for t, p, e, copies in self.GRID:
            rd = rootdata.build(t)
            L = liealg.from_root_datum(rd, towers[(p, e)])
            for _ in range(copies):
                g = liealg.random_inner_automorphism(L, rd, rng)
                self.inputs.append(
                    (t, rd, L.level, liealg.scramble_basis(L, g).tensor))
        rng.shuffle(self.inputs)
        self.pass_size = len(self.inputs)

    def call(self, i):
        _, rd, level, tensor = self.inputs[i % self.pass_size]
        L = liealg.LieAlgebraFq(level, tensor, check="none")
        basis = liealg.standard_chevalley_basis(
            L, rd, random.Random(request_seed(self.seed, i)))
        ok, witness = liealg.verify_chevalley_basis(L, rd, basis)
        return ok, witness, basis

    def check(self, i, result):
        ok, witness, basis = result
        if ok is not True:
            t = self.inputs[i % self.pass_size][0]
            raise BenchError(f"request {i}: {t} basis failed verification: "
                             f"{witness}")
        return basis.to_json(), False


WORKLOADS = {w.name: w for w in (LangBatch, CliSession, ChevalleyGrid)}
