"""Command line front door: twisted-equation solvers, Chevalley basis
construction, and Weyl group analytics with reproducible seeds.

All randomness in one invocation flows through a single seeded generator
(``--seed``, falling back to the LANGCHEV_SEED environment variable), so
Las Vegas runs can be replayed exactly.  Exit codes: 0 success (and every
emitted artifact was verified), 2 input error, 3 retry or degree budget
exhausted, 4 recognition failure on external input, 5 enumeration gate,
6 an internal verification failed (no artifact is emitted).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import ff, lang, liealg, rootdata
from .errors import (BudgetExhausted, EnumerationGate, InputError,
                     LangchevError, RecognitionError, VerificationError)
from .linalg import Mat


def _seed_from(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LANGCHEV_SEED")
    return int(env) if env else 0


def _load_json_arg(text):
    """Inline JSON, or the contents of a file when the argument names one."""
    if text is None:
        return None
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON and not a file: {text!r} "
                         f"({exc})") from None


def _json_of(data, kind, what):
    """data, checked to be a nonempty JSON array (kind list) or object
    (kind dict)."""
    if not isinstance(data, kind) or not data:
        raise InputError(f"{what} JSON must be a nonempty "
                         f"{'array' if kind is list else 'object'}")
    return data


def _json_int(value, what):
    """value, checked to be a JSON integer (not a bool) or absent."""
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, int)):
        raise InputError(f"{what} must be a JSON integer, not {value!r}")
    return value


def _auto_int(value, what):
    """A command-line integer, or None for auto."""
    if value in (None, "auto"):
        return None
    try:
        return int(value)
    except ValueError:
        raise InputError(f"{what} must be an integer or auto, not "
                         f"{value!r}") from None


def _parse_entry(level, value):
    if isinstance(value, int):
        return level.scalar(value)
    if isinstance(value, list):
        if len(value) != level.m:
            raise InputError(
                f"coefficient array of length {len(value)} at a level of "
                f"absolute degree {level.m}")
        return level.element(value)
    raise InputError(f"bad field element {value!r}")


def _parse_matrix(level, data, what):
    return Mat.from_entries(level, [
        [_parse_entry(level, v) for v in _json_of(row, list, f"{what} row")]
        for row in _json_of(data, list, what)])


def _emit(args, payload, text):
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# lang
# ---------------------------------------------------------------------------

def cmd_lang(args):
    rng = random.Random(_seed_from(args))
    if args.instance:
        spec = _json_of(_load_json_arg(args.instance), dict, "instance")
        group = spec.get("group")
        p, e, r, s = (_json_int(spec.get(key, default), f"instance {key}")
                      for key, default in (("p", None), ("e", 1),
                                           ("r", None), ("s", None)))
        c_data = spec.get("c")
        form_data = spec.get("form")
    else:
        group, p, e = args.group, args.p, args.e
        r, s = (_auto_int(value, flag)
                for value, flag in ((args.r, "--r"), (args.s, "--s")))
        c_data = _load_json_arg(args.c)
        form_data = _load_json_arg(args.form) if args.form else None
    if group is None or p is None or c_data is None:
        raise InputError("need a group kind, p, and c")
    components = lang.group_kind(group, "group kind").components
    probe = _json_of(c_data, list, "c")[0]
    if not components:
        probe = _json_of(probe, list, "c row")[0]
    tower = ff.make_tower(p, e)
    if r is None:
        # infer the carrier level from coefficient array lengths
        if isinstance(probe, list):
            if len(probe) % tower.e:
                raise InputError("entry length incompatible with e")
            r = len(probe) // tower.e
        else:
            r = 1
    level = tower.level(tower.extend(r))
    form = None
    if form_data is not None:
        form_data = _json_of(form_data, dict, "form")
        gram = _parse_matrix(tower.level(1), form_data.get("gram"),
                             "form gram")
        form = lang.BilinearFormFq(form_data.get("kind"), gram)
    c = [_parse_entry(level, v) for v in c_data] if components \
        else _parse_matrix(level, c_data, "c")
    size = len(c) if components else c.nrows
    if args.d is not None and args.d != size:
        raise InputError(f"--d {args.d}, but c has size {size}")
    inst = lang.LangInstance(kind=group, tower=tower, c=c, r=r, s=s,
                             form=form, trust_s=args.trust_s,
                             order_cap=args.order_cap,
                             max_degree=args.max_degree)
    cert = lang.solve(inst, rng)
    payload = cert.to_json()
    _emit(args, payload,
          f"solved {group} instance: level k_{cert.level}, s = {cert.s}, "
          f"verified = {cert.ok}\na = {json.dumps(payload['a'])}")
    return 0 if cert.ok else 3


# ---------------------------------------------------------------------------
# chevalley
# ---------------------------------------------------------------------------

def cmd_chevalley(args):
    rng = random.Random(_seed_from(args))
    rd = rootdata.build(args.type, args.lattice)
    if args.p is not None and args.p <= 3:
        raise InputError("characteristic must exceed 3")
    if args.algebra:
        data = _json_of(_load_json_arg(args.algebra), dict, "algebra")
        levelspec = data.get("level", "")
        try:
            p_part, rest = levelspec.split("^")
            e_part, r_part = rest.strip("()").split("*")
            p, e, r = int(p_part), int(e_part), int(r_part)
        except Exception:
            raise InputError(
                f"bad level spec {levelspec!r}; expected 'p^(e*r)'"
            ) from None
        if p <= 3:
            raise InputError("characteristic must exceed 3")
        tower = ff.make_tower(p, e)
        level = tower.level(tower.extend(r))
        dim, triples = data.get("dim"), data.get("triples")
        if not isinstance(dim, int) or dim < 0 \
                or not isinstance(triples, list) or any(
                    not isinstance(t, list) or len(t) != 4 for t in triples):
            raise InputError("algebra JSON needs a dim and a list of "
                             "[i, j, k, value] triples")
        triples = [(i, j, k, _parse_entry(level, v))
                   for i, j, k, v in triples]
        L = liealg.LieAlgebraFq.from_entries(level, dim, triples,
                                             check="full")
    else:
        if args.p is None:
            raise InputError("need --p (or --algebra)")
        tower = ff.make_tower(args.p, args.e)
        L = liealg.from_root_datum(rd, tower)
        if args.scramble:
            scramble_rng = random.Random(rng.randrange(2 ** 62))
            for _ in range(args.scramble):
                while True:
                    P = Mat.random(L.level, L.dim, L.dim, scramble_rng)
                    if P.try_inverse() is not None:
                        break
                L = liealg.scramble_basis(L, P)
    budgets = liealg.Budgets(toral_factor=args.toral_factor,
                             split_factor=args.split_factor)
    # returns only a basis that passed verify_chevalley_basis, else raises
    basis = liealg.standard_chevalley_basis(L, rd, rng, budgets=budgets)
    payload = {"type": args.type, "lattice": args.lattice,
               "verdict": True, "witness": None,
               "basis": basis.to_json()}
    _emit(args, payload,
          f"chevalley basis for {args.type} ({args.lattice}): verdict = True")
    return 0


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------

def _pick_element(rd, which):
    if which == "coxeter":
        return rootdata.coxeter_element(rd)
    if which == "subcox":
        return rootdata.subcoxeter_element(rd)
    raise InputError(f"unknown element {which!r}")


def cmd_weyl(args):
    rd = rootdata.build(args.type, args.lattice)
    if args.what == "derangements":
        count, total, prop = rootdata.reflection_derangement_stats(
            rd, allow_large=args.allow_large)
        payload = {"type": args.type, "count": count, "total": total,
                   "proportion": str(prop)}
        _emit(args, payload, str(prop))
        return 0
    if args.what == "qw":
        w = _pick_element(rd, args.element)
        coeffs = rootdata.qw_polynomial(rd, w)
        payload = {"type": args.type, "element": args.element,
                   "coefficients": coeffs}
        _emit(args, payload, " ".join(str(c) for c in coeffs))
        return 0
    if args.what == "cis":
        if args.element == "subcox":
            row = rootdata.constants_table_row(
                rd, allow_large=args.allow_large)
        else:
            w = _pick_element(rd, args.element)
            c = rootdata.centralizer_order(rd, w,
                                           allow_large=args.allow_large)
            row = (c,) + rootdata.orbit_constants(rd, w)
        payload = {"type": args.type, "element": args.element,
                   "c": row[0], "cis": list(row[1:])}
        text = "c=" + str(row[0]) + " " + " ".join(
            f"c_{i + 1}={v}" for i, v in enumerate(row[1:]))
        _emit(args, payload, text)
        return 0
    raise InputError(f"unknown table kind {args.what!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for all randomness (default: "
                             "LANGCHEV_SEED env var, then 0)")
    common.add_argument("--output", choices=("json", "text"),
                        default="json")
    ap = argparse.ArgumentParser(
        prog="langchev",
        description="Exact solvers for a^(-F) a = c over finite fields, "
                    "Chevalley bases, and Weyl group analytics.")
    sub = ap.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("lang", help="solve a^(-F) a = c",
                        parents=[common])
    lp.add_argument("--instance", help="instance JSON (inline or file)")
    lp.add_argument("--group", choices=tuple(lang.GROUP_KINDS))
    lp.add_argument("--p", type=int)
    lp.add_argument("--e", type=int, default=1)
    lp.add_argument("--d", type=int,
                    help="matrix size, or number of torus components; "
                         "must match c when given")
    lp.add_argument("--c", help="matrix JSON (inline or file)")
    lp.add_argument("--form", help="form JSON {kind, gram}")
    lp.add_argument("--r", default="auto")
    lp.add_argument("--s", default="auto")
    lp.add_argument("--trust-s", action="store_true",
                    help="accept the given s without recomputing the norm "
                         "order")
    lp.add_argument("--order-cap", type=int, default=10 ** 6)
    lp.add_argument("--max-degree", type=int, default=lang.MAX_DEGREE,
                    help="largest degree rs over k of the level a solution "
                         "may need; past it the run stops with exit code 3 "
                         f"(default {lang.MAX_DEGREE})")
    lp.set_defaults(func=cmd_lang)

    cp = sub.add_parser("chevalley",
                        help="find a standard Chevalley basis",
                        parents=[common])
    cp.add_argument("--type", required=True)
    cp.add_argument("--lattice", choices=("sc", "ad"), default="sc")
    cp.add_argument("--p", type=int)
    cp.add_argument("--e", type=int, default=1)
    cp.add_argument("--scramble", type=int, default=0,
                    help="apply this many random invertible basis changes "
                         "before recognition")
    cp.add_argument("--algebra",
                    help="structure-constant JSON (inline or file)")
    cp.add_argument("--toral-factor", type=int, default=64,
                    help="draw budget factor for the toral search")
    cp.add_argument("--split-factor", type=int, default=8,
                    help="iteration budget factor for the split search")
    cp.set_defaults(func=cmd_chevalley)

    wp = sub.add_parser("weyl", help="Weyl group analytics tables",
                        parents=[common])
    wp.add_argument("--type", required=True)
    wp.add_argument("--lattice", choices=("sc", "ad"), default="sc")
    wp.add_argument("--what",
                    choices=("derangements", "qw", "cis"), required=True)
    wp.add_argument("--element", choices=("coxeter", "subcox"),
                    default="subcox")
    wp.add_argument("--allow-large", action="store_true",
                    help="permit E7/E8-scale enumerations")
    wp.set_defaults(func=cmd_weyl)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except RecognitionError as exc:
        print(f"recognition failure: {exc}", file=sys.stderr)
        return 4
    except EnumerationGate as exc:
        print(f"enumeration gate: {exc}", file=sys.stderr)
        return 5
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 6
    except LangchevError as exc:  # pragma: no cover - catch-all
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
