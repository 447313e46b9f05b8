"""Per-layer tracing of langchev from outside the package.

``instrument(tracer)`` replaces the public functions and methods of the
``ff``, ``linalg``, ``rootdata``, ``liealg``, ``lang`` and ``cli`` modules
with wrappers that record one span per call (name, start, end, parent span,
request id) or, for the scalar field operations that run millions of times,
only bump a counter.  Names imported into another module are wrapped at
every binding (``lang.matrix_order``, ``liealg.factor``), and methods are
wrapped on their class, so nothing under ``src/`` has to change.  The
returned function restores every original.

A span's self time is its duration minus the time covered by its child
spans; children of one parent never overlap because the package is
single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter

from langchev import cli, ff, lang, liealg, linalg, rootdata
from langchev.errors import BudgetExhausted

LAYERS = ("ff", "linalg", "rootdata", "liealg", "lang", "cli")

# (owner, attribute, span name).  An attribute listed twice on different
# owners is one function reachable through two bindings.
SPANS = [
    (ff.FieldTower, "extend", "ff.extend"),
    (ff.Level, "__init__", "ff.level_init"),
    (linalg.Mat, "__matmul__", "linalg.matmul"),
    (linalg.Mat, "rref", "linalg.rref"),
    (linalg.Mat, "charpoly", "linalg.charpoly"),
    (linalg, "factor", "linalg.factor"),
    (liealg, "factor", "linalg.factor"),
    (linalg.PolyFq, "__divmod__", "linalg.polydivmod"),
    (linalg.Mat, "__pow__", "linalg.pow"),
    (linalg.PolyFq, "pow_mod", "linalg.pow"),
    (linalg, "matrix_order", "linalg.matrix_order"),
    (lang, "matrix_order", "linalg.matrix_order"),
    (rootdata.RootDatum, "__init__", "rootdata.build"),
    (rootdata.RootDatum, "weyl_elements_array", "rootdata.weyl_enum"),
    (rootdata, "reflection_derangement_stats", "rootdata.derangements"),
    (rootdata, "qw_polynomial", "rootdata.qw"),
    (rootdata, "centralizer_order", "rootdata.centralizer_order"),
    (rootdata, "orbit_constants", "rootdata.orbit_constants"),
    (liealg.LieAlgebraFq, "__init__", "liealg.construct"),
    (liealg.LieAlgebraFq, "ad", "liealg.ad"),
    (liealg, "maximal_toral_subalgebra", "liealg.toral"),
    (liealg, "generalized_roots", "liealg.genroots"),
    (liealg, "components", "liealg.components"),
    (liealg, "split_maximal_toral_subalgebra", "liealg.split_toral"),
    (liealg, "is_split_toral", "liealg.is_split_toral"),
    (liealg, "centralizer", "liealg.centralizer"),
    (liealg, "root_decomposition", "liealg.root_decomposition"),
    (liealg, "standard_chevalley_basis", "liealg.chevalley"),
    (liealg, "verify_chevalley_basis", "liealg.verify"),
    (lang.LangInstance, "__post_init__", "lang.instance"),
    (lang, "norm_and_order", "lang.norm_and_order"),
    (lang, "f_eigenspace_lv", "lang.eigenspace_lv"),
    (lang, "normal_basis", "lang.normal_basis"),
    (lang, "verify", "lang.verify"),
    (lang, "solve_gl", "lang.solve_gl"),
    (lang, "solve_sl", "lang.solve_sl"),
    (lang, "solve_sp", "lang.solve_sp"),
    (lang, "solve_so", "lang.solve_so"),
    (lang, "solve_torus", "lang.solve_torus"),
    (cli, "main", "cli.main"),
]

# Spans whose self time, call count and BudgetExhausted count are reported,
# beyond the module totals.  Each name maps to the metrics it reports.
REPORTED = {
    "ff.extend": ("calls", "self_s"),
    "ff.level_init": ("self_s",),
    "linalg.matmul": ("calls", "self_s"),
    "linalg.rref": ("calls", "self_s"),
    "linalg.charpoly": ("calls", "self_s"),
    "linalg.factor": ("calls", "self_s"),
    "linalg.polydivmod": ("calls", "self_s"),
    "linalg.pow": ("calls", "self_s"),
    "linalg.matrix_order": ("calls", "self_s"),
    "rootdata.build": ("calls", "self_s"),
    "rootdata.weyl_enum": ("self_s",),
    "rootdata.derangements": ("self_s",),
    "rootdata.qw": ("self_s",),
    "rootdata.centralizer_order": ("self_s",),
    "rootdata.orbit_constants": ("self_s",),
    "liealg.construct": ("self_s",),
    "liealg.ad": ("calls", "self_s"),
    "liealg.toral": ("calls", "self_s", "exhausted"),
    "liealg.genroots": ("calls", "self_s", "exhausted"),
    "liealg.components": ("calls", "self_s", "exhausted"),
    "liealg.split_toral": ("calls", "self_s", "exhausted"),
    "liealg.is_split_toral": ("self_s",),
    "liealg.centralizer": ("self_s",),
    "liealg.root_decomposition": ("self_s",),
    "liealg.chevalley": ("exhausted",),
    "liealg.verify": ("calls", "self_s"),
    "lang.instance": ("self_s",),
    "lang.norm_and_order": ("self_s",),
    "lang.eigenspace_lv": ("calls", "self_s"),
    "lang.normal_basis": ("calls", "self_s"),
    "lang.verify": ("self_s",),
    "lang.solve_gl": ("self_s",),
    "lang.solve_sl": ("self_s",),
    "lang.solve_sp": ("self_s",),
    "lang.solve_so": ("self_s",),
    "lang.solve_torus": ("self_s",),
    "cli.main": ("calls", "self_s"),
}

# Counters bumped inside wrappers, each reported as a count.
COUNTERS = (
    "ff.extend.levels_built", "ff.mul.calls", "ff.inverse.calls",
    "ff.frobenius.calls", "linalg.matmul.int64_macs", "linalg.matmul.bytes",
    "rootdata.weyl_enum.elements", "lang.eigenspace_lv.draws",
)

UNITS = {"calls": "count", "self_s": "s", "exhausted": "count",
         "levels_built": "count", "elements": "count", "draws": "count",
         "int64_macs": "MAC_computed", "bytes": "B_computed",
         "table_ratio": "ratio", "overhead_ratio": "ratio"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for span, kinds in REPORTED.items():
        names.extend(f"{span}.{k}" for k in kinds)
    names.extend(COUNTERS)
    names.append("ff.mul.table_ratio")
    names.extend(f"{layer}.self_s" for layer in LAYERS)
    names.append("trace.overhead_ratio")
    return [(n, UNITS[n.rsplit(".", 1)[1]]) for n in names]


class Tracer:
    """In-memory span recorder.  Spans are kept in flat arrays indexed by
    opening order; ``request`` is the id stamped on spans opened from now
    on (-1 during set-up)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = defaultdict(int)
        self.request = -1
        self.paused = False

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside: used around the benchmark's own checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def innermost(self):
        """Name id of the innermost open span, or -1."""
        return self.name[self.stack[-1]] if self.stack else -1

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus child durations."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        out = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= dur[idx]
        return dur, out

    def request_balance(self, walls):
        """For each request id with a traced wall time, the sum of span self
        times, the wall time not covered by any span, and their sum.

        ``walls`` maps request id to the wall time measured around it."""
        dur, self_t = self.self_times()
        sums = defaultdict(float)
        top = defaultdict(float)
        for idx, rid in enumerate(self.req):
            sums[rid] += self_t[idx]
            if self.parent[idx] < 0:
                top[rid] += dur[idx]
        out = {}
        for rid, wall in walls.items():
            remainder = wall - top[rid]
            out[rid] = {"wall_s": wall, "self_s": sums[rid],
                        "untraced_s": remainder,
                        "sum_s": sums[rid] + remainder}
        return out

    def metrics(self, overhead_ratio):
        """Per-layer metrics summed over the whole traced run."""
        _, self_t = self.self_times()
        calls = defaultdict(int)
        selfs = defaultdict(float)
        for idx, nid in enumerate(self.name):
            calls[nid] += 1
            selfs[nid] += self_t[idx]
        by_name = {n: (calls[i], selfs[i]) for i, n in enumerate(self.names)}
        out = {}
        for span, kinds in REPORTED.items():
            n_calls, n_self = by_name.get(span, (0, 0.0))
            for kind in kinds:
                if kind == "calls":
                    value = n_calls
                elif kind == "self_s":
                    value = n_self
                else:
                    value = self.counters[f"{span}.{kind}"]
                out[f"{span}.{kind}"] = value
        for key in COUNTERS:
            out[key] = self.counters[key]
        mul = self.counters["ff.mul.calls"]
        out["ff.mul.table_ratio"] = \
            self.counters["ff.mul.table"] / mul if mul else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for n, (_, s) in by_name.items()
                if n.split(".", 1)[0] == layer)
        out["trace.overhead_ratio"] = overhead_ratio
        units = dict(metric_names())
        return {k: {"value": out[k], "unit": units[k]} for k in units}

    def dump(self, path, balance):
        """Write every span and the per-request balance as gzipped JSON."""
        doc = {"names": self.names,
               "columns": ["name", "start", "end", "parent", "request"],
               "spans": [list(self.name), list(self.start), list(self.end),
                         list(self.parent), list(self.req)],
               "requests": {str(k): v for k, v in balance.items()}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span(tracer, name, fn, before=None):
    """Wrap fn in a span; ``before(args)`` runs ahead of the call and may
    return a callback that runs after it, to bump counters."""
    nid = tracer.name_id(name)
    exhausted = f"{name}.exhausted"
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        after = before(args) if before is not None else None
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BudgetExhausted:
            counters[exhausted] += 1
            raise
        finally:
            tracer.close(idx)
        if after is not None:
            after()
        return result
    return wrapper


def _span_steps(tracer, name, fn, counter):
    """Wrap a generator function: each step is a span, and the length of
    each yielded chunk is added to ``counter``."""
    nid = tracer.name_id(name)
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        if tracer.paused:
            yield from it
            return
        while True:
            idx = tracer.open(nid)
            try:
                chunk = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            counters[counter] += len(chunk)
            yield chunk
    return wrapper


def _count(tracer, key, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.paused:
            counters[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_mul(tracer, fn):
    """FqElement products, and how many take the exp/log-table path (the
    level the operands are coerced to carries tables)."""
    counters = tracer.counters
    Fq = ff.FqElement

    @functools.wraps(fn)
    def wrapper(a, b):
        if not tracer.paused:
            counters["ff.mul.calls"] += 1
            level = a.level
            if isinstance(b, Fq) and b.level.r > level.r:
                level = b.level
            if level._exp is not None:
                counters["ff.mul.table"] += 1
        return fn(a, b)
    return wrapper


def _count_draws(tracer, fn):
    """Mat.random calls made directly under a lang.eigenspace_lv span."""
    counters = tracer.counters
    eig = tracer.name_id("lang.eigenspace_lv")

    @functools.wraps(fn)
    def wrapper(cls, *args, **kwargs):
        if not tracer.paused and tracer.innermost() == eig:
            counters["lang.eigenspace_lv.draws"] += 1
        return fn(cls, *args, **kwargs)
    return classmethod(wrapper)


def _levels_before(tracer):
    counters = tracer.counters

    def before(args):
        tower = args[0]
        had = len(tower.levels)

        def after():
            counters["ff.extend.levels_built"] += len(tower.levels) - had
        return after
    return before


def _matmul_before(tracer):
    """Multiply-accumulates and bytes of the plane loop, computed from the
    operand shapes: m*m plane products of an n x k by k x l matrix, reading
    both operands and the (2m-1)-plane accumulator once."""
    counters = tracer.counters
    Mat = linalg.Mat

    def before(args):
        a, b = args
        if isinstance(b, Mat):
            m = max(a.level.m, b.level.m)
            n, k, l = a.nrows, a.ncols, b.ncols
            counters["linalg.matmul.int64_macs"] += m * m * n * k * l
            counters["linalg.matmul.bytes"] += \
                8 * (m * n * k + m * k * l + (2 * m - 1) * n * l)
        return None
    return before


def instrument(tracer):
    """Install every wrapper; returns a function that removes them."""
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    before = {"ff.extend": _levels_before(tracer),
              "linalg.matmul": _matmul_before(tracer)}
    for owner, attr, name in SPANS:
        replace(owner, attr, _span(tracer, name, getattr(owner, attr),
                                   before.get(name)))
    replace(rootdata.RootDatum, "iter_weyl_chunks",
            _span_steps(tracer, "rootdata.weyl_enum",
                        rootdata.RootDatum.iter_weyl_chunks,
                        "rootdata.weyl_enum.elements"))
    Fq = ff.FqElement
    replace(Fq, "__mul__", _count_mul(tracer, Fq.__mul__))
    replace(Fq, "__rmul__", _count_mul(tracer, Fq.__rmul__))
    replace(Fq, "inverse", _count(tracer, "ff.inverse.calls", Fq.inverse))
    replace(Fq, "frobenius",
            _count(tracer, "ff.frobenius.calls", Fq.frobenius))
    replace(linalg.Mat, "random",
            _count_draws(tracer, linalg.Mat.__dict__["random"].__func__))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    return restore
