"""The names the benchmark's tracer binds to still exist in the package.

``bench/spans.py`` wraps package functions and methods by (owner,
attribute) and reads ``ff.Level._exp``; a rename in ``src/`` would only
show when the benchmark runs.  This test loads that module by path, so
the main test suite catches such a rename.
"""

import importlib.util
import os
import random
from collections import Counter

import pytest

from langchev import ff, lang, linalg, rootdata

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

# bound by spans.instrument beside the SPANS table
EXTRA = [(rootdata.RootDatum, "iter_weyl_chunks"),
         (ff.FqElement, "__mul__"), (ff.FqElement, "__rmul__"),
         (ff.FqElement, "inverse"), (ff.FqElement, "frobenius"),
         (linalg.Mat, "random")]


@pytest.mark.parametrize(
    "owner, attr", [(o, a) for o, a, _ in spans.SPANS] + EXTRA,
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_every_wrapped_name_is_bound_on_its_owner(owner, attr):
    # instrument saves owner.__dict__[attr], so an inherited name fails it
    assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_level_keeps_the_table_attribute():
    assert hasattr(ff.Level, "_exp")
    level = ff.make_tower(5, 1).level(1)
    assert hasattr(level, "_exp")


def test_instrument_restores_every_binding():
    before = [vars(o)[a] for o, a, _ in spans.SPANS]
    restore = spans.instrument(spans.Tracer())
    try:
        assert any(vars(o)[a] is not f
                   for (o, a, _), f in zip(spans.SPANS, before))
    finally:
        restore()
    assert all(vars(o)[a] is f for (o, a, _), f in zip(spans.SPANS, before))


def test_solve_dispatch_passes_through_each_kinds_span():
    # lang.solve must look each solve_<kind> up when called: a table that
    # held the function objects would bypass the wrappers
    t = ff.make_tower(5)
    instances = [lang.random_instance(t, kind, 2, 2, random.Random(5))
                 for kind in lang.GROUP_KINDS]
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        for inst in instances:
            assert lang.solve(inst, random.Random(1)).ok
    finally:
        restore()
    calls = Counter(tracer.names[i] for i in tracer.name)
    assert {f"lang.{g.solver}": calls[f"lang.{g.solver}"]
            for g in lang.GROUP_KINDS.values()} == {
        "lang.solve_gl": 1, "lang.solve_sl": 1, "lang.solve_sp": 1,
        "lang.solve_so": 1, "lang.solve_torus": 1}
