"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import contextlib
import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import reference  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from langchev import ff, lang  # noqa: E402
from langchev.linalg import Mat  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*argv, env=None):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *argv], cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=170)


def record(workload, seed, trace):
    with open(os.path.join(BENCH, "out", f"{workload}-seed{seed}"
                                         f"-trace{trace}.json")) as fh:
        return json.load(fh)


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(100, 90), (1000, 90), (200, 90),
                                    (50, 80), (30, 66), (20, 50), (5, 50),
                                    (1, 50)])
def test_tail_percentile_examples(n, pct):
    assert bench_run.tail_rank(n)[0] == pct


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 3000):
        pct, idx = bench_run.tail_rank(n)
        assert n - 1 - idx >= 10
        if pct < 90:
            nxt = math.ceil((pct + 1) * n / 100) - 1
            assert n - 1 - nxt < 10


def test_end_to_end_on_synthetic_latencies():
    run = bench_run.Run(slice_size=0)
    # input k takes k+1 ms, except in one slow pass
    for i in range(40):
        k = i % 4
        slow = 50 if i // 4 == 3 else 1
        run.add(i, (k + 1) * slow / 1000, {"i": i}, failed=(i == 0))
    metrics, tail = run.end_to_end([3.0, 1.0, 2.0])
    assert metrics["setup_s"]["value"] == 2.0
    assert metrics["p50_ms"]["value"] == pytest.approx(3.0)
    assert metrics["success_ratio"]["value"] == pytest.approx(39 / 40)
    assert metrics["ops_per_s"]["value"] == pytest.approx(39 / (
        9 * 0.010 + 50 * 0.010))
    assert tail == {"tail_percentile": 75, "requests": 40,
                    "beyond_tail": 10}
    assert metrics["tail_ms"]["value"] == pytest.approx(4.0)


def test_paced_latencies_are_divided_by_the_slowdown():
    """A request followed by kernel time twice the nominal counts half."""
    run = bench_run.Run(slice_size=0)
    unit = reference.UNIT_S
    for i in range(20):
        run.add(i, 0.010, {"i": i}, failed=False, start=0.02 * i,
                ref_s=2 * 4 * unit, ref_units=4)
    metrics, _ = run.end_to_end([1.0])
    assert metrics["p50_ms"]["value"] == pytest.approx(5.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(200.0)


def test_slowdown_window_covers_neighbours_only():
    """Requests 0-2 run on a host twice as slow as requests 3-5; with a
    window narrower than the gap each half keeps its own slowdown."""
    u = reference.UNIT_S
    start = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
    wall = [0.05] * 6
    ref_s = [2 * u] * 3 + [u] * 3
    got = reference.windowed(start, wall, ref_s, [1] * 6, window=1.0)
    assert got == pytest.approx([2, 2, 2, 1, 1, 1])
    wide = reference.windowed(start, wall, ref_s, [1] * 6, window=100.0)
    assert wide == pytest.approx([1.5] * 6)


# -- span arithmetic ----------------------------------------------------------

def _synthetic_tracer():
    """A [0, 10] with children B [1, 4] and C [5, 9]; B has child D [2, 3];
    E [11, 12] is a second root.  All in request 0."""
    t = spans.Tracer()
    rows = [("A", 0, 10, -1), ("B", 1, 4, 0), ("D", 2, 3, 1),
            ("C", 5, 9, 0), ("E", 11, 12, -1)]
    for name, start, end, parent in rows:
        t.name.append(t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.req.append(0)
    return t


def test_self_time_subtracts_children():
    dur, self_t = _synthetic_tracer().self_times()
    assert dur == [10, 3, 1, 4, 1]
    assert self_t == [3, 2, 1, 4, 1]


def test_request_balance_adds_up_to_wall_time():
    balance = _synthetic_tracer().request_balance({0: 13.5})
    assert balance[0]["self_s"] == 11
    assert balance[0]["untraced_s"] == 2.5
    assert balance[0]["sum_s"] == 13.5


def test_instrument_wraps_every_binding_and_restores():
    from langchev import liealg, linalg
    originals = (linalg.matrix_order, lang.matrix_order, liealg.factor,
                 Mat.__matmul__, ff.FqElement.__rmul__)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        assert lang.matrix_order is not originals[1]
        assert liealg.factor is not originals[2]
        tower = ff.make_tower(5, 1)
        level = tower.level(tower.extend(2))
        rng = random.Random(1)
        M = Mat.random(level, 3, 3, rng)
        while M.try_inverse() is None:
            M = Mat.random(level, 3, 3, rng)
        assert lang.matrix_order(M) >= 1
        x = level.element(7)
        assert 2 * x == x + x
        with tracer.pause():
            M @ M
    finally:
        restore()
    assert (linalg.matrix_order, lang.matrix_order, liealg.factor,
            Mat.__matmul__, ff.FqElement.__rmul__) == originals
    metrics = tracer.metrics(overhead_ratio=1.0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["ff.extend.calls"]["value"] == 2
    assert metrics["ff.extend.levels_built"]["value"] == 2
    assert metrics["linalg.matrix_order.calls"]["value"] == 1
    assert metrics["ff.mul.calls"]["value"] >= 1
    _, self_t = tracer.self_times()
    assert min(self_t) >= 0
    # every span closed inside its parent
    for idx, par in enumerate(tracer.parent):
        if par >= 0:
            assert tracer.start[par] <= tracer.start[idx]
            assert tracer.end[idx] <= tracer.end[par]


# -- inputs -------------------------------------------------------------------

def _inputs(session):
    if isinstance(session, workloads.LangBatch):
        return [bench_run.canonical(
            [c.kind, c.tower.p, c.tower.e, c.r, c.s,
             [x.to_json() for x in c.c] if c.kind == "Torus"
             else c.c.to_json()]) for c in session.cases]
    if isinstance(session, workloads.CliSession):
        return [argv for _, _, argv in session.commands]
    return [(t, tensor.tolist()) for t, _, _, tensor in session.inputs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    cls = workloads.WORKLOADS[name]
    a, b, other = cls(5), cls(5), cls(6)
    assert a.pass_size == b.pass_size == other.pass_size
    assert _inputs(a) == _inputs(b)
    assert _inputs(a) != _inputs(other)
    assert workloads.request_seed(5, 3) == workloads.request_seed(5, 3)


def test_wrong_solution_is_rejected():
    tower = ff.make_tower(5, 1)
    case = workloads.make_case(tower, "GL", 2, 2, random.Random(3), 6, 12,
                               quiet=contextlib.nullcontext)
    level = tower.level(case.rs)
    with pytest.raises(workloads.BenchError):
        workloads.check_solution(case, Mat.identity(level, 2))


# -- whole runs ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name):
    out = bench("--workload", name, "--seed", "1", "--requests", "2")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    ctx = record(name, 1, 0)["context"]
    assert {"nproc", "cpu_model", "python", "numpy", "git_sha",
            "seed", "env"} <= set(ctx)


@pytest.mark.parametrize("name, n", [("lang_batch", 4), ("cli_session", 6),
                                     ("chevalley_grid", 2)])
def test_trace_repeats_under_any_hash_seed(name, n):
    """A traced slice gives the same artifact digest and the same counts
    under PYTHONHASHSEED=0 and =1, and reports every per-layer metric."""
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = bench("--workload", name, "--seed", "4", "--requests", str(n),
                    "--trace", "1", env=env)
        assert out.returncode == 0, out.stderr
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == units
        counts = {k: v["value"] for k, v in metrics.items()
                  if v["unit"] != "s" and k != "trace.overhead_ratio"}
        runs.append((record(name, 4, 1)["digest"], counts))
    assert runs[0] == runs[1]
    stem = os.path.join(BENCH, "out", f"{name}-seed4-trace1")
    assert os.path.getsize(stem + "-spans.json.gz") > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "lang_batch", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
