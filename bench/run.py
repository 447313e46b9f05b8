"""Seeded benchmark for langchev.

    python3 bench/run.py --workload lang_batch --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
The workloads (lang_batch, cli_session, chevalley_grid) are defined in
``bench/workloads.py``; each is one client in one process that issues its
next request only after the previous one returns (a closed loop).

``--trace 0`` sets the workload up three to nine times (a cheap set-up is
repeated until SETUP_BUDGET_S seconds have gone) and reports the median
set-up time, then issues requests for ``--seconds`` seconds, checks
every artifact outside the timed region and prints the end-to-end metrics.
Every time it reports is the wall time at reference speed: after each
set-up and each request it runs the reference kernel of
``bench/reference.py`` for about 5% as long and divides the wall time by the
host's slowdown measured around it, so that the drift of a shared host's
speed does not show as a change of the program.  The raw wall times and
slowdowns are kept in the run record.

``--trace 1`` runs a fixed slice of ``trace_requests`` requests untraced,
then sets the workload up again and runs the same slice with every public
function of the package wrapped in a span (``bench/spans.py``), and prints
the per-layer metrics summed over set-up and slice.

``--requests N`` replaces the time limit by exactly N requests.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A wrong or unverified artifact aborts the run
with exit code 1 and no result line.  Each run writes its record (machine and
run context, raw wall times and slowdowns, artifact digests) to
``bench/out/``; a traced run writes its span dump next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = (3, 9)      # at least, at most
SETUP_BUDGET_S = 4.0        # repeat a cheap set-up until this much time
MIN_PASSES = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "PYTHONHASHSEED")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms",
                    "tail_ms": "ms", "success_ratio": "ratio",
                    "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_rank(n):
    """(percentile, index into the ascending sample) of the tail: the
    highest whole percentile up to p90 with at least ten of the n samples
    beyond it.  That is p90 from 100 samples on, p80 at 50 and the median
    below 20.  It stops at p90: further out, at the few hundred requests of
    a run, the percentile rests on a handful of the slowest Las Vegas draws
    and moved by 10-15% between seeds where p90 moved by 1-3%."""
    pct = min(90, max(50, 100 * (n - 10) // n)) if n > 10 else 50
    return pct, max(0, math.ceil(pct * n / 100) - 1)


def canonical(obj):
    """Canonical JSON bytes: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Run:
    """Latency, outcome and digest of each request of one loop, and the
    start time and reference-kernel time that follow it, when paced."""

    def __init__(self, slice_size):
        self.slice_size = slice_size
        self.latency = []
        self.failed = []
        self.start = []
        self.ref_s = []
        self.ref_units = []
        self._digest = hashlib.sha256()
        self.slice_digest = None

    def add(self, i, latency, artifact, failed, start=None, ref_s=None,
            ref_units=None):
        self.latency.append(latency)
        self.failed.append(failed)
        if ref_units is not None:
            self.start.append(start)
            self.ref_s.append(ref_s)
            self.ref_units.append(ref_units)
        self._digest.update(canonical({"request": i, "artifact": artifact}))
        self._digest.update(b"\n")
        if i + 1 == self.slice_size:
            self.slice_digest = self._digest.hexdigest()

    @property
    def digest(self):
        return self._digest.hexdigest()

    def slowdown(self):
        return reference.windowed(self.start, self.latency, self.ref_s,
                                  self.ref_units)

    def end_to_end(self, setup_times):
        """ops_per_s is verified requests per second of request time;
        p50_ms is the median request latency and tail_ms the tail_rank
        percentile, both over every request including clean failures.
        Set-up and request times are taken as given: a paced run passes
        them at reference speed."""
        latency = self.latency
        if self.ref_units:
            latency = [t / f for t, f in zip(latency, self.slowdown())]
        ms = sorted(1000 * x for x in latency)
        pct, idx = tail_rank(len(ms))
        verified = len(ms) - sum(self.failed)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": statistics.median(setup_times),
                  "ops_per_s": verified / sum(latency),
                  "p50_ms": statistics.median(ms),
                  "tail_ms": ms[idx],
                  "success_ratio": verified / len(ms),
                  "peak_rss_mb": peak_kb / 1024}
        return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
                 for k, v in values.items()},
                {"tail_percentile": pct, "requests": len(ms),
                 "beyond_tail": len(ms) - 1 - idx})


def loop(session, seconds=None, count=None, tracer=None, pace=False):
    """Issue requests until `seconds` have passed and at least MIN_PASSES
    passes through the pool are done, stopping only at the end of a pass
    (so every input is sampled equally and even the costliest ones several
    times), or, with `count`, exactly that many; check each one outside the
    timed region.  With `pace`, run the reference kernel right after each
    request."""
    from langchev.errors import BudgetExhausted
    quiet = tracer.pause if tracer is not None else contextlib.nullcontext
    run = Run(session.trace_requests)
    t_start = perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % session.pass_size == 0 \
                and i >= MIN_PASSES * session.pass_size \
                and perf_counter() - t_start >= seconds:
            break
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            result = session.call(i)
        except BudgetExhausted as exc:
            result = exc
        t1 = perf_counter()
        ref = {}
        if pace:
            units = reference.units_for(t1 - t0)
            ref = {"start": t0 - t_start, "ref_s": reference.run(units),
                   "ref_units": units}
        if isinstance(result, BudgetExhausted):
            artifact, failed = {"budget_exhausted": str(result)}, True
        else:
            with quiet():
                artifact, failed = session.check(i, result)
        run.add(i, t1 - t0, artifact, failed, **ref)
        i += 1
    return run


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def context(args):
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "requests_limit": args.requests,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_sha": _git_sha(),
            "env": {k: os.environ.get(k) for k in THREAD_ENV}}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(workload, args):
    setup_times, setup_slowdown = [], []
    least, most = SETUP_REPEATS
    while len(setup_times) < least or (sum(setup_times) < SETUP_BUDGET_S
                                       and len(setup_times) < most):
        session = None          # let the previous set-up be freed first
        t0 = perf_counter()
        session = workload(args.seed)
        setup_times.append(perf_counter() - t0)
        setup_slowdown.append(reference.slowdown(setup_times[-1]))
    run = loop(session, seconds=args.seconds, count=args.requests,
               pace=True)
    metrics, tail = run.end_to_end(
        [t / f for t, f in zip(setup_times, setup_slowdown)])
    record = {"setup_s_each": setup_times, **tail,
              "setup_slowdown": setup_slowdown,
              "slowdown": run.slowdown(), "latency_s": run.latency,
              "pass_size": session.pass_size,
              "failed": sum(run.failed),
              "digest": {"requests": len(run.latency),
                         "sha256": run.digest},
              "slice_digest": {"requests": session.trace_requests,
                               "sha256": run.slice_digest}}
    return run, metrics, record


def run_traced(workload, args):
    from spans import Tracer, instrument
    from workloads import BenchError
    n = args.requests or workload.trace_requests
    plain = loop(workload(args.seed), count=n)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        session = workload(args.seed, quiet=tracer.pause)
        run = loop(session, count=n, tracer=tracer)
    finally:
        restore()
    if run.digest != plain.digest:
        raise BenchError("tracing changed the artifacts of the slice")
    ratio = sum(run.latency) / sum(plain.latency)
    balance = tracer.request_balance(dict(enumerate(run.latency)))
    _, self_t = tracer.self_times()
    if min(self_t, default=0.0) < -1e-6:
        raise BenchError("a span's children outlast it")
    for rid, row in balance.items():
        if row["untraced_s"] < -1e-6 \
                or abs(row["sum_s"] - row["wall_s"]) > 1e-6:
            raise BenchError(f"request {rid}: self times {row['self_s']} + "
                             f"untraced {row['untraced_s']} != traced wall "
                             f"{row['wall_s']}")
    metrics = tracer.metrics(ratio)
    record = {"requests": n, "failed": sum(run.failed),
              "untraced_wall_s": sum(plain.latency),
              "traced_wall_s": sum(run.latency), "spans": len(tracer.name),
              "digest": {"requests": n, "sha256": run.digest}}
    return run, metrics, record, (tracer, balance)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=None,
                    help="run exactly this many requests instead")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "langchev",
                                       "__init__.py")):
        print(f"no langchev sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.requests is not None and args.requests < 1:
        print("--requests must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, BenchError
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            run, metrics, record, (tracer, balance) = \
                run_traced(workload, args)
        else:
            run, metrics, record = run_untraced(workload, args)
    except BenchError as exc:
        print(f"benchmark check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:   # a wrong artifact must never yield a result line
        traceback.print_exc()
        return 1
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    record = {"context": context(args), **record, "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.dump(stem + "-spans.json.gz", balance)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({"correct": True, "attempted": len(run.latency),
                      "failed": sum(run.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
