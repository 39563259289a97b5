"""The outlinecheck benchmark.

One run measures one workload in a fresh interpreter pinned to one core:

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run it from the root of an outlinecheck checkout; it imports the program
from `src/` and writes scratch files (acheck traces, spans, profiles)
under `.bench_run/`.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
measures the same items untraced and then traced, and reports per-layer
metrics from spans around each call into a public function (see spans.py)
plus the tracing overhead.

    python3 bench/run.py                         # every workload, one row each
    python3 bench/run.py --profile grid          # cProfile dump of one workload
    python3 -m pytest bench                      # smoke test of the benchmark

End-to-end metrics, one row per workload, tracing off.  Times are wall
times scaled to a nominal interpreter speed (see speed.py).

* setup_s: median wall time of fresh interpreters that import outlinecheck
  (the CLI module for session) and parse and elaborate the workload's files.
* items_per_s: items with a correct verdict per second of item time.
* verdict_ms.p50, verdict_ms.tail: time per item to its verdict; the tail
  is the highest percentile with ten samples beyond it, printed with its
  percentile and sample count.  A failed item counts as taking the whole
  measured window, so it misses every limit.
* decided_frac: share of items ending ok or fail rather than budget.
* correct_frac: share of items with no error.  An error is a verdict that
  differs from the known answer, an accepted proof that does not replay
  from its re-parsed text, or an exception (RecursionError included).
  This is 1 - error_frac; the complement is reported because a metric
  that is 0 has no relative bound.
* peak_rss_mb: ru_maxrss of the process running the program: the run
  itself, or its largest `acheck` child for session.
* max_certified_n: the largest n in 10, 20, 40, 80 for which
  `plus n 1 n+1` and `is_nat n` go through check, serialise, parse and
  replay without error, probed after the timed items.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.tail": "ms",
    "decided_frac": "frac",
    "correct_frac": "frac",
    "peak_rss_mb": "MB",
    "max_certified_n": "n",
}

PER_LAYER = {
    "cli.process_ms": "ms/item",
    "frontend.parse_ms": "ms/item",
    "frontend.elaborate_ms": "ms/item",
    "frontend.bytes_per_s": "B/s",
    "outline.cert_ms": "ms/item",
    "kernel.check_ms": "ms/item",
    "kernel.steps": "1/item",
    "kernel.steps_per_s": "1/s",
    "kernel.accepted": "1/item",
    "kernel.rejected": "1/item",
    "kernel.capped": "1/item",
    "kernel.capped_steps_frac": "frac",
    "kernel.records_per_step": "frac",
    "trace.to_lines_ms": "ms/item",
    "trace.from_lines_ms": "ms/item",
    "trace.records": "1/item",
    "trace.bytes": "B/item",
    "trace.bytes_per_s": "B/s",
    "replay.verify_ms": "ms/item",
    "replay.records_per_s": "1/s",
    "replay.rejected": "count",
    "oracle.eval_ms": "ms/item",
    "oracle.queries": "1/item",
    "oracle.universes": "1/item",
    "oracle.unknown": "count",
    "bench.trace_overhead_frac": "frac",
}

WORKLOADS = ("session", "grid", "deep", "ground")

SETUP_REPS = 7

SETUP_CODE = """\
import importlib, sys
importlib.import_module(sys.argv[1])
from outlinecheck import elaborate, parse_file
for p in sys.argv[2:]:
    with open(p, encoding="utf-8") as f:
        elaborate(parse_file(f.read()))
"""


def pin_one_core() -> tuple[int, int]:
    """Pin this process and its children to one core; returns (nproc, cpu)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus), cpus[-1]


def env_header(nproc: int, cpu: int) -> str:
    def lines(paths) -> int:
        return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in paths)

    pkg = SRC / "outlinecheck"
    trusted = [pkg / f for f in ("syntax.py", "replay.py", "trace.py")]
    return (f"# env: python {platform.python_version()} | nproc {nproc}"
            f" | pinned to cpu {cpu} | src {lines(sorted(pkg.glob('*.py')))} lines"
            f" | trusted base {lines(trusted)} lines (syntax.py, replay.py, trace.py)")


def setup_seconds(w, clock) -> float:
    from workloads import child_env
    cmd = [sys.executable, "-c", SETUP_CODE, w.setup_module] + [str(p) for p in w.files]
    times = []
    for i in range(SETUP_REPS + 1):
        clock.tick(force=True)
        t0 = time.perf_counter()
        p = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                           text=True, timeout=120)
        t1 = time.perf_counter()
        clock.tick(force=True)
        if p.returncode != 0:
            raise RuntimeError(f"set-up failed: {p.stderr.strip()[-300:]}")
        if i:  # the first one may write byte-code caches
            times.append(clock.scaled(t0, t1))
    return statistics.median(times)


def run_batch(w, L, batch, clock, tracer=None, first: int = 0):
    """Run one batch of items, timing each to its verdict; judging is not
    timed.  Returns (start, end) per item and the judgements.  With a
    tracer, spans are stamped with item ids from `first`."""
    from workloads import Judged
    intervals, judged = [], []
    for spec in batch:
        if tracer is not None:
            tracer.item = first + len(intervals)
        clock.tick()
        t0 = time.perf_counter()
        try:
            raw = w.run(spec, L)
        except Exception as e:  # an item that raises is an error, not an abort
            intervals.append((t0, time.perf_counter()))
            judged.append(Judged("error", f"{type(e).__name__}: {e}"))
            continue
        intervals.append((t0, time.perf_counter()))
        try:
            judged.append(w.judge(spec, raw, L))
        except Exception as e:
            judged.append(Judged("error", f"{type(e).__name__}: {e}"))
    if tracer is not None:
        tracer.item = None
    return intervals, judged


def measure(w, L, seconds: float):
    """Run whole batches until `seconds` have passed.  Returns item times
    at nominal speed and the judgements."""
    clock = speed.Clock()
    intervals, judged = [], []
    start = time.perf_counter()
    for batch in w.batches(L):
        s, j = run_batch(w, L, batch, clock)
        intervals += s
        judged += j
        if time.perf_counter() - start >= seconds:
            break
    clock.tick(force=True)
    return [clock.scaled(a, b) for a, b in intervals], judged


def measure_traced(W, seed: int, seconds: float):
    """Run each batch untraced and traced, alternating which goes first,
    until `seconds` have passed.  Returns the untraced and traced item
    times at nominal speed, all judgements and the tracer."""
    import spans
    tracer = spans.Tracer()
    clock = speed.Clock()
    w, wt = W(seed), W(seed, tracer)
    L, Lt = spans.layers(), spans.layers(tracer)
    w.prepare(L)
    wt.prepare(Lt)
    plain, traced, judged = [], [], []
    start = time.perf_counter()
    for i, (b, bt) in enumerate(zip(w.batches(L), wt.batches(Lt))):
        pair = [(w, L, b, None, plain), (wt, Lt, bt, tracer, traced)]
        for wl, lay, batch, tr, out in pair[::1 if i % 2 == 0 else -1]:
            s, j = run_batch(wl, lay, batch, clock, tr, len(out))
            out += s
            judged += j
        if time.perf_counter() - start >= seconds:
            break
    clock.tick(force=True)
    return ([clock.scaled(a, b) for a, b in plain],
            [clock.scaled(a, b) for a, b in traced], judged, tracer)


def end_to_end(durations, judged) -> tuple[dict, str]:
    n = len(durations)
    window = sum(durations)
    ok = [j.error is None for j in judged]
    lat = sorted(d * 1e3 if good else window * 1e3 for d, good in zip(durations, ok))
    rank = n - 10 if n > 10 else n  # 1-based, with ten samples beyond it
    metrics = {
        "items_per_s": sum(ok) / window,
        "verdict_ms.p50": statistics.median(lat),
        "verdict_ms.tail": lat[rank - 1],
        "decided_frac": sum(j.verdict in ("ok", "fail") for j in judged) / n,
        "correct_frac": sum(ok) / n,
    }
    return metrics, f"tail is p{100 * rank / n:.1f} of {n} items"


def result(metrics: dict, units: dict, judged) -> dict:
    failed = sum(j.error is not None for j in judged)
    return {"correct": failed == 0, "attempted": len(judged), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def run_one(args) -> dict:
    import spans
    import workloads

    W = workloads.WORKLOADS[args.workload]
    workloads.SCRATCH.mkdir(exist_ok=True)
    if not args.trace:
        setup = setup_seconds(W, speed.Clock())
        w = W(args.seed)
        L = spans.layers()
        w.prepare(L)
        if args.profile:
            import cProfile
            prof = cProfile.Profile()
            w.profile_path = workloads.SCRATCH / f"profile-{w.name}-acheck.pstats"
            durations, judged = prof.runcall(measure, w, L, args.seconds)
            path = workloads.SCRATCH / f"profile-{w.name}.pstats"
            prof.dump_stats(path)
            print(f"# profile written to {path.relative_to(ROOT)}")
        else:
            durations, judged = measure(w, L, args.seconds)
        metrics, note = end_to_end(durations, judged)
        metrics["peak_rss_mb"] = resource.getrusage(w.rss_of).ru_maxrss / 1024
        metrics["setup_s"] = setup
        metrics["max_certified_n"] = workloads.max_certified_n(L)
        units = END_TO_END
    else:
        plain, traced, judged, tracer = measure_traced(W, args.seed, args.seconds)
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        metrics["bench.trace_overhead_frac"] = sum(traced) / sum(plain) - 1
        path = workloads.SCRATCH / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(path)
        note = f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"
        units = PER_LAYER
    for j in judged:
        if j.error is not None:
            print(f"# error: {j.error}", file=sys.stderr)
    out = result(metrics, units, judged)
    print(f"# {args.workload}: " + " | ".join(
        f"{k} {v['value']:.6g} {v['unit']}" for k, v in out["metrics"].items())
        + f" | {note}")
    return out


def run_all(args) -> int:
    """Each workload in its own interpreter; one row per workload."""
    rows, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"{name}: failed\n{p.stderr}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        out = json.loads(lines[-1])
        ok = ok and out["correct"]
        rows.append((name, out))
    names = list(rows[0][1]["metrics"])
    print("workload " + " ".join(f"{m}[{rows[0][1]['metrics'][m]['unit']}]" for m in names))
    for name, out in rows:
        print(f"{name} " + " ".join(f"{out['metrics'][m]['value']:.6g}" for m in names)
              + f" attempted={out['attempted']} failed={out['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--profile", metavar="WORKLOAD", choices=WORKLOADS,
                    help="write a cProfile dump of one untraced workload run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "outlinecheck" / "__init__.py").is_file():
        print(f"bench: {SRC / 'outlinecheck'} not found; run from the root of"
              " an outlinecheck checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nproc, cpu = pin_one_core()
    if args.profile:
        args.workload, args.trace = args.profile, 0
    if args.workload is None:
        return run_all(args)
    print(env_header(nproc, cpu))
    out = run_one(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
