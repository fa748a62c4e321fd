"""Seeded, closed-loop benchmark of corematch's public API.

    python3 perfbench/run.py --workload sep-reuse --seed 1 --seconds 25 --trace 0

One client in one thread sends each query only after the previous one has
returned. The seed picks the inputs; the program sees only the generated
instances, allocations and graphs. Every result is checked (see
`workloads.check`). The last line of standard output is one JSON object:

* --trace 0: the end-to-end metrics, measured with no wrapper installed;
* --trace 1: the per-layer metrics of a traced pass over the same batch,
  plus the tracing overhead, measured against an untraced pass over the
  batch's first quarter. The spans go to .bench_out/.

The workloads, and which layer metric should move which end-to-end metric
on which workload, are described in perfbench/README.md.
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sep-reuse", "sep-fresh", "extform-lp")
SETUP_REPS = 5
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import corematch; print(time.perf_counter() - t)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float,
                    help="run length; sets the batch size through the workload's nominal rate")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds() -> float:
    """Time `import corematch` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip())


def environment() -> dict:
    import networkx

    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # linsys silently falls back to Fraction when gmpy2 is missing
        "backend": "gmpy2.mpq" if importlib.util.find_spec("gmpy2") else "fractions.Fraction",
    }


def setup(workloads, name, seed, seconds, expected):
    """Imports, corpus generation and warm-up, SETUP_REPS times; returns the
    median set-up time and the last batch built."""
    times = []
    for rep in range(SETUP_REPS):
        t_import = import_seconds()
        t = time.perf_counter()
        batch = workloads.build_batch(name, seed, seconds, expected)
        for q in workloads.warmup_batch(name, seed, rep):
            workloads.run_query(q)
        times.append(t_import + time.perf_counter() - t)
    return statistics.median(times), batch


def measure(workloads, batch, tracer=None):
    """Run the batch in order; returns per-query (seconds, result, error)."""
    gc.collect()
    runs = []
    for i, q in enumerate(batch):
        if tracer is not None:
            tracer.query = i
        t = time.perf_counter()
        try:
            result, error = workloads.run_query(q), None
        except Exception:  # a failed query is counted, and the run goes on
            result, error = None, traceback.format_exc()
        runs.append((time.perf_counter() - t, result, error))
    return runs


def failures(workloads, batch, runs, offset=0) -> dict[int, list[str]]:
    """Problems per failed query: exceptions, wrong verdicts, bad certificates."""
    out = {}
    for i, (q, (_, result, error)) in enumerate(zip(batch, runs)):
        problems = [error] if error else workloads.check(q, result)
        if problems:
            out[offset + i] = [f"{q.kind}: {p}" for p in problems]
    return out


def tail(latencies):
    """(value, percentile): the highest order statistic with at least
    TAIL_BEYOND samples above it; the median when there are too few."""
    xs = sorted(latencies)
    j = len(xs) - TAIL_BEYOND
    if j < 1:
        return statistics.median(xs), 50.0
    return xs[j - 1], 100.0 * j / len(xs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "corematch" / "__init__.py").is_file():
        print(f"error: corematch sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corematch

    if Path(corematch.__file__).resolve().parent != SRC / "corematch":
        print(f"error: imported corematch from {corematch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import corpus
    import tracing
    import workloads

    env = environment()
    expected = corpus.load_expected()
    setup_s, batch = setup(workloads, args.workload, args.seed, args.seconds, expected)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} queries {len(batch)} "
          f"input-digest {corpus.digest(q.key for q in batch)}")
    if tracing.installed():
        raise RuntimeError("a tracing wrapper is still installed")

    if not args.trace:
        runs = measure(workloads, batch)
        problems = failures(workloads, batch, runs)
        attempted, failed = len(runs), len(problems)
        lat = [r[0] for r in runs]
        value, pct = tail(lat)
        metrics = {
            "queries_per_s": metric((attempted - failed) / sum(lat), "1/s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        # Printed but not gated: on a shared host these order statistics move
        # between runs by more than the largest bound allowed (see README).
        print(f"query_p50_s {statistics.median(lat):.6g} s")
        print(f"query_tail_s {value:.6g} s (p{pct:.1f} of {attempted} queries, {TAIL_BEYOND} beyond it)")
        print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    else:
        # untraced pass over the first quarter, then a traced pass over a
        # freshly built copy of the whole batch, so no object is reused
        prefix = max(3, len(batch) // 4)
        plain = measure(workloads, batch[:prefix])
        fresh = workloads.build_batch(args.workload, args.seed, args.seconds, expected)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(workloads, fresh, tracer)
        finally:
            tracer.restore()
        if tracing.installed():
            raise RuntimeError("tracing wrappers were not restored")
        problems = failures(workloads, batch[:prefix], plain)
        for i, bad in failures(workloads, fresh, traced, prefix).items():
            problems[i] = bad
        for i in range(prefix):
            a, b = plain[i][1], traced[i][1]
            if a is not None and b is not None and \
                    workloads.verdict(batch[i], a) != workloads.verdict(fresh[i], b):
                problems.setdefault(prefix + i, []).append("traced verdict differs from untraced")
        attempted, failed = prefix + len(traced), len(problems)
        layer = tracing.layer_metrics(tracer.spans, [r[0] for r in traced])
        layer["trace.overhead_frac"] = (
            sum(r[0] for r in traced[:prefix]) / sum(r[0] for r in plain) - 1
        )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        metrics = {name: metric(value, tracing.unit(name)) for name, value in layer.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    for i, bad in sorted(problems.items()):
        for p in bad:
            print(f"FAILED query {i}: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
