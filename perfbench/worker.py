"""Runs one workload's job stream in a fresh interpreter; run.py starts it.

A run measures a fixed set of the workload's first DISTINCT jobs, each
generated from (seed, index).  It is a closed loop with one client: the
run makes passes over the set, running, timing and checking one job
before the next, until at least MIN_PASSES passes and --seconds are done.

This host's speed swings by up to 1.8x in states lasting seconds to
minutes (other tenants share its cores; see cpu.py).  So each job runs
on the CPU that is fastest at the time, its time is scaled to a fixed
host speed by a probe timed before and after it, and a job's latency is
the median of its scaled untraced times over the passes.  Counts and
digests come from the first pass and repeat exactly for a seed.

Traced (--trace 1), each job runs once untraced and once traced per
pass, in alternating order, so that the overhead ratio compares the same
jobs; per-layer figures come from the spans of the first pass.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cpu import Pinner  # noqa: E402
from tracing import NullTracer, Tracer, layer_totals  # noqa: E402

MIN_PASSES = 3
WALL_CAP_S = 140  # stop starting jobs here, even before MIN_PASSES
WORKLOADS = {
    "sort-select": "wl_sort",
    "graph-dp": "wl_graph",
    "np-desk": "wl_np",
    "cli-calls": "wl_cli",
}

# Spans whose total time is a per-layer metric named "<span>_s".
LAYER_TIMES = (
    "sorting.budget",
    "graph_core.parse", "graph_core.build", "graph_core.traverse", "graph_core.scc",
    "paths_mst.sssp", "paths_mst.apsp", "paths_mst.mst",
    "dp.knapsack", "dp.chain", "dp.lcs", "dp.alloc",
    "complexity.parse", "complexity.reduce", "complexity.decide", "complexity.transport",
    "complexity.verify", "complexity.twosat",
    "approx.heuristic", "approx.optimum",
    "cli.main", "cli.process",
)
LAYER_CALLS = ("sorting", "tournament", "search_games", "graph_core", "approx")
LAYER_BUSY = ("sorting", "tournament", "search_games")
LAYER_SELF = ("sorting", "tournament")
LAYER_FAILED = ("oracles", "sorting", "tournament", "search_games", "graph_core",
                "paths_mst", "dp", "complexity", "approx", "cli")


def quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the average of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  With a
    few dozen heavy jobs near p90 it is much steadier from seed to seed
    than any single order statistic."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 100 * n
    cdf, total, prev = [0.0], 0.0, 0.0
    for k in range(1, steps + 1):  # trapezoid rule on the Beta density
        x = k / steps
        dens = 0.0
        if k < steps:
            dens = math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += (prev + dens) / (2 * steps)
        prev = dens
        if k % 100 == 0:
            cdf.append(total)
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / total


def startup_s(pinner: Pinner, code: str, runs: int = 5) -> float:
    """Least scaled wall time of a fresh interpreter running `code`."""
    return min(pinner.timed(subprocess.run, [sys.executable, "-c", code], check=True)[2]
               for _ in range(runs)) / 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True, help="scratch directory for job files")
    ap.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = ap.parse_args(argv)
    wl = importlib.import_module(WORKLOADS[args.workload])

    tracer = Tracer() if args.trace else None
    null = NullTracer()
    pinner = Pinner(start=wl.PROBE == "start")
    start = time.perf_counter()
    in_digest, out_digest = hashlib.sha256(), hashlib.sha256()
    jobs = []
    for index in range(wl.DISTINCT):
        jobs.append(wl.make_job(args.seed, index, args))
        in_digest.update(f"{jobs[-1].kind}:{jobs[-1].key}\n".encode())

    samples: list[list[float]] = [[] for _ in jobs]  # scaled untraced ns per pass
    broken: set[int] = set()  # jobs that failed in some pass
    untraced_ns = traced_ns = 0
    attempted = failed = passes = 0
    counts = {"queries": 0, "decide_calls": 0, "target_size": 0}
    ratios: list[Fraction] = []
    capped = False
    while passes < (1 if tracer else MIN_PASSES) or time.perf_counter() - start < args.seconds:
        for index, job in enumerate(jobs):
            if time.perf_counter() - start >= WALL_CAP_S:
                capped = True
                break
            job_id = passes * len(jobs) + index
            attempted += 1
            try:
                if tracer is None:
                    outcome, _, dt = pinner.timed(job.run, null)
                    job.check(outcome)
                else:
                    for tr in (null, tracer) if job_id % 2 == 0 else (tracer, null):
                        before = pinner.pin()  # the probes stay outside the traced job
                        tr.begin_job(job_id)
                        t0 = time.perf_counter_ns()
                        try:
                            outcome = job.run(tr)
                        finally:
                            wall = time.perf_counter_ns() - t0
                            tr.end_job()
                        elapsed_ns = pinner.scale(wall, before)
                        job.check(outcome)
                        if tr is null:
                            dt = elapsed_ns
                        else:
                            traced = elapsed_ns
                    if job.aside:
                        job.aside(tracer, job_id)
            except Exception:
                failed += 1
                broken.add(index)
                print(f"job {index} ({job.kind}) failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
                continue
            if tracer is not None:
                untraced_ns += dt
                traced_ns += traced
            samples[index].append(dt)
            if passes == 0:
                for key in counts:
                    counts[key] += outcome.get(key, 0)
                if outcome.get("ratio") is not None:
                    ratios.append(outcome["ratio"])
                out_digest.update(
                    json.dumps(outcome["view"], sort_keys=True, default=str).encode())
        if capped:
            print(f"stopped at the {WALL_CAP_S} s cap in pass {passes + 1}", file=sys.stderr)
            break
        passes += 1

    times = [statistics.median(s) for i, s in enumerate(samples) if i not in broken and s]
    result = {
        "jobs": len(jobs),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "complete": not capped,
        "input_digest": in_digest.hexdigest()[:16],
        "output_digest": out_digest.hexdigest()[:16],
        "ratio_mean": float(sum(ratios) / len(ratios)) if ratios else None,
        "host_probe_ms": statistics.median(pinner.hosts) / 1e6 if pinner.hosts else 0.0,
        "probe_ref_ms": pinner.ref_ns / 1e6,
        **counts,
    }
    if tracer is None:
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if wl.RSS == "children" else resource.RUSAGE_SELF)
        result["end_to_end"] = {
            "jobs_per_s": len(times) / (sum(times) / 1e9),
            "job_p50_ms": quantile(times, 0.5) / 1e6,
            "job_p90_ms": quantile(times, 0.9) / 1e6,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
    else:
        result["per_layer"] = per_layer(tracer, len(jobs), counts, result["ratio_mean"],
                                        traced_ns / untraced_ns)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


def per_layer(tracer: Tracer, jobs: int, counts, ratio_mean, overhead: float) -> dict:
    t = layer_totals(tracer.spans, range(jobs))
    s = 1e-9
    out = {
        "oracles.queries": counts["queries"],
        "oracles.busy_s": t["oracle_ns"] * s,
    }
    for layer in LAYER_CALLS:
        out[f"{layer}.calls"] = t["calls"][layer]
    for layer in LAYER_BUSY:
        out[f"{layer}.busy_s"] = t["busy"][layer] * s
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = t["self"][layer] * s
    for span in LAYER_TIMES:
        out[f"{span}_s"] = t["time"][span] * s
    out["complexity.decide_calls"] = counts["decide_calls"]
    out["complexity.target_size"] = counts["target_size"]
    out["approx.ratio_mean"] = ratio_mean or 0.0
    pinner = Pinner(start=True)
    interp = startup_s(pinner, "pass")
    out["cli.interp_s"] = interp
    out["cli.import_s"] = startup_s(pinner, "import combinlab.cli") - interp
    for layer in LAYER_FAILED:
        out[f"{layer}.failed"] = tracer.failed[layer]
    out["trace.overhead_ratio"] = overhead
    out["trace.coverage"] = t["covered_ns"] / t["job_ns"] if t["job_ns"] else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
