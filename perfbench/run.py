"""combinlab benchmark: one command that generates seeded inputs, runs a
workload as a closed loop with one client, checks every output and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload sort-select --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one row each

Run it from anywhere inside a checkout; it uses the checkout's src/
(nothing needs installing).  --trace 0 reports the end-to-end metrics
listed in BENCHMARK.json, --trace 1 the per-layer ones from a separate
traced run.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Scratch files and traced
spans go to .perfbench/ at the checkout root.  Workload rationale and the
layer-to-metric predictions are in perfbench/RATIONALE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cpu import Pinner

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5  # fresh-interpreter starts before the worker, and again after it
RUN_TIMEOUT_S = 170
# What a workload's first job needs imported; setup_s times a fresh
# interpreter importing these.
SETUP_IMPORTS = {
    "sort-select": "combinlab.sorting, combinlab.tournament, combinlab.search_games",
    "graph-dp": "combinlab.graph_core, combinlab.paths_mst, combinlab.dp, combinlab.complexity",
    "np-desk": "combinlab.complexity, combinlab.approx, combinlab.graph_core",
    "cli-calls": "combinlab.cli",
}


def hermetic_env() -> dict:
    """Environment for every child: the checkout's sources, fixed hashing
    (set iteration order decides which witness brute force finds first),
    and no oracle-cap override."""
    env = dict(os.environ)
    env.pop("COMBINLAB_ORACLE_LIMIT", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(workload: str, env: dict, warm: bool) -> list[float]:
    """Times from starting a fresh interpreter until it has imported what
    the workload's first job needs, scaled by the start probe (see
    cpu.py); `warm` adds an untimed first start, which fills the file
    cache."""
    code = f"import {SETUP_IMPORTS[workload]}; print('ready', flush=True)"
    times = []
    pinner = Pinner(start=True)
    for i in range(SETUP_RUNS + warm):
        before = pinner.pin()
        t0 = time.perf_counter_ns()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter_ns() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"setup probe for {workload} failed")
        scaled_ns = pinner.scale(wall, before)  # probes after the child has exited
        if i or not warm:
            times.append(scaled_ns / 1e9)
    pinner.release()
    return times


def run_worker(workload, seed, seconds, trace, env, out_dir: Path) -> dict:
    workdir = out_dir / f"files-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if trace:
        cmd += ["--spans", str(out_dir / f"spans-{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, spec, env, out_dir) -> dict:
    """setup_s is the median of the scaled set-up starts, which run half
    before and half after the worker so that they meet different host
    states (see cpu.py on the host's speed swings)."""
    if trace:
        res = run_worker(workload, seed, seconds, trace, env, out_dir)
        values = dict(res["per_layer"])
    else:
        starts = setup_times(workload, env, warm=True)
        res = run_worker(workload, seed, seconds, trace, env, out_dir)
        starts += setup_times(workload, env, warm=False)
        values = {"setup_s": statistics.median(starts), **res["end_to_end"]}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    res["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                      for m in declared}
    return res


def report(workload, seed, res) -> None:
    ratio = res["ratio_mean"]
    print(f"== {workload} seed={seed}: {res['jobs']} jobs x {res['passes']} passes, "
          f"failed_ratio {res['failed'] / res['attempted']:.4f} share, "
          f"queries {res['queries']} count, "
          f"approx_ratio_mean {'n/a' if ratio is None else f'{ratio:.6f} ratio'}, "
          f"host probe {res['host_probe_ms']:.4f} ms (times scaled to "
          f"{res['probe_ref_ms']:g} ms), "
          f"inputs {res['input_digest']}, outputs {res['output_digest']}")
    for name, m in res["metrics"].items():
        print(f"   {name:28s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "combinlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no combinlab sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("COMBINLAB_ORACLE_LIMIT", None)
    env = hermetic_env()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "combinlab"),
                    str(ROOT / "perfbench")], env=env, check=True)
    workloads = [args.workload] if args.workload else names
    results = {}
    for w in workloads:
        try:
            results[w] = measure(w, args.seed, args.seconds, args.trace, spec, env, out_dir)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {w}: {exc}", file=sys.stderr)
            return 1
        report(w, args.seed, results[w])

    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and r["complete"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
