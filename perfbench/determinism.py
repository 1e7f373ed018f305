"""Determinism check for the benchmark's seeded workloads.

    python3 perfbench/determinism.py [--workload W] [--seed S]

For each workload it runs the worker three times with no time floor:
untraced with seed S, traced with seed S, untraced with seed S + 1.
The two runs of seed S must agree exactly on the oracle query count,
the reduction target sizes, the brute-force decide calls, and the input
and output digests (so tracing changes no result either); seed S + 1
must give other inputs.  Exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

EXACT = ("queries", "target_size", "decide_calls", "input_digest", "output_digest")


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    env = run.hermetic_env()
    out_dir = run.ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    ok = True
    for w in [args.workload] if args.workload else names:
        a, b, c = (run.run_worker(w, seed, 0, trace, env, out_dir)
                   for seed, trace in ((args.seed, 0), (args.seed, 1), (args.seed + 1, 0)))
        bad = [f for f in EXACT if a[f] != b[f]]
        if a["input_digest"] == c["input_digest"]:
            bad.append("seed change left the inputs unchanged")
        if a["failed"] or b["failed"] or c["failed"]:
            bad.append("failed jobs")
        ok = ok and not bad
        print(f"{w}: {'ok' if not bad else 'MISMATCH ' + ', '.join(bad)} "
              + " ".join(f"{f}={a[f]}" for f in EXACT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
