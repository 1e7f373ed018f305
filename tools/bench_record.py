"""Record benchmark runs in BENCH_<workload>.json at the repository root.

    python3 tools/bench_record.py --workload cli-calls --seeds 101 102 103
    python3 tools/bench_record.py --workload cli-calls --seeds 101 --checkout ../parent

For each seed it runs `perfbench/run.py --workload W --seed S --trace 0`
in the checkout (by default the one holding this file) and appends one row
to the file: the checkout's git revision, the Python version, the seed,
the host probe time from run.py's `== ... host probe X ms` report line and
the run's final JSON line.  Rows are written as each run ends, so an
interrupted series keeps the runs it finished.  A failed run appends no row
and ends the series with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = re.compile(r"^== .* host probe ([0-9.]+) ms", re.MULTILINE)


def record(path: Path, row: dict) -> None:
    rows = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    rows.append(row)
    tmp = path.with_suffix(".tmp")
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in rows)  # a row per line
    tmp.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the tree whose perfbench/run.py runs (default: this one)")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    rev = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if rev.returncode:
        print(f"error: {checkout} is not a git checkout", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.workload}.json"
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"error: run.py exited with {proc.returncode} at seed {seed}", file=sys.stderr)
            return 1
        probe = PROBE.search(proc.stdout)
        if not probe:
            print(f"error: run.py printed no host probe at seed {seed}", file=sys.stderr)
            return 1
        record(out, {
            "revision": rev.stdout.strip(),
            "python": platform.python_version(),
            "seed": seed,
            "host_probe_ms": float(probe.group(1)),
            "result": json.loads(lines[-1]),
        })
        print(f"{args.workload} seed {seed}: {lines[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
