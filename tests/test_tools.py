"""Checks of the scripts under tools/."""

import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_reads_the_host_probe_from_the_report_line(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports cpu
    run = load(ROOT / "perfbench" / "run.py", "perfbench_run")
    bench_record = load(ROOT / "tools" / "bench_record.py", "bench_record")
    res = {"jobs": 25, "passes": 2, "failed": 0, "attempted": 50, "queries": 7,
           "ratio_mean": 1.25, "host_probe_ms": 0.123456, "probe_ref_ms": 0.1,
           "input_digest": "ab", "output_digest": "cd", "metrics": {}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report("np-desk", 101, res)
    assert float(bench_record.PROBE.search(out.getvalue()).group(1)) == 0.1235
