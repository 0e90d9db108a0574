"""The benchmark harness still runs against the current source: every
workload, traced and untraced, once at the smoke size, each judged correct
by the harness's own gate.  Its per-layer counts are not pinned here, but
the traced run-default must see steps and monitor rows: the tracer reads
them from _Kernels.step and RunMonitor.row, and a run that stopped going
through either would read zero there instead of failing."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_is_correct_on_every_workload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == 6
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w, t) for w in ("run-default", "sweep-n", "oracle") for t in (0, 1)
    }
    for r in results:
        assert r["correct"] and r["complete"] and r["failed"] == 0, r
    traced = next(r for r in results if r["workload"] == "run-default" and r["trace"] == 1)
    assert traced["metrics"]["dynamics.steps"]["value"] > 0
    assert traced["metrics"]["functionals.monitor_rows"]["value"] > 0
