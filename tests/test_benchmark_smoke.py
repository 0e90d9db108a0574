"""The benchmark harness still runs against the current source: every
workload, traced and untraced, once at the smoke size, each judged correct
by the harness's own gate.  The traced run-default must see steps and
monitor rows: the tracer reads them from _Kernels.step and RunMonitor.row,
and a run that stopped going through either would read zero there instead
of failing.  The tracer books a transform to a step only when
_Kernels.step is its direct parent span, and a transform that left the
step would lower the per-step counts without failing anything, so they
are pinned too: 5 band transforms per nodal step in run-default, and 11
padded ones per Yosida step in sweep-n (4 Taylor terms at n = 8).  The
smoke oracle's sweep count is pinned at 3, so that an oracle that
converges more slowly fails here and not only in its timing."""

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
    traced = {r["workload"]: r["metrics"] for r in results if r["trace"] == 1}
    assert traced["run-default"]["dynamics.steps"]["value"] > 0
    assert traced["run-default"]["functionals.monitor_rows"]["value"] > 0
    assert traced["run-default"]["dynamics.dst_per_step"]["value"] == 5
    assert traced["sweep-n"]["dynamics.pad_dst_per_step"]["value"] == 11
    assert traced["oracle"]["dynamics.picard_sweeps"]["value"] == 3
