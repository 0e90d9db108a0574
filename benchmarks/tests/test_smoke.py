"""Keeps the benchmark harness from rotting: every workload and the traced
run once at the smoke size, and the correctness gate on stored references.

    python3 -m pytest benchmarks/tests
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads as W  # noqa: E402
from hostclock import REFERENCE_PROBE_MS, HostClock  # noqa: E402


def test_smoke_mode_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w, t) for w in W.WORKLOADS for t in (0, 1)
    }
    for r in results:
        assert r["correct"] and r["complete"] and r["failed"] == 0
    traced = {r["workload"]: r["metrics"] for r in results if r["trace"]}
    assert traced["run-default"]["dynamics.dst_per_step"]["value"] == 7
    assert traced["sweep-n"]["dynamics.pad_dst_per_step"]["value"] > 0
    assert traced["oracle"]["dynamics.picard_sweeps"]["value"] > 0


def test_measuring_run_fails_without_program_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py", "hostclock.py", "references.json"):
        (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """One smoke-size iteration of each workload: (verdicts, values)."""
    work = str(tmp_path_factory.mktemp("bench"))
    out = {}
    for workload in W.WORKLOADS:
        ini = W.write_config(workload, 0, "smoke", work)
        _, verdicts, values = W.run_iteration(workload, ini, os.path.join(work, workload), "smoke")
        out[workload] = (verdicts, values)
    return out


def _corruptions(reference):
    for name, value in reference.items():
        if isinstance(value, list):
            for i in range(len(value)):
                bad = copy.deepcopy(reference)
                bad[name][i] *= 1.1
                yield f"{name}[{i}]", bad
        else:
            bad = copy.deepcopy(reference)
            bad[name] *= 1.1
            yield name, bad


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_gate_passes_on_stored_reference_and_fails_on_each_corruption(smoke_outputs, workload):
    verdicts, values = smoke_outputs[workload]
    reference = W.load_references()[W.reference_key(0, "smoke")][workload]
    failures, dev = W.gate(verdicts, values, reference)
    assert failures == [] and dev < W.RTOL
    for name, bad in _corruptions(reference):
        failures, _ = W.gate(verdicts, values, bad)
        assert failures, f"corrupting {name} went unnoticed"


def test_gate_fails_on_a_failed_verdict(smoke_outputs):
    verdicts, values = smoke_outputs["oracle"]
    reference = W.load_references()[W.reference_key(0, "smoke")]["oracle"]
    failures, _ = W.gate([("stepper-vs-duhamel", False)], values, reference)
    assert failures == ["verdict stepper-vs-duhamel failed"]


def test_seed_selects_a_stored_variant_deterministically():
    refs = W.load_references()
    for seed in (0, 7, 8, 12345):
        assert W.reference_key(seed, "full") in refs
        assert W.config_text("oracle", seed, "full") == W.config_text("oracle", seed + W.VARIANTS, "full")
    assert W.config_text("oracle", 1, "full") != W.config_text("oracle", 2, "full")


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_clock_probes_while_it_times_and_leaves_no_timer_behind():
    previous = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        _busy(0.5)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock.samples) >= 5  # one before the start, about ten during
    assert 0 < clock.cost_s < 0.5 and clock.elapsed_s == clock.raw_s - clock.cost_s
    assert clock.reference_s == clock.elapsed_s * REFERENCE_PROBE_MS / clock.probe_ms


def test_host_clock_without_sampling_is_a_plain_stopwatch():
    with HostClock(sample=False) as clock:
        _busy(0.1)
    assert clock.samples == [] and clock.cost_s == 0
    assert 0.1 <= clock.elapsed_s == clock.raw_s < 1
