"""Time-to-verdict benchmark for sibsim (see README.md in this directory).

Run from the root of a checkout:

    python3 benchmarks/run.py --workload run-default --seed 0 --seconds 32 --trace 0
    python3 benchmarks/run.py --smoke
    python3 benchmarks/run.py --regenerate-references

A measuring run prints one detail line and then, as its last line, the
result object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

#: Cold set-ups timed per measuring run; setup_s is their median.
SETUP_REPEATS = 5

#: Counts recorded with the references to show that every seed variant
#: exercises the solvers alike.
SEED_INVARIANT_COUNTS = (
    "dynamics.dst_per_step",
    "dynamics.pad_dst_per_step",
    "dynamics.picard_sweeps",
)


def environment() -> dict:
    """Machine and library facts stored with every result."""
    import numpy
    import scipy
    import scipy.fft

    def proc_field(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scipy_fft_workers": scipy.fft.get_workers(),
        "os_threads": proc_field("/proc/self/status", "Threads"),
        "python_threads": threading.active_count(),
    }


def _median(values):
    return statistics.median(values) if values else math.nan


def measure(workload, seed, seconds, trace, references, size="full", setup_repeats=SETUP_REPEATS):
    """One measuring run; returns (result, detail)."""
    import workloads as W
    from hostclock import HostClock
    from spans import Tracer, layer_metrics

    reference = references[W.reference_key(seed, size)][workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    tracer = Tracer() if trace else None
    iterations = []
    calib = []
    setup_s = []
    try:
        ini = W.write_config(workload, seed, size, work)
        out = os.path.join(work, "out")
        calib.append(W.calib_ms())
        if trace:
            with tracer.installed(), tracer.span("bench.setup"):
                W.cold_setup(ini)
            setup_spans = range(len(tracer.spans))
        else:
            setup_s = [W.cold_setup(ini, HostClock()).record() for _ in range(setup_repeats)]

        # Closed loop: the next iteration starts when the previous one has
        # returned, as long as it is expected to end within `seconds`.  The
        # traced run alternates untraced and traced iterations, so their
        # difference is the tracing overhead, and has at least one of each.
        # Untraced iterations probe the host's speed while they run; traced
        # ones do not, so that no probe time lands in a span.
        start = time.perf_counter()
        last = 0.0
        while (
            not iterations
            or (trace and len(iterations) < 2)
            or time.perf_counter() - start + last <= seconds
        ):
            traced = bool(trace) and len(iterations) % 2 == 1
            it = {"traced": traced}
            first = len(tracer.spans) if traced else 0
            clock = HostClock(sample=not traced)
            try:
                if traced:
                    with tracer.installed(), tracer.span("bench.iteration"):
                        wall, verdicts, values = W.run_iteration(workload, ini, out, size, clock)
                    it["spans"] = range(first, len(tracer.spans))
                else:
                    wall, verdicts, values = W.run_iteration(workload, ini, out, size, clock)
                    it.update(clock.record())
                it["wall_s"] = wall
                it["failures"], it["result_dev"] = W.gate(verdicts, values, reference)
            except Exception as exc:  # an iteration that raises counts as failed
                traceback.print_exc()
                it["failures"], it["result_dev"] = [repr(exc)], math.inf
            iterations.append(it)
            calib.append(W.calib_ms())
            last = it.get("wall_s", 0.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for it in iterations if it["failures"])
    untraced = [it for it in iterations if "wall_s" in it and not it["traced"]]
    walls = [it["wall_s"] for it in untraced]
    if trace:
        units = [
            layer_metrics(tracer.spans, list(setup_spans) + list(it["spans"]))
            for it in iterations
            if it["traced"] and "spans" in it
        ]
        traced_walls = [it["wall_s"] for it in iterations if it["traced"] and "wall_s" in it]
        metrics = {key: _median([u[key] for u in units]) for key in (units[0] if units else {})}
        metrics["experiments.result_dev"] = max(it["result_dev"] for it in iterations)
        metrics["trace.overhead_s"] = _median(traced_walls) - _median(walls)
        metrics["host.calib_ms"] = _median(calib)
        metrics["host.probe_ms"] = _median([it["probe_ms"] for it in untraced])
        metrics["host.wall_raw_s"] = _median(walls)
        metrics["error_rate"] = failed / len(iterations)
        spans_file = os.path.join(TRACE_DIR, f"{workload}-{size}-seed{seed}.jsonl")
        tracer.dump(spans_file)
    else:
        # Both times are at the reference host speed (see hostclock.py);
        # the detail line keeps each one's own wall time too.
        metrics = {
            "wall_s": _median([it["reference_s"] for it in untraced]),
            "setup_s": _median([s["reference_s"] for s in setup_s]),
            # The kernel's high-water mark of this process, which ran only
            # this workload; read after the timed loop, never during it.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spans_file = None

    units_of = {entry["name"]: entry["unit"] for entry in _declared_metrics(trace)}
    result = {
        "correct": failed == 0 and bool(iterations) and all(map(math.isfinite, metrics.values())),
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units_of.get(name, "")} for name in metrics
        },
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "variant": W.reference_key(seed, size),
        "trace": int(trace),
        "environment": environment(),
        "setup_s": setup_s,
        "calib_ms": calib,
        "iterations": [
            {k: v for k, v in it.items() if k != "spans"} for it in iterations
        ],
        "spans_file": spans_file and os.path.relpath(spans_file, ROOT),
    }
    return result, detail


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer"] if trace else spec["end_to_end"]


def smoke() -> int:
    """Every workload and the traced run once, at the smoke size."""
    import workloads as W

    references = W.load_references()
    ok = True
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            result, _ = measure(
                workload, 0, 0, trace, references, size="smoke", setup_repeats=1
            )
            declared = {entry["name"] for entry in _declared_metrics(trace)}
            complete = set(result["metrics"]) == declared
            ok = ok and result["correct"] and complete
            print(json.dumps({"workload": workload, "trace": trace, "complete": complete, **result}))
            if not complete:
                print(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ declared)}")
    return 0 if ok else 1


def regenerate() -> int:
    """Recompute references.json from the program at this commit."""
    import workloads as W
    from spans import Tracer, layer_metrics

    entries, counts = {}, {}
    plan = [("full", v) for v in range(W.VARIANTS)] + [("smoke", 0)]
    os.makedirs(WORK_DIR, exist_ok=True)
    for size, variant in plan:
        key = W.reference_key(variant, size)
        entries[key], counts[key] = {}, {}
        for workload in W.WORKLOADS:
            work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
            try:
                ini = W.write_config(workload, variant, size, work)
                tracer = Tracer()
                with tracer.installed():
                    _, verdicts, values = W.run_iteration(
                        workload, ini, os.path.join(work, "out"), size
                    )
            finally:
                shutil.rmtree(work, ignore_errors=True)
            failing = [name for name, passed in verdicts if not passed]
            if failing:
                print(f"{key} {workload}: verdicts failed: {failing}", file=sys.stderr)
                return 1
            metrics = layer_metrics(tracer.spans, range(len(tracer.spans)))
            entries[key][workload] = values
            counts[key][workload] = {name: metrics[name] for name in SEED_INVARIANT_COUNTS}
            print(key, workload, json.dumps(counts[key][workload]), flush=True)
    payload = {
        "regenerate": "python3 benchmarks/run.py --regenerate-references",
        "references": entries,
        "counts": counts,
    }
    with open(W.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("run-default", "sweep-n", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run everything once at a tiny size")
    parser.add_argument(
        "--regenerate-references", action="store_true", help="rewrite references.json"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sibsim", "__init__.py")):
        print(f"benchmark: no sibsim sources under {SRC}", file=sys.stderr)
        return 2
    # One process with no worker threads: pin the BLAS pools before numpy
    # is imported (scipy.fft already defaults to one worker).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import sibsim

    if os.path.dirname(os.path.abspath(sibsim.__file__)) != os.path.join(SRC, "sibsim"):
        print(f"benchmark: imported sibsim from {sibsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        return smoke()
    if args.regenerate_references:
        return regenerate()
    if args.workload is None:
        parser.error("--workload is required for a measuring run")
    import workloads as W

    result, detail = measure(
        args.workload, args.seed, args.seconds, args.trace, W.load_references()
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
