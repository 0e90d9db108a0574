"""Span tracer for the traced benchmark run, and the per-layer metrics
computed from its spans.

The tracer wraps public functions of the sibsim modules from outside: each
wrapped attribute is replaced, in every sibsim module namespace that holds
it, by a function that records a span around the call.  Nothing under
src/sibsim changes, and `Tracer.installed()` puts every original back.

A span is [name, start, end, parent, attrs]: `parent` is the index of the
span that was open when this one started (None at the top), `attrs` a dict
or None.  Spans stay in memory until the run writes them out.  A span's
layer is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

#: Edge lengths reported as grids.dst_calls.N / grids.dst_s.N on every
#: workload (any other size is counted under "other"): the band (64), its 3/2 padding (96), the lp_norm refinement
#: (128), and the C0 reference grid's padding (192) and refinement (256).
DST_EDGES = (64, 96, 128, 192, 256)

#: Computed bytes moved by one transform of an N x M array: complex128 in
#: and out (real inputs are counted at the complex width too).
_DST_BYTES_PER_ENTRY = 2 * 16


def _dst_in(args, kwargs, result):
    return {"shape": args[1].shape}


def _dst_out(args, kwargs, result):
    return {"shape": result.shape}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _checksummed_bytes(args, kwargs, result):
    return {"bytes": sum(entry["bytes"] for entry in result.values())}


def _regularized(args, kwargs):
    params = args[2] if len(args) > 2 else kwargs["params"]
    return {"regularized": params.yosida_n is not None}


def _sweeps(args, kwargs, result):
    return {"sweeps": len(kwargs.get("residual_log") or ())}


class Tracer:
    """Records spans around calls into the sibsim layers."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        """Record a span around the enclosed block; yields its record."""
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else None, attrs]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _record(self, name, fn, args, kwargs, before=None, after=None):
        with self.span(name, before(args, kwargs) if before else None) as rec:
            result = fn(*args, **kwargs)
        if after:
            rec[4] = {**(rec[4] or {}), **after(args, kwargs, result)}
        return result

    def _wrapper(self, name, original, before, after):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._record(name, original, args, kwargs, before, after)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced sibsim attributes; restore them on exit."""
        from sibsim import config, dynamics, experiments, functionals, grids, output

        plan = [
            (grids, "coef_to_values", "grids.dst", None, _dst_out),
            (grids, "values_to_coef", "grids.dst", None, _dst_in),
            (dynamics, "integrate", "dynamics.integrate", _regularized, None),
            (dynamics._Kernels, "step", "dynamics.step", None, None),
            (dynamics, "picard_duhamel", "dynamics.picard_duhamel", None, _sweeps),
            (functionals.RunMonitor, "row", "functionals.monitor_row", None, None),
            (functionals, "estimate_gn_constant", "functionals.estimate_gn_constant", None, None),
            (output, "write_series", "output.write_series", None, _file_bytes),
            (output, "write_table", "output.write_table", None, _file_bytes),
            (output, "write_manifest", "output.write_manifest", None, _file_bytes),
            (output, "save_checkpoint", "output.save_checkpoint", None, _file_bytes),
            (output, "file_checksums", "output.file_checksums", None, _checksummed_bytes),
        ]
        for attr in config.__all__:
            if callable(getattr(config, attr)) and attr != "RunConfig":
                plan.append((config, attr, f"config.{attr}", None, None))
        for attr in experiments.__all__:
            if attr.startswith("cmd_"):
                plan.append((experiments, attr, f"experiments.{attr}", None, None))

        modules = [m for n, m in list(sys.modules.items()) if n == "sibsim" or n.startswith("sibsim.")]
        patches = []
        try:
            for owner, attr, name, before, after in plan:
                original = getattr(owner, attr)
                traced = self._wrapper(name, original, before, after)
                # A function imported by name lives on in every importing
                # module; a method lives on its class only.
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, traced)
                            patches.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, attrs."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                if attrs and "shape" in attrs:
                    attrs = {**attrs, "shape": list(attrs["shape"])}
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


def _edge(shape) -> str:
    """Metric suffix of a transform: its edge length when that is one of
    DST_EDGES, else "other", so that the set of metric names is fixed."""
    square = shape[0] == shape[1]
    return str(shape[0]) if square and shape[0] in DST_EDGES else "other"


def _per(total, count, scale=1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(spans: list[list], indices) -> dict[str, float]:
    """Per-layer metrics over the spans at `indices` (one cold set-up plus
    one workload iteration)."""
    indices = list(indices)
    dur = {i: spans[i][2] - spans[i][1] for i in indices}
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for i in indices:
        by_name[spans[i][0]].append(i)
        parent = spans[i][3]
        if parent is not None:
            child_s[parent] += dur[i]

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    def under(i, ancestors):
        p = spans[i][3]
        while p is not None:
            if p in ancestors:
                return True
            p = spans[p][3]
        return False

    def top_level(name_prefix):
        """Spans of a layer that no span of the same layer encloses."""
        return [
            i
            for i in indices
            if layer(i) == name_prefix
            and (spans[i][3] is None or layer(spans[i][3]) != name_prefix)
        ]

    m: dict[str, float] = {}

    dst = by_name["grids.dst"]
    calls = defaultdict(int)
    busy = defaultdict(float)
    mbytes = 0.0
    for i in dst:
        shape = spans[i][4]["shape"]
        calls[_edge(shape)] += 1
        busy[_edge(shape)] += dur[i]
        mbytes += _DST_BYTES_PER_ENTRY * shape[0] * shape[1] / 1e6
    for edge in [str(n) for n in DST_EDGES] + ["other"]:
        m[f"grids.dst_calls.{edge}"] = calls[edge]
        m[f"grids.dst_s.{edge}"] = busy[edge]
    m["grids.dst_mbytes"] = mbytes

    integrates = set(by_name["dynamics.integrate"])
    rows = by_name["functionals.monitor_row"]
    steps = by_name["dynamics.step"]
    stepper_s = sum(dur[i] for i in integrates) - sum(
        dur[i] for i in rows if spans[i][3] in integrates
    )
    kind_of_step = {
        i: "padded" if spans[spans[i][3]][4]["regularized"] else "nodal" for i in steps
    }
    step_count = defaultdict(int)
    step_dst = defaultdict(int)
    for i in steps:
        step_count[kind_of_step[i]] += 1
    for i in dst:
        kind = kind_of_step.get(spans[i][3])
        if kind:
            step_dst[kind] += 1
    m["dynamics.steps"] = len(steps)
    m["dynamics.stepper_s"] = stepper_s
    m["dynamics.step_ms"] = _per(stepper_s, len(steps), 1e3)
    m["dynamics.dst_per_step"] = _per(step_dst["nodal"], step_count["nodal"])
    m["dynamics.pad_dst_per_step"] = _per(step_dst["padded"], step_count["padded"])

    picard = set(by_name["dynamics.picard_duhamel"])
    sweeps = sum(spans[i][4]["sweeps"] for i in picard)
    picard_s = sum(dur[i] for i in picard)
    m["dynamics.picard_sweeps"] = sweeps
    m["dynamics.picard_s"] = picard_s
    m["dynamics.picard_sweep_ms"] = _per(picard_s, sweeps, 1e3)
    m["dynamics.picard_sum_s"] = sum(
        dur[i] - sum(dur[j] for j in dst if spans[j][3] == i) for i in picard
    )

    m["functionals.monitor_rows"] = len(rows)
    monitor_s = sum(dur[i] for i in rows)
    m["functionals.monitor_s"] = monitor_s
    m["functionals.monitor_row_ms"] = _per(monitor_s, len(rows), 1e3)
    c0 = set(by_name["functionals.estimate_gn_constant"])
    m["functionals.c0_s"] = sum(dur[i] for i in c0)
    m["functionals.c0_dst_calls"] = sum(1 for i in dst if under(i, c0))

    m["config.build_s"] = sum(dur[i] for i in top_level("config"))
    writes = top_level("output")
    m["output.write_s"] = sum(dur[i] for i in writes)
    m["output.bytes"] = sum(spans[i][4]["bytes"] for i in writes)
    m["experiments.self_s"] = sum(
        dur[i] - child_s[i] for i in indices if layer(i) == "experiments"
    )
    return m
