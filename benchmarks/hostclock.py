"""Stopwatch that also measures how fast the host runs while it is timing.

On a shared host the CPU speed a process gets changes by up to 2x within
seconds, as other tenants come and go.  A wall time alone then measures the
neighbours as much as the program.  While a `HostClock` runs, an interval
timer interrupts the program every `PERIOD_S` seconds and runs a fixed
probe: two 64^2 complex DST-I, an elementwise product and a short Python
loop, the same mix of work as a sibsim time step.  The probe never touches
sibsim.  Its durations sample the host's speed over the whole timed
interval, on the same CPU and thread as the program.

If the program does work W, counted in seconds at a host speed where the
probe takes `REFERENCE_PROBE_MS`, and the probe's duration at time t is
p(t), then W = integral of REFERENCE_PROBE_MS / p(t) dt over the interval.
With samples taken at a fixed period, that is the program's own time
(`elapsed_s`, the interval minus the time spent in the probe) times
REFERENCE_PROBE_MS over the harmonic mean of the probe durations
(`reference_s`).

The probe runs from a SIGALRM handler, so it lands between Python
bytecodes of the main thread, never inside a C call.  The program installs
no signal handlers of its own; Python retries system calls that the signal
interrupts.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.fft import dstn

#: Seconds between two probes while a clock samples.
PERIOD_S = 0.05

#: Probe duration, in ms, that defines the reference host speed.  It is
#: about the probe's duration on the 2-core Xeon host of README.md in its
#: fast phases (0.5 to 0.9 ms were seen); any fixed value works, as long as
#: the commits compared use the same one.
REFERENCE_PROBE_MS = 0.5

_PROBE_DATA = np.random.default_rng(0).standard_normal((64, 64)) * (1 + 1j)


def probe() -> float:
    """Seconds of one fixed probe."""
    t0 = time.perf_counter()
    vals = dstn(_PROBE_DATA, type=1, norm="ortho", workers=1)
    dstn((vals * vals.conj()).real, type=1, norm="ortho", workers=1)
    acc = 0
    for i in range(200):
        acc += i
    return time.perf_counter() - t0


class HostClock:
    """Times a `with` block; with `sample=True` it also probes the host's
    speed every PERIOD_S seconds while the block runs.

    After the block: `raw_s` is its wall time, `cost_s` the part spent in
    probes, `elapsed_s` the rest, `probe_ms` the harmonic mean of the probe
    durations (one probe before the clock starts makes sure there is at
    least one) and `reference_s` the block's time at the reference speed.
    Without sampling `reference_s` is NaN and `elapsed_s` equals `raw_s`.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: list[float] = []
        self.cost_s = 0.0
        self.raw_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.cost_s += time.perf_counter() - t0

    def __enter__(self):
        if self.sample:
            self.samples.append(probe())
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = time.perf_counter() - self._t0
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def elapsed_s(self) -> float:
        return self.raw_s - self.cost_s

    @property
    def probe_ms(self) -> float:
        if not self.samples:
            return float("nan")
        return 1e3 * len(self.samples) / sum(1.0 / s for s in self.samples)

    @property
    def reference_s(self) -> float:
        return self.elapsed_s * REFERENCE_PROBE_MS / self.probe_ms

    def record(self) -> dict:
        """What the detail line keeps of one timed block."""
        return {
            "raw_s": self.raw_s,
            "elapsed_s": self.elapsed_s,
            "reference_s": self.reference_s,
            "probe_ms": self.probe_ms,
            "probes": len(self.samples),
        }
