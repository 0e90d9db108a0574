"""Workloads of the time-to-verdict benchmark: seeded inputs, the cold
set-up, one timed iteration per workload, and the correctness gate.

Each iteration runs one user command from its entry point to its verdict
under a `HostClock` and returns the program's time for that call, the
verdicts it reached, and the numbers the gate compares with the stored
references.  Reading the command's artifacts back happens after the clock
stops.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time

import numpy as np
from scipy.fft import dstn

from hostclock import HostClock
from sibsim import cli, config, dynamics, functionals, grids

WORKLOADS = ("run-default", "sweep-n", "oracle")

#: The seed picks one of this many perturbed presets (seed mod VARIANTS).
#: Every variant has stored references, and all of them were checked to
#: reach the same verdicts and the same per-step transform and Picard sweep
#: counts, so no seed can produce an input the gate cannot judge.
VARIANTS = 8

#: Size of each seeded coefficient, and how many low modes (k, l <= 4) of
#: each data component get one.  Small next to the preset's pi/2 amplitude.
PERTURBATION = 0.02
PERTURBED_MODES = 3

#: Full size is what every figure in README.md refers to; smoke runs the
#: same code paths at an 8^2 grid, a few steps and 8 quadrature nodes.
#: At 8^2 the oracle's padded product and the stepper's nodal product differ
#: by 5.5e-4 in H1 (a sine series' padded product is not its L2 projection),
#: so the smoke oracle evaluates the Duhamel products on the nodes as well.
SIZES = {
    "full": {"n": 64, "run_t": 1.0, "sweep_t": 0.1, "oracle_t": 0.025, "quad_nodes": 128,
             "oracle_dealias": True},
    "smoke": {"n": 8, "run_t": 0.05, "sweep_t": 0.01, "oracle_t": 0.025, "quad_nodes": 8,
              "oracle_dealias": False},
}
N_LIST = (8, 16, 32)

#: Gate tolerance |x - ref| <= RTOL |ref| + ATOL.  Replacing the 96^2 padded
#: grid by 99^2 moved a final state by 3.6e-9 in difference_metric, which
#: moves every checked number by less than ATOL; a change at the second
#: significant digit of any of them fails the gate.
RTOL = 1e-6
ATOL = 1e-8

#: The oracle's verdict: stepper and Duhamel fixed point agree in H1.
ORACLE_H1_LIMIT = 1e-6

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def data_modes(seed: int) -> dict[str, dict[tuple[int, int], float]]:
    """Mode coefficients of (phi, psi0, psi1): the standard preset
    sin(x) sin(y) = (pi/2) e_11 for phi and psi0, psi1 = 0, plus the seeded
    perturbation."""
    rng = np.random.default_rng(seed % VARIANTS)
    modes = {"phi": {(1, 1): math.pi / 2}, "psi0": {(1, 1): math.pi / 2}, "psi1": {}}
    for coefs in modes.values():
        for pick in rng.choice(16, size=PERTURBED_MODES, replace=False):
            k, l = divmod(int(pick), 4)
            sign = float(rng.choice((-1.0, 1.0)))
            coefs[(k + 1, l + 1)] = coefs.get((k + 1, l + 1), 0.0) + sign * PERTURBATION
    return modes


def config_text(workload: str, seed: int, size: str) -> str:
    """INI input of one workload; the data reach the program only as
    `*_modes` rows."""
    dims = SIZES[size]
    lines = ["[grid]", f"nx = {dims['n']}", f"ny = {dims['n']}", "", "[data]"]
    for comp, coefs in data_modes(seed).items():
        lines.append(f"{comp}_modes =")
        lines += [f"    {k} {l} {amp!r}" for (k, l), amp in sorted(coefs.items())]
    lines += ["", "[run]"]
    if workload == "run-default":
        lines.append(f"t = {dims['run_t']!r}")
    elif workload == "sweep-n":
        lines.append(f"t = {dims['sweep_t']!r}")
        lines += ["", "[sweep]", "n_list = " + " ".join(map(str, N_LIST))]
    elif workload == "oracle":
        lines.append(f"t = {dims['oracle_t']!r}")
        if not dims["oracle_dealias"]:
            lines.append("dealias = false")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return "\n".join(lines) + "\n"


def write_config(workload: str, seed: int, size: str, directory: str) -> str:
    path = os.path.join(directory, f"{workload}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(workload, seed, size))
    return path


def cold_setup(ini: str, clock: HostClock | None = None) -> HostClock:
    """Time, on `clock`, the set-up every sibsim process pays, with C0
    uncached."""
    clock = clock or HostClock(sample=False)
    functionals.default_gn_constant.cache_clear()
    with clock:
        cfg = config.load_config(ini)
        config.build_initial_state(cfg)
        config.build_params(cfg)
        functionals.default_gn_constant()
    return clock


_CALIB = np.random.default_rng(0).standard_normal((96, 96)) * (1 + 1j)


def calib_ms() -> float:
    """Host-speed canary: milliseconds for 20 fixed 96^2 complex DST-I."""
    t0 = time.perf_counter()
    for _ in range(20):
        dstn(_CALIB, type=1, norm="ortho", workers=1)
    return 1e3 * (time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# iterations: (seconds, verdicts, values)


def _cli(argv: list[str], out_dir: str, clock: HostClock) -> tuple[float, list, dict]:
    with clock:
        code = cli.main(argv)
    wall = clock.elapsed_s
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    verdicts = [("exit-code", code == 0), ("status-ok", manifest.get("status") == "ok")]
    verdicts += [(a["name"], a["passed"]) for a in manifest.get("assertions", [])]
    return wall, verdicts, manifest


def _run_default(ini: str, out_dir: str, size: str, clock: HostClock):
    wall, verdicts, _ = _cli(
        ["--quiet", "--config", ini, "--out", out_dir, "run"], out_dir, clock
    )
    with open(os.path.join(out_dir, "series.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    values = {
        "final_charge": float(rows[-1]["charge"]),
        "final_energy_eps": float(rows[-1]["energy_eps"]),
        "max_gn_quotient": max(float(r["gn_quotient"]) for r in rows),
    }
    return wall, verdicts, values


def _sweep_n(ini: str, out_dir: str, size: str, clock: HostClock):
    wall, verdicts, manifest = _cli(
        ["--quiet", "--config", ini, "--out", out_dir, "sweep-n"], out_dir, clock
    )
    reports = manifest["reports"]
    values = {
        "diff_consecutive": reports["diff_consecutive"],
        "dist_unregularized": reports["dist_unregularized"],
    }
    return wall, verdicts, values


def _oracle(ini: str, out_dir: str, size: str, clock: HostClock):
    with clock:
        cfg = config.load_config(ini)
        params = config.build_params(cfg)
        state0 = config.build_initial_state(cfg)
        stepped = dynamics.integrate(state0, cfg.T, params, monitor_stride=10**6).final_state
        residuals: list[float] = []
        fixed = dynamics.picard_duhamel(
            state0, cfg.T, params, quad_nodes=SIZES[size]["quad_nodes"], residual_log=residuals
        )
        dist = grids.h1_norm(
            grids.field_from_coef(stepped.grid, stepped.u.coef - fixed.u.coef)
        )
        verdict = dist < ORACLE_H1_LIMIT
    values = {"h1_distance": dist, "final_charge": functionals.charge(fixed)}
    return clock.elapsed_s, [("stepper-vs-duhamel", verdict)], values


ITERATIONS = {"run-default": _run_default, "sweep-n": _sweep_n, "oracle": _oracle}


def run_iteration(workload: str, ini: str, out_dir: str, size: str, clock: HostClock | None = None):
    """One closed-loop iteration timed on `clock` (a plain stopwatch by
    default): returns (seconds, verdicts, values)."""
    os.makedirs(out_dir, exist_ok=True)
    return ITERATIONS[workload](ini, out_dir, size, clock or HostClock(sample=False))


# ---------------------------------------------------------------------------
# correctness gate


def load_references(path: str = REFERENCES) -> dict:
    """Stored checked numbers, keyed by reference_key and workload."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["references"]


def reference_key(seed: int, size: str) -> str:
    return f"{size}/{seed % VARIANTS}"


def compare(values: dict, reference: dict) -> tuple[list[str], float]:
    """Names of the values outside tolerance, and the largest relative
    deviation from the reference."""
    bad: list[str] = []
    worst = 0.0
    if set(values) != set(reference):
        return [f"keys {sorted(values)} != {sorted(reference)}"], math.inf
    for name, ref in reference.items():
        got = values[name]
        if not isinstance(ref, list):
            got, ref = [got], [ref]
        if len(got) != len(ref):
            bad.append(f"{name}: {len(got)} entries, reference has {len(ref)}")
            continue
        for x, r in zip(got, ref):
            dev = abs(x - r)
            if not dev <= RTOL * abs(r) + ATOL:
                bad.append(f"{name}: {x!r} vs reference {r!r}")
            worst = max(worst, dev / abs(r) if r else dev)
    return bad, worst


def gate(verdicts: list, values: dict, reference: dict) -> tuple[list[str], float]:
    """Reasons the iteration failed (empty when it passed) and its largest
    relative deviation from the reference."""
    failures = [f"verdict {name} failed" for name, ok in verdicts if not ok]
    bad, worst = compare(values, reference)
    return failures + bad, worst
