"""Experiment suites: single runs with asserted invariants, the eps and
Yosida-n sweeps, the check suite for the stepper's spectral symbols,
sharp-constant estimation, and the integrator order test.

Every command takes a RunConfig, writes its artifacts into the configured
output directory, prints one line per assertion, and returns a process
exit code: 0 all assertions pass, 1 an assertion failed.  The other two
exit codes come from exceptions that the CLI maps in one place: 2 for
invalid configuration (ValueError, or an OSError from the file system), 3
for a numerical abort (dynamics.NumericalAbort, after which the manifest
reads status numerical-abort).

Every command is one _command call, which measures through a private
measure(config, manifest) -> _Outcome, then prints, writes and judges.
Each asserted property is computed once, by a private function that
returns the reported numbers and the Assertions; the tests call it too:

* _series_assertions (run): charge-conservation, h1-envelope-domination,
  small-data-envelope and gn-quotient-bound, from a monitored series;
  _energy_drift is run's reported energy drift.
* _eps_sweep (sweep-eps): eps-difference-decreasing; _n_sweep (sweep-n):
  n-consecutive-differences-decreasing; _order_test (order-test):
  splitting-second-order.  The three are ladders of runs against a
  reference: _ladder runs and measures them, asserts
  member-charge-conservation, and skips them at round-off with u = 0.
* _symbol_derivation (check): symbol-derivation, every table the stepper
  multiplies by and every transform and norm against its formula;
  _phase_flow_assertion (check): nodal-phase-flow; _check adds
  stored-c0-certified, which needs the 128^2 estimate.
* _estimate_c0 itself: estimator-converged.

Every verdict follows one rule, _holds: an assertion passes exactly when
its margin is >= 0, and each worst case is one numpy reduction over a
list, so a NaN anywhere in what is checked makes the margin NaN and the
verdict FAIL (Assertion lists the three strict or slackened exceptions).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__, functionals
from .config import RunConfig, build_grid, build_initial_state, build_params
from .dynamics import (
    _STEP_TOL,
    _TAYLOR_PHASE,
    BlowupError,
    NumericalAbort,
    State,
    SystemParams,
    _Kernels,
    _step_count,
    integrate,
    prepare_initial_state,
)
from .functionals import (
    RunMonitor,
    cauchy_metric,
    charge,
    difference_metric,
    energy,
    envelope_h1,
    estimate_gn_constant,
    h1_envelope_lhs,
    small_envelope_lhs,
)
from .grids import (
    SOBOLEV_EXPONENTS,
    coef_to_values,
    field_from_coef,
    h1_norm,
    make_grid,
    sobolev_norm,
    values_to_coef,
)
from .output import (
    checkpoint_name,
    file_checksums,
    remove_listed,
    save_checkpoint,
    write_manifest,
    write_series,
    write_table,
)

__all__ = [
    "Assertion",
    "cmd_run",
    "cmd_sweep_eps",
    "cmd_sweep_n",
    "cmd_check",
    "cmd_estimate_c0",
    "cmd_order_test",
]


@dataclass
class Assertion:
    """One checked inequality: margin > 0 means it held with room to spare
    (margin is in the units of the quantity being compared).  _holds builds
    every assertion but three, and passes it exactly when margin >= 0, so
    a NaN margin fails.  _decreasing is strict (a margin of 0 fails it);
    h1-envelope-domination and small-data-envelope accept a round-off
    slack below 0."""

    name: str
    passed: bool
    margin: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"[{verdict}] {self.name}: margin {self.margin:.3e}"
        if self.detail:
            out += f" ({self.detail})"
        return out


def _holds(name: str, margin: float, detail: str = "") -> Assertion:
    """The assertion that margin >= 0, which a NaN margin fails."""
    return Assertion(name, bool(margin >= 0.0), float(margin), detail)


def _emit(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


def _resolved(config: RunConfig) -> dict:
    return {
        "Lx": config.lx,
        "Ly": config.ly,
        "Nx": config.nx,
        "Ny": config.ny,
        "eps": config.eps,
        "yosida_n": config.yosida_n,
        "dt": config.dt,
        "T": config.T,
        "monitor_stride": config.monitor_stride,
        "dealias": config.dealias,
        "out_dir": config.out_dir,
    }


class _Outcome(NamedTuple):
    """What a command measured: the lines it prints before the verdicts,
    its artifacts as a map from file name to a writer of that path, its
    reports (None for none) and its assertions."""

    lines: list[str]
    files: dict
    reports: dict | None
    assertions: list[Assertion]


def _command(command: str, config: RunConfig, measure, quiet: bool) -> int:
    """The one body of every command: measure(config, manifest), then its
    _Outcome printed, written and judged in manifest.json.  A numerical
    abort writes the manifest with status numerical-abort, where the run
    failed and no files, and is raised on.  Either manifest replaces an
    earlier one, whose files go first; any other exception leaves both."""
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "manifest.json")
    manifest = {"command": command, "config": config.raw, "resolved": _resolved(config)}
    manifest["versions"] = {"sibsim": __version__, "numpy": np.__version__}
    try:
        outcome = measure(config, manifest)
    except NumericalAbort as exc:
        manifest["status"] = "numerical-abort"
        if isinstance(exc, BlowupError):
            manifest.update(last_finite_t=exc.t_last, failed_step=exc.step)
            manifest["failed_quantity"] = exc.quantity
        manifest["files"] = {}
        remove_listed(path)
        write_manifest(path, manifest)
        raise
    remove_listed(path)
    for line in outcome.lines:
        _emit(quiet, line)
    for name, write in outcome.files.items():
        write(os.path.join(config.out_dir, name))
    if outcome.reports is not None:
        manifest["reports"] = outcome.reports
    for a in outcome.assertions:
        _emit(quiet, a.line())
    manifest["assertions"] = [vars(a) for a in outcome.assertions]
    ok = all(a.passed for a in outcome.assertions)
    manifest["status"] = "ok" if ok else "assertion-failure"
    manifest["files"] = file_checksums(config.out_dir, list(outcome.files))
    write_manifest(path, manifest)
    return 0 if ok else 1


def _start(config: RunConfig, params: SystemParams, manifest: dict) -> tuple[State, RunMonitor]:
    """The initial data, and the monitor of the data as `params` prepares
    them, whose data norms and envelope constants go into `manifest`."""
    state0 = build_initial_state(config)
    monitor = RunMonitor.from_state(prepare_initial_state(state0, params))
    dn, ec = monitor.dn, monitor.ec
    manifest["data_norms"] = {name: getattr(dn, name) for name in vars(dn)}
    manifest["envelope_constants"] = {"c0": ec.c0, "c3": ec.c3, "c6": ec.c6}
    return state0, monitor


def _sample_times(config: RunConfig) -> tuple[float, ...]:
    """The times a run samples: every monitor_stride-th of its equal steps
    of T / ceil(T/dt), and T."""
    step = config.monitor_stride * (config.T / _step_count(config.T, config.dt))
    # k * step, not a running sum, which drifts past a step in long runs
    return (*(k * step for k in range(1, math.ceil(config.T / step - _STEP_TOL))), config.T)


def _drift(values) -> float:
    """Largest change of a conserved quantity from its first value, relative
    to that value's magnitude (absolute when the first value is 0)."""
    values = np.asarray(values)
    change = np.max(np.abs(values - values[0]))
    return float(change / abs(values[0]) if values[0] != 0 else change)


def _energy_drift(series: dict) -> float:
    """_drift of energy_eps over a monitored series."""
    return _drift(series["energy_eps"])


def _charge_conserved(name: str, drift: float, detail: str) -> Assertion:
    """The charge drifts by at most 1e-10, relative."""
    return _holds(name, 1e-10 - drift, detail)


@dataclass
class _Run:
    """One run of a ladder: its final state, its charge and energy _drift
    from its data as its params prepare them, and its distance from the
    ladder's first run, the reference (0 for the reference itself)."""

    final: State
    charge_drift: float
    energy_drift: float
    distance: float


def _ladder(
    config: RunConfig, state0: State, overrides, metric, samples=()
) -> tuple[list[_Run], dict, Assertion, bool]:
    """The one runner of sweep-eps, sweep-n and order-test: for each dict
    of build_params keywords in `overrides`, in order, one integrate of
    state0 to config.T that keeps its states at `samples`.  A run's
    distance is its largest `metric` from the reference's states at the
    samples, or, without samples, between the final states; its states go
    once it is measured, so no more than two runs' states are alive at
    once.  The runs, the reports (each member's charge and energy drift,
    and the reference's), member-charge-conservation, and whether every
    distance is at round-off, at most 1e-11 of the reference's own size in
    `metric`.  With u = 0 (zero data, a free wave) both couplings vanish
    and every run is a free flow, which the splitting integrates exactly,
    so round-off distances measure nothing and the reports read skipped."""
    runs, reference = [], None
    for keywords in overrides:
        params = build_params(config, **keywords)
        record = integrate(state0, config.T, params, checkpoint_times=samples)
        start, final = prepare_initial_state(state0, params), record.final_state
        kept = record.checkpoints if samples else {config.T: final}
        charges = [charge(start), charge(final)]
        energies = [energy(start, params), energy(final, params)]
        distances = [metric(kept[t], reference[t]) for t in kept] if reference else [0.0]
        runs.append(_Run(final, _drift(charges), _drift(energies), float(np.max(distances))))
        reference = reference or kept
        del record, kept  # so that the next run does not hold them
    first, *members = runs
    reports = {
        "charge_drift": [run.charge_drift for run in members],
        "reference_charge_drift": first.charge_drift,
        "energy_drift": [run.energy_drift for run in members],
        "reference_energy_drift": first.energy_drift,
    }
    ref = first.final
    parts = (ref.u, ref.v, ref.vt)
    zero = State(*(field_from_coef(f.grid, np.zeros_like(f.coef)) for f in parts), ref.t)
    flat = bool(np.max([run.distance for run in members]) <= 1e-11 * metric(ref, zero))
    if flat and not np.any(state0.u.coef):
        reports["skipped"] = True
    worst = np.max([run.charge_drift for run in runs])
    detail = f"largest relative drift {worst:.3e} over the reference and {len(members)} members"
    return runs, reports, _charge_conserved("member-charge-conservation", worst, detail), flat


# the notice a sweep prints in place of its summary when _ladder skips it
_SWEEP_SKIPPED = "distances at round-off with u = 0 (e.g. zero data); trend measurement skipped"


def _series_assertions(series: dict, eps: float, monitor: RunMonitor) -> list[Assertion]:
    """run's assertions on a monitored series, to which it adds the H1
    envelope at each sampled time as envelope_h1, series.csv's last column."""
    drift = _drift(series["charge"])
    out = [_charge_conserved("charge-conservation", drift, f"relative drift {drift:.3e}")]

    lhs_h1 = h1_envelope_lhs(series)
    env = np.array([envelope_h1(t - monitor.t0, monitor.ec, monitor.dn) for t in series["t"]])
    series["envelope_h1"] = env
    # an overflowing envelope is inf and dominates every finite left-hand
    # side, so only the finite entries scale the slack
    slack = 1e-12 * float(np.max(env[np.isfinite(env)], initial=1.0))
    gap = float(np.min(env - lhs_h1))
    # explicit: the round-off slack lets the gap dip below 0
    detail = "growth envelope vs H1-level quantity"
    out.append(Assertion("h1-envelope-domination", gap >= -slack, gap, detail))

    ec = monitor.ec
    if ec.c6 is not None:
        gap6 = float(ec.c6 - np.max(small_envelope_lhs(series, eps)))
        # explicit: the round-off slack lets the gap dip below 0
        passed = bool(gap6 >= -1e-12 * np.maximum(1.0, ec.c6))
        detail = "time-independent bound vs energy-level quantity"
        out.append(Assertion("small-data-envelope", passed, gap6, detail))

    quotients = series["gn_quotient"]
    bound = ec.c0 * (1.0 + 1e-6)
    qgap = float(bound - np.max(quotients))
    detail = f"max quotient {float(np.max(quotients)):.6f} vs C0 {ec.c0:.6f}"
    out.append(_holds("gn-quotient-bound", qgap, detail))
    return out


def _decreasing(name: str, values: list[float], detail: str) -> Assertion:
    """values strictly decreasing; the margin is the smallest step down.
    Explicit, not _holds: a flat trend, margin 0, fails."""
    margin = float(np.min([a - b for a, b in zip(values, values[1:])]))
    return Assertion(name, margin > 0.0, margin, detail)


# ---------------------------------------------------------------------------
# run


def _run(config: RunConfig, manifest: dict) -> _Outcome:
    """One monitored integrate of the configured data: run's assertions,
    its energy drift, series.csv and the checkpoints."""
    params = build_params(config)
    state0, monitor = _start(config, params, manifest)
    record = integrate(
        state0, config.T, params, config.monitor_stride, monitor, config.checkpoint_times
    )
    assertions = _series_assertions(record.series, params.eps, monitor)
    reports = {"energy_drift_rel": _energy_drift(record.series)}
    files = {"series.csv": lambda path: write_series(path, record)}
    for t, snap in sorted(record.checkpoints.items()):
        files[checkpoint_name(t)] = lambda path, snap=snap: save_checkpoint(path, snap)
    return _Outcome([], files, reports, assertions)


def cmd_run(config: RunConfig, quiet: bool = False) -> int:
    """Integrate one configuration; assert conservation and envelopes."""
    return _command("run", config, _run, quiet)


# ---------------------------------------------------------------------------
# eps sweep


def _eps_sweep(config: RunConfig, manifest: dict) -> _Outcome:
    """Run the eps = 0 reference and every eps of eps_list, sampled at
    _sample_times; each member's sup_metric is its largest difference_metric
    from the reference over the samples.  The eps-difference-decreasing and
    member-charge-conservation assertions, and eps_sweep.csv; a skipped
    sweep asserts only member-charge-conservation and writes no table."""
    eps_values = tuple(sorted(set(config.eps_list), reverse=True))
    if len(eps_values) < 2:
        raise ValueError(
            f"eps sweep needs at least 2 distinct eps_list values, got {config.eps_list}"
        )

    state0, monitor = _start(config, build_params(config, eps=0.0), manifest)
    if monitor.ec.c0 * monitor.dn.l2_phi >= math.sqrt(2.0):
        raise ValueError(
            "small-data hypothesis violated: C0*||phi||_2 = "
            f"{monitor.ec.c0 * monitor.dn.l2_phi:.4f} >= sqrt(2); "
            "the eps sweep is only meaningful under it"
        )

    overrides = [{"eps": eps} for eps in (0.0, *eps_values)]
    runs, drift_reports, conserved, _ = _ladder(
        config, state0, overrides, difference_metric, _sample_times(config)
    )
    sups = [run.distance for run in runs[1:]]
    reports = {"eps": list(eps_values), "sup_metric": sups}
    lines = [f"eps={e:g}: sup difference {s:.6e}" for e, s in zip(eps_values, sups)]
    if "skipped" in drift_reports:
        return _Outcome([*lines, _SWEEP_SKIPPED], {}, {**reports, **drift_reports}, [conserved])
    # log(0) is undefined, so an eps = 0 member stays out of the log-log fit
    fit = [(e, s) for e, s in zip(eps_values, sups) if e > 0]
    if len(fit) >= 2:
        fit_eps, fit_sups = zip(*fit)
        slope = float(np.polyfit(np.log(fit_eps), np.log(np.maximum(fit_sups, 1e-300)), 1)[0])
    else:
        slope = math.nan
    reports.update(fitted_slope=slope, **drift_reports)
    detail = "sup metric strictly decreasing as eps decreases"
    trend = _decreasing("eps-difference-decreasing", sups, detail)
    lines.append(f"fitted slope of sup difference vs eps: {slope:.3f}")
    rows = [(e, s, slope) for e, s in zip(eps_values, sups)]
    columns = ("eps", "sup_metric", "fitted_slope")
    files = {"eps_sweep.csv": lambda path: write_table(path, columns, rows)}
    return _Outcome(lines, files, reports, [trend, conserved])


def cmd_sweep_eps(config: RunConfig, quiet: bool = False) -> int:
    """Compare eps > 0 runs against the eps = 0 reference; the sup over
    sampled times of the difference metric must decrease strictly as eps
    decreases.  Requires the small-data hypothesis (the limit system's
    global theory needs it)."""
    return _command("sweep-eps", config, _eps_sweep, quiet)


# ---------------------------------------------------------------------------
# yosida-n sweep


def _n_sweep(config: RunConfig, manifest: dict) -> _Outcome:
    """Run the unregularized reference and every n of n_list to T; each
    member's dist_unregularized is its cauchy_metric from the reference at
    T.  The n-consecutive-differences-decreasing and
    member-charge-conservation assertions, and n_sweep.csv; a skipped
    sweep asserts only member-charge-conservation and writes no table."""
    n_values = tuple(sorted(set(config.n_list)))
    if len(n_values) < 3:
        raise ValueError(
            f"n sweep needs at least 3 distinct n_list values, got {config.n_list}"
        )

    state0, _ = _start(config, build_params(config, yosida_n=None), manifest)
    overrides = [{"yosida_n": n} for n in (None, *n_values)]
    runs, drift_reports, conserved, _ = _ladder(config, state0, overrides, cauchy_metric)
    finals = [run.final for run in runs[1:]]
    diffs = [cauchy_metric(a, b) for a, b in zip(finals, finals[1:])]
    dists = [run.distance for run in runs[1:]]
    reports = {
        "n": list(n_values),
        "diff_consecutive": diffs,
        "dist_unregularized": dists,
        **drift_reports,
    }
    lines, rows = [], []
    for n, diff_prev, dist in zip(n_values, [None, *diffs], dists):
        shown = "-" if diff_prev is None else f"{diff_prev:.6e}"
        lines.append(f"n={n}: consecutive diff {shown}, distance to unregularized {dist:.6e}")
        rows.append((n, "" if diff_prev is None else diff_prev, dist))
    if "skipped" in reports:
        return _Outcome([*lines, _SWEEP_SKIPPED], {}, reports, [conserved])
    trend = _decreasing(
        "n-consecutive-differences-decreasing", diffs, "Cauchy trend along doubling n"
    )
    columns = ("n", "diff_consecutive", "dist_unregularized")
    files = {"n_sweep.csv": lambda path: write_table(path, columns, rows)}
    return _Outcome(lines, files, reports, [trend, conserved])


def cmd_sweep_n(config: RunConfig, quiet: bool = False) -> int:
    """Run the regularized system for each n, plus the unregularized
    reference; consecutive solutions (at t = T, in H1 + L2 + L2) must
    approach each other as n doubles."""
    return _command("sweep-n", config, _n_sweep, quiet)


# ---------------------------------------------------------------------------
# spectral-symbol check suite


def _symbol_derivation(config: RunConfig) -> Assertion:
    """symbol-derivation: every table the stepper multiplies by, and every
    transform and norm, against the README's formulas evaluated here from
    the mode integers and the sides, not through _Kernels, grid.lam or the
    grids module's tables; the first three on the configured grid and on a
    2pi x pi rectangle with 12 x 8 modes, where an exchange of the axes
    shows, the others on the configured grid:

    * lam = (k pi / Lx)^2 + (l pi / Ly)^2, against grid.lam;
    * coef_to_values and values_to_coef of random real and complex arrays,
      at the nodes, the kernel's prod_shape and l4_norm's (2Nx, 2Ny):
      synthesis to M nodes is A_x c A_y^T, A[j-1, k-1] = sqrt(2/L)
      sin(pi j k / (M+1)) with j k reduced mod 2(M+1) (exact, by
      periodicity), and analysis B_x v B_y^T, B = A^T L/(M+1);
    * sobolev_norm at every s of SOBOLEV_EXPONENTS and h1_norm, against
      (sum w c^2)^(1/2), w = lam^s or 1 + lam, with c^2 near 1 unless w c^2
      would pass 2**500: no c^2, term or norm leaves the normal range;
    * w2 = lam / (1 + eps lam) and w, its root, at eps = 0, 1/2, 1 and the
      configured eps;
    * jsym = n / (n + lam) at every n of n_list and n = 1, 2, 4, ..., 1024,
      and at the configured yosida_n on the stepping kernel;
    * phase_half = exp(-i (h/2) lam), wave_phase_half = exp(-i (h/2) w) and
      wave_phase_full = exp(-i h w) of the stepping kernel, the one
      integrate builds, at its step h = T / ceil(T/dt).

    The bound, with u = 2**-53: each side forms lam from positive terms in
    6 roundings, within 6u relative of its exact value; w2 and jsym add 3
    roundings to a quotient whose relative sensitivity to lam is at most 1
    (9u), and w = sqrt(w2) is within 5.5u, so two evaluations of a symbol
    differ by at most 18u relative.  A phase exp(-i t x) is formed from t x,
    rounded once, so two angles differ by at most |t| x (18u + 2u), and cos
    and sin, each within an ulp (at most u), add 2u per side: two phases
    differ by at most 4u + 20u |t| x_max.  An entry of A or B, of scale
    s = sqrt(2/L) or sqrt(2L)/(M+1), has its angle within 3u relative of one
    below 2pi; sin and 5 roundings put it within 25u s, however small.  The
    product A_x (c A_y^T), with dot products of lengths p and q, is within
    (p + q) u |A_x| |c| |A_y^T| of that of its factors (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1), and the entry errors
    add 50u s_x s_y ||c||_1, to first order (a complex c is two real planes:
    |c| reads |Re c| + |Im c|).  A norm's term w c^2 is within 7u + u + u,
    a sum of n positive terms adds (n - 1)u, and the root halves that and
    rounds once: two norms differ by at most (n + 10)u relative.  The
    mismatch of a comparison is its difference over a round-off factor,
    its bound over 32u: a symbol's value, 1 + |t| x_max for a phase, ((p +
    q) |A_x| |c| |A_y^T| + 50 s_x s_y ||c||_1) / 16 for a transform entry,
    (n + 10) / 32 times a norm; the margin is 32u less the worst mismatch."""

    def relative(table, derived) -> float:
        return float(np.max(np.abs(table - derived) / derived))

    def phase(table, t: float, x) -> float:
        derived = np.cos(t * x) - 1j * np.sin(t * x)
        return float(np.max(np.abs(table - derived)) / (1.0 + abs(t) * np.max(x)))

    def factors(L: float, M: int, N: int) -> tuple:
        jk = np.outer(np.arange(1, M + 1), np.arange(1, N + 1)) % (2 * M + 2)
        sines = np.sin(np.pi / (M + 1) * jk)
        sa, sb = math.sqrt(2.0 / L), math.sqrt(2.0 * L) / (M + 1)
        return (sa * sines, sa), (sb * sines.T, sb)

    def gap(computed, left, c, right) -> float:
        # the largest mismatch of a transform from left @ c @ right.T
        (ax, sx), (ay, sy) = left, right
        size = np.abs(c.real) + np.abs(c.imag)
        gain = (ax.shape[1] + ay.shape[1]) * (np.abs(ax) @ size @ np.abs(ay).T)
        factor = (gain + 50 * sx * sy * np.sum(size)) / 16
        return float(np.max(np.abs(computed - ax @ c @ ay.T) / factor))

    def on_grid(lx: float, ly: float, nx: int, ny: int, on: str) -> tuple:
        """lam, the transforms and the norms on one grid; its grid and lam."""
        g = make_grid(lx, ly, nx, ny)
        kx, ky = np.pi * np.arange(1, nx + 1) / lx, np.pi * np.arange(1, ny + 1) / ly
        lam = kx[:, None] ** 2 + ky[None, :] ** 2
        mismatch.append(("lam" + on, relative(g.lam, lam)))
        for nodes in (g.shape, _Kernels(g, SystemParams(), None).prod_shape, (2 * nx, 2 * ny)):
            (ax, bx), (ay, by) = factors(lx, nodes[0], nx), factors(ly, nodes[1], ny)
            c, v = rng.standard_normal(g.shape), rng.standard_normal(nodes)
            for kind in ("real", "complex"):
                at = f" {kind} at {nodes[0]} x {nodes[1]} nodes{on}"
                mismatch.append(("synthesis" + at, gap(coef_to_values(g, c, nodes), ax, c, ay)))
                mismatch.append(("analysis" + at, gap(values_to_coef(g, v), bx, v, by)))
                c, v = c + 1j * rng.standard_normal(g.shape), v + 1j * rng.standard_normal(nodes)
        for s in (*SOBOLEV_EXPONENTS, "H1"):
            w = 1.0 + lam if s == "H1" else lam**s
            scale = min(np.sqrt(w.min()) * np.sqrt(w.max()), 2.0**500)
            f = field_from_coef(g, rng.uniform(1.0, 2.0, g.shape) * np.sqrt(scale / w))
            derived = float(np.sqrt(np.sum(w * f.coef**2)))
            off = abs((h1_norm(f) if s == "H1" else sobolev_norm(f, s)) - derived) / derived
            mismatch.append((f"norm s = {s}{on}", off * 32 / (nx * ny + 10)))
        return g, lam

    mismatch, rng = [], np.random.default_rng(0)
    on_grid(2 * math.pi, math.pi, 12, 8, " on 2pi x pi")
    g, lam = on_grid(config.lx, config.ly, config.nx, config.ny, "")
    h = config.T / _step_count(config.T, config.dt)
    n_values = sorted({*(2**j for j in range(11)), *config.n_list})
    kernels = [(SystemParams(eps=eps), None) for eps in (0.0, 0.5, 1.0)]
    kernels += [(SystemParams(yosida_n=n), None) for n in n_values]
    for params, dt in [*kernels, (build_params(config), h)]:
        ker = _Kernels(g, params, dt)
        eps, n = params.eps, params.yosida_n
        w2 = lam / (1.0 + eps * lam)
        mismatch.append((f"w2 at eps {eps:g}", relative(ker.w2, w2)))
        mismatch.append((f"w at eps {eps:g}", relative(ker.w, np.sqrt(w2))))
        if n is not None:
            mismatch.append((f"J_{n:g}", relative(ker.jsym, n / (n + lam))))
    # ker, w2, eps and n are the stepping kernel's
    mismatch.append(("phase_half", phase(ker.phase_half, 0.5 * h, lam)))
    mismatch.append(("wave_phase_half", phase(ker.wave_phase_half, 0.5 * h, np.sqrt(w2))))
    mismatch.append(("wave_phase_full", phase(ker.wave_phase_full, h, np.sqrt(w2))))

    bound = 32 * 2.0**-53
    names, values = zip(*mismatch)
    worst = int(np.argmax(values))  # the first NaN, if there is one
    covered = ", ".join(f"{m:g}" for m in n_values) + ("" if n is None else f"; yosida_n {n:g}")
    detail = (
        f"worst mismatch {values[worst]:.1e} on {names[worst]}, bound 32u = {bound:.1e}; "
        f"lam, transforms at 3 node shapes and norms on {config.nx} x {config.ny} and "
        f"2pi x pi 12 x 8, w2 and w at eps 0, 0.5, 1, "
        f"{eps:g}, J_n at n in {{{covered}}}, step tables at h = {h:.6g}"
    )
    return _holds("symbol-derivation", bound - values[worst], detail)


def _phase_flow_assertion(grid) -> Assertion:
    """nodal-phase-flow: the unregularized potential flow the stepper takes
    (dynamics._Kernels.potential_flow) equals values_to_coef(exp(-i dt vv)
    uu), the complex exponential on the collocation nodes, to 1e-14
    relative, and keeps the charge ||u||^2 to 1e-14 relative.  u is
    random; v has node values +-1, so |dt v| = beta on every node, at
    beta = 1e-3, the default data's, where a Taylor sum one term short
    would leave 4e-14, and just below and just above _TAYLOR_PHASE, where
    the Taylor sum is longest and where libm's cos and sin take over."""
    rng = np.random.default_rng(0)
    # decay on the grid's own scale: the field is nonzero however large lam is
    decay = np.exp(-0.01 * grid.lam / grid.lam[0, 0])
    u = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * decay
    v = values_to_coef(grid, rng.choice((-1.0, 1.0), size=grid.shape))
    uu, vv = coef_to_values(grid, u), coef_to_values(grid, v)
    charge0 = float(np.sum(np.abs(u) ** 2))
    flow_errs, charge_errs = [], []
    for beta in (1e-3, 0.999 * _TAYLOR_PHASE, 1.001 * _TAYLOR_PHASE):
        dt = beta / float(np.max(np.abs(vv)))
        flowed = _Kernels(grid, SystemParams(dt=dt), dt).potential_flow(u, v)
        exact = values_to_coef(grid, np.exp(-1j * dt * vv) * uu)
        flow_errs.append(math.sqrt(float(np.sum(np.abs(flowed - exact) ** 2)) / charge0))
        charge_errs.append(abs(float(np.sum(np.abs(flowed) ** 2)) - charge0) / charge0)
    detail = (
        f"error {np.max(flow_errs):.1e} against exp(-i dt v) u and charge change "
        f"{np.max(charge_errs):.1e}, 1e-14 relative, at beta = dt max|v| 1e-3, 0.999/8 and 1.001/8"
    )
    return _holds("nodal-phase-flow", 1e-14 - np.max(flow_errs + charge_errs), detail)


def _check(config: RunConfig, manifest: dict) -> _Outcome:
    """_symbol_derivation of the configured kernels, transforms and norms,
    _phase_flow_assertion on the configured grid, plus the certification
    of the stored default C0 (functionals.REFERENCE_C0), re-derived on its
    own 128^2 reference grid whatever the configured one."""
    assertions = [_symbol_derivation(config), _phase_flow_assertion(build_grid(config))]

    # the stored default C0 is certified only while it does not exceed a
    # fresh estimate on the grid it was derived on (read at call time)
    fresh_c0 = estimate_gn_constant(make_grid(2 * math.pi, 2 * math.pi, 128, 128))
    c0_slack = fresh_c0 * (1.0 + 1e-12) - functionals.REFERENCE_C0
    detail = f"REFERENCE_C0 <= fresh 128^2 estimate {fresh_c0:.16g}, 1e-12 relative slack"
    assertions.append(_holds("stored-c0-certified", c0_slack, detail))
    return _Outcome([], {}, None, assertions)


def cmd_check(config: RunConfig, quiet: bool = False) -> int:
    """Certify the stepper's tables, the transforms and norms, and the stored default C0."""
    return _command("check", config, _check, quiet)


# ---------------------------------------------------------------------------
# sharp-constant estimation


def _estimate_c0(config: RunConfig, manifest: dict) -> _Outcome:
    """The sharp Gagliardo-Nirenberg constant on the configured grid, with
    the smallness threshold sqrt(2)/C0, as c0.json and the reports, and
    estimator-converged."""
    grid = build_grid(config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = estimate_gn_constant(grid)
    # a NaN quotient (a starting bump that vanishes on every node, say)
    # ends the iteration as if stationary, so it must not read as converged
    converged = math.isfinite(value) and not any(
        issubclass(w.category, RuntimeWarning) for w in caught
    )
    threshold = math.sqrt(2.0) / value
    payload = {
        "c0": value,
        "threshold": threshold,
        "converged": converged,
        "grid": {"Lx": config.lx, "Ly": config.ly, "Nx": config.nx, "Ny": config.ny},
    }
    line = f"C0 estimate: {value:.6f} (threshold sqrt(2)/C0 = {threshold:.6f})"
    files = {"c0.json": lambda path: write_manifest(path, payload)}
    assertions = [_holds("estimator-converged", 0.0 if converged else -1.0)]
    return _Outcome([line], files, payload, assertions)


def cmd_estimate_c0(config: RunConfig, quiet: bool = False) -> int:
    """Estimate the sharp Gagliardo-Nirenberg constant on the configured
    grid and write c0.json with the smallness threshold sqrt(2)/C0."""
    return _command("estimate-c0", config, _estimate_c0, quiet)


# ---------------------------------------------------------------------------
# order test


def _order_test(config: RunConfig, manifest: dict) -> _Outcome:
    """Run to T at every dt of dt_list and at dt_min / 8, the reference the
    errors are taken against; the reports (with each run's charge and
    energy drift, not asserted) and the splitting-second-order
    assertion on the mean observed order, each order measured against the
    equal steps T / ceil(T/dt) the runs take.  A ladder that _ladder skips
    prints a notice and asserts nothing; errors at round-off with u != 0
    fail, as errors that do not depend on dt.  No table."""
    dts = config.dt_list
    if len(dts) < 3:
        raise ValueError("order test needs at least 3 dt values")
    for a, b in zip(dts, dts[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ValueError("dt_list must halve from entry to entry")
    if config.T < dts[0]:
        # below it two runs can take the same steps, and no order shows
        raise ValueError(
            f"order test horizon T = {config.T} is shorter than its largest dt = {dts[0]}"
        )

    state0 = build_initial_state(config)
    overrides = [{"dt": dt} for dt in (dts[-1] / 8.0, *dts)]
    runs, drift_reports, _, flat = _ladder(config, state0, overrides, difference_metric)
    errors = [run.distance for run in runs[1:]]
    reports = {"dt": list(dts), "errors": errors, **drift_reports}
    lines = [f"dt={dt:g}: error {err:.6e}" for dt, err in zip(dts, errors)]
    if "skipped" in reports:
        lines.append(
            "errors at round-off level with u = 0, which the splitting integrates "
            "exactly (e.g. zero data); order measurement skipped"
        )
        return _Outcome(lines, {}, reports, [])
    if flat:
        margin = -1.9
        detail = "errors at round-off do not depend on dt although u != 0: observed order 0"
    else:
        steps = [config.T / _step_count(config.T, dt) for dt in dts]
        orders = [
            math.log2(a / b) / math.log2(h_a / h_b)
            for a, b, h_a, h_b in zip(errors, errors[1:], steps, steps[1:])
        ]
        mean_order = sum(orders) / len(orders)
        reports.update(orders=orders, mean_order=mean_order)
        lines.append(f"observed orders: {['%.3f' % o for o in orders]}, mean {mean_order:.3f}")
        margin, detail = mean_order - 1.9, f"mean observed order {mean_order:.3f}"
    return _Outcome(lines, {}, reports, [_holds("splitting-second-order", margin, detail)])


def cmd_order_test(config: RunConfig, quiet: bool = False) -> int:
    """Self-refinement order measurement for the splitting integrator
    (_order_test); a skipped measurement is printed as a notice."""
    return _command("order-test", config, _order_test, quiet)
