"""Experiment suites: single runs with asserted invariants, the eps and
Yosida-n sweeps, the check suite for the stepper's spectral symbols,
sharp-constant estimation, and the integrator order test.

Every command takes a RunConfig, writes its artifacts into the configured
output directory, prints one line per assertion, and returns a process
exit code: 0 all assertions pass, 1 an assertion failed.  The other two
exit codes come from exceptions that the CLI maps in one place: 2 for
invalid configuration (ValueError, or an OSError from the file system), 3
for a numerical abort (dynamics.NumericalAbort; cmd_run first writes its
manifest with status numerical-abort).

Each asserted property is computed once, by a private function that returns
the reported numbers and the Assertions; the commands only run, write and
print around it, and the tests call the same function:

* _series_assertions (run): charge-conservation, h1-envelope-domination,
  small-data-envelope and gn-quotient-bound, from a monitored series;
  _energy_drift is run's reported energy drift.
* _eps_sweep (sweep-eps): eps-difference-decreasing and
  member-charge-conservation.
* _n_sweep (sweep-n): n-consecutive-differences-decreasing and
  member-charge-conservation.
* _order_test (order-test): splitting-second-order.
  The three are ladders of runs: _ladder is their one runner, and
  _drift_reports turns its drifts into reports and member-charge-conservation.
* _symbol_derivation (check): symbol-derivation, every table the stepper
  multiplies by against its formula; _grid_assertions (check):
  transform-inverse, transform-parseval and lifted-inverse-norm-identity;
  _phase_flow_assertion (check): nodal-phase-flow; cmd_check adds
  stored-c0-certified, which needs the 128^2 estimate.
* cmd_estimate_c0 itself: estimator-converged.

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


def _manifest_base(command: str, config: RunConfig, monitor: RunMonitor | None = None) -> dict:
    """The manifest fields every command writes, plus the data norms and
    envelope constants of `monitor` when given."""
    manifest = {
        "command": command,
        "config": config.raw,
        "resolved": _resolved(config),
        "versions": {
            "sibsim": __version__,
            "numpy": np.__version__,
        },
    }
    if monitor is not None:
        dn, ec = monitor.dn, monitor.ec
        manifest["data_norms"] = {name: getattr(dn, name) for name in vars(dn)}
        manifest["envelope_constants"] = {"c0": ec.c0, "c3": ec.c3, "c6": ec.c6}
    return manifest


def _finish(
    directory: str,
    manifest: dict,
    assertions: list[Assertion],
    artifact_names: list[str],
    quiet: bool,
) -> int:
    for a in assertions:
        _emit(quiet, a.line())
    manifest["assertions"] = [vars(a) for a in assertions]
    ok = all(a.passed for a in assertions)
    manifest.setdefault("status", "ok" if ok else "assertion-failure")
    manifest["files"] = file_checksums(directory, artifact_names)
    write_manifest(os.path.join(directory, "manifest.json"), manifest)
    return 0 if ok else 1


def _start(config: RunConfig, params: SystemParams) -> tuple[State, RunMonitor]:
    """The initial data, and the monitor of the data as `params` prepares
    them."""
    state0 = build_initial_state(config)
    return state0, RunMonitor.from_state(prepare_initial_state(state0, params))


def _sample_times(config: RunConfig) -> tuple[float, ...]:
    """The times a run samples: every monitor_stride-th of its equal steps
    of T / ceil(T/dt), and T."""
    step = config.monitor_stride * (config.T / _step_count(config.T, config.dt))
    # k * step, not a running sum, which drifts past a step in long runs
    return (*(k * step for k in range(1, math.ceil(config.T / step - _STEP_TOL))), config.T)


def _envelope_h1(series: dict, monitor: RunMonitor) -> np.ndarray:
    """The H1 envelope at each sampled time of a monitored series."""
    return np.array([envelope_h1(t - monitor.t0, monitor.ec, monitor.dn) for t in series["t"]])


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
    from its data as its params prepare them, and its largest
    difference_metric from the first run's states at the sample times (0
    for the first run, and for a ladder that samples nothing)."""

    final: State
    charge_drift: float
    energy_drift: float
    sup_metric: float


def _ladder(config: RunConfig, state0: State, overrides, samples=()) -> list[_Run]:
    """The one runner of sweep-eps, sweep-n and order-test: for each dict
    of build_params keywords in `overrides`, in order, one integrate of
    state0 to config.T that keeps its states at `samples`.  Each run's
    states are measured against the first run's as soon as it ends and
    then dropped, so no more than two runs' states are alive at once."""
    runs, reference = [], {}
    for keywords in overrides:
        params = build_params(config, **keywords)
        record = integrate(state0, config.T, params, checkpoint_times=samples)
        start, final = prepare_initial_state(state0, params), record.final_state
        kept = record.checkpoints
        charges = [charge(start), charge(final)]
        energies = [energy(start, params), energy(final, params)]
        sups = [difference_metric(kept[t], reference[t]) for t in samples] if reference else [0.0]
        runs.append(_Run(final, _drift(charges), _drift(energies), float(np.max(sups))))
        reference = reference or kept
        del record, kept  # so that the next run does not hold them
    return runs


def _drift_reports(runs: list[_Run]) -> tuple[dict, Assertion]:
    """The drift reports of a ladder whose first run is the reference the
    others are compared against, and member-charge-conservation over all
    of its runs."""
    reference, *members = runs
    reports = {
        "charge_drift": [run.charge_drift for run in members],
        "reference_charge_drift": reference.charge_drift,
        "energy_drift": [run.energy_drift for run in members],
        "reference_energy_drift": reference.energy_drift,
    }
    worst = np.max([run.charge_drift for run in runs])
    detail = f"largest relative drift {worst:.3e} over the reference and {len(members)} members"
    return reports, _charge_conserved("member-charge-conservation", worst, detail)


def _series_assertions(series: dict, eps: float, monitor: RunMonitor) -> list[Assertion]:
    drift = _drift(series["charge"])
    out = [_charge_conserved("charge-conservation", drift, f"relative drift {drift:.3e}")]

    lhs_h1 = h1_envelope_lhs(series)
    env = _envelope_h1(series, monitor)
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


def cmd_run(config: RunConfig, quiet: bool = False) -> int:
    """Integrate one configuration; assert conservation and envelopes."""
    os.makedirs(config.out_dir, exist_ok=True)
    params = build_params(config)
    state0, monitor = _start(config, params)
    manifest = _manifest_base("run", config, monitor)

    try:
        record = integrate(
            state0, config.T, params, config.monitor_stride, monitor, config.checkpoint_times
        )
    except NumericalAbort as exc:
        manifest["status"] = "numerical-abort"
        if isinstance(exc, BlowupError):
            manifest["last_finite_t"] = exc.t_last
            manifest["failed_step"] = exc.step
            manifest["failed_quantity"] = exc.quantity
        manifest["files"] = {}
        write_manifest(os.path.join(config.out_dir, "manifest.json"), manifest)
        raise

    assertions = _series_assertions(record.series, params.eps, monitor)
    manifest["reports"] = {"energy_drift_rel": _energy_drift(record.series)}
    record.series["envelope_h1"] = _envelope_h1(record.series, monitor)
    artifacts = ["series.csv"]
    write_series(os.path.join(config.out_dir, "series.csv"), record)
    for t, snap in sorted(record.checkpoints.items()):
        name = checkpoint_name(t)
        save_checkpoint(os.path.join(config.out_dir, name), snap)
        artifacts.append(name)
    return _finish(config.out_dir, manifest, assertions, artifacts, quiet)


# ---------------------------------------------------------------------------
# eps sweep


def _eps_sweep(config: RunConfig) -> tuple[RunMonitor, dict, list[Assertion]]:
    """Run the eps = 0 reference and every eps of eps_list, sampled at
    _sample_times; the monitor of the data, the reports (with each member's
    charge and energy drift) and the eps-difference-decreasing and
    member-charge-conservation assertions."""
    eps_values = tuple(sorted(set(config.eps_list), reverse=True))
    if len(eps_values) < 2:
        raise ValueError(
            f"eps sweep needs at least 2 distinct eps_list values, got {config.eps_list}"
        )

    state0, monitor = _start(config, build_params(config, eps=0.0))
    if monitor.ec.c0 * monitor.dn.l2_phi >= math.sqrt(2.0):
        raise ValueError(
            "small-data hypothesis violated: C0*||phi||_2 = "
            f"{monitor.ec.c0 * monitor.dn.l2_phi:.4f} >= sqrt(2); "
            "the eps sweep is only meaningful under it"
        )

    overrides = [{"eps": eps} for eps in (0.0, *eps_values)]
    runs = _ladder(config, state0, overrides, _sample_times(config))
    sups = [run.sup_metric for run in runs[1:]]
    drift_reports, conserved = _drift_reports(runs)
    # log(0) is undefined, so an eps = 0 member stays out of the log-log fit
    fit = [(e, s) for e, s in zip(eps_values, sups) if e > 0]
    if len(fit) >= 2:
        fit_eps, fit_sups = zip(*fit)
        slope = float(np.polyfit(np.log(fit_eps), np.log(np.maximum(fit_sups, 1e-300)), 1)[0])
    else:
        slope = math.nan
    reports = {
        "eps": list(eps_values),
        "sup_metric": sups,
        "fitted_slope": slope,
        **drift_reports,
    }
    detail = "sup metric strictly decreasing as eps decreases"
    trend = _decreasing("eps-difference-decreasing", sups, detail)
    return monitor, reports, [trend, conserved]


def cmd_sweep_eps(config: RunConfig, quiet: bool = False) -> int:
    """Compare eps > 0 runs against the eps = 0 reference; the sup over
    sampled times of the difference metric must decrease strictly as eps
    decreases.  Requires the small-data hypothesis (the limit system's
    global theory needs it)."""
    os.makedirs(config.out_dir, exist_ok=True)
    monitor, reports, assertions = _eps_sweep(config)
    slope = reports["fitted_slope"]
    rows = [(e, s, slope) for e, s in zip(reports["eps"], reports["sup_metric"])]
    for eps, sup, _ in rows:
        _emit(quiet, f"eps={eps:g}: sup difference {sup:.6e}")
    write_table(
        os.path.join(config.out_dir, "eps_sweep.csv"), ("eps", "sup_metric", "fitted_slope"), rows
    )
    manifest = _manifest_base("sweep-eps", config, monitor)
    manifest["reports"] = reports
    _emit(quiet, f"fitted slope of sup difference vs eps: {slope:.3f}")
    return _finish(config.out_dir, manifest, assertions, ["eps_sweep.csv"], quiet)


# ---------------------------------------------------------------------------
# yosida-n sweep


def _n_sweep(config: RunConfig) -> tuple[RunMonitor, State, dict, list[Assertion]]:
    """Run the unregularized reference and every n of n_list to T; the
    monitor of the data, the reference's final state, the reports (with
    each member's charge and energy drift) and the
    n-consecutive-differences-decreasing and member-charge-conservation
    assertions."""
    n_values = tuple(sorted(set(config.n_list)))
    if len(n_values) < 3:
        raise ValueError(
            f"n sweep needs at least 3 distinct n_list values, got {config.n_list}"
        )

    state0, monitor = _start(config, build_params(config, yosida_n=None))
    runs = _ladder(config, state0, [{"yosida_n": n} for n in (None, *n_values)])
    reference, *finals = (run.final for run in runs)
    drift_reports, conserved = _drift_reports(runs)
    diffs = [cauchy_metric(a, b) for a, b in zip(finals, finals[1:])]
    reports = {
        "n": list(n_values),
        "diff_consecutive": diffs,
        "dist_unregularized": [cauchy_metric(f, reference) for f in finals],
        **drift_reports,
    }
    trend = _decreasing(
        "n-consecutive-differences-decreasing", diffs, "Cauchy trend along doubling n"
    )
    return monitor, reference, reports, [trend, conserved]


def cmd_sweep_n(config: RunConfig, quiet: bool = False) -> int:
    """Run the regularized system for each n, plus the unregularized
    reference; consecutive solutions (at t = T, in H1 + L2 + L2) must
    approach each other as n doubles."""
    os.makedirs(config.out_dir, exist_ok=True)
    monitor, _, reports, assertions = _n_sweep(config)
    rows = []
    diffs = [None, *reports["diff_consecutive"]]
    for n, diff_prev, dist in zip(reports["n"], diffs, reports["dist_unregularized"]):
        rows.append((n, "" if diff_prev is None else diff_prev, dist))
        _emit(
            quiet,
            f"n={n}: consecutive diff "
            + ("-" if diff_prev is None else f"{diff_prev:.6e}")
            + f", distance to unregularized {dist:.6e}",
        )
    write_table(
        os.path.join(config.out_dir, "n_sweep.csv"),
        ("n", "diff_consecutive", "dist_unregularized"),
        rows,
    )
    manifest = _manifest_base("sweep-n", config, monitor)
    manifest["reports"] = reports
    return _finish(config.out_dir, manifest, assertions, ["n_sweep.csv"], quiet)


# ---------------------------------------------------------------------------
# spectral-symbol check suite


def _random_coef(grid, rng, kind="real") -> np.ndarray:
    # decay on the grid's own scale: the field is nonzero however large lam is
    decay = np.exp(-0.01 * grid.lam / grid.lam[0, 0])
    coef = rng.standard_normal(grid.shape) * decay
    if kind == "complex":
        coef = coef + 1j * rng.standard_normal(grid.shape) * decay
    return coef


def _symbol_derivation(config: RunConfig) -> Assertion:
    """symbol-derivation: every table the stepper multiplies by, against the
    README's formulas evaluated here from the mode integers and the
    configured sides, not through _Kernels or grid.lam:

    * lam = (k pi / Lx)^2 + (l pi / Ly)^2: grid.lam of the configured grid
      and of a 2pi x pi rectangle with 12 x 8 modes, where an exchange of
      the axes shows;
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
    differ by at most 4u + 20u |t| x_max.  The mismatch of a symbol is its
    largest relative difference, that of a phase its largest difference
    over 1 + |t| x_max, a bound that grows with |t| lam_max; the margin is
    32u less the worst mismatch."""

    def derived_lam(lx: float, ly: float, nx: int, ny: int) -> np.ndarray:
        kx, ky = np.pi * np.arange(1, nx + 1) / lx, np.pi * np.arange(1, ny + 1) / ly
        return kx[:, None] ** 2 + ky[None, :] ** 2

    def relative(table, derived) -> float:
        return float(np.max(np.abs(table - derived) / derived))

    def phase(table, t: float, x) -> float:
        derived = np.cos(t * x) - 1j * np.sin(t * x)
        return float(np.max(np.abs(table - derived)) / (1.0 + abs(t) * np.max(x)))

    grid, rect = build_grid(config), make_grid(2 * math.pi, math.pi, 12, 8)
    lam = derived_lam(config.lx, config.ly, config.nx, config.ny)
    mismatch = [
        ("lam", relative(grid.lam, lam)),
        ("lam on 2pi x pi", relative(rect.lam, derived_lam(2 * math.pi, math.pi, 12, 8))),
    ]
    h = config.T / _step_count(config.T, config.dt)
    n_values = sorted({*(2**j for j in range(11)), *config.n_list})
    kernels = [(SystemParams(eps=eps), None) for eps in (0.0, 0.5, 1.0)]
    kernels += [(SystemParams(yosida_n=n), None) for n in n_values]
    for params, dt in [*kernels, (build_params(config), h)]:
        ker = _Kernels(grid, params, dt)
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
        f"lam on {config.nx} x {config.ny} and 2pi x pi 12 x 8, w2 and w at eps 0, 0.5, 1, "
        f"{eps:g}, J_n at n in {{{covered}}}, step tables at h = {h:.6g}"
    )
    return _holds("symbol-derivation", bound - values[worst], detail)


def _grid_assertions(grid) -> list[Assertion]:
    """Exactness of the transforms and norms every product and norm goes
    through.  transform-inverse and transform-parseval, for random real
    and complex coefficients: analysis after synthesis is the identity on
    the band, and the node sum keeps Parseval's identity ||c||^2 = Lx Ly /
    ((Mx+1)(My+1)) sum |values|^2 over M nodes per axis.  Both are checked
    on the collocation nodes and on the product grid of `grid` and of a
    fixed rectangle, 2pi x pi with 12 x 8 modes, where an exchange of the
    axes shows.  lifted-inverse-norm-identity: the norms keep
    ||(1 - Lap)^{1/2} (-Lap)^{-1/2} f||^2 = ||f||^2 + ||(-Lap)^{-1/2} f||^2
    to 1e-10 relative, on 100 random real fields of `grid`."""
    rng = np.random.default_rng(0)
    errors = {"inverse": [], "parseval": []}
    for g in (grid, make_grid(2 * math.pi, math.pi, 12, 8)):
        for shape in (g.shape, _Kernels(g, SystemParams(), None).prod_shape):
            for kind in ("real", "complex"):
                c = rng.standard_normal(g.shape)
                if kind == "complex":
                    c = c + 1j * rng.standard_normal(g.shape)
                vals = coef_to_values(g, c, shape)
                sq = float(np.sum(np.abs(c) ** 2))
                inverse = float(np.sum(np.abs(values_to_coef(g, vals) - c) ** 2))
                node_sum = float(np.sum(np.abs(vals) ** 2)) * g.Lx * g.Ly
                node_sum /= (shape[0] + 1) * (shape[1] + 1)
                errors["inverse"].append(math.sqrt(inverse / sq))
                errors["parseval"].append(abs(node_sum - sq) / sq)
    lifted = []
    for _ in range(100):
        f = field_from_coef(grid, _random_coef(grid, rng, "real"))
        lhs = h1_norm(field_from_coef(grid, f.coef / np.sqrt(grid.lam))) ** 2
        rhs = sobolev_norm(f, 0.0) ** 2 + sobolev_norm(f, -1.0) ** 2
        lifted.append(abs(lhs - rhs) / rhs)
    what = {"inverse": "analysis(synthesis(c)) = c", "parseval": "node-sum Parseval identity"}
    where = "1e-12 relative, on the nodes and product grid of the config grid and of 2pi x pi"
    transforms = [
        _holds(f"transform-{key}", 1e-12 - np.max(errs), f"{what[key]}, {where}")
        for key, errs in errors.items()
    ]
    detail = "100 random fields, 1e-10 relative"
    return [*transforms, _holds("lifted-inverse-norm-identity", 1e-10 - np.max(lifted), detail)]


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
    u = _random_coef(grid, rng, "complex")
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


def cmd_check(config: RunConfig, quiet: bool = False) -> int:
    """_symbol_derivation of the configured kernels, _grid_assertions and
    _phase_flow_assertion on the configured grid, plus the certification
    of the stored default C0 (functionals.REFERENCE_C0), re-derived on its
    own 128^2 reference grid whatever the configured one."""
    os.makedirs(config.out_dir, exist_ok=True)
    grid = build_grid(config)
    assertions = [_symbol_derivation(config), *_grid_assertions(grid), _phase_flow_assertion(grid)]

    # the stored default C0 is certified only while it does not exceed a
    # fresh estimate on the grid it was derived on (read at call time)
    fresh_c0 = estimate_gn_constant(make_grid(2 * math.pi, 2 * math.pi, 128, 128))
    c0_slack = fresh_c0 * (1.0 + 1e-12) - functionals.REFERENCE_C0
    detail = f"REFERENCE_C0 <= fresh 128^2 estimate {fresh_c0:.16g}, 1e-12 relative slack"
    assertions.append(_holds("stored-c0-certified", c0_slack, detail))

    manifest = _manifest_base("check", config)
    return _finish(config.out_dir, manifest, assertions, [], quiet)


# ---------------------------------------------------------------------------
# sharp-constant estimation


def cmd_estimate_c0(config: RunConfig, quiet: bool = False) -> int:
    """Estimate the sharp Gagliardo-Nirenberg constant on the configured
    grid and write c0.json with the smallness threshold sqrt(2)/C0."""
    os.makedirs(config.out_dir, exist_ok=True)
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
    write_manifest(os.path.join(config.out_dir, "c0.json"), payload)
    _emit(quiet, f"C0 estimate: {value:.6f} (threshold sqrt(2)/C0 = {threshold:.6f})")
    manifest = _manifest_base("estimate-c0", config)
    manifest["reports"] = payload
    assertions = [_holds("estimator-converged", 0.0 if converged else -1.0)]
    return _finish(config.out_dir, manifest, assertions, ["c0.json"], quiet)


# ---------------------------------------------------------------------------
# order test


def _order_test(config: RunConfig) -> tuple[dict, list[Assertion]]:
    """Run to T at every dt of dt_list and at dt_min / 8, the reference the
    errors are taken against; the reports (with each run's charge and
    energy drift, not asserted) and the splitting-second-order
    assertion on the mean observed order, each order measured against the
    equal steps T / ceil(T/dt) the runs take.  Errors at round-off, at most
    1e-11 of the reference's own size in their metric, skip the
    measurement only when u = 0 (zero data, a free wave), where both
    couplings vanish and the splitting is the exact free flow; with u != 0
    they fail it, as errors that do not depend on dt."""
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
    runs = _ladder(config, state0, [{"dt": dt} for dt in (dts[-1] / 8.0, *dts)])
    reference, *finals = (run.final for run in runs)
    errors = [difference_metric(final, reference) for final in finals]
    reports = {"dt": list(dts), "errors": errors, **_drift_reports(runs)[0]}
    parts = (reference.u, reference.v, reference.vt)
    zero = State(*(field_from_coef(f.grid, np.zeros_like(f.coef)) for f in parts), reference.t)
    if np.max(errors) <= 1e-11 * difference_metric(reference, zero):
        if not np.any(state0.u.coef):
            return {**reports, "skipped": True}, []
        detail = "errors at round-off do not depend on dt although u != 0: observed order 0"
        return reports, [_holds("splitting-second-order", -1.9, detail)]
    steps = [config.T / _step_count(config.T, dt) for dt in dts]
    orders = [
        math.log2(a / b) / math.log2(h_a / h_b)
        for a, b, h_a, h_b in zip(errors, errors[1:], steps, steps[1:])
    ]
    mean_order = sum(orders) / len(orders)
    reports.update(orders=orders, mean_order=mean_order)
    detail = f"mean observed order {mean_order:.3f}"
    return reports, [_holds("splitting-second-order", mean_order - 1.9, detail)]


def cmd_order_test(config: RunConfig, quiet: bool = False) -> int:
    """Self-refinement order measurement for the splitting integrator
    (_order_test); a skipped measurement is printed as a notice."""
    os.makedirs(config.out_dir, exist_ok=True)
    reports, assertions = _order_test(config)
    for dt, err in zip(reports["dt"], reports["errors"]):
        _emit(quiet, f"dt={dt:g}: error {err:.6e}")
    if reports.get("skipped"):
        _emit(
            quiet,
            "errors at round-off level with u = 0, which the splitting integrates "
            "exactly (e.g. zero data); order measurement skipped",
        )
    elif "orders" in reports:
        orders, mean_order = reports["orders"], reports["mean_order"]
        _emit(quiet, f"observed orders: {['%.3f' % o for o in orders]}, mean {mean_order:.3f}")
    manifest = _manifest_base("order-test", config)
    manifest["reports"] = reports
    return _finish(config.out_dir, manifest, assertions, [], quiet)
