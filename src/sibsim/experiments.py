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
* _symbol_assertions (check): the twelve spectral-symbol assertions;
  _transform_assertions (check): transform-inverse and transform-parseval;
  cmd_check adds stored-c0-certified, which needs the 128^2 estimate.
* cmd_estimate_c0 itself: estimator-converged.
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
    BlowupError,
    NumericalAbort,
    State,
    SystemParams,
    _Kernels,
    integrate,
    prepare_initial_state,
)
from .functionals import (
    RunMonitor,
    cauchy_metric,
    charge,
    difference_metric,
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
    (margin is in the units of the quantity being compared)."""

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
    """The times a run samples: every monitor_stride-th step and T."""
    step = config.monitor_stride * config.dt
    times = []
    t = step
    while t < config.T - 1e-12:
        times.append(t)
        t += step
    times.append(config.T)
    return tuple(times)


def _envelope_h1(series: dict, monitor: RunMonitor) -> np.ndarray:
    """The H1 envelope at each sampled time of a monitored series."""
    return np.array([envelope_h1(t - monitor.t0, monitor.ec, monitor.dn) for t in series["t"]])


def _energy_drift(series: dict) -> float:
    """Largest change of energy_eps from its first sample, relative to it."""
    energies = series["energy_eps"]
    return float(np.max(np.abs(energies - energies[0])) / max(abs(energies[0]), 1e-300))


def _charge_drift(charges) -> float:
    """Largest change of the charge from its first value, relative to it
    (absolute when the first value is 0)."""
    charges = np.asarray(charges)
    change = np.max(np.abs(charges - charges[0]))
    return float(change / charges[0] if charges[0] > 0 else change)


def _charge_conserved(name: str, drift: float, detail: str) -> Assertion:
    """The charge drifts by at most 1e-10, relative."""
    return Assertion(name, drift <= 1e-10, 1e-10 - drift, detail)


def _member_drift(state0: State, final: State, params: SystemParams) -> float:
    """_charge_drift of one sweep member, from its data as `params` prepares
    them to its final state."""
    return _charge_drift([charge(prepare_initial_state(state0, params)), charge(final)])


def _members_conserve_charge(reference: float, drifts: list[float]) -> Assertion:
    """member-charge-conservation over the drifts of a sweep's reference
    run and of its members."""
    worst = max(reference, *drifts)
    detail = f"largest relative drift {worst:.3e} over the reference and {len(drifts)} members"
    return _charge_conserved("member-charge-conservation", worst, detail)


def _series_assertions(series: dict, eps: float, monitor: RunMonitor) -> list[Assertion]:
    drift = _charge_drift(series["charge"])
    out = [_charge_conserved("charge-conservation", drift, f"relative drift {drift:.3e}")]

    lhs_h1 = h1_envelope_lhs(series)
    env = _envelope_h1(series, monitor)
    # an overflowing envelope is inf and dominates every finite left-hand
    # side, so only the finite entries scale the slack
    slack = 1e-12 * float(np.max(env[np.isfinite(env)], initial=1.0))
    gap = float(np.min(env - lhs_h1))
    out.append(
        Assertion(
            "h1-envelope-domination",
            gap >= -slack,
            gap,
            "growth envelope vs H1-level quantity",
        )
    )

    ec = monitor.ec
    if ec.c6 is not None:
        gap6 = float(ec.c6 - np.max(small_envelope_lhs(series, eps)))
        out.append(
            Assertion(
                "small-data-envelope",
                gap6 >= -1e-12 * max(1.0, ec.c6),
                gap6,
                "time-independent bound vs energy-level quantity",
            )
        )

    quotients = series["gn_quotient"]
    bound = ec.c0 * (1.0 + 1e-6)
    qgap = float(bound - np.max(quotients))
    out.append(
        Assertion(
            "gn-quotient-bound",
            qgap >= 0.0,
            qgap,
            f"max quotient {float(np.max(quotients)):.6f} vs C0 {ec.c0:.6f}",
        )
    )
    return out


def _decreasing(name: str, values: list[float], detail: str) -> Assertion:
    """values strictly decreasing; the margin is the smallest step down."""
    gaps = [a - b for a, b in zip(values, values[1:])]
    return Assertion(name, all(g > 0 for g in gaps), min(gaps), detail)


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
    charge drift) and the eps-difference-decreasing and
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

    samples = _sample_times(config)

    def states_at_samples(eps: float) -> tuple[dict, float]:
        params = build_params(config, eps=eps)
        record = integrate(state0, config.T, params, checkpoint_times=samples)
        return record.checkpoints, _member_drift(state0, record.final_state, params)

    reference, reference_drift = states_at_samples(0.0)
    sups, drifts = [], []
    for eps in eps_values:
        member, drift = states_at_samples(eps)
        sups.append(max(difference_metric(member[t], reference[t]) for t in samples))
        drifts.append(drift)
    # log(0) is undefined, so an eps = 0 member stays out of the log-log fit
    fit = [(e, s) for e, s in zip(eps_values, sups) if e > 0]
    if len(fit) >= 2:
        fit_eps, fit_sups = zip(*fit)
        slope = float(
            np.polyfit(np.log(fit_eps), np.log(np.maximum(fit_sups, 1e-300)), 1)[0]
        )
    else:
        slope = math.nan
    reports = {
        "eps": list(eps_values),
        "sup_metric": sups,
        "fitted_slope": slope,
        "charge_drift": drifts,
        "reference_charge_drift": reference_drift,
    }
    detail = "sup metric strictly decreasing as eps decreases"
    trend = _decreasing("eps-difference-decreasing", sups, detail)
    return monitor, reports, [trend, _members_conserve_charge(reference_drift, drifts)]


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
    each member's charge drift) and the n-consecutive-differences-decreasing
    and member-charge-conservation assertions."""
    n_values = tuple(sorted(set(config.n_list)))
    if len(n_values) < 3:
        raise ValueError(
            f"n sweep needs at least 3 distinct n_list values, got {config.n_list}"
        )

    state0, monitor = _start(config, build_params(config, yosida_n=None))

    params = build_params(config, yosida_n=None)
    reference = integrate(state0, config.T, params).final_state
    reference_drift = _member_drift(state0, reference, params)
    finals, drifts = [], []
    for n in n_values:
        params = build_params(config, yosida_n=n)
        finals.append(integrate(state0, config.T, params).final_state)
        drifts.append(_member_drift(state0, finals[-1], params))
    diffs = [cauchy_metric(a, b) for a, b in zip(finals, finals[1:])]
    dists = [cauchy_metric(f, reference) for f in finals]
    reports = {
        "n": list(n_values),
        "diff_consecutive": diffs,
        "dist_unregularized": dists,
        "charge_drift": drifts,
        "reference_charge_drift": reference_drift,
    }
    trend = _decreasing(
        "n-consecutive-differences-decreasing", diffs, "Cauchy trend along doubling n"
    )
    return monitor, reference, reports, [trend, _members_conserve_charge(reference_drift, drifts)]


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


def _symbol_assertions(grid) -> list[Assertion]:
    """Exactness and inequality suite for the spectral symbols.  Every symbol
    checked is an attribute of a stepping kernel (dynamics._Kernels) built
    on `grid`, so the suite certifies the arrays the integrator multiplies
    by."""
    lam = grid.lam
    rng = np.random.default_rng(0)
    t_samples = (0.0, 0.3, 1.7, math.pi)
    eps_samples = (0.0, 0.5, 1.0)
    n_max = 1024
    n_powers = tuple(2**j for j in range(n_max.bit_length()))
    assertions: list[Assertion] = []

    def kernel(eps: float = 1.0, n: int | None = None, dt: float | None = None) -> _Kernels:
        # the half-step symbols of a kernel built with 2t are the flows over
        # t; dt = None builds none of them
        return _Kernels(grid, SystemParams(eps=eps, yosida_n=n), dt)

    def norm(coef: np.ndarray, s: float = 0.0) -> float:
        return sobolev_norm(field_from_coef(grid, coef), s)

    # per-mode symbol inequalities, exact comparisons
    worst = {"contraction": math.inf, "sqrt-gain": math.inf, "sqrt-bound": math.inf, "full-bound": math.inf}
    ok = {key: True for key in worst}
    for n in range(1, n_max + 1):
        sym = kernel(n=n).jsym
        root = np.sqrt(lam) * sym
        checks = {
            "contraction": 1.0 - sym,
            "sqrt-gain": math.sqrt(n) - root,
            "sqrt-bound": np.sqrt(lam) - root,
            "full-bound": lam - lam * sym,
        }
        for key, gap in checks.items():
            worst[key] = min(worst[key], float(np.min(gap)))
            ok[key] = ok[key] and bool(np.all(gap >= 0.0))
    for key in worst:
        assertions.append(
            Assertion(
                f"yosida-symbol-{key}",
                ok[key],
                worst[key],
                f"min slack over modes and n in {{1..{n_max}}}",
            )
        )
    # convergence of the regularization on a fixed smooth field
    probe = np.exp(-0.5 * lam / float(lam[0, 0]))
    probe_nrm = norm(probe)
    errs = [norm(probe - kernel(n=n).jsym * probe) for n in n_powers]
    monotone_gap = min(a - b for a, b in zip(errs, errs[1:]))
    assertions.append(
        Assertion(
            "yosida-convergence-monotone",
            monotone_gap >= 0.0,
            monotone_gap,
            "||(1 - J_n) f|| nonincreasing along doubling n",
        )
    )
    lam_max = float(np.max(lam))
    band_gaps = [
        (lam_max / n) * probe_nrm - err for n, err in zip(n_powers, errs)
    ]
    assertions.append(
        Assertion(
            "yosida-convergence-band-bound",
            min(band_gaps) >= 0.0,
            min(band_gaps),
            "||(1 - J_n) f|| <= (lam_max / n) ||f||",
        )
    )
    n_small = 2 ** max(12, int(math.ceil(math.log2(float(lam[0, 0]) / 5e-4))))
    tail = norm(probe - kernel(n=n_small).jsym * probe)
    assertions.append(
        Assertion(
            "yosida-convergence-small",
            tail < 1e-3 * probe_nrm,
            1e-3 * probe_nrm - tail,
            f"residual at n = {n_small}",
        )
    )

    # propagator unitarity across Sobolev scales
    worst_unitary = math.inf
    for t in t_samples:
        U = kernel(dt=2 * t).phase_half
        for _ in range(5):
            f = _random_coef(grid, rng, "complex")
            for s in (-0.5, 0.0, 1.0):
                before = norm(f, s)
                after = norm(U * f, s)
                worst_unitary = min(
                    worst_unitary, 1e-12 - abs(after - before) / before
                )
    assertions.append(
        Assertion(
            "schrodinger-unitarity",
            worst_unitary >= 0.0,
            worst_unitary,
            "Sobolev norms preserved to 1e-12 relative",
        )
    )

    # group property U(t) U(-t) = 1
    worst_group = math.inf
    for t in t_samples:
        sym = kernel(dt=2 * t).phase_half * kernel(dt=-2 * t).phase_half
        worst_group = min(worst_group, 1e-14 - float(np.max(np.abs(sym - 1.0))))
    assertions.append(
        Assertion("propagator-group-identity", worst_group >= 0.0, worst_group)
    )

    # wave kernel first integral cos^2 + omega^2 sinc^2 = 1, and the
    # determinant of the half step cos^2 + wsin * sinc = 1, which reaches
    # the third symbol wave_half multiplies by
    worst_wave = math.inf
    for eps in eps_samples:
        for t in t_samples:
            ker = kernel(eps=eps, dt=2 * t)
            cos2 = ker.cos_half**2
            resid = max(
                np.max(np.abs(cos2 + ker.w**2 * ker.sinc_half**2 - 1.0)),
                np.max(np.abs(cos2 + ker.wsin_half * ker.sinc_half - 1.0)),
            )
            worst_wave = min(worst_wave, 1e-14 - float(resid))
    assertions.append(
        Assertion("wave-kernel-first-integral", worst_wave >= 0.0, worst_wave)
    )

    # the oracle's forcing symbol -w2 is -omega^2 (relative: both scale with lam)
    worst_src = math.inf
    for eps in eps_samples:
        ker = kernel(eps=eps)
        src = -ker.w2
        resid = np.abs((src + ker.w**2) / src)
        worst_src = min(worst_src, 1e-14 - float(np.max(resid)))
    assertions.append(Assertion("source-symbol-consistency", worst_src >= 0.0, worst_src))

    # norm identity ||(1 - Lap)^{1/2} (-Lap)^{-1/2} f||^2 = ||f||^2 + ||(-Lap)^{-1/2} f||^2
    worst_ident = math.inf
    for _ in range(100):
        f = _random_coef(grid, rng, "real")
        lhs = h1_norm(field_from_coef(grid, f / np.sqrt(lam))) ** 2
        rhs = norm(f) ** 2 + norm(f, -1.0) ** 2
        worst_ident = min(worst_ident, 1e-10 - abs(lhs - rhs) / rhs)
    assertions.append(
        Assertion(
            "lifted-inverse-norm-identity",
            worst_ident >= 0.0,
            worst_ident,
            "100 random fields, 1e-10 relative",
        )
    )

    return assertions


def _transform_assertions(grid) -> list[Assertion]:
    """Exactness of the transforms every product and norm goes through,
    for random real and complex coefficients: analysis after synthesis is
    the identity on the band, and the node sum keeps Parseval's identity
    ||c||^2 = Lx Ly / ((Mx+1)(My+1)) sum |values|^2 over M nodes per axis.
    Both are checked on the collocation nodes and on the product grid of
    `grid` and of a fixed rectangle, 2pi x pi with 12 x 8 modes, where an
    exchange of the axes shows."""
    rng = np.random.default_rng(0)
    worst = {"inverse": 0.0, "parseval": 0.0}
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
                worst["inverse"] = max(worst["inverse"], math.sqrt(inverse / sq))
                worst["parseval"] = max(worst["parseval"], abs(node_sum - sq) / sq)
    what = {"inverse": "analysis(synthesis(c)) = c", "parseval": "node-sum Parseval identity"}
    where = "1e-12 relative, on the nodes and product grid of the config grid and of 2pi x pi"
    return [
        Assertion(f"transform-{key}", err <= 1e-12, 1e-12 - err, f"{what[key]}, {where}")
        for key, err in worst.items()
    ]


def cmd_check(config: RunConfig, quiet: bool = False) -> int:
    """_symbol_assertions and _transform_assertions on the configured grid,
    plus the certification of the stored default C0
    (functionals.REFERENCE_C0), re-derived on its own 128^2 reference grid
    whatever the configured one."""
    os.makedirs(config.out_dir, exist_ok=True)
    grid = build_grid(config)
    assertions = _symbol_assertions(grid) + _transform_assertions(grid)

    # the stored default C0 is certified only while it does not exceed a
    # fresh estimate on the grid it was derived on (read at call time)
    fresh_c0 = estimate_gn_constant(make_grid(2 * math.pi, 2 * math.pi, 128, 128))
    c0_slack = fresh_c0 * (1.0 + 1e-12) - functionals.REFERENCE_C0
    assertions.append(
        Assertion(
            "stored-c0-certified",
            c0_slack >= 0.0,
            c0_slack,
            f"REFERENCE_C0 <= fresh 128^2 estimate {fresh_c0:.16g}, 1e-12 relative slack",
        )
    )

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
    assertions = [
        Assertion("estimator-converged", converged, 0.0 if converged else -1.0)
    ]
    return _finish(config.out_dir, manifest, assertions, ["c0.json"], quiet)


# ---------------------------------------------------------------------------
# order test


def _order_test(config: RunConfig) -> tuple[dict, list[Assertion]]:
    """Run to T at every dt of dt_list and at dt_min / 8, the reference the
    errors are taken against; the reports and the splitting-second-order
    assertion on the mean observed order.  Errors at round-off (an exact
    integrator, zero data say) skip the measurement and assert nothing."""
    dts = config.dt_list
    if len(dts) < 3:
        raise ValueError("order test needs at least 3 dt values")
    for a, b in zip(dts, dts[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ValueError("dt_list must halve from entry to entry")

    state0 = build_initial_state(config)

    def final_state(dt: float) -> State:
        return integrate(state0, config.T, build_params(config, dt=dt)).final_state

    reference = final_state(dts[-1] / 8.0)
    errors = [difference_metric(final_state(dt), reference) for dt in dts]
    if max(errors) < 1e-11:
        return {"dt": list(dts), "errors": errors, "skipped": True}, []
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    mean_order = sum(orders) / len(orders)
    reports = {"dt": list(dts), "errors": errors, "orders": orders, "mean_order": mean_order}
    assertion = Assertion(
        "splitting-second-order",
        mean_order >= 1.9,
        mean_order - 1.9,
        f"mean observed order {mean_order:.3f}",
    )
    return reports, [assertion]


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
            "errors at round-off level (exact integrator, e.g. zero data); "
            "order measurement skipped",
        )
    else:
        orders, mean_order = reports["orders"], reports["mean_order"]
        _emit(quiet, f"observed orders: {['%.3f' % o for o in orders]}, mean {mean_order:.3f}")
    manifest = _manifest_base("order-test", config)
    manifest["reports"] = reports
    return _finish(config.out_dir, manifest, assertions, [], quiet)
