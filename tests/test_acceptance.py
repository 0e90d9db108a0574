"""End-to-end acceptance runs at desk scale.

Each test prints one verdict line ("[PASS] name: measurement") in the same
shape as the CLI assertion output, so `pytest tests/test_acceptance.py -s`
reads as a checklist.  Expect a few minutes of wall time for the module.

Two clauses are out of reach for this scheme at the stated parameters; they
are kept as strict xfails with the measured numbers in the reason string
instead of being loosened, so they flip the suite red if they ever start
passing silently.
"""

import math

import numpy as np
import pytest

from sibsim.config import RunConfig, build_initial_state, build_params
from sibsim.dynamics import SystemParams, _Kernels, integrate, picard_duhamel
from sibsim.functionals import (
    RunMonitor,
    cauchy_metric,
    difference_metric,
    estimate_gn_constant,
    h1_envelope_lhs,
    small_envelope_lhs,
)
from sibsim.grids import field_from_coef, h1_norm, make_grid, sobolev_norm


def _verdict(ok: bool, name: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _final_state(cfg: RunConfig, **overrides):
    params = build_params(cfg, **overrides)
    return integrate(build_initial_state(cfg), cfg.T, params).final_state


def _monitored_run(cfg: RunConfig):
    """integrate() with a diagnostics row every monitor_stride steps."""
    state0 = build_initial_state(cfg)
    monitor = RunMonitor.from_state(state0)
    return integrate(state0, cfg.T, build_params(cfg), cfg.monitor_stride, monitor)


def test_charge_is_conserved_for_each_dispersion_weight():
    eps_values = (0.0, 0.5, 1.0)
    drifts = []
    for eps in eps_values:
        cfg = RunConfig(eps=eps)
        rec = _monitored_run(cfg)
        charge = rec.series["charge"]
        drifts.append(float(np.max(np.abs(charge - charge[0])) / charge[0]))
    detail = ", ".join(
        f"eps={eps:g}: {d:.3e}" for eps, d in zip(eps_values, drifts)
    )
    assert _verdict(
        max(drifts) < 1e-10,
        "charge-conservation",
        detail + " relative drift over 1000 steps (tol 1e-10)",
    )


def test_energy_drift_is_second_order_in_dt():
    drift = {}
    for dt in (1e-3, 5e-4):
        cfg = RunConfig(dt=dt)
        rec = _monitored_run(cfg)
        energy = rec.series["energy_eps"]
        drift[dt] = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    ratio = drift[1e-3] / drift[5e-4]
    ok = drift[1e-3] < 1e-5 and 3.5 <= ratio <= 4.5
    assert _verdict(
        ok,
        "energy-drift",
        f"relative drift {drift[1e-3]:.3e} at dt=1e-3 (tol 1e-5), "
        f"halving ratio {ratio:.3f} (want [3.5, 4.5])",
    )


def test_growth_envelope_dominates_h1_quantity_on_long_run():
    cfg = RunConfig(T=5.0)
    rec = _monitored_run(cfg)
    lhs = h1_envelope_lhs(rec.series)
    env = rec.series["envelope_h1"]
    gap = float(np.min(env - lhs))
    slack = 1e-12 * max(1.0, float(np.max(env)))
    assert _verdict(
        gap >= -slack,
        "h1-envelope",
        f"min envelope gap {gap:.3e} over {lhs.size} samples, eps=1, T=5",
    )


@pytest.fixture(scope="module")
def small_eps_family():
    """Default-data records over T = 5 for eps 0.1 down to 0.0125, keyed by
    eps, shared by the small-data and the H1 envelope tests."""
    records = {}
    for eps in (0.1, 0.05, 0.025, 0.0125):
        cfg = RunConfig(T=5.0, eps=eps)
        records[eps] = _monitored_run(cfg)
    return records


def test_uniform_bound_holds_for_small_eps_family(small_eps_family):
    # every member starts from the default data, so one C6 serves them all
    c6 = RunMonitor.from_state(build_initial_state(RunConfig())).ec.c6
    results = []
    for eps, rec in small_eps_family.items():
        lhs = small_envelope_lhs(rec.series, eps)
        results.append((eps, float(np.max(lhs))))
    ok = all(sup <= c6 + 1e-12 * max(1.0, c6) for _, sup in results)
    detail = "; ".join(f"eps={eps:g}: sup {sup:.3f} vs C6 {c6:.3f}" for eps, sup in results)
    assert _verdict(ok, "uniform-small-data-bound", detail + " over T=5")


@pytest.mark.xfail(
    strict=True,
    reason="the H1 envelope C3*exp(C0^2 ||phi||^2 t) holds at eps=0.1 (min "
    "gap +0.844 at t=1.13) but not below it: -1.398 at eps=0.05 (t=1.10), "
    "-2.668 at eps=0.025 (t=1.08), -3.336 at eps=0.0125 (t=1.07), samples "
    "every 0.01; the same margins at finer dt and other N say it is not a "
    "resolution effect, and the unweighted ||vt||^2 in the left-hand side is "
    "the suspect, so the check is kept until a derivation settles it",
)
def test_h1_envelope_dominates_for_small_eps_family(small_eps_family):
    gaps = {}
    for eps, rec in small_eps_family.items():
        env = rec.series["envelope_h1"]
        gap = float(np.min(env - h1_envelope_lhs(rec.series)))
        gaps[eps] = (gap, 1e-12 * max(1.0, float(np.max(env))))
    ok = all(gap >= -slack for gap, slack in gaps.values())
    detail = "; ".join(f"eps={eps:g}: min gap {gap:.3f}" for eps, (gap, _) in gaps.items())
    assert _verdict(ok, "h1-envelope-small-eps", detail + " over T=5")


def test_distance_to_limit_system_decreases_with_eps():
    sample_times = tuple(round(k * 0.01, 10) for k in range(1, 101))

    def snapshots(eps):
        cfg = RunConfig(eps=eps)
        rec = integrate(
            build_initial_state(cfg),
            cfg.T,
            build_params(cfg),
            checkpoint_times=sample_times,
        )
        return rec.checkpoints

    base = snapshots(0.0)
    eps_values = (0.1, 0.05, 0.025, 0.0125)
    sups = []
    for eps in eps_values:
        snaps = snapshots(eps)
        sups.append(max(difference_metric(snaps[t], base[t]) for t in sample_times))
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))
    slope = float(np.polyfit(np.log(eps_values), np.log(sups), 1)[0])
    detail = (
        "sup distances "
        + ", ".join(f"{s:.4f}" for s in sups)
        + f" for eps {eps_values}; fitted slope {slope:.2f}"
    )
    assert _verdict(decreasing, "limit-distance-decreasing", detail)


def test_regularized_runs_form_cauchy_sequence_in_n():
    cfg = RunConfig(T=0.5)
    finals = [_final_state(cfg, yosida_n=n) for n in (8, 16, 32, 64)]
    diffs = [cauchy_metric(a, b) for a, b in zip(finals, finals[1:])]
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))
    detail = (
        "consecutive distances "
        + ", ".join(f"{d:.3e}" for d in diffs)
        + " for n pairs (8,16), (16,32), (32,64) at t=0.5"
    )
    assert _verdict(decreasing, "regularization-cauchy-trend", detail)


@pytest.mark.xfail(
    strict=True,
    reason="the n-regularized run approaches the plain run only down to a "
    "quadrature floor: its nonlinearities are band-projected while the "
    "plain stepper samples them on the nodes, leaving 3.3e-5 at n=2**20 "
    "and 2.5e-5 at n=2**24 on the 64^2 grid; even without that floor the "
    "J-induced part decays like 9/n and would need n near 2**30 to reach "
    "1e-8, so the stated n is kept rather than loosened",
)
def test_heavily_regularized_run_matches_plain_run():
    cfg = RunConfig(T=0.5)
    plain = _final_state(cfg)
    heavy = _final_state(cfg, yosida_n=2**20)
    dist = cauchy_metric(heavy, plain)
    _verdict(
        dist < 1e-8,
        "large-n-agreement",
        f"H1+L2+L2 distance {dist:.3e} at t=0.5 for n=2**20 (tol 1e-8)",
    )
    assert dist < 1e-8


def test_symbol_inequalities_exact_for_every_n_and_mode():
    grid = make_grid(math.pi, math.pi, 64, 64)
    lam = grid.lam
    sqrt_lam = np.sqrt(lam)
    worst = {
        "contraction": math.inf,
        "sqrt-gain": math.inf,
        "sqrt-bound": math.inf,
        "full-bound": math.inf,
    }
    for n in range(1, 2**10 + 1):
        sym = _Kernels(grid, SystemParams(yosida_n=n), 0.0).jsym
        root = sqrt_lam * sym
        gaps = {
            "contraction": 1.0 - sym,
            "sqrt-gain": math.sqrt(n) - root,
            "sqrt-bound": sqrt_lam - root,
            "full-bound": lam - lam * sym,
        }
        for key, gap in gaps.items():
            worst[key] = min(worst[key], float(np.min(gap)))
    ok = all(w >= 0.0 for w in worst.values())
    detail = ", ".join(f"{k} slack {v:.3e}" for k, v in worst.items())
    assert _verdict(
        ok, "symbol-inequalities", detail + " over n=1..1024 and all 64^2 modes"
    )


def test_lifted_inverse_norm_identity_on_random_fields():
    grid = make_grid(math.pi, math.pi, 64, 64)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        coef = rng.standard_normal(grid.lam.shape) * np.exp(-0.05 * np.sqrt(grid.lam))
        f = field_from_coef(grid, coef)
        lhs = h1_norm(field_from_coef(grid, coef / np.sqrt(grid.lam))) ** 2
        rhs = sobolev_norm(f, 0.0) ** 2 + sobolev_norm(f, -1.0) ** 2
        worst = max(worst, abs(lhs - rhs) / rhs)
    assert _verdict(
        worst < 1e-10,
        "lifted-inverse-identity",
        f"worst relative residual {worst:.3e} on 100 random fields (tol 1e-10)",
    )


def test_splitting_agrees_with_duhamel_fixed_point():
    cfg = RunConfig(T=0.1)
    params = build_params(cfg)
    state0 = build_initial_state(cfg)
    stepped = integrate(state0, cfg.T, params).final_state
    fixed_point = picard_duhamel(state0, cfg.T, params, quad_nodes=256)
    dist = h1_norm(
        field_from_coef(stepped.grid, stepped.u.coef - fixed_point.u.coef)
    )
    # The one bound certifies the stepper against the integral-equation
    # oracle and, read the other way, the oracle against the stepper.
    assert _verdict(
        dist < 1e-6,
        "stepper-vs-duhamel",
        f"H1 distance {dist:.3e} at T=0.1 with 256 quadrature nodes (tol 1e-6)",
    )


def _shooting_reference() -> float:
    """sqrt(2)/||Q||_2 with Q from radial shooting on Q'' + Q'/r = Q - Q^3."""
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        q, p = y
        if r < 1e-12:
            return [p, (q - q**3) / 2.0]
        return [p, -p / r + q - q**3]

    def profile(a):
        return solve_ivp(
            rhs,
            (0.0, 16.0),
            [a, 0.0],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
            max_step=0.05,
        )

    lo, hi = 2.0, 2.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.any(profile(mid).y[0] < 0.0):
            hi = mid  # profile crossed zero: initial height too large
        else:
            lo = mid  # profile turned back up: too small
    sol = profile(0.5 * (lo + hi))
    r = np.linspace(0.0, 16.0, 32001)
    q = sol.sol(r)[0]
    # the bisection-limit profile still diverges eventually; zero it past
    # the point where it has decayed to numerical noise
    if np.any(np.abs(q) < 1e-9):
        q = q.copy()
        q[np.argmax(np.abs(q) < 1e-9) :] = 0.0
    mass = 2.0 * np.pi * np.trapezoid(q**2 * r, r)
    return math.sqrt(2.0) / math.sqrt(mass)


def test_quotient_estimator_matches_radial_shooting():
    oracle = _shooting_reference()
    grid = make_grid(2.0 * math.pi, 2.0 * math.pi, 256, 256)
    estimate = estimate_gn_constant(grid)
    threshold = math.sqrt(2.0) / estimate
    # 2e-5 allowance on the from-below check covers the shooting oracle's
    # own truncation error; the estimator itself approaches from below.
    ok = (
        abs(estimate - oracle) / oracle < 0.02
        and estimate < oracle + 2e-5
        and abs(oracle - 0.4135) / 0.4135 < 0.02
        and abs(threshold - 3.4207) / 3.4207 < 0.02
    )
    assert _verdict(
        ok,
        "sharp-constant",
        f"estimate {estimate:.6f} vs shooting value {oracle:.6f} "
        f"(2% band, from below); smallness threshold {threshold:.4f} vs 3.4207",
    )


@pytest.fixture(scope="module")
def refinement_errors():
    cfg = RunConfig()
    state0 = build_initial_state(cfg)
    dts = (1e-2, 5e-3, 2.5e-3)

    def final(dt):
        params = build_params(cfg, dt=dt)
        return integrate(state0, cfg.T, params).final_state

    reference = final(dts[-1] / 8.0)
    return dts, [difference_metric(final(dt), reference) for dt in dts]


def test_refinement_reaches_second_order_on_average(refinement_errors):
    dts, errors = refinement_errors
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    mean_order = sum(orders) / len(orders)
    assert _verdict(
        mean_order >= 1.9,
        "refinement-mean-order",
        f"mean observed order {mean_order:.3f} over dt {dts} (want >= 1.9)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="at dt=1e-2 the error is dominated by spurious excitation of the "
    "modes with dt*lambda near 2*pi (H1 band error 2.8e-3 against true band "
    "content 1.8e-5); that excess dies off like dt^4, so the observed "
    "orders overshoot to about [4.3, 2.6] at these dt and only settle at "
    "2.0 for finer steps",
)
def test_refinement_orders_sit_in_second_order_window(refinement_errors):
    dts, errors = refinement_errors
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    in_window = all(1.9 <= o <= 2.1 for o in orders)
    _verdict(
        in_window,
        "refinement-order-window",
        "orders " + ", ".join(f"{o:.3f}" for o in orders) + " (window [1.9, 2.1])",
    )
    assert in_window
