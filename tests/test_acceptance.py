"""End-to-end acceptance runs at desk scale.

Each test prints one verdict line ("[PASS] name: measurement") in the same
shape as the CLI assertion output, so `pytest tests/test_acceptance.py -s`
reads as a checklist.  Where the CLI asserts the property, the test reads
the verdict from the same function in `sibsim.experiments` whose Assertion
the CLI prints, at the test's own configuration.  Expect a few minutes of
wall time for the module.

Two clauses are out of reach for this scheme at the stated parameters; they
are kept as strict xfails with the measured numbers in the reason string
instead of being loosened, so they flip the suite red if they ever start
passing silently.
"""

import math

import numpy as np
import pytest

from sibsim.config import RunConfig, build_initial_state, build_params
from sibsim.dynamics import integrate, picard_duhamel
from sibsim.experiments import (
    _energy_drift,
    _eps_sweep,
    _n_sweep,
    _order_test,
    _series_assertions,
    _start,
)
from sibsim.functionals import cauchy_metric, estimate_gn_constant
from sibsim.grids import field_from_coef, h1_norm, make_grid


def _verdict(ok: bool, name: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _passed(context: str, *assertions) -> bool:
    """Print each assertion's CLI line with the run it came from; whether
    all of them passed."""
    for a in assertions:
        print(f"{a.line()} [{context}]")
    return all(a.passed for a in assertions)


def _all_passed(runs: dict, name: str, context: str) -> bool:
    """_passed for the assertion `name` of every run, keyed by eps."""
    return all([_passed(f"eps={eps:g}, {context}", runs[eps][name]) for eps in runs])


def _monitored_run(cfg: RunConfig):
    """integrate() with a diagnostics row every monitor_stride steps, as
    `sibsim run` does: the series and its assertions by name."""
    params = build_params(cfg)
    state0, monitor = _start(cfg, params)
    series = integrate(state0, cfg.T, params, cfg.monitor_stride, monitor).series
    return series, {a.name: a for a in _series_assertions(series, params.eps, monitor)}


@pytest.fixture(scope="module")
def default_run():
    """The monitored default run (eps = 1, dt = 1e-3, T = 1), shared by the
    charge, the energy-drift and the final-row tests."""
    return _monitored_run(RunConfig())


def test_charge_is_conserved_for_each_dispersion_weight(default_run):
    runs = {eps: _monitored_run(RunConfig(eps=eps))[1] for eps in (0.0, 0.5)}
    runs[1.0] = default_run[1]
    assert _all_passed(runs, "charge-conservation", "1000 steps")


def test_energy_drift_is_second_order_in_dt(default_run):
    drift = {1e-3: _energy_drift(default_run[0])}
    drift[5e-4] = _energy_drift(_monitored_run(RunConfig(dt=5e-4))[0])
    ratio = drift[1e-3] / drift[5e-4]
    ok = drift[1e-3] < 1e-5 and 3.5 <= ratio <= 4.5
    assert _verdict(
        ok,
        "energy-drift",
        f"relative drift {drift[1e-3]:.3e} at dt=1e-3 (tol 1e-5), "
        f"halving ratio {ratio:.3f} (want [3.5, 4.5])",
    )


# The last series.csv row of the default run before the nodal products moved
# to real and imaginary planes and the nodal phase to Taylor polynomials,
# which moved the default series.csv by at most 1.6e-14 relative.
DEFAULT_FINAL_ROW = {
    "t": 1.0,
    "charge": 2.4674011002731215,
    "energy_eps": 7.9462808028287419,
    "h1_u": 2.7227248227924989,
    "l2_v": 0.73365121822504054,
    "l2_vt": 1.6187136445285082,
    "hm_half_vt": 1.1349793293924957,
    "gn_quotient": 0.33447658134624275,
}


def test_default_run_final_row_is_unchanged_to_round_off(default_run):
    final = {name: float(values[-1]) for name, values in default_run[0].items()}
    assert final.keys() == DEFAULT_FINAL_ROW.keys()
    worst = max(abs(final[k] - v) / abs(v) for k, v in DEFAULT_FINAL_ROW.items())
    assert _verdict(worst <= 1e-12, "default-final-row", f"largest relative move {worst:.1e}, tol 1e-12")


def test_growth_envelope_dominates_h1_quantity_on_long_run():
    _, verdicts = _monitored_run(RunConfig(T=5.0))
    assert _passed("eps=1, T=5", verdicts["h1-envelope-domination"])


@pytest.fixture(scope="module")
def small_eps_family():
    """The assertions of default-data runs over T = 5 for eps 0.1 down to
    0.0125, keyed by eps, shared by the small-data and the H1 envelope
    tests."""
    return {eps: _monitored_run(RunConfig(T=5.0, eps=eps))[1] for eps in (0.1, 0.05, 0.025, 0.0125)}


def test_uniform_bound_holds_for_small_eps_family(small_eps_family):
    # every member starts from the default data, so they share one C6
    assert _all_passed(small_eps_family, "small-data-envelope", "T=5")


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
    assert _all_passed(small_eps_family, "h1-envelope-domination", "T=5")


def test_distance_to_limit_system_decreases_with_eps():
    _, reports, assertions = _eps_sweep(RunConfig())
    sups = ", ".join(f"{s:.4f}" for s in reports["sup_metric"])
    context = f"sups {sups} for eps {tuple(reports['eps'])}; slope {reports['fitted_slope']:.2f}"
    assert _passed(context, *assertions)


@pytest.fixture(scope="module")
def half_time_n_sweep():
    """_n_sweep at T = 0.5 over n = 8, 16, 32, 64.  Its unregularized run is
    also the plain run of the heavy regularization test."""
    return _n_sweep(RunConfig(T=0.5))


def test_regularized_runs_form_cauchy_sequence_in_n(half_time_n_sweep):
    _, _, reports, assertions = half_time_n_sweep
    diffs = ", ".join(f"{d:.3e}" for d in reports["diff_consecutive"])
    assert _passed(f"consecutive distances {diffs} for n = 8, 16, 32, 64 at t=0.5", *assertions)


@pytest.mark.xfail(
    strict=True,
    reason="the n-regularized run approaches the plain run only down to a "
    "quadrature floor: its nonlinearities are band-projected while the "
    "plain stepper samples them on the nodes, leaving 3.3e-5 at n=2**20 "
    "and 2.5e-5 at n=2**24 on the 64^2 grid; even without that floor the "
    "J-induced part decays like 9/n and would need n near 2**30 to reach "
    "1e-8, so the stated n is kept rather than loosened",
)
def test_heavily_regularized_run_matches_plain_run(half_time_n_sweep):
    cfg = RunConfig(T=0.5)
    plain = half_time_n_sweep[1]
    heavy = integrate(build_initial_state(cfg), cfg.T, build_params(cfg, yosida_n=2**20))
    dist = cauchy_metric(heavy.final_state, plain)
    _verdict(
        dist < 1e-8,
        "large-n-agreement",
        f"H1+L2+L2 distance {dist:.3e} at t=0.5 for n=2**20 (tol 1e-8)",
    )
    assert dist < 1e-8


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
def refinement():
    """_order_test's reports and assertion for the default run and dts."""
    return _order_test(RunConfig())


def test_refinement_reaches_second_order_on_average(refinement):
    reports, assertions = refinement
    [mean_order] = assertions
    assert _passed(f"dt {tuple(reports['dt'])}", mean_order)


@pytest.mark.xfail(
    strict=True,
    reason="at dt=1e-2 the error is dominated by spurious excitation of the "
    "modes with dt*lambda near 2*pi (H1 band error 2.8e-3 against true band "
    "content 1.8e-5); that excess dies off like dt^4, so the observed "
    "orders overshoot to about [4.3, 2.6] at these dt and only settle at "
    "2.0 for finer steps",
)
def test_refinement_orders_sit_in_second_order_window(refinement):
    orders = refinement[0]["orders"]
    in_window = all(1.9 <= o <= 2.1 for o in orders)
    _verdict(
        in_window,
        "refinement-order-window",
        "orders " + ", ".join(f"{o:.3f}" for o in orders) + " (window [1.9, 2.1])",
    )
    assert in_window
