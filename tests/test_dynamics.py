"""Stepping kernels: exactness of the substeps, conservation, convergence
order, reversibility, blow-up detection, and the Picard-Duhamel oracle."""

import re
import tracemalloc
from dataclasses import replace
from math import ceil

import numpy as np
import pytest

from conftest import breaking_step, count_transforms, random_field
from sibsim import dynamics
from sibsim.config import RunConfig, build_initial_state, build_params
from sibsim.dynamics import (
    BlowupError,
    PicardDivergenceError,
    PotentialFlowError,
    SystemParams,
    integrate,
    make_state,
    picard_duhamel,
    prepare_initial_state,
)
from sibsim.experiments import _order_test
from sibsim.functionals import RunMonitor, charge, difference_metric
from sibsim.grids import (
    analyze,
    coef_product,
    coef_to_values,
    field_from_coef,
    intensity_coef,
    make_grid,
    values_to_coef,
)


def standard_state(N: int, scale: float = 1.0):
    """phi = psi0 = scale * sin(x) sin(y), psi1 = 0 on (0, pi)^2."""
    g = make_grid(np.pi, np.pi, N, N)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    s = scale * np.sin(X) * np.sin(Y)
    return make_state(
        analyze(g, s.astype(complex)),
        analyze(g, s),
        analyze(g, np.zeros_like(s)),
    )


def mode_state(N: int, u_amp=0.0, v_amp=0.0, vt_amp=0.0):
    """State with only the (1, 1) mode populated."""
    g = make_grid(np.pi, np.pi, N, N)
    def one(amp, dtype=float):
        c = np.zeros((N, N), dtype=dtype)
        c[0, 0] = amp
        return field_from_coef(g, c)
    return make_state(one(u_amp, complex), one(v_amp), one(vt_amp))


def zeros(grid, dtype=float):
    return field_from_coef(grid, np.zeros(grid.shape, dtype=dtype))


@pytest.fixture
def decoupled(monkeypatch):
    """Kernels with the nonlinear coupling removed: both subflows are then
    the free flows, which the splitting and the oracle must reproduce."""
    monkeypatch.setattr(
        dynamics._Kernels, "wave_source", lambda self, u: np.zeros(self.grid.shape)
    )
    monkeypatch.setattr(
        dynamics._Kernels,
        "coupled_product",
        lambda self, v, u: np.zeros(self.grid.shape, dtype=u.dtype),
    )
    monkeypatch.setattr(dynamics._Kernels, "potential_flow", lambda self, u, v: u)


def kernel(grid, dt: float, **params) -> dynamics._Kernels:
    """The stepping kernel for a step of dt; its wave_half is the exact wave
    flow over dt/2."""
    return dynamics._Kernels(grid, SystemParams(**params), dt)


def schrodinger_flow(ker, u, v):
    """The Schrodinger part of ker.step, v frozen: free half step, potential
    flow over dt, free half step."""
    return ker.phase_half * ker.potential_flow(ker.phase_half * u, v)


# ---------------------------------------------------------------------------
# parameter and state validation


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(eps=1.5)
    # dt = inf used to pass and then abort the first step as a blow-up
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"dt must be positive.*got {dt}"):
            SystemParams(dt=dt)
    with pytest.raises(ValueError):
        SystemParams(yosida_n=0.5)


def test_make_state_validation():
    g = make_grid(np.pi, np.pi, 4, 4)
    u = zeros(g, complex)
    v = zeros(g)
    with pytest.raises(ValueError):
        make_state(u, zeros(g, complex), v)
    other = make_grid(np.pi, np.pi, 6, 6)
    with pytest.raises(ValueError):
        make_state(u, v, zeros(other))


def test_prepare_initial_state():
    st = standard_state(8)
    params = SystemParams(yosida_n=4.0)
    smoothed = prepare_initial_state(st, params)
    j = 1.0 / (1.0 + st.grid.lam / 4.0)
    assert np.allclose(smoothed.u.coef, j * st.u.coef, rtol=0, atol=1e-16)
    assert np.allclose(smoothed.v.coef, j * st.v.coef, rtol=0, atol=1e-16)
    assert prepare_initial_state(st, SystemParams()) is st


# ---------------------------------------------------------------------------
# wave substep: the kernel's half step


def test_wave_substep_zero_dt_is_identity():
    st = standard_state(8)
    g = st.grid
    f = intensity_coef(g, st.u.coef)
    v1, vt1 = kernel(g, 0.0, eps=1.0).wave_half(st.v.coef, st.vt.coef, f)
    # v passes through (v + f) - f, so identity holds to round-off only
    assert np.max(np.abs(v1 - st.v.coef)) < 1e-15
    assert np.array_equal(vt1, st.vt.coef)


def test_wave_substep_single_mode_cosine():
    # v'' = -omega^2 v with omega = sqrt(2/3) at eps = 1, lam = 2
    st = mode_state(8, v_amp=1.0)
    t = 0.7
    ker = kernel(st.grid, 2 * t, eps=1.0)
    v1, vt1 = ker.wave_half(st.v.coef, st.vt.coef, np.zeros(st.grid.shape))
    w = np.sqrt(2.0 / 3.0)
    assert v1[0, 0] == pytest.approx(np.cos(w * t), rel=1e-14)
    assert vt1[0, 0] == pytest.approx(-w * np.sin(w * t), rel=1e-14)
    rest = np.abs(v1) + np.abs(vt1)
    rest[0, 0] = 0.0
    assert np.max(rest) == 0.0


def test_wave_substep_per_mode_invariant():
    # omega^2 |v + f|^2 + |vt|^2 is conserved mode by mode for frozen f
    rng = np.random.default_rng(12)
    g = make_grid(np.pi, np.pi, 12, 12)
    for eps in (0.0, 0.5, 1.0):
        w2 = g.lam / (1.0 + eps * g.lam)
        v, vt, f = (rng.standard_normal(g.shape) for _ in range(3))
        before = w2 * (v + f) ** 2 + vt**2
        v1, vt1 = kernel(g, 2 * 0.31, eps=eps).wave_half(v, vt, f)
        after = w2 * (v1 + f) ** 2 + vt1**2
        assert np.max(np.abs(after - before) / before) < 1e-12


# ---------------------------------------------------------------------------
# Schrodinger substep and full step


def test_dudt_matches_one_sided_difference():
    # (4 u(h) - u(2h) - 3 u(0)) / (2h) approximates du/dt = i(-lam u - P(v, u))
    # to second order.  Differenced on the Duhamel oracle, which forms
    # P(v, u) with the same coupled_product; the splitting would leave an
    # h-independent aliasing bias instead.
    # Measured error 4.9e-5 at h = 1e-3 with a clean factor-4 decay.
    st = standard_state(16)
    params = SystemParams(eps=1.0)
    u0 = st.u.coef.astype(np.complex128)
    p = dynamics._Kernels(st.grid, params, None).coupled_product(st.v.coef, u0)
    exact = 1j * (-st.grid.lam * u0 - p)

    def fd_error(h):
        u1 = picard_duhamel(st, h, params).u.coef
        u2 = picard_duhamel(st, 2 * h, params).u.coef
        fd = (4.0 * u1 - u2 - 3.0 * st.u.coef) / (2.0 * h)
        return float(np.sqrt(np.sum(np.abs(fd - exact) ** 2)))

    e1 = fd_error(1e-3)
    e2 = fd_error(5e-4)
    assert e1 < 1e-4
    assert 3.5 < e1 / e2 < 4.5


def test_charge_conserved_per_step():
    # Both potential flows are unitary: the plain one is a unimodular
    # multiply on the nodes, the Taylor one the exponential of an in-band
    # self-adjoint generator.  Nothing but round-off accumulates.
    st = standard_state(16)
    c0 = charge(st)
    cases = (
        (SystemParams(eps=0.5, dt=1e-3), 1e-13),
        (SystemParams(eps=1.0, dt=1e-3, yosida_n=16.0), 1e-13),
    )
    for params, bound in cases:
        ker = dynamics._Kernels(st.grid, params, params.dt)
        u, v, vt = st.u.coef, st.v.coef, st.vt.coef
        for _ in range(20):
            u, v, vt = ker.step(u, v, vt)
            assert abs(np.sum(np.abs(u) ** 2) - c0) / c0 < bound


def test_taylor_potential_flow_matches_unregularized_for_large_n():
    # At n = 1e12 the Yosida factors are numerically the identity, so what
    # remains is the gap between the nodal phase and the exponential of the
    # band-projected multiplier; it scales with dt (measured 2.11e-5 at
    # dt = 1e-2 on N = 8 and 2.11e-6 at dt = 1e-3)
    st = standard_state(8)
    u, v = st.u.coef, st.v.coef
    for dt, bound in ((1e-2, 1e-4), (1e-3, 1e-5)):
        plain = schrodinger_flow(kernel(st.grid, dt), u, v)
        smoothed = schrodinger_flow(kernel(st.grid, dt, yosida_n=1e12), u, v)
        assert np.max(np.abs(plain - smoothed)) < bound


def test_yosida_potential_flow_fails_loudly_when_too_long():
    # |J v| dt ~ 8e3 with v scaled by 2e5: the flow would need that many
    # substeps of h |J v| <= 1, more than its budget, so it refuses the
    # step and names the bound.  Scaled by 1e150, the exact count has 150
    # digits; the message gives it to four digits, as it gives beta
    st = standard_state(16)
    ker = kernel(st.grid, 0.05, eps=1.0, yosida_n=8.0)
    for scale in (2e5, 1e150):
        with pytest.raises(PotentialFlowError) as err:
            schrodinger_flow(ker, st.u.coef, scale * st.v.coef)
        assert err.value.substeps > dynamics._MAX_SUBSTEPS
        assert err.value.substeps == ceil(err.value.beta)
        message = str(err.value)
        assert "potential flow" in message and "beta" in message
        assert max(len(digits) for digits in re.findall(r"\d+", message)) <= 17


def _taylor_reference(ker, u, v):
    """The regularized potential flow as Taylor sums of padded products,
    each re-synthesizing J v, over ceil(beta) substeps, beta = |dt| max|J v|;
    a substep stops after term k once ||term_k|| r / (1 - r) <= 1e-17 ||u||,
    r = |h| max|J v| / (k + 1).  Returns the flow and its term count."""
    jv = ker.jsym * v
    jv_max = np.max(np.abs(coef_to_values(ker.grid, jv, ker.prod_shape)))
    substeps = max(1, ceil(abs(ker.dt) * jv_max))
    h = ker.dt / substeps
    norm0 = np.linalg.norm(u)
    out, terms = u, 0
    for _ in range(substeps):
        term, out = out, out.copy()
        tnorm, k = norm0, 0
        while True:
            r = abs(h) * jv_max / (k + 1)
            if r < 1 and tnorm * r / (1 - r) <= 1e-17 * norm0:
                break
            k += 1
            term = (-1j * h / k) * ker.jsym * coef_product(
                ker.grid, jv, ker.jsym * term, ker.prod_shape
            )
            out += term
            tnorm = np.linalg.norm(term)
        terms += k
    return out, terms


def yosida_case(dealias: bool):
    g = make_grid(np.pi, np.pi, 16, 16)
    rng = np.random.default_rng(5)
    st = make_state(
        random_field(g, rng, kind="complex"), random_field(g, rng), random_field(g, rng)
    )
    params = SystemParams(eps=1.0, dt=0.02, yosida_n=8.0, dealias=dealias)
    return st, dynamics._Kernels(g, params, params.dt)


@pytest.mark.parametrize("dealias", [True, False], ids=["padded", "nodal"])
def test_yosida_potential_flow_is_the_padded_product_taylor_sum(dealias):
    st, ker = yosida_case(dealias)
    ref, terms = _taylor_reference(ker, st.u.coef, st.v.coef)
    assert terms >= 4
    assert np.array_equal(ker.potential_flow(st.u.coef, st.v.coef), ref)


@pytest.mark.parametrize("dealias", [True, False], ids=["padded", "nodal"])
def test_yosida_step_makes_2k_plus_5_transforms(monkeypatch, dealias):
    # two wave sources of 2 transforms each, J v once, 2 per Taylor term
    st, ker = yosida_case(dealias)
    u, v, vt = st.u.coef, st.v.coef, st.vt.coef
    v1, _ = ker.wave_half(v, vt, ker.wave_source(u))
    _, terms = _taylor_reference(ker, ker.phase_half * u, v1)
    counts = count_transforms(monkeypatch)
    ker.step(u, v, vt)
    assert counts == {ker.prod_shape: 2 * terms + 5}


def test_nodal_step_makes_7_band_transforms(monkeypatch):
    # the default preset, unregularized: two wave sources of 2 transforms
    # each and the nodal potential phase of 3, all on the collocation nodes
    cfg = RunConfig()
    params = build_params(cfg)
    st = build_initial_state(cfg)
    ker = dynamics._Kernels(st.grid, params, params.dt)
    counts = count_transforms(monkeypatch)
    ker.step(st.u.coef, st.v.coef, st.vt.coef)
    assert counts == {st.grid.shape: 7}


def test_default_yosida_step_makes_13_padded_transforms(monkeypatch):
    # the default preset at n = 8 (64^2, dt = 1e-3): the bound proves the
    # tail negligible after 4 Taylor terms, so 2*4 + 5 padded transforms
    cfg = RunConfig()
    params = build_params(cfg, yosida_n=8)
    st = prepare_initial_state(build_initial_state(cfg), params)
    ker = dynamics._Kernels(st.grid, params, params.dt)
    counts = count_transforms(monkeypatch)
    ker.step(st.u.coef, st.v.coef, st.vt.coef)
    assert counts == {ker.prod_shape: 2 * 4 + 5}


def _dense_generator(ker, v):
    """H = J (Jv * J .) as a dense real matrix on the flattened band, and
    max |J v| over the product nodes."""
    grid = ker.grid
    jv = coef_to_values(grid, ker.jsym * v, ker.prod_shape)
    cols = []
    for e in np.eye(grid.Nx * grid.Ny):
        je = coef_to_values(grid, ker.jsym * e.reshape(grid.shape), ker.prod_shape)
        cols.append((ker.jsym * values_to_coef(grid, jv * je)).ravel())
    return np.array(cols).T, float(np.max(np.abs(jv)))


def generator_case(dealias: bool):
    g = make_grid(np.pi, 2.0, 8, 6)
    rng = np.random.default_rng(11)
    u = random_field(g, rng, kind="complex").coef
    v = 40.0 * random_field(g, rng).coef
    params = SystemParams(dt=1.0, yosida_n=4.0, dealias=dealias)
    return u, v, dynamics._Kernels(g, params, params.dt)


@pytest.mark.parametrize("dealias", [True, False], ids=["padded", "nodal"])
def test_yosida_generator_is_symmetric_and_bounded_by_max_jv(dealias):
    # scaled synthesis is an isometry from the band, truncated analysis its
    # adjoint, 0 < J <= 1: H is symmetric and ||H||_2 <= max |J v|
    _, v, ker = generator_case(dealias)
    H, jv_max = _dense_generator(ker, v)
    assert np.max(np.abs(H - H.T)) <= 1e-15
    assert np.linalg.norm(H, 2) <= jv_max


@pytest.mark.parametrize("dealias", [True, False], ids=["padded", "nodal"])
def test_substepped_yosida_flow_matches_the_dense_exponential(dealias):
    from scipy.linalg import expm

    u, v, ker = generator_case(dealias)
    H, jv_max = _dense_generator(ker, v)
    dt = 2.9 / jv_max  # beta = 2.9: three substeps
    ker = dynamics._Kernels(ker.grid, replace(ker.params, dt=dt), dt)
    assert ceil(dt * jv_max) == 3
    exact = (expm(-1j * dt * H) @ u.ravel()).reshape(u.shape)
    flowed = ker.potential_flow(u, v)
    norm0 = np.linalg.norm(u)
    assert np.linalg.norm(flowed - exact) <= 1e-13 * norm0
    assert abs(np.linalg.norm(flowed) - norm0) <= 1e-14 * norm0


def test_nodal_step_kernels_equal_their_written_out_formulas():
    # wave_half accumulates in place and the nodal phase is written as
    # cos + i sin; both must equal the plain expressions bit for bit and
    # leave their inputs alone
    g = make_grid(np.pi, 2.0, 12, 10)
    rng = np.random.default_rng(9)
    u = random_field(g, rng, kind="complex").coef
    v, vt, f = (random_field(g, rng).coef for _ in range(3))
    inputs = [a.copy() for a in (u, v, vt, f)]
    ker = dynamics._Kernels(g, SystemParams(eps=0.5, dt=3e-2), 3e-2)
    v1, vt1 = ker.wave_half(v, vt, f)
    z = v + f
    assert np.array_equal(v1, ker.cos_half * z + ker.sinc_half * vt - f)
    assert np.array_equal(vt1, -ker.wsin_half * z + ker.cos_half * vt)
    vv, uu = coef_to_values(g, v), coef_to_values(g, u)
    phase = values_to_coef(g, np.exp(-1j * ker.dt * vv) * uu)
    assert np.array_equal(ker.potential_flow(u, v), phase)
    for before, after in zip(inputs, (u, v, vt, f)):
        assert np.array_equal(before, after)


def test_strang_step_equals_manual_substep_composition():
    # _Kernels.step is half wave, Schrodinger with v at the half step, half
    # wave with the source refreshed from the new u
    st = standard_state(16)
    g = st.grid
    ker = kernel(g, 1e-2, eps=0.5)
    u, v, vt = st.u.coef, st.v.coef, st.vt.coef
    v1, vt1 = ker.wave_half(v, vt, intensity_coef(g, u))
    u1 = schrodinger_flow(ker, u, v1)
    v2, vt2 = ker.wave_half(v1, vt1, intensity_coef(g, u1))
    via = ker.step(u, v, vt)
    assert np.array_equal(u1, via[0])
    assert np.array_equal(v2, via[1])
    assert np.array_equal(vt2, via[2])


def test_substep_composition_is_reversible():
    # every substep is an exact flow (rotation, free phase, unimodular
    # multiply), and a step is symmetric, so a step of -dt undoes a step of
    # dt to round-off
    st = standard_state(16)
    g = st.grid
    eps, dt = 0.5, 1e-2
    forward = kernel(g, dt, eps=eps).step(st.u.coef, st.v.coef, st.vt.coef)
    ub, vb0, vtb0 = kernel(g, -dt, eps=eps).step(*forward)
    assert np.max(np.abs(ub - st.u.coef)) < 1e-13
    assert np.max(np.abs(vb0 - st.v.coef)) < 1e-13
    assert np.max(np.abs(vtb0 - st.vt.coef)) < 1e-14


def test_self_convergence_is_second_order():
    # order-test's errors against dt_min / 8 = 1/2048, on 16^2 to T = 1:
    # every halving divides them by 3.5 to 4.6
    reports, _ = _order_test(RunConfig(nx=16, ny=16, dt_list=(1 / 64, 1 / 128, 1 / 256)))
    assert all(np.log2(3.5) < order < np.log2(4.6) for order in reports["orders"])


def test_decoupled_flow_is_exact(decoupled):
    st = standard_state(12)
    eps, T = 0.5, 0.3
    rec = integrate(st, T, SystemParams(eps=eps, dt=0.05))
    g = st.grid
    u_exact = np.exp(-1j * g.lam * T) * st.u.coef
    w = np.sqrt(g.lam / (1.0 + eps * g.lam))
    v_exact = np.cos(w * T) * st.v.coef + np.sin(w * T) / w * st.vt.coef
    vt_exact = -w * np.sin(w * T) * st.v.coef + np.cos(w * T) * st.vt.coef
    assert np.max(np.abs(rec.final_state.u.coef - u_exact)) < 1e-12
    assert np.max(np.abs(rec.final_state.v.coef - v_exact)) < 1e-12
    assert np.max(np.abs(rec.final_state.vt.coef - vt_exact)) < 1e-12


def test_zero_data_stays_zero():
    g = make_grid(np.pi, np.pi, 8, 8)
    st = make_state(zeros(g, complex), zeros(g), zeros(g))
    rec = integrate(st, 0.1, SystemParams(eps=1.0, dt=1e-2), monitor=RunMonitor.from_state(st))
    assert np.max(np.abs(rec.final_state.u.coef)) == 0.0
    assert np.max(np.abs(rec.final_state.v.coef)) == 0.0
    assert np.all(rec.series["charge"] == 0.0)
    assert np.all(rec.series["gn_quotient"] == 0.0)


# ---------------------------------------------------------------------------
# integrate bookkeeping


def test_integrate_validation():
    st = standard_state(8)
    # a horizon that is not finite is named, not an integer conversion error
    for T in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"horizon T must be positive.*got {T}"):
            integrate(st, T, SystemParams())
    with pytest.raises(ValueError):
        integrate(st, 1.0, SystemParams(), monitor_stride=0)


def test_final_step_is_shortened():
    st = standard_state(8)
    monitor = RunMonitor.from_state(st)
    rec = integrate(st, 0.55, SystemParams(eps=1.0, dt=0.1), monitor_stride=1, monitor=monitor)
    times = rec.series["t"]
    assert times[-1] == 0.55
    assert rec.final_state.t == 0.55
    assert len(times) == 7  # t0, five full steps, one short step
    assert np.allclose(times[:-1], np.arange(6) * 0.1, atol=1e-12)


def test_checkpoints_returned_at_requested_times():
    st = standard_state(8)
    rec = integrate(
        st,
        0.1,
        SystemParams(eps=1.0, dt=1e-2),
        checkpoint_times=(0.0, 0.05, 0.1),
    )
    assert sorted(rec.checkpoints) == [0.0, 0.05, 0.1]
    # without a monitor no diagnostics row is kept
    assert rec.series == {}
    assert np.array_equal(rec.checkpoints[0.0].u.coef, st.u.coef)
    for t_req, snap in rec.checkpoints.items():
        assert abs(snap.t - t_req) <= 1e-2 + 1e-12


def test_blowup_detected(monkeypatch):
    # the first step leaves v non-finite in one mode; with a row at every
    # step, the check of the kept state names v before a row is evaluated
    breaking_step(monkeypatch, 1, ("v",))
    st = standard_state(8)
    monitor = RunMonitor.from_state(st)
    with pytest.raises(BlowupError) as err:
        integrate(st, 0.01, SystemParams(eps=1.0, dt=1e-3), monitor_stride=1, monitor=monitor)
    assert err.value.t_last == 0.0
    assert (err.value.step, err.value.quantity) == (1, "v")
    assert "non-finite v at step 1" in str(err.value)


def test_blowup_detected_on_kept_states(monkeypatch):
    # the last step leaves u[0, 0] finite and vt non-finite in one mode:
    # only the check on the final state sees it, and the last state seen
    # finite is the checkpoint at 0.05
    calls = breaking_step(monkeypatch, 10, ("vt",))
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=1e-2)
    with pytest.raises(BlowupError) as err:
        integrate(st, 0.1, params, checkpoint_times=(0.0, 0.05))
    assert err.value.t_last == pytest.approx(0.05)
    assert (err.value.step, err.value.quantity) == (10, "vt")
    # with a row at every step, the last state seen finite is the ninth
    calls.clear()
    with pytest.raises(BlowupError) as err:
        integrate(st, 0.1, params, monitor_stride=1, monitor=RunMonitor.from_state(st))
    assert err.value.t_last == pytest.approx(0.09)
    assert (err.value.step, err.value.quantity) == (10, "vt")


@pytest.mark.parametrize(
    "at_call, names, seen",
    [
        (5, ("u", "vt"), (5, "u")),
        (5, ("v", "vt"), (5, "v")),
        # v drives the next step's potential phase, which leaves every
        # mode of u NaN; the check after each step sees u[0, 0]
        (3, ("v",), (4, "u")),
    ],
)
def test_blowup_names_the_step_and_first_non_finite_component(
    monkeypatch, at_call, names, seen
):
    breaking_step(monkeypatch, at_call, names)
    st = standard_state(8)
    with pytest.raises(BlowupError) as err:
        integrate(st, 0.05, SystemParams(eps=1.0, dt=1e-2))
    assert (err.value.step, err.value.quantity) == seen
    assert err.value.t_last == 0.0


# ---------------------------------------------------------------------------
# Picard-Duhamel oracle


def test_picard_validation():
    st = standard_state(8)
    with pytest.raises(ValueError, match="quad_nodes must be >= 2, got 1"):
        picard_duhamel(st, 0.1, SystemParams(), quad_nodes=1)
    # each bad argument is named, and none is reported as a numerical abort
    # (tol = nan read as "residual 0.000e+00" after max_iter sweeps;
    # max_iter = True as a PicardDivergenceError "after True iterations";
    # quad_nodes = 16.0 as numpy's "deg must be an integer")
    for name, bad in [
        ("quad_nodes", 16.0), ("quad_nodes", True), ("max_iter", True), ("max_iter", 2.0)
    ]:
        with pytest.raises(ValueError, match=rf"{name} must be an integer, got {bad!r}"):
            picard_duhamel(st, 0.02, SystemParams(), **{name: bad})
    for T in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"horizon T must be positive.*got {T}"):
            picard_duhamel(st, T, SystemParams())
    for tol in (0.0, -1e-11, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"tol must be positive.*got {tol}"):
            picard_duhamel(st, 0.02, SystemParams(), tol=tol)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        picard_duhamel(st, 0.02, SystemParams(), max_iter=0)


def test_picard_residuals_contract():
    # at the default tol the panel stops after 2 sweeps, on its contraction
    # estimate; tol = 1e-14 shows the contraction over 4 (measured down to
    # 3.5e-14)
    st = standard_state(8)
    log = []
    picard_duhamel(
        st, 0.02, SystemParams(eps=1.0, dt=1.0), quad_nodes=12, tol=1e-14, residual_log=log
    )
    assert len(log) >= 4
    for a, b in zip(log, log[1:]):
        assert b < a


def test_picard_predictor_is_fourth_order():
    # A panel's first residual is the distance of the predictor from the
    # first sweep, so it scales with the predictor's error: h^4 for the
    # three-point exponential predictor (measured ratio 16.02 on halving
    # h), where exponential Euler gives h^2 (4.00)
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=1.0)
    first = []
    for T in (0.01, 0.02):
        log = []
        picard_duhamel(st, T, params, quad_nodes=12, residual_log=log)
        first.append(log[0])
    assert 15 < first[1] / first[0] < 17


def test_picard_divergence_error():
    st = replace(standard_state(8), t=0.3)
    params = SystemParams(eps=1.0, dt=1.0)
    with pytest.raises(PicardDivergenceError) as err:
        picard_duhamel(st, 0.02, params, tol=1e-30, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.residual > 0
    # the first panel fails, and it starts at the state's time
    assert err.value.panel == 0
    assert err.value.t_start == 0.3
    assert "panel 0" in str(err.value) and "t = 0.3" in str(err.value)
    # the panel's measured rate, the largest of its two residual ratios
    theta = err.value.contraction
    assert 0 < theta < 0.5
    assert f"measured contraction {theta:.3e}" in str(err.value)
    # one sweep measures no rate
    with pytest.raises(PicardDivergenceError) as err:
        picard_duhamel(st, 0.02, params, tol=1e-30, max_iter=1)
    assert err.value.contraction is None
    assert str(err.value).endswith("after 1 iterations, no contraction measured after one sweep")


@pytest.mark.parametrize(
    "residuals, stops",
    [
        ([5e-12], True),
        ([2e-11], False),
        # theta = 0.01: the estimate 1e-10 * 0.01 / 0.99 = 1.0e-12
        ([1e-6, 1e-8, 1e-10], True),
        # the last ratio 3.3e-5 alone would stop; the first, 0.6, is the
        # panel's rate, and at theta >= 1/2 only r_k < tol stops
        ([1e-6, 6e-7, 2e-11], False),
    ],
)
def test_picard_stops_on_the_measured_contraction(residuals, stops):
    assert dynamics._panel_converged(residuals, 1e-11) is stops


def test_picard_contraction_estimate_bounds_the_fixed_point_distance():
    # The default tol stops the panel on the estimate r_k theta/(1 - theta)
    # while r_k itself is still above tol, and the end state is within tol
    # of a run at tol = 1e-14 (measured 6.9e-12)
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=1.0)
    log = []
    pic = picard_duhamel(st, 0.02, params, quad_nodes=12, residual_log=log)
    assert log[-1] >= 1e-11
    tight = picard_duhamel(st, 0.02, params, quad_nodes=12, tol=1e-14)
    assert difference_metric(pic, tight) < 1e-11


def test_picard_matches_splitting_on_small_case():
    # with the Yosida index set both solvers evaluate the identical
    # projected nonlinearity, so the distance is pure time-discretization
    # error (measured 4.6e-11); the unregularized cross-check at production
    # resolution lives in the acceptance suite
    # 10 grid rows leave a last grid-row block that is not full
    st = standard_state(10)
    params = SystemParams(eps=1.0, dt=2e-5, yosida_n=16.0)
    fine = integrate(st, 0.05, params).final_state
    assert st.grid.Nx % dynamics._GRID_ROWS != 0
    for quad_nodes in (12, 17):
        pic = picard_duhamel(
            st, 0.05, SystemParams(eps=1.0, dt=1.0, yosida_n=16.0), quad_nodes=quad_nodes
        )
        assert difference_metric(pic, fine) < 1e-9


def gauss_nodes(P: int, h: float) -> np.ndarray:
    """The P Gauss-Legendre nodes on (0, h)."""
    return (np.polynomial.legendre.leggauss(P)[0] + 1.0) * 0.5 * h


@pytest.mark.parametrize("P", [8, 16, 17, 32, 128])
def test_integration_weights_integrate_monomials_exactly(P):
    # W integrates every polynomial of degree < P on P nodes exactly from 0
    # to each target; on a panel (0, h), t^k for k < P against
    # h t^(k+1) / (k+1) in units of h.  The targets are the nodes
    # themselves, and, as for the coarse level of a Picard panel, 128 fine
    # nodes and the panel end h (measured worst 2.4e-15 relative).
    h = 0.025
    nodes = gauss_nodes(P, h)
    for targets in (nodes, np.append(gauss_nodes(128, h), h)):
        W = dynamics._integration_weights(nodes, targets)
        assert W.shape == (len(targets), P)
        x, y = nodes / h, targets / h
        for k in range(P):
            exact = h * y ** (k + 1) / (k + 1)
            err = np.max(np.abs(W @ x**k - exact))
            assert err <= 1e-12 * np.max(np.abs(exact)), (len(targets), k, err)


@pytest.mark.parametrize("dtype", [float, complex])
def test_weighted_node_sums_match_the_node_loop(dtype):
    # the stacked quadrature sums against the per-node loop they replace;
    # only the summation order differs
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((17, 6, 5)).astype(dtype)
    if dtype is complex:
        stack += 1j * rng.standard_normal(stack.shape)
    W = rng.standard_normal((5, 17))
    got = dynamics._weighted_sum(W, stack)
    loop = np.array([sum(W[i, j] * stack[j] for j in range(17)) for i in range(5)])
    assert got.dtype == stack.dtype and got.shape == (5, 6, 5)
    assert np.max(np.abs(got - loop)) < 1e-13
    assert np.allclose(dynamics._weighted_sum(W[0], stack), loop[0], rtol=0, atol=1e-13)


def free_flow(st, eps, s):
    """The uncoupled flow of st over time s: exp(-i lam s) u0 and the exact
    wave rotation (cos(s w), sin(s w)/w, w sin(s w)) of (v0, vt0)."""
    lam = st.grid.lam
    w = np.sqrt(lam / (1.0 + eps * lam))
    c, sn = np.cos(w * s), np.sin(w * s)
    u = np.exp(-1j * lam * s) * st.u.coef
    v = c * st.v.coef + sn / w * st.vt.coef
    vt = -w * sn * st.v.coef + c * st.vt.coef
    return u, v, vt


def plain_picard_panel(st, params, h, P, tol=1e-11):
    """One Picard panel (0, h) written out on a single level, without
    blocks or per-axis phases: the three-point exponential predictor at
    every node, then Jacobi sweeps whose quadrature sums run over whole node
    stacks until the oracle's stopping rule holds, and the panel end from
    the full-panel sums of the last sweep.  Returns the residual log and the
    end state's (u, v, vt)."""
    grid = st.grid
    lam = grid.lam
    ker = dynamics._Kernels(grid, params, None)
    w = ker.w
    xg, wg = np.polynomial.legendre.leggauss(P)
    nodes = (xg + 1.0) * 0.5 * h
    W = dynamics._integration_weights(nodes, nodes)
    s = nodes[:, None, None]
    phase, c, sc = np.exp(1j * lam * s), np.cos(s * w), np.sin(s * w) / w
    u0, v0, vt0 = st.u.coef.astype(complex), st.v.coef, st.vt.coef

    def duhamel(t, p, ws):
        """u and v at times t (a column of shape (k, 1, 1)) of the Duhamel
        form whose integrands p and ws are the quadratics through the values
        given at 0, h/2 and h, integrated exactly."""
        c1, d1 = ((4 * f[1] - 3 * f[0] - f[2]) / h for f in (p, ws))
        c2, d2 = (2 * (f[2] - 2 * f[1] + f[0]) / h**2 for f in (p, ws))
        q2 = c2 / lam
        q1 = c1 / lam + 2j * c2 / lam**2
        q0 = p[0] / lam + 1j * c1 / lam**2 - 2 * c2 / lam**3
        Wt = ws[0] - 2 * d2 / ker.w2
        u = np.exp(-1j * lam * t) * (u0 + q0) - q0 - t * q1 - t**2 * q2
        v = np.cos(t * w) * (v0 + Wt) + np.sin(t * w) / w * (vt0 + d1) - Wt - t * d1 - t**2 * d2
        return u, v

    # exponential Euler (integrands frozen at 0) at h/2 and h, then the
    # quadratic model through its integrands there, twice
    p = [ker.coupled_product(v0, u0)] * 3
    ws = [ker.wave_source(u0)] * 3
    ends = np.array([0.5 * h, h])[:, None, None]
    for _ in range(2):
        u, v = duhamel(ends, p, ws)
        p = p[:1] + [ker.coupled_product(vi, ui) for vi, ui in zip(v, u)]
        ws = ws[:1] + [ker.wave_source(ui) for ui in u]
    us, vs = duhamel(s, p, ws)
    log = []
    while not log or not dynamics._panel_converged(log, tol):
        pvu = phase * np.array([ker.coupled_product(v, u) for v, u in zip(vs, us)])
        g = -ker.w2 * np.array([ker.wave_source(u) for u in us])
        Iu, Ia, Ib = (np.einsum("ij,jkl->ikl", W, f) for f in (pvu, c * g, sc * g))
        un = np.conj(phase) * (u0 - 1j * Iu)
        vn = c * v0 + sc * vt0 + sc * Ia - c * Ib
        du = np.sqrt(np.sum((1.0 + lam) * np.abs(un - us) ** 2, axis=(1, 2)))
        dv = np.sqrt(np.sum((vn - vs) ** 2, axis=(1, 2)))
        log.append(float(np.max(du + dv)))
        us, vs = un, vn
    Iu, Ia, Ib = (np.einsum("j,jkl->kl", wg * 0.5 * h, f) for f in (pvu, c * g, sc * g))
    ch, sh = np.cos(w * h), np.sin(w * h)
    u = np.exp(-1j * lam * h) * (u0 - 1j * Iu)
    v = ch * v0 + sh / w * vt0 + sh / w * Ia - ch * Ib
    vt = -w * sh * v0 + ch * vt0 + ch * Ia + w * sh * Ib
    return log, (u, v, vt)


def test_picard_residual_is_the_worst_node_of_every_row_block():
    # A coupled panel whose sums run over grid-row blocks (10 rows leave the
    # last one partial) against the same iteration written without blocks:
    # the same residual, largest over all 17 nodes, in every sweep, and the
    # same panel end; tol = 1e-14 asks for a fourth sweep
    st = standard_state(10)
    assert st.grid.Nx % dynamics._GRID_ROWS != 0
    params = SystemParams(eps=0.5, dt=1.0)
    log = []
    pic = picard_duhamel(st, 0.02, params, quad_nodes=17, tol=1e-14, residual_log=log)
    ref_log, ref_end = plain_picard_panel(st, params, 0.02, 17, tol=1e-14)
    assert len(log) == len(ref_log) >= 4
    # rel 1e-12 binds the first sweeps; the last residuals are differences
    # of iterates of size 1, so round-off leaves them an absolute floor
    # (measured 7e-19)
    assert log == pytest.approx(ref_log, rel=1e-12, abs=1e-15)
    for got, ref in zip((pic.u, pic.v, pic.vt), ref_end):
        assert np.max(np.abs(got.coef - ref)) < 1e-13


def test_picard_panel_makes_m_p_plus_five_node_evaluations(monkeypatch):
    # An unregularized, dealiased panel: the predictor evaluates the two
    # products 5 times (at the panel's left edge, then twice at h/2 and at
    # h), and each of the m sweeps at every node; the panel end takes no
    # fill of its own.  A node evaluation is 3 transforms on the padded
    # grid (two syntheses and one analysis of P(v, u)) and 2 on the band
    # (one of each for W(u)).  With P = 8 nodes the default tol is met in
    # 2 sweeps and 1e-14 asks for a fourth.  P = 32 takes the coarse level
    # of P_c = 16 nodes (lam_max h = 2.56 asks for fewer than the floor of
    # 16), which adds one sweep over those nodes, mP + P_c + 5 in all, and
    # 1e-14 is met in 3 fine sweeps.
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=1.0)
    assert st.grid.pad_shape != st.grid.shape
    counts = count_transforms(monkeypatch)
    for P, P_c, sweeps in [(8, 0, 4), (32, 16, 3)]:
        counts.clear()
        log = []
        picard_duhamel(st, 0.02, params, quad_nodes=P, tol=1e-14, residual_log=log)
        m = len(log)
        assert m >= sweeps
        n = m * P + P_c + 5
        assert counts == {st.grid.pad_shape: 3 * n, st.grid.shape: 2 * n}, P


def test_picard_two_level_start_keeps_the_fine_fixed_point():
    # 32 nodes take a coarse sweep on 16 first; the fine sweeps then start
    # one sweep further on, and the panel converges to the same 32-node
    # fixed point as the single-level iteration (measured 9e-19 apart)
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=1.0)
    log = []
    pic = picard_duhamel(st, 0.02, params, quad_nodes=32, tol=1e-14, residual_log=log)
    ref_log, ref_end = plain_picard_panel(st, params, 0.02, 32, tol=1e-14)
    assert len(log) == len(ref_log) - 1
    for got, ref in zip((pic.u, pic.v, pic.vt), ref_end):
        assert np.max(np.abs(got.coef - ref)) < 1e-13


def test_picard_default_preset_converges_in_two_fine_sweeps():
    # The default 64^2 data on one panel of 0.025 with 128 nodes, the
    # benchmark's oracle input: the coarse level of 32 nodes leaves the
    # fine sweeps contracting by about 1e-4 (residuals 2.8e-6, 3.4e-10),
    # so the default tol is met after 2 fine sweeps where one level took 3,
    # and the end state is within tol of a run at tol = 1e-15 (measured
    # 7.2e-13)
    cfg = RunConfig(T=0.025)
    params = build_params(cfg)
    state0 = build_initial_state(cfg)
    log = []
    pic = picard_duhamel(state0, cfg.T, params, quad_nodes=128, residual_log=log)
    assert len(log) == 2
    tight = picard_duhamel(state0, cfg.T, params, quad_nodes=128, tol=1e-15)
    assert difference_metric(pic, tight) < 1e-11


def test_picard_peak_memory_per_node_mode_entry():
    # The six (P, Nx, Ny) node stacks take 64 B per node-mode entry: the
    # complex iterates u and P(v, u), and the real iterates v, g, cos(s w)
    # and sinc(s w).  On 24 x 20 modes with 64 nodes, which start on a
    # coarse level of 16 nodes, the traced peak of one call, block
    # temporaries and products included, measured 85.4 B (86.0 B on a
    # single level); storing the phases exp(i lam s) and the phase products
    # as stacks too measured 121 B.
    g = make_grid(np.pi, np.pi, 24, 20)
    rng = np.random.default_rng(5)
    st = make_state(
        random_field(g, rng, "complex"), random_field(g, rng), random_field(g, rng)
    )
    params = SystemParams(eps=1.0, dt=1.0)
    picard_duhamel(st, 0.005, params, quad_nodes=64)  # fills the transform caches
    tracemalloc.start()
    try:
        picard_duhamel(st, 0.005, params, quad_nodes=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (64 * g.Nx * g.Ny) < 100


def test_picard_exact_without_coupling(decoupled):
    # Two panels of 0.02, on the standard state and on 9 x 6 modes over
    # (0, pi) x (0, 2), where the per-axis phase factors differ in length
    # and in eigenvalues and the 9 grid rows end in a partial block
    g = make_grid(np.pi, 2.0, 9, 6)
    assert g.Nx % dynamics._GRID_ROWS != 0
    rng = np.random.default_rng(11)
    non_square = make_state(
        random_field(g, rng, "complex"), random_field(g, rng), random_field(g, rng)
    )
    params = SystemParams(eps=0.5, dt=1.0)
    for st in (standard_state(8), non_square):
        log = []
        pic = picard_duhamel(st, 0.04, params, quad_nodes=8, residual_log=log)
        for got, exact in zip((pic.u, pic.v, pic.vt), free_flow(st, 0.5, 0.04)):
            assert np.max(np.abs(got.coef - exact)) < 1e-13
        # the predictor is the free flow itself, so each panel's one sweep
        # changes nothing
        assert log == [0.0, 0.0]
