"""Stepping kernels: exactness of the substeps, conservation, convergence
order, reversibility, blow-up detection, and the Picard-Duhamel oracle."""

import numpy as np
import pytest

from sibsim.dynamics import (
    BlowupError,
    PicardDivergenceError,
    SystemParams,
    dudt,
    integrate,
    make_state,
    picard_duhamel,
    prepare_initial_state,
    schrodinger_substep,
    strang_step,
    wave_substep,
)
from sibsim.functionals import charge, difference_metric
from sibsim.grids import (
    analyze,
    field_from_coef,
    intensity_coef,
    make_grid,
    zero_field,
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


# ---------------------------------------------------------------------------
# parameter and state validation


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(eps=1.5)
    with pytest.raises(ValueError):
        SystemParams(dt=0.0)
    with pytest.raises(ValueError):
        SystemParams(yosida_n=0.5)


def test_make_state_validation():
    g = make_grid(np.pi, np.pi, 4, 4)
    u = zero_field(g, "complex")
    v = zero_field(g)
    with pytest.raises(ValueError):
        make_state(u, field_from_coef(g, np.zeros((4, 4), dtype=complex)), v)
    other = make_grid(np.pi, np.pi, 6, 6)
    with pytest.raises(ValueError):
        make_state(u, v, zero_field(other))


def test_prepare_initial_state():
    st = standard_state(8)
    params = SystemParams(yosida_n=4.0)
    smoothed = prepare_initial_state(st, params)
    j = 1.0 / (1.0 + st.grid.lam / 4.0)
    assert np.allclose(smoothed.u.coef, j * st.u.coef, rtol=0, atol=1e-16)
    assert np.allclose(smoothed.v.coef, j * st.v.coef, rtol=0, atol=1e-16)
    untouched = prepare_initial_state(st, SystemParams(yosida_n=4.0, regularize_data=False))
    assert untouched is st
    assert prepare_initial_state(st, SystemParams()) is st


# ---------------------------------------------------------------------------
# wave substep


def test_wave_substep_zero_dt_is_identity():
    st = standard_state(8)
    g = st.grid
    f = field_from_coef(g, intensity_coef(g, st.u.coef))
    v1, vt1 = wave_substep(st.v, st.vt, f, 0.0, 1.0)
    # v passes through (v + f) - f, so identity holds to round-off only
    assert np.max(np.abs(v1.coef - st.v.coef)) < 1e-15
    assert np.array_equal(vt1.coef, st.vt.coef)


def test_wave_substep_single_mode_cosine():
    # v'' = -omega^2 v with omega = sqrt(2/3) at eps = 1, lam = 2
    st = mode_state(8, v_amp=1.0)
    t = 0.7
    v1, vt1 = wave_substep(st.v, st.vt, zero_field(st.grid), t, 1.0)
    w = np.sqrt(2.0 / 3.0)
    assert v1.coef[0, 0] == pytest.approx(np.cos(w * t), rel=1e-14)
    assert vt1.coef[0, 0] == pytest.approx(-w * np.sin(w * t), rel=1e-14)
    rest = np.abs(v1.coef) + np.abs(vt1.coef)
    rest[0, 0] = 0.0
    assert np.max(rest) == 0.0


def test_wave_substep_per_mode_invariant():
    # omega^2 |v + f|^2 + |vt|^2 is conserved mode by mode for frozen f
    rng = np.random.default_rng(12)
    g = make_grid(np.pi, np.pi, 12, 12)
    for eps in (0.0, 0.5, 1.0):
        w2 = g.lam / (1.0 + eps * g.lam)
        v = field_from_coef(g, rng.standard_normal(g.shape))
        vt = field_from_coef(g, rng.standard_normal(g.shape))
        f = field_from_coef(g, rng.standard_normal(g.shape))
        before = w2 * (v.coef + f.coef) ** 2 + vt.coef**2
        v1, vt1 = wave_substep(v, vt, f, 0.31, eps)
        after = w2 * (v1.coef + f.coef) ** 2 + vt1.coef**2
        assert np.max(np.abs(after - before) / before) < 1e-12


def test_wave_substep_grid_guard():
    st = standard_state(8)
    with pytest.raises(ValueError):
        wave_substep(st.v, st.vt, zero_field(make_grid(np.pi, np.pi, 6, 6)), 0.1, 1.0)


# ---------------------------------------------------------------------------
# Schrodinger substep and full step


def test_dudt_on_laplacian_eigenfunction():
    # v = 0 removes the potential; dudt = i Lap u = -i lam u
    st = mode_state(8, u_amp=1.0)
    d = dudt(st, SystemParams(eps=1.0))
    assert np.allclose(d.coef, -2j * st.u.coef, rtol=1e-15, atol=1e-15)


def test_dudt_matches_one_sided_difference():
    # (4 u(h) - u(2h) - 3 u(0)) / (2h) approximates du/dt to second order.
    # Differenced on the Duhamel oracle, which shares dudt's product rule;
    # the splitting would leave an h-independent aliasing bias instead.
    # Measured error 4.9e-5 at h = 1e-3 with a clean factor-4 decay.
    st = standard_state(16)
    params = SystemParams(eps=1.0)
    exact = dudt(st, params).coef

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
        state = st
        for _ in range(20):
            state = strang_step(state, params)
            assert abs(charge(state) - c0) / c0 < bound


def test_taylor_potential_flow_matches_unregularized_for_large_n():
    # At n = 1e12 the Yosida factors are numerically the identity, so what
    # remains is the gap between the nodal phase and the exponential of the
    # band-projected multiplier; it scales with dt (measured 2.11e-5 at
    # dt = 1e-2 on N = 8 and 2.11e-6 at dt = 1e-3)
    st = standard_state(8)
    for dt, bound in ((1e-2, 1e-4), (1e-3, 1e-5)):
        plain = schrodinger_substep(st.u, st.v, dt)
        smoothed = schrodinger_substep(
            st.u, st.v, dt, SystemParams(dt=1.0, yosida_n=1e12)
        )
        assert np.max(np.abs(plain.coef - smoothed.coef)) < bound


def test_strang_step_equals_manual_substep_composition():
    st = standard_state(16)
    g = st.grid
    eps, dt = 0.5, 1e-2
    f0 = field_from_coef(g, intensity_coef(g, st.u.coef))
    v1, vt1 = wave_substep(st.v, st.vt, f0, dt / 2, eps)
    u1 = schrodinger_substep(st.u, v1, dt)
    f1 = field_from_coef(g, intensity_coef(g, u1.coef))
    v2, vt2 = wave_substep(v1, vt1, f1, dt / 2, eps)
    via = strang_step(st, SystemParams(eps=eps, dt=dt))
    assert np.array_equal(u1.coef, via.u.coef)
    assert np.array_equal(v2.coef, via.v.coef)
    assert np.array_equal(vt2.coef, via.vt.coef)
    assert via.t == pytest.approx(dt)


def test_substep_composition_is_reversible():
    # every substep is an exact flow (rotation, free phase, unimodular
    # multiply), so the backward pass undoes the forward one to round-off
    st = standard_state(16)
    g = st.grid
    eps, dt = 0.5, 1e-2
    f0 = field_from_coef(g, intensity_coef(g, st.u.coef))
    v1, vt1 = wave_substep(st.v, st.vt, f0, dt / 2, eps)
    u1 = schrodinger_substep(st.u, v1, dt)
    f1 = field_from_coef(g, intensity_coef(g, u1.coef))
    v2, vt2 = wave_substep(v1, vt1, f1, dt / 2, eps)

    vb1, vtb1 = wave_substep(v2, vt2, f1, -dt / 2, eps)
    ub = schrodinger_substep(u1, vb1, -dt)
    fb0 = field_from_coef(g, intensity_coef(g, ub.coef))
    vb0, vtb0 = wave_substep(vb1, vtb1, fb0, -dt / 2, eps)
    assert np.max(np.abs(ub.coef - st.u.coef)) < 1e-13
    assert np.max(np.abs(vb0.coef - st.v.coef)) < 1e-13
    assert np.max(np.abs(vtb0.coef - st.vt.coef)) < 1e-14


def test_self_convergence_is_second_order():
    st = standard_state(16)

    def final(dt):
        rec = integrate(st, 1.0, SystemParams(eps=1.0, dt=dt), monitor_stride=10**9)
        return rec.final_state

    ref = final(1.0 / 2048)
    errs = [difference_metric(final(1.0 / n), ref) for n in (64, 128, 256)]
    for a, b in zip(errs, errs[1:]):
        assert 3.5 < a / b < 4.6


def test_decoupled_flow_is_exact():
    st = standard_state(12)
    eps, T = 0.5, 0.3
    params = SystemParams(eps=eps, dt=0.05, coupling=False)
    rec = integrate(st, T, params, monitor_stride=10**9)
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
    st = make_state(zero_field(g, "complex"), zero_field(g), zero_field(g))
    rec = integrate(st, 0.1, SystemParams(eps=1.0, dt=1e-2))
    assert np.max(np.abs(rec.final_state.u.coef)) == 0.0
    assert np.max(np.abs(rec.final_state.v.coef)) == 0.0
    assert np.all(rec.column("charge") == 0.0)
    assert np.all(rec.column("gn_quotient") == 0.0)


# ---------------------------------------------------------------------------
# integrate bookkeeping


def test_integrate_validation():
    st = standard_state(8)
    with pytest.raises(ValueError):
        integrate(st, 0.0, SystemParams())
    with pytest.raises(ValueError):
        integrate(st, 1.0, SystemParams(), monitor_stride=0)


def test_final_step_is_shortened():
    st = standard_state(8)
    rec = integrate(st, 0.55, SystemParams(eps=1.0, dt=0.1), monitor_stride=1)
    assert rec.times[-1] == 0.55
    assert rec.final_state.t == 0.55
    assert len(rec.times) == 7  # t0, five full steps, one short step
    assert np.allclose(rec.times[:-1], np.arange(6) * 0.1, atol=1e-12)


def test_checkpoints_returned_at_requested_times():
    st = standard_state(8)
    rec = integrate(
        st,
        0.1,
        SystemParams(eps=1.0, dt=1e-2),
        checkpoint_times=(0.0, 0.05, 0.1),
    )
    assert sorted(rec.checkpoints) == [0.0, 0.05, 0.1]
    assert np.array_equal(rec.checkpoints[0.0].u.coef, st.u.coef)
    for t_req, snap in rec.checkpoints.items():
        assert abs(snap.t - t_req) <= 1e-2 + 1e-12


def test_blowup_detected():
    st = mode_state(8, u_amp=7e76)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as err:
            integrate(st, 0.01, SystemParams(eps=1.0, dt=1e-3), monitor_stride=1)
    assert err.value.t_last == 0.0


# ---------------------------------------------------------------------------
# Picard-Duhamel oracle


def test_picard_validation():
    st = standard_state(8)
    with pytest.raises(ValueError):
        picard_duhamel(st, 0.1, SystemParams(), quad_nodes=1)
    with pytest.raises(ValueError):
        picard_duhamel(st, -0.1, SystemParams())


def test_picard_residuals_contract():
    st = standard_state(8)
    log = []
    picard_duhamel(
        st, 0.02, SystemParams(eps=1.0, dt=1.0), quad_nodes=12, residual_log=log
    )
    assert len(log) >= 4
    for a, b in zip(log, log[1:]):
        assert b < a


def test_picard_divergence_error():
    st = standard_state(8)
    with pytest.raises(PicardDivergenceError) as err:
        picard_duhamel(st, 0.02, SystemParams(eps=1.0, dt=1.0), tol=1e-30, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.residual > 0


def test_picard_matches_splitting_on_small_case():
    # with the Yosida index set both solvers evaluate the identical
    # projected nonlinearity, so the distance is pure time-discretization
    # error (measured 4.3e-11); the unregularized cross-check at production
    # resolution lives in the acceptance suite
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=2e-5, yosida_n=16.0)
    fine = integrate(st, 0.05, params, monitor_stride=10**9).final_state
    pic = picard_duhamel(
        st, 0.05, SystemParams(eps=1.0, dt=1.0, yosida_n=16.0), quad_nodes=12
    )
    assert difference_metric(pic, fine) < 1e-9


def test_picard_exact_without_coupling():
    st = standard_state(8)
    params = SystemParams(eps=0.5, dt=1.0, coupling=False)
    pic = picard_duhamel(st, 0.04, params, quad_nodes=8)
    g = st.grid
    T = 0.04
    u_exact = np.exp(-1j * g.lam * T) * st.u.coef
    assert np.max(np.abs(pic.u.coef - u_exact)) < 1e-13
