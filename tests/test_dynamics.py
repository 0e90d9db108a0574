"""Stepping kernels: exactness of the substeps, conservation, convergence
order, reversibility, blow-up detection, and the Picard-Duhamel oracle."""

import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import reduce
from math import ceil, factorial
from pathlib import Path

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
from sibsim.experiments import _order_test, _sample_times
from sibsim.functionals import RunMonitor, charge, difference_metric
from sibsim.grids import (
    analyze,
    coef_to_values,
    field_from_coef,
    h1_norm,
    make_grid,
    sobolev_norm,
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


def kernel(grid, dt: float | None, **params) -> dynamics._Kernels:
    """The stepping kernel for a step of dt, None for no step; its
    wave_half is the exact wave flow over dt/2."""
    return dynamics._Kernels(grid, SystemParams(**params), dt)


def amplitude(ker, v, vt):
    """The wave amplitude z = v + i vt/omega that the stepper carries."""
    return v + 1j * (vt / ker.w)


def pair(ker, z):
    """(v, vt) of a wave amplitude z: Re z and omega Im z."""
    return z.real, ker.w * z.imag


def schrodinger_flow(ker, u, v):
    """The Schrodinger part of ker.step, v frozen: free half step, potential
    flow over dt, free half step."""
    return ker.phase_half * ker.potential_flow(ker.phase_half * u, v)


def strang_step(ker, u, z, f):
    """One whole splitting step of ker from f = wave_source(u), as
    integrate composes it: half wave, ker.step, half wave with the source
    of the new u.  Returns the new (u, z) and that source."""
    z = ker.wave_half(z, f)
    u, f = ker.step(u, z.real)
    z = ker.wave_half(z, f)
    return u, z, f


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
# the kernel's symbols (`sibsim check` derives every table from its formula)


def test_omega_symbol_values():
    g = make_grid(np.pi, np.pi, 4, 4)
    # lam(1,1) = 2: omega = sqrt(2), 1, sqrt(2/3) for eps = 0, 1/2, 1
    assert kernel(g, None, eps=0.0).w[0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert kernel(g, None, eps=0.5).w[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert kernel(g, None, eps=1.0).w[0, 0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)
    # eps = 1 symbol is bounded by 1/sqrt(eps) = 1
    assert np.all(kernel(g, None, eps=1.0).w < 1.0)


def test_wave_propagator_at_zero():
    ker = kernel(make_grid(np.pi, np.pi, 24, 24), 0.0, eps=1.0)
    assert np.all(ker.wave_phase_half == 1.0)
    assert np.all(ker.wave_phase_full == 1.0)
    assert np.all(ker.phase_half == 1.0)


@pytest.mark.parametrize("n", [None, 8.0])
def test_stepless_kernel_shares_the_symbols_and_skips_the_step_tables(n):
    g = make_grid(np.pi, np.pi, 24, 24)
    stepless, stepping = (kernel(g, dt, eps=0.5, yosida_n=n) for dt in (None, 0.0))
    for name in ("w", "w2", "prod_shape") + (("jsym",) if n else ()):
        assert np.array_equal(getattr(stepless, name), getattr(stepping, name))
    for name in ("phase_half", "wave_phase_half", "wave_phase_full"):
        assert not hasattr(stepless, name)


# ---------------------------------------------------------------------------
# wave substep: the kernel's half step


def test_wave_substep_zero_dt_is_identity():
    st = standard_state(8)
    g = st.grid
    ker = kernel(g, 0.0, eps=1.0)
    z = amplitude(ker, st.v.coef, st.vt.coef)
    z1 = ker.wave_half(z, ker.wave_source(st.u.coef))
    # Re z passes through (v + f) - f, so identity holds to round-off only
    assert np.max(np.abs(z1.real - st.v.coef)) < 1e-15
    assert np.array_equal(z1.imag, z.imag)


def test_wave_substep_single_mode_cosine():
    # v'' = -omega^2 v with omega = sqrt(2/3) at eps = 1, lam = 2
    st = mode_state(8, v_amp=1.0)
    t = 0.7
    ker = kernel(st.grid, 2 * t, eps=1.0)
    z1 = ker.wave_half(amplitude(ker, st.v.coef, st.vt.coef), np.zeros(st.grid.shape))
    v1, vt1 = pair(ker, z1)
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
        ker = kernel(g, 2 * 0.31, eps=eps)
        v1, vt1 = pair(ker, ker.wave_half(amplitude(ker, v, vt), f))
        after = w2 * (v1 + f) ** 2 + vt1**2
        assert np.max(np.abs(after - before) / before) < 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
def test_wave_rotations_are_the_free_wave_flow(eps):
    # wave_half and wave_full rotate z + f by exp(-i t omega) for t = dt/2
    # and dt: (v + f, vt) must follow the real-form free flow of the
    # Picard tests' own free_flow, on 17 x 4 modes over (0, pi/4) x (0, pi)
    # (eps = 0 leaves omega up to 68, so t omega reaches 20); measured
    # within 2.9e-16 relative
    g = make_grid(np.pi / 4, np.pi, 17, 4)
    rng = np.random.default_rng(4)
    st = make_state(
        random_field(g, rng, "complex"), random_field(g, rng), random_field(g, rng)
    )
    f = random_field(g, rng).coef
    dt = 0.3
    ker = kernel(g, dt, eps=eps)
    z = amplitude(ker, st.v.coef, st.vt.coef)
    shifted = replace(st, v=field_from_coef(g, st.v.coef + f))
    for flow, t in ((ker.wave_half, 0.5 * dt), (ker.wave_full, dt)):
        v1, vt1 = pair(ker, flow(z, f))
        _, v, vt = free_flow(shifted, eps, t)
        assert np.max(np.abs(v1 + f - v)) <= 1e-14 * np.max(np.abs(v))
        assert np.max(np.abs(vt1 - vt)) <= 1e-14 * np.max(np.abs(vt))


def test_two_half_wave_flows_with_one_source_are_the_full_step_flow():
    # the wave equation is autonomous while f is frozen, so its flows form
    # a group: two half steps are one full step, to round-off
    rng = np.random.default_rng(5)
    g = make_grid(np.pi, 2.0, 12, 10)
    for eps, dt in ((0.0, 1e-2), (0.5, 0.3), (1.0, 1e-3)):
        ker = kernel(g, dt, eps=eps)
        v, vt, f = (random_field(g, rng).coef for _ in range(3))
        z = amplitude(ker, v, vt)
        full = pair(ker, ker.wave_full(z, f))
        halves = pair(ker, ker.wave_half(ker.wave_half(z, f), f))
        for a, b in zip(full, halves, strict=True):
            assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)


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
        u, z = st.u.coef, amplitude(ker, st.v.coef, st.vt.coef)
        f = ker.wave_source(u)
        for _ in range(20):
            u, z, f = strang_step(ker, u, z, f)
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
        assert err.value.beta == 0.05 * _flow_bound(ker, scale * st.v.coef)
        assert err.value.substeps > dynamics._MAX_SUBSTEPS
        assert err.value.substeps == ceil(err.value.beta)
        message = str(err.value)
        assert "potential flow" in message and "beta" in message
        assert max(len(digits) for digits in re.findall(r"\d+", message)) <= 17


def _flow_bound(ker, v):
    """b = (max J)^2 max |J v| over the product nodes, the bound on the
    norm of the generator J (Jv * J .) that the potential flow uses."""
    jv = coef_to_values(ker.grid, ker.jsym * v, ker.prod_shape)
    return float(np.max(ker.jsym) ** 2 * np.max(np.abs(jv)))


def _taylor_reference(ker, u, v, substeps=None):
    """The regularized potential flow as Taylor sums of padded products,
    each re-synthesizing J v, over ceil(beta) substeps (unless given),
    beta = |dt| b with b = _flow_bound; a substep stops after term k once
    ||term_k|| r / (1 - r) <= 1e-17 ||u||, r = |h| b / (k + 1).  Returns
    the flow and its term count."""
    jv = ker.jsym * v
    # the plain product on the same product grid
    plain = dynamics._Kernels(ker.grid, replace(ker.params, yosida_n=None), None)
    bound = _flow_bound(ker, v)
    if substeps is None:
        substeps = max(1, ceil(abs(ker.dt) * bound))
    h = ker.dt / substeps
    norm0 = np.linalg.norm(u)
    out, terms = u, 0
    for _ in range(substeps):
        term, out = out, out.copy()
        tnorm, k = norm0, 0
        while True:
            r = abs(h) * bound / (k + 1)
            if r < 1 and tnorm * r / (1 - r) <= 1e-17 * norm0:
                break
            k += 1
            term = (-1j * h / k) * ker.jsym * plain.coupled_product(jv, ker.jsym * term)
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
def test_yosida_step_makes_2k_plus_3_transforms(monkeypatch, dealias):
    # the source of the new u in 2 transforms, J v once, 2 per Taylor term;
    # the source of the old u comes in with the step
    st, ker = yosida_case(dealias)
    u, z = st.u.coef, amplitude(ker, st.v.coef, st.vt.coef)
    f = ker.wave_source(u)
    v1 = ker.wave_half(z, f).real
    _, terms = _taylor_reference(ker, ker.phase_half * u, v1)
    counts = count_transforms(monkeypatch)
    strang_step(ker, u, z, f)
    assert counts == {ker.prod_shape: 2 * terms + 3}


def test_nodal_step_makes_5_band_transforms(monkeypatch):
    # the default preset, unregularized: one wave source of 2 transforms
    # and the nodal potential phase of 3, all on the collocation nodes
    cfg = RunConfig()
    params = build_params(cfg)
    st = build_initial_state(cfg)
    ker = dynamics._Kernels(st.grid, params, params.dt)
    f = ker.wave_source(st.u.coef)
    counts = count_transforms(monkeypatch)
    strang_step(ker, st.u.coef, amplitude(ker, st.v.coef, st.vt.coef), f)
    assert counts == {st.grid.shape: 5}


def test_nodal_integrate_makes_5m_plus_2_band_transforms(monkeypatch):
    # the initial source once, then 5 per step: each step hands the source
    # of its new u to the next; 7.5 dt is 8 equal steps of 7.5 dt / 8
    cfg = RunConfig()
    params = build_params(cfg)
    st = build_initial_state(cfg)
    counts = count_transforms(monkeypatch)
    for T, m in ((5 * params.dt, 5), (7.5 * params.dt, 8)):
        counts.clear()
        integrate(st, T, params)
        assert counts == {st.grid.shape: 5 * m + 2}


def test_monitored_nodal_integrate_makes_5m_plus_2_band_transforms_and_r_refined(monkeypatch):
    # every row takes the wave source the run holds for its u, so the rows
    # add no band transform, only the one lp_norm synthesis at (2Nx, 2Ny)
    # each; m = 25 steps, rows at t0, every 10 steps and the end
    cfg = RunConfig()
    params = build_params(cfg)
    st = build_initial_state(cfg)
    monitor = RunMonitor.from_state(st)
    counts = count_transforms(monkeypatch)
    rec = integrate(st, 25 * params.dt, params, monitor=monitor)
    r = len(rec.series["t"])
    assert r == 4
    refined = (2 * st.grid.Nx, 2 * st.grid.Ny)
    assert counts == {st.grid.shape: 5 * 25 + 2, refined: r}


def test_default_yosida_step_makes_11_padded_transforms(monkeypatch):
    # the default preset at n = 8 (64^2, dt = 1e-3): the bound proves the
    # tail negligible after 4 Taylor terms, so 2*4 + 3 padded transforms
    cfg = RunConfig()
    params = build_params(cfg, yosida_n=8)
    st = prepare_initial_state(build_initial_state(cfg), params)
    ker = dynamics._Kernels(st.grid, params, params.dt)
    f = ker.wave_source(st.u.coef)
    counts = count_transforms(monkeypatch)
    strang_step(ker, st.u.coef, amplitude(ker, st.v.coef, st.vt.coef), f)
    assert counts == {ker.prod_shape: 2 * 4 + 3}


def _dense_generator(ker, v):
    """H = J (Jv * J .) as a dense real matrix on the flattened band."""
    grid = ker.grid
    jv = coef_to_values(grid, ker.jsym * v, ker.prod_shape)
    cols = []
    for e in np.eye(grid.Nx * grid.Ny):
        je = coef_to_values(grid, ker.jsym * e.reshape(grid.shape), ker.prod_shape)
        cols.append((ker.jsym * values_to_coef(grid, jv * je)).ravel())
    return np.array(cols).T


def generator_case(dealias: bool):
    g = make_grid(np.pi, 2.0, 8, 6)
    rng = np.random.default_rng(11)
    u = random_field(g, rng, kind="complex").coef
    v = 40.0 * random_field(g, rng).coef
    params = SystemParams(dt=1.0, yosida_n=4.0, dealias=dealias)
    return u, v, dynamics._Kernels(g, params, params.dt)


@pytest.mark.parametrize("dealias", [True, False], ids=["padded", "nodal"])
def test_yosida_generator_is_symmetric_and_bounded_by_max_jv(dealias):
    # H = J S* diag(Jv) S J: scaled synthesis S is an isometry from the
    # band, truncated analysis its adjoint S*, and ||J||_2 = max J < 1, so H
    # is symmetric and ||H||_2 <= (max J)^2 max |J v|
    _, v, ker = generator_case(dealias)
    H = _dense_generator(ker, v)
    assert np.max(np.abs(H - H.T)) <= 1e-15
    assert np.linalg.norm(H, 2) <= _flow_bound(ker, v)


@pytest.mark.parametrize("dealias", [True, False], ids=["padded", "nodal"])
def test_substepped_yosida_flow_matches_the_dense_exponential(dealias):
    from scipy.linalg import expm

    u, v, ker = generator_case(dealias)
    H = _dense_generator(ker, v)
    dt = 2.9 / _flow_bound(ker, v)  # beta = 2.9: three substeps
    ker = dynamics._Kernels(ker.grid, replace(ker.params, dt=dt), dt)
    assert ceil(dt * _flow_bound(ker, v)) == 3
    exact = (expm(-1j * dt * H) @ u.ravel()).reshape(u.shape)
    flowed = ker.potential_flow(u, v)
    norm0 = np.linalg.norm(u)
    assert np.linalg.norm(flowed - exact) <= 1e-13 * norm0
    assert abs(np.linalg.norm(flowed) - norm0) <= 1e-14 * norm0


@pytest.mark.parametrize("dealias", [True, False], ids=["padded", "nodal"])
def test_yosida_flow_takes_ceil_beta_substeps(dealias):
    # beta = |dt| (max J)^2 max |J v| = 2.9: the flow is the Taylor sum over
    # exactly 3 substeps, where max |J v| alone would ask for more than 3
    u, v, ker = generator_case(dealias)
    dt = 2.9 / _flow_bound(ker, v)
    ker = dynamics._Kernels(ker.grid, replace(ker.params, dt=dt), dt)
    jv = coef_to_values(ker.grid, ker.jsym * v, ker.prod_shape)
    assert ceil(dt * _flow_bound(ker, v)) == 3 < ceil(dt * np.max(np.abs(jv)))
    flowed = ker.potential_flow(u, v)
    for substeps in (2, 3, 4):
        ref, _ = _taylor_reference(ker, u, v, substeps)
        assert np.array_equal(flowed, ref) == (substeps == 3)


def _written_out_nodal_flow(grid, u, v, dt):
    """exp(-i dt v) u on the collocation nodes, written out: y = -dt v, and
    for beta = max|y| <= 1/8 cos y and sin y as Taylor polynomials in y^2
    by Horner's rule through the degree after which the tail of exp(i y)
    is proven below 1e-17 (at least 1), else libm's; the product on real
    and imaginary planes."""
    y = -dt * coef_to_values(grid, v)
    beta = np.max(np.abs(y))
    if beta <= 1 / 8:
        degree, term = 0, 1.0
        while term * (beta / (degree + 1)) > 1e-17 * (1 - beta / (degree + 1)):
            degree += 1
            term *= beta / degree
        degree = max(degree, 1)
        z = y * y
        cos = reduce(
            lambda acc, j: acc * z + (-1) ** j / factorial(2 * j),
            range(degree // 2, -1, -1), 0.0,
        )
        sin = y * reduce(
            lambda acc, j: acc * z + (-1) ** j / factorial(2 * j + 1),
            range((degree + 1) // 2 - 1, -1, -1), 0.0,
        )
    else:
        cos, sin = np.cos(y), np.sin(y)
    re, im = coef_to_values(grid, np.stack([u.real, u.imag]))
    flowed = values_to_coef(grid, np.stack([re * cos - im * sin, re * sin + im * cos]))
    return flowed[0] + 1j * flowed[1]


def test_nodal_step_kernels_equal_their_written_out_formulas():
    # wave_half and wave_full rotate z + f by their phases, and the nodal
    # phase is summed by Horner's rule (beta below 1/8) or taken from libm
    # (above) and applied in place on planes; each must equal the plain
    # expression bit for bit and leave its inputs alone
    g = make_grid(np.pi, 2.0, 12, 10)
    rng = np.random.default_rng(9)
    u = random_field(g, rng, kind="complex").coef
    v, vt, f = (random_field(g, rng).coef for _ in range(3))
    ker = dynamics._Kernels(g, SystemParams(eps=0.5, dt=3e-2), 3e-2)
    z = amplitude(ker, v, vt)
    inputs = [a.copy() for a in (u, v, z, f)]
    assert np.array_equal(ker.wave_half(z, f), ker.wave_phase_half * (z + f) - f)
    assert np.array_equal(ker.wave_full(z, f), ker.wave_phase_full * (z + f) - f)
    vmax = np.max(np.abs(coef_to_values(g, v)))
    for beta in (0.0, 1e-3, 0.05, 0.124, 0.126, 0.5):
        dt = beta / vmax
        ker = dynamics._Kernels(g, SystemParams(), dt)
        assert np.array_equal(ker.potential_flow(u, v), _written_out_nodal_flow(g, u, v, dt))
    for before, after in zip(inputs, (u, v, z, f)):
        assert np.array_equal(before, after)


def count_libm_phase(monkeypatch):
    """Count the np.cos and np.sin calls from now on, by name."""
    calls = Counter()
    for name in ("cos", "sin"):
        libm = getattr(np, name)

        def counted(*args, _libm=libm, _name=name, **kwargs):
            calls[_name] += 1
            return _libm(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize("scale, calls", [(1.0, {}), (200.0, {"cos": 1, "sin": 1})])
def test_nodal_step_takes_libm_phase_only_above_one_eighth(monkeypatch, scale, calls):
    # the default data give beta = dt max|v| of about 1e-3, summed as Taylor
    # polynomials; v scaled by 200 gives beta of about 0.2, past 1/8
    cfg = RunConfig()
    params = build_params(cfg)
    st = build_initial_state(cfg)
    ker = dynamics._Kernels(st.grid, params, params.dt)
    z = amplitude(ker, scale * st.v.coef, st.vt.coef)
    f = ker.wave_source(st.u.coef)
    counted = count_libm_phase(monkeypatch)
    strang_step(ker, st.u.coef, z, f)
    assert counted == calls


@pytest.mark.parametrize("beta", [0.0, 1e-3, 0.999 / 8, 1.001 / 8, 1.0])
def test_nodal_phase_matches_the_complex_exponential(beta):
    # within 2 units in the last place of 1 (4e-16) of exp(i y), node by
    # node (measured at most 1.1e-16), and the flow within 1e-15 of
    # values_to_coef(exp(-i dt v) u), relative
    rng = np.random.default_rng(3)
    y = beta * rng.uniform(-1.0, 1.0, 4096)
    y[0] = beta
    cos, sin = dynamics._unit_phase(y, np.max(np.abs(y)))
    assert np.max(np.abs(cos + 1j * sin - np.exp(1j * y))) <= 4e-16
    g = make_grid(np.pi, 2.0, 12, 10)
    u = random_field(g, rng, kind="complex").coef
    v = random_field(g, rng).coef
    dt = beta / np.max(np.abs(coef_to_values(g, v)))
    flowed = dynamics._Kernels(g, SystemParams(), dt).potential_flow(u, v)
    exact = values_to_coef(g, np.exp(-1j * dt * coef_to_values(g, v)) * coef_to_values(g, u))
    assert np.linalg.norm(flowed - exact) <= 1e-15 * np.linalg.norm(u)


def test_strang_step_equals_manual_substep_composition():
    # a whole step is half wave with the source it is given, _Kernels.step
    # (Schrodinger with v at the half step, which returns the source of
    # the new u too), half wave with that refreshed source
    st = standard_state(16)
    g = st.grid
    ker = kernel(g, 1e-2, eps=0.5)
    u, z = st.u.coef, amplitude(ker, st.v.coef, st.vt.coef)
    z1 = ker.wave_half(z, ker.wave_source(u))
    u1 = schrodinger_flow(ker, u, z1.real)
    f1 = ker.wave_source(u1)
    z2 = ker.wave_half(z1, f1)
    via = strang_step(ker, u, z, ker.wave_source(u))
    for manual, stepped in zip((u1, z2, f1), via, strict=True):
        assert np.array_equal(manual, stepped)


def test_substep_composition_is_reversible():
    # every substep is an exact flow (rotation, free phase, unimodular
    # multiply), and a step is symmetric, so a step of -dt undoes a step of
    # dt to round-off
    st = standard_state(16)
    g = st.grid
    eps, dt = 0.5, 1e-2
    ker = kernel(g, dt, eps=eps)
    z = amplitude(ker, st.v.coef, st.vt.coef)
    forward = strang_step(ker, st.u.coef, z, ker.wave_source(st.u.coef))
    ub, zb, _ = strang_step(kernel(g, -dt, eps=eps), *forward)
    vb0, vtb0 = pair(ker, zb)
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


def recorded_kernels(monkeypatch):
    """The step lengths of the _Kernels built from here on, in order."""
    lengths = []
    init = dynamics._Kernels.__init__

    def recorded(self, grid, params, dt):
        lengths.append(dt)
        init(self, grid, params, dt)

    monkeypatch.setattr(dynamics._Kernels, "__init__", recorded)
    return lengths


@pytest.mark.parametrize("T, n", [(0.55, 6), (0.5, 5), (0.05, 1), (0.1037, 2)])
def test_integrate_takes_equal_steps_on_one_kernel(monkeypatch, T, n):
    # T in ceil(T/dt) equal steps of T/n, all on one kernel, whether or not
    # T is a whole number of dt = 0.1 or shorter than it: 0.55 is 6 steps
    # of 0.55/6, not 5 of 0.1 and a sixth of 0.05 on a kernel of its own
    st = standard_state(8)
    monitor = RunMonitor.from_state(st)
    lengths = recorded_kernels(monkeypatch)
    rec = integrate(st, T, SystemParams(eps=1.0, dt=0.1), monitor_stride=1, monitor=monitor)
    assert lengths == [T / n]
    times = rec.series["t"]
    assert len(times) == n + 1
    assert np.array_equal(times[:-1], np.arange(n) * (T / n))
    assert times[-1] == rec.final_state.t == T


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


def test_sampled_checkpoints_are_kept_at_their_steps():
    # a run's samples are k * (10 * 0.1), each kept after step 10 k; the
    # running sums of 0.1 (in _sample_times and in integrate) drift past
    # 1e-12, and picking the step from them kept 7 of the 100 one step late
    cfg = RunConfig(nx=4, ny=4, T=100.0, dt=0.1)
    samples = _sample_times(cfg)
    assert len(samples) == 100 and samples[-1] == 100.0
    rec = integrate(build_initial_state(cfg), cfg.T, build_params(cfg), checkpoint_times=samples)
    assert list(rec.checkpoints) == list(samples)
    for k, tau in enumerate(samples, 1):
        assert abs(rec.checkpoints[tau].t - k) <= 1e-9


def test_checkpoint_times_outside_the_run_are_refused():
    # a time that is not finite or lies past t0 + T is named, where
    # (2.0, nan, -1.0) used to return no checkpoint at all
    st = standard_state(8)
    params = SystemParams(dt=1e-3)
    for times in ((2.0, float("nan"), -1.0), (float("nan"),), (0.0105,), (-float("inf"),)):
        with pytest.raises(ValueError, match=r"checkpoint time .* not finite or lies past"):
            integrate(st, 0.01, params, checkpoint_times=times)
    # a time before t0 keeps the state at t0, and the end is reached
    # within round-off of t0 + T
    rec = integrate(st, 0.01, params, checkpoint_times=(-1.0, 0.01 + 1e-15))
    assert rec.checkpoints[-1.0].t == 0.0
    assert rec.checkpoints[0.01 + 1e-15].t == 0.01


@pytest.mark.parametrize("yosida_n", [None, 16.0])
def test_state_at_t0_is_the_prepared_input_bit_for_bit(yosida_n):
    # a checkpoint and a monitor row at t0 read the prepared state's v and
    # vt themselves, where vt went through the wave amplitude as
    # omega (vt0 / omega), 7.7e-34 off for psi1 = sin(2x) sin(y)
    cfg = RunConfig(nx=8, ny=8, T=0.01, psi1_spec=("expr", "sin(2*x)*sin(y)"), yosida_n=yosida_n)
    state0, params = build_initial_state(cfg), build_params(cfg)
    seen = []

    class Recorder:
        def row(self, state, params, source):
            seen.append(state)
            return {"t": state.t}

    rec = integrate(state0, cfg.T, params, monitor=Recorder(), checkpoint_times=(0.0,))
    start = prepare_initial_state(state0, params)
    assert np.any(start.vt.coef)
    for kept in (rec.checkpoints[0.0], seen[0]):
        assert kept.t == 0.0
        for part in ("u", "v", "vt"):
            assert np.array_equal(getattr(kept, part).coef, getattr(start, part).coef), part


def test_step_count_ignores_the_rounding_of_T_over_dt(monkeypatch, decoupled):
    # 16.01 / 5e-4 = 32020.000000000004, whose rounding a tolerance of
    # 1e-12 steps did not absorb: the run took one more step, of -8e-12.
    # Counted within a millionth of a step, the run takes 32020 steps of
    # 16.01 / 32020, which is 5e-4 bit for bit.  Decoupled, for speed;
    # what is checked is the steps taken and the length of every kernel
    # built
    steps = []

    def counted(self, u, v):
        steps.append(1)
        return u

    lengths = recorded_kernels(monkeypatch)
    monkeypatch.setattr(dynamics._Kernels, "potential_flow", counted)
    rec = integrate(standard_state(4), 16.01, SystemParams(dt=5e-4))
    assert len(steps) == 32020
    assert rec.final_state.t == 16.01
    assert lengths == [5e-4]


def test_step_counts_from_2_to_the_53_are_refused():
    # from 2**53 steps on, the index i behind t0 + i dt is no longer exact
    st = standard_state(4)
    for T, dt in ((0.01, 1e-300), (2.0**53, 1.0), (1e300, 1e-300)):
        with pytest.raises(ValueError, match=r"step count T/dt = .* is not below 2\*\*53"):
            integrate(st, T, SystemParams(dt=dt))
    assert dynamics._step_count(2.0**53 - 1.0, 1.0) == 2**53 - 1


def test_default_and_benchmark_horizons_take_steps_of_dt_bit_for_bit(monkeypatch):
    # equal steps of T / ceil(T/dt) are dt itself on the default run and
    # sweeps, on the order-test ladder at its default T = 1 (reference
    # included) and on every horizon of the benchmark, whose configs leave
    # dt at its default: so none of their numbers moved with equal steps
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    cfg = RunConfig()
    cases = [(cfg.T, cfg.dt)]
    cases += [(cfg.T, dt) for dt in (*cfg.dt_list, cfg.dt_list[-1] / 8.0)]
    cases += [
        (dims[key], cfg.dt)
        for dims in workloads.SIZES.values()
        for key in dims
        if key.endswith("_t")
    ]
    assert len(cases) == 11
    for T, dt in cases:
        assert T / dynamics._step_count(T, dt) == dt, (T, dt)


# the run of the loop tests below: 11 equal steps of LOOP_T / 11, just
# below dt = 1e-2, with rows after steps 0, 4, 8 and 11 and the checkpoint
# at 0.05 kept after step 6 (0.05 is 5.3 steps)
LOOP_T, LOOP_STRIDE, LOOP_CHECKPOINT = 0.1037, 4, 0.05
LOOP_H = LOOP_T / 11


def loop_run(yosida_n):
    """The loop tests' case: the state, the params, and integrate's record
    of the monitored run."""
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=1e-2, yosida_n=yosida_n)
    rec = integrate(
        st,
        LOOP_T,
        params,
        monitor_stride=LOOP_STRIDE,
        monitor=RunMonitor.from_state(st),
        checkpoint_times=(LOOP_CHECKPOINT,),
    )
    return st, params, rec


def reference_loop(st, params, closes, kept=()):
    """The states of a loop of 11 steps of LOOP_H written out in substeps
    on one kernel, each timed by its index and the last landing on
    LOOP_T.  Step i (1-based) ends with a half wave when i is in `closes`,
    which must hold 11, and with the full-step wave flow that stands for
    its closing half and the next step's opening half otherwise; the
    state after a step i in `kept` takes its (v, vt) from a half wave of
    the same mid-step wave amplitude z.  A step after a closing one opens
    with a half wave of wave_source(u), formed afresh.  Returns
    {i: state after step i} for i = 0 and every step in closes or kept."""
    start = prepare_initial_state(st, params)
    ker = dynamics._Kernels(st.grid, params, LOOP_H)
    u, z = start.u.coef.astype(np.complex128), amplitude(ker, start.v.coef, start.vt.coef)
    states = {0: start}
    opened = False
    for i in range(1, 12):
        if not opened:
            z = ker.wave_half(z, ker.wave_source(u))
        u = schrodinger_flow(ker, u, z.real)
        f = ker.wave_source(u)
        t = LOOP_T if i == 11 else i * LOOP_H
        if i in closes or i in kept:
            states[i] = dynamics._state_from_coef(st.grid, u, *pair(ker, ker.wave_half(z, f)), t)
        opened = i not in closes
        z = (ker.wave_full if opened else ker.wave_half)(z, f)
    return states


def same_state(a, b):
    return a.t == b.t and all(
        np.array_equal(x.coef, y.coef) for x, y in ((a.u, b.u), (a.v, b.v), (a.vt, b.vt))
    )


@pytest.mark.parametrize("yosida_n", [None, 8.0], ids=["nodal", "yosida"])
def test_integrate_equals_a_loop_that_recomputes_the_wave_source(yosida_n):
    # integrate hands each step the source the previous step closed with
    # and merges the wave flows of every two steps; a loop that opens with
    # wave_source(u) formed afresh, merges the same steps, closes only
    # after step 11, and takes the kept states (the rows after steps 4 and
    # 8, the checkpoint after step 6) from a half wave of the mid-step
    # (v, vt) must give the same final state, checkpoint and monitor rows
    # bit for bit
    st, params, rec = loop_run(yosida_n)
    states = reference_loop(st, params, closes={11}, kept={4, 6, 8})
    assert same_state(rec.final_state, states[11])
    assert list(rec.checkpoints) == [LOOP_CHECKPOINT]
    assert same_state(rec.checkpoints[LOOP_CHECKPOINT], states[6])
    monitor = RunMonitor.from_state(st)
    rows = [monitor.row(states[i], params) for i in (0, 4, 8, 11)]
    assert list(rec.series) == list(rows[0])
    for key, column in rec.series.items():
        assert np.array_equal(column, [row[key] for row in rows])


@pytest.mark.parametrize("yosida_n", [None, 8.0], ids=["nodal", "yosida"])
def test_kept_states_do_not_move_the_trajectory(yosida_n):
    # a row or a checkpoint is a copy off the run, not a stop in it: runs
    # that differ only in where they keep states end bit for bit alike,
    # and a checkpoint is the final state of a run that ends at its time,
    # 6 LOOP_H, in 6 steps of 6 LOOP_H / 6 = LOOP_H
    st, params, rec = loop_run(yosida_n)
    bare = integrate(st, LOOP_T, params)
    strided = integrate(
        st,
        LOOP_T,
        params,
        monitor_stride=3,
        monitor=RunMonitor.from_state(st),
        checkpoint_times=(0.02, 0.07),
    )
    assert same_state(bare.final_state, rec.final_state)
    assert same_state(strided.final_state, rec.final_state)
    kept = rec.checkpoints[LOOP_CHECKPOINT]
    assert kept.t == 6 * LOOP_H and kept.t / 6 == LOOP_H
    assert same_state(integrate(st, kept.t, params).final_state, kept)


@pytest.mark.parametrize("yosida_n", [None, 8.0], ids=["nodal", "yosida"])
def test_integrate_agrees_with_a_loop_that_closes_every_step(yosida_n):
    # the merged wave flows are the composed half flows up to round-off:
    # a loop of whole steps, each opening and closing with a half wave,
    # keeps the same states and rows to 1e-12 relative
    st, params, rec = loop_run(yosida_n)
    states = reference_loop(st, params, closes=set(range(1, 12)))
    for got, want in ((rec.final_state, states[11]), (rec.checkpoints[LOOP_CHECKPOINT], states[6])):
        assert got.t == want.t
        for x, y in ((got.u, want.u), (got.v, want.v), (got.vt, want.vt)):
            assert np.linalg.norm(x.coef - y.coef) <= 1e-12 * np.linalg.norm(y.coef)
    monitor = RunMonitor.from_state(st)
    rows = [monitor.row(states[i], params) for i in (0, 4, 8, 11)]
    for key, column in rec.series.items():
        assert np.allclose(column, [row[key] for row in rows], rtol=1e-12, atol=0.0), key


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
    # each bad argument is named, and none is reported as a numerical abort
    # (quad_nodes = 16.0 as numpy's "deg must be an integer")
    for bad in (1, 16.0, True):
        with pytest.raises(ValueError, match=rf"quad_nodes must be an integer >= 2, got {bad!r}"):
            picard_duhamel(st, 0.02, SystemParams(), quad_nodes=bad)
    for T in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"horizon T must be positive.*got {T}"):
            picard_duhamel(st, T, SystemParams())


def test_picard_residuals_contract(monkeypatch):
    # at the default tol the panel stops after 2 sweeps, on its contraction
    # estimate; tol = 1e-14 shows the contraction over 4 (measured down to
    # 3.5e-14)
    monkeypatch.setattr(dynamics, "_PICARD_TOL", 1e-14)
    st = standard_state(8)
    log = []
    picard_duhamel(st, 0.02, SystemParams(eps=1.0, dt=1.0), quad_nodes=12, residual_log=log)
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


def test_picard_divergence_error(monkeypatch):
    st = replace(standard_state(8), t=0.3)
    params = SystemParams(eps=1.0, dt=1.0)
    monkeypatch.setattr(dynamics, "_PICARD_TOL", 1e-30)
    monkeypatch.setattr(dynamics, "_PICARD_MAX_SWEEPS", 3)
    with pytest.raises(PicardDivergenceError) as err:
        picard_duhamel(st, 0.02, params)
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
    monkeypatch.setattr(dynamics, "_PICARD_MAX_SWEEPS", 1)
    with pytest.raises(PicardDivergenceError) as err:
        picard_duhamel(st, 0.02, params)
    assert err.value.contraction is None
    assert str(err.value).endswith("after 1 iterations, no contraction measured after one sweep")



@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_picard_refuses_non_finite_data_after_one_sweep(bad):
    # a non-finite coefficient makes the first sweep's residual NaN, which
    # no further sweep mends: the panel stops there instead of after
    # _PICARD_MAX_SWEEPS, and numpy warns of nothing on the way
    # (RuntimeWarnings fail this suite)
    g = make_grid(np.pi, np.pi, 8, 8)
    rng = np.random.default_rng(3)
    u, v, vt = (random_field(g, rng, kind) for kind in ("complex", "real", "real"))
    for params, component in ((SystemParams(), "u"), (SystemParams(yosida_n=4.0), "vt")):
        fields = {"u": u, "v": v, "vt": vt}
        coef = fields[component].coef.copy()
        coef[2, 3] = bad
        fields[component] = field_from_coef(g, coef)
        with pytest.raises(PicardDivergenceError) as err:
            picard_duhamel(make_state(**fields), 0.05, params)
        assert err.value.iterations == 1 and np.isnan(err.value.residual)
        assert "panel 0 (starting at t = 0.0): residual nan after 1 iterations" in str(err.value)


def ivp_reference(st, T, params):
    """u and v at st.t + T of the semi-discrete system, integrated by
    scipy's DOP853 at rtol = atol = 1e-13 from the data as the flow sees
    them: a solver that shares no time stepping with sibsim, only the
    kernel's products, so that both integrate the same ODE."""
    from scipy.integrate import solve_ivp

    g = st.grid
    ker = dynamics._Kernels(g, params, None)
    s0 = prepare_initial_state(st, params)
    m = g.Nx * g.Ny

    def rhs(t, y):
        u = (y[:m] + 1j * y[m : 2 * m]).reshape(g.shape)
        v, vt = y[2 * m : 3 * m].reshape(g.shape), y[3 * m :].reshape(g.shape)
        du = -1j * (g.lam * u + ker.coupled_product(v, u))
        dvt = -ker.w2 * (v + ker.wave_source(u))
        return np.concatenate([du.real.ravel(), du.imag.ravel(), vt.ravel(), dvt.ravel()])

    u0, v0, vt0 = s0.u.coef, s0.v.coef, s0.vt.coef
    y0 = np.concatenate([u0.real.ravel(), u0.imag.ravel(), v0.ravel(), vt0.ravel()])
    y = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
    return (y[:m] + 1j * y[m : 2 * m]).reshape(g.shape), y[2 * m : 3 * m].reshape(g.shape)


@pytest.mark.parametrize(
    "params",
    [
        SystemParams(eps=0.5),
        SystemParams(eps=0.5, dealias=False),
        SystemParams(eps=0.5, yosida_n=8.0),
    ],
    ids=["dealiased", "nodal", "yosida"],
)
def test_picard_meets_its_contract_against_solve_ivp(params):
    # complex phi and psi1 != 0 on 7 x 5 modes over (0, pi) x (0, 2): the
    # oracle's distance to the reference, in H1 for u plus L2 for v, stays
    # within 1e-10, where the stopping rule leaves each of the 4 panels
    # within _PICARD_TOL = 1e-11 of its fixed point (measured 8.7e-12,
    # 8.9e-12 and 9.4e-12)
    g = make_grid(np.pi, 2.0, 7, 5)
    rng = np.random.default_rng(21)
    st = make_state(random_field(g, rng, "complex"), random_field(g, rng), random_field(g, rng))
    pic = picard_duhamel(st, 0.1, params, quad_nodes=64)
    u, v = ivp_reference(st, 0.1, params)
    du, dv = field_from_coef(g, pic.u.coef - u), field_from_coef(g, pic.v.coef - v)
    assert h1_norm(du) + sobolev_norm(dv, 0.0) <= 1e-10

def test_picard_panels_end_on_the_horizon():
    # panel k starts at t0 + k h and the last one ends at t0 + T, where a
    # running sum of h returned t = 1.0000000000000004 for T = 1 and
    # 0.7000000000000003 for T = 0.7 (u = e_11, v = vt = 0 on 8^2)
    st = mode_state(8, u_amp=1.0)
    for T in (1.0, 0.7):
        assert picard_duhamel(st, T, SystemParams()).t == T
    # the panels are counted as integrate counts its steps, so 2**53 panels
    # or more are refused at once: T = 1e300 used to march 4e301 panels.
    # The error names panels and the panel length h, capped at 0.025 here
    # (8^2 modes), not a step dt the caller never passed
    with pytest.raises(ValueError) as err:
        picard_duhamel(st, 1e300, SystemParams())
    assert str(err.value) == (
        "panel count T/h = 1e+300/0.025 = 4.000e+301 is not below 2**53, "
        "where a panel index stops being exact"
    )


class _Counted(Exception):
    pass


@pytest.mark.parametrize("T, quad_nodes, panels", [(0.025, 128, 1), (0.1, 256, 4)])
def test_picard_panel_counts_of_the_oracle_and_acceptance_inputs(monkeypatch, T, quad_nodes, panels):
    # the benchmark's oracle input (default 64^2 data, T = 0.025, 128 nodes)
    # takes 1 panel, and the acceptance suite's (T = 0.1, 256 nodes) 4; the
    # count is read as picard_duhamel forms it, and the call stops there
    counted = []

    def count(T, h, *names):
        counted.append(step_count(T, h, *names))
        raise _Counted

    step_count = dynamics._step_count
    monkeypatch.setattr(dynamics, "_step_count", count)
    cfg = RunConfig(T=T)
    with pytest.raises(_Counted):
        picard_duhamel(build_initial_state(cfg), T, build_params(cfg), quad_nodes=quad_nodes)
    assert counted == [panels]


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
    assert dynamics._panel_converged(residuals) is stops


def test_picard_contraction_estimate_bounds_the_fixed_point_distance(monkeypatch):
    # The default tol stops the panel on the estimate r_k theta/(1 - theta)
    # while r_k itself is still above tol, and the end state is within tol
    # of a run at tol = 1e-14 (measured 6.9e-12)
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=1.0)
    log = []
    pic = picard_duhamel(st, 0.02, params, quad_nodes=12, residual_log=log)
    assert log[-1] >= 1e-11
    monkeypatch.setattr(dynamics, "_PICARD_TOL", 1e-14)
    tight = picard_duhamel(st, 0.02, params, quad_nodes=12)
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


def plain_picard_panel(st, params, h, P):
    """One Picard panel (0, h) written out on a single level, without
    blocks or per-axis phases: the three-point exponential predictor at
    every node, then Jacobi sweeps whose quadrature sums run over whole node
    stacks until the oracle's stopping rule holds (at dynamics._PICARD_TOL), and the panel end from
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
    while not log or not dynamics._panel_converged(log):
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


def test_picard_residual_is_the_worst_node_of_every_row_block(monkeypatch):
    # A coupled panel whose sums run over grid-row blocks (10 rows leave the
    # last one partial) against the same iteration written without blocks:
    # the same residual, largest over all 17 nodes, in every sweep, and the
    # same panel end; tol = 1e-14 asks for a fourth sweep
    st = standard_state(10)
    assert st.grid.Nx % dynamics._GRID_ROWS != 0
    params = SystemParams(eps=0.5, dt=1.0)
    monkeypatch.setattr(dynamics, "_PICARD_TOL", 1e-14)
    log = []
    pic = picard_duhamel(st, 0.02, params, quad_nodes=17, residual_log=log)
    ref_log, ref_end = plain_picard_panel(st, params, 0.02, 17)
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
    pad = dynamics._Kernels(st.grid, params, None).prod_shape
    assert pad != st.grid.shape
    counts = count_transforms(monkeypatch)
    monkeypatch.setattr(dynamics, "_PICARD_TOL", 1e-14)
    for P, P_c, sweeps in [(8, 0, 4), (32, 16, 3)]:
        counts.clear()
        log = []
        picard_duhamel(st, 0.02, params, quad_nodes=P, residual_log=log)
        m = len(log)
        assert m >= sweeps
        n = m * P + P_c + 5
        assert counts == {pad: 3 * n, st.grid.shape: 2 * n}, P


def test_picard_two_level_start_keeps_the_fine_fixed_point(monkeypatch):
    # 32 nodes take a coarse sweep on 16 first; the fine sweeps then start
    # one sweep further on, and the panel converges to the same 32-node
    # fixed point as the single-level iteration (measured 9e-19 apart)
    st = standard_state(8)
    params = SystemParams(eps=1.0, dt=1.0)
    monkeypatch.setattr(dynamics, "_PICARD_TOL", 1e-14)
    log = []
    pic = picard_duhamel(st, 0.02, params, quad_nodes=32, residual_log=log)
    ref_log, ref_end = plain_picard_panel(st, params, 0.02, 32)
    assert len(log) == len(ref_log) - 1
    for got, ref in zip((pic.u, pic.v, pic.vt), ref_end):
        assert np.max(np.abs(got.coef - ref)) < 1e-13


def test_picard_default_preset_converges_in_two_fine_sweeps(monkeypatch):
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
    monkeypatch.setattr(dynamics, "_PICARD_TOL", 1e-15)
    tight = picard_duhamel(state0, cfg.T, params, quad_nodes=128)
    assert difference_metric(pic, tight) < 1e-11


@pytest.mark.parametrize(
    "case, P, levels",
    [("8^2", 12, {12}), ("8^2", 17, {17}), ("8^2", 32, {32, 16}), ("17x4", 34, {34, 17})],
)
def test_picard_node_tables_match_the_wave_rotation(monkeypatch, case, P, levels):
    # The oracle keeps the wave phase exp(-i s w) at the first ceil(n/2)
    # nodes of each level and mirrors the rest a block of grid rows at a
    # time.  Every phase a sweep or the predictor reads comes from _mirror
    # and must equal free_flow's at every node: even and odd P on one level,
    # and with a coarse level of 16 nodes, and of 17 nodes on 17 x 4 modes
    # over (0, pi/4) x (0, pi) (lam_max h = 106.7 asks for 17), where
    # eps = 0 leaves omega up to 68.  The first half is free_flow's own
    # table; the mirrored half measured within 1.75 eps of cos(s w) and
    # 1.9 eps h w of sin(s w), h w bounding s w on a panel (the bound 4 eps h
    # on sinc(s w) = sin(s w)/w that the real tables were held to).
    if case == "8^2":
        st, T, params = standard_state(8), 0.02, SystemParams(eps=0.5, dt=1.0)
    else:
        g = make_grid(np.pi / 4, np.pi, 17, 4)
        rng = np.random.default_rng(3)
        st = make_state(
            random_field(g, rng, "complex"), random_field(g, rng), random_field(g, rng)
        )
        T, params = 0.023, SystemParams(eps=0.0, dt=1.0)
    ker = dynamics._Kernels(st.grid, params, None)
    eps = np.finfo(float).eps
    mirror = dynamics._mirror
    rows_seen: dict[int, set] = {}

    def checked(lv, wave_h, rows, out):
        phases = mirror(lv, wave_h, rows, out)
        exact = ker.free_flow(lv.s)[1][:, rows]
        m = len(lv.wave)
        assert np.array_equal(phases[:m], exact[:m])
        h = float(lv.s[0, 0, 0] + lv.s[-1, 0, 0])
        err = phases - exact
        assert np.max(np.abs(err.real)) <= 4 * eps
        assert np.max(np.abs(err.imag) / (h * ker.w[rows])) <= 4 * eps
        rows_seen.setdefault(len(lv.s), set()).update(range(st.grid.Nx)[rows])
        return phases

    monkeypatch.setattr(dynamics, "_mirror", checked)
    picard_duhamel(st, T, params, quad_nodes=P)
    assert rows_seen == {n: set(range(st.grid.Nx)) for n in levels}


def test_picard_peak_memory_on_the_oracle_input():
    # The default 64^2 data with 128 nodes, the benchmark's oracle input:
    # the stacks take 56 B per node-mode entry, and the traced peak of one
    # call measured 61.2 B with blocks of 3 grid rows (62.5 B with the real
    # cos(s w) and sinc(s w) tables at half the nodes, 71.4 B with whole
    # ones).
    cfg = RunConfig(T=0.025)
    params = build_params(cfg)
    state0 = build_initial_state(cfg)
    picard_duhamel(state0, cfg.T, params, quad_nodes=128)  # fills the transform caches
    tracemalloc.start()
    try:
        picard_duhamel(state0, cfg.T, params, quad_nodes=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (128 * cfg.nx * cfg.ny) < 64


def test_picard_peak_memory_per_node_mode_entry():
    # The node stacks take 56 B per node-mode entry: the complex iterates u
    # and P(v, u), the real iterates v = Re z and omega W(u), and the wave
    # phase exp(-i s w) at half the nodes.  On 24 x 20 modes with 64 nodes,
    # which start on a coarse level of 16 nodes, the traced peak of one
    # call, block temporaries and products included, measured 73.0 B (74.5
    # B with real cos(s w) and sinc(s w) tables at half the nodes, 85.4 B
    # with whole ones); storing the phases exp(i lam s) and the phase
    # products as stacks too measured 121 B.
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
    # Two panels of 0.02, on the standard state and on 10 x 6 modes over
    # (0, pi) x (0, 2), where the per-axis phase factors differ in length
    # and in eigenvalues and the 10 grid rows end in a partial block
    g = make_grid(np.pi, 2.0, 10, 6)
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
