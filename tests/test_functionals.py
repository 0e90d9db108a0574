"""Scalar functionals: conserved quantities, Gagliardo-Nirenberg machinery,
and the explicit envelope constants."""

import math
import warnings

import numpy as np
import pytest

from conftest import count_transforms, monitor_row, random_field
from sibsim import experiments, functionals
from sibsim.config import RunConfig, build_params
from sibsim.dynamics import State, SystemParams, _Kernels, integrate, make_state
from sibsim.functionals import (
    SERIES_COLUMNS,
    _cube,
    DataNorms,
    EnvelopeConstants,
    RunMonitor,
    charge,
    default_gn_constant,
    difference_metric,
    energy,
    envelope_constants,
    envelope_h1,
    estimate_gn_constant,
    gn_quotient,
    h1_envelope_lhs,
    small_envelope_lhs,
)
from sibsim.grids import (
    analyze,
    coef_to_values,
    field_from_coef,
    h1_norm,
    l4_norm,
    make_grid,
    sobolev_norm,
    values_to_coef,
)


def sine_state(N: int = 32, with_v: bool = True) -> State:
    g = make_grid(np.pi, np.pi, N, N)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    s = np.sin(X) * np.sin(Y)
    zero = analyze(g, np.zeros_like(s))
    return make_state(
        analyze(g, s.astype(complex)),
        analyze(g, s) if with_v else zero,
        zero,
    )


def mode_state(N: int = 8, u=0.0, v=0.0, vt=0.0, t: float = 0.0) -> State:
    g = make_grid(np.pi, np.pi, N, N)
    def one(amp, dtype=float):
        c = np.zeros((N, N), dtype=dtype)
        c[0, 0] = amp
        return field_from_coef(g, c)
    return make_state(one(u, complex), one(v), one(vt), t)


def monitor_with_c0(st: State, c0: float) -> RunMonitor:
    """A monitor of `st` with a given C0 in place of the stored one."""
    dn = DataNorms.from_state(st)
    return RunMonitor(dn, envelope_constants(dn, c0), st.t)


# ---------------------------------------------------------------------------
# charge and energies


def test_charge_of_sine_data():
    assert charge(sine_state()) == pytest.approx(np.pi**2 / 4, rel=1e-12)


def test_energy_without_coupling_term():
    # v = vt = 0 leaves only the exact coefficient-space gradient term
    st = sine_state(with_v=False)
    assert energy(st, SystemParams(eps=1.0)) == pytest.approx(np.pi**2 / 2, rel=1e-12)


def test_energy_with_coupling():
    # grad + quadratic + <v, |u|^2> = pi^2/2 + pi^2/8 + 16/9; sin^3 is not
    # band-limited, so the nodal coupling quadrature deviates from the
    # closed form: 4.7e-7 relative at N=32, 3.1e-8 at N=64
    target = np.pi**2 / 2 + np.pi**2 / 8 + 16.0 / 9.0
    params = SystemParams(eps=1.0)
    assert energy(sine_state(32), params) == pytest.approx(target, rel=1e-6)
    assert energy(sine_state(64), params) == pytest.approx(target, rel=1e-7)


def test_energy_eps_weighting():
    st = mode_state(v=0.0, vt=1.0)
    lam = 2.0
    for eps in (0.0, 0.5, 1.0):
        assert energy(st, SystemParams(eps=eps)) == pytest.approx(
            0.5 * (1.0 / lam + eps), rel=1e-14
        )
    with pytest.raises(ValueError):
        energy(st, SystemParams(eps=1.5))


def test_energy_of_a_plain_state_is_the_nodal_formula():
    # unregularized, the coupling is <v, |u|^2> with the intensity sampled
    # on the collocation nodes, the stepper's quadrature, bit for bit; the
    # quadratic part is the grid norms squared
    g = make_grid(2 * np.pi, np.pi, 12, 8)
    rng = np.random.default_rng(4)
    st = make_state(
        random_field(g, rng, "complex"), random_field(g, rng), random_field(g, rng)
    )
    u, v, vt = st.u, st.v, st.vt
    vals = coef_to_values(g, u.coef)
    intensity = values_to_coef(g, (vals * vals.conj()).real)
    for eps in (0.0, 0.5):
        written_out = float(
            sobolev_norm(u, 1.0) ** 2
            + 0.5
            * (
                sobolev_norm(v, 0.0) ** 2
                + sobolev_norm(vt, -1.0) ** 2
                + eps * sobolev_norm(vt, 0.0) ** 2
            )
            + np.sum(v.coef * intensity)
        )
        assert energy(st, SystemParams(eps=eps)) == written_out


def test_yosida_run_reports_the_energy_it_conserves():
    # with yosida_n the coupling term is <v, J|Ju|^2>, the kernel's own wave
    # source; its drift is the splitting error, order 2 in dt (measured
    # 3.88e-9 and 9.70e-10), where the unwrapped <v, |u|^2> drifts by a
    # dt-independent 1e-2
    def drift(dt):
        cfg = RunConfig(nx=16, ny=16, yosida_n=8, dt=dt, T=0.5)
        params = build_params(cfg)
        state0, monitor = experiments._start(cfg, params, {})
        series = integrate(state0, cfg.T, params, cfg.monitor_stride, monitor).series
        return experiments._energy_drift(series)

    coarse, fine = drift(2e-3), drift(1e-3)
    assert coarse < 1e-8
    assert 3.5 < coarse / fine < 4.5


# ---------------------------------------------------------------------------
# difference metric


def test_difference_metric_components():
    delta = 0.3
    a = mode_state(u=1.0 + delta, v=1.0, vt=1.0)
    b = mode_state(u=1.0, v=1.0, vt=1.0)
    # only u differs: H1 weight sqrt(1 + lam) = sqrt(3)
    assert difference_metric(a, b) == pytest.approx(delta * np.sqrt(3), rel=1e-12)
    c = mode_state(u=1.0, v=1.0, vt=1.0 + delta)
    # only vt differs: weight lam^(-1/2) = 1/sqrt(2)
    assert difference_metric(c, b) == pytest.approx(delta / np.sqrt(2), rel=1e-12)
    assert difference_metric(b, b) == 0.0


def test_difference_metric_rejects_mismatch():
    a = mode_state(u=1.0)
    b = mode_state(u=1.0, t=0.5)
    with pytest.raises(ValueError):
        difference_metric(a, b)
    other = sine_state(16)
    with pytest.raises(ValueError):
        difference_metric(a, State(other.u, other.v, other.vt, 0.0))


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg


def test_gn_quotient_of_sine_mode():
    # ||u||_4^2 / (||u||_2 ||grad u||_2) = (3 pi/8) / ((pi/2)(pi sqrt(2)/2))
    st = sine_state(16)
    target = 3.0 * np.sqrt(2.0) / (4.0 * np.pi)
    assert gn_quotient(st.u) == pytest.approx(target, rel=1e-12)


def test_gn_quotient_scale_invariant():
    st = sine_state(16)
    q = gn_quotient(st.u)
    assert gn_quotient(field_from_coef(st.grid, 17.3 * st.u.coef)) == pytest.approx(q, rel=1e-12)


def test_gn_quotient_zero_field():
    g = make_grid(np.pi, np.pi, 8, 8)
    with pytest.raises(ValueError):
        gn_quotient(field_from_coef(g, np.zeros(g.shape, dtype=complex)))


def test_gn_quotient_below_sharp_constant():
    # sqrt(2)/||Q||_2 = 0.413433...; zero-extension embeds every trial
    # function into the whole-plane inequality
    rng = np.random.default_rng(21)
    g = make_grid(np.pi, np.pi, 24, 24)
    for _ in range(50):
        coef = rng.standard_normal(g.shape) * np.exp(-0.02 * g.lam)
        q = gn_quotient(field_from_coef(g, coef))
        assert q < 0.413434


def test_estimator_monotone_ascent(monkeypatch):
    g = make_grid(2 * np.pi, 2 * np.pi, 32, 32)
    with warnings.catch_warnings(), monkeypatch.context() as m:
        warnings.simplefilter("ignore", RuntimeWarning)
        m.setattr(functionals, "_GN_MAX_ITER", 1)
        first = estimate_gn_constant(g)
    converged = estimate_gn_constant(g)
    assert first <= converged + 1e-15
    assert converged < 0.413434


def test_estimator_improves_with_resolution():
    # measured 0.37211 on 8^2 and 0.41285 on 32^2 over (0, 2pi)^2
    j8 = estimate_gn_constant(make_grid(2 * np.pi, 2 * np.pi, 8, 8))
    j32 = estimate_gn_constant(make_grid(2 * np.pi, 2 * np.pi, 32, 32))
    assert j8 < j32 < 0.413434
    assert j8 > 0.35


@pytest.mark.parametrize("shape, lx, ly", [((16, 16), np.pi, np.pi), ((12, 9), 2 * np.pi, 3.0)])
def test_cube_interpolates_the_cube_on_the_nodes(shape, lx, ly):
    # the band field through the node values of c^3: at the collocation
    # nodes it takes those values, to round-off
    g = make_grid(lx, ly, *shape)
    c = random_field(g, np.random.default_rng(3)).coef
    cv = coef_to_values(g, c)
    cube = coef_to_values(g, _cube(g, c))
    assert np.max(np.abs(cube - cv**3)) < 1e-13 * np.max(np.abs(cv)) ** 3


def test_estimator_iteration_makes_2_band_and_1_refined_transform(monkeypatch):
    # on the reference grid of REFERENCE_C0: one band analysis of the
    # starting bump, its quotient at 2N, then per iteration the cube's
    # synthesis and analysis on the nodes and the new quotient's 1 at 2N
    g = make_grid(2 * np.pi, 2 * np.pi, 128, 128)
    iterations = []
    cube = functionals._cube

    def counted_cube(grid, c):
        iterations.append(None)
        return cube(grid, c)

    monkeypatch.setattr(functionals, "_cube", counted_cube)
    counts = count_transforms(monkeypatch)
    estimate_gn_constant(g)
    it = len(iterations)
    assert counts == {(128, 128): 1 + 2 * it, (256, 256): 1 + it}
    assert sum(counts.values()) == 59


def test_default_gn_constant_value_and_cache():
    c0 = default_gn_constant()
    assert c0 == pytest.approx(0.4134332757, rel=1e-6)
    assert 0.412 < c0 < 0.413434
    assert default_gn_constant() == c0


def test_stored_c0_is_the_reference_grid_estimate():
    # REFERENCE_C0 re-derived from scratch: the estimator's lower bound on
    # the 128^2 reference grid, below the sharp constant 0.41343...
    fresh = estimate_gn_constant(make_grid(2 * np.pi, 2 * np.pi, 128, 128))
    assert functionals.REFERENCE_C0 == pytest.approx(fresh, rel=1e-12, abs=0.0)
    assert functionals.REFERENCE_C0 < 0.413434


# ---------------------------------------------------------------------------
# envelope constants


def test_data_norms_of_standard_data():
    dn = DataNorms.from_state(sine_state(64))
    assert dn.l2_phi == pytest.approx(np.pi / 2, rel=1e-12)
    assert dn.grad_phi == pytest.approx(np.pi / np.sqrt(2), rel=1e-12)
    assert dn.l2_psi0 == pytest.approx(np.pi / 2, rel=1e-12)
    assert dn.l2_psi1 == 0.0
    assert dn.neg_half_psi1 == 0.0


def test_data_norms_validation():
    with pytest.raises(ValueError):
        DataNorms(-1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        DataNorms(math.nan, 0.0, 0.0, 0.0, 0.0)


def test_c3_reduces_to_gradient_term_for_phi_only_data():
    dn = DataNorms.from_state(sine_state(32, with_v=False))
    ec = envelope_constants(dn, 0.4135)
    assert ec.c3 == pytest.approx(np.pi**2, rel=1e-12)


def test_envelope_constants_frozen_values():
    # standard data (phi = psi0 = sin x sin y, psi1 = 0) with c0 = 0.4,
    # cross-checked against independent hand arithmetic
    dn = DataNorms.from_state(sine_state(64))
    ec = envelope_constants(dn, 0.4)
    assert ec.c3 == pytest.approx(15.503571261700355, rel=1e-12)
    assert ec.c6 == pytest.approx(15.045530816852439, rel=1e-12)


def test_envelope_constants_zero_data():
    dn = DataNorms(0.0, 0.0, 0.0, 0.0, 0.0)
    ec = envelope_constants(dn, 0.4135)
    assert ec.c3 == 0.0
    assert ec.c6 == 0.0


def test_smallness_failure_disables_c6():
    dn = DataNorms(4.0, 1.0, 1.0, 0.0, 0.0)
    ec = envelope_constants(dn, 0.4135)  # 0.4135 * 4 > sqrt(2)
    assert ec.c6 is None


def test_envelope_h1_growth():
    dn = DataNorms.from_state(sine_state(32))
    ec = envelope_constants(dn, 0.4)
    assert envelope_h1(0.0, ec, dn) == pytest.approx(ec.c3, rel=1e-15)
    values = [envelope_h1(t, ec, dn) for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        envelope_h1(-0.1, ec, dn)


def test_envelope_h1_saturates_instead_of_raising():
    dn = DataNorms(1e150, 1.0, 0.0, 0.0, 0.0)
    ec = envelope_constants(dn, 0.4)
    assert envelope_h1(1.0, ec, dn) == math.inf


def test_envelope_lhs_values():
    # monitor columns: ||grad u||^2 = 8, ||v||^2 = 9, ||vt||^2 = 1 and
    # ||(-Lap)^{-1/2} vt||^2 = 1/2, for one sample and for a series
    row = {"h1_u": 3.0, "charge": 1.0, "l2_v": 3.0, "l2_vt": 1.0, "hm_half_vt": 0.5**0.5}
    assert h1_envelope_lhs(row) == pytest.approx(8.0 + 9.0 + 1.0 + 0.5, rel=1e-14)
    eps = 0.5
    expected_small = 8.0 + 0.5 * (9.0 + 0.5 + eps * 1.0)
    assert small_envelope_lhs(row, eps) == pytest.approx(expected_small, rel=1e-14)
    series = {key: np.array([val, 0.0]) for key, val in row.items()}
    assert h1_envelope_lhs(series) == pytest.approx([18.5, 0.0], rel=1e-14)


def test_negative_order_norms_of_mode_state():
    # (1, 1) mode, lam = 2: ||(-Lap)^{-1/2} c e_11|| = |c| / sqrt(lam)
    st = mode_state(vt=-3.0)
    lam = 2.0
    assert DataNorms.from_state(st).neg_half_psi1 == pytest.approx(3.0 / np.sqrt(lam), rel=1e-14)
    row = monitor_row(monitor_with_c0(st, 0.4), st, SystemParams(eps=1.0))
    assert row["hm_half_vt"] == pytest.approx(3.0 / np.sqrt(lam), rel=1e-14)


def test_envelope_lhs_of_monitor_row_uses_inverse_gradient_norm():
    st = mode_state(u=2.0, v=3.0, vt=1.0)
    lam = 2.0
    row = monitor_row(monitor_with_c0(st, 0.4), st, SystemParams(eps=1.0))
    assert h1_envelope_lhs(row) == pytest.approx(lam * 4.0 + 9.0 + 1.0 + 1.0 / lam, rel=1e-13)
    eps = 0.5
    expected_small = lam * 4.0 + 0.5 * (9.0 + 1.0 / lam + eps * 1.0)
    assert small_envelope_lhs(row, eps) == pytest.approx(expected_small, rel=1e-13)


def test_envelope_constants_validation():
    with pytest.raises(ValueError):
        EnvelopeConstants(c0=0.0, c3=1.0, c6=None)


# ---------------------------------------------------------------------------
# monitor rows


def test_monitor_row_matches_column_order():
    st = sine_state(16)
    row = monitor_row(monitor_with_c0(st, 0.4), st, SystemParams(eps=1.0))
    # the columns derived from the state that an assertion reads, and
    # nothing else; series.csv adds envelope_h1, a function of t alone
    assert tuple(row) == (
        "t", "charge", "energy_eps", "h1_u", "l2_v", "l2_vt", "hm_half_vt",
        "gn_quotient",
    )
    assert SERIES_COLUMNS == tuple(row) + ("envelope_h1",)
    assert row["t"] == 0.0
    assert row["charge"] == pytest.approx(np.pi**2 / 4, rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_monitor_row_agrees_with_the_standalone_functionals(eps):
    # the row squares each field's coefficients once and takes every column
    # from those squares; the functionals form each norm on their own
    g = make_grid(np.pi, 2.0, 16, 16)
    rng = np.random.default_rng(31)
    u = field_from_coef(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    v, vt = (field_from_coef(g, rng.standard_normal(g.shape)) for _ in range(2))
    st = make_state(u, v, vt, 0.25)
    params = SystemParams(eps=eps)
    row = monitor_row(monitor_with_c0(st, 0.4), st, params)
    expected = {
        "t": 0.25,
        "charge": charge(st),
        "energy_eps": energy(st, params),
        "h1_u": h1_norm(u),
        "l2_v": sobolev_norm(v, 0.0),
        "l2_vt": sobolev_norm(vt, 0.0),
        "hm_half_vt": sobolev_norm(vt, -1.0),
        "gn_quotient": gn_quotient(u),
    }
    assert list(row) == list(expected)
    for key, want in expected.items():
        assert row[key] == pytest.approx(want, rel=1e-14, abs=0.0), key
    # the trapezoid sum of |u|^4 on the 2x-refined nodes, as a plain sum
    shape = (2 * g.Nx, 2 * g.Ny)
    sq = np.abs(coef_to_values(g, u.coef, shape)) ** 2
    hx, hy = g.Lx / (shape[0] + 1), g.Ly / (shape[1] + 1)
    assert l4_norm(u) == pytest.approx((np.sum(sq**2) * hx * hy) ** 0.25, rel=1e-14, abs=0.0)


def test_monitor_row_zero_field_and_missing_c6():
    g = make_grid(np.pi, np.pi, 8, 8)
    zero = make_state(
        field_from_coef(g, np.zeros(g.shape, dtype=complex)),
        field_from_coef(g, np.zeros(g.shape)),
        field_from_coef(g, np.zeros(g.shape)),
    )
    monitor = monitor_with_c0(zero, 0.4)
    row = monitor_row(monitor, zero, SystemParams(eps=1.0))
    assert row["gn_quotient"] == 0.0
    # a field whose L2 norm underflows to 0 has no quotient either
    tiny = mode_state(u=1e-170)
    assert sobolev_norm(tiny.u, 0.0) == 0.0
    assert monitor_row(monitor, tiny, SystemParams(eps=1.0))["gn_quotient"] == 0.0

    big = mode_state(u=4.0)
    monitor_big = monitor_with_c0(big, 0.4135)
    assert monitor_big.ec.c6 is None
    # without C6 the row stays finite: integrate's blow-up check reads every column
    row_big = monitor_row(monitor_big, big, SystemParams(eps=1.0))
    assert all(math.isfinite(val) for val in row_big.values())
