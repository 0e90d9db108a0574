"""Time integration of the coupled Schrodinger / improved-Boussinesq system.

The semi-discrete system on the retained sine band is

    i u_t + Laplacian u = P(v, u)
    v_tt = -omega_eps^2 (v + W(u)),      omega_eps^2 = lam / (1 + eps*lam)

with P(v, u) the (optionally Yosida-wrapped) product v*u and W(u) the
matching |u|^2.  eps = 1 is the improved-Boussinesq wave equation, eps = 0
the Zakharov limit; the wave substep is exact for every eps because the
frequencies are handled spectrally.

Two solvers:

* `strang_step` / `integrate`: second-order symmetric splitting
  (half wave, full Schrodinger, half wave), the production path.
* `picard_duhamel`: fixed-point iteration on the variation-of-constants
  form of the system, used as a cross-validation oracle.

The splitting evaluates its unregularized nonlinearities pointwise on the
collocation nodes: the potential phase is then exactly unimodular, so
charge is conserved to round-off, and the wave source shares the
quadrature of the energy's coupling term, which keeps the energy drift a
clean O(dt^2).  Products whose purpose is a band projection (the
Yosida-wrapped terms and the Duhamel right-hand side P(v, u)) go through
the padded grid when dealiasing is on; routing the stepper's own
nonlinearities through it instead leaves a dt-independent floor in the
energy drift and a slow leak in the charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .grids import (
    Field,
    Grid2D,
    coef_product,
    coef_to_values,
    field_from_coef,
    h1_norm,
    intensity_coef,
    sobolev_norm,
    values_to_coef,
)

__all__ = [
    "SystemParams",
    "State",
    "TrajectoryRecord",
    "BlowupError",
    "PicardDivergenceError",
    "make_state",
    "prepare_initial_state",
    "dudt",
    "wave_substep",
    "schrodinger_substep",
    "strang_step",
    "integrate",
    "picard_duhamel",
]


class BlowupError(RuntimeError):
    """A monitored quantity became non-finite during integration."""

    def __init__(self, t_last: float):
        super().__init__(f"non-finite state detected; last finite time t = {t_last}")
        self.t_last = t_last


class PicardDivergenceError(RuntimeError):
    """The Duhamel fixed-point iteration did not reach tolerance."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"Picard iteration did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SystemParams:
    """Model and discretization switches.

    Attributes:
        eps: wave-regularization strength in [0, 1]; 1 recovers the
            improved-Boussinesq system, 0 the Zakharov system.
        dt: time step used by strang_step and integrate.
        yosida_n: optional Yosida index n; when set, every nonlinearity is
            evaluated as J_n(J_n v * J_n u) (and J_n |J_n u|^2 in the wave
            source), mirroring the regularized system.
        regularize_data: when yosida_n is set, also smooth the initial data
            with J_n before evolving.
        dealias: evaluate band-projecting products (Yosida terms and the
            Duhamel right-hand side) on the 3/2 zero-padded grid; the
            stepper's own nodal nonlinearities are unaffected.
        coupling: test hook; False drops the nonlinear coupling entirely,
            making both subflows exact.
    """

    eps: float = 1.0
    dt: float = 1e-3
    yosida_n: float | None = None
    regularize_data: bool = True
    dealias: bool = True
    coupling: bool = True

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must lie in [0, 1], got {self.eps}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.yosida_n is not None and not self.yosida_n >= 1:
            raise ValueError(f"yosida_n must satisfy n >= 1, got {self.yosida_n}")


@dataclass(frozen=True)
class State:
    """Solution snapshot (u complex, v and vt real) at time t."""

    u: Field
    v: Field
    vt: Field
    t: float = 0.0

    @property
    def grid(self) -> Grid2D:
        return self.u.grid


def make_state(u: Field, v: Field, vt: Field, t: float = 0.0) -> State:
    """Validate kinds and grids and assemble a State."""
    if not (u.grid.compatible(v.grid) and u.grid.compatible(vt.grid)):
        raise ValueError("state components live on different grids")
    if v.kind != "real" or vt.kind != "real":
        raise ValueError("v and vt must be real-kind fields")
    u = field_from_coef(u.grid, u.coef.astype(np.complex128, copy=False))
    return State(u, v, vt, float(t))


def _state_from_coef(grid: Grid2D, u, v, vt, t: float) -> State:
    return State(
        field_from_coef(grid, u), field_from_coef(grid, v), field_from_coef(grid, vt), t
    )


@dataclass
class TrajectoryRecord:
    """Diagnostics sampled along an integrate() run.

    series maps column names (same order as the run CSV) to arrays, one
    entry per sample; checkpoints maps requested times to states.
    """

    times: np.ndarray
    series: dict[str, np.ndarray]
    final_state: State
    checkpoints: dict[float, State]

    def column(self, name: str) -> np.ndarray:
        return self.series[name]


# ---------------------------------------------------------------------------
# stepping kernels
#
# The stepper works on raw coefficient arrays; Field/State wrappers are
# built only at monitor samples.


class _Kernels:
    """Per-(grid, params, dt) precomputed symbols and product closures.

    The one place the stepping symbols are written; each is a function of
    -Laplacian, diagonal on sine coefficients, and `sibsim check` asserts
    its identities and inequalities on these arrays:

        jsym       Yosida J_n = (1 - Laplacian/n)^(-1), symbol 1/(1 + lam/n),
                   None when params.yosida_n is unset; exactly 0 < J <= 1,
                   sqrt(lam) J <= sqrt(n) and sqrt(lam) J <= sqrt(lam)
        w2, w      omega_eps^2 = lam/(1 + eps*lam) and omega_eps; -w2 is
                   the wave forcing symbol of the Duhamel form
        cos_half, sinc_half, wsin_half
                   cos, sin/omega and omega*sin of (dt/2) omega: the exact
                   half-step flow of v'' = -omega^2 v
        phase_half exp(i dt/2 Laplacian), symbol exp(-i dt/2 lam)
    """

    def __init__(self, grid: Grid2D, params: SystemParams, dt: float):
        self.grid = grid
        self.params = params
        self.dt = dt
        lam = grid.lam
        n = params.yosida_n
        self.jsym = 1.0 / (1.0 + lam / n) if n is not None else None
        w2 = lam / (1.0 + params.eps * lam)
        w = np.sqrt(w2)
        self.w = w
        self.w2 = w2
        # half-step wave rotation
        self.cos_half = np.cos(0.5 * dt * w)
        sin_half = np.sin(0.5 * dt * w)
        self.sinc_half = sin_half / w
        self.wsin_half = w * sin_half
        # half-step free Schrodinger phase
        self.phase_half = np.exp(-0.5j * dt * lam)
        self.prod_shape = grid.pad_shape if params.dealias else grid.shape

    # -- quadratic terms ----------------------------------------------------

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return coef_product(self.grid, a, b, self.prod_shape)

    def wave_source(self, u: np.ndarray) -> np.ndarray:
        """|u|^2, Yosida-wrapped when configured: J |J u|^2.

        Unregularized, the intensity is sampled on the collocation nodes,
        the same quadrature the potential phase uses; the splitting then
        conserves the reported energy to O(dt^2) instead of drifting onto a
        dt-independent quadrature-mismatch floor.
        """
        if not self.params.coupling:
            return np.zeros(self.grid.shape)
        if self.jsym is None:
            return intensity_coef(self.grid, u)
        return self.jsym * intensity_coef(self.grid, self.jsym * u, self.prod_shape)

    def coupled_product(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """P(v, u): J(Jv * Ju) when regularized, else the plain product."""
        if not self.params.coupling:
            return np.zeros(self.grid.shape, dtype=u.dtype)
        if self.jsym is None:
            return self.product(v, u)
        return self.jsym * self.product(self.jsym * v, self.jsym * u)

    # -- substeps -----------------------------------------------------------

    def wave_half(self, v, vt, f):
        """Exact flow over dt/2 of v'' = -omega^2 (v + f), f frozen."""
        z = v + f
        v1 = self.cos_half * z + self.sinc_half * vt - f
        vt1 = -self.wsin_half * z + self.cos_half * vt
        return v1, vt1

    def potential_flow(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Flow over dt of i u_t = P(v, u) with v frozen.

        Unregularized, this is a pointwise unimodular phase on the
        collocation nodes; the orthonormal transform then makes the substep
        exactly unitary, so it must not go through the padded product grid
        (truncating from there would leak mass out of the band).
        Regularized, the generator is I -> J(Jv * J .), which is no longer a
        nodal multiplier; its exponential is summed as a Taylor series until
        the term norm falls below round-off, and is unitary because the
        generator is self-adjoint on the band.
        """
        if not self.params.coupling:
            return u
        dt = self.dt
        if self.jsym is None:
            vv = coef_to_values(self.grid, v)
            uu = coef_to_values(self.grid, u)
            return values_to_coef(self.grid, np.exp(-1j * dt * vv) * uu)
        jv = self.jsym * v
        out = u.copy()
        term = u
        norm0 = np.linalg.norm(u)
        for k in range(1, 40):
            term = (-1j * dt / k) * self.jsym * self.product(jv, self.jsym * term)
            out += term
            if np.linalg.norm(term) <= 1e-17 * norm0:
                break
        return out

    def step(self, u, v, vt):
        f = self.wave_source(u)
        v, vt = self.wave_half(v, vt, f)
        u = self.phase_half * u
        u = self.potential_flow(u, v)
        u = self.phase_half * u
        f = self.wave_source(u)
        v, vt = self.wave_half(v, vt, f)
        return u, v, vt


def prepare_initial_state(state: State, params: SystemParams) -> State:
    """Data as the flow actually sees them: Yosida-smoothed when yosida_n
    is set and regularize_data is on, untouched otherwise."""
    if params.yosida_n is None or not params.regularize_data:
        return state
    j = _Kernels(state.grid, params, params.dt).jsym
    return _state_from_coef(
        state.grid, j * state.u.coef, j * state.v.coef, j * state.vt.coef, state.t
    )


# ---------------------------------------------------------------------------
# public operations


def dudt(state: State, params: SystemParams) -> Field:
    """Time derivative of u:  i (Laplacian u - P(v, u))."""
    ker = _Kernels(state.grid, params, 0.0)
    p = ker.coupled_product(state.v.coef, state.u.coef.astype(np.complex128))
    return field_from_coef(state.grid, 1j * (-state.grid.lam * state.u.coef - p))


def wave_substep(v: Field, vt: Field, f: Field, dt: float, eps: float) -> tuple[Field, Field]:
    """Exact variation-of-constants update of v'' = -omega_eps^2 (v + f):
    the stepper's wave half step, taken over dt.

    The per-mode energy omega^2 |v + f|^2 + |vt|^2 is invariant.
    """
    if not (v.grid.compatible(vt.grid) and v.grid.compatible(f.grid)):
        raise ValueError("fields live on different grids")
    ker = _Kernels(v.grid, SystemParams(eps=eps), 2 * dt)
    v1, vt1 = ker.wave_half(v.coef, vt.coef, f.coef)
    return field_from_coef(v.grid, v1), field_from_coef(v.grid, vt1)


def schrodinger_substep(
    u: Field, v_frozen: Field, dt: float, params: SystemParams | None = None
) -> Field:
    """Kinetic-potential-kinetic update over dt with the potential frozen:
    exp(i dt/2 Laplacian) Phi exp(i dt/2 Laplacian), Phi the potential flow.

    params controls dealiasing and Yosida wrapping of the potential; omitted
    means dealiased and unregularized.
    """
    if not u.grid.compatible(v_frozen.grid):
        raise ValueError("fields live on different grids")
    if params is None:
        params = SystemParams()
    ker = _Kernels(u.grid, params, dt)
    w = ker.phase_half * u.coef.astype(np.complex128)
    w = ker.potential_flow(w, v_frozen.coef)
    return field_from_coef(u.grid, ker.phase_half * w)


def strang_step(state: State, params: SystemParams) -> State:
    """One symmetric splitting step of length params.dt: half wave, full
    Schrodinger with v at the half step, half wave (sources refreshed from
    the updated u)."""
    ker = _Kernels(state.grid, params, params.dt)
    u, v, vt = ker.step(state.u.coef.astype(np.complex128), state.v.coef, state.vt.coef)
    return _state_from_coef(state.grid, u, v, vt, state.t + params.dt)


def integrate(
    state0: State,
    T: float,
    params: SystemParams,
    monitor_stride: int = 10,
    monitor=None,
    checkpoint_times: tuple[float, ...] = (),
) -> TrajectoryRecord:
    """March the splitting from state0.t over a horizon T with dt=params.dt.

    The final step is shortened to land exactly on state0.t + T.
    Diagnostics are recorded at t0, every monitor_stride steps, and at the
    end; a non-finite sample aborts with BlowupError.

    Args:
        monitor: optional functionals.RunMonitor; when omitted it is built
            from state0 (data norms and envelope constants included).
        checkpoint_times: times whose nearest completed step's state is kept.
    """
    from . import functionals  # deferred to keep module layering acyclic

    dt = params.dt
    if T <= 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    if monitor_stride < 1:
        raise ValueError("monitor_stride must be >= 1")

    state = prepare_initial_state(state0, params)
    if monitor is None:
        monitor = functionals.RunMonitor.from_state(state)

    ker = _Kernels(state.grid, params, dt)
    n_steps = max(1, ceil(T / dt - 1e-12))
    t0 = state.t
    u, v, vt = state.u.coef.astype(np.complex128), state.v.coef, state.vt.coef

    rows: list[dict[str, float]] = []
    times: list[float] = []
    checkpoints: dict[float, State] = {}
    pending = sorted(checkpoint_times)

    def snapshot(t: float) -> State:
        return _state_from_coef(state.grid, u.copy(), v.copy(), vt.copy(), t)

    def record(t: float) -> None:
        snap = snapshot(t)
        row = monitor.row(snap, params)
        # envelope_small is NaN by design when the smallness hypothesis
        # fails, so it is excluded from the blow-up check
        if not all(
            np.isfinite(val) for key, val in row.items() if key != "envelope_small"
        ):
            raise BlowupError(times[-1] if times else t0)
        times.append(t)
        rows.append(row)

    record(t0)
    t = t0
    while pending and pending[0] <= t0 + 1e-12:
        checkpoints[pending.pop(0)] = snapshot(t0)
    for i in range(n_steps):
        step_dt = dt
        if i == n_steps - 1:
            step_dt = (t0 + T) - t
            if abs(step_dt - dt) > 1e-12 * dt:
                ker = _Kernels(state.grid, params, step_dt)
        u, v, vt = ker.step(u, v, vt)
        t = t0 + T if i == n_steps - 1 else t + dt
        if not np.isfinite(u[0, 0]):
            raise BlowupError(times[-1])
        if (i + 1) % monitor_stride == 0 or i == n_steps - 1:
            record(t)
        while pending and pending[0] <= t + 1e-12:
            checkpoints[pending.pop(0)] = snapshot(t)

    series = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    return TrajectoryRecord(np.array(times), series, snapshot(t), checkpoints)


# ---------------------------------------------------------------------------
# Duhamel-Picard oracle


def _integration_weights(nodes: np.ndarray) -> np.ndarray:
    """W[i, j] = integral over (0, nodes[i]) of the j-th Lagrange polynomial
    on `nodes`.  Built from a Legendre-series interpolant for stability."""
    P = len(nodes)
    W = np.empty((P, P))
    for j in range(P):
        e = np.zeros(P)
        e[j] = 1.0
        series = np.polynomial.legendre.Legendre.fit(nodes, e, deg=P - 1, domain=[0.0, nodes[-1]])
        anti = series.integ()
        W[:, j] = anti(nodes) - anti(0.0)
    return W


def picard_duhamel(
    state0: State,
    T: float,
    params: SystemParams,
    *,
    quad_nodes: int = 16,
    tol: float = 1e-11,
    max_iter: int = 80,
    residual_log: list[float] | None = None,
) -> State:
    """Solve the system on [t0, t0+T] by Picard iteration on its
    variation-of-constants form, marching over Gauss-Legendre panels.

    Writing the free flows as U(t) = exp(i t Laplacian) for u and
    (cos t omega, sin(t omega)/omega) for the wave pair, each panel solves

        u(t)  = U(t) u0 - i integral_0^t U(t - s) P(v, u)(s) ds
        v(t)  = cos(t w) v0 + sinc ... + integral_0^t sin((t-s)w)/w g(s) ds
        vt(t) = analytic t-derivative of the line above

    with g = -omega^2 W(u) the wave forcing, by iterating on trajectory
    values held at the panel's quadrature nodes.  vt uses the
    differentiated kernels directly rather than differencing v.

    Args:
        residual_log: optional list; per-sweep fixed-point residuals are
            appended to it (all panels concatenated).

    Raises:
        PicardDivergenceError: if a panel fails to reach tol within
            max_iter sweeps (residual measured in H1 for u and L2 for v, vt).
    """
    if quad_nodes < 2:
        raise ValueError("quad_nodes must be >= 2")
    if T <= 0:
        raise ValueError("horizon T must be positive")

    state = prepare_initial_state(state0, params)
    grid = state.grid
    lam = grid.lam
    ker = _Kernels(grid, params, 0.0)
    w = ker.w
    w2 = ker.w2

    # Panel length: the twisted u-integrand carries phases exp(i lam s), so
    # a panel must keep lam_max * h within what quad_nodes Lagrange points
    # resolve (about 6.5 radians per node); 0.025 caps the contraction size.
    lam_max = float(lam.max())
    h_cap = min(0.025, 6.5 * quad_nodes / lam_max)
    n_panels = max(1, ceil(T / h_cap - 1e-12))
    h = T / n_panels
    xg, wg = np.polynomial.legendre.leggauss(quad_nodes)
    nodes = (xg + 1.0) * 0.5 * h
    full_w = wg * 0.5 * h
    Wmat = _integration_weights(nodes)

    exp_m = [np.exp(1j * lam * s) for s in nodes]      # U(-s) symbols
    cos_s = [np.cos(w * s) for s in nodes]
    sin_s = [np.sin(w * s) for s in nodes]
    cos_h, sin_h = np.cos(w * h), np.sin(w * h)

    phi = state.u.coef.astype(np.complex128)
    ps0 = state.v.coef.copy()
    ps1 = state.vt.coef.copy()
    t_now = state.t

    for _ in range(n_panels):
        us = [phi.copy() for _ in range(quad_nodes)]
        vs = [ps0.copy() for _ in range(quad_nodes)]
        residual = np.inf
        for _sweep in range(max_iter):
            Ftw = [exp_m[i] * ker.coupled_product(vs[i], us[i]) for i in range(quad_nodes)]
            gs = [-w2 * ker.wave_source(us[i]) for i in range(quad_nodes)]
            Acos = [cos_s[i] * gs[i] for i in range(quad_nodes)]
            Bsin = [(sin_s[i] / w) * gs[i] for i in range(quad_nodes)]
            residual = 0.0
            for i in range(quad_nodes):
                Iu = sum(Wmat[i, j] * Ftw[j] for j in range(quad_nodes))
                Ia = sum(Wmat[i, j] * Acos[j] for j in range(quad_nodes))
                Ib = sum(Wmat[i, j] * Bsin[j] for j in range(quad_nodes))
                un = np.conj(exp_m[i]) * (phi - 1j * Iu)
                vn = cos_s[i] * ps0 + (sin_s[i] / w) * ps1 + (sin_s[i] / w) * Ia - cos_s[i] * Ib
                du = field_from_coef(grid, un - us[i])
                dv = field_from_coef(grid, vn - vs[i])
                residual = max(residual, h1_norm(du) + sobolev_norm(dv, 0.0))
                us[i] = un
                vs[i] = vn
            if residual_log is not None:
                residual_log.append(residual)
            if residual < tol:
                break
        else:
            raise PicardDivergenceError(residual, max_iter)

        # advance the panel data to its right edge with full-panel quadrature
        Ftw = [exp_m[i] * ker.coupled_product(vs[i], us[i]) for i in range(quad_nodes)]
        gs = [-w2 * ker.wave_source(us[i]) for i in range(quad_nodes)]
        Iu = sum(full_w[j] * Ftw[j] for j in range(quad_nodes))
        Ia = sum(full_w[j] * cos_s[j] * gs[j] for j in range(quad_nodes))
        Ib = sum(full_w[j] * (sin_s[j] / w) * gs[j] for j in range(quad_nodes))
        phi = np.exp(-1j * lam * h) * (phi - 1j * Iu)
        new_v = cos_h * ps0 + (sin_h / w) * ps1 + (sin_h / w) * Ia - cos_h * Ib
        ps1 = -(w * sin_h) * ps0 + cos_h * ps1 + cos_h * Ia + (w * sin_h) * Ib
        ps0 = new_v
        t_now += h

    return _state_from_coef(grid, phi, ps0, ps1, t_now)
