"""Time integration of the coupled Schrodinger / improved-Boussinesq system.

The semi-discrete system on the retained sine band is

    i u_t + Laplacian u = P(v, u)
    v_tt = -omega_eps^2 (v + W(u)),      omega_eps^2 = lam / (1 + eps*lam)

with P(v, u) the (optionally Yosida-wrapped) product v*u and W(u) the
matching |u|^2.  eps = 1 is the improved-Boussinesq wave equation, eps = 0
the Zakharov limit; the wave substep is exact for every eps because the
frequencies are handled spectrally.

Two solvers:

* `integrate`: second-order symmetric splitting (half wave, full
  Schrodinger, half wave; one step is `_Kernels.step`), the production path.
  It returns the states its caller asks for, and diagnostics rows only
  from a monitor the caller passes in; this module evaluates no
  diagnostics of its own.
* `picard_duhamel`: fixed-point iteration on the variation-of-constants
  form of the system, used as a cross-validation oracle.  Each panel
  starts from a three-point exponential predictor (exponential time
  differencing, Cox and Matthews, J. Comput. Phys. 176 (2002)), so a panel
  that converges in m sweeps makes mP + 5 node evaluations.  A panel stops
  once the distance of its last iterate from the fixed point, estimated
  from the measured contraction, is below tol (Hairer and Wanner, Solving
  ODEs II, IV.8).

Both solvers take every symbol and product from `_Kernels`, which also
decides where each nonlinear term is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf
from typing import NamedTuple

import numpy as np

from .grids import (
    Field,
    Grid2D,
    coef_to_values,
    field_from_coef,
    from_planes,
    to_planes,
    values_to_coef,
)

__all__ = [
    "SystemParams",
    "State",
    "TrajectoryRecord",
    "NumericalAbort",
    "BlowupError",
    "PicardDivergenceError",
    "PotentialFlowError",
    "make_state",
    "prepare_initial_state",
    "integrate",
    "picard_duhamel",
]


class NumericalAbort(RuntimeError):
    """Base of the errors that stop a solver on a numerical failure."""


class BlowupError(NumericalAbort):
    """A state component or a monitor column became non-finite during
    integration.

    `quantity` names the first non-finite one, in the order u, v, vt and
    then the monitor's columns; `step` is the number of steps taken when it
    was seen (0 at the initial state), and `t_last` the last time at which
    a whole state, and its row if it had one, was seen finite."""

    def __init__(self, t_last: float, step: int, quantity: str):
        super().__init__(
            f"non-finite {quantity} at step {step}; last finite time t = {t_last}"
        )
        self.t_last = t_last
        self.step = step
        self.quantity = quantity


class PicardDivergenceError(NumericalAbort):
    """The Duhamel fixed-point iteration did not reach tolerance on a panel.

    `contraction` is the panel's measured rate (the largest ratio of
    consecutive sweep residuals), None when the panel made one sweep."""

    def __init__(
        self,
        residual: float,
        iterations: int,
        panel: int,
        t_start: float,
        contraction: float | None,
    ):
        rate = (
            "no contraction measured after one sweep"
            if contraction is None
            else f"measured contraction {contraction:.3e}"
        )
        super().__init__(
            f"Picard iteration did not converge on panel {panel} "
            f"(starting at t = {t_start}): residual {residual:.3e} "
            f"after {iterations} iterations, {rate}"
        )
        self.residual = residual
        self.iterations = iterations
        self.panel = panel
        self.t_start = t_start
        self.contraction = contraction


class PotentialFlowError(NumericalAbort):
    """A potential flow step is too long for its potential.

    Unregularized, the flow is the nodal phase exp(-i dt v), which keeps no
    accurate digit once beta = |dt| * max|v| reaches _MAX_PHASE.  With
    Yosida regularization the flow is summed in substeps of length h with
    h * (max J)^2 * max|J v| <= 1, so beta = |dt| * (max J)^2 * max|J v|
    asks for ceil(beta) of them (`substeps`, None for the nodal flow); a
    step that would need more than _MAX_SUBSTEPS is refused instead of
    being summed at up to 36 padded transforms per substep.
    """

    def __init__(self, beta: float, substeps: int | None = None):
        if substeps is None:
            why = (
                f"nodal phase beta = dt * max|v| = {beta:.3e} reaches 2**53, "
                "where a float64 phase carries up to 1 radian of rounding error"
            )
        else:
            why = (
                f"Yosida beta = dt * (max J)^2 * max|J v| = {beta:.3e} would need "
                f"{substeps:.3e} substeps, more than the budget of {_MAX_SUBSTEPS}"
            )
        super().__init__(f"potential flow step too long for its potential: {why}")
        self.beta = beta
        self.substeps = substeps


@dataclass(frozen=True)
class SystemParams:
    """Model and discretization switches.

    Attributes:
        eps: wave-regularization strength in [0, 1]; 1 recovers the
            improved-Boussinesq system, 0 the Zakharov system.
        dt: time step used by integrate.
        yosida_n: optional Yosida index n; when set, every nonlinearity is
            evaluated as J_n(J_n v * J_n u) (and J_n |J_n u|^2 in the wave
            source), mirroring the regularized system, and the initial
            data are smoothed with J_n.
        dealias: evaluate band-projecting products (Yosida terms and the
            Duhamel right-hand side) on the 3/2 zero-padded grid; the
            stepper's own nodal nonlinearities are unaffected.
    """

    eps: float = 1.0
    dt: float = 1e-3
    yosida_n: float | None = None
    dealias: bool = True

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must lie in [0, 1], got {self.eps}")
        if not 0 < self.dt < inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
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
    """What an integrate() run kept.

    series maps the monitor's column names (same order as the run CSV) to
    arrays, one entry per sample, and is empty when the run had no
    monitor; checkpoints maps requested times to states.
    """

    series: dict[str, np.ndarray]
    final_state: State
    checkpoints: dict[float, State]


# ---------------------------------------------------------------------------
# stepping kernels
#
# The stepper works on raw coefficient arrays; Field/State wrappers are
# built only at monitor samples.


# Most substeps of the regularized potential flow in one call.  A substep
# with h * (max J)^2 * max|J v| <= 1 stops after at most 18 Taylor terms
# (1/(18! * 18) < 1e-17), so this caps one call at about 36,000 padded
# transforms.
_MAX_SUBSTEPS = 1000

# Bound on the nodal phase argument |dt| * max|v|: from 2**53 on, float64
# numbers are at least 2 apart, so the argument carries up to 1 radian of
# rounding error.
_MAX_PHASE = 2.0**53


class _Kernels:
    """Per-(grid, params, dt) precomputed symbols and product closures.

    The one place a symbol or a product of the system is written; the
    stepper, the Picard oracle, the energy and `sibsim check` all read
    them here.  Each symbol is a function of -Laplacian, diagonal on sine
    coefficients, and `sibsim check` asserts its identities and
    inequalities on these arrays:

        jsym       Yosida J_n = (1 - Laplacian/n)^(-1), symbol 1/(1 + lam/n),
                   None when params.yosida_n is unset; exactly 0 < J <= 1,
                   sqrt(lam) J <= sqrt(n) and sqrt(lam) J <= sqrt(lam)
        w2, w      omega_eps^2 = lam/(1 + eps*lam) and omega_eps; -w2 is
                   the wave forcing symbol of the Duhamel form
        cos_half, sinc_half, wsin_half
                   cos, sin/omega and omega*sin of (dt/2) omega: the exact
                   half-step flow of v'' = -omega^2 v
        phase_half exp(i dt/2 Laplacian), symbol exp(-i dt/2 lam)

    The half-step tables of a kernel built with dt = 2t are the free flows
    over t, which is how the Picard oracle reads its flows over a panel
    and half a panel.  dt = None builds none of them, for callers that
    take no step (the energy, data smoothing).

    The kernel also decides where each nonlinear term is sampled.  The
    unregularized wave source and potential phase are sampled on the
    collocation nodes: the phase is then exactly unimodular, so charge is
    conserved to round-off, and the wave source shares the quadrature of
    the energy's coupling term, which keeps the energy drift a clean
    O(dt^2); the padded grid would leave a dt-independent floor in the
    energy drift and a slow leak in the charge.  Products whose purpose is
    a band projection (the Yosida-wrapped terms and the Duhamel right-hand
    side P(v, u)) are sampled on prod_shape: when params.dealias is set, a
    zero-padded grid with at least ceil(3N/2) modes per axis, which keeps
    representable sine content of a product from folding back onto the
    retained band.  The product of two sine polynomials is a cosine
    polynomial whose sine re-expansion is an infinite series, so unlike
    the periodic case the padded product is not the exact L2 projection
    of the product; the deviation vanishes algebraically with resolution
    and is quantified in the tests.

    A product with a real factor keeps the complex factor's node values on
    real and imaginary planes from its synthesis to its analysis, and the
    Yosida Taylor sum keeps its whole sum there: multiplying planes by a
    real field rounds exactly as the complex product does, so the split
    and the merge of each complex transform are saved at no change in the
    bits.  The nodal intensity |u|^2 and phase exp(-i dt v) u stay
    complex, because numpy's complex arithmetic rounds them differently
    from a planes formula.
    """

    def __init__(self, grid: Grid2D, params: SystemParams, dt: float | None):
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
        self.prod_shape = grid.pad_shape if params.dealias else grid.shape
        if dt is None:
            return
        # half-step wave rotation
        self.cos_half, sin_half = self.wave_rotation(0.5 * dt)
        self.sinc_half = sin_half / w
        self.wsin_half = w * sin_half
        # half-step free Schrodinger phase
        self.phase_half = np.exp(-0.5j * dt * lam)

    def wave_rotation(self, s, cos=None, sin=None):
        """cos(s omega) and sin(s omega), into `cos` and `sin` when given:
        the free wave flow over s is v(s) = cos(s omega) v + sin(s omega) /
        omega vt.  s is a time, or an (n, 1, 1) column of times for n
        tables at once."""
        cos = np.multiply(self.w, s, out=cos)
        sin = np.sin(cos, out=sin)
        np.cos(cos, out=cos)
        return cos, sin

    # -- quadratic terms ----------------------------------------------------

    def wave_source(self, u: np.ndarray) -> np.ndarray:
        """W(u) = |u|^2 on the collocation nodes, Yosida-wrapped when
        configured: J |J u|^2 on prod_shape."""
        j = self.jsym
        if j is None:
            vals = coef_to_values(self.grid, u)
        else:
            vals = coef_to_values(self.grid, j * u, self.prod_shape)
        w = values_to_coef(self.grid, (vals * vals.conj()).real)
        return w if j is None else j * w

    def coupled_product(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """P(v, u) for real v and complex u: J(Jv * Ju) when regularized,
        else v*u, sampled on prod_shape."""
        j = self.jsym
        if j is not None:
            v, u = j * v, j * u
        vu = coef_to_values(self.grid, to_planes(u), self.prod_shape)
        vu *= coef_to_values(self.grid, v, self.prod_shape)
        p = from_planes(values_to_coef(self.grid, vu))
        return p if j is None else j * p

    # -- substeps -----------------------------------------------------------

    def wave_half(self, v, vt, f):
        """Exact flow over dt/2 of v'' = -omega^2 (v + f), f frozen."""
        z = v + f
        # in place, and bit for bit equal to
        #   v1 = cos_half*z + sinc_half*vt - f,  vt1 = -wsin_half*z + cos_half*vt
        # (x - y is x + (-y) exactly, and addition commutes)
        v1 = self.cos_half * z
        tmp = self.sinc_half * vt
        v1 += tmp
        v1 -= f
        z *= self.wsin_half
        vt1 = np.multiply(self.cos_half, vt, out=tmp)
        vt1 -= z
        return v1, vt1

    def potential_flow(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Flow over dt of i u_t = P(v, u) with v frozen.

        Unregularized, this is a pointwise unimodular phase on the
        collocation nodes; the orthonormal transform then makes the substep
        exactly unitary, so it must not go through the padded product grid
        (truncating from there would leak mass out of the band).

        Regularized, the generator H = J (Jv * J .) is no longer a nodal
        multiplier, and exp(-i dt H) u is summed as a Taylor series.  The
        series is certified by a cheap exact bound,

            ||H||_2 <= b = (max J)^2 * max over the product nodes of |J v|:

        H = J S* diag(Jv) S J with S the scaled synthesis on the product
        grid, an isometry from the band (the discrete sines are orthogonal
        under the node sum), so analysis truncated to the band is its
        adjoint S* and ||S|| = ||S*|| = 1, and ||J||_2 = max J =
        1/(1 + lam_min/n) < 1.  H is self-adjoint on the band for the same
        reason, so the flow is unitary.  With beta = |dt| b the step is
        split into s = ceil(beta) substeps of length h, so h ||H|| <= 1, and
        within a substep the sum stops after term k as soon as

            ||term_k|| r / (1 - r) <= 1e-17 ||u||,   r = |h| b / (k+1),

        which bounds the whole remaining tail (each later term shrinks by
        at least r), so no term that is already proven negligible is
        computed.  This is the bound that Al-Mohy and Higham (SIAM J. Sci.
        Comput. 33 (2011), section 3) use to pick the substeps and the
        truncation of a Taylor sum.  Jv is frozen, so it is synthesized on
        the product grid once per call: k terms in all take 2k + 1
        transforms.  A non-finite bound is left to the callers' blow-up
        checks, as are non-finite terms.

        The sum runs on real and imaginary planes: u is split once per
        call and the sum merged once at the end.  Every term, its
        transforms, its product with the real Jv, the factor -i h/k (a
        signed swap of the planes), the running sum and the norm stay on
        planes; each rounds as the complex arithmetic it replaces, so the
        flow is the complex Taylor sum bit for bit.

        Raises:
            PotentialFlowError: unregularized, if the finite phase argument
                |dt| max|v| reaches _MAX_PHASE; regularized, if the step
                needs more than _MAX_SUBSTEPS substeps.
        """
        dt = self.dt
        grid = self.grid
        if self.jsym is None:
            # exp(-i dt vv) * uu, with the phase written as cos + i sin
            # (what cexp gives bit for bit) into one preallocated array
            vv = coef_to_values(grid, v)
            uu = coef_to_values(grid, u)
            y = -dt * vv
            beta = max(y.max(), -y.min())
            if _MAX_PHASE <= beta < np.inf:
                raise PotentialFlowError(float(beta))
            phase = np.empty(y.shape, dtype=np.complex128)
            np.cos(y, out=phase.real)
            np.sin(y, out=phase.imag)
            phase *= uu
            return values_to_coef(grid, phase)
        shape = self.prod_shape
        jsym = self.jsym
        jv = coef_to_values(grid, jsym * v, shape)
        bound = jsym.max() ** 2 * max(jv.max(), -jv.min())
        beta = abs(dt) * bound
        substeps = 1
        if np.isfinite(beta):
            substeps = max(1, ceil(beta))
            if substeps > _MAX_SUBSTEPS:
                raise PotentialFlowError(float(beta), substeps)
        h = dt / substeps
        hb = abs(h) * bound
        # the flow is unitary, so every substep starts from norm ||u||
        norm0 = np.linalg.norm(u)
        tol = 1e-17 * norm0
        # u, every term and the sum stay on real and imaginary planes
        out = to_planes(u)
        for _ in range(substeps):
            term = out
            out = out.copy()
            tnorm = norm0
            k = 0
            while np.isfinite(tnorm):
                r = hb / (k + 1)
                # tail <= tnorm r/(1 - r) <= tol, written without dividing
                # so that r >= 1 (nothing proven yet) reads false
                if tnorm * r <= tol * (1.0 - r):
                    break
                k += 1
                jterm = coef_to_values(grid, jsym * term, shape)
                jterm *= jv
                # term = (-i h/k) J prod: with c = (-h/k) J, the real plane
                # is -c times prod's imaginary plane and the imaginary plane
                # c times its real plane, rounded as the complex product is
                term = values_to_coef(grid, jterm)[::-1] * ((-h / k) * jsym)
                np.negative(term[0], out=term[0])
                out += term
                tnorm = np.linalg.norm(term)
        return from_planes(out)

    def step(self, u, v, vt, f):
        """One symmetric splitting step of length dt: half wave, full
        Schrodinger with v at the half step, half wave with the source
        refreshed from the updated u.

        f must be wave_source(u).  The step returns the new (u, v, vt) and
        the source of the new u, which is the next step's f: a step forms
        one wave source, not two, as the "first same as last" stage of
        Dormand and Prince (J. Comput. Appl. Math. 6 (1980)).  wave_source
        does not depend on dt, so f carries over to a kernel of another
        dt as well."""
        v, vt = self.wave_half(v, vt, f)
        u = self.phase_half * u
        u = self.potential_flow(u, v)
        u = self.phase_half * u
        f = self.wave_source(u)
        v, vt = self.wave_half(v, vt, f)
        return u, v, vt, f


def prepare_initial_state(state: State, params: SystemParams) -> State:
    """Data as the flow actually sees them: Yosida-smoothed when yosida_n
    is set, untouched otherwise."""
    if params.yosida_n is None:
        return state
    j = _Kernels(state.grid, params, None).jsym
    return _state_from_coef(
        state.grid, j * state.u.coef, j * state.v.coef, j * state.vt.coef, state.t
    )


# ---------------------------------------------------------------------------
# public operations


def integrate(
    state0: State,
    T: float,
    params: SystemParams,
    monitor_stride: int = 10,
    monitor=None,
    checkpoint_times: tuple[float, ...] = (),
) -> TrajectoryRecord:
    """March the splitting from state0.t over a horizon T with dt=params.dt.

    The final step is shortened to land exactly on state0.t + T.  The wave
    source of the initial u is formed once, and each step hands the source
    of its new u to the next one, the shortened step included: a nodal
    step makes 5 band transforms, and a nodal run of m steps without a
    monitor 5m + 2.  With a monitor, one diagnostics row is recorded at
    t0, every monitor_stride steps, and at the end; without one, no row is
    evaluated and the record's series is empty.

    A run aborts with BlowupError when a step leaves u[0, 0] non-finite,
    when a state it keeps (a checkpoint or the final state) is not finite,
    or when a monitor row is not finite.  The error names the step and the
    first non-finite quantity (u, v, vt, then the row's columns in order);
    its t_last is the last time at which a whole state, and its row if it
    had one, was seen finite (t0 before the first check).

    Args:
        monitor: optional object whose row(state, params) returns one
            diagnostics row as a dict of floats, such as a RunMonitor.
        checkpoint_times: for each time, the state after the first completed
            step at or after it is kept.
    """
    dt = params.dt
    if not 0 < T < inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    if monitor_stride < 1:
        raise ValueError("monitor_stride must be >= 1")

    state = prepare_initial_state(state0, params)
    ker = _Kernels(state.grid, params, dt)
    n_steps = max(1, ceil(T / dt - 1e-12))
    t0 = state.t
    u, v, vt = state.u.coef.astype(np.complex128), state.v.coef, state.vt.coef
    with np.errstate(over="ignore", invalid="ignore"):  # a bad f shows in step 1's u
        f = ker.wave_source(u)

    rows: list[dict[str, float]] = []
    checkpoints: dict[float, State] = {}
    pending = sorted(checkpoint_times)
    t_finite = t0

    def keep(t: float, step: int, row: bool = False) -> State:
        """A copy of the state at t after `step` steps, and its monitor row
        if asked; both must be finite."""
        nonlocal t_finite
        snap = _state_from_coef(state.grid, u.copy(), v.copy(), vt.copy(), t)
        parts = {"u": u, "v": v, "vt": vt}
        bad = next((name for name, arr in parts.items() if not np.isfinite(arr).all()), None)
        if bad is None and row:
            rows.append(monitor.row(snap, params))
            bad = next((name for name, val in rows[-1].items() if not np.isfinite(val)), None)
        if bad is not None:
            raise BlowupError(t_finite, step, bad)
        t_finite = t
        return snap

    if monitor is not None:
        keep(t0, 0, row=True)
    t = t0
    while pending and pending[0] <= t0 + 1e-12:
        checkpoints[pending.pop(0)] = keep(t0, 0)
    # each step's u, every kept state and every monitor row is checked for
    # finiteness below, so a divergence names itself; numpy's overflow and
    # invalid-value warnings on the way there would only add stderr lines
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            step_dt = dt
            if i == n_steps - 1:
                step_dt = (t0 + T) - t
                if abs(step_dt - dt) > 1e-12 * dt:
                    ker = _Kernels(state.grid, params, step_dt)
            u, v, vt, f = ker.step(u, v, vt, f)
            t = t0 + T if i == n_steps - 1 else t + dt
            if not np.isfinite(u[0, 0]):
                raise BlowupError(t_finite, i + 1, "u")
            if monitor is not None and ((i + 1) % monitor_stride == 0 or i == n_steps - 1):
                keep(t, i + 1, row=True)
            while pending and pending[0] <= t + 1e-12:
                checkpoints[pending.pop(0)] = keep(t, i + 1)

    series = {key: np.array([r[key] for r in rows]) for key in (rows[0] if rows else ())}
    return TrajectoryRecord(series, keep(t, n_steps), checkpoints)


# ---------------------------------------------------------------------------
# Duhamel-Picard oracle


# Node values are (P, Nx, Ny) stacks.  The quadrature sums and the new
# iterates of a sweep are formed this many grid rows (kx) at a time, over
# all nodes, so the phase products exist only as one block's temporaries.
_GRID_ROWS = 4

# The twisted u-integrand carries phases exp(i lam s), and a panel's
# Lagrange points resolve about this many radians of lam_max s per node.
_RADIANS_PER_NODE = 6.5

# picard_duhamel's default node count, and the fewest nodes of its coarse
# level.
_MIN_NODES = 16


def _integration_weights(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """W[i, j] = integral over (0, targets[i]) of the j-th Lagrange
    polynomial on `nodes`.  Built from Legendre-series interpolants for
    stability: one solve with the unit vectors as right-hand sides gives the
    series of every Lagrange polynomial on [0, b] at once, with b the last
    node or target, whichever is larger."""
    leg = np.polynomial.legendre
    P = len(nodes)
    half = 0.5 * max(nodes[-1], targets.max())
    coef = np.linalg.solve(leg.legvander(nodes / half - 1.0, P - 1), np.eye(P))
    anti = leg.legint(coef, lbnd=-1.0, scl=half)
    return leg.legvander(targets / half - 1.0, P) @ anti


def _weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_j weights[..., j] * stack[j] for a stack of P node values, as
    one real matrix product: a complex stack enters as interleaved real and
    imaginary parts, which the real weights never mix."""
    flat = stack.reshape(len(stack), -1).view(np.float64)
    out = (weights @ flat).view(stack.dtype)
    return out.reshape(weights.shape[:-1] + stack.shape[1:])


def _contraction(residuals: list[float]) -> float | None:
    """The largest ratio r_j / r_(j-1) of consecutive sweep residuals of one
    panel (over r_(j-1) > 0), or None before its second sweep."""
    return max((b / a for a, b in zip(residuals, residuals[1:]) if a > 0), default=None)


def _panel_converged(residuals: list[float], tol: float) -> bool:
    """Whether a panel whose sweeps left `residuals` meets the stopping
    rule of picard_duhamel's `tol`."""
    r = residuals[-1]
    theta = _contraction(residuals)
    # r theta / (1 - theta) < tol, written without dividing
    return r < tol or (theta is not None and theta < 0.5 and r * theta < tol * (1.0 - theta))


class _Level(NamedTuple):
    """A collocation level of a Picard panel: its n node times s as an
    (n, 1, 1) column, the per-axis factors of exp(i lam s) there, (n, Nx)
    and (n, Ny), the (P+1, n) weights that integrate its Lagrange basis up
    to each of the P fine nodes and over the panel, and cos(s w) and
    sinc(s w) there, (n, Nx, Ny) each."""

    s: np.ndarray
    exp_x: np.ndarray
    exp_y: np.ndarray
    weights: np.ndarray
    cos: np.ndarray
    sinc: np.ndarray


def _require_count(name: str, value, least: int) -> None:
    """Raise ValueError unless `value` is an integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def picard_duhamel(
    state0: State,
    T: float,
    params: SystemParams,
    *,
    quad_nodes: int = _MIN_NODES,
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

    Each panel starts from a three-point exponential predictor, the
    exponential time differencing of Cox and Matthews (J. Comput. Phys.
    176 (2002)) and Hochbruck and Ostermann (Acta Numerica 19 (2010)):
    P(v, u) and W(u) are modelled as quadratics in s through s = 0, h/2
    and h, and the Duhamel form with those integrands is integrated
    exactly, in closed form at the nodes.  The values at h/2 and h come
    first from the exponential Euler solution (both integrands frozen at
    the panel's left edge) and once more from the quadratic model, so the
    predictor makes 5 evaluations of P(v, u) and W(u) and is fourth order
    in h.  Jacobi sweeps then refill the integrands at all P nodes.  The
    quadrature weights are a (P+1, P) matrix, as in a spectral deferred
    correction integration matrix (Dutt, Greengard and Rokhlin, BIT 40
    (2000)): row i integrates up to node i and row P over the whole panel,
    so each sweep also gives the panel-end sums, and the panel advances
    with those of the sweep that converged.

    Where the panel allows it, the sweeps start on two levels, as in
    multilevel spectral deferred correction (Speck et al., BIT Numer.
    Math. 55 (2015)).  With h the panel length, the coarse level has
    P_c = max(16, ceil(lam_max h / 6.5)) Gauss-Legendre nodes, the count
    the panel cap below asks for on this panel, and it is used when
    2 P_c <= P.  The predictor is then evaluated at the P_c coarse nodes
    only, and one coarse sweep integrates the integrands there through a
    (P+1, P_c) matrix, the coarse Lagrange basis integrated up to every
    fine node and over the panel, to give the iterate at all P nodes.  The
    coarse sweep settles the slowly contracting low modes; the error it
    leaves sits in high modes, which the Duhamel integrals damp by about
    1/(lam h), so the fine sweeps contract by about 1e-4 instead of 1e-2.
    The fine sweeps and their stopping rule are unchanged, and the result
    is the P-node fixed point.  A panel that converges in m fine sweeps
    costs mP + P_c + 5 node evaluations of the two products, or mP + 5
    without the coarse level.

    Six (P, Nx, Ny) node stacks are kept, 64 B per node-mode entry: the
    iterates u (complex) and v, the raw right-hand sides P(v, u) (complex)
    and g, and cos(s w) and sinc(s w) at the fine nodes.  The coarse
    level's node values use the first P_c slices of the same stacks, and
    its cos(s w) and sinc(s w) are formed once per panel into the slices
    P_c to 2 P_c of the P(v, u) stack, which the coarse stage leaves idle.
    The phases exp(i lam s) are products of per-axis factors, formed with
    the integrands that carry them a block of grid rows at a time, and a
    sweep forms its new iterates and their changes in place in that
    block's sums.

    Args:
        quad_nodes: P, the number of Gauss-Legendre collocation nodes per
            panel; the result is the P-node fixed point.
        tol: bound on a panel's distance from its fixed point.  With r_k
            the residual of fine sweep k (the change it made, in H1 for u
            and L2 for v, vt) and theta the largest ratio r_j / r_(j-1) the
            panel has shown, a panel stops when r_k < tol, or when
            theta < 1/2 and r_k theta / (1 - theta) < tol: for a
            contraction theta the last iterate lies within that estimate of
            the fixed point (the simplified-Newton test of Hairer and
            Wanner, Solving ODEs II, IV.8).  Where theta >= 1/2 the
            estimate exceeds r_k, and r_k < tol alone decides.
        max_iter: the most fine sweeps a panel may take.
        residual_log: optional list; the residual of every fine sweep is
            appended to it (all panels concatenated).  A panel's first
            entry is the change of its first fine sweep from the coarse
            iterate, or from the predictor without the coarse level.

    Raises:
        ValueError: if quad_nodes or max_iter is not an integer,
            quad_nodes < 2, max_iter < 1, or T or tol is not positive and
            finite.
        PicardDivergenceError: if a panel meets neither stopping test of
            `tol` within max_iter sweeps; it carries the last residual and
            the panel's measured contraction theta (None after one sweep).
    """
    _require_count("quad_nodes", quad_nodes, 2)
    if not 0 < T < inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    if not 0 < tol < inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _require_count("max_iter", max_iter, 1)

    state = prepare_initial_state(state0, params)
    grid = state.grid
    lam = grid.lam

    # Panel length: lam_max * h within what quad_nodes Lagrange points
    # resolve; 0.025 caps the contraction size.
    lam_max = float(lam.max())
    h_cap = min(0.025, _RADIANS_PER_NODE * quad_nodes / lam_max)
    n_panels = max(1, ceil(T / h_cap - 1e-12))
    h = T / n_panels
    # the coarse level: the node count the cap asks for on this panel; it
    # starts the sweeps when it is at most half of quad_nodes
    coarse_nodes = max(_MIN_NODES, ceil(lam_max * h / _RADIANS_PER_NODE))
    # the kernel of a step 2h: its half-step tables are the free flows over
    # the panel
    ker = _Kernels(grid, params, 2 * h)
    w = ker.w
    w2 = ker.w2

    def gauss(n):
        """The n Gauss-Legendre nodes on (0, h) and their weights."""
        x, wx = np.polynomial.legendre.leggauss(n)
        return (x + 1.0) * 0.5 * h, wx * 0.5 * h

    phi = state.u.coef.astype(np.complex128)
    ps0 = state.v.coef.copy()
    ps1 = state.vt.coef.copy()
    t_now = state.t
    stack = (quad_nodes,) + grid.shape
    us = np.empty(stack, dtype=np.complex128)
    vs = np.empty(stack)
    # the raw right-hand sides at every node: P(v, u) and g = -w2 W(u)
    pvu = np.empty(stack, dtype=np.complex128)
    g = np.empty(stack)
    neg_w2 = -w2
    # H1 weights of the interleaved real and imaginary parts of u
    h1_weight = np.repeat(1.0 + lam, 2, axis=1)
    # the panel-end quadrature sums, kept from each sweep's last row
    Iu_end = np.empty_like(phi)
    Ia_end = np.empty_like(ps0)
    Ib_end = np.empty_like(ps0)

    half00 = 0.5 * lam[0, 0]

    def level(nodes, weights, cos, sinc):
        # exp(i lam s) = exp(i lx s) exp(i ly s), with lam split into its
        # per-axis parts lam[k, l] = lx[k] + ly[l]
        s = nodes[:, None]
        exp_x = np.exp(1j * (lam[:, 0] - half00) * s)
        exp_y = np.exp(1j * (lam[0, :] - half00) * s)
        return _Level(nodes[:, None, None], exp_x, exp_y, weights, cos, sinc)

    nodes, full_w = gauss(quad_nodes)
    cos_s, sinc_s = ker.wave_rotation(nodes[:, None, None])
    sinc_s /= w
    # rows 0..P-1 integrate up to each node, row P over the whole panel
    fine = level(nodes, np.vstack([_integration_weights(nodes, nodes), full_w]), cos_s, sinc_s)
    coarse = None
    if 2 * coarse_nodes <= quad_nodes:
        nodes_c = gauss(coarse_nodes)[0]
        # the coarse cos(s w) and sinc(s w) borrow pvu's slices P_c..2 P_c,
        # which the coarse stage leaves idle; the fine sweeps overwrite
        # them, so each panel forms them again
        coarse = level(
            nodes_c,
            _integration_weights(nodes_c, np.append(nodes, h)),
            *pvu[coarse_nodes : 2 * coarse_nodes].view(np.float64).reshape(
                (2, coarse_nodes) + grid.shape
            ),
        )
    # the predictor's points h/2 and h, with the free flows over them: the
    # half-step tables of the kernels of steps h and 2h
    points = [
        (t, k.phase_half, k.cos_half, k.sinc_half)
        for t, k in ((0.5 * h, _Kernels(grid, params, h)), (h, ker))
    ]
    cos_h, sinc_h, wsin_h = ker.cos_half, ker.sinc_half, ker.wsin_half

    def fill_integrands(n) -> None:
        """P(v, u) and g from the iterates at the first n nodes."""
        for i in range(n):
            pvu[i] = ker.coupled_product(vs[i], us[i])
            np.multiply(ker.wave_source(us[i]), neg_w2, out=g[i])

    def quadratic(f0, f_half, f1):
        """(c0, c1, c2) of c0 + c1 s + c2 s^2 through f0, f_half and f1 at
        s = 0, h/2 and h."""
        return f0, (4.0 * f_half - 3.0 * f0 - f1) / h, 2.0 * (f1 - 2.0 * f_half + f0) / h**2

    def duhamel(c, d):
        """Coefficients of the Duhamel solution for the integrands
        P(v, u) = c0 + c1 s + c2 s^2 and W(u) = d0 + d1 s + d2 s^2,
        integrated exactly:
            u(s) = exp(-i lam s) (phi + q0) - q0 - s q1 - s^2 q2
            v(s) = cos(s w) (ps0 + Wt) + sinc(s w) (ps1 + d1) - Wt - s d1 - s^2 d2
        with q2 = c2/lam, q1 = (c1 + 2i q2)/lam, q0 = (c0 + i q1)/lam and
        Wt = d0 - 2 d2/w2; lam > 0 on the sine band."""
        c0, c1, c2 = c
        d0, d1, d2 = d
        q2 = c2 / lam
        q1 = (c1 + 2j * q2) / lam
        q0 = (c0 + 1j * q1) / lam
        return (q0, q1, q2), (d0 - 2.0 * d2 / w2, d1, d2)

    def solution(q, r, rows, t, phase, c, sc):
        """u and v of duhamel()'s closed form on grid rows `rows` at times
        t, from the free flows exp(-i lam t), cos(t w) and sinc(t w) there."""
        q0, q1, q2 = (x[rows] for x in q)
        Wt, d1, d2 = (x[rows] for x in r)
        u = phase * (phi[rows] + q0) - (q0 + t * (q1 + t * q2))
        v = c * (ps0[rows] + Wt) + sc * (ps1[rows] + d1) - (Wt + t * (d1 + t * d2))
        return u, v

    def predict(lv) -> None:
        """Fill us / vs at the nodes of level lv, the first n slices, with
        the three-point exponential predictor."""
        n = len(lv.s)
        # exponential Euler: both integrands frozen at their s = 0 values
        p = [ker.coupled_product(ps0, phi)] * 3
        W = [ker.wave_source(phi)] * 3
        for _ in range(2):
            q, r = duhamel(quadratic(*p), quadratic(*W))
            for k, (t, phase, c, sc) in enumerate(points, 1):
                u, v = solution(q, r, slice(None), t, phase, c, sc)
                p[k] = ker.coupled_product(v, u)
                W[k] = ker.wave_source(u)
        q, r = duhamel(quadratic(*p), quadratic(*W))
        for lo in range(0, grid.Nx, _GRID_ROWS):
            rows = slice(lo, lo + _GRID_ROWS)
            # exp(-i lam s), conjugated per axis
            phase = np.conj(lv.exp_x[:, rows, None]) * np.conj(lv.exp_y[:, None, :])
            us[:n, rows], vs[:n, rows] = solution(
                q, r, rows, lv.s, phase, lv.cos[:, rows], lv.sinc[:, rows]
            )

    def sweep_block(lv, rows):
        """The new iterates u and v at all P fine nodes on grid rows `rows`,
        from the integrands at the nodes of level lv (the first n slices of
        pvu and g); keeps the panel-end sums."""
        n = len(lv.s)
        c, sc = lv.cos[:, rows], lv.sinc[:, rows]
        phase = lv.exp_x[:, rows, None] * lv.exp_y[:, None, :]
        gb = g[:n, rows]
        Iu = _weighted_sum(lv.weights, phase * pvu[:n, rows])
        Ia = _weighted_sum(lv.weights, c * gb)
        Ib = _weighted_sum(lv.weights, sc * gb)
        Iu_end[rows], Ia_end[rows], Ib_end[rows] = Iu[-1], Ia[-1], Ib[-1]
        if n < quad_nodes:
            # the update needs the phases at the fine nodes
            phase = fine.exp_x[:, rows, None] * fine.exp_y[:, None, :]
        # un = conj(phase) (phi - i Iu), in Iu's rows
        un = Iu[:-1]
        np.conj(phase, out=phase)
        un *= -1j
        un += phi[rows]
        np.multiply(phase, un, out=un)
        # vn = cos(s w) (ps0 - Ib) + sinc(s w) (ps1 + Ia) at the fine
        # nodes, in Ia's rows
        vn, Ib = Ia[:-1], Ib[:-1]
        np.subtract(ps0[rows], Ib, out=Ib)
        Ib *= cos_s[:, rows]
        vn += ps1[rows]
        vn *= sinc_s[:, rows]
        vn += Ib
        return un, vn

    for panel in range(n_panels):
        if coarse is None:
            predict(fine)
        else:
            # the predictor and one Jacobi sweep on the coarse level give
            # the first iterate at the fine nodes
            ker.wave_rotation(coarse.s, coarse.cos, coarse.sinc)
            np.divide(coarse.sinc, w, out=coarse.sinc)
            predict(coarse)
            fill_integrands(coarse_nodes)
            for lo in range(0, grid.Nx, _GRID_ROWS):
                rows = slice(lo, lo + _GRID_ROWS)
                us[:, rows], vs[:, rows] = sweep_block(coarse, rows)
        panel_log: list[float] = []
        for _sweep in range(max_iter):
            # Jacobi sweep: every integrand comes from the previous sweep,
            # so the blocks below may overwrite us / vs in place
            fill_integrands(quad_nodes)
            # squared H1 of du and L2 of dv, per node
            du2 = np.zeros(quad_nodes)
            dv2 = np.zeros(quad_nodes)
            for lo in range(0, grid.Nx, _GRID_ROWS):
                rows = slice(lo, lo + _GRID_ROWS)
                un, vn = sweep_block(fine, rows)
                # each change, squared in place of the old iterate, then
                # the new iterate
                ub = us[:, rows]
                ub -= un
                du = ub.view(np.float64)
                du *= du
                du2 += du.reshape(quad_nodes, -1) @ h1_weight[rows].ravel()
                ub[...] = un
                vb = vs[:, rows]
                vb -= vn
                vb *= vb
                dv2 += vb.reshape(quad_nodes, -1).sum(axis=1)
                vb[...] = vn
            residual = float(np.max(np.sqrt(du2) + np.sqrt(dv2)))
            panel_log.append(residual)
            if residual_log is not None:
                residual_log.append(residual)
            if _panel_converged(panel_log, tol):
                break
        else:
            raise PicardDivergenceError(
                residual, max_iter, panel, t_now, _contraction(panel_log)
            )

        # advance the panel data to its right edge with the full-panel sums
        # of the converged sweep: like the last iterate, they come from the
        # integrands of the iterate one sweep earlier, so the panel end is
        # as close to the fixed point as the last iterate
        phi = ker.phase_half * (phi - 1j * Iu_end)
        new_v = cos_h * ps0 + sinc_h * ps1 + sinc_h * Ia_end - cos_h * Ib_end
        ps1 = -wsin_h * ps0 + cos_h * ps1 + cos_h * Ia_end + wsin_h * Ib_end
        ps0 = new_v
        t_now += h

    return _state_from_coef(grid, phi, ps0, ps1, t_now)
