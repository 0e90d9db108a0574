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
  Schrodinger, half wave), the production path.  `_Kernels.step` is the
  Schrodinger part of a step, and `integrate` composes the wave flows
  around it: between two steps of one kernel, the closing and opening
  half waves, which share one source, run as one full-step wave flow.
  It returns the states its caller asks for, and diagnostics rows only
  from a monitor the caller passes in; this module evaluates no
  diagnostics of its own.
* `picard_duhamel`: fixed-point iteration on the variation-of-constants
  form of the system, used as a cross-validation oracle.  Each panel
  starts from a three-point exponential predictor (exponential time
  differencing, Cox and Matthews, J. Comput. Phys. 176 (2002)), and where
  it allows one, one sweep on a coarse level of P_c nodes, so a panel that
  converges in m fine sweeps makes mP + P_c + 5 node evaluations (mP + 5
  without the coarse level).  A panel stops once the distance of its last
  iterate from the fixed point, estimated from the measured contraction,
  is below _PICARD_TOL (Hairer and Wanner, Solving ODEs II, IV.8).

Both solvers take every symbol, free flow and product from `_Kernels`,
which also decides where each nonlinear term is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial, inf
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
        dt: largest step: `integrate` takes ceil(T/dt) equal steps.
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

# Largest nodal phase argument beta = |dt| * max|v| whose cos and sin are
# summed as Taylor polynomials instead of by libm; up to it the tail rule
# asks for degree 10 at most.
_TAYLOR_PHASE = 0.125

# Every Taylor sum here stops once its tail is proven below this bound,
# relative to the norm of what it flows (1 for the unimodular nodal phase).
_TAYLOR_TOL = 1e-17

# Fraction of a step within which integrate counts a time as reached, in
# the step count T/dt and in the step (time - t0)/h of each checkpoint:
# their rounding grows with the step count (4e-12 at 3e4 steps) but stays
# far below this.
_STEP_TOL = 1e-6

# The fewest steps a run may not take: from 2**53 on, float64 integers are
# at least 2 apart, so the step index i behind a time t0 + i h is no
# longer exact.
_MAX_STEPS = 2.0**53

# (-1)^j / (2j)! and (-1)^j / (2j + 1)!: the Taylor coefficients of cos y
# and of sin(y) / y in y^2, through the degree 10 of exp(i y) that a beta
# up to _TAYLOR_PHASE asks for
_COS_TAYLOR = tuple((-1) ** j / factorial(2 * j) for j in range(6))
_SIN_TAYLOR = tuple((-1) ** j / factorial(2 * j + 1) for j in range(5))


def _step_count(T: float, dt: float, name: str = "step", length: str = "dt") -> int:
    """The number of steps of at most dt that reach T in equal steps, at
    least 1; a T within _STEP_TOL of a whole number of dt counts as
    reached there.
    `name` and `length` name the step and its length in the error.

    Raises:
        ValueError: if T/dt is not below _MAX_STEPS.
    """
    steps = T / dt
    if not steps < _MAX_STEPS:
        raise ValueError(
            f"{name} count T/{length} = {T}/{dt} = {steps:.3e} is not below 2**53, "
            f"where a {name} index stops being exact"
        )
    return max(1, ceil(steps - _STEP_TOL))


def _check_checkpoint_time(tau: float, t0: float, T: float, dt: float) -> None:
    """Refuse a checkpoint time that a run from t0 over T in steps of dt
    never reaches: not finite, or past t0 + T by more than _STEP_TOL dt."""
    if not -inf < tau <= t0 + T + _STEP_TOL * dt:
        raise ValueError(
            f"checkpoint time {tau} is not finite or lies past the horizon "
            f"t0 + T = {t0 + T}; the run never reaches it"
        )


def _tail_negligible(tnorm: float, r: float, tol: float) -> bool:
    """Whether a Taylor sum may stop after a term of norm tnorm when each
    later term is at most r times the one before: the whole tail, at most
    tnorm r / (1 - r), is then below tol.  Written without dividing, so
    that r >= 1 (nothing proven) reads false."""
    return tnorm * r <= tol * (1.0 - r)


def _phase_degree(beta: float) -> int:
    """The degree after which the Taylor series of exp(i y), |y| <= beta,
    leaves at most _TAYLOR_TOL: the tail rule of the Yosida sum with the
    bound beta^k / k! on term k.  At least 1, so that sin y keeps y."""
    term, k = 1.0, 0
    while not _tail_negligible(term, beta / (k + 1), _TAYLOR_TOL):
        k += 1
        term *= beta / k
    return max(k, 1)


def _horner(z: np.ndarray, coefs) -> np.ndarray:
    """sum_j coefs[j] z^j by Horner's rule, into a new array."""
    if len(coefs) == 1:
        return np.full_like(z, coefs[0])
    acc = z * coefs[-1]
    acc += coefs[-2]
    for c in coefs[-3::-1]:
        acc *= z
        acc += c
    return acc


def _unit_phase(y: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """cos y and sin y for beta = max|y|.  Up to _TAYLOR_PHASE they are the
    Taylor polynomials through degree _phase_degree(beta), by Horner's rule
    in y^2, within _TAYLOR_TOL of the true values; above it, or for a
    non-finite beta, they are libm's."""
    if not beta <= _TAYLOR_PHASE:
        return np.cos(y), np.sin(y)
    degree = _phase_degree(beta)
    z = y * y
    cos = _horner(z, _COS_TAYLOR[: degree // 2 + 1])
    sin = _horner(z, _SIN_TAYLOR[: (degree + 1) // 2])
    sin *= y
    return cos, sin


def _rotate(phase, z, f):
    """phase (z + f) - f, into one new array: the exact wave flow of the
    amplitude z under a frozen source f (see _Kernels).  The real f is
    added to and taken from the real part in place, which spares numpy's
    cast of f to complex (measured 2.7 us of 19 at 64^2)."""
    y = z.copy()
    y.real += f
    np.multiply(phase, y, out=y)
    y.real -= f
    return y


class _Kernels:
    """Per-(grid, params, dt) precomputed symbols and product closures.

    The one place a symbol or a product of the system is written; the
    stepper, the Picard oracle, the energy and `sibsim check` all read
    them here.  Each symbol is a function of -Laplacian, diagonal on sine
    coefficients, and `sibsim check` (symbol-derivation) compares each of
    these arrays with its formula, evaluated there from the mode integers
    and the configured sides, to a round-off bound:

        jsym       Yosida J_n = (1 - Laplacian/n)^(-1), symbol 1/(1 + lam/n),
                   None when params.yosida_n is unset
        w2, w      omega_eps^2 = lam/(1 + eps*lam) and omega_eps, its root,
                   the frequency of every wave phase
        phase_half, wave_phase_half
                   free_flow(dt/2), the exact half-step flows
        wave_phase_full
                   exp(-i dt omega), the exact full-step wave flow that
                   stands for two half-step wave flows with one source

    The wave pair is carried as one complex amplitude z = v + i vt/omega:
    each sine mode of v'' = -omega^2 (v + f) is a linear oscillator, so
    with f frozen z + f rotates by exp(-i t omega), as u does by
    exp(-i t lam) under the free Schrodinger flow (Hairer, Lubich and
    Wanner, Geometric Numerical Integration, 2nd ed. (2006), XIII).
    free_flow(t) writes the free flows over any time t for the stepper's
    tables and the Picard oracle's panels, and wave_phase the oracle's
    node tables.  The stepper's substeps are the exact wave flows
    wave_half and wave_full and step, the Schrodinger part of a step;
    integrate composes them.  dt = None builds no step tables, for
    callers that take no step (the energy, data smoothing, the Picard
    oracle).

    The kernel also decides where each nonlinear term is sampled.  The
    unregularized wave source and potential phase are sampled on the
    collocation nodes: the phase is then exactly unimodular, so charge is
    conserved to round-off, and the wave source shares the quadrature of
    the energy's coupling term, which keeps the energy drift a clean
    O(dt^2); the padded grid would leave a dt-independent floor in the
    energy drift and a slow leak in the charge.  Products whose purpose is
    a band projection (the Yosida-wrapped terms and the Duhamel right-hand
    side P(v, u)) are sampled on prod_shape: when params.dealias is set,
    the zero-padded grid of the 3/2 rule, ceil(3N/2) modes per axis, which
    keeps representable sine content of a product from folding back onto
    the retained band.  The product of two sine polynomials is a cosine
    polynomial whose sine re-expansion is an infinite series, so unlike
    the periodic case the padded product is not the exact L2 projection
    of the product; the deviation vanishes algebraically with resolution
    and is quantified in the tests.

    Every product keeps the complex factor's node values on real and
    imaginary planes from its synthesis to its analysis, which saves the
    split and the merge of each complex transform: the product with a
    real factor, the Yosida Taylor sum (its whole sum), the intensity
    |u|^2 = re^2 + im^2 and the nodal phase exp(-i dt v) u, written as
    (re cos - im sin, re sin + im cos).  Multiplying planes by a real
    field rounds exactly as the complex product does; the intensity and
    the phase round differently from numpy's complex arithmetic, by a few
    units in the last place per node.
    """

    def __init__(self, grid: Grid2D, params: SystemParams, dt: float | None):
        self.grid = grid
        self.params = params
        self.dt = dt
        lam = grid.lam
        n = params.yosida_n
        self.jsym = 1.0 / (1.0 + lam / n) if n is not None else None
        self.w2 = lam / (1.0 + params.eps * lam)
        self.w = np.sqrt(self.w2)
        # the 3/2 rule, when dealiased
        pad = (ceil(3 * grid.Nx / 2), ceil(3 * grid.Ny / 2))
        self.prod_shape = pad if params.dealias else grid.shape
        if dt is not None:
            self.phase_half, self.wave_phase_half = self.free_flow(0.5 * dt)
            self.wave_phase_full = self.wave_phase(dt)

    def free_flow(self, t):
        """The free flows over a time t: exp(-i t lam), the symbol of
        exp(i t Laplacian), and exp(-i t omega), which takes z = v + i
        vt/omega to z(t) under v'' = -omega^2 v."""
        return np.exp(-1j * t * self.grid.lam), self.wave_phase(t)

    def wave_phase(self, s, out=None):
        """exp(-i s omega), formed in place, in `out` when given.  s is a
        time, or an (n, 1, 1) column of times for n tables at once."""
        out = np.multiply(self.w, -1j * s, out=out)
        return np.exp(out, out=out)

    # -- quadratic terms ----------------------------------------------------

    def wave_source(self, u: np.ndarray) -> np.ndarray:
        """W(u) = |u|^2 on the collocation nodes, Yosida-wrapped when
        configured: J |J u|^2 on prod_shape."""
        j = self.jsym
        if j is None:
            vals = coef_to_values(self.grid, to_planes(u))
        else:
            vals = coef_to_values(self.grid, to_planes(j * u), self.prod_shape)
        # re^2 + im^2, in the real plane
        np.square(vals, out=vals)
        vals[0] += vals[1]
        w = values_to_coef(self.grid, vals[0])
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

    def wave_half(self, z, f):
        """Exact flow over dt/2 of v'' = -omega^2 (v + f), f frozen, on
        z = v + i vt/omega, into a new array: z + f rotates."""
        return _rotate(self.wave_phase_half, z, f)

    def wave_full(self, z, f):
        """Exact flow over dt of v'' = -omega^2 (v + f), f frozen: two
        wave_half flows with one f, in one pass.  The equation is
        autonomous while f is frozen, so its flows form a group, and the
        two agree to round-off."""
        return _rotate(self.wave_phase_full, z, f)

    def potential_flow(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Flow over dt of i u_t = P(v, u) with v frozen.

        Unregularized, this is a pointwise unimodular phase on the
        collocation nodes; the orthonormal transform then makes the substep
        exactly unitary, so it must not go through the padded product grid
        (truncating from there would leak mass out of the band).  With
        y = -dt v on the nodes and beta = max|y|, cos y and sin y come from
        _unit_phase: while beta <= _TAYLOR_PHASE, Taylor polynomials whose
        degree the Yosida sum's tail rule below takes from beta (remainder
        at most 1e-17, since |exp(i y)| = 1), else libm.  u is split into
        planes once; its node values are multiplied by the phase on planes
        and merged once after the analysis, so the flow makes 3 band
        transforms.

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
            y = coef_to_values(grid, v)
            y *= -dt
            beta = max(y.max(), -y.min())
            if _MAX_PHASE <= beta < np.inf:
                raise PotentialFlowError(float(beta))
            cos, sin = _unit_phase(y, beta)
            uu = coef_to_values(grid, to_planes(u))
            re, im = uu
            # (re cos - im sin, re sin + im cos), in place in uu
            tmp = im * sin
            sin *= re
            re *= cos
            re -= tmp
            im *= cos
            im += sin
            return from_planes(values_to_coef(grid, uu))
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
        tol = _TAYLOR_TOL * norm0
        # u, every term and the sum stay on real and imaginary planes
        out = to_planes(u)
        for _ in range(substeps):
            term = out
            out = out.copy()
            tnorm = norm0
            k = 0
            while np.isfinite(tnorm):
                if _tail_negligible(tnorm, hb / (k + 1), tol):
                    break
                k += 1
                # the old term is not read again: J term in its place, and
                # it is freed before the analysis
                term *= jsym
                jterm = coef_to_values(grid, term, shape)
                del term
                jterm *= jv
                # term = (-i h/k) J prod: with c = (-h/k) J, the real plane
                # is -c times prod's imaginary plane and the imaginary plane
                # c times its real plane, rounded as the complex product is
                term = values_to_coef(grid, jterm)[::-1] * ((-h / k) * jsym)
                np.negative(term[0], out=term[0])
                out += term
                tnorm = np.linalg.norm(term)
        return from_planes(out)

    def step(self, u, v):
        """The Schrodinger part of a splitting step of length dt, with v
        frozen at the half step: free half step, potential flow over dt,
        free half step.  Returns the new u and its wave source, which the
        wave flows around the step read.  Every transform of a step runs
        here: 5 band transforms unregularized, 2k + 3 for k Yosida Taylor
        terms."""
        u = self.phase_half * u
        u = self.potential_flow(u, v)
        # in place, with the operands in the order of phase_half * u: numpy
        # rounds a complex product differently with its factors swapped
        np.multiply(self.phase_half, u, out=u)
        return u, self.wave_source(u)


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
    """March the splitting from state0.t over a horizon T in n =
    ceil(T/dt) equal steps of h = T/n (params.dt is the largest step), all
    on one kernel of length h.

    A step is one symmetric Strang splitting step: the exact wave flow over
    h/2 with the source W(u) frozen (`_Kernels.wave_half`), the
    Schrodinger part with v frozen at the half step (`_Kernels.step`), and
    a second half wave with the source refreshed from the new u.  Equal
    steps make the run one symmetric composition of one kernel's exact
    flows (Hairer, Lubich and Wanner, Geometric Numerical Integration, 2nd
    ed. (2006), II.5 and V.1).  The time after step i is t0 + i h, formed
    from the step index, and t0 + T after the last; a horizon of 2**53
    steps or more is refused with ValueError, as the index would no longer
    be exact.  On a horizon that is a whole number of dt, h is dt up to
    the rounding of T/n (bit for bit on the default and benchmark runs).

    This loop is the one place the steps are composed, in leapfrog form.
    `_Kernels.step` returns the source of its new u, which is also the
    source the next step opens with: a step forms one wave source, not
    two, as the "first same as last" stage of Dormand and Prince (J.
    Comput. Appl. Math. 6 (1980)).  The closing half wave of one step and
    the opening half wave of the next then flow with the same source, so
    together they are the exact wave flow over h (`_Kernels.wave_full`),
    the leapfrog form of the splitting.  The loop carries u and the wave
    amplitude z = v + i vt/omega (see _Kernels), so every wave flow is one
    phase, and hands each step v = Re z; a state is converted back, v =
    Re z and vt = omega Im z, only where it is kept.  z runs half a step
    ahead of u: the run opens with a half wave, takes one full-step wave
    flow between steps, and closes with a half wave at the end.  A state
    kept between two steps (a monitor row, a checkpoint) takes its z from
    a half wave of the mid-step z, and the run goes on from the full-step
    flow of the same array: where a run keeps its states does not change
    its trajectory.

    Every transform of a step runs in `_Kernels.step`: 5 band transforms
    for a nodal step, so a nodal run of m steps makes 5m + 2 with the
    source of the initial u.  With a monitor, one diagnostics row is
    recorded at t0, every monitor_stride steps, and at the end; without
    one, no row is evaluated and the record's series is empty.  A row
    takes the wave source that the run holds for the kept u and forms
    none of its own, so rows add only the transforms of their own norms
    (one lp_norm synthesis each).

    A run aborts with BlowupError when a step leaves u[0, 0] non-finite,
    when a state it keeps (a checkpoint or the final state) is not finite,
    or when a monitor row is not finite.  The error names the step and the
    first non-finite quantity (u, v, vt, then the row's columns in order);
    its t_last is the last time at which a whole state, and its row if it
    had one, was seen finite (t0 before the first check).

    Args:
        monitor: optional object whose row(state, params, source) returns
            one diagnostics row as a dict of floats, such as a RunMonitor;
            source is the wave source of the state's u.  The state's u
            is the run's own array, which the row must not write.
        checkpoint_times: for each time, the state after the first completed
            step at or after it, within a millionth of a step, is kept; the
            step is counted from (time - t0)/h, and a time before t0
            keeps the state at t0.
    """
    dt = params.dt
    if not 0 < T < inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    if monitor_stride < 1:
        raise ValueError("monitor_stride must be >= 1")

    n_steps = _step_count(T, dt)
    h = T / n_steps
    state = prepare_initial_state(state0, params)
    ker = _Kernels(state.grid, params, h)
    t0 = state.t
    # the number of steps after which each checkpoint is kept, picked by
    # index, so that no drift of the accumulated t moves it
    at_step: dict[int, list[float]] = {}
    for tau in sorted(checkpoint_times):
        _check_checkpoint_time(tau, t0, T, dt)
        at_step.setdefault(min(n_steps, max(0, ceil((tau - t0) / h - _STEP_TOL))), []).append(tau)
    u = state.u.coef.astype(np.complex128)
    w = ker.w
    z = state.v.coef + 1j * (state.vt.coef / w)
    with np.errstate(over="ignore", invalid="ignore"):  # a bad f shows in step 1's u
        f = ker.wave_source(u)

    rows: list[dict[str, float]] = []
    checkpoints: dict[float, State] = {}
    t_finite = t0

    def keep(t: float, step: int, closed, row: bool = False) -> State | None:
        """The state (u, Re closed, omega Im closed) at t after `step`
        steps, which must be finite: a copy of it, or with row=True its
        monitor row, which must be finite too.  At step 0 v and vt are the
        prepared state's own, bit for bit.  The row reads the run's own u:
        every flow writes new arrays, so no later step changes it."""
        nonlocal t_finite
        if step == 0:
            kv, kvt = state.v.coef.copy(), state.vt.coef.copy()
        else:
            kv, kvt = closed.real.copy(), w * closed.imag
        parts = {"u": u, "v": kv, "vt": kvt}
        bad = next((name for name, arr in parts.items() if not np.isfinite(arr).all()), None)
        if bad is None and row:
            rows.append(monitor.row(_state_from_coef(state.grid, u, kv, kvt, t), params, f))
            bad = next((name for name, val in rows[-1].items() if not np.isfinite(val)), None)
        if bad is not None:
            raise BlowupError(t_finite, step, bad)
        t_finite = t
        return None if row else _state_from_coef(state.grid, u.copy(), kv, kvt, t)

    if monitor is not None:
        keep(t0, 0, z, row=True)
    for tau in at_step.get(0, ()):
        checkpoints[tau] = keep(t0, 0, z)
    # each step's u, every kept state and every monitor row is checked for
    # finiteness below, so a divergence names itself; numpy's overflow and
    # invalid-value warnings on the way there would only add stderr lines
    with np.errstate(over="ignore", invalid="ignore"):
        z = ker.wave_half(z, f)
        for i in range(n_steps):
            last = i == n_steps - 1
            # times by step index, so that no running sum drifts
            t = t0 + T if last else t0 + (i + 1) * h
            row = monitor is not None and ((i + 1) % monitor_stride == 0 or last)
            u, f = ker.step(u, z.real)
            # z is half a step behind the new u; the flows write new
            # arrays, so a closed z stays as it is kept
            closed = ker.wave_half(z, f) if last or row or i + 1 in at_step else None
            z = closed if last else ker.wave_full(z, f)
            if not np.isfinite(u[0, 0]):
                raise BlowupError(t_finite, i + 1, "u")
            if row:
                keep(t, i + 1, closed, row=True)
            for tau in at_step.get(i + 1, ()):
                checkpoints[tau] = keep(t, i + 1, closed)

    series = {key: np.array([r[key] for r in rows]) for key in (rows[0] if rows else ())}
    return TrajectoryRecord(series, keep(t, n_steps, z), checkpoints)


# ---------------------------------------------------------------------------
# Duhamel-Picard oracle


# Node values are (P, Nx, Ny) stacks.  The quadrature sums and the new
# iterates of a sweep are formed this many grid rows (kx) at a time, over
# all nodes, so the phase products and the mirrored wave tables exist only
# as one block's temporaries.
_GRID_ROWS = 3

# The twisted u-integrand carries phases exp(i lam s), and a panel's
# Lagrange points resolve about this many radians of lam_max s per node.
_RADIANS_PER_NODE = 6.5

# picard_duhamel's default node count, and the fewest nodes of its coarse
# level.
_MIN_NODES = 16

# picard_duhamel's bound on a panel's distance from its fixed point (see
# _panel_converged), and the most fine sweeps a panel may take
_PICARD_TOL = 1e-11
_PICARD_MAX_SWEEPS = 80


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


def _panel_converged(residuals: list[float]) -> bool:
    """Whether a panel whose sweeps left `residuals` meets picard_duhamel's
    stopping rule at _PICARD_TOL."""
    r, theta, tol = residuals[-1], _contraction(residuals), _PICARD_TOL
    # r theta / (1 - theta) < tol, written without dividing
    return r < tol or (theta is not None and theta < 0.5 and r * theta < tol * (1.0 - theta))


class _Level(NamedTuple):
    """A collocation level of a Picard panel: its n node times s as an
    (n, 1, 1) column, the per-axis factors of exp(i lam s) there, (n, Nx)
    and (n, Ny), the (P+1, n) weights that integrate its Lagrange basis up
    to each of the P fine nodes and over the panel, and the wave phase
    exp(-i s w) at its first ceil(n/2) nodes, (ceil(n/2), Nx, Ny); _mirror
    forms it at the other nodes."""

    s: np.ndarray
    exp_x: np.ndarray
    exp_y: np.ndarray
    weights: np.ndarray
    wave: np.ndarray


def _mirror(lv: _Level, wave_h: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """The wave phase exp(-i s w) on grid rows `rows` at every node of
    level lv, into out: its table at the first m nodes, and the rest from
    it.  Gauss-Legendre nodes on a panel (0, h) lie symmetric about h/2, so
    node n-1-j sits at h - s_j, where the phase is exp(-i h w) conj(table[j])
    with wave_h = exp(-i h w), the wave phase over the panel."""
    m = len(lv.wave)
    mirrored = np.conj(lv.wave[len(lv.s) - m - 1 :: -1, rows], out=out[m:])
    np.multiply(wave_h[rows], mirrored, out=mirrored)
    out[:m] = lv.wave[:, rows]
    return out


# a non-finite state makes a non-finite residual, which is refused, so
# numpy's warnings on the way there would only add stderr
@np.errstate(over="ignore", invalid="ignore")
def picard_duhamel(
    state0: State,
    T: float,
    params: SystemParams,
    *,
    quad_nodes: int = _MIN_NODES,
    residual_log: list[float] | None = None,
) -> State:
    """Solve the system on [t0, t0+T] by Picard iteration on its
    variation-of-constants form, marching over Gauss-Legendre panels.

    With the wave pair carried as one amplitude z = v + i vt/omega (see
    _Kernels), the system is two equations of one form,

        u' = -i lam u - i P(v, u),      z' = -i omega z - i omega W(u),

    with v = Re z, and each panel solves their variation-of-constants form

        y(t) = exp(-i t k) (y0 - i integral_0^t exp(i s k) F(s) ds)

    for (y, k, F) = (u, lam, P(v, u)) and (z, omega, omega W(u)) by
    iterating on trajectory values held at the panel's quadrature nodes.
    Every free flow is read from `_Kernels.free_flow` and
    `_Kernels.wave_phase` of one kernel built with no step.

    Each panel starts from a three-point exponential predictor, the
    exponential time differencing of Cox and Matthews (J. Comput. Phys.
    176 (2002)) and Hochbruck and Ostermann (Acta Numerica 19 (2010)):
    P(v, u) and W(u) are modelled as quadratics in s through s = 0, h/2
    and h, and the Duhamel form with those integrands is integrated
    exactly, in one closed form for u and z at the nodes.  The values at
    h/2 and h come first from the exponential Euler solution (both
    integrands frozen at the panel's left edge) and once more from the
    quadratic model, so the predictor makes 5 evaluations of P(v, u) and
    W(u) and is fourth order in h.  Jacobi sweeps then refill the
    integrands at all P nodes.  The quadrature weights are a (P+1, P)
    matrix, as in a spectral deferred correction integration matrix (Dutt,
    Greengard and Rokhlin, BIT 40 (2000)): row i integrates up to node i
    and row P over the whole panel, so each sweep also gives the panel-end
    sums, and the panel advances with those of the sweep that converged.

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

    With r_k the residual of fine sweep k (the largest change it made at
    a node, in H1 for u plus L2 for v) and theta the largest ratio
    r_j / r_(j-1) the panel has shown, a panel stops when r_k, or with
    theta < 1/2 the estimate r_k theta / (1 - theta) of the last iterate's
    distance from the fixed point (Hairer and Wanner, Solving ODEs II,
    IV.8), is below _PICARD_TOL = 1e-11; it may take _PICARD_MAX_SWEEPS =
    80 fine sweeps.

    The panels are counted as integrate counts its steps, so a horizon of
    2**53 panels or more is refused with ValueError; panel k starts at
    t0 + k h, and the last one ends at t0 + T.

    The node stacks take 56 B per node-mode entry: four (P, Nx, Ny)
    stacks of the iterates u (complex) and v = Re z and the raw right-hand
    sides P(v, u) (complex) and omega W(u), and the wave phase exp(-i s w)
    at the first ceil(P/2) fine nodes (8 B per entry).  The sweeps read
    only v = Re z at the nodes; z is held whole at the panel's edges.  The
    Gauss-Legendre nodes lie symmetric about h/2, so `_mirror` forms the
    phase at the other nodes from these and the wave phase over the panel,
    a block of grid rows at a time.  The coarse level's node values use
    the first P_c slices of the same stacks, and its wave phase at the
    first ceil(P_c/2) coarse nodes is formed once per panel in the P(v, u)
    stack from slice P_c on, which the coarse stage leaves idle.
    The phases exp(i lam s) are products of per-axis factors, formed with
    the integrands that carry them a block of grid rows at a time, and a
    sweep forms its new iterates and their changes in place in that
    block's sums.  No node's change is ever held whole, so the residual
    (its H1 + L2 size at every node) is summed block by block over all
    nodes at once, not by the norms of `grids`, which take whole fields.

    Args:
        quad_nodes: P, the number of Gauss-Legendre collocation nodes per
            panel; the result is the P-node fixed point.
        residual_log: optional list; the residual of every fine sweep is
            appended to it (all panels concatenated).  A panel's first
            entry is the change of its first fine sweep from the coarse
            iterate, or from the predictor without the coarse level.

    Raises:
        ValueError: if quad_nodes is not an integer >= 2, T is not
            positive and finite, or T asks for 2**53 panels or more.
        PicardDivergenceError: if a panel does not stop within
            _PICARD_MAX_SWEEPS sweeps, or at the first sweep whose residual
            is not finite; it carries the last residual and theta (None
            after one sweep).
    """
    if type(quad_nodes) is bool or not isinstance(quad_nodes, (int, np.integer)) or quad_nodes < 2:
        raise ValueError(f"quad_nodes must be an integer >= 2, got {quad_nodes!r}")
    if not 0 < T < inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")

    state = prepare_initial_state(state0, params)
    grid = state.grid
    lam = grid.lam

    # Panel length: lam_max * h within what quad_nodes Lagrange points
    # resolve; 0.025 caps the contraction size.
    lam_max = float(lam.max())
    n_panels = _step_count(T, min(0.025, _RADIANS_PER_NODE * quad_nodes / lam_max), "panel", "h")
    h = T / n_panels
    # the coarse level: the node count the cap asks for on this panel; it
    # starts the sweeps when it is at most half of quad_nodes
    coarse_nodes = max(_MIN_NODES, ceil(lam_max * h / _RADIANS_PER_NODE))
    ker = _Kernels(grid, params, None)
    w = ker.w

    def gauss(n):
        """The n Gauss-Legendre nodes on (0, h) and their weights."""
        x, wx = np.polynomial.legendre.leggauss(n)
        return (x + 1.0) * 0.5 * h, wx * 0.5 * h

    u0 = state.u.coef.astype(np.complex128)
    z0 = state.v.coef + 1j * (state.vt.coef / w)
    t0 = state.t
    stack = (quad_nodes,) + grid.shape
    us = np.empty(stack, dtype=np.complex128)
    # v = Re z, all that the integrands read
    vs = np.empty(stack)
    # the raw right-hand sides at every node: P(v, u) and omega W(u)
    pvu = np.empty(stack, dtype=np.complex128)
    g = np.empty(stack)
    # H1 weights of the interleaved real and imaginary parts of u
    h1_weight = np.repeat(1.0 + lam, 2, axis=1)
    # the panel-end quadrature sums, kept from each sweep's last row
    Iu_end = np.empty_like(u0)
    Iz_end = np.empty_like(u0)
    blocks = [slice(lo, lo + _GRID_ROWS) for lo in range(0, grid.Nx, _GRID_ROWS)]

    half00 = 0.5 * lam[0, 0]

    def level(nodes, weights, wave):
        # exp(i lam s) = exp(i lx s) exp(i ly s), with lam split into its
        # per-axis parts lam[k, l] = lx[k] + ly[l]
        s = nodes[:, None]
        exp_x = np.exp(1j * (lam[:, 0] - half00) * s)
        exp_y = np.exp(1j * (lam[0, :] - half00) * s)
        return _Level(nodes[:, None, None], exp_x, exp_y, weights, wave)

    nodes, full_w = gauss(quad_nodes)
    # rows 0..P-1 integrate up to each node, row P over the whole panel;
    # exp(-i s w) at the first half of the nodes, _mirror forms the rest
    weights = np.vstack([_integration_weights(nodes, nodes), full_w])
    fine = level(nodes, weights, ker.wave_phase(nodes[: (quad_nodes + 1) // 2, None, None]))
    coarse = None
    if 2 * coarse_nodes <= quad_nodes:
        nodes_c = gauss(coarse_nodes)[0]
        # the coarse exp(-i s w) borrows pvu's slices from P_c on, which
        # the coarse stage leaves idle; the fine sweeps overwrite them, so
        # each panel forms them again
        coarse = level(
            nodes_c,
            _integration_weights(nodes_c, np.append(nodes, h)),
            pvu[coarse_nodes : coarse_nodes + (coarse_nodes + 1) // 2],
        )
    # the predictor's points h/2 and h, with the free flows over them; the
    # wave phase over h also mirrors the node tables
    phase_h, wave_h = ker.free_flow(h)
    points = [(0.5 * h, *ker.free_flow(0.5 * h)), (h, phase_h, wave_h)]

    def fill_integrands(n) -> None:
        """P(v, u) and omega W(u) from the iterates at the first n nodes."""
        for i in range(n):
            pvu[i] = ker.coupled_product(vs[i], us[i])
            np.multiply(ker.wave_source(us[i]), w, out=g[i])

    def quadratic(f0, f_half, f1):
        """(c0, c1, c2) of c0 + c1 s + c2 s^2 through f0, f_half and f1 at
        s = 0, h/2 and h."""
        return f0, (4.0 * f_half - 3.0 * f0 - f1) / h, 2.0 * (f1 - 2.0 * f_half + f0) / h**2

    def duhamel(c, k):
        """(q0, q1, q2) of the Duhamel solution of y' = -i k y - i F for
        the integrand F = c0 + c1 s + c2 s^2, integrated exactly:
            y(s) = exp(-i k s) (y0 + q0) - q0 - s q1 - s^2 q2
        with q2 = c2/k, q1 = (c1 + 2i q2)/k and q0 = (c0 + i q1)/k; lam and
        omega are positive on the sine band."""
        c0, c1, c2 = c
        q2 = c2 / k
        q1 = (c1 + 2j * q2) / k
        return (c0 + 1j * q1) / k, q1, q2

    def solution(q, y0, rows, t, phase):
        """y of duhamel()'s closed form from y0 on grid rows `rows` at
        times t, from its free flow exp(-i k t) there."""
        q0, q1, q2 = (x[rows] for x in q)
        return phase * (y0[rows] + q0) - (q0 + t * (q1 + t * q2))

    def advance(phase, y0, I):
        """phase (y0 - i I), in I's place: the Duhamel form at the nodes
        or the panel end, from the sums I of exp(i s k) F."""
        I *= -1j
        I += y0
        np.multiply(phase, I, out=I)
        return I

    def predict(lv) -> None:
        """Fill us / vs at the nodes of level lv, the first n slices, with
        the three-point exponential predictor."""
        n = len(lv.s)
        # exponential Euler: both integrands frozen at their s = 0 values
        p = [ker.coupled_product(z0.real, u0)] * 3
        W = [w * ker.wave_source(u0)] * 3
        for _ in range(2):
            qu, qz = duhamel(quadratic(*p), lam), duhamel(quadratic(*W), w)
            for j, (t, phase, wave) in enumerate(points, 1):
                u = solution(qu, u0, slice(None), t, phase)
                p[j] = ker.coupled_product(solution(qz, z0, slice(None), t, wave).real, u)
                W[j] = w * ker.wave_source(u)
        qu, qz = duhamel(quadratic(*p), lam), duhamel(quadratic(*W), w)
        for rows in blocks:
            buf = np.empty_like(us[:n, rows])
            # exp(-i lam s), conjugated per axis
            np.multiply(np.conj(lv.exp_x[:, rows, None]), np.conj(lv.exp_y[:, None, :]), out=buf)
            us[:n, rows] = solution(qu, u0, rows, lv.s, buf)
            vs[:n, rows] = solution(qz, z0, rows, lv.s, _mirror(lv, wave_h, rows, buf)).real

    def sweep_block(lv, rows):
        """The new iterates u and v = Re z at all P fine nodes on grid rows
        `rows`, from the integrands at the nodes of level lv (the first n
        slices of pvu and g); keeps the panel-end sums."""
        n = len(lv.s)
        buf = np.empty_like(us[:, rows])
        # the sums of exp(i s lam) P(v, u) and exp(i s w) omega W(u), with
        # each integrand formed in buf
        ib = buf[:n]
        np.multiply(lv.exp_x[:, rows, None], lv.exp_y[:, None, :], out=ib)
        ib *= pvu[:n, rows]
        Iu = _weighted_sum(lv.weights, ib)
        np.conj(_mirror(lv, wave_h, rows, ib), out=ib)
        ib *= g[:n, rows]
        Iz = _weighted_sum(lv.weights, ib)
        Iu_end[rows], Iz_end[rows] = Iu[-1], Iz[-1]
        # the new iterates at the fine nodes, in the rows of the sums, each
        # from its phases formed again in buf
        np.multiply(np.conj(fine.exp_x[:, rows, None]), np.conj(fine.exp_y[:, None, :]), out=buf)
        un = advance(buf, u0[rows], Iu[:-1])
        zn = advance(_mirror(fine, wave_h, rows, buf), z0[rows], Iz[:-1])
        return un, zn.real

    for panel in range(n_panels):
        if coarse is None:
            predict(fine)
        else:
            # the predictor and one Jacobi sweep on the coarse level give
            # the first iterate at the fine nodes
            ker.wave_phase(coarse.s[: len(coarse.wave)], out=coarse.wave)
            predict(coarse)
            fill_integrands(coarse_nodes)
            for rows in blocks:
                us[:, rows], vs[:, rows] = sweep_block(coarse, rows)
        panel_log: list[float] = []
        while True:
            # Jacobi sweep: every integrand comes from the previous sweep,
            # so the blocks below may overwrite us / vs in place
            fill_integrands(quad_nodes)
            # squared H1 of du and L2 of dv, per node
            du2 = np.zeros(quad_nodes)
            dv2 = np.zeros(quad_nodes)
            for rows in blocks:
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
                # free the block's sums before the next block forms its own
                del un, vn
            residual = float(np.max(np.sqrt(du2) + np.sqrt(dv2)))
            panel_log.append(residual)
            if residual_log is not None:
                residual_log.append(residual)
            if _panel_converged(panel_log):
                break
            # a non-finite iterate stays so: no further sweep can mend it
            if not residual < inf or len(panel_log) == _PICARD_MAX_SWEEPS:
                raise PicardDivergenceError(
                    residual, len(panel_log), panel, t0 + panel * h, _contraction(panel_log)
                )

        # advance the panel data to its right edge with the full-panel sums
        # of the converged sweep: like the last iterate, they come from the
        # integrands of the iterate one sweep earlier, so the panel end is
        # as close to the fixed point as the last iterate
        u0 = advance(phase_h, u0, Iu_end.copy())
        z0 = advance(wave_h, z0, Iz_end.copy())

    return _state_from_coef(grid, u0, z0.real.copy(), w * z0.imag, t0 + T)
