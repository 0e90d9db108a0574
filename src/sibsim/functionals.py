"""Scalar functionals of the coupled system: charge, energy, difference
metrics, Gagliardo-Nirenberg machinery, and a-priori envelope bounds.

Conventions:

* charge = ||u||_2^2, conserved exactly by the flow.
* energy = ||grad u||^2 + (||v||^2 + ||(-Lap)^{-1/2} vt||^2 + eps ||vt||^2)/2
  + <v, W(u)>.  The quadratic part is the norms of grids (sobolev_norm at
  s = 1, 0, -1 and 0) squared; W(u) is the stepping kernel's own wave
  source (dynamics._Kernels.wave_source), paired in coefficient space: |u|^2
  sampled on the collocation nodes, or J|Ju|^2 when the run is Yosida
  regularized.  The energy is then the one the stepper conserves, and the
  reported drift reflects the splitting error and not a quadrature or
  model mismatch.
* The series column hm_half_vt holds ||(-Lap)^{-1/2} vt||_2, which is
  sobolev_norm(vt, -1.0): the negative-order norm of the energy, of
  difference_metric and of the envelope left-hand sides.
  DataNorms.neg_half_psi1 is the same norm of psi1.
* The envelope constants C3 (H1-level growth) and C6 (small-data uniform
  bound) are explicit polynomials in the data norms and the sharp
  Gagliardo-Nirenberg constant C0.  C0 = sqrt(2)/||Q||_2 with Q the ground
  state of Lap Q - Q + Q^3 = 0; `estimate_gn_constant` approaches it from
  below on a given grid, so every asserted inequality uses a certified lower
  bound of the true constant.  The default C0 is such a bound, stored as
  REFERENCE_C0 rather than estimated in every process; `sibsim check`
  re-derives it and fails if the stored value exceeds the fresh estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import State, SystemParams, _Kernels
from .grids import (
    Field,
    Grid2D,
    analyze,
    coef_to_values,
    field_from_coef,
    h1_norm,
    lp_norm,
    sobolev_norm,
    values_to_coef,
)

__all__ = [
    "DataNorms",
    "EnvelopeConstants",
    "RunMonitor",
    "SERIES_COLUMNS",
    "charge",
    "energy",
    "difference_metric",
    "cauchy_metric",
    "gn_quotient",
    "estimate_gn_constant",
    "default_gn_constant",
    "envelope_constants",
    "envelope_h1",
    "h1_envelope_lhs",
    "small_envelope_lhs",
]

# the columns of series.csv: a monitor row, then envelope_h1, which depends
# on t alone and is evaluated from the sampled times
SERIES_COLUMNS = (
    "t",
    "charge",
    "energy_eps",
    "h1_u",
    "l2_v",
    "l2_vt",
    "hm_half_vt",
    "gn_quotient",
    "envelope_h1",
)


@dataclass(frozen=True)
class DataNorms:
    """Norms of the initial data (phi, psi0, psi1) entering the envelope
    constants: the L2 norm of each component, ||grad phi||, and the
    negative-order norm ||(-Lap)^{-1/2} psi1||."""

    l2_phi: float
    grad_phi: float
    l2_psi0: float
    l2_psi1: float
    neg_half_psi1: float

    def __post_init__(self):
        for name, val in vars(self).items():
            if not (math.isfinite(val) and val >= 0):
                raise ValueError(f"data norm {name} must be finite and nonnegative")

    @classmethod
    def from_state(cls, state: State) -> "DataNorms":
        """Norms of the data (phi, psi0, psi1) = (u, v, vt) of a state."""
        phi, psi0, psi1 = state.u, state.v, state.vt
        # a norm past the float range reads inf, and the finiteness check
        # names it, instead of numpy warning first
        with np.errstate(over="ignore"):
            return cls(
                l2_phi=sobolev_norm(phi, 0.0),
                grad_phi=sobolev_norm(phi, 1.0),
                l2_psi0=sobolev_norm(psi0, 0.0),
                l2_psi1=sobolev_norm(psi1, 0.0),
                neg_half_psi1=sobolev_norm(psi1, -1.0),
            )


@dataclass(frozen=True)
class EnvelopeConstants:
    """C0 (sharp Gagliardo-Nirenberg constant), C3 (H1-level envelope), and
    C6 (small-data uniform bound; None whenever C0*||phi||_2 >= sqrt(2))."""

    c0: float
    c3: float
    c6: float | None

    def __post_init__(self):
        if not self.c0 > 0:
            raise ValueError(f"C0 must be positive, got {self.c0}")


# ---------------------------------------------------------------------------
# pointwise functionals


def charge(state: State) -> float:
    """||u||_2^2."""
    return float(np.sum(np.abs(state.u.coef) ** 2))


def energy(state: State, params: SystemParams) -> float:
    """Conserved energy of the system that `params` steps (eps, and the
    Yosida wrapping of the coupling term)."""
    vt = state.vt
    return _energy(
        state,
        params,
        None,
        sobolev_norm(state.u, 1.0),
        sobolev_norm(state.v, 0.0),
        sobolev_norm(vt, -1.0),
        sobolev_norm(vt, 0.0),
    )


def _energy(state, params, source, grad_u, l2_v, hm_half_vt, l2_vt) -> float:
    """The energy from the norms ||grad u||, ||v||, ||(-Lap)^{-1/2} vt||
    and ||vt|| of the state, which a monitor row forms once for its
    columns too, and the wave source W(u) of its u (None: formed here),
    which a row takes from integrate."""
    quad = grad_u**2 + 0.5 * (l2_v**2 + hm_half_vt**2 + params.eps * l2_vt**2)
    if source is None:
        source = _Kernels(state.grid, params, None).wave_source(state.u.coef)
    # the stepper's own wave source; any other quadrature or model here
    # would decouple the reported energy from the conserved one
    coupling = np.sum(state.v.coef * source)
    return float(quad + coupling)


def _distance(state_a: State, state_b: State, s: float) -> float:
    """||u_a - u_b||_{H1} + ||v_a - v_b||_2 + ||(-Lap)^{s/2}(vt_a - vt_b)||_2
    by the norms of grids, the one body of both state distances; ValueError
    unless the states live on one grid at (numerically) one time."""
    grid = state_a.grid
    if not grid.compatible(state_b.grid):
        raise ValueError("states live on different grids")
    if abs(state_a.t - state_b.t) > 1e-9 * max(1.0, abs(state_a.t)):
        raise ValueError(
            f"states are at different times: {state_a.t} vs {state_b.t}"
        )
    du, dv, dvt = (
        field_from_coef(grid, a.coef - b.coef)
        for a, b in zip((state_a.u, state_a.v, state_a.vt), (state_b.u, state_b.v, state_b.vt))
    )
    return h1_norm(du) + sobolev_norm(dv, 0.0) + sobolev_norm(dvt, s)


def difference_metric(state_a: State, state_b: State) -> float:
    """||u_a - u_b||_{H1} + ||v_a - v_b||_2 + ||(-Lap)^{-1/2}(vt_a - vt_b)||_2,
    the distance of the eps -> 0 comparison: at eps = 0 the energy bounds
    vt only in this negative-order norm.  The states must live on one grid
    and carry (numerically) the same time."""
    return _distance(state_a, state_b, -1.0)


def cauchy_metric(state_a: State, state_b: State) -> float:
    """||u_a - u_b||_{H1} + ||v_a - v_b||_2 + ||vt_a - vt_b||_2, the distance
    in which Yosida-regularized runs approach each other as n grows.  Same
    grid and time requirements as difference_metric."""
    return _distance(state_a, state_b, 0.0)


def gn_quotient(u: Field) -> float:
    """||u||_4^2 / (||u||_2 ||grad u||_2); scale invariant, bounded by C0."""
    nrm2 = sobolev_norm(u, 0.0)
    if nrm2 == 0.0:
        raise ValueError("Gagliardo-Nirenberg quotient of the zero field")
    return _gn_quotient(u, nrm2, sobolev_norm(u, 1.0))


def _gn_quotient(u: Field, l2_u: float, grad_u: float) -> float:
    """gn_quotient from the norms ||u||_2 > 0 and ||grad u||_2 of u."""
    return lp_norm(u, 4) ** 2 / (l2_u * grad_u)


# ---------------------------------------------------------------------------
# sharp-constant estimator

# estimate_gn_constant's least gain per iteration and most iterations
_GN_TOL = 1e-11
_GN_MAX_ITER = 400


def _cube(grid: Grid2D, c: np.ndarray) -> np.ndarray:
    """Band coefficients of the interpolant of c^3 on the collocation nodes."""
    cv = coef_to_values(grid, c)
    return values_to_coef(grid, cv * cv * cv)


def estimate_gn_constant(grid: Grid2D) -> float:
    """Maximize the Gagliardo-Nirenberg quotient on the given grid.

    Spectral renormalization with monotone acceptance: from a centered bump,
    repeat u <- normalize((mu - Lap)^{-1} u^3), keeping a candidate only if
    the (exactly evaluated) quotient does not decrease, and blending toward
    the previous iterate otherwise.  The quotient sequence is nondecreasing
    and every iterate is an admissible trial function, so the returned value
    is a lower bound of the sharp constant regardless of convergence.

    Stops once an iteration gains less than _GN_TOL, or after _GN_MAX_ITER
    iterations with a warning, returning the best quotient found.
    """
    L = min(grid.Lx, grid.Ly)
    mu = (12.0 / L) ** 2 * 4.0
    lam = grid.lam
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    bump = np.exp(-0.5 * mu * ((X - grid.Lx / 2) ** 2 + (Y - grid.Ly / 2) ** 2))
    u = analyze(grid, bump).coef
    u /= np.sqrt(np.sum(u**2))

    def quotient(c: np.ndarray) -> float:
        return gn_quotient(field_from_coef(grid, c))

    j = quotient(u)
    for _ in range(_GN_MAX_ITER):
        w = _cube(grid, u) / (lam + mu)
        w /= np.sqrt(np.sum(w**2))
        jn = quotient(w)
        if jn >= j - 1e-15:
            gain = jn - j
            u, j = w, max(j, jn)
        else:
            for theta in (0.5, 0.25, 0.125, 0.0625):
                cand = u + theta * (w - u)
                cand /= np.sqrt(np.sum(cand**2))
                jc = quotient(cand)
                if jc >= j - 1e-15:
                    gain = max(0.0, jc - j)
                    u, j = cand, max(j, jc)
                    break
            else:
                break  # no blend is accepted: stationary up to round-off
        if gain < _GN_TOL:
            break
    else:
        warnings.warn(
            "Gagliardo-Nirenberg estimator stopped before reaching tolerance; "
            "returning the best (still valid lower-bound) quotient",
            RuntimeWarning,
        )
    return j


# estimate_gn_constant(make_grid(2 * pi, 2 * pi, 128, 128)) with the cube
# on the 3/2-padded grid, stored so that no process pays the estimate.  The
# nodal cube reads 1.0e-14 relative below it; both are quotients of trial
# functions, so both are lower bounds.  It matches sqrt(2)/||Q||_2
# (||Q||_2^2 = 11.7009) to six digits while staying below it.  The check
# suite's stored-c0-certified assertion re-derives it on that grid.
REFERENCE_C0 = 0.4134332756889266


# still a cached function: the benchmark's cold set-up calls cache_clear()
@lru_cache(maxsize=1)
def default_gn_constant() -> float:
    """The stored, certified C0 (REFERENCE_C0): the estimator's lower bound
    on 128 modes per direction over (0, 2pi)^2, re-derived by `sibsim
    check`.  One value serves every rectangle: the quotient
    ||u||_4^2 / (||u||_2 ||grad u||_2) is invariant under translation and
    under u(x) -> u(lambda x) in 2-D, so the sharp constant is too.
    """
    return REFERENCE_C0


# ---------------------------------------------------------------------------
# envelope bounds


def envelope_constants(dn: DataNorms, c0: float) -> EnvelopeConstants:
    """Assemble C3 and (when the smallness hypothesis holds) C6 from the
    data norms; C6 is None when C0*||phi||_2 >= sqrt(2)."""
    c3 = (
        2.0 * dn.grad_phi**2
        + dn.l2_psi0**2
        + dn.l2_psi1**2
        + dn.neg_half_psi1**2
        + c0 * dn.l2_psi0 * dn.l2_phi * dn.grad_phi
        + c0**2 * dn.l2_phi**2 * dn.l2_psi0**2
    )
    defect = 1.0 - c0 * dn.l2_phi / math.sqrt(2.0)
    if defect > 0.0:
        c6 = (
            dn.grad_phi**2
            + 0.5 * (dn.l2_psi0**2 + dn.l2_psi1**2 + dn.neg_half_psi1**2)
            + c0 * dn.l2_phi * dn.grad_phi * dn.l2_psi0
        ) / defect
    else:
        c6 = None
    return EnvelopeConstants(c0=c0, c3=c3, c6=c6)


def envelope_h1(t: float, ec: EnvelopeConstants, dn: DataNorms) -> float:
    """H1-level a-priori envelope C3 * exp(C0^2 ||phi||_2^2 t).

    Overflow saturates to inf rather than raising: an infinite envelope
    dominates every finite left-hand side.
    """
    if t < 0:
        raise ValueError(f"envelope is asserted for t >= 0 only, got t={t}")
    try:
        return ec.c3 * math.exp(ec.c0**2 * dn.l2_phi**2 * t)
    except OverflowError:
        return math.inf


def h1_envelope_lhs(series) -> np.ndarray:
    """Quantity dominated by envelope_h1, from the monitor columns (a
    TrajectoryRecord.series, a series.csv read into arrays, or one row):
    ||grad u||^2 + ||v||^2 + ||vt||^2 + ||(-Lap)^{-1/2} vt||^2."""
    grad_u_sq = series["h1_u"] ** 2 - series["charge"]
    return grad_u_sq + series["l2_v"] ** 2 + series["l2_vt"] ** 2 + series["hm_half_vt"] ** 2


def small_envelope_lhs(series, eps: float) -> np.ndarray:
    """Quantity dominated by C6, from the monitor columns:
    ||grad u||^2 + (||v||^2 + ||(-Lap)^{-1/2} vt||^2 + eps ||vt||^2)/2."""
    grad_u_sq = series["h1_u"] ** 2 - series["charge"]
    return grad_u_sq + 0.5 * (
        series["l2_v"] ** 2 + series["hm_half_vt"] ** 2 + eps * series["l2_vt"] ** 2
    )


# ---------------------------------------------------------------------------
# per-sample diagnostics


@dataclass(frozen=True)
class RunMonitor:
    """Fixed per-run context (data norms, envelope constants, start time)
    used to evaluate one diagnostics row per sample."""

    dn: DataNorms
    ec: EnvelopeConstants
    t0: float = 0.0

    @classmethod
    def from_state(cls, state: State) -> "RunMonitor":
        dn = DataNorms.from_state(state)
        return cls(dn=dn, ec=envelope_constants(dn, default_gn_constant()), t0=state.t)

    def row(
        self, state: State, params: SystemParams, source: np.ndarray | None = None
    ) -> dict[str, float]:
        """One diagnostics row.  Every column is derived from the state, so
        integrate's finiteness check of the row aborts on the state only.
        source is the wave source W(u) of the state's u, which integrate
        hands over so that the row forms none of its own; without it the
        row forms it.  Each norm is formed once and shared by the columns
        and the energy."""
        u, v, vt = state.u, state.v, state.vt
        grad_u = sobolev_norm(u, 1.0)
        l2_v = sobolev_norm(v, 0.0)
        l2_vt = sobolev_norm(vt, 0.0)
        hm_half_vt = sobolev_norm(vt, -1.0)
        # zero fields have no Gagliardo-Nirenberg quotient; logged as 0
        l2_u = sobolev_norm(u, 0.0)
        quotient = _gn_quotient(u, l2_u, grad_u) if l2_u != 0.0 else 0.0
        return {
            "t": state.t,
            "charge": charge(state),
            "energy_eps": _energy(state, params, source, grad_u, l2_v, hm_half_vt, l2_vt),
            "h1_u": h1_norm(u),
            "l2_v": l2_v,
            "l2_vt": l2_vt,
            "hm_half_vt": hm_half_vt,
            "gn_quotient": quotient,
        }
