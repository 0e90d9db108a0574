"""Sine-spectral discretization of a rectangle with homogeneous Dirichlet walls.

Fields on the open rectangle (0, Lx) x (0, Ly) are represented by their
coefficients against the L2-orthonormal eigenbasis of the Dirichlet Laplacian,

    e_{k,l}(x, y) = (2 / sqrt(Lx*Ly)) * sin(k pi x / Lx) * sin(l pi y / Ly),

with eigenvalues lam(k, l) = (k pi / Lx)^2 + (l pi / Ly)^2, k = 1..Nx,
l = 1..Ny.  Transforms between interior-node samples and coefficients are
DST-I with orthonormal scaling, which makes Parseval exact:  the l2 norm of
the coefficient array equals the L2(Omega) norm of the represented function.

The transforms are applied as two dense matrix products (the matrix form
of spectral collocation): synthesis on an M-node grid is A_x @ c @ A_y.T
with A[j-1, k-1] = e_k(x_j) the M x N block of the sine basis at the
nodes, so zero-padding is implicit, and analysis computes only the N
retained rows.  The matrices, and the right factors as contiguous
transposes, are built once per (M, N, L) by _factors, and the products run
as real BLAS gemm on real arrays or on a (2, ., .) stack of real and
imaginary planes; a complex array is split into planes on entry and merged
on exit.  At the 3/2-padded and 2x-refined sizes used here an FFT of
length 2(M+1) has a large prime factor (2*97 at 96 nodes, 2*577 at 576),
and the products beat an FFT-based DST-I of the zero-padded array at every
such size measured, up to 2048 nodes; the FFT wins only on a power-of-two
band above 400 modes, which nothing here transforms.  The price is
O(M^2 N) time per M^2-node transform and 8 M N bytes per cached matrix,
three per (M, N, L) (the analysis matrix's transpose is a view of it);
past 2048 nodes neither was measured (a 4096^2 grid would cache about
2 GB), so a larger workload needs a benchmark before an FFT path comes
back.

Products of fields are not formed here: dynamics._Kernels decides where
each nonlinear term is sampled, with the 3/2 rule of the padded grid, and
forms it from these transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import sqrt

import numpy as np

__all__ = [
    "Grid2D",
    "Field",
    "make_grid",
    "field_from_coef",
    "analyze",
    "sobolev_norm",
    "l4_norm",
]

#: Sobolev exponents for which coefficient-space norms are defined here.
SOBOLEV_EXPONENTS = (-1.0, 0.0, 1.0)

@dataclass(frozen=True, eq=False)
class Grid2D:
    """Immutable spectral grid for the rectangle (0, Lx) x (0, Ly).

    Attributes:
        Lx, Ly: side lengths (positive).
        Nx, Ny: number of retained sine modes (and interior nodes) per axis.
        lam: (Nx, Ny) array of Dirichlet Laplacian eigenvalues, lam[k-1, l-1]
            corresponding to mode (k, l).  Strictly positive.
        x, y: interior collocation nodes j*L/(N+1), j = 1..N.
    """

    Lx: float
    Ly: float
    Nx: int
    Ny: int
    lam: np.ndarray = dc_field(repr=False)
    x: np.ndarray = dc_field(repr=False)
    y: np.ndarray = dc_field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.Nx, self.Ny)

    def compatible(self, other: "Grid2D") -> bool:
        return (self.Lx, self.Ly, self.Nx, self.Ny) == (
            other.Lx,
            other.Ly,
            other.Nx,
            other.Ny,
        )


def make_grid(Lx: float, Ly: float, Nx: int, Ny: int) -> Grid2D:
    """Build the spectral grid, precomputing eigenvalues and nodes.

    Raises:
        ValueError: if a side length or mode count is not positive, or the
            largest eigenvalue or the inverse of the smallest overflows.
    """
    if not (Lx > 0 and Ly > 0):
        raise ValueError(f"side lengths must be positive, got Lx={Lx}, Ly={Ly}")
    if not (Nx >= 1 and Ny >= 1):
        raise ValueError(f"mode counts must be positive, got Nx={Nx}, Ny={Ny}")
    with np.errstate(over="ignore", divide="ignore"):
        kx = np.arange(1, Nx + 1) * np.pi / Lx
        ky = np.arange(1, Ny + 1) * np.pi / Ly
        lam = kx[:, None] ** 2 + ky[None, :] ** 2
        in_range = np.isfinite(lam[-1, -1]) and np.isfinite(1.0 / lam[0, 0])
    if not in_range:
        raise ValueError(
            f"Laplacian eigenvalues leave the float range on Lx={Lx}, Ly={Ly} "
            f"with {Nx} x {Ny} modes"
        )
    x = np.arange(1, Nx + 1) * (Lx / (Nx + 1))
    y = np.arange(1, Ny + 1) * (Ly / (Ny + 1))
    for arr in (lam, x, y):
        arr.setflags(write=False)
    return Grid2D(float(Lx), float(Ly), int(Nx), int(Ny), lam, x, y)


@dataclass(frozen=True)
class Field:
    """Coefficients of a scalar field against the orthonormal sine basis.

    coef[k-1, l-1] multiplies e_{k,l}.  dtype float64 for real-kind fields,
    complex128 for complex-kind.
    """

    grid: Grid2D
    coef: np.ndarray

    @property
    def kind(self) -> str:
        return "complex" if np.iscomplexobj(self.coef) else "real"


def field_from_coef(grid: Grid2D, coef: np.ndarray) -> Field:
    """Wrap a coefficient array, normalizing dtype to float64/complex128."""
    coef = np.asarray(coef)
    if coef.shape != grid.shape:
        raise ValueError(
            f"coefficient shape {coef.shape} does not match grid {grid.shape}"
        )
    dtype = np.complex128 if np.iscomplexobj(coef) else np.float64
    return Field(grid, coef.astype(dtype, copy=False))


def _sines(M: int, N: int) -> np.ndarray:
    """sin(pi j k / (M+1)) for nodes j = 1..M (rows) and modes k = 1..N."""
    # reduce j*k modulo the period 2(M+1) exactly before scaling to radians
    jk = np.outer(np.arange(1, M + 1), np.arange(1, N + 1)) % (2 * (M + 1))
    return np.sin((np.pi / (M + 1)) * jk)


@lru_cache(maxsize=128)
def _factors(M: int, N: int, L: float) -> tuple[np.ndarray, ...]:
    """The read-only transform factors of M nodes and N modes on (0, L):
    (A, A.T, B, B.T), with A[j-1, k-1] = e_k(x_j) = sqrt(2/L) sin(pi j k /
    (M+1)) the M x N synthesis (the first N orthonormal sine modes at M
    interior nodes) and B = A.T * L/(M+1) the N x M analysis (the first N
    rows of the inverse of the M-node synthesis: the discrete sine basis
    is orthogonal under the node sum).  The transposes are C-contiguous,
    as the right factor of a transform must be: gemm on a transposed view
    is slower."""
    sines = _sines(M, N)
    A = sqrt(2.0 / L) * sines
    B = (sqrt(2.0 * L) / (M + 1)) * sines.T
    factors = (A, np.ascontiguousarray(A.T), B, np.ascontiguousarray(B.T))
    for matrix in factors:
        matrix.setflags(write=False)
    return factors


def to_planes(z: np.ndarray) -> np.ndarray:
    """A complex array as a real stack of two planes: real part, imaginary part."""
    planes = np.empty((2,) + z.shape)
    planes[0] = z.real
    planes[1] = z.imag
    return planes


def from_planes(planes: np.ndarray) -> np.ndarray:
    """The complex array of a stack of real and imaginary planes."""
    z = np.empty(planes.shape[1:], dtype=np.complex128)
    z.real = planes[0]
    z.imag = planes[1]
    return z


# The factor pairs of the two entry points below, keyed by the sides, the
# node shape and the band: a transform costs one frame and one lookup of
# these on top of its two products.  Those entry points are the only way a
# transform runs (the benchmark tracer and the tests' transform counts wrap
# exactly these two names), so each writes its products out itself.


@lru_cache(maxsize=128)
def _synthesis_pair(Lx: float, Ly: float, nodes: tuple, band: tuple) -> tuple[np.ndarray, ...]:
    """(A_x, A_y.T) of a synthesis from `band` modes to `nodes` nodes per
    axis.  A node shape coarser than the band raises ValueError, on every
    call, as lru_cache keeps no exception."""
    if nodes[0] < band[0] or nodes[1] < band[1]:
        raise ValueError("synthesis grid must be at least as fine as the band")
    return _factors(nodes[0], band[0], Lx)[0], _factors(nodes[1], band[1], Ly)[1]


@lru_cache(maxsize=128)
def _analysis_pair(Lx: float, Ly: float, nodes: tuple, band: tuple) -> tuple[np.ndarray, ...]:
    """(B_x, B_y.T) of an analysis from `nodes` nodes per axis to the first
    min(band, nodes) modes."""
    nx, ny = min(band[0], nodes[0]), min(band[1], nodes[1])
    return _factors(nodes[0], nx, Lx)[2], _factors(nodes[1], ny, Ly)[3]


def coef_to_values(grid: Grid2D, coef: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Evaluate a coefficient array at the interior nodes of an (optionally
    refined) grid with `shape` modes per axis; modes beyond the band count
    as zero.  `coef` is real, complex, or a (2, Nx, Ny) stack of real and
    imaginary planes, and the values come in the same form.  A complex
    array is split into planes on entry and merged on exit, and a planes
    stack goes through as one tall matrix on the right and one stacked
    product on the left."""
    left, right_t = _synthesis_pair(
        grid.Lx, grid.Ly, (grid.Nx, grid.Ny) if shape is None else shape, coef.shape[-2:]
    )
    merge = coef.dtype.kind == "c"
    if merge:
        coef = to_planes(coef)
    elif coef.ndim == 2:
        return left @ (np.ascontiguousarray(coef) @ right_t)
    n, n0, n1 = coef.shape
    values = left @ (coef.reshape(n * n0, n1) @ right_t).reshape(n, n0, -1)
    return from_planes(values) if merge else values


def values_to_coef(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """Transform interior-node samples (on a grid of any shape) to sine
    coefficients of the retained band, in the form of the samples: real,
    complex, or a stack of real and imaginary planes."""
    left, right_t = _analysis_pair(grid.Lx, grid.Ly, values.shape[-2:], (grid.Nx, grid.Ny))
    merge = values.dtype.kind == "c"
    if merge:
        values = to_planes(values)
    elif values.ndim == 2:
        return left @ (np.ascontiguousarray(values) @ right_t)
    n, n0, n1 = values.shape
    coef = left @ (values.reshape(n * n0, n1) @ right_t).reshape(n, n0, -1)
    return from_planes(coef) if merge else coef


def analyze(grid: Grid2D, samples: np.ndarray) -> Field:
    """Coefficients of the unique band-limited interpolant through samples
    given at the grid's interior nodes.

    Args:
        grid: target grid.
        samples: (Nx, Ny) array, samples[j-1, m-1] = f(x_j, y_m).

    Returns:
        Field with real or complex kind matching the samples.
    """
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ValueError(
            f"sample shape {samples.shape} does not match grid {grid.shape}"
        )
    return field_from_coef(grid, values_to_coef(grid, samples))


def sobolev_norm(f: Field, s: float) -> float:
    """Norm of (-Laplacian)^(s/2) applied to the field, via the exact
    eigenvalue sum (sum over modes of lam^s |c|^2)^(1/2).

    Args:
        f: field.
        s: one of -1, 0, 1.

    Raises:
        ValueError: for unsupported exponents.
    """
    s = float(s)
    if s not in SOBOLEV_EXPONENTS:
        raise ValueError(f"unsupported Sobolev exponent {s}; allowed: {SOBOLEV_EXPONENTS}")
    grid = f.grid
    w = _sobolev_weights(grid.Lx, grid.Ly, grid.Nx, grid.Ny, s) if s != 0 else 1.0
    return float(np.sqrt(np.sum(w * np.abs(f.coef) ** 2)))


@lru_cache(maxsize=16)
def _sobolev_weights(Lx: float, Ly: float, Nx: int, Ny: int, s: float) -> np.ndarray:
    """lam^s of the grid make_grid builds from these values, read-only.
    Keyed by the values and not by a Grid2D, which hashes by identity, so
    that every grid of one shape shares one table."""
    w = make_grid(Lx, Ly, Nx, Ny).lam ** s
    w.setflags(write=False)
    return w


def h1_norm(f: Field) -> float:
    """(||f||_2^2 + ||grad f||_2^2)^(1/2)."""
    return float(np.sqrt(np.sum((1.0 + f.grid.lam) * np.abs(f.coef) ** 2)))


def l4_norm(f: Field) -> float:
    """L^4(Omega) norm by composite trapezoid quadrature on a 2x-refined
    synthesis grid.  Boundary values vanish (Dirichlet), so the rule reduces
    to a plain weighted sum over interior nodes, and for a band-limited
    field it is exact up to rounding: on N modes per axis |f|^4 is a sum of
    cos(k pi x / L) with k <= 4N, which the rule on 2N + 1 intervals
    integrates exactly (it is exact for k < 4N + 2)."""
    grid = f.grid
    shape = (2 * grid.Nx, 2 * grid.Ny)
    coef = f.coef
    # |f|^2 on the nodes, in place in the synthesis: re^2 + im^2 of a
    # complex field's planes
    if coef.dtype.kind == "c":
        sq = coef_to_values(grid, to_planes(coef), shape)
        np.square(sq, out=sq)
        sq = np.add(sq[0], sq[1], out=sq[0])
    else:
        sq = coef_to_values(grid, coef, shape)
        np.square(sq, out=sq)
    # the sum of (|f|^2)^2 as one dot product
    sq = sq.ravel()
    hx = grid.Lx / (shape[0] + 1)
    hy = grid.Ly / (shape[1] + 1)
    return float((np.dot(sq, sq) * hx * hy) ** 0.25)
