"""Sine-spectral discretization of a rectangle with homogeneous Dirichlet walls.

Fields on the open rectangle (0, Lx) x (0, Ly) are represented by their
coefficients against the L2-orthonormal eigenbasis of the Dirichlet Laplacian,

    e_{k,l}(x, y) = (2 / sqrt(Lx*Ly)) * sin(k pi x / Lx) * sin(l pi y / Ly),

with eigenvalues lam(k, l) = (k pi / Lx)^2 + (l pi / Ly)^2, k = 1..Nx,
l = 1..Ny.  Transforms between interior-node samples and coefficients are
DST-I with orthonormal scaling, which makes Parseval exact:  the l2 norm of
the coefficient array equals the L2(Omega) norm of the represented function.

Up to DENSE_MAX_EDGE nodes per axis the transforms are applied as two dense
matrix products (the matrix form of spectral collocation): synthesis on an
M-node grid is A_x @ c @ A_y.T with A[j-1, k-1] = e_k(x_j) the M x N block
of the sine basis at the nodes, so zero-padding is implicit, and analysis
computes only the N retained rows.  The matrices, and the right factors
as contiguous transposes, are built once per (M, N, L) and the products
run as real BLAS gemm; complex arrays are split into stacked real and
imaginary parts.  Small grids are where this pays:
at the 3/2-padded sizes used here the FFT length 2(M+1) has a large prime
factor (2*97 at 96 nodes).  Above the cutoff the O(M N^2) products lose to
the FFT, and scipy's dstn on the zero-padded array is used instead; scipy.fft
is imported only then, because loading it would otherwise be the largest
part of importing sibsim.  Both paths agree to round-off.

Quadratic terms are evaluated pseudospectrally on a zero-padded grid with
at least ceil(3N/2) modes per axis, which prevents representable sine
content of a product from folding back onto the retained band.  Note that
the product of two sine polynomials is a cosine polynomial whose sine
re-expansion is an infinite series, so unlike the periodic case the padded
product is not the exact L2 projection of the product; the deviation
vanishes algebraically with resolution and is quantified in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import ceil, sqrt

import numpy as np

__all__ = [
    "Grid2D",
    "Field",
    "make_grid",
    "field_from_coef",
    "analyze",
    "sobolev_norm",
    "lp_norm",
]

#: Sobolev exponents for which coefficient-space norms are defined here.
SOBOLEV_EXPONENTS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

#: Largest node count per axis transformed by dense matrix products; larger
#: transforms use the FFT.  Complex square transforms between a band of N
#: modes and M = 3N/2 nodes, one OpenBLAS thread, 2-core Xeon: the products
#: took 0.07 to 0.2 of dstn's time at M = 192, 256 and 400 (2(M+1) has the
#: prime factor 193, 257 or 401), 0.4 to 0.7 at M = 300 and 450, 0.85 to 1
#: at M = 383 (2(M+1) = 768), and lost the analysis at M = 511 (1024
#: points), 19 ms against 12 ms.
DENSE_MAX_EDGE = 400


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

    @property
    def pad_shape(self) -> tuple[int, int]:
        """Mode counts used for dealiased quadratic products (3/2 rule)."""
        return (ceil(3 * self.Nx / 2), ceil(3 * self.Ny / 2))

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
        ValueError: if a side length or mode count is not positive.
    """
    if not (Lx > 0 and Ly > 0):
        raise ValueError(f"side lengths must be positive, got Lx={Lx}, Ly={Ly}")
    if not (Nx >= 1 and Ny >= 1):
        raise ValueError(f"mode counts must be positive, got Nx={Nx}, Ny={Ny}")
    kx = np.arange(1, Nx + 1) * np.pi / Lx
    ky = np.arange(1, Ny + 1) * np.pi / Ly
    lam = kx[:, None] ** 2 + ky[None, :] ** 2
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


def _scale(Lx: float, Ly: float, shape: tuple[int, int]) -> float:
    # DST-I (ortho) maps samples to sqrt((N+1)/L)-scaled coefficients; this
    # factor converts to the L2-orthonormal basis.
    return sqrt(Lx * Ly / ((shape[0] + 1) * (shape[1] + 1)))


def _sines(M: int, N: int) -> np.ndarray:
    """sin(pi j k / (M+1)) for nodes j = 1..M (rows) and modes k = 1..N."""
    # reduce j*k modulo the period 2(M+1) exactly before scaling to radians
    jk = np.outer(np.arange(1, M + 1), np.arange(1, N + 1)) % (2 * (M + 1))
    return np.sin((np.pi / (M + 1)) * jk)


@lru_cache(maxsize=64)
def _synthesis_matrix(M: int, N: int, L: float) -> np.ndarray:
    """M x N matrix A[j-1, k-1] = e_k(x_j) = sqrt(2/L) sin(pi j k / (M+1)):
    the first N orthonormal sine modes on (0, L) at M interior nodes."""
    A = sqrt(2.0 / L) * _sines(M, N)
    A.setflags(write=False)
    return A


@lru_cache(maxsize=64)
def _analysis_matrix(M: int, N: int, L: float) -> np.ndarray:
    """N x M matrix A.T * L/(M+1): the first N rows of the inverse of the
    M-node synthesis (the discrete sine basis is orthogonal under the node
    sum)."""
    B = (sqrt(2.0 * L) / (M + 1)) * _sines(M, N).T
    B.setflags(write=False)
    return B


@lru_cache(maxsize=128)
def _transposed(matrix, M: int, N: int, L: float) -> np.ndarray:
    """matrix(M, N, L).T as a read-only C-contiguous array, the right
    factor of a transform: gemm on a transposed view is slower."""
    T = np.ascontiguousarray(matrix(M, N, L).T)
    T.setflags(write=False)
    return T


def _dense(left: np.ndarray, arr: np.ndarray, right_t: np.ndarray) -> np.ndarray:
    """left @ arr @ right_t by real gemm; a complex arr goes through as
    its stacked real and imaginary parts."""
    if not np.iscomplexobj(arr):
        return left @ (np.ascontiguousarray(arr) @ right_t)
    n0, n1 = arr.shape
    parts = np.empty((2, n0, n1))
    parts[0] = arr.real
    parts[1] = arr.imag
    parts = left @ (parts.reshape(2 * n0, n1) @ right_t).reshape(2, n0, -1)
    out = np.empty(parts.shape[1:], dtype=np.complex128)
    out.real = parts[0]
    out.imag = parts[1]
    return out


def coef_to_values(grid: Grid2D, coef: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Evaluate a coefficient array at the interior nodes of an (optionally
    refined) grid with `shape` modes per axis; modes beyond the band count
    as zero."""
    if shape is None:
        shape = grid.shape
    if shape[0] < coef.shape[0] or shape[1] < coef.shape[1]:
        raise ValueError("synthesis grid must be at least as fine as the band")
    if max(shape) <= DENSE_MAX_EDGE:
        ax = _synthesis_matrix(shape[0], coef.shape[0], grid.Lx)
        ay_t = _transposed(_synthesis_matrix, shape[1], coef.shape[1], grid.Ly)
        return _dense(ax, coef, ay_t)
    from scipy.fft import dstn  # loaded only above the cutoff

    if shape != coef.shape:
        padded = np.zeros(shape, dtype=coef.dtype)
        padded[: coef.shape[0], : coef.shape[1]] = coef
        coef = padded
    return dstn(coef, type=1, norm="ortho") / _scale(grid.Lx, grid.Ly, shape)


def values_to_coef(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """Transform interior-node samples (on a grid of any shape) to sine
    coefficients of the retained band."""
    shape = values.shape
    if max(shape) <= DENSE_MAX_EDGE:
        bx = _analysis_matrix(shape[0], min(grid.Nx, shape[0]), grid.Lx)
        by_t = _transposed(_analysis_matrix, shape[1], min(grid.Ny, shape[1]), grid.Ly)
        return _dense(bx, values, by_t)
    from scipy.fft import dstn  # loaded only above the cutoff

    coef = dstn(values, type=1, norm="ortho") * _scale(grid.Lx, grid.Ly, shape)
    return coef[: grid.Nx, : grid.Ny]


def coef_product(
    grid: Grid2D, a: np.ndarray, b: np.ndarray, shape: tuple[int, int] | None = None
) -> np.ndarray:
    """Band coefficients of a*b from samples at the nodes of a grid with
    `shape` modes per axis (default: the 3/2-padded grid)."""
    if shape is None:
        shape = grid.pad_shape
    va = coef_to_values(grid, a, shape)
    vb = coef_to_values(grid, b, shape)
    return values_to_coef(grid, va * vb)


def intensity_coef(grid: Grid2D, u: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Band coefficients of |u|^2 from samples at the nodes of a grid with
    `shape` modes per axis (default: the collocation nodes)."""
    vals = coef_to_values(grid, u, shape)
    return values_to_coef(grid, (vals * vals.conj()).real)


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
        s: one of -1, -1/2, 0, 1/2, 1, 2.

    Raises:
        ValueError: for unsupported exponents.
    """
    if float(s) not in SOBOLEV_EXPONENTS:
        raise ValueError(f"unsupported Sobolev exponent {s}; allowed: {SOBOLEV_EXPONENTS}")
    w = f.grid.lam ** float(s) if s != 0 else 1.0
    return float(np.sqrt(np.sum(w * np.abs(f.coef) ** 2)))


def h1_norm(f: Field) -> float:
    """(||f||_2^2 + ||grad f||_2^2)^(1/2)."""
    return float(np.sqrt(np.sum((1.0 + f.grid.lam) * np.abs(f.coef) ** 2)))


def lp_norm(f: Field, p: float) -> float:
    """L^p(Omega) norm by composite trapezoid quadrature on a 2x-refined
    synthesis grid.  Boundary values vanish (Dirichlet), so the rule reduces
    to a plain weighted sum over interior nodes.  For band-limited fields and
    even integer p <= 4 the quadrature is exact up to rounding.

    Args:
        p: exponent, must satisfy p >= 2.
    """
    if p < 2:
        raise ValueError(f"lp_norm requires p >= 2, got {p}")
    grid = f.grid
    shape = (2 * grid.Nx, 2 * grid.Ny)
    vals = coef_to_values(grid, f.coef, shape)
    hx = grid.Lx / (shape[0] + 1)
    hy = grid.Ly / (shape[1] + 1)
    return float((np.sum(np.abs(vals) ** p) * hx * hy) ** (1.0 / p))
