"""Transform exactness, norm identities, and the accuracy of the stepping
kernel's dealiased product on these transforms.

The product tests compare against an exact Galerkin oracle built from the
closed-form integral of a triple sine product, so the padded pseudospectral
product is checked against true L2 projections, not against itself.
"""

import numpy as np
import pytest

from conftest import random_field
from sibsim import grids
from sibsim.dynamics import SystemParams, _Kernels
from sibsim.grids import (
    analyze,
    coef_to_values,
    field_from_coef,
    from_planes,
    h1_norm,
    l4_norm,
    make_grid,
    sobolev_norm,
    to_planes,
    values_to_coef,
)


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(-1.0, np.pi, 8, 8)
    with pytest.raises(ValueError):
        make_grid(np.pi, np.pi, 0, 8)
    # (8 pi / 1e-300)^2 overflows, and (pi / 1e200)^2 underflows to 0:
    # refused, without a numpy warning (which the suite turns into an error)
    for side in (1e-300, 1e200):
        with pytest.raises(ValueError, match="eigenvalues leave the float range"):
            make_grid(side, side, 8, 8)


def test_eigenvalues_square():
    g = make_grid(np.pi, np.pi, 8, 8)
    assert g.lam[0, 0] == pytest.approx(2.0, rel=1e-14)
    assert g.lam[1, 0] == pytest.approx(5.0, rel=1e-14)
    assert g.lam[0, 1] == pytest.approx(5.0, rel=1e-14)
    assert np.all(g.lam > 0)


def test_eigenvalues_rectangle():
    g = make_grid(2 * np.pi, np.pi, 4, 4)
    # (pi/Lx)^2 + (pi/Ly)^2 = 1/4 + 1
    assert g.lam[0, 0] == pytest.approx(1.25, rel=1e-14)


def test_nodes_are_interior():
    g = make_grid(np.pi, 2.0, 5, 7)
    assert g.x[0] == pytest.approx(np.pi / 6, rel=1e-14)
    assert 0 < g.x[0] and g.x[-1] < np.pi
    assert 0 < g.y[0] and g.y[-1] < 2.0


def test_analyze_synthesize_round_trip(unit_square_grid):
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = random_field(unit_square_grid, rng, kind="complex")
        back = analyze(unit_square_grid, coef_to_values(unit_square_grid, f.coef))
        assert np.max(np.abs(back.coef - f.coef)) < 1e-13


def test_parseval(unit_square_grid):
    g = unit_square_grid
    rng = np.random.default_rng(3)
    f = random_field(g, rng)
    vals = coef_to_values(g, f.coef)
    quad = np.sqrt(np.sum(vals**2) * (g.Lx / (g.Nx + 1)) * (g.Ly / (g.Ny + 1)))
    assert quad == pytest.approx(sobolev_norm(f, 0.0), rel=1e-13)


def test_single_mode_coefficient():
    # sin(x) sin(y) on (0, pi)^2 is (pi/2) times the orthonormal (1, 1) mode
    g = make_grid(np.pi, np.pi, 16, 16)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    f = analyze(g, np.sin(X) * np.sin(Y))
    assert f.coef[0, 0] == pytest.approx(np.pi / 2, rel=1e-13)
    rest = f.coef.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-13


@pytest.mark.parametrize("kind", ["real", "complex", "planes"])
@pytest.mark.parametrize(
    "band, nodes",
    [
        ((13, 7), (13, 7)),
        ((13, 7), (20, 11)),
        ((13, 7), (26, 14)),
        ((6, 300), (9, 450)),
    ],
    ids=["band", "padded", "refined", "above-cutoff"],  # more than 400 nodes on an axis
)
def test_dense_transforms_match_fft_path(band, nodes, kind):
    # The cached sine matrices against scipy's FFT-based DST-I of the
    # zero-padded array, on a rectangle with Lx != Ly.  A planes stack holds
    # the real and imaginary parts of a complex array and gives the parts
    # of that array's results.
    from scipy.fft import dstn

    g = make_grid(np.pi, 2.5, *band)
    rng = np.random.default_rng(17)

    def draw(shape):
        arr = rng.standard_normal(shape)
        return arr if kind == "real" else arr + 1j * rng.standard_normal(shape)

    coef, vals = draw(band), draw(nodes)
    # DST-I (ortho) gives the coefficients scaled by sqrt((M+1)/L) per axis
    scale = np.sqrt(g.Lx * g.Ly / ((nodes[0] + 1) * (nodes[1] + 1)))
    padded = np.zeros(nodes, dtype=coef.dtype)
    padded[: band[0], : band[1]] = coef
    expected = (
        dstn(padded, type=1, norm="ortho") / scale,
        (dstn(vals, type=1, norm="ortho") * scale)[: band[0], : band[1]],
    )
    if kind == "planes":
        complex_results = (coef_to_values(g, coef, nodes), values_to_coef(g, vals))
        coef, vals = to_planes(coef), to_planes(vals)
    with pytest.raises(ValueError, match="at least as fine as the band"):
        coef_to_values(g, coef, (band[0] - 1, band[1]))
    results = (coef_to_values(g, coef, nodes), values_to_coef(g, vals))
    if kind == "planes":
        for planes, z in zip(results, complex_results):
            assert planes.shape == (2,) + z.shape
            assert np.array_equal(planes[0], z.real) and np.array_equal(planes[1], z.imag)
        results = tuple(from_planes(planes) for planes in results)
    for got, want in zip(results, expected):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def sine_matrix(M, N, L):
    """e_k(x_j) = sqrt(2/L) sin(pi j k / (M+1)) for M nodes and N modes,
    formed here and not by the transforms' cache."""
    j, k = np.arange(1, M + 1)[:, None], np.arange(1, N + 1)[None, :]
    return np.sqrt(2.0 / L) * np.sin(np.pi * j * k / (M + 1))


def test_transform_cache_is_keyed_by_sides_and_node_shape():
    rng = np.random.default_rng(29)
    band = (8, 6)
    c = rng.standard_normal(band)
    a, twin = make_grid(np.pi, 2.0, *band), make_grid(np.pi, 2.0, *band)
    vals = coef_to_values(a, c, (12, 9))
    # equal sides and shapes: one cache entry, the same bits
    assert np.array_equal(coef_to_values(twin, c, (12, 9)), vals)
    assert np.array_equal(values_to_coef(twin, vals), values_to_coef(a, vals))
    # grids that differ only in Lx, or synthesis grids that differ only in
    # one padded axis, each get their own factors: every result equals the
    # sine sum formed here, in an order where a key that dropped Lx or the
    # node shape would hand out the factors of the call before
    wide = make_grid(1.5 * np.pi, 2.0, *band)
    for g in (a, wide, a):
        for nodes in ((12, 9), (13, 9), (12, 10), (12, 9)):
            ax, ay = sine_matrix(nodes[0], band[0], g.Lx), sine_matrix(nodes[1], band[1], g.Ly)
            got = coef_to_values(g, c, nodes)
            assert got.shape == nodes
            np.testing.assert_allclose(got, ax @ c @ ay.T, rtol=0, atol=1e-13)
            scale = g.Lx * g.Ly / ((nodes[0] + 1) * (nodes[1] + 1))
            back = values_to_coef(g, got)
            np.testing.assert_allclose(back, scale * ax.T @ got @ ay, rtol=0, atol=1e-13)
    assert not np.array_equal(coef_to_values(wide, c, (12, 9)), vals)
    # a node shape coarser than the band is refused on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="at least as fine as the band"):
            coef_to_values(a, c, (7, 6))


def test_analyze_rejects_wrong_shape(unit_square_grid):
    with pytest.raises(ValueError):
        analyze(unit_square_grid, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# product accuracy


def _sine_integral(m: int, L: float) -> float:
    """int_0^L sin(m pi x / L) dx, extended oddly to negative m."""
    if m == 0 or m % 2 == 0:
        return 0.0
    sign = 1.0 if m > 0 else -1.0
    return sign * 2.0 * L / (abs(m) * np.pi)


def _triple_product_tensor(N: int, L: float) -> np.ndarray:
    """G[a-1, b-1, c-1] = integral of the product of three orthonormal sine
    modes; from sin A sin B sin C reduced to single sine integrals."""
    G = np.empty((N, N, N))
    scale = (2.0 / L) ** 1.5
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for c in range(1, N + 1):
                G[a - 1, b - 1, c - 1] = 0.25 * scale * (
                    _sine_integral(c + a - b, L)
                    + _sine_integral(c - a + b, L)
                    - _sine_integral(c + a + b, L)
                    - _sine_integral(c - a - b, L)
                )
    return G


def padded_product(grid, v, u):
    """v*u for real v and complex u, on the 3/2-padded grid of the default
    parameters' kernel."""
    return _Kernels(grid, SystemParams(), None).coupled_product(v, u)


def _galerkin_deviation(N: int, seed: int) -> float:
    g = make_grid(np.pi, np.pi, N, N)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N)) * np.exp(-0.1 * g.lam)
    B = rng.standard_normal((N, N)) * np.exp(-0.1 * g.lam)
    G = _triple_product_tensor(N, np.pi)
    exact = np.einsum("ab,cd,ace,bdf->ef", A, B, G, G)
    # the product of two real factors is the real plane of the product with
    # one of them taken as complex
    padded = padded_product(g, A, B.astype(complex))
    assert not np.any(padded.imag)
    padded = padded.real
    return float(
        np.sqrt(np.sum((padded - exact) ** 2)) / np.sqrt(np.sum(exact**2))
    )


def test_product_against_galerkin_oracle():
    # The padded product is not the exact projection (sine re-expansion of a
    # product is an infinite series); the deviation must be small and shrink
    # under refinement.  Measured: ~5e-3 at N=8, ~7e-4 at N=16.
    for seed in range(3):
        dev8 = _galerkin_deviation(8, seed)
        dev16 = _galerkin_deviation(16, seed)
        assert dev8 < 2e-2
        assert dev16 < 2e-3
        assert dev16 < dev8


def test_product_norm_of_squared_mode():
    # ||sin^2 x sin^2 y||_{L2(0,pi)^2} = 3 pi / 8
    g = make_grid(np.pi, np.pi, 32, 32)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    u = analyze(g, np.sin(X) * np.sin(Y))
    p = field_from_coef(g, padded_product(g, u.coef, u.coef.astype(complex)))
    assert sobolev_norm(p, 0.0) == pytest.approx(3 * np.pi / 8, rel=1e-7)


def test_product_of_complex_factor(unit_square_grid):
    rng = np.random.default_rng(7)
    a = random_field(unit_square_grid, rng, kind="complex")
    b = random_field(unit_square_grid, rng)
    p = padded_product(unit_square_grid, b.coef, a.coef)
    assert np.iscomplexobj(p)
    # the complex factor's node values stay on planes, and scaling planes
    # by real values rounds as the complex product does, in either order
    shape = _Kernels(unit_square_grid, SystemParams(), None).prod_shape
    va, vb = (coef_to_values(unit_square_grid, f.coef, shape) for f in (a, b))
    assert np.array_equal(p, values_to_coef(unit_square_grid, va * vb))
    assert np.array_equal(p, values_to_coef(unit_square_grid, vb * va))


# ---------------------------------------------------------------------------
# norms


def test_sobolev_norms_on_single_mode():
    g = make_grid(np.pi, np.pi, 16, 16)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    f = analyze(g, np.sin(X) * np.sin(Y))
    amp = np.pi / 2  # coefficient of the lam = 2 mode
    assert sobolev_norm(f, 0.0) == pytest.approx(amp, rel=1e-12)
    assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(2) * amp, rel=1e-12)
    assert sobolev_norm(f, -1.0) == pytest.approx(2**-0.5 * amp, rel=1e-12)
    assert h1_norm(f) == pytest.approx(np.sqrt(3) * amp, rel=1e-12)


def test_sobolev_norm_weights_are_cached_by_grid_values_bit_for_bit():
    # the cached lam^s gives every norm the bits of the formula that forms
    # it afresh, and two grids built from the same values share one table
    rng = np.random.default_rng(4)
    grids._sobolev_weights.cache_clear()
    for shape in ((16, 16), (12, 10)):
        first, second = (make_grid(np.pi, 2.0, *shape) for _ in range(2))
        for s in grids.SOBOLEV_EXPONENTS:
            for g in (first, second):
                for kind in ("real", "complex"):
                    f = random_field(g, rng, kind=kind)
                    w = g.lam**s if s != 0 else 1.0
                    assert sobolev_norm(f, s) == float(np.sqrt(np.sum(w * np.abs(f.coef) ** 2)))
    # two exponents with a table (s = 0 needs none) per grid shape
    assert grids._sobolev_weights.cache_info().currsize == 2 * 2


def test_sobolev_rejects_unsupported_exponent(unit_square_grid):
    rng = np.random.default_rng(0)
    f = random_field(unit_square_grid, rng)
    for s in (0.3, -0.5, 0.5, 2.0):
        with pytest.raises(ValueError):
            sobolev_norm(f, s)


def test_l4_norm_exact_for_quartic():
    g = make_grid(np.pi, np.pi, 16, 16)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    u = analyze(g, np.sin(X) * np.sin(Y))
    assert l4_norm(u) == pytest.approx((3 * np.pi / 8) ** 0.5, rel=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_l4_norm_is_exact_on_band_limited_fields(unit_square_grid, kind):
    # |f|^4 of N modes per axis has cosine modes up to 4N, which the rule
    # on 2N + 1 intervals integrates exactly: a finer rule agrees with it
    g = unit_square_grid
    rng = np.random.default_rng(9)
    for _ in range(3):
        f = random_field(g, rng, kind)
        shape = (3 * g.Nx + 1, 3 * g.Ny + 2)
        fourth = np.abs(coef_to_values(g, f.coef, shape)) ** 4
        fine = (np.sum(fourth) * g.Lx / (shape[0] + 1) * g.Ly / (shape[1] + 1)) ** 0.25
        assert l4_norm(f) == pytest.approx(fine, rel=1e-13)
