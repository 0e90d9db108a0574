"""Spectral symbols of the stepping kernel (dynamics._Kernels): the arrays the
integrator multiplies by, checked mode by mode.  A kernel built with step
2t holds the half-step flows over t."""

import numpy as np
import pytest

from conftest import random_field
from sibsim.dynamics import SystemParams, _Kernels
from sibsim.grids import field_from_coef, h1_norm, make_grid, sobolev_norm


@pytest.fixture
def grid():
    return make_grid(np.pi, np.pi, 24, 24)


def kernel(grid, eps=1.0, n=None, dt=0.0):
    return _Kernels(grid, SystemParams(eps=eps, yosida_n=n), dt)


def test_yosida_symbol_inequalities(grid):
    # the four bounds hold with exact comparisons, every mode, every n
    lam = grid.lam
    for n in [2**j for j in range(11)]:
        sym = kernel(grid, n=n).jsym
        assert np.all(sym > 0.0)
        assert np.all(sym <= 1.0)
        root = np.sqrt(lam) * sym
        assert np.all(root <= np.sqrt(float(n)))
        assert np.all(root <= np.sqrt(lam))
        assert np.all(lam * sym <= lam)
    assert kernel(grid).jsym is None


def test_yosida_convergence(grid):
    rng = np.random.default_rng(2)
    f = random_field(grid, rng)
    nrm = sobolev_norm(f, 0.0)
    lam_max = float(grid.lam.max())
    errs = []
    for n in [2**j for j in range(11)]:
        diff = field_from_coef(grid, f.coef - kernel(grid, n=n).jsym * f.coef)
        err = sobolev_norm(diff, 0.0)
        errs.append(err)
        assert err <= (lam_max / n) * nrm
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_omega_symbol_values():
    g = make_grid(np.pi, np.pi, 4, 4)
    # lam(1,1) = 2: omega = sqrt(2), 1, sqrt(2/3) for eps = 0, 1/2, 1
    assert kernel(g, eps=0.0).w[0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert kernel(g, eps=0.5).w[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert kernel(g, eps=1.0).w[0, 0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)
    # eps = 1 symbol is bounded by 1/sqrt(eps) = 1
    assert np.all(kernel(g, eps=1.0).w < 1.0)


def test_source_symbol_is_minus_omega_squared(grid):
    # the oracle's wave forcing symbol -w2 against the stepper's frequency
    for eps in (0.0, 0.5, 1.0):
        ker = kernel(grid, eps=eps)
        src = -ker.w2
        assert np.max(np.abs((src + ker.w**2) / src)) < 1e-14


def test_schrodinger_unitarity(grid):
    rng = np.random.default_rng(4)
    for t in (0.3, 1.7, np.pi):
        U = kernel(grid, dt=2 * t).phase_half
        for _ in range(5):
            f = random_field(grid, rng, kind="complex")
            for s in (-0.5, 0.0, 1.0):
                assert sobolev_norm(field_from_coef(grid, U * f.coef), s) == pytest.approx(
                    sobolev_norm(f, s), rel=1e-12
                )


def test_schrodinger_group_property(grid):
    for t in (0.0, 0.4, 2.3):
        sym = kernel(grid, dt=2 * t).phase_half * kernel(grid, dt=-2 * t).phase_half
        assert np.max(np.abs(sym - 1.0)) < 1e-14


def test_wave_propagator_at_zero(grid):
    ker = kernel(grid, eps=1.0, dt=0.0)
    assert np.all(ker.cos_half == 1.0)
    assert np.all(ker.sinc_half == 0.0)
    assert np.all(ker.wsin_half == 0.0)
    assert np.all(ker.phase_half == 1.0)


def test_wave_kernel_first_integral(grid):
    for eps in (0.0, 0.5, 1.0):
        for t in (0.1, 0.9, 3.7):
            ker = kernel(grid, eps=eps, dt=2 * t)
            resid = ker.cos_half**2 + ker.w**2 * ker.sinc_half**2 - 1.0
            assert np.max(np.abs(resid)) < 1e-14
            # omega*sin is omega^2 times sin/omega
            assert np.allclose(ker.wsin_half, ker.w2 * ker.sinc_half, rtol=1e-14, atol=0)


def test_lifted_inverse_norm_identity(grid):
    # ||(1 - Lap)^(1/2) (-Lap)^(-1/2) f||^2 = ||f||^2 + ||(-Lap)^(-1/2) f||^2
    rng = np.random.default_rng(8)
    for _ in range(100):
        f = random_field(grid, rng)
        lhs = h1_norm(field_from_coef(grid, f.coef / np.sqrt(grid.lam))) ** 2
        rhs = sobolev_norm(f, 0.0) ** 2 + sobolev_norm(f, -1.0) ** 2
        assert abs(lhs - rhs) / rhs < 1e-10


@pytest.mark.parametrize("n", [None, 8.0])
def test_stepless_kernel_shares_the_symbols_and_skips_the_step_tables(grid, n):
    stepless, stepping = kernel(grid, eps=0.5, n=n, dt=None), kernel(grid, eps=0.5, n=n)
    for name in ("w", "w2", "prod_shape") + (("jsym",) if n else ()):
        assert np.array_equal(getattr(stepless, name), getattr(stepping, name))
    for name in ("cos_half", "sinc_half", "wsin_half", "phase_half"):
        assert not hasattr(stepless, name)
