"""Spectral symbols of the stepping kernel (dynamics._Kernels): the arrays the
integrator multiplies by.  A kernel built with step 2t holds the half-step
flows over t.

The symbol identities and inequalities are read from the assertions of
experiments._symbol_assertions, the suite `sibsim check` prints, on this
module's 24^2 grid and on the default 64^2 grid.  The unit tests below them
pin facts of the kernel that the suite does not assert."""

import numpy as np
import pytest

from sibsim.config import RunConfig, build_grid
from sibsim.dynamics import SystemParams, _Kernels
from sibsim.experiments import _symbol_assertions
from sibsim.grids import make_grid


@pytest.fixture
def grid():
    return make_grid(np.pi, np.pi, 24, 24)


@pytest.fixture(scope="module")
def symbol_suites():
    grids = (make_grid(np.pi, np.pi, 24, 24), build_grid(RunConfig()))
    return [{a.name: a for a in _symbol_assertions(g)} for g in grids]


def assert_passed(symbol_suites, *names):
    for suite in symbol_suites:
        for name in names:
            assert suite[name].passed, suite[name].line()


def kernel(grid, eps=1.0, n=None, dt=0.0):
    return _Kernels(grid, SystemParams(eps=eps, yosida_n=n), dt)


def test_yosida_symbol_inequalities(grid, symbol_suites):
    # the four bounds hold with exact comparisons, every mode, every n
    bounds = ("contraction", "sqrt-gain", "sqrt-bound", "full-bound")
    assert_passed(symbol_suites, *(f"yosida-symbol-{bound}" for bound in bounds))
    for n in [2**j for j in range(11)]:
        assert np.all(kernel(grid, n=n).jsym > 0.0)
    assert kernel(grid).jsym is None


def test_yosida_convergence(symbol_suites):
    claims = ("monotone", "band-bound", "small")
    assert_passed(symbol_suites, *(f"yosida-convergence-{claim}" for claim in claims))


def test_omega_symbol_values():
    g = make_grid(np.pi, np.pi, 4, 4)
    # lam(1,1) = 2: omega = sqrt(2), 1, sqrt(2/3) for eps = 0, 1/2, 1
    assert kernel(g, eps=0.0).w[0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert kernel(g, eps=0.5).w[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert kernel(g, eps=1.0).w[0, 0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)
    # eps = 1 symbol is bounded by 1/sqrt(eps) = 1
    assert np.all(kernel(g, eps=1.0).w < 1.0)


def test_source_symbol_is_minus_omega_squared(symbol_suites):
    # the oracle's wave forcing symbol -w2 against the stepper's frequency
    assert_passed(symbol_suites, "source-symbol-consistency")


def test_schrodinger_unitarity(symbol_suites):
    assert_passed(symbol_suites, "schrodinger-unitarity")


def test_schrodinger_group_property(symbol_suites):
    assert_passed(symbol_suites, "propagator-group-identity")


def test_wave_propagator_at_zero(grid):
    ker = kernel(grid, eps=1.0, dt=0.0)
    assert np.all(ker.wave_phase_half == 1.0)
    assert np.all(ker.wave_phase_full == 1.0)
    assert np.all(ker.phase_half == 1.0)


def test_wave_kernel_first_integral(grid, symbol_suites):
    assert_passed(symbol_suites, "wave-kernel-first-integral")
    for eps in (0.0, 0.5, 1.0):
        for t in (0.1, 0.9, 3.7):
            ker = kernel(grid, eps=eps, dt=2 * t)
            # the half-step phase is free_flow's, and the full step its square
            assert np.array_equal(ker.wave_phase_half, ker.free_flow(t)[1])
            full = ker.wave_phase_full
            assert np.allclose(full, ker.wave_phase_half**2, rtol=1e-14, atol=0)


def test_lifted_inverse_norm_identity(symbol_suites):
    # ||(1 - Lap)^(1/2) (-Lap)^(-1/2) f||^2 = ||f||^2 + ||(-Lap)^(-1/2) f||^2
    assert_passed(symbol_suites, "lifted-inverse-norm-identity")


@pytest.mark.parametrize("n", [None, 8.0])
def test_stepless_kernel_shares_the_symbols_and_skips_the_step_tables(grid, n):
    stepless, stepping = kernel(grid, eps=0.5, n=n, dt=None), kernel(grid, eps=0.5, n=n)
    for name in ("w", "w2", "prod_shape") + (("jsym",) if n else ()):
        assert np.array_equal(getattr(stepless, name), getattr(stepping, name))
    for name in ("phase_half", "wave_phase_half", "wave_phase_full"):
        assert not hasattr(stepless, name)
