# sibsim sizes the BLAS thread pool on import, before numpy is loaded
import sibsim  # noqa: F401  isort: skip

import numpy as np
import pytest

from sibsim.grids import Grid2D, field_from_coef, make_grid


def random_field(grid: Grid2D, rng: np.random.Generator, kind: str = "real", decay: float = 0.05):
    """Seeded random band-limited field with spectrally decaying coefficients."""
    coef = rng.standard_normal(grid.shape) * np.exp(-decay * grid.lam)
    if kind == "complex":
        coef = coef + 1j * rng.standard_normal(grid.shape) * np.exp(-decay * grid.lam)
    return field_from_coef(grid, coef)


@pytest.fixture
def unit_square_grid():
    return make_grid(np.pi, np.pi, 16, 16)


@pytest.fixture
def coarse_grid():
    return make_grid(np.pi, np.pi, 8, 8)
