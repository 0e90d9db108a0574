# sibsim sizes the BLAS thread pool on import, before numpy is loaded
import sibsim  # noqa: F401  isort: skip

from collections import Counter

import numpy as np
import pytest

from sibsim.grids import Grid2D, field_from_coef, make_grid


def random_field(grid: Grid2D, rng: np.random.Generator, kind: str = "real", decay: float = 0.05):
    """Seeded random band-limited field with spectrally decaying coefficients."""
    coef = rng.standard_normal(grid.shape) * np.exp(-decay * grid.lam)
    if kind == "complex":
        coef = coef + 1j * rng.standard_normal(grid.shape) * np.exp(-decay * grid.lam)
    return field_from_coef(grid, coef)


def breaking_step(monkeypatch, at_call, names):
    """Patch the stepper so that its step number `at_call` leaves a NaN in
    the last mode of each component in `names`; the list of steps taken.

    u is corrupted as _Kernels.step returns it, with its wave source
    formed again from the corrupted u; v and vt, which the run carries as
    z = v + i vt/omega, as Re z and Im z of every wave flow after that step
    and before the next one: the flow the run goes on with, and the one of
    a state kept there."""
    import sibsim.dynamics

    kernels = sibsim.dynamics._Kernels
    calls = []

    original_step = kernels.step

    def step(self, u, v):
        u, source = original_step(self, u, v)
        calls.append(1)
        if len(calls) == at_call and "u" in names:
            u = u.copy()
            u[-1, -1] = np.nan
            source = self.wave_source(u)
        return u, source

    def flow(original):
        def corrupted(self, z, f):
            z = original(self, z, f)
            if len(calls) == at_call:
                z = z.copy()
                for name, part in (("v", z.real), ("vt", z.imag)):
                    if name in names:
                        part[-1, -1] = np.nan
            return z

        return corrupted

    monkeypatch.setattr(kernels, "step", step)
    for name in ("wave_half", "wave_full"):
        monkeypatch.setattr(kernels, name, flow(getattr(kernels, name)))
    return calls


@pytest.fixture
def unit_square_grid():
    return make_grid(np.pi, np.pi, 16, 16)


def count_transforms(monkeypatch) -> Counter:
    """Count every coef_to_values / values_to_coef call by its node shape
    (the two grid axes of a synthesis output or an analysis input, so that
    a transform of real and imaginary planes counts once), patching each
    sibsim module that holds the functions, as the benchmark tracer does."""
    import sibsim.dynamics
    import sibsim.functionals
    import sibsim.grids

    counts = Counter()
    modules = (sibsim.grids, sibsim.dynamics, sibsim.functionals)
    synth, analysis = sibsim.grids.coef_to_values, sibsim.grids.values_to_coef

    def counted_synth(grid, coef, shape=None):
        out = synth(grid, coef, shape)
        counts[out.shape[-2:]] += 1
        return out

    def counted_analysis(grid, values):
        counts[values.shape[-2:]] += 1
        return analysis(grid, values)

    wrappers = {"coef_to_values": counted_synth, "values_to_coef": counted_analysis}
    for module in modules:
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return counts
