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
    """Patch the stepper so that its call number `at_call` returns a NaN
    in the last mode of each component in `names`; the list of calls made.

    The patch passes its arguments through and returns what the step
    returns: the state (u, v, vt), then the wave source of the new u, which
    it forms again from the corrupted u when it corrupts u, then the closed
    (v, vt) of a kept state if the step was asked for one, corrupted as the
    state's."""
    import sibsim.dynamics

    original = sibsim.dynamics._Kernels.step
    calls = []

    def corrupt(parts):
        for name in names:
            if name in parts:
                parts[name] = parts[name].copy()
                parts[name][-1, -1] = np.nan
        return parts

    def step(self, *args, **kwargs):
        u, v, vt, source, *closed = original(self, *args, **kwargs)
        calls.append(1)
        if len(calls) == at_call:
            parts = corrupt({"u": u, "v": v, "vt": vt})
            u, v, vt = parts["u"], parts["v"], parts["vt"]
            if "u" in names:
                source = self.wave_source(u)
            closed = [tuple(corrupt({"v": cv, "vt": cvt}).values()) for cv, cvt in closed]
        return (u, v, vt, source, *closed)

    monkeypatch.setattr(sibsim.dynamics._Kernels, "step", step)
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
