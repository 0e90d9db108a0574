"""The public surface: every exported name resolves, and the exported lists
change only on purpose."""

import importlib

import pytest

import sibsim

MODULES = (
    "sibsim",
    "sibsim.grids",
    "sibsim.dynamics",
    "sibsim.functionals",
    "sibsim.config",
    "sibsim.experiments",
    "sibsim.output",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_exports_are_the_boundary():
    assert set(sibsim.__all__) == {
        "__version__",
        "Field",
        "Grid2D",
        "analyze",
        "make_grid",
        "State",
        "SystemParams",
        "integrate",
        "make_state",
        "picard_duhamel",
        "DataNorms",
        "EnvelopeConstants",
        "charge",
        "difference_metric",
        "energy",
        "estimate_gn_constant",
        "gn_quotient",
        "RunConfig",
        "load_config",
    }


# the other names benchmarks/spans.py wraps and benchmarks/workloads.py calls
BENCHMARK_NAMES = (
    "grids.coef_to_values",
    "grids.values_to_coef",
    "grids.field_from_coef",
    "grids.h1_norm",
    "dynamics.integrate",
    "dynamics.picard_duhamel",
    "dynamics._Kernels.step",
    "functionals.RunMonitor.row",
    "functionals.estimate_gn_constant",
    "functionals.charge",
    "functionals.default_gn_constant.cache_clear",
    "output.write_series",
    "output.write_table",
    "output.write_manifest",
    "output.save_checkpoint",
    "output.file_checksums",
    "cli.main",
)


def test_traced_module_exports_are_unchanged():
    # benchmarks/spans.py wraps every callable in these two lists to time
    # the config and command layers, so a change here changes the benchmark
    from sibsim import config, experiments

    for dotted in BENCHMARK_NAMES:
        module, *path = dotted.split(".")
        obj = importlib.import_module(f"sibsim.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        assert callable(obj), f"the benchmark calls sibsim.{dotted}"

    assert config.__all__ == [
        "RunConfig",
        "load_config",
        "parse_config_text",
        "build_grid",
        "build_initial_state",
        "build_params",
    ]
    assert experiments.__all__ == [
        "Assertion",
        "cmd_run",
        "cmd_sweep_eps",
        "cmd_sweep_n",
        "cmd_check",
        "cmd_estimate_c0",
        "cmd_order_test",
    ]
