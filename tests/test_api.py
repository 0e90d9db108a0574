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


def test_traced_module_exports_are_unchanged():
    # benchmarks/spans.py wraps every callable in these two lists to time
    # the config and command layers, so a change here changes the benchmark
    from sibsim import config, experiments

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
