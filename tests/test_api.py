"""The public surface: every exported name resolves, and the exported lists
change only on purpose."""

import ast
import importlib
import inspect
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sibsim
from sibsim import config, dynamics, experiments, functionals, grids

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


def _callers(module, name: str) -> list[str]:
    """The top-level functions of module that call `name`, once per call."""
    tree = ast.parse(inspect.getsource(module))
    return [
        function.name
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def test_the_ladders_measure_and_write_through_one_runner():
    # sweep-eps, sweep-n and order-test integrate only in _ladder, which
    # also reports the drifts; _run, run's measurement, is the one other
    # integration
    assert sorted(_callers(experiments, "integrate")) == ["_ladder", "_run"]
    assert sorted(_callers(experiments, "write_table")) == ["_eps_sweep", "_n_sweep"]
    assert not hasattr(experiments, "_drift_reports")


def test_every_command_is_one_body():
    # each command measures, and _command alone prints the verdicts, takes
    # the checksums and writes manifest.json, also on a numerical abort
    tree = ast.parse(inspect.getsource(experiments))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in (attr for attr in experiments.__all__ if attr.startswith("cmd_")):
        *docstring, body = functions[name].body
        assert len(docstring) == 1 and isinstance(body, ast.Return), name
        assert isinstance(body.value, ast.Call) and body.value.func.id == "_command", name
    assert _callers(experiments, "file_checksums") == ["_command"]
    assert sorted(_callers(experiments, "write_manifest")) == [
        "_command", "_command", "_estimate_c0"
    ]
    writes = [
        function.name
        for function in functions.values()
        for node in ast.walk(function)
        if isinstance(node, ast.Constant) and node.value == "manifest.json"
    ]
    assert writes == ["_command"]
    assert not hasattr(experiments, "_ladder_command") and not hasattr(experiments, "_finish")


def test_the_check_derives_what_it_certifies():
    # symbol-derivation forms the transform factors and the norm weights
    # itself: it names none of the tables grids builds them from, not even
    # as a string, and the identity assertions it absorbed are gone
    tree = ast.parse(inspect.getsource(experiments._symbol_derivation))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.update(re.findall(r"\w+", node.value))
    tables = {"_factors", "_sines", "_synthesis_pair", "_analysis_pair", "_sobolev_weights"}
    assert named & tables == set()
    assert "coef_to_values" in named and "sobolev_norm" in named and "h1_norm" in named
    assert not hasattr(experiments, "_grid_assertions")


def test_system_params_hold_only_the_model():
    assert [f.name for f in fields(sibsim.SystemParams)] == ["eps", "dt", "yosida_n", "dealias"]


def test_dynamics_imports_nothing_from_functionals():
    # the solver layer returns states; diagnostics come from a monitor
    # that the caller passes in, so the module does not even name them
    assert "functionals" not in inspect.getsource(dynamics)


def test_the_stepping_kernel_owns_every_symbol_and_product(monkeypatch):
    # grids keeps the transforms and norms; only dynamics._Kernels forms a
    # product of fields or decides where one is sampled (the 3/2 rule of
    # prod_shape), and the Picard oracle reads its free flows from the one
    # kernel it builds, forming only the per-axis factors of its phases
    # exp(i lam s)
    assert [name for name in vars(grids) if "product" in name or "intensity" in name] == []
    assert not hasattr(dynamics._Kernels, "product")
    assert not hasattr(grids.Grid2D, "pad_shape")
    sources = {path.name: path.read_text() for path in Path(sibsim.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "pad_shape" in text] == []
    assert [name for name, text in sources.items() if "ceil(3 *" in text] == ["dynamics.py"]
    kernel = inspect.getsource(dynamics._Kernels)
    assert "ceil(3 *" not in inspect.getsource(dynamics).replace(kernel, "")
    oracle = inspect.getsource(dynamics.picard_duhamel)
    calls = [
        line.split("=")[0].strip()
        for line in oracle.splitlines()
        if re.search(r"np\.(cos|sin|exp)\b", line)
    ]
    assert calls == ["exp_x", "exp_y"]
    built = []
    original = dynamics._Kernels.__init__

    def counted(self, *args):
        built.append(args[-1])
        original(self, *args)

    monkeypatch.setattr(dynamics._Kernels, "__init__", counted)
    grid = sibsim.make_grid(3.0, 3.0, 4, 4)
    zero = grids.field_from_coef(grid, np.zeros(grid.shape))
    state = dynamics.make_state(grids.field_from_coef(grid, np.ones(grid.shape) + 0j), zero, zero)
    dynamics.picard_duhamel(state, 0.01, dynamics.SystemParams())
    # one kernel, and it takes no step: the flows come from free_flow
    assert built == [None]
    # difference_metric and cauchy_metric differ only in the order of the
    # vt norm, and their one body takes every weight from grids' norms
    body = inspect.getsource(functionals._distance)
    assert ".lam" not in body
    assert "h1_norm(" in body and "sobolev_norm(" in body
    for metric, s in ((functionals.difference_metric, "-1.0"), (functionals.cauchy_metric, "0.0")):
        lines = inspect.getsource(metric).splitlines()
        assert lines[-1].strip() == f"return _distance(state_a, state_b, {s})"
        assert sum("return" in line for line in lines) == 1


def test_every_free_flow_is_a_phase():
    # the wave pair is carried as one amplitude z = v + i vt/omega, so the
    # free flows are exactly two unimodular phases, exp(-i t lam) and
    # exp(-i t omega), and no real wave table or rotation helper is left
    grid = sibsim.make_grid(np.pi, 2.0, 6, 5)
    ker = dynamics._Kernels(grid, dynamics.SystemParams(eps=0.5), 1e-2)
    flows = ker.free_flow(0.37)
    assert isinstance(flows, tuple) and len(flows) == 2
    for phase in flows:
        assert phase.dtype == np.complex128 and phase.shape == grid.shape
        assert np.max(np.abs(np.abs(phase) - 1.0)) <= 4e-16
    names = [name for name in dir(ker) if re.match(r"(cos|sinc|wsin)_", name)]
    assert names == [] and not hasattr(ker, "wave_rotation")
    assert not hasattr(dynamics, "_wave_flow") and not hasattr(dynamics, "_nodewise")


def test_solver_signatures_take_only_what_callers_pass():
    # the Picard tolerance and sweep cap, the estimator's iteration cap and
    # tolerance, and a grid for the initial data were set by no caller but
    # the tests; they are module constants, which the tests monkeypatch
    signatures = {
        dynamics.picard_duhamel: "(state0: 'State', T: 'float', params: 'SystemParams', *, "
        "quad_nodes: 'int' = 16, residual_log: 'list[float] | None' = None) -> 'State'",
        functionals.estimate_gn_constant: "(grid: 'Grid2D') -> 'float'",
        config.build_initial_state: "(config: 'RunConfig') -> 'State'",
    }
    for fn, signature in signatures.items():
        assert str(inspect.signature(fn)) == signature, fn.__name__
