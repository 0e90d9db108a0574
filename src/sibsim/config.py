"""Run configuration: INI parsing, validation, and construction of grids,
initial states, and system parameters.

The schema (documented in docs/config.md) has sections [grid], [data],
[run], [output], [sweep].  Scalar values accept plain numbers or small
arithmetic expressions in pi (e.g. ``Lx = 2*pi``); initial data are given
as a named preset, explicit mode coefficients, or expressions in x and y
sampled on the grid.
"""

from __future__ import annotations

import ast
import configparser
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import State, SystemParams, make_state
from .grids import Field, Grid2D, analyze, field_from_coef, make_grid
from .output import checkpoint_name

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config_text",
    "build_grid",
    "build_initial_state",
    "build_params",
]

_SCALAR_NAMES = {"pi": math.pi, "e": math.e}
_FIELD_FUNCS = {
    name: getattr(np, name)
    for name in ("sin", "cos", "tan", "exp", "sqrt", "sinh", "cosh", "tanh", "abs")
}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

def _eval_node(node: ast.AST, names: dict):
    """Evaluate one node; every value, intermediate or final, must be a
    finite real number or array of them."""
    try:
        val = _eval_op(node, names)
        if np.iscomplexobj(val):
            raise TypeError("complex value")
        finite = np.all(np.isfinite(np.asarray(val, dtype=float)))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"arithmetic error in expression: {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"expression does not give a real number: {exc}") from exc
    if not finite:
        raise ValueError("expression gives a non-finite value")
    return val


def _eval_op(node: ast.AST, names: dict):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, names)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        # as a float, so that a power like 9**9**9 overflows instead of
        # running as an exact integer power
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        raise ValueError(f"unknown name {node.id!r} in expression")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _eval_node(node.left, names)
        right = _eval_node(node.right, names)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        return left**right
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        val = _eval_node(node.operand, names)
        return val if isinstance(node.op, ast.UAdd) else -val
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        fn = names.get(node.func.id)
        if callable(fn) and not node.keywords:
            return fn(*[_eval_node(a, names) for a in node.args])
        raise ValueError(f"unknown function {node.func.id!r} in expression")
    raise ValueError(f"unsupported syntax in expression: {ast.dump(node)}")


def _safe_eval(expr: str, names: dict):
    try:
        # a SyntaxWarning (such as "invalid decimal literal" in "1if 2 else
        # 3") is an error here, not a line of its own on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(expr, mode="eval")
        return _eval_node(tree, names)
    except (SyntaxError, SyntaxWarning) as exc:
        raise ValueError(f"cannot parse expression {expr!r}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"expression is nested too deeply: {expr[:40]!r}...") from exc


def _scalar(expr: str) -> float:
    return float(_safe_eval(expr, dict(_SCALAR_NAMES)))


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r}")
    return states[text.lower()]


def _scalar_list(text: str) -> tuple[float, ...]:
    return tuple(_scalar(tok) for tok in text.split())


def _int_list(text: str) -> tuple[int, ...]:
    values = _scalar_list(text)
    if not all(value.is_integer() for value in values):
        raise ValueError(f"not a list of integers: {text!r}")
    return tuple(int(value) for value in values)


# section -> key -> (RunConfig field, converter); [data] has its own reader
_KEYS = {
    "grid": {
        "lx": ("lx", _scalar),
        "ly": ("ly", _scalar),
        "nx": ("nx", int),
        "ny": ("ny", int),
    },
    "run": {
        "eps": ("eps", _scalar),
        "yosida_n": ("yosida_n", _scalar),
        "dt": ("dt", _scalar),
        "t": ("T", _scalar),
        "monitor_stride": ("monitor_stride", int),
        "dealias": ("dealias", _boolean),
        "checkpoint_times": ("checkpoint_times", _scalar_list),
    },
    "output": {"dir": ("out_dir", str)},
    "sweep": {
        "eps_list": ("eps_list", _scalar_list),
        "n_list": ("n_list", _int_list),
        "dt_list": ("dt_list", _scalar_list),
    },
}
_DATA_COMPONENTS = ("phi", "phi_imag", "psi0", "psi1")
_KNOWN_KEYS = {section: set(keys) for section, keys in _KEYS.items()}
_KNOWN_KEYS["data"] = {
    "preset", *_DATA_COMPONENTS, *(f"{comp}_modes" for comp in _DATA_COMPONENTS)
}


# ---------------------------------------------------------------------------
# data specification

# Each component spec is ("expr", text) or ("modes", ((k, l, amplitude), ...)).
_PRESETS = {
    "standard": {"phi": "sin(x)*sin(y)", "psi0": "sin(x)*sin(y)", "psi1": "0"},
    "zero": {"phi": "0", "psi0": "0", "psi1": "0"},
}


def _parse_modes(text: str, what: str) -> tuple[tuple[int, int, float], ...]:
    rows = []
    for line in text.strip().splitlines():
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"{what}: each mode row needs 'k l amplitude', got {line!r}"
            )
        try:
            k, l = int(parts[0]), int(parts[1])
            amp = float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{what}: bad mode row {line!r}: {exc}") from exc
        if not math.isfinite(amp):
            raise ValueError(f"{what}: mode amplitude must be finite, got {line!r}")
        if k < 1 or l < 1:
            raise ValueError(f"{what}: mode indices start at 1, got ({k}, {l})")
        rows.append((k, l, amp))
    if not rows:
        raise ValueError(f"{what}: empty mode list")
    return tuple(rows)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one run (or one sweep of runs)."""

    lx: float = math.pi
    ly: float = math.pi
    nx: int = 64
    ny: int = 64
    phi_spec: tuple = ("expr", "sin(x)*sin(y)")
    phi_imag_spec: tuple | None = None
    psi0_spec: tuple = ("expr", "sin(x)*sin(y)")
    psi1_spec: tuple = ("expr", "0")
    eps: float = 1.0
    yosida_n: float | None = None
    dt: float = 1e-3
    T: float = 1.0
    monitor_stride: int = 10
    dealias: bool = True
    checkpoint_times: tuple[float, ...] = ()
    out_dir: str = "out"
    eps_list: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    n_list: tuple[int, ...] = (8, 16, 32, 64)
    dt_list: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("domain lengths must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("mode counts must be >= 1")
        build_params(self)  # SystemParams checks eps, yosida_n and dt
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"step count T/dt = {self.T}/{self.dt} is not finite")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")
        self._check_checkpoint_times()
        if any(not 0.0 <= e <= 1.0 for e in self.eps_list):
            raise ValueError("eps_list entries must lie in [0, 1]")
        if any(not (isinstance(n, int) and n >= 1) for n in self.n_list):
            raise ValueError("n_list entries must be integers >= 1")
        if any(not 0.0 < dt < math.inf for dt in self.dt_list):
            raise ValueError("dt_list entries must be positive and finite")

    def _check_checkpoint_times(self) -> None:
        """Each time must be reached by the run (integrate keeps times up to
        T + 1e-12) and must have a file name of its own."""
        written: dict[str, float] = {}
        for t in sorted(self.checkpoint_times):
            if t < 0:
                raise ValueError(f"checkpoint time {t} must be nonnegative")
            if not t <= self.T + 1e-12:
                raise ValueError(
                    f"checkpoint time {t} lies past the horizon T = {self.T}; "
                    "the run never reaches it"
                )
            name = checkpoint_name(t)
            if name in written:
                raise ValueError(
                    f"checkpoint times {written[name]} and {t} would both be "
                    f"written to {name}"
                )
            written[name] = t


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate INI-format configuration text."""
    # values are read literally: '%' has no meaning in this schema
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"cannot parse config: {exc}") from exc
    if parser.defaults():
        raise ValueError(f"unknown config section [{parser.default_section}]")

    kw: dict = {"raw": {s: dict(parser[s]) for s in parser.sections()}}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        for key, value in parser[section].items():
            if key not in _KNOWN_KEYS[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            if section in _KEYS:
                name, convert = _KEYS[section][key]
                kw[name] = convert(value)

    specs: dict = {}
    if parser.has_section("data"):
        sec = parser["data"]
        preset = sec.get("preset", fallback=None)
        if preset is not None:
            if preset not in _PRESETS:
                raise ValueError(
                    f"unknown data preset {preset!r}; known: {sorted(_PRESETS)}"
                )
            for comp, expr in _PRESETS[preset].items():
                specs[comp] = ("expr", expr)
        for comp in _DATA_COMPONENTS:
            if comp in sec:
                specs[comp] = ("expr", sec[comp])
            if f"{comp}_modes" in sec:
                if comp in sec:
                    raise ValueError(
                        f"give either {comp} or {comp}_modes, not both"
                    )
                specs[comp] = ("modes", _parse_modes(sec[f"{comp}_modes"], comp))
    for comp, spec in specs.items():
        kw[f"{comp}_spec"] = spec

    return RunConfig(**kw)


def load_config(path: str | None) -> RunConfig:
    """Load configuration from an INI file; None gives all defaults
    (the standard preset)."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------------------
# construction


def build_grid(config: RunConfig) -> Grid2D:
    return make_grid(config.lx, config.ly, config.nx, config.ny)


def _build_component(grid: Grid2D, spec: tuple, what: str) -> Field:
    kind, payload = spec
    if kind == "expr":
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        names = dict(_SCALAR_NAMES)
        names.update(_FIELD_FUNCS)
        names["x"] = X
        names["y"] = Y
        vals = _safe_eval(payload, names)
        vals = np.asarray(vals, dtype=float)
        if vals.shape == ():
            vals = np.full(grid.shape, float(vals))
        return analyze(grid, vals)
    coef = np.zeros(grid.shape)
    for k, l, amp in payload:
        if k > grid.Nx or l > grid.Ny:
            raise ValueError(
                f"{what}: mode ({k}, {l}) outside the {grid.Nx}x{grid.Ny} band"
            )
        coef[k - 1, l - 1] = amp
    return field_from_coef(grid, coef)


def build_initial_state(config: RunConfig, grid: Grid2D | None = None) -> State:
    """Sample (phi, psi0, psi1) on the grid and assemble the t=0 state."""
    if grid is None:
        grid = build_grid(config)
    phi = _build_component(grid, config.phi_spec, "phi")
    coef = phi.coef.astype(np.complex128)
    if config.phi_imag_spec is not None:
        coef = coef + 1j * _build_component(grid, config.phi_imag_spec, "phi_imag").coef
    psi0 = _build_component(grid, config.psi0_spec, "psi0")
    psi1 = _build_component(grid, config.psi1_spec, "psi1")
    return make_state(field_from_coef(grid, coef), psi0, psi1, t=0.0)


def build_params(config: RunConfig, **overrides) -> SystemParams:
    """SystemParams from the config; keyword overrides (eps, yosida_n, dt)
    support sweep members sharing one base config."""
    kw = {f.name: getattr(config, f.name) for f in fields(SystemParams)}
    return SystemParams(**{**kw, **overrides})
