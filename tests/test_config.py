import warnings

import numpy as np
import pytest

from sibsim.config import (
    RunConfig,
    build_grid,
    build_initial_state,
    build_params,
    load_config,
    parse_config_text,
)
from sibsim.dynamics import integrate


def test_defaults_are_standard_preset():
    cfg = RunConfig()
    assert cfg.lx == pytest.approx(np.pi)
    assert (cfg.nx, cfg.ny) == (64, 64)
    assert cfg.phi_spec == ("expr", "sin(x)*sin(y)")
    assert cfg.psi0_spec == ("expr", "sin(x)*sin(y)")
    assert cfg.psi1_spec == ("expr", "0")
    assert cfg.eps == 1.0
    assert cfg.dt == 1e-3
    assert cfg.T == 1.0
    assert load_config(None) == cfg


def test_parse_full_document():
    cfg = parse_config_text(
        """
        [grid]
        lx = 2*pi
        ly = pi
        nx = 32
        ny = 16

        [data]
        preset = standard
        psi1 = 0.25*sin(2*x)*sin(y)

        [run]
        eps = 0.5
        yosida_n = 2**4
        dt = 5e-4
        t = 0.25
        monitor_stride = 5
        dealias = off
        checkpoint_times = 0.1 0.25

        [output]
        dir = results

        [sweep]
        eps_list = 0.5 0.25 0
        n_list = 4 8
        dt_list = 1e-2 5e-3 2.5e-3
        """
    )
    assert cfg.lx == pytest.approx(2 * np.pi)
    assert (cfg.nx, cfg.ny) == (32, 16)
    # preset resolved, then psi1 overridden
    assert cfg.phi_spec == ("expr", "sin(x)*sin(y)")
    assert cfg.psi1_spec == ("expr", "0.25*sin(2*x)*sin(y)")
    assert cfg.eps == 0.5
    assert cfg.yosida_n == 16.0
    assert cfg.dt == 5e-4
    assert cfg.T == 0.25
    assert cfg.monitor_stride == 5
    assert cfg.dealias is False
    assert cfg.checkpoint_times == (0.1, 0.25)
    assert cfg.out_dir == "results"
    assert cfg.eps_list == (0.5, 0.25, 0.0)
    assert cfg.n_list == (4, 8)
    assert cfg.dt_list == (1e-2, 5e-3, 2.5e-3)


def test_inline_comments_and_zero_preset():
    cfg = parse_config_text(
        """
        [data]
        preset = zero
        [run]
        eps = 0.5  # half way
        """
    )
    assert cfg.phi_spec == ("expr", "0")
    assert cfg.eps == 0.5


def test_unknown_section_and_key_rejected():
    with pytest.raises(ValueError):
        parse_config_text("[grids]\nlx = 1\n")
    with pytest.raises(ValueError):
        parse_config_text("[grid]\nlz = 1\n")
    for removed in ("coupling = false", "regularize_data = no", "c0 = 0.4", "seed = 7"):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text(f"[run]\n{removed}\n")
    with pytest.raises(ValueError):
        parse_config_text("[data]\npreset = nonsense\n")


def test_expression_safety():
    with pytest.raises(ValueError):
        parse_config_text("[run]\ndt = __import__('os')\n")
    with pytest.raises(ValueError):
        parse_config_text("[run]\ndt = unknown_name\n")
    with pytest.raises(ValueError):
        parse_config_text("[run]\ndt = (1).__class__\n")


@pytest.mark.parametrize("expr", ["1if 2 else 3", "0x1for"], ids=["decimal", "hexadecimal"])
def test_literal_the_compiler_warns_about_is_an_invalid_value(expr):
    # refused with a ValueError, and no SyntaxWarning escapes the parser
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="cannot parse expression"):
            parse_config_text(f"[grid]\nlx = {expr}\n")
    assert caught == []


def test_validation_errors():
    with pytest.raises(ValueError):
        parse_config_text("[run]\neps = 2\n")
    with pytest.raises(ValueError):
        parse_config_text("[run]\ndt = 0\n")
    with pytest.raises(ValueError):
        parse_config_text("[run]\nt = -1\n")
    with pytest.raises(ValueError):
        parse_config_text("[run]\nyosida_n = 0.5\n")
    with pytest.raises(ValueError):
        parse_config_text("[run]\nmonitor_stride = 0\n")
    with pytest.raises(ValueError):
        parse_config_text("[run]\ncheckpoint_times = -0.5\n")
    with pytest.raises(ValueError):
        parse_config_text("[sweep]\neps_list = 0.5 1.5\n")
    with pytest.raises(ValueError):
        parse_config_text("[sweep]\nn_list = 0\n")


def test_checkpoint_time_past_the_horizon_is_an_error():
    # integrate never reaches 0.5, so its state would silently be missing
    with pytest.raises(ValueError, match=r"checkpoint time 0\.5 .* horizon t0 \+ T = 0\.05"):
        parse_config_text("[run]\nt = 0.05\ncheckpoint_times = 0.02 0.5\n")
    # the last step lands on T up to round-off, as integrate allows
    cfg = parse_config_text("[run]\nt = 0.05\ncheckpoint_times = 0.05\n")
    assert cfg.checkpoint_times == (0.05,)


@pytest.mark.parametrize("t, reached", [(0.0100000001, True), (0.0100001, False)])
def test_config_and_integrate_share_one_checkpoint_horizon(t, reached):
    # with T = 0.01 and dt = 1e-3 integrate keeps a time up to a millionth
    # of a step past T at its last step, and refuses a later one; the
    # config follows the same rule, where it used to refuse any time past
    # T + 1e-12, 0.0100000001 included, which integrate keeps
    text = f"[grid]\nnx = 4\nny = 4\n[run]\nt = 0.01\ncheckpoint_times = {t!r}\n"
    cfg = RunConfig(nx=4, ny=4, T=0.01)
    state0, params = build_initial_state(cfg), build_params(cfg)
    if reached:
        assert parse_config_text(text).checkpoint_times == (t,)
        rec = integrate(state0, cfg.T, params, checkpoint_times=(t,))
        assert rec.checkpoints[t].t == cfg.T
        return
    with pytest.raises(ValueError) as by_config:
        parse_config_text(text)
    with pytest.raises(ValueError) as by_integrate:
        integrate(state0, cfg.T, params, checkpoint_times=(t,))
    assert str(by_config.value) == str(by_integrate.value)
    assert "lies past the horizon t0 + T = 0.01" in str(by_config.value)


def test_checkpoint_times_sharing_a_file_name_are_an_error():
    # both would be written to state_t0.0100.bin, the second over the first
    with pytest.raises(
        ValueError, match=r"0\.01001 and 0\.01004 would both be written to state_t0\.0100\.bin"
    ):
        parse_config_text("[run]\ncheckpoint_times = 0.01004 0.01001\n")


def test_eps_list_allows_zero():
    cfg = parse_config_text("[sweep]\neps_list = 0\n")
    assert cfg.eps_list == (0.0,)


def test_mode_rows():
    cfg = parse_config_text(
        """
        [data]
        phi_modes = 2 3 1.5
            1 1 -0.25
        psi0 = 0
        psi1 = 0
        """
    )
    assert cfg.phi_spec == ("modes", ((2, 3, 1.5), (1, 1, -0.25)))
    with pytest.raises(ValueError):
        parse_config_text("[data]\nphi_modes = 1 2\n")
    with pytest.raises(ValueError):
        parse_config_text("[data]\nphi_modes = 0 1 1.0\n")
    with pytest.raises(ValueError):
        parse_config_text("[data]\nphi = 0\nphi_modes = 1 1 1.0\n")


def test_build_initial_state_standard():
    cfg = parse_config_text("[grid]\nnx = 16\nny = 16\n")
    st = build_initial_state(cfg)
    assert st.u.coef[0, 0] == pytest.approx(np.pi / 2, rel=1e-13)
    assert st.v.coef[0, 0] == pytest.approx(np.pi / 2, rel=1e-13)
    assert np.max(np.abs(st.vt.coef)) == 0.0
    assert st.t == 0.0


def test_build_initial_state_from_modes():
    cfg = parse_config_text(
        """
        [grid]
        nx = 8
        ny = 8
        [data]
        phi_modes = 2 3 1.5
        psi0 = 0
        psi1 = 0
        """
    )
    st = build_initial_state(cfg)
    assert st.u.coef[1, 2] == 1.5
    total = np.sum(np.abs(st.u.coef))
    assert total == 1.5


def test_build_initial_state_mode_out_of_band():
    cfg = parse_config_text(
        "[grid]\nnx = 4\nny = 4\n[data]\nphi_modes = 5 1 1.0\npsi0 = 0\npsi1 = 0\n"
    )
    with pytest.raises(ValueError):
        build_initial_state(cfg)


def test_complex_phi_via_imaginary_part():
    cfg = parse_config_text(
        """
        [grid]
        nx = 16
        ny = 16
        [data]
        preset = standard
        phi_imag = 2*sin(x)*sin(y)
        """
    )
    st = build_initial_state(cfg)
    assert st.u.coef[0, 0] == pytest.approx((np.pi / 2) * (1 + 2j), rel=1e-13)


def test_build_grid_and_params():
    cfg = parse_config_text(
        "[grid]\nlx = 2*pi\nnx = 12\n[run]\neps = 0.25\nyosida_n = 8\ndealias = no\n"
    )
    g = build_grid(cfg)
    assert (g.Nx, g.Ny) == (12, 64)
    assert g.Lx == pytest.approx(2 * np.pi)
    params = build_params(cfg)
    assert params.eps == 0.25
    assert params.yosida_n == 8.0
    assert params.dealias is False
    override = build_params(cfg, eps=0.75, yosida_n=None)
    assert override.eps == 0.75
    assert override.yosida_n is None


def test_load_config_file(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text("[run]\nt = 0.5\n[output]\ndir = artifacts\n")
    cfg = load_config(str(path))
    assert cfg.T == 0.5
    assert cfg.out_dir == "artifacts"
    assert cfg.raw == {"run": {"t": "0.5"}, "output": {"dir": "artifacts"}}


def test_malformed_ini_rejected():
    with pytest.raises(ValueError):
        parse_config_text("not an ini file at all\n")


@pytest.mark.parametrize(
    "text",
    [
        "[run]\neps = 50%\n",  # was an InterpolationSyntaxError
        "[grid]\nlx = %(ly)s\nly = 2\n",  # was read as ly's value
        "[run]\neps = " + "-" * 5000 + "1\n",  # was a RecursionError
        "[run]\neps = " + "+".join(["1"] * 600) + "\n",  # ditto, in evaluation
        "[DEFAULT]\nnx = 8\n",  # was silently ignored
        "[data]\nphi_modes = 1 1 nan\n",  # was accepted
        "[sweep]\nn_list = 4.5 8.9\n",  # was truncated to (4, 8)
    ],
    ids=[
        "percent", "interpolation", "deep-unary", "long-sum", "default-section", "nan-mode",
        "fractional-n",
    ],
)
def test_malformed_values_rejected_with_value_error(text):
    with pytest.raises(ValueError):
        parse_config_text(text)
