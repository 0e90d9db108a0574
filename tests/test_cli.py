"""End-to-end command tests: exit codes, artifacts, and determinism."""

import csv
import gc
import inspect
import itertools
import json
import os
import platform
import subprocess
import sys
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import sibsim
from conftest import breaking_step
from sibsim import dynamics, experiments, functionals
from sibsim.cli import main
from sibsim.config import RunConfig, build_params
from sibsim.dynamics import integrate
from sibsim.functionals import SERIES_COLUMNS
from sibsim.output import load_checkpoint

# 16 modes per axis keeps the smoke runs fast; charge stays at round-off
# for any resolution, so size is purely a speed choice
SMALL_RUN = """
[grid]
nx = 16
ny = 16
[run]
dt = 1e-3
t = 0.02
monitor_stride = 5
"""


def write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GRID_8 = "[grid]\nnx = 8\nny = 8\n"

#: The environment of a command run in a process of its own.
SRC_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sibsim.__file__)))


def run_quietly(tmp_path, text, *argv):
    """Exit code and manifest of the command `argv` on the INI `text`, with
    its output in tmp_path / "o"."""
    cfg = write(tmp_path, text)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", *argv])
    return code, json.loads((tmp_path / "o" / "manifest.json").read_text())


def cli_process(tmp_path, text, *argv):
    """`python -m sibsim.cli` on the INI `text` in a process of its own,
    whose stderr pytest does not capture away."""
    cfg = write(tmp_path, text)
    return subprocess.run(
        [sys.executable, "-m", "sibsim.cli", "--config", cfg, "--out", str(tmp_path / "o"), *argv],
        env=SRC_ENV, capture_output=True, text=True, timeout=60,
    )


def test_run_standard_small(tmp_path):
    cfg = write(tmp_path, SMALL_RUN + "checkpoint_times = 0 0.02\n")
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "run"]) == 0

    series = (tmp_path / "out" / "series.csv").read_text().splitlines()
    assert series[0] == ",".join(SERIES_COLUMNS)
    assert len(series) == 1 + 5  # header, t0, then steps 5, 10, 15, 20

    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert all(a["passed"] for a in manifest["assertions"])
    assert "series.csv" in manifest["files"]

    snap = load_checkpoint(str(tmp_path / "out" / "state_t0.0200.bin"))
    assert snap.t == pytest.approx(0.02)


def test_run_keeps_a_late_checkpoint_at_its_step(tmp_path):
    # 930 steps of 0.1 sum to 92.999999999999, short of 93 by more than
    # 1e-12, and a step picked from that running sum wrote the state of
    # step 931, t = 93.0999...; picked by index, it was timed by the sum,
    # 92.99999999999899.  Timed by its index, 930 * 0.1 is 93.0.
    text = "[grid]\nnx = 4\nny = 4\n[run]\nt = 100\ndt = 0.1\ncheckpoint_times = 93\n"
    assert run_quietly(tmp_path, text, "run")[0] == 0
    snap = load_checkpoint(str(tmp_path / "o" / "state_t93.0000.bin"))
    assert snap.t == 93.0


@pytest.mark.parametrize("command", ["run", "sweep-eps"])
def test_step_count_past_2_to_the_53_exits_2_at_once(tmp_path, command):
    # 0.01 / 1e-300 steps is finite, and a run of them ran without end while
    # its memory grew; from 2**53 steps on the step index behind a time is
    # no longer exact, so the config is refused before any step
    proc = cli_process(tmp_path, "[grid]\nnx = 4\nny = 4\n[run]\nt = 0.01\ndt = 1e-300\n", command)
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid configuration: step count T/dt = 0.01/1e-300")


def test_run_zero_preset(tmp_path):
    cfg = write(tmp_path, "[data]\npreset = zero\n" + "[grid]\nnx = 8\nny = 8\n[run]\nt = 0.01\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "run"]) == 0


def test_run_is_deterministic(tmp_path):
    cfg = write(tmp_path, SMALL_RUN)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--config", cfg, "--out", str(a), "--quiet", "run"]) == 0
    assert main(["--config", cfg, "--out", str(b), "--quiet", "run"]) == 0
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    # the recorded output directory is the only value allowed to differ
    ma["resolved"].pop("out_dir")
    mb["resolved"].pop("out_dir")
    assert ma == mb


def test_quiet_suppresses_output(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_RUN)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "run"]) == 0
    assert capsys.readouterr().out == ""


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "[run]\neps = 3\n")
    assert main(["--config", cfg, "run"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "{tmp}/absent.ini"],
        ["--config", "{tmp}"],
        ["--out", "{tmp}/a-file/sub"],
    ],
    ids=["missing-config", "config-is-a-directory", "out-under-a-file"],
)
def test_os_error_on_config_or_out_exits_2(tmp_path, capsys, argv):
    # FileNotFoundError, IsADirectoryError and NotADirectoryError are
    # invalid input, not a failed assertion
    (tmp_path / "a-file").write_text("")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv + ["--quiet", "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_memory_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # a grid too large for the host is invalid input, not a failed
    # assertion; the allocation is refused by a stand-in, never attempted
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(sibsim.config, "make_grid", refuse)
    cfg = write(tmp_path, "[grid]\nnx = 100000\nny = 100000\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "run"]) == 2
    assert capsys.readouterr().err == f"out of memory: {message}\n"


@pytest.mark.parametrize(
    "text",
    [
        "[grid]\nlx = 10.0**400\n",
        "[grid]\nlx = 9**9**9\n",
        "[run]\nt = 1e300\ndt = 1e-300\n",
    ],
    ids=["float-overflow", "huge-int-power", "infinite-step-count"],
)
def test_overflowing_config_exits_2(tmp_path, capsys, text):
    cfg = write(tmp_path, text)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "run"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["1if 2 else 3", "0x1for"], ids=["decimal", "hexadecimal"])
def test_config_syntax_warning_leaves_one_stderr_line(tmp_path, expr):
    # The compiler writes a SyntaxWarning for such a literal straight to
    # stderr, past pytest's capture (which only records warnings), so the
    # command runs in a process of its own.
    proc = cli_process(tmp_path, f"[grid]\nlx = {expr}\n", "run")
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid configuration: ")
    assert len(proc.stderr.splitlines()) == 1


def test_data_norm_past_the_float_range_leaves_one_stderr_line(tmp_path):
    # |c|^2 = 1e310 overflows; numpy prints its RuntimeWarning straight to
    # stderr outside pytest, so the command runs in a process of its own
    proc = cli_process(tmp_path, "[data]\nphi_modes = 1 1 1e155\n", "run")
    assert proc.returncode == 2
    assert proc.stderr == "invalid configuration: data norm l2_phi must be finite and nonnegative\n"


@pytest.mark.parametrize(
    "text, command, code, prefix",
    [
        (GRID_8 + "[data]\nphi = 1e200*sin(x)*sin(y)\n", "order-test", 3, "numerical abort: "),
        (GRID_8 + "lx = 1e-300\n", "run", 2, "invalid configuration: "),
    ],
    ids=["overflowing-data", "overflowing-eigenvalues"],
)
def test_floating_point_trouble_leaves_one_stderr_line(tmp_path, text, command, code, prefix):
    # numpy's overflow and invalid-value warnings would print before the
    # error line; the solvers and make_grid name the failure themselves
    proc = cli_process(tmp_path, text, command)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix)
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("side", ["1e-300", "1e200"], ids=["overflow", "underflow"])
@pytest.mark.parametrize(
    "command", ["run", "check", "sweep-eps", "sweep-n", "estimate-c0", "order-test"]
)
def test_every_command_refuses_eigenvalues_out_of_range(tmp_path, capsys, command, side):
    # (8 pi / 1e-300)^2 is past the float range, and (pi / 1e200)^2 is 0
    cfg = write(tmp_path, GRID_8 + f"lx = {side}\nly = {side}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: Laplacian eigenvalues leave the float range")
    assert len(err.splitlines()) == 1


def test_cli_leaves_numpy_warnings_visible(tmp_path, monkeypatch):
    # the solvers silence numpy only where their own finiteness checks
    # follow; elsewhere a floating-point warning must still reach the caller
    monkeypatch.setattr(experiments, "cmd_check", lambda config, quiet: int(np.float64(1) / 0))
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        main(["--out", str(tmp_path / "o"), "check"])


def test_estimate_c0_from_a_bump_that_misses_every_node_fails(tmp_path):
    # 8 nodes across ly = 100 leave the centred bump 0 on every node: the
    # estimate is NaN and must not read as converged
    code, manifest = run_quietly(tmp_path, GRID_8 + "lx = 1\nly = 100\n", "estimate-c0")
    assert code == 1
    assert [(a["name"], a["passed"]) for a in manifest["assertions"]] == [
        ("estimator-converged", False)
    ]
    c0 = json.loads((tmp_path / "o" / "c0.json").read_text())
    assert c0["c0"] is None and c0["converged"] is False


def test_check_on_a_tiny_domain_reaches_its_verdicts(tmp_path, capsys):
    # lam is about 1e301 here: fields whose decay is taken against lam
    # itself would be zero, and their relative errors would divide by zero;
    # J_1 is about 1e-302, and the bound of a phase grows with h lam_max
    cfg = write(tmp_path, GRID_8 + "lx = 1e-150\nly = 1e-150\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("[PASS] ") for line in lines)


@pytest.mark.parametrize(
    "preset, expected",
    [({}, "1"), ({"OMP_NUM_THREADS": "3"}, None)],
    ids=["unset", "set-by-user"],
)
def test_import_pins_blas_threads_unless_set(preset, expected):
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env.update(preset, PYTHONPATH=os.path.dirname(os.path.dirname(sibsim.__file__)))
    code = "import os, sibsim; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(expected)


# a default run, warmed up, then timed in minor page faults: with the import's
# allocator thresholds the temporaries of each step and monitor row are
# reused in place; glibc's own thresholds unmap and fault them in every time
_FAULT_PROBE = """
import resource
import sibsim
from sibsim.config import RunConfig, build_initial_state, build_params
from sibsim.functionals import RunMonitor
cfg = RunConfig()
state, params = build_initial_state(cfg), build_params(cfg)
monitor = RunMonitor.from_state(state)
sibsim.integrate(state, 0.02, params, monitor=monitor)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sibsim.integrate(state, 0.2, params, monitor=monitor)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
@pytest.mark.parametrize(
    "preset, many_faults",
    [({}, False), ({"MALLOC_TRIM_THRESHOLD_": "131072"}, True)],
    ids=["unset", "set-by-user"],
)
def test_import_keeps_step_temporaries_mapped_unless_malloc_tuned(preset, many_faults):
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
    }
    env.update(preset, PYTHONPATH=os.path.dirname(os.path.dirname(sibsim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    if many_faults:
        assert faults >= 1000
    else:
        assert faults < 200


def test_cli_run_loads_no_scipy(tmp_path):
    # numpy is sibsim's one runtime dependency; scipy serves only the tests
    cfg = write(tmp_path, GRID_8 + "[run]\nt = 0.01\n")
    code = (
        "import sys, sibsim.cli\n"
        f"code = sibsim.cli.main(['--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}, "
        "'--quiet', 'run'])\n"
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_missing_smallness_hypothesis_exits_2(tmp_path, capsys):
    # ||phi||_2 = 4 lies above the sqrt(2)/C0 threshold
    cfg = write(
        tmp_path,
        "[grid]\nnx = 8\nny = 8\n[data]\nphi = 8/pi*sin(x)*sin(y)\npsi0 = 0\npsi1 = 0\n"
        "[run]\nt = 0.01\n",
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "sweep-eps"]) == 2
    assert "small-data hypothesis" in capsys.readouterr().err


def test_empty_n_list_exits_2(tmp_path):
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n[sweep]\nn_list =\n[run]\nt = 0.01\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "sweep-n"]) == 2


def test_order_test_rejects_bad_dt_list(tmp_path):
    cfg = write(tmp_path, SMALL_RUN)
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, "order-test", "--dt-list", "1e-2", "5e-3"]) == 2
    assert (
        main(
            ["--config", cfg, "--out", out, "order-test", "--dt-list", "1e-2", "6e-3", "3e-3"]
        )
        == 2
    )


@pytest.mark.parametrize("t", ["0.004", "0.0001"])
def test_order_test_refuses_a_horizon_below_its_largest_dt(tmp_path, capsys, t):
    # below dt = 0.01, the runs at 0.01 and 0.005 take the same single step
    # of T, so their errors show no order, and the order against the steps
    # taken would be 0 / 0
    cfg = write(tmp_path, f"[grid]\nnx = 4\nny = 4\n[run]\nt = {t}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "order-test"]) == 2
    err = capsys.readouterr().err
    assert f"horizon T = {float(t)} is shorter than its largest dt = 0.01" in err


def test_order_test_measures_orders_against_the_steps_taken(tmp_path):
    # T = 0.012 is 2, 3 and 5 equal steps at dt = 0.01, 0.005 and 0.0025,
    # which do not halve: against those steps the orders read 2.011 and
    # 2.022, and log2 of the error ratios alone would read 1.176 and 1.490
    code, manifest = run_quietly(tmp_path, GRID_8 + "[run]\nt = 0.012\n", "order-test")
    assert code == 0
    orders = manifest["reports"]["orders"]
    assert len(orders) == 2
    assert all(1.9 <= order <= 2.1 for order in orders), orders


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep-eps", "--eps-list", "1.5"], "eps_list"),
        (["sweep-n", "--n-list", "0"], "n_list"),
        (["order-test", "--dt-list", "-0.01", "-0.005", "-0.0025"], "dt_list"),
    ],
    ids=["eps", "n", "dt"],
)
def test_bad_list_override_exits_2_before_the_command_runs(tmp_path, capsys, argv, field):
    # flag values are checked by RunConfig, as file values are, so no
    # command starts and no output directory is made
    cfg = write(tmp_path, SMALL_RUN)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and f"{field} entries" in err
    assert not out.exists()


def test_list_override_reaches_the_manifest(tmp_path):
    text = GRID_8 + "[run]\ndt = 1e-2\nt = 0.02\n[sweep]\nn_list = 4 8\n"
    code, manifest = run_quietly(tmp_path, text, "sweep-n", "--n-list", "2", "4", "8")
    assert code == 0
    assert manifest["reports"]["n"] == [2, 4, 8]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep-n", "--n-list", "4", "8"], "n_list"),
        (["sweep-n", "--n-list", "4", "8", "8", "4"], "n_list"),
        (["sweep-eps", "--eps-list", "0.1"], "eps_list"),
        (["sweep-eps", "--eps-list", "0.1", "0.1"], "eps_list"),
    ],
)
def test_sweep_with_nothing_to_compare_exits_2(tmp_path, capsys, argv, field):
    # a trend needs two gaps along n (three runs) and one along eps (two)
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n[run]\ndt = 1e-2\nt = 0.02\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o")] + argv) == 2
    err = capsys.readouterr().err
    assert "at least" in err and field in err


def test_state_comparisons_evaluate_no_monitor_row(tmp_path, monkeypatch):
    # the sweeps and the order test compare states; only run reads rows
    def refuse(*args):
        raise AssertionError("a monitor row was evaluated")

    monkeypatch.setattr(functionals.RunMonitor, "row", refuse)
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n[run]\ndt = 1e-2\nt = 0.02\n")
    for argv in (
        ["sweep-n", "--n-list", "2", "4", "8"],
        ["sweep-eps", "--eps-list", "0.1", "0"],
        ["order-test"],
    ):
        out = str(tmp_path / argv[0])
        assert main(["--config", cfg, "--out", out, "--quiet"] + argv) == 0


ROW_EVERY_STEP = GRID_8 + "{data}[run]\ndt = 1e-3\nt = 0.01\nmonitor_stride = 1\n"


def test_blowup_exits_3(tmp_path, capsys, monkeypatch):
    # the second step leaves vt non-finite in one mode; the CLI prints the
    # abort on one stderr line for every command, and run also records it
    # in its manifest
    breaking_step(monkeypatch, 2, ("vt",))
    cfg = write(tmp_path, ROW_EVERY_STEP.format(data=""))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "run"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "numerical abort: non-finite vt at step 2" in err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "numerical-abort"
    assert manifest["last_finite_t"] == pytest.approx(1e-3)
    assert manifest["failed_step"] == 2
    assert manifest["failed_quantity"] == "vt"


def test_overflowing_envelope_is_no_blowup(tmp_path):
    # the state stays finite (max|u| 2975) while the H1 envelope
    # C3 exp(C0^2 ||phi||^2 t) overflows from step 1 on; an infinite
    # envelope dominates, so the run ends on its assertions
    data = "[data]\nphi_modes = 1 1 3000\npsi0 = 0\npsi1 = 0\n"
    code, manifest = run_quietly(tmp_path, ROW_EVERY_STEP.format(data=data), "run")
    assert code == 0
    assert [a["name"] for a in manifest["assertions"]] == [
        "charge-conservation", "h1-envelope-domination", "gn-quotient-bound"
    ]
    with open(tmp_path / "o" / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["envelope_h1"] == "inf"


def test_meaningless_nodal_phase_exits_3(tmp_path, capsys):
    # finite throughout, but after the first half wave dt * max|v| is far
    # beyond 2**53: exp(-i dt v) keeps no accurate digit, so the order
    # test stops instead of reporting an order from noise
    cfg = write(
        tmp_path,
        "[grid]\nnx = 8\nny = 8\n"
        "[data]\nphi_modes = 1 1 7e76\npsi0 = 0\npsi1 = 0\n"
        "[run]\nt = 0.02\n",
    )
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "order-test"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical abort:")
    assert "dt * max|v|" in lines[0] and "2**53" in lines[0]


YOSIDA_LONG_STEP = (
    "[grid]\nnx = 16\nny = 16\n"
    "[data]\npsi0 = {amp}*sin(x)*sin(y)\n"
    "[run]\nyosida_n = 8\ndt = 0.05\nt = 0.1\n"
)


def test_long_yosida_potential_flow_step_is_substepped(tmp_path):
    # dt * max|J v| is about 64 here: the flow is summed in that many
    # substeps and stays unitary, so the run reaches T with its charge
    # (exit 0: charge-conservation passed)
    cfg = write(tmp_path, YOSIDA_LONG_STEP.format(amp=2000))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "run"])
    assert code == 0
    with open(tmp_path / "o" / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["t"]) == pytest.approx(0.1)


def test_divergent_yosida_potential_flow_exits_3(tmp_path, capsys):
    # a step far too long for this potential: dt * max|J v| is about 6e3,
    # beyond the flow's substep budget, and the run stops instead of
    # spending that many substeps on one step
    code, manifest = run_quietly(tmp_path, YOSIDA_LONG_STEP.format(amp="2e5"), "run")
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("numerical abort") == 1
    assert "potential flow" in captured.err and "beta = " in captured.err
    assert f"budget of {dynamics._MAX_SUBSTEPS}" in captured.err
    assert manifest["status"] == "numerical-abort"
    assert manifest["files"] == {}
    assert "last_finite_t" not in manifest and "failed_quantity" not in manifest


def table(name, change, n=None):
    """A patch that replaces the table `name` of every _Kernels that has it,
    or only of those with Yosida index n, by change(a copy of it), once the
    kernel is built."""

    def patch(monkeypatch):
        original = dynamics._Kernels.__init__

        def corrupted(ker, grid, params, dt):
            original(ker, grid, params, dt)
            if getattr(ker, name, None) is not None and n in (None, params.yosida_n):
                setattr(ker, name, change(getattr(ker, name).copy()))

        monkeypatch.setattr(dynamics._Kernels, "__init__", corrupted)

    return patch


def results(holder, name, change):
    """A patch that passes every result of holder.name through change."""

    def patch(monkeypatch):
        original = getattr(holder, name)
        monkeypatch.setattr(holder, name, lambda *args: change(original(*args)))

    return patch


def free_flow(change):
    """A patch that passes every _Kernels.free_flow result, the pair
    (exp(-i t lam), exp(-i t omega)), through change."""
    return results(dynamics._Kernels, "free_flow", change)


def flow_table(index, change):
    """A patch that replaces the table `index` of every free_flow result by
    change(it)."""

    def change_one(flows):
        return tuple(change(f) if i == index else f for i, f in enumerate(flows))

    return free_flow(change_one)


def set_entry(index, value):
    def change(array):
        array[index] = value
        return array

    return change


def test_check_suite_passes(tmp_path):
    code, manifest = run_quietly(tmp_path, GRID_8, "check")
    assert code == 0 and all(a["passed"] for a in manifest["assertions"])
    assert {a["name"] for a in manifest["assertions"]} <= {name for name, _ in FAULTS}


def test_check_certifies_the_stepping_kernel(tmp_path, monkeypatch):
    # a Yosida symbol above 1 at yosida_n = 5, which only the kernel the
    # stepper builds has, must fail the derivation, and only it
    table("jsym", set_entry((0, 0), 1.5), n=5)(monkeypatch)
    code, manifest = run_quietly(tmp_path, GRID_8 + "[run]\nyosida_n = 5\n", "check")
    failed = [a for a in manifest["assertions"] if not a["passed"]]
    assert code == 1 and [a["name"] for a in failed] == ["symbol-derivation"]
    assert "on J_5," in failed[0]["detail"] and "yosida_n 5}" in failed[0]["detail"]


def test_symbol_derivation_allows_phase_round_off_that_grows_with_the_angle(monkeypatch):
    # two evaluations of a phase exp(-i t x) may differ in angle by
    # 20u |t| x (u = 2**-53; see _symbol_derivation): 82u at the top mode
    # of the default grid, where h lam_max / 2 = 4.1.  Within the bound,
    # which grows with the angle, but past 32u
    lam = sibsim.make_grid(np.pi, np.pi, 64, 64).lam
    off = np.exp(-20j * 2.0**-53 * 5e-4 * lam)
    table("phase_half", lambda phase: phase * off)(monkeypatch)
    assert experiments._symbol_derivation(RunConfig()).passed


def test_check_covers_every_n_it_names(tmp_path, monkeypatch):
    # J_n is derived at every n of n_list: a Yosida symbol above 1 at n = 3
    # alone, which no power of two reaches, fails it, and the detail names 3
    table("jsym", set_entry((0, 0), 1.5), n=3)(monkeypatch)
    code, manifest = run_quietly(tmp_path, GRID_8 + "[sweep]\nn_list = 3 8 16\n", "check")
    failed = [a for a in manifest["assertions"] if not a["passed"]]
    assert code == 1 and [a["name"] for a in failed] == ["symbol-derivation"]
    assert "J_3" in failed[0]["detail"] and "n in {1, 2, 3, 4, 8," in failed[0]["detail"]


def test_check_certifies_the_half_step_wave_phase(tmp_path, monkeypatch):
    # wave_half multiplies by wave_phase_half, the exp(-i t omega) of
    # free_flow; a 1e-12 error in the modulus of one of its entries must
    # fail the derivation, and only it
    def off_in_one_entry(flows):
        flows[1][-1, -1] *= 1.0 + 1e-12
        return flows

    free_flow(off_in_one_entry)(monkeypatch)
    code, manifest = run_quietly(tmp_path, GRID_8, "check")
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert code == 1 and failed == ["symbol-derivation"]


def test_check_certifies_the_stored_c0(tmp_path, monkeypatch):
    # a stored C0 above the fresh reference-grid estimate must fail its
    # assertion, and only that one
    monkeypatch.setattr(functionals, "REFERENCE_C0", 0.42)
    code, manifest = run_quietly(tmp_path, GRID_8, "check")
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert code == 1 and failed == ["stored-c0-certified"]
    assert len(manifest["assertions"]) == 6


def test_check_passes_on_the_config_inputs_it_derives_from(tmp_path):
    # a rectangle, eps and yosida_n off their defaults, and a dt that does
    # not divide T, so that the kernel's step h = T/4 = 0.0025 is not dt
    text = "[grid]\nlx = 2*pi\nly = pi\nnx = 12\nny = 8\n[run]\neps = 0.3\nyosida_n = 5\n"
    code, manifest = run_quietly(tmp_path, text + "dt = 0.003\nt = 0.01\n", "check")
    detail = manifest["assertions"][0]["detail"]
    assert code == 0 and "eps 0, 0.5, 1, 0.3" in detail and "1024; yosida_n 5}" in detail
    assert "h = 0.0025" in detail


def omega2_at_2eps(monkeypatch):
    # the kernel built from eps doubled: w2 = lam / (1 + 2 eps lam), w and
    # every wave phase follow
    init = dynamics._Kernels.__init__

    def doubled(ker, grid, params, dt):
        init(ker, grid, SimpleNamespace(**{**vars(params), "eps": 2 * params.eps}), dt)

    monkeypatch.setattr(dynamics._Kernels, "__init__", doubled)


def grid_lam(lam_of):
    """A patch that gives every grid make_grid builds the eigenvalues
    lam_of(make_grid, Lx, Ly, Nx, Ny), and forms lam^s tables uncached."""

    def patch(monkeypatch):
        make_grid = sibsim.grids.make_grid

        def faulty(*args):
            return replace(make_grid(*args), lam=lam_of(make_grid, *args))

        for module in (sibsim.grids, sibsim.config, experiments):
            monkeypatch.setattr(module, "make_grid", faulty)
        weights = sibsim.grids._sobolev_weights.__wrapped__
        monkeypatch.setattr(sibsim.grids, "_sobolev_weights", weights)

    return patch


def test_check_catches_an_axis_swap_in_the_synthesis(tmp_path, monkeypatch, capsys):
    # the y-axis synthesis built with Lx in place of Ly: the default square
    # grid cannot see it, the check's fixed rectangle does
    synthesis = sibsim.grids._synthesis
    monkeypatch.setattr(
        sibsim.grids, "_synthesis", lambda g, c, shape: synthesis(replace(g, Ly=g.Lx), c, shape)
    )
    assert main(["--out", str(tmp_path / "o"), "--quiet", "check"]) == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert failed == ["transform-inverse", "transform-parseval"]


# ---------------------------------------------------------------------------
# one fault per assertion name: each case corrupts one input of the function
# that computes the assertion, and the named assertion must then fail


def series_fault(corrupt):
    """_series_assertions of a small default-data run with a row every
    step, after corrupt(series)."""

    def case(monkeypatch, tmp_path):
        cfg = RunConfig(nx=8, ny=8, T=0.02, monitor_stride=1)
        params = build_params(cfg)
        state0, monitor = experiments._start(cfg, params)
        series = integrate(state0, cfg.T, params, cfg.monitor_stride, monitor).series
        corrupt(series)
        return experiments._series_assertions(series, cfg.eps, monitor)

    return case


def edit(column, value):
    def corrupt(series):
        series[column][-1] = value

    return corrupt


def sweep_fault(sweep, metric):
    """The assertions of sweep on 8^2 to t = 0.02 with every distance that
    `metric` measures read as 1.0: a flat trend."""

    def case(monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, metric, lambda a, b: 1.0)
        return sweep(RunConfig(nx=8, ny=8, dt=1e-2, T=0.02))[-1]

    return case


def dt_ignored(monkeypatch, tmp_path):
    """_order_test on default data, 16^2, with every run stepped at
    dt = 1e-3 whatever dt it asks for: every error reads 0 although the
    data move."""

    def fixed_dt(state0, T, params, *args, **kwargs):
        return integrate(state0, T, replace(params, dt=1e-3), *args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", fixed_dt)
    return experiments._order_test(RunConfig(nx=16, ny=16))[-1]


def nan_member_charge(monkeypatch, tmp_path):
    """_n_sweep on 8^2 to t = 0.02 with the second member's final charge
    read as NaN: each run takes its charge at its start and at T, the
    reference first, so that is the sixth charge taken."""
    calls = itertools.count()
    monkeypatch.setattr(
        experiments, "charge", lambda st: np.nan if next(calls) == 5 else functionals.charge(st)
    )
    return experiments._n_sweep(RunConfig(nx=8, ny=8, dt=1e-2, T=0.02))[-1]


def growing_charge(sweep):
    """The assertions of sweep on 8^2 to t = 0.02 with a charge that grows
    like 1 + t."""

    def case(monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "charge", lambda st: functionals.charge(st) * (1 + st.t))
        return sweep(RunConfig(nx=8, ny=8, dt=1e-2, T=0.02))[-1]

    return case


def symbol_fault(patch):
    """_symbol_derivation on the default config at 8^2 after patch(monkeypatch)."""

    def case(monkeypatch, tmp_path):
        patch(monkeypatch)
        return [experiments._symbol_derivation(RunConfig(nx=8, ny=8))]

    return case


def command_fault(command, patch):
    """The assertions `command` writes to its manifest after patch(monkeypatch)."""

    def case(monkeypatch, tmp_path):
        patch(monkeypatch)
        manifest = run_quietly(tmp_path, GRID_8, command)[1]
        return [experiments.Assertion(**a) for a in manifest["assertions"]]

    return case


def grid_fault(patch):
    """_grid_assertions on 8^2 after patch(monkeypatch)."""

    def case(monkeypatch, tmp_path):
        patch(monkeypatch)
        return experiments._grid_assertions(sibsim.make_grid(np.pi, np.pi, 8, 8))

    return case


def scaled(name, factor):
    """A patch that scales every result of the grids transform `name`."""

    return results(sibsim.grids, name, lambda values: values * factor)


def non_isometric(monkeypatch):
    # synthesis doubled and analysis halved still invert each other
    scaled("_synthesis", 2.0)(monkeypatch)
    scaled("_analysis", 0.5)(monkeypatch)


def nan_corner(holder, name):
    """A patch that reads entry (0, 0) of every result of holder.name as NaN."""
    return results(holder, name, set_entry((0, 0), np.nan))


def lifted_norm_off(monkeypatch):
    monkeypatch.setattr(experiments, "h1_norm", lambda f: sibsim.grids.h1_norm(f) * (1 + 1e-9))


def phase_flow_fault(patch):
    """_phase_flow_assertion on 8^2 after patch(monkeypatch)."""

    def case(monkeypatch, tmp_path):
        patch(monkeypatch)
        return [experiments._phase_flow_assertion(sibsim.make_grid(np.pi, np.pi, 8, 8))]

    return case


def short_taylor_phase(monkeypatch):
    # the Taylor phase one term short of the degree the tail rule asks for:
    # at beta = 1e-3 (degree 3 for 4) that drops y^4/4!, 4.2e-14 on every
    # node
    degree = dynamics._phase_degree
    monkeypatch.setattr(dynamics, "_phase_degree", lambda beta: degree(beta) - 1)


def unconverged_estimator(monkeypatch):
    monkeypatch.setattr(functionals, "_GN_MAX_ITER", 1)


# cases that fault the kernel's tables, each named by the property of its
# symbol that the fault breaks; every one must fail symbol-derivation
SYMBOL_FAULTS = {
    "yosida-symbol-contraction": symbol_fault(table("jsym", set_entry((0, 0), 1.5))),
    # the top mode unregularized: sqrt(lam_max) = sqrt(128) exceeds sqrt(n) for n < 128
    "yosida-symbol-sqrt-gain": symbol_fault(table("jsym", set_entry((-1, -1), 1.0))),
    "yosida-symbol-sqrt-bound": symbol_fault(table("jsym", set_entry((2, 3), 1 + 1e-15), n=8)),
    "yosida-symbol-full-bound": symbol_fault(table("jsym", lambda j: j * 1.01, n=1024)),
    "yosida-convergence-monotone": symbol_fault(table("jsym", np.zeros_like, n=2)),
    "yosida-convergence-band-bound": symbol_fault(table("jsym", np.zeros_like, n=1024)),
    "yosida-convergence-small": symbol_fault(table("jsym", lambda j: j * 0.99, n=512)),
    "schrodinger-unitarity": symbol_fault(flow_table(0, lambda u: u * (1 + 1e-9))),
    "propagator-group-identity": symbol_fault(flow_table(0, lambda u: u * np.exp(1e-9j))),
    "wave-kernel-first-integral": symbol_fault(flow_table(1, lambda c: c * (1 + 1e-12))),
    "source-symbol-consistency": symbol_fault(table("w2", lambda w2: w2 * (1 + 1e-12))),
    # (k pi / Ly)^2 + (l pi / Lx)^2: the 2pi x pi rectangle shows it, the square does not
    "lam-axes-exchanged": symbol_fault(grid_lam(lambda make, lx, ly, *n: make(ly, lx, *n).lam)),
    # the five kernel faults, through the command.  Powers 1.01 of the
    # phases make the angles 1.01 times theirs, all below pi on 8^2
    "dispersion-1.01": command_fault("check", flow_table(0, lambda u: u**1.01)),
    "omega2-2eps": command_fault("check", omega2_at_2eps),
    "wave-phase-1.01": command_fault(
        "check", results(dynamics._Kernels, "wave_phase", lambda c: c**1.01)
    ),
    # J / (2 - J) = 1 / (1 + 2 lam / n) is J_{n/2}
    "yosida-half-n": command_fault("check", table("jsym", lambda j: j / (2 - j))),
    # kx and ky 0.5% high
    "lam-high": command_fault("check", grid_lam(lambda make, *args: make(*args).lam * 1.005**2)),
}

# a NaN fails symbol-derivation wherever it sits: in the first J_n, the
# last, every one, the phases and w2
SYMBOL_NAN_FAULTS = {
    "yosida-symbol-contraction": symbol_fault(table("jsym", set_entry((0, 0), np.nan), n=1024)),
    "yosida-convergence-monotone": symbol_fault(table("jsym", set_entry((0, 0), np.nan), n=1)),
    "yosida-convergence-band-bound": symbol_fault(table("jsym", set_entry((-1, -1), np.nan))),
    "schrodinger-unitarity": symbol_fault(flow_table(0, set_entry((3, 2), np.nan))),
    "propagator-group-identity": symbol_fault(table("wave_phase_full", set_entry((3, 2), np.nan))),
    "wave-kernel-first-integral": symbol_fault(flow_table(1, set_entry((3, 2), np.nan))),
    "source-symbol-consistency": symbol_fault(table("w2", set_entry((1, 1), np.nan))),
}

FAULTS = [
    ("charge-conservation", series_fault(edit("charge", np.pi**2 / 4 * (1 + 1e-9)))),
    ("h1-envelope-domination", series_fault(edit("h1_u", 1e3))),
    ("small-data-envelope", series_fault(edit("l2_v", 1e3))),
    ("gn-quotient-bound", series_fault(edit("gn_quotient", 0.5))),
    ("eps-difference-decreasing", sweep_fault(experiments._eps_sweep, "difference_metric")),
    ("n-consecutive-differences-decreasing", sweep_fault(experiments._n_sweep, "cauchy_metric")),
    ("member-charge-conservation", growing_charge(experiments._n_sweep)),
    ("member-charge-conservation", growing_charge(experiments._eps_sweep)),
    ("splitting-second-order", sweep_fault(experiments._order_test, "difference_metric")),
    ("splitting-second-order", dt_ignored),
    *(("symbol-derivation", case) for case in SYMBOL_FAULTS.values()),
    ("lifted-inverse-norm-identity", grid_fault(lifted_norm_off)),
    ("transform-inverse", grid_fault(scaled("_analysis", 1 + 1e-9))),
    ("transform-parseval", grid_fault(non_isometric)),
    ("nodal-phase-flow", phase_flow_fault(short_taylor_phase)),
    (
        "stored-c0-certified",
        command_fault("check", lambda mp: mp.setattr(functionals, "REFERENCE_C0", 0.42)),
    ),
    ("estimator-converged", command_fault("estimate-c0", unconverged_estimator)),
]

# a NaN in the quantity an assertion checks fails it, wherever the NaN sits
# among the values its worst case is taken over
NAN_FAULTS = [
    ("member-charge-conservation", nan_member_charge),
    *(("symbol-derivation", case) for case in SYMBOL_NAN_FAULTS.values()),
    (
        "lifted-inverse-norm-identity",
        grid_fault(lambda mp: mp.setattr(experiments, "h1_norm", lambda f: np.nan)),
    ),
    ("transform-inverse", grid_fault(nan_corner(sibsim.grids, "_analysis"))),
    ("transform-parseval", grid_fault(nan_corner(sibsim.grids, "_synthesis"))),
    ("nodal-phase-flow", phase_flow_fault(nan_corner(dynamics._Kernels, "potential_flow"))),
]
FAULTS += NAN_FAULTS


# a case whose name an earlier case already has gets an id of its own, so
# that the earlier one keeps its bare name; a symbol-derivation case is
# named by the property its fault breaks
CASE_IDS = {
    dt_ignored: "splitting-second-order-fixed-dt",
    **{fault: f"{name}-nan" for name, fault in NAN_FAULTS},
    **{case: name for name, case in SYMBOL_FAULTS.items()},
    **{case: f"{name}-nan" for name, case in SYMBOL_NAN_FAULTS.items()},
}


@pytest.mark.parametrize(
    "name, fault", FAULTS, ids=[CASE_IDS.get(fault, name) for name, fault in FAULTS]
)
def test_every_assertion_fails_on_its_fault(monkeypatch, tmp_path, name, fault):
    verdicts = {a.name: a for a in fault(monkeypatch, tmp_path)}
    assert verdicts[name].passed is False, verdicts[name].line()
    # a failed verdict reports no room to spare
    assert not verdicts[name].margin > 0, verdicts[name].line()


# each ladder, and the report key that lists its members
LADDERS = {experiments._eps_sweep: "eps", experiments._n_sweep: "n", experiments._order_test: "dt"}


@pytest.mark.parametrize("sweep", list(LADDERS), ids=list(LADDERS.values()))
def test_each_sweep_reports_every_runs_charge_drift(sweep):
    reports = sweep(RunConfig(nx=8, ny=8, dt=1e-2, T=0.02))[-2]
    members = reports[LADDERS[sweep]]
    assert len(reports["charge_drift"]) == len(members)
    assert max(reports["reference_charge_drift"], *reports["charge_drift"]) <= 1e-10


@pytest.mark.parametrize("sweep", list(LADDERS), ids=list(LADDERS.values()))
def test_each_sweep_reports_every_runs_energy_drift(sweep):
    # reported only: nothing asserts a bound on it
    reports = sweep(RunConfig(nx=8, ny=8, dt=1e-2, T=0.02))[-2]
    members = reports[LADDERS[sweep]]
    drifts = [reports["reference_energy_drift"], *reports["energy_drift"]]
    assert len(drifts) == len(members) + 1
    assert all(0.0 <= drift < 1e-3 for drift in drifts)


def test_eps_sweep_holds_at_most_two_runs_samples(monkeypatch):
    # each member is measured against the reference as soon as its run
    # ends, and its sampled states go then: when a run starts, only the
    # reference's are alive (all earlier runs' were, 4 by the last run)
    runs, alive = [], []
    integrate_run = experiments.integrate

    def tracked(*args, **kwargs):
        gc.collect()
        alive.append(sum(any(ref() is not None for ref in refs) for refs in runs))
        record = integrate_run(*args, **kwargs)
        runs.append([weakref.ref(state) for state in record.checkpoints.values()])
        return record

    monkeypatch.setattr(experiments, "integrate", tracked)
    experiments._eps_sweep(RunConfig(nx=8, ny=8, dt=1e-2, T=0.05, monitor_stride=1))
    assert [len(refs) for refs in runs] == [5] * 5
    assert alive == [0, 1, 1, 1, 1]


def test_infinite_envelope_leaves_the_finite_samples_checked(monkeypatch, tmp_path):
    # t = 1e6 overflows the envelope at the last sample; a finite sample far
    # above its envelope must still fail, so the slack ignores the inf
    def violation_next_to_inf(series):
        series["t"][-1] = 1e6
        series["h1_u"][1] *= 1e3

    verdicts = {a.name: a for a in series_fault(violation_next_to_inf)(monkeypatch, tmp_path)}
    assert verdicts["h1-envelope-domination"].passed is False


def test_run_uses_the_stored_c0_without_estimating(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a run must not estimate C0")

    functionals.default_gn_constant.cache_clear()
    monkeypatch.setattr(functionals, "estimate_gn_constant", refuse)
    code, manifest = run_quietly(tmp_path, SMALL_RUN, "run")
    assert code == 0
    assert manifest["envelope_constants"]["c0"] == functionals.REFERENCE_C0


def test_estimate_c0_writes_artifact(tmp_path):
    cfg = write(tmp_path, "[grid]\nlx = 2*pi\nly = 2*pi\nnx = 16\nny = 16\n")
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, "--quiet", "estimate-c0"]) == 0
    payload = json.loads((tmp_path / "o" / "c0.json").read_text())
    assert payload["converged"] is True
    assert 0.3 < payload["c0"] < 0.413434
    assert payload["threshold"] == pytest.approx(np.sqrt(2) / payload["c0"], rel=1e-12)


def test_sweep_eps_small_case(tmp_path):
    # exit 0: eps-difference-decreasing passed
    text = GRID_8 + "[run]\ndt = 1e-2\nt = 0.1\nmonitor_stride = 5\n"
    assert run_quietly(tmp_path, text, "sweep-eps", "--eps-list", "1", "0.5")[0] == 0
    rows = (tmp_path / "o" / "eps_sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,sup_metric,fitted_slope"
    assert float(rows[2].split(",")[1]) > 0.0


def test_sweep_eps_self_comparison_is_zero(tmp_path):
    text = GRID_8 + "[run]\ndt = 1e-2\nt = 0.05\n"
    assert run_quietly(tmp_path, text, "sweep-eps", "--eps-list", "0.1", "0")[0] == 0
    rows = (tmp_path / "o" / "eps_sweep.csv").read_text().splitlines()
    assert rows[2].split(",")[0] == "0"
    assert float(rows[2].split(",")[1]) == 0.0


def test_sweep_eps_fits_the_slope_over_positive_eps_only(tmp_path, capfd):
    # eps = 0 is a member but not a point of the log-log fit: with one
    # positive eps left the slope is empty, and nothing reaches stderr
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n[run]\nt = 0.02\n")
    out = tmp_path / "o"
    argv = ["--config", cfg, "--out", str(out), "--quiet", "sweep-eps", "--eps-list", "0.1", "0"]
    assert main(argv) == 0
    rows = (out / "eps_sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,sup_metric,fitted_slope"
    assert [r.split(",")[2] for r in rows[1:]] == ["", ""]
    assert capfd.readouterr().err == ""

    # the manifest is strict JSON: the missing slope is null, not NaN
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["reports"]["fitted_slope"] is None


def test_sweep_n_small_case(tmp_path, monkeypatch):
    # sweep-n compares end states only: no integrate call keeps a state
    asked = []
    original = experiments.integrate
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        asked.append(signature.bind(*args, **kwargs).arguments.get("checkpoint_times", ()))
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", recording)
    text = GRID_8 + "[run]\ndt = 1e-2\nt = 0.1\nmonitor_stride = 5\n"
    assert run_quietly(tmp_path, text, "sweep-n", "--n-list", "4", "8", "16")[0] == 0
    rows = (tmp_path / "o" / "n_sweep.csv").read_text().splitlines()
    assert rows[0] == "n,diff_consecutive,dist_unregularized"
    dists = [float(r.split(",")[2]) for r in rows[1:]]
    assert dists[0] > dists[-1] > 0.0
    # the unregularized reference and three members
    assert asked == [()] * 4


def test_order_test_small_case(tmp_path):
    text = GRID_8 + "[run]\nt = 0.2\n"
    code, manifest = run_quietly(tmp_path, text, "order-test", "--dt-list", "2e-2", "1e-2", "5e-3")
    assert code == 0
    assert [a["name"] for a in manifest["assertions"]] == ["splitting-second-order"]


def test_order_test_skips_a_free_wave(tmp_path):
    # with u = 0 the splitting is the exact free wave flow: the data move,
    # the errors sit at round-off, and no order can be measured
    data = "[data]\nphi = 0\npsi0 = sin(x)*sin(y)\npsi1 = 0\n[run]\nt = 0.02\n"
    code, manifest = run_quietly(tmp_path, GRID_8 + data, "order-test")
    assert code == 0 and manifest["reports"]["skipped"] is True


def test_order_test_measures_small_data(tmp_path):
    # amplitude 1e-4: every error is below 1e-11 but far above round-off
    # relative to the state, and falls at order 2
    data = "[data]\nphi = 1e-4*sin(x)*sin(y)\npsi0 = 1e-4*sin(x)*sin(y)\npsi1 = 0\n"
    code, manifest = run_quietly(tmp_path, GRID_8 + data, "order-test")
    assert code == 0
    reports = manifest["reports"]
    assert max(reports["errors"]) < 1e-11
    assert reports["mean_order"] == pytest.approx(2.0, abs=0.05)


def test_order_test_skips_an_exact_integrator(tmp_path, capsys):
    # zero data stay zero, so every error is 0 and no order can be measured
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n[data]\npreset = zero\n[run]\nt = 0.02\n")
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "order-test"]) == 0
    assert "e.g. zero data" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reports"]["skipped"] is True
    assert manifest["assertions"] == []
