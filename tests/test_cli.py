"""End-to-end command tests: exit codes, artifacts, and determinism."""

import csv
import inspect
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace

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
    # itself would be zero, and their relative errors would divide by zero
    cfg = write(tmp_path, GRID_8 + "lx = 1e-150\nly = 1e-150\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "check"]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert all(line.startswith(("[PASS] ", "[FAIL] ")) for line in lines)


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


def corrupt_kernels(monkeypatch, corrupt):
    """Let corrupt(kernels, params, dt) edit every _Kernels after it is built."""
    original = dynamics._Kernels.__init__

    def corrupted(self, grid, params, dt):
        original(self, grid, params, dt)
        corrupt(self, params, dt)

    monkeypatch.setattr(dynamics._Kernels, "__init__", corrupted)


def table(name, change, n=None):
    """A patch that replaces the table `name` of every _Kernels that has it,
    or only of those with Yosida index n, by change(a copy of it)."""

    def corrupt(ker, params, dt):
        if getattr(ker, name, None) is not None and n in (None, params.yosida_n):
            setattr(ker, name, change(getattr(ker, name).copy()))

    return lambda monkeypatch: corrupt_kernels(monkeypatch, corrupt)


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
    # a Yosida symbol above 1 in the kernel the stepper builds must fail the
    # suite: check evaluates that kernel, not a copy of its formulas
    table("jsym", set_entry((0, 0), 1.5))(monkeypatch)
    code, manifest = run_quietly(tmp_path, GRID_8, "check")
    assert code == 1 and manifest["status"] == "assertion-failure"
    verdicts = {a["name"]: a["passed"] for a in manifest["assertions"]}
    assert verdicts["yosida-symbol-contraction"] is False


def test_check_covers_every_n_it_names(tmp_path, monkeypatch):
    # the symbol inequalities hold "for n in {1..1024}": a Yosida symbol
    # above 1 at n = 3 alone, which no power of two reaches, fails them
    table("jsym", set_entry((0, 0), 1.5), n=3)(monkeypatch)
    code, manifest = run_quietly(tmp_path, GRID_8, "check")
    assert code == 1
    contraction = next(
        a for a in manifest["assertions"] if a["name"] == "yosida-symbol-contraction"
    )
    assert contraction["passed"] is False
    assert "n in {1..1024}" in contraction["detail"]


def test_check_certifies_the_half_step_sine_symbol(tmp_path, monkeypatch):
    # wave_half also multiplies by wsin_half; a 1e-12 relative error in one
    # of its entries must fail the wave kernel's identities, and only them
    def off_in_one_entry(ker, params, dt):
        if dt:
            k = np.unravel_index(np.argmax(ker.wsin_half * ker.sinc_half), ker.w.shape)
            ker.wsin_half[k] *= 1.0 + 1e-12

    corrupt_kernels(monkeypatch, off_in_one_entry)
    code, manifest = run_quietly(tmp_path, GRID_8, "check")
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert code == 1 and failed == ["wave-kernel-first-integral"]


def test_check_certifies_the_stored_c0(tmp_path, monkeypatch):
    # a stored C0 above the fresh reference-grid estimate must fail its
    # assertion, and only that one
    monkeypatch.setattr(functionals, "REFERENCE_C0", 0.42)
    code, manifest = run_quietly(tmp_path, GRID_8, "check")
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert code == 1 and failed == ["stored-c0-certified"]
    assert len(manifest["assertions"]) == 15


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


def growing_charge(sweep):
    """The assertions of sweep on 8^2 to t = 0.02 with a charge that grows
    like 1 + t."""

    def case(monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "charge", lambda st: functionals.charge(st) * (1 + st.t))
        return sweep(RunConfig(nx=8, ny=8, dt=1e-2, T=0.02))[-1]

    return case


def symbol_fault(patch):
    """_symbol_assertions on 8^2 after patch(monkeypatch)."""

    def case(monkeypatch, tmp_path):
        patch(monkeypatch)
        return experiments._symbol_assertions(sibsim.make_grid(np.pi, np.pi, 8, 8))

    return case


def command_fault(command, patch):
    """The assertions `command` writes to its manifest after patch(monkeypatch)."""

    def case(monkeypatch, tmp_path):
        patch(monkeypatch)
        manifest = run_quietly(tmp_path, GRID_8, command)[1]
        return [experiments.Assertion(**a) for a in manifest["assertions"]]

    return case


def transform_fault(patch):
    """_transform_assertions on 8^2 after patch(monkeypatch)."""

    def case(monkeypatch, tmp_path):
        patch(monkeypatch)
        return experiments._transform_assertions(sibsim.make_grid(np.pi, np.pi, 8, 8))

    return case


def scaled(name, factor):
    """A patch that scales every result of the grids transform `name`."""

    def patch(monkeypatch):
        transform = getattr(sibsim.grids, name)
        monkeypatch.setattr(sibsim.grids, name, lambda *args: transform(*args) * factor)

    return patch


def non_isometric(monkeypatch):
    # synthesis doubled and analysis halved still invert each other
    scaled("_synthesis", 2.0)(monkeypatch)
    scaled("_analysis", 0.5)(monkeypatch)


def lifted_norm_off(monkeypatch):
    monkeypatch.setattr(experiments, "h1_norm", lambda f: sibsim.grids.h1_norm(f) * (1 + 1e-9))


def unconverged_estimator(monkeypatch):
    monkeypatch.setattr(
        experiments, "estimate_gn_constant", lambda grid: functionals.estimate_gn_constant(grid, 1)
    )


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
    ("yosida-symbol-contraction", symbol_fault(table("jsym", set_entry((0, 0), 1.5)))),
    # the top mode unregularized: sqrt(lam_max) = sqrt(128) exceeds sqrt(n) for n < 128
    ("yosida-symbol-sqrt-gain", symbol_fault(table("jsym", set_entry((-1, -1), 1.0)))),
    ("yosida-symbol-sqrt-bound", symbol_fault(table("jsym", set_entry((2, 3), 1 + 1e-15), n=7))),
    ("yosida-symbol-full-bound", symbol_fault(table("jsym", lambda j: j * 1.01, n=1024))),
    ("yosida-convergence-monotone", symbol_fault(table("jsym", np.zeros_like, n=2))),
    ("yosida-convergence-band-bound", symbol_fault(table("jsym", np.zeros_like, n=1024))),
    # 4096 is the suite's "small" n on 8^2
    ("yosida-convergence-small", symbol_fault(table("jsym", lambda j: j * 0.99, n=4096))),
    ("schrodinger-unitarity", symbol_fault(table("phase_half", lambda u: u * (1 + 1e-9)))),
    ("propagator-group-identity", symbol_fault(table("phase_half", lambda u: u * np.exp(1e-9j)))),
    ("wave-kernel-first-integral", symbol_fault(table("cos_half", lambda c: c * (1 + 1e-12)))),
    ("source-symbol-consistency", symbol_fault(table("w2", lambda w2: w2 * (1 + 1e-12)))),
    ("lifted-inverse-norm-identity", symbol_fault(lifted_norm_off)),
    ("transform-inverse", transform_fault(scaled("_analysis", 1 + 1e-9))),
    ("transform-parseval", transform_fault(non_isometric)),
    (
        "stored-c0-certified",
        command_fault("check", lambda mp: mp.setattr(functionals, "REFERENCE_C0", 0.42)),
    ),
    ("estimator-converged", command_fault("estimate-c0", unconverged_estimator)),
]


@pytest.mark.parametrize("name, fault", FAULTS, ids=[name for name, _ in FAULTS])
def test_every_assertion_fails_on_its_fault(monkeypatch, tmp_path, name, fault):
    verdicts = {a.name: a for a in fault(monkeypatch, tmp_path)}
    assert verdicts[name].passed is False, verdicts[name].line()


@pytest.mark.parametrize("sweep", [experiments._eps_sweep, experiments._n_sweep], ids=["eps", "n"])
def test_each_sweep_reports_every_runs_charge_drift(sweep):
    reports = sweep(RunConfig(nx=8, ny=8, dt=1e-2, T=0.02))[-2]
    members = reports["eps"] if sweep is experiments._eps_sweep else reports["n"]
    assert len(reports["charge_drift"]) == len(members)
    assert max(reports["reference_charge_drift"], *reports["charge_drift"]) <= 1e-10


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


def test_order_test_skips_an_exact_integrator(tmp_path, capsys):
    # zero data stay zero, so every error is 0 and no order can be measured
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n[data]\npreset = zero\n[run]\nt = 0.02\n")
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "order-test"]) == 0
    assert "e.g. zero data" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reports"]["skipped"] is True
    assert manifest["assertions"] == []
