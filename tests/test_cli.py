"""End-to-end command tests: exit codes, artifacts, and determinism."""

import csv
import inspect
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import sibsim
from sibsim import dynamics, experiments, functionals
from sibsim.cli import main
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
    cfg = write(tmp_path, f"[grid]\nlx = {expr}\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sibsim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sibsim.cli", "--config", cfg, "--out", str(tmp_path / "o"), "run"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid configuration: ")
    assert len(proc.stderr.splitlines()) == 1


def test_data_norm_past_the_float_range_leaves_one_stderr_line(tmp_path):
    # |c|^2 = 1e310 overflows; numpy prints its RuntimeWarning straight to
    # stderr outside pytest, so the command runs in a process of its own
    cfg = write(tmp_path, "[data]\nphi_modes = 1 1 1e155\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sibsim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sibsim.cli", "--config", cfg, "--out", str(tmp_path / "o"), "run"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "invalid configuration: data norm l2_phi must be finite and nonnegative\n"


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


def test_cli_import_leaves_scipy_fft_unloaded():
    # dstn serves only grids above grids.DENSE_MAX_EDGE nodes per axis
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sibsim.__file__)))
    code = "import sys, sibsim.cli; print([m for m in sys.modules if m.startswith('scipy.fft')])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n[run]\ndt = 1e-2\nt = 0.02\n[sweep]\nn_list = 4 8\n")
    out = tmp_path / "o"
    argv = ["--config", cfg, "--out", str(out), "--quiet", "sweep-n", "--n-list", "2", "4", "8"]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
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


def test_blowup_exits_3(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "[grid]\nnx = 8\nny = 8\n"
        "[data]\nphi_modes = 1 1 3000\npsi0 = 0\npsi1 = 0\n"
        "[run]\ndt = 1e-3\nt = 0.01\nmonitor_stride = 1\n",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["--config", cfg, "--out", str(tmp_path / "o"), "run"])
    assert code == 3
    # the CLI prints the abort on stderr for every command; run also
    # records it in its manifest
    assert "numerical abort" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "numerical-abort"
    assert manifest["last_finite_t"] == 0.0


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
    cfg = write(tmp_path, YOSIDA_LONG_STEP.format(amp=2000))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "run"])
    assert code == 0
    with open(tmp_path / "o" / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["t"]) == pytest.approx(0.1)
    charge = np.array([float(row["charge"]) for row in rows])
    assert np.max(np.abs(charge - charge[0])) / charge[0] <= 1e-10


def test_divergent_yosida_potential_flow_exits_3(tmp_path, capsys):
    # a step far too long for this potential: dt * max|J v| is about 6e3,
    # beyond the flow's substep budget, and the run stops instead of
    # spending that many substeps on one step
    cfg = write(tmp_path, YOSIDA_LONG_STEP.format(amp="2e5"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "run"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("numerical abort") == 1
    assert "potential flow" in captured.err and "beta = " in captured.err
    assert f"budget of {dynamics._MAX_SUBSTEPS}" in captured.err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "numerical-abort"
    assert manifest["files"] == {}
    assert "last_finite_t" not in manifest


def test_check_suite_passes_and_fault_injection_fails(tmp_path):
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n")
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, "--quiet", "check"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert all(a["passed"] for a in manifest["assertions"])

    assert main(["--config", cfg, "--out", out, "--quiet", "check", "--inject-fault", "yosida"]) == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "assertion-failure"
    assert any(not a["passed"] for a in manifest["assertions"])


def test_check_certifies_the_stepping_kernel(tmp_path, monkeypatch):
    # a Yosida symbol above 1 in the kernel the stepper builds must fail the
    # suite: check evaluates that kernel, not a copy of its formulas
    original = dynamics._Kernels.__init__

    def corrupted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.jsym is not None:
            self.jsym = self.jsym.copy()
            self.jsym[0, 0] = 1.5

    monkeypatch.setattr(dynamics._Kernels, "__init__", corrupted)
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "check"]) == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    verdicts = {a["name"]: a["passed"] for a in manifest["assertions"]}
    assert verdicts["yosida-symbol-contraction"] is False


def test_check_covers_every_n_it_names(tmp_path, monkeypatch):
    # the symbol inequalities hold "for n in {1..1024}": a Yosida symbol
    # above 1 at n = 3 alone, which no power of two reaches, fails them
    original = dynamics._Kernels.__init__

    def corrupted(self, grid, params, dt):
        original(self, grid, params, dt)
        if params.yosida_n == 3:
            self.jsym = self.jsym.copy()
            self.jsym[0, 0] = 1.5

    monkeypatch.setattr(dynamics._Kernels, "__init__", corrupted)
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "check"]) == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    contraction = next(
        a for a in manifest["assertions"] if a["name"] == "yosida-symbol-contraction"
    )
    assert contraction["passed"] is False
    assert "n in {1..1024}" in contraction["detail"]


def test_check_certifies_the_half_step_sine_symbol(tmp_path, monkeypatch):
    # wave_half also multiplies by wsin_half; a 1e-12 relative error in one
    # of its entries must fail the wave kernel's identities, and only them
    original = dynamics._Kernels.__init__

    def corrupted(self, grid, params, dt):
        original(self, grid, params, dt)
        if dt:
            k = np.unravel_index(np.argmax(self.wsin_half * self.sinc_half), grid.shape)
            self.wsin_half[k] *= 1.0 + 1e-12

    monkeypatch.setattr(dynamics._Kernels, "__init__", corrupted)
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "check"]) == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert failed == ["wave-kernel-first-integral"]


def test_check_certifies_the_stored_c0(tmp_path, monkeypatch):
    # a stored C0 above the fresh reference-grid estimate must fail its
    # assertion, and only that one
    monkeypatch.setattr(functionals, "REFERENCE_C0", 0.42)
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "check"]) == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert failed == ["stored-c0-certified"]
    assert len(manifest["assertions"]) == 13


def test_run_uses_the_stored_c0_without_estimating(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a run must not estimate C0")

    functionals.default_gn_constant.cache_clear()
    monkeypatch.setattr(functionals, "estimate_gn_constant", refuse)
    cfg = write(tmp_path, SMALL_RUN)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "run"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
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
    cfg = write(
        tmp_path,
        "[grid]\nnx = 8\nny = 8\n[run]\ndt = 1e-2\nt = 0.1\nmonitor_stride = 5\n",
    )
    out = tmp_path / "o"
    assert (
        main(
            ["--config", cfg, "--out", str(out), "--quiet", "sweep-eps", "--eps-list", "1", "0.5"]
        )
        == 0
    )
    rows = (out / "eps_sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,sup_metric,fitted_slope"
    sups = [float(r.split(",")[1]) for r in rows[1:]]
    assert sups[0] > sups[1] > 0.0


def test_sweep_eps_self_comparison_is_zero(tmp_path):
    cfg = write(
        tmp_path,
        "[grid]\nnx = 8\nny = 8\n[run]\ndt = 1e-2\nt = 0.05\n",
    )
    out = tmp_path / "o"
    assert (
        main(["--config", cfg, "--out", str(out), "--quiet", "sweep-eps", "--eps-list", "0.1", "0"])
        == 0
    )
    rows = (out / "eps_sweep.csv").read_text().splitlines()
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
    cfg = write(
        tmp_path,
        "[grid]\nnx = 8\nny = 8\n[run]\ndt = 1e-2\nt = 0.1\nmonitor_stride = 5\n",
    )
    out = tmp_path / "o"
    assert (
        main(
            ["--config", cfg, "--out", str(out), "--quiet", "sweep-n", "--n-list", "4", "8", "16"]
        )
        == 0
    )
    rows = (out / "n_sweep.csv").read_text().splitlines()
    assert rows[0] == "n,diff_consecutive,dist_unregularized"
    dists = [float(r.split(",")[2]) for r in rows[1:]]
    assert dists[0] > dists[-1] > 0.0
    # the unregularized reference and three members
    assert asked == [()] * 4


def test_order_test_small_case(tmp_path):
    cfg = write(
        tmp_path,
        "[grid]\nnx = 8\nny = 8\n[run]\nt = 0.2\n",
    )
    out = tmp_path / "o"
    code = main(
        [
            "--config", cfg, "--out", str(out), "--quiet",
            "order-test", "--dt-list", "2e-2", "1e-2", "5e-3",
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reports"]["mean_order"] > 1.9


def test_order_test_skips_an_exact_integrator(tmp_path, capsys):
    # zero data stay zero, so every error is 0 and no order can be measured
    cfg = write(tmp_path, "[grid]\nnx = 8\nny = 8\n[data]\npreset = zero\n[run]\nt = 0.02\n")
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "order-test"]) == 0
    assert "e.g. zero data" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reports"]["skipped"] is True
    assert manifest["assertions"] == []
