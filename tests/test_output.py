import hashlib
import json
import math
import re

import numpy as np
import pytest

from conftest import random_field
from sibsim.dynamics import SystemParams, integrate, make_state
from sibsim.functionals import RunMonitor
from sibsim.grids import analyze, field_from_coef, make_grid
from sibsim.output import (
    checkpoint_name,
    file_checksums,
    load_checkpoint,
    save_checkpoint,
    write_manifest,
    write_series,
    write_table,
)


def random_state(seed: int = 0, N: int = 12, t: float = 0.375):
    g = make_grid(np.pi, 2.0, N, N)
    rng = np.random.default_rng(seed)
    return make_state(
        random_field(g, rng, kind="complex"),
        random_field(g, rng),
        random_field(g, rng),
        t,
    )


def small_record():
    g = make_grid(np.pi, np.pi, 8, 8)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    s = np.sin(X) * np.sin(Y)
    st = make_state(analyze(g, s.astype(complex)), analyze(g, s), analyze(g, 0 * s))
    monitor = RunMonitor.from_state(st)
    return integrate(st, 0.05, SystemParams(eps=1.0, dt=1e-2), monitor_stride=2, monitor=monitor)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    st = random_state()
    path = str(tmp_path / "state.bin")
    save_checkpoint(path, st)
    back = load_checkpoint(path)
    assert back.t == st.t
    assert back.grid.compatible(st.grid)
    assert np.array_equal(back.u.coef, st.u.coef)
    assert np.array_equal(back.v.coef, st.v.coef)
    assert np.array_equal(back.vt.coef, st.vt.coef)


def test_checkpoint_name_format():
    assert checkpoint_name(0.5) == "state_t0.5000.bin"
    assert checkpoint_name(0.05) == "state_t0.0500.bin"


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"this is not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("key", ["grid", "t"])
def test_checkpoint_rejects_header_without_a_key(tmp_path, key):
    # magic line and end marker present, one header line missing
    path = tmp_path / "state.bin"
    save_checkpoint(str(path), random_state())
    blob = path.read_bytes()
    start = blob.index(f"\n{key} ".encode()) + 1
    path.write_bytes(blob[:start] + blob[blob.index(b"\n", start) + 1 :])
    message = f"{path}: checkpoint header has no '{key}' line"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "key, line, reason",
    [
        ("grid", "grid 1 2 3", "not enough values to unpack"),
        ("grid", "grid 1 1 4.5 4", "invalid literal for int()"),
        ("t", "t abc", "could not convert string to float"),
    ],
)
def test_checkpoint_names_the_file_and_the_malformed_header_line(
    tmp_path, key, line, reason
):
    path = tmp_path / "state.bin"
    save_checkpoint(str(path), random_state())
    blob = path.read_bytes()
    start = blob.index(f"\n{key} ".encode()) + 1
    end = blob.index(b"\n", start)
    path.write_bytes(blob[:start] + line.encode() + blob[end:])
    rest = line.partition(" ")[2]
    message = (
        f"{path}: checkpoint header line '{key}' is malformed ({rest!r}): {reason}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(str(path))


def test_checkpoint_names_the_file_and_a_header_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "state.bin"
    save_checkpoint(str(path), random_state())
    blob = path.read_bytes()
    start = blob.index(b"\nt ") + 1
    end = blob.index(b"\n", start)
    path.write_bytes(blob[:start] + b"t \xff" + blob[end:])
    message = f"{path}: checkpoint header line b't \\xff' is not UTF-8"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncated_payload(tmp_path):
    st = random_state()
    path = tmp_path / "state.bin"
    save_checkpoint(str(path), st)
    blob = path.read_bytes()
    path.write_bytes(blob[:-17])
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_series_rewrite_is_byte_identical(tmp_path):
    rec = small_record()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_series(str(a), rec)
    write_series(str(b), rec)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    assert header.split(",")[1] == "charge"


def test_series_from_repeated_integration_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_series(str(a), small_record())
    write_series(str(b), small_record())
    assert a.read_bytes() == b.read_bytes()


def test_written_values_round_trip_float64(tmp_path):
    values = [math.pi, 1.0 / 3.0, 1e-300, 2.0**-52, -17.25]
    path = tmp_path / "t.csv"
    write_table(str(path), ("x",), [(v,) for v in values])
    lines = path.read_text().splitlines()[1:]
    assert [float(s) for s in lines] == values


def test_nan_written_as_empty_cell(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ("a", "b"), [(1.0, math.nan)])
    assert path.read_text().splitlines()[1] == "1,"


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    payload = {"b": 1, "a": {"nested": [1.5, 2.5]}}
    write_manifest(str(path), payload)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == payload
    # keys sorted for reproducible bytes
    assert text.index('"a"') < text.index('"b"')


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_manifest_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "manifest.json"
    payload = {"a": math.nan, "b": [math.inf, -math.inf, 1.5], "c": {"d": np.float64("nan")}}
    write_manifest(str(path), payload)
    assert _strict_json(path.read_text()) == {"a": None, "b": [None, None, 1.5], "c": {"d": None}}


def test_file_checksums(tmp_path):
    blob = b"some artifact bytes"
    (tmp_path / "art.bin").write_bytes(blob)
    table = file_checksums(str(tmp_path), ["art.bin"])
    assert table["art.bin"]["bytes"] == len(blob)
    assert table["art.bin"]["sha256"] == hashlib.sha256(blob).hexdigest()
