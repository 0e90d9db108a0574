"""Property tests: the config parser turns every bad input into ValueError,
analysis and synthesis invert each other on any grid, and checkpoints
round-trip bit for bit."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sibsim.config import _KNOWN_KEYS, parse_config_text
from sibsim.dynamics import make_state
from sibsim.grids import analyze, coef_to_values, field_from_coef, make_grid
from sibsim.output import load_checkpoint, save_checkpoint

# bounded so that tier-1 stays fast; deadline off because the first call of
# a grid size builds its transform matrices
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

# pieces of the scalar expression language, so that generated values are
# often well-formed enough to reach the evaluator and the range checks
_TOKENS = (
    "pi", "e", "x", "y", "sin", "(", ")", "+", "-", "*", "/", "**", "0", "1",
    "2.5", "1e308", "1e-320", "nan", "inf", "%", "%(", ")s", " ", "\n ", "#",
    "true", "no", "standard", "zero", "1 1 1.0",
)
_values = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
    st.integers().map(str),
    st.floats().map(repr),
    st.integers(min_value=1, max_value=3000).map(lambda n: "-" * n + "1"),
    st.integers(min_value=1, max_value=3000).map(lambda n: "+".join(["1"] * n)),
)
_sections = ("grid", "data", "run", "sweep")
_entries = st.lists(
    st.sampled_from(_sections).flatmap(
        lambda sec: st.tuples(
            st.just(sec), st.sampled_from(sorted(_KNOWN_KEYS[sec])), _values
        )
    ),
    max_size=6,
)


# any finite float, and often one above 1 with a fraction, which a
# truncating reader would accept
_n_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.floats(min_value=1.0, max_value=1e3)
)


@PROPERTY_SETTINGS
@given(st.lists(_n_values, min_size=1, max_size=4))
def test_n_list_is_read_exactly_or_rejected(values):
    text = "[sweep]\nn_list = " + " ".join(repr(x) for x in values) + "\n"
    if all(x.is_integer() and x >= 1 for x in values):
        assert parse_config_text(text).n_list == tuple(int(x) for x in values)
    else:
        with pytest.raises(ValueError):
            parse_config_text(text)


def _parse_or_reject(text: str) -> None:
    try:
        parse_config_text(text)
    except ValueError:
        pass


@PROPERTY_SETTINGS
@given(st.text(max_size=200))
def test_parse_config_text_rejects_arbitrary_text_with_value_error(text):
    _parse_or_reject(text)


@PROPERTY_SETTINGS
@given(_entries)
def test_parse_config_text_rejects_bad_values_with_value_error(entries):
    lines = []
    for sec, key, value in entries:
        lines += [f"[{sec}]", f"{key} = {value}"]
    _parse_or_reject("\n".join(lines) + "\n")


_shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))
_lengths = st.floats(min_value=1e-3, max_value=1e3)
_elements = st.floats(min_value=-1e6, max_value=1e6)


def _samples(shape, complex_kind):
    real = arrays(np.float64, shape, elements=_elements)
    if not complex_kind:
        return real
    return st.tuples(real, real).map(lambda ri: ri[0] + 1j * ri[1])


@PROPERTY_SETTINGS
@given(st.data(), _shapes, _lengths, _lengths, st.booleans())
def test_analyze_synthesize_round_trip(data, shape, lx, ly, complex_kind):
    grid = make_grid(lx, ly, *shape)
    samples = data.draw(_samples(shape, complex_kind))
    scale = max(1.0, float(np.max(np.abs(samples))))

    back = coef_to_values(grid, analyze(grid, samples).coef)
    assert back.dtype == samples.dtype
    assert np.max(np.abs(back - samples)) <= 1e-12 * scale

    coef = data.draw(_samples(shape, complex_kind))
    again = analyze(grid, coef_to_values(grid, coef)).coef
    assert np.max(np.abs(again - coef)) <= 1e-12 * max(1.0, float(np.max(np.abs(coef))))


@PROPERTY_SETTINGS
@given(st.data(), _shapes, _lengths, _lengths, st.floats(allow_nan=False), st.booleans())
def test_checkpoint_round_trip_is_bit_exact(data, shape, lx, ly, t, complex_kind):
    # any float64 payload, NaN and infinities included, on any rectangle
    grid = make_grid(lx, ly, *shape)
    real = arrays(np.float64, shape)
    u = data.draw(real)
    if complex_kind:
        u = u.astype(np.complex128)
        u.imag = data.draw(real)
    v, vt = data.draw(real), data.draw(real)
    state = make_state(*(field_from_coef(grid, c) for c in (u, v, vt)), t)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.bin")
        save_checkpoint(path, state)
        back = load_checkpoint(path)
    assert (back.grid.Lx, back.grid.Ly, back.grid.shape) == (grid.Lx, grid.Ly, grid.shape)
    assert back.t == state.t and np.copysign(1.0, back.t) == np.copysign(1.0, state.t)
    for name in ("u", "v", "vt"):
        old, new = getattr(state, name).coef, getattr(back, name).coef
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
