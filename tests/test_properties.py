"""Property tests: the config parser turns every bad input into ValueError,
and analysis and synthesis invert each other on any grid."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sibsim.config import _KNOWN_KEYS, parse_config_text
from sibsim.grids import analyze, field_from_coef, make_grid, synthesize

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
_sections = ("grid", "data", "run")
_entries = st.lists(
    st.sampled_from(_sections).flatmap(
        lambda sec: st.tuples(
            st.just(sec), st.sampled_from(sorted(_KNOWN_KEYS[sec])), _values
        )
    ),
    max_size=6,
)


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

    back = synthesize(analyze(grid, samples))
    assert back.dtype == samples.dtype
    assert np.max(np.abs(back - samples)) <= 1e-12 * scale

    coef = data.draw(_samples(shape, complex_kind))
    again = analyze(grid, synthesize(field_from_coef(grid, coef))).coef
    assert np.max(np.abs(again - coef)) <= 1e-12 * max(1.0, float(np.max(np.abs(coef))))
