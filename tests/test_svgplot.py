"""Axes of the SVG line plots."""

import math

import pytest
from hypothesis import assume, example, given, strategies as st

from levosc.svgplot import Series, _tick_values, line_plot_svg


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=2**62))
@example(0.019, 1)
@example(0.0, 1)
def test_linear_ticks_are_few_and_rising_whatever_the_span(lo, ulps):
    # a span of a few ulps once gave a step under half an ulp, so the
    # tick loop never ended; a few subnormals gave a step of 0
    hi = lo + ulps * math.ulp(lo)
    assume(math.isfinite(hi - lo))
    ticks = _tick_values(lo, hi, False)
    assert len(ticks) <= 8
    assert all(math.isfinite(t) for t in ticks)
    assert all(a < b for a, b in zip(ticks, ticks[1:]))


@pytest.mark.parametrize("x", [-0.005, 0.0, 0.005])
def test_one_point_sits_mid_axis(x):
    # one negative value once gave a reversed axis, whose ticks raised a
    # math domain error
    svg = line_plot_svg([Series([x], [1e-8])], "x", "y", log_y=True)
    assert 'points="388.00,' in svg
