"""Property test for the histogram wire form.

Histograms cross the stats surface as JSON-safe dicts; Hypothesis
searches for observation sets whose round trip through that form loses
a count or the sum.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import LatencyHistogram

#: Durations spanning every default bucket plus the overflow bucket.
durations = st.floats(
    min_value=0.0,
    max_value=10.0,
    allow_nan=False,
    allow_infinity=False,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(durations, max_size=40))
def test_wire_round_trip_is_lossless(values):
    histogram = LatencyHistogram()
    for value in values:
        histogram.observe(value)
    back = LatencyHistogram.from_wire(histogram.to_wire())
    assert back == histogram
