"""Property tests for histogram merge algebra (ISSUE 5 satellite 1).

The sharded engine merges shard snapshots; that merge is only correct,
whatever the shard order, if histogram merge is associative and
commutative and preserves total count and sum under *any* partition
of the observations across shards.  Hypothesis searches for observation
sets and shard splits that break those laws.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import LatencyHistogram, merge_snapshots, merge_wire

#: Durations spanning every default bucket plus the overflow bucket.
durations = st.floats(
    min_value=0.0,
    max_value=10.0,
    allow_nan=False,
    allow_infinity=False,
)


def histogram_of(values):
    histogram = LatencyHistogram()
    for value in values:
        histogram.observe(value)
    return histogram


@st.composite
def observation_sets(draw, max_sets=4):
    """A list of per-shard observation lists (some possibly empty)."""
    n_sets = draw(st.integers(min_value=2, max_value=max_sets))
    return [
        draw(st.lists(durations, max_size=30)) for _ in range(n_sets)
    ]


@settings(max_examples=60, deadline=None)
@given(observation_sets(max_sets=2))
def test_merge_is_commutative(sets):
    a, b = histogram_of(sets[0]), histogram_of(sets[1])
    ab, ba = a + b, b + a
    assert ab.counts == ba.counts
    assert ab.sum == ba.sum  # float addition of two terms commutes exactly


@settings(max_examples=60, deadline=None)
@given(observation_sets(max_sets=3))
def test_merge_is_associative(sets):
    while len(sets) < 3:
        sets.append([])
    a, b, c = (histogram_of(values) for values in sets[:3])
    left = (a + b) + c
    right = a + (b + c)
    # Counts are integers: exact associativity.
    assert left.counts == right.counts
    # Sums are float: associative up to rounding.
    assert abs(left.sum - right.sum) <= 1e-9 * max(1.0, abs(left.sum))


@settings(max_examples=60, deadline=None)
@given(st.lists(durations, max_size=60), st.data())
def test_count_and_sum_preserved_across_arbitrary_splits(values, data):
    """Any partition of the observations across shards merges back to
    the single-histogram totals: no observation is lost or duplicated."""
    n_shards = data.draw(st.integers(min_value=1, max_value=5))
    assignment = [
        data.draw(st.integers(min_value=0, max_value=n_shards - 1))
        for _ in values
    ]
    shards = [LatencyHistogram() for _ in range(n_shards)]
    for value, shard in zip(values, assignment):
        shards[shard].observe(value)

    merged = LatencyHistogram()
    for shard in shards:
        merged.merge(shard)

    reference = histogram_of(values)
    assert merged.counts == reference.counts
    assert merged.count == len(values)
    assert abs(merged.sum - reference.sum) <= 1e-9 * max(
        1.0, abs(reference.sum)
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(durations, max_size=40))
def test_wire_round_trip_is_lossless(values):
    histogram = histogram_of(values)
    back = LatencyHistogram.from_wire(histogram.to_wire())
    assert back == histogram


@settings(max_examples=40, deadline=None)
@given(observation_sets(max_sets=3))
def test_merge_wire_matches_object_merge(sets):
    histograms = [histogram_of(values) for values in sets]
    wire = histograms[0].to_wire()
    for histogram in histograms[1:]:
        wire = merge_wire(wire, histogram.to_wire())
    reference = LatencyHistogram()
    for histogram in histograms:
        reference.merge(histogram)
    assert LatencyHistogram.from_wire(wire).counts == reference.counts


@settings(max_examples=40, deadline=None)
@given(observation_sets(max_sets=4), st.randoms(use_true_random=False))
def test_snapshot_merge_is_order_insensitive(sets, rng):
    """merge_snapshots gives one aggregate regardless of shard order."""
    snapshots = []
    for index, values in enumerate(sets):
        histogram = histogram_of(values)
        snapshots.append(
            {
                "stages": {"individual_filter": histogram.to_wire()},
                "spans": {
                    "started": len(values),
                    "finished": len(values),
                    "aborted": 0,
                    "sampled": 0,
                },
            }
        )
    merged = merge_snapshots(snapshots)
    shuffled = list(snapshots)
    rng.shuffle(shuffled)
    remerged = merge_snapshots(shuffled)
    assert merged["spans"] == remerged["spans"]
    assert (
        merged["stages"]["individual_filter"]["counts"]
        == remerged["stages"]["individual_filter"]["counts"]
    )
    assert merged["spans"]["finished"] == sum(
        len(values) for values in sets
    )
