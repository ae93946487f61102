"""The streamlined P² update gives bit-identical estimates.

:class:`repro.obs.live.P2Quantile` rewrote ``add`` for speed; serve
outputs pin its floats byte for byte, so on any int stream its markers
and estimates must equal the original loop's
(:mod:`tests.obs.p2_reference`) exactly, not approximately.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.obs.live import LatencySketch, P2Quantile
from tests.obs import p2_reference as reference

values = st.integers(-(10**6), 10**9)

#: Repeated runs of one value: the cell search's ties and flat markers.
plateaus = st.lists(
    st.tuples(st.integers(0, 2_000), st.integers(1, 80)), max_size=12
).map(lambda runs: [value for value, repeat in runs for _ in range(repeat)])

#: Monotone ramps, rising or falling: every value stretches an extreme.
ramps = st.tuples(
    st.integers(-1_000, 1_000),
    st.integers(0, 500),
    st.integers(0, 400),
    st.booleans(),
).map(
    lambda spec: [spec[0] + spec[1] * i for i in range(spec[2])][:: 1 if spec[3] else -1]
)

streams = st.one_of(
    st.lists(values, max_size=5),
    st.lists(values, max_size=400),
    st.lists(st.sampled_from([0, 1, 20, 30, 120, 100_300]), max_size=400),
    plateaus,
    ramps,
    st.tuples(plateaus, ramps, st.lists(values, max_size=50)).map(
        lambda parts: parts[0] + parts[1] + parts[2]
    ),
)


def bits(floats: list[float]) -> list[str]:
    """Exact bit patterns (``==`` would let -0.0 pass for 0.0)."""
    return [float(x).hex() for x in floats]


quantiles = st.one_of(
    st.sampled_from([0.5, 0.99, 0.999]),
    st.floats(0.001, 0.999, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(stream=streams, q=quantiles)
def test_p2_matches_reference_after_every_observation(stream, q):
    fast = P2Quantile(q)
    slow = reference.P2Quantile(q)
    for value in stream:
        fast.add(value)
        slow.add(value)
        assert fast.value().hex() == slow.value().hex()
    assert fast.count == slow.count
    assert bits(fast._heights) == bits(slow._heights)
    assert bits(fast._positions) == bits(slow._positions)


@settings(max_examples=300, deadline=None)
@given(stream=streams)
def test_latency_sketch_matches_reference(stream):
    fast = LatencySketch()
    slow = reference.LatencySketch()
    for value in stream:
        fast.add(value)
        slow.add(value)
    assert fast.as_dict() == slow.as_dict()
    assert repr(fast.as_dict()) == repr(slow.as_dict())


def test_short_streams_are_exact_nearest_rank():
    for stream in ([], [7], [9, 3], [5, 5, 1], [4, 1, 3, 2], [10, 50, 20, 40, 30]):
        for q in (0.5, 0.99, 0.999):
            fast = P2Quantile(q)
            slow = reference.P2Quantile(q)
            for value in stream:
                fast.add(value)
                slow.add(value)
            assert fast.value().hex() == slow.value().hex()
            if stream:
                assert fast.value() in stream
