"""The tail estimator and the nested-span self-time arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import harness
import spans
from harness import tail, tail_rank


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, (100.0, 0)),
        (10, (100.0, 9)),
        (20, (50.0, 9)),
        (99, (50.0, 49)),
        (100, (90.0, 89)),
        (199, (90.0, 179)),
        (200, (95.0, 189)),
        (1000, (99.0, 989)),
        (2000, (99.5, 1989)),
        (10_000, (99.9, 9989)),
    ],
)
def test_tail_rank_leaves_ten_ops_beyond(n, expected):
    pct, rank = tail_rank(n)
    assert (pct, rank) == expected
    if pct < 100.0:
        assert n - 1 - rank >= harness.TAIL_BEYOND


def test_tail_rank_takes_the_highest_qualifying_percentile():
    for n in range(1, 3000, 7):
        pct, rank = tail_rank(n)
        higher = [p for p in harness.TAIL_LADDER if p > pct]
        for p in higher:
            next_rank = max(0, math.ceil(Fraction(str(p)) * n / 100) - 1)
            assert n - 1 - next_rank < harness.TAIL_BEYOND


def test_tail_reads_the_sorted_value():
    values = [float(v) for v in range(100, 0, -1)]
    assert tail(values) == (90.0, 90.0)


def test_tail_rank_rejects_no_ops():
    with pytest.raises(ValueError):
        tail_rank(0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    return clock


def test_self_time_is_span_minus_child_spans(fake_clock):
    clock = spans.SpanClock()

    def inner():
        fake_clock.advance(2.0)

    def outer():
        fake_clock.advance(1.0)
        wrapped_inner()
        fake_clock.advance(3.0)
        wrapped_inner()

    wrapped_inner = clock.wrap("inner", inner)
    wrapped_outer = clock.wrap("outer", outer)

    def body():
        fake_clock.advance(0.5)
        wrapped_outer()

    _, elapsed = clock.measure(body)
    assert elapsed == 8.5
    assert clock.self_s["outer"] == 4.0
    assert clock.self_s["inner"] == 4.0
    assert clock.self_s["unattributed"] == 0.5
    assert clock.calls == {"outer": 1, "inner": 2}
    assert sum(clock.self_s.values()) == elapsed


def test_recursive_spans_of_one_layer_count_once(fake_clock):
    clock = spans.SpanClock()

    def walk(depth):
        fake_clock.advance(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = clock.wrap("walk", walk)
    _, elapsed = clock.measure(lambda: wrapped(3))
    assert clock.self_s["walk"] == 4.0 == elapsed
    assert clock.calls["walk"] == 4


def test_generator_span_covers_resumptions_not_the_consumer(fake_clock):
    clock = spans.SpanClock()

    def produce():
        for item in range(3):
            fake_clock.advance(1.0)
            yield item

    wrapped = clock.wrap("gen", produce)

    def consume():
        seen = []
        for item in wrapped():
            fake_clock.advance(10.0)
            seen.append(item)
        return seen

    seen, elapsed = clock.measure(consume)
    assert seen == [0, 1, 2]
    assert clock.self_s["gen"] == 3.0
    assert clock.self_s["unattributed"] == 30.0
    assert clock.calls["gen"] == 1
    assert elapsed == 33.0


def test_a_raising_span_is_still_closed(fake_clock):
    clock = spans.SpanClock()

    def fails():
        fake_clock.advance(1.0)
        raise KeyError("x")

    wrapped = clock.wrap("fails", fails)

    def body():
        with pytest.raises(KeyError):
            wrapped()
        fake_clock.advance(2.0)

    _, elapsed = clock.measure(body)
    assert clock.self_s["fails"] == 1.0
    assert clock.self_s["unattributed"] == 2.0
    assert elapsed == 3.0


def test_compare_verdicts():
    import compare

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1) == (1.0, "gain")
    assert compare.verdict(base, faster, "higher", 0.1) == (0.0, "worse")
    assert compare.verdict(base, list(base), "lower", 0.1) == (0.0, "same")
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[1] == "unresolved"
