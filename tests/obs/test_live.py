"""Unit tests for the streaming serve-mode collectors."""

from __future__ import annotations

import random

import pytest

from repro.obs.live import (
    LatencySketch,
    LiveCollector,
    P2Quantile,
    WindowedCounter,
)


class TestP2Quantile:
    def test_exact_for_small_samples(self):
        sketch = P2Quantile(0.5)
        for value in (10, 30, 20):
            sketch.add(value)
        assert sketch.value() == 20

    def test_tracks_the_median_of_a_uniform_stream(self):
        rng = random.Random(7)
        values = [rng.uniform(0, 1000) for _ in range(5000)]
        sketch = P2Quantile(0.5)
        for value in values:
            sketch.add(value)
        exact = sorted(values)[2500]
        assert sketch.value() == pytest.approx(exact, rel=0.05)

    def test_tracks_the_p99_of_a_uniform_stream(self):
        rng = random.Random(11)
        values = [rng.uniform(0, 1000) for _ in range(5000)]
        sketch = P2Quantile(0.99)
        for value in values:
            sketch.add(value)
        exact = sorted(values)[int(0.99 * 5000)]
        assert sketch.value() == pytest.approx(exact, rel=0.05)

    def test_deterministic_for_a_fixed_sequence(self):
        def run():
            sketch = P2Quantile(0.99)
            for i in range(1000):
                sketch.add((i * 37) % 101)
            return sketch.value()

        assert run() == run()

    def test_rejects_degenerate_quantiles(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestP2QuantileEdges:
    """Boundary behavior of the P² estimator on degenerate streams."""

    def test_exact_nearest_rank_while_count_at_most_five(self):
        # Up to five observations the estimator holds the raw sample,
        # so value() must be the exact nearest-rank quantile for every
        # prefix of the stream.
        for q in (0.5, 0.9, 0.99):
            for n in range(1, 6):
                values = [((i * 13) % 7) * 10.0 for i in range(n)]
                sketch = P2Quantile(q)
                for value in values:
                    sketch.add(value)
                ordered = sorted(values)
                rank = max(0, min(n - 1, round(q * (n - 1))))
                assert sketch.value() == ordered[rank]

    def test_duplicate_heavy_stream_lands_on_the_plateau(self):
        # 90% of the stream is one value: the median markers collapse
        # onto the plateau (up to parabolic-adjustment float noise).
        rng = random.Random(3)
        values = [
            100.0 if rng.random() < 0.9 else rng.uniform(0, 1000)
            for _ in range(4000)
        ]
        sketch = P2Quantile(0.5)
        for value in values:
            sketch.add(value)
        assert sketch.value() == pytest.approx(100.0, abs=1e-3)

    def test_all_identical_observations_are_exact(self):
        sketch = P2Quantile(0.99)
        for _ in range(1000):
            sketch.add(42)
        assert sketch.value() == 42.0

    def test_monotone_ramps_stay_near_exact(self):
        # Sorted input is the adversarial case for marker-based
        # estimators (every observation lands in the top cell); P²
        # still tracks within 1%.  A descending ramp exercises the
        # bottom cell the same way.
        n = 10_000
        for q in (0.5, 0.99, 0.999):
            up = P2Quantile(q)
            for i in range(n):
                up.add(float(i))
            assert up.value() == pytest.approx(round(q * (n - 1)), rel=0.01)
        down = P2Quantile(0.5)
        for i in range(n, 0, -1):
            down.add(float(i))
        assert down.value() == pytest.approx(n / 2, rel=0.01)


class TestLatencySketch:
    def test_counts_totals_and_bounds(self):
        sketch = LatencySketch()
        for value in (5, 1, 9):
            sketch.add(value)
        data = sketch.as_dict()
        assert data["count"] == 3
        assert data["total"] == 15
        assert data["min"] == 1 and data["max"] == 9
        assert data["p50"] == 5

    def test_quantiles_clamped_to_observed_range(self):
        sketch = LatencySketch()
        for value in range(100):
            sketch.add(value)
        quantiles = sketch.quantiles()
        assert 0 <= quantiles["p50"] <= 99
        assert quantiles["p50"] <= quantiles["p99"] <= quantiles["p999"] <= 99

    def test_as_dict_keys_are_the_slo_schema(self):
        assert sorted(LatencySketch().as_dict()) == [
            "count", "max", "mean", "min", "p50", "p99", "p999", "total",
        ]

    def test_estimates_bounded_and_near_exact_on_skewed_latencies(self):
        # A heavy-tailed (lognormal) latency stream: every reported
        # quantile must sit inside the observed [min, max] and land
        # within a small relative error of the exact percentile —
        # tight at the median, looser in the tail where five markers
        # have the least resolution.
        rng = random.Random(17)
        values = [int(rng.lognormvariate(5, 1.2)) + 1 for _ in range(3000)]
        sketch = LatencySketch()
        for value in values:
            sketch.add(value)
        data = sketch.as_dict()
        ordered = sorted(values)
        for name, q, rel in (("p50", 0.5, 0.02), ("p99", 0.99, 0.10), ("p999", 0.999, 0.15)):
            exact = ordered[round(q * (len(values) - 1))]
            assert data["min"] <= data[name] <= data["max"]
            assert data[name] == pytest.approx(exact, rel=rel)
        assert data["p50"] <= data["p99"] <= data["p999"]


class TestWindowedCounter:
    def test_roll_closes_the_window(self):
        counter = WindowedCounter()
        counter.add(3)
        assert counter.window() == 3
        assert counter.roll() == 3
        counter.add(2)
        assert counter.roll() == 2
        assert counter.total == 5


class TestLiveCollector:
    def test_requests_feed_class_sketches_and_rates(self):
        collector = LiveCollector("plb")
        collector.observe_request("rpc", cycles=100, refs=72)
        collector.observe_request("rpc", cycles=300, refs=72)
        snap = collector.snapshot(1_000_000, window_us=1_000_000)
        assert snap["requests"]["total"] == 2
        assert snap["requests"]["per_class"]["rpc"]["window"] == 2
        assert snap["rates"]["requests_per_sec"] == 2.0
        assert snap["rates"]["refs_per_sec"] == 144.0
        assert snap["latency_cycles"]["per_class"]["rpc"]["count"] == 2

    def test_poll_derives_inject_and_recovery_events(self):
        collector = LiveCollector("plb")
        collector.poll(100, {"faults.injected": 1})
        collector.poll(400, {"faults.injected": 1, "faults.recovered": 1})
        snap = collector.snapshot(1000, window_us=1000)
        kinds = [event["event"] for event in snap["events"]]
        assert kinds == ["fault_injected", "fault_recovered"]
        recovery = snap["recovery_time_us"]
        assert recovery["count"] == 1
        assert recovery["p50"] == 300
        assert snap["faults"]["outstanding"] == 0

    def test_scrub_repair_also_closes_an_outstanding_inject(self):
        collector = LiveCollector("plb")
        collector.poll(50, {"faults.injected": 2})
        collector.poll(250, {"faults.injected": 2, "scrub.repairs": 1})
        summary = collector.slo_summary(1000)
        assert summary["faults"]["outstanding"] == 1
        assert summary["recovery_time_us"]["count"] == 1
        assert summary["recovery_time_us"]["p50"] == 200

    def test_seeded_baseline_suppresses_setup_phantom_events(self):
        # Regression: the collector used to baseline every watched
        # counter at zero, so the first poll reported counter movement
        # that happened during server *setup* (e.g. attach broadcasts
        # on an SMP kernel) as phantom events timestamped at the first
        # request.  Seeding from the post-construction counters makes
        # the first poll report only post-setup movement.
        setup_counters = {"smp.shootdown.msgs": 31, "scrub.runs": 2}
        seeded = LiveCollector("plb")
        seeded.seed_counters(setup_counters)
        seeded.poll(9196, setup_counters)
        assert seeded.snapshot(100_000, window_us=100_000)["events"] == []
        # Movement after the seed still surfaces, sized by the delta.
        seeded.poll(12_000, {"smp.shootdown.msgs": 34})
        events = seeded.snapshot(200_000, window_us=100_000)["events"]
        assert events == [{"t_us": 12_000, "event": "shootdown", "count": 3}]
        # The unseeded collector shows exactly the phantom this guards
        # against.
        unseeded = LiveCollector("plb")
        unseeded.poll(9196, setup_counters)
        phantom = unseeded.snapshot(100_000, window_us=100_000)["events"]
        assert phantom == [{"t_us": 9196, "event": "shootdown", "count": 31}]

    def test_snapshot_drains_the_event_stream(self):
        collector = LiveCollector("plb")
        collector.poll(10, {"smp.shootdown.msgs": 4})
        first = collector.snapshot(100, window_us=100)
        second = collector.snapshot(200, window_us=100)
        assert [event["event"] for event in first["events"]] == ["shootdown"]
        assert second["events"] == []

    def test_verb_sketches_key_by_span_name(self):
        collector = LiveCollector("plb")
        collector.observe_span("kernel.attach", 42)
        summary = collector.slo_summary(1000)
        assert summary["latency_cycles_per_verb"]["kernel.attach"]["count"] == 1
