"""Tests for the promoted repro.metrics primitives (shared by the
engine, the gateway, and the benchmark harnesses)."""

import numpy as np
import pytest

from repro.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_matches_numpy(self):
        samples = [0.5, 0.1, 0.9, 0.3]
        assert percentile(samples, 50) == float(np.percentile(samples, 50))

    def test_empty_raises_value_error_naming_phase(self):
        with pytest.raises(ValueError, match="'batched'"):
            percentile([], 95, phase="batched")

    def test_empty_never_raises_index_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_set_and_add(self):
        gauge = Gauge()
        gauge.set(2.5)
        gauge.add(-0.5)
        assert gauge.value == 2.0


class TestLatencyHistogram:
    def test_summary_percentiles(self):
        histogram = LatencyHistogram()
        for value in [0.010, 0.020, 0.030, 0.040]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["p50_ms"] == pytest.approx(25.0)
        assert summary["p99_ms"] <= 40.0 + 1e-9
        assert summary["mean_ms"] == pytest.approx(25.0)

    def test_empty_summary_is_count_zero(self):
        assert LatencyHistogram().summary() == {"count": 0}

    def test_reservoir_bounds_memory(self):
        histogram = LatencyHistogram(max_samples=16)
        for i in range(1000):
            histogram.observe(i * 1e-3)
        assert histogram.count == 1000
        assert len(histogram._samples) == 16
        summary = histogram.summary()
        assert summary["count"] == 1000
        assert 0.0 <= summary["p50_ms"] <= 1000.0

    def test_rejects_bad_max_samples(self):
        with pytest.raises(ValueError):
            LatencyHistogram(max_samples=0)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="not a Gauge"):
            registry.gauge("x")

    def test_to_dict_sections(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(1.5)
        registry.histogram("lat").observe(0.002)
        snapshot = registry.to_dict()
        assert snapshot["counters"]["requests"] == 3
        assert snapshot["gauges"]["depth"] == 1.5
        assert snapshot["histograms"]["lat"]["count"] == 1
        # JSON-serializable end to end.
        import json
        json.dumps(snapshot)
