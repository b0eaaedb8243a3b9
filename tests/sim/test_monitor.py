"""Unit tests for the measurement probes."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import LatencyRecorder, PhasedLatencyRecorder


class TestLatencyRecorder:
    def test_empty_recorder_raises(self):
        recorder = LatencyRecorder()
        assert recorder.count == 0
        with pytest.raises(ValueError):
            _ = recorder.mean
        with pytest.raises(ValueError):
            _ = recorder.minimum
        with pytest.raises(ValueError):
            _ = recorder.stddev

    def test_basic_stats(self):
        recorder = LatencyRecorder()
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.record(value)
        assert recorder.count == 4
        assert recorder.mean == 2.5
        assert recorder.minimum == 1.0
        assert recorder.maximum == 4.0
        assert recorder.total == 10.0
        assert math.isclose(recorder.stddev, math.sqrt(1.25))

    def test_samples_require_flag(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            _ = recorder.samples

    def test_percentile(self):
        recorder = LatencyRecorder(keep_samples=True)
        for value in range(1, 101):
            recorder.record(float(value))
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(100) == 100.0
        assert math.isclose(recorder.percentile(50), 50.5)

    def test_percentile_bounds(self):
        recorder = LatencyRecorder(keep_samples=True)
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_merge(self):
        left = LatencyRecorder(keep_samples=True)
        right = LatencyRecorder(keep_samples=True)
        left.record(1.0)
        right.record(3.0)
        right.record(5.0)
        left.merge(right)
        assert left.count == 3
        assert left.mean == 3.0
        assert left.maximum == 5.0
        assert sorted(left.samples) == [1.0, 3.0, 5.0]

    def test_merge_refuses_a_sampleless_recorder(self):
        """Counts without samples would read mean 67.0 but p99 1.0."""
        left = LatencyRecorder(keep_samples=True)
        right = LatencyRecorder()
        left.record(1.0)
        right.record(100.0)
        right.record(100.0)
        with pytest.raises(ValueError, match="keep_samples"):
            left.merge(right)
        assert left.count == 1
        assert left.mean == 1.0
        assert left.maximum == 1.0
        assert left.samples == [1.0]

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_mean_matches_reference(self, values):
        recorder = LatencyRecorder()
        for value in values:
            recorder.record(value)
        assert math.isclose(recorder.mean, sum(values) / len(values),
                            rel_tol=1e-9, abs_tol=1e-9)
        assert recorder.minimum == min(values)
        assert recorder.maximum == max(values)


class TestPhasedLatencyRecorder:
    def test_samples_route_to_current_phase(self):
        phased = PhasedLatencyRecorder()
        phased.record(1.0)
        phased.set_phase("degraded")
        phased.record(10.0)
        phased.record(20.0)
        assert phased.phases == ["healthy", "degraded"]
        assert phased.recorder("healthy").count == 1
        assert phased.recorder("degraded").count == 2
        assert phased.recorder("degraded").mean == pytest.approx(15.0)

    def test_phase_property_tracks_label(self):
        phased = PhasedLatencyRecorder(initial_phase="warmup")
        assert phased.phase == "warmup"
        phased.set_phase("steady")
        assert phased.phase == "steady"

    def test_empty_phases_are_hidden(self):
        phased = PhasedLatencyRecorder()
        phased.recorder("degraded")  # created but never recorded into
        phased.record(2.0)
        assert phased.phases == ["healthy"]

    def test_overall_merges_all_phases(self):
        phased = PhasedLatencyRecorder()
        for value in (1.0, 2.0):
            phased.record(value)
        phased.set_phase("degraded")
        phased.record(9.0)
        merged = phased.overall()
        assert merged.count == 3
        assert merged.mean == pytest.approx(4.0)

    def test_revisiting_a_phase_reuses_its_bucket(self):
        phased = PhasedLatencyRecorder()
        phased.record(1.0)
        phased.set_phase("degraded")
        phased.record(5.0)
        phased.set_phase("healthy")
        phased.record(3.0)
        assert phased.phases == ["healthy", "degraded"]
        assert phased.recorder("healthy").count == 2
