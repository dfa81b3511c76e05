"""Unit tests for metric recording."""

import pytest

from repro.metrics.timeseries import (
    Counter,
    RateWindow,
    TimeSeries,
    format_table,
    percentile,
)


class TestTimeSeries:
    def test_record_and_iterate(self):
        series = TimeSeries(name="s")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert list(series) == [(1.0, 10.0), (2.0, 20.0)]
        assert len(series) == 2

    def test_time_must_not_go_backwards(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

    def test_equal_times_allowed(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        series.record(5.0, 2.0)
        assert len(series) == 2

    def test_value_at_step_lookup(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(10.0, 2.0)
        assert series.value_at(5.0) == 1.0
        assert series.value_at(10.0) == 2.0
        assert series.value_at(99.0) == 2.0

    def test_value_at_before_first_raises(self):
        series = TimeSeries()
        series.record(10.0, 1.0)
        with pytest.raises(ValueError):
            series.value_at(5.0)

    def test_between_slices_inclusive(self):
        series = TimeSeries()
        for t in range(5):
            series.record(float(t), float(t))
        window = series.between(1.0, 3.0)
        assert list(window.times) == [1.0, 2.0, 3.0]

    def test_aggregates(self):
        series = TimeSeries()
        for value in (1.0, 3.0, 2.0):
            series.record(series.times[-1] + 1 if series.times else 0.0, value)
        assert series.min() == 1.0
        assert series.max() == 3.0
        assert series.mean() == 2.0


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestRateWindow:
    def test_bucket_success_rate(self):
        window = RateWindow(10.0)
        window.record(1.0, True)
        window.record(2.0, True)
        window.record(3.0, False)
        assert window.success_rate(0) == pytest.approx(2 / 3)

    def test_buckets_by_width(self):
        window = RateWindow(10.0)
        window.record(5.0, True)
        window.record(15.0, False)
        assert window.buckets() == [0, 1]
        assert window.success_rate(1) == 0.0

    def test_counted_records(self):
        window = RateWindow(10.0)
        window.record(1.0, True, count=5)
        ok, failed = window.totals(0)
        assert (ok, failed) == (5, 0)

    def test_empty_bucket_raises(self):
        window = RateWindow(10.0)
        with pytest.raises(ValueError):
            window.success_rate(3)

    def test_overall_rate(self):
        window = RateWindow(1.0)
        window.record(0.5, True)
        window.record(1.5, False)
        assert window.overall_success_rate() == 0.5

    def test_series_uses_bucket_midpoints(self):
        window = RateWindow(10.0)
        window.record(5.0, True)
        series = window.series()
        assert list(series.times) == [5.0]
        assert list(series.values) == [1.0]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            RateWindow(0.0)


class TestCounter:
    def test_totals(self):
        counter = Counter("moves")
        counter.add(1.0, 3)
        counter.add(2.0, 2)
        assert counter.total == 5

    def test_windowed_sums(self):
        counter = Counter("moves")
        counter.add(1.0, 1)
        counter.add(2.0, 2)
        counter.add(11.0, 5)
        windowed = counter.windowed(10.0)
        assert list(windowed) == [(5.0, 3.0), (15.0, 5.0)]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(0.0, -1)


class TestFormatTable:
    def test_aligns_columns(self):
        table = format_table(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "longer" in lines[3]
