"""Percentile helpers, tail refusal and seeded input streams."""

import numpy as np
import pytest

from scalebench.loadgen import Record
from scalebench.stats import (SampleTooSmall, percentile, slot_maxima, stream,
                              tail_percentile, windowed_tail)


@pytest.mark.parametrize("size", [1, 2, 7, 100, 1001])
@pytest.mark.parametrize("q", [0, 1, 25, 50, 80, 90, 99, 99.5, 100])
def test_percentile_matches_numpy(size, q):
    samples = np.random.default_rng(size).lognormal(size=size)
    assert percentile(list(samples), q) == pytest.approx(
        np.percentile(samples, q), rel=1e-12, abs=0)


def test_tail_percentile_refuses_an_empty_sample():
    with pytest.raises(SampleTooSmall):
        tail_percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(list(range(100)), 90) == pytest.approx(
        np.percentile(range(100), 90))
    with pytest.raises(SampleTooSmall):
        tail_percentile(list(range(99)), 90)
    with pytest.raises(SampleTooSmall):
        tail_percentile(list(range(1999)), 99.5)


def test_windowed_tail_is_the_median_of_window_percentiles():
    samples = list(np.random.default_rng(3).exponential(size=250))
    result = windowed_tail(samples, 80, 50)
    windows = [np.percentile(samples[i:i + 50], 80) for i in range(0, 250, 50)]
    assert result["windows"] == 5
    assert result["value"] == pytest.approx(np.median(windows))


def test_windowed_tail_refuses_too_few_windows():
    with pytest.raises(SampleTooSmall):
        windowed_tail(list(range(149)), 80, 50)


def test_same_seed_same_stream():
    assert np.array_equal(stream(7, "a").random(16), stream(7, "a").random(16))
    assert not np.array_equal(stream(7, "a").random(16),
                              stream(8, "a").random(16))


def test_streams_are_independent():
    alone = stream(7, "a").random(16)
    other = stream(7, "b")
    other.random(10_000)
    assert np.array_equal(stream(7, "a").random(16), alone)
    assert not np.array_equal(stream(7, "b").random(16), alone)
    correlation = np.corrcoef(stream(7, "a").random(10_000),
                              stream(7, "b").random(10_000))[0, 1]
    assert abs(correlation) < 0.05


def test_workload_inputs_repeat_for_a_seed():
    from scalebench import serving, training

    geometry = serving.Geometry(500, 300)
    for make in (serving.embeddings, serving.exclusions):
        first, second = make(11, geometry), make(11, geometry)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert not np.array_equal(first[1], make(12, geometry)[1])
    first, second = training.interactions(5), training.interactions(5)
    assert first.keys() == second.keys()
    assert all(np.array_equal(first[key], second[key]) for key in first)


def test_slot_maxima_keeps_the_slowest_per_completion_slot():
    def read(due, done):
        return Record("read", due, due, done, 0)

    records = [read(0.00, 0.01), read(0.02, 0.04), read(0.01, 0.06),
               read(0.03, 0.07), read(0.20, 0.21)]
    # Slots of 50 ms from 0: [0, 50) holds the first two, [50, 100) the
    # next two, [200, 250) the last; the empty slots between are skipped.
    assert slot_maxima(records, 0.0, 0.05) == pytest.approx([20.0, 50.0, 10.0])
