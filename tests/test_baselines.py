import pytest

from qbsd.baselines import MovingAverage, Persistence, SeasonalNaive, baseline_forecast
from qbsd.errors import ConfigError, InsufficientHistory


def test_seasonal_naive_tracks_periodic_series():
    week = 7
    history = {s: float(s % week) for s in range(35)}
    for slot in range(week, 35):
        got = baseline_forecast(history, slot, SeasonalNaive(week))
        assert got == history[slot]


def test_persistence_on_constant_series():
    history = {s: 9.0 for s in range(10)}
    assert baseline_forecast(history, 10, Persistence()) == 9.0


def test_moving_average_mean_of_trailing_window():
    history = {1: 1.0, 2: 2.0, 3: 3.0}
    assert baseline_forecast(history, 4, MovingAverage(3)) == 2.0


def test_moving_average_skips_gaps():
    history = {1: 1.0, 3: 3.0}
    assert baseline_forecast(history, 4, MovingAverage(3)) == 2.0
    assert baseline_forecast(history, 4, MovingAverage(2)) == 3.0


def test_moving_average_sums_left_to_right():
    # 1e16 + 1.0 rounds to 1e16, so the window sums to 0.0 left to right; a
    # compensated sum (the built-in sum() from Python 3.12 on) gives 1.0
    history = {0: 1e16, 1: 1.0, 2: -1e16}
    assert baseline_forecast(history, 3, MovingAverage(3)) == 0.0


def test_missing_lag_raises():
    history = {5: 1.0}
    with pytest.raises(InsufficientHistory):
        baseline_forecast(history, 6, SeasonalNaive(7))
    with pytest.raises(InsufficientHistory):
        baseline_forecast(history, 7, Persistence())
    with pytest.raises(InsufficientHistory):
        baseline_forecast({}, 3, MovingAverage(2))
    with pytest.raises(InsufficientHistory):
        baseline_forecast(history, 0, Persistence())  # nothing before slot 0


def test_no_leakage():
    history = {s: 1.0 for s in range(10)}
    history[10] = 1e9  # value at the target slot must never be read
    history[11] = 1e9
    assert baseline_forecast(history, 10, Persistence()) == 1.0
    assert baseline_forecast(history, 10, MovingAverage(5)) == 1.0
    assert baseline_forecast(history, 10, SeasonalNaive(7)) == 1.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        SeasonalNaive(0)
    with pytest.raises(ConfigError):
        MovingAverage(0)
