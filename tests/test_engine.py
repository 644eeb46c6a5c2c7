import math
import random
import tracemalloc

import pytest

from qbsd import timegrid
from qbsd.core import QbsdConfig
from qbsd.engine import MultiSeriesEngine, RollingForecaster, SlidingHistory
from qbsd.errors import (
    ConfigError,
    GridMisaligned,
    InsufficientHistory,
    InsufficientSpan,
    StaleSlot,
)
from qbsd.timegrid import (
    DAILY,
    Granularity,
    QUARTER_HOURLY,
    SlotCoord,
    default_weekly_scheme,
)

HOURLY = Granularity(3600)


def weekly_series(g, days, amplitude=100.0):
    """Exactly weekly-periodic, noiseless values for `days` days."""
    spd = g.slots_per_day
    out = []
    for slot in range(days * spd):
        day = (slot // spd) % 7
        pos = slot % spd
        out.append((SlotCoord(slot, g), amplitude * (day + 1) + pos))
    return out


def make_forecaster(g, k=1, n_weeks=4, min_samples=4, c=1.0, capacity=None):
    cfg = QbsdConfig(scheme=default_weekly_scheme(n_weeks, k, g), c=c, min_samples=min_samples)
    return RollingForecaster(cfg, g, capacity_slots=capacity)


def test_min_samples_defaults_to_what_the_scheme_supplies():
    assert QbsdConfig(scheme=default_weekly_scheme(4, 1, DAILY)).min_samples == 4
    # k = 0 keeps one sample per week: 3 in all, below the usual threshold
    cfg = QbsdConfig(scheme=default_weekly_scheme(4, 0, DAILY))
    assert cfg.min_samples == 3
    f = RollingForecaster(cfg, DAILY)
    f.ingest_history((SlotCoord(s, DAILY), float(s)) for s in range(28))
    fo = f.forecast_at(SlotCoord(28, DAILY))
    assert (fo.forecast, fo.sample_count, fo.fallback_used) == (14.0, 3, False)


class TestSlidingHistory:
    def test_insert_and_get(self):
        h = SlidingHistory(10)
        h.insert(5, 1.0)
        assert h.get(5) == 1.0
        assert h.get(6) is None
        assert 5 in h and len(h) == 1

    def test_capacity_below_one_slot_rejected(self):
        with pytest.raises(ConfigError, match=r"^capacity must be >= 1 slot, got 0$"):
            SlidingHistory(0)

    def test_overwrite_last_wins(self):
        h = SlidingHistory(10)
        h.insert(5, 1.0)
        h.insert(5, 2.0)
        assert h.get(5) == 2.0
        assert len(h) == 1

    def test_eviction(self):
        h = SlidingHistory(3)
        for slot in range(6):
            h.insert(slot, float(slot))
        # capacity 3 keeps slots 3, 4, 5
        assert [s for s in range(6) if s in h] == [3, 4, 5]

    def test_stale_rejected(self):
        h = SlidingHistory(3)
        h.insert(10, 1.0)
        with pytest.raises(StaleSlot):
            h.insert(7, 1.0)
        h.insert(8, 1.0)  # within window: fine

    def test_out_of_order_within_window(self):
        h = SlidingHistory(10)
        h.insert(5, 5.0)
        h.insert(3, 3.0)
        h.insert(9, 9.0)
        assert h.get(3) == 3.0 and h.get(5) == 5.0 and h.get(9) == 9.0

    def test_nan_is_stored(self):
        h = SlidingHistory(10)
        h.insert(4, 1.0)
        h.insert(5, math.nan)
        assert math.isnan(h.get(5))
        assert 5 in h and len(h) == 2
        # a NaN cell is present: a reader that skips absent (None) cells keeps it
        present = [v for v in map(h.get, (4, 5)) if v is not None]
        assert present[0] == 1.0 and math.isnan(present[1])

    @pytest.mark.parametrize("jump", [2, 4, 5, 6, 15])
    def test_jump_then_out_of_order_leaves_written_slots(self, jump):
        capacity = 5
        h = SlidingHistory(capacity)
        written = {}
        # in order, a jump, then two late slots within the new window
        for slot in [*range(10), 9 + jump, 8 + jump, 6 + jump]:
            h.insert(slot, float(slot))
            written[slot] = float(slot)
        latest = 9 + jump
        kept = {s: v for s, v in written.items() if s > latest - capacity}
        # cells of slots above latest hold older in-window values: not present
        assert {s for s in range(latest + capacity + 1) if s in h} == set(kept)
        assert len(h) == len(kept)
        present = [h.get(latest + offset) for offset in range(-2 * capacity, capacity)]
        assert [v for v in present if v is not None] == [kept[s] for s in sorted(kept)]


def test_retained_cell_costs_one_list_slot():
    """The ring keeps one list of values and no per-cell slot id: at most
    16 B per retained cell beyond the values themselves (a boxed int id per
    cell would add 32 B)."""
    capacity = 10_000
    first = 10**6  # far above the interpreter's cache of small ints
    values = [float(i) + 0.5 for i in range(capacity)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = SlidingHistory(capacity)
        for i, value in enumerate(values):
            h.insert(first + i, value)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(h) == capacity
    assert used <= 16 * capacity, used / capacity


def _state(h):
    # repr tells NaN from NaN and 0.0 from -0.0
    return repr(h._values), h.latest, h.writes


class TestIngest:
    def test_four_weeks_fit(self):
        g = QUARTER_HOURLY
        f = make_forecaster(g, k=4)
        f.ingest_history(weekly_series(g, 28))
        assert len(f.history) == 28 * g.slots_per_day

    def test_forty_days_evicts_oldest_twelve(self):
        g = HOURLY
        f = make_forecaster(g, k=2, capacity=28 * g.slots_per_day)
        f.ingest_history(weekly_series(g, 40))
        spd = g.slots_per_day
        assert len(f.history) == 28 * spd
        assert f.history.get(12 * spd - 1) is None
        assert f.history.get(12 * spd) is not None

    def test_duplicate_overwrites(self):
        g = DAILY
        f = make_forecaster(g)
        t = SlotCoord(100, g)
        f.ingest_history([(t, 1.0), (t, 2.0)])
        assert f.history.get(100) == 2.0
        assert len(f.history) == 1

    def test_granularity_mismatch(self):
        f = make_forecaster(DAILY)
        with pytest.raises(GridMisaligned):
            f.ingest_history([(SlotCoord(0, HOURLY), 1.0)])

    def test_granularity_mismatch_mid_batch_keeps_earlier_rows(self):
        f = make_forecaster(DAILY)
        batch = [(SlotCoord(0, DAILY), 0.0), (1, 1.0), (SlotCoord(2, DAILY), 2.0),
                 (SlotCoord(3, HOURLY), 3.0), (4, 4.0)]
        with pytest.raises(GridMisaligned):
            f.ingest_history(batch)
        h = f.history
        assert (h.latest, h.writes) == (2, 3)
        assert [h.get(s) for s in range(5)] == [0.0, 1.0, 2.0, None, None]
        f.ingest_history([(3, 3.0)])
        assert (h.latest, h.writes) == (3, 4)

    def test_int_and_coord_slots_fill_the_same_history(self):
        g = HOURLY
        coords, ints = make_forecaster(g), make_forecaster(g)
        series = weekly_series(g, 30)
        coords.ingest_history(series)
        ints.ingest_history((t.global_slot, value) for t, value in series)
        assert _state(coords.history) == _state(ints.history)

    def test_coord_on_an_equal_grid_object_reads_like_an_int_slot(self):
        """A SlotCoord whose grid equals the forecaster's but is another
        object is checked, then forecast and observed as the int slot is."""
        g, other = timegrid.HOURLY, Granularity(3600)
        assert other == g and other is not g
        coords, ints = make_forecaster(g), make_forecaster(g)
        rng = random.Random(8)
        series = [(s, rng.uniform(0, 100)) for s in range(5 * g.slots_per_week)]
        prefill = 4 * g.slots_per_week
        coords.ingest_history((SlotCoord(s, other), v) for s, v in series[:prefill])
        ints.ingest_history(series[:prefill])
        for s, v in series[prefill:]:
            assert coords.observe(SlotCoord(s, other), v) == ints.observe(s, v)
            assert coords.forecast_at(SlotCoord(s + 1, other)) == ints.forecast_at(s + 1)
        assert _state(coords.history) == _state(ints.history)

    def test_capacity_floor(self):
        g = DAILY
        with pytest.raises(ConfigError):
            make_forecaster(g, k=1, capacity=10)


class TestForecastAt:
    def test_noiseless_periodic_is_exact(self):
        # with k=0 every subset sample is the same week-lagged value, so the
        # forecast reproduces the periodic signal exactly and the IQR is 0
        g = HOURLY
        f = make_forecaster(g, k=0, min_samples=3)
        series = weekly_series(g, 28)
        f.ingest_history(series)
        spd = g.slots_per_day
        for i in (0, 5, spd - 1, 3 * spd + 11):
            t = SlotCoord(28 * spd + i, g)
            expected = 100.0 * (((28 * spd + i) // spd) % 7 + 1) + i % spd
            fo = f.forecast_at(t)
            assert fo.forecast == expected
            assert fo.iqr == 0.0
            assert fo.fallback_used is True
            assert fo.sample_count == 3

    def test_neighbor_sampling_with_positive_k(self):
        # k=1 pulls the two calendar neighbors of the target (each sampled
        # three times across the lag groups); the quartiles track that spread
        g = HOURLY
        f = make_forecaster(g, k=1, min_samples=4)
        f.ingest_history(weekly_series(g, 28))
        spd = g.slots_per_day
        t = SlotCoord(27 * spd + 5, g)  # inside history: full subset present
        base = 100.0 * (((27 * spd + 5) // spd) % 7 + 1) + 5
        fo = f.forecast_at(t)
        # subset values are {base-1: x3, base: x3, base+1: x3}
        assert fo.sample_count == 9
        assert fo.forecast == base
        assert fo.q1 == base - 1 and fo.q3 == base + 1

    def test_insufficient_history(self):
        g = DAILY
        f = make_forecaster(g, k=1, min_samples=4)
        f.ingest_history([(SlotCoord(79, g), 1.0), (SlotCoord(85, g), 1.0)])
        with pytest.raises(InsufficientHistory):
            f.forecast_at(SlotCoord(100, g))

    def test_independent_of_target_value(self):
        g = DAILY
        rng = random.Random(7)
        f1 = make_forecaster(g, k=2)
        f2 = make_forecaster(g, k=2)
        history = [(SlotCoord(s, g), rng.uniform(0, 50)) for s in range(40)]
        f1.ingest_history(history)
        f2.ingest_history(history)
        t = SlotCoord(40, g)
        f2.ingest_history([(t, 1234.5)])  # only f2 knows a value at t
        assert f1.forecast_at(t) == f2.forecast_at(t)


class TestObserve:
    def test_constant_series_zero_residuals(self):
        g = DAILY
        f = make_forecaster(g, k=1)
        f.ingest_history([(SlotCoord(s, g), 42.0) for s in range(30)])
        res, fo = f.observe(SlotCoord(30, g), 42.0)
        assert res.difference == 0.0 and res.normalized == 0.0
        assert fo.forecast == 42.0

    def test_spike_shows_up_as_difference(self):
        g = HOURLY
        f = make_forecaster(g, k=0, min_samples=3)
        series = weekly_series(g, 28)
        f.ingest_history(series)
        spd = g.slots_per_day
        t = SlotCoord(28 * spd, g)
        clean = 100.0 * (((28 * spd) // spd) % 7 + 1)
        res, _ = f.observe(t, clean + 500.0)
        assert res.difference == 500.0

    def test_first_observation_buffers_and_raises(self):
        g = DAILY
        f = make_forecaster(g, k=1)
        t = SlotCoord(1000, g)
        with pytest.raises(InsufficientHistory):
            f.observe(t, 3.0)
        assert f.history.get(1000) == 3.0
        # too early for the scheme span: a different error, same buffering
        f2 = make_forecaster(g, k=1)
        with pytest.raises(InsufficientSpan):
            f2.observe(SlotCoord(0, g), 3.0)
        assert f2.history.get(0) == 3.0

    def test_observe_never_reads_its_own_value(self):
        g = DAILY
        f = make_forecaster(g, k=1)
        f.ingest_history(weekly_series(g, 28))
        spd = g.slots_per_day
        t = SlotCoord(28 * spd, g)
        expected = f.forecast_at(t)
        _, fo = f.observe(t, 9999.0)
        assert fo == expected


def test_no_leakage_randomized():
    g = DAILY
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(0, 3)
        history = [(SlotCoord(s, g), rng.uniform(-10, 10)) for s in range(22 + k)]
        t = SlotCoord(22 + k, g)
        outs = []
        for at_t in (None, rng.uniform(-10, 10), 1e9):
            f = make_forecaster(g, k=k, min_samples=3)
            f.ingest_history(history)
            if at_t is not None:
                f.ingest_history([(t, at_t)])
            outs.append(f.forecast_at(t))
        assert outs[0] == outs[1] == outs[2]


def test_determinism():
    g = QUARTER_HOURLY
    rng = random.Random(5)
    history = [(SlotCoord(s, g), rng.uniform(0, 100)) for s in range(28 * 96)]
    results = []
    for _ in range(2):
        f = make_forecaster(g, k=4)
        f.ingest_history(history)
        results.append([f.forecast_at(SlotCoord(28 * 96 + i, g)) for i in range(10)])
    assert results[0] == results[1]


def test_eviction_never_changes_future_forecasts():
    g = HOURLY
    rng = random.Random(11)
    series = [(SlotCoord(s, g), rng.uniform(0, 100)) for s in range(35 * g.slots_per_day)]
    tight = make_forecaster(g, k=2)  # default capacity: max lag + k + 1
    roomy = make_forecaster(g, k=2, capacity=10 * 7 * g.slots_per_day)
    tight.ingest_history(series)
    roomy.ingest_history(series)
    for i in range(1, 20):
        t = SlotCoord(35 * g.slots_per_day - 1 + i, g)
        assert tight.forecast_at(t) == roomy.forecast_at(t)


def test_memory_bounded_by_retained_window():
    g = Granularity(3600)
    f = make_forecaster(g, k=2)  # default capacity: deepest lag + one week
    capacity = f.history.capacity
    for slot in range(20 * 7 * g.slots_per_day):  # 20 weeks through a 4-week buffer
        try:
            f.observe(SlotCoord(slot, g), float(slot % 97))
        except (InsufficientHistory, InsufficientSpan):
            pass
        assert len(f.history) <= capacity
    assert len(f.history) == capacity


def test_stream_matches_batch_ingest():
    g = DAILY
    rng = random.Random(3)
    values = [rng.uniform(0, 100) for _ in range(60)]
    streamed = make_forecaster(g, k=1, min_samples=3)
    stream_outputs = {}
    for s, v in enumerate(values):
        try:
            _, fo = streamed.observe(SlotCoord(s, g), v)
            stream_outputs[s] = fo
        except (InsufficientHistory, InsufficientSpan):
            pass
    for s in stream_outputs:
        replay = make_forecaster(g, k=1, min_samples=3)
        replay.ingest_history(
            [(SlotCoord(i, g), v) for i, v in enumerate(values[:s])]
        )
        assert replay.forecast_at(SlotCoord(s, g)) == stream_outputs[s]


class TestMultiSeries:
    def test_series_are_independent(self):
        g = DAILY
        engine = MultiSeriesEngine(lambda: make_forecaster(g, k=1))
        a = engine.forecaster("cell-a")
        b = engine.forecaster("cell-b")
        assert a is not b
        assert engine.forecaster("cell-a") is a
        a.ingest_history(weekly_series(g, 28))
        assert len(b.history) == 0
        assert engine.series_ids() == ["cell-a", "cell-b"]
        assert len(engine) == 2

    def test_observe_and_forecast_delegate(self):
        g = DAILY
        engine = MultiSeriesEngine(lambda: make_forecaster(g, k=1))
        engine.forecaster("x").ingest_history([(SlotCoord(s, g), 5.0) for s in range(30)])
        res, fo = engine.observe("x", SlotCoord(30, g), 5.0)
        assert res.difference == 0.0
        assert engine.forecast_at("x", SlotCoord(31, g)).forecast == 5.0

    def test_observe_creates_a_forecaster_once_per_new_id(self):
        g = DAILY
        made = []

        def factory():
            made.append(make_forecaster(g, k=1))
            return made[-1]

        engine = MultiSeriesEngine(factory)
        skipped = 0
        for s in range(25):
            try:
                engine.observe("x", SlotCoord(s, g), 5.0)
            except (InsufficientHistory, InsufficientSpan):
                skipped += 1
        assert 0 < skipped < 25
        assert len(made) == 1
        assert engine.forecaster("x") is made[0]
        # every observation, warmup included, reached the one forecaster
        assert len(made[0].history) == 25
        with pytest.raises(InsufficientSpan):
            engine.observe("y", SlotCoord(0, g), 1.0)
        assert len(made) == 2 and engine.series_ids() == ["x", "y"]
        assert len(made[1].history) == 1 and len(made[0].history) == 25
