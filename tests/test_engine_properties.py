"""Property tests for the ring-buffer history and the scalar forecast path.

``SlidingHistory`` is checked step by step against a dict that applies the
eviction rule directly. ``RollingForecaster.forecast_at`` is checked against
the public reference path: ``resolve_subset_slots`` expanded over the
retained window, then ``qbsd_step`` over the sorted values. A second
property drives long runs of consecutive targets, which slide the kept
sorted subset on wide schemes, mixed with every call that must rebuild it,
and compares every float field by ``repr`` so a flipped zero sign shows.
The int-slot path (``replay`` over ``(line, slot, actual)`` int rows, ``forecast_at``
of an int) is checked against the same calls with ``SlotCoord``s.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbsd.core import QbsdConfig, compute_residuals, qbsd_step
from qbsd.datasets import StepRecord, replay
from qbsd.engine import RollingForecaster, SlidingHistory
from qbsd.errors import (
    DataError,
    GridMisaligned,
    InsufficientHistory,
    InsufficientSpan,
    StaleSlot,
)
from qbsd.timegrid import (
    DAILY,
    Granularity,
    SeasonalityScheme,
    SlotCoord,
    default_weekly_scheme,
    resolve_subset_slots,
    weekly_plus_yearly_scheme,
)


class DictHistory:
    """Oracle: keep every slot in a dict and drop those that fall out of
    ``(latest - capacity, latest]`` whenever ``latest`` advances."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.values: dict[int, float] = {}
        self.latest: int | None = None

    def insert(self, slot: int, value: float) -> None:
        if self.latest is not None and slot <= self.latest - self.capacity:
            raise StaleSlot(f"slot {slot}")
        self.values[slot] = value
        if self.latest is None or slot > self.latest:
            self.latest = slot
            self.values = {s: v for s, v in self.values.items() if s > slot - self.capacity}


def _state(h: SlidingHistory, slots: range):
    return h.latest, len(h), [(h.get(s), s in h) for s in slots]


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 12),
    start=st.integers(-20, 20),
    steps=st.lists(
        st.tuples(
            st.one_of(
                st.integers(-3, 3),  # overwrites, small steps, out of order
                st.integers(-40, 40),  # stale inserts and jumps beyond capacity
            ),
            st.floats(-1e6, 1e6),
        ),
        max_size=60,
    ),
)
def test_ring_matches_dict_oracle(capacity, start, steps):
    ring, oracle = SlidingHistory(capacity), DictHistory(capacity)
    for delta, value in steps:
        slot = (oracle.latest if oracle.latest is not None else start) + delta
        probe = range(slot - 3 * capacity - 45, slot + 45)
        if oracle.latest is not None and slot <= oracle.latest - capacity:
            before = _state(ring, probe)
            with pytest.raises(StaleSlot):
                ring.insert(slot, value)
            with pytest.raises(StaleSlot):
                oracle.insert(slot, value)
            assert _state(ring, probe) == before
            continue
        ring.insert(slot, value)
        oracle.insert(slot, value)
        assert ring.latest == oracle.latest
        assert len(ring) == len(oracle.values)
        for s in probe:
            assert ring.get(s) == oracle.values.get(s)
            assert (s in ring) == (s in oracle.values)
        present = [v for v in map(ring.get, probe) if v is not None]
        assert present == [oracle.values[s] for s in probe if s in oracle.values]


def test_len_counts_only_written_cells():
    h = SlidingHistory(10)
    assert len(h) == 0
    h.insert(2, 1.0)
    h.insert(5, 1.0)
    assert len(h) == 2  # latest < capacity: the eight unwritten cells don't count
    h.insert(40, 1.0)
    assert len(h) == 1


def _reference(values: dict[int, float], latest: int | None, capacity: int,
               t: SlotCoord, cfg: QbsdConfig):
    """The forecast from the public reference path over the retained window."""
    oldest = -1 if latest is None else latest - capacity
    present = []
    for coord in resolve_subset_slots(t, cfg.scheme):
        value = values.get(coord.global_slot)
        if value is not None and coord.global_slot > oldest:
            present.append(value)
    return qbsd_step(sorted(present), cfg.scheme.subset_size, cfg)


def _outcome(fn):
    try:
        return fn()
    except (InsufficientHistory, InsufficientSpan) as exc:
        return type(exc)


SIX_HOURLY = Granularity(21600)  # a 28-slot week keeps weekly4 series short


@settings(max_examples=60, deadline=None)
@given(
    yearly=st.booleans(),
    k=st.integers(0, 3),
    extra_capacity=st.integers(0, 60),
    min_samples=st.integers(3, 6),
    gap_rate=st.sampled_from([0.0, 0.05, 0.3, 0.7]),
    ties=st.booleans(),
    prefill=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_forecast_at_matches_reference_path(
    yearly, k, extra_capacity, min_samples, gap_rate, ties, prefill, seed
):
    if yearly:
        g, scheme = DAILY, weekly_plus_yearly_scheme(k, DAILY)
    else:
        g, scheme = SIX_HOURLY, default_weekly_scheme(4, k, SIX_HOURLY)
    assume(scheme.subset_size >= 3)  # no threshold can be configured below 3
    cfg = QbsdConfig(scheme=scheme, c=1.0, min_samples=min(min_samples, scheme.subset_size))
    capacity = scheme.span_slots + extra_capacity
    forecaster = RollingForecaster(cfg, g, capacity_slots=capacity)
    rng = random.Random(seed)
    n = scheme.span_slots + 40
    series = {
        s: float(rng.randint(0, 3)) if ties else rng.gauss(100.0, 20.0)
        for s in range(n)
        if rng.random() >= gap_rate
    }
    seen: dict[int, float] = {}
    latest = None
    prefill = min(prefill, n)
    forecaster.ingest_history(
        (SlotCoord(s, g), v) for s, v in series.items() if s < prefill
    )
    for s, v in series.items():
        if s < prefill:
            seen[s] = v
            latest = s
    for s in range(prefill, n):
        t = SlotCoord(s, g)
        expected = _outcome(lambda: _reference(seen, latest, capacity, t, cfg))
        if s in series:
            got = _outcome(lambda: forecaster.observe(t, series[s]))
            if not isinstance(got, type):
                got = got[1]
            seen[s] = series[s]
            latest = s
        else:
            got = _outcome(lambda: forecaster.forecast_at(t))
        assert got == expected, f"slot {s}"
        # a target in the past may reach below the retained window
        back = SlotCoord(max(0, s - rng.randint(1, capacity + scheme.span_slots)), g)
        assert _outcome(lambda: forecaster.forecast_at(back)) == _outcome(
            lambda: _reference(seen, latest, capacity, back, cfg)
        ), f"slot {back.global_slot} after {s}"


def _exact(outcome):
    """An outcome with every float field as its repr: ``0.0 == -0.0`` and
    ``nan != nan`` would hide a difference that ``repr`` shows."""
    if isinstance(outcome, type):
        return outcome
    fo, residuals = outcome
    fields = [fo.forecast, fo.q1, fo.q3, fo.iqr]
    if residuals is not None:
        fields += [residuals.difference, residuals.normalized]
    return [repr(v) for v in fields], fo.sample_count, fo.fallback_used


SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 7.0)
RARE_VALUES = (float("nan"), float("inf"), float("-inf"))
OPS = st.one_of(
    # long in-order runs: the slide's home ground
    st.tuples(st.sampled_from(["observe", "forecast", "mixed"]), st.integers(1, 40)),
    st.tuples(
        st.sampled_from([
            "jump", "past", "again", "observe_again", "insert_prev", "insert_near",
            "insert_stale", "ingest",
        ]),
        st.integers(1, 40),
    ),
)


@settings(max_examples=120, deadline=None)
@example(  # consecutive targets over an empty history
    shape="weekly4", k=4, extra_capacity=1, min_samples=3, special_rate=0.0,
    rare=False, prefill=0, ops=[("forecast", 3), ("observe", 3)], seed=0,
)
@example(  # a 0.0 and a -0.0 in the subset as one of them slides out
    shape="weekly4", k=3, extra_capacity=1, min_samples=3, special_rate=0.5,
    rare=False, prefill=25, ops=[("observe", 40)], seed=1,
)
@given(
    shape=st.sampled_from(["weekly4", "two_lags", "yearly"]),
    k=st.integers(0, 10),
    extra_capacity=st.one_of(st.just(0), st.just(1), st.integers(0, 60)),
    min_samples=st.integers(3, 8),
    special_rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    rare=st.booleans(),
    prefill=st.integers(0, 120),
    ops=st.lists(OPS, min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
def test_sliding_subset_matches_reference(
    shape, k, extra_capacity, min_samples, special_rate, rare, prefill, ops, seed
):
    if shape == "yearly":
        # on a daily grid the lag-0 and 7-day groups overlap above k=3; at
        # k=3 they touch, so a slot leaves one group as it enters the other
        k = min(k, 3)
        g, scheme = DAILY, weekly_plus_yearly_scheme(k, DAILY)
    elif shape == "two_lags":
        g = SIX_HOURLY
        scheme = SeasonalityScheme((0, g.slots_per_week), k)
    else:
        g, scheme = SIX_HOURLY, default_weekly_scheme(4, k, SIX_HOURLY)
    assume(scheme.subset_size >= 3)  # no threshold can be configured below 3
    cfg = QbsdConfig(scheme=scheme, c=1.0, min_samples=min(min_samples, scheme.subset_size))
    span = scheme.span_slots
    capacity = span + extra_capacity
    forecaster = RollingForecaster(cfg, g, capacity_slots=capacity)
    oracle = DictHistory(capacity)
    rng = random.Random(seed)
    pool = SPECIAL_VALUES + (RARE_VALUES if rare else ())

    def value():
        if rng.random() < special_rate:
            return rng.choice(pool)
        return rng.gauss(100.0, 20.0)

    def outcome(fn):
        # a NaN in the subset leaves it unordered, and the kernel's q1 <= q3
        # check raises DataError on both paths alike
        try:
            return fn()
        except (InsufficientHistory, InsufficientSpan, DataError) as exc:
            return type(exc)

    def expected(slot, actual=None):
        fo = outcome(
            lambda: _reference(oracle.values, oracle.latest, capacity, SlotCoord(slot, g), cfg)
        )
        if isinstance(fo, type):
            return fo
        return fo, None if actual is None else compute_residuals(actual, fo, cfg.c)

    def forecast(slot):
        t = SlotCoord(slot, g)
        got = outcome(lambda: (forecaster.forecast_at(t), None))
        assert _exact(got) == _exact(expected(slot)), f"forecast_at({slot})"

    def observe(slot):
        actual = value()
        want = expected(slot, actual)
        got = outcome(lambda: forecaster.observe(SlotCoord(slot, g), actual)[::-1])
        assert _exact(got) == _exact(want), f"observe({slot})"
        if got is not DataError:  # observe buffers the value unless that raised
            oracle.insert(slot, actual)

    def insert(slot):
        actual = value()
        if oracle.latest is not None and slot <= oracle.latest - capacity:
            with pytest.raises(StaleSlot):
                forecaster.history.insert(slot, actual)
            return
        forecaster.history.insert(slot, actual)
        oracle.insert(slot, actual)

    pairs = [(SlotCoord(s, g), value()) for s in range(max(0, span - prefill), span)]
    forecaster.ingest_history(pairs)
    for t, actual in pairs:
        oracle.insert(t.global_slot, actual)
    cursor = span  # the next target of an in-order run
    for op, n in ops:
        if op in ("observe", "forecast", "mixed"):
            for _ in range(n):
                if op == "observe" or (op == "mixed" and rng.random() < 0.7):
                    observe(cursor)
                else:
                    forecast(cursor)  # a gap: the slot is forecast, not written
                cursor += 1
        elif op == "jump":
            cursor += n + 1
        elif op == "past":
            forecast(max(0, cursor - 1 - rng.randint(1, capacity + span)))
        elif op == "again":
            forecast(cursor - 1)
        elif op == "observe_again":  # a duplicate: the slot is written twice
            observe(cursor - 1)
        elif op == "insert_prev":
            insert(cursor - 1)
        elif op == "insert_near":  # out of order within the window, or ahead
            insert(max(0, cursor - 1 + rng.randint(-n, 3)))
        elif op == "insert_stale":
            if oracle.latest is not None:
                insert(oracle.latest - capacity - rng.randint(0, n))
        else:
            batch = [
                (max(0, cursor - 1 + rng.randint(-n, 2)), value()) for _ in range(n % 5 + 1)
            ]
            # leave out what would be stale by the end of the batch: it would
            # raise mid-batch
            newest = max([s for s, _ in batch] + [oracle.latest or 0])
            batch = [(s, v) for s, v in batch if s > newest - capacity]
            forecaster.ingest_history((SlotCoord(s, g), v) for s, v in batch)
            for s, v in batch:
                oracle.insert(s, v)


@pytest.mark.parametrize("k,slides", [(1, False), (2, False), (3, True), (4, True), (16, True)])
def test_wide_schemes_slide_on_consecutive_targets(k, slides, monkeypatch):
    """The kept subset is used on consecutive targets of a wide scheme (6k+3
    samples in 4 groups: k >= 3) and never on a narrow one."""
    calls = []
    real = RollingForecaster._slide

    def counting(self, base):
        moved = real(self, base)
        calls.append(moved)
        return moved

    monkeypatch.setattr(RollingForecaster, "_slide", counting)
    g = Granularity(3600)
    scheme = default_weekly_scheme(4, k, g)
    cfg = QbsdConfig(scheme=scheme, c=1.0)
    forecaster = RollingForecaster(cfg, g)
    rng = random.Random(k)
    for s in range(scheme.span_slots + 200):
        try:
            forecaster.observe(SlotCoord(s, g), rng.gauss(50.0, 5.0))
        except (InsufficientHistory, InsufficientSpan):
            pass
    if slides:
        assert calls.count(True) >= 195
    else:
        assert calls == []
    # with capacity == span a write can evict a leaving value: never slide
    tight = RollingForecaster(cfg, g, capacity_slots=scheme.span_slots)
    calls.clear()
    for s in range(scheme.span_slots + 50):
        try:
            tight.observe(SlotCoord(s, g), rng.gauss(50.0, 5.0))
        except (InsufficientHistory, InsufficientSpan):
            pass
    assert calls == []


def test_warmup_write_inside_the_kept_subset_is_seen():
    """observe buffers a slot below the scheme span although it cannot be
    forecast. When that slot lies inside the subset kept from the last
    target, the next target must see its value, as a fresh forecaster over
    the same history does."""
    g = SIX_HOURLY
    scheme = default_weekly_scheme(4, 4, g)
    span = scheme.span_slots
    cfg = QbsdConfig(scheme=scheme, c=1.0)
    rng = random.Random(3)
    series = {s: rng.gauss(100.0, 20.0) for s in range(span + 12)}
    checked = 0
    for target in range(span, span + 8):
        for coord in resolve_subset_slots(SlotCoord(target + 1, g), scheme):
            late = coord.global_slot
            if late >= span:
                continue
            forecaster = RollingForecaster(cfg, g)
            assert forecaster._edges is not None  # a scheme that slides
            forecaster.ingest_history((s, v) for s, v in series.items() if s != late)
            forecaster.forecast_at(target)
            with pytest.raises(InsufficientSpan):
                forecaster.observe(late, series[late])
            fresh = RollingForecaster(cfg, g)
            fresh.ingest_history(series.items())
            assert forecaster.forecast_at(target + 1) == fresh.forecast_at(target + 1), late
            checked += 1
    assert checked >= 8


def test_write_between_consecutive_targets_is_seen():
    """A write inside the kept subset that does not come from observe, made
    between two consecutive targets, reaches the second forecast, as a fresh
    forecaster over the same history sees it."""
    g = Granularity(3600)
    cfg = QbsdConfig(scheme=default_weekly_scheme(4, 4, g), c=1.0)
    forecaster = RollingForecaster(cfg, g)
    assert forecaster._edges is not None  # a scheme that slides
    rng = random.Random(11)
    t = forecaster._span + 10
    series = {s: rng.gauss(100.0, 20.0) for s in range(t + 3)}
    forecaster.ingest_history((s, series[s]) for s in range(t))
    for s in range(t, t + 3):
        forecaster.observe(s, series[s])
    t += 3
    forecaster.forecast_at(t)
    forecaster.history.insert(t - 1, 1234.5)
    series[t - 1] = 1234.5
    fresh = RollingForecaster(cfg, g)
    fresh.ingest_history(series.items())
    assert forecaster.forecast_at(t + 1) == fresh.forecast_at(t + 1)


def test_consecutive_targets_behind_a_full_window():
    """Targets in order from below the window to past its end, on one
    forecaster, slide over subsets whose leaving and entering slots reach
    the window's oldest edge; each forecast equals a fresh forecaster's."""
    g = Granularity(3600)
    cfg = QbsdConfig(scheme=default_weekly_scheme(4, 4, g), c=1.0)
    capacity = cfg.scheme.span_slots + 24
    latest = 3 * capacity
    rng = random.Random(5)
    window = [(s, rng.gauss(100.0, 20.0)) for s in range(latest - capacity + 1, latest + 1)]
    forecaster = RollingForecaster(cfg, g, capacity_slots=capacity)
    forecaster.ingest_history(window)
    assert forecaster._edges is not None  # a scheme that slides
    for target in range(latest - capacity - 5, latest + 2):
        fresh = RollingForecaster(cfg, g, capacity_slots=capacity)
        fresh.ingest_history(window)
        got = _outcome(lambda: _exact((forecaster.forecast_at(target), None)))
        assert got == _outcome(lambda: _exact((fresh.forecast_at(target), None))), target


class CountingList(list):
    """A ring of cells that counts its reads and writes. A scan of many cells
    (a slice, ``count``, iteration) counts one read per cell it covers, so a
    whole-ring scan shows as ``capacity`` reads."""

    def __init__(self, cells):
        super().__init__(cells)
        self.reads = self.writes = 0

    def __getitem__(self, index):
        self.reads += len(range(*index.indices(len(self)))) if isinstance(index, slice) else 1
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.writes += len(range(*index.indices(len(self)))) if isinstance(index, slice) else 1
        super().__setitem__(index, value)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def count(self, value):
        self.reads += len(self)
        return super().count(value)


@pytest.mark.parametrize("coords", [False, True], ids=["int", "slotcoord"])
@pytest.mark.parametrize("weeks", [5, 520])
def test_in_order_prefill_writes_one_cell_per_value_and_reads_none(weeks, coords):
    """ingest_history of an in-order run writes each value's cell once and
    reads no cell, whatever the capacity."""
    g = Granularity(3600)
    cfg = QbsdConfig(scheme=default_weekly_scheme(4, 4, g), c=1.0)
    forecaster = RollingForecaster(cfg, g, capacity_slots=weeks * g.slots_per_week)
    ring = forecaster.history._values = CountingList(forecaster.history._values)
    rng = random.Random(1)
    n = cfg.scheme.span_slots + 30
    forecaster.ingest_history(
        (SlotCoord(s, g) if coords else s, rng.gauss(100.0, 20.0)) for s in range(n))
    assert (ring.reads, ring.writes) == (0, n)
    assert forecaster.history.latest == n - 1


@pytest.mark.parametrize("k", [1, 4], ids=["rebuild", "slide"])
def test_observe_reads_and_writes_as_many_cells_at_any_capacity(k, monkeypatch):
    """The paper's central claim as an exact count: each observe reads and
    writes as many ring cells with 520 weeks of history kept as with 5. An
    observe that slides the kept subset reads at most the leaving and the
    entering cell of each lag group; any other reads at most the subset."""
    slid = []
    real = RollingForecaster._slide

    def spy(self, base):
        moved = real(self, base)
        slid.append(moved)
        return moved

    monkeypatch.setattr(RollingForecaster, "_slide", spy)
    g = Granularity(3600)
    cfg = QbsdConfig(scheme=default_weekly_scheme(4, k, g), c=1.0)
    forecasters = [RollingForecaster(cfg, g, capacity_slots=weeks * g.slots_per_week)
                   for weeks in (5, 520)]
    assert all(f._edges is not None for f in forecasters) == (k == 4)
    rng = random.Random(1)
    start = cfg.scheme.span_slots + 30
    prefill = [(s, rng.gauss(100.0, 20.0)) for s in range(start)]
    for f in forecasters:
        f.ingest_history(prefill)
    rings = [CountingList(f.history._values) for f in forecasters]
    for f, ring in zip(forecasters, rings):
        f.history._values = ring
    stream = random.Random(2)
    for slot in range(start, start + 3000):
        if stream.random() < 0.02:
            continue  # a gap: the next observe clears this slot's cell
        value = stream.gauss(100.0, 20.0)
        counts = []
        for f, ring in zip(forecasters, rings):
            ring.reads = ring.writes = 0
            slid.clear()
            f.observe(slot, value)
            counts.append((ring.reads, ring.writes))
            # the stream holds no zero or NaN, so a slide that starts finishes
            bound = 2 * len(f._edges) if slid == [True] else cfg.scheme.subset_size
            assert ring.reads <= bound, (slot, slid)
        assert counts[0] == counts[1], slot
        assert counts[0][0] > 0 and counts[0][1] >= 1, slot


# ------------------------------------------------ int slots and SlotCoords

def _twin_forecasters(slide: bool, k: int, extra_capacity: int, min_samples: int):
    """Two identical forecasters on the slide path (weekly4 with k >= 3 and
    room beyond the span) or on the rebuild path (k <= 2, or a buffer of
    exactly the span, never slides)."""
    g = SIX_HOURLY
    scheme = default_weekly_scheme(4, k, g)
    cfg = QbsdConfig(scheme=scheme, c=1.0, min_samples=min(min_samples, scheme.subset_size))
    capacity = scheme.span_slots + (extra_capacity if slide or k <= 2 else 0)
    twins = [RollingForecaster(cfg, g, capacity_slots=capacity) for _ in range(2)]
    assert all((f._edges is not None) == slide for f in twins)
    return twins


def _points(seed: int, n: int, gap_rate: float, jump_rate: float, ties: bool):
    """``(slot, actual)`` points from slot 0, so the first span is warmup:
    mostly consecutive slots, some jumps, some gaps (None)."""
    rng = random.Random(seed)
    slot, points = 0, []
    for _ in range(n):
        actual = None
        if rng.random() >= gap_rate:
            actual = float(rng.randint(-1, 2)) if ties else rng.gauss(100.0, 20.0)
        points.append((slot, actual))
        slot += rng.randint(2, 60) if rng.random() < jump_rate else 1
    return points


def _reference_records(forecaster: RollingForecaster, points):
    """The record loop over SlotCoords, each record filled field by field."""
    g = forecaster.granularity
    records = []
    for slot, actual in points:
        t = SlotCoord(slot, g)
        record = StepRecord(slot, g, actual)
        try:
            if actual is None:
                fo = forecaster.forecast_at(t)
            else:
                residuals, fo = forecaster.observe(t, actual)
                record.diff_residual = residuals.difference
                record.norm_residual = residuals.normalized
            record.forecast = fo.forecast
            record.q1, record.q3, record.iqr = fo.q1, fo.q3, fo.iqr
            record.sample_count = fo.sample_count
            record.fallback_used = fo.fallback_used
        except (InsufficientHistory, InsufficientSpan):
            pass
        records.append(record)
    return records


INT_PATH_CASES = dict(
    k=st.integers(0, 6),
    extra_capacity=st.integers(1, 40),
    min_samples=st.integers(3, 27),
    gap_rate=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    jump_rate=st.sampled_from([0.0, 0.05, 0.3]),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@pytest.mark.parametrize("slide", [False, True], ids=["rebuild", "slide"])
@settings(max_examples=60, deadline=None)
@given(**INT_PATH_CASES)
def test_replay_over_int_slots_matches_slotcoord_loop(
    slide, k, extra_capacity, min_samples, gap_rate, jump_rate, ties, seed
):
    k = max(k, 3) if slide else k
    ints, coords = _twin_forecasters(slide, k, extra_capacity, min_samples)
    points = _points(seed, 150 + ints._span, gap_rate, jump_rate, ties)
    got = list(replay(ints, [(n, s, v) for n, (s, v) in enumerate(points, 1)], "points"))
    want = _reference_records(coords, points)
    assert got == want
    assert repr(got) == repr(want)  # a flipped zero sign shows in repr only
    assert all(type(r.global_slot) is int for r in got)
    assert [r.slot for r in got] == [SlotCoord(s, ints.granularity) for s, _ in points]


@pytest.mark.parametrize("slide", [False, True], ids=["rebuild", "slide"])
@settings(max_examples=60, deadline=None)
@given(**INT_PATH_CASES)
def test_forecast_at_int_equals_forecast_at_slotcoord(
    slide, k, extra_capacity, min_samples, gap_rate, jump_rate, ties, seed
):
    k = max(k, 3) if slide else k
    ints, coords = _twin_forecasters(slide, k, extra_capacity, min_samples)
    g = ints.granularity
    points = _points(seed, 150 + ints._span, gap_rate, jump_rate, ties)
    history = [(s, v) for s, v in points[: len(points) // 2] if v is not None]
    ints.ingest_history(history)
    coords.ingest_history((SlotCoord(s, g), v) for s, v in history)
    # consecutive targets over the written half and past it, then a jump back
    targets = [s for s, _ in points] + [0, ints._span, points[-1][0] + 5]
    for slot in targets:
        got = _outcome(lambda: _exact((ints.forecast_at(slot), None)))
        want = _outcome(lambda: _exact((coords.forecast_at(SlotCoord(slot, g)), None)))
        assert got == want, f"forecast_at({slot})"


@pytest.mark.parametrize("slide", [False, True], ids=["rebuild", "slide"])
def test_slotcoord_on_another_grid_raises_and_buffers_nothing(slide):
    f, _ = _twin_forecasters(slide, 4 if slide else 1, 10, 3)
    g, other = f.granularity, Granularity(3600)
    f.ingest_history(_points(1, f._span + 30, 0.0, 0.0, False))
    target = f._span + 30
    before = (f.history.writes, f.history.latest, f.forecast_at(target))
    with pytest.raises(GridMisaligned):
        f.forecast_at(SlotCoord(target, other))
    with pytest.raises(GridMisaligned):
        f.observe(SlotCoord(target, other), 1.0)
    with pytest.raises(GridMisaligned):
        f.ingest_history([(SlotCoord(target, other), 1.0)])
    # an int below the grid's start is rejected as SlotCoord(-1, g) is
    with pytest.raises(ValueError, match="global_slot must be >= 0"):
        f.observe(-1, 1.0)
    assert (f.history.writes, f.history.latest, f.forecast_at(target)) == before
    assert f.forecast_at(SlotCoord(target, g)) == before[2]
