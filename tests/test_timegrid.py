import copy
import dataclasses
import pickle
from datetime import datetime, timezone
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsd.errors import GridMisaligned, InsufficientSpan, InvalidScheme
from qbsd.timegrid import (
    DAILY,
    GRID_END,
    QUARTER_HOURLY,
    Granularity,
    SeasonalityScheme,
    SlotCoord,
    align,
    default_weekly_scheme,
    resolve_subset_slots,
    weekly_plus_yearly_scheme,
)

def test_granularity_rejects_non_divisors():
    from qbsd.errors import ConfigError

    with pytest.raises(ConfigError):
        Granularity(7000)
    with pytest.raises(ConfigError):
        Granularity(0)
    assert Granularity(900).slots_per_day == 96
    assert Granularity(86400).slots_per_day == 1
    assert Granularity(3600).slots_per_week == 168


def test_align_examples():
    assert align(0, DAILY).global_slot == 0
    assert align(900, QUARTER_HOURLY).global_slot == 1
    with pytest.raises(GridMisaligned):
        align(420, QUARTER_HOURLY)
    with pytest.raises(GridMisaligned):
        align(-900, QUARTER_HOURLY)


def test_grid_ends_before_year_10000():
    last_day = datetime(9999, 12, 31, tzinfo=timezone.utc)
    assert GRID_END == last_day.timestamp() + 86400  # 10000-01-01T00:00:00Z
    assert align(GRID_END - 900, QUARTER_HOURLY).global_slot == GRID_END // 900 - 1
    for epoch in (GRID_END, GRID_END + 86400):
        with pytest.raises(GridMisaligned, match="year 10000 or later"):
            align(epoch, QUARTER_HOURLY)


def test_align_roundtrip():
    g = QUARTER_HOURLY
    for slot in (0, 1, 7, 96, 12345):
        coord = SlotCoord(slot, g)
        assert align(coord.timestamp, g) == coord


def test_slot_coord_calendar_fields():
    g = QUARTER_HOURLY
    c = SlotCoord(96 * 3 + 17, g)
    assert c.day_index == 3
    assert c.slot_of_day == 17
    assert c.global_slot == c.day_index * g.slots_per_day + c.slot_of_day
    with pytest.raises(ValueError):
        SlotCoord(-1, g)


class TestSlotCoordValue:
    """SlotCoord is a frozen value object: its written-out __init__ must keep
    everything the dataclass machinery gives the other grid types."""

    def test_equal_and_same_hash_by_value(self):
        a, b = SlotCoord(17, QUARTER_HOURLY), SlotCoord(17, Granularity(900))
        assert a == b and hash(a) == hash(b)
        assert a != SlotCoord(18, QUARTER_HOURLY)
        assert a != SlotCoord(17, DAILY)
        assert len({a, b, SlotCoord(18, QUARTER_HOURLY)}) == 2

    def test_frozen(self):
        c = SlotCoord(5, DAILY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.global_slot = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.granularity = QUARTER_HOURLY
        with pytest.raises(dataclasses.FrozenInstanceError):
            del c.global_slot
        with pytest.raises(dataclasses.FrozenInstanceError):
            del c.granularity
        assert c == SlotCoord(5, DAILY)

    def test_negative_slot_rejected_directly_and_through_replace(self):
        message = "global_slot must be >= 0, got -1"
        with pytest.raises(ValueError, match=message):
            SlotCoord(-1, DAILY)
        with pytest.raises(ValueError, match=message):
            SlotCoord(global_slot=-1, granularity=DAILY)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(SlotCoord(3, DAILY), global_slot=-1)
        assert dataclasses.replace(SlotCoord(3, DAILY), global_slot=4) == SlotCoord(4, DAILY)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SlotCoord)] == ["global_slot", "granularity"]
        assert dataclasses.astuple(SlotCoord(2, DAILY)) == (2, (86400,))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        c = SlotCoord(96 * 3 + 17, QUARTER_HOURLY)
        back = pickle.loads(pickle.dumps(c, protocol))
        assert back == c and hash(back) == hash(c)
        assert (back.day_index, back.slot_of_day) == (3, 17)

    def test_copy_round_trip(self):
        c = SlotCoord(96 * 3 + 17, QUARTER_HOURLY)
        for dup in (copy.copy(c), copy.deepcopy(c)):
            assert dup == c and hash(dup) == hash(c)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.deepcopy(c).global_slot = 0

    def test_repr(self):
        assert repr(SlotCoord(5, Granularity(3600))) == (
            "SlotCoord(global_slot=5, granularity=Granularity(interval_seconds=3600))"
        )


def test_window_sizes():
    # past-only at lag 0, symmetric at a middle lag, forward-inclusive at the
    # deepest; offsets below are taken relative to each lag
    assert [len(group) for group in SeasonalityScheme((0, 10, 20), 4).groups] == [4, 9, 5]
    two, one = SeasonalityScheme((0, 10, 20), 2), SeasonalityScheme((0, 10, 20), 1)
    assert list(two.groups[0]) == [-2, -1]
    assert [off + 10 for off in one.groups[1]] == [-1, 0, 1]
    assert [off + 20 for off in two.groups[2]] == [0, 1, 2]
    with pytest.raises(InvalidScheme):
        SeasonalityScheme((0, 10, 20), -1)


def test_default_weekly_scheme_shapes():
    scheme = default_weekly_scheme(4, 3, DAILY)
    # past-only, symmetric, symmetric, forward-inclusive
    assert scheme.groups == (range(-3, 0), range(-10, -3), range(-17, -10), range(-21, -17))
    assert scheme.lag_slots == (0, 7, 14, 21)
    assert scheme.subset_size == 6 * 3 + 3

    two = default_weekly_scheme(2, 3, DAILY)
    assert two.groups == (range(-3, 0), range(-7, -3))  # past-only, forward-inclusive
    assert two.lag_slots == (0, 7)

    with pytest.raises(InvalidScheme):
        default_weekly_scheme(1, 3, DAILY)


def test_six_week_scheme_size_by_enumeration():
    # window sizes 1 + 3 + 3 + 3 + 3 + 2 for k=1 over six weekly lags
    scheme = default_weekly_scheme(6, 1, DAILY)
    assert [len(group) for group in scheme.groups] == [1, 3, 3, 3, 3, 2]
    assert scheme.subset_size == 15


def test_resolve_hand_enumerated():
    # 1 slot per day => a "week" is 7 slots
    g = DAILY
    scheme = default_weekly_scheme(4, 1, g)
    slots = [c.global_slot for c in resolve_subset_slots(SlotCoord(100, g), scheme)]
    assert slots == [99, 92, 93, 94, 85, 86, 87, 79, 80]


def test_resolve_k0_is_pure_lags():
    g = DAILY
    scheme = default_weekly_scheme(4, 0, g)
    t = SlotCoord(50, g)
    slots = [c.global_slot for c in resolve_subset_slots(t, scheme)]
    assert slots == [50 - 7, 50 - 14, 50 - 21]


def test_resolve_sample_count_formula():
    g = QUARTER_HOURLY
    scheme = default_weekly_scheme(4, 4, g)
    got = resolve_subset_slots(SlotCoord(10000, g), scheme)
    assert len(got) == 27


def test_resolve_insufficient_span():
    g = DAILY
    scheme = default_weekly_scheme(4, 1, g)
    with pytest.raises(InsufficientSpan):
        resolve_subset_slots(SlotCoord(20, g), scheme)
    # deepest offset is -21 (forward-inclusive last lag), so slot 21 works
    assert resolve_subset_slots(SlotCoord(21, g), scheme)


def test_scheme_rejects_overlap_and_leakage():
    for lags, k, message in [
        ((0,), 1, r"need at least two lags \(lag 0 plus one seasonal lag\)"),
        ((7, 14), 1, "the first lag must be 0"),
        ((0, 7, 7), 1, "lags must be strictly increasing"),
        ((0, 14, 7), 1, "lags must be strictly increasing"),
        ((0, 7), -1, "context period k must be >= 0, got -1"),
        ((0, 1, 10), 2, "lag groups overlap: resolved offsets collide"),
        # a lag-1 window would read the target slot: it overlaps lag 0 first
        ((0, 1), 1, "lag groups overlap: resolved offsets collide"),
    ]:
        with pytest.raises(InvalidScheme, match=f"^{message}$"):
            SeasonalityScheme(lags, k)


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.integers(1, 40), min_size=1, max_size=5), k=st.integers(0, 25))
def test_scheme_is_accepted_exactly_when_its_windows_are_apart(gaps, k):
    lags = tuple(accumulate(gaps, initial=0))
    if 2 * k >= min(gaps):
        with pytest.raises(InvalidScheme, match="overlap"):
            SeasonalityScheme(lags, k)
        return
    scheme = SeasonalityScheme(lags, k)
    offsets = scheme.offsets
    assert len(set(offsets)) == len(offsets)
    assert all(off < 0 for off in offsets)
    assert scheme.subset_size == k + (2 * k + 1) * (len(lags) - 2) + (k + 1)
    assert scheme.span_slots == lags[-1]


def test_context_period_too_wide_for_weekly_lags():
    # k of 3.5 weeks makes adjacent lag windows collide
    with pytest.raises(InvalidScheme):
        default_weekly_scheme(4, 2400, QUARTER_HOURLY)


def test_weekly_plus_yearly_span():
    scheme = weekly_plus_yearly_scheme(2, DAILY)
    assert scheme.lag_slots == (0, 7, 364)
    # forward-inclusive yearly lag: deepest look-back is exactly 364 days
    assert scheme.span_slots == 364
    assert scheme.subset_size == 2 + 5 + 3


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 16), base=st.integers(0, 10_000))
def test_subset_size_law(k, base):
    g = QUARTER_HOURLY
    scheme = default_weekly_scheme(4, k, g)
    t = SlotCoord(3 * g.slots_per_week + k + base, g)
    slots = resolve_subset_slots(t, scheme)
    assert len(slots) == 6 * k + 3
    assert len({c.global_slot for c in slots}) == len(slots)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, 8),
    n_weeks=st.integers(2, 6),
    base=st.integers(0, 5_000),
)
def test_no_target_leakage(k, n_weeks, base):
    g = Granularity(3600)
    scheme = default_weekly_scheme(n_weeks, k, g)
    t = SlotCoord((n_weeks - 1) * g.slots_per_week + k + base, g)
    slots = [c.global_slot for c in resolve_subset_slots(t, scheme)]
    assert t.global_slot not in slots
    assert all(s < t.global_slot for s in slots)
    # lag-0 group sits strictly before the target
    lag0 = slots[: len(scheme.groups[0])]
    assert all(s <= t.global_slot - 1 for s in lag0)
