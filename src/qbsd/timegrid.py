"""Fixed-interval slot grid and the lag/window recipes for contextual subsets.

Timestamps are naive epoch seconds on a fixed grid. A calendar day is always
86400 s and a "week" is exactly ``7 * slots_per_day`` slots, so weekly lags
land on the same slot-of-day and day-of-week without any timezone or ISO-week
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError, GridMisaligned, InsufficientSpan, InvalidScheme

SECONDS_PER_DAY = 86400
# the grid ends where four-digit years do: 10000-01-01T00:00:00Z
GRID_END = 253402300800

@dataclass(frozen=True)
class Granularity:
    """Grid interval; must divide a day exactly."""

    interval_seconds: int

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0 or SECONDS_PER_DAY % self.interval_seconds:
            raise ConfigError(
                f"interval_seconds must be a positive divisor of {SECONDS_PER_DAY}, "
                f"got {self.interval_seconds}"
            )

    @property
    def slots_per_day(self) -> int:
        return SECONDS_PER_DAY // self.interval_seconds

    @property
    def slots_per_week(self) -> int:
        return 7 * self.slots_per_day


DAILY = Granularity(86400)
HOURLY = Granularity(3600)
QUARTER_HOURLY = Granularity(900)


@dataclass(frozen=True, slots=True, init=False)
class SlotCoord:
    """A position on the grid: slots since the epoch, plus calendar helpers.

    A frozen value object like the other grid types; its ``__init__`` is
    written out only to store the fields through the slot descriptors,
    which skips the frozen ``__setattr__`` path a generated one takes.
    """

    global_slot: int
    granularity: Granularity

    def __init__(self, global_slot: int, granularity: Granularity) -> None:
        if global_slot < 0:
            raise ValueError(f"global_slot must be >= 0, got {global_slot}")
        _set_global_slot(self, global_slot)
        _set_granularity(self, granularity)

    @property
    def day_index(self) -> int:
        return self.global_slot // self.granularity.slots_per_day

    @property
    def slot_of_day(self) -> int:
        return self.global_slot % self.granularity.slots_per_day

    @property
    def timestamp(self) -> int:
        """Epoch seconds of the slot boundary."""
        return self.global_slot * self.granularity.interval_seconds


_set_global_slot = SlotCoord.global_slot.__set__
_set_granularity = SlotCoord.granularity.__set__


def align(timestamp_epoch_seconds: int, g: Granularity) -> SlotCoord:
    """Map an epoch timestamp onto the grid; misaligned timestamps are rejected,
    never snapped (snapping would silently corrupt day-of-week alignment), and
    so are timestamps outside ``[0, GRID_END)``."""
    if timestamp_epoch_seconds < 0:
        raise GridMisaligned(
            f"timestamp {timestamp_epoch_seconds} is before the epoch; "
            "the grid starts at 0"
        )
    if timestamp_epoch_seconds >= GRID_END:
        raise GridMisaligned(
            f"timestamp {timestamp_epoch_seconds} is in year 10000 or later; "
            f"the grid ends at {GRID_END}"
        )
    slot, rem = divmod(timestamp_epoch_seconds, g.interval_seconds)
    if rem:
        raise GridMisaligned(
            f"timestamp {timestamp_epoch_seconds} is not a multiple of "
            f"{g.interval_seconds} s (off by {rem} s)"
        )
    return SlotCoord(slot, g)


@dataclass(frozen=True)
class SeasonalityScheme:
    """The contextual subset, set by the seasonal lags (in slots) and the
    context period k: the k slots before the target at lag 0, the 2k+1 slots
    centred on each middle lag, and the lag slot and the k after it at the
    deepest lag.

    This shape samples every relative offset in -k..+k the same number of
    times, so no offset is over-represented in the quartiles. No two lag
    windows may overlap: every relative offset is sampled at most once.
    """

    lag_slots: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        lags = tuple(self.lag_slots)
        object.__setattr__(self, "lag_slots", lags)
        if len(lags) < 2:
            raise InvalidScheme("need at least two lags (lag 0 plus one seasonal lag)")
        if lags[0] != 0:
            raise InvalidScheme("the first lag must be 0")
        if any(a >= b for a, b in zip(lags, lags[1:])):
            raise InvalidScheme("lags must be strictly increasing")
        if self.k < 0:
            raise InvalidScheme(f"context period k must be >= 0, got {self.k}")
        # This also keeps every offset below 0: a window at lag L >= 1 reaches
        # offset 0 only if k >= L, and then it and the lag-0 window both hold -1.
        if len(set(self.offsets)) != len(self.offsets):
            raise InvalidScheme("lag groups overlap: resolved offsets collide")

    @cached_property
    def groups(self) -> tuple[range, ...]:
        """The offsets from the target of each lag's window, in lag order."""
        k, deepest = self.k, self.lag_slots[-1]
        middle = (range(-lag - k, -lag + k + 1) for lag in self.lag_slots[1:-1])
        return (range(-k, 0), *middle, range(-deepest, -deepest + k + 1))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """All resolved offsets, in lag order."""
        return tuple(offset for group in self.groups for offset in group)

    @property
    def subset_size(self) -> int:
        return len(self.offsets)

    @property
    def span_slots(self) -> int:
        """Deepest look-back, in slots."""
        return -min(self.offsets)


def default_weekly_scheme(n_weeks: int, k: int, g: Granularity) -> SeasonalityScheme:
    """Weekly scheme over the current week plus the previous ``n_weeks - 1``.

    With four weeks this selects k past-only samples from the current day,
    2k+1 around the same slot one and two weeks back, and k+1 from three
    weeks back: 6k+3 samples in total.
    """
    if n_weeks < 2:
        raise InvalidScheme(f"n_weeks must be >= 2, got {n_weeks}")
    week = g.slots_per_week
    return SeasonalityScheme(tuple(w * week for w in range(n_weeks)), k)


def weekly_plus_yearly_scheme(k: int, g: Granularity) -> SeasonalityScheme:
    """Current week, one week back, and 364 days (52 exact weeks) back.

    364 rather than 365 keeps the yearly lag on the same day-of-week.
    """
    week = g.slots_per_week
    return SeasonalityScheme((0, week, 52 * week), k)


def resolve_subset_slots(t: SlotCoord, scheme: SeasonalityScheme) -> list[SlotCoord]:
    """Expand the scheme around a target slot. The target itself is never a
    member, so forecasts cannot leak the value being forecast."""
    base = t.global_slot
    if base + min(scheme.offsets) < 0:
        raise InsufficientSpan(
            f"slot {base} needs history {scheme.span_slots} slots back, "
            "which falls before the epoch"
        )
    g = t.granularity
    return [SlotCoord(base + off, g) for off in scheme.offsets]
