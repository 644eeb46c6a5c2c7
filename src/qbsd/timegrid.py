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

PAST = "past"
SYMMETRIC = "symmetric"
FORWARD_INCLUSIVE = "forward_inclusive"

_SHAPES = (PAST, SYMMETRIC, FORWARD_INCLUSIVE)


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
class WindowKind:
    """Offsets sampled around a (lagged) target slot.

    ``past`` covers -k..-1, ``symmetric`` covers -k..+k, and
    ``forward_inclusive`` covers 0..+k.
    """

    shape: str
    k: int

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise InvalidScheme(f"unknown window shape {self.shape!r}")
        if self.k < 0:
            raise InvalidScheme(f"context period k must be >= 0, got {self.k}")

    @classmethod
    def past(cls, k: int) -> "WindowKind":
        return cls(PAST, k)

    @classmethod
    def symmetric(cls, k: int) -> "WindowKind":
        return cls(SYMMETRIC, k)

    @classmethod
    def forward_inclusive(cls, k: int) -> "WindowKind":
        return cls(FORWARD_INCLUSIVE, k)

    def offsets(self) -> range:
        if self.shape == PAST:
            return range(-self.k, 0)
        if self.shape == SYMMETRIC:
            return range(-self.k, self.k + 1)
        return range(0, self.k + 1)

    @property
    def size(self) -> int:
        return len(self.offsets())


@dataclass(frozen=True)
class LagSpec:
    """One sampled group: a lag (in slots) back from the target plus a window."""

    lag_slots: int
    window: WindowKind

    def __post_init__(self) -> None:
        if self.lag_slots < 0:
            raise InvalidScheme(f"lag_slots must be >= 0, got {self.lag_slots}")

    def resolved_offsets(self) -> list[int]:
        """Offsets relative to the target slot."""
        return [o - self.lag_slots for o in self.window.offsets()]


@dataclass(frozen=True)
class SeasonalityScheme:
    """Ordered lag groups defining the contextual subset.

    The first group must be the lag-0 past-only window (it may never touch the
    target slot or anything after it), and no two groups may overlap: every
    relative offset is sampled at most once.
    """

    lags: tuple[LagSpec, ...]

    def __post_init__(self) -> None:
        if not self.lags:
            raise InvalidScheme("scheme needs at least one lag group")
        head = self.lags[0]
        if head.lag_slots != 0 or head.window.shape != PAST:
            raise InvalidScheme(
                "the first lag group must be lag 0 with a past-only window"
            )
        offsets = self.offsets
        if not offsets:
            raise InvalidScheme("scheme selects no slots (all windows empty)")
        if len(set(offsets)) != len(offsets):
            raise InvalidScheme("lag groups overlap: resolved offsets collide")
        if max(offsets) >= 0:
            raise InvalidScheme(
                "scheme would read the target slot or later (offset "
                f"{max(offsets)}); lags are too short for this k"
            )

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """All resolved offsets, in lag-group order."""
        out: list[int] = []
        for lag in self.lags:
            out.extend(lag.resolved_offsets())
        return tuple(out)

    @property
    def subset_size(self) -> int:
        return len(self.offsets)

    @property
    def span_slots(self) -> int:
        """Deepest look-back, in slots."""
        return -min(self.offsets)

    @property
    def max_lag_slots(self) -> int:
        return max(lag.lag_slots for lag in self.lags)

    @property
    def k(self) -> int:
        return max(lag.window.k for lag in self.lags)


def scheme_from_lags(lag_slots: list[int], k: int) -> SeasonalityScheme:
    """Build a scheme from sorted lags (slots): past-only at lag 0, symmetric
    in between, forward-inclusive at the deepest lag.

    This shape samples every relative offset in -k..+k the same number of
    times, so no offset is over-represented in the quartiles.
    """
    if len(lag_slots) < 2:
        raise InvalidScheme("need at least two lags (lag 0 plus one seasonal lag)")
    if lag_slots[0] != 0:
        raise InvalidScheme("the first lag must be 0")
    if sorted(lag_slots) != list(lag_slots) or len(set(lag_slots)) != len(lag_slots):
        raise InvalidScheme("lags must be strictly increasing")
    lags = [LagSpec(0, WindowKind.past(k))]
    for lag in lag_slots[1:-1]:
        lags.append(LagSpec(lag, WindowKind.symmetric(k)))
    lags.append(LagSpec(lag_slots[-1], WindowKind.forward_inclusive(k)))
    return SeasonalityScheme(tuple(lags))


def default_weekly_scheme(n_weeks: int, k: int, g: Granularity) -> SeasonalityScheme:
    """Weekly scheme over the current week plus the previous ``n_weeks - 1``.

    With four weeks this selects k past-only samples from the current day,
    2k+1 around the same slot one and two weeks back, and k+1 from three
    weeks back: 6k+3 samples in total.
    """
    if n_weeks < 2:
        raise InvalidScheme(f"n_weeks must be >= 2, got {n_weeks}")
    week = g.slots_per_week
    return scheme_from_lags([w * week for w in range(n_weeks)], k)


def weekly_plus_yearly_scheme(k: int, g: Granularity) -> SeasonalityScheme:
    """Current week, one week back, and 364 days (52 exact weeks) back.

    364 rather than 365 keeps the yearly lag on the same day-of-week.
    """
    week = g.slots_per_week
    return scheme_from_lags([0, week, 52 * week], k)


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
