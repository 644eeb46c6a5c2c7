"""Reference forecasters for harness comparisons.

These obey the same no-leakage contract as the quartile forecaster: a
forecast for slot t only ever reads slots strictly before t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Protocol, Union

from .errors import ConfigError, InsufficientHistory


class HistoryView(Protocol):
    def get(self, slot: int) -> float | None: ...


@dataclass(frozen=True)
class SeasonalNaive:
    """Forecast the value one season back, e.g. the same slot last week."""

    season_slots: int
    name: ClassVar[str] = "seasonal-naive"

    def __post_init__(self) -> None:
        if self.season_slots < 1:
            raise ConfigError(f"season_slots must be >= 1, got {self.season_slots}")

    def forecast(self, history: HistoryView, slot: int) -> float:
        lagged = slot - self.season_slots
        value = history.get(lagged) if lagged >= 0 else None
        if value is None:
            raise InsufficientHistory(f"{self.name} needs a value at slot {lagged}")
        return value


@dataclass(frozen=True)
class Persistence(SeasonalNaive):
    """Forecast the previous slot's value: a season of one slot. Equality
    is per class, so it is never equal to ``SeasonalNaive(1)``."""

    season_slots: int = field(default=1, init=False, repr=False)
    name: ClassVar[str] = "persistence"


@dataclass(frozen=True)
class MovingAverage:
    """Forecast the mean of the trailing window."""

    window_slots: int

    def __post_init__(self) -> None:
        if self.window_slots < 1:
            raise ConfigError(f"window_slots must be >= 1, got {self.window_slots}")

    def forecast(self, history: HistoryView, slot: int) -> float:
        # summed left to right: from 3.12 on, the built-in sum() of floats is
        # compensated and would round some means differently
        total = 0.0
        count = 0
        for s in range(max(0, slot - self.window_slots), slot):
            value = history.get(s)
            if value is not None:
                total += value
                count += 1
        if not count:
            raise InsufficientHistory(
                f"moving average found no values in the {self.window_slots} slots "
                f"before slot {slot}"
            )
        return total / count


BaselineSpec = Union[SeasonalNaive, MovingAverage]


def baseline_forecast(history: HistoryView, slot: int, spec: BaselineSpec) -> float:
    """``spec``'s forecast for global slot ``slot``: the one call every
    caller makes, and the name the benchmark's tracer times."""
    return spec.forecast(history, slot)
