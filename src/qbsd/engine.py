"""Per-series rolling state: a FIFO slot-keyed history window plus fit-free
forecasting, and a manager for many independent series.

There is no train/predict split: ``observe`` forecasts from what the buffer
already holds, computes residuals against the new value, and only then
inserts it, so a value can never influence its own forecast.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .core import ForecastOutput, QbsdConfig, Residuals, compute_residuals, quartile_forecast
from .errors import ConfigError, GridMisaligned, InsufficientHistory, InsufficientSpan, StaleSlot
from .timegrid import Granularity, SlotCoord

# Not called by the forecast path; importable from this module because
# perfbench/tracer.py looks them up here by name.
from .core import qbsd_step  # noqa: F401
from .timegrid import resolve_subset_slots  # noqa: F401


class SlidingHistory:
    """Bounded slot -> value map retaining the most recent ``capacity`` slots.

    A ring of ``capacity`` preallocated cells indexed by ``slot % capacity``:
    each cell holds a value and the slot id it was written for. A slot is
    present when its cell carries its id and it lies in the retained window
    ``(latest - capacity, latest]``, so advancing the window evicts older
    slots without touching them and every insert is O(1). Inserts may arrive
    out of order within the window; slots older than it are rejected. Memory
    is O(capacity) however sparse the series is.
    """

    __slots__ = ("capacity", "_values", "_ids", "_latest")

    def __init__(self, capacity_slots: int):
        if capacity_slots < 1:
            raise ConfigError(f"capacity must be >= 1 slot, got {capacity_slots}")
        self.capacity = capacity_slots
        self._values: list[float] = [0.0] * capacity_slots
        self._ids: list[Optional[int]] = [None] * capacity_slots  # None: never written
        self._latest: Optional[int] = None

    @property
    def latest(self) -> Optional[int]:
        return self._latest

    def insert(self, slot: int, value: float) -> None:
        latest = self._latest
        if latest is None or slot > latest:
            self._latest = slot
        elif slot <= latest - self.capacity:
            raise StaleSlot(
                f"slot {slot} is older than the retained window "
                f"(oldest kept: {latest - self.capacity + 1})"
            )
        cell = slot % self.capacity
        self._ids[cell] = slot
        self._values[cell] = value

    def get(self, slot: int) -> Optional[float]:
        latest = self._latest
        cell = slot % self.capacity
        if self._ids[cell] == slot and latest - self.capacity < slot <= latest:
            return self._values[cell]
        return None

    def gather(self, base: int, offsets: Sequence[int]) -> list[float]:
        """Values present at ``base + offset`` for each offset, in offset
        order; absent slots are skipped."""
        latest = self._latest
        if latest is None:
            return []
        oldest = latest - self.capacity
        capacity, ids, values = self.capacity, self._ids, self._values
        out = []
        for offset in offsets:
            slot = base + offset
            cell = slot % capacity
            # a stored id is never above latest, so only the lower edge is checked
            if ids[cell] == slot and slot > oldest:
                out.append(values[cell])
        return out

    def __contains__(self, slot: int) -> bool:
        return self.get(slot) is not None

    def __len__(self) -> int:
        """Number of retained slots; O(capacity)."""
        if self._latest is None:
            return 0
        oldest = self._latest - self.capacity
        return sum(1 for slot in self._ids if slot is not None and slot > oldest)


class RollingForecaster:
    """Rolling QBSD state for one series.

    The buffer capacity defaults to the scheme's deepest lag plus one week
    (28 days for the default 4-week scheme). Capacities down to the scheme
    span still support in-order observe streaming; a larger capacity changes
    memory use but never outputs.
    """

    def __init__(
        self,
        cfg: QbsdConfig,
        granularity: Granularity,
        capacity_slots: Optional[int] = None,
    ):
        scheme = cfg.scheme
        required = scheme.span_slots
        if capacity_slots is None:
            capacity_slots = scheme.max_lag_slots + max(
                granularity.slots_per_week, scheme.k + 1
            )
        elif capacity_slots < required:
            raise ConfigError(
                f"capacity {capacity_slots} is below the scheme span of "
                f"{required} slots"
            )
        self.cfg = cfg
        self.granularity = granularity
        self.history = SlidingHistory(capacity_slots)
        self._offsets = scheme.offsets
        self._span = required

    @property
    def latest_slot(self) -> Optional[SlotCoord]:
        latest = self.history.latest
        if latest is None:
            return None
        return SlotCoord(latest, self.granularity)

    def _check_aligned(self, t: SlotCoord) -> None:
        if t.granularity != self.granularity:
            raise GridMisaligned(
                f"slot on a {t.granularity.interval_seconds} s grid fed to a "
                f"{self.granularity.interval_seconds} s forecaster"
            )

    def ingest_history(self, batch: Iterable[tuple[SlotCoord, float]]) -> None:
        """Insert observed values; newest write wins on duplicate slots and
        anything pushed out of the window is evicted."""
        for t, value in batch:
            self._check_aligned(t)
            self.history.insert(t.global_slot, value)

    def forecast_at(self, t: SlotCoord) -> ForecastOutput:
        """Forecast for slot t from history alone. The output is identical
        whether or not a value at t (or later) has been observed."""
        self._check_aligned(t)
        base = t.global_slot
        if base < self._span:
            raise InsufficientSpan(
                f"slot {base} needs history {self._span} slots back, "
                "which falls before the epoch"
            )
        values = self.history.gather(base, self._offsets)
        return quartile_forecast(values, len(self._offsets), self.cfg)

    def observe(self, t: SlotCoord, value: float) -> tuple[Residuals, ForecastOutput]:
        """Forecast slot t, score the new value against it, then buffer the
        value. During warmup the value is still buffered before the error
        propagates."""
        try:
            fo = self.forecast_at(t)  # also checks that t is on this grid
        except (InsufficientHistory, InsufficientSpan):
            self.history.insert(t.global_slot, value)
            raise
        residuals = compute_residuals(value, fo, self.cfg.c)
        self.history.insert(t.global_slot, value)
        return residuals, fo


class MultiSeriesEngine:
    """Keyed collection of independent forecasters, created on first use.

    No state is shared between series, so disjoint series may be processed
    from different threads.
    """

    def __init__(self, factory: Callable[[], RollingForecaster]):
        self._factory = factory
        self._series: dict[str, RollingForecaster] = {}

    def forecaster(self, series_id: str) -> RollingForecaster:
        f = self._series.get(series_id)
        if f is None:
            f = self._factory()
            self._series[series_id] = f
        return f

    def forecast_at(self, series_id: str, t: SlotCoord) -> ForecastOutput:
        return self.forecaster(series_id).forecast_at(t)

    def observe(
        self, series_id: str, t: SlotCoord, value: float
    ) -> tuple[Residuals, ForecastOutput]:
        return self.forecaster(series_id).observe(t, value)

    def series_ids(self) -> list[str]:
        return sorted(self._series)

    def __len__(self) -> int:
        return len(self._series)
