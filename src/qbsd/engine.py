"""Per-series rolling state: a FIFO slot-keyed history window plus fit-free
forecasting, and a manager for many independent series.

There is no train/predict split: ``observe`` forecasts from what the buffer
already holds, computes residuals against the new value, and only then
inserts it, so a value can never influence its own forecast.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, Optional, Union

from .core import (
    ForecastOutput,
    QbsdConfig,
    Residuals,
    compute_residuals,
    qbsd_step,
)
from .errors import ConfigError, GridMisaligned, InsufficientHistory, InsufficientSpan, StaleSlot
from .timegrid import Granularity, SeasonalityScheme, SlotCoord, resolve_subset_slots

# A target slot: a plain int global slot, taken to be on the forecaster's
# grid, or a SlotCoord, whose grid is checked.
Slot = Union[SlotCoord, int]


def default_capacity(scheme: SeasonalityScheme, granularity: Granularity) -> int:
    """The retained window, in slots, when none is given: the scheme's
    deepest lag plus one week (28 days for the 4-week scheme), or plus
    k + 1 slots if that is longer."""
    return scheme.lag_slots[-1] + max(granularity.slots_per_week, scheme.k + 1)


class SlidingHistory:
    """Bounded slot -> value map retaining the most recent ``capacity`` slots.

    One ring of ``capacity`` preallocated cells indexed by ``slot % capacity``.
    Every cell belongs to the one slot of the retained window
    ``(latest - capacity, latest]`` that maps to it and holds that slot's
    value, or None when the slot is absent. An insert that moves ``latest``
    forward by more than one slot clears the cells of the slots it skips, so
    every insert is O(1) amortised, and a slot is present exactly when it
    lies in the window and its cell is not None. Inserts may arrive out of
    order within the window; slots older than it are rejected. Any float,
    NaN included, can be stored. Memory is O(capacity) however sparse the
    series is.

    ``writes`` counts successful inserts, so a reader can tell whether
    anything changed since it last looked.
    """

    __slots__ = ("capacity", "_values", "_latest", "writes")

    def __init__(self, capacity_slots: int):
        if capacity_slots < 1:
            raise ConfigError(f"capacity must be >= 1 slot, got {capacity_slots}")
        self.capacity = capacity_slots
        self._values: list[Optional[float]] = [None] * capacity_slots
        self._latest: Optional[int] = None
        self.writes = 0

    @property
    def latest(self) -> Optional[int]:
        return self._latest

    def insert(self, slot: int, value: float) -> None:
        latest = self._latest
        capacity = self.capacity
        if latest is None:
            self._latest = slot
        elif slot > latest:
            if slot > latest + 1:
                # clear the skipped slots' cells; a jump of a whole capacity
                # or more clears every cell but the new slot's
                values = self._values
                for skipped in range(max(latest, slot - capacity) + 1, slot):
                    values[skipped % capacity] = None
            self._latest = slot
        elif slot <= latest - capacity:
            self.check_fresh(slot)  # raises
        self._values[slot % capacity] = value
        self.writes += 1

    def check_fresh(self, slot: int) -> None:
        """Raise ``StaleSlot`` if the window has already passed ``slot``."""
        latest = self._latest
        if latest is not None and slot <= latest - self.capacity:
            raise StaleSlot(f"slot {slot} is older than the retained window "
                            f"(oldest kept: {latest - self.capacity + 1})")

    def get(self, slot: int) -> Optional[float]:
        latest = self._latest
        if latest is None or not latest - self.capacity < slot <= latest:
            return None
        return self._values[slot % self.capacity]

    def __contains__(self, slot: int) -> bool:
        return self.get(slot) is not None

    def __len__(self) -> int:
        """Number of retained slots; O(capacity)."""
        return self.capacity - self._values.count(None)


class RollingForecaster:
    """Rolling QBSD state for one series.

    The buffer capacity defaults to ``default_capacity(scheme, granularity)``.
    Capacities down to the scheme span still support in-order observe
    streaming; a larger capacity changes memory use but never outputs.

    A target slot is a ``SlotCoord``, whose grid must be this forecaster's,
    or a plain int global slot, taken to be on this grid without a check;
    the CLI's row loops pass ints.

    A forecast reads the target's present subset values from the history
    ring into one list and sorts it. On a wide scheme the forecaster keeps
    that sorted subset, and when the next target is the slot after the last
    one it slides the list instead: each lag group's window moves by one
    slot, so one value leaves it (``bisect_left`` + ``del``) and one enters
    (``insort``). That costs O(lag groups) list operations, not O(6k+3), and
    yields exactly the list a rebuild sorts, so outputs are unchanged.
    ``forecast_at`` is still a pure function of the history, but it updates
    this per-forecaster state: one forecaster must not be called from two
    threads at once.
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
            capacity_slots = default_capacity(scheme, granularity)
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
        # Per non-empty lag group, the offsets from the new target of the
        # slot that leaves the group's window and of the slot that enters it.
        edges = [(group[0] - 1, group[-1]) for group in scheme.groups if group]
        # Sliding costs a bisect, a del and an insort per lag group; reading
        # and sorting cost about one cell read and compare per sample. In two
        # sweeps of weekly4, weekly6, weekly_plus_yearly and two-lag schemes
        # (k = 1..16, interleaved runs, Python 3.11 on a shared 2-core x86-64
        # host) the slide cost up to 22% more at 1.5-2.5 samples per group
        # (weekly4 k=1: 9 in 4), 2-13% less at 3.3-4.7 and 16-28% less at
        # 5.2-6.8 (weekly4 k=4: 27 in 4); the threshold of 4 keeps a margin
        # above the break-even near 2.5-3. With capacity == span the write at
        # target - 1 can evict a leaving value before it is taken out, so
        # such a buffer never slides.
        slides = len(self._offsets) >= 4 * len(edges) and capacity_slots > required
        self._edges: Optional[tuple[tuple[int, int], ...]] = tuple(edges) if slides else None
        self._ordered: list[float] = []  # sorted subset of target self._base
        self._base: Optional[int] = None  # None: no subset kept
        self._writes = 0  # history.writes when self._ordered was current

    def _on_grid(self, t: SlotCoord) -> int:
        """The global slot of t, once t's grid is checked to equal this one.
        Callers first test identity, inline: it is nearly always this
        forecaster's own grid object, and == builds tuples."""
        if t.granularity != self.granularity:
            raise GridMisaligned(
                f"slot on a {t.granularity.interval_seconds} s grid fed to a "
                f"{self.granularity.interval_seconds} s forecaster"
            )
        return t.global_slot

    def ingest_history(self, batch: Iterable[tuple[Slot, float]]) -> None:
        """Insert observed values; newest write wins on duplicate slots and
        anything pushed out of the window is evicted. An in-order run costs
        one ring write per value; an int slot is passed through as it is."""
        g, on_grid, insert = self.granularity, self._on_grid, self.history.insert
        for t, value in batch:
            if isinstance(t, SlotCoord):
                t = t.global_slot if t.granularity is g else on_grid(t)
            insert(t, value)

    def forecast_at(self, t: Slot) -> ForecastOutput:
        """Forecast for slot t from history alone. The output is identical
        whether or not a value at t (or later) has been observed."""
        if isinstance(t, SlotCoord):
            t = t.global_slot if t.granularity is self.granularity else self._on_grid(t)
        base = t
        if base < self._span:
            # drop the kept subset: observe buffers base anyway, and base may lie in it
            self._base = None
            # raises: ValueError below slot 0, InsufficientSpan otherwise
            resolve_subset_slots(SlotCoord(base, self.granularity), self.cfg.scheme)
        history = self.history
        edges = self._edges
        if edges is not None:
            writes = history.writes
            # Slide only from the previous target, and only if the history is
            # unchanged since then apart from observe's own write of that
            # target (self._writes counts it); anything else rebuilds.
            slid = base - 1 == self._base and writes == self._writes and self._slide(base)
            self._base, self._writes = base, writes
            if slid:
                return qbsd_step(self._ordered, len(self._offsets), self.cfg)
        # the present values in offset order, sorted in place: the sort is
        # stable, so 0.0 and -0.0 keep their offset order
        ordered = []
        latest = history._latest
        if latest is not None:
            values, capacity, offsets = history._values, history.capacity, self._offsets
            # offsets lie in [-span, 0) and span <= capacity, so r + offset is
            # a valid (maybe negative) index of slot base + offset's cell
            r = base % capacity
            lo, hi = latest - capacity - base, latest - base
            if not (lo < -self._span and hi >= -1):  # not all in the window
                offsets = [offset for offset in offsets if lo < offset <= hi]
            for offset in offsets:
                value = values[r + offset]
                if value is not None:
                    ordered.append(value)
            ordered.sort()
        if edges is not None:
            self._ordered = ordered
            total = sum(ordered)
            if total != total or latest is None:
                # keep no subset: a NaN (or +inf with -inf) is present, which
                # bisect cannot place where sort() does, or the history is
                # empty and has no window to slide
                self._base = None
        return qbsd_step(ordered, len(self._offsets), self.cfg)

    def _slide(self, base: int) -> bool:
        """Move the sorted subset from target base - 1 to base in place.

        Returns False, leaving the list to be rebuilt, when a value that
        leaves or enters is a zero or a NaN: bisect treats 0.0 and -0.0 as
        equal where the stable sort keeps them in offset order, and cannot
        place a NaN at all. Every other pair of equal floats is bit-identical,
        so the slid list equals a rebuilt one element by element.
        """
        history = self.history
        values, capacity = history._values, history.capacity
        latest = history._latest
        oldest = latest - capacity
        ordered = self._ordered
        for leave, enter in self._edges:
            slot = base + leave
            value = values[slot % capacity] if oldest < slot <= latest else None
            if value is not None:
                if not (value > 0.0 or value < 0.0):
                    return False
                del ordered[bisect_left(ordered, value)]
            slot = base + enter
            value = values[slot % capacity] if oldest < slot <= latest else None
            if value is not None:
                if not (value > 0.0 or value < 0.0):
                    return False
                insort(ordered, value)
        return True

    def observe(self, t: Slot, value: float) -> tuple[Residuals, ForecastOutput]:
        """Forecast slot t, score the new value against it, then buffer the
        value. During warmup the value is still buffered before the error
        propagates."""
        if isinstance(t, SlotCoord):
            t = t.global_slot if t.granularity is self.granularity else self._on_grid(t)
        try:
            fo = self.forecast_at(t)
        except (InsufficientHistory, InsufficientSpan):
            self.history.insert(t, value)
            self._writes = self.history.writes
            raise
        residuals = compute_residuals(value, fo, self.cfg.c)
        self.history.insert(t, value)
        # t enters the next target's subset: the slide takes it from the ring
        self._writes = self.history.writes
        return residuals, fo


class MultiSeriesEngine:
    """Keyed collection of independent forecasters, created on first use.

    No state is shared between series, so disjoint series may be processed
    from different threads; one series must not be.
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

    def forecast_at(self, series_id: str, t: Slot) -> ForecastOutput:
        return self.forecaster(series_id).forecast_at(t)

    def observe(
        self, series_id: str, t: Slot, value: float
    ) -> tuple[Residuals, ForecastOutput]:
        # the dict read inline: no forecaster() call on a known id
        f = self._series.get(series_id)
        if f is None:
            f = self.forecaster(series_id)
        return f.observe(t, value)

    def series_ids(self) -> list[str]:
        return sorted(self._series)

    def __len__(self) -> int:
        return len(self._series)
