"""CSV ingestion, evaluation-protocol descriptors, a synthetic KPI generator,
and the moving-training-window harness.

The harness replays a series through the streaming engine: for every test
slot only the trailing training window of history is visible, the forecast is
recorded before the actual value is buffered, and slots that cannot be
forecast (heavy missing data, warmup) are skipped and counted rather than
silently guessed.
"""

from __future__ import annotations

import csv
import math
import operator
import os
import random
import re
import struct
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import compress, islice
from typing import Iterable, Iterator, Optional, Sequence

from .baselines import BaselineSpec, baseline_forecast
from .core import (
    DEFAULT_C_FLOOR_CONTINUOUS,
    QbsdConfig,
    contingency_constant,
)
from .engine import RollingForecaster, SlidingHistory
from .errors import (
    ConfigError,
    DataError,
    DuplicateTimestamp,
    GridMisaligned,
    InsufficientHistory,
    InsufficientSpan,
    ParseError,
)
from .metrics import EvalPairs, MetricsReport, evaluate
from .timegrid import (
    DAILY,
    GRID_END,
    Granularity,
    HOURLY,
    QUARTER_HOURLY,
    SECONDS_PER_DAY,
    SeasonalityScheme,
    SlotCoord,
    align,
    default_weekly_scheme,
    weekly_plus_yearly_scheme,
)


# Canonical ``YYYY-MM-DDTHH:MM:SS`` timestamps are split into a date part and
# a clock part, each converted once and remembered; the epoch is their sum.
# A part is converted without the general parser, and a part that is not a
# valid date or clock is neither converted nor cached, so the whole string
# goes to the general parser and fails there exactly as before. The caches
# only memoise pure functions, so every caller and thread may share them. A
# full cache is emptied and refilled.
_DATE = re.compile(r"(\d{4})-(\d{2})-(\d{2})", re.ASCII)
_CLOCK = re.compile(r"(\d{2}):(\d{2}):(\d{2})", re.ASCII)
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_DATE_CACHE_LIMIT = 4096  # days, about 11 years
_CLOCK_CACHE_LIMIT = SECONDS_PER_DAY  # every clock of a day
_date_seconds: dict[str, int] = {}
_clock_seconds: dict[str, int] = {}
_day_prefix: dict[int, str] = {}
_clock_text: dict[int, str] = {}


def parse_timestamp(text: str) -> int:
    """Epoch seconds from an integer literal or an RFC 3339 timestamp.

    Naive timestamps are taken as UTC; offsets are honored. Only whole
    seconds are representable on the grid. The canonical
    ``YYYY-MM-DDTHH:MM:SS`` form is answered from its cached date and clock
    parts; every other form goes through the general parser below.
    """
    if len(text) == 19 and text[10] == "T":
        day = _date_seconds.get(text[:10])
        if day is None:
            day = _date_part(text[:10])
        if day is not None:
            clock = _clock_seconds.get(text[11:])
            if clock is None:
                clock = _clock_part(text[11:])
            if clock is not None:
                return day + clock
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    iso = text.replace("Z", "+00:00")
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError as exc:
        raise ParseError(f"unparseable timestamp {text!r}") from exc
    if dt.microsecond:
        raise GridMisaligned(f"timestamp {text!r} has sub-second precision")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _remember(cache: dict, key, value, limit: int) -> None:
    if len(cache) >= limit:
        cache.clear()
    cache[key] = value


def _date_part(text: str) -> Optional[int]:
    """Epoch seconds of UTC midnight of a ``YYYY-MM-DD`` date, or None."""
    match = _DATE.fullmatch(text)
    if match is None:
        return None
    try:
        ordinal = date(*map(int, match.groups())).toordinal()
    except ValueError:  # month 13, February 30, year 0, ...
        return None
    seconds = (ordinal - _EPOCH_ORDINAL) * SECONDS_PER_DAY
    _remember(_date_seconds, text, seconds, _DATE_CACHE_LIMIT)
    return seconds


def _clock_part(text: str) -> Optional[int]:
    """Seconds after midnight of an ``HH:MM:SS`` clock, or None."""
    match = _CLOCK.fullmatch(text)
    if match is None:
        return None
    hours, minutes, seconds = map(int, match.groups())
    if hours > 23 or minutes > 59 or seconds > 59:
        return None
    seconds += hours * 3600 + minutes * 60
    _remember(_clock_seconds, text, seconds, _CLOCK_CACHE_LIMIT)
    return seconds


def format_timestamp(epoch_seconds: int) -> str:
    """``YYYY-MM-DDTHH:MM:SS`` in UTC of an integer epoch, built from a cached
    per-day prefix and a cached clock string."""
    day, second = divmod(operator.index(epoch_seconds), SECONDS_PER_DAY)
    prefix = _day_prefix.get(day)
    if prefix is None:
        midnight = date.fromordinal(day + _EPOCH_ORDINAL)
        # strftime pads %Y before year 1000 on some platforms only; keep its text
        if midnight.year >= 1000:
            prefix = midnight.isoformat() + "T"
        else:
            prefix = midnight.strftime("%Y-%m-%dT")
        _remember(_day_prefix, day, prefix, _DATE_CACHE_LIMIT)
    clock = _clock_text.get(second)
    if clock is None:
        hours, rest = divmod(second, 3600)
        clock = f"{hours:02d}:{rest // 60:02d}:{rest % 60:02d}"
        _remember(_clock_text, second, clock, _CLOCK_CACHE_LIMIT)
    return prefix + clock


@contextmanager
def series_rows(
    path: str, timestamp_column: str, value_column: str
) -> Iterator[Iterator[tuple[int, str, Optional[float], str]]]:
    """Open a headered CSV and yield an iterator over its data rows.

    The header is checked and resolved to column indices on entry. Each row
    comes out as ``(number, raw_timestamp, value, bad_value)``: ``value`` is
    the finite float in the value cell, or None for a gap (a blank or
    non-finite cell); ``bad_value`` is the stripped cell text when the cell
    is not a number at all, else "". Rows behave as in ``csv.DictReader``:
    blank lines are skipped, missing cells of a short row are blank, and a
    repeated header name means its last column. ``number`` is the physical
    line the row ends on (``csv.reader.line_num``), so blank lines and
    quoted cells spanning lines are counted.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None) or []
        for column in (timestamp_column, value_column):
            if column not in header:
                raise ParseError(
                    f"{path}: column {column!r} not found in header {header}"
                )
        last = {name: index for index, name in enumerate(header)}
        yield _series_cells(reader, last[timestamp_column], last[value_column])


def _series_cells(
    reader, ts_index: int, value_index: int
) -> Iterator[tuple[int, str, Optional[float], str]]:
    isfinite = math.isfinite
    width = max(ts_index, value_index) + 1
    for row in reader:
        if not row:
            continue
        number = reader.line_num
        if len(row) < width:
            row += [""] * (width - len(row))
        try:
            value = float(row[value_index])
        except ValueError:
            yield number, row[ts_index], None, row[value_index].strip()
            continue
        if isfinite(value):
            yield number, row[ts_index], value, ""
        else:
            yield number, row[ts_index], None, ""


@dataclass(frozen=True)
class SeriesFrame:
    """A gridded series, sorted by slot; gaps are simply absent slots. The
    columns are any sequences; ``load_csv`` reads ``array('q')`` slots and
    ``array('d')`` values."""

    granularity: Granularity
    slots: Sequence[int]
    values: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.slots) != len(self.values):
            raise ValueError("slots and values must have the same length")
        if any(b <= a for a, b in zip(self.slots, self.slots[1:])):
            raise ValueError("slots must be strictly increasing")

    @classmethod
    def _checked(
        cls, granularity: Granularity, slots: Sequence[int], values: Sequence[float]
    ) -> "SeriesFrame":
        """A frame of columns its caller has already checked, built without
        ``__post_init__``'s O(n) scans."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "granularity", granularity)
        object.__setattr__(frame, "slots", slots)
        object.__setattr__(frame, "values", values)
        return frame

    def __len__(self) -> int:
        return len(self.slots)

    def pairs(self) -> Iterator[tuple[SlotCoord, float]]:
        g = self.granularity
        for slot, value in zip(self.slots, self.values):
            yield SlotCoord(slot, g), value


def numbered_points(
    rows: Iterable[tuple[int, str, Optional[float], str]], path: str, g: Granularity
) -> Iterator[tuple[int, int, Optional[float]]]:
    """``series_rows`` rows as ``(line, global slot, value)`` points on grid
    g, the value None for a gap. A malformed row raises with its
    ``path:line``."""
    interval = g.interval_seconds
    for number, raw_ts, value, bad_value in rows:
        try:
            epoch = parse_timestamp(raw_ts)
            slot, rem = divmod(epoch, interval)
            if rem or slot < 0 or epoch >= GRID_END:
                align(epoch, g)  # raises: off the grid or outside its years
        except DataError as exc:
            raise type(exc)(f"{path}:{number}: {exc}") from exc
        if bad_value:
            raise ParseError(f"{path}:{number}: bad value {bad_value!r}")
        yield number, slot, value


_SLOT_VALUE = operator.itemgetter(1, 2)


def points(
    rows: Iterable[tuple[int, str, Optional[float], str]], path: str, g: Granularity
) -> Iterator[tuple[int, Optional[float]]]:
    """``numbered_points`` as ``(global slot, value)`` points."""
    return map(_SLOT_VALUE, numbered_points(rows, path, g))


def load_csv(
    path: str,
    timestamp_column: str,
    value_column: str,
    granularity: Granularity,
) -> SeriesFrame:
    """Read a headered CSV into a SeriesFrame, in one pass.

    Rows are sorted by slot; duplicate timestamps are rejected, naming the
    lowest duplicated slot; a row with an empty or non-finite value cell is
    a gap, once its timestamp is checked. The frame holds an ``array('q')``
    of slots and an ``array('d')`` of values, 16 B a row. Only a row at or
    before its predecessor makes the columns be sorted, in memory, through
    an index permutation.
    """
    slots, values = array("q"), array("d")
    add_slot, add_value = slots.append, values.append
    last = last_line = -1
    in_order, duplicate = True, None
    with series_rows(path, timestamp_column, value_column) as cells:
        for line, slot, value in numbered_points(cells, path, granularity):
            if value is None:
                continue
            if slot <= last and in_order:
                if slot < last:
                    in_order = False
                elif duplicate is None:
                    duplicate = slot, last_line, line
            last, last_line = slot, line
            add_slot(slot)
            add_value(value)
    if not in_order:
        order = sorted(range(len(slots)), key=slots.__getitem__)
        slots = array("q", map(slots.__getitem__, order))
        values = array("d", map(values.__getitem__, order))
        duplicate = next(((a, None, None) for a, b in zip(slots, islice(slots, 1, None))
                          if a == b), None)
    if duplicate is not None:
        slot, first, second = duplicate
        if first is None and os.path.isfile(path):
            # out of order, the lines are found by reading the file again, so
            # a clean load pays nothing for them; a pipe cannot be read again
            with series_rows(path, timestamp_column, value_column) as cells:
                first, second = islice((line for line, s, value
                                        in numbered_points(cells, path, granularity)
                                        if s == slot and value is not None), 2)
        where, also = path, ""
        if first is not None:
            where, also = f"{path}:{second}", f" (first at line {first})"
        raise DuplicateTimestamp(
            f"{where}: slot {slot} ({format_timestamp(slot * granularity.interval_seconds)}) "
            f"appears more than once{also}"
        )
    return SeriesFrame._checked(granularity, slots, values)


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic KPI-like series: a daily profile scaled per day-of-week,
    optional Gaussian noise, and explicit additive anomaly injections."""

    days: int = 56
    slots_per_day: int = 96
    base: float = 100.0
    amplitude: float = 900.0
    weekday_scale: float = 1.0
    weekend_scale: float = 0.6
    noise_std: float = 0.0
    anomalies: tuple[tuple[int, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ConfigError(f"days must be >= 1, got {self.days}")
        if self.slots_per_day < 1 or SECONDS_PER_DAY % self.slots_per_day:
            raise ConfigError(
                f"slots_per_day must be a positive divisor of {SECONDS_PER_DAY}, "
                f"got {self.slots_per_day}"
            )
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        for name in ("base", "amplitude", "weekday_scale", "weekend_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        n = self.days * self.slots_per_day
        seen = set()
        for slot, magnitude in self.anomalies:
            if not 0 <= slot < n:
                raise ConfigError(f"anomaly slot {slot} is outside [0, {n})")
            if slot in seen:
                raise ConfigError(f"anomaly slot {slot} is given twice")
            if not math.isfinite(magnitude):
                raise ConfigError(f"anomaly at slot {slot} must be finite, got {magnitude}")
            seen.add(slot)

    @property
    def granularity(self) -> Granularity:
        return Granularity(SECONDS_PER_DAY // self.slots_per_day)


def generate_synthetic(spec: SynthSpec) -> SeriesFrame:
    spd = spec.slots_per_day
    # the daily profile: low overnight, peaking mid-day
    profile = [spec.base + spec.amplitude * math.sin(math.pi * i / spd) ** 2 for i in range(spd)]
    rng = random.Random(spec.seed)
    injections = dict(spec.anomalies)
    n = spec.days * spec.slots_per_day
    values = []
    for slot in range(n):
        day = slot // spec.slots_per_day
        scale = spec.weekend_scale if day % 7 in (5, 6) else spec.weekday_scale
        value = profile[slot % spec.slots_per_day] * scale
        if spec.noise_std:
            value += rng.gauss(0.0, spec.noise_std)
        value += injections.get(slot, 0.0)
        if not math.isfinite(value):  # finite parameters, but their product overflows
            raise ConfigError(f"synthetic value at slot {slot} overflows to {value}")
        values.append(value)
    return SeriesFrame(
        granularity=spec.granularity,
        slots=tuple(range(n)),
        values=tuple(values),
    )


@dataclass(frozen=True)
class DatasetDescriptor:
    """Evaluation recipe for one series: grid, columns, training window,
    context period, scheme, and the test range (inclusive epoch seconds)."""

    name: str
    frequency: Granularity
    timestamp_column: str
    target_column: str
    train_window_seconds: int
    k_seconds: int
    scheme: SeasonalityScheme
    test_range: tuple[int, int]

    def __post_init__(self) -> None:
        interval = self.frequency.interval_seconds
        if self.k_seconds != self.scheme.k * interval:
            raise ConfigError(
                f"{self.name}: k of {self.k_seconds} s is not the scheme's k of "
                f"{self.scheme.k} slots ({self.scheme.k * interval} s)"
            )
        if self.train_window_seconds % interval:
            raise ConfigError(
                f"{self.name}: training window is not a whole number of slots"
            )
        if self.train_window_slots < self.scheme.span_slots:
            raise ConfigError(
                f"{self.name}: training window of {self.train_window_slots} slots "
                f"is below the scheme span of {self.scheme.span_slots}"
            )
        start, end = self.test_range
        if start > end:
            raise ConfigError(f"{self.name}: empty test range")
        if start % interval or end % interval:
            raise ConfigError(f"{self.name}: test range is off the grid")

    @property
    def k_slots(self) -> int:
        return self.scheme.k

    @property
    def train_window_slots(self) -> int:
        return self.train_window_seconds // self.frequency.interval_seconds

    @property
    def test_slot_range(self) -> tuple[int, int]:
        interval = self.frequency.interval_seconds
        return self.test_range[0] // interval, self.test_range[1] // interval

    def qbsd_config(
        self,
        c: float = 1.0,
        min_samples: Optional[int] = None,
    ) -> QbsdConfig:
        return QbsdConfig(scheme=self.scheme, c=c, min_samples=min_samples)


_DAY = SECONDS_PER_DAY
_WEEK = 7 * _DAY


def builtin_descriptors() -> tuple[DatasetDescriptor, ...]:
    """Descriptors for the public evaluation datasets plus the synthetic one.

    Month-sized training windows are 28 days and year-sized ones 364 days
    (whole weeks, so weekly lags always stay inside the window).
    """
    descriptors = [
        DatasetDescriptor(
            name="births2015",
            frequency=DAILY,
            timestamp_column="date",
            target_column="births",
            train_window_seconds=6 * _WEEK,
            k_seconds=1 * _DAY,
            scheme=default_weekly_scheme(6, 1, DAILY),
            test_range=(parse_timestamp("2015-02-01"), parse_timestamp("2015-02-28")),
        ),
        DatasetDescriptor(
            name="electricity_demand",
            frequency=DAILY,
            timestamp_column="date",
            target_column="demand",
            train_window_seconds=52 * _WEEK,
            k_seconds=2 * _DAY,
            scheme=weekly_plus_yearly_scheme(2, DAILY),
            test_range=(parse_timestamp("2016-01-01"), parse_timestamp("2016-01-31")),
        ),
        DatasetDescriptor(
            name="bitcoin",
            frequency=DAILY,
            timestamp_column="date",
            target_column="transactions",
            train_window_seconds=4 * _WEEK,
            k_seconds=2 * _DAY,
            scheme=default_weekly_scheme(4, 2, DAILY),
            test_range=(parse_timestamp("2016-01-01"), parse_timestamp("2016-12-31")),
        ),
        DatasetDescriptor(
            name="electricity",
            frequency=HOURLY,
            timestamp_column="timestamp",
            target_column="MT_320",
            train_window_seconds=52 * _WEEK,
            k_seconds=2 * 3600,
            scheme=weekly_plus_yearly_scheme(2, HOURLY),
            test_range=(
                parse_timestamp("2013-01-01T00:00:00"),
                parse_timestamp("2013-01-31T23:00:00"),
            ),
        ),
        DatasetDescriptor(
            name="weather",
            frequency=HOURLY,
            timestamp_column="timestamp",
            target_column="WetBulbFarenheit",
            train_window_seconds=52 * _WEEK,
            k_seconds=2 * 3600,
            scheme=weekly_plus_yearly_scheme(2, HOURLY),
            test_range=(
                parse_timestamp("2011-03-01T00:00:00"),
                parse_timestamp("2011-03-07T23:00:00"),
            ),
        ),
        # trivially exact protocol: with k=0 the subset is three identical
        # week-lagged samples, so a noiseless periodic series forecasts itself
        DatasetDescriptor(
            name="synthetic",
            frequency=QUARTER_HOURLY,
            timestamp_column="timestamp",
            target_column="value",
            train_window_seconds=4 * _WEEK,
            k_seconds=0,
            scheme=default_weekly_scheme(4, 0, QUARTER_HOURLY),
            test_range=(4 * _WEEK, 8 * _WEEK - 900),
        ),
    ]
    for kpi in "abcdef":
        descriptors.append(
            DatasetDescriptor(
                name=f"eon1_cell_f_{kpi}",
                frequency=QUARTER_HOURLY,
                timestamp_column="timestamp",
                target_column=f"kpi_{kpi}",
                train_window_seconds=4 * _WEEK,
                k_seconds=4 * 900,
                scheme=default_weekly_scheme(4, 4, QUARTER_HOURLY),
                test_range=(
                    parse_timestamp("2023-04-01T00:00:00"),
                    parse_timestamp("2023-04-30T23:45:00"),
                ),
            )
        )
    return tuple(descriptors)


def get_descriptor(name: str) -> DatasetDescriptor:
    wanted = "".join(ch if ch.isalnum() else "_" for ch in name.strip().lower())
    for descriptor in builtin_descriptors():
        if descriptor.name == wanted:
            return descriptor
    known = ", ".join(d.name for d in builtin_descriptors())
    raise ConfigError(f"unknown dataset {name!r}; known: {known}")


@dataclass(slots=True)
class StepRecord:
    """One test slot's outputs, at ``global_slot`` on grid ``granularity``.
    Forecast fields are None when the slot was skipped (warmup or too few
    present samples)."""

    global_slot: int
    granularity: Granularity
    actual: Optional[float] = None
    forecast: Optional[float] = None
    q1: Optional[float] = None
    q3: Optional[float] = None
    iqr: Optional[float] = None
    diff_residual: Optional[float] = None
    norm_residual: Optional[float] = None
    sample_count: Optional[int] = None
    fallback_used: Optional[bool] = None

    @property
    def slot(self) -> SlotCoord:
        return SlotCoord(self.global_slot, self.granularity)

    @property
    def timestamp(self) -> int:
        """Epoch seconds of the slot boundary."""
        return self.global_slot * self.granularity.interval_seconds


def estimate_contingency(
    frame: SeriesFrame, before_slot: int, floor: float = DEFAULT_C_FLOOR_CONTINUOUS
) -> float:
    """Contingency constant from the training prefix: |1st percentile| of the
    values before ``before_slot``, floored."""
    training = frame.values[:bisect_left(frame.slots, before_slot)]
    if not training:
        return floor
    return contingency_constant(training, floor)


def _record(forecaster: RollingForecaster, slot: int, actual: Optional[float]) -> StepRecord:
    """The record of one ``(global slot, actual)`` point on the forecaster's
    grid. A present actual is observed (forecast, scored, then buffered); a
    gap (None) is only forecast. A slot that cannot be forecast yet (warmup,
    too few present samples) keeps its forecast fields None; ``observe`` has
    still buffered its actual."""
    g = forecaster.granularity
    try:
        if actual is None:
            fo = forecaster.forecast_at(slot)
            diff = norm = None
        else:
            residuals, fo = forecaster.observe(slot, actual)
            diff, norm = residuals.difference, residuals.normalized
    except (InsufficientHistory, InsufficientSpan):
        return StepRecord(slot, g, actual)
    except DataError as exc:
        raise type(exc)(f"{format_timestamp(slot * g.interval_seconds)}: {exc}") from exc
    return StepRecord(slot, g, actual, fo.forecast, fo.q1, fo.q3, fo.iqr,
                      diff, norm, fo.sample_count, fo.fallback_used)


def replay(
    forecaster: RollingForecaster,
    points: Iterable[tuple[int, Optional[float]]],
) -> Iterator[StepRecord]:
    """One record per ``(global slot, actual)`` point, in order, as
    ``_record`` builds it."""
    for slot, actual in points:
        yield _record(forecaster, slot, actual)


def evaluation_steps(
    frame: SeriesFrame,
    methods: Sequence[QbsdConfig | BaselineSpec],
    desc: DatasetDescriptor,
) -> Iterator[tuple[StepRecord, ...]]:
    """Replay the test range once with a moving training window, for every
    method at the same time, yielding each test slot's records as one tuple
    in method order.

    All methods read one history ring: the QBSD forecaster's (at most one
    ``QbsdConfig`` may be given), or a plain ``SlidingHistory`` when none is.
    At each test slot every baseline forecasts from the ring, then QBSD
    observes the slot, so no method sees the slot's own value. Nothing is
    kept past its slot but the ring itself.
    """
    if frame.granularity != desc.frequency:
        raise ConfigError(
            f"frame interval {frame.granularity.interval_seconds} s does not "
            f"match descriptor {desc.name} ({desc.frequency.interval_seconds} s)"
        )
    g = frame.granularity
    window = desc.train_window_slots
    test_start, test_end = desc.test_slot_range
    slots, values = frame.slots, frame.values

    configs = [i for i, m in enumerate(methods) if isinstance(m, QbsdConfig)]
    baselines = [(i, m) for i, m in enumerate(methods) if not isinstance(m, QbsdConfig)]
    if len(configs) > 1:
        raise ConfigError(f"{len(configs)} QBSD configurations given; one pass takes at most one")
    if configs:
        qbsd_at = configs[0]
        forecaster = RollingForecaster(methods[qbsd_at], g, capacity_slots=window)
        history = forecaster.history
    else:
        history = SlidingHistory(window)

    first = bisect_left(slots, test_start)
    history.extend(zip(slots, values[:first]))

    step: list[Optional[StepRecord]] = [None] * len(methods)
    i, n = first, len(slots)
    for slot in range(test_start, test_end + 1):
        if i < n and slots[i] == slot:
            actual = values[i]
            i += 1
        else:
            actual = None
        for index, spec in baselines:
            try:
                forecast = baseline_forecast(history, slot, spec)
            except InsufficientHistory:
                step[index] = StepRecord(slot, g, actual)
            else:
                diff = None if actual is None else actual - forecast
                # positional: 175 ns per record, against 260 ns by keyword (CPython 3.11)
                step[index] = StepRecord(slot, g, actual, forecast, None, None, None, diff)
        if configs:
            step[qbsd_at] = _record(forecaster, slot, actual)
        elif actual is not None:
            history.insert(slot, actual)
        yield tuple(step)


class MethodScore:
    """One method's score, fed a record per test slot in slot order: one
    byte per test slot, 1 where the slot was scored (actual and forecast
    both present), the scored actuals and forecasts as ``array('d')``
    columns, and the skip count.

    Absolute errors are computed only when ``paired_errors`` pairs them.
    The method it is called on keeps its own errors after the first call
    (8 B a scored slot), because ``evaluate`` pairs QBSD with every other
    method in turn."""

    __slots__ = ("actuals", "forecasts", "scored", "skipped", "_errors")

    def __init__(self) -> None:
        self.actuals = array("d")
        self.forecasts = array("d")
        self.scored = bytearray()
        self.skipped = 0
        self._errors = array("d")

    def add(self, record: StepRecord) -> None:
        actual, forecast = record.actual, record.forecast
        if forecast is None:
            self.skipped += 1
            self.scored.append(0)
        elif actual is None:
            self.scored.append(0)
        else:
            self.actuals.append(actual)
            self.forecasts.append(forecast)
            self.scored.append(1)

    def paired_errors(self, other: "MethodScore") -> tuple[array, array]:
        """This method's and ``other``'s absolute errors at the test slots
        both scored, in slot order, as two ``array('d')`` columns."""
        # the bytewise AND of the two 0/1 masks, as one integer AND: 0.04 ms
        # for a year of hourly slots, against 0.4 ms byte by byte (CPython 3.11)
        both = (int.from_bytes(self.scored, "little")
                & int.from_bytes(other.scored, "little")).to_bytes(len(self.scored), "little")
        errors = self._errors
        if len(errors) != len(self.actuals):  # scored slots were added since
            errors = self._errors = _float_column(self._abs_errors())
        # the kept errors, one slice per run of slots both scored: a few long
        # runs when the two methods skip few slots apart
        keep = bytes(compress(both, self.scored))
        kept = array("d")
        i = keep.find(1)
        while i >= 0:
            j = keep.find(0, i)
            if j < 0:
                j = len(keep)
            kept += errors[i:j]
            i = keep.find(1, j)
        return kept, _float_column(compress(other._abs_errors(), compress(both, other.scored)))

    def _abs_errors(self) -> Iterator[float]:
        """The absolute error of each scored slot, in slot order."""
        return map(abs, map(operator.sub, self.actuals, self.forecasts))


def _float_column(values: Iterable[float]) -> array:
    """``array('d', values)``, filled 1,024 floats at a time: packing a chunk
    costs about 15 ns a value, against about 35 ns for appending each value
    to the array in turn (CPython 3.11, shared 2-core x86-64)."""
    column = array("d")
    while chunk := list(islice(values, 1024)):
        column.frombytes(struct.pack(f"{len(chunk)}d", *chunk))
    return column


def score_reports(
    scores: Sequence[MethodScore],
    methods: Sequence[QbsdConfig | BaselineSpec],
    desc: DatasetDescriptor,
) -> list[MetricsReport]:
    """The metrics of each method's scored slots, in method order. A method
    that never scored a slot raises ``InsufficientHistory``; with several
    methods, the message names the first such method listed."""
    reports = []
    for method, score in zip(methods, scores):
        if not score.actuals:
            which = ""
            if len(methods) > 1:
                which = " for " + ("qbsd" if isinstance(method, QbsdConfig) else repr(method))
            raise InsufficientHistory(
                f"{desc.name}: no test slot could be both forecast and scored; "
                f"the training window never warmed up{which}"
            )
        reports.append(evaluate(EvalPairs(score.actuals, score.forecasts)))
    return reports


def rolling_evaluate(
    frame: SeriesFrame,
    methods: Sequence[QbsdConfig | BaselineSpec],
    desc: DatasetDescriptor,
) -> list[tuple[MetricsReport, list[StepRecord]]]:
    """``evaluation_steps`` collected: for each method in order, the metrics
    over its scored slots (forecast and actual both present) and a record
    per grid slot in the test range."""
    records: list[list[StepRecord]] = [[] for _ in methods]
    scores = [MethodScore() for _ in methods]
    for step in evaluation_steps(frame, methods, desc):
        for out, score, record in zip(records, scores, step):
            out.append(record)
            score.add(record)
    return list(zip(score_reports(scores, methods, desc), records))


def skipped_count(records: list[StepRecord]) -> int:
    return sum(1 for r in records if r.forecast is None)
