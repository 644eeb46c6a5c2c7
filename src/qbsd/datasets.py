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
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timezone
from typing import Iterable, Iterator, Optional, Union

from .baselines import BaselineSpec, baseline_forecast
from .core import QbsdConfig, DEFAULT_C_FLOOR_CONTINUOUS, contingency_constant
from .engine import RollingForecaster, SlidingHistory
from .errors import (
    ConfigError,
    DuplicateTimestamp,
    GridMisaligned,
    InsufficientHistory,
    InsufficientSpan,
    ParseError,
)
from .metrics import EvalPairs, MetricsReport, evaluate
from .timegrid import (
    DAILY,
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
    """A gridded series, sorted by slot; gaps are simply absent slots."""

    granularity: Granularity
    slots: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.slots) != len(self.values):
            raise ValueError("slots and values must have the same length")
        if any(b <= a for a, b in zip(self.slots, self.slots[1:])):
            raise ValueError("slots must be strictly increasing")

    def __len__(self) -> int:
        return len(self.slots)

    def pairs(self) -> Iterator[tuple[SlotCoord, float]]:
        g = self.granularity
        for slot, value in zip(self.slots, self.values):
            yield SlotCoord(slot, g), value

    def value_map(self) -> dict[int, float]:
        return dict(zip(self.slots, self.values))

    @property
    def first_slot(self) -> int:
        return self.slots[0]

    @property
    def last_slot(self) -> int:
        return self.slots[-1]


def load_csv(
    path: str,
    timestamp_column: str,
    value_column: str,
    granularity: Granularity,
) -> SeriesFrame:
    """Read a headered CSV into a SeriesFrame.

    Rows are sorted by slot; duplicate timestamps are rejected; rows with an
    empty or non-finite value cell are treated as gaps.
    """
    rows: list[tuple[int, float]] = []
    with series_rows(path, timestamp_column, value_column) as cells:
        for number, raw_ts, value, bad_value in cells:
            if value is None and not bad_value:
                continue  # gap
            try:
                epoch = parse_timestamp(raw_ts)
            except (ParseError, GridMisaligned) as exc:
                raise type(exc)(
                    f"{path}:{number}: column {timestamp_column!r}: {exc}"
                ) from exc
            if value is None:
                raise ParseError(
                    f"{path}:{number}: column {value_column!r}: "
                    f"bad value {bad_value!r}"
                )
            try:
                coord = align(epoch, granularity)
            except GridMisaligned as exc:
                raise GridMisaligned(f"{path}:{number}: {exc}") from exc
            rows.append((coord.global_slot, value))
    rows.sort(key=lambda item: item[0])
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise DuplicateTimestamp(
                f"{path}: slot {a} ({format_timestamp(a * granularity.interval_seconds)}) "
                "appears more than once"
            )
    return SeriesFrame(
        granularity=granularity,
        slots=tuple(slot for slot, _ in rows),
        values=tuple(value for _, value in rows),
    )


def default_daily_profile(slots_per_day: int, base: float, amplitude: float) -> tuple[float, ...]:
    """Low overnight, peaking mid-day."""
    return tuple(
        base + amplitude * math.sin(math.pi * i / slots_per_day) ** 2
        for i in range(slots_per_day)
    )


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic KPI-like series: a daily profile scaled per day-of-week,
    optional Gaussian noise, and explicit additive anomaly injections."""

    days: int = 56
    slots_per_day: int = 96
    base: float = 100.0
    amplitude: float = 900.0
    profile: Optional[tuple[float, ...]] = None
    weekday_scale: float = 1.0
    weekend_scale: float = 0.6
    noise_std: float = 0.0
    anomalies: tuple[tuple[int, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ConfigError(f"days must be >= 1, got {self.days}")
        if SECONDS_PER_DAY % self.slots_per_day:
            raise ConfigError(
                f"slots_per_day must divide {SECONDS_PER_DAY}, got {self.slots_per_day}"
            )
        if self.profile is not None and len(self.profile) != self.slots_per_day:
            raise ConfigError(
                f"profile has {len(self.profile)} entries for "
                f"{self.slots_per_day} slots per day"
            )
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")

    @property
    def granularity(self) -> Granularity:
        return Granularity(SECONDS_PER_DAY // self.slots_per_day)


def generate_synthetic(spec: SynthSpec) -> SeriesFrame:
    profile = spec.profile or default_daily_profile(
        spec.slots_per_day, spec.base, spec.amplitude
    )
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
        if self.k_seconds % interval:
            raise ConfigError(
                f"{self.name}: k of {self.k_seconds} s is not a whole number "
                f"of {interval} s slots"
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
            raise GridMisaligned(f"{self.name}: test range is off the grid")

    @property
    def k_slots(self) -> int:
        return self.k_seconds // self.frequency.interval_seconds

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
        if min_samples is None:
            # the default threshold must not exceed what the scheme can supply
            min_samples = max(3, min(4, self.scheme.subset_size))
        return QbsdConfig(scheme=self.scheme, c=c, min_samples=min_samples)


def _ts(text: str) -> int:
    return parse_timestamp(text)


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
            test_range=(_ts("2015-02-01"), _ts("2015-02-28")),
        ),
        DatasetDescriptor(
            name="electricity_demand",
            frequency=DAILY,
            timestamp_column="date",
            target_column="demand",
            train_window_seconds=52 * _WEEK,
            k_seconds=2 * _DAY,
            scheme=weekly_plus_yearly_scheme(2, DAILY),
            test_range=(_ts("2016-01-01"), _ts("2016-01-31")),
        ),
        DatasetDescriptor(
            name="bitcoin",
            frequency=DAILY,
            timestamp_column="date",
            target_column="transactions",
            train_window_seconds=4 * _WEEK,
            k_seconds=2 * _DAY,
            scheme=default_weekly_scheme(4, 2, DAILY),
            test_range=(_ts("2016-01-01"), _ts("2016-12-31")),
        ),
        DatasetDescriptor(
            name="electricity",
            frequency=HOURLY,
            timestamp_column="timestamp",
            target_column="MT_320",
            train_window_seconds=52 * _WEEK,
            k_seconds=2 * 3600,
            scheme=weekly_plus_yearly_scheme(2, HOURLY),
            test_range=(_ts("2013-01-01T00:00:00"), _ts("2013-01-31T23:00:00")),
        ),
        DatasetDescriptor(
            name="weather",
            frequency=HOURLY,
            timestamp_column="timestamp",
            target_column="WetBulbFarenheit",
            train_window_seconds=52 * _WEEK,
            k_seconds=2 * 3600,
            scheme=weekly_plus_yearly_scheme(2, HOURLY),
            test_range=(_ts("2011-03-01T00:00:00"), _ts("2011-03-07T23:00:00")),
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
                    _ts("2023-04-01T00:00:00"),
                    _ts("2023-04-30T23:45:00"),
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


@dataclass
class StepRecord:
    """One test slot's outputs. Forecast fields are None when the slot was
    skipped (warmup or too few present samples)."""

    slot: SlotCoord
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
    def timestamp(self) -> int:
        return self.slot.timestamp


Method = Union[QbsdConfig, BaselineSpec]


def estimate_contingency(
    frame: SeriesFrame, before_slot: int, floor: float = DEFAULT_C_FLOOR_CONTINUOUS
) -> float:
    """Contingency constant from the training prefix: |1st percentile| of the
    values before ``before_slot``, floored."""
    training = [v for s, v in zip(frame.slots, frame.values) if s < before_slot]
    if not training:
        return floor
    return contingency_constant(training, floor)


def replay(
    forecaster: RollingForecaster,
    points: Iterable[tuple[SlotCoord, Optional[float]]],
) -> Iterator[StepRecord]:
    """One record per ``(slot, actual)`` point, in order.

    A present actual is observed (forecast, scored, then buffered); a gap
    (None) is only forecast. Slots that cannot be forecast yet (warmup, too
    few present samples) keep their forecast fields None; ``observe`` has
    still buffered their actual.
    """
    for t, actual in points:
        record = StepRecord(slot=t, actual=actual)
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
        yield record


def rolling_evaluate(
    frame: SeriesFrame,
    method: Method,
    desc: DatasetDescriptor,
) -> tuple[MetricsReport, list[StepRecord]]:
    """Replay the test range with a moving training window.

    Returns the metrics over scored slots (forecast and actual both present)
    and a record per grid slot in the test range.
    """
    if frame.granularity != desc.frequency:
        raise ConfigError(
            f"frame interval {frame.granularity.interval_seconds} s does not "
            f"match descriptor {desc.name} ({desc.frequency.interval_seconds} s)"
        )
    g = frame.granularity
    window = desc.train_window_slots
    test_start, test_end = desc.test_slot_range
    actuals = frame.value_map()

    qbsd = isinstance(method, QbsdConfig)
    if qbsd:
        forecaster = RollingForecaster(method, g, capacity_slots=window)
        history = forecaster.history
    else:
        history = SlidingHistory(window)

    for slot, value in zip(frame.slots, frame.values):
        if slot >= test_start:
            break
        history.insert(slot, value)

    test_slots = range(test_start, test_end + 1)
    if qbsd:
        points = ((SlotCoord(slot, g), actuals.get(slot)) for slot in test_slots)
        records = list(replay(forecaster, points))
    else:
        records = []
        for slot in test_slots:
            record = StepRecord(slot=SlotCoord(slot, g), actual=actuals.get(slot))
            try:
                record.forecast = baseline_forecast(history, slot, method)
                if record.actual is not None:
                    record.diff_residual = record.actual - record.forecast
            except InsufficientHistory:
                pass
            if record.actual is not None:
                history.insert(slot, record.actual)
            records.append(record)

    scored = [
        (r.actual, r.forecast)
        for r in records
        if r.actual is not None and r.forecast is not None
    ]
    if not scored:
        raise InsufficientHistory(
            f"{desc.name}: no test slot could be both forecast and scored; "
            "the training window never warmed up"
        )
    report = evaluate(
        EvalPairs([a for a, _ in scored], [f for _, f in scored])
    )
    return report, records


def skipped_count(records: list[StepRecord]) -> int:
    return sum(1 for r in records if r.forecast is None)
