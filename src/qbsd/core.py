"""Quartile math over contextual subsets.

For each target slot the contextual subset yields Q1, Q3 and the IQR (the
time-varying expected operating range), a forecast equal to the mean of the
samples strictly inside (Q1, Q3), and two residuals against the observed
value: the raw difference and the difference normalized by max(IQR, c).

Everything here is a pure function of its inputs. ``quartile_forecast`` is
the per-slot kernel: it sorts the present samples once and hands the sorted
list to ``quartile_forecast_sorted``, which takes Q1, Q3, the interior mean
and the median fallback from it. ``RollingForecaster`` calls the sorted-input
kernel directly when it keeps a target's sorted subset up to date from the
previous target's instead of sorting afresh. ``qbsd_step`` and
``compute_quartiles`` are thin callers of the same sorted-list helpers.
Subsets are small (6k+3 samples for the default weekly scheme), so plain
sorted lists beat array round-trips.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, EmptyInput, InsufficientHistory, InvalidConstant
from .timegrid import SeasonalityScheme, SlotCoord

DEFAULT_MIN_SAMPLES = 4
# Contingency-constant floors: counts and other integer-valued series vs
# continuous ones.
DEFAULT_C_FLOOR_INTEGER = 1.0
DEFAULT_C_FLOOR_CONTINUOUS = 1e-6


def _percentile_sorted(ordered: Sequence[float], fraction: float) -> float:
    """Percentile at position fraction*(n-1) with linear interpolation
    between the two closest ranks."""
    pos = fraction * (len(ordered) - 1)
    lo = int(pos)
    rem = pos - lo
    if rem == 0.0:
        return float(ordered[lo])
    return ordered[lo] + rem * (ordered[lo + 1] - ordered[lo])


def interpolated_percentile(values: Sequence[float], fraction: float) -> float:
    """Interpolated percentile of an unsorted sample, fraction in [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if len(values) == 0:
        raise EmptyInput("percentile of an empty sample")
    return _percentile_sorted(sorted(values), fraction)


@dataclass(frozen=True)
class Quartiles:
    q1: float
    q3: float

    def __post_init__(self) -> None:
        if self.q1 > self.q3:
            raise ValueError(f"q1 ({self.q1}) must not exceed q3 ({self.q3})")

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass(slots=True)
class ForecastOutput:
    """One slot's forecast plus its expected operating range.

    ``fallback_used`` marks subsets whose strict interior (Q1, Q3) was empty
    (constant or two-valued samples); the forecast is then the subset median.
    A plain slotted record: cheap to build once per slot, mutable and
    unhashable.
    """

    forecast: float
    q1: float
    q3: float
    iqr: float
    sample_count: int
    fallback_used: bool


@dataclass(slots=True)
class Residuals:
    difference: float
    normalized: float


@dataclass(frozen=True)
class ContextualSubset:
    """Samples actually present for a target slot; gaps shrink the subset
    below ``requested_size`` without invalidating it."""

    samples: tuple[tuple[SlotCoord, float], ...]
    requested_size: int

    def __post_init__(self) -> None:
        if len(self.samples) > self.requested_size:
            raise ValueError(
                f"{len(self.samples)} samples exceed requested size "
                f"{self.requested_size}"
            )
        slots = {coord.global_slot for coord, _ in self.samples}
        if len(slots) != len(self.samples):
            raise ValueError("subset slots must be distinct")

    @property
    def present_count(self) -> int:
        return len(self.samples)

    def values(self) -> list[float]:
        return [value for _, value in self.samples]


@dataclass(frozen=True)
class QbsdConfig:
    """Scheme plus the contingency constant and the validity threshold under
    missing data. k is derived from the scheme's windows."""

    scheme: SeasonalityScheme
    c: float = DEFAULT_C_FLOOR_INTEGER
    min_samples: int = DEFAULT_MIN_SAMPLES

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise InvalidConstant(f"contingency constant must be > 0, got {self.c}")
        if self.min_samples < 3:
            raise ConfigError(f"min_samples must be >= 3, got {self.min_samples}")

    @property
    def k(self) -> int:
        return self.scheme.k


def default_min_samples(scheme: SeasonalityScheme) -> int:
    """The default validity threshold, lowered for a scheme that cannot
    supply that many samples (but never below 3)."""
    return max(3, min(DEFAULT_MIN_SAMPLES, scheme.subset_size))


def _quartiles_sorted(ordered: Sequence[float]) -> tuple[float, float]:
    """Q1/Q3 of an ascending sample as its 25th/75th interpolated
    percentiles."""
    q1 = _percentile_sorted(ordered, 0.25)
    q3 = _percentile_sorted(ordered, 0.75)
    if q1 > q3:
        raise ValueError(f"q1 ({q1}) must not exceed q3 ({q3})")
    return q1, q3


def _forecast_sorted(ordered: Sequence[float]) -> tuple[float, float, float, bool]:
    """Q1, Q3, forecast and fallback marker of an ascending sample.

    The forecast is the mean of the samples strictly between Q1 and Q3, a
    contiguous run of the sorted sample. The strict inequalities reject
    outliers but can select nothing (e.g. a constant subset has Q1 == Q3);
    the median is then returned with the fallback marker set.
    """
    q1, q3 = _quartiles_sorted(ordered)
    lo = bisect_right(ordered, q1)
    hi = bisect_left(ordered, q3, lo)
    if lo < hi:
        return q1, q3, sum(ordered[lo:hi]) / (hi - lo), False
    return q1, q3, _percentile_sorted(ordered, 0.5), True


def compute_quartiles(values: Sequence[float]) -> Quartiles:
    """Q1/Q3 as the 25th/75th interpolated percentiles of the sample."""
    if len(values) == 0:
        raise EmptyInput("quartiles of an empty sample")
    q1, q3 = _quartiles_sorted(sorted(values))
    return Quartiles(q1=q1, q3=q3)


def compute_residuals(actual: float, fo: ForecastOutput, c: float) -> Residuals:
    """Difference and normalized residuals of an observation against its
    forecast; max(IQR, c) keeps the denominator positive."""
    if not c > 0:
        raise InvalidConstant(f"contingency constant must be > 0, got {c}")
    difference = actual - fo.forecast
    return Residuals(
        difference=difference,
        normalized=difference / max(fo.iqr, c),
    )


def contingency_constant(training_values: Sequence[float], floor: float) -> float:
    """|1st percentile| of the training data, floored.

    The floor guards series whose low percentile is ~0, where a tiny
    denominator would make the normalized residual hypersensitive.
    """
    if not floor > 0:
        raise InvalidConstant(f"floor must be > 0, got {floor}")
    if len(training_values) == 0:
        raise EmptyInput("contingency constant of an empty sample")
    return max(abs(interpolated_percentile(training_values, 0.01)), floor)


def quartile_forecast(
    values: Sequence[float], requested_size: int, cfg: QbsdConfig
) -> ForecastOutput:
    """Full per-slot computation from the present subset values (in any
    order): one sort, then ``quartile_forecast_sorted``.
    ``requested_size`` is the scheme's subset size, for the error message."""
    return quartile_forecast_sorted(sorted(values), requested_size, cfg)


def quartile_forecast_sorted(
    ordered: Sequence[float], requested_size: int, cfg: QbsdConfig
) -> ForecastOutput:
    """Quartiles and the interior-mean forecast of the present subset values
    in ascending order, as ``sorted()`` returns them."""
    present = len(ordered)
    if present < cfg.min_samples:
        raise InsufficientHistory(
            f"{present} of {requested_size} subset samples "
            f"present, need at least {cfg.min_samples}"
        )
    q1, q3, forecast, fallback_used = _forecast_sorted(ordered)
    return ForecastOutput(
        forecast=forecast,
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        sample_count=present,
        fallback_used=fallback_used,
    )


def qbsd_step(subset: ContextualSubset, cfg: QbsdConfig) -> ForecastOutput:
    """``quartile_forecast`` over a subset's present samples."""
    return quartile_forecast(subset.values(), subset.requested_size, cfg)
