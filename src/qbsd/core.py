"""Quartile math over contextual subsets.

For each target slot the contextual subset yields Q1, Q3 and the IQR (the
time-varying expected operating range), a forecast equal to the mean of the
samples strictly inside (Q1, Q3), and two residuals against the observed
value: the raw difference and the difference normalized by max(IQR, c).

Everything here is a pure function of its inputs. ``qbsd_step`` is the
per-slot kernel: it takes the present subset values in ascending order and
reads Q1, Q3, the interior mean and the median fallback from that one list.
``RollingForecaster`` hands it either a freshly sorted subset or the sorted
subset it slid from the previous target's. Subsets are small (6k+3 samples
for the default weekly scheme), so plain sorted lists beat array round-trips.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigError, DataError, EmptyInput, InsufficientHistory, InvalidConstant
from .timegrid import SeasonalityScheme

DEFAULT_MIN_SAMPLES = 4
# Contingency-constant floors: counts and other integer-valued series vs
# continuous ones.
DEFAULT_C_FLOOR_INTEGER = 1.0
DEFAULT_C_FLOOR_CONTINUOUS = 1e-6


def _position(n: int, fraction: float) -> tuple[int, float]:
    """The type-7 position fraction*(n-1) of a sorted sample of n values:
    the lower rank and the interpolation weight toward the next one."""
    pos = fraction * (n - 1)
    lo = int(pos)
    return lo, pos - lo


def _percentile_sorted(ordered: Sequence[float], fraction: float) -> float:
    """Percentile at position fraction*(n-1) with linear interpolation
    between the two closest ranks."""
    lo, rem = _position(len(ordered), fraction)
    if rem == 0.0:
        return float(ordered[lo])
    return ordered[lo] + rem * (ordered[lo + 1] - ordered[lo])


def _plan(n: int) -> tuple[int, float, int, float, int, float]:
    """``qbsd_step``'s Q1, Q3 and median positions for n present values."""
    return _position(n, 0.25) + _position(n, 0.75) + _position(n, 0.5)


# present count -> _plan(count). The positions depend on the count alone, so
# the kernel computes them once per count a run meets, not once per forecast;
# the values are pure, so every forecaster and thread may share them.
_PLANS: dict[int, tuple[int, float, int, float, int, float]] = {}


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


def default_min_samples(scheme: SeasonalityScheme) -> int:
    """The default validity threshold, lowered for a scheme that cannot
    supply that many samples (but never below 3)."""
    return max(3, min(DEFAULT_MIN_SAMPLES, scheme.subset_size))


@dataclass(frozen=True)
class QbsdConfig:
    """Scheme plus the contingency constant and the validity threshold under
    missing data; the threshold defaults to ``default_min_samples(scheme)``.
    A threshold above the scheme's subset size, with which no slot could
    ever be forecast, is rejected. k is derived from the scheme's windows."""

    scheme: SeasonalityScheme
    c: float = DEFAULT_C_FLOOR_INTEGER
    min_samples: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.c < math.inf:
            raise InvalidConstant(f"contingency constant must be finite and > 0, got {self.c}")
        size = self.scheme.subset_size
        if self.min_samples is None:
            default = default_min_samples(self.scheme)
            if default > size:
                raise ConfigError(
                    f"the default min_samples of {default} is above the scheme's "
                    f"subset size of {size} samples, so no slot could be forecast; "
                    "use a larger k or a scheme with more lags"
                )
            object.__setattr__(self, "min_samples", default)
        elif self.min_samples < 3:
            raise ConfigError(f"min_samples must be >= 3, got {self.min_samples}")
        elif self.min_samples > size:
            raise ConfigError(
                f"min_samples {self.min_samples} is above the scheme's subset size "
                f"of {size} samples, so no slot could be forecast"
            )

    @property
    def k(self) -> int:
        return self.scheme.k


def compute_quartiles(values: Sequence[float]) -> Quartiles:
    """Q1/Q3 as the 25th/75th interpolated percentiles of the sample."""
    if len(values) == 0:
        raise EmptyInput("quartiles of an empty sample")
    ordered = sorted(values)
    return Quartiles(
        q1=_percentile_sorted(ordered, 0.25), q3=_percentile_sorted(ordered, 0.75)
    )


def compute_residuals(actual: float, fo: ForecastOutput, c: float) -> Residuals:
    """Difference and normalized residuals of an observation against its
    forecast; max(IQR, c) keeps the denominator positive."""
    if not c > 0:
        raise InvalidConstant(f"contingency constant must be > 0, got {c}")
    difference = actual - fo.forecast
    iqr = fo.iqr
    # positional and max() inlined (same value, NaN IQR too): 133 ns, not 312 (CPython 3.11)
    return Residuals(difference, difference / (c if c > iqr else iqr))


def contingency_constant(training_values: Sequence[float], floor: float) -> float:
    """|1st percentile| of the training data, floored.

    The floor guards series whose low percentile is ~0, where a tiny
    denominator would make the normalized residual hypersensitive.
    """
    if not 0 < floor < math.inf:
        raise InvalidConstant(f"floor must be finite and > 0, got {floor}")
    if len(training_values) == 0:
        raise EmptyInput("contingency constant of an empty sample")
    lo, rem = _position(len(training_values), 0.01)
    low = heapq.nsmallest(lo + 2, training_values)  # stable: sorted(...)[:lo + 2]
    p1 = low[lo] + rem * (low[lo + 1] - low[lo]) if rem else float(low[lo])
    c = max(abs(p1), floor)
    if c == math.inf:
        # finite values near the float limit overflow the interpolation: a
        # fault of the data, not of a configured constant
        raise DataError("the contingency constant of the training values overflows to inf")
    return c


def qbsd_step(
    ordered: Sequence[float], requested_size: int, cfg: QbsdConfig
) -> ForecastOutput:
    """The per-slot kernel over the present subset values in ascending
    order, as ``sorted()`` returns them. ``requested_size`` is the scheme's
    subset size, for the error message.

    The forecast is the mean of the samples strictly between Q1 and Q3, a
    contiguous run of the sorted sample. The strict inequalities reject
    outliers but can select nothing (e.g. a constant subset has Q1 == Q3);
    the median is then returned with ``fallback_used`` set.
    """
    present = len(ordered)
    if present < cfg.min_samples:
        raise InsufficientHistory(
            f"{present} of {requested_size} subset samples "
            f"present, need at least {cfg.min_samples}"
        )
    try:
        i1, w1, i3, w3, im, wm = _PLANS[present]
    except KeyError:
        i1, w1, i3, w3, im, wm = _PLANS[present] = _plan(present)
    # _percentile_sorted inlined at the planned positions
    q1 = ordered[i1] + w1 * (ordered[i1 + 1] - ordered[i1]) if w1 else float(ordered[i1])
    q3 = ordered[i3] + w3 * (ordered[i3 + 1] - ordered[i3]) if w3 else float(ordered[i3])
    if q1 > q3:
        # values near the float limit overflow the interpolation; a NaN
        # leaves the subset unordered
        raise DataError(f"q1 ({q1}) must not exceed q3 ({q3})")
    lo = bisect_right(ordered, q1)
    hi = bisect_left(ordered, q3, lo)
    # positional: 147 ns per build, against 356 ns by keyword (CPython 3.11)
    if lo < hi:
        # summed left to right: from 3.12 on, the built-in sum() of floats is
        # compensated and would round some means differently
        total = 0.0
        for value in ordered[lo:hi]:
            total += value
        return ForecastOutput(total / (hi - lo), q1, q3, q3 - q1, present, False)
    median = ordered[im] + wm * (ordered[im + 1] - ordered[im]) if wm else float(ordered[im])
    return ForecastOutput(median, q1, q3, q3 - q1, present, True)
