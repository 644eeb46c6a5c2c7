"""Smoothers for the emitted Q1/Q3 bound series.

Smoothing is presentational only: it is applied to the bound columns written
out for plotting, never to values feeding forecasts or metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidWindow, SeriesTooShort


def _check_savgol(window_length: int, polyorder: int) -> None:
    if window_length < 3 or window_length % 2 == 0:
        raise InvalidWindow(
            f"window_length must be an odd integer >= 3, got {window_length}"
        )
    if not 0 <= polyorder < window_length:
        raise InvalidWindow(
            f"polyorder must satisfy 0 <= polyorder < window_length, got {polyorder}"
        )


@dataclass(frozen=True)
class SavitzkyGolay:
    window_length: int
    polyorder: int

    def __post_init__(self) -> None:
        _check_savgol(self.window_length, self.polyorder)


@dataclass(frozen=True)
class MovingAverage:
    window: int

    def __post_init__(self) -> None:
        if self.window < 1:
            raise InvalidWindow(f"window must be >= 1, got {self.window}")


SmootherSpec = Union[SavitzkyGolay, MovingAverage, None]

# Default used for bound smoothing when a smoother is requested without
# parameters: wide enough to calm quarter-hourly bounds without flattening
# daily peaks.
DEFAULT_SAVGOL = SavitzkyGolay(window_length=11, polyorder=3)


def savgol_coefficients(window_length: int, polyorder: int) -> np.ndarray:
    """Least-squares polynomial-fit weights for a centered window.

    Args:
        window_length: odd number of samples in the window.
        polyorder: degree of the fitted polynomial, < window_length.

    Returns:
        Weights to dot with the window values in time order; they sum to 1.
    """
    _check_savgol(window_length, polyorder)
    half = window_length // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    design = np.vander(offsets, polyorder + 1, increasing=True)
    # row 0 of the pseudo-inverse is the fitted value at the window center
    return np.linalg.pinv(design)[0]


def _edge_fit(window: np.ndarray, polyorder: int, positions: range) -> list[float]:
    """The polynomial fitted to a full window, evaluated at ``positions``
    (indices into that window)."""
    xs = np.arange(len(window), dtype=float)
    fit = np.polynomial.Polynomial.fit(xs, window, polyorder)
    return fit(np.array(positions, dtype=float)).tolist()


def smooth(series: Sequence[float], spec: SmootherSpec) -> np.ndarray:
    """Smooth a series without changing its length: every value pushed
    through a `StreamingSmoother`, then its tail, so the result equals the
    smoothed columns the CLI writes. ``spec=None`` returns a copy."""
    values = np.array(series, dtype=float)
    if spec is None:
        return values
    streamer = StreamingSmoother(spec)
    out: list[float] = []
    for value in values.tolist():
        out.extend(streamer.push(value))
    out.extend(streamer.finish())
    return np.array(out)


class StreamingSmoother:
    """Centered smoothing one value at a time, in memory bounded by the window.

    push() returns the smoothed values that became final, oldest first,
    and nothing until a full window is in; finish() returns the rest, or
    raises `SeriesTooShort` when fewer values than the window were pushed.

    Savitzky-Golay dots the weights with each full window, and the first and
    last half windows come from the polynomial fitted to the first and last
    full window, so any polynomial of degree <= polyorder passes through
    unchanged. The moving average clips its window at either end of the
    series, each value the mean of the values it covers.
    """

    def __init__(self, spec: Union[SavitzkyGolay, MovingAverage]):
        if isinstance(spec, SavitzkyGolay):
            n = spec.window_length
            self._polyorder = spec.polyorder
            self._weights = savgol_coefficients(n, spec.polyorder)
        else:
            n = spec.window
            self._weights = None
        self._n = n
        # a smoothed value is final once this many later values are in
        self._lag = (n - 1) // 2
        self._count = 0
        # every value is written at i and i + n, so the last n values are
        # always one contiguous slice, oldest first
        self._ring = np.zeros(2 * n)
        self._pos = 0

    def push(self, value: float) -> list[float]:
        n = self._n
        pos = self._pos
        self._ring[pos] = self._ring[pos + n] = value
        pos = self._pos = (pos + 1) % n
        count = self._count = self._count + 1
        if count < n:
            return []
        window = self._ring[pos : pos + n]
        if self._weights is None:
            values = window.tolist()
            if count == n:
                # the first n - lag values, windows clipped at the head
                return [sum(values[:size]) / size for size in range(self._lag + 1, n + 1)]
            return [sum(values) / n]
        out = _edge_fit(window, self._polyorder, range(self._lag)) if count == n else []
        out.append(float(np.dot(self._weights, window)))
        return out

    def finish(self) -> list[float]:
        n = self._n
        if self._count < n:
            raise SeriesTooShort(
                f"series of {self._count} points is shorter than window {n}"
            )
        window = self._ring[self._pos : self._pos + n]
        if self._weights is None:
            values = window.tolist()
            # the last lag values, windows clipped at the tail
            return [sum(values[i:]) / (n - i) for i in range(1, self._lag + 1)]
        return _edge_fit(window, self._polyorder, range(n - self._lag, n))
