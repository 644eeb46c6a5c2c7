"""Smoothers for the emitted Q1/Q3 bound series.

Smoothing is presentational only: it is applied to the bound columns written
out for plotting, never to values feeding forecasts or metrics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidWindow, SeriesTooShort


@dataclass(frozen=True)
class SavitzkyGolay:
    window_length: int
    polyorder: int

    def __post_init__(self) -> None:
        if self.window_length < 3 or self.window_length % 2 == 0:
            raise InvalidWindow(
                f"window_length must be an odd integer >= 3, got {self.window_length}"
            )
        if not 0 <= self.polyorder < self.window_length:
            raise InvalidWindow(
                f"polyorder must satisfy 0 <= polyorder < window_length, "
                f"got {self.polyorder}"
            )


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


def savgol_coefficients(
    window_length: int, polyorder: int, derivative: int = 0
) -> np.ndarray:
    """Least-squares polynomial-fit weights for a centered window.

    Args:
        window_length: odd number of samples in the window.
        polyorder: degree of the fitted polynomial, < window_length.
        derivative: derivative order evaluated at the window center;
            0 gives smoothing weights that sum to 1.

    Returns:
        Weights to dot with the window values in time order.
    """
    if window_length < 3 or window_length % 2 == 0:
        raise InvalidWindow(
            f"window_length must be an odd integer >= 3, got {window_length}"
        )
    if not 0 <= polyorder < window_length:
        raise InvalidWindow(
            f"polyorder must satisfy 0 <= polyorder < window_length, got {polyorder}"
        )
    if not 0 <= derivative <= polyorder:
        raise InvalidWindow(
            f"derivative must satisfy 0 <= derivative <= polyorder, got {derivative}"
        )
    half = window_length // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    design = np.vander(offsets, polyorder + 1, increasing=True)
    # row d of the pseudo-inverse is the d-th fitted coefficient; the d-th
    # derivative of the fit at the center is d! times that coefficient
    return np.linalg.pinv(design)[derivative] * math.factorial(derivative)


def _edge_poly(window_values: np.ndarray, polyorder: int):
    xs = np.arange(len(window_values), dtype=float)
    return np.polynomial.Polynomial.fit(xs, window_values, polyorder)


def _ma_bounds(window: int) -> tuple[int, int]:
    left = window // 2
    return left, window - 1 - left


def smooth(series: Sequence[float], spec: SmootherSpec) -> np.ndarray:
    """Smooth a series without changing its length.

    Savitzky-Golay applies the convolution weights to interior points and
    fits the polynomial to the first/last full window for the edge points,
    so any polynomial of degree <= polyorder passes through unchanged.
    """
    arr = np.asarray(series, dtype=float)
    if spec is None:
        return arr.copy()
    n = arr.size
    if isinstance(spec, MovingAverage):
        w = spec.window
        if n < w:
            raise SeriesTooShort(f"series of {n} points is shorter than window {w}")
        left, right = _ma_bounds(w)
        out = np.empty(n)
        for i in range(n):
            chunk = arr[max(0, i - left) : min(n, i + right + 1)]
            out[i] = chunk.mean()
        return out
    wl = spec.window_length
    if n < wl:
        raise SeriesTooShort(f"series of {n} points is shorter than window {wl}")
    half = wl // 2
    weights = savgol_coefficients(wl, spec.polyorder)
    out = np.empty(n)
    out[half : n - half] = np.correlate(arr, weights, mode="valid")
    head = _edge_poly(arr[:wl], spec.polyorder)
    out[:half] = head(np.arange(half, dtype=float))
    tail = _edge_poly(arr[n - wl :], spec.polyorder)
    out[n - half :] = tail(np.arange(wl - half, wl, dtype=float))
    return out


class StreamingSmoother:
    """Incremental `smooth` with memory bounded by the window length.

    push() returns the smoothed values that became final; finish() flushes
    the tail. Concatenating everything reproduces the batch output exactly.
    """

    def __init__(self, spec: SmootherSpec):
        self.spec = spec
        self._count = 0
        self._emitted = 0
        if isinstance(spec, SavitzkyGolay):
            self._weights = savgol_coefficients(spec.window_length, spec.polyorder)
            # every value is written at i and i + window_length, so the last
            # window_length values are always one contiguous slice, oldest first
            self._ring = np.zeros(2 * spec.window_length)
            self._pos = 0
        elif isinstance(spec, MovingAverage):
            self._buf = deque(maxlen=spec.window)
        else:
            self._buf = deque(maxlen=1)

    def _ma_value(self, position: int) -> float:
        left, right = _ma_bounds(self.spec.window)
        base = self._count - len(self._buf)
        start = max(0, position - left)
        stop = min(self._count, position + right + 1)
        window = [self._buf[i - base] for i in range(start, stop)]
        return sum(window) / len(window)

    def push(self, value: float) -> list[float]:
        if self.spec is None:
            self._count += 1
            self._emitted += 1
            return [float(value)]
        self._count += 1
        out: list[float] = []
        if isinstance(self.spec, MovingAverage):
            self._buf.append(float(value))
            _, right = _ma_bounds(self.spec.window)
            while self._emitted + right <= self._count - 1:
                out.append(self._ma_value(self._emitted))
                self._emitted += 1
            return out
        wl = self.spec.window_length
        pos = self._pos
        self._ring[pos] = self._ring[pos + wl] = value
        pos = self._pos = (pos + 1) % wl
        if self._count < wl:
            return []
        half = wl // 2
        window = self._ring[pos : pos + wl]
        if self._count == wl:
            head = _edge_poly(window, self.spec.polyorder)
            out.extend(head(np.arange(half, dtype=float)).tolist())
            self._emitted = half
        out.append(float(np.dot(self._weights, window)))
        self._emitted += 1
        return out

    def finish(self) -> list[float]:
        if self.spec is None:
            return []
        if isinstance(self.spec, MovingAverage):
            if self._count < self.spec.window:
                raise SeriesTooShort(
                    f"series of {self._count} points is shorter than window "
                    f"{self.spec.window}"
                )
            out = []
            while self._emitted < self._count:
                out.append(self._ma_value(self._emitted))
                self._emitted += 1
            return out
        wl = self.spec.window_length
        if self._count < wl:
            raise SeriesTooShort(
                f"series of {self._count} points is shorter than window {wl}"
            )
        half = wl // 2
        tail = _edge_poly(self._ring[self._pos : self._pos + wl], self.spec.polyorder)
        positions = np.arange(wl - half, wl, dtype=float)
        self._emitted = self._count
        return tail(positions).tolist()
