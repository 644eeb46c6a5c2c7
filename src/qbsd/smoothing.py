"""Smoothers for the emitted Q1/Q3 bound series.

Smoothing is presentational only: it is applied to the bound columns written
out for plotting, never to values feeding forecasts or metrics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Sequence, Union

from .errors import InvalidWindow, SeriesTooShort


# The exact weight table's integers grow with both: at these caps it builds in
# about 60 ms (sg:101:20), against 0.17 s for sg:201:20, 0.43 s for sg:201:50
# and seconds for sg:201:150 (CPython 3.11, shared 2-core x86-64).
MAX_SAVGOL_WINDOW = 101
MAX_SAVGOL_POLYORDER = 20


@dataclass(frozen=True)
class SavitzkyGolay:
    window_length: int
    polyorder: int

    def __post_init__(self) -> None:
        n, p = self.window_length, self.polyorder
        if n < 3 or n % 2 == 0:
            raise InvalidWindow(f"window_length must be an odd integer >= 3, got {n}")
        if n > MAX_SAVGOL_WINDOW:
            raise InvalidWindow(f"window_length must be at most {MAX_SAVGOL_WINDOW}, got {n}")
        if not 0 <= p < n:
            raise InvalidWindow(f"polyorder must satisfy 0 <= polyorder < window_length, got {p}")
        if p > MAX_SAVGOL_POLYORDER:
            raise InvalidWindow(f"polyorder must be at most {MAX_SAVGOL_POLYORDER}, got {p}")


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


@lru_cache(maxsize=None)
def _weight_rows(window_length: int, polyorder: int) -> tuple[tuple[float, ...], ...]:
    """The window's least-squares hat matrix, each weight exact and then
    rounded once to a float: row p dotted with a window is the value at
    position p of the polynomial of degree <= polyorder fitted to it."""
    half = window_length // 2
    xs = range(-half, half + 1)
    # Gram-Schmidt on the monomials over xs, symmetric about 0, is the
    # recurrence q' = x q - (|q|^2 / |q_prev|^2) q_prev
    basis = []  # each q scaled to integers
    prev, q, prev_norm = [0] * window_length, [Fraction(1)] * window_length, 1
    for _ in range(polyorder + 1):
        scale = math.lcm(*(v.denominator for v in q))
        basis.append([int(v * scale) for v in q])
        norm = sum(v * v for v in q)
        beta, prev_norm = norm / prev_norm, norm
        prev, q = q, [x * v - beta * w for x, v, w in zip(xs, q, prev)]
    # H[p][j] = sum over k of q_k[p] q_k[j] / |q_k|^2 as int / int, correctly
    # rounded; a mirrored window has the mirrored fit: H[n-1-p][n-1-j] == H[p][j]
    norms = [sum(v * v for v in q) for q in basis]
    den = math.lcm(*norms)
    rows = []
    for p in range(half + 1):
        coefs = [q[p] * (den // norm) for q, norm in zip(basis, norms)]
        rows.append(tuple(sum(map(operator.mul, coefs, col)) / den for col in zip(*basis)))
    return tuple(rows + [row[::-1] for row in reversed(rows[:half])])


def _dot(row: Sequence[float], window: Sequence[float]) -> float:
    """The dot product correctly rounded: one float whatever the term order."""
    try:
        return math.fsum(map(operator.mul, row, window))
    except (OverflowError, ValueError):  # a partial sum overflowed, or inf met -inf
        products = list(map(operator.mul, row, window))
        special = [p for p in products if not math.isfinite(p)]
        if special:  # no finite term changes an inf or nan sum
            return sum(special)
        exact = sum(map(Fraction, products))
        try:
            return float(exact)
        except OverflowError:  # the exact sum is itself beyond the float range
            return math.inf if exact > 0 else -math.inf


def _sum(values: Sequence[float]) -> float:
    """The floats added left to right, as the built-in sum() adds them up to
    3.11; from 3.12 on, sum() is compensated and rounds some totals
    differently."""
    return reduce(operator.add, values, 0.0)


def savgol_coefficients(window_length: int, polyorder: int) -> list[float]:
    """Least-squares polynomial-fit weights for a centered window, to dot
    with its values in time order: the exact weights rounded to floats."""
    SavitzkyGolay(window_length, polyorder)  # validates
    return list(_weight_rows(window_length, polyorder)[window_length // 2])


def smooth(series: Sequence[float], spec: SmootherSpec) -> list[float]:
    """Smooth a series without changing its length: every value pushed
    through a `StreamingSmoother`, then its tail, so the result equals the
    smoothed columns the CLI writes. ``spec=None`` returns a copy."""
    if spec is None:
        return [float(v) for v in series]
    streamer = StreamingSmoother(spec)
    return [y for v in series for y in streamer.push(float(v))] + streamer.finish()


class StreamingSmoother:
    """Centered smoothing one value at a time, in memory bounded by the window.

    push() returns the smoothed values that became final, oldest first,
    and nothing until a full window is in; finish() returns the rest, or
    raises `SeriesTooShort` when fewer values than the window were pushed.

    Savitzky-Golay dots a row of the hat matrix with each full window: the
    centre row, and at either end the rows that evaluate the fit to the first
    and last full window (Gorry, Anal. Chem. 62(6), 1990). The moving average
    clips its window at either end, each value the mean of those it covers.
    """

    def __init__(self, spec: Union[SavitzkyGolay, MovingAverage]):
        sg = isinstance(spec, SavitzkyGolay)
        n = spec.window_length if sg else spec.window
        self._rows = _weight_rows(n, spec.polyorder) if sg else None
        self._n = n
        # a smoothed value is final once this many later values are in
        self._lag = (n - 1) // 2
        self._centre = self._rows[self._lag] if sg else None
        self._window: list[float] = []  # the last n values, oldest first

    def push(self, value: float) -> list[float]:
        window = self._window
        window.append(value)
        n = self._n
        if len(window) > n:
            del window[0]
            centre = self._centre
            if centre is None:
                return [_sum(window) / n]
            try:
                return [math.fsum(map(operator.mul, centre, window))]
            except (OverflowError, ValueError):
                return [_dot(centre, window)]
        if len(window) < n:
            return []
        if self._rows is None:
            # the first n - lag values, windows clipped at the head
            return [_sum(window[:size]) / size for size in range(self._lag + 1, n + 1)]
        return [_dot(row, window) for row in self._rows[: self._lag + 1]]

    def finish(self) -> list[float]:
        n, window = self._n, self._window
        if len(window) < n:
            raise SeriesTooShort(
                f"series of {len(window)} points is shorter than window {n}"
            )
        if self._rows is None:
            # the last lag values, windows clipped at the tail
            return [_sum(window[i:]) / (n - i) for i in range(1, self._lag + 1)]
        return [_dot(row, window) for row in self._rows[self._lag + 1 :]]
