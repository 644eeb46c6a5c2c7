"""Machine-speed calibration for a shared, noisy host.

On the 2-core machine this benchmark was built on, neighbouring load made
the same pure-Python work run up to 1.7x slower for stretches of a second to
minutes, so medians of raw times moved by 20-40% between 25-second runs. A
fixed reference unit of pure-Python work is therefore timed from a SIGALRM
handler every ``INTERVAL_S`` seconds of wall time, on the session's only
thread, interleaved with the work being measured.

``calibrated_ns`` turns a measured interval into nominal time: the handler
runs inside it are taken out, and every stretch of work between two handler
runs is divided by the local speed, the median unit time of the nearest
``WINDOW`` runs over ``NOMINAL_NS``. The result reads as time on a machine
where the unit takes ``NOMINAL_NS``.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
WINDOW = 25  # handler runs per local-speed median: about half a second
# Close to the unit's median on an idle core of that machine; a scale
# constant only, identical for every commit measured.
NOMINAL_NS = 500_000


def unit() -> float:
    """Fixed work in the program's style: small dicts, short sorts, floats."""
    table = {}
    acc = 0.0
    for i in range(64):
        table[i] = i * 0.37
    for i in range(120):
        xs = sorted([table.get((i * 7 + j) & 63, 0.0) for j in range(27)])
        acc += xs[6] + (xs[20] - xs[6]) * 0.5
        table[(i * 13) & 63] = acc % 97.0
    return acc


class Calibrator:
    """Runs ``unit`` from a wall-clock timer between ``start`` and ``stop``
    and keeps each run's perf_counter_ns start and end."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.starts.append(time.perf_counter_ns())
        unit()
        self.ends.append(time.perf_counter_ns())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.starts:  # a session shorter than one interval
            self._tick(None, None)

    def samples(self) -> dict:
        return {"starts": self.starts, "ends": self.ends}


def calibrated_ns(samples: dict, starts, ends):
    """Nominal durations of the intervals [starts[i], ends[i]) (numpy array).

    Nominal time accrues at 1/speed between handler runs and not at all
    during them; its running total is piecewise linear in wall time, so each
    interval's share is a difference of two interpolations.
    """
    import numpy as np

    hs = np.asarray(samples["starts"], dtype=np.float64)
    he = np.asarray(samples["ends"], dtype=np.float64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    n = hs.size
    took = he - hs
    half = WINDOW // 2
    speed = np.array([np.median(took[max(0, i - half): i + half + 1]) for i in range(n)])
    speed /= NOMINAL_NS
    gap_speed = np.concatenate([speed[:1], (speed[:-1] + speed[1:]) / 2, speed[-1:]])
    lo = min(starts.min(initial=hs[0]), hs[0])
    hi = max(ends.max(initial=he[-1]), he[-1])
    knots = np.empty(2 * n + 2)
    knots[0], knots[-1] = lo, hi
    knots[1:-1:2], knots[2:-1:2] = hs, he
    gap_ends = np.concatenate([hs, [hi]])
    gap_starts = np.concatenate([[lo], he])
    steps = np.zeros(2 * n + 1)
    steps[0::2] = (gap_ends - gap_starts) / gap_speed  # handler stretches add 0
    total = np.concatenate([[0.0], np.cumsum(steps)])
    return np.interp(ends, knots, total) - np.interp(starts, knots, total)
