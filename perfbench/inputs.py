"""Seeded workload inputs.

Every series comes from ``qbsd.generate_synthetic``; gaps and spikes are
applied here, on the harness side, so the program under test only ever sees
the finished files. The same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# Monday starts keep generate_synthetic's weekend days on real weekends.
KPI_START = int(datetime(2023, 1, 2, tzinfo=timezone.utc).timestamp())
YEARLY_START = int(datetime(2021, 1, 4, tzinfo=timezone.utc).timestamp())


def iso(epoch_seconds: int) -> str:
    return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S"
    )


@dataclass
class SeriesInput:
    """One generated CSV: the values the program sees (NaN marks a blank
    cell), plus what the oracle needs to know about how it was made."""

    path: Path
    start: int
    interval: int
    values: np.ndarray
    gap_count: int
    spike_slots: list[int] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return len(self.values)


@dataclass
class FleetInput:
    path: Path
    n_prefill: int
    n_ticks: int
    values: np.ndarray  # (n_series, n_prefill + n_ticks), no gaps


def _series(qbsd, days: int, slots_per_day: int, noise_std: float, seed: int,
            amplitude: float = 900.0) -> np.ndarray:
    spec = qbsd.SynthSpec(days=days, slots_per_day=slots_per_day,
                          amplitude=amplitude, noise_std=noise_std, seed=seed)
    return np.array(qbsd.generate_synthetic(spec).values, dtype=float)


def _blank_gaps(values: np.ndarray, share: float, rng: random.Random,
                keep: set[int], first_free: int) -> int:
    """Blank about ``share`` of the cells at or after ``first_free``, never
    one listed in ``keep``. Returns the number blanked."""
    candidates = [i for i in range(first_free, len(values)) if i not in keep]
    chosen = rng.sample(candidates, round(share * len(values)))
    values[chosen] = np.nan
    return len(chosen)


def _write_csv(path: Path, start: int, interval: int, values: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", "value"])
        for i, value in enumerate(values.tolist()):
            cell = "" if value != value else repr(value)
            writer.writerow([iso(start + i * interval), cell])


def kpi_series(qbsd, workdir: Path, seed: int, days: int, n_spikes: int,
               spike_size: float = 4000.0, gap_share: float = 0.02) -> SeriesInput:
    """Quarter-hourly KPI with blank cells and additive spikes at known rows.

    Spikes sit after the first four weeks (past the weekly4 warmup) and at
    least a day apart, so each one is scored against a spike-free forecast.
    """
    rng = random.Random(seed * 7919 + 1)
    values = _series(qbsd, days, 96, 10.0, seed)
    day = 96
    first_spike = 28 * day
    spike_slots: list[int] = []
    if n_spikes:
        spacing = (len(values) - first_spike) // n_spikes
        if spacing <= day:
            raise ValueError("too many spikes for the series length")
        for i in range(n_spikes):
            lo = first_spike + i * spacing
            spike_slots.append(rng.randrange(lo, lo + spacing - day))
        values[spike_slots] += spike_size
    gaps = _blank_gaps(values, gap_share, rng, set(spike_slots), first_free=day)
    path = workdir / "kpi.csv"
    _write_csv(path, KPI_START, 900, values)
    return SeriesInput(path, KPI_START, 900, values, gaps, spike_slots)


def yearly_series(qbsd, workdir: Path, seed: int, days: int,
                  gap_share: float = 0.02) -> SeriesInput:
    """Hourly series with blank cells, long enough for a yearly lag."""
    rng = random.Random(seed * 7919 + 2)
    values = _series(qbsd, days, 24, 10.0, seed)
    gaps = _blank_gaps(values, gap_share, rng, set(), first_free=24)
    path = workdir / "yearly.csv"
    _write_csv(path, YEARLY_START, 3600, values)
    return SeriesInput(path, YEARLY_START, 3600, values, gaps)


def fleet(qbsd, workdir: Path, seed: int, n_series: int, prefill_weeks: int,
          n_ticks: int) -> FleetInput:
    """Hourly series for a fleet, one synthetic seed and amplitude per series."""
    n_prefill = prefill_weeks * 7 * 24
    days = -(-(n_prefill + n_ticks) // 24)
    rows = [
        _series(qbsd, days, 24, 5.0, seed * 100003 + i, amplitude=200.0 + 7.0 * i)
        for i in range(n_series)
    ]
    values = np.stack(rows)[:, : n_prefill + n_ticks]
    path = workdir / "fleet.npy"
    np.save(path, values)
    return FleetInput(path, n_prefill, n_ticks, values)
