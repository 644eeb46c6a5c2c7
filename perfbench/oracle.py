"""Reference results rebuilt from the generated inputs with numpy alone.

Nothing here imports ``qbsd``: subsets come from offsets derived from the
lag recipe, quartiles from Hyndman & Fan type 7 (linear interpolation
between closest ranks), the forecast is the mean of the samples strictly
between Q1 and Q3, and the subset median stands in when that interior is
empty. Values agree with the program when within 1e-9 of the operands'
magnitude.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
C_FLOOR = 1e-6  # the CLI's default floor for an estimated contingency constant
MIN_SAMPLES = 4  # the program's default validity threshold


def scheme_offsets(lag_slots: list[int], k: int) -> np.ndarray:
    """Offsets relative to the target: past-only window at lag 0, symmetric
    windows at the middle lags, forward-inclusive window at the deepest."""
    out = list(range(-k, 0))
    for lag in lag_slots[1:-1]:
        out.extend(range(-lag - k, -lag + k + 1))
    out.extend(range(-lag_slots[-1], -lag_slots[-1] + k + 1))
    return np.array(out, dtype=np.int64)


def weekly_lags(n_weeks: int, slots_per_day: int) -> list[int]:
    return [w * 7 * slots_per_day for w in range(n_weeks)]


def weekly_plus_yearly_lags(slots_per_day: int) -> list[int]:
    week = 7 * slots_per_day
    return [0, week, 52 * week]


def _type7(ordered: np.ndarray, n: np.ndarray, fraction: float) -> np.ndarray:
    """Row-wise type-7 percentile of rows sorted ascending with NaNs last,
    where row r holds n[r] >= 1 real samples."""
    pos = fraction * (n - 1)
    lo = np.floor(pos).astype(np.int64)
    rem = pos - lo
    hi = np.minimum(lo + 1, n - 1)
    a = np.take_along_axis(ordered, lo[:, None], axis=1)[:, 0]
    b = np.take_along_axis(ordered, hi[:, None], axis=1)[:, 0]
    return np.where(rem == 0.0, a, a + rem * (b - a))


@dataclass
class Forecasts:
    """Per-target reference outputs; ``ok`` is False where the program must
    skip (fewer than MIN_SAMPLES subset members present)."""

    ok: np.ndarray
    count: np.ndarray
    forecast: np.ndarray
    q1: np.ndarray
    q3: np.ndarray
    fallback: np.ndarray


def forecasts(history: np.ndarray, targets: np.ndarray, offsets: np.ndarray) -> Forecasts:
    """Forecast each target index from ``history`` (NaN = absent) at
    target + offset; offsets are negative, so no target sees itself."""
    idx = targets[:, None] + offsets[None, :]
    m = np.where(idx >= 0, history[np.maximum(idx, 0)], np.nan)
    count = np.count_nonzero(~np.isnan(m), axis=1)
    ok = count >= MIN_SAMPLES
    n = np.maximum(count, 1)
    ordered = np.sort(m, axis=1)
    q1 = _type7(ordered, n, 0.25)
    q3 = _type7(ordered, n, 0.75)
    inside = (m > q1[:, None]) & (m < q3[:, None])
    n_inside = inside.sum(axis=1)
    interior_sum = np.where(inside, m, 0.0).sum(axis=1)
    fallback = n_inside == 0
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = interior_sum / n_inside
    forecast = np.where(fallback, _type7(ordered, n, 0.5), mean)
    return Forecasts(ok, count, forecast, q1, q3, fallback)


def contingency(prefix: np.ndarray) -> float:
    """|1st percentile| of the present prefix values, floored."""
    present = np.sort(prefix[~np.isnan(prefix)])
    if present.size == 0:
        return C_FLOOR
    p1 = _type7(present[None, :], np.array([present.size]), 0.01)[0]
    return max(abs(float(p1)), C_FLOOR)


def close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want), scale)


def savgol(values: np.ndarray, window: int, order: int) -> np.ndarray:
    """Savitzky-Golay smoothing: least-squares polynomial weights inside, a
    polynomial fitted to the first/last full window at the edges."""
    half = window // 2
    x = np.arange(-half, half + 1, dtype=float)
    v = np.vander(x, order + 1, increasing=True)
    weights = np.linalg.solve(v.T @ v, v.T)[0]
    n = len(values)
    out = np.empty(n)
    out[half : n - half] = np.correlate(values, weights, mode="valid")
    xs = np.arange(window, dtype=float)
    head = np.polyfit(xs, values[:window], order)
    out[:half] = np.polyval(head, xs[:half])
    tail = np.polyfit(xs, values[n - window :], order)
    out[n - half :] = np.polyval(tail, xs[window - half :])
    return out


# ------------------------------------------------------------ kpi_stream


def _iso(epoch: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(epoch))


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _float_cell(cell: str) -> float | None:
    return float(cell) if cell else None


def expected_stream(values: np.ndarray, offsets: np.ndarray, window: int,
                    order: int) -> dict:
    """Reference record columns for streaming ``values`` (NaN = blank cell)
    through the anomaly command with a Savitzky-Golay bound smoother."""
    n = len(values)
    fc = forecasts(values, np.arange(n), offsets)
    present = np.flatnonzero(~np.isnan(values))
    span = int(-offsets.min())
    first = int(present[0]) if present.size else 0
    prefix = values[first : first + span]
    c = contingency(prefix)
    q1s = np.full(n, np.nan)
    q3s = np.full(n, np.nan)
    # smoothing runs over maximal runs of rows that have bounds
    start = None
    for i in range(n + 1):
        has = i < n and fc.ok[i]
        if has and start is None:
            start = i
        elif not has and start is not None:
            if i - start >= window:
                q1s[start:i] = savgol(fc.q1[start:i], window, order)
                q3s[start:i] = savgol(fc.q3[start:i], window, order)
            start = None
    return {"fc": fc, "c": c, "q1s": q1s, "q3s": q3s}


def check_stream(out_path, values: np.ndarray, start: int, interval: int,
                 offsets: np.ndarray, threshold: float, window: int, order: int,
                 spike_slots: list[int]) -> tuple[int, list[str], int]:
    """Compare every record of an anomaly-command output file with the
    reference. Returns (records wrong, notes, records with a forecast)."""
    exp = expected_stream(values, offsets, window, order)
    fc = exp["fc"]
    notes: list[str] = []
    wrong_rows: set[int] = set()
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    want_header = ["timestamp", "actual", "forecast", "q1", "q3", "iqr",
                   "diff_residual", "norm_residual", "sample_count",
                   "fallback_used", "q1_smooth", "q3_smooth", "anomaly_flag"]
    forecast_rows = int(fc.ok.sum())
    if header != want_header:
        return len(values), [f"unexpected header {header}"], forecast_rows
    if len(body) != len(values):
        notes.append(f"{len(body)} records for {len(values)} input rows")
        wrong_rows.update(range(min(len(body), len(values)), len(values)))
    for i, row in enumerate(body[: len(values)]):
        if not _row_ok(row, i, values, start, interval, threshold, exp):
            wrong_rows.add(i)
            if len(notes) < 5:
                notes.append(f"record {i} ({row[:1]}) disagrees with the oracle")
    for s in spike_slots:
        if fc.ok[s] and (s >= len(body) or body[s][12:] != ["true"]):
            wrong_rows.add(s)
            notes.append(f"spike at record {s} not flagged")
    return len(wrong_rows), notes, forecast_rows


def _row_ok(row, i, values, start, interval, threshold, exp) -> bool:
    fc, c = exp["fc"], exp["c"]
    if len(row) != 13 or row[0] != _iso(start + i * interval):
        return False
    actual = None if math.isnan(values[i]) else float(values[i])
    if _float_cell(row[1]) != actual:
        return False
    if not fc.ok[i]:
        return all(cell == "" for cell in row[2:13])
    f, q1, q3 = float(fc.forecast[i]), float(fc.q1[i]), float(fc.q3[i])
    iqr = q3 - q1
    got = [_float_cell(cell) for cell in row[2:6]]
    if None in got:
        return False
    mag = max(abs(q1), abs(q3))
    if not (close(got[0], f) and close(got[1], q1) and close(got[2], q3)
            and close(got[3], iqr, mag)):
        return False
    if row[8] != str(int(fc.count[i])) or row[9] != _fmt_bool(bool(fc.fallback[i])):
        return False
    smoothed = exp["q1s"][i], exp["q3s"][i]
    for cell, want in zip(row[10:12], smoothed):
        if math.isnan(want):
            if cell != "":
                return False
        elif cell == "" or not close(float(cell), float(want), mag):
            return False
    if actual is None:
        return row[6] == row[7] == row[12] == ""
    diff = actual - f
    norm = diff / max(iqr, c)
    base = max(abs(actual), abs(f))
    norm_base = base / max(iqr, c)
    if row[6] == "" or row[7] == "":
        return False
    if not (close(float(row[6]), diff, base) and close(float(row[7]), norm, norm_base)):
        return False
    if abs(abs(norm) - threshold) <= REL_TOL * norm_base:
        return row[12] in ("true", "false")  # too close to call
    return row[12] == _fmt_bool(abs(norm) > threshold)


# ------------------------------------------------------- yearly_evaluate


def expected_evaluation(values: np.ndarray, offsets: np.ndarray, test_lo: int,
                        test_hi: int, season: int) -> dict[str, dict]:
    """MAE, RMSE and skip count per method over test rows test_lo..test_hi
    (inclusive row indices). Baselines read only actual values; the quartile
    forecaster reads the subset of every earlier row."""
    targets = np.arange(test_lo, test_hi + 1)
    actual = values[targets]
    fc = forecasts(values, targets, offsets)
    preds = {
        "qbsd": np.where(fc.ok, fc.forecast, np.nan),
        "seasonal-naive": np.where(targets >= season, values[targets - season], np.nan),
        "persistence": np.where(targets >= 1, values[targets - 1], np.nan),
    }
    out = {}
    for name, pred in preds.items():
        scored = ~np.isnan(actual) & ~np.isnan(pred)
        err = actual[scored] - pred[scored]
        out[name] = {
            "mae": float(np.abs(err).mean()),
            "rmse": float(np.sqrt((err * err).mean())),
            "skipped": int(np.isnan(pred).sum()),
        }
    return out


def check_evaluation(report_text: str, expected: dict[str, dict]) -> list[str]:
    """Problems found in an ``evaluate --format json`` report; empty when
    every method's MAE, RMSE and skip count match."""
    try:
        methods = {m["method"]: m for m in json.loads(report_text)["methods"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable evaluation report: {exc}"]
    problems = []
    for name, want in expected.items():
        got = methods.get(name)
        if got is None:
            problems.append(f"method {name} missing from the report")
            continue
        for key in ("mae", "rmse"):
            if not isinstance(got.get(key), float) or not close(got[key], want[key]):
                problems.append(f"{name} {key} {got.get(key)} != oracle {want[key]}")
        if got.get("skipped") != want["skipped"]:
            problems.append(f"{name} skipped {got.get('skipped')} != oracle {want['skipped']}")
    return problems


# ----------------------------------------------------- multi_series_tick


def check_fleet_samples(values: np.ndarray, offsets: np.ndarray, c: float,
                        samples: list[list]) -> tuple[int, list[str]]:
    """Check sampled observe() outputs, each
    [series, slot, actual, forecast, q1, q3, iqr, count, fallback, diff, norm]
    where slot indexes the series' columns. Returns (wrong, notes)."""
    if not samples:
        return 0, []
    arr = np.array([s[:2] for s in samples], dtype=np.int64)
    wrong = 0
    notes: list[str] = []
    for series in np.unique(arr[:, 0]):
        rows = np.flatnonzero(arr[:, 0] == series)
        fc = forecasts(values[series], arr[rows, 1], offsets)
        for j, r in enumerate(rows):
            if not _sample_ok(samples[r], values[series], fc, j, c):
                wrong += 1
                if len(notes) < 5:
                    notes.append(f"series {series} slot {samples[r][1]} disagrees with the oracle")
    return wrong, notes


def _sample_ok(sample, series_values, fc: Forecasts, j: int, c: float) -> bool:
    _, slot, actual, forecast, q1, q3, iqr, count, fallback, diff, norm = sample
    if not fc.ok[j] or actual != float(series_values[slot]):
        return False
    f, wq1, wq3 = float(fc.forecast[j]), float(fc.q1[j]), float(fc.q3[j])
    wiqr = wq3 - wq1
    base = max(abs(actual), abs(f))
    return (close(forecast, f) and close(q1, wq1) and close(q3, wq3)
            and close(iqr, wiqr, max(abs(wq1), abs(wq3)))
            and count == int(fc.count[j]) and fallback == bool(fc.fallback[j])
            and close(diff, actual - f, base)
            and close(norm, (actual - f) / max(wiqr, c), base / max(wiqr, c)))
