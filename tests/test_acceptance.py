"""Acceptance gate: one test per criterion, each printing a pass line with
the measured numbers (run with -v for one line per criterion either way)."""

import csv
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qbsd.core import QbsdConfig, compute_quartiles
from qbsd.cli import measure_qbsd_latency
from qbsd.datasets import (
    DatasetDescriptor,
    SynthSpec,
    generate_synthetic,
    get_descriptor,
    load_csv,
    rolling_evaluate,
    skipped_count,
)
from qbsd.engine import RollingForecaster
from qbsd.metrics import EvalPairs, evaluate, wilcoxon_signed_rank
from qbsd.smoothing import SavitzkyGolay, savgol_coefficients, smooth
from qbsd.timegrid import (
    DAILY,
    QUARTER_HOURLY,
    SlotCoord,
    default_weekly_scheme,
    resolve_subset_slots,
)

DATA_DIR = Path(os.environ.get("QBSD_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def _report(number: int, description: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} PASS - {description}{suffix}")


def test_criterion_01_subset_size_law():
    g = QUARTER_HOURLY
    rng = random.Random(101)
    for k in range(17):
        scheme = default_weekly_scheme(4, k, g)
        warm = 3 * g.slots_per_week + k
        for _ in range(1000):
            t = SlotCoord(rng.randint(warm, warm + 200_000), g)
            slots = resolve_subset_slots(t, scheme)
            assert len(slots) == 6 * k + 3
            assert len({c.global_slot for c in slots}) == 6 * k + 3
            assert all(c.global_slot < t.global_slot for c in slots)
    _report(1, "4-week scheme resolves exactly 6k+3 slots for k in 0..16")


def test_criterion_02_no_leakage():
    g = DAILY
    rng = random.Random(202)
    for _ in range(1000):
        k = rng.randint(0, 3)
        cfg = QbsdConfig(scheme=default_weekly_scheme(4, k, g), c=1.0, min_samples=3)
        span = cfg.scheme.span_slots
        history = [(SlotCoord(s, g), rng.uniform(-100, 100)) for s in range(span + 5)]
        t = SlotCoord(span + 5, g)
        outputs = []
        for value_at_t in (None, rng.uniform(-100, 100), 1e12):
            f = RollingForecaster(cfg, g)
            f.ingest_history(history)
            if value_at_t is not None:
                f.ingest_history([(t, value_at_t)])
            outputs.append(f.forecast_at(t))
        assert outputs[0] == outputs[1] == outputs[2]
    _report(2, "forecast_at(t) is bit-identical with M(t) absent/present/arbitrary")


def test_criterion_03_noiseless_periodicity():
    desc = get_descriptor("synthetic")  # 8 weeks, 96 slots/day, k=0 scheme
    frame = generate_synthetic(SynthSpec(noise_std=0.0))
    [(report, records)] = rolling_evaluate(frame, [desc.qbsd_config()], desc)
    assert skipped_count(records) == 0
    assert report.mape <= 1e-9
    assert all(r.iqr == 0.0 for r in records)
    _report(3, "noiseless weekly-periodic series gives MAPE <= 1e-9 and IQR = 0",
            f"mape={report.mape:.2e}")


def _oracle_percentile(values, fraction):
    ordered = sorted(values)
    pos = fraction * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    return ordered[lo] * (hi - pos) + ordered[hi] * (pos - lo)


def test_criterion_04_quartile_oracle_equivalence():
    rng = random.Random(404)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 100)
        if rng.random() < 0.4:
            pool = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 4))]
            values = [rng.choice(pool) for _ in range(n)]
        else:
            values = [rng.uniform(-1e4, 1e4) for _ in range(n)]
        got = compute_quartiles(values)
        worst = max(
            worst,
            abs(got.q1 - _oracle_percentile(values, 0.25)),
            abs(got.q3 - _oracle_percentile(values, 0.75)),
        )
    assert worst <= 1e-12
    _report(4, "quartiles match the brute-force interpolated-percentile oracle",
            f"worst |diff|={worst:.2e}")


def _lstsq_weights_exact(window_length, polyorder):
    """Normal-equations least squares in exact rationals."""
    half = window_length // 2
    offsets = range(-half, half + 1)
    m = polyorder + 1
    a = [[Fraction(x) ** p for p in range(m)] for x in offsets]
    ata = [
        [sum(a[r][i] * a[r][j] for r in range(window_length)) for j in range(m)]
        for i in range(m)
    ]
    aug = [ata[i] + [a[r][i] for r in range(window_length)] for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = Fraction(1) / aug[col][col]
        aug[col] = [v * scale for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return aug[0][m:]


def test_criterion_05_savitzky_golay_correctness():
    got = savgol_coefficients(5, 2)
    expected = [Fraction(-3, 35), Fraction(12, 35), Fraction(17, 35),
                Fraction(12, 35), Fraction(-3, 35)]
    assert _lstsq_weights_exact(5, 2) == expected
    worst_w = max(abs(g - float(e)) for g, e in zip(got, expected))
    assert worst_w <= 1e-12

    worst_poly = 0.0
    xs = list(range(40))
    for coeffs in ([3.0], [1.0, -2.0], [0.5, 1.0, -0.25], [2.0, -1.0, 0.3, 0.05]):
        series = [sum(c * x**p for p, c in enumerate(coeffs)) for x in xs]
        out = smooth(series, SavitzkyGolay(11, 3))
        worst_poly = max(worst_poly, max(abs(a - b) for a, b in zip(out, series)))
    assert worst_poly <= 1e-9
    _report(5, "SG (5,2) weights equal [-3,12,17,12,-3]/35; degree<=p polynomials "
               "reproduced including edges",
            f"worst weight diff={worst_w:.2e}, worst poly diff={worst_poly:.2e}")


def test_criterion_06_metrics_oracle():
    rng = random.Random(606)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(2, 100)
        actual = [rng.uniform(-5, 5) for _ in range(n)]
        predicted = [rng.uniform(-5, 5) for _ in range(n)]
        got = evaluate(EvalPairs(actual, predicted))

        mae = mse = mape_sum = 0.0
        nonzero = 0
        for y, p in zip(actual, predicted):
            mae += abs(y - p)
            mse += (y - p) * (y - p)
            if y != 0:
                mape_sum += abs(y - p) / abs(y)
                nonzero += 1
        mae /= n
        mse /= n
        y_bar = 0.0
        for y in actual:
            y_bar += y
        y_bar /= n
        ss_tot = 0.0
        for y in actual:
            ss_tot += (y - y_bar) * (y - y_bar)
        worst = max(
            worst,
            abs(got.mae - mae),
            abs(got.mse - mse),
            abs(got.rmse - math.sqrt(mse)),
            abs(got.mape - 100 * mape_sum / nonzero),
            abs(got.r2 - (1 - n * mse / ss_tot)),
            abs(got.rmse**2 - got.mse),
        )
    assert worst <= 1e-12

    perfect = evaluate(EvalPairs([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]))
    assert perfect.r2 == 1.0
    assert perfect.mape == 0.0
    _report(6, "metrics match naive-summation oracles; perfect prediction exact",
            f"worst |diff|={worst:.2e}")


def test_criterion_07_wilcoxon_exactness():
    p = wilcoxon_signed_rank(
        [2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.0, 1.0, 1.0, 1.0], alternative="greater"
    )
    assert p == 0.03125

    rng = random.Random(707)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(10, 12)
        a = [rng.uniform(0, 10) for _ in range(n)]
        b = [rng.uniform(0, 10) for _ in range(n)]
        for alternative in ("less", "greater", "two_sided"):
            exact = wilcoxon_signed_rank(a, b, alternative=alternative, mode="exact")
            approx = wilcoxon_signed_rank(a, b, alternative=alternative, mode="approx")
            worst = max(worst, abs(exact - approx))
    assert worst < 0.02
    _report(7, "n=5 all-positive one-sided p = 1/32 exactly; exact vs approx "
               "agree for n in 10..12", f"worst |diff|={worst:.4f}")


def test_criterion_08_latency_independence():
    stats = measure_qbsd_latency(n_forecasts=10_000, k=4, slots_per_day=96,
                                 buffer_weeks=(4, 16), seed=808)
    median_4, _ = stats[4]
    median_16, _ = stats[16]
    assert median_16 <= 1.5 * median_4
    assert median_4 <= 0.020
    assert median_16 <= 0.020
    _report(8, "16-week buffer median latency <= 1.5x 4-week; median <= 20 ms",
            f"4w={median_4 * 1e3:.4f} ms, 16w={median_16 * 1e3:.4f} ms, "
            f"ratio={median_16 / median_4:.3f}")


def test_criterion_09_anomaly_example():
    base = get_descriptor("synthetic")
    desc = DatasetDescriptor(
        name="synthetic",
        frequency=base.frequency,
        timestamp_column=base.timestamp_column,
        target_column=base.target_column,
        train_window_seconds=base.train_window_seconds,
        k_seconds=4 * 900,
        scheme=default_weekly_scheme(4, 4, QUARTER_HOURLY),
        test_range=base.test_range,
    )
    cfg = desc.qbsd_config(c=1e-6)
    threshold = 3.0

    clean = generate_synthetic(SynthSpec(noise_std=5.0, seed=909))
    [(_, clean_records)] = rolling_evaluate(clean, [cfg], desc)
    by_slot = {r.slot.global_slot: r for r in clean_records}
    test_start, _ = desc.test_slot_range
    big_slot = test_start + 500
    small_slot = test_start + 1500
    big_iqr = by_slot[big_slot].iqr
    small_iqr = by_slot[small_slot].iqr
    assert big_iqr > 0 and small_iqr > 0

    injected = generate_synthetic(
        SynthSpec(
            noise_std=5.0,
            seed=909,
            anomalies=((big_slot, 10.0 * big_iqr), (small_slot, 1.2 * small_iqr)),
        )
    )
    [(_, records)] = rolling_evaluate(injected, [cfg], desc)
    flagged = [
        r.slot.global_slot
        for r in records
        if r.norm_residual is not None and abs(r.norm_residual) > threshold
    ]
    assert flagged == [big_slot]
    by_slot_injected = {r.slot.global_slot: r for r in records}
    _report(9, "10*IQR spike flagged at threshold 3, 1.2*IQR spike not",
            f"|norm| big={abs(by_slot_injected[big_slot].norm_residual):.2f}, "
            f"small={abs(by_slot_injected[small_slot].norm_residual):.2f}")


def _normalize(name: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in name.strip().lower())
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


def _load_flexible(path: Path, timestamp_hints, value_hint, granularity):
    with open(path, newline="") as handle:
        header = csv.DictReader(handle).fieldnames or []
    ts_col = None
    for hint in timestamp_hints:
        for name in header:
            if _normalize(name) == hint:
                ts_col = name
                break
        if ts_col:
            break
    if ts_col is None:
        ts_col = header[0]
    value_col = next(
        (name for name in header if _normalize(name) == value_hint), None
    )
    if value_col is None:
        pytest.skip(
            f"{path}: no column matching {value_hint!r} in {header}; "
            "see the README dataset recipe"
        )
    return load_csv(str(path), ts_col, value_col, granularity)


def _require_dataset(filename: str) -> Path:
    path = DATA_DIR / filename
    if not path.exists():
        pytest.skip(
            f"dataset file {path} not found; fetch it per the README section "
            "'Reproducing the published numbers' (or set QBSD_DATA_DIR)"
        )
    return path


def test_criterion_10a_births2015_reproduction():
    path = _require_dataset("births2015.csv")
    desc = get_descriptor("births2015")
    frame = _load_flexible(path, ("date", "timestamp", "time", "ds"), "births",
                           desc.frequency)
    [(report, records)] = rolling_evaluate(frame, [desc.qbsd_config(c=1.0)], desc)
    assert abs(report.mape - 1.83) <= 0.5, f"births2015 MAPE {report.mape:.3f}"
    _report(10, "births2015 MAPE within 1.83 +/- 0.5",
            f"mape={report.mape:.3f}, skipped={skipped_count(records)}")


def test_criterion_10b_eon1_kpi_e_reproduction():
    path = _require_dataset("eon1_cell_f.csv")
    desc = get_descriptor("eon1_cell_f_e")
    frame = _load_flexible(path, ("timestamp", "time", "date", "ds"), "kpi_e",
                           desc.frequency)
    [(report, records)] = rolling_evaluate(frame, [desc.qbsd_config(c=1.0)], desc)
    assert abs(report.mape - 5.137) <= 1.0, f"EON1 KPI E MAPE {report.mape:.3f}"
    assert abs(report.r2 - 0.989) <= 0.02, f"EON1 KPI E R2 {report.r2:.4f}"
    _report(10, "EON1-Cell-F KPI E MAPE within 5.137 +/- 1.0 and R2 within "
                "0.989 +/- 0.02",
            f"mape={report.mape:.3f}, r2={report.r2:.4f}, "
            f"skipped={skipped_count(records)}")
