"""Command-line surface: evaluate, forecast, anomaly, bench, synth.

Exit codes are a stable scripting contract: 0 success, 1 usage or
configuration errors, 2 data or I/O errors. A flat key=value config file can
supply any long flag's value; flags given on the command line win.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, TextIO

from . import baselines as bl
from .core import DEFAULT_C_FLOOR_CONTINUOUS, QbsdConfig, contingency_constant
from .datasets import (
    DatasetDescriptor,
    SeriesFrame,
    StepRecord,
    SynthSpec,
    estimate_contingency,
    format_timestamp,
    generate_synthetic,
    get_descriptor,
    load_csv,
    parse_timestamp,
    replay,
    rolling_evaluate,
    series_rows,
    skipped_count,
)
from .engine import RollingForecaster
from .errors import (
    ConfigError,
    DataError,
    ParseError,
    SeriesTooShort,
    TooFewPairs,
)
from .metrics import MetricsReport, wilcoxon_signed_rank
from .smoothing import MovingAverage as SmoothingMA
from .smoothing import SavitzkyGolay, SmootherSpec, StreamingSmoother
from .timegrid import Granularity, SlotCoord, align, default_weekly_scheme, scheme_from_lags, weekly_plus_yearly_scheme

RECORD_COLUMNS = (
    "timestamp",
    "actual",
    "forecast",
    "q1",
    "q3",
    "iqr",
    "diff_residual",
    "norm_residual",
    "sample_count",
    "fallback_used",
)

REPORTED_TIMINGS_LINE = (
    "reference: originally reported QBSD single-forecast timings span "
    "8.72 ms (quarter-hourly KPI series) to 21.5 ms (hourly weather series)"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2) on usage errors
        raise ConfigError(message)


def _parse_scheme(name: str, k: int, g: Granularity):
    name = name.strip().lower()
    if name == "weekly4":
        return default_weekly_scheme(4, k, g)
    if name == "weekly6":
        return default_weekly_scheme(6, k, g)
    if name == "weekly_plus_yearly":
        return weekly_plus_yearly_scheme(k, g)
    if name.startswith("custom:"):
        try:
            days = [int(part) for part in name[len("custom:") :].split(",")]
        except ValueError:
            raise ConfigError(f"bad custom scheme {name!r}; expected custom:0,7,14")
        return scheme_from_lags([d * g.slots_per_day for d in days], k)
    raise ConfigError(
        f"unknown scheme {name!r}; use weekly4, weekly6, weekly_plus_yearly "
        "or custom:<day,day,...>"
    )


def _parse_smoother(text: Optional[str]) -> SmootherSpec:
    if text is None:
        return None
    text = text.strip().lower()
    if text in ("", "none"):
        return None
    parts = text.split(":")
    if parts[0] == "sg":
        if len(parts) == 1:
            return SavitzkyGolay(11, 3)
        if len(parts) == 3:
            try:
                return SavitzkyGolay(int(parts[1]), int(parts[2]))
            except ValueError:
                pass
        raise ConfigError(f"bad smoother {text!r}; expected sg:<window>:<polyorder>")
    if parts[0] == "ma":
        if len(parts) == 2:
            try:
                return SmoothingMA(int(parts[1]))
            except ValueError:
                pass
        raise ConfigError(f"bad smoother {text!r}; expected ma:<window>")
    raise ConfigError(f"unknown smoother kind {parts[0]!r}; use sg, ma or none")


def _parse_methods(text: str, g: Granularity) -> list[tuple[str, object]]:
    """Comma-separated method list -> (label, marker) pairs; the marker is
    the string "qbsd" or a baseline spec."""
    methods: list[tuple[str, object]] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        name, _, arg = token.partition(":")
        if arg:
            try:
                arg_slots = int(arg)
            except ValueError:
                raise ConfigError(f"bad method argument in {token!r}; expected slots")
        else:
            arg_slots = None
        if name == "qbsd":
            methods.append(("qbsd", "qbsd"))
        elif name == "seasonal-naive":
            methods.append(
                (token, bl.SeasonalNaive(arg_slots or g.slots_per_week))
            )
        elif name == "persistence":
            methods.append((token, bl.Persistence()))
        elif name == "moving-average":
            methods.append(
                (token, bl.MovingAverage(arg_slots or g.slots_per_day))
            )
        else:
            raise ConfigError(
                f"unknown method {name!r}; use qbsd, seasonal-naive[:slots], "
                "persistence or moving-average[:slots]"
            )
    if not methods:
        raise ConfigError("no methods given")
    return methods


def _parse_anomalies(text: Optional[str]) -> tuple[tuple[int, float], ...]:
    if not text:
        return ()
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        slot_text, _, magnitude_text = token.partition(":")
        try:
            out.append((int(slot_text), float(magnitude_text)))
        except ValueError:
            raise ConfigError(
                f"bad anomaly {token!r}; expected <slot>:<magnitude>, "
                "e.g. 3000:+500"
            )
    return tuple(out)


def _load_config_flags(path: str) -> list[str]:
    flags: list[str] = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{number}: expected key=value, got {line!r}")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() == "false":
            continue
        else:
            flags.extend([flag, value])
    return flags


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file entries right after the subcommand so that flags
    typed on the command line override them."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None or not argv:
        return argv
    return argv[:1] + _load_config_flags(path) + argv[1:]


class RecordWriter:
    """Streams per-step records as CSV, optionally adding smoothed bound
    columns and an anomaly flag.

    Smoothing is centered, so rows are held back until their smoothed values
    are final; memory stays bounded by the smoother window. A warmup row
    (no bounds) ends the current smoothing segment.

    Every cell is a timestamp, a number, a boolean or blank, so no cell
    needs CSV quoting and each row is one joined line.
    """

    def __init__(
        self,
        handle: TextIO,
        smoother: SmootherSpec = None,
        threshold: Optional[float] = None,
    ):
        self._smoother = smoother
        self._threshold = threshold
        self.anomaly_count = 0
        columns = list(RECORD_COLUMNS)
        if smoother is not None:
            columns += ["q1_smooth", "q3_smooth"]
        if threshold is not None:
            columns.append("anomaly_flag")
        self._write = handle.write
        self._write(",".join(columns) + "\n")
        # rows waiting for their smoothed cells, as (cells before, cells after)
        self._pending: deque[tuple[str, str]] = deque()
        self._smooth_q1: Optional[StreamingSmoother] = None
        self._smooth_q3: Optional[StreamingSmoother] = None

    def write(self, record: StepRecord) -> None:
        norm = record.norm_residual
        head = ",".join((
            format_timestamp(record.timestamp),
            "" if record.actual is None else repr(record.actual),
            "" if record.forecast is None else repr(record.forecast),
            "" if record.q1 is None else repr(record.q1),
            "" if record.q3 is None else repr(record.q3),
            "" if record.iqr is None else repr(record.iqr),
            "" if record.diff_residual is None else repr(record.diff_residual),
            "" if norm is None else repr(norm),
            "" if record.sample_count is None else str(record.sample_count),
            "" if record.fallback_used is None
            else "true" if record.fallback_used else "false",
        ))
        if self._threshold is None:
            tail = ""
        elif norm is None:
            tail = ","
        elif abs(norm) > self._threshold:
            self.anomaly_count += 1
            tail = ",true"
        else:
            tail = ",false"
        if self._smoother is None:
            self._write(head + tail + "\n")
            return
        if record.q1 is None:
            self._flush_segment()
            self._write(head + ",," + tail + "\n")
            return
        if self._smooth_q1 is None:
            self._smooth_q1 = StreamingSmoother(self._smoother)
            self._smooth_q3 = StreamingSmoother(self._smoother)
        self._pending.append((head, tail))
        q1s = self._smooth_q1.push(record.q1)
        q3s = self._smooth_q3.push(record.q3)
        self._emit_smoothed(q1s, q3s)

    def _emit_smoothed(self, q1s: list[float], q3s: list[float]) -> None:
        for sq1, sq3 in zip(q1s, q3s):
            head, tail = self._pending.popleft()
            self._write(f"{head},{sq1!r},{sq3!r}{tail}\n")

    def _flush_segment(self) -> None:
        if self._smooth_q1 is None:
            return
        try:
            q1s = self._smooth_q1.finish()
            q3s = self._smooth_q3.finish()
            self._emit_smoothed(q1s, q3s)
        except SeriesTooShort:
            # segment shorter than the smoother window: emit rows unsmoothed
            while self._pending:
                head, tail = self._pending.popleft()
                self._write(head + ",," + tail + "\n")
        self._smooth_q1 = None
        self._smooth_q3 = None

    def close(self) -> None:
        if self._smoother is not None:
            self._flush_segment()


def _resolve_descriptor(args, need_test_range: bool) -> DatasetDescriptor:
    """Build the run's descriptor either from a builtin name or from the
    generic-CSV flags; every parameter is validated before any data work."""
    if args.dataset:
        base = get_descriptor(args.dataset)
        g = base.frequency
        k = args.k if args.k is not None else base.k_slots
        if args.scheme:
            scheme = _parse_scheme(args.scheme, k, g)
        elif k == base.k_slots:
            scheme = base.scheme
        else:  # same lag structure, new context period
            scheme = scheme_from_lags([lag.lag_slots for lag in base.scheme.lags], k)
        return DatasetDescriptor(
            name=base.name,
            frequency=g,
            timestamp_column=args.timestamp_column or base.timestamp_column,
            target_column=args.value_column or base.target_column,
            train_window_seconds=(
                args.train_window * 86400
                if args.train_window is not None
                else base.train_window_seconds
            ),
            k_seconds=k * g.interval_seconds,
            scheme=scheme,
            test_range=base.test_range,
        )
    if args.interval is None:
        raise ConfigError("either --dataset or --interval is required")
    g = Granularity(args.interval)
    k = args.k if args.k is not None else 4
    scheme = _parse_scheme(args.scheme or "weekly4", k, g)
    train_days = args.train_window if args.train_window is not None else 28
    if need_test_range:
        if args.test_start is None or args.test_end is None:
            raise ConfigError(
                "--test-start and --test-end are required for custom datasets"
            )
        test_range = (parse_timestamp(args.test_start), parse_timestamp(args.test_end))
    else:
        test_range = (0, 0)
    return DatasetDescriptor(
        name="custom",
        frequency=g,
        timestamp_column=args.timestamp_column or "timestamp",
        target_column=args.value_column or "value",
        train_window_seconds=train_days * 86400,
        k_seconds=k * g.interval_seconds,
        scheme=scheme,
        test_range=test_range,
    )


def _load_frame(args, desc: DatasetDescriptor, input_path: Optional[str]) -> SeriesFrame:
    if desc.name == "synthetic" and input_path is None:
        return generate_synthetic(
            SynthSpec(noise_std=args.noise_std or 0.0, seed=args.seed or 0)
        )
    if input_path is None:
        raise ConfigError(f"--input is required for dataset {desc.name!r}")
    return load_csv(
        input_path, desc.timestamp_column, desc.target_column, desc.frequency
    )


def _resolve_c(args) -> float:
    """``--c`` when given, else the ``--c-floor`` that an estimate of c is
    floored at; either must be > 0."""
    if args.c is not None:
        if args.c <= 0:
            raise ConfigError(f"--c must be > 0, got {args.c}")
        return args.c
    floor = args.c_floor if args.c_floor is not None else DEFAULT_C_FLOOR_CONTINUOUS
    if floor <= 0:
        raise ConfigError(f"--c-floor must be > 0, got {floor}")
    return floor


# ---------------------------------------------------------------- evaluate


@dataclass
class _MethodResult:
    label: str
    report: MetricsReport
    records: list[StepRecord]
    p_vs_qbsd: Optional[float] = None


def _records_path(base: str, label: str, many: bool) -> str:
    if not many:
        return base
    path = Path(base)
    return str(path.with_name(f"{path.stem}.{label.replace(':', '_')}{path.suffix}"))


def cmd_evaluate(args) -> int:
    desc = _resolve_descriptor(args, need_test_range=True)
    frame = _load_frame(args, desc, args.input[0] if args.input else None)
    methods = _parse_methods(args.method or "qbsd", desc.frequency)
    test_start, _ = desc.test_slot_range
    results: list[_MethodResult] = []
    for label, marker in methods:
        if marker == "qbsd":
            c = _resolve_c(args)
            if args.c is None:
                c = estimate_contingency(frame, test_start, c)
            method = desc.qbsd_config(c=c, min_samples=args.min_samples)
        else:
            method = marker
        report, records = rolling_evaluate(frame, method, desc)
        results.append(_MethodResult(label, report, records))

    # every method has one record per test slot, in slot order
    qbsd_result = next((r for r in results if r.label == "qbsd"), None)
    if qbsd_result is not None:
        for result in results:
            if result is qbsd_result:
                continue
            shared = [
                (abs(q.actual - q.forecast), abs(r.actual - r.forecast))
                for q, r in zip(qbsd_result.records, result.records)
                if q.actual is not None and q.forecast is not None
                and r.forecast is not None
            ]
            try:
                result.p_vs_qbsd = wilcoxon_signed_rank(
                    [a for a, _ in shared],
                    [b for _, b in shared],
                    alternative="less",
                )
            except (TooFewPairs, ValueError):
                result.p_vs_qbsd = None

    _render_evaluation(args, desc, results)
    if args.output:
        many = len(results) > 1
        for result in results:
            path = _records_path(args.output, result.label, many)
            with open(path, "w", newline="") as handle:
                writer = RecordWriter(handle)
                for record in result.records:
                    writer.write(record)
                writer.close()
    return 0


def _evaluation_rows(results: list[_MethodResult]) -> list[dict]:
    rows = []
    for result in results:
        rows.append(
            {
                "method": result.label,
                "mae": result.report.mae,
                "mse": result.report.mse,
                "rmse": result.report.rmse,
                "mape": result.report.mape,
                "r2": result.report.r2,
                "mape_excluded": result.report.mape_excluded_count,
                "skipped": skipped_count(result.records),
                "wilcoxon_p_vs_qbsd": result.p_vs_qbsd,
            }
        )
    return rows


def _write_report(handle: TextIO, fmt: str, payload: dict) -> None:
    """The machine-readable report: CSV rows for ``csv``, else JSON."""
    if fmt == "csv":
        rows = payload["methods"]
        writer = csv.DictWriter(handle, fieldnames=rows[0].keys(), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _render_evaluation(args, desc: DatasetDescriptor, results: list[_MethodResult]) -> None:
    rows = _evaluation_rows(results)
    payload = {"dataset": desc.name, "methods": rows}
    fmt = args.format or "table"
    if fmt != "table":
        _write_report(sys.stdout, fmt, payload)
    else:
        print(f"dataset: {desc.name}")
        header = (
            f"{'method':<22} {'mae':>12} {'mse':>14} {'rmse':>12} "
            f"{'mape':>8} {'r2':>8} {'excl':>5} {'skip':>5} {'p_vs_qbsd':>10}"
        )
        print(header)
        for row in rows:
            p = "-" if row["wilcoxon_p_vs_qbsd"] is None else f"{row['wilcoxon_p_vs_qbsd']:.4f}"
            print(
                f"{row['method']:<22} {row['mae']:>12.4f} {row['mse']:>14.4f} "
                f"{row['rmse']:>12.4f} {row['mape']:>8.2f} {row['r2']:>8.3f} "
                f"{row['mape_excluded']:>5d} {row['skipped']:>5d} {p:>10}"
            )
    if args.report:
        with open(args.report, "w") as handle:
            _write_report(handle, fmt, payload)


# ---------------------------------------------------------------- forecast


def _points(rows, input_path: str, g: Granularity):
    """``series_rows`` rows as ``(slot, value)``; a malformed row raises with
    its ``path:line``."""
    for number, raw_ts, value, bad_value in rows:
        try:
            t = align(parse_timestamp(raw_ts), g)
        except DataError as exc:
            raise type(exc)(f"{input_path}:{number}: {exc}") from exc
        if bad_value:
            raise ParseError(f"{input_path}:{number}: bad value {bad_value!r}")
        yield t, value


def _estimate_c(points, span: int, floor: float) -> tuple[float, list]:
    """c from the first scheme-span of a stream: |P1| of the values before
    the first value ``span`` or more slots after the first value, floored.
    Returns c and the points taken, which the replay emits first."""
    held = []
    values: list[float] = []
    first = None
    for point in points:
        held.append(point)
        t, value = point
        if value is None:
            continue
        if first is None:
            first = t.global_slot
        elif t.global_slot >= first + span:
            break
        values.append(value)
    return (contingency_constant(values, floor) if values else floor), held


def _stream_one(args, desc: DatasetDescriptor, cfg: QbsdConfig, smoother: SmootherSpec,
                input_path: str, out_handle: TextIO, threshold: Optional[float]) -> int:
    """Stream one CSV through a rolling forecaster, emitting one record per
    input row. The input is read once: without ``--c``, ``anomaly`` holds
    the rows of the first scheme-span while it estimates c from them. Memory
    stays bounded by the retained window and those rows."""
    g = desc.frequency
    capacity = desc.train_window_slots if args.train_window is not None else None
    with series_rows(input_path, desc.timestamp_column, desc.target_column) as rows:
        points = _points(rows, input_path, g)
        if threshold is not None and args.c is None:
            c, held = _estimate_c(points, desc.scheme.span_slots, cfg.c)
            cfg = replace(cfg, c=c)
            points = chain(held, points)
        forecaster = RollingForecaster(cfg, g, capacity_slots=capacity)
        writer = RecordWriter(out_handle, smoother=smoother, threshold=threshold)
        for record in replay(forecaster, points):
            writer.write(record)
    writer.close()
    return writer.anomaly_count


def _run_streaming_command(args, threshold: Optional[float]) -> int:
    desc = _resolve_descriptor(args, need_test_range=False)
    inputs = args.input or []
    if not inputs:
        raise ConfigError("--input is required")
    # every flag is checked before any input is opened
    cfg = desc.qbsd_config(c=_resolve_c(args), min_samples=args.min_samples)
    smoother = _parse_smoother(args.smoother)
    many = len(inputs) > 1  # several inputs are streamed in turn, one file each
    if many:
        if not args.output:
            raise ConfigError("--output must name a directory for multiple inputs")
        Path(args.output).mkdir(parents=True, exist_ok=True)
    for path in inputs:
        if many:
            out_path = Path(args.output) / (Path(path).stem + ".qbsd.csv")
        else:
            out_path = args.output if args.output != "-" else None
        with open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout) as out:
            count = _stream_one(args, desc, cfg, smoother, path, out, threshold)
        if threshold is not None:
            print(f"{path + ': ' if many else ''}anomalies: {count} (threshold={threshold})",
                  file=sys.stdout if out_path else sys.stderr)
    return 0


def cmd_forecast(args) -> int:
    return _run_streaming_command(args, threshold=None)


def cmd_anomaly(args) -> int:
    if args.threshold is None or args.threshold <= 0:
        raise ConfigError(
            f"--threshold must be > 0, got {args.threshold}"
        )
    return _run_streaming_command(args, threshold=args.threshold)


# ---------------------------------------------------------------- bench


def measure_qbsd_latency(
    n_forecasts: int,
    k: int = 4,
    slots_per_day: int = 96,
    buffer_weeks: Sequence[int] = (4, 16),
    seed: int = 0,
    baselines: Sequence[tuple[str, bl.BaselineSpec]] = (),
) -> dict[int | str, tuple[float, float]]:
    """Median and p95 per-forecast wall time (seconds) per retained-buffer
    size, and per baseline label, measured call by call over a noisy
    synthetic series. The baselines read the largest buffer, which holds the
    whole series."""
    g = Granularity(86400 // slots_per_day)
    history_weeks = max(buffer_weeks)
    frame = generate_synthetic(
        SynthSpec(
            days=history_weeks * 7,
            slots_per_day=slots_per_day,
            noise_std=25.0,
            seed=seed,
        )
    )
    cfg = QbsdConfig(scheme=default_weekly_scheme(4, k, g), c=1.0)
    last = frame.last_slot
    targets = [SlotCoord(s, g) for s in range(last - 500, last + 1)]
    fns = {}
    for weeks in buffer_weeks:
        forecaster = RollingForecaster(cfg, g, capacity_slots=weeks * g.slots_per_week)
        forecaster.ingest_history(frame.pairs())
        fns[weeks] = forecaster.forecast_at
        if weeks == history_weeks:
            history = forecaster.history
    for label, spec in baselines:
        fns[label] = lambda t, spec=spec: bl.baseline_forecast(history, t, spec)
    durations = _time_calls(list(fns.values()), targets, n_forecasts)
    return {key: _median_p95(d) for key, d in zip(fns, durations)}


def _time_calls(fns, targets, n_calls: int) -> list[list[int]]:
    """Per-call wall times (ns) of each of ``fns``. Every target is handed to
    each fn in turn, in reverse order every other time, so a change in host
    speed during the run reaches all fns alike."""
    durations: list[list[int]] = [[] for _ in fns]
    calls = list(zip(fns, durations))
    for i in range(n_calls):
        t = targets[i % len(targets)]
        for fn, out in calls[::-1] if i % 2 else calls:
            start = time.perf_counter_ns()
            fn(t)
            out.append(time.perf_counter_ns() - start)
    return durations


def _median_p95(durations_ns: list[int]) -> tuple[float, float]:
    ordered = sorted(durations_ns)
    median = statistics.median(ordered) / 1e9
    p95 = ordered[int(0.95 * (len(ordered) - 1))] / 1e9
    return median, p95


def cmd_bench(args) -> int:
    try:
        buffer_weeks = tuple(int(w) for w in (args.buffer_weeks or "4,16").split(","))
    except ValueError:
        raise ConfigError(f"bad --buffer-weeks {args.buffer_weeks!r}")
    if len(buffer_weeks) < 2:
        raise ConfigError("--buffer-weeks needs at least two sizes, e.g. 4,16")
    n = args.forecasts
    if n < 1:
        raise ConfigError("--forecasts must be >= 1")
    k = args.k if args.k is not None else 4
    spd = args.slots_per_day or 96
    g = Granularity(86400 // spd)
    methods = _parse_methods(args.method or "seasonal-naive,persistence,moving-average", g)

    stats = measure_qbsd_latency(
        n, k=k, slots_per_day=spd, buffer_weeks=buffer_weeks, seed=args.seed or 0,
        baselines=[(label, spec) for label, spec in methods if spec != "qbsd"],
    )

    print(f"{'method':<24} {'forecasts':>9} {'median_ms':>11} {'p95_ms':>9}")
    for key, (median, p95) in stats.items():
        label = f"qbsd ({key}w buffer)" if isinstance(key, int) else key
        print(f"{label:<24} {n:>9d} {median * 1e3:>11.4f} {p95 * 1e3:>9.4f}")
    small, large = min(buffer_weeks), max(buffer_weeks)
    ratio = stats[large][0] / stats[small][0]
    print(
        f"history scaling: median({large}w buffer) / median({small}w buffer) "
        f"= {ratio:.3f}"
    )
    print(REPORTED_TIMINGS_LINE)
    return 0


# ---------------------------------------------------------------- synth


def cmd_synth(args) -> int:
    if not args.output:
        raise ConfigError("--output is required")
    spec = SynthSpec(
        days=args.days,
        slots_per_day=args.slots_per_day or 96,
        noise_std=args.noise_std or 0.0,
        weekday_scale=args.weekday_scale,
        weekend_scale=args.weekend_scale,
        anomalies=_parse_anomalies(args.anomalies),
        seed=args.seed or 0,
    )
    frame = generate_synthetic(spec)
    start = parse_timestamp(args.start)
    align(start, frame.granularity)  # validates the offset stays on the grid
    interval = frame.granularity.interval_seconds
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", "value"])
        for slot, value in zip(frame.slots, frame.values):
            writer.writerow([format_timestamp(start + slot * interval), repr(value)])
    print(f"seed: {spec.seed}")
    print(f"wrote {len(frame)} rows to {args.output}")
    return 0


# ---------------------------------------------------------------- parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value file supplying defaults for any flag")
    p.add_argument("--dataset", help="builtin dataset name (see README) or 'synthetic'")
    p.add_argument("--input", action="append", help="input CSV path (repeatable)")
    p.add_argument("--output", help="output path ('-' for stdout)")
    p.add_argument("--interval", type=int, help="grid interval in seconds for custom CSVs")
    p.add_argument("--timestamp-column", help="timestamp column name")
    p.add_argument("--value-column", help="value column name")
    p.add_argument("--k", type=int, help="context period in slots")
    p.add_argument(
        "--scheme",
        help="weekly4 | weekly6 | weekly_plus_yearly | custom:<day,day,...>",
    )
    p.add_argument("--c", type=float, help="contingency constant (overrides estimation)")
    p.add_argument("--c-floor", type=float, help="floor used when estimating c")
    p.add_argument("--min-samples", type=int, help="validity threshold (default 4, "
                   "clipped to the scheme's subset size)")
    p.add_argument("--train-window", type=int, help="moving training window in days")
    p.add_argument("--seed", type=int, help="seed for synthetic data")
    p.add_argument("--noise-std", type=float, help="synthetic noise sigma")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbsd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="moving-window evaluation with metrics")
    _add_common_flags(p_eval)
    p_eval.add_argument("--method", help="comma-separated: qbsd,seasonal-naive,...")
    p_eval.add_argument("--test-start", help="test range start (custom datasets)")
    p_eval.add_argument("--test-end", help="test range end (custom datasets)")
    p_eval.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_eval.add_argument("--report", help="write the machine-readable report here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_fc = sub.add_parser("forecast", help="stream per-slot forecast records")
    _add_common_flags(p_fc)
    p_fc.add_argument("--smoother", help="sg:<window>:<polyorder> | ma:<window> | none")
    p_fc.set_defaults(func=cmd_forecast)

    p_an = sub.add_parser("anomaly", help="flag |normalized residual| above a threshold")
    _add_common_flags(p_an)
    p_an.add_argument("--smoother", help="sg:<window>:<polyorder> | ma:<window> | none")
    p_an.add_argument("--threshold", type=float, default=3.0,
                      help="anomaly threshold on |normalized residual|")
    p_an.set_defaults(func=cmd_anomaly)

    p_bench = sub.add_parser("bench", help="per-forecast latency measurements")
    _add_common_flags(p_bench)
    p_bench.add_argument("--forecasts", type=int, default=10000,
                         help="forecasts per measurement")
    p_bench.add_argument("--buffer-weeks", help="retained-buffer sizes, e.g. 4,16")
    p_bench.add_argument("--slots-per-day", type=int, help="grid density")
    p_bench.add_argument("--method", help="baselines to include alongside qbsd")
    p_bench.set_defaults(func=cmd_bench)

    p_synth = sub.add_parser("synth", help="generate a synthetic KPI-like CSV")
    _add_common_flags(p_synth)
    p_synth.add_argument("--days", type=int, default=56)
    p_synth.add_argument("--slots-per-day", type=int, help="grid density")
    p_synth.add_argument("--weekday-scale", type=float, default=1.0)
    p_synth.add_argument("--weekend-scale", type=float, default=0.6)
    p_synth.add_argument("--anomalies", help="injections as slot:magnitude,...")
    p_synth.add_argument("--start", default="0", help="timestamp of the first row")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
