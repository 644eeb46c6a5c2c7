"""Command-line surface: evaluate, forecast, anomaly, bench, synth.

Exit codes are a stable scripting contract: 0 success, 1 usage or
configuration errors, 2 data or I/O errors. A flat key=value config file can
supply the subcommand's flags; flags given on the command line win.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import stat
import statistics
import sys
import time
from collections import deque
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from dataclasses import replace
from itertools import chain, count
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from . import baselines as bl
from .core import DEFAULT_C_FLOOR_CONTINUOUS, QbsdConfig, contingency_constant
from .datasets import (
    DatasetDescriptor,
    StepRecord,
    SynthSpec,
    estimate_contingency,
    format_timestamp,
    generate_synthetic,
    get_descriptor,
    load_csv,
    parse_timestamp,
    replay,
    # not called here: kept only because perfbench/tracer.py looks up
    # qbsd.cli.rolling_evaluate. Its span is never entered, so the traced
    # datasets.rolling_evaluate_self_ns_per_slot reads 0 and measures nothing
    # until the tracer is pointed at the streamed pass.
    rolling_evaluate,
    score_methods,
    score_reports,
    series_rows,
)
from .engine import RollingForecaster, default_capacity
from .errors import ConfigError, DataError, QbsdError, SeriesTooShort, TooFewPairs
from .metrics import wilcoxon_signed_rank
from .smoothing import MovingAverage as SmoothingMA
from .smoothing import DEFAULT_SAVGOL, SavitzkyGolay, SmootherSpec, StreamingSmoother
from .timegrid import (
    GRID_END,
    Granularity,
    SeasonalityScheme,
    align,
    default_weekly_scheme,
    weekly_plus_yearly_scheme,
)

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
        return SeasonalityScheme(tuple(d * g.slots_per_day for d in days), k)
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
            return DEFAULT_SAVGOL
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
    the string "qbsd" or a baseline spec. A method named twice, once the
    defaults are applied, is rejected."""
    methods: list[tuple[str, object]] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        name, _, arg = token.partition(":")
        if arg and name in ("qbsd", "persistence"):
            raise ConfigError(
                f"method {token!r}: {name} takes no argument; only seasonal-naive "
                "and moving-average take :<slots>"
            )
        if arg:
            try:
                arg_slots = int(arg)
            except ValueError:
                raise ConfigError(f"bad method argument in {token!r}; expected slots")
        else:  # the baselines' defaults: one week's season, one day's window
            arg_slots = g.slots_per_week if name == "seasonal-naive" else g.slots_per_day
        if name == "qbsd":
            marker = "qbsd"
        elif name == "seasonal-naive":
            marker = bl.SeasonalNaive(arg_slots)
        elif name == "persistence":
            marker = bl.Persistence()
        elif name == "moving-average":
            marker = bl.MovingAverage(arg_slots)
        else:
            raise ConfigError(
                f"unknown method {name!r}; use qbsd, seasonal-naive[:slots], "
                "persistence or moving-average[:slots]"
            )
        for label, earlier in methods:
            if earlier == marker:
                raise ConfigError(
                    f"--method names one method twice: {label!r} and {token!r}"
                )
        methods.append((token, marker))
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
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{number}: expected key=value, got {line!r}")
        flag = "--" + key.strip().replace("_", "-")
        if flag == "--config":
            raise ConfigError(f"{path}:{number}: a config file cannot name another one")
        flags.extend([flag, value.strip()])
    return flags


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file entries right after the subcommand so that flags
    typed on the command line override them. A run reads one config file."""
    paths = []
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            paths.append(argv[i + 1])
        elif token.startswith("--config="):
            paths.append(token.split("=", 1)[1])
    if len(paths) > 1:
        raise ConfigError(f"one --config per run, got {len(paths)}: {', '.join(paths)}")
    if not paths:
        return argv
    return argv[:1] + _load_config_flags(paths[0]) + argv[1:]


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
            format_timestamp(record.global_slot * record.granularity.interval_seconds),
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
        # both smoothers return as many values, one per held row
        for i in range(len(q1s)):
            head, tail = self._pending.popleft()
            self._write(f"{head},{q1s[i]!r},{q3s[i]!r}{tail}\n")

    def _flush_segment(self) -> None:
        if self._smooth_q1 is None:
            return
        try:
            q1s = self._smooth_q1.finish()
            q3s = self._smooth_q3.finish()
            for sq1, sq3 in zip(q1s, q3s):
                head, tail = self._pending.popleft()
                self._write(f"{head},{sq1!r},{sq3!r}{tail}\n")
        except SeriesTooShort:
            # segment shorter than the smoother window: emit rows unsmoothed
            while self._pending:
                head, tail = self._pending.popleft()
                self._write(head + ",," + tail + "\n")
        self._smooth_q1 = None
        self._smooth_q3 = None

    def close(self) -> None:
        self._flush_segment()


def _resolve_descriptor(args, need_test_range: bool) -> DatasetDescriptor:
    """The run's descriptor: a builtin by name, or a custom one from the
    generic-CSV flags, with the scheme, window and column flags applied to
    either. ``DatasetDescriptor`` checks the result before any data work."""
    base = get_descriptor(args.dataset) if args.dataset else None
    generated = base is not None and base.name == "synthetic" and not args.input
    for flag, unused, reason in (
        ("--interval", base, "a builtin dataset has its own grid"),
        ("--test-start", base, "a builtin dataset has its own test range"),
        ("--test-end", base, "a builtin dataset has its own test range"),
        ("--seed", not generated, "only the generated synthetic series is seeded"),
        ("--noise-std", not generated, "only the generated synthetic series is noised"),
        ("--c-floor", args.c is not None, "--c fixes c, so no estimate is floored"),
    ):
        if unused and getattr(args, flag[2:].replace("-", "_"), None) is not None:
            raise ConfigError(f"{flag} does not apply to this run: {reason}")
    if base is None:
        if args.interval is None:
            raise ConfigError("either --dataset or --interval is required")
        g = Granularity(args.interval)
        scheme = _parse_scheme(args.scheme or "weekly4", 4 if args.k is None else args.k, g)
        # (0, 0) until the replace below, which checks the window before the
        # test range, so a run with both wrong is told about the window
        base = DatasetDescriptor(
            "custom", g, "timestamp", "value",
            default_capacity(scheme, g) * g.interval_seconds, scheme, (0, 0),
        )
    g, k = base.frequency, base.k_slots if args.k is None else args.k
    test_range = base.test_range
    if need_test_range and not args.dataset:
        if args.test_start is None or args.test_end is None:
            raise ConfigError("--test-start and --test-end are required for custom datasets")
        # an unparseable or off-grid value is a usage error
        with _flag("--test-start"):
            start = align(parse_timestamp(args.test_start), g).timestamp
        with _flag("--test-end"):
            test_range = (start, align(parse_timestamp(args.test_end), g).timestamp)
    return replace(
        base,
        timestamp_column=args.timestamp_column or base.timestamp_column,
        target_column=args.value_column or base.target_column,
        train_window_seconds=base.train_window_seconds
        if args.train_window is None else args.train_window * 86400,
        # --scheme names the lags; without it --k keeps the dataset's lags
        scheme=_parse_scheme(args.scheme, k, g) if args.scheme
        else SeasonalityScheme(base.scheme.lag_slots, k),
        test_range=test_range,
        k_seconds=None,
    )


@contextmanager
def _flag(name: str):
    """Report a library error raised while flag ``name``'s value is applied
    as a usage error that names the flag."""
    try:
        yield
    except QbsdError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _qbsd_config(args, desc: DatasetDescriptor) -> QbsdConfig:
    """The run's QBSD configuration. Its c is ``--c``, or else the
    ``--c-floor`` that an estimate of c is floored at. A default threshold
    that the scheme cannot meet is no flag's fault, so its message names none."""
    with _flag("--min-samples") if args.min_samples is not None else nullcontext():
        cfg = desc.qbsd_config(min_samples=args.min_samples)
    if args.c is not None:
        with _flag("--c"):
            return replace(cfg, c=args.c)
    floor = DEFAULT_C_FLOOR_CONTINUOUS if args.c_floor is None else args.c_floor
    with _flag("--c-floor"):
        return replace(cfg, c=floor)


# ---------------------------------------------------------------- evaluate


def _records_path(base: str, label: str, many: bool) -> str:
    if not many:
        return base
    path = Path(base)
    return str(path.with_name(f"{path.stem}.{label.replace(':', '_')}{path.suffix}"))


@contextmanager
def _output_file(path: str | Path) -> Iterator[TextIO]:
    """A text file that appears at ``path`` only if the block succeeds, or
    stdout, left open, for ``-``. A missing or regular target is written as
    a temporary file in the same directory, with the permissions
    ``open(path, "w")`` would give, renamed over ``path`` on success and
    removed on any exception, so a failed run leaves no partial file and an
    existing one unchanged. Any other target (a device, a pipe, a directory)
    is opened in place, as a plain open would."""
    if path == "-":
        yield sys.stdout
        return
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError as exc:  # missing, or so is its directory: the open below says which
        if exc.errno == errno.ENAMETOOLONG:
            raise  # no file can have this name: fail before any work
        regular = True
    if not regular:
        with open(path, "w", newline="") as handle:
            yield handle
        return
    handle, temp = _open_beside(path)
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(temp)
        raise


def _open_beside(path: str | Path) -> tuple[TextIO, str]:
    """A new file ``<path>.<pid>.tmp``, or ``<path>.<pid>.<n>.tmp`` when that
    name is taken (by this process, or by a killed run with the same pid).
    When the target's name leaves no room for that suffix, the file is
    ``qbsd.<pid>[.<n>].tmp`` in the target's directory instead."""
    prefix = os.fspath(path)
    for n in count():
        temp = f"{prefix}.{os.getpid()}{f'.{n}' if n else ''}.tmp"
        try:
            return open(temp, "x", newline=""), temp
        except FileExistsError:
            continue
        except OSError as exc:
            short = os.path.join(os.path.dirname(prefix), "qbsd")
            if exc.errno == errno.ENAMETOOLONG and prefix != short:
                prefix = short
                continue
            # name the path asked for, not the temporary file
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc


def cmd_evaluate(args) -> int:
    for flag, path in (("--output", args.output), ("--report", args.report)):
        if path == "-":
            raise ConfigError(f"{flag} -: evaluate prints its report to stdout; "
                              f"{flag} takes a file path")
    desc = _resolve_descriptor(args, need_test_range=True)
    cfg = _qbsd_config(args, desc)
    methods = _parse_methods(args.method or "qbsd", desc.frequency)
    labels = [label for label, _ in methods]
    records_paths = [_records_path(args.output, label, len(labels) > 1)
                     for label in labels] if args.output else []
    if args.report:
        for label, records in zip(labels, records_paths):
            if Path(records).resolve() == Path(args.report).resolve():
                raise ConfigError(f"the {label} records and --report would both write {records}")
    if args.input is None and desc.name != "synthetic":
        raise ConfigError(f"--input is required for dataset {desc.name!r}")
    # every output is opened before the input is read. The records files are
    # streamed as the test range is walked; the report, entered last, is
    # closed first, so they appear only once the report is out
    with ExitStack() as files:
        writers = [RecordWriter(files.enter_context(_output_file(path)))
                   for path in records_paths]
        report_file = files.enter_context(_output_file(args.report)) if args.report else None
        if args.input is not None:
            frame = load_csv(args.input, desc.timestamp_column, desc.target_column, desc.frequency)
        else:
            frame = generate_synthetic(
                SynthSpec(noise_std=args.noise_std or 0.0, seed=args.seed or 0)
            )
        if args.c is None and any(marker == "qbsd" for _, marker in methods):
            test_start, _ = desc.test_slot_range
            cfg = replace(cfg, c=estimate_contingency(frame, test_start, cfg.c))
        specs = [cfg if marker == "qbsd" else marker for _, marker in methods]
        scores = score_methods(frame, specs, desc, [writer.write for writer in writers])
        for writer in writers:
            writer.close()
        reports = score_reports(scores, specs, desc)

        rows = []
        for label, report, score in zip(labels, reports, scores):
            p_vs_qbsd = None
            if score.qbsd_errors:
                with suppress(TooFewPairs, ValueError):
                    p_vs_qbsd = wilcoxon_signed_rank(
                        score.qbsd_errors, score.own_errors, alternative="less"
                    )
            rows.append(
                {
                    "method": label,
                    "mae": report.mae,
                    "mse": report.mse,
                    "rmse": report.rmse,
                    "mape": report.mape,
                    "r2": report.r2,
                    "mape_excluded": report.mape_excluded_count,
                    "skipped": score.skipped,
                    "wilcoxon_p_vs_qbsd": p_vs_qbsd,
                }
            )
        payload = {"dataset": desc.name, "methods": rows}
        if args.format == "table":
            _print_table(desc.name, rows)
        else:
            _write_report(sys.stdout, args.format, payload)
        if report_file is not None:
            _write_report(report_file, args.format, payload)
    return 0


def _write_report(handle: TextIO, fmt: str, payload: dict) -> None:
    """The machine-readable report: CSV rows for ``csv``, else JSON, where a
    non-finite metric is null (RFC 8259 has no NaN or Infinity)."""
    rows = payload["methods"]
    if fmt == "csv":
        writer = csv.DictWriter(handle, fieldnames=rows[0].keys(), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        rows = [
            {key: None if isinstance(v, float) and not math.isfinite(v) else v
             for key, v in row.items()}
            for row in rows
        ]
        json.dump({**payload, "methods": rows}, handle, indent=2, allow_nan=False)
        handle.write("\n")


def _print_table(dataset: str, rows: list[dict]) -> None:
    print(f"dataset: {dataset}")
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


# ---------------------------------------------------------------- forecast


def _estimate_c(rows, span: int, floor: float) -> tuple[float, list]:
    """c from the first scheme-span of a stream: |P1| of the values before
    the first value ``span`` or more slots after the first value, floored.
    Returns c and the ``(line, slot, value)`` rows taken, which the loop reads first."""
    held = []
    values: list[float] = []
    first = None
    for row in rows:
        held.append(row)
        _, slot, value = row
        if value is None:
            continue
        if first is None:
            first = slot
        elif slot >= first + span:
            break
        values.append(value)
    return (contingency_constant(values, floor) if values else floor), held


def _run_streaming_command(args, threshold: Optional[float]) -> int:
    desc = _resolve_descriptor(args, need_test_range=False)
    inputs = args.input or []
    if not inputs:
        raise ConfigError("--input is required")
    # every flag is checked before any input is opened
    cfg = _qbsd_config(args, desc)
    smoother = _parse_smoother(args.smoother)
    many = len(inputs) > 1  # several inputs are streamed in turn, one file each
    if many:
        if not args.output or args.output == "-":
            raise ConfigError("--output must name a directory for multiple inputs")
        out_paths = [Path(args.output) / (Path(path).stem + ".qbsd.csv") for path in inputs]
        writer_of: dict[Path, str] = {}
        for path, out_path in zip(inputs, out_paths):
            if out_path in writer_of:
                raise ConfigError(
                    f"inputs {writer_of[out_path]} and {path} would both write {out_path}"
                )
            writer_of[out_path] = path
        Path(args.output).mkdir(parents=True, exist_ok=True)
    else:
        out_paths = [args.output or "-"]
    g = desc.frequency
    for path, out_path in zip(inputs, out_paths):
        # one read per input: without --c, anomaly holds the first scheme-span's
        # rows to estimate c, so memory stays bounded by the window and those rows
        with _output_file(out_path) as out:
            with series_rows(path, desc.timestamp_column, desc.target_column, g) as rows:
                run_cfg = cfg
                if threshold is not None and args.c is None:
                    c, held = _estimate_c(rows, desc.scheme.span_slots, cfg.c)
                    run_cfg = replace(cfg, c=c)
                    rows = chain(held, rows)
                forecaster = RollingForecaster(run_cfg, g, capacity_slots=desc.train_window_slots)
                writer = RecordWriter(out, smoother=smoother, threshold=threshold)
                for record in replay(forecaster, rows, path):
                    writer.write(record)
            writer.close()
        if threshold is not None:
            print(f"{path + ': ' if many else ''}anomalies: {writer.anomaly_count} "
                  f"(threshold={threshold})", file=sys.stderr if out is sys.stdout else sys.stdout)
    return 0


def cmd_forecast(args) -> int:
    return _run_streaming_command(args, threshold=None)


def cmd_anomaly(args) -> int:
    if not 0 < args.threshold < math.inf:
        raise ConfigError(f"--threshold must be finite and > 0, got {args.threshold}")
    return _run_streaming_command(args, threshold=args.threshold)


# ---------------------------------------------------------------- bench


def measure_qbsd_latency(
    n_forecasts: int,
    k: int = 4,
    slots_per_day: int = 96,
    buffer_weeks: Sequence[int] = (4, 16),
    seed: int = 0,
    baselines: Sequence[tuple[str, bl.BaselineSpec]] = (),
    scheme: Optional[SeasonalityScheme] = None,
) -> dict[int | str, tuple[float, float]]:
    """Median and p95 per-forecast wall time (seconds) per retained-buffer
    size, and per baseline label, measured call by call over a noisy
    synthetic series. The baselines read the largest buffer, which holds the
    whole series. ``scheme`` defaults to the 4-week scheme with context
    period ``k``. The targets are the last 501 slots, fewer if the smallest
    buffer could not hold their whole subsets; one no longer than the scheme
    span raises ``ConfigError``, and so does an ``n_forecasts`` below 1."""
    if n_forecasts < 1:
        raise ConfigError(f"n_forecasts must be >= 1, got {n_forecasts}")
    g = SynthSpec(slots_per_day=slots_per_day).granularity
    if scheme is None:
        scheme = default_weekly_scheme(4, k, g)
    cfg = QbsdConfig(scheme=scheme, c=1.0)
    capacity, span = min(buffer_weeks) * g.slots_per_week, scheme.span_slots
    if capacity <= span:
        raise ConfigError(
            f"a {min(buffer_weeks)}-week buffer holds no whole subset: its "
            f"{capacity} slots are at or below the scheme span of {span} slots"
        )
    history_weeks = max(buffer_weeks)
    frame = generate_synthetic(
        SynthSpec(
            days=history_weeks * 7,
            slots_per_day=slots_per_day,
            noise_std=25.0,
            seed=seed,
        )
    )
    last = frame.slots[-1]
    # a target above last - capacity + span has its whole subset in every buffer
    first = max(last - 500, last - capacity + span + 1)
    targets = range(first, last + 1)
    fns = {}
    for weeks in buffer_weeks:
        forecaster = RollingForecaster(cfg, g, capacity_slots=weeks * g.slots_per_week)
        forecaster.ingest_history(zip(frame.slots, frame.values))
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
    if len(set(buffer_weeks)) < len(buffer_weeks):
        raise ConfigError(f"--buffer-weeks repeats a size: {args.buffer_weeks!r}")
    if len(buffer_weeks) < 2:
        raise ConfigError("--buffer-weeks needs at least two sizes, e.g. 4,16")
    n = args.forecasts
    k = args.k if args.k is not None else 4
    spd = args.slots_per_day
    g = SynthSpec(slots_per_day=spd).granularity  # checks spd before the grid is built
    scheme = _parse_scheme(args.scheme or "weekly4", k, g)
    QbsdConfig(scheme)  # a threshold the scheme cannot meet fails before any timing
    methods = _parse_methods(args.method or "seasonal-naive,persistence,moving-average", g)

    stats = measure_qbsd_latency(
        n, slots_per_day=spd, buffer_weeks=buffer_weeks, seed=args.seed or 0,
        baselines=[(label, spec) for label, spec in methods if spec != "qbsd"],
        scheme=scheme,
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
        slots_per_day=args.slots_per_day,
        noise_std=args.noise_std or 0.0,
        weekday_scale=args.weekday_scale,
        weekend_scale=args.weekend_scale,
        anomalies=_parse_anomalies(args.anomalies),
        seed=args.seed or 0,
    )
    with _flag("--start"):
        start = align(parse_timestamp(args.start), spec.granularity).timestamp
    interval = spec.granularity.interval_seconds
    last = start + (spec.days * spec.slots_per_day - 1) * interval
    if last >= GRID_END:
        raise ConfigError(
            f"--start {args.start}: the last row, {last}, is in year 10000 or "
            f"later; the grid ends at {GRID_END}"
        )
    with _output_file(args.output) as handle:
        frame = generate_synthetic(spec)
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", "value"])
        for slot, value in zip(frame.slots, frame.values):
            writer.writerow([format_timestamp(start + slot * interval), repr(value)])
    info = sys.stderr if handle is sys.stdout else sys.stdout  # the CSV went to stdout
    print(f"seed: {spec.seed}", file=info)
    print(f"wrote {len(frame)} rows to {args.output}", file=info)
    return 0


# ---------------------------------------------------------------- parser


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="context period in slots")
    p.add_argument(
        "--scheme",
        help="weekly4 | weekly6 | weekly_plus_yearly | custom:<day,day,...>",
    )


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    """Flags of evaluate, forecast and anomaly, all but ``--input`` and
    ``--output``."""
    p.add_argument("--dataset", help="builtin dataset name (see README) or 'synthetic'")
    p.add_argument("--interval", type=int, help="grid interval in seconds for custom CSVs")
    p.add_argument("--timestamp-column", help="timestamp column name")
    p.add_argument("--value-column", help="value column name")
    _add_scheme_flags(p)
    p.add_argument("--c", type=float, help="contingency constant (overrides estimation)")
    p.add_argument("--c-floor", type=float, help="floor used when estimating c")
    p.add_argument("--min-samples", type=int, help="validity threshold (default 4, "
                   "clipped to the scheme's subset size)")
    p.add_argument("--train-window", type=int, help="moving training window in days")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbsd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func) -> argparse.ArgumentParser:
        # no abbreviations: "--c" must not stand for "--config" on synth
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value file supplying this command's flags")
        p.set_defaults(func=func)
        return p

    p_eval = command("evaluate", "moving-window evaluation with metrics", cmd_evaluate)
    _add_series_flags(p_eval)
    p_eval.add_argument("--output", help="write the records CSV here; with several "
                        "methods, one file per method, <stem>.<method><suffix>")
    p_eval.add_argument("--input", help="input CSV path (the last one given wins)")
    p_eval.add_argument("--seed", type=int, help="seed for the synthetic dataset")
    p_eval.add_argument("--noise-std", type=float, help="synthetic dataset noise sigma")
    p_eval.add_argument("--method", help="comma-separated: qbsd,seasonal-naive,...")
    p_eval.add_argument("--test-start", help="test range start (custom datasets)")
    p_eval.add_argument("--test-end", help="test range end (custom datasets)")
    p_eval.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_eval.add_argument("--report", help="write the machine-readable report here")

    p_fc = command("forecast", "stream per-slot forecast records", cmd_forecast)
    _add_series_flags(p_fc)
    p_fc.add_argument("--output", help="output path ('-' for stdout)")
    p_fc.add_argument("--input", action="append", help="input CSV path (repeatable)")
    p_fc.add_argument("--smoother", help="sg:<window>:<polyorder> | ma:<window> | none")

    p_an = command("anomaly", "flag |normalized residual| above a threshold", cmd_anomaly)
    _add_series_flags(p_an)
    p_an.add_argument("--output", help="output path ('-' for stdout)")
    p_an.add_argument("--input", action="append", help="input CSV path (repeatable)")
    p_an.add_argument("--smoother", help="sg:<window>:<polyorder> | ma:<window> | none")
    p_an.add_argument("--threshold", type=float, default=3.0,
                      help="anomaly threshold on |normalized residual|")

    p_bench = command("bench", "per-forecast latency measurements", cmd_bench)
    _add_scheme_flags(p_bench)
    p_bench.add_argument("--seed", type=int, help="seed for the synthetic series")
    p_bench.add_argument("--forecasts", type=int, default=10000,
                         help="forecasts per measurement")
    p_bench.add_argument("--buffer-weeks", help="retained-buffer sizes, e.g. 4,16")
    p_bench.add_argument("--slots-per-day", type=int, default=96, help="grid density")
    p_bench.add_argument("--method", help="baselines to include alongside qbsd")

    p_synth = command("synth", "generate a synthetic KPI-like CSV", cmd_synth)
    p_synth.add_argument("--output", help="output CSV path ('-' for stdout)")
    p_synth.add_argument("--seed", type=int, help="noise seed")
    p_synth.add_argument("--noise-std", type=float, help="noise sigma")
    p_synth.add_argument("--days", type=int, default=56)
    p_synth.add_argument("--slots-per-day", type=int, default=96, help="grid density")
    p_synth.add_argument("--weekday-scale", type=float, default=1.0)
    p_synth.add_argument("--weekend-scale", type=float, default=0.6)
    p_synth.add_argument("--anomalies", help="injections as slot:magnitude,...")
    p_synth.add_argument("--start", default="0", help="timestamp of the first row")

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
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
