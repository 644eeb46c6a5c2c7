"""The CSV edges of the CLI: the row reader, the timestamp fast paths, the
record writer, and non-finite input cells.

Each fast path is checked against a slower reference: ``series_rows``
against ``csv.DictReader``, ``parse_timestamp`` against the parser it
replaced, ``format_timestamp`` against ``strftime``, and ``RecordWriter`` against a
``csv.writer`` implementation that formats every cell separately.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from array import array
from collections import deque
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbsd.cli import RECORD_COLUMNS, RecordWriter, _parse_smoother, main
from qbsd.datasets import (
    StepRecord,
    format_timestamp,
    load_csv,
    parse_timestamp,
    series_rows,
)
from qbsd.errors import DuplicateTimestamp, GridMisaligned, ParseError, SeriesTooShort
from qbsd.smoothing import StreamingSmoother
from qbsd.timegrid import Granularity

# ------------------------------------------------------------ row reader


def dictreader_rows(path: Path, ts_column: str, value_column: str) -> list:
    """What the loops over ``csv.DictReader`` saw, in ``series_rows`` form."""
    out = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            number = reader.line_num  # the physical line the row ends on
            raw_value = (row.get(value_column) or "").strip()
            value, bad = None, ""
            if raw_value:
                try:
                    value = float(raw_value)
                except ValueError:
                    bad = raw_value
                else:
                    if not math.isfinite(value):
                        value = None
            out.append((number, row.get(ts_column) or "", value, bad))
    return out


CELLS = st.one_of(
    st.sampled_from(["", " ", "1", "-2.5", " 3e2 ", "nan", "-inf", "Infinity",
                     "x", "1,5", 'a"b', "7\n8", "1970-01-01T00:15:00"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@settings(max_examples=80, deadline=None)
@given(
    header=st.lists(st.sampled_from(["ts", "v", "w", ""]), min_size=1, max_size=5),
    rows=st.lists(st.lists(CELLS, max_size=6), max_size=12),
)
@example(header=["v", "ts", "v"], rows=[["1", "0", "2"], [], ["3"], ["4", "900"]])
@example(header=["ts", "v", "ts"], rows=[["0", "1", "x"], ["", " "], ["900", "nan", "1800"]])
def test_series_rows_matches_dictreader(tmp_path_factory, header, rows):
    """Blank lines, short and long rows, repeated header names, quoted cells
    spanning lines, and the numbers used in error messages."""
    path = tmp_path_factory.mktemp("rows") / "in.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)  # an empty list is written as a blank line
    if "ts" not in header or "v" not in header:
        with pytest.raises(ParseError, match="not found in header"):
            with series_rows(str(path), "ts", "v"):
                pass
        return
    with series_rows(str(path), "ts", "v") as got:
        assert list(got) == dictreader_rows(path, "ts", "v")


def reference_load(path: Path, g: Granularity):
    """``load_csv``'s result as a sort and a scan of every present row: the
    frame's ``(slots, values)``, or the message of its ``DuplicateTimestamp``."""
    with series_rows(str(path), "ts", "v") as cells:
        present = [(parse_timestamp(ts) // g.interval_seconds, value, number)
                   for number, ts, value, _ in cells if value is not None]
    present.sort(key=lambda row: row[0])
    for (a, _, _), (b, _, _) in zip(present, present[1:]):
        if a == b:
            lines = sorted(number for slot, _, number in present if slot == a)
            return (f"{path}:{lines[1]}: slot {a} ({format_timestamp(a * g.interval_seconds)}) "
                    f"appears more than once (first at line {lines[0]})")
    return tuple(slot for slot, _, _ in present), tuple(value for _, value, _ in present)


def _loaded(path: str, g: Granularity):
    try:
        frame = load_csv(path, "ts", "v", g)
    except DuplicateTimestamp as exc:
        return str(exc)
    assert (type(frame.slots), frame.slots.typecode) == (array, "q")
    assert (type(frame.values), frame.values.typecode) == (array, "d")
    return tuple(frame.slots), tuple(frame.values)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["1", "", "2.5", "nan", "-4"])),
                  max_size=40),
    shuffle=st.booleans(),
    blank_lines=st.lists(st.integers(0, 40), max_size=3),
)
@example(rows=[(3, "1"), (0, "2.5"), (1, "")], shuffle=True, blank_lines=[])  # sorted in memory
def test_load_csv_matches_a_sort_and_scan(tmp_path_factory, rows, shuffle, blank_lines):
    """One pass, in order or not, with gaps, duplicates and blank lines: the
    same ``array('q')`` and ``array('d')`` columns, or the same duplicate and
    lines as sorting every row first and scanning for the lowest repeated
    slot."""
    if not shuffle:
        rows = sorted(rows, key=lambda row: row[0])  # stable: duplicates stay in file order
    lines = [f"{slot * 900},{value}\n" for slot, value in rows]
    for at in blank_lines:
        lines.insert(min(at, len(lines)), "\n")
    path = tmp_path_factory.mktemp("load") / "in.csv"
    path.write_text("ts,v\n" + "".join(lines))
    g = Granularity(900)
    expected = reference_load(path, g)
    assert _loaded(str(path), g) == expected


def test_series_rows_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match=r"not found in header \[\]"):
        with series_rows(str(path), "ts", "v"):
            pass


# ------------------------------------------------------------ timestamps

LAST_EPOCH = 253402300799  # 9999-12-31T23:59:59


FIRST_EPOCH = -62135596800  # 0001-01-01T00:00:00


@settings(max_examples=300, deadline=None)
@given(epoch=st.integers(0, LAST_EPOCH))
@example(epoch=0)  # the epoch
@example(epoch=LAST_EPOCH)  # the last second of year 9999
def test_format_timestamp_matches_strftime(epoch):
    expected = datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    assert format_timestamp(epoch) == expected
    assert format_timestamp(epoch) == expected  # again, now from the caches


@settings(max_examples=100, deadline=None)
@given(epoch=st.integers(FIRST_EPOCH, -1))
@example(epoch=FIRST_EPOCH)  # year 1
@example(epoch=-30610224001)  # the last second of year 999
def test_format_timestamp_before_1970_matches_strftime(epoch):
    """Slots before 1970 come from old timestamps; years before 1000 keep
    whatever padding this platform's strftime gives them."""
    expected = datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    assert format_timestamp(epoch) == expected


def test_format_timestamp_takes_integers_only():
    format_timestamp(900)  # caches the day and the clock of 900.0 too
    with pytest.raises(TypeError):
        format_timestamp(900.0)


def reference_parse(text: str) -> int:
    """The parser that ``parse_timestamp`` replaced, kept as the reference."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    iso = text.replace("Z", "+00:00")
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError as exc:
        raise ParseError(f"unparseable timestamp {text!r}") from exc
    if dt.microsecond:
        raise GridMisaligned(f"timestamp {text!r} has sub-second precision")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def general_outcome(text: str):
    try:
        return reference_parse(text)
    except (ParseError, GridMisaligned) as exc:
        return type(exc)


def fast_outcome(text: str):
    try:
        return parse_timestamp(text)
    except (ParseError, GridMisaligned) as exc:
        return type(exc)


def two_digits(low: int, high: int):
    return st.integers(low, high).map(lambda n: f"{n:02d}")


CANONICAL = st.builds(
    lambda y, mo, d, h, mi, s: f"{y}-{mo}-{d}T{h}:{mi}:{s}",
    st.integers(1, 9999).map(lambda n: f"{n:04d}"),
    two_digits(0, 13),  # month 0 and 13 are invalid
    two_digits(0, 32),  # so are day 0, Feb 29 in common years, April 31, ...
    two_digits(0, 25),  # hour 24 and 25
    two_digits(0, 60),
    two_digits(0, 61),  # second 60 and 61
)
NON_ASCII_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def timestamp_texts(draw):
    text = draw(CANONICAL)
    kind = draw(st.sampled_from(
        ["plain", "z", "offset", "padded", "space", "non_ascii", "fraction", "int"]
    ))
    if kind == "z":
        text += "Z"
    elif kind == "offset":
        text += draw(st.sampled_from(["+01:00", "-05:30", "+00:00"]))
    elif kind == "padded":
        text = draw(st.sampled_from([" ", "\t", "  "])) + text + draw(st.sampled_from(["", " "]))
    elif kind == "space":
        text = text.replace("T", " ")
    elif kind == "non_ascii":
        position = draw(st.integers(0, len(text) - 1))
        text = text[:position] + text[position].translate(NON_ASCII_DIGITS) + text[position + 1:]
    elif kind == "fraction":
        text += ".500"
    elif kind == "int":
        text = str(draw(st.integers(-10**12, 10**12)))
    return text


@settings(max_examples=500, deadline=None)
@given(text=timestamp_texts())
@example(text="0001-01-01T00:00:00")  # the first day of year 1
@example(text="0000-01-01T00:00:00")  # year 0
@example(text="9999-12-31T23:59:59")  # the last second of year 9999
@example(text="2024-02-29T24:00:00")  # hour 24
@example(text="2024-02-29T23:60:00")  # minute 60
@example(text="2024-02-29T23:59:60")  # second 60
@example(text="2023-02-29T00:00:00")  # February 29 in a common year
def test_parse_timestamp_matches_general_parser(text):
    """The same epoch, or the same exception type; asked twice so that the
    second answer can come from the caches."""
    expected = general_outcome(text)
    assert fast_outcome(text) == expected
    assert fast_outcome(text) == expected


def test_parse_timestamp_cached_parts_combine():
    early, late = 7 * 3600 + 45 * 60, 23 * 3600 + 59 * 60 + 59
    first = parse_timestamp("2023-03-05T07:45:00")
    second = parse_timestamp("2024-02-29T23:59:59")
    assert parse_timestamp("2023-03-05T23:59:59") == first - early + late
    assert parse_timestamp("2024-02-29T07:45:00") == second - late + early
    with pytest.raises(ParseError):  # a cached date does not validate another year
        parse_timestamp("2023-02-29T07:45:00")


# ------------------------------------------------------------ record writer


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class ReferenceRecordWriter:
    """The per-cell ``csv.writer`` implementation the joined-line writer
    replaced; its bytes are the contract."""

    def __init__(self, handle, smoother=None, threshold: Optional[float] = None):
        self._smoother = smoother
        self._threshold = threshold
        self.anomaly_count = 0
        columns = list(RECORD_COLUMNS)
        if smoother is not None:
            columns += ["q1_smooth", "q3_smooth"]
        if threshold is not None:
            columns.append("anomaly_flag")
        self._writer = csv.writer(handle, lineterminator="\n")
        self._writer.writerow(columns)
        self._pending: deque[list[str]] = deque()
        self._smooth_q1 = None
        self._smooth_q3 = None

    def _row_of(self, record: StepRecord) -> list[str]:
        row = [
            format_timestamp(record.timestamp),
            _fmt_cell(record.actual),
            _fmt_cell(record.forecast),
            _fmt_cell(record.q1),
            _fmt_cell(record.q3),
            _fmt_cell(record.iqr),
            _fmt_cell(record.diff_residual),
            _fmt_cell(record.norm_residual),
            _fmt_cell(record.sample_count),
            _fmt_cell(record.fallback_used),
        ]
        if self._threshold is not None:
            flagged = (
                record.norm_residual is not None
                and abs(record.norm_residual) > self._threshold
            )
            if flagged:
                self.anomaly_count += 1
            self._flag = _fmt_cell(bool(flagged)) if record.norm_residual is not None else ""
        else:
            self._flag = None
        return row

    def write(self, record: StepRecord) -> None:
        row = self._row_of(record)
        flag = self._flag
        if self._smoother is None:
            if flag is not None:
                row.append(flag)
            self._writer.writerow(row)
            return
        if record.q1 is None:
            self._flush_segment()
            row += ["", ""]
            if flag is not None:
                row.append(flag)
            self._writer.writerow(row)
            return
        if self._smooth_q1 is None:
            self._smooth_q1 = StreamingSmoother(self._smoother)
            self._smooth_q3 = StreamingSmoother(self._smoother)
        if flag is not None:
            row.append(flag)
        self._pending.append(row)
        self._emit_smoothed(self._smooth_q1.push(record.q1), self._smooth_q3.push(record.q3))

    def _emit_smoothed(self, q1s, q3s) -> None:
        for sq1, sq3 in zip(q1s, q3s):
            row = self._pending.popleft()
            if self._threshold is not None:
                flag = row.pop()
                row += [_fmt_cell(sq1), _fmt_cell(sq3), flag]
            else:
                row += [_fmt_cell(sq1), _fmt_cell(sq3)]
            self._writer.writerow(row)

    def _flush_segment(self) -> None:
        if self._smooth_q1 is None:
            return
        try:
            self._emit_smoothed(self._smooth_q1.finish(), self._smooth_q3.finish())
        except SeriesTooShort:
            while self._pending:
                row = self._pending.popleft()
                if self._threshold is not None:
                    flag = row.pop()
                    row += ["", "", flag]
                else:
                    row += ["", ""]
                self._writer.writerow(row)
        self._smooth_q1 = None
        self._smooth_q3 = None

    def close(self) -> None:
        if self._smoother is not None:
            self._flush_segment()


ANY_NUMBER = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6),
)
BOUND = st.floats(-1e6, 1e6)
GRID = Granularity(900)


@st.composite
def records(draw):
    """A stream of records on increasing slots. A record without bounds is
    a warmup row and ends a smoothing segment, so segments of any length,
    shorter than the window included, occur."""
    slot = draw(st.integers(0, 10**7))
    out = []
    for _ in range(draw(st.integers(0, 40))):
        slot += draw(st.integers(1, 200))
        record = StepRecord(
            slot,
            GRID,
            actual=draw(ANY_NUMBER),
            forecast=draw(ANY_NUMBER),
            diff_residual=draw(ANY_NUMBER),
            norm_residual=draw(ANY_NUMBER),
            sample_count=draw(st.none() | st.integers(0, 200)),
            fallback_used=draw(st.none() | st.booleans()),
        )
        if draw(st.integers(0, 5)):  # mostly rows with bounds
            record.q1 = draw(BOUND)
            record.q3 = draw(BOUND)
            record.iqr = draw(ANY_NUMBER)
        out.append(record)
    return out


def _written(writer_class, stream, smoother, threshold) -> tuple[str, int]:
    handle = io.StringIO()
    writer = writer_class(handle, smoother=_parse_smoother(smoother), threshold=threshold)
    for record in stream:
        writer.write(record)
    writer.close()
    return handle.getvalue(), writer.anomaly_count


@settings(max_examples=150, deadline=None)
@given(
    stream=records(),
    smoother=st.sampled_from([None, "sg:5:2", "ma:3"]),
    threshold=st.sampled_from([None, 0.5, 3.0]),
)
def test_record_writer_matches_csv_writer(stream, smoother, threshold):
    assert _written(RecordWriter, stream, smoother, threshold) == _written(
        ReferenceRecordWriter, stream, smoother, threshold
    )


# ------------------------------------------------------------ non-finite cells


def _inputs_with_nonfinite(root: Path) -> tuple[Path, Path]:
    """Two hourly inputs that differ only in a few value cells: ``nan``,
    ``inf`` and ``-inf`` spellings in one, blanks in the other. One such
    cell lies in the warmup prefix, where ``c`` is estimated."""
    clean = root / "clean.csv"
    assert main(["synth", "--output", str(clean), "--days", "42", "--slots-per-day",
                 "24", "--noise-std", "5", "--seed", "3", "--start", "0"]) == 0
    lines = clean.read_text().splitlines()
    spellings = {5: "nan", 700: "inf", 701: "-inf", 702: "NaN", 750: " Infinity ",
                 800: "-nan", 900: "nan"}
    nonfinite, blank = list(lines), list(lines)
    for row, spelling in spellings.items():
        timestamp = lines[row].split(",")[0]
        nonfinite[row] = f"{timestamp},{spelling}"
        blank[row] = f"{timestamp},"
    a, b = root / "nonfinite.csv", root / "blank.csv"
    a.write_text("\n".join(nonfinite) + "\n")
    b.write_text("\n".join(blank) + "\n")
    return a, b


COMMANDS = {
    "forecast": ["forecast", "--interval", "3600", "--k", "2", "--c", "1"],
    "anomaly": ["anomaly", "--interval", "3600", "--k", "2", "--smoother", "sg:11:3",
                "--threshold", "3"],
    "evaluate": ["evaluate", "--interval", "3600", "--k", "2", "--format", "json",
                 "--method", "qbsd,seasonal-naive", "--test-start", "1970-01-29T00:00:00",
                 "--test-end", "1970-02-11T23:00:00"],
}


def _run(argv: list[str], out: Path) -> tuple[str, bytes]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--output", str(out)]) == 0
    produced = b"".join(p.read_bytes() for p in sorted(out.parent.glob(out.stem + "*")))
    return stdout.getvalue(), produced


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_nonfinite_cells_are_gaps(tmp_path, command):
    nonfinite, blank = _inputs_with_nonfinite(tmp_path)
    argv = COMMANDS[command]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    got = _run([*argv, "--input", str(nonfinite)], tmp_path / "a" / "out.csv")
    want = _run([*argv, "--input", str(blank)], tmp_path / "b" / "out.csv")
    assert got[1] and got == want
    assert b"nan" not in got[1] and b"inf" not in got[1]
    if command == "evaluate":
        report = json.loads(got[0], parse_constant=_reject_constant)
        assert all(math.isfinite(row["mae"]) for row in report["methods"])
