import argparse
import builtins
import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import random
import stat
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbsd import cli
from qbsd.baselines import Persistence
from qbsd.cli import (
    RecordWriter,
    _build_parser,
    _estimate_c,
    _parse_smoother,
    _resolve_descriptor,
    main,
)
from qbsd.core import contingency_constant
from qbsd.datasets import (
    StepRecord,
    SynthSpec,
    format_timestamp,
    generate_synthetic,
    get_descriptor,
    rolling_evaluate,
    series_rows,
    skipped_count,
)
from qbsd.engine import RollingForecaster, default_capacity
from qbsd.errors import ConfigError
from qbsd.smoothing import MovingAverage, smooth
from qbsd.timegrid import (
    Granularity,
    SeasonalityScheme,
    default_weekly_scheme,
    weekly_plus_yearly_scheme,
)


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    """``qbsd synth``'s default series: the input of ``--dataset synthetic``."""
    path = tmp_path_factory.mktemp("synth") / "synthetic.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--output", str(path)]) == 0
    return path


class TestSynth:
    def test_default_spec(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code, stdout, _ = run(capsys, "synth", "--output", str(out))
        assert code == 0
        assert "seed: 0" in stdout
        rows = out.read_text().splitlines()
        assert rows[0] == "timestamp,value"
        assert len(rows) == 1 + 56 * 96

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(capsys, "synth", "--output", str(a), "--seed", "7",
                   "--noise-std", "4.5")[0] == 0
        assert run(capsys, "synth", "--output", str(b), "--seed", "7",
                   "--noise-std", "4.5")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_anomaly_injection(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        spiked = tmp_path / "spiked.csv"
        run(capsys, "synth", "--output", str(plain), "--days", "7",
            "--slots-per-day", "24")
        code, _, _ = run(capsys, "synth", "--output", str(spiked), "--days", "7",
                         "--slots-per-day", "24", "--anomalies", "50:+500")
        assert code == 0
        v_plain = [r["value"] for r in read_rows(plain)]
        v_spiked = [r["value"] for r in read_rows(spiked)]
        diffs = [i for i, (x, y) in enumerate(zip(v_plain, v_spiked)) if x != y]
        assert diffs == [50]
        assert float(v_spiked[50]) == float(v_plain[50]) + 500.0

    def test_blank_anomaly_tokens_are_skipped(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        padded = tmp_path / "padded.csv"
        for out, anomalies in ((plain, "3000:+500"), (padded, "3000:+500, ,")):
            assert run(capsys, "synth", "--output", str(out), "--anomalies", anomalies)[0] == 0
        assert padded.read_bytes() == plain.read_bytes()

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--output",
                           str(tmp_path / "no" / "dir.csv"))
        assert code == 2
        assert "no" in err

    @pytest.mark.parametrize("command", ["synth", "bench"])
    @pytest.mark.parametrize("slots_per_day", ["0", "-24", "7"])
    def test_bad_slots_per_day_exits_1(self, tmp_path, capsys, command, slots_per_day):
        out = tmp_path / "z.csv"
        flags = ["--output", str(out)] if command == "synth" else ["--forecasts", "20"]
        code, stdout, err = run(capsys, command, "--slots-per-day", slots_per_day, *flags)
        assert code == 1
        assert f"slots_per_day must be a positive divisor of 86400, got {slots_per_day}" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--noise-std", "nan"], "noise_std must be finite and >= 0, got nan"),
        (["--noise-std", "inf"], "noise_std must be finite and >= 0, got inf"),
        (["--anomalies", "999999:500"], "anomaly slot 999999 is outside [0, 168)"),
        (["--anomalies=-3:100"], "anomaly slot -3 is outside [0, 168)"),
        (["--anomalies", "50:+500,50:-500"], "anomaly slot 50 is given twice"),
        (["--start", "5"], "--start: timestamp 5 is not a multiple of 3600 s"),
        (["--start", "garbage"], "--start: unparseable timestamp 'garbage'"),
        (["--weekday-scale", "nan"], "weekday_scale must be finite, got nan"),
        (["--weekend-scale", "inf"], "weekend_scale must be finite, got inf"),
        (["--anomalies", "5:nan,6:inf"], "anomaly at slot 5 must be finite, got nan"),
        (["--anomalies", "5:1,6:-inf"], "anomaly at slot 6 must be finite, got -inf"),
        (["--weekday-scale", "1e308"], "synthetic value at slot 0 overflows to inf"),
        (["--start", "253402300800"], "--start: timestamp 253402300800 is in year 10000"),
        (["--start", "9999-12-31T00:00:00"],
         "--start 9999-12-31T00:00:00: the last row, 253402815600, is in year 10000"),
    ], ids=["noise-nan", "noise-inf", "anomaly-past-end", "anomaly-negative",
            "anomaly-repeated", "start-off-grid", "start-garbage", "weekday-scale-nan",
            "weekend-scale-inf", "anomaly-nan", "anomaly-inf", "scale-overflow",
            "start-year-10000", "last-row-year-10000"])
    def test_ignored_or_non_finite_input_exits_1(self, tmp_path, capsys, flags, message):
        out = tmp_path / "z.csv"
        code, stdout, err = run(capsys, "synth", "--output", str(out), "--days", "7",
                                "--slots-per-day", "24", *flags)
        assert code == 1
        assert message in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch,
                                                 existing):
        """An error at the 100th row leaves the output as it was: absent, or
        an earlier file unchanged, and no temporary file beside it."""
        out = tmp_path / "synth.csv"
        if existing:
            out.write_bytes(b"an earlier run's rows\n")
        rows = 0

        def failing_format(epoch):
            nonlocal rows
            rows += 1
            if rows == 100:
                raise OSError(28, "No space left on device")
            return format_timestamp(epoch)

        monkeypatch.setattr(cli, "format_timestamp", failing_format)
        code, stdout, err = run(capsys, "synth", "--output", str(out))
        assert code == 2
        assert "No space left on device" in err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == (["synth.csv"] if existing else [])
        if existing:
            assert out.read_bytes() == b"an earlier run's rows\n"

    def test_last_row_may_end_year_9999(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        code, _, _ = run(capsys, "synth", "--output", str(out), "--days", "7",
                         "--slots-per-day", "24", "--start", "9999-12-25T00:00:00")
        assert code == 0
        assert read_rows(out)[-1]["timestamp"] == "9999-12-31T23:00:00"


class TestForecast:
    @pytest.fixture
    def synth_csv(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", "56")
        return path

    def test_rows_match_input_and_warmup_empty(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        code, _, _ = run(capsys, "forecast", "--input", str(synth_csv),
                         "--interval", "900", "--k", "0", "--output", str(out))
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 56 * 96
        assert rows[0]["forecast"] == ""
        assert rows[0]["actual"] != ""
        # after three weeks the scheme warms up; spot-check exactness
        late = rows[-1]
        assert late["forecast"] == late["actual"]
        assert late["iqr"] == "0.0"
        assert late["norm_residual"] == "0.0"

    def test_smoother_adds_columns(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        code, _, _ = run(capsys, "forecast", "--input", str(synth_csv),
                         "--interval", "900", "--k", "0",
                         "--smoother", "sg:11:3", "--output", str(out))
        assert code == 0
        rows = read_rows(out)
        assert "q1_smooth" in rows[0] and "q3_smooth" in rows[0]
        assert rows[0]["q1_smooth"] == ""  # warmup row
        assert rows[-1]["q1_smooth"] != ""

    def test_constant_series_zero_normalized(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        with path.open("w") as handle:
            handle.write("timestamp,value\n")
            for slot in range(30):
                handle.write(f"{slot * 86400},5.0\n")
        out = tmp_path / "fc.csv"
        code, _, _ = run(capsys, "forecast", "--input", str(path),
                         "--interval", "86400", "--k", "1",
                         "--min-samples", "3", "--output", str(out))
        assert code == 0
        rows = read_rows(out)
        scored = [r for r in rows if r["norm_residual"] != ""]
        assert scored
        assert all(r["norm_residual"] == "0.0" for r in scored)

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "forecast", "--input",
                           str(tmp_path / "absent.csv"), "--interval", "900")
        assert code == 2
        assert "absent.csv" in err

    def test_multi_input(self, tmp_path, capsys):
        inputs = []
        for i in range(3):
            path = tmp_path / f"cell{i}.csv"
            run(capsys, "synth", "--output", str(path), "--days", "28",
                "--slots-per-day", "24", "--noise-std", "5", "--seed", str(i),
                "--anomalies", f"{600 + i}:+300")
            inputs.append(str(path))
        inputs = [inputs[2], inputs[0], inputs[1]]  # not in name order
        for command in (["forecast"], ["anomaly", "--threshold", "3"]):
            flags = [*command, "--interval", "3600", "--k", "1"]
            out_dir = tmp_path / command[0]
            argv = [*flags, "--output", str(out_dir)]
            for path in inputs:
                argv += ["--input", path]
            code, stdout, _ = run(capsys, *argv)
            assert code == 0
            produced = sorted(p.name for p in out_dir.iterdir())
            assert produced == ["cell0.qbsd.csv", "cell1.qbsd.csv", "cell2.qbsd.csv"]
            summaries = []
            for path in inputs:
                single = tmp_path / "single.csv"
                code, single_stdout, _ = run(capsys, *flags, "--input", path,
                                             "--output", str(single))
                assert code == 0
                name = Path(path).stem + ".qbsd.csv"
                assert (out_dir / name).read_bytes() == single.read_bytes()
                summaries += [f"{path}: {line}" for line in single_stdout.splitlines()]
            # anomaly prints one summary per input, in input order
            assert stdout.splitlines() == summaries
            assert len(summaries) == (3 if command[0] == "anomaly" else 0)

    def test_same_file_name_rejected_before_any_output(self, tmp_path, capsys, monkeypatch):
        inputs = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / "x.csv"
            run(capsys, "synth", "--output", str(path), "--days", "28",
                "--slots-per-day", "24")
            inputs.append(str(path))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        out_dir = tmp_path / "out"
        for command in (["forecast"], ["anomaly", "--threshold", "3"]):
            code, _, err = run(capsys, *command, "--interval", "3600", "--k", "1",
                               "--input", inputs[0], "--input", inputs[1],
                               "--output", str(out_dir))
            assert code == 1
            assert inputs[0] in err and inputs[1] in err
        assert opened == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["forecast"], ["anomaly", "--threshold", "3"]])
    def test_each_input_opened_once(self, tmp_path, capsys, monkeypatch, command):
        inputs = []
        for i in range(2):
            path = tmp_path / f"cell{i}.csv"
            run(capsys, "synth", "--output", str(path), "--days", "28",
                "--slots-per-day", "24", "--noise-std", "5", "--seed", str(i))
            inputs.append(str(path))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        flags = [*command, "--interval", "3600", "--k", "1"]
        code, _, _ = run(capsys, *flags, "--input", inputs[0])
        assert code == 0
        argv = [*flags, "--output", str(tmp_path / "out")]
        code, _, _ = run(capsys, *argv, "--input", inputs[0], "--input", inputs[1])
        assert code == 0
        assert [name for name in opened if name in inputs] == [inputs[0], *inputs]

    def test_error_reports_physical_line(self, tmp_path, capsys):
        # the blank line counts, so 'oops' is on line 5
        path = tmp_path / "blank_line.csv"
        path.write_text("timestamp,value\n0,1\n\n900,2\n1800,oops\n")
        code, _, err = run(capsys, "forecast", "--input", str(path),
                           "--interval", "900")
        assert code == 2
        assert f"{path}:5: bad value 'oops'" in err


class TestAnomaly:
    def test_zero_threshold_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "anomaly", "--input", "x.csv",
                           "--interval", "900", "--threshold", "0")
        assert code == 1
        assert "threshold" in err

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_rejected(self, tmp_path, capsys, threshold):
        code, _, err = run(capsys, "anomaly", "--input", str(tmp_path / "unread.csv"),
                           "--interval", "900", "--threshold", threshold)
        assert code == 1
        assert f"--threshold must be finite and > 0, got {threshold}" in err

    def test_clean_series_no_anomalies(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", "56")
        out = tmp_path / "an.csv"
        code, stdout, _ = run(capsys, "anomaly", "--input", str(path),
                              "--interval", "900", "--k", "0",
                              "--threshold", "3", "--output", str(out))
        assert code == 0
        assert "anomalies: 0" in stdout
        rows = read_rows(out)
        assert all(r["anomaly_flag"] in ("", "false") for r in rows)

    def test_estimated_constant_damps_noise(self, tmp_path, capsys):
        # without --c the constant comes from the warmup prefix's |P1|,
        # which keeps plain noise from ever crossing the threshold
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", "56",
            "--noise-std", "5", "--seed", "17")
        out = tmp_path / "an.csv"
        code, stdout, _ = run(capsys, "anomaly", "--input", str(path),
                              "--interval", "900", "--k", "4",
                              "--threshold", "3", "--output", str(out))
        assert code == 0
        assert "anomalies: 0" in stdout

    def test_injected_spike_flagged_once(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        spike_slot = 4000
        run(capsys, "synth", "--output", str(path), "--days", "56",
            "--noise-std", "5", "--seed", "11",
            "--anomalies", f"{spike_slot}:+400")
        out = tmp_path / "an.csv"
        code, stdout, _ = run(capsys, "anomaly", "--input", str(path),
                              "--interval", "900", "--k", "4",
                              "--c", "0.001", "--threshold", "3",
                              "--output", str(out))
        assert code == 0
        assert "anomalies: 1" in stdout
        rows = read_rows(out)
        flagged = [i for i, r in enumerate(rows) if r["anomaly_flag"] == "true"]
        assert flagged == [spike_slot]


class TestEvaluate:
    def test_builtin_synthetic_table(self, capsys, synth_csv):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(synth_csv))
        assert code == 0
        assert "mape" in stdout
        line = [l for l in stdout.splitlines() if l.startswith("qbsd")][0]
        assert "0.00" in line

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "gone.csv"
        code, _, err = run(capsys, "evaluate", "--dataset", "births2015",
                           "--input", str(missing))
        assert code == 2
        assert "gone.csv" in err

    @pytest.mark.parametrize("source", [
        ["--dataset", "synthetic"],
        ["--input", "absent.csv", "--interval", "3600", "--test-start", "0",
         "--test-end", "3600"],
    ], ids=["synthetic", "csv"])
    def test_output_dash_exits_1_before_input(self, tmp_path, capsys, monkeypatch,
                                              source):
        """stdout carries the report, so the records CSV and the report's
        copy each need a path."""
        monkeypatch.chdir(tmp_path)
        for flag in ("--output", "--report"):
            code, stdout, err = run(capsys, "evaluate", *source, flag, "-")
            assert code == 1
            assert err.startswith(f"error: {flag} -: ")
            assert stdout == ""
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method,output,report,records", [
        ("qbsd", "same.csv", "same.csv", "same.csv"),
        ("qbsd,persistence", "r.csv", "./r.qbsd.csv", "r.qbsd.csv"),
    ], ids=["one-method", "one-of-two"])
    def test_report_on_a_records_path_exits_1_before_input(
        self, tmp_path, capsys, monkeypatch, method, output, report, records
    ):
        """The records files are renamed into place after the report, so
        one of them would silently replace it."""
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "evaluate", "--input", "absent.csv",
                                "--interval", "3600", "--test-start", "0",
                                "--test-end", "3600", "--method", method,
                                "--output", output, "--report", report)
        assert code == 1
        assert err == f"error: the qbsd records and --report would both write {records}\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method,output,report,records", [
        ("qbsd", "same.csv", "same.csv", "same.csv"),
        ("qbsd,persistence", "r.csv", "r.qbsd.csv", "r.qbsd.csv"),
    ], ids=["one-method", "one-of-two"])
    def test_report_on_a_records_path_spelled_absolutely_exits_1_before_input(
        self, tmp_path, capsys, monkeypatch, method, output, report, records
    ):
        """An absolute --report names the same file as a relative --output
        records path: the check resolves both before comparing."""
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "evaluate", "--input", "absent.csv",
                                "--interval", "3600", "--test-start", "0",
                                "--test-end", "3600", "--method", method,
                                "--output", output, "--report", str(tmp_path / report))
        assert code == 1
        assert err == f"error: the qbsd records and --report would both write {records}\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_unknown_dataset_exit_1(self, capsys):
        code, _, err = run(capsys, "evaluate", "--dataset", "wat")
        assert code == 1
        assert "wat" in err

    def test_two_methods_with_wilcoxon_column(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(series), "--noise-std", "10", "--seed", "5")
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(series), "--method", "qbsd,persistence")
        assert code == 0
        lines = stdout.splitlines()
        persistence = [l for l in lines if l.startswith("persistence")][0]
        p_text = persistence.split()[-1]
        assert p_text == "-" or 0.0 <= float(p_text) <= 1.0
        assert any(l.startswith("qbsd") for l in lines)

    def test_json_format_and_report(self, tmp_path, capsys, synth_csv):
        report = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(synth_csv),
                              "--format", "json", "--report", str(report))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["dataset"] == "synthetic"
        assert payload["methods"][0]["method"] == "qbsd"
        assert json.loads(report.read_text()) == payload

    @pytest.mark.parametrize("values,test_end,nulls", [
        # one test slot: R^2 of a single actual is NaN
        ([100.0 + i % 24 for i in range(24 * 35)], "1970-02-01T00:00:00", {"r2"}),
        # errors of 2e308 overflow to inf, and R^2 to NaN
        ([(-1e308, 1e308)[i % 2] for i in range(24 * 35)], "1970-02-04T00:00:00",
         {"mae", "mse", "rmse", "mape", "r2"}),
    ], ids=["one-slot", "overflow"])
    def test_json_report_writes_null_for_a_non_finite_metric(
        self, tmp_path, capsys, values, test_end, nulls
    ):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n" + "".join(
            f"{i * 3600},{value!r}\n" for i, value in enumerate(values)))
        report = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "evaluate", "--input", str(path), "--interval",
                              "3600", "--k", "1", "--test-start", "1970-02-01T00:00:00",
                              "--test-end", test_end, "--format", "json",
                              "--report", str(report))
        assert code == 0
        [row] = json.loads(stdout, parse_constant=_reject_constant)["methods"]
        assert {key for key, value in row.items() if value is None} == {
            *nulls, "wilcoxon_p_vs_qbsd"}
        assert report.read_text() == stdout

    def test_nan_error_differences_give_no_p_value(self, tmp_path, capsys):
        # every error of both methods is inf, so every paired difference is
        # inf - inf = NaN, which has no rank
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n" + "".join(
            f"{i * 3600},{(-1e308, 1e308)[i % 2]!r}\n" for i in range(24 * 40)))
        argv = ["evaluate", "--input", str(path), "--interval", "3600", "--k", "1",
                "--test-start", "1970-02-05T00:00:00", "--test-end", "1970-02-07T23:00:00",
                "--method", "qbsd,persistence", "--format"]
        code, stdout, _ = run(capsys, *argv, "json")
        assert code == 0
        methods = json.loads(stdout, parse_constant=_reject_constant)["methods"]
        assert [row["method"] for row in methods] == ["qbsd", "persistence"]
        assert methods[1]["mae"] is None
        assert methods[1]["wilcoxon_p_vs_qbsd"] is None
        code, stdout, _ = run(capsys, *argv, "csv")
        assert code == 0
        rows = list(csv.DictReader(stdout.splitlines()))
        assert rows[1]["method"] == "persistence" and rows[1]["mae"] == "inf"
        assert rows[1]["wilcoxon_p_vs_qbsd"] == ""

    def test_records_and_report_on_two_paths_are_both_written(
        self, tmp_path, capsys, synth_csv
    ):
        records, report = tmp_path / "records.csv", tmp_path / "report.csv"
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(synth_csv), "--format", "csv",
                              "--output", str(records), "--report", str(report))
        assert code == 0
        assert report.read_text() == stdout
        assert len(read_rows(records)) == 4 * 7 * 96

    def test_csv_format(self, capsys, synth_csv):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(synth_csv), "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(stdout.splitlines()))
        assert rows[0]["method"] == "qbsd"
        assert float(rows[0]["mape"]) == 0.0

    def test_per_step_records_written(self, tmp_path, capsys, synth_csv):
        out = tmp_path / "records.csv"
        code, _, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                         "--input", str(synth_csv), "--output", str(out))
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4 * 7 * 96
        assert rows[0]["forecast"] != ""

    def test_one_run_writes_each_method_as_its_own_run(self, tmp_path, capsys, synth_csv):
        """One run over four methods reports one row per method, in the
        order given, and writes for each method the records file a run of
        that method alone writes."""
        methods = ["qbsd", "seasonal-naive", "persistence", "moving-average"]
        source = ["--dataset", "synthetic", "--input", str(synth_csv)]
        code, stdout, err = run(capsys, "evaluate", *source,
                                "--method", ",".join(methods), "--format", "json",
                                "--output", str(tmp_path / "all.csv"))
        assert code == 0, err
        assert [row["method"] for row in json.loads(stdout)["methods"]] == methods
        for method in methods:
            one = tmp_path / f"{method}.csv"
            code, _, err = run(capsys, "evaluate", *source,
                               "--method", method, "--output", str(one))
            assert code == 0, err
            assert one.read_bytes() == (tmp_path / f"all.{method}.csv").read_bytes(), method

    def test_custom_dataset_flags(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", "56",
            "--slots-per-day", "24")
        code, stdout, _ = run(
            capsys, "evaluate", "--input", str(path), "--interval", "3600",
            "--k", "0", "--train-window", "28",
            "--test-start", str(28 * 86400), "--test-end", str(56 * 86400 - 3600),
        )
        assert code == 0
        qbsd_line = [l for l in stdout.splitlines() if l.startswith("qbsd")][0]
        assert "0.00" in qbsd_line

    @pytest.mark.parametrize("scheme,interval,k,days,train_days", [
        ("weekly6", 3600, 2, 56, 42),
        ("weekly_plus_yearly", 86400, 2, 420, 371),
        ("custom:0,7,14,21,28,35", 3600, 1, 56, 42),
    ], ids=["weekly6", "weekly_plus_yearly", "custom-6-weeks"])
    def test_custom_csv_keeps_the_default_window(
        self, tmp_path, capsys, scheme, interval, k, days, train_days
    ):
        """Without --train-window a custom CSV keeps the forecaster's default
        window (the deepest lag plus one week) in every command."""
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", str(days),
            "--slots-per-day", str(86400 // interval), "--noise-std", "5", "--seed", "3")
        test_start = format_timestamp((train_days + 1) * 86400)
        test_end = format_timestamp(days * 86400 - interval)
        commands = {
            "forecast": ["forecast"],
            "anomaly": ["anomaly", "--smoother", "ma:4"],
            "evaluate": ["evaluate", "--format", "json",
                         "--test-start", test_start, "--test-end", test_end],
        }
        for name, argv in commands.items():
            outputs = []
            for window in ([], ["--train-window", str(train_days)]):
                out = tmp_path / f"{name}{len(window)}.csv"
                code, stdout, err = run(capsys, *argv, "--input", str(path),
                                        "--interval", str(interval), "--k", str(k),
                                        "--scheme", scheme, "--output", str(out), *window)
                assert code == 0, (name, err)
                outputs.append((stdout, out.read_bytes()))
            assert outputs[0] == outputs[1], name
            assert any(row["forecast"] for row in read_rows(out)), name

    @pytest.mark.parametrize("test_start,message", [
        ("garbage", "--test-start: unparseable timestamp 'garbage'"),
        ("1970-01-29T00:00:05",
         "--test-start: timestamp 2419205 is not a multiple of 900 s"),
    ], ids=["unparseable", "off-grid"])
    def test_bad_test_start_exits_1(self, tmp_path, capsys, test_start, message):
        code, stdout, err = run(capsys, "evaluate", "--interval", "900",
                                "--input", str(tmp_path / "unread.csv"),
                                "--test-start", test_start,
                                "--test-end", "1970-02-01T00:00:00")
        assert code == 1
        assert message in err
        assert stdout == ""

    def test_duplicate_timestamp_names_its_lines(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("timestamp,value\n0,1\n900,2\n1800,3\n900,4\n")
        code, stdout, err = run(capsys, "evaluate", "--interval", "900", "--k", "0",
                                "--input", str(path), "--test-start", "0",
                                "--test-end", "1800")
        assert code == 2
        assert err == (f"error: {path}:5: slot 1 (1970-01-01T00:15:00) appears "
                       "more than once (first at line 3)\n")
        assert stdout == ""

    @settings(max_examples=12, deadline=None)
    @example(seed=5, n_blank=30, c=5.0, k=1)
    @given(
        seed=st.integers(0, 2**16),
        n_blank=st.integers(0, 60),
        c=st.sampled_from([0.5, 1.0, 5.0]),
        k=st.integers(0, 2),
    )
    def test_qbsd_records_match_forecast_on_slot_ordered_input(
        self, tmp_path_factory, seed, n_blank, c, k
    ):
        """On slot-ordered input, with the same --c and window, the record
        evaluate writes for an input row in the test range is the record
        forecast writes for that row, byte for byte; blank cells included."""
        tmp_path = tmp_path_factory.mktemp("invariant")
        rng = random.Random(seed)
        days = 35
        cells = [repr(100.0 + 50.0 * (i % 24 > 8) + rng.gauss(0.0, 10.0))
                 for i in range(days * 24)]
        for i in rng.sample(range(len(cells)), n_blank):
            cells[i] = ""
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n" + "".join(
            f"{format_timestamp(i * 3600)},{cell}\n" for i, cell in enumerate(cells)))
        common = ["--input", str(path), "--interval", "3600", "--k", str(k),
                  "--c", str(c), "--train-window", "28"]
        forecast_out, evaluate_out = tmp_path / "forecast.csv", tmp_path / "evaluate.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["forecast", *common, "--output", str(forecast_out)]) == 0
            assert main(["evaluate", *common, "--method", "qbsd",
                         "--test-start", format_timestamp(28 * 86400),
                         "--test-end", format_timestamp(days * 86400 - 3600),
                         "--output", str(evaluate_out)]) == 0
        forecast_header, *forecast_lines = forecast_out.read_text().splitlines()
        evaluate_header, *evaluate_lines = evaluate_out.read_text().splitlines()
        assert evaluate_header == forecast_header
        assert len(evaluate_lines) == 7 * 24
        by_timestamp = {line.split(",", 1)[0]: line for line in forecast_lines}
        assert evaluate_lines == [by_timestamp[line.split(",", 1)[0]] for line in evaluate_lines]
        blank = sum(cell == "" for cell in cells[28 * 24:])
        assert sum(line.split(",")[1] == "" for line in evaluate_lines) == blank

    def test_custom_needs_test_range(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", "56")
        code, _, err = run(capsys, "evaluate", "--input", str(path),
                           "--interval", "900")
        assert code == 1
        assert "test-start" in err


class TestSchemeAndMethodFlags:
    def test_custom_scheme(self, capsys, synth_csv):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(synth_csv),
                              "--scheme", "custom:0,7,14,21", "--k", "0")
        assert code == 0
        assert any(l.startswith("qbsd") for l in stdout.splitlines())

    def test_bad_custom_scheme(self, capsys):
        code, _, err = run(capsys, "evaluate", "--dataset", "synthetic",
                           "--scheme", "custom:junk")
        assert code == 1
        assert "custom" in err

    def test_scheme_exceeding_train_window_is_config_error(self, capsys):
        # 364-day lags cannot fit the synthetic 28-day training window
        code, _, err = run(capsys, "evaluate", "--dataset", "synthetic",
                           "--scheme", "weekly_plus_yearly")
        assert code == 1
        assert "training window" in err

    def test_seasonal_naive_with_explicit_season(self, capsys, synth_csv):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(synth_csv),
                              "--method", "qbsd,seasonal-naive:672")
        assert code == 0
        line = [l for l in stdout.splitlines() if l.startswith("seasonal-naive")][0]
        assert "0.00" in line  # one week of 15-min slots: exact on periodic data

    @pytest.mark.parametrize("argv,token", [
        (["evaluate", "--dataset", "synthetic", "--method", "qbsd:3,persistence:9"],
         "qbsd:3"),
        (["evaluate", "--dataset", "synthetic", "--method", "qbsd,persistence:9"],
         "persistence:9"),
        (["bench", "--forecasts", "20", "--method", "persistence:5"], "persistence:5"),
    ], ids=["evaluate-qbsd", "evaluate-persistence", "bench-persistence"])
    def test_argument_to_a_method_without_one_exits_1(self, capsys, argv, token):
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert repr(token) in err
        assert stdout == ""

    @pytest.mark.parametrize("token,message", [
        ("seasonal-naive:0", "season_slots must be >= 1, got 0"),
        ("moving-average:0", "window_slots must be >= 1, got 0"),
    ], ids=["seasonal-naive", "moving-average"])
    def test_zero_method_argument_exits_1(self, capsys, token, message):
        code, stdout, err = run(capsys, "evaluate", "--dataset", "synthetic",
                                "--method", f"qbsd,{token}")
        assert code == 1
        assert message in err
        assert stdout == ""

    def test_unknown_method(self, capsys):
        code, _, err = run(capsys, "evaluate", "--dataset", "synthetic",
                           "--method", "prophet")
        assert code == 1
        assert "prophet" in err

    @pytest.mark.parametrize("methods,first,second", [
        ("qbsd,qbsd", "qbsd", "qbsd"),
        ("seasonal-naive,persistence,seasonal-naive:168", "seasonal-naive",
         "seasonal-naive:168"),
        ("moving-average:24,qbsd,moving-average", "moving-average:24", "moving-average"),
        ("persistence,Persistence", "persistence", "persistence"),
    ], ids=["qbsd", "seasonal-naive-default", "moving-average-default", "case"])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--input", "absent.csv", "--interval", "3600", "--test-start", "0",
         "--test-end", "3600"],
        ["bench", "--forecasts", "20", "--slots-per-day", "24"],
    ], ids=["evaluate", "bench"])
    def test_method_named_twice_exits_1_before_input(
        self, capsys, monkeypatch, command, methods, first, second
    ):
        """On an hourly grid seasonal-naive defaults to 168 slots and
        moving-average to 24; a second run of one method would only repeat
        the first, and evaluate would write its records file twice."""
        monkeypatch.setattr(cli, "measure_qbsd_latency", None)  # bench never times
        code, stdout, err = run(capsys, *command, "--method", methods)
        assert code == 1
        assert err == f"error: --method names one method twice: {first!r} and {second!r}\n"
        assert stdout == ""

    def test_same_method_with_other_arguments_runs(self, capsys, synth_csv):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(synth_csv),
                              "--method", "seasonal-naive,seasonal-naive:96")
        assert code == 0
        assert [l.split()[0] for l in stdout.splitlines()[2:]] == [
            "seasonal-naive", "seasonal-naive:96"]

    def test_persistence_is_a_one_slot_seasonal_naive(self, tmp_path, capsys, synth_csv):
        """Two accepted methods with the same forecasts: the same metrics and
        the same records, row for row."""
        out = tmp_path / "records.csv"
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--input", str(synth_csv),
                              "--method", "persistence,seasonal-naive:1",
                              "--format", "json", "--output", str(out))
        assert code == 0
        persistence, seasonal = json.loads(stdout)["methods"]
        assert persistence.pop("method") == "persistence"
        assert seasonal.pop("method") == "seasonal-naive:1"
        assert persistence == seasonal
        records = tmp_path / "records.persistence.csv"
        assert records.read_text() == (tmp_path / "records.seasonal-naive_1.csv").read_text()
        assert len(read_rows(records)) == 4 * 7 * 96  # the synthetic test range

    def test_unknown_method_rejected_before_input_is_opened(
        self, tmp_path, capsys, monkeypatch
    ):
        missing = str(tmp_path / "missing.csv")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, _, err = run(capsys, "evaluate", "--interval", "3600",
                           "--input", missing, "--method", "prophet",
                           "--test-start", "1970-01-29T00:00:00",
                           "--test-end", "1970-02-01T00:00:00")
        assert code == 1
        assert "prophet" in err
        assert opened == []

    def test_moving_average_smoother(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", "28",
            "--slots-per-day", "24")
        out = tmp_path / "fc.csv"
        code, _, _ = run(capsys, "forecast", "--input", str(path),
                         "--interval", "3600", "--k", "0",
                         "--smoother", "ma:5", "--output", str(out))
        assert code == 0
        rows = read_rows(out)
        smoothed = [r for r in rows if r["q1_smooth"] != ""]
        assert smoothed
        assert len(smoothed) == len([r for r in rows if r["q1"] != ""])

    @pytest.mark.parametrize("text,window", [
        ("sg", 11), ("sg:11:3", 11), ("sg:5:2", 5), ("sg:3:1", 3),
        ("ma:1", 1), ("ma:4", 4), ("ma:7", 7),
    ])
    def test_smooth_equals_written_columns(self, tmp_path, capsys, text, window):
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", "42",
            "--slots-per-day", "24", "--noise-std", "5", "--seed", "3")
        lines = path.read_text().splitlines()
        # with --min-samples 9 each gap is a warmup row and ends a segment
        # wherever it is in a subset: short segments early, long ones later
        for i in (*range(23, 240, 23), 241, 290, 291, 292):
            lines[i] = lines[i].split(",")[0] + ","
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fc.csv"
        code, _, _ = run(capsys, "forecast", "--input", str(path),
                         "--interval", "3600", "--k", "1", "--min-samples", "9",
                         "--smoother", text, "--output", str(out))
        assert code == 0
        spec = _parse_smoother(text)
        segments, segment = [], []
        for row in read_rows(out) + [{"q1": ""}]:
            if row["q1"]:
                segment.append(row)
            elif segment:
                segments.append(segment)
                segment = []
        full = [seg for seg in segments if len(seg) >= window]
        assert len(full) >= 3
        for seg in full:
            for column in ("q1", "q3"):
                want = smooth([float(r[column]) for r in seg], spec)
                assert [r[column + "_smooth"] for r in seg] == [repr(v) for v in want]

    def test_short_moving_average_segment_is_written_unsmoothed(self):
        out = io.StringIO()
        writer = RecordWriter(out, smoother=MovingAverage(4))
        g = Granularity(3600)
        # a 3-row segment, a warmup row, then a 4-row segment
        for slot, q1 in enumerate([1.0, 2.0, 3.0, None, 1.0, 2.0, 4.0, 8.0]):
            q3 = None if q1 is None else q1 + 1.0
            writer.write(StepRecord(slot, g, actual=1.0, q1=q1, q3=q3))
        writer.close()
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        assert [r["q1_smooth"] + r["q3_smooth"] for r in rows[:4]] == [""] * 4
        want = smooth([1.0, 2.0, 4.0, 8.0], MovingAverage(4))
        assert [r["q1_smooth"] for r in rows[4:]] == [repr(v) for v in want]

    @pytest.mark.parametrize("spelling", ["none", " None ", ""])
    def test_smoother_none_writes_what_no_smoother_writes(self, tmp_path, capsys, spelling):
        series = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(series), "--days", "30", "--slots-per-day", "24")
        outputs = []
        for name, flags in (("plain", []), ("none", ["--smoother", spelling])):
            out = tmp_path / f"{name}.csv"
            assert run(capsys, "forecast", "--input", str(series), "--interval", "3600",
                       "--k", "1", "--output", str(out), *flags)[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_smoother(self, tmp_path, capsys):
        code, _, err = run(capsys, "forecast", "--input", "x.csv",
                           "--interval", "900", "--smoother", "lowess:3")
        assert code == 1
        assert "lowess" in err


class TestBench:
    def test_structure(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--forecasts", "300")
        assert code == 0
        lines = stdout.splitlines()
        assert any(l.startswith("qbsd (4w buffer)") for l in lines)
        assert any(l.startswith("qbsd (16w buffer)") for l in lines)
        assert any(l.startswith("history scaling:") for l in lines)
        assert any("8.72 ms" in l for l in lines)
        qbsd_line = [l for l in lines if l.startswith("qbsd (4w")][0]
        median_ms = float(qbsd_line.split()[-2])
        assert median_ms > 0

    def test_bad_buffer_weeks(self, capsys):
        code, _, err = run(capsys, "bench", "--buffer-weeks", "x,y")
        assert code == 1

    @pytest.mark.parametrize("weeks", ["4,4", "4,16,16"])
    def test_repeated_buffer_size_exits_1(self, capsys, weeks):
        code, stdout, err = run(capsys, "bench", "--forecasts", "20",
                                "--buffer-weeks", weeks)
        assert code == 1
        assert f"--buffer-weeks repeats a size: {weeks!r}" in err
        assert stdout == ""

    @pytest.mark.parametrize("flags,scheme", [
        ([], lambda g: default_weekly_scheme(4, 4, g)),
        (["--scheme", "weekly6", "--k", "2", "--buffer-weeks", "6,8"],
         lambda g: default_weekly_scheme(6, 2, g)),
        (["--scheme", "weekly_plus_yearly", "--k", "3", "--buffer-weeks", "53,56"],
         lambda g: weekly_plus_yearly_scheme(3, g)),
    ], ids=["default-weekly4", "weekly6", "weekly_plus_yearly"])
    def test_scheme_flag_is_measured(self, capsys, monkeypatch, flags, scheme):
        measured = []
        real = cli.measure_qbsd_latency

        def recording(*args, **kwargs):
            measured.append(kwargs["scheme"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "measure_qbsd_latency", recording)
        code, stdout, _ = run(capsys, "bench", "--forecasts", "20",
                              "--slots-per-day", "24", *flags)
        assert code == 0
        assert measured == [scheme(Granularity(3600))]
        assert any(l.startswith("history scaling:") for l in stdout.splitlines())

    def test_k0_forecasts_with_the_clipped_threshold(self, capsys):
        # weekly4 at k=0 has 3 samples, below the default threshold of 4
        code, stdout, _ = run(capsys, "bench", "--forecasts", "20", "--k", "0")
        assert code == 0
        assert any(l.startswith("qbsd (4w buffer)") for l in stdout.splitlines())

    def test_unknown_scheme_exits_1(self, capsys):
        code, stdout, err = run(capsys, "bench", "--forecasts", "20",
                                "--scheme", "nonsense")
        assert code == 1
        assert "unknown scheme 'nonsense'" in err
        assert stdout == ""

    @pytest.mark.parametrize("scheme,size", [("weekly_plus_yearly", 2), ("custom:0,7", 1)])
    def test_default_min_samples_above_subset_size_exits_1(
        self, capsys, monkeypatch, scheme, size
    ):
        """The same check and message as forecast, anomaly and evaluate,
        before any series is built or any buffer compared with the span."""
        monkeypatch.setattr(cli, "measure_qbsd_latency", None)
        code, stdout, err = run(capsys, "bench", "--forecasts", "200", "--k", "0",
                                "--slots-per-day", "24", "--scheme", scheme)
        assert code == 1
        assert err == ("error: the default min_samples of 3 is above the scheme's subset "
                       f"size of {size} samples, so no slot could be forecast; use a larger "
                       "k or a scheme with more lags\n")
        assert stdout == ""

    def test_zero_forecasts_exits_1(self, capsys):
        code, stdout, err = run(capsys, "bench", "--forecasts", "0")
        assert code == 1
        assert err == "error: n_forecasts must be >= 1, got 0\n"
        assert stdout == ""

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_forecasts": 0}, "n_forecasts must be >= 1, got 0"),
        ({"n_forecasts": 20, "slots_per_day": 0},
         "slots_per_day must be a positive divisor of 86400, got 0"),
        ({"n_forecasts": 20, "slots_per_day": 7},
         "slots_per_day must be a positive divisor of 86400, got 7"),
    ], ids=["no-forecasts", "no-slots", "uneven-slots"])
    def test_measure_rejects_its_arguments(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            cli.measure_qbsd_latency(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("flags", [
        ["--k", "0", "--slots-per-day", "24"],
        ["--scheme", "weekly_plus_yearly", "--k", "3", "--slots-per-day", "24",
         "--buffer-weeks", "53,54"],
        # 66-sample subsets, which consecutive targets slide
        ["--scheme", "weekly_plus_yearly", "--k", "16", "--slots-per-day", "24",
         "--buffer-weeks", "53,106"],
    ], ids=["weekly4-k0-hourly", "weekly_plus_yearly-53-54", "weekly_plus_yearly-k16-53-106"])
    def test_small_buffer_forecasts_every_target(self, capsys, flags):
        code, stdout, _ = run(capsys, "bench", "--forecasts", "200", *flags)
        assert code == 0
        assert any(l.startswith("history scaling:") for l in stdout.splitlines())

    @pytest.mark.parametrize("slots_per_day,n_targets", [(24, 168), (96, 501)])
    def test_smallest_buffer_holds_every_whole_subset(
        self, capsys, monkeypatch, slots_per_day, n_targets
    ):
        timed = []
        real = cli._time_calls

        def recording(fns, targets, n_calls):
            timed.append((fns[0], targets))
            return real(fns, targets, n_calls)

        monkeypatch.setattr(cli, "_time_calls", recording)
        code, _, _ = run(capsys, "bench", "--forecasts", str(n_targets),
                         "--slots-per-day", str(slots_per_day), "--method", "persistence")
        assert code == 0
        [(forecast_at, targets)] = timed
        g = Granularity(86400 // slots_per_day)
        assert forecast_at.__self__.history.capacity == 4 * g.slots_per_week
        # criterion 08's default keeps all 501 targets
        assert len(targets) == n_targets
        size = default_weekly_scheme(4, 4, g).subset_size
        assert [forecast_at(t).sample_count for t in targets] == [size] * n_targets

    def test_buffer_at_scheme_span_exits_1(self, capsys):
        # weekly4 at k=0 spans exactly 3 weeks: no target has a whole subset
        code, stdout, err = run(capsys, "bench", "--forecasts", "20", "--k", "0",
                                "--buffer-weeks", "3,4")
        assert code == 1
        assert "holds no whole subset" in err
        assert stdout == ""

    def test_buffer_below_scheme_span_exits_1(self, capsys):
        # the default 4- and 16-week buffers cannot hold a 364-day lag
        code, stdout, err = run(capsys, "bench", "--forecasts", "20",
                                "--slots-per-day", "24", "--scheme", "weekly_plus_yearly")
        assert code == 1
        assert "below the scheme span" in err
        assert stdout == ""


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys, synth_csv):
        conf = tmp_path / "run.conf"
        conf.write_text(f"dataset=synthetic\nformat=json\ninput={synth_csv}\n")
        code, stdout, _ = run(capsys, "evaluate", "--config", str(conf))
        assert code == 0
        assert json.loads(stdout)["dataset"] == "synthetic"
        # explicit flag wins over the config file value
        code, stdout, _ = run(capsys, "evaluate", "--config", str(conf),
                              "--format", "csv")
        assert code == 0
        assert stdout.startswith("method,")

    @pytest.mark.parametrize("spelling", ["--config {}", "--config={}"])
    def test_second_config_file_exits_1_before_it_is_read(
        self, tmp_path, capsys, spelling
    ):
        one, two = tmp_path / "one.conf", tmp_path / "two.conf"
        one.write_text("format=json\n")
        two.write_text("format=csv\n")
        report = tmp_path / "report.json"
        flags = [f for path in (one, two) for f in spelling.format(path).split()]
        code, stdout, err = run(capsys, "evaluate", "--dataset", "synthetic",
                                "--method", "persistence", "--report", str(report), *flags)
        assert code == 1
        assert "one --config per run" in err
        assert stdout == ""
        assert not report.exists()

    def test_config_key_in_config_file_exits_1(self, tmp_path, capsys):
        one, two = tmp_path / "one.conf", tmp_path / "two.conf"
        one.write_text("format=json\nconfig=two.conf\n")
        two.write_text("format=csv\n")
        report = tmp_path / "report.json"
        code, stdout, err = run(capsys, "evaluate", "--dataset", "synthetic",
                                "--method", "persistence", "--report", str(report),
                                "--config", str(one))
        assert code == 1
        assert f"{one}:2: a config file cannot name another one" in err
        assert stdout == ""
        assert not report.exists()

    def test_malformed_config(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("just-a-word\n")
        code, _, err = run(capsys, "evaluate", "--config", str(conf))
        assert code == 1
        assert "key=value" in err

    def test_config_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        conf = tmp_path / "latin1.conf"
        conf.write_bytes(b"interval=36\xe900\n")
        code, stdout, err = run(capsys, "forecast", "--config", str(conf))
        assert code == 1
        assert err.startswith(f"error: cannot read config file {conf}: 'utf-8' codec ")
        assert stdout == ""

    def test_config_with_a_byte_order_mark_reads_like_a_plain_one(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(series), "--days", "35", "--slots-per-day", "24")
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            conf, out = tmp_path / "run.conf", tmp_path / f"out{len(mark)}.csv"
            conf.write_bytes(mark + f"interval=3600\nk=1\ninput={series}\n".encode())
            assert run(capsys, "forecast", "--config", str(conf), "--output", str(out)) == (
                0, "", ""
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


    def test_values_are_passed_as_the_flag_would_take_them(self, tmp_path, capsys):
        """Each key=value line is --key value: a threshold of false exits 1
        as the flag does, and a value column can be named true. Blank lines
        and # lines are skipped."""
        skipped = "\n# threshold=2 is a comment\n  \n"
        conf = tmp_path / "anomaly.conf"
        conf.write_text(f"interval=3600{skipped}threshold=false\n")
        unread = str(tmp_path / "unread.csv")
        flag = run(capsys, "anomaly", "--input", unread, "--interval", "3600",
                   "--threshold", "false")
        assert flag == (1, "", "error: argument --threshold: invalid float value: 'false'\n")
        assert run(capsys, "anomaly", "--input", unread, "--config", str(conf)) == flag

        series = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(series), "--days", "30", "--slots-per-day", "24")
        header, rows = series.read_text().split("\n", 1)
        assert header == "timestamp,value"
        named_true = tmp_path / "named_true.csv"
        named_true.write_text("timestamp,true\n" + rows)
        conf = tmp_path / "forecast.conf"
        conf.write_text(f"interval=3600\nk=1{skipped}value-column=true\ninput={named_true}\n")
        expected, out = tmp_path / "expected.csv", tmp_path / "out.csv"
        assert run(capsys, "forecast", "--interval", "3600", "--k", "1", "--input",
                   str(series), "--output", str(expected))[0] == 0
        assert run(capsys, "forecast", "--config", str(conf), "--output", str(out)) == (0, "", "")
        assert out.read_bytes() == expected.read_bytes()

    def test_command_line_input_overrides_config(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, seed in ((a, "1"), (b, "2")):
            run(capsys, "synth", "--output", str(path), "--days", "35",
                "--slots-per-day", "24", "--noise-std", "5", "--seed", seed)
        settings = (f"interval=3600\nk=1\nmethod=persistence\nformat=json\n"
                    f"test-start={28 * 86400}\ntest-end={35 * 86400 - 3600}\n")
        reports = {}
        for path in (a, b):
            conf = tmp_path / f"{path.stem}.conf"
            conf.write_text(f"input={path}\n" + settings)
            code, reports[path.stem], _ = run(capsys, "evaluate", "--config", str(conf))
            assert code == 0
        assert reports["a"] != reports["b"]
        code, stdout, _ = run(capsys, "evaluate", "--config", str(tmp_path / "a.conf"),
                              "--input", str(b))
        assert code == 0
        assert stdout == reports["b"]


SERIES_FLAGS = {
    "--config", "--dataset", "--input", "--output", "--interval", "--timestamp-column",
    "--value-column", "--k", "--scheme", "--c", "--min-samples", "--train-window",
}
ACCEPTED_FLAGS = {
    "evaluate": SERIES_FLAGS | {"--c-floor", "--method", "--test-start", "--test-end",
                                "--format", "--report"},
    "forecast": SERIES_FLAGS | {"--smoother"},
    "anomaly": SERIES_FLAGS | {"--c-floor", "--smoother", "--threshold"},
    "bench": {"--config", "--k", "--scheme", "--seed", "--forecasts", "--buffer-weeks",
              "--slots-per-day", "--method"},
    "synth": {"--config", "--output", "--seed", "--noise-std", "--days", "--slots-per-day",
              "--weekday-scale", "--weekend-scale", "--anomalies", "--start"},
}
# every subcommand used to take these; each now takes only those it reads
FORMER_COMMON_FLAGS = SERIES_FLAGS | {"--c-floor", "--seed", "--noise-std"}
REMOVED_FLAGS = [
    (command, flag)
    for command, accepted in ACCEPTED_FLAGS.items()
    for flag in sorted(FORMER_COMMON_FLAGS - accepted)
]
FLAG_VALUES = {
    "--dataset": "synthetic", "--interval": "3600", "--timestamp-column": "timestamp",
    "--value-column": "value", "--k": "1", "--scheme": "weekly4", "--c": "1",
    "--c-floor": "1", "--min-samples": "4", "--train-window": "28", "--seed": "5",
    "--noise-std": "1",
}


def base_argv(command: str, series: Path, out: Path) -> list[str]:
    """A run of ``command`` that exits 0, writing ``out`` where it writes a file."""
    return {
        "evaluate": ["evaluate", "--input", str(series), "--interval", "3600",
                     "--test-start", "1970-01-02T00:00", "--test-end", "1970-01-02T23:00",
                     "--method", "persistence", "--output", str(out)],
        "forecast": ["forecast", "--input", str(series), "--interval", "3600",
                     "--k", "1", "--output", str(out)],
        "anomaly": ["anomaly", "--input", str(series), "--interval", "3600",
                    "--k", "1", "--threshold", "3", "--output", str(out)],
        "bench": ["bench", "--forecasts", "20", "--slots-per-day", "24",
                  "--method", "persistence"],
        "synth": ["synth", "--output", str(out), "--days", "2", "--slots-per-day", "24"],
    }[command]


class TestAcceptedFlags:
    def test_each_command_accepts_only_the_flags_it_reads(self):
        [commands] = [action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        accepted = {
            name: {option for action in parser._actions for option in action.option_strings
                   if option.startswith("--")} - {"--help"}
            for name, parser in commands.choices.items()
        }
        assert accepted == ACCEPTED_FLAGS
        assert sum(len(flags) for flags in accepted.values()) == 64
        assert len(REMOVED_FLAGS) == 29

    @pytest.mark.parametrize("command", ["evaluate", "forecast", "anomaly", "bench", "synth"])
    def test_base_runs_exit_0(self, tmp_path, capsys, command):
        series = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(series), "--days", "2", "--slots-per-day", "24")
        out = tmp_path / "out.csv"
        code, stdout, _ = run(capsys, *base_argv(command, series, out))
        assert code == 0
        assert out.exists() or (command == "bench" and stdout)

    @pytest.mark.parametrize("via", ["argv", "config"])
    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS,
                             ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
    def test_removed_flag_exits_1_before_any_file(
        self, tmp_path, capsys, monkeypatch, command, flag, via
    ):
        series = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(series), "--days", "2", "--slots-per-day", "24")
        out = tmp_path / "out.csv"
        value = {"--input": str(series), "--output": str(out)}.get(flag) or FLAG_VALUES[flag]
        if via == "argv":
            extra = [flag, value]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"{flag[2:]}={value}\n")
            extra = ["--config", str(conf)]
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, stdout, err = run(capsys, *base_argv(command, series, out), *extra)
        assert code == 1
        assert err.split("unrecognized arguments:")[1].split()[0] == flag
        assert stdout == ""
        assert opened == []
        assert not out.exists()


def test_one_default_window():
    """A custom CSV's window is the forecaster's own default: the deepest
    lag plus one week, or plus k + 1 slots where that is longer."""
    cases = [
        ("weekly4", 900, 4, 28), ("weekly4", 3600, 1, 28), ("weekly4", 86400, 2, 28),
        ("weekly6", 3600, 2, 42), ("weekly6", 86400, 0, 42),
        ("weekly_plus_yearly", 3600, 16, 371), ("weekly_plus_yearly", 86400, 2, 371),
        ("custom:0,7,14,21,28,35", 900, 8, 42), ("custom:0,7,14,21,28,35", 86400, 1, 42),
        ("custom:0,21", 86400, 10, 32),
    ]
    for scheme, interval, k, days in cases:
        g = Granularity(interval)
        argv = ["forecast", "--interval", str(interval), "--k", str(k), "--scheme", scheme]
        desc = _resolve_descriptor(_build_parser().parse_args(argv), need_test_range=False)
        capacity = default_capacity(desc.scheme, g)
        assert capacity == days * g.slots_per_day, scheme
        assert RollingForecaster(desc.qbsd_config(), g).history.capacity == capacity
        assert desc.train_window_slots == capacity


@pytest.mark.parametrize("name", ["synthetic", "births2015", "electricity"])
@pytest.mark.parametrize("flags,lag_days,k,fields", [
    ([], None, None, {}),
    (["--k", "3"], None, 3, {}),
    (["--scheme", "weekly4"], (0, 7, 14, 21), None, {}),
    (["--scheme", "custom:0,7,14", "--k", "3"], (0, 7, 14), 3, {}),
    (["--train-window", "400"], None, None, {"train_window_seconds": 400 * 86400}),
    (["--timestamp-column", "when"], None, None, {"timestamp_column": "when"}),
    (["--value-column", "load"], None, None, {"target_column": "load"}),
])
def test_builtin_dataset_takes_the_scheme_window_and_column_flags(
    name, flags, lag_days, k, fields
):
    """--k keeps a builtin's lags at the new k; --scheme names the lags, at
    the builtin's k or at --k; the window and column flags replace their
    fields, and everything else is the builtin's."""
    base = get_descriptor(name)
    g = base.frequency
    k = base.k_slots if k is None else k
    lags = base.scheme.lag_slots if lag_days is None else tuple(
        d * g.slots_per_day for d in lag_days
    )
    expected = dataclasses.replace(
        base, scheme=SeasonalityScheme(lags, k), k_seconds=k * g.interval_seconds, **fields
    )
    args = _build_parser().parse_args(["forecast", "--dataset", name, *flags])
    assert _resolve_descriptor(args, need_test_range=True) == expected


def test_overridden_builtin_is_checked_as_a_whole():
    """A scheme deeper than the builtin's window is refused, and accepted
    once --train-window holds its span."""
    argv = ["evaluate", "--dataset", "synthetic", "--scheme", "weekly6"]
    with pytest.raises(ConfigError) as info:
        _resolve_descriptor(_build_parser().parse_args(argv), need_test_range=True)
    assert str(info.value) == (
        "synthetic: training window of 2688 slots is below the scheme span of 3360"
    )
    args = _build_parser().parse_args(argv + ["--train-window", "35"])
    assert _resolve_descriptor(args, need_test_range=True).train_window_slots == 3360
    # of a custom run's window and test range, the window is checked first
    argv = ["evaluate", "--interval", "3600", "--test-start", "2422800",
            "--test-end", "2419200"]
    for flags, message in (([], "custom: empty test range"),
                           (["--train-window", "1"], "custom: training window of 24 slots "
                            "is below the scheme span of 504")):
        with pytest.raises(ConfigError) as info:
            _resolve_descriptor(_build_parser().parse_args(argv + flags), need_test_range=True)
        assert str(info.value) == message


def test_gap_rows_follow_one_rule_in_every_command(tmp_path, capsys):
    """A gap row's timestamp is parsed and aligned like any other row's, so
    the same file fails the same way in evaluate, forecast and anomaly."""
    cases = {
        "timestamp,value\n0,1\n3600,2\nnot-a-time,\n7200,3\n": 4,
        "timestamp,value\n0,1\n1800,\n3600,2\n": 3,
        "timestamp,value\n0,1\n3600,nan\n7200,oops\n": 4,
    }
    for number, (text, line) in enumerate(cases.items()):
        path = tmp_path / f"gaps{number}.csv"
        path.write_text(text)
        common = ["--input", str(path), "--interval", "3600", "--k", "0"]
        errors = set()
        for argv in (["evaluate", *common, "--test-start", "0", "--test-end", "7200"],
                     ["forecast", *common, "--output", str(tmp_path / "fc.csv")],
                     ["anomaly", *common, "--output", str(tmp_path / "an.csv")]):
            code, _, err = run(capsys, *argv)
            assert code == 2, (text, argv[0])
            assert err.startswith(f"error: {path}:{line}: "), (text, argv[0])
            errors.add(err)
        assert len(errors) == 1, (text, errors)


@pytest.mark.parametrize("command", [
    ["forecast"], ["anomaly"],
    ["evaluate", "--test-start", "0", "--test-end", "3600"],
    ["evaluate", "--test-start", "0", "--test-end", "3600", "--method", "persistence"],
], ids=["forecast", "anomaly", "evaluate-qbsd", "evaluate-persistence"])
def test_min_samples_above_subset_size_exits_1_before_input(tmp_path, capsys, command):
    """weekly4 at k=1 draws 9 samples; a threshold of 100 could never be met."""
    missing = tmp_path / "absent.csv"
    code, stdout, err = run(capsys, *command, "--input", str(missing), "--interval",
                            "3600", "--k", "1", "--min-samples", "100")
    assert code == 1
    assert err == ("error: --min-samples: min_samples 100 is above the scheme's subset "
                   "size of 9 samples, so no slot could be forecast\n")
    assert stdout == ""


@pytest.mark.parametrize("command", [
    ["forecast"], ["anomaly"],
    ["evaluate", "--test-start", "0", "--test-end", "3600"],
    ["evaluate", "--test-start", "0", "--test-end", "3600", "--method", "persistence"],
], ids=["forecast", "anomaly", "evaluate-qbsd", "evaluate-persistence"])
@pytest.mark.parametrize("scheme,size", [("weekly_plus_yearly", 2), ("custom:0,7", 1)])
def test_default_min_samples_above_subset_size_exits_1_before_input(
    tmp_path, capsys, command, scheme, size
):
    """At k=0 these schemes draw fewer samples than the default threshold of
    3, the least any threshold may be."""
    missing = tmp_path / "absent.csv"
    code, stdout, err = run(capsys, *command, "--input", str(missing), "--interval",
                            "3600", "--k", "0", "--scheme", scheme)
    assert code == 1
    assert err == ("error: the default min_samples of 3 is above the scheme's subset "
                   f"size of {size} samples, so no slot could be forecast; use a larger "
                   "k or a scheme with more lags\n")
    assert stdout == ""


# (run, flag, value, reason): flags that the run's data source makes meaningless
SYNTHETIC = ["--dataset", "synthetic", "--input", "{synth}"]
DATASET_MISFITS = [
    (["evaluate", *SYNTHETIC], "--interval", "3600", "its own grid"),
    (["evaluate", *SYNTHETIC], "--test-start", "2419200", "its own test range"),
    (["evaluate", *SYNTHETIC], "--test-end", "2422800", "its own test range"),
    (["forecast", "--dataset", "synthetic", "--input", "{series}"], "--interval", "3600",
     "its own grid"),
    (["anomaly", "--dataset", "synthetic", "--input", "{series}"], "--interval", "3600",
     "its own grid"),
]


@pytest.mark.parametrize("via", ["argv", "config"])
@pytest.mark.parametrize("argv,flag,value,reason", DATASET_MISFITS, ids=[
    f"{argv[0]}-{'dataset' if '--dataset' in argv else 'csv'}{flag}"
    for argv, flag, *_ in DATASET_MISFITS
])
def test_flag_the_data_source_ignores_exits_1_before_any_file(
    tmp_path, capsys, monkeypatch, synth_csv, argv, flag, value, reason, via
):
    """A builtin dataset fixes the grid and the test range."""
    series = tmp_path / "series.csv"
    run(capsys, "synth", "--output", str(series), "--days", "35", "--slots-per-day", "24")
    out = tmp_path / "out.csv"
    argv = [a.format(series=series, synth=synth_csv) for a in argv] + ["--output", str(out)]
    if via == "argv":
        argv += [flag, value]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(f"{flag[2:]}={value}\n")
        argv += ["--config", str(conf)]
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {flag} does not apply to this run: ")
    assert reason in err
    assert stdout == ""
    assert opened == []
    assert not out.exists()
    monkeypatch.undo()
    assert run(capsys, *argv[:-2])[0] == 0  # the same run without the flag


def test_synth_series_scores_as_the_generated_one(tmp_path, capsys):
    """``synth --seed S --noise-std N`` then ``evaluate --dataset synthetic
    --input`` reports what ``rolling_evaluate`` gives on
    ``generate_synthetic(SynthSpec(seed=S, noise_std=N))`` with the same c,
    and two seeds give two reports."""
    desc = get_descriptor("synthetic")
    methods = [dataclasses.replace(desc.qbsd_config(), c=2.0), Persistence()]
    reports = []
    for seed in (5, 6):
        series = tmp_path / f"seed{seed}.csv"
        run(capsys, "synth", "--output", str(series), "--seed", str(seed), "--noise-std", "3")
        code, stdout, err = run(capsys, "evaluate", "--dataset", "synthetic",
                                "--input", str(series), "--method", "qbsd,persistence",
                                "--c", "2", "--format", "json")
        assert code == 0, err
        rows = json.loads(stdout)["methods"]
        frame = generate_synthetic(SynthSpec(noise_std=3.0, seed=seed))
        for row, (report, records) in zip(rows, rolling_evaluate(frame, methods, desc),
                                          strict=True):
            assert [row[key] for key in ("mae", "mse", "rmse", "mape", "r2",
                                         "mape_excluded", "skipped")] == [
                report.mae, report.mse, report.rmse, report.mape, report.r2,
                report.mape_excluded_count, skipped_count(records)]
        reports.append(rows)
    assert reports[0] != reports[1]


@pytest.mark.parametrize("text,message", [
    ("timestamp,value\n0,1\n1970-01-01T00:15:05,2\n",
     ":3: timestamp 905 is not a multiple of 900 s (off by 5 s)"),
    ("timestamp,value\n-900,1\n0,2\n",
     ":2: timestamp -900 is before the epoch; the grid starts at 0"),
    ("timestamp,value\n0,1\n253402300800,2\n",
     ":3: timestamp 253402300800 is in year 10000 or later; the grid ends at 253402300800"),
    ("timestamp,value\n0,1\nabc,2\n", ":3: unparseable timestamp 'abc'"),
    ("timestamp,value\n0,1\n900,oops\n", ":3: bad value 'oops'"),
], ids=["off-grid", "before-epoch", "year-10000", "unparseable-timestamp", "bad-value"])
@pytest.mark.parametrize("command", ["evaluate", "forecast", "anomaly"])
def test_row_off_the_grid_exits_2_naming_its_line(tmp_path, capsys, command, text, message):
    """evaluate reads the file through load_csv, forecast and anomaly stream
    it; each reports the malformed row's path:line and its error in the same
    words."""
    path = tmp_path / "series.csv"
    path.write_text(text)
    argv = [command, "--input", str(path), "--interval", "900", "--k", "0"]
    if command == "evaluate":
        argv += ["--test-start", "0", "--test-end", "900"]
    else:
        argv += ["--output", str(tmp_path / "out.csv")]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {path}{message}\n"
    assert stdout == ""


@pytest.mark.parametrize("flag", [
    ["--c", "-1"], ["--c-floor", "0"],
    ["--c", "nan"], ["--c", "inf"], ["--c-floor", "nan"], ["--c-floor", "inf"],
], ids=["c", "c-floor", "c-nan", "c-inf", "c-floor-nan", "c-floor-inf"])
@pytest.mark.parametrize("command", [
    ["forecast", "--interval", "3600"],
    ["anomaly", "--interval", "3600", "--threshold", "3"],
    ["evaluate", "--dataset", "synthetic", "--method", "qbsd"],
    ["evaluate", "--dataset", "synthetic", "--method", "persistence"],
], ids=["forecast", "anomaly", "evaluate-qbsd", "evaluate-persistence"])
def test_bad_contingency_flags_exit_1(tmp_path, capsys, command, flag):
    path = tmp_path / "series.csv"
    run(capsys, "synth", "--output", str(path), "--days", "28", "--slots-per-day", "24")
    inputs = [] if command[0] == "evaluate" else ["--input", str(path)]
    code, _, err = run(capsys, *command, *inputs, *flag)
    assert code == 1
    assert flag[0] in err


@pytest.mark.parametrize("flag", [["--c", "0"], ["--c-floor", "nan"]], ids=["c", "c-floor"])
@pytest.mark.parametrize("command", [
    ["forecast"], ["anomaly"],
    ["evaluate", "--test-start", "0", "--test-end", "3600"],
    ["evaluate", "--test-start", "0", "--test-end", "3600", "--method", "persistence"],
], ids=["forecast", "anomaly", "evaluate-qbsd", "evaluate-persistence"])
def test_rejected_contingency_flag_is_named_before_input(tmp_path, capsys, command, flag):
    code, stdout, err = run(capsys, *command, "--input", str(tmp_path / "absent.csv"),
                            "--interval", "3600", *flag)
    assert code == 1
    if command == ["forecast"] and flag[0] == "--c-floor":  # forecast estimates no c
        assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    else:
        assert err == (f"error: {flag[0]}: contingency constant must be finite and > 0, "
                       f"got {float(flag[1])}\n")
    assert stdout == ""


@pytest.mark.parametrize("floor", ["5", "-1"], ids=["valid", "invalid"])
@pytest.mark.parametrize("command", ["forecast", "anomaly", "evaluate"])
def test_c_floor_beside_c_exits_1_before_input(tmp_path, capsys, command, floor):
    """--c fixes c, so a --c-floor beside it would be ignored, whatever its
    value: the run is refused before its input is opened. forecast, which
    estimates no c, has no --c-floor at all."""
    code, stdout, err = run(capsys, command, "--dataset", "synthetic",
                            "--input", str(tmp_path / "absent.csv"),
                            "--c", "2", "--c-floor", floor)
    assert code == 1
    assert err == (f"error: unrecognized arguments: --c-floor {floor}\n"
                   if command == "forecast" else
                   "error: --c-floor does not apply to this run: "
                   "--c fixes c, so no estimate is floored\n")
    assert stdout == ""


@pytest.mark.parametrize("flag", [["--c", "2"], ["--c-floor", "2"], ["--min-samples", "3"]],
                         ids=["c", "c-floor", "min-samples"])
@pytest.mark.parametrize("methods", ["persistence", "seasonal-naive,moving-average"])
def test_qbsd_flag_without_a_qbsd_method_exits_1_before_input(
    tmp_path, capsys, synth_csv, methods, flag
):
    """c and min_samples are QBSD's alone: a run of baselines only would
    ignore them, so it is refused before any output or input is opened."""
    out = tmp_path / "records.csv"
    code, stdout, err = run(capsys, "evaluate", "--dataset", "synthetic",
                            "--input", str(synth_csv), "--method", methods,
                            "--output", str(out), *flag)
    assert code == 1
    assert err == f"error: {flag[0]} does not apply to this run: no qbsd method runs\n"
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["evaluate", "--test-start", str(30 * 86400), "--test-end", str(60 * 86400)],
    ["anomaly", "--threshold", "3", "--output", "-"],
], ids=["evaluate", "anomaly"])
def test_overflowing_contingency_estimate_exits_2(tmp_path, capsys, command):
    # |P1| of one -1e308 among 1e308s interpolates across the float limit
    path = tmp_path / "huge.csv"
    values = [-1e308] + [1e308] * 39 + [5.0] * 40
    path.write_text("timestamp,value\n" + "".join(
        f"{day * 86400},{value!r}\n" for day, value in enumerate(values)))
    code, _, err = run(capsys, *command, "--interval", "86400", "--k", "1",
                       "--input", str(path))
    assert code == 2
    assert err == "error: the contingency constant of the training values overflows to inf\n"


def test_usage_error_is_exit_1(capsys):
    code, _, err = run(capsys, "evaluate", "--interval", "not-a-number")
    assert code == 1


def test_unknown_command_is_exit_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def reference_prefix_c(input_path: str, desc, floor: float) -> float:
    """The two-pass estimate that the in-stream one replaced: a second read
    of the input that takes the values of the first scheme-span of rows."""
    first = None
    values = []
    span = desc.scheme.span_slots
    with series_rows(input_path, desc.timestamp_column, desc.target_column,
                     desc.frequency) as rows:
        for _, slot, value in rows:
            if value is None:
                continue
            if first is None:
                first = slot
            if slot >= first + span:
                break
            values.append(value)
    if not values:
        return floor
    return contingency_constant(values, floor)


PREFIX_ROWS = st.lists(
    st.tuples(
        # most rows in file order, some moved up to 3 days off it
        st.one_of(st.just(0), st.integers(-3, 3)),
        st.booleans(),  # epoch integer or canonical timestamp
        st.one_of(
            st.floats(-1e3, 1e3, allow_nan=False).map(repr),
            st.sampled_from(["", "nan", "inf", "-inf"]),
        ),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(rows=PREFIX_ROWS, floor=st.sampled_from([1e-6, 0.5, 50.0]))
# decreasing values: the row a span after the first holds the lowest value
@example(rows=[(0, True, "")] * 3 + [(0, True, repr(30.0 - i)) for i in range(30)],
         floor=1e-6)
# a gap row moved past the boundary does not end the prefix; the next row does not
@example(rows=[(0, True, repr(30.0 - i)) for i in range(19)] + [(3, True, "")]
         + [(0, True, repr(30.0 - i)) for i in range(20, 30)], floor=1e-6)
# the second row repeats the first's slot: both runs stop at line 3
@example(rows=[(0, True, "1.0"), (-1, False, "2.0"), (0, True, "3.0")], floor=0.5)
def test_in_stream_c_matches_two_pass_estimate(tmp_path_factory, rows, floor):
    """Gaps, non-finite cells, out-of-order and repeated rows inside the
    first scheme-span, and inputs that end before or after it."""
    g = Granularity(86400)
    path = tmp_path_factory.mktemp("prefix") / "in.csv"
    lines = ["timestamp,value"]
    repeated, present = None, set()
    for i, (shift, epoch_ts, cell) in enumerate(rows):
        epoch = max(0, 30 + i + shift) * 86400
        lines.append(f"{epoch if epoch_ts else format_timestamp(epoch)},{cell}")
        # a value for a slot that holds one is a duplicate: every row lies
        # within days of the others, far inside the window
        if cell not in ("", "nan", "inf", "-inf"):
            if epoch in present and repeated is None:
                repeated = i + 2  # the header is line 1
            present.add(epoch)
    path.write_text("\n".join(lines) + "\n")
    flags = ["anomaly", "--input", str(path), "--interval", "86400", "--k", "1",
             "--threshold", "3"]
    desc = _resolve_descriptor(_build_parser().parse_args(flags), need_test_range=False)
    expected = reference_prefix_c(str(path), desc, floor)

    with series_rows(str(path), "timestamp", "value", g) as points:
        c, held = _estimate_c(points, desc.scheme.span_slots, floor)
        rest = list(points)
    assert c == expected
    assert len(held) + len(rest) == len(rows)  # every row read exactly once

    # the whole stream runs with the estimate as --c, up to the same
    # duplicate row if there is one
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [main([*flags, "--c-floor", repr(floor)])]
        estimated = out.getvalue()
        out.seek(0)
        out.truncate()
        codes.append(main([*flags, "--c", repr(expected)]))
    assert out.getvalue() == estimated
    if repeated is None:
        assert codes == [0, 0]
    else:
        assert codes == [2, 2]
        assert err.getvalue().count(f"error: {path}:{repeated}: slot ") == 2


def test_malformed_row_in_prefix_fails_before_any_record(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,value\n0,1\n86400,2\n\n172800,oops\n259200,4\n")
    code, stdout, err = run(capsys, "anomaly", "--input", str(path),
                            "--interval", "86400", "--k", "1")
    assert code == 2
    assert f"{path}:5: bad value 'oops'" in err
    assert stdout == ""


@pytest.mark.parametrize("command", ["forecast", "anomaly", "evaluate"])
def test_overflowing_quartiles_exit_2_naming_the_slot(tmp_path, capsys, command):
    """Daily values alternating -1e308 and 1e308: the Q1 interpolation of the
    first forecastable slot overflows to inf, above Q3. Every command reports
    it as a data error naming that slot, not as a traceback."""
    path = tmp_path / "extremes.csv"
    path.write_text("timestamp,value\n" + "".join(
        f"{day * 86400},{1e308 if day % 2 else -1e308}\n" for day in range(60)))
    argv = [command, "--input", str(path), "--interval", "86400", "--k", "0"]
    if command == "evaluate":
        argv += ["--test-start", "1970-01-23T00:00:00", "--test-end", "1970-02-20T00:00:00"]
    else:
        argv += ["--output", str(tmp_path / "out.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: 1970-01-23T00:00:00: q1 (inf) must not exceed q3 (1e+308)\n"


def test_interpolating_savgol_writes_the_bounds_unchanged(tmp_path, capsys):
    """sg:21:20 fits a degree-20 polynomial through 21 points, so every row
    of its weight table is a unit vector and each smoothed cell is its
    bound, edges included."""
    path = tmp_path / "series.csv"
    run(capsys, "synth", "--output", str(path), "--days", "42",
        "--slots-per-day", "24", "--noise-std", "5", "--seed", "3")
    out = tmp_path / "fc.csv"
    code, _, _ = run(capsys, "forecast", "--input", str(path), "--interval", "3600",
                     "--k", "1", "--smoother", "sg:21:20", "--output", str(out))
    assert code == 0
    rows = [r for r in read_rows(out) if r["q1"]]
    assert len(rows) > 21
    assert [r["q1_smooth"] for r in rows] == [r["q1"] for r in rows]
    assert [r["q3_smooth"] for r in rows] == [r["q3"] for r in rows]


@pytest.mark.parametrize("spec,limit", [("sg:201:150", "window_length must be at most 101"),
                                         ("sg:41:21", "polyorder must be at most 20")])
def test_costly_savgol_table_exits_1_before_any_row(tmp_path, capsys, spec, limit):
    """A Savitzky-Golay table above the caps is refused as a flag error,
    before the input is opened: a missing file would exit 2."""
    code, out, err = run(capsys, "anomaly", "--input", str(tmp_path / "missing.csv"),
                         "--interval", "3600", "--k", "1", "--smoother", spec, "--output", "-")
    assert code == 1
    assert out == ""
    assert limit in err


def test_runtime_never_imports_numpy(tmp_path):
    """The package runs on the standard library alone: after ``import qbsd``
    and a Savitzky-Golay smoothed anomaly run, numpy is not loaded."""
    series, out = str(tmp_path / "series.csv"), str(tmp_path / "out.csv")
    script = textwrap.dedent(f"""
        import sys
        import qbsd
        import qbsd.cli
        assert qbsd.cli.main(["synth", "--output", {series!r}, "--days", "35",
                              "--slots-per-day", "24"]) == 0
        assert qbsd.cli.main(["anomaly", "--input", {series!r}, "--interval", "3600",
                              "--k", "1", "--smoother", "sg:11:3", "--output", {out!r}]) == 0
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
        assert "numpy" not in sys.modules, loaded
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def stale_series(path: Path, late: str = "1") -> Path:
    """Hourly rows 0..959, then a late row at slot 1 with the value cell
    ``late``: older than any window, so a forecast run fails after writing
    most of its records."""
    with open(path, "w", newline="") as handle:
        handle.write("timestamp,value\n")
        handle.writelines(f"{i * 3600},{i % 24}\n" for i in range(960))
        handle.write(f"3600,{late}\n")
    return path


ALL_THREE = ("forecast", "anomaly", "evaluate")


def duplicate_series(path: Path) -> Path:
    """400 hourly rows with slot 399 written twice, on lines 401 and 402."""
    with open(path, "w", newline="") as handle:
        handle.write("timestamp,value\n")
        handle.writelines(f"{i * 3600},{i % 24}\n" for i in range(400))
        handle.write(f"{399 * 3600},{399 % 24}\n")
    return path


STALE = "1970-01-01T01:00:00: slot 1 is older than the retained window (oldest kept: 288)"


@pytest.mark.parametrize("series,line,message,command", [
    pytest.param(series, line, message, command, id=f"{name}-{command}")
    for name, series, line, message, commands in [
        ("duplicate", duplicate_series, 402,
         "slot 399 (1970-01-17T15:00:00) appears more than once", ALL_THREE),
        ("stale", stale_series, 962, STALE, ALL_THREE),
        # evaluate drops a gap row before it sorts, so only the streams meet it
        ("late-gap", lambda path: stale_series(path, ""), 962, STALE, ALL_THREE[:2]),
    ]
    for command in commands
])
def test_repeated_row_exits_2_naming_its_line(tmp_path, capsys, command, series, line,
                                              message):
    """A row whose slot was already read fails on its own line in every
    command. ``evaluate`` reads the whole file first, so to it the late row
    is a duplicate too, named with its first line. A gap row the window has
    passed is stale in ``forecast`` and ``anomaly`` as a value row is."""
    path = series(tmp_path / "in.csv")
    out = tmp_path / "out.csv"
    argv = [command, "--input", str(path), "--interval", "3600", "--k", "1",
            "--output", str(out)]
    if command == "evaluate":
        argv += ["--test-start", "1970-01-10T00:00:00", "--test-end", "1970-01-17T00:00:00"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {path}:{line}: ")
    if command != "evaluate":
        assert err == f"error: {path}:{line}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["forecast", "anomaly"])
def test_blank_row_after_a_value_for_its_slot_writes_no_record(tmp_path, capsys, command):
    """A gap row for a slot the window holds a value for adds no record, as
    in ``evaluate``: the records are the bytes of the file without it,
    whether it comes mid-stream or last."""
    outputs = []
    for blanks in ((), (500, 959)):
        path = tmp_path / "in.csv"
        with open(path, "w", newline="") as handle:
            handle.write("timestamp,value\n")
            for i in range(960):
                handle.write(f"{i * 3600},{i % 24}\n")
                if i in blanks:
                    handle.write(f"{i * 3600},\n")
        out = tmp_path / f"out{len(outputs)}.csv"
        code, _, err = run(capsys, command, "--input", str(path), "--interval", "3600",
                           "--k", "1", "--output", str(out))
        assert (code, err) == (0, "")
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("command", ["forecast", "anomaly"])
@pytest.mark.parametrize("second", ["value", "blank"])
@pytest.mark.parametrize("at", [500, 959], ids=["mid-stream", "last"])
def test_blank_row_before_another_row_for_its_slot_writes_one_record(tmp_path, capsys,
                                                                      command, second, at):
    """A blank row for a slot the window holds no value for, followed by a
    value or a second blank for the same slot, writes the bytes of the file
    with only that second row: the blank's record is held until a row for
    another slot arrives or the input ends."""
    last = str(at % 24) if second == "value" else ""
    outputs = []
    for cells in ((last,), ("", last)):
        path = tmp_path / "in.csv"
        with open(path, "w", newline="") as handle:
            handle.write("timestamp,value\n")
            for i in range(960):
                handle.writelines(f"{i * 3600},{cell}\n"
                                  for cell in (cells if i == at else (i % 24,)))
        out = tmp_path / f"out{len(outputs)}.csv"
        code, _, err = run(capsys, command, "--input", str(path), "--interval", "3600",
                           "--k", "1", "--output", str(out))
        assert (code, err) == (0, "")
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]


@settings(max_examples=20, deadline=None)
@given(data=st.data(),
       # per hourly slot: 0 no row, 1 a blank cell, else a value; the first has one
       kinds=st.lists(st.integers(0, 4), min_size=10, max_size=200).map(lambda k: [2] + k),
       fault=st.sampled_from(["timestamp", "off-grid", "value", "repeat"]))
def test_one_faulty_row_fails_on_its_line_in_all_three_commands(tmp_path_factory, data,
                                                                 kinds, fault):
    """A slot-ordered hourly series with gaps and one faulty row: a bad or
    off-grid timestamp, a bad value, or a value for an earlier valued slot,
    all far inside the window. ``forecast``, ``anomaly`` and ``evaluate``
    each exit 2 naming the faulty row's ``path:line``."""
    rows = [(slot, "" if kind == 1 else repr(kind * 10.5))
            for slot, kind in enumerate(kinds) if kind]
    at = data.draw(st.integers(1, len(rows)), label="faulty row index")
    slot, cell = data.draw(st.sampled_from([row for row in rows[:at] if row[1]]),
                           label="earlier valued row")
    text = {"timestamp": "noon,1",
            "off-grid": f"{slot * 3600 + 5},1",
            "value": f"{slot * 3600},oops",
            "repeat": f"{slot * 3600},{cell}"}[fault]
    lines = [f"{s * 3600},{c}" for s, c in rows]
    lines.insert(at, text)
    path = tmp_path_factory.mktemp("faulty") / "in.csv"
    path.write_text("timestamp,value\n" + "\n".join(lines) + "\n")
    common = ["--input", str(path), "--interval", "3600", "--k", "1"]
    runs = [["forecast", *common, "--output", str(path.with_suffix(".f.csv"))],
            ["anomaly", *common, "--c", "1", "--output", str(path.with_suffix(".a.csv"))],
            ["evaluate", *common, "--test-start", "0", "--test-end", str(len(kinds) * 3600)]]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2 and err.getvalue().startswith(f"error: {path}:{at + 2}: "), (
            argv[0], err.getvalue())


def failing_runs(tmp_path: Path) -> dict[str, tuple[list[str], str, list[str]]]:
    """Runs that exit 2 once records are under way, as (argv before
    ``--output``, the ``--output`` name in the output directory, the files
    the failing part would write there)."""
    stale = stale_series(tmp_path / "stale.csv")
    good = tmp_path / "good.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["synth", "--output", str(good), "--days", "35", "--slots-per-day", "24"])
    hourly = ["--interval", "3600", "--k", "1"]
    return {
        "forecast": (["forecast", *hourly, "--input", str(stale)], "out.csv", ["out.csv"]),
        "anomaly": (["anomaly", *hourly, "--input", str(stale)], "out.csv", ["out.csv"]),
        # a test range inside the first week: QBSD and the weekly seasonal
        # naive never forecast, so the run fails after streaming its records
        "evaluate": (["evaluate", *hourly, "--input", str(good),
                      "--method", "qbsd,seasonal-naive",
                      "--test-start", "1970-01-02T00:00:00",
                      "--test-end", "1970-01-03T00:00:00"],
                     "out.csv", ["out.qbsd.csv", "out.seasonal-naive.csv"]),
        # one file per input: the good input's is complete and kept
        "anomaly_inputs": (["anomaly", *hourly, "--input", str(good),
                            "--input", str(stale)], "", ["stale.qbsd.csv"]),
    }


@pytest.mark.parametrize("case", ["forecast", "anomaly", "evaluate", "anomaly_inputs"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_run_leaves_no_partial_output(tmp_path, capsys, case, existing):
    argv, target, names = failing_runs(tmp_path)[case]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    before = {name: f"an earlier run's {name}\n".encode() for name in names if existing}
    for name, data in before.items():
        (out_dir / name).write_bytes(data)
    code, _, err = run(capsys, *argv, "--output", str(out_dir / target))
    assert code == 2, err
    left = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    if case == "anomaly_inputs":
        assert left.pop("good.qbsd.csv").count(b"\n") == 35 * 24 + 1
    assert left == before  # nothing new, nothing changed, no temporary file


def _series_argv(tmp_path: Path, capsys, command: str, out) -> list[str]:
    series = tmp_path / "series.csv"
    run(capsys, "synth", "--output", str(series), "--days", "35", "--slots-per-day", "24")
    argv = [command, "--interval", "3600", "--k", "1", "--input", str(series),
            "--output", str(out)]
    if command == "evaluate":
        argv += ["--test-start", "1970-01-29T00:00:00", "--test-end", "1970-02-04T23:00:00"]
    return argv


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_output_file_has_the_mode_a_plain_open_gives(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert run(capsys, *_series_argv(tmp_path, capsys, command, out))[0] == 0
    plain = tmp_path / "plain.csv"
    with open(plain, "w"):
        pass
    assert out.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "plain.csv", "series.csv"]


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_unwritable_output_names_the_path_asked_for(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.csv"
    code, _, err = run(capsys, *_series_argv(tmp_path, capsys, command, out))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_any_failure_to_create_the_temporary_file_names_the_path_asked_for(
    tmp_path, capsys, monkeypatch
):
    """An I/O error on creating ``<out.csv>.<pid>.tmp`` is reported for
    ``out.csv``, the only name the caller knows."""
    def failing_open(file, mode="r", *args, **kwargs):
        if mode == "x":
            raise OSError(errno.EIO, os.strerror(errno.EIO), file)
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "forecast", "--input", "absent.csv", "--interval", "3600",
                            "--output", "out.csv")
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}: 'out.csv'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_output_to_a_pipe_is_written_in_place(tmp_path, capsys, command):
    expected_path = tmp_path / "expected.csv"
    assert run(capsys, *_series_argv(tmp_path, capsys, command, expected_path))[0] == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    code, _, err = run(capsys, *_series_argv(tmp_path, capsys, command, fifo))
    reader.join(timeout=30)
    assert code == 0, err
    assert received == [expected_path.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)  # the pipe itself, not a file renamed over it
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("command", ["forecast", "anomaly", "synth"])
def test_dash_output_writes_the_file_to_stdout(tmp_path, capsys, monkeypatch, command):
    """``--output -`` puts on stdout the bytes the file would hold, and the
    lines the run prints beside a file on stderr; no file named ``-``
    appears."""
    series = tmp_path / "series.csv"
    run(capsys, "synth", "--output", str(series), "--days", "35", "--slots-per-day", "24")
    out = tmp_path / "out.csv"
    code, info, err = run(capsys, *base_argv(command, series, out))
    assert (code, err) == (0, "")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code, stdout, err = run(capsys, *base_argv(command, series, "-"))
    assert code == 0, err
    assert stdout.encode() == out.read_bytes()
    assert err == info.replace(str(out), "-")
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("output", [[], ["--output", "-"]], ids=["none", "dash"])
def test_several_inputs_without_an_output_directory_exit_1(
    tmp_path, capsys, monkeypatch, output
):
    """Several inputs write one file each into the --output directory, which
    stdout is not."""
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "forecast", "--interval", "3600", "--input", "a.csv",
                            "--input", "b.csv", *output)
    assert code == 1
    assert err == "error: --output must name a directory for multiple inputs\n"
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_directory_at_output_path_fails_before_any_output(tmp_path, capsys, command):
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = run(capsys, *_series_argv(tmp_path, capsys, command, target))
    assert code == 2
    assert out == ""  # evaluate's report is never printed
    assert err == f"error: [Errno 21] Is a directory: '{target}'\n"
    assert target.is_dir() and not list(target.iterdir())
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_stale_temporary_file_is_stepped_around(tmp_path, capsys, command):
    """A run killed before it could remove its temporary file leaves one that
    a later run with the same pid must neither fail on nor touch."""
    out = tmp_path / "out.csv"
    stale = tmp_path / f"out.csv.{os.getpid()}.tmp"
    stale.write_bytes(b"a killed run's partial records\n")
    code, _, err = run(capsys, *_series_argv(tmp_path, capsys, command, out))
    assert code == 0, err
    assert out.read_bytes().startswith(b"timestamp,")
    assert stale.read_bytes() == b"a killed run's partial records\n"
    assert sorted(p.name for p in tmp_path.glob("*.tmp")) == [stale.name]


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_output_name_with_no_room_for_a_suffix_is_written(tmp_path, capsys, command):
    """A 254-byte file name is legal, but ``<name>.<pid>.tmp`` beside it is
    not: the temporary file takes a short name in the same directory."""
    if os.pathconf(tmp_path, "PC_NAME_MAX") < 255:
        pytest.skip("the file system's names are shorter than 255 bytes")
    expected = tmp_path / "expected.csv"
    assert run(capsys, *_series_argv(tmp_path, capsys, command, expected))[0] == 0
    out = tmp_path / ("a" * 250 + ".csv")
    code, _, err = run(capsys, *_series_argv(tmp_path, capsys, command, out))
    assert code == 0, err
    assert out.read_bytes() == expected.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def _feed_pipe(path: Path, data: bytes) -> threading.Thread:
    """A named pipe at ``path`` whose writer sends ``data`` once a reader
    opens it."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    return writer


@pytest.mark.parametrize("unsorted", [False, True], ids=["in-order", "unsorted"])
def test_duplicate_in_slot_order_names_its_lines_from_a_pipe(tmp_path, capsys, unsorted):
    """A duplicate is named with both its lines, from a pipe as from a
    regular file, whether or not the rows come in slot order: the one read
    keeps every row's line."""
    rows = [f"{i * 3600},{i % 24}\n" for i in range(24 * 36)]
    rows.insert(101, "360000,7\n")  # slot 100 again, on line 103
    if unsorted:  # two later rows swapped, on lines 202 and 203
        rows[200], rows[201] = rows[201], rows[200]
    data = ("timestamp,value\n" + "".join(rows)).encode()
    regular = tmp_path / "series.csv"
    regular.write_bytes(data)
    pipe = tmp_path / "pipe"
    writer = _feed_pipe(pipe, data)
    argv = ["evaluate", "--interval", "3600", "--k", "1",
            "--test-start", "1970-01-30T00:00:00", "--test-end", "1970-02-05T23:00:00"]
    for path in (pipe, regular):
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}:103: slot 100 (1970-01-05T04:00:00) appears "
                       "more than once (first at line 102)\n")
    writer.join(timeout=30)
    assert not writer.is_alive()


def test_unsorted_or_piped_input_evaluates_as_the_sorted_file(tmp_path, capsys):
    """``evaluate`` forecasts in slot order: a shuffled copy of a gappy CSV,
    which the reader sorts, and the sorted file read from a pipe write the
    sorted file's report and records byte for byte."""
    series = tmp_path / "series.csv"
    run(capsys, "synth", "--output", str(series), "--days", "42", "--slots-per-day", "24",
        "--noise-std", "5", "--seed", "2")
    header, *rows = series.read_text().splitlines(keepends=True)
    rng = random.Random(4)
    rows = [row if rng.random() > 0.05 else row.split(",")[0] + ",\n"  # blank cells
            for row in rows if rng.random() > 0.05]  # and absent rows
    sorted_path = tmp_path / "sorted.csv"
    sorted_path.write_text(header + "".join(rows))
    rng.shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows))
    pipe = tmp_path / "pipe"
    writer = _feed_pipe(pipe, sorted_path.read_bytes())

    def evaluate(source: Path, name: str) -> tuple[str, dict[str, bytes]]:
        out_dir = tmp_path / name
        out_dir.mkdir()
        code, report, err = run(capsys, "evaluate", "--interval", "3600", "--k", "1",
                                "--input", str(source),
                                "--method", "qbsd,seasonal-naive,persistence",
                                "--test-start", "1970-02-05T00:00:00",
                                "--test-end", "1970-02-11T23:00:00",
                                "--format", "json", "--output", str(out_dir / "records.csv"))
        assert code == 0, err
        return report, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    expected = evaluate(sorted_path, "sorted")
    assert len(expected[1]) == 3
    assert evaluate(shuffled, "shuffled") == expected
    assert evaluate(pipe, "piped") == expected
    writer.join(timeout=30)
    assert not writer.is_alive()


ABSENT_SERIES = ["--input", "absent.csv", "--interval", "3600"]


@pytest.mark.parametrize("argv,message", [
    (["forecast", *ABSENT_SERIES, "--smoother", "sg:x:3"],
     "bad smoother 'sg:x:3'; expected sg:<window>:<polyorder>"),
    (["forecast", *ABSENT_SERIES, "--smoother", "sg:11"],
     "bad smoother 'sg:11'; expected sg:<window>:<polyorder>"),
    (["anomaly", *ABSENT_SERIES, "--smoother", "ma:x"],
     "bad smoother 'ma:x'; expected ma:<window>"),
    (["anomaly", *ABSENT_SERIES, "--smoother", "ma:5:2"],
     "bad smoother 'ma:5:2'; expected ma:<window>"),
    (["evaluate", "--dataset", "synthetic", "--method", "seasonal-naive:x"],
     "bad method argument in 'seasonal-naive:x'; expected slots"),
    (["evaluate", "--dataset", "synthetic", "--method", ","], "no methods given"),
    (["synth", "--output", "s.csv", "--anomalies", "3000"],
     "bad anomaly '3000'; expected <slot>:<magnitude>, e.g. 3000:+500"),
    (["synth"], "--output is required"),
    (["evaluate"], "either --dataset or --interval is required"),
    (["evaluate", "--config"], "argument --config: expected one argument"),
    (["evaluate", *ABSENT_SERIES, "--test-start", "0"],
     "--test-start and --test-end are required for custom datasets"),
    (["evaluate", "--dataset", "births2015"], "--input is required"),
    (["forecast", "--interval", "3600"], "--input is required"),
    (["bench", "--buffer-weeks", "4"], "--buffer-weeks needs at least two sizes, e.g. 4,16"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_bad_or_missing_flag_exits_1_with_its_message(tmp_path, capsys, monkeypatch, argv,
                                                      message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


_ABSENT_INPUT = ["--input", "absent.csv", "--interval", "3600"]
_ABSENT_EVALUATE = ["evaluate", *_ABSENT_INPUT, "--test-start", "1970-02-01T00:00:00",
                    "--test-end", "1970-02-08T00:00:00"]


@pytest.mark.parametrize("argv, flag", [
    (["forecast", *_ABSENT_INPUT], "--output"),
    (["anomaly", *_ABSENT_INPUT], "--output"),
    (_ABSENT_EVALUATE, "--output"),
    (_ABSENT_EVALUATE, "--report"),
    (["synth"], "--output"),
], ids=["forecast", "anomaly", "evaluate-output", "evaluate-report", "synth"])
def test_output_name_no_file_can_have_exits_2_before_input(tmp_path, capsys, monkeypatch,
                                                           argv, flag):
    """A 300-byte file name fails on the first look at the output path,
    before the input (here absent) is opened or the series is made."""
    if os.pathconf(tmp_path, "PC_NAME_MAX") >= 300:
        pytest.skip("the file system takes 300-byte names")
    monkeypatch.chdir(tmp_path)

    def never_called(*args, **kwargs):
        raise AssertionError("the series was made before the output was opened")

    monkeypatch.setattr(cli, "generate_synthetic", never_called)
    out = "a" * 296 + ".csv"
    code, stdout, err = run(capsys, *argv, flag, out)
    too_long = errno.ENAMETOOLONG
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno {too_long}] {os.strerror(too_long)}: '{out}'\n"
    assert list(tmp_path.iterdir()) == []
