import builtins
import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbsd.cli import _build_parser, _estimate_c, _points, _resolve_descriptor, main
from qbsd.core import contingency_constant
from qbsd.datasets import format_timestamp, parse_timestamp, series_rows
from qbsd.errors import DataError
from qbsd.timegrid import Granularity, align


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


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

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--output",
                           str(tmp_path / "no" / "dir.csv"))
        assert code == 2
        assert "no" in err


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
    def test_builtin_synthetic_table(self, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic")
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

    def test_unknown_dataset_exit_1(self, capsys):
        code, _, err = run(capsys, "evaluate", "--dataset", "wat")
        assert code == 1
        assert "wat" in err

    def test_two_methods_with_wilcoxon_column(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--noise-std", "10", "--seed", "5",
                              "--method", "qbsd,persistence")
        assert code == 0
        lines = stdout.splitlines()
        persistence = [l for l in lines if l.startswith("persistence")][0]
        p_text = persistence.split()[-1]
        assert p_text == "-" or 0.0 <= float(p_text) <= 1.0
        assert any(l.startswith("qbsd") for l in lines)

    def test_json_format_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--format", "json", "--report", str(report))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["dataset"] == "synthetic"
        assert payload["methods"][0]["method"] == "qbsd"
        assert json.loads(report.read_text()) == payload

    def test_csv_format(self, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(stdout.splitlines()))
        assert rows[0]["method"] == "qbsd"
        assert float(rows[0]["mape"]) == 0.0

    def test_per_step_records_written(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code, _, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                         "--output", str(out))
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4 * 7 * 96
        assert rows[0]["forecast"] != ""

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

    def test_custom_needs_test_range(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        run(capsys, "synth", "--output", str(path), "--days", "56")
        code, _, err = run(capsys, "evaluate", "--input", str(path),
                           "--interval", "900")
        assert code == 1
        assert "test-start" in err


class TestSchemeAndMethodFlags:
    def test_custom_scheme(self, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
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

    def test_seasonal_naive_with_explicit_season(self, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--dataset", "synthetic",
                              "--method", "qbsd,seasonal-naive:672")
        assert code == 0
        line = [l for l in stdout.splitlines() if l.startswith("seasonal-naive")][0]
        assert "0.00" in line  # one week of 15-min slots: exact on periodic data

    def test_unknown_method(self, capsys):
        code, _, err = run(capsys, "evaluate", "--dataset", "synthetic",
                           "--method", "prophet")
        assert code == 1
        assert "prophet" in err

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


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("dataset=synthetic\nformat=json\nseed=2\n")
        code, stdout, _ = run(capsys, "evaluate", "--config", str(conf))
        assert code == 0
        assert json.loads(stdout)["dataset"] == "synthetic"
        # explicit flag wins over the config file value
        code, stdout, _ = run(capsys, "evaluate", "--config", str(conf),
                              "--format", "csv")
        assert code == 0
        assert stdout.startswith("method,")

    def test_malformed_config(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("just-a-word\n")
        code, _, err = run(capsys, "evaluate", "--config", str(conf))
        assert code == 1
        assert "key=value" in err


def test_usage_error_is_exit_1(capsys):
    code, _, err = run(capsys, "evaluate", "--interval", "not-a-number")
    assert code == 1


def test_unknown_command_is_exit_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def reference_prefix_c(input_path: str, desc, floor: float) -> float:
    """The two-pass estimate that the in-stream one replaced: a second,
    lenient read of the input that takes the values of the first
    scheme-span of well-formed rows."""
    first = None
    values = []
    span = desc.scheme.span_slots
    with series_rows(input_path, desc.timestamp_column, desc.target_column) as rows:
        for _, raw_ts, value, _ in rows:
            if value is None:
                continue
            try:
                slot = align(parse_timestamp(raw_ts), desc.frequency).global_slot
            except DataError:
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
def test_in_stream_c_matches_two_pass_estimate(tmp_path_factory, rows, floor):
    """Gaps, non-finite cells and out-of-order rows inside the first
    scheme-span, and inputs that end before or after it."""
    g = Granularity(86400)
    path = tmp_path_factory.mktemp("prefix") / "in.csv"
    lines = ["timestamp,value"]
    for i, (shift, epoch_ts, cell) in enumerate(rows):
        epoch = max(0, 30 + i + shift) * 86400
        lines.append(f"{epoch if epoch_ts else format_timestamp(epoch)},{cell}")
    path.write_text("\n".join(lines) + "\n")
    flags = ["anomaly", "--input", str(path), "--interval", "86400", "--k", "1",
             "--threshold", "3"]
    desc = _resolve_descriptor(_build_parser().parse_args(flags), need_test_range=False)
    expected = reference_prefix_c(str(path), desc, floor)

    with series_rows(str(path), "timestamp", "value") as stream:
        points = _points(stream, str(path), g)
        c, held = _estimate_c(points, desc.scheme.span_slots, floor)
        rest = list(points)
    assert c == expected
    assert len(held) + len(rest) == len(rows)  # every row read exactly once

    # the whole stream replays with the estimate as --c
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main([*flags, "--c-floor", repr(floor)]) == 0
        estimated = out.getvalue()
        out.seek(0)
        out.truncate()
        assert main([*flags, "--c", repr(expected)]) == 0
    assert out.getvalue() == estimated


def test_malformed_row_in_prefix_fails_before_any_record(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,value\n0,1\n86400,2\n\n172800,oops\n259200,4\n")
    code, stdout, err = run(capsys, "anomaly", "--input", str(path),
                            "--interval", "86400", "--k", "1")
    assert code == 2
    assert f"{path}:5: bad value 'oops'" in err
    assert stdout == ""
