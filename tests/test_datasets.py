
import os
import random
from itertools import islice

import pytest

from qbsd.baselines import SeasonalNaive
from qbsd.core import QbsdConfig, contingency_constant
from qbsd.datasets import (
    DatasetDescriptor,
    SeriesFrame,
    SynthSpec,
    builtin_descriptors,
    estimate_contingency,
    generate_synthetic,
    get_descriptor,
    load_csv,
    parse_timestamp,
    replay,
    rolling_evaluate,
    skipped_count,
)
from qbsd.engine import RollingForecaster
from qbsd.errors import (
    ConfigError,
    DuplicateTimestamp,
    GridMisaligned,
    InsufficientHistory,
    InsufficientSpan,
    ParseError,
    StaleSlot,
)
from qbsd.timegrid import (
    DAILY,
    HOURLY,
    QUARTER_HOURLY,
    SeasonalityScheme,
    default_weekly_scheme,
)


class TestParseTimestamp:
    def test_epoch_passthrough(self):
        assert parse_timestamp("900") == 900

    def test_rfc3339(self):
        assert parse_timestamp("1970-01-01T00:15:00") == 900
        assert parse_timestamp("1970-01-02") == 86400
        assert parse_timestamp("1970-01-01 00:15:00") == 900
        assert parse_timestamp("1970-01-01T00:15:00Z") == 900
        assert parse_timestamp("1970-01-01T01:15:00+01:00") == 900

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_timestamp("not-a-time")
        with pytest.raises(GridMisaligned):
            parse_timestamp("1970-01-01T00:00:00.250")


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("ts,v\n2023-04-01T00:00:00,1\n2023-04-01T00:15:00,2\n")
        frame = load_csv(str(path), "ts", "v", QUARTER_HOURLY)
        assert len(frame) == 2
        assert frame.slots[1] == frame.slots[0] + 1
        assert tuple(frame.values) == (1.0, 2.0)

    def test_gap_is_fine(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("ts,v\n0,1\n1800,3\n")
        frame = load_csv(str(path), "ts", "v", QUARTER_HOURLY)
        assert tuple(frame.slots) == (0, 2)

    def test_empty_value_is_gap(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("ts,v\n0,1\n900,\n1800,3\n")
        frame = load_csv(str(path), "ts", "v", QUARTER_HOURLY)
        assert tuple(frame.slots) == (0, 2)

    def test_misaligned_rejected(self, tmp_path):
        path = tmp_path / "mis.csv"
        path.write_text("ts,v\n2023-04-01T00:07:00,1\n")
        with pytest.raises(GridMisaligned) as exc:
            load_csv(str(path), "ts", "v", QUARTER_HOURLY)
        assert "mis.csv:2" in str(exc.value)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("ts,v\n900,1\n900,2\n")
        with pytest.raises(DuplicateTimestamp):
            load_csv(str(path), "ts", "v", QUARTER_HOURLY)

    def test_duplicate_names_its_lines(self, tmp_path):
        # a blank line, a gap at the slot and a quoted cell: physical lines count
        path = tmp_path / "dup.csv"
        path.write_text('ts,v\n0,1\n\n900,\n"900",2\n1800,3\n900,4\n0,5\n')
        with pytest.raises(DuplicateTimestamp) as exc:
            load_csv(str(path), "ts", "v", QUARTER_HOURLY)
        assert str(exc.value) == (
            f"{path}:8: slot 0 (1970-01-01T00:00:00) appears more than once "
            "(first at line 2)"
        )

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("text, line, first", [
        (b"ts,v\n0,1\n900,2\n900,3\n", ":4", " (first at line 3)"),
        # unsorted: the line numbers are sorted with the slots, so the one read names both
        (b"ts,v\n900,1\n0,2\n900,3\n", ":4", " (first at line 2)"),
    ], ids=["in-order", "unsorted"])
    def test_duplicate_in_a_pipe_names_its_lines(self, text, line, first):
        read, write = os.pipe()
        os.write(write, text)
        os.close(write)
        try:
            with pytest.raises(DuplicateTimestamp) as exc:
                load_csv(f"/dev/fd/{read}", "ts", "v", QUARTER_HOURLY)
        finally:
            os.close(read)
        assert str(exc.value) == (
            f"/dev/fd/{read}{line}: slot 1 (1970-01-01T00:15:00) appears more than once"
            f"{first}"
        )

    def test_unsorted_input_is_sorted(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text("ts,v\n1800,3\n0,1\n")
        frame = load_csv(str(path), "ts", "v", QUARTER_HOURLY)
        assert tuple(frame.slots) == (0, 2)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError) as exc:
            load_csv(str(path), "ts", "b", QUARTER_HOURLY)
        assert "'ts'" in str(exc.value)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,v\n0,abc\n")
        with pytest.raises(ParseError) as exc:
            load_csv(str(path), "ts", "v", QUARTER_HOURLY)
        assert "bad.csv:2" in str(exc.value)


class TestReplay:
    """``replay`` takes ``(line, slot, value)`` rows and rejects a repeated
    slot naming the row's ``path:line``, after yielding every record before it."""

    def forecaster(self):
        return RollingForecaster(QbsdConfig(scheme=default_weekly_scheme(4, 1, HOURLY)), HOURLY)

    def test_repeated_value_names_its_line(self):
        records = replay(self.forecaster(), [(2, 0, 1.0), (3, 1, None), (5, 0, 2.0)], "in.csv")
        assert [r.global_slot for r in islice(records, 2)] == [0, 1]
        with pytest.raises(DuplicateTimestamp) as exc:
            next(records)
        assert str(exc.value) == "in.csv:5: slot 0 (1970-01-01T00:00:00) appears more than once"

    def test_gap_the_window_has_passed_is_stale(self):
        forecaster = self.forecaster()
        oldest = 5000 - forecaster.history.capacity + 1
        with pytest.raises(StaleSlot) as exc:
            list(replay(forecaster, [(2, 0, 1.0), (3, 5000, 2.0), (4, 0, None)], "in.csv"))
        assert str(exc.value) == (f"in.csv:4: 1970-01-01T00:00:00: slot 0 is older than "
                                  f"the retained window (oldest kept: {oldest})")


class TestSynthetic:
    def test_noiseless_is_weekly_periodic(self):
        frame = generate_synthetic(SynthSpec(days=21, slots_per_day=24, noise_std=0.0))
        week = 7 * 24
        for slot in range(week, len(frame)):
            assert frame.values[slot] == frame.values[slot - week]

    def test_deterministic_per_seed(self):
        spec = SynthSpec(days=14, slots_per_day=96, noise_std=5.0, seed=7)
        assert generate_synthetic(spec) == generate_synthetic(spec)
        other = SynthSpec(days=14, slots_per_day=96, noise_std=5.0, seed=8)
        assert generate_synthetic(other) != generate_synthetic(spec)

    def test_injection_is_isolated(self):
        clean = generate_synthetic(SynthSpec(days=7, slots_per_day=24))
        spiked = generate_synthetic(
            SynthSpec(days=7, slots_per_day=24, anomalies=((50, 123.0),))
        )
        for slot in range(len(clean)):
            expected = clean.values[slot] + (123.0 if slot == 50 else 0.0)
            assert spiked.values[slot] == expected

    def test_weekend_scaling(self):
        frame = generate_synthetic(SynthSpec(days=7, slots_per_day=24))
        midday = 12
        weekday = frame.values[0 * 24 + midday]
        weekend = frame.values[5 * 24 + midday]
        assert weekend == pytest.approx(weekday * 0.6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthSpec(slots_per_day=7)
        with pytest.raises(ConfigError):
            SynthSpec(days=0)

    @pytest.mark.parametrize("field,value", [
        ("base", float("nan")), ("amplitude", float("inf")),
        ("weekday_scale", float("nan")), ("weekend_scale", float("-inf")),
        ("anomalies", ((1, float("inf")),)),
    ], ids=["base", "amplitude", "weekday_scale", "weekend_scale", "anomalies"])
    def test_non_finite_input_is_config_error(self, field, value):
        """A non-finite parameter would put nan or inf cells in the series."""
        with pytest.raises(ConfigError, match="must be finite"):
            SynthSpec(days=1, slots_per_day=3, **{field: value})


class TestDescriptors:
    def test_builtin_catalog(self):
        names = [d.name for d in builtin_descriptors()]
        assert "births2015" in names
        assert "synthetic" in names
        for kpi in "abcdef":
            assert f"eon1_cell_f_{kpi}" in names

    def test_eon_parameters(self):
        d = get_descriptor("EON1-Cell-F E")
        assert d.frequency.interval_seconds == 900
        assert d.k_slots == 4  # one hour of 15-minute slots
        assert d.scheme.subset_size == 6 * 4 + 3
        assert len(d.scheme.lag_slots) == 4

    def test_births_parameters(self):
        d = get_descriptor("births2015")
        assert d.k_slots == 1
        assert len(d.scheme.lag_slots) == 6  # current week plus the previous five
        assert d.train_window_slots == 42

    def test_yearly_parameters(self):
        d = get_descriptor("electricity_demand")
        assert d.scheme.lag_slots == (0, 7, 364)
        assert d.k_slots == 2
        assert d.train_window_slots == 364

    @pytest.mark.parametrize("d", builtin_descriptors(), ids=lambda d: d.name)
    def test_scheme_is_its_lags_at_its_own_k(self, d):
        """The CLI rebuilds a builtin's scheme from its lags at the run's k,
        so at the builtin's own k it must be the builtin's scheme."""
        assert SeasonalityScheme(d.scheme.lag_slots, d.k_slots) == d.scheme

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            get_descriptor("nope")

    def test_descriptor_validation(self):
        with pytest.raises(ConfigError):
            DatasetDescriptor(
                name="bad",
                frequency=DAILY,
                timestamp_column="ts",
                target_column="v",
                train_window_seconds=7 * 86400,  # below the scheme span
                k_seconds=86400,
                scheme=default_weekly_scheme(4, 1, DAILY),
                test_range=(0, 86400),
            )

    @pytest.mark.parametrize("k_seconds", [2 * 3600, 3 * 3600 + 1800, 0, "omitted"])
    def test_k_seconds_is_the_schemes_k(self, k_seconds):
        """k lives in the scheme: an omitted k_seconds is the scheme's k, and
        any other k_seconds, whole slots or not, is rejected rather than
        reported beside a different scheme.k."""
        fields = dict(
            name="bad", frequency=HOURLY, timestamp_column="ts", target_column="v",
            train_window_seconds=28 * 86400,
            scheme=default_weekly_scheme(4, 4, HOURLY), test_range=(0, 3600),
        )
        if k_seconds == "omitted":
            assert DatasetDescriptor(**fields) == DatasetDescriptor(**fields, k_seconds=14400)
            return
        with pytest.raises(ConfigError, match=r"not the scheme's k of 4 slots \(14400 s\)"):
            DatasetDescriptor(**fields, k_seconds=k_seconds)

    def test_window_of_part_of_a_slot_is_config_error(self):
        base = get_descriptor("synthetic")
        with pytest.raises(ConfigError,
                           match=r"^synthetic: training window is not a whole number of slots$"):
            synthetic_descriptor(train_window_seconds=base.train_window_seconds + 450)

    def test_off_grid_test_range_is_config_error(self):
        start, end = get_descriptor("synthetic").test_range
        with pytest.raises(ConfigError, match="test range is off the grid"):
            synthetic_descriptor(test_range=(start + 5, end))
        with pytest.raises(ConfigError, match="test range is off the grid"):
            synthetic_descriptor(test_range=(start, end + 5))


def synthetic_descriptor(**overrides):
    base = get_descriptor("synthetic")
    fields = dict(
        name=base.name,
        frequency=base.frequency,
        timestamp_column=base.timestamp_column,
        target_column=base.target_column,
        train_window_seconds=base.train_window_seconds,
        k_seconds=base.k_seconds,
        scheme=base.scheme,
        test_range=base.test_range,
    )
    fields.update(overrides)
    return DatasetDescriptor(**fields)


def k4_descriptor():
    return synthetic_descriptor(
        k_seconds=4 * 900, scheme=default_weekly_scheme(4, 4, QUARTER_HOURLY)
    )


@pytest.mark.parametrize("slots,values,message", [
    ((0, 1, 2), (1.0, 2.0), "slots and values must have the same length"),
    ((0, 2, 2), (1.0, 2.0, 3.0), "slots must be strictly increasing"),
    ((0, 3, 1), (1.0, 2.0, 3.0), "slots must be strictly increasing"),
], ids=["lengths", "repeated", "descending"])
def test_series_frame_rejects_bad_columns(slots, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SeriesFrame(HOURLY, slots, values)


class TestRollingEvaluate:
    def test_noiseless_periodic_qbsd_k0(self):
        desc = get_descriptor("synthetic")
        frame = generate_synthetic(SynthSpec())
        [(report, records)] = rolling_evaluate(frame, [desc.qbsd_config()], desc)
        assert report.mape <= 1e-9
        assert skipped_count(records) == 0
        assert all(r.iqr == 0.0 for r in records)

    def test_noiseless_periodic_seasonal_naive(self):
        desc = get_descriptor("synthetic")
        frame = generate_synthetic(SynthSpec())
        [(report, records)] = rolling_evaluate(
            frame, [SeasonalNaive(frame.granularity.slots_per_week)], desc
        )
        assert report.mape <= 1e-9
        assert skipped_count(records) == 0

    def test_stream_batch_equivalence(self):
        desc = k4_descriptor()
        frame = generate_synthetic(SynthSpec(noise_std=20.0, seed=3))
        cfg = desc.qbsd_config()
        [(_, records)] = rolling_evaluate(frame, [cfg], desc)

        streamed = RollingForecaster(
            cfg, frame.granularity, capacity_slots=desc.train_window_slots
        )
        by_slot = {}
        for slot, value in zip(frame.slots, frame.values):
            try:
                residuals, fo = streamed.observe(slot, value)
                by_slot[slot] = (residuals, fo)
            except (InsufficientHistory, InsufficientSpan):
                pass
        test_start, test_end = desc.test_slot_range
        for record in records:
            slot = record.slot.global_slot
            assert test_start <= slot <= test_end
            residuals, fo = by_slot[slot]
            assert record.forecast == fo.forecast
            assert record.q1 == fo.q1 and record.q3 == fo.q3
            assert record.diff_residual == residuals.difference
            assert record.norm_residual == residuals.normalized

    def test_missing_data_is_skipped_and_counted(self):
        desc = k4_descriptor()
        full = generate_synthetic(SynthSpec(noise_std=1.0, seed=1))
        test_start, _ = desc.test_slot_range
        # drop the three weeks feeding one particular test slot's subset
        target = test_start + 10
        removed = {target + off for group in desc.scheme.groups for off in group}
        kept = [
            (s, v) for s, v in zip(full.slots, full.values) if s not in removed
        ]
        frame = SeriesFrame(
            granularity=full.granularity,
            slots=tuple(s for s, _ in kept),
            values=tuple(v for _, v in kept),
        )
        [(report, records)] = rolling_evaluate(frame, [desc.qbsd_config()], desc)
        assert skipped_count(records) >= 1
        skipped = [r for r in records if r.forecast is None]
        assert any(r.slot.global_slot == target for r in skipped)
        assert report.mape < 100.0

    def test_warmup_never_satisfied(self):
        desc = get_descriptor("synthetic")
        test_start, _ = desc.test_slot_range
        # three isolated points can never reach min_samples anywhere
        sparse = SeriesFrame(
            granularity=desc.frequency,
            slots=(test_start + 5, test_start + 600, test_start + 1200),
            values=(1.0, 2.0, 3.0),
        )
        with pytest.raises(InsufficientHistory):
            rolling_evaluate(sparse, [desc.qbsd_config()], desc)

    def test_granularity_mismatch(self):
        desc = get_descriptor("synthetic")
        frame = generate_synthetic(SynthSpec(days=56, slots_per_day=24))
        with pytest.raises(ConfigError):
            rolling_evaluate(frame, [desc.qbsd_config()], desc)


def test_weekly_plus_yearly_end_to_end():
    import math

    g = DAILY
    # two+ years of daily data: gently varying weekday profile with a yearly
    # swell whose period matches the 364-day lag
    values = []
    for day in range(840):
        weekly = (10.0, 10.6, 11.0, 11.2, 10.8, 9.2, 8.8)[day % 7]
        yearly = 1.0 + 0.3 * math.sin(2 * math.pi * day / 364)
        values.append(100.0 * weekly * yearly)
    frame = SeriesFrame(granularity=g, slots=tuple(range(840)), values=tuple(values))
    from qbsd.timegrid import weekly_plus_yearly_scheme

    desc = DatasetDescriptor(
        name="custom",
        frequency=g,
        timestamp_column="ts",
        target_column="v",
        train_window_seconds=364 * 86400,
        k_seconds=1 * 86400,
        scheme=weekly_plus_yearly_scheme(1, g),
        test_range=(500 * 86400, 839 * 86400),
    )
    [(report, records)] = rolling_evaluate(frame, [desc.qbsd_config()], desc)
    assert skipped_count(records) == 0
    assert report.mape < 3.0
    assert report.r2 > 0.98


def test_estimate_contingency():
    frame = SeriesFrame(
        granularity=DAILY,
        slots=tuple(range(101)),
        values=tuple(float(v) for v in range(101)),
    )
    assert estimate_contingency(frame, before_slot=101, floor=1e-6) == 1.0
    assert estimate_contingency(frame, before_slot=0, floor=0.5) == 0.5


def test_estimate_contingency_reads_the_prefix_before_the_slot():
    rng = random.Random(5)
    slots = tuple(sorted(rng.sample(range(500), 200)))
    values = tuple(rng.uniform(-50.0, 50.0) for _ in slots)
    frame = SeriesFrame(granularity=DAILY, slots=slots, values=values)
    for before in (0, slots[0], slots[0] + 1, slots[57], slots[57] + 1, 499, 10**6):
        training = [v for s, v in zip(slots, values) if s < before]
        expected = contingency_constant(training, 1e-6) if training else 1e-6
        assert estimate_contingency(frame, before, 1e-6) == expected
