"""``evaluate`` scores its methods as the test range streams.

``score_methods`` feeds each method's ``MethodScore`` an actual and a
forecast per test slot, and the score keeps only what the report needs.
Each method's report, skip count and Wilcoxon pairs must equal, by
``repr``, what the records-holding derivation gives: ``evaluate`` over the
scored records, ``skipped_count``, and the pairs of absolute errors at the
slots QBSD and the method both scored, with or without a sink per method.
And the memory a run needs above its window grows by a small fraction of
what holding a record per method per slot took.
"""

from __future__ import annotations

import contextlib
import io
import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from qbsd.baselines import MovingAverage, Persistence, SeasonalNaive
from qbsd.cli import main
from qbsd.core import QbsdConfig
from qbsd.datasets import (
    DatasetDescriptor,
    SeriesFrame,
    format_timestamp,
    rolling_evaluate,
    score_methods,
    score_reports,
    skipped_count,
)
from qbsd.errors import DataError
from qbsd.metrics import EvalPairs, evaluate
from qbsd.timegrid import DAILY, default_weekly_scheme

DAY = 86400


def failure(exc: Exception) -> tuple[type, str]:
    return type(exc), str(exc)


def from_records(frame, methods, desc):
    """Every method's ``(report, skipped)`` and QBSD's Wilcoxon pairs against
    each other method, derived from ``rolling_evaluate``'s records as
    ``cmd_evaluate`` did while it held them; or the error raised."""
    try:
        results = rolling_evaluate(frame, methods, desc)
    except DataError as exc:
        return failure(exc)
    scored = [[r for r in records if r.actual is not None and r.forecast is not None]
              for _, records in results]
    reports = [repr(evaluate(EvalPairs([r.actual for r in s], [r.forecast for r in s])))
               for s in scored]
    skipped = [skipped_count(records) for _, records in results]
    kinds = [isinstance(m, QbsdConfig) for m in methods]
    pairs = []
    if any(kinds):
        qbsd_records = results[kinds.index(True)][1]
        for kind, (_, records) in zip(kinds, results):
            if kind:
                continue
            shared = [
                (abs(q.actual - q.forecast), abs(r.actual - r.forecast))
                for q, r in zip(qbsd_records, records)
                if q.actual is not None and q.forecast is not None
                and r.forecast is not None
            ]
            pairs.append(repr(([a for a, _ in shared], [b for _, b in shared])))
    return list(zip(reports, skipped)), pairs


def from_scores(frame, methods, desc, sinks=()):
    """The same from the ``MethodScore``s of ``score_methods``, the walk
    ``cmd_evaluate`` runs, with ``sinks`` passed to it."""
    try:
        scores = score_methods(frame, methods, desc, sinks)
        reports = [repr(report) for report in score_reports(scores, methods, desc)]
    except DataError as exc:
        return failure(exc)
    kinds = [isinstance(m, QbsdConfig) for m in methods]
    pairs = [repr((list(score.qbsd_errors), list(score.own_errors)))
             for kind, score in zip(kinds, scores) if any(kinds) and not kind]
    return list(zip(reports, [score.skipped for score in scores])), pairs


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, 2),
    n=st.integers(40, 110),
    extra_window=st.integers(0, 20),
    test_from=st.integers(10, 80),
    test_len=st.integers(0, 40),
    gap_rate=st.sampled_from([0.0, 0.1, 0.3, 0.7]),
    values=st.sampled_from(["continuous", "ties", "huge"]),
    season=st.integers(1, 30),
    average=st.integers(1, 30),
    order=st.permutations(range(4)),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_scores_equal_the_records_derivation(
    k, n, extra_window, test_from, test_len, gap_rate, values, season, average, order,
    count, seed,
):
    scheme = default_weekly_scheme(4, k, DAILY)
    window = scheme.span_slots + extra_window
    test_start = min(test_from, n - 1)
    test_end = min(test_start + test_len, n + 5)  # may run past the last row
    desc = DatasetDescriptor(
        name="prop", frequency=DAILY, timestamp_column="ts", target_column="v",
        train_window_seconds=window * DAY, k_seconds=k * DAY, scheme=scheme,
        test_range=(test_start * DAY, test_end * DAY),
    )
    rng = random.Random(seed)
    kept = [s for s in range(n) if rng.random() >= gap_rate]
    draw = {
        "continuous": lambda: rng.gauss(100.0, 20.0),
        "ties": lambda: rng.choice((0.0, -0.0, 1.0, 2.0, 3.0)),
        # overflowing quartiles and errors: inf errors, NaN differences
        "huge": lambda: rng.choice((-1e308, 1e308, 1.0)),
    }[values]
    frame = SeriesFrame(DAILY, tuple(kept), tuple(draw() for _ in kept))
    pool = [QbsdConfig(scheme=scheme, c=rng.choice((1e-6, 1.0, 5.0))),
            SeasonalNaive(season), Persistence(), MovingAverage(average)]
    methods = [pool[i] for i in order[:count]]
    scores = from_scores(frame, methods, desc)
    assert scores == from_records(frame, methods, desc)
    # a run whose every method has a sink builds its records: it scores the same
    assert from_scores(frame, methods, desc, [[].append for _ in methods]) == scores


def _peak_above_start(argv: list[str]) -> int:
    """Peak traced bytes allocated during ``main(argv)``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _peaks_for_28_and_56_test_days(tmp_path) -> tuple[int, int]:
    """Peak traced bytes of a three-method ``evaluate`` over 28 and over 56
    test days of hourly data, after a 28-day training prefix."""
    series = tmp_path / "series.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--output", str(series), "--days", "140",
                     "--slots-per-day", "24", "--noise-std", "5", "--seed", "3"]) == 0
    start = 28 * DAY

    def argv(days: int) -> list[str]:
        return ["evaluate", "--interval", "3600", "--k", "1", "--input", str(series),
                "--method", "qbsd,seasonal-naive,persistence", "--format", "json",
                "--test-start", format_timestamp(start),
                "--test-end", format_timestamp(start + days * DAY - 3600)]

    _peak_above_start(argv(7))  # fills the module caches
    return _peak_above_start(argv(28)), _peak_above_start(argv(56))


# When evaluate held a StepRecord per method per slot, plus the scored and
# paired lists built from them, this test's peak grew by about 707 bytes per
# added test slot (three methods, CPython 3.11); the bound is half of that.
GROWTH_BOUND_PER_SLOT = 350


def test_evaluate_memory_grows_by_a_fraction_of_held_records(tmp_path):
    short, long = _peaks_for_28_and_56_test_days(tmp_path)
    added_slots = 28 * 24
    assert long - short < GROWTH_BOUND_PER_SLOT * added_slots, (short, long)


# With the scored actuals and forecasts in lists of floats, and the Wilcoxon
# pairs in lists too, the peak grew by about 279 bytes per added test slot
# (CPython 3.11); with every per-slot column typed it grows by about 150.
TYPED_GROWTH_BOUND_PER_SLOT = 200


def test_evaluate_memory_per_test_slot_stays_in_typed_columns(tmp_path):
    short, long = _peaks_for_28_and_56_test_days(tmp_path)
    added_slots = 28 * 24
    assert long - short < TYPED_GROWTH_BOUND_PER_SLOT * added_slots, (short, long)


# When load_csv kept every row as a (slot, value) tuple in a list, sorted it
# and copied it into two tuples, this test's peak grew by about 138 bytes per
# added input row (CPython 3.11); the bound is half of that. With typed
# columns it grows by about 57: the columns' 16 bytes a row, and the sorted
# copy of the training values that estimates c.
GROWTH_BOUND_PER_ROW = 70


def test_evaluate_memory_per_input_row_is_a_fraction_of_row_tuples(tmp_path):
    test_days, prefix = 7, 112
    end = 2 * prefix + test_days
    inputs = {}
    for days in (prefix, 2 * prefix):
        inputs[days] = tmp_path / f"prefix{days}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--output", str(inputs[days]),
                         "--days", str(days + test_days), "--slots-per-day", "24",
                         "--noise-std", "5", "--seed", "3",
                         "--start", str((end - days - test_days) * DAY)]) == 0

    def argv(days: int) -> list[str]:
        return ["evaluate", "--interval", "3600", "--k", "1", "--input", str(inputs[days]),
                "--method", "qbsd,seasonal-naive,persistence", "--format", "json",
                "--test-start", format_timestamp((end - test_days) * DAY),
                "--test-end", format_timestamp(end * DAY - 3600)]

    for days in inputs:  # fills the module caches for every day of both inputs
        _peak_above_start(argv(days))
    short, long = _peak_above_start(argv(prefix)), _peak_above_start(argv(2 * prefix))
    added_rows = prefix * 24
    assert long - short < GROWTH_BOUND_PER_ROW * added_rows, (short, long)
