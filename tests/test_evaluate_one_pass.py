"""``rolling_evaluate`` walks the test range once for every method.

Each method's ``(report, records)`` from one call over several methods must
equal its own one-method call, compared by ``repr`` so a flipped zero sign or
a NaN shows. A one-method call must in turn equal that method run by hand on
a ring of its own: QBSD through ``replay`` over a forecaster prefilled by
hand, a baseline forecasting each slot before its actual is inserted. The methods share one history ring, which takes one insert
per present row however many methods are listed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsd.baselines import MovingAverage, Persistence, SeasonalNaive, baseline_forecast
from qbsd.core import QbsdConfig
from qbsd.datasets import (
    DatasetDescriptor,
    SeriesFrame,
    StepRecord,
    SynthSpec,
    generate_synthetic,
    get_descriptor,
    replay,
    rolling_evaluate,
)
from qbsd.engine import RollingForecaster, SlidingHistory
from qbsd.errors import ConfigError, DataError, InsufficientHistory
from qbsd.metrics import EvalPairs, evaluate
from qbsd.timegrid import DAILY, default_weekly_scheme

DAY = 86400


def outcome(frame, methods, desc):
    """Every method's report and records as their reprs, or the type of the
    error the call raised."""
    try:
        results = rolling_evaluate(frame, methods, desc)
    except DataError as exc:
        return type(exc)
    return [(repr(report), repr(records)) for report, records in results]


def by_hand(frame, method, desc):
    """One method's outcome from a ring of its own, prefilled by hand: QBSD
    through ``replay``, a baseline by forecasting each slot before inserting
    its actual."""
    window = desc.train_window_slots
    test_start, test_end = desc.test_slot_range
    prefill = [(s, v) for s, v in zip(frame.slots, frame.values) if s < test_start]
    actuals = dict(zip(frame.slots, frame.values))
    points = [(s, actuals.get(s)) for s in range(test_start, test_end + 1)]
    if isinstance(method, QbsdConfig):
        forecaster = RollingForecaster(method, DAILY, capacity_slots=window)
        forecaster.ingest_history(prefill)
        rows = [(n, s, v) for n, (s, v) in enumerate(points, 1)]
        records = list(replay(forecaster, rows, "points"))
    else:
        history = SlidingHistory(window)
        for slot, value in prefill:
            history.insert(slot, value)
        records = []
        for slot, actual in points:
            try:
                forecast = baseline_forecast(history, slot, method)
            except InsufficientHistory:
                records.append(StepRecord(slot, DAILY, actual))
            else:
                diff = None if actual is None else actual - forecast
                records.append(StepRecord(slot, DAILY, actual, forecast, diff_residual=diff))
            if actual is not None:
                history.insert(slot, actual)
    scored = [r for r in records if r.actual is not None and r.forecast is not None]
    if not scored:
        return InsufficientHistory
    try:
        report = evaluate(EvalPairs([r.actual for r in scored], [r.forecast for r in scored]))
    except DataError as exc:
        return type(exc)
    return repr(report), repr(records)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, 2),
    n=st.integers(40, 110),
    extra_window=st.integers(0, 20),
    test_from=st.integers(10, 80),
    test_len=st.integers(0, 40),
    gap_rate=st.sampled_from([0.0, 0.1, 0.3, 0.7]),
    ties=st.booleans(),
    season=st.integers(1, 30),
    average=st.integers(1, 30),
    at_window=st.booleans(),
    order=st.permutations(range(4)),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_equals_each_method_alone(
    k, n, extra_window, test_from, test_len, gap_rate, ties, season, average, at_window,
    order, count, seed,
):
    scheme = default_weekly_scheme(4, k, DAILY)
    window = scheme.span_slots + extra_window
    if at_window:
        # a slot's own insert would evict the oldest slot of the window
        season = average = window
    test_start = min(test_from, n - 1)
    test_end = min(test_start + test_len, n + 5)  # may run past the last row
    desc = DatasetDescriptor(
        name="prop", frequency=DAILY, timestamp_column="ts", target_column="v",
        train_window_seconds=window * DAY, k_seconds=k * DAY, scheme=scheme,
        test_range=(test_start * DAY, test_end * DAY),
    )
    rng = random.Random(seed)
    kept = [s for s in range(n) if rng.random() >= gap_rate]
    values = [rng.choice((0.0, -0.0, 1.0, 2.0, 3.0)) if ties else rng.gauss(100.0, 20.0)
              for _ in kept]
    frame = SeriesFrame(DAILY, tuple(kept), tuple(values))
    cfg = QbsdConfig(scheme=scheme, c=rng.choice((1e-6, 1.0, 5.0)))
    pool = [cfg, SeasonalNaive(season), Persistence(), MovingAverage(average)]
    methods = [pool[i] for i in order[:count]]

    alone = [outcome(frame, [method], desc) for method in methods]
    for method, one in zip(methods, alone):
        expected = by_hand(frame, method, desc)
        assert one == (expected if isinstance(expected, type) else [expected]), method
    together = outcome(frame, methods, desc)
    failed = next((one for one in alone if isinstance(one, type)), None)
    if failed is not None:
        # the first method listed that fails alone fails the call
        assert together is failed
    else:
        assert together == [one[0] for one in alone]


def gapped_synthetic():
    frame = generate_synthetic(SynthSpec(noise_std=5.0, seed=4))
    rng = random.Random(16)
    kept = [(s, v) for s, v in zip(frame.slots, frame.values) if rng.random() >= 0.05]
    return SeriesFrame(frame.granularity, tuple(s for s, _ in kept), tuple(v for _, v in kept))


ALL_METHODS = [SeasonalNaive(672), Persistence(), MovingAverage(96)]


@pytest.mark.parametrize("with_qbsd", [True, False], ids=["qbsd", "baselines-only"])
def test_one_insert_per_present_row(monkeypatch, with_qbsd):
    desc = get_descriptor("synthetic")
    frame = gapped_synthetic()
    inserts = []
    insert = SlidingHistory.insert

    def counted(self, slot, value):
        inserts.append(slot)
        insert(self, slot, value)

    monkeypatch.setattr(SlidingHistory, "insert", counted)
    methods = ([desc.qbsd_config()] if with_qbsd else []) + ALL_METHODS
    results = rolling_evaluate(frame, methods, desc)
    assert len(results) == len(methods)
    _, test_end = desc.test_slot_range
    present = [s for s in frame.slots if s <= test_end]
    assert sorted(inserts) == present  # one per row, not one per method and row


def sparse_frame():
    """Three isolated rows in the test range: no method ever forecasts a
    slot whose actual is present."""
    desc = get_descriptor("synthetic")
    test_start, _ = desc.test_slot_range
    slots = (test_start + 5, test_start + 600, test_start + 1200)
    return desc, SeriesFrame(desc.frequency, slots, (1.0, 2.0, 3.0))


TODAY = ("synthetic: no test slot could be both forecast and scored; "
         "the training window never warmed up")


@pytest.mark.parametrize("method", [None, Persistence()], ids=["qbsd", "persistence"])
def test_never_warmed_up_keeps_its_message(method):
    desc, frame = sparse_frame()
    with pytest.raises(InsufficientHistory) as exc:
        rolling_evaluate(frame, [method or desc.qbsd_config()], desc)
    assert str(exc.value) == TODAY


def test_first_listed_failure_is_named():
    desc, frame = sparse_frame()
    with pytest.raises(InsufficientHistory) as exc:
        rolling_evaluate(frame, [Persistence(), desc.qbsd_config()], desc)
    assert str(exc.value) == TODAY + " for Persistence()"
    with pytest.raises(InsufficientHistory) as exc:
        rolling_evaluate(frame, [desc.qbsd_config(), MovingAverage(1)], desc)
    assert str(exc.value) == TODAY + " for qbsd"


def test_two_qbsd_configs_rejected():
    desc = get_descriptor("synthetic")
    frame = generate_synthetic(SynthSpec())
    with pytest.raises(ConfigError, match="at most one"):
        rolling_evaluate(frame, [desc.qbsd_config(), desc.qbsd_config(c=2.0)], desc)
