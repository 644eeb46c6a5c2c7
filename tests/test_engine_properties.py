"""Property tests for the ring-buffer history and the scalar forecast path.

``SlidingHistory`` is checked step by step against a dict that applies the
eviction rule directly. ``RollingForecaster.forecast_at`` is checked against
the public reference path: ``resolve_subset_slots`` expanded to a
``ContextualSubset`` over the retained window, then ``qbsd_step``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsd.core import ContextualSubset, QbsdConfig, qbsd_step
from qbsd.engine import RollingForecaster, SlidingHistory
from qbsd.errors import InsufficientHistory, InsufficientSpan, StaleSlot
from qbsd.timegrid import (
    DAILY,
    Granularity,
    SlotCoord,
    default_weekly_scheme,
    resolve_subset_slots,
    weekly_plus_yearly_scheme,
)


class DictHistory:
    """Oracle: keep every slot in a dict and drop those that fall out of
    ``(latest - capacity, latest]`` whenever ``latest`` advances."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.values: dict[int, float] = {}
        self.latest: int | None = None

    def insert(self, slot: int, value: float) -> None:
        if self.latest is not None and slot <= self.latest - self.capacity:
            raise StaleSlot(f"slot {slot}")
        self.values[slot] = value
        if self.latest is None or slot > self.latest:
            self.latest = slot
            self.values = {s: v for s, v in self.values.items() if s > slot - self.capacity}


def _state(h: SlidingHistory, slots: range):
    return h.latest, len(h), [(h.get(s), s in h) for s in slots]


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 12),
    start=st.integers(-20, 20),
    steps=st.lists(
        st.tuples(
            st.one_of(
                st.integers(-3, 3),  # overwrites, small steps, out of order
                st.integers(-40, 40),  # stale inserts and jumps beyond capacity
            ),
            st.floats(-1e6, 1e6),
        ),
        max_size=60,
    ),
)
def test_ring_matches_dict_oracle(capacity, start, steps):
    ring, oracle = SlidingHistory(capacity), DictHistory(capacity)
    for delta, value in steps:
        slot = (oracle.latest if oracle.latest is not None else start) + delta
        probe = range(slot - 3 * capacity - 45, slot + 45)
        if oracle.latest is not None and slot <= oracle.latest - capacity:
            before = _state(ring, probe)
            with pytest.raises(StaleSlot):
                ring.insert(slot, value)
            with pytest.raises(StaleSlot):
                oracle.insert(slot, value)
            assert _state(ring, probe) == before
            continue
        ring.insert(slot, value)
        oracle.insert(slot, value)
        assert ring.latest == oracle.latest
        assert len(ring) == len(oracle.values)
        for s in probe:
            assert ring.get(s) == oracle.values.get(s)
            assert (s in ring) == (s in oracle.values)
        assert ring.gather(0, probe) == [oracle.values[s] for s in probe if s in oracle.values]


def test_len_counts_only_written_cells():
    h = SlidingHistory(10)
    assert len(h) == 0
    h.insert(2, 1.0)
    h.insert(5, 1.0)
    assert len(h) == 2  # latest < capacity: the eight unwritten cells don't count
    h.insert(40, 1.0)
    assert len(h) == 1


def _reference(values: dict[int, float], latest: int | None, capacity: int,
               t: SlotCoord, cfg: QbsdConfig):
    """The forecast from the public reference path over the retained window."""
    oldest = -1 if latest is None else latest - capacity
    samples = []
    for coord in resolve_subset_slots(t, cfg.scheme):
        value = values.get(coord.global_slot)
        if value is not None and coord.global_slot > oldest:
            samples.append((coord, value))
    return qbsd_step(ContextualSubset(tuple(samples), cfg.scheme.subset_size), cfg)


def _outcome(fn):
    try:
        return fn()
    except (InsufficientHistory, InsufficientSpan) as exc:
        return type(exc)


SIX_HOURLY = Granularity(21600)  # a 28-slot week keeps weekly4 series short


@settings(max_examples=60, deadline=None)
@given(
    yearly=st.booleans(),
    k=st.integers(0, 3),
    extra_capacity=st.integers(0, 60),
    min_samples=st.integers(3, 6),
    gap_rate=st.sampled_from([0.0, 0.05, 0.3, 0.7]),
    ties=st.booleans(),
    prefill=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_forecast_at_matches_reference_path(
    yearly, k, extra_capacity, min_samples, gap_rate, ties, prefill, seed
):
    if yearly:
        g, scheme = DAILY, weekly_plus_yearly_scheme(k, DAILY)
    else:
        g, scheme = SIX_HOURLY, default_weekly_scheme(4, k, SIX_HOURLY)
    cfg = QbsdConfig(scheme=scheme, c=1.0, min_samples=min_samples)
    capacity = scheme.span_slots + extra_capacity
    forecaster = RollingForecaster(cfg, g, capacity_slots=capacity)
    rng = random.Random(seed)
    n = scheme.span_slots + 40
    series = {
        s: float(rng.randint(0, 3)) if ties else rng.gauss(100.0, 20.0)
        for s in range(n)
        if rng.random() >= gap_rate
    }
    seen: dict[int, float] = {}
    latest = None
    prefill = min(prefill, n)
    forecaster.ingest_history(
        (SlotCoord(s, g), v) for s, v in series.items() if s < prefill
    )
    for s, v in series.items():
        if s < prefill:
            seen[s] = v
            latest = s
    for s in range(prefill, n):
        t = SlotCoord(s, g)
        expected = _outcome(lambda: _reference(seen, latest, capacity, t, cfg))
        if s in series:
            got = _outcome(lambda: forecaster.observe(t, series[s]))
            if not isinstance(got, type):
                got = got[1]
            seen[s] = series[s]
            latest = s
        else:
            got = _outcome(lambda: forecaster.forecast_at(t))
        assert got == expected, f"slot {s}"
        # a target in the past may reach below the retained window
        back = SlotCoord(max(0, s - rng.randint(1, capacity + scheme.span_slots)), g)
        assert _outcome(lambda: forecaster.forecast_at(back)) == _outcome(
            lambda: _reference(seen, latest, capacity, back, cfg)
        ), f"slot {back.global_slot} after {s}"
