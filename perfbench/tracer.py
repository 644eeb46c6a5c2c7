"""Spans around the package's public entry points, kept in memory.

Each wrapper is installed at the attribute its caller looks up (a module
global such as ``qbsd.cli.load_csv``, or a method on the class), records a
span with a name, start, end and parent, and is removed again on exit. Self
time is a span's duration minus the time its child spans cover. The
per-sample ``SlidingHistory.get`` lookup is never wrapped: a span there would
cost more than the lookup it measures.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable

import numpy as np

# (span name, module, attribute path) in the order they are installed.
ENTRY_POINTS = (
    ("cli.parse", "qbsd.cli", "parse_timestamp"),
    ("cli.parse", "qbsd.cli", "align"),
    ("datasets.load_csv", "qbsd.cli", "load_csv"),
    ("datasets.rolling_evaluate", "qbsd.cli", "rolling_evaluate"),
    ("metrics.wilcoxon", "qbsd.cli", "wilcoxon_signed_rank"),
    ("cli.record_write", "qbsd.cli", "RecordWriter.write"),
    ("cli.record_write", "qbsd.cli", "RecordWriter.close"),
    ("smoothing.push", "qbsd.smoothing", "StreamingSmoother.push"),
    ("engine.observe", "qbsd.engine", "RollingForecaster.observe"),
    ("engine.forecast_at", "qbsd.engine", "RollingForecaster.forecast_at"),
    ("timegrid.resolve", "qbsd.engine", "resolve_subset_slots"),
    ("core.qbsd_step", "qbsd.engine", "qbsd_step"),
    ("core.residuals", "qbsd.engine", "compute_residuals"),
    ("engine.history_insert", "qbsd.engine", "SlidingHistory.insert"),
    ("baselines.forecast", "qbsd.datasets", "baseline_forecast"),
    ("metrics.evaluate", "qbsd.datasets", "evaluate"),
)
HISTORY_CLASS = ("qbsd.engine", "SlidingHistory")
SKIP_ERRORS = ("InsufficientHistory", "InsufficientSpan")
_MISSING = object()


class Tracer:
    """Collects spans while installed; ``summary()`` reduces them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counters = {"samples": 0, "qbsd_ok": 0, "fallback": 0, "skip": 0,
                         "slots": 0, "hook_errors": 0}
        self.histories: list = []
        self.absent: dict[str, str] = {}  # span name -> entry point not found
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Tracer":
        skip_types = tuple(
            getattr(importlib.import_module("qbsd.errors"), n, ()) for n in SKIP_ERRORS
        )
        hooks: dict[str, Callable] = {
            "core.qbsd_step": self._count_step,
            "datasets.rolling_evaluate": self._count_slots,
        }
        for span, module, path in ENTRY_POINTS:
            owner, attr = self._resolve(module, path)
            if owner is None:
                self.absent[span] = f"{module}.{path}"
                continue
            fn = getattr(owner, attr)
            skips = skip_types if span == "engine.forecast_at" else ()
            self._patch(owner, attr, self._wrap(span, fn, hooks.get(span), skips))
        owner, attr = self._resolve(*HISTORY_CLASS)
        if owner is None:
            self.absent["engine.history_slots"] = ".".join(HISTORY_CLASS)
        else:
            self._track_instances(getattr(owner, attr))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    @staticmethod
    def _resolve(module: str, path: str):
        """(object holding the attribute, attribute name), or (None, None)."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            return None, None
        return owner, attr

    def _patch(self, owner, attr: str, replacement) -> None:
        original = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrap(self, span: str, fn, hook, skips: tuple):
        nid = self._id(span)
        name, start, end, parent, stack = (self.name, self.start, self.end,
                                           self.parent, self._stack)
        counters = self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(args, result)
                    except (AttributeError, IndexError, TypeError):
                        counters["hook_errors"] += 1
                return result
            except skips:
                counters["skip"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _count_step(self, args, result) -> None:
        self.counters["samples"] += args[0].present_count
        self.counters["qbsd_ok"] += 1
        self.counters["fallback"] += result.fallback_used

    def _count_slots(self, args, result) -> None:
        self.counters["slots"] += len(result[1])

    def _track_instances(self, cls) -> None:
        original = cls.__init__
        histories = self.histories

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            histories.append(obj)

        self._patch(cls, "__init__", init)

    # ------------------------------------------------------------ reduce

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns; plus counters."""
        n = len(self.start)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        if n and (end == 0).any():
            raise RuntimeError("a span was never closed")
        dur = end - start
        covered = np.zeros(n, dtype=np.int64)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        self_ns = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_ns, minlength=k)
        spans = {
            span: {"calls": int(calls[i]), "incl_ns": float(incl[i]),
                   "self_ns": float(selfs[i])}
            for i, span in enumerate(self.names)
        }
        return {
            "spans": spans,
            "span_count": n,
            "root_ns": float(dur[~child].sum()),
            "self_ns_total": float(self_ns.sum()),
            "counters": dict(self.counters),
            "history_slots": sum(len(h) for h in self.histories),
            "absent": dict(self.absent),
        }
