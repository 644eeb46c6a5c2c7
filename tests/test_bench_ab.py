"""``tools/bench_ab.py`` with a stub in place of the function that runs one
side, so no benchmark runs and no subprocess starts: the order of the runs,
the stop on a failed run and the schema of the last output line."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
BENCHMARK = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def bench_ab(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def export(rev):
        tree = tmp_path / rev
        tree.mkdir()
        return tree

    monkeypatch.setattr(module, "export", export)
    return module


def stub_runs(bench_ab, monkeypatch, result):
    """Stub ``run_side``: each call is recorded as ``(side, seed)`` and
    returns ``result(side, seed)`` as the last line of a zero exit."""
    calls = []

    def run_side(tree, workload, seed, seconds):
        assert (workload, seconds) == ("yearly_evaluate", BENCHMARK["run_seconds"])
        calls.append((tree.name, seed))
        return 0, "note: a line above the result\n" + json.dumps(result(tree.name, seed)) + "\n"

    monkeypatch.setattr(bench_ab, "run_side", run_side)
    return calls


def passing(side, seed):
    metrics = {name: {"value": 100.0 + seed + (side == "b"), "unit": "u"}
               for name in ("rows_per_s", "tick_p50_ms", "peak_rss_mb")}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


ARGV = ["--a", "a", "--b", "b", "--workload", "yearly_evaluate", "--pairs", "4"]


def test_sides_alternate_and_the_last_line_is_the_summary(bench_ab, monkeypatch, capsys):
    calls = stub_runs(bench_ab, monkeypatch, passing)
    assert bench_ab.main(ARGV) == 0
    assert calls == [("a", 1), ("b", 1), ("b", 2), ("a", 2),
                     ("a", 3), ("b", 3), ("b", 4), ("a", 4)]
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert {key: summary[key] for key in ("workload", "a", "b", "pairs")} == {
        "workload": "yearly_evaluate", "a": "a", "b": "b", "pairs": 4}
    assert list(summary["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for row in summary["metrics"].values():
        assert set(row) == {"a_median", "a_iqr", "b_median", "b_iqr", "b_wins", "verdict"}
        assert row["verdict"] in ("better", "worse", "within noise")


@pytest.mark.parametrize("fault", ["exit", "correct", "failed"])
def test_a_failed_run_stops_the_tool_naming_its_side_and_pair(bench_ab, monkeypatch,
                                                              capsys, fault):
    def result(side, seed):
        out = passing(side, seed)
        if (side, seed) == ("b", 2):
            out.update(correct=fault != "correct", failed=int(fault == "failed"))
        return out

    calls = stub_runs(bench_ab, monkeypatch, result)
    if fault == "exit":
        run = bench_ab.run_side
        monkeypatch.setattr(bench_ab, "run_side", lambda tree, *rest: (
            (3, "") if (tree.name, rest[1]) == ("b", 2) else run(tree, *rest)))
    assert bench_ab.main(ARGV) == 1
    assert calls[-1] == (("b", 1) if fault == "exit" else ("b", 2))
    message = {"exit": "exit 3", "correct": "correct is False", "failed": "failed is 1"}
    assert capsys.readouterr().err == f"error: side B, pair 2: {message[fault]}\n"


def test_verdicts(bench_ab):
    a = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    ahead = [x + 10 for x in a]
    assert bench_ab.compare(a, ahead, "higher", 0.2)["verdict"] == "better"
    assert bench_ab.compare(a, ahead, "lower", 0.2)["verdict"] == "within noise"
    assert bench_ab.compare(a, [x * 0.7 for x in a], "higher", 0.2)["verdict"] == "worse"
    # B wins every pair, but the medians differ by less than A's IQR
    assert bench_ab.compare(a, [x + 1 for x in a], "higher", 0.2)["b_wins"] == 10
    assert bench_ab.compare(a, [x + 1 for x in a], "higher", 0.2)["verdict"] == "within noise"
    assert bench_ab.compare(a, a, "higher", 0.2)["b_wins"] == 0
