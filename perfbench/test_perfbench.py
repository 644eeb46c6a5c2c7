"""The benchmark's own checks, at a size that runs in seconds.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import qbsd  # noqa: E402

TINY = {
    "kpi_stream": run.KpiSpec(days=35, n_spikes=3),
    "yearly_evaluate": run.YearlySpec(days=380),
    "multi_series_tick": run.FleetSpec(n_series=6, prefill_weeks=4, n_ticks=30),
}


def _declared(kind: str) -> dict[str, str]:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(workload, trace, tmp_path, capsys):
    result, notes = run.run(workload, 5, 0.0, trace, TINY[workload], tmp_path)
    run.print_report(result, notes)
    lines = capsys.readouterr().out.splitlines()
    declared = _declared("per_layer" if trace else "end_to_end")
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, float)
        assert f"metric {name} = {value} {unit}" in lines


def _first_session(workload: str, tmp_path: Path):
    spec = TINY[workload]
    if workload == "multi_series_tick":
        wl = run.FleetWorkload(spec, qbsd, tmp_path, 5)
    else:
        wl = run.CliWorkload(workload, spec, qbsd, tmp_path, 5)
    job = wl.job("default", "s000", False)
    result = run.run_session(job, tmp_path, "s000")
    assert result is not None
    return wl, job, result


def _corrupt_kpi(job, result):
    path = Path(job["output"])
    lines = path.read_text().splitlines()
    row = lines[-1].split(",")
    row[2] = repr(float(row[2]) + 1e-3)  # the forecast of the last record
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_report(job, result):
    path = Path(job["stdout"])
    report = json.loads(path.read_text())
    report["methods"][0]["mae"] *= 1 + 1e-6
    path.write_text(json.dumps(report))


def _corrupt_sample(job, result):
    result["samples"][-1][3] += 1e-3  # a sampled forecast


@pytest.mark.parametrize("workload, corrupt", [
    ("kpi_stream", _corrupt_kpi),
    ("yearly_evaluate", _corrupt_report),
    ("multi_series_tick", _corrupt_sample),
])
def test_one_corrupted_output_counts_as_failed(workload, corrupt, tmp_path):
    wl, job, result = _first_session(workload, tmp_path)
    clean = run.Tally()
    wl.check(job, result, clean)
    assert clean.failed == 0 and clean.attempted > 0

    wl, job, result = _first_session(workload, tmp_path)
    corrupt(job, result)
    tally = run.Tally()
    wl.check(job, result, tally)
    assert tally.failed > 0
    assert tally.failed / tally.attempted > 0


def test_all_warmup_is_reported_as_skips_not_speed(tmp_path):
    # no prefill and fewer ticks than a week: every subset is short of samples
    spec = run.FleetSpec(n_series=4, prefill_weeks=0, n_ticks=24)
    traced, _ = run.run("multi_series_tick", 5, 0.0, True, spec, tmp_path)
    assert traced["metrics"]["engine.skip_share"]["value"] == 1.0
    assert not traced["correct"]
    plain, notes = run.run("multi_series_tick", 5, 0.0, False, spec, tmp_path)
    assert not plain["correct"]
    assert any("not valid" in note for note in notes)


def test_missing_entry_point_is_reported_absent(monkeypatch):
    import qbsd.cli
    from tracer import Tracer

    observe = qbsd.RollingForecaster.observe
    monkeypatch.delattr(qbsd.cli, "wilcoxon_signed_rank")
    g = qbsd.Granularity(3600)
    cfg = qbsd.QbsdConfig(scheme=qbsd.default_weekly_scheme(4, 1, g))
    with Tracer() as tracer:
        f = qbsd.RollingForecaster(cfg, g)
        for slot in range(600):
            try:
                f.observe(qbsd.SlotCoord(slot, g), float(slot % 24))
            except (qbsd.InsufficientHistory, qbsd.InsufficientSpan):
                pass  # warmup
    assert qbsd.RollingForecaster.observe is observe  # every wrapper removed
    assert tracer.absent == {"metrics.wilcoxon": "qbsd.cli.wilcoxon_signed_rank"}
    session = {"trace": tracer.summary(), "import": [0, 1], "wall": [0, 10**9],
               "calibration": {"starts": [0], "ends": [500_000]}, "bytes_out": 0}
    metrics = run._layer_metrics([("default", True, session)], 600, run.Tally(), [])
    assert metrics["metrics.wilcoxon_ns"]["value"] is None
    assert "qbsd.cli.wilcoxon_signed_rank" in metrics["metrics.wilcoxon_ns"]["note"]
    assert metrics["engine.observe_ns"]["value"] > 0
    assert metrics["engine.history_slots"]["value"] == 600
