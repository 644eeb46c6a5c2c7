"""One measured session in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the checkout, the session kind and where to write results:
``cli`` runs one ``qbsd.cli.main`` call; ``fleet`` builds two
``MultiSeriesEngine`` groups, prefills every series and runs closed-loop
ticks, one ``observe`` per series per tick. The package is imported from the
checkout's ``src`` directory and nowhere else. With ``trace`` set, spans are
recorded around the package's entry points for the timed part.

Timed intervals are reported as raw perf_counter_ns (start, end) pairs next
to the calibration handler's runs; the harness converts them with
``calibrate.calibrated_ns``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import Calibrator

clock = time.perf_counter_ns


def _import_qbsd(root: Path):
    """Import the package from ``root/src``; returns (module, interval)."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = clock()
    import qbsd
    import qbsd.cli  # noqa: F401  (the CLI workloads' entry point)

    t1 = clock()
    if not Path(qbsd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qbsd imported from {qbsd.__file__}, not from {src}")
    return qbsd, [t0, t1]


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer

    return Tracer()


def run_cli(qbsd, job: dict) -> dict:
    tracer = _tracer(job["trace"])
    stdout_path = Path(job["stdout"])
    with open(stdout_path, "w") as out, open(f"{stdout_path}.err", "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer if tracer is not None else contextlib.nullcontext():
            start = clock()
            code = qbsd.cli.main(job["argv"])
            end = clock()
    bytes_out = stdout_path.stat().st_size
    if job.get("output") and code == 0:
        bytes_out += Path(job["output"]).stat().st_size
    return {
        "exit_code": code,
        "wall": [start, end],
        "bytes_out": bytes_out,
        "trace": tracer.summary() if tracer is not None else None,
    }


def run_fleet(qbsd, job: dict) -> dict:
    import numpy as np

    skip_types = (qbsd.InsufficientHistory, qbsd.InsufficientSpan)
    columns = np.load(job["values"]).tolist()  # harness input, not timed
    n_series = len(columns)
    n_prefill, n_ticks = job["n_prefill"], job["n_ticks"]
    base = job["base_slot"]
    tracer = _tracer(job["trace"])

    with tracer if tracer is not None else contextlib.nullcontext():
        start = clock()
        g = qbsd.Granularity(3600)
        cfg = qbsd.QbsdConfig(scheme=qbsd.default_weekly_scheme(4, job["k"], g), c=job["c"])
        groups = []
        for gi, weeks in enumerate(job["buffer_weeks"]):
            capacity = weeks * g.slots_per_week
            engine = qbsd.MultiSeriesEngine(
                lambda capacity=capacity: qbsd.RollingForecaster(cfg, g, capacity_slots=capacity)
            )
            members = [(f"s{i:04d}", columns[i], i)
                       for i in range(gi, n_series, len(job["buffer_weeks"]))]
            for sid, row, _ in members:
                engine.forecaster(sid).ingest_history(
                    (qbsd.SlotCoord(base + s, g), row[s]) for s in range(n_prefill)
                )
            groups.append((engine.observe, members, []))
        setup_end = clock()

        outs: list = [None] * n_series
        samples: list[list] = []
        skips = fails = 0
        notes: list[str] = []
        for j in range(n_ticks):
            slot = n_prefill + j
            t = qbsd.SlotCoord(base + slot, g)
            # the two groups take turns going first
            for observe, members, blocks in (groups if j % 2 == 0 else groups[::-1]):
                s0 = clock()
                for sid, row, pos in members:
                    try:
                        outs[pos] = observe(sid, t, row[slot])
                    except skip_types:
                        skips += 1
                        outs[pos] = None
                    except Exception as exc:  # any other error is a failed operation
                        fails += 1
                        outs[pos] = None
                        if len(notes) < 5:
                            notes.append(f"{sid} slot {slot}: {type(exc).__name__}: {exc}")
                blocks.append((s0, clock()))
            for m in range(4):
                pos = (4 * j + m) % n_series
                if outs[pos] is not None:
                    res, fo = outs[pos]
                    samples.append([pos, slot, columns[pos][slot], fo.forecast, fo.q1,
                                    fo.q3, fo.iqr, fo.sample_count, fo.fallback_used,
                                    res.difference, res.normalized])
        end = clock()
    return {
        "setup": [start, setup_end],
        "wall": [start, end],
        "blocks": [blocks for _, _, blocks in groups],
        "observations": n_series * n_ticks,
        "skips": skips,
        "fails": fails,
        "notes": notes,
        "samples": samples,
        "trace": tracer.summary() if tracer is not None else None,
    }


def _peak_rss_kb() -> int:
    """Peak resident set of this process. ru_maxrss is not used: on Linux it
    carries over the parent's peak across fork and exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    cal = Calibrator()
    cal.start()
    try:
        qbsd, import_interval = _import_qbsd(Path(job["root"]))
        run_kind = run_cli if job["kind"] == "cli" else run_fleet
        result = run_kind(qbsd, job)
    finally:
        cal.stop()
    result["import"] = import_interval
    result["calibration"] = cal.samples()
    result["maxrss_kb"] = _peak_rss_kb()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
