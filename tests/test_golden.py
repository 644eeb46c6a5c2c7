"""Byte-for-byte outputs of ``anomaly``, ``forecast`` and ``evaluate`` on
fixed synthetic inputs, pinned as SHA-256 digests in ``golden_digests.json``.

Any change to an emitted byte (a float's last digit, a column, a row, the
stdout summary) fails here, so refactors of the forecast path can show that
they leave every output unchanged. After an intended output change, re-pin
with ``PYTHONPATH=src python tests/test_golden.py`` and commit the JSON file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from qbsd.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")


def _synth(path: Path, *flags: str) -> None:
    assert main(["synth", "--output", str(path), *flags]) == 0


def _blank(path: Path, every: int, runs: tuple[range, ...] = ()) -> None:
    """Blank the value of every ``every``-th data row and of each row index in
    ``runs``, so the inputs carry isolated gaps and gap runs."""
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        if i % every == 0 or any(i in r for r in runs):
            lines[i] = lines[i].split(",")[0] + ","
    path.write_text("\n".join(lines) + "\n")


def _inputs(root: Path) -> dict[str, Path]:
    hourly = root / "hourly.csv"  # noisy, with spikes and gaps
    _synth(hourly, "--days", "49", "--slots-per-day", "24", "--noise-std", "5",
           "--seed", "11", "--anomalies", "900:+900,1000:-700,1100:+600")
    _blank(hourly, 23, (range(500, 507),))
    flat = root / "flat.csv"  # noise-free: many subsets fall back to the median
    _synth(flat, "--days", "35", "--slots-per-day", "24")
    _blank(flat, 31, (range(400, 404),))
    daily = root / "daily.csv"  # long enough for the yearly lag
    _synth(daily, "--days", "420", "--slots-per-day", "1", "--noise-std", "3",
           "--seed", "5")
    _blank(daily, 17)
    return {"hourly": hourly, "flat": flat, "daily": daily}


def _cases(inputs: dict[str, Path], out: Path) -> dict[str, list[str]]:
    hourly, flat, daily = (str(inputs[n]) for n in ("hourly", "flat", "daily"))
    return {
        "anomaly": ["anomaly", "--interval", "3600", "--k", "2", "--input", hourly,
                    "--smoother", "sg:11:3", "--threshold", "3",
                    "--output", str(out / "anomaly.csv")],
        "forecast": ["forecast", "--interval", "3600", "--k", "2", "--c", "1",
                     "--input", flat, "--output", str(out / "forecast.csv")],
        "forecast_window": ["forecast", "--interval", "3600", "--k", "1",
                            "--train-window", "22", "--input", hourly,
                            "--output", str(out / "forecast_window.csv")],
        # --min-samples 9 makes every gap a warmup row, which cuts the bounds
        # into segments of 1, 2 and 4 rows: clipped moving-average heads and
        # tails, Savitzky-Golay edge fits and segments shorter than the window
        "forecast_ma_segments": ["forecast", "--interval", "3600", "--k", "1",
                                 "--min-samples", "9", "--smoother", "ma:4",
                                 "--input", hourly,
                                 "--output", str(out / "forecast_ma_segments.csv")],
        "forecast_sg_segments": ["forecast", "--interval", "3600", "--k", "1",
                                 "--min-samples", "9", "--smoother", "sg:3:1",
                                 "--input", hourly,
                                 "--output", str(out / "forecast_sg_segments.csv")],
        "evaluate": ["evaluate", "--interval", "3600", "--k", "2", "--input", hourly,
                     "--method", "qbsd,seasonal-naive,persistence", "--format", "json",
                     "--test-start", "1970-01-29T00:00:00",
                     "--test-end", "1970-02-18T23:00:00",
                     "--output", str(out / "evaluate.csv")],
        # k=8 gives the weekly4 scheme 51 samples in 4 lag groups, a wide
        # enough window for consecutive forecasts to slide the sorted subset
        "anomaly_k8": ["anomaly", "--interval", "3600", "--k", "8", "--input", hourly,
                       "--smoother", "sg:11:3", "--threshold", "3",
                       "--output", str(out / "anomaly_k8.csv")],
        "forecast_k8": ["forecast", "--interval", "3600", "--k", "8", "--c", "1",
                        "--input", flat, "--output", str(out / "forecast_k8.csv")],
        "evaluate_k8": ["evaluate", "--interval", "3600", "--k", "8", "--input", hourly,
                        "--method", "qbsd,seasonal-naive,persistence", "--format", "json",
                        "--test-start", "1970-01-29T00:00:00",
                        "--test-end", "1970-02-18T23:00:00",
                        "--output", str(out / "evaluate_k8.csv")],
        # the default table format, with the JSON report it writes beside it
        "evaluate_table": ["evaluate", "--interval", "3600", "--k", "1", "--input", hourly,
                           "--method", "qbsd,seasonal-naive,persistence",
                           "--test-start", "1970-02-05T00:00:00",
                           "--test-end", "1970-02-18T23:00:00",
                           "--report", str(out / "evaluate_table.json")],
        "evaluate_yearly": ["evaluate", "--interval", "86400", "--k", "2",
                            "--scheme", "weekly_plus_yearly", "--train-window", "380",
                            "--input", daily, "--method", "qbsd,seasonal-naive,persistence",
                            "--format", "csv", "--test-start", "1971-01-06T00:00:00",
                            "--test-end", "1971-02-24T00:00:00"],
        # two methods' records files, written while the test range streams
        "evaluate_records": ["evaluate", "--interval", "86400", "--k", "2",
                             "--scheme", "weekly_plus_yearly", "--train-window", "380",
                             "--input", daily, "--method", "moving-average:7,qbsd",
                             "--format", "json", "--test-start", "1971-01-06T00:00:00",
                             "--test-end", "1971-02-24T00:00:00",
                             "--output", str(out / "evaluate_records.csv")],
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_digests(root: Path) -> dict[str, str]:
    """Digest of stdout and of every file each case writes, keyed
    ``<case>/<file>``."""
    inputs = _inputs(root)
    digests = {f"input/{name}": _sha(path.read_bytes()) for name, path in inputs.items()}
    for case, argv in _cases(inputs, root).items():
        before = set(root.iterdir())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, f"{case} exited {code}"
        digests[f"{case}/stdout"] = _sha(stdout.getvalue().encode())
        for path in sorted(set(root.iterdir()) - before):
            digests[f"{case}/{path.name}"] = _sha(path.read_bytes())
    return digests


def test_outputs_are_byte_identical(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = compute_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        pinned = compute_digests(Path(scratch))
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {DIGESTS}", file=sys.stderr)
