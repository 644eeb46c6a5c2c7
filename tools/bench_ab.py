"""Paired A/B runs of the benchmark on two revisions, from one command.

Usage, from anywhere in a checkout:

    python3 tools/bench_ab.py --a HEAD~1 --b HEAD --workload yearly_evaluate --pairs 10

Each revision is exported with ``git archive`` into a ``.perfbench-ab-*``
directory at the root of the checkout, removed again at exit. Pair i runs
each tree's own ``perfbench/run.py --workload W --seed i --seconds S``, with S
the ``run_seconds`` of the checkout's ``BENCHMARK.json``, one after the other:
A first in odd pairs, B first in even ones, so a change in host speed reaches
both sides alike. A run that exits non-zero, reports
``correct: false`` or reports ``failed`` > 0 stops the tool with exit 1,
naming the side and the pair.

For each end-to-end metric in ``BENCHMARK.json`` the tool prints each side's
median and interquartile range (IQR) over the pairs, how many pairs B won by
the metric's ``better`` direction (a tie counts for neither side), and a
verdict: ``better`` when B won at least nine tenths of the pairs and the
medians differ by more than A's IQR; ``worse`` when B's median is worse than
A's by more than the metric's ``bound``, a fraction of A's median; else
``within noise``. The last line of standard output is one JSON object:
``{"workload", "a", "b", "pairs", "metrics"}``, where each metric
holds ``a_median``, ``a_iqr``, ``b_median``, ``b_iqr``, ``b_wins`` and
``verdict``. The tool needs only the standard library and git.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str) -> Path:
    """A new ``.perfbench-ab-*`` directory at the root holding ``rev``'s files."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    tree = Path(tempfile.mkdtemp(prefix=".perfbench-ab-", dir=ROOT))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:  # before 3.10.12 and 3.11.4; the archive is git's own
            tar.extractall(tree)
    return tree


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> tuple[int, str]:
    """Exit code and standard output of ``tree``'s own benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


class RunFailed(Exception):
    pass


def result_of(code: int, stdout: str, side: str, pair: int) -> dict:
    """The metric values of one run, by name; raises ``RunFailed`` naming the
    side and the pair when the run failed."""
    where = f"side {side}, pair {pair}"
    if code != 0:
        raise RunFailed(f"{where}: exit {code}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunFailed(f"{where}: the last line of its output is no result object")
    if result.get("correct") is not True:
        raise RunFailed(f"{where}: correct is {result.get('correct')}")
    if result.get("failed") != 0:
        raise RunFailed(f"{where}: failed is {result.get('failed')}")
    return metrics


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(a: list, b: list, better: str, bound: float) -> dict:
    """One metric over the pairs: each side's median and IQR, B's wins and
    the verdict. A pair in which either side has no value is left out."""
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    if not pairs:
        return {"a_median": None, "a_iqr": None, "b_median": None, "b_iqr": None,
                "b_wins": 0, "verdict": "within noise"}
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    a_median, b_median, a_iqr = statistics.median(xs), statistics.median(ys), iqr(xs)
    gain = sign * (b_median - a_median)
    if 10 * wins >= 9 * len(pairs) and gain > a_iqr:
        verdict = "better"
    elif -gain > bound * abs(a_median):
        verdict = "worse"
    else:
        verdict = "within noise"
    return {"a_median": a_median, "a_iqr": a_iqr, "b_median": b_median, "b_iqr": iqr(ys),
            "b_wins": wins, "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="the revision to compare against")
    parser.add_argument("--b", required=True, help="the revision under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    trees: dict[str, Path] = {}
    runs: dict[str, list[dict]] = {"a": [], "b": []}
    try:
        for side in ("a", "b"):
            trees[side] = export(getattr(args, side))
        for pair in range(1, args.pairs + 1):
            for side in ("a", "b") if pair % 2 else ("b", "a"):
                code, stdout = run_side(trees[side], args.workload, pair, seconds)
                runs[side].append(result_of(code, stdout, side.upper(), pair))
                shown = " ".join(f"{m['name']}={runs[side][-1].get(m['name'])}" for m in spec)
                print(f"pair {pair} {side.upper()}: {shown}", flush=True)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
    metrics = {}
    for m in spec:
        name = m["name"]
        metrics[name] = row = compare([r.get(name) for r in runs["a"]],
                                      [r.get(name) for r in runs["b"]], m["better"], m["bound"])
        print(f"{name}: A median {row['a_median']} (IQR {row['a_iqr']}), "
              f"B median {row['b_median']} (IQR {row['b_iqr']}), "
              f"B won {row['b_wins']} of {args.pairs}: {row['verdict']}")
    print(json.dumps({"workload": args.workload, "a": args.a, "b": args.b,
                      "pairs": args.pairs, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
