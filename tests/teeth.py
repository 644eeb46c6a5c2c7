"""Whether the tests have teeth: every line of the package that can run is
run by some test, and each of a list of plausible wrong edits of the package
fails the tests named beside it.

Run from anywhere with ``python tests/teeth.py`` (pytest and hypothesis
installed). The file is not named ``test_*.py``, so pytest does not collect
it. It exits 1 if a line is unrun or a mutant survives.

**Line coverage, the mutants' clean baseline.** The script first runs pytest
on ``tests/`` in this process under ``sys.settrace`` and
``threading.settrace``, tracing only frames whose code is in ``src/qbsd``,
with a fixed ``--hypothesis-seed`` and no hypothesis deadline (tracing slows
every call). If a test fails, the script exits with pytest's code and tries
no mutant: a failure counts as a kill only where the same tests pass on the
real source. A module's executable lines are the lines of its compiled code
objects (``co_lines``). The script prints each executable line that did not
run, other than those in ``ALLOWED``.

**Mutants.** For each entry of ``MUTANTS`` the script copies ``src/`` to a
temporary directory, replaces the entry's old text, which must occur there
exactly once, with its new text, and runs the entry's tests with ``-x`` and
the same seed in a child Python. The child's ``PYTHONPATH`` is the copy's
``src`` before the inherited path, so it imports the mutated package and
whatever else this process could import, pytest included. A mutant is killed
when pytest reports a failed test.

``tests/test_guards.py`` checks that every old text occurs exactly once,
that every named test file exists and that every ``ALLOWED`` line is still
in the package.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbsd"
HYPOTHESIS_SEED = "0"
PYTEST_TESTS_FAILED = 1
INHERITED_PYTHONPATH = os.environ.get("PYTHONPATH")

# (module, line text) of the lines no in-process test can run
ALLOWED = {("cli.py", "sys.exit(main())")}

# (file from the repository root, exact old text, new text, tests that must fail)
MUTANTS = [
    # evaluate pairs no slot, so every Wilcoxon p-value is blank
    ("src/qbsd/datasets.py",
     "add(record, None if record is qbsd else qbsd)",
     "add(record, None)",
     ["tests/test_evaluate_streaming.py::test_scores_equal_the_records_derivation"]),
    # a gap row's record is yielded at once, so a repeated slot writes two records
    ("src/qbsd/datasets.py",
     "            if held.global_slot != slot:\n                yield held",
     "            if True:\n                yield held",
     ["tests/test_cli.py::test_blank_row_before_another_row_for_its_slot_writes_one_record"]),
    # a zero or NaN that leaves the sorted subset is bisected out instead of
    # the subset being rebuilt
    ("src/qbsd/engine.py",
     "                if not (value > 0.0 or value < 0.0):\n"
     "                    return False\n"
     "                del ordered",
     "                del ordered",
     ["tests/test_engine_properties.py::test_sliding_subset_matches_reference"]),
    # a zero or NaN that enters the sorted subset is bisected in
    ("src/qbsd/engine.py",
     "                if not (value > 0.0 or value < 0.0):\n"
     "                    return False\n"
     "                insort",
     "                insort",
     ["tests/test_engine_properties.py::test_sliding_subset_matches_reference"]),
    # the kept subset slides over any write since it was sorted
    ("src/qbsd/engine.py",
     "base - 1 == self._base and writes == self._writes and self._slide(base)",
     "base - 1 == self._base and self._slide(base)",
     ["tests/test_engine_properties.py::test_write_between_consecutive_targets_is_seen"]),
    # the slot that leaves a lag group is read one slot below the window
    ("src/qbsd/engine.py",
     "            slot = base + leave\n"
     "            value = values[slot % capacity] if oldest < slot <= latest else None",
     "            slot = base + leave\n"
     "            value = values[slot % capacity] if oldest <= slot <= latest else None",
     ["tests/test_engine_properties.py::test_consecutive_targets_behind_a_full_window"]),
    # the slot that enters a lag group is read one slot below the window
    ("src/qbsd/engine.py",
     "            slot = base + enter\n"
     "            value = values[slot % capacity] if oldest < slot <= latest else None",
     "            slot = base + enter\n"
     "            value = values[slot % capacity] if oldest <= slot <= latest else None",
     ["tests/test_engine_properties.py::test_consecutive_targets_behind_a_full_window"]),
    # observe does not count its own write after a forecast, so nothing slides
    ("src/qbsd/engine.py",
     "        # t enters the next target's subset: the slide takes it from the ring\n"
     "        self._writes = self.history.writes\n",
     "",
     ["tests/test_engine_properties.py::test_wide_schemes_slide_on_consecutive_targets"]),
    # a target below the scheme span leaves the last target's subset kept, so
    # observe's write inside it is counted but never read
    ("src/qbsd/engine.py",
     "            self._base = None\n            # raises",
     "            # raises",
     ["tests/test_engine_properties.py::test_warmup_write_inside_the_kept_subset_is_seen"]),
    # a target below the scheme span is forecast from what the ring holds
    ("src/qbsd/engine.py",
     "resolve_subset_slots(SlotCoord(base, self.granularity), self.cfg.scheme)",
     "pass",
     ["tests/test_engine.py::TestObserve::test_first_observation_buffers_and_raises"]),
    # ingest_history takes a SlotCoord on another grid as one on its own
    ("src/qbsd/engine.py",
     "t = t.global_slot if t.granularity is g else on_grid(t)",
     "t = t.global_slot",
     ["tests/test_engine.py::TestIngest::test_granularity_mismatch"]),
    # a subset is never filtered to the retained window
    ("src/qbsd/engine.py",
     "if not (lo < -self._span and hi >= -1):",
     "if False:",
     ["tests/test_engine_properties.py::test_forecast_at_matches_reference_path"]),
    # the deepest offset is taken to be in the window one slot too early
    ("src/qbsd/engine.py",
     "lo < -self._span and",
     "lo <= -self._span and",
     ["tests/test_engine_properties.py::test_forecast_at_matches_reference_path"]),
    # the slot before the target is taken to be in the window one slot too early
    ("src/qbsd/engine.py",
     "and hi >= -1):",
     "and hi >= -2):",
     ["tests/test_engine_properties.py::test_forecast_at_matches_reference_path"]),
    # a repeated slot's message names its two lines the wrong way round
    ("src/qbsd/datasets.py",
     "_duplicate(path, lines[i + 1], slots[i], granularity, lines[i])",
     "_duplicate(path, lines[i], slots[i], granularity, lines[i + 1])",
     ["tests/test_csv_io.py::test_load_csv_matches_a_sort_and_scan"]),
    # a NaN difference is ranked among the tied magnitudes beside it
    ("src/qbsd/metrics.py",
     "        if mags[i:j].count(mags[i]) != t:\n"
     "            raise ValueError(_NAN_DIFFERENCE)\n",
     "",
     ["tests/test_wilcoxon_reference.py::test_a_nan_difference_raises_wherever_it_ranks"]),
    # a scheme whose lag windows collide is accepted
    ("src/qbsd/timegrid.py",
     "if len(set(self.offsets)) != len(self.offsets):",
     "if False:",
     ["tests/test_timegrid.py::test_scheme_rejects_overlap_and_leakage",
      "tests/test_timegrid.py::test_scheme_is_accepted_exactly_when_its_windows_are_apart",
      "tests/test_timegrid.py::test_context_period_too_wide_for_weekly_lags"]),
    # a run of baselines only takes --c, --c-floor and --min-samples, and ignores them
    ("src/qbsd/cli.py",
     "if not runs_qbsd:",
     "if False:",
     ["tests/test_cli.py::test_qbsd_flag_without_a_qbsd_method_exits_1_before_input"]),
]


def pythonpath(src: Path) -> str:
    """``src`` before the ``PYTHONPATH`` this process was started with."""
    return os.pathsep.join(filter(None, [str(src), INHERITED_PYTHONPATH]))


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args`` and the lines run in each file of the
    package, keyed by the file's path."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def unrun_lines(ran: dict[str, set[int]]) -> list[str]:
    """``path:line: text`` of each executable line of the package that is not
    in ``ran`` or ``ALLOWED``."""
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        missing = executable_lines(compile(text, str(path), "exec")) - ran.get(str(path), set())
        unrun += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}"
                  for n in sorted(missing) if (path.name, source[n - 1].strip()) not in ALLOWED]
    return unrun


def killed(file: str, old: str, new: str, tests: list[str]) -> bool:
    """Whether each of ``tests`` fails on a copy of ``src/`` with ``old``
    replaced by ``new`` in ``file``; raises if ``old`` is not there once."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = Path(tmp) / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{file}: the old text occurs {text.count(old)} times:\n{old}")
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=pythonpath(Path(tmp) / "src"))
        for test in tests:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 f"--hypothesis-seed={HYPOTHESIS_SEED}", test],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            if result.returncode != PYTEST_TESTS_FAILED:
                print(f"  survives {test} (pytest exit {result.returncode})")
                return False
    return True


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    # tests that start a Python of their own find the package as tier-1 does
    os.environ["PYTHONPATH"] = pythonpath(PACKAGE.parent)
    settings.register_profile("teeth", deadline=None)
    # hypothesis is imported before pytest runs, which cannot rewrite its asserts
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "-W",
                            "ignore::pytest.PytestAssertRewriteWarning",
                            "--hypothesis-profile=teeth",
                            f"--hypothesis-seed={HYPOTHESIS_SEED}", str(ROOT / "tests")])
    if code != 0:
        print(f"pytest exited {code}; no coverage is reported and no mutant is tried")
        return int(code)
    unrun = unrun_lines(ran)
    for line in unrun:
        print(f"unrun: {line}")
    print(f"{len(unrun)} executable lines of {PACKAGE.relative_to(ROOT)} not run", flush=True)
    survivors = 0
    for file, old, new, tests in MUTANTS:
        ok = killed(file, old, new, tests)
        survivors += not ok
        where = " / ".join(line.strip() for line in old.splitlines())
        print(f"{'killed' if ok else 'SURVIVED'}: {file}: {where}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if unrun or survivors else 0


if __name__ == "__main__":
    sys.exit(main())
