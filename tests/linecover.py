"""Line coverage of the package by the test suite, with the standard library
only: every line of ``src/qbsd`` that can run must be run by some test.

Run from anywhere with ``python tests/linecover.py`` (pytest, hypothesis and
numpy installed). The script runs pytest on ``tests/`` in this process under
``sys.settrace`` and ``threading.settrace``, tracing only frames whose code
is in ``src/qbsd``, with a fixed ``--hypothesis-seed`` and no hypothesis
deadline (tracing slows every call). A module's executable lines are the
lines of its compiled code objects (``co_lines``). The script prints each
executable line that did not run, other than those in ``ALLOWED``, and exits
1 if there is one; a failed test run exits with pytest's code. The file is
not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbsd"
HYPOTHESIS_SEED = "0"

# (module, line text) of the lines no in-process test can run
ALLOWED = {("cli.py", "sys.exit(main())")}


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
    import pytest

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


def main() -> int:
    from hypothesis import settings

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    # tests that start a Python of their own find the package as tier-1 does
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    settings.register_profile("linecover", deadline=None)
    # hypothesis is imported before pytest, which cannot rewrite its asserts
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "-W",
                            "ignore::pytest.PytestAssertRewriteWarning",
                            "--hypothesis-profile=linecover",
                            f"--hypothesis-seed={HYPOTHESIS_SEED}", str(ROOT / "tests")])
    if code != 0:
        print(f"pytest exited {code}; no coverage is reported")
        return int(code)
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        missing = executable_lines(compile(text, str(path), "exec")) - ran.get(str(path), set())
        unrun += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}"
                  for n in sorted(missing) if (path.name, source[n - 1].strip()) not in ALLOWED]
    for line in unrun:
        print(f"unrun: {line}")
    print(f"{len(unrun)} executable lines of {PACKAGE.relative_to(ROOT)} not run")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
