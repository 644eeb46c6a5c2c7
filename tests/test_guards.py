"""Source guards, read with ``ast``: no float ``sum()`` in the package, no
unused import in it, no private package name imported by the CLI, no numpy
in the tests, and every name the benchmark's tracer looks up present. And
every mutant and every allowed unrun line in ``tests/teeth.py`` still applies
to the source.

From Python 3.12 on the built-in ``sum()`` of floats is compensated, so a
float ``sum()`` in ``src/qbsd`` would make outputs differ between the
interpreters ``pyproject.toml`` admits. The calls below are exact on every
version. The tests run on the standard library, like the package.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import qbsd

PACKAGE = Path(qbsd.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"

# (module.function, the call as ast.unparse writes it, why it is exact)
ALLOWED_SUMS = [
    ("engine.forecast_at", "sum(ordered)",
     "a NaN probe: only whether the total is NaN is read"),
    ("metrics._exact_tail_probs", "sum(ranks)", "int doubled ranks"),
    ("metrics._exact_tail_probs", "sum(counts[w_plus:])", "int assignment counts"),
    ("metrics._exact_tail_probs", "sum(counts[:w_plus + 1])", "int assignment counts"),
    ("metrics._rank_sums", "sum(compress(ranks, map(operator.lt, repeat(0.0), ordered)))",
     "int doubled ranks"),
    ("datasets.skipped_count", "sum((1 for r in records if r.forecast is None))",
     "an int count"),
    ("smoothing._weight_rows", "sum((v * v for v in q))",
     "Fraction squares: a norm of the basis as it is built"),
    ("smoothing._weight_rows", "sum((v * v for v in q))",
     "int squares: a norm of the basis scaled to integers"),
    ("smoothing._weight_rows", "sum(map(operator.mul, coefs, col))", "int products"),
    ("smoothing._dot", "sum(special)",
     "only infs and NaNs, whose sum no order or compensation changes"),
    ("smoothing._dot", "sum(map(Fraction, products))", "exact Fraction terms"),
]
ALLOWED_COUNTS = Counter((scope, call) for scope, call, _ in ALLOWED_SUMS)


def sum_calls(node: ast.AST, scope: str):
    """``(scope, call text)`` of every ``sum(...)`` call under ``node``,
    scoped by its innermost enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope.split('.')[0]}.{child.name}"
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
              and child.func.id == "sum"):
            yield scope, ast.unparse(child)
        yield from sum_calls(child, inner)


def package_sum_calls() -> Counter:
    calls = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        calls.update(sum_calls(ast.parse(path.read_text()), path.stem))
    return calls


def test_sum_calls_in_the_package_are_the_exact_ones():
    calls = package_sum_calls()
    extra = sorted((calls - ALLOWED_COUNTS).elements())
    assert not extra, f"sum() calls outside the allowlist: {extra}"
    # a call that is gone leaves the allowlist, so it cannot go stale unseen
    gone = sorted((ALLOWED_COUNTS - calls).elements())
    assert not gone, f"allowed sum() calls no longer in the package: {gone}"


def test_sum_guard_sees_a_float_sum():
    tree = ast.parse("def qbsd_step(ordered, lo, hi):\n    return sum(ordered[lo:hi])\n")
    assert list(sum_calls(tree, "core")) == [("core.qbsd_step", "sum(ordered[lo:hi])")]


# (module.name, why the module imports it without using it)
ALLOWED_UNUSED_IMPORTS = [
    ("cli.rolling_evaluate", "perfbench/tracer.py looks it up in qbsd.cli by name"),
]


def unused_imports(tree: ast.AST, module: str) -> list[str]:
    """``module.name`` of every name an import binds that the module never
    reads; ``from __future__`` imports are directives, not names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{module}.{name}" for name in imported if name not in read)


def test_every_import_in_the_package_is_used():
    """``__init__.py`` is skipped: its imports are the package's exports."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found.update(unused_imports(ast.parse(path.read_text()), path.stem))
    allowed = {name for name, _ in ALLOWED_UNUSED_IMPORTS}
    extra = sorted(found - allowed)
    assert not extra, f"unused imports: {extra}"
    # an import that is used again or gone leaves the allowlist
    stale = sorted(allowed - found)
    assert not stale, f"allowed unused imports that are used or gone: {stale}"


def test_unused_import_guard_sees_an_unused_name():
    source = ("from __future__ import annotations\nimport os.path\nimport math as m\n"
              "from .timegrid import SeasonalityScheme, scheme_from_lags\n"
              "def build(lags: SeasonalityScheme) -> str:\n    return os.path.join(m.pi)\n")
    assert unused_imports(ast.parse(source), "cli") == ["cli.scheme_from_lags"]


def private_imports(tree: ast.AST) -> list[str]:
    """``module.name`` of every name starting with ``_`` imported from the
    package, by a relative or a ``qbsd`` import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "qbsd"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_cli_imports_no_private_name():
    """The row contract lives behind ``datasets``' public functions: the CLI
    reaches no private helper of the package."""
    assert private_imports(ast.parse((PACKAGE / "cli.py").read_text())) == []


def test_private_import_guard_sees_every_import_form():
    source = ("from .datasets import (\n    load_csv,\n    _record,\n)\n"
              "from qbsd.engine import _Ring as Ring\n")
    assert private_imports(ast.parse(source)) == ["datasets._record", "qbsd.engine._Ring"]
    assert private_imports(ast.parse("from __future__ import annotations\n"
                                     "from os import _exit\nfrom . import errors")) == []


def imports_numpy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_no_test_imports_numpy():
    offenders = [str(path.relative_to(TESTS)) for path in sorted(TESTS.rglob("*.py"))
                 if imports_numpy(ast.parse(path.read_text()))]
    assert offenders == []


def test_numpy_guard_sees_every_import_form():
    for source in ("import numpy as np", "import numpy.polynomial",
                   "from numpy import asarray", "from numpy.random import default_rng"):
        assert imports_numpy(ast.parse(source)), source
    assert not imports_numpy(ast.parse("import numbers\nfrom . import numpy_like"))


def tracer_lookups() -> list[tuple[str, str]]:
    """``(module, attribute path)`` of every name ``perfbench/tracer.py``
    looks up: its ``ENTRY_POINTS`` and ``HISTORY_CLASS``, read as literals,
    so the tracer and its numpy are not imported."""
    found = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("ENTRY_POINTS", "HISTORY_CLASS"):
                found[name] = ast.literal_eval(node.value)
    return [(module, path) for _, module, path in found["ENTRY_POINTS"]] + [
        found["HISTORY_CLASS"]]


def test_every_name_the_tracer_looks_up_resolves():
    """The tracer reports a name it cannot find as absent, so without this a
    deleted or renamed one would silently empty a per-layer metric."""
    missing = []
    for module, path in tracer_lookups():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert missing == []


def teeth():
    """``tests/teeth.py``, loaded by path: the file is a script, not a test
    module."""
    spec = importlib.util.spec_from_file_location("teeth", TESTS / "teeth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_the_source():
    """Each mutant's old text occurs exactly once in its file, each test that
    must kill it is in a file that exists, and each line allowed to go unrun
    is still a line of its module, so an edit of the source or a moved test
    cannot make either list go stale unseen. Whether the tests kill the
    mutants and run every other line is ``python tests/teeth.py``, a CI step
    of its own."""
    root = TESTS.parent
    script = teeth()
    stale = []
    for file, old, _, tests in script.MUTANTS:
        found = (root / file).read_text(encoding="utf-8").count(old)
        if found != 1:
            stale.append(f"{file}: old text found {found} times: {old!r}")
        stale += [test for test in tests if not (root / test.split("::")[0]).is_file()]
    for module, line in sorted(script.ALLOWED):
        lines = (PACKAGE / module).read_text(encoding="utf-8").splitlines()
        if line not in map(str.strip, lines):
            stale.append(f"{module}: allowed unrun line not found: {line!r}")
    assert stale == []
