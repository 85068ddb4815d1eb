"""The package namespace the benchmark and the library example rely on."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import chanopt
import chanopt.cli  # noqa: F401  (the benchmark reaches main as co.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _traced() -> tuple[tuple[str, str], ...]:
    """The (module, function) pairs of bench/tracing.py's TRACED table, read
    without importing the benchmark."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py has no TRACED table")


def test_import_loads_every_traced_module():
    traced = {mod for mod, _ in _traced()}
    assert len(traced) == 7
    # a fresh interpreter: this one has already imported every module
    code = "import sys, chanopt; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(chanopt.__file__).parents[1])),
    ).stdout.split()
    assert {f"chanopt.{mod}" for mod in traced} <= set(out)


def test_every_traced_function_resolves():
    # the tracer looks each one up with getattr on chanopt.<module>
    missing = [
        f"{mod}.{fn}"
        for mod, fn in _traced()
        if not callable(getattr(importlib.import_module(f"chanopt.{mod}"), fn, None))
    ]
    assert not missing


def test_every_exported_name_resolves():
    assert len(chanopt.__all__) == len(set(chanopt.__all__))
    for name in chanopt.__all__:
        assert getattr(chanopt, name) is not None, name


def test_names_the_benchmark_calls_exist():
    called = set()
    for path in BENCH.glob("*.py"):
        called |= set(re.findall(r"\bco\.(\w+)\(", path.read_text()))
    assert len(called) >= 16
    missing = [name for name in sorted(called) if not hasattr(chanopt, name)]
    assert not missing
    assert callable(chanopt.cli.main)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_modules_use_every_name_they_import():
    # __init__.py is exempt: its imports are its exports
    src = Path(chanopt.__file__).parent
    unused = {
        path.name: names
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert not unused



_DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _names_in(tree) -> set[str]:
    """Names, attributes and imported names a syntax tree refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def _unreferenced_definitions(src: Path) -> list[str]:
    """Top-level functions and classes under src named nowhere but in their
    own definition: not by a module under src, not as co.<name> in the
    benchmark, not in chanopt.__all__. Docstrings and tests do not count."""
    defined = {}
    referenced = set(chanopt.__all__)
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = {top.name} if isinstance(top, _DEFINITIONS) else set()
            defined.update({name: f"{path.stem}.{name}" for name in own})
            referenced |= _names_in(top) - own
    for path in BENCH.glob("*.py"):
        # only co.<name>: the benchmark defines same-named helpers
        referenced |= {
            node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "co"
        }
    return sorted(where for name, where in defined.items() if name not in referenced)


def test_every_definition_is_reached():
    assert not _unreferenced_definitions(Path(chanopt.__file__).parent)
