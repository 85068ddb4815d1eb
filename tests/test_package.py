"""The package namespace the benchmark and the library example rely on."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chanopt
import chanopt.cli  # noqa: F401  (the benchmark reaches main as co.cli.main)

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = Path(chanopt.__file__).parents[1]


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


def _fresh(code: str, *args: str) -> list[str]:
    """The lines a fresh interpreter prints to stderr after running code with
    args as sys.argv[1:]; this interpreter has already run every module."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stderr.splitlines()


# chanopt.<module> entries whose source has run: LazyLoader turns a
# registered module's class into types.ModuleType when it runs it
_RAN = (
    "' '.join(sorted(n[len('chanopt.'):] for n, m in sys.modules.items()"
    " if n.startswith('chanopt.') and type(m) is types.ModuleType))"
)


def test_import_loads_every_traced_module():
    traced = _traced()
    assert len({mod for mod, _ in traced}) == 7
    # import chanopt registers every module without running it; the tracer
    # then looks each function up on sys.modules["chanopt.<module>"]
    code = (
        "import sys, chanopt\n"
        "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
        f"for mod, fn in {traced!r}:\n"
        "    print(mod, fn, callable(getattr(sys.modules[f'chanopt.{mod}'], fn)), file=sys.stderr)"
    )
    registered, *resolved = _fresh(code)
    assert {f"chanopt.{mod}" for mod, _ in traced} <= set(registered.split())
    assert resolved == [f"{mod} {fn} True" for mod, fn in traced]


def test_import_runs_no_module():
    code = (
        "import sys, types, chanopt\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        f"print({_RAN}, file=sys.stderr)"
    )
    assert _fresh(code) == ["False", ""]


# command: (spec, the modules it runs besides cli and the three cli imports)
_RUNS = {
    "validate": ("preset:damp-counterexample", set()),
    "compare": ("preset:damp-counterexample", {"comparison"}),
    "certify": ("certify-measurement.json", {"comparison", "optimal_inputs"}),
    "ent-advantage": ("preset:eb-needs-ent-gp", {"comparison", "entanglement"}),
    "sweep": ("preset:damp-counterexample", {"comparison"}),
    "ang": ("ang-solve.json", {"geometry"}),
    "repeat": ("repeat-adaptive.json", {"comparison", "optimal_inputs", "repetition"}),
}


@pytest.mark.parametrize("cmd", list(_RUNS))
def test_each_command_runs_only_its_modules(tmp_path, cmd):
    spec, extra = _RUNS[cmd]
    if not spec.startswith("preset:"):
        spec = str(BENCH / "specs" / spec)
    # as python -m chanopt runs it, then the modules that ran
    code = (
        "import runpy, sys, types\n"
        "try:\n"
        "    runpy.run_module('chanopt', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print('numpy.ma' in sys.modules, file=sys.stderr)\n"
        f"    print({_RAN}, file=sys.stderr)"
    )
    *_, masked, ran = _fresh(code, cmd, "--spec", spec, "--seed", "7", "--out", str(tmp_path))
    assert (tmp_path / f"{cmd}-report.json").is_file()
    assert set(ran.split()) == {"cli", "channels", "numerics", "presets"} | extra
    # np.unique imports numpy.ma on recent numpy; no command calls it
    assert masked == "False"


def test_missing_name_is_an_attribute_error():
    assert not hasattr(chanopt, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        chanopt.no_such_name  # noqa: B018


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


def test_numpy_is_the_only_runtime_dependency():
    # every top-level module the package imports is numpy or in the
    # standard library, and numpy is all pyproject.toml asks for
    imported = set()
    for path in Path(chanopt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == {"numpy"}
    pyproject = (ROOT / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert re.findall(r'"([\w.-]+)', deps) == ["numpy"]


def test_readme_library_example_prints_its_comment(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert block.rstrip().endswith("# incomparable 0.5 0.207106781")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "incomparable 0.5 0.207106781\n"


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


# the package's PEP 562 hook: the interpreter calls it, no code names it
_HOOK = "__init__.__getattr__"


def _unreferenced_definitions(src: Path) -> list[str]:
    """Top-level functions and classes under src named nowhere but in their
    own definition: not by a module under src, not as co.<name> in the
    benchmark, not in chanopt.__all__; the package's __getattr__ hook aside.
    Docstrings and tests do not count."""
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
    return sorted(
        where for name, where in defined.items() if name not in referenced and where != _HOOK
    )


def test_every_definition_is_reached():
    assert not _unreferenced_definitions(Path(chanopt.__file__).parent)
