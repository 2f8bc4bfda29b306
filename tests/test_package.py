"""The package stays standard-library only, holds no unused definition,
writes no JSON through the pure-Python indenting encoder and keeps every
name the benchmark's tracer patches."""

import ast
import importlib.util
import sys
from pathlib import Path

import minfault
import minfault.campaign
import minfault.cli
import minfault.hardening
import minfault.solver


def test_modules_import_only_the_standard_library_and_the_package():
    files = sorted(Path(minfault.__file__).parent.rglob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: relative
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in (*sys.stdlib_module_names, "minfault")]
    assert foreign == []


def test_every_top_level_definition_is_referenced():
    # a name counts as used when code names it: the ``__all__`` strings and
    # ``__init__.py``'s re-exports do not count
    package = Path(minfault.__file__).parent
    root = Path(__file__).resolve().parents[1]
    defined = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
    assert defined
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            if path == package / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    assert sorted(f"{defined[name]}: {name}" for name in defined.keys() - used) == []


def indented_json_calls(tree):
    """Calls of ``json.dump``, ``json.dumps`` or ``JSONEncoder`` with an ``indent``
    other than None: CPython encodes those in pure Python."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in ("dump", "dumps", "JSONEncoder"):
            continue
        for kw in node.keywords:
            if kw.arg == "indent" and not (isinstance(kw.value, ast.Constant) and kw.value.value is None):
                yield node.lineno


def test_no_module_writes_json_with_the_indenting_encoder():
    # ``jsontext.dumps`` writes the same text with its per-item work in C
    files = sorted(Path(minfault.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    found = [f"{path.name}:{line}" for path in files
             for line in indented_json_calls(ast.parse(path.read_text(), str(path)))]
    assert found == []
    # the check itself finds such a call
    assert list(indented_json_calls(ast.parse("json.dumps(doc, indent=2, sort_keys=True)"))) == [1]


def test_tracer_patches_names_that_exist_and_restores_them():
    # ``perfbench/tracing.py`` wraps package functions by module and name, so
    # a deleted or renamed one must fail here, not only in the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (minfault.campaign, minfault.cli, minfault.hardening, minfault.solver)
    before = {module: dict(vars(module)) for module in modules}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        for module, attr, original in patched:
            assert module in before and before[module].get(attr) is original, (module.__name__, attr)
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    assert len(patched) >= 10
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
    for module, attrs in before.items():
        assert vars(module) == attrs
