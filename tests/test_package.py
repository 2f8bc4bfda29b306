"""The package stays standard-library only, holds no unused definition and
writes no JSON through the pure-Python indenting encoder."""

import ast
import sys
from pathlib import Path

import minfault


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
