"""The package stays standard-library only."""

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
