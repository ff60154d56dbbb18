import ast
import sys
from pathlib import Path

import flipshift


def test_all_is_sorted_unique_and_resolves():
    names = flipshift.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(flipshift, n)] == []
    namespace: dict = {}
    exec("from flipshift import *", namespace)
    assert set(names) <= set(namespace)


def test_the_runtime_imports_only_the_standard_library():
    # pyproject's dependencies = []: every import of the package, at any depth
    # (cli._emit imports csv inside the function), is relative or stdlib
    modules = set()
    for path in Path(flipshift.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules.add(node.module.split(".")[0])
    assert "csv" in modules
    assert sorted(modules - sys.stdlib_module_names) == []
