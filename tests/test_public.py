import argparse
import ast
import io
import json
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import flipshift
from flipshift import jsonio
from flipshift.cli import _PARSER, run_cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "flipshift" / "data"


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


# -- the README's commands --------------------------------------------------------------


def readme_commands(text: str) -> list[list[str]]:
    """Each line of the "Reference inputs" block, continuation lines joined, split."""
    block = text.split("Reference inputs ship", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line]


def readme_table_rows(text: str) -> dict[str, str]:
    """Each row of the "Command line" table, under the subcommand it names."""
    table = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return {command: row for row, command in re.findall(r"^(\| `([a-z-]+).*)$", table, re.M)}


def test_the_readme_reference_commands_exit_0(monkeypatch):
    commands = readme_commands((ROOT / "README.md").read_text(encoding="utf-8"))
    assert commands and all(argv[0] == "flipshift" for argv in commands)
    monkeypatch.chdir(ROOT)
    for argv in commands:
        with redirect_stdout(io.StringIO()):
            assert run_cli(argv[1:]) == 0, argv


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in _PARSER._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_the_readme_table_names_every_subcommand():
    table = readme_table_rows((ROOT / "README.md").read_text(encoding="utf-8"))
    assert set(table) == set(_subparsers())


def test_the_readme_table_row_of_each_command_names_its_options():
    # every command takes --format and --timing, which the table's heading shows
    rows = readme_table_rows((ROOT / "README.md").read_text(encoding="utf-8"))
    unnamed = [(command, action.option_strings[-1])
               for command, parser in _subparsers().items() for action in parser._actions
               if action.option_strings
               and not {"--help", "--format", "--timing"} & set(action.option_strings)
               and not any(re.search(re.escape(opt) + r"(?![\w-])", rows[command])
                           for opt in action.option_strings)]
    assert unnamed == []


# -- the shipped matrix files repeat matrices of the pair files -----------------------


@pytest.mark.parametrize("matrix, pair, part", [
    ("example1_A", "example1_AJ", "A"), ("example1_A", "example1_AI", "A"),
    ("example1_J", "example1_AJ", "J"),
    ("example2_A", "example2_AJ", "A"), ("example2_B", "example2_BJ", "A"),
    ("example2_C", "example2_CJ", "A"),
    ("example2_J", "example2_AJ", "J"), ("example2_J", "example2_BJ", "J"),
    ("example2_J", "example2_CJ", "J"),
])
def test_shipped_matrix_copies_agree_with_their_pairs(matrix, pair, part):
    def read(name):
        return json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    assert jsonio.matrix_from_doc(read(matrix)) == getattr(jsonio.pair_from_doc(read(pair)), part)
