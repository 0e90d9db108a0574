"""The README keeps to the package: every import statement in its
```python blocks runs against the installed package, and its ```sh blocks
name the command line's subcommands."""

import argparse
import ast
import re
from pathlib import Path

from sibsim.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_imports_resolve():
    blocks = _python_blocks()
    assert blocks, "README has no python example"
    imports = [
        node
        for block in blocks
        for node in ast.parse(block).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports, "README python example imports nothing"
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(README), "exec"), {})


def test_readme_commands_are_the_cli_subcommands():
    # each `sibsim ...` line of the README's sh blocks parses as the CLI
    # parses it, and together they name exactly the parser's subcommands
    parser = _build_parser()
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line.split("#")[0].split() for block in blocks for line in block.splitlines()]
    named = {parser.parse_args(words[1:]).command for words in lines if words[:1] == ["sibsim"]}
    [subcommands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert named == set(subcommands.choices)
