"""The README's Python examples keep importing: every import statement in
its ```python blocks runs against the installed package."""

import ast
import re
from pathlib import Path

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
