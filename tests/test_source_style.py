"""Source hygiene of the library: no unused module-level import and no line
over 99 columns in ``src/madmm``.  ``__init__.py`` imports only to re-export,
so its imports are exempt from the unused check."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "madmm").glob("*.py"))
MAX_COLUMNS = 99


def _unused_imports(tree):
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_source_style(path):
    text = path.read_text()
    problems = [f"{path.name}:{i}: {len(line)} columns"
                for i, line in enumerate(text.splitlines(), 1)
                if len(line) > MAX_COLUMNS]
    if path.name != "__init__.py":
        problems += [f"{path.name}:{line}: unused import {name!r}"
                     for line, name in _unused_imports(ast.parse(text))]
    assert not problems, "\n".join(problems)
