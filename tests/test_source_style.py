"""Source hygiene of the library: no unused module-level import, no
module-level function, class or constant that nothing in ``src/madmm``
names, no method or property of a private class (a module-level class
whose name starts with an underscore) that nothing in ``src/madmm`` names,
dunder methods aside, since nothing outside the package may call them, no
attribute that a private class stores on ``self`` and that nothing in
``src/madmm`` reads (by its name, on any object), and no line over 99
columns in ``src/madmm``.  ``__init__.py`` imports only to re-export, so it
is exempt from the unused checks; its imports are what names the public
API.  Only the step memo's helpers in ``system.py`` may hold a context
variable or mark an array read-only.  No class defines ``__hash__`` or
``__eq__``, and no term type calls ``_value_of``."""

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


def _named(tree):
    """Every name a module reads, as a bare name, an attribute or an import."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _read(tree):
    """Every attribute name a module reads (loads) somewhere."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _definitions(tree):
    """(line, name) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield node.lineno, n.id


def _private_members(tree):
    """(line, "Class.name", name) of each method and property of a
    module-level private class, dunder methods aside."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.lineno, f"{node.name}.{item.name}", item.name


def _private_fields(tree):
    """(line, "Class.name", name) of each attribute that a method of a
    module-level private class stores on ``self``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            for n in ast.walk(node):
                if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"):
                    yield n.lineno, f"{node.name}.{n.attr}", n.attr


TREES = [ast.parse(p.read_text()) for p in SRC]
NAMED = set().union(*map(_named, TREES))
READ = set().union(*map(_read, TREES))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_source_style(path):
    text = path.read_text()
    problems = [f"{path.name}:{i}: {len(line)} columns"
                for i, line in enumerate(text.splitlines(), 1)
                if len(line) > MAX_COLUMNS]
    if path.name != "__init__.py":
        tree = ast.parse(text)
        problems += [f"{path.name}:{line}: unused import {name!r}"
                     for line, name in _unused_imports(tree)]
        problems += [f"{path.name}:{line}: nothing in src/madmm names {name!r}"
                     for line, name in _definitions(tree) if name not in NAMED]
        problems += [f"{path.name}:{line}: nothing in src/madmm names {qual!r}"
                     for line, qual, name in _private_members(tree) if name not in NAMED]
        problems += [f"{path.name}:{line}: nothing in src/madmm reads {qual!r}"
                     for line, qual, name in _private_fields(tree) if name not in READ]
    assert not problems, "\n".join(problems)


# The step memo's helpers in system.py, the only code that may hold a
# context variable or mark an array read-only: the library keeps one memo,
# under one keying rule, and no second cache grows beside it.
MEMO_HELPERS = {"_MEMO", "_StepMemo", "step_memo", "_kept", "_read_only"}


def _owner(node):
    """The name of a module-level statement, "import" for an import."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return "import"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign):
        return ", ".join(t.id for t in node.targets if isinstance(t, ast.Name))
    return None


def _memo_uses(tree):
    """(line, owner, what) of each use of ``ContextVar`` or ``contextvars``
    (a name, an attribute or an import), and each ``flags.writeable = False``
    or ``setflags(write=False)``, under the module-level statement that
    ``_owner`` names."""
    for top in tree.body:
        owner = _owner(top)
        for n in ast.walk(top):
            names = ([n.id] if isinstance(n, ast.Name)
                     else [n.attr] if isinstance(n, ast.Attribute)
                     else n.name.split(".") if isinstance(n, ast.alias) else [])
            if {"ContextVar", "contextvars"}.intersection(names):
                yield getattr(n, "lineno", top.lineno), owner, "ContextVar"
            if (isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
                    and n.value.value is False
                    and any(isinstance(t, ast.Attribute) and t.attr == "writeable"
                            for t in n.targets)):
                yield n.lineno, owner, "flags.writeable = False"
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "setflags"):
                yield n.lineno, owner, "setflags"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_only_the_step_memo_keeps_context_or_marks_arrays_read_only(path):
    allowed = MEMO_HELPERS | {"import"} if path.name == "system.py" else set()
    problems = [f"{path.name}:{line}: {what} in {owner!r}, outside the step memo"
                for line, owner, what in _memo_uses(ast.parse(path.read_text()))
                if owner not in allowed]
    assert not problems, "\n".join(problems)


def _term_types(trees):
    """The names of ``_Term`` and of every class that derives from it."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    found, grown = {"_Term"}, True
    while grown:
        more = {name for name, parents in bases.items() if parents & found}
        grown = not more <= found
        found |= more
    return found


TERM_TYPES = _term_types(TREES)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_keys_hash_in_c_and_terms_read_checked_values(path):
    # A Python __hash__ or __eq__ puts a Python call on every dict lookup
    # keyed by that type (BlockIds are hash-consed instead); values are
    # checked once per public entry, so a term reads them as handed.
    problems = []
    for top in ast.parse(path.read_text()).body:
        for n in ast.walk(top):
            if isinstance(n, ast.FunctionDef) and n.name in ("__hash__", "__eq__"):
                problems.append(f"{path.name}:{n.lineno}: def {n.name}")
            if (isinstance(top, ast.ClassDef) and top.name in TERM_TYPES
                    and isinstance(n, ast.Name) and n.id == "_value_of"):
                problems.append(f"{path.name}:{n.lineno}: _value_of in {top.name}")
    assert not problems, "\n".join(problems)


def test_public_names_are_sorted_and_are_the_imports_of_init():
    # A removed export that stays in __all__ breaks ``from madmm import *``.
    import madmm

    tree = ast.parse((SRC[0].parent / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    names = madmm.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert set(names) == imported
