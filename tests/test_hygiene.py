"""Source hygiene: every module of the package uses each name it imports,
every private module-level name is referenced by some package module, and
every file the package writes goes through ``sampler._write_atomic``."""

import ast
import re
from pathlib import Path

import pytest

import biathlon_bayes

_PACKAGE = Path(biathlon_bayes.__file__).parent
_SOURCES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from x import a, b as c\n"
        "__all__ = ['a']\n"
        "os.getcwd()\n"
    )
    assert _unused_imports(tree) == ["line 2: osp", "line 3: c"]


def _unreferenced_privates(modules: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that no module
    reads, as a bare name, an attribute or an imported name."""
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{module} line {node.lineno}: {name}" for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in read]
    return found


def test_every_private_name_is_referenced():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _PACKAGE.glob("*.py")}
    assert _unreferenced_privates(modules) == []


def test_the_check_sees_an_unreferenced_private_name():
    modules = {
        "a.py": ast.parse(
            "_LIMIT = 3\n"
            "_SPARE: int = 4\n"
            "def _grad(x):\n"
            "    return x\n"
            "class _Group:\n"
            "    pass\n"
            "def _used():\n"
            "    return _LIMIT\n"
            "__all__ = []\n"
        ),
        "b.py": ast.parse("from .a import _used\nimport a\na._Group()\n"),
    }
    assert _unreferenced_privates(modules) == ["a.py line 2: _SPARE", "a.py line 3: _grad"]


_WRITE_MODE = re.compile(r"[rbtU]*[wax+][rbtwax+U]*")


def _opens_for_writing(call: ast.Call) -> bool:
    """``open(path, mode)``/``p.open(mode)`` with a writing mode (or a mode
    that is not a literal), or ``p.write_bytes``/``p.write_text``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_bytes", "write_text"):
        return True
    if name != "open":
        return False
    # builtin open(file, mode), but Path.open(mode)
    at = 1 if isinstance(func, ast.Name) else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[at:at + 1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or _WRITE_MODE.fullmatch(m.value) for m in modes)


def _unguarded_writes(modules: dict[str, ast.Module]) -> list[str]:
    """File writes outside ``sampler._write_atomic``, which alone writes a
    temporary file and moves it onto the target."""
    found = []

    def visit(module, node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            else:
                inner = func
            if (isinstance(child, ast.Call) and _opens_for_writing(child)
                    and (module, func) != ("sampler.py", "_write_atomic")):
                found.append(f"{module} line {child.lineno}")
            visit(module, child, inner)

    for module, tree in modules.items():
        visit(module, tree, None)
    return found


def test_every_write_is_atomic():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _PACKAGE.glob("*.py")}
    assert _unguarded_writes(modules) == []


def test_the_check_sees_a_direct_write():
    writer = (
        "def _write_atomic(path, write):\n"
        "    with open(f'{path}.tmp', 'wb') as fh:\n"
        "        write(fh)\n"
    )
    modules = {
        "sampler.py": ast.parse(writer),
        "a.py": ast.parse(
            writer
            + "def f(p, mode):\n"
            "    open(p).read()\n"
            "    open(p, 'rb', encoding=None).read()\n"
            "    open('data.csv', encoding='utf-8').read()\n"
            "    open('a')\n"
            "    p.open()\n"
            "    p.open('rb')\n"
            "    open(p, mode=mode)\n"
            "    open(p, mode)\n"
            "    p.open('a')\n"
            "    open(p, 'r+b')\n"
            "    p.write_text('x')\n"
            "    p.write_bytes(b'x')\n"
        ),
    }
    assert _unguarded_writes(modules) == [f"a.py line {n}"
                                          for n in (2, 11, 12, 13, 14, 15, 16)]
