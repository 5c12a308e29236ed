"""Every name a package module imports is used in that module, and every
private function, class, method and module-level name the package defines
is used in it."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fireline"

# imported only to be re-exported, or to be patched by name from outside
# (perfbench's tracer wraps harness.delta_interval, cli.front_speed_experiment
# and cli.spark_fraction_experiment), as each module documents
_RE_EXPORTS = {
    "cli.py": {"front_speed_experiment", "spark_fraction_experiment"},
    "harness.py": {"delta_interval"},
}


def _unused_imports(source):
    """Names bound by an import and never referenced, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # the names __all__ lists are used by export
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text())
    assert [n for n in unused if n not in _RE_EXPORTS.get(path.name, ())] == []


def test_guard_flags_an_unused_import():
    assert _unused_imports("import os\nfrom typing import List, Union\nx: List = []\n") == [
        "os", "Union",
    ]


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """The private (single-underscore) functions, classes and methods
    defined anywhere in a module, then the private names its top level
    assigns."""
    defined = [
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and _is_private(node.name)
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name) and _is_private(name.id)]
    return defined


def _unreferenced_private(sources):
    """The private definitions of the given sources that none of them loads
    by name or attribute: code no caller can reach.  An assignment is a
    store, so it does not count as a use of the name it binds."""
    trees = [ast.parse(source) for source in sources]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return [name for tree in trees for name in _private_definitions(tree) if name not in used]


def test_no_unreferenced_private_definitions():
    sources = [path.read_text() for path in sorted(_PACKAGE.glob("*.py"))]
    assert sum(len(_private_definitions(ast.parse(s))) for s in sources) > 50
    assert _unreferenced_private(sources) == []


def test_guard_flags_an_unreferenced_private_definition():
    source = (
        "class _State:\n"
        "    def _pos(self, t):\n        return t\n"
        "    def _cap(self, t):\n        return self._pos(t)\n"
        "    def __init__(self):\n        pass\n"
        "def _between():\n    return _State()\n"
    )
    assert _unreferenced_private([source]) == ["_between", "_cap"]


def test_guard_flags_an_unreferenced_private_constant():
    source = (
        "_CLUSTER_CELLS = 1 << 17\n"
        "_ROW_WIDTH: int = 39\n"
        "_SHIFT, _MASK = 32, 0xFFFFFFFF\n"
        "def width():\n    return _ROW_WIDTH >> _SHIFT\n"
    )
    assert _unreferenced_private([source]) == ["_CLUSTER_CELLS", "_MASK"]
