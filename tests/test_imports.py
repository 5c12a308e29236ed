"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fireline"

# imported only to be re-exported, or to be patched by name from outside
# (perfbench's tracer wraps harness.delta_interval, cli.front_speed_experiment
# and cli.spark_fraction_experiment), as each module documents
_RE_EXPORTS = {
    "cli.py": {"front_speed_experiment", "spark_fraction_experiment"},
    "discrete.py": {"MEMORY_CAP_SITES", "ResourceLimitError"},
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
