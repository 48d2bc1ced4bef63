"""Every top-level import of a ``sqgbounds`` module is used in that module,
and every top-level definition is read by the program.

No linter ships with the project, so these are the checks for imports and
definitions that a change left behind.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sqgbounds"
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


# definitions that no src/ module reads, each kept for the reason given
READER_ALLOWLIST = {
    "main": "the console-script entry point",
    "lambda_via_heat": "the heat-representation oracle that tests compare "
                       "apply_lambda_power against",
    "PHI_LINEAR": "the degenerate convex function verify_cordoba serves",
}


def _top_level_names(node):
    """Names that the module-level statement ``node`` defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _reads(node):
    """Names that ``node`` reads, as a ``Name`` or an ``Attribute``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def test_every_definition_has_a_reader():
    """Each module-level function, class and constant of ``sqgbounds`` is
    read somewhere in ``src/`` outside its own definition.  Methods and
    fields are out of reach, because their names collide with attributes of
    other objects (a method ``l2_norm`` would count as read wherever any
    ``.l2_norm`` is)."""
    defined, readers = [], {}
    for path in sorted(SRC.glob("*.py")):
        for i, node in enumerate(ast.parse(path.read_text()).body):
            key = (path.name, i)
            defined += [(key, n) for n in _top_level_names(node)
                        if not (n.startswith("__") and n.endswith("__"))]
            for name in _reads(node):
                readers.setdefault(name, set()).add(key)
    assert set(READER_ALLOWLIST) <= {name for _, name in defined}
    unread = sorted(f"{key[0]}: {name}" for key, name in defined
                    if name not in READER_ALLOWLIST
                    and not readers.get(name, set()) - {key})
    assert unread == []
