import ast
from pathlib import Path

import diskmean

SRC = Path(diskmean.__file__).parent

# the one private name modules share: every module that builds a coefficient
# array hands it to the series without a copy
SHARED = {("ComplexSeries", "_adopt")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _own_names(tree: ast.Module) -> set[str]:
    # private names a module defines: functions, assignment targets, and
    # the strings of its __slots__ and object.__setattr__ calls
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return {n for n in names if _private(n)}


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _own_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("diskmean")):
                found += [f"{path.name}: imports {node.module}.{a.name}"
                          for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and node.attr not in own):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if (owner, node.attr) not in SHARED:
                    found.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
    assert found == []
