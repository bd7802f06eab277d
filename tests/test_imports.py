"""Source hygiene: every imported name is used, and no souschef module
imports another's private names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # re-exports named in __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "souschef").rglob("*.py")) \
        + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    unused = [u for f in files for u in _unused_imports(f)]
    assert unused == []


def _private_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    return [f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("souschef"))
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_names_imported_across_modules():
    files = sorted((ROOT / "src" / "souschef").rglob("*.py"))
    assert files
    assert [p for f in files for p in _private_imports(f)] == []
