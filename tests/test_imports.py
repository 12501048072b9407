"""Import hygiene: every top-level import in the package is used."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modinv"


def unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        f"{path.name}:{line} {name}"
        for name, line in bound.items()
        if name not in used and name not in exported
    )


def test_every_import_is_used():
    # __init__.py imports only to re-export
    files = sorted(f for f in SRC.glob("*.py") if f.name != "__init__.py")
    assert files
    problems = [p for f in files for p in unused_imports(f)]
    assert problems == []
