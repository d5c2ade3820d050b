"""Every imported name in the package and its tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "nekmini").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
