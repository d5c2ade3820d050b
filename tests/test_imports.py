"""Every imported name in the package and its tests is used, every
top-level function and class of the package is used by the program, and
no package module reads the environment."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nekmini").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
PROGRAM = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
# solver diagnostics that acceptance criterion 7 uses as physics oracles
TEST_ORACLES = {"kinetic_energy", "max_divergence", "nusselt"}


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


def top_level_definitions(source: str) -> set[str]:
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def referenced_names(source: str) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_finds_an_unreferenced_definition():
    src = "def used():\n    pass\n\nclass Unused:\n    pass\n"
    assert top_level_definitions(src) - referenced_names(src + "used()\n") == {"Unused"}


def test_every_package_definition_is_used_by_the_program():
    referenced = set().union(*(referenced_names(p.read_text()) for p in PROGRAM))
    unused = {str(p.relative_to(ROOT)): sorted(top_level_definitions(p.read_text())
                                               - referenced - TEST_ORACLES)
              for p in PACKAGE}
    assert {path: names for path, names in unused.items() if names} == {}


def environment_reads(source: str) -> list[str]:
    """Every read of os.environ or os.getenv, however it was imported."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in names]
    return found


def test_finds_an_environment_read():
    src = "import os\nfrom os import getenv\na = os.environ['X']\nb = os.getenv('Y')\n"
    assert environment_reads(src) == [
        "line 2: from os import getenv", "line 3: os.environ", "line 4: os.getenv"]
    assert environment_reads("import os\nos.path.join('a')\n") == []


def test_no_package_module_reads_the_environment():
    # every setting reaches a role through its CLI flags or is a constant
    found = {str(p.relative_to(ROOT)): environment_reads(p.read_text()) for p in PACKAGE}
    assert {path: reads for path, reads in found.items() if reads} == {}
