"""Module boundaries inside the package: no module under src/trustvet
imports an underscore name from another trustvet module. A helper that two
modules share gets a public name in the module that owns it."""

from __future__ import annotations

import ast
from pathlib import Path

import trustvet

PACKAGE = Path(trustvet.__file__).parent


def private_imports(path: Path) -> list[str]:
    """`module: name` for each underscore name path imports from trustvet."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "trustvet":
            continue  # the standard library and third-party packages
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{'.' * node.level}{node.module or ''}: {alias.name}")
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = {path.relative_to(PACKAGE).as_posix(): private_imports(path) for path in PACKAGE.rglob("*.py")}
    assert {"frontend/lexer.py", "frontend/parser.py", "lineassess/dataset.py", "cli.py"} <= set(modules)
    assert {module: names for module, names in modules.items() if names} == {}


def test_a_private_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\nfrom os import _exit\n"
        "from .lexer import scan_line, _blank_comments\nfrom trustvet.pdg import _x\n",
        encoding="utf-8",
    )
    assert private_imports(module) == [".lexer: _blank_comments", "trustvet.pdg: _x"]
