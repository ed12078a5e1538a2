"""Every module of the package uses every name it imports."""

import ast
from pathlib import Path

import valwb

# Names kept on purpose though the module does not use them:
# perfbench/test_perfbench.py::test_install_rebinds_names_imported_elsewhere_and_restores_them
# reads valwb.polyx.coerce to check that the tracer rebinds it there too.
ALLOWED = {("polyx.py", "coerce")}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(path.name, name, line) for name, line in imported.items()
            if name not in used and (path.name, name) not in ALLOWED]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(Path(valwb.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules if path.name != "__init__.py"
             for hit in unused_imports(path)]
    assert not found, found


def test_the_scan_sees_unused_and_used_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\nimport os.path\n"
                   "from math import gcd, lcm as l\n\ndef f(x: gcd) -> int:\n    return 1\n")
    assert unused_imports(src) == [("m.py", "os", 2), ("m.py", "l", 3)]
