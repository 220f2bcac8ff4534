"""The package imports nothing at run time but numpy and the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relattn"


def imported_modules(path):
    """Top-level module of every absolute import in ``path``; relative
    imports, which stay inside the package, are left out."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_numpy_relative_or_stdlib():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    foreign = {(path.name, module) for path in files for module in imported_modules(path)
               if module != "numpy" and module not in sys.stdlib_module_names}
    assert not foreign
