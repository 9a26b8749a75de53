import ast
import sys
from pathlib import Path

import vngender

PACKAGE = Path(vngender.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vngender"}


def imported_modules(path: Path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    outside = [f"{path.name}:{line}: {module}" for path in sources
               for line, module in imported_modules(path) if module not in ALLOWED]
    assert outside == []
